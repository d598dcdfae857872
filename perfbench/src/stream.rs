//! Seeded input streams. The workload seed is the only source of
//! randomness: the same seed always yields the same ops.

use qplacer_topology::{Topology, TopologyDelta};

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// One engineering change to a base device, re-placed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Drop one coupler.
    DropCoupler(usize, usize),
    /// Drop one qubit and its couplers.
    DropQubit(usize),
    /// Apply a sampled fabrication yield (percent) with a defect seed.
    Yield { pct: u32, seed: u64 },
}

impl Edit {
    /// The delta this edit applies to `base`.
    ///
    /// # Errors
    ///
    /// Returns the topology error when the edit does not fit `base`.
    pub fn delta(&self, base: &Topology) -> Result<TopologyDelta, String> {
        match *self {
            Edit::DropCoupler(a, b) => TopologyDelta::drop_couplers(base, &[(a, b)]),
            Edit::DropQubit(q) => TopologyDelta::drop_qubits(base, &[q]),
            Edit::Yield { pct, seed } => Ok(base.yield_delta(pct, seed)),
        }
        .map_err(|e| e.to_string())
    }
}

impl std::fmt::Display for Edit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Edit::DropCoupler(a, b) => write!(f, "drop coupler {a}-{b}"),
            Edit::DropQubit(q) => write!(f, "drop qubit {q}"),
            Edit::Yield { pct, seed } => write!(f, "yield {pct}% seed {seed}"),
        }
    }
}

/// `n` edits of `base` drawn from `seed`, cycling through single-coupler
/// drops, single-qubit drops and 98–99 % yield samples so that every
/// stream has the same mix. Drops that would disconnect the device are
/// redrawn, so every edit leaves a placeable device.
#[must_use]
pub fn eco_edits(base: &Topology, seed: u64, n: usize) -> Vec<Edit> {
    let mut rng = SplitMix64::new(seed);
    let mut edits = Vec::with_capacity(n);
    while edits.len() < n {
        let edit = match edits.len() % 3 {
            0 => {
                let (a, b) = base.edges()[rng.below(base.num_edges())];
                Edit::DropCoupler(a, b)
            }
            1 => Edit::DropQubit(rng.below(base.num_qubits())),
            _ => Edit::Yield {
                pct: 98 + rng.below(2) as u32,
                seed: rng.next_u64() >> 16,
            },
        };
        let connected = edit
            .delta(base)
            .and_then(|d| d.apply(base).map_err(|e| e.to_string()))
            .is_ok_and(|t| t.num_qubits() > 1 && t.is_connected());
        if connected {
            edits.push(edit);
        }
    }
    edits
}

/// `n` defect seeds for yield-screened devices, drawn from `seed`.
#[must_use]
pub fn defect_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0xD10D_10D1);
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let base = Topology::eagle127();
        let a = eco_edits(&base, 11, 40);
        assert_eq!(a, eco_edits(&base, 11, 40));
        assert_ne!(a, eco_edits(&base, 12, 40));
        assert_eq!(defect_seeds(3, 4), defect_seeds(3, 4));
        assert_ne!(defect_seeds(3, 4), defect_seeds(4, 4));
    }

    #[test]
    fn stream_mixes_every_edit_kind_and_keeps_devices_connected() {
        let base = Topology::eagle127();
        let edits = eco_edits(&base, 5, 60);
        assert!(edits.iter().any(|e| matches!(e, Edit::DropCoupler(..))));
        assert!(edits.iter().any(|e| matches!(e, Edit::DropQubit(_))));
        assert!(edits.iter().any(|e| matches!(e, Edit::Yield { .. })));
        for edit in &edits {
            let target = edit.delta(&base).unwrap().apply(&base).unwrap();
            assert!(target.is_connected(), "{edit}");
        }
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let base = Topology::falcon27();
        let short = eco_edits(&base, 9, 10);
        assert_eq!(short[..], eco_edits(&base, 9, 25)[..10]);
    }
}
