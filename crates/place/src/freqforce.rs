//! The frequency repulsive force `F(i, j; x, y)` (Eqs. 9–10).
//!
//! Near-resonant instances (detuning ≤ Δc) from different resonators
//! repel like charges: force magnitude `1/d²`, i.e. potential energy
//! `1/d`. Each iteration touches only genuinely conflicting pairs
//! instead of all pairs — the optimization described in §IV-C1.
//!
//! # The class index
//!
//! A frequency assignment uses a handful of distinct frequencies (eight
//! on every device the assigner produces), and whether two instances
//! resonate depends only on their frequencies. So instead of storing
//! every resonant pair, the force stores, per distinct frequency (a
//! *class*), the ascending ids of every instance within 0.999·Δc of it
//! — the rule of [`QuantumNetlist::collision_map`]. Per instance (a
//! *row*) it keeps the runs of its class list that hold its partners
//! with a larger id; the same-resonator exclusions (Eq. 10's Kronecker
//! delta) are cut out of those runs at build time, so the inner loop
//! has no test. Memory is O(n + exclusions) instead of O(pairs), and the
//! build is one sort, a linear pass and a binary search per exclusion.
//! When neighbouring classes fall inside Δc of each other (a hand-made
//! or deserialized assignment), their members merge into one sorted
//! class list and the same path covers them.
//!
//! # Bit identity with the pair list
//!
//! The kernel walks rows in ascending id and each row's partners in
//! ascending id: exactly the lexicographic `(i, j)` order of the upper
//! triangle of the collision map. When row `i` starts, its gradient
//! already holds every deposit from earlier rows, and no other row
//! touches it until row `i` ends, so the row's own x/y gradient is
//! loaded once, accumulated in registers and stored back. The partner
//! updates and the energy sum see the same operations in the same order
//! as before, so energy, gradient and every layout are bit-identical to
//! iterating the collision map pair by pair, which the `parity` tests
//! below check.
//!
//! Distances are softened below `d_min` (the mutual padded clearance) so
//! coincident instances exert a large-but-finite force and the potential
//! stays differentiable everywhere.

use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;

/// Pairwise 1/d frequency-repulsion potential over a frequency-class
/// index (see the module docs).
#[derive(Debug, Clone)]
pub struct FrequencyForce {
    /// Class lists, concatenated: per distinct frequency, the ascending
    /// ids of every instance within 0.999·Δc of it.
    partners: Vec<u32>,
    /// Half-open `partners` ranges holding each row's larger-id partners,
    /// same-resonator members already cut out.
    runs: Vec<(u32, u32)>,
    /// Row `i` owns `runs[row_runs[i]..row_runs[i + 1]]`.
    row_runs: Vec<u32>,
    softening: f64,
}

impl FrequencyForce {
    /// Builds the force model for `netlist`, with softening distance set
    /// to half the largest padded footprint (a coincident pair behaves
    /// like one at half-overlap rather than exploding).
    ///
    /// # Panics
    ///
    /// Panics if the netlist or its class lists outgrow `u32` indices.
    #[must_use]
    pub fn new(netlist: &QuantumNetlist) -> Self {
        let instances = netlist.instances();
        let n = instances.len();
        let softening = 0.5 * netlist.max_padded_side().max(1e-3);
        let dc = (netlist.detuning_threshold() * 0.999).ghz();
        let to_u32 = |x: usize| u32::try_from(x).expect("frequency index exceeds u32");
        if dc < 0.0 {
            // Not even equal frequencies lie within a negative Δc.
            return Self {
                partners: Vec::new(),
                runs: Vec::new(),
                row_runs: vec![0; n + 1],
                softening,
            };
        }
        let freq: Vec<f64> = instances.iter().map(|i| i.frequency().ghz()).collect();

        // (frequency, id) order: each class is a contiguous run of it and
        // each class's resonant window a contiguous range around it.
        let mut order: Vec<u32> = (0..to_u32(n)).collect();
        order.sort_by(|&a, &b| freq[a as usize].total_cmp(&freq[b as usize]));
        let f_of = |k: usize| freq[order[k] as usize];

        // Per row: the `partners` range of its larger-id class members.
        let mut span = vec![(0u32, 0u32); n];
        let mut partners = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let f = f_of(start);
            let mut end = start + 1;
            while end < n && f_of(end).total_cmp(&f).is_eq() {
                end += 1;
            }
            let (mut lo, mut hi) = (start, end);
            while lo > 0 && f - f_of(lo - 1) <= dc {
                lo -= 1;
            }
            while hi < n && f_of(hi) - f <= dc {
                hi += 1;
            }
            let base = partners.len();
            partners.extend_from_slice(&order[lo..hi]);
            // Already ascending unless other classes merged in.
            partners[base..].sort_unstable();
            let list_end = to_u32(partners.len());
            for (k, &j) in partners[base..].iter().enumerate() {
                if freq[j as usize].total_cmp(&f).is_eq() {
                    span[j as usize] = (to_u32(base + k + 1), list_end);
                }
            }
            start = end;
        }

        // Same-resonator segments grouped by resonator, ascending id
        // within a group; each row's exclusions are its later mates.
        let mut segments: Vec<(usize, u32)> = instances
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.kind().resonator().map(|r| (r, to_u32(i))))
            .collect();
        segments.sort_unstable();
        let mut mates: Vec<&[(usize, u32)]> = vec![&[]; n];
        for group in segments.chunk_by(|a, b| a.0 == b.0) {
            for (k, &(_, i)) in group.iter().enumerate() {
                mates[i as usize] = &group[k + 1..];
            }
        }

        // Cut each row's span into runs around its excluded mates.
        let mut runs = Vec::with_capacity(n);
        let mut row_runs = Vec::with_capacity(n + 1);
        row_runs.push(0);
        for (&(mut from, to), row_mates) in span.iter().zip(&mates) {
            for &(_, j) in *row_mates {
                // A mate outside the resonant window is no partner anyway.
                if let Ok(k) = partners[from as usize..to as usize].binary_search(&j) {
                    let cut = from + to_u32(k);
                    if cut > from {
                        runs.push((from, cut));
                    }
                    from = cut + 1;
                }
            }
            if to > from {
                runs.push((from, to));
            }
            row_runs.push(to_u32(runs.len()));
        }
        Self {
            partners,
            runs,
            row_runs,
            softening,
        }
    }

    /// Number of deduplicated (unordered) interacting pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.runs
            .iter()
            .map(|&(from, to)| (to - from) as usize)
            .sum()
    }

    /// The softening distance.
    #[must_use]
    pub fn softening(&self) -> f64 {
        self.softening
    }

    /// Penalty energy `Σ 1/max(d, ε)`-style (softened) and its gradient
    /// (layout `[∂x…, ∂y…]`).
    ///
    /// Convenience wrapper over [`FrequencyForce::energy_grad_into`] that
    /// allocates the gradient vector.
    #[must_use]
    pub fn energy_grad(&self, positions: &[Point]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; 2 * positions.len()];
        let energy = self.energy_grad_into(positions, &mut grad);
        (energy, grad)
    }

    /// Allocation-free variant of [`FrequencyForce::energy_grad`]:
    /// overwrites the caller-owned `grad` and returns the energy.
    ///
    /// Softened potential: `φ(d) = 1/√(d² + ε²)`, so the force magnitude
    /// is `d/(d² + ε²)^{3/2}` ≈ `1/d²` for `d ≫ ε`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != 2 * positions.len()`.
    pub fn energy_grad_into(&self, positions: &[Point], grad: &mut [f64]) -> f64 {
        let n = positions.len();
        assert_eq!(grad.len(), 2 * n, "gradient buffer length mismatch");
        grad.fill(0.0);
        let (grad_x, grad_y) = grad.split_at_mut(n);
        let mut energy = 0.0;
        let eps2 = self.softening * self.softening;
        for (i, row) in self.row_runs.windows(2).enumerate() {
            let p = positions[i];
            // Register accumulation keeps the pair-list order (module docs).
            let (mut gx, mut gy) = (grad_x[i], grad_y[i]);
            for &(from, to) in &self.runs[row[0] as usize..row[1] as usize] {
                for &j in &self.partners[from as usize..to as usize] {
                    let j = j as usize;
                    let dx = p.x - positions[j].x;
                    let dy = p.y - positions[j].y;
                    let r2 = dx * dx + dy * dy + eps2;
                    // One division per pair: 1/r³ = (1/r)·(1/r)², avoiding
                    // a second divide through r²·r.
                    let inv_r = 1.0 / r2.sqrt();
                    energy += inv_r;
                    // ∂(1/r)/∂x_i = -dx / r³ — descending increases distance.
                    let inv_r3 = inv_r * inv_r * inv_r;
                    gx -= dx * inv_r3;
                    grad_x[j] += dx * inv_r3;
                    gy -= dy * inv_r3;
                    grad_y[j] += dy * inv_r3;
                }
            }
            grad_x[i] = gx;
            grad_y[i] = gy;
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::{NetlistConfig, QuantumNetlist};
    use qplacer_topology::Topology;

    fn netlist() -> QuantumNetlist {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
    }

    /// Find two resonant instances from different resonators.
    fn resonant_pair(nl: &QuantumNetlist) -> (usize, usize) {
        let map = nl.collision_map();
        for (i, partners) in map.iter().enumerate() {
            if let Some(&j) = partners.first() {
                return (i, j);
            }
        }
        panic!("no resonant pair in test netlist");
    }

    #[test]
    fn gradient_pushes_resonant_pair_apart() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let mut pos = vec![Point::ORIGIN; n];
        // Park everything far away; overlap only the pair of interest.
        for (k, p) in pos.iter_mut().enumerate() {
            p.x = 100.0 + k as f64 * 10.0;
        }
        pos[i] = Point::new(-0.1, 0.0);
        pos[j] = Point::new(0.1, 0.0);
        let (_, grad) = force.energy_grad(&pos);
        // Descending separates: left instance must move −x (positive grad).
        assert!(grad[i] > 0.0, "grad_i.x = {}", grad[i]);
        assert!(grad[j] < 0.0, "grad_j.x = {}", grad[j]);
    }

    #[test]
    fn energy_decays_with_separation() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let far = |d: f64| {
            let mut pos = vec![Point::ORIGIN; n];
            for (k, p) in pos.iter_mut().enumerate() {
                p.x = 1000.0 + k as f64 * 50.0;
            }
            pos[i] = Point::new(0.0, 0.0);
            pos[j] = Point::new(d, 0.0);
            force.energy_grad(&pos).0
        };
        assert!(far(1.0) > far(2.0));
        assert!(far(2.0) > far(5.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let n = nl.num_instances();
        let pos: Vec<Point> = (0..n)
            .map(|k| Point::new((k as f64 * 0.7).sin() * 3.0, (k as f64 * 1.3).cos() * 3.0))
            .collect();
        let (_, grad) = force.energy_grad(&pos);
        let h = 1e-6;
        for k in (0..n).step_by(7) {
            let mut plus = pos.clone();
            plus[k].x += h;
            let mut minus = pos.clone();
            minus[k].x -= h;
            let fd = (force.energy_grad(&plus).0 - force.energy_grad(&minus).0) / (2.0 * h);
            assert!(
                (fd - grad[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "x-grad {k}: fd {fd} vs {}",
                grad[k]
            );
        }
    }

    #[test]
    fn zero_force_between_detuned_instances() {
        // A device with a single edge: the two qubits get distinct slots,
        // the segments belong to one resonator (excluded), so the only
        // possible interactions are qubit-vs-segment (different bands,
        // never resonant). The collision map must be empty.
        let t = Topology::from_edges("pair", 2, [(0, 1)]).unwrap();
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        let force = FrequencyForce::new(&nl);
        assert_eq!(force.pair_count(), 0);
        let pos = vec![Point::ORIGIN; nl.num_instances()];
        let (e, grad) = force.energy_grad(&pos);
        assert_eq!(e, 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn softening_caps_coincident_force() {
        let nl = netlist();
        let force = FrequencyForce::new(&nl);
        let (i, j) = resonant_pair(&nl);
        let n = nl.num_instances();
        let mut pos = vec![Point::ORIGIN; n];
        for (k, p) in pos.iter_mut().enumerate() {
            p.y = 500.0 + k as f64 * 10.0;
        }
        pos[i] = Point::ORIGIN;
        pos[j] = Point::ORIGIN; // exactly coincident
        let (e, grad) = force.energy_grad(&pos);
        assert!(e.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}

/// Bit-parity of the class index against the pair-list kernel it
/// replaced, fed from the reference [`QuantumNetlist::collision_map`].
#[cfg(test)]
mod parity {
    use super::*;
    use crate::multilevel::heavy_edge_clusters;
    use qplacer_freq::{FrequencyAssigner, FrequencyAssignment};
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn build(t: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        QuantumNetlist::build(t, &freqs, &NetlistConfig::default())
    }

    /// The pair-list kernel: every collision-map pair `(i, j)`, `i < j`,
    /// in lexicographic order.
    fn pair_list_energy_grad(
        map: &[Vec<usize>],
        softening: f64,
        positions: &[Point],
    ) -> (f64, Vec<f64>) {
        let n = positions.len();
        let mut grad = vec![0.0; 2 * n];
        let mut energy = 0.0;
        let eps2 = softening * softening;
        for (i, partners) in map.iter().enumerate() {
            for &j in partners.iter().filter(|&&j| j > i) {
                let dx = positions[i].x - positions[j].x;
                let dy = positions[i].y - positions[j].y;
                let r2 = dx * dx + dy * dy + eps2;
                let inv_r = 1.0 / r2.sqrt();
                energy += inv_r;
                let inv_r3 = inv_r * inv_r * inv_r;
                grad[i] -= dx * inv_r3;
                grad[j] += dx * inv_r3;
                grad[n + i] -= dy * inv_r3;
                grad[n + j] += dy * inv_r3;
            }
        }
        (energy, grad)
    }

    /// Asserts the class index reproduces the pair-list energy and
    /// gradient bit for bit, at a tight and a region-wide scatter.
    fn assert_bit_identical(nl: &QuantumNetlist) {
        let force = FrequencyForce::new(nl);
        let map = nl.collision_map();
        let entries: usize = map.iter().map(Vec::len).sum();
        assert!(entries > 0, "parity case needs collisions");
        assert_eq!(2 * force.pair_count(), entries);
        let c = nl.region().center();
        for spread in [0.05, 0.5 * nl.region().width()] {
            let pos: Vec<Point> = (0..nl.num_instances())
                .map(|k| {
                    let k = k as f64;
                    Point::new(
                        c.x + (k * 0.7).sin() * spread,
                        c.y + (k * 1.3).cos() * spread,
                    )
                })
                .collect();
            let (e_ref, g_ref) = pair_list_energy_grad(&map, force.softening(), &pos);
            let (e, g) = force.energy_grad(&pos);
            assert_eq!(e.to_bits(), e_ref.to_bits(), "energy {e} vs {e_ref}");
            for (k, (a, b)) in g.iter().zip(&g_ref).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "grad[{k}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn falcon_and_eagle_match_the_pair_list() {
        assert_bit_identical(&build(&Topology::falcon27()));
        assert_bit_identical(&build(&Topology::eagle127()));
    }

    #[test]
    fn yield_screened_d10_matches_the_pair_list() {
        assert_bit_identical(&build(&Topology::heavy_hex(10).with_yield(99, 1)));
    }

    #[test]
    fn vcycle_levels_match_the_pair_list() {
        let mut nl = build(&Topology::eagle127());
        for _ in 0..3 {
            let (cluster_of, clusters) = heavy_edge_clusters(&nl);
            nl = nl.coarsen(&cluster_of, clusters);
            assert_bit_identical(&nl);
        }
    }

    #[test]
    fn scattered_resonator_ids_match_the_pair_list() {
        // Relabel falcon: even ids first, then odd ids, so each
        // resonator's segments interleave with other instances and
        // the exclusions cut rows into several runs.
        let nl = build(&Topology::falcon27());
        let n = nl.num_instances();
        let relabel: Vec<usize> = (0..n).map(|i| i / 2 + (i % 2) * n.div_ceil(2)).collect();
        let nl = nl.coarsen(&relabel, n);
        let same = |i: usize, j: usize| nl.instance(i).same_resonator(nl.instance(j));
        assert!(
            (0..n - 1).any(|i| !same(i, i + 1) && (i + 2..n).any(|j| same(i, j))),
            "relabelling left every resonator contiguous"
        );
        assert_bit_identical(&nl);
    }

    fn assignment(qubits: &[f64], resonators: &[f64], dc: f64) -> FrequencyAssignment {
        let list = |f: &[f64]| f.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let json = format!(
            r#"{{"qubits":[{}],"resonators":[{}],"detuning_threshold":{dc}}}"#,
            list(qubits),
            list(resonators)
        );
        serde_json::from_str(&json).expect("assignment parses")
    }

    #[test]
    fn negative_dc_resonates_nothing() {
        let t = Topology::grid(2, 2);
        let freqs = assignment(&[5.0; 4], &[6.5; 4], -0.01);
        let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        assert!(nl.collision_map().iter().all(Vec::is_empty));
        assert_eq!(FrequencyForce::new(&nl).pair_count(), 0);
    }

    #[test]
    fn adjacent_classes_inside_dc_match_the_pair_list() {
        // Qubit and resonator frequencies 10 MHz apart with Δc = 35 MHz:
        // every class overlaps its neighbours' windows.
        let t = Topology::grid(4, 4);
        let qubits: Vec<f64> = (0..t.num_qubits()).map(|q| 5.0 + 0.01 * q as f64).collect();
        let resonators: Vec<f64> = (0..t.num_edges())
            .map(|e| 6.5 + 0.01 * (e % 7) as f64)
            .collect();
        let freqs = assignment(&qubits, &resonators, 0.035);
        let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        let cross_class = nl.collision_map().iter().enumerate().any(|(i, partners)| {
            partners
                .iter()
                .any(|&j| nl.instance(i).frequency() != nl.instance(j).frequency())
        });
        assert!(cross_class, "no collision pair spans two frequencies");
        assert_bit_identical(&nl);
    }
}
