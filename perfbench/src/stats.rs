//! Summary statistics, outcome counting and metric naming.

/// Fewest samples that must lie strictly above a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `p`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above it — too few for the tail to be
/// measured rather than guessed.
///
/// # Panics
///
/// Panics unless `0 < p < 100`, or on a NaN sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    // 1-based nearest rank; the samples beyond it are the n - rank above.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(s[rank - 1])
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Ops attempted and failed, with one line per failure naming the op.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: usize,
    /// Descriptions of the failed ops (`<workload> seed <s> op <i>: why`).
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one op: `Ok` passes, `Err(why)` fails and is listed.
    pub fn record(
        &mut self,
        workload: &str,
        seed: u64,
        op: impl std::fmt::Display,
        outcome: Result<(), String>,
    ) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures
                .push(format!("{workload} seed {seed} op {op}: {why}"));
        }
    }

    /// Ops that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// Share of attempted ops that completed and passed every check.
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90 with exactly 10 above it.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // p99 would leave only one sample beyond: omitted.
        assert_eq!(percentile(&samples, 99.0), None);
        // 99 samples leave only 9 above rank 90: omitted.
        assert_eq!(percentile(&samples[..99], 90.0), None);
        // The median needs 20 samples.
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=120).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 90.0), Some(108.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ok_frac_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.ok_frac(), 0.0);
        for op in 0..8 {
            let outcome = if op % 4 == 3 {
                Err("overlap".to_string())
            } else {
                Ok(())
            };
            tally.record("eco_eagle", 7, op, outcome);
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.ok_frac(), 0.75);
        assert_eq!(tally.failures[0], "eco_eagle seed 7 op 3: overlap");
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for good in ["setup_s", "place.freqforce_grad_ms", "op-cpu", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".x",
            "has space",
            "p/90",
            "ms%",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
