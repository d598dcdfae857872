//! The benchmark's result line and the host fingerprint printed beside it.

use crate::stats::valid_name;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The last line of standard output: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on an invalid metric name — a bug in this benchmark, not in
/// the program it measures.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal for a finite value; JSON has no NaN or
/// infinity, so those become `null` (and the caller marks the run wrong).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// CPU model, core count, compiler, pool size and commit: enough to tell
/// whether two result sets are comparable.
#[must_use]
pub fn host_fingerprint(pool_threads: usize) -> String {
    let cpu = cpu_model();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "host: cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\" pool_threads={pool_threads} commit={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        commit()
    )
}

/// The processor brand string from `cpuid`, so the fingerprint reads no
/// file outside the working directory.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a repository.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("setup_s", 0.25, "s"), metric("ok_frac", 1.0, "frac")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ok_frac\": {\"value\": 1.0, \"unit\": \"frac\"}}}"
        );
        assert!(result_line(false, 1, 1, &[metric("x", f64::NAN, "s")]).contains("null"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_rejects_bad_names() {
        let _ = result_line(true, 1, 0, &[metric("p 90", 1.0, "ms")]);
    }
}
