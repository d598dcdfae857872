//! Process and thread CPU clocks, read through the C library.
//!
//! Timings are CPU seconds (user + system, every thread), not wall time:
//! on a small shared host wall time mostly measures the scheduler. The
//! clocks have nanosecond resolution, unlike the 10 ms tick that
//! `/proc/self/stat` reports.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU clocks with the 64-bit C layouts");

use std::os::raw::c_int;

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_SELF: c_int = 0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    #[allow(dead_code)] // written by the C library, only for its layout
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn clock_seconds(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock id
    // is one of the two constants above, which Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process.
#[must_use]
pub fn process_cpu_s() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// System CPU seconds (kernel work, e.g. spawning threads).
    pub sys_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
#[must_use]
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    // SAFETY: `ru` has the layout of `struct rusage` on 64-bit Linux (the
    // compile_error above rejects other targets) and is writable.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    Usage {
        sys_s: secs(&ru.ru_stime),
        peak_rss_mb: ru.longs[0] as f64 / 1024.0,
    }
}

/// Runs `f` and returns its result with the process CPU seconds it used.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (sum, cpu) = timed(|| (0..20_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
        std::hint::black_box(sum);
        assert!(cpu > 0.0);
        assert!(thread_cpu_s() > 0.0);
        let u = usage();
        assert!(u.sys_s >= 0.0 && u.peak_rss_mb > 1.0);
    }
}
