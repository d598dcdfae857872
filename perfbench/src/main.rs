//! End-to-end and per-layer benchmark of the QPlacer pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eco_eagle|paper_suite|heavy_hex_d10_yield> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` belongs to that workload.
//! The program's rayon pool is installed explicitly at one thread per
//! core. Progress notes and the host fingerprint go to stdout; the last
//! line is the JSON result. The exit code is non-zero when any output
//! check failed. See `perfbench/README.md` for the workloads and metrics.

mod checks;
mod cpu;
mod layers;
mod report;
mod stats;
mod stream;
mod workloads;

use std::process::ExitCode;

use workloads::{Ctx, Outcome, WORKLOADS};

struct Args {
    workload: String,
    ctx: Ctx,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.unwrap_or(1),
            seconds,
        },
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building the pool");
    println!("{}", report::host_fingerprint(pool.current_num_threads()));
    println!(
        "workload={} seed={} seconds={} trace={}; timings are process CPU from \
         clock_gettime and getrusage, one workload per process, rayon pool \
         installed at {} threads",
        args.workload,
        args.ctx.seed,
        args.ctx.seconds,
        u8::from(args.trace),
        pool.current_num_threads()
    );

    let ctx = args.ctx;
    let outcome: Outcome = pool.install(|| match (args.workload.as_str(), args.trace) {
        ("eco_eagle", false) => workloads::eco_eagle(ctx),
        ("eco_eagle", true) => workloads::eco_eagle_traced(ctx),
        ("paper_suite", false) => workloads::paper_suite(ctx, threads),
        ("paper_suite", true) => workloads::paper_suite_traced(ctx, threads),
        ("heavy_hex_d10_yield", false) => workloads::heavy_hex_d10_yield(ctx),
        ("heavy_hex_d10_yield", true) => workloads::heavy_hex_d10_yield_traced(ctx),
        _ => unreachable!("workload names are checked in parse_args"),
    });

    let mut failures = outcome.tally.failures.clone();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for m in &outcome.metrics {
        println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &failures {
        println!("FAILED: {failure}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.failed(),
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
