//! The three workloads. Each is a closed loop with one caller: the next
//! op starts when the previous one has returned. `run` measures the
//! end-to-end metrics with nothing traced; `trace` is the separate run
//! that calls each stage itself and reports the per-layer metrics.

use rayon::prelude::*;

use qplacer_harness::{
    DeviceSpec, ExecOptions, ExperimentPlan, JobRecord, PipelineConfig, PipelineWorkspace,
    PlacedLayout, Profile, Qplacer, ReplaceReport, RunOptions, Runner, Strategy,
};
use qplacer_legal::LegalReport;
use qplacer_metrics::{evaluate_benchmark, FidelityParams};
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::mean;
use qplacer_topology::{Topology, TopologyDelta};

use crate::checks::check_layout;
use crate::cpu::{process_cpu_s, thread_cpu_s, timed, usage};
use crate::layers::{kernel_cpu, other_ms_per_iteration, staged_pipeline, KernelCpu, Staged};
use crate::report::{metric, Metric};
use crate::stats::{median, percentile, Tally};
use crate::stream::{defect_seeds, eco_edits};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["eco_eagle", "paper_suite", "heavy_hex_d10_yield"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Kernel calls timed per layout in the traced run.
const KERNEL_REPS: usize = 5;

/// The eight Table-I benchmark circuits.
const TABLE_I: [&str; 8] = [
    "bv-4", "bv-9", "bv-16", "qaoa-4", "qaoa-9", "ising-4", "qgan-4", "qgan-9",
];

/// Random connected subsets per benchmark (the paper's Fig. 11 protocol).
const SUBSETS: usize = 50;

/// Subsets per circuit when `qplacer_fidelity` is taken on a set-up
/// layout, drawn from a fixed seed so the guard is deterministic.
const GUARD_SUBSETS: usize = 10;
const GUARD_SEED: u64 = 0;

/// One run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed: the only source of input randomness.
    pub seed: u64,
    /// The run's length in seconds; sets the op count.
    pub seconds: u64,
}

/// What a run produced: metrics, op outcomes and notes for stdout.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
}

/// Crosstalk and area quality over Qplacer-strategy layouts, plus their
/// mean Fig. 11 fidelity.
#[derive(Debug, Default, Clone, PartialEq)]
struct Quality {
    ph: Vec<f64>,
    hpwl: Vec<f64>,
    mer_area: Vec<f64>,
    integrated: usize,
    resonators: usize,
    fidelity: Vec<f64>,
}

impl Quality {
    fn add(&mut self, netlist: &QuantumNetlist, ph: f64, hpwl: f64, legal: Option<&LegalReport>) {
        self.ph.push(ph);
        self.hpwl.push(hpwl);
        self.mer_area
            .push(qplacer_metrics::AreaMetrics::of(netlist).mer_area);
        if let Some(legal) = legal {
            self.integrated += legal.integrated_after;
            self.resonators += legal.resonator_count;
        }
    }

    fn add_layout(&mut self, layout: &PlacedLayout) {
        let hpwl = layout.placement.as_ref().map_or(0.0, |p| p.hpwl);
        self.add(
            &layout.netlist,
            layout.hotspots().ph,
            hpwl,
            layout.legalization.as_ref(),
        );
    }

    fn add_staged(&mut self, staged: &Staged) {
        let hpwl = staged.placement.as_ref().map_or(0.0, |p| p.hpwl);
        self.add(
            &staged.netlist,
            staged.hotspots.ph,
            hpwl,
            staged.legalization.as_ref(),
        );
    }

    fn metrics(&self) -> Vec<Metric> {
        let integrated = if self.resonators == 0 {
            0.0
        } else {
            self.integrated as f64 / self.resonators as f64
        };
        vec![
            metric("hotspot_ph", 100.0 * mean(&self.ph), "%"),
            metric("hpwl_mm", mean(&self.hpwl), "mm"),
            metric("mer_area_mm2", mean(&self.mer_area), "mm2"),
            metric("integrated_frac", integrated, "frac"),
            metric("qplacer_fidelity", mean(&self.fidelity), "frac"),
        ]
    }
}

/// The Table-I guard evaluation of one set-up layout.
struct Guard {
    /// Mean fidelity of the eight circuits.
    fidelity: f64,
    /// CPU ms per `evaluate_benchmark` call.
    eval_ms: f64,
    /// Subsets evaluated over subsets requested.
    subsets_frac: f64,
}

/// Evaluates the eight Table-I circuits on `netlist`, [`GUARD_SUBSETS`]
/// fixed subsets each.
fn guard(netlist: &QuantumNetlist, device: &Topology, params: &FidelityParams) -> Guard {
    let start = process_cpu_s();
    let evals: Vec<_> = TABLE_I
        .iter()
        .map(|name| {
            let bench = qplacer_circuits::benchmark_by_name(name).expect("Table-I benchmark");
            evaluate_benchmark(
                netlist,
                device,
                &bench.circuit,
                GUARD_SUBSETS,
                GUARD_SEED,
                params,
            )
        })
        .collect();
    let eval_ms = (process_cpu_s() - start) * 1e3 / evals.len() as f64;
    let evaluated: usize = evals.iter().map(|e| e.fidelities.len()).sum();
    let requested: usize = evals.iter().map(|e| e.requested_subsets).sum();
    Guard {
        fidelity: mean(&evals.iter().map(|e| e.mean_fidelity).collect::<Vec<_>>()),
        eval_ms,
        subsets_frac: evaluated as f64 / requested.max(1) as f64,
    }
}

/// Quality of one set-up layout: its crosstalk, area and guard fidelity.
fn setup_quality(layout: &PlacedLayout, device: &Topology, params: &FidelityParams) -> Quality {
    let mut quality = Quality::default();
    quality.add_layout(layout);
    quality
        .fidelity
        .push(guard(&layout.netlist, device, params).fidelity);
    quality
}

/// [`setup_quality`] of a staged layout, with the guard's evaluation
/// cost recorded in `layers`.
fn staged_quality(
    staged: &Staged,
    device: &Topology,
    params: &FidelityParams,
    layers: &mut Layers,
) -> Quality {
    let mut quality = Quality::default();
    quality.add_staged(staged);
    let g = guard(&staged.netlist, device, params);
    quality.fidelity.push(g.fidelity);
    layers.eval_ms = g.eval_ms;
    layers.subsets_frac = g.subsets_frac;
    quality
}

/// One re-placement timed from outside: the delta's application, then
/// the whole `execute_replace`.
struct Replaced {
    layout: PlacedLayout,
    report: ReplaceReport,
    delta_ms: f64,
    replace_ms: f64,
}

fn timed_replace(
    engine: &Qplacer,
    base: &Topology,
    prev: &PlacedLayout,
    delta: &TopologyDelta,
    ws: &mut PipelineWorkspace,
) -> Result<Replaced, String> {
    let (target, delta_cpu) = timed(|| delta.apply(base));
    target.map_err(|e| e.to_string())?;
    let (result, replace_cpu) = timed(|| {
        engine.execute_replace(
            base,
            prev,
            delta,
            ExecOptions {
                workspace: Some(ws),
                ..Default::default()
            },
        )
    });
    let (layout, report) = result.map_err(|e| e.to_string())?;
    check_layout(&layout)?;
    Ok(Replaced {
        layout,
        report,
        delta_ms: delta_cpu * 1e3,
        replace_ms: replace_cpu * 1e3,
    })
}

/// Share of `netlists` whose positions are distinct.
fn distinct_share(netlists: &[&QuantumNetlist]) -> f64 {
    let mut distinct: Vec<Vec<u64>> = netlists
        .iter()
        .map(|n| {
            n.positions()
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
                .collect()
        })
        .collect();
    distinct.sort();
    distinct.dedup();
    distinct.len() as f64 / netlists.len().max(1) as f64
}

/// The end-to-end metrics from set-up samples, op samples and quality.
fn end_to_end(setup_s: &[f64], op_s: &[f64], quality: &Quality, tally: Tally) -> Outcome {
    let op_ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    let p50 = median(&op_ms);
    let mut notes = vec![
        format!("set-up CPU s: {setup_s:.4?}"),
        format!(
            "process CPU: {:.3} s, of which system {:.3} s",
            process_cpu_s(),
            usage().sys_s
        ),
        format!(
            "ops timed: {}; op CPU ms min {:.1} max {:.1}",
            op_ms.len(),
            op_ms.iter().copied().fold(f64::INFINITY, f64::min),
            op_ms.iter().copied().fold(0.0, f64::max)
        ),
    ];
    // The tail is reported only where at least ten samples lie beyond
    // it; with fewer ops the median stands in and says so.
    let p90 = percentile(&op_ms, 90.0).unwrap_or_else(|| {
        notes.push(format!(
            "op_cpu_p90_ms: fewer than 10 of {} ops lie beyond p90; reporting the median",
            op_ms.len()
        ));
        p50
    });
    let mut metrics = vec![
        metric("setup_s", median(setup_s), "s"),
        metric("layout_cpu_s", op_s.iter().sum(), "s"),
        metric("op_cpu_p50_ms", p50, "ms"),
        metric("op_cpu_p90_ms", p90, "ms"),
        metric("peak_rss_mb", usage().peak_rss_mb, "MB"),
        metric("ok_frac", tally.ok_frac(), "frac"),
    ];
    metrics.extend(quality.metrics());
    Outcome {
        metrics,
        tally,
        notes,
    }
}

/// Per-layer metrics of a traced run; layers a workload does not run
/// stay 0.
#[derive(Debug, Default)]
struct Layers {
    kernels: KernelCpu,
    global_ms: f64,
    iterations: f64,
    other_ms: f64,
    sys_cpu_s: f64,
    legalize_ms: f64,
    assign_ms: f64,
    build_ms: f64,
    instances: f64,
    topology_ms: f64,
    replace_ms: f64,
    delta_ms: f64,
    dirty_qubits: f64,
    pinned_frac: f64,
    eval_ms: f64,
    scan_ms: f64,
    subsets_frac: f64,
    job_cpu_ms: f64,
    distinct_per_job: f64,
    overhead_frac: f64,
}

impl Layers {
    /// Averages the stage CPU of several staged layouts.
    fn stages(&mut self, staged: &[&Staged]) {
        let m = |f: &dyn Fn(&Staged) -> f64| mean(&staged.iter().map(|s| f(s)).collect::<Vec<_>>());
        self.assign_ms = m(&|s| s.cpu.assign_ms);
        self.build_ms = m(&|s| s.cpu.build_ms);
        self.scan_ms = m(&|s| s.cpu.scan_ms);
        self.instances = m(&|s| s.netlist.num_instances() as f64);
        let engine: Vec<&&Staged> = staged.iter().filter(|s| s.placement.is_some()).collect();
        let e = |f: &dyn Fn(&Staged) -> f64| mean(&engine.iter().map(|s| f(s)).collect::<Vec<_>>());
        self.global_ms = e(&|s| s.cpu.place_ms);
        self.legalize_ms = e(&|s| s.cpu.legalize_ms);
        self.iterations = e(&|s| s.placement.as_ref().map_or(0.0, |p| p.iterations as f64));
    }

    /// Averages the outside view of several re-placements.
    fn replaces(&mut self, all: &[Replaced]) {
        let m = |f: &dyn Fn(&Replaced) -> f64| mean(&all.iter().map(f).collect::<Vec<_>>());
        self.replace_ms = m(&|r| r.replace_ms);
        self.delta_ms = m(&|r| r.delta_ms);
        self.dirty_qubits = m(&|r| r.report.dirty_qubits as f64);
        self.pinned_frac =
            m(&|r| r.report.pinned_instances as f64 / r.report.total_instances as f64);
    }

    /// Averages kernel costs over several layouts.
    fn kernels(&mut self, all: &[KernelCpu]) {
        let m = |f: fn(&KernelCpu) -> f64| mean(&all.iter().map(f).collect::<Vec<_>>());
        self.kernels = KernelCpu {
            wirelength_grad_ms: m(|k| k.wirelength_grad_ms),
            density_grad_ms: m(|k| k.density_grad_ms),
            poisson_solve_ms: m(|k| k.poisson_solve_ms),
            overflow_ms: m(|k| k.overflow_ms),
            freqforce_build_ms: m(|k| k.freqforce_build_ms),
            freqforce_grad_ms: m(|k| k.freqforce_grad_ms),
            freqforce_pairs: m(|k| k.freqforce_pairs),
        };
    }

    fn metrics(&self) -> Vec<Metric> {
        let k = &self.kernels;
        vec![
            metric("place.freqforce_grad_ms", k.freqforce_grad_ms, "ms"),
            metric("place.freqforce_pairs", k.freqforce_pairs, "count"),
            metric("place.freqforce_build_ms", k.freqforce_build_ms, "ms"),
            metric("place.density_grad_ms", k.density_grad_ms, "ms"),
            metric("numeric.poisson_solve_ms", k.poisson_solve_ms, "ms"),
            metric("place.overflow_ms", k.overflow_ms, "ms"),
            metric("place.wirelength_grad_ms", k.wirelength_grad_ms, "ms"),
            metric("place.global_ms", self.global_ms, "ms"),
            metric("place.iterations", self.iterations, "count"),
            metric("place.other_ms", self.other_ms, "ms"),
            metric("process.sys_cpu_s", self.sys_cpu_s, "s"),
            metric("legal.legalize_ms", self.legalize_ms, "ms"),
            metric("freq.assign_ms", self.assign_ms, "ms"),
            metric("netlist.build_ms", self.build_ms, "ms"),
            metric("netlist.instances", self.instances, "count"),
            metric("topology.build_ms", self.topology_ms, "ms"),
            metric("harness.replace_ms", self.replace_ms, "ms"),
            metric("topology.delta_ms", self.delta_ms, "ms"),
            metric("harness.replace_dirty_qubits", self.dirty_qubits, "count"),
            metric("harness.replace_pinned_frac", self.pinned_frac, "frac"),
            metric("metrics.eval_ms", self.eval_ms, "ms"),
            metric("metrics.hotspot_scan_ms", self.scan_ms, "ms"),
            metric("metrics.subsets_evaluated_frac", self.subsets_frac, "frac"),
            metric("harness.job_cpu_ms", self.job_cpu_ms, "ms"),
            metric(
                "harness.distinct_layouts_per_job",
                self.distinct_per_job,
                "frac",
            ),
            metric("bench.trace_overhead_frac", self.overhead_frac, "frac"),
        ]
    }
}

/// System CPU seconds used by `f`, with its result.
fn sys_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = usage().sys_s;
    let out = f();
    (out, usage().sys_s - before)
}

/// Checks a quality recomputed by the traced run against the untraced
/// run's, bit for bit.
fn same_quality(traced: &Quality, untraced: &Quality) -> Result<(), String> {
    let bits =
        |q: &Quality| -> Vec<u64> { q.metrics().iter().map(|m| m.value.to_bits()).collect() };
    if bits(traced) == bits(untraced) {
        Ok(())
    } else {
        Err(format!(
            "traced quality {:?} differs from untraced {:?}",
            traced.metrics(),
            untraced.metrics()
        ))
    }
}

// ---------------------------------------------------------------------
// eco_eagle
// ---------------------------------------------------------------------

/// ECO ops per second of run length.
const ECO_OPS_PER_SECOND: u64 = 5;

/// ECO ops the traced run re-runs.
const ECO_TRACED_OPS: usize = 10;

fn eco_engine() -> Qplacer {
    Qplacer::new(PipelineConfig::paper())
}

/// Cold paper-config placement of Eagle-127: the ECO base layout.
fn eco_base(engine: &Qplacer, ws: &mut PipelineWorkspace) -> (Topology, PlacedLayout) {
    let base = Topology::eagle127();
    let layout = engine.execute(
        &base,
        Strategy::FrequencyAware,
        ExecOptions {
            workspace: Some(ws),
            ..Default::default()
        },
    );
    (base, layout)
}

/// `eco_eagle`, untraced.
pub fn eco_eagle(ctx: Ctx) -> Outcome {
    const NAME: &str = "eco_eagle";
    let engine = eco_engine();
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut ws = PipelineWorkspace::new();
    let mut base = None;
    for rep in 0..SETUP_REPS {
        ws = PipelineWorkspace::new();
        let (built, cpu) = timed(|| eco_base(&engine, &mut ws));
        setup.push(cpu);
        tally.record(
            NAME,
            ctx.seed,
            format!("setup-{rep}"),
            check_layout(&built.1),
        );
        base = Some(built);
    }
    let (base, base_layout) = base.expect("at least one set-up");

    let edits = eco_edits(&base, ctx.seed, (ECO_OPS_PER_SECOND * ctx.seconds) as usize);
    let mut op_s = Vec::with_capacity(edits.len());
    for (i, edit) in edits.iter().enumerate() {
        let delta = edit.delta(&base).expect("stream edits fit the base");
        let (result, cpu) = timed(|| {
            engine.execute_replace(
                &base,
                &base_layout,
                &delta,
                ExecOptions {
                    workspace: Some(&mut ws),
                    ..Default::default()
                },
            )
        });
        op_s.push(cpu);
        let outcome = match result {
            Ok((layout, _)) => check_layout(&layout),
            Err(e) => Err(e.to_string()),
        };
        tally.record(
            NAME,
            ctx.seed,
            i,
            outcome.map_err(|e| format!("{edit}: {e}")),
        );
    }
    let quality = setup_quality(&base_layout, &base, &engine.config().fidelity);
    end_to_end(&setup, &op_s, &quality, tally)
}

/// `eco_eagle`, traced.
pub fn eco_eagle_traced(ctx: Ctx) -> Outcome {
    const NAME: &str = "eco_eagle";
    let engine = eco_engine();
    let config = *engine.config();
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    // Untraced: the base and the first ops, as `eco_eagle` runs them.
    let mut ws = PipelineWorkspace::new();
    let ((base, base_layout), base_cpu) = timed(|| eco_base(&engine, &mut ws));
    let edits = eco_edits(&base, ctx.seed, ECO_TRACED_OPS);
    let deltas: Vec<_> = edits
        .iter()
        .map(|e| e.delta(&base).expect("stream edits fit the base"))
        .collect();
    let replace = |delta, ws: &mut PipelineWorkspace| {
        engine.execute_replace(
            &base,
            &base_layout,
            delta,
            ExecOptions {
                workspace: Some(ws),
                ..Default::default()
            },
        )
    };
    let ((untraced, ops_cpu), sys) = sys_timed(|| {
        timed(|| {
            deltas
                .iter()
                .map(|d| replace(d, &mut ws).ok())
                .collect::<Vec<_>>()
        })
    });
    layers.sys_cpu_s = sys / deltas.len() as f64;

    // Traced: the base stage by stage, then each op with its delta
    // application timed on its own.
    let traced_start = process_cpu_s();
    let (_, topo_cpu) = timed(Topology::eagle127);
    layers.topology_ms = topo_cpu * 1e3;
    let staged = staged_pipeline(
        &config,
        &base,
        Strategy::FrequencyAware,
        &mut PipelineWorkspace::new(),
        process_cpu_s,
    );
    tally.record(NAME, ctx.seed, "staged-base", staged.matches(&base_layout));
    let mut replaced = Vec::new();
    for (i, (delta, prior)) in deltas.iter().zip(&untraced).enumerate() {
        let outcome = match (
            timed_replace(&engine, &base, &base_layout, delta, &mut ws),
            prior,
        ) {
            (Ok(r), Some((prior, _))) => {
                let same = distinct_share(&[&r.layout.netlist, &prior.netlist]) == 0.5;
                replaced.push(r);
                if same {
                    Ok(())
                } else {
                    Err("re-run differs from the first run".to_string())
                }
            }
            (Err(e), _) => Err(e),
            (Ok(_), None) => Err("the first run failed".to_string()),
        };
        tally.record(
            NAME,
            ctx.seed,
            i,
            outcome.map_err(|e| format!("{}: {e}", edits[i])),
        );
    }
    let traced_cpu = process_cpu_s() - traced_start;
    layers.overhead_frac = traced_cpu / (base_cpu + ops_cpu) - 1.0;
    layers.replaces(&replaced);
    layers.job_cpu_ms = ops_cpu * 1e3 / deltas.len() as f64;
    let op_netlists: Vec<&QuantumNetlist> = replaced.iter().map(|r| &r.layout.netlist).collect();
    layers.distinct_per_job = distinct_share(&op_netlists);
    layers.stages(&[&staged]);

    // Kernels at the ops' final positions; the rest of the cold base's
    // iteration from the kernels at the base's.
    let kernels: Vec<KernelCpu> = op_netlists
        .iter()
        .map(|n| kernel_cpu(n, &config.placer, KERNEL_REPS, process_cpu_s))
        .collect();
    layers.kernels(&kernels);
    let at_base = kernel_cpu(&staged.netlist, &config.placer, KERNEL_REPS, process_cpu_s);
    layers.other_ms = other_ms_per_iteration(
        staged.cpu.place_ms,
        staged.placement.as_ref().map_or(0, |p| p.iterations),
        &at_base,
    );

    let untraced_quality = setup_quality(&base_layout, &base, &config.fidelity);
    let traced_quality = staged_quality(&staged, &base, &config.fidelity, &mut layers);
    tally.record(
        NAME,
        ctx.seed,
        "quality",
        same_quality(&traced_quality, &untraced_quality),
    );

    Outcome {
        metrics: layers.metrics(),
        tally,
        notes: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// paper_suite
// ---------------------------------------------------------------------

/// Devices of the paper suite workload.
fn suite_devices() -> [DeviceSpec; 2] {
    [DeviceSpec::Falcon27, DeviceSpec::Eagle127]
}

const SUITE_STRATEGIES: [Strategy; 3] =
    [Strategy::FrequencyAware, Strategy::Classic, Strategy::Human];

/// Seconds of run length per execution of the whole plan.
const SUITE_SECONDS_PER_EXECUTION: u64 = 8;

/// The Fig. 11 plan: {falcon, eagle} × {Qplacer, Classic, Human} × the
/// eight Table-I circuits, 50 subsets each, fast placer budgets.
fn suite_plan(seed: u64) -> ExperimentPlan {
    ExperimentPlan::grid(
        "paper_suite",
        &suite_devices(),
        &SUITE_STRATEGIES,
        &TABLE_I,
        SUBSETS,
        &[seed],
    )
    .with_profile(Profile::Fast)
}

/// The six distinct layouts the plan's jobs recompute, keyed by device
/// name and strategy.
fn suite_layouts() -> Vec<(String, Strategy, PlacedLayout)> {
    let engine = Qplacer::new(Profile::Fast.pipeline_config());
    let mut out = Vec::new();
    for spec in suite_devices() {
        let device = spec.build();
        for strategy in SUITE_STRATEGIES {
            let layout = engine.execute(&device, strategy, ExecOptions::default());
            out.push((spec.name(), strategy, layout));
        }
    }
    out
}

/// Checks one job record against the reference layout of its arm.
fn check_record(
    record: &JobRecord,
    refs: &[(String, Strategy, PlacedLayout)],
) -> Result<(), String> {
    if !record.status.is_ok() {
        return Err(format!("job status {:?}", record.status));
    }
    let (_, _, layout) = refs
        .iter()
        .find(|(d, s, _)| *d == record.device && s.to_string() == record.strategy)
        .ok_or_else(|| format!("no reference for {} {}", record.device, record.strategy))?;
    let hpwl = layout.placement.as_ref().map_or(0.0, |p| p.hpwl);
    let expect = [
        ("hpwl_mm", hpwl, record.hpwl_mm),
        ("ph", layout.hotspots().ph, record.ph),
        ("mer_area_mm2", layout.area().mer_area, record.mer_area_mm2),
    ];
    for (name, want, got) in expect {
        if want.to_bits() != got.to_bits() {
            return Err(format!(
                "{name} {got} differs from the reference layout's {want}"
            ));
        }
    }
    if record.subsets_evaluated == 0 {
        return Err("no subset evaluated".to_string());
    }
    Ok(())
}

/// Quality over the plan's Qplacer arm: layouts from `refs`, fidelity
/// from the records.
fn suite_quality(refs: &[(String, Strategy, PlacedLayout)], records: &[JobRecord]) -> Quality {
    let mut quality = Quality::default();
    for (_, strategy, layout) in refs {
        if *strategy == Strategy::FrequencyAware {
            quality.add_layout(layout);
        }
    }
    quality.fidelity = records
        .iter()
        .filter(|r| r.strategy == Strategy::FrequencyAware.to_string())
        .map(|r| r.mean_fidelity)
        .collect();
    quality
}

/// Records with the wall-time fields cleared, for run-to-run comparison.
fn deterministic(records: &[JobRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            format!(
                "{} {} {:?} {:?} {} {} {} {}",
                r.device,
                r.strategy,
                r.benchmark,
                r.status,
                r.hpwl_mm.to_bits(),
                r.ph.to_bits(),
                r.mean_fidelity.to_bits(),
                r.subsets_evaluated
            )
        })
        .collect()
}

/// `paper_suite`, untraced.
pub fn paper_suite(ctx: Ctx, threads: usize) -> Outcome {
    const NAME: &str = "paper_suite";
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut refs = Vec::new();
    for rep in 0..SETUP_REPS {
        let (layouts, cpu) = timed(suite_layouts);
        setup.push(cpu);
        for (device, strategy, layout) in &layouts {
            let op = format!("setup-{rep} {device} {strategy}");
            tally.record(NAME, ctx.seed, op, check_layout(layout));
        }
        refs = layouts;
    }

    let plan = suite_plan(ctx.seed);
    let runner = Runner::new(threads);
    let executions = (ctx.seconds / SUITE_SECONDS_PER_EXECUTION).max(1);
    let mut op_s = Vec::new();
    let mut first: Option<Vec<JobRecord>> = None;
    for exec in 0..executions {
        let (outcome, cpu) = timed(|| runner.execute(&plan, RunOptions::default()));
        op_s.push(cpu);
        let records = outcome
            .expect("a run without sinks performs no I/O")
            .report
            .records;
        for record in &records {
            let op = format!("run-{exec} job-{}", record.job_index);
            tally.record(NAME, ctx.seed, op, check_record(record, &refs));
        }
        match &first {
            None => first = Some(records),
            Some(prev) => {
                let same = deterministic(prev) == deterministic(&records);
                let why = "records differ from the first execution".to_string();
                tally.record(
                    NAME,
                    ctx.seed,
                    format!("run-{exec}"),
                    if same { Ok(()) } else { Err(why) },
                );
            }
        }
    }
    let quality = suite_quality(&refs, first.as_deref().unwrap_or_default());
    end_to_end(&setup, &op_s, &quality, tally)
}

/// One plan job, staged on the calling pool thread.
struct StagedJob {
    staged: Staged,
    topology_ms: f64,
    eval_ms: f64,
    job_ms: f64,
    requested: usize,
    evaluated: usize,
    mean_fidelity: f64,
}

fn staged_job(plan: &ExperimentPlan, index: usize) -> StagedJob {
    let spec = &plan.jobs[index];
    let start = thread_cpu_s();
    let device = spec.device.build();
    let topology_ms = (thread_cpu_s() - start) * 1e3;
    let config = spec.pipeline_config(plan.profile);
    // One workspace per pool thread, reused across its jobs, as the
    // runner does.
    std::thread_local! {
        static WORKSPACE: std::cell::RefCell<PipelineWorkspace> =
            std::cell::RefCell::new(PipelineWorkspace::new());
    }
    let staged = WORKSPACE.with(|ws| {
        staged_pipeline(
            &config,
            &device,
            spec.strategy,
            &mut ws.borrow_mut(),
            thread_cpu_s,
        )
    });
    let bench = spec
        .resolve_benchmark()
        .expect("Table-I names resolve")
        .expect("every suite job has a benchmark");
    let eval_start = thread_cpu_s();
    let eval = evaluate_benchmark(
        &staged.netlist,
        &device,
        &bench.circuit,
        spec.subsets,
        spec.seed,
        &config.fidelity,
    );
    let end = thread_cpu_s();
    StagedJob {
        staged,
        topology_ms,
        eval_ms: (end - eval_start) * 1e3,
        job_ms: (end - start) * 1e3,
        requested: eval.requested_subsets,
        evaluated: eval.fidelities.len(),
        mean_fidelity: eval.mean_fidelity,
    }
}

/// `paper_suite`, traced: the plan's jobs run stage by stage on the
/// same pool, each timed with its pool thread's CPU clock (nested
/// fan-outs run inline on that thread).
pub fn paper_suite_traced(ctx: Ctx, threads: usize) -> Outcome {
    const NAME: &str = "paper_suite";
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let plan = suite_plan(ctx.seed);
    let refs = suite_layouts();

    let runner = Runner::new(threads);
    let ((outcome, untraced_cpu), sys) =
        sys_timed(|| timed(|| runner.execute(&plan, RunOptions::default())));
    layers.sys_cpu_s = sys;
    let records = outcome
        .expect("a run without sinks performs no I/O")
        .report
        .records;

    // On the pool the caller installed, with one thread per core like
    // the runner's.
    let (jobs, traced_cpu) = timed(|| {
        (0..plan.len())
            .into_par_iter()
            .map(|i| staged_job(&plan, i))
            .collect::<Vec<_>>()
    });
    layers.overhead_frac = traced_cpu / untraced_cpu - 1.0;

    for (job, record) in jobs.iter().zip(&records) {
        let hpwl = job.staged.placement.as_ref().map_or(0.0, |p| p.hpwl);
        let same = hpwl.to_bits() == record.hpwl_mm.to_bits()
            && job.staged.hotspots.ph.to_bits() == record.ph.to_bits()
            && job.mean_fidelity.to_bits() == record.mean_fidelity.to_bits();
        let why = "staged HPWL, P_h or fidelity differs from Runner::execute".to_string();
        let op = format!("staged job-{}", record.job_index);
        tally.record(NAME, ctx.seed, op, if same { Ok(()) } else { Err(why) });
    }

    let staged: Vec<&Staged> = jobs.iter().map(|j| &j.staged).collect();
    layers.stages(&staged);
    layers.topology_ms = mean(&jobs.iter().map(|j| j.topology_ms).collect::<Vec<_>>());
    layers.eval_ms = mean(&jobs.iter().map(|j| j.eval_ms).collect::<Vec<_>>());
    layers.job_cpu_ms = mean(&jobs.iter().map(|j| j.job_ms).collect::<Vec<_>>());
    let requested: usize = jobs.iter().map(|j| j.requested).sum();
    let evaluated: usize = jobs.iter().map(|j| j.evaluated).sum();
    layers.subsets_frac = evaluated as f64 / requested.max(1) as f64;
    let netlists: Vec<&QuantumNetlist> = staged.iter().map(|s| &s.netlist).collect();
    layers.distinct_per_job = distinct_share(&netlists);

    // Kernels and the rest of the iteration over the Qplacer arm.
    // Timed on pool threads, where the jobs' nested fan-outs run inline.
    let config = Profile::Fast.pipeline_config();
    let qplacer_jobs: Vec<&Staged> = jobs
        .iter()
        .zip(&plan.jobs)
        .filter(|(_, spec)| spec.strategy == Strategy::FrequencyAware)
        .map(|(j, _)| &j.staged)
        .collect();
    let kernels: Vec<KernelCpu> = (0..qplacer_jobs.len())
        .into_par_iter()
        .map(|i| {
            kernel_cpu(
                &qplacer_jobs[i].netlist,
                &config.placer,
                KERNEL_REPS,
                thread_cpu_s,
            )
        })
        .collect();
    let other: Vec<f64> = qplacer_jobs
        .iter()
        .zip(&kernels)
        .map(|(s, k)| {
            let iterations = s.placement.as_ref().map_or(0, |p| p.iterations);
            other_ms_per_iteration(s.cpu.place_ms, iterations, k)
        })
        .collect();
    layers.kernels(&kernels);
    layers.other_ms = mean(&other);
    let mut traced_quality = Quality::default();

    // Quality recomputed from the staged layouts of each device's first
    // Qplacer job must equal the untraced run's.
    for (job, spec) in jobs.iter().zip(&plan.jobs) {
        let first_of_device = spec.benchmark.as_deref() == Some(TABLE_I[0]);
        if spec.strategy == Strategy::FrequencyAware && first_of_device {
            traced_quality.add_staged(&job.staged);
        }
    }
    traced_quality.fidelity = jobs
        .iter()
        .zip(&plan.jobs)
        .filter(|(_, spec)| spec.strategy == Strategy::FrequencyAware)
        .map(|(j, _)| j.mean_fidelity)
        .collect();
    // The plan runs no re-placement; one seeded edit of each device's
    // Qplacer layout gives the ECO layers a measured value here too.
    let engine = Qplacer::new(config);
    let mut ws = PipelineWorkspace::new();
    let mut replaced = Vec::new();
    for (spec, (device, _, layout)) in suite_devices()
        .iter()
        .zip(refs.iter().filter(|r| r.1 == Strategy::FrequencyAware))
    {
        let base = spec.build();
        let edit = eco_edits(&base, ctx.seed, 1)[0];
        let outcome = edit
            .delta(&base)
            .and_then(|delta| timed_replace(&engine, &base, layout, &delta, &mut ws))
            .map(|r| replaced.push(r));
        let op = format!("replace {device}");
        tally.record(
            NAME,
            ctx.seed,
            op,
            outcome.map_err(|e| format!("{edit}: {e}")),
        );
    }
    layers.replaces(&replaced);

    let untraced_quality = suite_quality(&refs, &records);
    tally.record(
        NAME,
        ctx.seed,
        "quality",
        same_quality(&traced_quality, &untraced_quality),
    );

    Outcome {
        metrics: layers.metrics(),
        tally,
        notes: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// heavy_hex_d10_yield
// ---------------------------------------------------------------------

/// Seconds of run length per cold d10 placement.
const D10_SECONDS_PER_OP: u64 = 5;

/// Multilevel depth of the d10 placements.
const D10_LEVELS: usize = 4;

/// Fabrication yield of the screened devices (percent).
const D10_YIELD: u32 = 99;

fn d10_config() -> PipelineConfig {
    let mut config = PipelineConfig::paper();
    config.placer.levels = D10_LEVELS;
    config
}

fn d10_place(engine: &Qplacer, device: &Topology, ws: &mut PipelineWorkspace) -> PlacedLayout {
    engine.execute(
        device,
        Strategy::FrequencyAware,
        ExecOptions {
            workspace: Some(ws),
            ..Default::default()
        },
    )
}

/// `heavy_hex_d10_yield`, untraced.
pub fn heavy_hex_d10_yield(ctx: Ctx) -> Outcome {
    const NAME: &str = "heavy_hex_d10_yield";
    let engine = Qplacer::new(d10_config());
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut ws = PipelineWorkspace::new();
    let mut warm = None;
    for rep in 0..SETUP_REPS {
        ws = PipelineWorkspace::new();
        let (built, cpu) = timed(|| {
            let pristine = Topology::heavy_hex(10);
            let layout = d10_place(&engine, &pristine, &mut ws);
            (pristine, layout)
        });
        setup.push(cpu);
        tally.record(
            NAME,
            ctx.seed,
            format!("setup-{rep}"),
            check_layout(&built.1),
        );
        warm = Some(built);
    }
    let (pristine, warm_layout) = warm.expect("at least one set-up");

    let ops = (ctx.seconds / D10_SECONDS_PER_OP).max(1) as usize;
    let mut op_s = Vec::new();
    for (i, s) in defect_seeds(ctx.seed, ops).into_iter().enumerate() {
        let device = pristine.with_yield(D10_YIELD, s);
        let (layout, cpu) = timed(|| d10_place(&engine, &device, &mut ws));
        op_s.push(cpu);
        tally.record(NAME, ctx.seed, i, check_layout(&layout));
    }
    let quality = setup_quality(&warm_layout, &pristine, &engine.config().fidelity);
    end_to_end(&setup, &op_s, &quality, tally)
}

/// `heavy_hex_d10_yield`, traced: the pristine warm-up and the first op,
/// each placed untraced and then stage by stage.
pub fn heavy_hex_d10_yield_traced(ctx: Ctx) -> Outcome {
    const NAME: &str = "heavy_hex_d10_yield";
    let config = d10_config();
    let engine = Qplacer::new(config);
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let pristine = Topology::heavy_hex(10);
    let s = defect_seeds(ctx.seed, 1)[0];
    let device = pristine.with_yield(D10_YIELD, s);

    let mut ws = PipelineWorkspace::new();
    let ((warm, warm_cpu), _) = sys_timed(|| timed(|| d10_place(&engine, &pristine, &mut ws)));
    let ((layout, op_cpu), sys) = sys_timed(|| timed(|| d10_place(&engine, &device, &mut ws)));
    layers.sys_cpu_s = sys;

    let start = process_cpu_s();
    let mut staged_ws = PipelineWorkspace::new();
    let mut stage = |d: &Topology| {
        staged_pipeline(
            &config,
            d,
            Strategy::FrequencyAware,
            &mut staged_ws,
            process_cpu_s,
        )
    };
    let staged_warm = stage(&pristine);
    let (_, topo_cpu) = timed(|| pristine.with_yield(D10_YIELD, s));
    layers.topology_ms = topo_cpu * 1e3;
    let staged = stage(&device);
    layers.overhead_frac = (process_cpu_s() - start) / (warm_cpu + op_cpu) - 1.0;
    layers.job_cpu_ms = op_cpu * 1e3;
    layers.distinct_per_job = distinct_share(&[&warm.netlist, &layout.netlist]);
    // The op's device is a yield delta of the pristine base: re-place it
    // warm from the warm-up layout for the ECO layers.
    match timed_replace(
        &engine,
        &pristine,
        &warm,
        &pristine.yield_delta(D10_YIELD, s),
        &mut ws,
    ) {
        Ok(r) => {
            layers.replaces(&[r]);
            tally.record(NAME, ctx.seed, "replace-0", Ok(()));
        }
        Err(e) => tally.record(NAME, ctx.seed, "replace-0", Err(e)),
    }
    tally.record(NAME, ctx.seed, "staged-setup", staged_warm.matches(&warm));
    tally.record(NAME, ctx.seed, "staged-0", staged.matches(&layout));
    layers.stages(&[&staged]);
    let k = kernel_cpu(&staged.netlist, &config.placer, KERNEL_REPS, process_cpu_s);
    layers.kernels(&[k]);
    // The V-cycle's coarse levels run smaller kernels than the finest
    // level this charges every iteration, so here the estimate reads low.
    let iterations = staged.placement.as_ref().map_or(0, |p| p.iterations);
    layers.other_ms = other_ms_per_iteration(staged.cpu.place_ms, iterations, &k);

    let untraced_quality = setup_quality(&warm, &pristine, &config.fidelity);
    let traced_quality = staged_quality(&staged_warm, &pristine, &config.fidelity, &mut layers);
    tally.record(
        NAME,
        ctx.seed,
        "quality",
        same_quality(&traced_quality, &untraced_quality),
    );

    Outcome {
        metrics: layers.metrics(),
        tally,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let map = doc.as_map().expect("an object");
        let entries = serde_json::Value::field(map, section).expect(section);
        entries
            .as_seq()
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_map().expect("an object");
                let get = |k| {
                    serde_json::Value::field(m, k)
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_prints_exactly_the_listed_metrics() {
        let out = end_to_end(&[1.0], &[0.5, 0.7], &Quality::default(), Tally::default());
        assert_eq!(emitted(&out.metrics), listed("end_to_end"));
        assert_eq!(emitted(&Layers::default().metrics()), listed("per_layer"));
    }

    #[test]
    fn p90_falls_back_to_the_median_and_says_so() {
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        let out = end_to_end(&[1.0], &few, &Quality::default(), Tally::default());
        let value = |n| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("op_cpu_p90_ms"), value("op_cpu_p50_ms"));
        assert!(out.notes.iter().any(|n| n.contains("op_cpu_p90_ms")));

        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let out = end_to_end(&[1.0], &many, &Quality::default(), Tally::default());
        let value = |n| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("op_cpu_p90_ms"), 90_000.0);
        assert_eq!(value("layout_cpu_s"), 5050.0);
    }
}
