//! The traced run's instruments: the pipeline called stage by stage
//! through each stage's public function, and the placement kernels timed
//! one by one at a layout's final positions. Every timing is taken from
//! outside the program with a CPU clock.

use qplacer_baselines::HumanLayout;
use qplacer_harness::{PipelineConfig, PipelineWorkspace, PlacedLayout, Strategy};
use qplacer_legal::LegalReport;
use qplacer_metrics::HotspotReport;
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::{PoissonField, PoissonSolver};
use qplacer_place::{
    DensityModel, ExecOptions, FrequencyForce, GlobalPlacer, PlacementReport, PlacerConfig,
    WirelengthModel,
};
use qplacer_topology::Topology;

/// CPU milliseconds of each stage of one staged pipeline run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCpu {
    /// `FrequencyAssigner::assign_with`.
    pub assign_ms: f64,
    /// `QuantumNetlist::build` (or `HumanLayout::place`).
    pub build_ms: f64,
    /// `GlobalPlacer::execute`.
    pub place_ms: f64,
    /// `Legalizer::run_with`.
    pub legalize_ms: f64,
    /// `HotspotReport::scan`.
    pub scan_ms: f64,
}

/// One layout produced stage by stage.
#[derive(Debug)]
pub struct Staged {
    /// The final netlist.
    pub netlist: QuantumNetlist,
    /// Global placement report (engine strategies only).
    pub placement: Option<PlacementReport>,
    /// Legalization report (engine strategies only).
    pub legalization: Option<LegalReport>,
    /// The hotspot scan of the final layout.
    pub hotspots: HotspotReport,
    /// Per-stage CPU.
    pub cpu: StageCpu,
}

impl Staged {
    /// Whether this layout is bit-for-bit the one `Qplacer::execute`
    /// produced: every position, HPWL and P_h.
    ///
    /// # Errors
    ///
    /// Names the first quantity that differs.
    pub fn matches(&self, layout: &PlacedLayout) -> Result<(), String> {
        let bits = |ps: &[qplacer_geometry::Point]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        if bits(self.netlist.positions()) != bits(layout.netlist.positions()) {
            return Err("staged positions differ from Qplacer::execute".to_string());
        }
        let hpwl = |p: &Option<PlacementReport>| p.as_ref().map(|r| r.hpwl.to_bits());
        if hpwl(&self.placement) != hpwl(&layout.placement) {
            return Err("staged HPWL differs from Qplacer::execute".to_string());
        }
        if self.hotspots.ph.to_bits() != layout.hotspots().ph.to_bits() {
            return Err("staged P_h differs from Qplacer::execute".to_string());
        }
        Ok(())
    }
}

/// Runs the pipeline the way `Qplacer::execute` does, one public stage
/// function at a time with the stage buffers in `ws`, timing each with
/// `clock` (CPU seconds).
#[must_use]
pub fn staged_pipeline(
    config: &PipelineConfig,
    device: &Topology,
    strategy: Strategy,
    ws: &mut PipelineWorkspace,
    clock: fn() -> f64,
) -> Staged {
    let mut cpu = StageCpu::default();
    let mut lap = {
        let mut last = clock();
        move || {
            let now = clock();
            let ms = (now - last) * 1e3;
            last = now;
            ms
        }
    };
    let assignment = config.assigner.assign_with(device, &mut ws.freq);
    cpu.assign_ms = lap();
    let (netlist, placement, legalization) = if strategy == Strategy::Human {
        let netlist = HumanLayout::place(device, &assignment, &config.netlist);
        cpu.build_ms = lap();
        (netlist, None, None)
    } else {
        let mut netlist = QuantumNetlist::build(device, &assignment, &config.netlist);
        cpu.build_ms = lap();
        let mut placer = config.placer;
        placer.frequency_aware = strategy == Strategy::FrequencyAware;
        let placement = GlobalPlacer::new(placer).execute(
            &mut netlist,
            ExecOptions {
                workspace: Some(&mut ws.placer),
                ..Default::default()
            },
        );
        cpu.place_ms = lap();
        let mut legalizer = config.legalizer;
        if strategy == Strategy::Classic {
            legalizer = legalizer.with_resonant_margin(0.0);
        }
        let legalization = legalizer.run_with(&mut netlist, &mut ws.legal);
        cpu.legalize_ms = lap();
        (netlist, Some(placement), Some(legalization))
    };
    let hotspots = HotspotReport::scan(&netlist, &config.fidelity.hotspot);
    cpu.scan_ms = lap();
    Staged {
        netlist,
        placement,
        legalization,
        hotspots,
        cpu,
    }
}

/// Per-call CPU of each placement kernel at one layout's positions.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelCpu {
    /// `WirelengthModel::energy_grad_into`.
    pub wirelength_grad_ms: f64,
    /// `DensityModel::grad_into` (deposit, Poisson solve, gather).
    pub density_grad_ms: f64,
    /// `PoissonSolver::solve_field_into` on the same grid.
    pub poisson_solve_ms: f64,
    /// `DensityModel::overflow_with`.
    pub overflow_ms: f64,
    /// `FrequencyForce::new` (0 when the force is off).
    pub freqforce_build_ms: f64,
    /// `FrequencyForce::energy_grad_into` (0 when the force is off).
    pub freqforce_grad_ms: f64,
    /// Interacting pairs the force evaluates.
    pub freqforce_pairs: f64,
}

/// Mean CPU ms of `reps` calls of `f`, read from `clock`.
fn per_call_ms(clock: fn() -> f64, reps: usize, mut f: impl FnMut()) -> f64 {
    let start = clock();
    for _ in 0..reps {
        f();
    }
    (clock() - start) * 1e3 / reps as f64
}

/// Times `reps` calls of each kernel at `netlist`'s current positions
/// with `clock` (CPU seconds), each kernel built the way the placer
/// builds it from `config`.
#[must_use]
pub fn kernel_cpu(
    netlist: &QuantumNetlist,
    config: &PlacerConfig,
    reps: usize,
    clock: fn() -> f64,
) -> KernelCpu {
    let region = netlist.region();
    let positions = netlist.positions();
    let mut grad = vec![0.0; 2 * positions.len()];
    let mut out = KernelCpu::default();

    let wl = WirelengthModel::new((config.gamma_fraction * region.width()).max(1e-4));
    out.wirelength_grad_ms = per_call_ms(clock, reps, || {
        std::hint::black_box(wl.energy_grad_into(netlist, positions, &mut grad));
    });

    let density = match config.bins {
        Some(m) => DensityModel::new(region, m, m),
        None => DensityModel::for_netlist(netlist),
    };
    let mut ws = density.workspace();
    out.density_grad_ms = per_call_ms(clock, reps, || {
        density.grad_into(netlist, positions, &mut grad, &mut ws);
        std::hint::black_box(&grad);
    });
    out.overflow_ms = per_call_ms(clock, reps, || {
        std::hint::black_box(density.overflow_with(netlist, positions, &mut ws));
    });
    let (nx, ny) = density.dims();
    let solver = PoissonSolver::new(nx, ny);
    let rho = density.rasterize(netlist, positions);
    let mut field = PoissonField::zeros(nx, ny);
    let mut scratch = solver.make_scratch();
    out.poisson_solve_ms = per_call_ms(clock, reps, || {
        solver.solve_field_into(&rho, &mut field, &mut scratch);
        std::hint::black_box(&field);
    });

    if config.frequency_aware {
        let mut force = None;
        out.freqforce_build_ms = per_call_ms(clock, reps.div_ceil(2), || {
            force = Some(FrequencyForce::new(netlist));
        });
        let force = force.expect("built at least once");
        out.freqforce_pairs = force.pair_count() as f64;
        out.freqforce_grad_ms = per_call_ms(clock, reps, || {
            std::hint::black_box(force.energy_grad_into(positions, &mut grad));
        });
    }
    out
}

/// The rest of a flat placement's iteration after its kernels: the
/// optimizer step, clamping and orchestration, in ms per iteration.
/// Assumes every iteration calls each gradient kernel once and checks
/// overflow every fifth iteration plus once at the end, as the flat
/// engine does; not meaningful for multilevel runs.
#[must_use]
pub fn other_ms_per_iteration(place_ms: f64, iterations: usize, k: &KernelCpu) -> f64 {
    if iterations == 0 {
        return 0.0;
    }
    let it = iterations as f64;
    let checks = iterations.div_ceil(5) as f64 + 1.0;
    let kernels = it * (k.wirelength_grad_ms + k.density_grad_ms + k.freqforce_grad_ms)
        + checks * k.overflow_ms
        + k.freqforce_build_ms;
    (place_ms - kernels) / it
}
