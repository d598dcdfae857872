//! Criterion micro-benchmarks for the numerical kernels behind the
//! placement engine: FFT/DCT transforms, the spectral Poisson solve, and
//! the per-iteration gradient models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use qplacer_freq::FrequencyAssigner;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_numeric::{
    dct2, fft, fft_plan, idxst, Array2, Complex64, PoissonField, PoissonSolver, RowOp, SpectralPlan,
};
use qplacer_place::{DensityModel, FrequencyForce, WirelengthModel};
use qplacer_topology::Topology;

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("transforms");
    for &n in &[128usize, 256, 1024] {
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.bench_with_input(BenchmarkId::new("dct2", n), &signal, |b, s| {
            b.iter(|| dct2(black_box(s)))
        });
        group.bench_with_input(BenchmarkId::new("idxst", n), &signal, |b, s| {
            b.iter(|| idxst(black_box(s)))
        });
        let complex: Vec<Complex64> = signal.iter().map(|&v| v.into()).collect();
        group.bench_with_input(BenchmarkId::new("fft", n), &complex, |b, s| {
            b.iter(|| {
                let mut x = s.clone();
                fft(&mut x);
                x
            })
        });
        // Planned in-place kernel with caller-owned scratch (the hot-path
        // variant): no allocation, no per-call twiddle work.
        let plan = fft_plan(n);
        let mut row = signal.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        group.bench_function(BenchmarkId::new("dct2_planned", n), |b| {
            b.iter(|| {
                plan.dct2_inplace(black_box(&mut row), &mut scratch);
            })
        });
    }
    group.finish();
}

fn test_density(m: usize) -> Array2 {
    let mut rho = Array2::zeros(m, m);
    for iy in 0..m {
        for ix in 0..m {
            rho[(ix, iy)] = ((ix * 7 + iy * 3) % 13) as f64 * 0.1;
        }
    }
    rho
}

fn bench_poisson(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson");
    for &m in &[64usize, 128, 256] {
        let solver = PoissonSolver::new(m, m);
        let rho = test_density(m);
        group.bench_with_input(BenchmarkId::new("solve", m), &rho, |b, r| {
            b.iter(|| solver.solve(black_box(r)))
        });
        // Workspace variant: zero allocations per solve.
        let mut field = PoissonField::zeros(m, m);
        let mut scratch = solver.make_scratch();
        group.bench_with_input(BenchmarkId::new("solve_into", m), &rho, |b, r| {
            b.iter(|| solver.solve_into(black_box(r), &mut field, &mut scratch))
        });
        group.bench_with_input(BenchmarkId::new("solve_field_into", m), &rho, |b, r| {
            b.iter(|| solver.solve_field_into(black_box(r), &mut field, &mut scratch))
        });
    }
    group.finish();
}

fn bench_dct_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("dct2d");
    for &m in &[64usize, 128, 256] {
        let plan = SpectralPlan::new(m, m);
        let mut scratch = qplacer_numeric::SpectralScratch::new(m, m);
        // Both arms restore the same pristine input each iteration so the
        // comparison is like-for-like (and the unnormalized DCT doesn't
        // compound the same buffer up to infinity across iterations).
        let pristine = test_density(m);
        let mut grid = pristine.clone();
        group.bench_function(BenchmarkId::new("dct2_planned", m), |b| {
            b.iter(|| {
                grid.data_mut().copy_from_slice(pristine.data());
                plan.apply_2d(black_box(&mut grid), &mut scratch, RowOp::Dct2, RowOp::Dct2);
            })
        });
        group.bench_function(BenchmarkId::new("dct2_map_rows_cols", m), |b| {
            b.iter(|| {
                grid.data_mut().copy_from_slice(pristine.data());
                grid.map_rows(dct2);
                grid.map_cols(dct2);
            })
        });
    }
    group.finish();
}

fn falcon_netlist() -> QuantumNetlist {
    let device = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&device);
    QuantumNetlist::build(&device, &freqs, &NetlistConfig::default())
}

fn bench_gradients(c: &mut Criterion) {
    let netlist = falcon_netlist();
    let positions = netlist.positions().to_vec();
    let mut group = c.benchmark_group("gradients_falcon");

    let wl = WirelengthModel::new(0.1);
    group.bench_function("wirelength", |b| {
        b.iter(|| wl.energy_grad(black_box(&netlist), black_box(&positions)))
    });

    let density = DensityModel::for_netlist(&netlist);
    group.bench_function("density", |b| {
        b.iter(|| density.energy_grad(black_box(&netlist), black_box(&positions)))
    });

    let force = FrequencyForce::new(&netlist);
    group.bench_function("frequency_force", |b| {
        b.iter(|| force.energy_grad(black_box(&positions)))
    });

    // The placer rebuilds the force at every multilevel level and on
    // every incremental re-placement.
    group.bench_function("frequency_force_build", |b| {
        b.iter(|| FrequencyForce::new(black_box(&netlist)))
    });

    // Allocation-free variants with a persistent workspace — what the
    // placement loop actually runs.
    let n = positions.len();
    let mut grad = vec![0.0; 2 * n];
    let wl = WirelengthModel::new(0.1);
    group.bench_function("wirelength_into", |b| {
        b.iter(|| wl.energy_grad_into(black_box(&netlist), black_box(&positions), &mut grad))
    });
    let mut ws = density.workspace();
    group.bench_function("density_grad_into", |b| {
        b.iter(|| {
            density.grad_into(
                black_box(&netlist),
                black_box(&positions),
                &mut grad,
                &mut ws,
            )
        })
    });
    group.bench_function("frequency_force_into", |b| {
        b.iter(|| force.energy_grad_into(black_box(&positions), &mut grad))
    });
    group.finish();
}

/// One full steady-state placement iteration: all three gradient kernels
/// into reusable buffers plus the gradient combine — the body of the
/// global placer's hot loop.
fn bench_full_iteration(c: &mut Criterion) {
    let netlist = falcon_netlist();
    let positions = netlist.positions().to_vec();
    let n = positions.len();
    let wl = WirelengthModel::new(0.1);
    let density = DensityModel::for_netlist(&netlist);
    let force = FrequencyForce::new(&netlist);
    let mut ws = density.workspace();
    let mut gwl = vec![0.0; 2 * n];
    let mut gd = vec![0.0; 2 * n];
    let mut gf = vec![0.0; 2 * n];
    let mut grad = vec![0.0; 2 * n];

    let mut group = c.benchmark_group("placer_falcon");
    group.bench_function("full_iteration", |b| {
        b.iter(|| {
            let _ = wl.energy_grad_into(&netlist, black_box(&positions), &mut gwl);
            density.grad_into(&netlist, black_box(&positions), &mut gd, &mut ws);
            let _ = force.energy_grad_into(black_box(&positions), &mut gf);
            for i in 0..2 * n {
                grad[i] = gwl[i] + 0.5 * gd[i] + 0.1 * gf[i];
            }
            black_box(&grad);
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_transforms,
    bench_poisson,
    bench_dct_2d,
    bench_gradients,
    bench_full_iteration
);
criterion_main!(kernels);
