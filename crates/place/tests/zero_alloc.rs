//! Steady-state placement iterations must perform **zero heap
//! allocations** in the transform and gradient kernels.
//!
//! A per-thread counting allocator wraps the system allocator; after a
//! warm-up call (which may fault in lazily-built plan-cache entries),
//! every `*_into` kernel is re-run under a 1-thread rayon pool and the
//! calling thread's allocation counter must not move. The 1-thread pool matters: with a
//! wider pool the kernels spawn scoped worker threads, whose stacks are
//! runtime (not kernel) allocations.

use qplacer_testalloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{DensityModel, FrequencyForce, WirelengthModel};
use qplacer_topology::Topology;

#[test]
fn steady_state_kernels_do_not_allocate() {
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    let n = nl.num_instances();
    let positions: Vec<Point> = (0..n)
        .map(|k| Point::new((k as f64 * 0.7).sin() * 2.0, (k as f64 * 1.3).cos() * 2.0))
        .collect();

    let wl = WirelengthModel::new(0.05);
    let density = DensityModel::new(nl.region(), 64, 64);
    let freq = FrequencyForce::new(&nl);
    let mut ws = density.workspace();
    let mut grad = vec![0.0; 2 * n];

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    pool.install(|| {
        // Warm-up: populate the process-wide FFT plan cache.
        let _ = wl.energy_grad_into(&nl, &positions, &mut grad);
        let _ = density.energy_grad_into(&nl, &positions, &mut grad, &mut ws);
        let _ = freq.energy_grad_into(&positions, &mut grad);

        let (count, _) = allocations(|| wl.energy_grad_into(&nl, &positions, &mut grad));
        assert_eq!(count, 0, "wirelength kernel allocated {count} times");

        let (count, _) =
            allocations(|| density.energy_grad_into(&nl, &positions, &mut grad, &mut ws));
        assert_eq!(count, 0, "density kernel allocated {count} times");

        let (count, _) = allocations(|| freq.energy_grad_into(&positions, &mut grad));
        assert_eq!(count, 0, "frequency kernel allocated {count} times");

        let (count, _) = allocations(|| density.overflow_with(&nl, &positions, &mut ws));
        assert_eq!(count, 0, "overflow scan allocated {count} times");
    });
}
