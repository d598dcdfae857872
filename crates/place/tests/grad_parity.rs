//! The allocation-free `*_grad_into` kernels must match their allocating
//! `energy_grad` wrappers bit for bit — same math, same iteration order,
//! different buffer ownership.

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{DensityModel, FrequencyForce, WirelengthModel};
use qplacer_topology::Topology;

fn netlist() -> QuantumNetlist {
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
}

fn scattered_positions(nl: &QuantumNetlist, spread: f64) -> Vec<Point> {
    (0..nl.num_instances())
        .map(|k| {
            Point::new(
                (k as f64 * 0.7).sin() * spread,
                (k as f64 * 1.3).cos() * spread,
            )
        })
        .collect()
}

#[test]
fn wirelength_into_matches_allocating_exactly() {
    let nl = netlist();
    let pos = scattered_positions(&nl, 3.0);
    let model = WirelengthModel::new(0.05);
    let (energy, grad) = model.energy_grad(&nl, &pos);
    let mut grad_into = vec![f64::NAN; 2 * pos.len()];
    let energy_into = model.energy_grad_into(&nl, &pos, &mut grad_into);
    assert_eq!(energy, energy_into);
    assert_eq!(grad, grad_into);
}

#[test]
fn density_into_matches_allocating_exactly() {
    let nl = netlist();
    let pos = scattered_positions(&nl, 2.0);
    let model = DensityModel::new(nl.region(), 64, 64);
    let (energy, grad) = model.energy_grad(&nl, &pos);
    let mut ws = model.workspace();
    let mut grad_into = vec![f64::NAN; 2 * pos.len()];
    let energy_into = model.energy_grad_into(&nl, &pos, &mut grad_into, &mut ws);
    assert_eq!(energy, energy_into);
    assert_eq!(grad, grad_into);
}

#[test]
fn frequency_into_matches_allocating_exactly() {
    let nl = netlist();
    let pos = scattered_positions(&nl, 1.5);
    let force = FrequencyForce::new(&nl);
    assert!(force.pair_count() > 0, "test netlist needs collisions");
    let (energy, grad) = force.energy_grad(&pos);
    let mut grad_into = vec![f64::NAN; 2 * pos.len()];
    let energy_into = force.energy_grad_into(&pos, &mut grad_into);
    assert_eq!(energy, energy_into);
    assert_eq!(grad, grad_into);
}

#[test]
fn workspace_reuse_is_stable_across_calls() {
    // A dirty workspace from a previous call must not leak into the next.
    let nl = netlist();
    let model = DensityModel::new(nl.region(), 32, 32);
    let mut ws = model.workspace();
    let mut grad = vec![0.0; 2 * nl.num_instances()];

    let pos_a = scattered_positions(&nl, 2.0);
    let pos_b = scattered_positions(&nl, 0.5);
    let e_a1 = model.energy_grad_into(&nl, &pos_a, &mut grad, &mut ws);
    let grad_a1 = grad.clone();
    let _ = model.energy_grad_into(&nl, &pos_b, &mut grad, &mut ws);
    let e_a2 = model.energy_grad_into(&nl, &pos_a, &mut grad, &mut ws);
    assert_eq!(e_a1, e_a2);
    assert_eq!(grad_a1, grad);
}

#[test]
fn overflow_with_matches_overflow() {
    let nl = netlist();
    let model = DensityModel::new(nl.region(), 64, 64);
    let pos = scattered_positions(&nl, 2.5);
    let mut ws = model.workspace();
    assert_eq!(
        model.overflow(&nl, &pos),
        model.overflow_with(&nl, &pos, &mut ws)
    );
}
