//! Output checks the benchmark makes itself, from the netlist alone —
//! never from the program's own reports.

use qplacer_harness::{PlacedLayout, Strategy};
use qplacer_netlist::QuantumNetlist;

/// Pairs of instances whose padded footprints overlap, found by a sweep
/// over the footprints sorted by left edge; with `qubits_only`, among the
/// qubit instances alone.
#[must_use]
pub fn overlapping_pairs(netlist: &QuantumNetlist, qubits_only: bool) -> usize {
    let mut rects: Vec<_> = netlist
        .instances()
        .iter()
        .filter(|inst| !qubits_only || inst.kind().is_qubit())
        .map(|inst| netlist.padded_rect(inst.id()))
        .collect();
    rects.sort_by(|a, b| a.min.x.total_cmp(&b.min.x));
    let mut pairs = 0;
    for (i, r) in rects.iter().enumerate() {
        for other in &rects[i + 1..] {
            if other.min.x >= r.max.x {
                break;
            }
            pairs += usize::from(r.overlaps(other));
        }
    }
    pairs
}

/// Checks one layout: every coordinate finite and no two footprints
/// overlapping. The Human baseline is a closed-form construction whose
/// resonator segments stand in for meanders inside reserved channels and
/// are never legalized, so only its qubits are checked for overlap.
///
/// # Errors
///
/// Describes the first violated check.
pub fn check_layout(layout: &PlacedLayout) -> Result<(), String> {
    let netlist = &layout.netlist;
    if let Some(id) = netlist
        .positions()
        .iter()
        .position(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return Err(format!("instance {id} has a non-finite position"));
    }
    match overlapping_pairs(netlist, layout.strategy == Strategy::Human) {
        0 => Ok(()),
        n => Err(format!("{n} overlapping instance pairs")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_geometry::Point;
    use qplacer_harness::Qplacer;
    use qplacer_topology::Topology;

    #[test]
    fn legal_layout_passes_and_stacked_layout_fails() {
        let device = Topology::grid(3, 3);
        let mut layout =
            Qplacer::fast().execute(&device, Strategy::FrequencyAware, Default::default());
        assert_eq!(check_layout(&layout), Ok(()));

        let n = layout.netlist.num_instances();
        layout.netlist.set_positions(&vec![Point::new(1.0, 1.0); n]);
        assert_eq!(overlapping_pairs(&layout.netlist, false), n * (n - 1) / 2);
        assert!(check_layout(&layout).is_err());

        layout.netlist.set_position(0, Point::new(f64::NAN, 0.0));
        assert!(check_layout(&layout).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn human_layout_is_checked_on_its_qubits() {
        let device = Topology::falcon27();
        let layout = Qplacer::fast().execute(&device, Strategy::Human, Default::default());
        assert!(overlapping_pairs(&layout.netlist, false) > 0);
        assert_eq!(overlapping_pairs(&layout.netlist, true), 0);
        assert_eq!(check_layout(&layout), Ok(()));
    }
}
