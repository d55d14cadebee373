//! Solver effort: the optimized transient solver against the canonical
//! reference over one co-sim-shaped power sequence.
//!
//! The compact RC model stands in for the paper's KitFox + 3D-ICE
//! thermal stack, so its one performance claim is checked here on
//! deterministic work counts rather than wall time: replaying the same
//! sequence, [`TransientState`] does at least 1.5× fewer Gauss–Seidel
//! sweeps than [`ReferenceTransient`] (a ratio ≤ 0.67) and ends within
//! 0.1 °C of it everywhere.

use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::floorplan::Floorplan;
use coolpim_thermal::grid::ThermalGrid;
use coolpim_thermal::layers::StackConfig;
use coolpim_thermal::power::{build_power_map, PowerParams, TrafficSample};
use coolpim_thermal::solver::{steady_state, ThermalSolve, TransientState};
use coolpim_thermal::ReferenceTransient;

/// Epoch length of the sequence (s), the co-sim's 100 µs default.
const EPOCH_S: f64 = 1e-4;
/// Capacitance scale both solvers run with.
const C_SCALE: f64 = 1e-4;

/// A co-sim-shaped per-epoch power sequence in four phases:
/// - a steady hold at the warm-start point, where identical traffic
///   windows let the power-delta fast path earn its keep;
/// - a ramp from low load, a distinct vector per epoch;
/// - a busy hold alternating two jittered load points;
/// - an idle tail of static power only.
fn scripted_power_sequence(grid: &ThermalGrid) -> Vec<Vec<f64>> {
    let params = PowerParams::hmc20();
    let map = |s: &TrafficSample| build_power_map(grid, &params, s);
    let hi_a = map(&TrafficSample::with_pim(320.0e9, 2.0, EPOCH_S));
    let hi_b = map(&TrafficSample::with_pim(305.0e9, 1.9, EPOCH_S));
    let idle = map(&TrafficSample::idle(EPOCH_S));
    let mut seq = vec![hi_a.clone(); 6];
    for k in 0..10 {
        let frac = (k + 1) as f64 / 10.0;
        let s = TrafficSample::with_pim(320.0e9 * frac, 2.0 * frac, EPOCH_S);
        seq.push(map(&s));
    }
    for k in 0..14 {
        seq.push([&hi_a, &hi_b][k % 2].clone());
    }
    seq.extend(std::iter::repeat_n(idle, 16));
    seq
}

#[test]
fn optimized_solver_sweeps_at_most_two_thirds_of_the_reference() {
    let grid = ThermalGrid::build(
        StackConfig::hmc20(),
        Floorplan::hmc20(),
        Cooling::CommodityServer,
    );
    let seq = scripted_power_sequence(&grid);

    // Both start warm at the steady state of the first vector, as the
    // co-sim's first epoch does: the reference from the optimized SOR
    // field (uncounted), the optimized solver by its own jump, which
    // also arms its fast path.
    let mut reference = ReferenceTransient::new(&grid, 25.0, C_SCALE);
    reference.warm_start(&steady_state(&grid, &seq[0], 25.0));
    let mut optimized = TransientState::new(&grid, 25.0, C_SCALE);
    optimized.jump_to_steady_state(&grid, &seq[0]);

    for p in &seq {
        ThermalSolve::step(&mut reference, &grid, p, EPOCH_S);
        optimized.step(&grid, p, EPOCH_S);
    }

    let reference_sweeps = reference.solver_stats().sweeps;
    let new_sweeps = optimized.solver_stats().sweeps;
    assert!(reference_sweeps > 0, "the reference solved nothing");
    let ratio = new_sweeps as f64 / reference_sweeps as f64;
    let max_dev = optimized
        .temps()
        .iter()
        .zip(reference.temps())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        ratio <= 0.67,
        "optimized {new_sweeps} vs reference {reference_sweeps} sweeps: ratio {ratio:.3} > 0.67"
    );
    assert!(max_dev <= 0.1, "max |dT| {max_dev:.2e} °C > 0.1 °C");
}
