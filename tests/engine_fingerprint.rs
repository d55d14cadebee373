//! Engine fingerprints: exact `GpuStats` (including `end_ps`) and cube
//! totals of small fixed-seed runs, pinned so that any change to the warp
//! engine, the caches or the HMC timing that moves a single simulated bit
//! fails here. The expected strings are the `Debug` renderings of the
//! values; regenerate them only for a change that is meant to alter the
//! simulation, and say so in the change's notes.

use coolpim::core::cosim::{CoSim, CoSimConfig};
use coolpim::gpu::controller::OffloadController;
use coolpim::gpu::RunOutcome;
use coolpim::prelude::*;
use coolpim::telemetry::{MetricsSnapshot, MonitorHub, Tracer};

const SSSP_DWC_SW: &str = "GpuStats { instructions: 208902, loads: 119472, stores: 0, pim_lane_ops: 278420, host_lane_ops: 16011, pim_blocks: 3477, non_pim_blocks: 283, launches: 12, warnings_seen: 334579, end_ps: 498442442 } StatsTotals { reads: 151681, writes: 14744, pim_ops: 278420, flits: 2112230 } exec_s=3f40553cfe60c6b8";
const PAGERANK_NAIVE_PASSIVE: &str = "GpuStats { instructions: 314058, loads: 134847, stores: 0, pim_lane_ops: 391026, host_lane_ops: 0, pim_blocks: 6144, non_pim_blocks: 0, launches: 3, warnings_seen: 260934, end_ps: 285405581 } StatsTotals { reads: 30588, writes: 0, pim_ops: 391026, flits: 1356606 } exec_s=3f32b44fa2f110f5";
const BFS_TA_HW: &str = "GpuStats { instructions: 152397, loads: 53536, stores: 0, pim_lane_ops: 119322, host_lane_ops: 8610, pim_blocks: 384, non_pim_blocks: 0, launches: 6, warnings_seen: 49295, end_ps: 294677131 } StatsTotals { reads: 28770, writes: 6906, pim_ops: 119322, flits: 691344 } exec_s=3f334fdca3f9634f";
const BFS_TA_SHORT_HORIZONS: &str = "GpuStats { instructions: 152397, loads: 53536, stores: 0, pim_lane_ops: 96294, host_lane_ops: 31638, pim_blocks: 384, non_pim_blocks: 0, launches: 6, warnings_seen: 112099, end_ps: 363433905 } StatsTotals { reads: 46677, writes: 24241, pim_ops: 96294, flits: 810684 } pauses=363";

/// Runs one co-sim cell on the tiny GPU and the scale-14 test graph, with
/// a 40 °C warning threshold so the throttling loop engages and host
/// atomics (dirty L2 lines, hence writebacks) mix with PIM traffic.
/// `instrumented` attaches every instrument at once: a tracer, the flight
/// recorder, a monitor hub, a heartbeat and a recording sink. Returns the
/// cell's fingerprint, its peak DRAM temperature and its metrics.
fn cosim_print(
    w: Workload,
    p: Policy,
    cooling: Cooling,
    instrumented: bool,
) -> (String, f64, MetricsSnapshot) {
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(w, &g);
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        cooling,
        warning_threshold_c: 40.0,
        ..CoSimConfig::default()
    };
    let mut sim = CoSim::new(p, cfg);
    let tracer = Tracer::new();
    if instrumented {
        let (sink, _log) = RecordingSink::new();
        sim = sim
            .with_tracer(&tracer)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .with_observer(FlightObserver::new(FlightConfig::default()))
            .with_observer(MonitorHub::new())
            .with_observer(Heartbeat::every(60.0));
    }
    let r = sim.run(k.as_mut());
    let print = format!("{:?} {:?} exec_s={:016x}", r.gpu, r.hmc, r.exec_s.to_bits());
    (print, r.max_peak_dram_c, r.metrics)
}

/// Checks one cell against its pinned fingerprint with and without the
/// instruments: the fingerprint, every counter the simulation itself
/// keeps, and every histogram must match. Returns the peak DRAM
/// temperature.
fn assert_pinned(w: Workload, p: Policy, cooling: Cooling, expected: &str) -> f64 {
    let (plain, peak, plain_metrics) = cosim_print(w, p, cooling, false);
    let (instrumented, _, instr_metrics) = cosim_print(w, p, cooling, true);
    assert_eq!(plain, expected);
    assert_eq!(instrumented, expected, "instruments moved the simulation");
    // `flight_dumps` is the flight recorder's own counter.
    let sim_counters = |m: &MetricsSnapshot| -> Vec<(String, u64)> {
        let mut c = m.counters.clone();
        c.retain(|(n, _)| n != "flight_dumps");
        c
    };
    assert_eq!(sim_counters(&plain_metrics), sim_counters(&instr_metrics));
    assert_eq!(plain_metrics.hists, instr_metrics.hists);
    peak
}

#[test]
fn sssp_dwc_under_coolpim_sw_is_pinned() {
    assert_pinned(
        Workload::SsspDwc,
        Policy::CoolPimSw,
        Cooling::CommodityServer,
        SSSP_DWC_SW,
    );
}

#[test]
fn pagerank_under_naive_on_passive_cooling_is_pinned_and_runs_hot() {
    let peak = assert_pinned(
        Workload::PageRank,
        Policy::NaiveOffloading,
        Cooling::Passive,
        PAGERANK_NAIVE_PASSIVE,
    );
    assert!(
        peak > 85.0,
        "the run must leave the Normal phase to exercise derated timing: peak {peak} °C"
    );
}

#[test]
fn bfs_ta_under_coolpim_hw_is_pinned() {
    assert_pinned(
        Workload::BfsTa,
        Policy::CoolPimHw,
        Cooling::CommodityServer,
        BFS_TA_HW,
    );
}

/// Drives the engine directly in 1 µs horizons and moves the cube through
/// every operational phase between them, so the paused path (the horizon
/// falls before the next ready warp) and each phase's derated vault costs
/// are all exercised, including the return to Normal.
#[test]
fn short_horizons_across_phase_changes_are_pinned() {
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::BfsTa, &g);
    let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
    let mut ctrl: Box<dyn OffloadController> = Policy::CoolPimHw.controller(&k.profile());
    let temps = [60.0, 88.0, 97.0, 90.0, 70.0];
    sys.start(k.as_mut(), ctrl.as_mut(), 0);
    let (mut t, mut pauses, mut phases_seen) = (0, 0u64, [false; 3]);
    loop {
        let temp = temps[(pauses / 25) as usize % temps.len()];
        sys.hmc_mut().set_peak_dram_temp_at(temp, t);
        phases_seen[sys.hmc().phase() as usize] = true;
        t += 1_000_000;
        match sys.run_until(k.as_mut(), ctrl.as_mut(), t) {
            RunOutcome::Paused => pauses += 1,
            RunOutcome::Finished => break,
            RunOutcome::Shutdown => panic!("the cube never leaves its operational phases"),
        }
    }
    assert!(pauses > 125, "only {pauses} pauses");
    assert_eq!(phases_seen, [true; 3], "Normal, Extended and Critical");
    let print = format!("{:?} {:?} pauses={pauses}", sys.stats(), sys.hmc().totals());
    assert_eq!(print, BFS_TA_SHORT_HORIZONS);
}
