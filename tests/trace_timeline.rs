//! End-to-end tests for the hierarchical trace timeline: per-thread
//! tracks from the experiment pool, warning→throttle flow events from a
//! hot co-simulation, and a byte-stable golden Chrome-JSON export
//! (`tests/golden/trace.json`) on the deterministic manual clock.
//!
//! To refresh the golden after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test --test trace_timeline` and commit the diff.

use std::path::PathBuf;

use coolpim::core::cosim::{CoSim, CoSimConfig};
use coolpim::core::experiment::{run_cells, Cell};
use coolpim::hmc::ns_to_ps;
use coolpim::prelude::*;
use coolpim::telemetry::{validate_trace_json, Tracer};

/// A co-simulation that provably engages the thermal control loop
/// within CI time: tiny GPU, medium graph, threshold lowered to 30 °C.
fn hot_cfg() -> CoSimConfig {
    CoSimConfig {
        gpu: GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    }
}

#[test]
fn matrix_workers_get_separate_tracks() {
    let g = GraphSpec::test_medium().build();
    let tracer = Tracer::new();
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        max_sim_time: ns_to_ps(1.0e9),
        ..CoSimConfig::default()
    };
    let cells: Vec<Cell> = [Workload::Dc, Workload::KCore]
        .into_iter()
        .flat_map(|w| [Policy::NonOffloading, Policy::NaiveOffloading].map(|p| (w, p)))
        .map(|(w, p)| Cell {
            cfg: cfg.clone(),
            ..Cell::new(w, p)
        })
        .collect();
    run_cells(&g, &cells, Some(&tracer));
    let summary = validate_trace_json(&tracer.to_chrome_json()).expect("matrix trace valid");
    // The pool sizes itself to min(cores, cells); every worker opens its
    // own `worker-N` track up front, so the declared track names are
    // deterministic even though cell→worker assignment is not.
    let expected_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 4);
    let workers: Vec<&String> = summary
        .track_names
        .iter()
        .filter(|n| n.starts_with("worker-"))
        .collect();
    assert_eq!(workers.len(), expected_workers, "{:?}", summary.track_names);
    // Each of the four cells is exactly one span on the track of the
    // worker that claimed it, named after its workload; the cells' own
    // runs add their `sim`/`gpu`/`hmc` tracks alongside.
    let tree = tracer.profile();
    let calls = |path: &str| {
        tree.flatten()
            .into_iter()
            .find(|r| r.0 == path)
            .map_or(0, |r| r.3)
    };
    assert_eq!((calls("dc"), calls("kcore")), (2, 2), "one span per cell");
    let sims = summary.track_names.iter().filter(|n| *n == "sim").count();
    assert_eq!(sims, cells.len(), "{:?}", summary.track_names);
}

#[test]
fn hot_run_links_warning_to_throttle_via_flows() {
    let g = GraphSpec::test_medium().build();
    let mut kernel = make_kernel(Workload::PageRank, &g);
    let tracer = Tracer::new();
    let r = CoSim::new(Policy::CoolPimSw, hot_cfg())
        .with_tracer(&tracer)
        .run(kernel.as_mut());
    assert!(r.throttle_steps > 0, "recipe must engage the control loop");

    let summary = validate_trace_json(&tracer.to_chrome_json()).expect("hot trace valid");
    // The sim + gpu + hmc tracks all carry spans.
    assert!(summary.tracks >= 3, "tracks: {:?}", summary.track_names);
    for name in ["sim", "gpu", "hmc"] {
        assert!(
            summary.track_names.iter().any(|n| n == name),
            "missing {name} track in {:?}",
            summary.track_names
        );
    }
    // epoch > thermal_solve > sor_substep nests three deep.
    assert!(summary.max_depth >= 3, "max depth {}", summary.max_depth);
    // Counter tracks sampled each epoch.
    assert!(
        summary.counters.iter().any(|c| c == "peak_dram_c"),
        "counters: {:?}",
        summary.counters
    );
    // Every throttle step is causally linked back to its warning: at
    // least one flow id has both a start (on the warning) and a finish
    // (on the throttle span), and none dangle unmatched.
    assert!(summary.flow_matched >= 1);
    assert_eq!(summary.flow_starts, summary.flow_matched, "dangling flows");
    assert!(summary.flow_finishes >= summary.flow_matched);

    // The folded span tree agrees with the timeline: the epoch phase
    // dominates and contains the solver.
    let profile = tracer.profile();
    assert!(profile.total_s("epoch") > 0.0);
    assert!(profile.total_s("epoch/thermal_solve/sor_substep") > 0.0);
    let critical = profile.critical_path();
    assert_eq!(critical.first().map(|(n, _)| n.as_str()), Some("epoch"));
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "{} drifted from the golden copy — if intentional, refresh with UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn chrome_export_matches_golden_and_validates() {
    // A small fixed timeline on the manual clock: two tracks, nested
    // spans, a counter series, and one matched flow — every exported
    // event kind with fully deterministic timestamps.
    let tracer = Tracer::manual();
    let mut sim = tracer.track("sim");
    let mut gpu = tracer.track("gpu");

    let epoch = sim.begin("epoch");
    tracer.advance_manual_ns(1_000);
    let solve = sim.begin("thermal_solve");
    sim.counter("peak_dram_c", 81.5);
    tracer.advance_manual_ns(2_000);
    sim.end(solve);
    let warn = sim.begin("thermal_warning");
    sim.flow_start("thermal_warning", 7);
    tracer.advance_manual_ns(500);
    sim.end(warn);
    tracer.advance_manual_ns(500);
    sim.end(epoch);

    let sched = gpu.begin("warp_scheduling");
    tracer.advance_manual_ns(1_500);
    let throttle = gpu.begin("throttle");
    gpu.flow_finish("thermal_warning", 7);
    tracer.advance_manual_ns(250);
    gpu.end(throttle);
    gpu.end(sched);
    gpu.counter("warp_cap", 24.0);

    sim.flush();
    gpu.flush();

    let json = tracer.to_chrome_json();
    let summary = validate_trace_json(&json).expect("golden trace must validate");
    assert_eq!(summary.tracks, 2);
    assert_eq!(summary.max_depth, 2);
    assert_eq!(summary.flow_matched, 1);
    assert_eq!(
        summary.counters,
        vec!["peak_dram_c".to_string(), "warp_cap".to_string()]
    );
    check_golden("trace.json", &json);
}
