//! End-to-end tests of the telemetry pipeline: the co-simulator's event
//! stream through real sinks.
//!
//! The runs use a deliberately low warning threshold so the thermal
//! feedback loop (warning raised → delivered → token-pool shrink)
//! engages even on the small test graph.

use coolpim::prelude::*;
use coolpim::telemetry::{JsonlSink, RecordingSink, Sink};

/// A co-sim whose cube warns almost immediately: small GPU, evaluation
/// default cooling, warning threshold far below operating temperature.
fn hot_cosim() -> CoSim {
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    };
    CoSim::new(Policy::CoolPimSw, cfg)
}

fn run_traced(sink: Box<dyn Sink>) -> CoSimResult {
    let g = GraphSpec::test_medium().build();
    // PageRank iterates long enough (a few epochs) for the 0.1 ms
    // software throttling delay to elapse and a shrink to land.
    let mut k = make_kernel(Workload::PageRank, &g);
    hot_cosim()
        .with_telemetry(Telemetry::with_sink(sink))
        .run(k.as_mut())
}

#[test]
fn event_stream_is_monotonic_in_sim_time() {
    let (sink, log) = RecordingSink::new();
    let r = run_traced(Box::new(sink));
    let events = log.snapshot();
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(
            w[0].t_ps() <= w[1].t_ps(),
            "out-of-order events: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // Each epoch's sample carries the very record the timeline holds.
    let samples: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::EpochSample(rec) => Some(*rec),
            _ => None,
        })
        .collect();
    assert_eq!(samples, r.timeline);
}

#[test]
fn recording_sink_captures_every_pool_resize() {
    let (sink, log) = RecordingSink::new();
    let r = run_traced(Box::new(sink));
    assert!(
        log.count_kind("ThermalWarningRaised") >= 1,
        "the lowered threshold must raise at least one warning"
    );
    // Every SW-DynT shrink surfaces as a thermal-warning pool resize,
    // and the result's throttle-step counter agrees with the stream.
    let shrink_events = log.filtered(|e| {
        matches!(
            e,
            TelemetryEvent::TokenPoolResize {
                trigger: "thermal_warning",
                ..
            }
        )
    });
    assert!(r.throttle_steps >= 1, "expected at least one throttle step");
    assert_eq!(shrink_events.len() as u64, r.throttle_steps);
    assert_eq!(r.metrics.counter("token_pool_shrinks"), r.throttle_steps);
    // A shrink can only follow an accepted (delivered) warning.
    assert!(log.count_kind("ThermalWarningDelivered") as u64 >= r.throttle_steps);
    // Each shrink reduces the pool.
    for e in &shrink_events {
        if let TelemetryEvent::TokenPoolResize { old, new, .. } = e {
            assert!(new < old, "shrink must reduce the pool ({old} -> {new})");
        }
    }
}

#[test]
fn jsonl_trace_round_trips_exactly() {
    // The run is deterministic, so a second run into memory is the
    // stream the first one wrote to disk.
    let path = std::env::temp_dir().join(format!("coolpim_trace_{}.jsonl", std::process::id()));
    run_traced(Box::new(
        JsonlSink::create(&path).expect("create trace file"),
    ));
    let (rec, log) = RecordingSink::new();
    run_traced(Box::new(rec));

    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    let parsed: Vec<TelemetryEvent> = text
        .lines()
        .map(|l| TelemetryEvent::from_jsonl(l).unwrap_or_else(|| panic!("unparseable: {l:?}")))
        .collect();
    assert_eq!(
        parsed,
        log.snapshot(),
        "JSONL file must round-trip the recorded stream"
    );
}
