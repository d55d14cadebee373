//! End-to-end causal-correlation tests: in a recorded hot run, every
//! throttle action (token-pool resize, PCU warp-cap update) must carry a
//! `warning_id` matching a previously raised thermal warning, with
//! non-negative warning→action latency in simulation time — i.e. the
//! whole feedback chain is reconstructible from the event stream alone.
//! The run's own metrics must agree: no orphan actions, and the
//! warning→action latency of each policy's throttling path.

use coolpim::prelude::*;
use coolpim::telemetry::RecordingSink;

/// Records one hot run (tiny GPU, lowered threshold so the loop
/// engages) under `policy` and returns its event stream and result.
fn recorded_run(policy: Policy) -> (Vec<TelemetryEvent>, CoSimResult) {
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    };
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::PageRank, &g);
    let (sink, log) = RecordingSink::new();
    let r = CoSim::new(policy, cfg)
        .with_telemetry(Telemetry::with_sink(Box::new(sink)))
        .run(k.as_mut());
    (log.snapshot(), r)
}

/// (warning_id, raise time) of every `ThermalWarningRaised`.
fn raises(events: &[TelemetryEvent]) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter_map(|e| match *e {
            TelemetryEvent::ThermalWarningRaised {
                t_ps, warning_id, ..
            } => Some((warning_id, t_ps)),
            _ => None,
        })
        .collect()
}

/// Checks the chain in the events and returns the run's action-latency
/// p50 (ps) from its metrics.
fn assert_chain_is_causal(policy: Policy) -> u64 {
    let (events, r) = recorded_run(policy);
    let raised = raises(&events);
    assert!(
        !raised.is_empty(),
        "{}: the lowered threshold must raise warnings",
        policy.name()
    );
    // Ids are assigned monotonically, starting at 1.
    for (i, (id, _)) in raised.iter().enumerate() {
        assert_eq!(*id, i as u64 + 1, "{}: non-monotonic ids", policy.name());
    }

    let acts: Vec<_> = events.iter().filter_map(|e| e.throttle_action()).collect();
    assert!(
        !acts.is_empty(),
        "{}: expected at least one throttle action",
        policy.name()
    );
    for (t_act, id) in &acts {
        let id = id.unwrap_or_else(|| {
            panic!("{}: action at {t_act} ps lacks a warning_id", policy.name())
        });
        let (_, t_raise) = raised
            .iter()
            .find(|(i, _)| *i == id)
            .unwrap_or_else(|| panic!("{}: action cites unraised warning {id}", policy.name()));
        assert!(
            t_act >= t_raise,
            "{}: action at {t_act} ps precedes its warning {id} at {t_raise} ps",
            policy.name()
        );
    }

    // Deliveries cite raised warnings too.
    for e in &events {
        if let TelemetryEvent::ThermalWarningDelivered { t_ps, warning_id } = *e {
            let (_, t_raise) = raised
                .iter()
                .find(|(i, _)| *i == warning_id)
                .unwrap_or_else(|| panic!("delivery cites unraised warning {warning_id}"));
            assert!(t_ps >= *t_raise, "delivery precedes its raise");
        }
    }
    assert_eq!(r.metrics.counter("orphan_actions"), 0);
    let latency = r
        .metrics
        .histogram("warning_to_action_ps")
        .unwrap_or_else(|| panic!("{}: no action latency measured", policy.name()));
    assert_eq!(latency.count, acts.len() as u64);
    latency.p50
}

#[test]
fn sw_dynt_actions_cite_their_warnings() {
    let p50 = assert_chain_is_causal(Policy::CoolPimSw);
    // SW-DynT reacts no faster than its 0.1 ms interrupt path.
    assert!(
        p50 as f64 >= 1e8,
        "SW p50 {p50} ps below the software throttling delay"
    );
}

#[test]
fn hw_dynt_actions_cite_their_warnings_and_react_faster() {
    let hw = assert_chain_is_causal(Policy::CoolPimHw);
    let sw = assert_chain_is_causal(Policy::CoolPimSw);
    // The paper's core latency claim: the PCU path reacts orders of
    // magnitude faster than the interrupt-handler path.
    assert!(hw < sw, "HW p50 {hw} ps must beat SW p50 {sw} ps");
}
