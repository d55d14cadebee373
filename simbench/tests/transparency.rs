//! The seam wrappers must not change what is simulated: on a small graph,
//! every policy's fingerprint is identical with and without them, for a
//! live kernel and for a replayed trace.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_hmc::ns_to_ps;
use coolpim_simbench::cells::Fingerprint;
use coolpim_simbench::wrap::{run_wrapped, Track};
use coolpim_telemetry::Tracer;
use coolpim_trace::{RecordingSource, TraceReplaySource};

/// A configuration small enough for a test that still runs hot: the
/// lowered warning threshold makes both CoolPIM controllers throttle.
fn cfg() -> CoSimConfig {
    CoSimConfig {
        gpu: coolpim_gpu::GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        max_sim_time: ns_to_ps(1.0e9),
        ..CoSimConfig::default()
    }
}

fn track(tracer: &Tracer) -> Track {
    Rc::new(RefCell::new(tracer.track("test")))
}

#[test]
fn wrapped_runs_match_plain_runs_under_every_policy() {
    let g = GraphSpec::test_medium().build();
    let tracer = Tracer::new();
    let t = track(&tracer);
    let mut throttled = 0;
    for w in [Workload::SsspDwc, Workload::PageRank] {
        for p in Policy::ALL {
            let mut k = make_kernel(w, &g);
            let plain = CoSim::new(p, cfg()).run(k.as_mut());
            let mut k = make_kernel(w, &g);
            let (wrapped, counts) = run_wrapped(p, cfg(), k.as_mut(), &t);
            let label = format!("{}/{}", w.name(), p.name());
            assert_eq!(
                Fingerprint::of(label.clone(), &plain),
                Fingerprint::of(label, &wrapped)
            );
            assert_eq!(
                plain.ext_data_bytes.to_bits(),
                wrapped.ext_data_bytes.to_bits()
            );
            assert_eq!(plain.gpu.instructions, counts.warp_ops);
            assert!(counts.blocks > 0 && counts.ctrl_calls > 0);
            throttled += plain.throttle_steps;
        }
    }
    assert!(throttled > 0, "the feedback loop never engaged");
    drop(t);
    let spans = tracer.profile().flatten();
    for name in ["block_trace", "thermal.step"] {
        assert!(
            spans.iter().any(|(path, ..)| path == name),
            "no {name} spans recorded"
        );
    }
}

#[test]
fn wrapped_replay_matches_plain_replay() {
    let spec = GraphSpec::test_medium();
    let g = spec.build();
    let mut k = make_kernel(Workload::SsspDwc, &g);
    let mut rec = RecordingSource::new(k.as_mut());
    let live = CoSim::new(Policy::CoolPimSw, cfg()).run(&mut rec);
    let trace = Arc::new(rec.finish(spec.config_hash(), "test"));
    let tracer = Tracer::new();
    let t = track(&tracer);
    for p in [Policy::CoolPimSw, Policy::CoolPimHw] {
        let plain = CoSim::new(p, cfg()).run(&mut TraceReplaySource::new(Arc::clone(&trace)));
        let mut src = TraceReplaySource::new(Arc::clone(&trace));
        let (wrapped, _) = run_wrapped(p, cfg(), &mut src, &t);
        assert_eq!(
            Fingerprint::of(p.name().into(), &plain),
            Fingerprint::of(p.name().into(), &wrapped)
        );
        if p == Policy::CoolPimSw {
            assert_eq!(
                Fingerprint::of(p.name().into(), &live),
                Fingerprint::of(p.name().into(), &wrapped)
            );
        }
    }
}
