//! End-to-end flight-recorder tests: the ring keeps the newest frames
//! in order, an anomaly dump written during a hot run carries the
//! pre-warning history and names the solver's hottest vault, and the
//! per-SM attribution matrix is consistent with the cube's own
//! per-vault PIM counters.

use coolpim::gpu::AlwaysOffload;
use coolpim::prelude::*;
use coolpim::telemetry::flight::FlightRecorder;
use coolpim::telemetry::EpochRecord;

#[test]
fn ring_keeps_the_newest_frames_in_order() {
    let mut rec = FlightRecorder::new(4, 2);
    for i in 0..7u64 {
        rec.record(EpochRecord {
            t_ps: (i + 1) * 100,
            epoch: i + 1,
            ..EpochRecord::default()
        });
    }
    assert_eq!(rec.capacity(), 4);
    assert_eq!(rec.len(), 4);
    assert_eq!(rec.total_recorded(), 7);
    let times: Vec<u64> = rec.iter_ordered().map(|f| f.record.t_ps).collect();
    assert_eq!(times, [400, 500, 600, 700]);
    assert_eq!(rec.latest().expect("non-empty").record.epoch, 7);
}

/// A per-run temp dir so parallel test binaries never collide.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("coolpim-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn hot_run_dumps_a_bundle_with_prewarning_history() {
    let dir = scratch_dir("dump");
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        // Cold start with 1 µs epochs: the ramp from ambient (25 °C)
        // through the lowered threshold spans several epochs, so the
        // ring holds genuine pre-warning history when the dump fires.
        warning_threshold_c: 40.0,
        warm_start: false,
        epoch: 1_000_000, // 1 µs
        ..CoSimConfig::default()
    };
    let threshold = cfg.warning_threshold_c;
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::PageRank, &g);
    let r = CoSim::new(Policy::CoolPimSw, cfg)
        .with_observer(FlightObserver::new(FlightConfig {
            postmortem_dir: Some(dir.clone()),
            ..FlightConfig::default()
        }))
        .run(k.as_mut());

    assert!(
        !r.postmortem_dumps.is_empty(),
        "a run that raises warnings must emit at least one bundle"
    );
    let bundle = PostmortemBundle::load(&r.postmortem_dumps[0]).expect("bundle parses");
    assert_eq!(bundle.trigger, "warning", "first anomaly is the warning");
    assert!(
        bundle.warning_id.is_some(),
        "warning dumps cite the warning"
    );
    assert!(
        bundle.frames.len() >= 2,
        "dump must hold history, not one frame"
    );

    // The recorded window is ordered and ends at (or before) dump time.
    for w in bundle.frames.windows(2) {
        assert!(w[0].record.t_ps < w[1].record.t_ps, "frames out of order");
    }
    assert!(bundle.frames.last().expect("frames").record.t_ps <= bundle.t_ps);
    // Each frame, read back from disk, is its epoch's timeline record.
    for f in &bundle.frames {
        assert_eq!(f.record, r.timeline[f.record.epoch as usize - 1]);
    }
    // Cold start: the window reaches back below the trigger threshold.
    assert!(
        bundle.frames.first().expect("frames").record.peak_dram_c < threshold,
        "no pre-warning samples survived in the ring"
    );

    // The ranking's top vault is the solver's hottest vault at dump time.
    let hottest = bundle.hottest_vault().expect("frames recorded");
    let ranks = bundle.rank_vaults();
    assert_eq!(
        ranks[0].vault, hottest,
        "top-ranked vault must be the hottest"
    );

    // The dump is announced in the run's own metrics too.
    assert!(r.metrics.counter("flight_dumps") >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attribution_matches_the_cube_pim_counters_end_to_end() {
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::PageRank, &g);
    let cfg = GpuConfig::tiny();
    let sms = cfg.sms;
    let mut sys = GpuSystem::new(cfg, Hmc::new(HmcConfig::hmc20()));
    sys.run_to_completion(k.as_mut(), &mut AlwaysOffload);

    let totals = sys.hmc().totals();
    assert!(
        totals.pim_ops > 0,
        "pagerank under AlwaysOffload must offload"
    );

    let attr = sys.hmc().pim_attribution();
    // Column sums across all sources equal the cube's independent
    // per-vault PIM counters, and the grand total equals the headline.
    assert_eq!(attr.vault_totals(), sys.hmc().vault_pim_totals());
    assert_eq!(attr.total(), totals.pim_ops);
    // Every PIM op issued through the GPU carries its source SM tag.
    assert_eq!(attr.unattributed().iter().sum::<u64>(), 0);
    for (sm, _) in attr.sm_rows() {
        assert!(sm < sms, "tagged SM {sm} out of range");
    }
}

#[test]
fn max_dumps_caps_dumps_taken_even_without_a_postmortem_dir() {
    // Passive cooling from a cold start crosses a 60 °C threshold
    // repeatedly under SW-DynT, so anomalies fire far more often than
    // the cap allows.
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        cooling: Cooling::Passive,
        warning_threshold_c: 60.0,
        warm_start: false,
        epoch: 1_000_000, // 1 µs
        ..CoSimConfig::default()
    };
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::PageRank, &g);
    let (sink, log) = RecordingSink::new();
    let r = CoSim::new(Policy::CoolPimSw, cfg)
        .with_telemetry(Telemetry::with_sink(Box::new(sink)))
        .with_observer(FlightObserver::new(FlightConfig {
            postmortem_dir: None,
            max_dumps: 2,
            min_gap_epochs: 1,
        }))
        .run(k.as_mut());
    // Nothing was written, yet the cap still counts every dump taken.
    assert!(r.postmortem_dumps.is_empty());
    assert_eq!(log.count_kind("FlightDump"), 2);
    assert_eq!(r.metrics.counter("flight_dumps"), 2);
}
