//! End-to-end live-monitor tests: a monitored co-simulation serves a
//! valid Prometheus exposition and a round-trippable `/status` while it
//! runs, counters are monotone across scrapes, and the endpoint dies
//! cleanly (connection refused, thread joined) once the run is over.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use coolpim::prelude::*;
use coolpim::telemetry::monitor::{http_get, MonitorHub, MonitorServer};
use coolpim::telemetry::{validate_exposition, StatusSnapshot};

const TIMEOUT: Duration = Duration::from_secs(2);

fn get(addr: &SocketAddr, path: &str) -> String {
    let (code, body) = http_get(addr, path, TIMEOUT).expect("endpoint reachable");
    assert_eq!(code, 200, "GET {path}");
    body
}

/// One small monitored run: cold start with 1 µs epochs so the
/// timeline spans many epochs and the wall time is long enough for the
/// scraping thread to land mid-run on most hosts (the assertions hold
/// either way).
fn run_monitored(hub: MonitorHub) -> CoSimResult {
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        warm_start: false,
        epoch: 1_000_000, // 1 µs
        ..CoSimConfig::default()
    };
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::PageRank, &g);
    CoSim::new(Policy::CoolPimSw, cfg)
        .with_observer(hub)
        .run(k.as_mut())
}

#[test]
fn monitored_run_serves_valid_metrics_and_status_then_shuts_down() {
    let hub = MonitorHub::new();
    hub.begin_run("it-live", "deadbeef00000000");
    let mut server = MonitorServer::start("127.0.0.1:0", hub.clone()).expect("bind");
    let addr = server.local_addr();

    let worker = {
        let hub = hub.clone();
        std::thread::spawn(move || run_monitored(hub))
    };

    // Scrape as soon as the run has published at least one epoch —
    // usually mid-run, after completion at worst.
    let deadline = Instant::now() + Duration::from_secs(30);
    let first_status = loop {
        let s = StatusSnapshot::from_json(&get(&addr, "/status")).expect("flat status JSON");
        if s.epoch >= 1 {
            break s;
        }
        assert!(Instant::now() < deadline, "run never published an epoch");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(first_status.run_id, "it-live");
    assert_eq!(first_status.config_hash, "deadbeef00000000");
    assert!(!first_status.phase.is_empty());
    assert!(first_status.peak_dram_c.is_finite());
    // The body the endpoint serves round-trips through the flat codec.
    let reparsed = StatusSnapshot::from_json(&first_status.to_json()).expect("round-trip");
    assert_eq!(reparsed, first_status);

    let first = validate_exposition(&get(&addr, "/metrics")).expect("valid exposition");
    assert!(first.families > 0 && first.samples > 0);
    let first_epochs = first
        .counter("coolpim_live_epoch_total")
        .expect("epoch counter exposed");

    let result = worker.join().expect("run thread");
    assert!(hub.is_done(), "run completion must flip the hub to done");
    assert!(result.timeline.len() as f64 >= first_epochs);

    // Second scrape after completion: still valid, counters monotone.
    let second = validate_exposition(&get(&addr, "/metrics")).expect("valid exposition");
    let second_epochs = second
        .counter("coolpim_live_epoch_total")
        .expect("epoch counter exposed");
    assert!(
        second_epochs >= first_epochs,
        "epoch counter moved backwards: {first_epochs} -> {second_epochs}"
    );
    assert_eq!(second_epochs, result.timeline.len() as f64);
    let done = StatusSnapshot::from_json(&get(&addr, "/status")).expect("status");
    assert!(done.done, "/status must report done after the run");

    // Clean shutdown: stop() joins the server thread and frees the
    // port — the next connection must be refused, not hang.
    server.stop();
    assert!(
        http_get(&addr, "/status", TIMEOUT).is_err(),
        "endpoint still alive after stop()"
    );
}

#[test]
fn matrix_done_waits_for_every_cell() {
    // expect_runs gates `done` on the whole matrix, not the first cell.
    let hub = MonitorHub::new();
    hub.begin_run("it-matrix", "0");
    hub.expect_runs(2);
    let _ = run_monitored(hub.clone());
    assert!(!hub.is_done(), "one of two cells must not flip done");
    let _ = run_monitored(hub.clone());
    assert!(hub.is_done(), "both cells finished");
}
