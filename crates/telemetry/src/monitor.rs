//! The live monitor: a shared snapshot hub and an in-tree HTTP server.
//!
//! [`MonitorHub`] is the bridge between the co-simulation loop and
//! observers: the loop pushes one [`EpochObservation`] per thermal
//! epoch (cheap — one mutex lock, ring pushes, and a `clone_from`
//! registry mirror that reuses its allocations), and scrapers read
//! consistent snapshots ([`MonitorHub::metrics_text`],
//! [`MonitorHub::status_json`], [`MonitorHub::series_jsonl`]) without
//! ever touching simulator state.
//!
//! [`MonitorServer`] serves those snapshots over plain HTTP/1.1 on a
//! [`std::net::TcpListener`] — one thread, `Connection: close`, no
//! third-party dependencies:
//!
//! | route      | body                                            |
//! |------------|-------------------------------------------------|
//! | `/metrics` | Prometheus text exposition (see [`crate::expo`])|
//! | `/status`  | flat-JSON [`StatusSnapshot`]                    |
//! | `/series`  | flat-JSONL time-series points (tiered rings)    |
//! | `/healthz` | `ok`                                            |
//!
//! Shutdown is deterministic: [`MonitorServer::stop`] raises a flag,
//! self-connects to unblock the blocking `accept`, and joins the
//! thread — a finished `sim` run never leaks a listener.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expo::{render_registry, PromWriter, StatusSnapshot};
use crate::json::JsonBuilder;
use crate::metrics::MetricsRegistry;
use crate::timeseries::{Agg, SeriesSet};

/// Points per time-series tier ring in the hub.
pub const SERIES_CAPACITY: usize = 256;
/// Downsampling tiers per series (coarsest tier covers
/// `2^(TIERS-1) * SERIES_CAPACITY` epochs).
pub const SERIES_TIERS: usize = 4;

/// The named live series every run publishes, with their downsampling
/// folds. Indices are stable — [`EpochObservation`] fields map onto
/// them in order.
pub const LIVE_SERIES: &[(&str, Agg)] = &[
    ("peak_dram_c", Agg::Max),
    ("pool_tokens", Agg::Last),
    ("warp_cap", Agg::Last),
    ("pim_ops_per_s", Agg::Mean),
    ("queue_wait_ps", Agg::Mean),
    ("solver_sweeps", Agg::Mean),
    ("epochs_per_s", Agg::Mean),
];

/// Everything the co-sim loop reports at one epoch boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochObservation<'a> {
    /// End-of-epoch simulation time (ps).
    pub t_ps: u64,
    /// Thermal epochs completed.
    pub epoch: u64,
    /// Operating phase name.
    pub phase: &'static str,
    /// Peak DRAM temperature (°C).
    pub peak_dram_c: f64,
    /// SW-DynT token-pool size (or NaN when the policy has no pool).
    pub pool_tokens: f64,
    /// HW-DynT per-SM warp cap (or NaN when the policy has no cap).
    pub warp_cap: f64,
    /// PIM operations per simulated second over the epoch.
    pub pim_ops_per_s: f64,
    /// Mean vault queue wait over the epoch (ps).
    pub queue_wait_ps: f64,
    /// Thermal-solver sweeps this epoch.
    pub solver_sweeps: f64,
    /// Observed wall-clock throughput (epochs per second).
    pub epochs_per_s: f64,
    /// Upper-bound ETA to the sim-time cap (wall seconds; NaN early).
    pub eta_s: f64,
    /// Most recent thermal warning id (0 before the first).
    pub last_warning_id: u64,
    /// Per-vault peak DRAM temperatures (°C).
    pub vault_peak_dram_c: &'a [f64],
}

impl EpochObservation<'_> {
    fn series_values(&self) -> [f64; 7] {
        [
            self.peak_dram_c,
            self.pool_tokens,
            self.warp_cap,
            self.pim_ops_per_s,
            self.queue_wait_ps,
            self.solver_sweeps,
            self.epochs_per_s,
        ]
    }
}

struct MonitorState {
    status: StatusSnapshot,
    registry: MetricsRegistry,
    series: SeriesSet,
    vault_temps: Vec<f64>,
    pool_tokens: f64,
    warp_cap: f64,
    /// Runs expected before `/status` reports done (1 for `sim`, the
    /// matrix size for `repro eval_all`).
    expected_runs: u64,
    finished_runs: u64,
}

impl MonitorState {
    fn new() -> Self {
        let mut b = SeriesSet::builder(SERIES_CAPACITY, SERIES_TIERS);
        for (name, agg) in LIVE_SERIES {
            b.series(name, *agg);
        }
        Self {
            status: StatusSnapshot::default(),
            registry: MetricsRegistry::new(),
            series: b.build(),
            vault_temps: Vec::new(),
            pool_tokens: f64::NAN,
            warp_cap: f64::NAN,
            expected_runs: 1,
            finished_runs: 0,
        }
    }
}

/// Cloneable handle to the shared live-run snapshot.
///
/// The co-sim side calls [`begin_run`](Self::begin_run) once,
/// [`sample`](Self::sample) per epoch, and
/// [`mark_done`](Self::mark_done) at the end; any number of scraper
/// threads read the render methods concurrently.
#[derive(Clone)]
pub struct MonitorHub {
    inner: Arc<Mutex<MonitorState>>,
}

impl Default for MonitorHub {
    fn default() -> Self {
        Self::new()
    }
}

impl MonitorHub {
    /// A hub with all series rings pre-allocated.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(MonitorState::new())),
        }
    }

    /// Stamps the run identity before the loop starts.
    pub fn begin_run(&self, run_id: &str, config_hash: &str) {
        let mut st = self.inner.lock().unwrap();
        st.status = StatusSnapshot {
            run_id: run_id.to_string(),
            config_hash: config_hash.to_string(),
            phase: "Normal".to_string(),
            eta_s: f64::NAN,
            ..Default::default()
        };
    }

    /// Publishes one epoch observation together with a mirror of the
    /// run's metrics registry (`clone_from` reuses the mirror's
    /// allocations after the first epoch).
    pub fn sample(&self, obs: &EpochObservation, registry: &MetricsRegistry) {
        let mut st = self.inner.lock().unwrap();
        st.status.phase.clear();
        st.status.phase.push_str(obs.phase);
        st.status.epoch = obs.epoch;
        st.status.t_ps = obs.t_ps;
        st.status.peak_dram_c = obs.peak_dram_c;
        st.status.epochs_per_s = obs.epochs_per_s;
        st.status.eta_s = obs.eta_s;
        st.status.last_warning_id = obs.last_warning_id;
        st.pool_tokens = obs.pool_tokens;
        st.warp_cap = obs.warp_cap;
        for (i, v) in obs.series_values().into_iter().enumerate() {
            if v.is_finite() {
                st.series.push(i, obs.t_ps, v);
            }
        }
        st.vault_temps.clear();
        st.vault_temps.extend_from_slice(obs.vault_peak_dram_c);
        st.registry.clone_from(registry);
    }

    /// Declares how many runs will publish into this hub before the
    /// whole job is considered done (default 1; the experiment matrix
    /// sets its cell count). Resets the finished tally.
    pub fn expect_runs(&self, n: u64) {
        let mut st = self.inner.lock().unwrap();
        st.expected_runs = n.max(1);
        st.finished_runs = 0;
        st.status.done = false;
    }

    /// Records one run's completion; `/status` reports `done:1` once
    /// every expected run has finished (see [`Self::expect_runs`]).
    pub fn mark_done(&self) {
        let mut st = self.inner.lock().unwrap();
        st.finished_runs += 1;
        st.status.done = st.finished_runs >= st.expected_runs;
    }

    /// Whether [`mark_done`](Self::mark_done) has been called.
    pub fn is_done(&self) -> bool {
        self.inner.lock().unwrap().status.done
    }

    /// The `/status` body: one flat JSON object.
    pub fn status_json(&self) -> String {
        self.inner.lock().unwrap().status.to_json()
    }

    /// The `/metrics` body: Prometheus text exposition of the mirrored
    /// registry plus the hub-level `live_*` gauges and the per-vault
    /// temperature family.
    pub fn metrics_text(&self) -> String {
        let st = self.inner.lock().unwrap();
        let mut w = PromWriter::new();
        w.gauge("up", "1 while the monitored run is alive", 1.0)
            .gauge(
                "live_done",
                "1 once the monitored run has finished",
                st.status.done as u64 as f64,
            )
            .counter("live_epoch", "thermal epochs completed", st.status.epoch)
            .gauge(
                "live_peak_dram_c",
                "peak DRAM temperature now (C)",
                st.status.peak_dram_c,
            )
            .gauge(
                "live_pool_tokens",
                "SW-DynT token-pool size (NaN without a pool)",
                st.pool_tokens,
            )
            .gauge(
                "live_warp_cap",
                "HW-DynT per-SM warp cap (NaN without a cap)",
                st.warp_cap,
            )
            .gauge(
                "live_epochs_per_s",
                "observed simulation throughput (epochs/s)",
                st.status.epochs_per_s,
            )
            .gauge(
                "live_eta_s",
                "upper-bound wall-clock ETA to the sim-time cap (s)",
                st.status.eta_s,
            )
            .gauge(
                "live_last_warning_id",
                "most recent thermal warning id",
                st.status.last_warning_id as f64,
            );
        if !st.vault_temps.is_empty() {
            let series: Vec<(String, f64)> = st
                .vault_temps
                .iter()
                .enumerate()
                .map(|(i, &t)| (i.to_string(), t))
                .collect();
            w.labeled_gauge(
                "vault_peak_dram_c",
                "per-vault peak DRAM temperature (C)",
                "vault",
                &series,
            );
        }
        render_registry(&mut w, &st.registry);
        w.finish()
    }

    /// The `/series` body: one flat-JSON line per live point, across
    /// every series and tier, oldest → newest within each tier.
    pub fn series_jsonl(&self) -> String {
        let st = self.inner.lock().unwrap();
        let mut out = String::new();
        for s in st.series.iter() {
            for tier in 0..s.tier_count() {
                for (t_ps, v) in s.iter_tier(tier) {
                    let mut b = JsonBuilder::new();
                    b.str("series", s.name())
                        .u64("tier", tier as u64)
                        .u64("t_ps", t_ps)
                        .f64("v", v);
                    out.push_str(&b.finish());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The most recent `(t_ps, value)` of a named live series.
    pub fn latest(&self, series: &str) -> Option<(u64, f64)> {
        self.inner
            .lock()
            .unwrap()
            .series
            .get(series)
            .and_then(|s| s.latest())
    }
}

/// One-thread HTTP/1.1 server over a [`MonitorHub`].
pub struct MonitorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MonitorServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept thread.
    pub fn start(addr: &str, hub: MonitorHub) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("coolpim-monitor".to_string())
            .spawn(move || serve(listener, hub, stop2))?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also run by `Drop`, so a finished run cannot leak the listener.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the blocking accept with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
            let _ = handle.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(listener: TcpListener, hub: MonitorHub, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = stream {
            handle_conn(stream, &hub);
        }
    }
}

fn handle_conn(mut stream: TcpStream, hub: &MonitorHub) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2000)));
    // Read until the end of the request head (or timeout/overflow) —
    // only the request line matters.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                hub.metrics_text(),
            ),
            "/status" => ("200 OK", "application/json", hub.status_json()),
            "/series" => ("200 OK", "application/x-ndjson", hub.series_jsonl()),
            "/healthz" | "/" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown path; try /metrics /status /series /healthz\n".to_string(),
            ),
        }
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Minimal blocking HTTP GET against a monitor endpoint. Returns
/// `(status_code, body)`. Shared by the `watch` dashboard and the
/// integration tests; not a general HTTP client.
pub fn http_get(
    addr: &SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::validate_exposition;
    use crate::json::parse_flat_object;

    fn sample_hub() -> MonitorHub {
        let hub = MonitorHub::new();
        hub.begin_run("pagerank+CoolPIM(SW)", "deadbeef01234567");
        let mut reg = MetricsRegistry::new();
        reg.count("epochs", 3);
        reg.gauge("peak_dram_c", 84.0);
        reg.observe("hmc_service_ps", 42_000);
        let temps = [80.0, 81.5, 83.0, 84.0];
        for epoch in 1..=3u64 {
            let obs = EpochObservation {
                t_ps: epoch * 100_000_000,
                epoch,
                phase: "Normal",
                peak_dram_c: 80.0 + epoch as f64,
                pool_tokens: 96.0,
                warp_cap: f64::NAN,
                pim_ops_per_s: 1.0e9,
                queue_wait_ps: 52_000.0,
                solver_sweeps: 11.0,
                epochs_per_s: 1000.0,
                eta_s: 5.0,
                last_warning_id: 0,
                vault_peak_dram_c: &temps,
            };
            hub.sample(&obs, &reg);
        }
        hub
    }

    #[test]
    fn hub_serves_consistent_snapshots() {
        let hub = sample_hub();
        let status = StatusSnapshot::from_json(&hub.status_json()).expect("status parses");
        assert_eq!(status.run_id, "pagerank+CoolPIM(SW)");
        assert_eq!(status.config_hash, "deadbeef01234567");
        assert_eq!(status.epoch, 3);
        assert_eq!(status.peak_dram_c, 83.0);
        assert!(!status.done);
        let page = hub.metrics_text();
        let summary = validate_exposition(&page).expect("metrics validate");
        assert!(summary.families >= 10);
        assert!(page.contains("coolpim_vault_peak_dram_c{vault=\"3\"} 84"));
        assert!(page.contains("coolpim_epochs_total 3"));
        assert_eq!(hub.latest("peak_dram_c"), Some((300_000_000, 83.0)));
        // NaN-valued series (no warp cap) are not pushed.
        assert_eq!(hub.latest("warp_cap"), None);
        hub.mark_done();
        assert!(hub.is_done());
        let status = StatusSnapshot::from_json(&hub.status_json()).unwrap();
        assert!(status.done);
    }

    #[test]
    fn series_endpoint_emits_flat_jsonl() {
        let hub = sample_hub();
        let body = hub.series_jsonl();
        let mut lines = 0;
        for line in body.lines() {
            let o = parse_flat_object(line).expect("each /series line is flat JSON");
            assert!(o.str_field("series").is_some());
            assert!(o.u64_field("t_ps").is_some());
            assert!(o.f64_field("v").is_some());
            lines += 1;
        }
        // 3 epochs × 6 finite series at tier 0, plus tier-1 points.
        assert!(lines >= 18, "expected >= 18 points, got {lines}");
    }

    #[test]
    fn server_serves_all_routes_and_stops_cleanly() {
        let hub = sample_hub();
        let mut server = MonitorServer::start("127.0.0.1:0", hub.clone()).expect("bind");
        let addr = server.local_addr();
        let t = Duration::from_secs(2);
        let (code, body) = http_get(&addr, "/healthz", t).expect("healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = http_get(&addr, "/metrics", t).expect("metrics");
        assert_eq!(code, 200);
        validate_exposition(&body).expect("served page validates");
        let (code, body) = http_get(&addr, "/status", t).expect("status");
        assert_eq!(code, 200);
        assert!(StatusSnapshot::from_json(&body).is_some());
        let (code, _) = http_get(&addr, "/series", t).expect("series");
        assert_eq!(code, 200);
        let (code, _) = http_get(&addr, "/nope", t).expect("404 route");
        assert_eq!(code, 404);
        server.stop();
        // After stop the port must refuse (or reset) new connections —
        // the regression for the leaked-listener bug.
        assert!(
            http_get(&addr, "/healthz", Duration::from_millis(300)).is_err(),
            "listener still alive after stop()"
        );
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let hub = MonitorHub::new();
        let mut server = MonitorServer::start("127.0.0.1:0", hub).expect("bind");
        server.stop();
        server.stop();
        drop(server); // Drop after explicit stop must not hang or panic.
    }
}
