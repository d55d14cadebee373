//! Per-epoch observers of the co-simulation loop.
//!
//! The loop calls every attached [`EpochObserver`] once per thermal
//! epoch, after the physics step and the event fold, with one shared
//! [`EpochView`] — the per-vault temperature reduction is done once for
//! all of them. Three observers ship here:
//!
//! * [`FlightObserver`] — the spatial flight recorder (see
//!   [`coolpim_telemetry::flight`]): per-vault frames into a fixed ring,
//!   post-mortem bundles on thermal anomalies;
//! * [`MonitorHub`] — publishes one [`EpochObservation`] per epoch to a
//!   live monitor;
//! * [`Heartbeat`] — a one-line stderr progress summary plus a
//!   [`TelemetryEvent::Heartbeat`] every few wall seconds.

use std::path::PathBuf;

use coolpim_hmc::stats::StatsWindow;
use coolpim_hmc::{Hmc, Ps, TempPhase};
use coolpim_telemetry::flight::{FlightRecorder, PostmortemBundle};
use coolpim_telemetry::{EpochObservation, MetricsRegistry, MonitorHub, TelemetryEvent};
use coolpim_thermal::ThermalReadout;

use crate::cosim::{CoSimConfig, CoSimResult};

/// What the loop knows at the end of one thermal epoch.
pub struct EpochView<'a> {
    /// Thermal epochs completed, this one included.
    pub epoch: u64,
    /// End-of-epoch simulation time (ps).
    pub t_ps: Ps,
    /// Wall-clock seconds since the run started.
    pub wall_s: f64,
    /// The thermal readout at the end of the epoch.
    pub readout: ThermalReadout,
    /// Operating phase after the thermal feedback.
    pub phase: TempPhase,
    /// The cube's activity window for this epoch.
    pub window: &'a StatsWindow,
    /// Length of the window (s).
    pub window_s: f64,
    /// Peak DRAM temperature per vault (°C).
    pub vault_peak_dram_c: &'a [f64],
    /// Thermal-solver sweeps spent in this epoch.
    pub solver_sweeps: u64,
    /// Id of the latest thermal warning raised so far (0 before any).
    pub last_warning_id: u64,
    /// This epoch's events, already folded into `metrics`, not yet
    /// emitted.
    pub events: &'a [TelemetryEvent],
    /// The run's metrics after this epoch's fold.
    pub metrics: &'a MetricsRegistry,
    /// The cube.
    pub hmc: &'a Hmc,
    /// The run's configuration.
    pub cfg: &'a CoSimConfig,
}

impl EpochView<'_> {
    /// Observed wall-clock throughput (epochs per second).
    pub fn epochs_per_s(&self) -> f64 {
        self.epoch as f64 / self.wall_s.max(1e-9)
    }
}

/// A per-epoch hook on the co-simulation loop, attached with
/// [`crate::CoSim::with_observer`]. With a tracer attached, each call is
/// timed as an `epoch/<name>` span and counted into
/// `telemetry_overhead_pct`.
pub trait EpochObserver {
    /// The observer's span name.
    fn name(&self) -> &'static str;

    /// Observes one epoch. Events pushed to `out` join the epoch's
    /// batch, so they stream ahead of its `EpochSample`.
    fn on_epoch(&mut self, view: &EpochView<'_>, out: &mut Vec<TelemetryEvent>);

    /// Called once on the finished result.
    fn finish(&mut self, _result: &mut CoSimResult) {}
}

/// Flight-recorder configuration (see [`coolpim_telemetry::flight`]):
/// sampling cadence, ring depth, and where anomaly dumps go.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Frames retained in the ring (default 64 — 6.4 ms of history at
    /// the default 100 µs epoch and cadence 1).
    pub capacity: usize,
    /// Sample every N co-sim epochs (default 1; floored at 1).
    pub every_epochs: u64,
    /// Directory for post-mortem bundles (None keeps dumps in-memory
    /// only: the `FlightDump` event and `flight_dumps` counter still
    /// fire).
    pub postmortem_dir: Option<PathBuf>,
    /// Maximum dumps per run, written or not (default 8).
    pub max_dumps: usize,
    /// Minimum epochs between dumps, so one hot episode cannot spam
    /// near-identical bundles (default 16).
    pub min_gap_epochs: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            every_epochs: 1,
            postmortem_dir: None,
            max_dumps: 8,
            min_gap_epochs: 16,
        }
    }
}

/// The spatial flight recorder as an observer: samples per-vault frames
/// every `cfg.every_epochs` epochs into a fixed ring and snapshots it to
/// a post-mortem bundle on a thermal anomaly (warning raised, phase
/// change out of Normal, overshoot-episode start).
pub struct FlightObserver {
    cfg: FlightConfig,
    /// Sized to the cube on the first epoch.
    rec: Option<FlightRecorder>,
    /// Whether the previous epoch's peak was above the warning
    /// threshold (overshoot-episode edge detection).
    over: bool,
    last_dump_epoch: Option<u64>,
    dumps_taken: usize,
    dumps: Vec<PathBuf>,
}

impl FlightObserver {
    /// A recorder with configuration `cfg`.
    pub fn new(cfg: FlightConfig) -> Self {
        Self {
            cfg,
            rec: None,
            over: false,
            last_dump_epoch: None,
            dumps_taken: 0,
            dumps: Vec::new(),
        }
    }
}

impl EpochObserver for FlightObserver {
    fn name(&self) -> &'static str {
        "flight_recorder"
    }

    fn on_epoch(&mut self, v: &EpochView<'_>, out: &mut Vec<TelemetryEvent>) {
        let rec = self.rec.get_or_insert_with(|| {
            FlightRecorder::new(self.cfg.capacity.max(1), v.hmc.config().vaults)
        });
        if v.epoch.is_multiple_of(self.cfg.every_epochs.max(1)) {
            let pool = v.metrics.gauge_value("token_pool_size");
            let cap = v.metrics.gauge_value("warp_cap_slots");
            let frame = rec.record();
            frame.t_ps = v.t_ps;
            frame.epoch = v.epoch;
            frame.peak_dram_c = v.readout.peak_dram_c;
            frame.logic_c = v.readout.peak_logic_c;
            frame.phase = v.phase.name();
            frame.pool_size = pool.map(|p| p.max(0.0) as u64);
            frame.warp_cap = cap.map(|c| c.max(0.0) as u64);
            for (i, s) in frame.vaults.iter_mut().enumerate() {
                s.peak_dram_c = v.vault_peak_dram_c.get(i).copied().unwrap_or(f64::NAN);
                s.ops = v.window.vault_ops[i];
                s.pim_ops = v.window.vault_pim_ops[i];
                s.flits = v.window.vault_flits[i];
                s.queue_wait_ps = v.window.vault_queue_wait_ps[i];
            }
        }
        let mut trigger: Option<(&'static str, Option<u64>)> = None;
        for ev in v.events {
            match ev {
                TelemetryEvent::ThermalWarningRaised { warning_id, .. } => {
                    trigger = Some(("warning", Some(*warning_id)));
                    break;
                }
                TelemetryEvent::PhaseTransition { to, .. }
                    if *to != "Normal" && trigger.is_none() =>
                {
                    trigger = Some(("phase", None));
                }
                _ => {}
            }
        }
        let over = v.readout.peak_dram_c > v.cfg.warning_threshold_c;
        if trigger.is_none() && over && !self.over {
            trigger = Some(("overshoot", None));
        }
        self.over = over;
        let Some((trig, warning_id)) = trigger else {
            return;
        };
        let gap_ok = self
            .last_dump_epoch
            .is_none_or(|e| v.epoch - e >= self.cfg.min_gap_epochs);
        if !gap_ok || self.dumps_taken >= self.cfg.max_dumps || rec.is_empty() {
            return;
        }
        self.last_dump_epoch = Some(v.epoch);
        self.dumps_taken += 1;
        let mut bundle = PostmortemBundle::from_recorder(
            trig,
            v.t_ps,
            warning_id,
            v.cfg.warning_threshold_c,
            v.cfg.epoch,
            rec,
        );
        let attr = v.hmc.pim_attribution();
        for (sm, row) in attr.sm_rows() {
            bundle.push_attribution_row(Some(sm as u64), row.to_vec());
        }
        if attr.unattributed().iter().any(|&c| c > 0) {
            bundle.push_attribution_row(None, attr.unattributed().to_vec());
        }
        out.push(TelemetryEvent::FlightDump {
            t_ps: v.t_ps,
            trigger: trig,
            frames: bundle.frames.len() as u64,
            hottest_vault: bundle.hottest_vault().unwrap_or(0) as u64,
        });
        if let Some(dir) = &self.cfg.postmortem_dir {
            let path = dir.join(format!("postmortem-{:03}-{trig}.jsonl", self.dumps_taken));
            match std::fs::write(&path, bundle.encode()) {
                Ok(()) => self.dumps.push(path),
                Err(e) => eprintln!("flight recorder: failed to write {}: {e}", path.display()),
            }
        }
    }

    /// Hands the written bundle paths to the result, in dump order.
    fn finish(&mut self, result: &mut CoSimResult) {
        result.postmortem_dumps.append(&mut self.dumps);
    }
}

/// Publishes one [`EpochObservation`] per epoch into the hub (one mutex
/// lock, ring pushes and a registry `clone_from`), and marks the hub
/// done when the run finishes.
impl EpochObserver for MonitorHub {
    fn name(&self) -> &'static str {
        "monitor"
    }

    fn on_epoch(&mut self, v: &EpochView<'_>, _out: &mut Vec<TelemetryEvent>) {
        let total_wait_ps: u64 = v.window.vault_queue_wait_ps.iter().sum();
        let total_ops: u64 = v.window.vault_ops.iter().sum();
        // ETA is an upper bound: wall time to reach the max_sim_time cap
        // at the observed sim rate (most runs finish earlier when the
        // kernel retires).
        let sim_rate = v.t_ps as f64 / v.wall_s.max(1e-9);
        let eta_s = if sim_rate > 0.0 {
            v.cfg.max_sim_time.saturating_sub(v.t_ps) as f64 / sim_rate
        } else {
            f64::NAN
        };
        let obs = EpochObservation {
            t_ps: v.t_ps,
            epoch: v.epoch,
            phase: v.phase.name(),
            peak_dram_c: v.readout.peak_dram_c,
            pool_tokens: v.metrics.gauge_value("token_pool_size").unwrap_or(f64::NAN),
            warp_cap: v.metrics.gauge_value("warp_cap_slots").unwrap_or(f64::NAN),
            pim_ops_per_s: v.window.pim_ops as f64 / v.window_s,
            queue_wait_ps: if total_ops > 0 {
                total_wait_ps as f64 / total_ops as f64
            } else {
                0.0
            },
            solver_sweeps: v.solver_sweeps as f64,
            epochs_per_s: v.epochs_per_s(),
            eta_s,
            last_warning_id: v.last_warning_id,
            vault_peak_dram_c: v.vault_peak_dram_c,
        };
        self.sample(&obs, v.metrics);
    }

    /// Tells watchers the run is over (dashboards stop polling; the
    /// server is stopped by whoever started it).
    fn finish(&mut self, _result: &mut CoSimResult) {
        self.mark_done();
    }
}

/// Prints a one-line progress summary (epoch, peak temperature, phase,
/// epochs/s) to stderr and emits a [`TelemetryEvent::Heartbeat`], on the
/// first epoch and then every `secs` wall seconds.
pub struct Heartbeat {
    every_s: f64,
    next_s: f64,
}

impl Heartbeat {
    /// A heartbeat every `secs` wall seconds (floored at 0.1 s).
    pub fn every(secs: f64) -> Self {
        Self {
            every_s: secs.max(0.1),
            next_s: 0.0,
        }
    }
}

impl EpochObserver for Heartbeat {
    fn name(&self) -> &'static str {
        "heartbeat"
    }

    fn on_epoch(&mut self, v: &EpochView<'_>, out: &mut Vec<TelemetryEvent>) {
        if v.wall_s < self.next_s {
            return;
        }
        self.next_s = v.wall_s + self.every_s;
        eprintln!(
            "[coolpim] epoch {} t={:.3}ms peak={:.2}C phase={} {:.0} epochs/s",
            v.epoch,
            v.t_ps as f64 * 1e-9,
            v.readout.peak_dram_c,
            v.phase.name(),
            v.epochs_per_s(),
        );
        out.push(TelemetryEvent::Heartbeat {
            t_ps: v.t_ps,
            epoch: v.epoch,
            peak_dram_c: v.readout.peak_dram_c,
            phase: v.phase.name(),
            epochs_per_s: v.epochs_per_s(),
        });
    }
}
