//! Per-epoch observers of the co-simulation loop.
//!
//! The loop calls every attached [`EpochObserver`] once per thermal
//! epoch, after the physics step and the event fold, with one shared
//! [`EpochView`]: the epoch's [`EpochRecord`] plus what only a live cube
//! has (the per-vault temperature reduction, done once for all of them,
//! and the activity window). Two observers ship here:
//!
//! * [`FlightObserver`] — the spatial flight recorder (see
//!   [`coolpim_telemetry::flight`]): per-vault frames into a fixed ring,
//!   post-mortem bundles on thermal anomalies;
//! * [`Heartbeat`] — a one-line stderr progress summary plus a
//!   [`TelemetryEvent::Heartbeat`] every few wall seconds.

use std::path::PathBuf;

use coolpim_hmc::stats::StatsWindow;
use coolpim_hmc::Hmc;
use coolpim_telemetry::flight::{FlightRecorder, PostmortemBundle};
use coolpim_telemetry::{EpochRecord, TelemetryEvent};

use crate::cosim::{CoSimConfig, CoSimResult};

/// What the loop knows at the end of one thermal epoch.
pub struct EpochView<'a> {
    /// The epoch's record, as the timeline holds it.
    pub record: &'a EpochRecord,
    /// Wall-clock seconds since the run started.
    pub wall_s: f64,
    /// The cube's activity window for this epoch.
    pub window: &'a StatsWindow,
    /// Peak DRAM temperature per vault (°C).
    pub vault_peak_dram_c: &'a [f64],
    /// This epoch's events, already folded into the record and the
    /// run's metrics, not yet emitted.
    pub events: &'a [TelemetryEvent],
    /// The cube.
    pub hmc: &'a Hmc,
    /// The run's configuration.
    pub cfg: &'a CoSimConfig,
}

impl EpochView<'_> {
    /// Observed wall-clock throughput (epochs per second).
    pub fn epochs_per_s(&self) -> f64 {
        self.record.epoch as f64 / self.wall_s.max(1e-9)
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
/// where anomaly dumps go and how often they may fire.
#[derive(Debug, Clone)]
pub struct FlightConfig {
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
            postmortem_dir: None,
            max_dumps: 8,
            min_gap_epochs: 16,
        }
    }
}

/// The spatial flight recorder as an observer: samples per-vault frames
/// every epoch into a fixed 64-frame ring and snapshots it to a
/// post-mortem bundle on a thermal anomaly (warning raised, phase change
/// out of Normal, overshoot-episode start).
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
    /// Frames retained in the ring: 6.4 ms of history at the default
    /// 100 µs epoch.
    const CAPACITY: usize = 64;

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
        let rec = self
            .rec
            .get_or_insert_with(|| FlightRecorder::new(Self::CAPACITY, v.hmc.config().vaults));
        for (i, s) in rec.record(*v.record).iter_mut().enumerate() {
            s.peak_dram_c = v.vault_peak_dram_c.get(i).copied().unwrap_or(f64::NAN);
            s.ops = v.window.vault_ops[i];
            s.pim_ops = v.window.vault_pim_ops[i];
            s.flits = v.window.vault_flits[i];
            s.queue_wait_ps = v.window.vault_queue_wait_ps[i];
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
        let over = v.record.peak_dram_c > v.cfg.warning_threshold_c;
        if trigger.is_none() && over && !self.over {
            trigger = Some(("overshoot", None));
        }
        self.over = over;
        let Some((trig, warning_id)) = trigger else {
            return;
        };
        let gap_ok = self
            .last_dump_epoch
            .is_none_or(|e| v.record.epoch - e >= self.cfg.min_gap_epochs);
        if !gap_ok || self.dumps_taken >= self.cfg.max_dumps || rec.is_empty() {
            return;
        }
        self.last_dump_epoch = Some(v.record.epoch);
        self.dumps_taken += 1;
        let mut bundle = PostmortemBundle::from_recorder(
            trig,
            v.record.t_ps,
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
            t_ps: v.record.t_ps,
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
        let r = v.record;
        eprintln!(
            "[coolpim] epoch {} t={:.3}ms peak={:.2}C phase={} {:.0} epochs/s",
            r.epoch,
            r.t_ps as f64 * 1e-9,
            r.peak_dram_c,
            r.phase,
            v.epochs_per_s(),
        );
        out.push(TelemetryEvent::heartbeat(r, v.epochs_per_s()));
    }
}
