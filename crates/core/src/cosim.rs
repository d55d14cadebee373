//! Timing ⟷ thermal co-simulation (the paper's SST-style composition of
//! MacSim + VaultSim + KitFox/3D-ICE).
//!
//! The GPU/HMC timing model advances in **thermal epochs** (default
//! 100 µs). At each epoch boundary the cube's windowed activity counters
//! are drained into a traffic sample, the transient RC solver advances by
//! the epoch, and the resulting peak DRAM temperature is pushed back into
//! the cube — updating its operating phase (frequency derating, doubled
//! refresh, shutdown) and the ERRSTAT thermal-warning bit that CoolPIM's
//! source throttling consumes.

use std::path::PathBuf;
use std::sync::Arc;

use coolpim_gpu::source::InstructionSource;
use coolpim_gpu::stats::GpuStats;
use coolpim_gpu::system::{GpuSystem, RunOutcome};
use coolpim_hmc::stats::{StatsTotals, StatsWindow};
use coolpim_hmc::{ns_to_ps, Hmc, Ps, TempPhase, ThermalTracker};
use coolpim_telemetry::{
    EpochRecord, Histogram, MetricsSnapshot, Telemetry, TelemetryEvent, TraceTrack, Tracer,
};
use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::model::HmcThermalModel;
use coolpim_thermal::power::TrafficSample;
use coolpim_thermal::solver::{ThermalSolve, TransientState};
use coolpim_thermal::AMBIENT_C;

use crate::observer::{EpochObserver, EpochView};
use crate::policy::Policy;

/// Co-simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimConfig {
    /// Host GPU configuration.
    pub gpu: coolpim_gpu::GpuConfig,
    /// Thermal epoch length (ps).
    pub epoch: Ps,
    /// Cooling solution on the cube.
    pub cooling: Cooling,
    /// ERRSTAT warning threshold (°C).
    pub warning_threshold_c: f64,
    /// Safety cap on simulated time (ps); runs exceeding it abort.
    pub max_sim_time: Ps,
    /// Start the cube at the steady-state temperature of the first
    /// epoch's traffic instead of at ambient. The paper's evaluation
    /// measures the steady regime (GPU kernels are launched over and
    /// over), so the cold-start transient is excluded by default.
    pub warm_start: bool,
}

impl Default for CoSimConfig {
    fn default() -> Self {
        Self {
            gpu: coolpim_gpu::GpuConfig::paper(),
            epoch: ns_to_ps(100_000.0), // 100 µs
            cooling: Cooling::CommodityServer,
            warning_threshold_c: 84.0,
            max_sim_time: ns_to_ps(4.0e9), // 4 s
            warm_start: true,
        }
    }
}

/// Result of one co-simulated run.
#[derive(Debug, Clone)]
pub struct CoSimResult {
    /// Which policy ran.
    pub policy: Policy,
    /// Workload name.
    pub workload: String,
    /// Total execution time (s).
    pub exec_s: f64,
    /// Hottest peak-DRAM temperature seen (°C).
    pub max_peak_dram_c: f64,
    /// Whole-run average PIM rate (op/ns).
    pub avg_pim_rate_op_ns: f64,
    /// Total external data traffic (bytes, Table I data-equivalent).
    pub ext_data_bytes: f64,
    /// GPU engine statistics.
    pub gpu: GpuStats,
    /// Cube totals.
    pub hmc: StatsTotals,
    /// One record per thermal epoch (the per-millisecond samples of
    /// Fig. 14 are aggregated from these).
    pub timeline: Vec<EpochRecord>,
    /// Whether the cube thermally shut down.
    pub shutdown: bool,
    /// Whether the safety time cap was hit.
    pub timed_out: bool,
    /// L2 hit rate over the whole run.
    pub l2_hit_rate: f64,
    /// Cube energy over the run (J): static + link + DRAM + PIM power
    /// integrated over the thermal epochs.
    pub cube_energy_j: f64,
    /// Cooling (fan) energy over the run (J).
    pub fan_energy_j: f64,
    /// End-of-run metrics: epoch/warning counters, pool/cap/temperature
    /// gauges, and the cube's service-time and queue-wait histograms.
    pub metrics: MetricsSnapshot,
    /// Source-throttling control actions applied: SW-DynT token-pool
    /// shrinks plus HW-DynT PCU warp-cap updates.
    pub throttle_steps: u64,
    /// Telemetry self-overhead as a percentage of the run's wall time:
    /// the tracer's own cost plus the self time of the observer and
    /// `telemetry_emit` spans. 0 without a tracer.
    pub telemetry_overhead_pct: f64,
    /// Post-mortem bundles written by the flight recorder, in dump
    /// order.
    pub postmortem_dumps: Vec<PathBuf>,
}

impl CoSimResult {
    /// Average external data bandwidth over the run (bytes/s).
    pub fn avg_data_bw(&self) -> f64 {
        if self.exec_s > 0.0 {
            self.ext_data_bytes / self.exec_s
        } else {
            0.0
        }
    }

    /// Total memory-system energy (cube + fan) in Joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cube_energy_j + self.fan_energy_j
    }

    /// The run flattened to named numbers, in a fixed order: the
    /// headline results, then every telemetry counter (`counter.*`),
    /// gauge (`gauge.*`) and histogram summary (`hist.<name>.*`). This
    /// is the metric list a run record persists and the replay oracle
    /// compares bit for bit; names are unique.
    pub fn named_metrics(&self) -> Vec<(String, f64)> {
        let mut m: Vec<(String, f64)> = [
            ("exec_s", self.exec_s),
            ("max_peak_dram_c", self.max_peak_dram_c),
            ("avg_pim_rate_op_ns", self.avg_pim_rate_op_ns),
            ("ext_data_bytes", self.ext_data_bytes),
            ("l2_hit_rate", self.l2_hit_rate),
            ("cube_energy_j", self.cube_energy_j),
            ("fan_energy_j", self.fan_energy_j),
            ("offload_fraction", self.gpu.offload_fraction()),
            ("kernel_launches", self.gpu.launches as f64),
            ("pim_ops", self.hmc.pim_ops as f64),
            ("reads", self.hmc.reads as f64),
            ("writes", self.hmc.writes as f64),
            ("throttle_steps", self.throttle_steps as f64),
            ("shutdown", u64::from(self.shutdown) as f64),
            ("timed_out", u64::from(self.timed_out) as f64),
            ("telemetry_overhead_pct", self.telemetry_overhead_pct),
            ("postmortem_dumps", self.postmortem_dumps.len() as f64),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
        for (n, v) in &self.metrics.counters {
            m.push((format!("counter.{n}"), *v as f64));
        }
        for (n, v) in &self.metrics.gauges {
            m.push((format!("gauge.{n}"), *v));
        }
        for (n, h) in &self.metrics.hists {
            m.push((format!("hist.{n}.count"), h.count as f64));
            m.push((format!("hist.{n}.mean"), h.mean));
            m.push((format!("hist.{n}.p50"), h.p50 as f64));
            m.push((format!("hist.{n}.p90"), h.p90 as f64));
            m.push((format!("hist.{n}.p99"), h.p99 as f64));
            m.push((format!("hist.{n}.max"), h.max as f64));
        }
        m
    }
}

/// What the timing model reads of the temperature after an epoch's
/// feedback: the cube's operating phase and its ERRSTAT warning bit.
/// The controllers of every [`Policy`] act on the warning bit alone
/// (they ignore `on_thermal_reading`), and the cube retimes only on a
/// phase change, so two runs of one policy over one source whose pairs
/// agree before the first epoch and after every epoch but the last run
/// the same engine.
type FeedbackPair = (TempPhase, bool);

/// One thermal epoch of the GPU/HMC engine as the feedback half sees it:
/// how the epoch ended, the window's traffic and rates, and the events
/// the engine and the controller raised.
#[derive(Debug, Clone)]
struct EngineEpoch {
    outcome: RunOutcome,
    /// End-of-epoch simulation time (ps).
    now: Ps,
    /// The thermal model's input for the epoch.
    sample: TrafficSample,
    pim_rate_op_ns: f64,
    data_bw: f64,
    /// The GPU system's events, then the controller's, in drain order.
    events: Vec<TelemetryEvent>,
}

/// The engine's whole-run totals.
#[derive(Debug, Clone)]
struct EngineTotals {
    gpu: GpuStats,
    hmc: StatsTotals,
    l2_hit_rate: f64,
    service_time: Histogram,
    queue_wait: Histogram,
    row_hit_rate: f64,
}

/// A full run's engine, epoch by epoch, with the feedback pair each
/// epoch applied and the totals it ended with. Another run of the same
/// policy over the same source folds it instead of running the engine,
/// for as long as its own pairs agree ([`CoSim::replay`]).
#[derive(Debug, Clone)]
pub(crate) struct EngineLog {
    /// The pair before the first epoch: the cube's 25 °C start against
    /// the threshold.
    initial: FeedbackPair,
    epochs: Vec<(EngineEpoch, FeedbackPair)>,
    totals: EngineTotals,
}

/// Where an epoch's readout is fed back.
enum Cube<'a> {
    /// The live cube and controller, with the epoch's window for the
    /// observers.
    Live {
        ctrl: &'a mut dyn coolpim_gpu::controller::OffloadController,
        window: &'a StatsWindow,
    },
    /// A reused run's own warning and phase tracker.
    Reused(&'a mut ThermalTracker),
}

/// A run's state between epochs.
struct Fold {
    run_started: std::time::Instant,
    /// The engine's time horizon after the current epoch (ps).
    horizon: Ps,
    epoch_idx: u64,
    timeline: Vec<EpochRecord>,
    /// Token-pool size and warp cap after the latest resize or update.
    pool_size: Option<u64>,
    warp_cap: Option<u64>,
    cube_energy_j: f64,
    throttle_steps: u64,
    /// Raise time of every warning episode, for the warning→action
    /// latency histogram (ids are small and monotone; linear scan).
    raised_at: Vec<(u64, Ps)>,
    batch: Vec<TelemetryEvent>,
    observed: Vec<TelemetryEvent>,
    /// Per-vault temperatures for the observers (no per-epoch alloc).
    vault_temps: Vec<f64>,
    /// Set by the epoch that ends the run.
    end_ps: Option<Ps>,
    shutdown: bool,
    timed_out: bool,
}

/// The co-simulator: GPU + HMC timing coupled to the thermal plant.
///
/// Generic over the thermal model's [`ThermalSolve`] seam (default: the
/// optimized [`TransientState`]); [`Self::with_thermal_model`] swaps the
/// whole plant, e.g. for one driven by the reference solver.
pub struct CoSim<S: ThermalSolve = TransientState> {
    sys: GpuSystem,
    thermal: HmcThermalModel<S>,
    policy: Policy,
    cfg: CoSimConfig,
    telemetry: Telemetry,
    /// The loop's timeline track (the epoch span tree with thermal
    /// children, counter samples, warning→throttle flows), when trace
    /// timelines are on.
    sim_trace: Option<TraceTrack>,
    /// The cube's timeline track (window roll-over / event-drain spans
    /// plus per-epoch activity counters), when trace timelines are on.
    hmc_trace: Option<TraceTrack>,
    observers: Vec<Box<dyn EpochObserver>>,
}

// Constructors stay on the defaulted type so `CoSim::paper(...)` keeps
// resolving without annotation (default type parameters don't take part
// in inference).
impl CoSim {
    /// Paper configuration: Table IV GPU + HMC 2.0 + commodity-server
    /// cooling.
    pub fn paper(policy: Policy) -> Self {
        Self::new(policy, CoSimConfig::default())
    }

    /// Custom co-simulation parameters.
    pub fn new(policy: Policy, cfg: CoSimConfig) -> Self {
        let thermal = HmcThermalModel::hmc20(cfg.cooling);
        Self::on_plant(policy, cfg, thermal)
    }

    /// [`Self::new`] over a thermal model already built for
    /// `cfg.cooling` (building one costs far more than cloning it).
    pub(crate) fn on_plant(policy: Policy, cfg: CoSimConfig, thermal: HmcThermalModel) -> Self {
        let mut hmc = Hmc::hmc20();
        hmc.set_warning_threshold(cfg.warning_threshold_c);
        let sys = GpuSystem::new(cfg.gpu.clone(), hmc);
        Self {
            sys,
            thermal,
            policy,
            cfg,
            telemetry: Telemetry::disabled(),
            sim_trace: None,
            hmc_trace: None,
            observers: Vec::new(),
        }
    }
}

impl<S: ThermalSolve> CoSim<S> {
    /// Replaces the GPU system (test hook for smaller configurations).
    pub fn with_system(mut self, sys: GpuSystem) -> Self {
        self.sys = sys;
        self
    }

    /// Replaces the thermal plant wholesale — the solver-swap hook the
    /// lockstep oracle uses, e.g.
    /// `CoSim::paper(p).with_thermal_model(model.with_solver(ReferenceTransient::new))`.
    /// Pair it with a model built for the same cooling solution as the
    /// config, or the run answers a different question than configured.
    pub fn with_thermal_model<S2: ThermalSolve>(self, thermal: HmcThermalModel<S2>) -> CoSim<S2> {
        CoSim {
            sys: self.sys,
            thermal,
            policy: self.policy,
            cfg: self.cfg,
            telemetry: self.telemetry,
            sim_trace: self.sim_trace,
            hmc_trace: self.hmc_trace,
            observers: self.observers,
        }
    }

    /// Attaches a hierarchical trace timeline (see
    /// [`coolpim_telemetry::Tracer`]): opens three tracks on `tracer` —
    /// `sim` (the epoch span tree with thermal children, counter
    /// samples, and warning→throttle flow events), `gpu` (the engine's
    /// scheduling/dispatch spans), and `hmc` (the cube's window and
    /// event-drain spans). A tracer also turns on the
    /// `telemetry_overhead_pct` measurement.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.sim_trace = Some(tracer.track("sim"));
        self.sys.set_trace(tracer.track("gpu"));
        self.hmc_trace = Some(tracer.track("hmc"));
        self
    }

    /// Attaches a telemetry bundle (event sink plus metrics registry).
    /// The default is [`Telemetry::disabled`], which costs one branch
    /// per emit.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a per-epoch observer — a
    /// [`crate::observer::FlightObserver`], a
    /// [`crate::observer::Heartbeat`], or any other [`EpochObserver`].
    /// Observers run in attach order.
    pub fn with_observer(mut self, observer: impl EpochObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Runs `kernel` to completion under this policy. The source may be a
    /// live [`coolpim_gpu::Kernel`] or a trace replay.
    pub fn run<K: InstructionSource + ?Sized>(self, kernel: &mut K) -> CoSimResult {
        self.run_logged(kernel, false).0
    }

    /// [`Self::run`], also returning the run's [`EngineLog`] when `log`
    /// is set.
    pub(crate) fn run_logged<K: InstructionSource + ?Sized>(
        self,
        kernel: &mut K,
        log: bool,
    ) -> (CoSimResult, Option<EngineLog>) {
        let profile = kernel.profile();
        let mut ctrl = self.policy.controller(&profile);
        let feedback = self.policy.thermal_feedback();
        self.drive(kernel, ctrl.as_mut(), feedback, log)
    }

    /// Runs `kernel` with a caller-supplied offloading controller
    /// (ablation studies, extensions such as graduated warnings).
    /// `feedback` selects whether the thermal readout is pushed back into
    /// the cube (false reproduces the ideal-cooling scenario).
    ///
    /// Each epoch follows the paper's feedback cycle: advance the GPU →
    /// close the HMC window → power → thermal step → feedback → fold the
    /// epoch's events into the metrics → observers → emit.
    pub fn run_with_controller<K: InstructionSource + ?Sized>(
        self,
        kernel: &mut K,
        ctrl: &mut dyn coolpim_gpu::controller::OffloadController,
        feedback: bool,
    ) -> CoSimResult {
        self.drive(kernel, ctrl, feedback, false).0
    }

    /// The live loop: each epoch's engine half feeds the fold directly.
    fn drive<K: InstructionSource + ?Sized>(
        mut self,
        kernel: &mut K,
        ctrl: &mut dyn coolpim_gpu::controller::OffloadController,
        feedback: bool,
        log: bool,
    ) -> (CoSimResult, Option<EngineLog>) {
        let mut fold = self.begin(kernel.name());
        let initial = self.sys.hmc().thermal().feedback();
        let mut epochs = Vec::new();
        self.sys.start(kernel, ctrl, 0);
        while fold.end_ps.is_none() {
            fold.horizon += self.cfg.epoch;
            let epoch_tok = self.sim_trace.as_mut().map(|t| t.begin("epoch"));
            let (epoch, window) = self.engine_epoch(kernel, ctrl, fold.horizon);
            let cube = Cube::Live {
                ctrl: &mut *ctrl,
                window: &window,
            };
            let pair = self.fold_epoch(&mut fold, &epoch, cube, feedback);
            if let (Some(t), Some(tok)) = (self.sim_trace.as_mut(), epoch_tok) {
                t.end(tok);
            }
            if log {
                epochs.push((epoch, pair));
            }
        }
        let totals = self.engine_totals();
        let log = log.then(|| EngineLog {
            initial,
            epochs,
            totals: totals.clone(),
        });
        (self.finish(fold, kernel.name(), &totals), log)
    }

    /// Folds one of `logs`, full runs of this policy's engine over this
    /// source, under this run's own cooling and threshold: only the
    /// thermal model and a warning and phase tracker step. The walk drops
    /// a log at the first epoch whose feedback pair differs from the one
    /// the log applied (the run's last pair reaches no engine), and
    /// returns `None` once none is left: from there the engine would
    /// have run differently. Logs that applied the same pairs so far ran
    /// the same engine so far, so one thermal trajectory serves them all.
    /// A returned result equals running the cell alone, bit for bit.
    pub(crate) fn replay(mut self, workload: &str, logs: &[Arc<EngineLog>]) -> Option<CoSimResult> {
        debug_assert!(
            self.observers.is_empty(),
            "a reused run has no cube to observe"
        );
        let feedback = self.policy.thermal_feedback();
        let mut tracker = ThermalTracker::new(self.cfg.warning_threshold_c);
        let mut alive: Vec<&EngineLog> = logs
            .iter()
            .map(|log| &**log)
            .filter(|log| log.initial == tracker.feedback())
            .collect();
        let mut fold = self.begin(workload);
        for k in 0.. {
            let lead = *alive.first()?;
            fold.horizon += self.cfg.epoch;
            let cube = Cube::Reused(&mut tracker);
            let pair = self.fold_epoch(&mut fold, &lead.epochs[k].0, cube, feedback);
            // A log ends where its run ended, on the same epoch here.
            if fold.end_ps.is_some() {
                return Some(self.finish(fold, workload, &lead.totals));
            }
            alive.retain(|log| log.epochs[k].1 == pair);
        }
        None
    }

    /// Opens a run: the cube's threshold, the trace's header event and
    /// an empty fold.
    fn begin(&mut self, workload: &str) -> Fold {
        self.sys
            .hmc_mut()
            .set_warning_threshold(self.cfg.warning_threshold_c);
        // The trace's self-describing header: policy, workload,
        // threshold and epoch for whoever reads the JSONL later. No
        // in-tree tool needs it; the run record carries the loop's KPIs.
        self.telemetry.emit(TelemetryEvent::RunInfo {
            t_ps: 0,
            policy: self.policy.name(),
            workload: coolpim_telemetry::event::intern(workload),
            threshold_c: self.cfg.warning_threshold_c,
            epoch_ps: self.cfg.epoch,
        });
        Fold {
            run_started: std::time::Instant::now(),
            horizon: 0,
            epoch_idx: 0,
            timeline: Vec::new(),
            pool_size: None,
            warp_cap: None,
            cube_energy_j: 0.0,
            throttle_steps: 0,
            raised_at: Vec::new(),
            batch: Vec::new(),
            observed: Vec::new(),
            vault_temps: Vec::new(),
            end_ps: None,
            shutdown: false,
            timed_out: false,
        }
    }

    /// The engine half of one epoch: advance the GPU to `horizon`, close
    /// the cube's activity window, and drain the system's and the
    /// controller's events. The window goes back too, for the observers.
    fn engine_epoch<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        ctrl: &mut dyn coolpim_gpu::controller::OffloadController,
        horizon: Ps,
    ) -> (EngineEpoch, StatsWindow) {
        let outcome = span(&mut self.sim_trace, "gpu_advance", || {
            self.sys.run_until(kernel, ctrl, horizon)
        });
        let now = if outcome == RunOutcome::Finished {
            self.sys.stats().end_ps
        } else {
            horizon
        };
        let window = span(&mut self.sim_trace, "hmc_drain", || {
            self.sys
                .hmc_mut()
                .take_window_traced(now, self.hmc_trace.as_mut())
        });
        let dur_s = window.duration_s(now).max(1e-9);
        let mut events = Vec::new();
        self.sys.drain_events(&mut events);
        ctrl.drain_control_events(&mut events);
        let epoch = EngineEpoch {
            outcome,
            now,
            sample: TrafficSample {
                window_s: dur_s,
                ext_bytes: window.data_bytes(),
                pim_ops: window.pim_ops as f64,
                vault_weights: Some(window.vault_weights()),
            },
            pim_rate_op_ns: window.pim_rate_op_per_ns(now),
            data_bw: window.data_bytes() / dur_s,
            events,
        };
        (epoch, window)
    }

    /// The feedback half of one epoch, live or reused: warm start or
    /// thermal step, energy, cube feedback, the event fold, metrics, the
    /// epoch's record (into the timeline), observers and emit. Returns
    /// the feedback pair the epoch applied.
    fn fold_epoch(
        &mut self,
        st: &mut Fold,
        epoch: &EngineEpoch,
        mut cube: Cube<'_>,
        feedback: bool,
    ) -> FeedbackPair {
        st.epoch_idx += 1;
        let now = epoch.now;
        let sample = &epoch.sample;
        st.cube_energy_j += self.thermal.total_power_w(sample) * sample.window_s;
        let readout = if st.epoch_idx == 1 && self.cfg.warm_start {
            span(&mut self.sim_trace, "thermal_solve", || {
                self.thermal.steady_state(sample)
            })
        } else {
            self.thermal.step_traced(sample, self.sim_trace.as_mut())
        };
        let pair = match &mut cube {
            Cube::Live { ctrl, .. } => {
                if feedback {
                    self.sys
                        .hmc_mut()
                        .set_peak_dram_temp_at(readout.peak_dram_c, now);
                    ctrl.on_thermal_reading(readout.peak_dram_c, self.cfg.warning_threshold_c, now);
                }
                self.sys.hmc().thermal().feedback()
            }
            Cube::Reused(tracker) => {
                if feedback {
                    tracker.update(readout.peak_dram_c, now);
                }
                tracker.feedback()
            }
        };

        // The epoch's batch: the cube's events, then the engine's, then
        // any the controller raised on the reading; fold them into the
        // metrics. Marker spans anchor warning→throttle flows.
        match &mut cube {
            Cube::Live { ctrl, .. } => {
                self.sys
                    .hmc_mut()
                    .drain_events_traced(&mut st.batch, self.hmc_trace.as_mut());
                st.batch.extend_from_slice(&epoch.events);
                ctrl.drain_control_events(&mut st.batch);
            }
            Cube::Reused(tracker) => {
                tracker.drain_events(&mut st.batch);
                st.batch.extend_from_slice(&epoch.events);
            }
        }
        let metrics = &mut self.telemetry.metrics;
        for ev in &st.batch {
            match ev {
                TelemetryEvent::ThermalWarningRaised {
                    t_ps, warning_id, ..
                } => {
                    metrics.count("thermal_warnings_raised", 1);
                    st.raised_at.push((*warning_id, *t_ps));
                    if let Some(t) = self.sim_trace.as_mut() {
                        t.scoped("thermal_warning", |t| {
                            t.flow_start("thermal_warning", *warning_id)
                        });
                    }
                }
                TelemetryEvent::ThermalWarningCleared { .. } => {
                    metrics.count("thermal_warnings_cleared", 1);
                }
                TelemetryEvent::ThermalWarningDelivered { .. } => {
                    metrics.count("thermal_warnings_accepted", 1);
                }
                TelemetryEvent::TokenPoolResize { new, trigger, .. } => {
                    st.pool_size = Some(*new);
                    metrics.gauge("token_pool_size", *new as f64);
                    if *trigger == "thermal_warning" {
                        metrics.count("token_pool_shrinks", 1);
                    }
                }
                TelemetryEvent::WarpCapUpdate { new_slots, .. } => {
                    st.warp_cap = Some(*new_slots);
                    metrics.count("warp_cap_updates", 1);
                    metrics.gauge("warp_cap_slots", *new_slots as f64);
                }
                TelemetryEvent::Shutdown { .. } => {
                    metrics.count("shutdowns", 1);
                }
                _ => {}
            }
            if let Some((t_ps, warning_id)) = ev.throttle_action() {
                st.throttle_steps += 1;
                if let Some(id) = warning_id {
                    if let Some(t) = self.sim_trace.as_mut() {
                        t.scoped("throttle", |t| t.flow_finish("thermal_warning", id));
                    }
                    // An orphan action cites a warning that was never
                    // raised; the counter exists only once one occurs.
                    match st.raised_at.iter().find(|(i, _)| *i == id) {
                        Some(&(_, t0)) => {
                            metrics.observe("warning_to_action_ps", t_ps.saturating_sub(t0))
                        }
                        None => metrics.count("orphan_actions", 1),
                    }
                }
            }
        }
        metrics.count("epochs", 1);
        metrics.gauge_max("peak_dram_c", readout.peak_dram_c);
        let record = EpochRecord {
            t_ps: now,
            epoch: st.epoch_idx,
            pim_rate_op_ns: epoch.pim_rate_op_ns,
            data_bw: epoch.data_bw,
            peak_dram_c: readout.peak_dram_c,
            logic_c: readout.peak_logic_c,
            phase: pair.0.name(),
            pool_size: st.pool_size,
            warp_cap: st.warp_cap,
        };
        st.timeline.push(record);
        // Counter tracks: the feedback loop's observable state, one
        // sample per epoch next to the span tree.
        if let Some(t) = self.sim_trace.as_mut() {
            t.counter("peak_dram_c", record.peak_dram_c);
            if let Some(v) = record.pool_size {
                t.counter("token_pool", v as f64);
            }
            if let Some(v) = record.warp_cap {
                t.counter("warp_cap", v as f64);
            }
        }

        if let (Cube::Live { window, .. }, false) = (&cube, self.observers.is_empty()) {
            self.thermal.vault_peak_dram_temps_into(&mut st.vault_temps);
            let view = EpochView {
                record: &record,
                wall_s: st.run_started.elapsed().as_secs_f64(),
                window,
                vault_peak_dram_c: &st.vault_temps,
                events: &st.batch,
                hmc: self.sys.hmc(),
                cfg: &self.cfg,
            };
            for obs in &mut self.observers {
                span(&mut self.sim_trace, obs.name(), || {
                    obs.on_epoch(&view, &mut st.observed)
                });
            }
            for ev in &st.observed {
                if let TelemetryEvent::FlightDump { .. } = ev {
                    self.telemetry.metrics.count("flight_dumps", 1);
                }
            }
            st.batch.append(&mut st.observed);
        }

        // Stream the batch time-sorted, the epoch sample last.
        span(&mut self.sim_trace, "telemetry_emit", || {
            self.telemetry.emit_epoch_batch(&mut st.batch);
            self.telemetry.emit(TelemetryEvent::EpochSample(record));
        });
        match epoch.outcome {
            RunOutcome::Finished => st.end_ps = Some(now),
            RunOutcome::Shutdown => {
                st.shutdown = true;
                st.end_ps = Some(now);
            }
            RunOutcome::Paused if st.horizon > self.cfg.max_sim_time => {
                st.timed_out = true;
                st.end_ps = Some(now);
            }
            RunOutcome::Paused => {}
        }
        pair
    }

    /// The engine's whole-run totals, read once the loop ends.
    fn engine_totals(&self) -> EngineTotals {
        let hmc = self.sys.hmc();
        EngineTotals {
            gpu: *self.sys.stats(),
            hmc: hmc.totals(),
            l2_hit_rate: self.sys.l2_hit_rate(),
            service_time: hmc.service_time_hist().clone(),
            queue_wait: hmc.queue_wait_hist().clone(),
            row_hit_rate: hmc.row_hit_rate(),
        }
    }

    /// Closes a run: end-of-run metrics, the sink flush, the overhead
    /// figure and the result, which the observers see last.
    fn finish(mut self, st: Fold, workload: &str, totals: &EngineTotals) -> CoSimResult {
        let end_ps = st.end_ps.expect("the loop ran to its end");
        let exec_s = end_ps as f64 * 1e-12;
        let exec_ns = end_ps as f64 * 1e-3;

        self.fold_run_totals(totals);
        self.fold_loop_kpis(&st.timeline);
        span(&mut self.sim_trace, "telemetry_emit", || {
            self.telemetry.flush()
        });
        // Counted only when the sink lost events, so clean runs' records
        // carry no such counter.
        let dropped = self.telemetry.dropped_writes();
        if dropped > 0 {
            self.telemetry
                .metrics
                .count("trace_dropped_writes", dropped);
        }
        // Folded into the metrics before the snapshot so run records
        // carry it. (The tracks hand their events to the tracer when
        // `self` drops.)
        let telemetry_overhead_pct = self.overhead_pct(st.run_started.elapsed().as_secs_f64());
        self.telemetry
            .metrics
            .gauge("telemetry_overhead_pct", telemetry_overhead_pct);

        let mut result = CoSimResult {
            policy: self.policy,
            workload: workload.to_string(),
            exec_s,
            max_peak_dram_c: st
                .timeline
                .iter()
                .fold(f64::NEG_INFINITY, |m, s| m.max(s.peak_dram_c)),
            avg_pim_rate_op_ns: if exec_ns > 0.0 {
                totals.hmc.pim_ops as f64 / exec_ns
            } else {
                0.0
            },
            ext_data_bytes: totals.hmc.data_bytes(),
            gpu: totals.gpu,
            hmc: totals.hmc,
            timeline: st.timeline,
            shutdown: st.shutdown,
            timed_out: st.timed_out,
            l2_hit_rate: totals.l2_hit_rate,
            cube_energy_j: st.cube_energy_j,
            fan_energy_j: self.cfg.cooling.fan_power_w() * exec_s,
            metrics: self.telemetry.metrics.take_snapshot(),
            throttle_steps: st.throttle_steps,
            telemetry_overhead_pct,
            postmortem_dumps: Vec::new(),
        };
        for obs in &mut self.observers {
            obs.finish(&mut result);
        }
        result
    }

    /// End-of-run metrics: the cube's latency histograms and row-hit
    /// rate, and the thermal solver's work counters (sweeps-per-substep
    /// distribution, fast-path hits), so solver convergence changes are
    /// visible in run records (`counter.thermal_*` / `hist.*`).
    fn fold_run_totals(&mut self, totals: &EngineTotals) {
        let metrics = &mut self.telemetry.metrics;
        metrics.merge_histogram("hmc_service_time_ps", &totals.service_time);
        metrics.merge_histogram("hmc_queue_wait_ps", &totals.queue_wait);
        metrics.gauge("hmc_row_hit_rate", totals.row_hit_rate);
        metrics.count("pim_ops", totals.hmc.pim_ops);
        let solver = self.thermal.solver_stats();
        metrics.count("thermal_substeps", solver.substeps);
        metrics.count("thermal_gs_sweeps", solver.sweeps);
        metrics.count("thermal_fastpath_hits", solver.fast_path_hits);
        metrics.count("thermal_skipped_substeps", solver.skipped_substeps);
        metrics.gauge("thermal_sweeps_per_substep", solver.sweeps_per_substep());
        metrics.merge_histogram("thermal_substep_sweeps", &solver.sweep_hist);
    }

    /// The control loop's thermal KPIs over the epoch timeline: upward
    /// crossings of the warning threshold, the time and the trapezoid
    /// °C·s above it, the time outside the Normal phase (the cube changes
    /// phase only at epoch ends, so a record's phase holds until the
    /// next one), and the time-weighted `(peak − ambient) / (threshold −
    /// ambient)`: 1.0 rides the threshold exactly.
    fn fold_loop_kpis(&mut self, timeline: &[EpochRecord]) {
        let threshold = self.cfg.warning_threshold_c;
        let denom = (threshold - AMBIENT_C).max(1e-9);
        let excess = |r: &EpochRecord| (r.peak_dram_c - threshold).max(0.0);
        let mut episodes = u64::from(timeline.first().is_some_and(|r| excess(r) > 0.0));
        let (mut over_s, mut over_c_s, mut derated_ps, mut util_s, mut span_s) =
            (0.0, 0.0, 0, 0.0, 0.0);
        for w in timeline.windows(2) {
            let (prev, over) = (excess(&w[0]), excess(&w[1]));
            let dt_s = w[1].t_ps.saturating_sub(w[0].t_ps) as f64 * 1e-12;
            over_c_s += 0.5 * (prev + over) * dt_s;
            over_s += if prev > 0.0 || over > 0.0 { dt_s } else { 0.0 };
            episodes += u64::from(over > 0.0 && prev <= 0.0);
            util_s += ((w[1].peak_dram_c - AMBIENT_C) / denom).max(0.0) * dt_s;
            span_s += dt_s;
            if w[0].phase != TempPhase::Normal.name() {
                derated_ps += w[1].t_ps - w[0].t_ps;
            }
        }
        let metrics = &mut self.telemetry.metrics;
        metrics.count("overshoot_episodes", episodes);
        metrics.gauge("overshoot_s", over_s);
        metrics.gauge("overshoot_c_s", over_c_s);
        metrics.gauge("derated_s", derated_ps as f64 * 1e-12);
        let utilization = if span_s > 0.0 { util_s / span_s } else { 0.0 };
        metrics.gauge("headroom_utilization", utilization);
    }

    /// Telemetry self-overhead over `wall_s`: this run's tracer cost plus
    /// the self time of the observer and `telemetry_emit` spans. 0
    /// without a tracer.
    fn overhead_pct(&self, wall_s: f64) -> f64 {
        let Some(sim) = &self.sim_trace else {
            return 0.0;
        };
        let tree = sim.profile();
        let spans_s: f64 = ["telemetry_emit"]
            .into_iter()
            .chain(self.observers.iter().map(|o| o.name()))
            .map(|name| tree.self_s_named(name))
            .sum();
        let tracer_s: f64 = [Some(sim), self.hmc_trace.as_ref(), self.sys.trace()]
            .into_iter()
            .flatten()
            .map(TraceTrack::self_s)
            .sum();
        100.0 * (spans_s + tracer_s) / wall_s
    }
}

/// Runs `f` inside a span named `name` on `track` (just `f` without a
/// tracer).
fn span<R>(track: &mut Option<TraceTrack>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match track {
        Some(t) => {
            let tok = t.begin(name);
            let r = f();
            t.end(tok);
            r
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{FlightConfig, FlightObserver, Heartbeat};
    use coolpim_gpu::GpuConfig;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::{make_kernel, Workload};

    fn tiny_cosim(policy: Policy) -> CoSim {
        let mut hmc = Hmc::hmc20();
        hmc.set_warning_threshold(84.0);
        CoSim::paper(policy).with_system(GpuSystem::new(GpuConfig::tiny(), hmc))
    }

    #[test]
    fn dc_runs_under_every_policy() {
        let g = GraphSpec::tiny().build();
        for p in Policy::ALL {
            let mut k = make_kernel(Workload::Dc, &g);
            let r = tiny_cosim(p).run(k.as_mut());
            assert!(r.exec_s > 0.0, "{}: zero runtime", p.name());
            assert!(!r.shutdown, "{}: unexpected shutdown", p.name());
            assert!(!r.timed_out);
            assert!(!r.timeline.is_empty());
        }
    }

    #[test]
    fn named_metrics_are_unique_and_cover_the_telemetry() {
        // A run record deduplicates by name, so a collision would drop
        // a metric from the record but not from the replay oracle's list.
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let r = tiny_cosim(Policy::CoolPimSw).run(k.as_mut());
        let m = r.named_metrics();
        let mut names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric names");
        assert_eq!(m[0], ("exec_s".to_string(), r.exec_s));
        let snap = &r.metrics;
        assert!(!snap.counters.is_empty() && !snap.gauges.is_empty() && !snap.hists.is_empty());
        assert_eq!(
            len,
            17 + snap.counters.len() + snap.gauges.len() + 6 * snap.hists.len()
        );
    }

    #[test]
    fn offloading_policies_actually_offload() {
        // Needs a property array larger than the tiny L2 — on a
        // cache-resident graph the host path wins and offloading *adds*
        // traffic (the GraphPIM working-set caveat the model reproduces).
        let g = GraphSpec::test_medium().build();
        let mut base = make_kernel(Workload::Dc, &g);
        let rb = tiny_cosim(Policy::NonOffloading).run(base.as_mut());
        assert_eq!(rb.hmc.pim_ops, 0);
        let mut naive = make_kernel(Workload::Dc, &g);
        let rn = tiny_cosim(Policy::NaiveOffloading).run(naive.as_mut());
        assert!(rn.hmc.pim_ops > 0);
        assert!(
            rn.ext_data_bytes < rb.ext_data_bytes,
            "offloading must cut traffic"
        );
    }

    #[test]
    fn telemetry_records_epochs_and_kernel_lifecycle() {
        use coolpim_telemetry::RecordingSink;

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let (sink, log) = RecordingSink::new();
        let tracer = Tracer::new();
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .with_tracer(&tracer)
            .run(k.as_mut());

        let events = log.snapshot();
        assert!(!events.is_empty());
        // The stream is monotone in simulation time.
        for w in events.windows(2) {
            assert!(w[0].t_ps() <= w[1].t_ps(), "{:?} after {:?}", w[1], w[0]);
        }
        assert_eq!(log.count_kind("EpochSample"), r.timeline.len());
        assert!(log.count_kind("KernelLaunch") >= 1);
        assert_eq!(log.count_kind("KernelRetire"), 1);
        // SW-DynT always records its Eq. 1 init sizing.
        assert!(log.count_kind("TokenPoolResize") >= 1);

        assert_eq!(r.metrics.counter("epochs"), r.timeline.len() as u64);
        assert!(r.metrics.histogram("hmc_service_time_ps").is_some());
        assert!(tracer.profile().total_s("epoch/gpu_advance") > 0.0);
    }

    /// Offloads every block and, at its first drain, reports a warp-cap
    /// step citing warning 999, which the cube never raised.
    struct Miswired {
        reported: bool,
    }

    impl coolpim_gpu::OffloadController for Miswired {
        fn on_block_launch(&mut self, _block_id: usize, _now: Ps) -> bool {
            true
        }

        fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
            if !std::mem::replace(&mut self.reported, true) {
                out.push(TelemetryEvent::WarpCapUpdate {
                    t_ps: 0,
                    old_slots: 8,
                    new_slots: 6,
                    warning_id: Some(999),
                });
            }
        }
    }

    #[test]
    fn an_action_citing_an_unraised_warning_counts_as_an_orphan() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let mut ctrl = Miswired { reported: false };
        let r =
            tiny_cosim(Policy::NaiveOffloading).run_with_controller(k.as_mut(), &mut ctrl, true);
        assert_eq!(r.metrics.counter("orphan_actions"), 1);
        assert_eq!(r.throttle_steps, 1);
        assert!(r.metrics.histogram("warning_to_action_ps").is_none());
        assert!(r
            .named_metrics()
            .contains(&("counter.orphan_actions".to_string(), 1.0)));

        // A healthy run has no orphan counter at all.
        let mut k = make_kernel(Workload::Dc, &g);
        let healthy = tiny_cosim(Policy::CoolPimSw).run(k.as_mut());
        assert!(healthy
            .metrics
            .counters
            .iter()
            .all(|(n, _)| n != "orphan_actions"));
    }

    #[test]
    fn untraced_run_reports_exactly_zero_overhead() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        // Observers alone are not timed: the overhead figure needs a
        // tracer.
        let r = tiny_cosim(Policy::NaiveOffloading)
            .with_observer(FlightObserver::new(FlightConfig::default()))
            .with_observer(Heartbeat::every(30.0))
            .run(k.as_mut());
        assert_eq!(r.telemetry_overhead_pct, 0.0);
        assert_eq!(r.metrics.gauge("telemetry_overhead_pct"), Some(0.0));
        // Metrics are always on: the epoch counter still runs.
        assert_eq!(r.metrics.counter("epochs"), r.timeline.len() as u64);
    }

    /// Track names and per-path `epoch/*` call counts of one traced run.
    fn traced_shape(sim: CoSim, tracer: &Tracer) -> (Vec<String>, Vec<(String, u64)>) {
        let g = GraphSpec::test_medium().build();
        let mut k = make_kernel(Workload::PageRank, &g);
        sim.run(k.as_mut());
        let tracks = coolpim_telemetry::validate_trace_json(&tracer.to_chrome_json())
            .expect("trace validates")
            .track_names;
        let calls = tracer
            .profile()
            .flatten()
            .into_iter()
            .filter(|(path, ..)| path.starts_with("epoch/"))
            .map(|(path, _, _, calls)| (path, calls))
            .collect();
        (tracks, calls)
    }

    #[test]
    fn tracer_and_telemetry_attach_in_either_order() {
        let cool = |p| {
            CoSim::new(
                p,
                CoSimConfig {
                    gpu: GpuConfig::tiny(),
                    warning_threshold_c: 30.0,
                    ..CoSimConfig::default()
                },
            )
        };
        let t1 = Tracer::new();
        let tracer_first = traced_shape(
            cool(Policy::CoolPimSw)
                .with_tracer(&t1)
                .with_telemetry(Telemetry::disabled()),
            &t1,
        );
        let t2 = Tracer::new();
        let telemetry_first = traced_shape(
            cool(Policy::CoolPimSw)
                .with_telemetry(Telemetry::disabled())
                .with_tracer(&t2),
            &t2,
        );
        assert_eq!(tracer_first, telemetry_first);
        assert_eq!(tracer_first.0, ["gpu", "hmc", "sim"]);
        for path in ["epoch/gpu_advance", "epoch/thermal_solve", "epoch/throttle"] {
            assert!(
                tracer_first
                    .1
                    .iter()
                    .any(|(p, calls)| p == path && *calls > 0),
                "{path} missing from {:?}",
                tracer_first.1
            );
        }
    }

    #[test]
    fn observers_are_timed_under_their_own_spans() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let tracer = Tracer::new();
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_tracer(&tracer)
            .with_observer(FlightObserver::new(FlightConfig::default()))
            .with_observer(Heartbeat::every(30.0))
            .run(k.as_mut());
        // Each observer runs once per epoch under its own span, and the
        // spans count into the overhead figure.
        let tree = tracer.profile();
        for path in ["epoch/flight_recorder", "epoch/heartbeat"] {
            let calls = tree
                .flatten()
                .into_iter()
                .find(|row| row.0 == path)
                .map(|row| row.3);
            assert_eq!(calls, Some(r.timeline.len() as u64), "{path}");
        }
        assert!(
            r.telemetry_overhead_pct > 0.0 && r.telemetry_overhead_pct < 100.0,
            "overhead {} %",
            r.telemetry_overhead_pct
        );
    }

    #[test]
    fn heartbeat_emits_progress_events_ahead_of_the_epoch_sample() {
        use coolpim_telemetry::RecordingSink;

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let (sink, log) = RecordingSink::new();
        tiny_cosim(Policy::CoolPimSw)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .with_observer(Heartbeat::every(30.0))
            .run(k.as_mut());
        // The first beat fires on the first epoch regardless of the
        // interval; later beats pace at 30 s (none here).
        assert_eq!(log.count_kind("Heartbeat"), 1);
        let events = log.snapshot();
        let beat = events
            .iter()
            .position(|e| matches!(e, TelemetryEvent::Heartbeat { .. }))
            .expect("one beat");
        let first_sample = events
            .iter()
            .position(|e| matches!(e, TelemetryEvent::EpochSample { .. }))
            .expect("epoch samples");
        assert!(
            beat < first_sample,
            "the beat streams with its epoch's batch"
        );
        if let TelemetryEvent::Heartbeat {
            epoch,
            peak_dram_c,
            phase,
            ..
        } = &events[beat]
        {
            assert_eq!(*epoch, 1);
            assert!(*peak_dram_c > 20.0);
            assert!(!phase.is_empty());
        }
    }

    #[test]
    fn timeline_temperatures_are_physical() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::PageRank, &g);
        let r = tiny_cosim(Policy::NaiveOffloading).run(k.as_mut());
        for s in &r.timeline {
            assert!(s.peak_dram_c >= 20.0 && s.peak_dram_c < 120.0);
        }
        assert!(r.max_peak_dram_c >= 25.0);
    }

    /// Runs `w` under naive offloading with a recording sink and checks
    /// the five loop KPIs the co-sim folded from its timeline against
    /// the same KPIs computed from the event stream: derated time from
    /// the `PhaseTransition`s (up to the last event if the run ends
    /// derated), overshoot and headroom from the `EpochSample`s.
    fn assert_loop_kpis_match_the_events(w: Workload, cfg: CoSimConfig) -> CoSimResult {
        use coolpim_telemetry::RecordingSink;

        let g = GraphSpec::test_medium().build();
        let mut k = make_kernel(w, &g);
        let (sink, log) = RecordingSink::new();
        let threshold = cfg.warning_threshold_c;
        let r = CoSim::new(Policy::NaiveOffloading, cfg)
            .with_telemetry(Telemetry::with_sink(Box::new(sink)))
            .run(k.as_mut());
        let events = log.snapshot();

        let mut derated_ps = 0;
        let mut derated_since = None;
        for ev in &events {
            if let TelemetryEvent::PhaseTransition { t_ps, to, .. } = *ev {
                if to != "Normal" {
                    derated_since.get_or_insert(t_ps);
                } else if let Some(t0) = derated_since.take() {
                    derated_ps += t_ps - t0;
                }
            }
        }
        let last_t = events.last().expect("a recorded run").t_ps();
        derated_ps += derated_since.map_or(0, |t0| last_t - t0);

        let samples: Vec<(u64, f64)> = events
            .iter()
            .filter_map(|ev| match ev {
                TelemetryEvent::EpochSample(s) => Some((s.t_ps, s.peak_dram_c)),
                _ => None,
            })
            .collect();
        let over = |c: f64| (c - threshold).max(0.0);
        let episodes = (0..samples.len())
            .filter(|&i| over(samples[i].1) > 0.0 && (i == 0 || over(samples[i - 1].1) == 0.0))
            .count() as u64;
        let (mut over_s, mut over_c_s, mut headroom_c_s) = (0.0, 0.0, 0.0);
        for p in samples.windows(2) {
            let dt_s = (p[1].0 - p[0].0) as f64 * 1e-12;
            over_c_s += 0.5 * (over(p[0].1) + over(p[1].1)) * dt_s;
            if over(p[0].1) > 0.0 || over(p[1].1) > 0.0 {
                over_s += dt_s;
            }
            headroom_c_s += (p[1].1 - AMBIENT_C) * dt_s;
        }
        let span_s = (samples[samples.len() - 1].0 - samples[0].0) as f64 * 1e-12;
        let headroom = headroom_c_s / (threshold - AMBIENT_C) / span_s;

        let gauge = |name: &str| r.metrics.gauge(name).expect(name);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-9);
        assert_eq!(r.metrics.counter("overshoot_episodes"), episodes);
        assert_eq!(gauge("derated_s"), derated_ps as f64 * 1e-12);
        assert!(close(gauge("overshoot_s"), over_s), "{over_s}");
        assert!(close(gauge("overshoot_c_s"), over_c_s), "{over_c_s}");
        assert!(close(gauge("headroom_utilization"), headroom), "{headroom}");
        assert!(
            over(samples[0].1) > 0.0,
            "the first sample opens an episode"
        );
        assert!(derated_ps > 0, "the cube must leave Normal");
        r
    }

    #[test]
    fn loop_kpis_match_the_event_stream() {
        // Short epochs on low-end cooling: the cube moves between Normal
        // and Extended and crosses 85 °C twice.
        let r = assert_loop_kpis_match_the_events(
            Workload::Dc,
            CoSimConfig {
                gpu: GpuConfig::tiny(),
                cooling: Cooling::LowEndActive,
                epoch: ns_to_ps(10_000.0),
                warning_threshold_c: 85.0,
                ..CoSimConfig::default()
            },
        );
        assert_eq!(r.metrics.counter("overshoot_episodes"), 2);
        assert_eq!(r.timeline.last().map(|s| s.phase), Some("Normal"));

        // Passive cooling: Critical from the first epoch to the end.
        let r = assert_loop_kpis_match_the_events(
            Workload::PageRank,
            CoSimConfig {
                gpu: GpuConfig::tiny(),
                cooling: Cooling::Passive,
                ..CoSimConfig::default()
            },
        );
        assert_ne!(r.timeline.last().map(|s| s.phase), Some("Normal"));
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use coolpim_gpu::GpuConfig;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::{make_kernel, Workload};

    #[test]
    fn energy_accumulates_and_scales_with_runtime() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let cfg = CoSimConfig {
            gpu: GpuConfig::tiny(),
            ..CoSimConfig::default()
        };
        let r = CoSim::new(Policy::NonOffloading, cfg).run(k.as_mut());
        assert!(r.cube_energy_j > 0.0);
        // Sanity: implied average power within physical bounds (4.5 W
        // static … ~60 W absolute ceiling).
        let avg_w = r.cube_energy_j / r.exec_s;
        assert!((2.0..80.0).contains(&avg_w), "average power {avg_w} W");
        // Commodity-server fan power ≈ 3.6 W over the runtime.
        let fan_w = r.fan_energy_j / r.exec_s;
        assert!((3.0..4.5).contains(&fan_w), "fan power {fan_w} W");
        assert!(r.total_energy_j() > r.cube_energy_j);
    }

    #[test]
    fn cold_start_option_changes_first_epoch_only() {
        let g = GraphSpec::tiny().build();
        let run = |warm: bool| {
            let mut k = make_kernel(Workload::PageRank, &g);
            let cfg = CoSimConfig {
                gpu: GpuConfig::tiny(),
                warm_start: warm,
                ..CoSimConfig::default()
            };
            CoSim::new(Policy::NaiveOffloading, cfg).run(k.as_mut())
        };
        let warm = run(true);
        let cold = run(false);
        // The warm run's first sample is already at operating temperature.
        assert!(
            warm.timeline[0].peak_dram_c > cold.timeline[0].peak_dram_c,
            "warm {} !> cold {}",
            warm.timeline[0].peak_dram_c,
            cold.timeline[0].peak_dram_c
        );
    }
}
