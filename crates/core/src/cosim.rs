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

use coolpim_gpu::source::InstructionSource;
use coolpim_gpu::stats::GpuStats;
use coolpim_gpu::system::{GpuSystem, RunOutcome};
use coolpim_hmc::stats::StatsTotals;
use coolpim_hmc::{ns_to_ps, Hmc, Ps, TempPhase};
use coolpim_telemetry::{MetricsSnapshot, Telemetry, TelemetryEvent, TraceTrack, Tracer};
use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::model::HmcThermalModel;
use coolpim_thermal::power::TrafficSample;
use coolpim_thermal::solver::{ThermalSolve, TransientState};

use crate::observer::{EpochObserver, EpochView};
use crate::policy::Policy;

/// Co-simulation parameters.
#[derive(Debug, Clone)]
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

/// One epoch's telemetry (the per-millisecond samples of Fig. 14 are
/// aggregated from these).
#[derive(Debug, Clone, Copy)]
pub struct TimelineSample {
    /// End-of-epoch simulation time (s).
    pub t_s: f64,
    /// Average PIM rate over the epoch (op/ns).
    pub pim_rate_op_ns: f64,
    /// Average external data bandwidth over the epoch (bytes/s).
    pub data_bw: f64,
    /// Peak DRAM temperature at the end of the epoch (°C).
    pub peak_dram_c: f64,
    /// Operating phase after the thermal update.
    pub phase: TempPhase,
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
    /// Per-epoch telemetry.
    pub timeline: Vec<TimelineSample>,
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
        let mut hmc = Hmc::hmc20();
        hmc.set_warning_threshold(cfg.warning_threshold_c);
        let sys = GpuSystem::new(cfg.gpu.clone(), hmc);
        let thermal = HmcThermalModel::hmc20(cfg.cooling);
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
    /// [`coolpim_telemetry::MonitorHub`], a [`crate::observer::Heartbeat`],
    /// or any other [`EpochObserver`]. Observers run in attach order.
    pub fn with_observer(mut self, observer: impl EpochObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Runs `kernel` to completion under this policy. The source may be a
    /// live [`coolpim_gpu::Kernel`] (every kernel is an
    /// [`InstructionSource`] via the blanket impl) or a trace replay.
    pub fn run<K: InstructionSource + ?Sized>(self, kernel: &mut K) -> CoSimResult {
        let profile = kernel.profile();
        let mut ctrl = self.policy.controller(&profile);
        let feedback = self.policy.thermal_feedback();
        self.run_with_controller(kernel, ctrl.as_mut(), feedback)
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
        mut self,
        kernel: &mut K,
        ctrl: &mut dyn coolpim_gpu::controller::OffloadController,
        feedback: bool,
    ) -> CoSimResult {
        let run_started = std::time::Instant::now();
        self.sys
            .hmc_mut()
            .set_warning_threshold(self.cfg.warning_threshold_c);

        // Make the trace self-describing: downstream tooling (`analyze`)
        // reads the policy/workload/threshold from this header event.
        self.telemetry.emit(TelemetryEvent::RunInfo {
            t_ps: 0,
            policy: self.policy.name(),
            workload: coolpim_telemetry::event::intern(kernel.name()),
            threshold_c: self.cfg.warning_threshold_c,
            epoch_ps: self.cfg.epoch,
        });

        let mut timeline = Vec::new();
        let mut max_peak = f64::NEG_INFINITY;
        let mut shutdown = false;
        let mut timed_out = false;
        let mut cube_energy_j = 0.0;
        let mut throttle_steps = 0u64;
        let mut batch: Vec<TelemetryEvent> = Vec::new();
        let mut observed: Vec<TelemetryEvent> = Vec::new();
        // Raise time of every warning episode, for the warning→action
        // latency histogram (ids are small and monotone; linear scan).
        let mut raised_at: Vec<(u64, Ps)> = Vec::new();
        let fan_power_w = self.cfg.cooling.fan_power_w();
        // Per-vault temperatures for the observers (no per-epoch alloc).
        let mut vault_temps: Vec<f64> = Vec::new();
        let mut prev_sweeps = self.thermal.solver_stats().sweeps;

        self.sys.start(kernel, ctrl, 0);
        let mut horizon = 0;
        let mut first_epoch = true;
        let mut epoch_idx = 0u64;
        let end_ps = loop {
            horizon += self.cfg.epoch;
            epoch_idx += 1;
            let epoch_tok = self.sim_trace.as_mut().map(|t| t.begin("epoch"));
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
            let sample = TrafficSample {
                window_s: dur_s,
                ext_bytes: window.data_bytes(),
                pim_ops: window.pim_ops as f64,
                vault_weights: Some(window.vault_weights()),
            };
            cube_energy_j += self.thermal.total_power_w(&sample) * dur_s;
            let readout = if std::mem::take(&mut first_epoch) && self.cfg.warm_start {
                span(&mut self.sim_trace, "thermal_solve", || {
                    self.thermal.steady_state(&sample)
                })
            } else {
                self.thermal.step_traced(&sample, self.sim_trace.as_mut())
            };
            max_peak = max_peak.max(readout.peak_dram_c);
            if feedback {
                self.sys
                    .hmc_mut()
                    .set_peak_dram_temp_at(readout.peak_dram_c, now);
                ctrl.on_thermal_reading(readout.peak_dram_c, self.cfg.warning_threshold_c, now);
            }
            let phase = self.sys.hmc().phase();
            timeline.push(TimelineSample {
                t_s: now as f64 * 1e-12,
                pim_rate_op_ns: window.pim_rate_op_per_ns(now),
                data_bw: window.data_bytes() / dur_s,
                peak_dram_c: readout.peak_dram_c,
                phase,
            });

            // Drain the epoch's buffered events from every producer (the
            // buffers must empty even without a sink) and fold them into
            // the metrics; marker spans anchor warning→throttle flows.
            self.sys
                .hmc_mut()
                .drain_events_traced(&mut batch, self.hmc_trace.as_mut());
            self.sys.drain_events(&mut batch);
            ctrl.drain_control_events(&mut batch);
            let metrics = &mut self.telemetry.metrics;
            for ev in &batch {
                // A throttle action: its time and the warning it answers.
                let action = match ev {
                    TelemetryEvent::ThermalWarningRaised {
                        t_ps, warning_id, ..
                    } => {
                        metrics.count("thermal_warnings_raised", 1);
                        raised_at.push((*warning_id, *t_ps));
                        if let Some(t) = self.sim_trace.as_mut() {
                            t.scoped("thermal_warning", |t| {
                                t.flow_start("thermal_warning", *warning_id)
                            });
                        }
                        None
                    }
                    TelemetryEvent::ThermalWarningCleared { .. } => {
                        metrics.count("thermal_warnings_cleared", 1);
                        None
                    }
                    TelemetryEvent::ThermalWarningDelivered { .. } => {
                        metrics.count("thermal_warnings_accepted", 1);
                        None
                    }
                    TelemetryEvent::TokenPoolResize {
                        t_ps,
                        new,
                        trigger,
                        warning_id,
                        ..
                    } => {
                        metrics.gauge("token_pool_size", *new as f64);
                        (*trigger == "thermal_warning").then(|| {
                            metrics.count("token_pool_shrinks", 1);
                            (*t_ps, *warning_id)
                        })
                    }
                    TelemetryEvent::WarpCapUpdate {
                        t_ps,
                        new_slots,
                        warning_id,
                        ..
                    } => {
                        metrics.count("warp_cap_updates", 1);
                        metrics.gauge("warp_cap_slots", *new_slots as f64);
                        Some((*t_ps, *warning_id))
                    }
                    TelemetryEvent::Shutdown { .. } => {
                        metrics.count("shutdowns", 1);
                        None
                    }
                    _ => None,
                };
                if let Some((t_ps, warning_id)) = action {
                    throttle_steps += 1;
                    if let Some(id) = warning_id {
                        if let Some(t) = self.sim_trace.as_mut() {
                            t.scoped("throttle", |t| t.flow_finish("thermal_warning", id));
                        }
                        if let Some(&(_, t0)) = raised_at.iter().find(|(i, _)| *i == id) {
                            metrics.observe("warning_to_action_ps", t_ps.saturating_sub(t0));
                        }
                    }
                }
            }
            metrics.count("epochs", 1);
            metrics.gauge_max("peak_dram_c", readout.peak_dram_c);
            // Counter tracks: the feedback loop's observable state, one
            // sample per epoch next to the span tree.
            if let Some(t) = self.sim_trace.as_mut() {
                t.counter("peak_dram_c", readout.peak_dram_c);
                if let Some(v) = metrics.gauge_value("token_pool_size") {
                    t.counter("token_pool", v);
                }
                if let Some(v) = metrics.gauge_value("warp_cap_slots") {
                    t.counter("warp_cap", v);
                }
            }

            if !self.observers.is_empty() {
                self.thermal.vault_peak_dram_temps_into(&mut vault_temps);
                let sweeps = self.thermal.solver_stats().sweeps;
                let view = EpochView {
                    epoch: epoch_idx,
                    t_ps: now,
                    wall_s: run_started.elapsed().as_secs_f64(),
                    readout,
                    phase,
                    window: &window,
                    window_s: dur_s,
                    vault_peak_dram_c: &vault_temps,
                    solver_sweeps: sweeps.saturating_sub(prev_sweeps),
                    last_warning_id: raised_at.last().map_or(0, |(id, _)| *id),
                    events: &batch,
                    metrics: &self.telemetry.metrics,
                    hmc: self.sys.hmc(),
                    cfg: &self.cfg,
                };
                prev_sweeps = sweeps;
                for obs in &mut self.observers {
                    span(&mut self.sim_trace, obs.name(), || {
                        obs.on_epoch(&view, &mut observed)
                    });
                }
                for ev in &observed {
                    if let TelemetryEvent::FlightDump { .. } = ev {
                        self.telemetry.metrics.count("flight_dumps", 1);
                    }
                }
                batch.append(&mut observed);
            }

            // Stream the batch time-sorted, the epoch sample last.
            span(&mut self.sim_trace, "telemetry_emit", || {
                self.telemetry.emit_epoch_batch(&mut batch);
                self.telemetry.emit(TelemetryEvent::EpochSample {
                    t_ps: now,
                    pim_rate_op_ns: window.pim_rate_op_per_ns(now),
                    data_bw: window.data_bytes() / dur_s,
                    peak_dram_c: readout.peak_dram_c,
                    phase: phase.name(),
                });
            });
            if let (Some(t), Some(tok)) = (self.sim_trace.as_mut(), epoch_tok) {
                t.end(tok);
            }
            match outcome {
                RunOutcome::Finished => break now,
                RunOutcome::Shutdown => {
                    shutdown = true;
                    break now;
                }
                RunOutcome::Paused => {}
            }
            if horizon > self.cfg.max_sim_time {
                timed_out = true;
                break now;
            }
        };

        let totals = self.sys.hmc().totals();
        let exec_s = end_ps as f64 * 1e-12;
        let exec_ns = end_ps as f64 * 1e-3;

        self.fold_run_totals(totals.pim_ops);
        span(&mut self.sim_trace, "telemetry_emit", || {
            self.telemetry.flush()
        });
        // Folded into the metrics before the snapshot so run records
        // carry it. (The tracks hand their events to the tracer when
        // `self` drops.)
        let telemetry_overhead_pct = self.overhead_pct(run_started.elapsed().as_secs_f64());
        self.telemetry
            .metrics
            .gauge("telemetry_overhead_pct", telemetry_overhead_pct);

        let mut result = CoSimResult {
            policy: self.policy,
            workload: kernel.name().to_string(),
            exec_s,
            max_peak_dram_c: max_peak,
            avg_pim_rate_op_ns: if exec_ns > 0.0 {
                totals.pim_ops as f64 / exec_ns
            } else {
                0.0
            },
            ext_data_bytes: totals.data_bytes(),
            gpu: *self.sys.stats(),
            hmc: totals,
            timeline,
            shutdown,
            timed_out,
            l2_hit_rate: self.sys.l2_hit_rate(),
            cube_energy_j,
            fan_energy_j: fan_power_w * exec_s,
            metrics: self.telemetry.metrics.take_snapshot(),
            throttle_steps,
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
    fn fold_run_totals(&mut self, pim_ops: u64) {
        let hmc = self.sys.hmc();
        let metrics = &mut self.telemetry.metrics;
        metrics.merge_histogram("hmc_service_time_ps", hmc.service_time_hist());
        metrics.merge_histogram("hmc_queue_wait_ps", hmc.queue_wait_hist());
        metrics.gauge("hmc_row_hit_rate", hmc.row_hit_rate());
        metrics.count("pim_ops", pim_ops);
        let solver = self.thermal.solver_stats();
        metrics.count("thermal_substeps", solver.substeps);
        metrics.count("thermal_gs_sweeps", solver.sweeps);
        metrics.count("thermal_fastpath_hits", solver.fast_path_hits);
        metrics.count("thermal_skipped_substeps", solver.skipped_substeps);
        metrics.gauge("thermal_sweeps_per_substep", solver.sweeps_per_substep());
        metrics.merge_histogram("thermal_substep_sweeps", &solver.sweep_hist);
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
    use coolpim_telemetry::MonitorHub;

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

    #[test]
    fn untraced_run_reports_exactly_zero_overhead() {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        // Observers alone are not timed: the overhead figure needs a
        // tracer.
        let r = tiny_cosim(Policy::NaiveOffloading)
            .with_observer(FlightObserver::new(FlightConfig::default()))
            .with_observer(MonitorHub::new())
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
    fn observers_are_timed_and_the_monitor_reports_done() {
        use coolpim_telemetry::StatusSnapshot;

        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        let hub = MonitorHub::new();
        hub.begin_run("dc+CoolPIM(SW)", "cafef00d");
        let tracer = Tracer::new();
        let r = tiny_cosim(Policy::CoolPimSw)
            .with_tracer(&tracer)
            .with_observer(FlightObserver::new(FlightConfig::default()))
            .with_observer(hub.clone())
            .run(k.as_mut());
        assert!(hub.is_done(), "CoSim must mark the hub done at run end");
        let status = StatusSnapshot::from_json(&hub.status_json()).expect("status parses");
        assert_eq!(status.run_id, "dc+CoolPIM(SW)");
        assert_eq!(status.config_hash, "cafef00d");
        assert_eq!(status.epoch as usize, r.timeline.len());
        assert!(status.done);
        assert!(status.peak_dram_c > 20.0);
        // The live series saw every epoch at tier 0 (short run < ring).
        let (t_ps, peak) = hub.latest("peak_dram_c").expect("series sampled");
        assert!(t_ps > 0);
        assert!((peak - r.timeline.last().unwrap().peak_dram_c).abs() < 1e-9);
        // Each observer runs once per epoch under its own span, and the
        // spans count into the overhead figure.
        let tree = tracer.profile();
        for path in ["epoch/flight_recorder", "epoch/monitor"] {
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
        // The mirrored registry reached the hub's exposition.
        let page = hub.metrics_text();
        coolpim_telemetry::validate_exposition(&page).expect("hub metrics validate");
        assert!(page.contains("coolpim_epochs_total"));
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
