//! The lockstep drivers: reference and optimized implementations of a
//! component seam advance side by side on identical inputs, and a full
//! [`EpochState`] snapshot is compared after every epoch. The first
//! disagreement stops the run and is reported with causal context — the
//! recent traffic history and a flight-recorder postmortem bundle — so
//! the diverging epoch can be debugged, not just detected.
//!
//! Three per-seam drivers cover the seams in isolation
//! ([`lockstep_thermal`], [`lockstep_controller`], [`lockstep_vault`]);
//! [`lockstep_system`] composes all three in one epoch loop, the way the
//! real co-simulation uses them.

use crate::scenario::{vault_op, CtrlOp, Scale, ThermalScenario, VaultOp, VAULT_REGIMES};
use crate::state::{EpochState, FieldDivergence};
use coolpim_core::estimate::HardwareProfile;
use coolpim_core::hw_dynt::{HwDynT, HwDynTConfig};
use coolpim_core::reference::{ReferenceHwDynT, ReferenceSwDynT};
use coolpim_core::sw_dynt::{SwDynT, SwDynTConfig};
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::OffloadController;
use coolpim_graph::rng::SplitMix64;
use coolpim_hmc::vault::Vault;
use coolpim_hmc::{Ps, ReferenceVault, VaultTiming};
use coolpim_telemetry::{EpochRecord, FlightRecorder, PostmortemBundle, TelemetryEvent, Tolerance};
use coolpim_thermal::solver::ThermalSolve;
use coolpim_thermal::{Cooling, HmcThermalModel, ReferenceTransient};

/// Epoch length used by the system driver (ps) — the co-sim's 100 µs.
const EPOCH_PS: Ps = 100_000_000;
/// Peak-DRAM threshold (°C) above which the system driver synthesises
/// thermal warnings from the *reference* side's readout.
const WARN_THRESHOLD_C: f64 = 80.0;
/// Flight-recorder ring depth kept for postmortem context.
const FLIGHT_DEPTH: usize = 16;

/// A lockstep run stopped: the two sides disagreed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Epoch ordinal (1-based) at which the sides first disagreed.
    pub epoch: u64,
    /// End-of-epoch simulation time (ps).
    pub t_ps: u64,
    /// The first snapshot field that disagreed.
    pub field: FieldDivergence,
    /// The reference side's full snapshot at the diverging epoch.
    pub reference: EpochState,
    /// The optimized side's full snapshot at the diverging epoch.
    pub optimized: EpochState,
    /// Human-readable causal context (recent input history).
    pub context: Vec<String>,
    /// Encoded flight-recorder postmortem bundle from the reference
    /// side, when the driver kept one (the system driver does).
    pub postmortem: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at epoch {} (t = {} ps): {}",
            self.epoch, self.t_ps, self.field
        )?;
        for line in &self.context {
            writeln!(f, "  context: {line}")?;
        }
        Ok(())
    }
}

/// Successful full-system lockstep run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Per-epoch snapshots from the reference side.
    pub epochs: Vec<EpochState>,
    /// Warnings the driver synthesised and delivered to the controllers.
    pub warnings_delivered: u64,
    /// Largest per-node temperature disagreement observed (°C).
    pub max_temp_dev_c: f64,
    /// Component labels that ran in lockstep, `reference vs optimized`.
    pub pairs: Vec<String>,
}

fn describe_sample(epoch: usize, s: &coolpim_thermal::TrafficSample) -> String {
    format!(
        "epoch {}: ext {:.1} GB/s, pim {:.2} op/ns{}",
        epoch + 1,
        s.ext_bytes_per_s() / 1e9,
        s.pim_ops_per_ns(),
        if s.vault_weights.is_some() {
            " (vault-skewed)"
        } else {
            ""
        }
    )
}

fn thermal_snapshot<S: ThermalSolve>(
    epoch: u64,
    t_ps: u64,
    model: &HmcThermalModel<S>,
    pool_tokens: Option<u64>,
    warp_cap: Option<u64>,
    vault_queue_wait_ps: Vec<u64>,
) -> EpochState {
    let readout = model.readout();
    let stats = model.solver_stats();
    EpochState {
        epoch,
        t_ps,
        peak_dram_c: readout.peak_dram_c,
        avg_dram_c: readout.avg_dram_c,
        surface_c: readout.surface_c,
        pool_tokens,
        warp_cap,
        solver_substeps: stats.substeps,
        solver_sweeps: stats.sweeps,
        temps_c: model.temps().to_vec(),
        vault_queue_wait_ps,
    }
}

fn max_temp_dev(a: &EpochState, b: &EpochState) -> f64 {
    a.temps_c
        .iter()
        .zip(&b.temps_c)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Runs two thermal models in lockstep over a traffic scenario,
/// comparing the full temperature field after every epoch. On success
/// returns the reference side's snapshots.
pub fn lockstep_thermal<A: ThermalSolve, B: ThermalSolve>(
    mut reference: HmcThermalModel<A>,
    mut optimized: HmcThermalModel<B>,
    scenario: &ThermalScenario,
    temp_tol: Tolerance,
) -> Result<Vec<EpochState>, Box<Divergence>> {
    let mut out = Vec::with_capacity(scenario.samples.len());
    for (e, sample) in scenario.samples.iter().enumerate() {
        reference.step(sample);
        optimized.step(sample);
        let t_ps = (e as u64 + 1) * EPOCH_PS;
        let r = thermal_snapshot(e as u64 + 1, t_ps, &reference, None, None, Vec::new());
        let o = thermal_snapshot(e as u64 + 1, t_ps, &optimized, None, None, Vec::new());
        if let Some(field) = r.first_divergence(&o, temp_tol) {
            let lo = e.saturating_sub(2);
            let context = scenario.samples[lo..=e]
                .iter()
                .enumerate()
                .map(|(k, s)| describe_sample(lo + k, s))
                .collect();
            return Err(Box::new(Divergence {
                epoch: e as u64 + 1,
                t_ps,
                field,
                reference: r,
                optimized: o,
                context,
                postmortem: None,
            }));
        }
        out.push(r);
    }
    Ok(out)
}

/// A controller-seam disagreement.
#[derive(Debug, Clone)]
pub struct ControllerDivergence {
    /// Index of the script op at which the sides disagreed.
    pub op_index: usize,
    /// What disagreed.
    pub detail: String,
}

/// Replays a controller script against two controllers, comparing every
/// observable decision and the drained control-event streams op by op.
/// Returns the number of ops replayed on success.
pub fn lockstep_controller(
    reference: &mut dyn OffloadController,
    optimized: &mut dyn OffloadController,
    script: &[CtrlOp],
) -> Result<usize, ControllerDivergence> {
    let mut ref_events: Vec<TelemetryEvent> = Vec::new();
    let mut opt_events: Vec<TelemetryEvent> = Vec::new();
    for (i, op) in script.iter().enumerate() {
        match *op {
            CtrlOp::BlockLaunch { block, t } => {
                let a = reference.on_block_launch(block, t);
                let b = optimized.on_block_launch(block, t);
                if a != b {
                    return Err(ControllerDivergence {
                        op_index: i,
                        detail: format!(
                            "block {block} launch at {t} ps: {} said {a}, {} said {b}",
                            reference.name(),
                            optimized.name()
                        ),
                    });
                }
            }
            CtrlOp::BlockComplete { block, was_pim, t } => {
                reference.on_block_complete(block, was_pim, t);
                optimized.on_block_complete(block, was_pim, t);
            }
            CtrlOp::WarpQuery { sm, slot, t } => {
                let a = reference.warp_may_offload(sm, slot, t);
                let b = optimized.warp_may_offload(sm, slot, t);
                if a != b {
                    return Err(ControllerDivergence {
                        op_index: i,
                        detail: format!(
                            "warp ({sm}, {slot}) query at {t} ps: {} said {a}, {} said {b}",
                            reference.name(),
                            optimized.name()
                        ),
                    });
                }
            }
            CtrlOp::Warning { id, t } => {
                reference.on_thermal_warning(t, id);
                optimized.on_thermal_warning(t, id);
            }
            CtrlOp::Reading { peak_mc, t } => {
                let peak = peak_mc as f64 / 1e3;
                reference.on_thermal_reading(peak, WARN_THRESHOLD_C, t);
                optimized.on_thermal_reading(peak, WARN_THRESHOLD_C, t);
            }
        }
        ref_events.clear();
        opt_events.clear();
        reference.drain_control_events(&mut ref_events);
        optimized.drain_control_events(&mut opt_events);
        if ref_events != opt_events {
            return Err(ControllerDivergence {
                op_index: i,
                detail: format!(
                    "control-event streams diverged after {op:?}: {} emitted {ref_events:?}, {} emitted {opt_events:?}",
                    reference.name(),
                    optimized.name()
                ),
            });
        }
    }
    Ok(script.len())
}

/// A vault-seam disagreement.
#[derive(Debug, Clone)]
pub struct VaultDivergence {
    /// Index of the script op at which the completions disagreed.
    pub op_index: usize,
    /// Vault the op targeted.
    pub vault: usize,
    /// What disagreed.
    pub detail: String,
}

/// Replays a vault access script against two banks of vault
/// implementations, comparing every [`VaultCompletion`] field exactly —
/// vault timing is integer picosecond arithmetic, so any disagreement at
/// all is a divergence.
///
/// [`VaultCompletion`]: coolpim_hmc::vault::VaultCompletion
pub fn lockstep_vault<A: VaultTiming, B: VaultTiming>(
    reference: &mut [A],
    optimized: &mut [B],
    script: &[VaultOp],
) -> Result<usize, VaultDivergence> {
    assert_eq!(reference.len(), optimized.len(), "vault count mismatch");
    for (i, op) in script.iter().enumerate() {
        let v = op.vault % reference.len();
        let a = reference[v].service(
            op.arrive,
            op.bank,
            op.addr,
            op.access,
            &op.timing,
            op.refresh_permille,
            op.freq_stretch,
        );
        let b = optimized[v].service(
            op.arrive,
            op.bank,
            op.addr,
            op.access,
            &op.timing,
            op.refresh_permille,
            op.freq_stretch,
        );
        if a.response_ready != b.response_ready
            || a.queue_delay != b.queue_delay
            || a.row_hit != b.row_hit
        {
            return Err(VaultDivergence {
                op_index: i,
                vault: v,
                detail: format!(
                    "{:?} at {} ps on vault {v} bank {}: {} returned {a:?}, {} returned {b:?}",
                    op.access,
                    op.arrive,
                    op.bank,
                    reference[v].name(),
                    optimized[v].name()
                ),
            });
        }
    }
    Ok(script.len())
}

/// Per-epoch controller/vault activity, derived deterministically from
/// `(seed, epoch)` so shrinking the *traffic* sample list never perturbs
/// another epoch's activity.
struct EpochActivity {
    ctrl: Vec<CtrlOp>,
    vault: Vec<VaultOp>,
    warning: bool,
}

fn epoch_activity(seed: u64, epoch: usize, t0: Ps, vaults: usize, hot: bool) -> EpochActivity {
    let mut rng = SplitMix64::seed_from_u64(
        seed ^ 0x517C_C1B7_2722_0A95 ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    // Controller ops: launches, completes and warp queries spread across
    // the epoch window (completes are synthesised by the system driver
    // from the launches it has seen, so only launch/query here).
    let mut ctrl = Vec::new();
    let n = 4 + rng.gen_range_u64(6) as usize;
    for _ in 0..n {
        let t = t0 + rng.gen_range_u64(EPOCH_PS);
        if rng.gen_range_u64(2) == 0 {
            ctrl.push(CtrlOp::BlockLaunch { block: 0, t });
        } else {
            ctrl.push(CtrlOp::WarpQuery {
                sm: rng.gen_range_u64(16) as usize,
                slot: rng.gen_range_u64(8) as usize,
                t,
            });
        }
    }
    ctrl.sort_by_key(|op| op.time());
    // Vault ops: a small burst, arrival-sorted within the window.
    let mut vault = Vec::new();
    let regime = rng.gen_range_u64(VAULT_REGIMES.len() as u64) as usize;
    let m = 8 + rng.gen_range_u64(8) as usize;
    for _ in 0..m {
        let arrive = t0 + rng.gen_range_u64(EPOCH_PS);
        let vault_id = rng.gen_range_u64(vaults as u64) as usize;
        let bank = rng.gen_range_u64(16) as usize;
        let addr = 0x40 * rng.gen_range_u64(1 << 16);
        let access = match rng.gen_range_u64(3) {
            0 => coolpim_hmc::vault::VaultAccess::Read,
            1 => coolpim_hmc::vault::VaultAccess::Write,
            _ => coolpim_hmc::vault::VaultAccess::PimRmw,
        };
        vault.push(vault_op(regime, arrive, vault_id, bank, addr, access));
    }
    vault.sort_by_key(|op| op.arrive);
    // Warnings: thermally driven (reference readout over threshold) or an
    // occasional synthetic burst so the throttle path is exercised even
    // on cool scenarios.
    let warning = hot || rng.gen_range_u64(5) == 0;
    EpochActivity {
        ctrl,
        vault,
        warning,
    }
}

/// Runs the full system — thermal solver, SW-DynT, HW-DynT, and the
/// vault bank — in lockstep for `scenario`, with the optimized thermal
/// side supplied by the caller (this is how the `validate` bin injects
/// [`PerturbedTransient`](crate::broken::PerturbedTransient)). Warnings
/// and controller/vault activity derive from the *reference* side, so
/// both sides always see identical inputs and any disagreement is the
/// component's own doing.
pub fn lockstep_system_on<S: ThermalSolve>(
    scenario: &ThermalScenario,
    temp_tol: Tolerance,
    mut optimized_thermal: HmcThermalModel<S>,
) -> Result<SystemReport, Box<Divergence>> {
    let cooling = Cooling::CommodityServer;
    let mut reference_thermal = match scenario.scale {
        Scale::Quick => HmcThermalModel::hmc11(cooling),
        Scale::Full => HmcThermalModel::hmc20(cooling),
    }
    .with_solver(ReferenceTransient::new);

    let hw = HardwareProfile::paper();
    let kernel = KernelProfile {
        pim_intensity: 0.3,
        divergence_ratio: 0.2,
    };
    let mut ref_sw = ReferenceSwDynT::new(SwDynTConfig::default(), &hw, &kernel);
    let mut opt_sw = SwDynT::new(SwDynTConfig::default(), &hw, &kernel);
    let mut ref_hw = ReferenceHwDynT::new(HwDynTConfig::default());
    let mut opt_hw = HwDynT::new(HwDynTConfig::default());

    let vaults = scenario.scale.vaults();
    let mut ref_vaults: Vec<ReferenceVault> = (0..vaults)
        .map(|_| ReferenceVault::new(16, 500, 2_000, 10.0e9))
        .collect();
    let mut opt_vaults: Vec<Vault> = (0..vaults)
        .map(|_| Vault::new(16, 500, 2_000, 10.0e9))
        .collect();

    let pairs = vec![
        format!(
            "thermal: {} vs {}",
            reference_thermal.solver().name(),
            optimized_thermal.solver().name()
        ),
        format!("controller: {} vs {}", ref_sw.name(), opt_sw.name()),
        format!("controller: {} vs {}", ref_hw.name(), opt_hw.name()),
        format!(
            "vault: {} vs {}",
            VaultTiming::name(&ref_vaults[0]),
            VaultTiming::name(&opt_vaults[0])
        ),
    ];

    let mut flight = FlightRecorder::new(FLIGHT_DEPTH, vaults);
    let mut epochs = Vec::with_capacity(scenario.samples.len());
    let mut warnings_delivered = 0u64;
    let mut max_dev = 0.0f64;
    let mut next_block = 0usize;
    let mut live_blocks: Vec<(usize, bool)> = Vec::new();
    let mut next_warning_id = 0u64;
    let mut ref_queue_wait = vec![0u64; vaults];
    let mut opt_queue_wait = vec![0u64; vaults];
    let mut ctrl_scratch: Vec<TelemetryEvent> = Vec::new();
    let mut vault_peaks = Vec::new();

    for (e, sample) in scenario.samples.iter().enumerate() {
        let t0 = e as u64 * EPOCH_PS;
        let t_ps = t0 + EPOCH_PS;

        // 1. Thermal epoch on both sides.
        let ref_readout = reference_thermal.step(sample);
        optimized_thermal.step(sample);

        // 2. Activity derived from the seed and the *reference* readout.
        let hot = ref_readout.peak_dram_c > WARN_THRESHOLD_C;
        let mut act = epoch_activity(scenario.seed, e, t0, vaults, hot);
        if act.warning {
            next_warning_id += 1;
            for k in 0..3u64 {
                let t = t0 + (k + 1) * (EPOCH_PS / 4);
                ref_sw.on_thermal_warning(t, next_warning_id);
                opt_sw.on_thermal_warning(t, next_warning_id);
                ref_hw.on_thermal_warning(t, next_warning_id);
                opt_hw.on_thermal_warning(t, next_warning_id);
                warnings_delivered += 1;
            }
        }

        // 3. Controller activity: launches, queries, and a complete for
        // roughly half the live blocks (the `was_pim` flag comes from
        // the reference decision so both sides see identical inputs).
        for op in &mut act.ctrl {
            match op {
                CtrlOp::BlockLaunch { block, t } => {
                    *block = next_block;
                    next_block += 1;
                    let a = ref_sw.on_block_launch(*block, *t);
                    let b = opt_sw.on_block_launch(*block, *t);
                    if a != b {
                        return Err(Box::new(system_divergence(
                            e,
                            t_ps,
                            FieldDivergence {
                                field: "offload_decision",
                                index: Some(*block),
                                reference: a as u64 as f64,
                                optimized: b as u64 as f64,
                                slack: 0.0,
                            },
                            &reference_thermal,
                            &optimized_thermal,
                            scenario,
                            &flight,
                        )));
                    }
                    live_blocks.push((*block, a));
                }
                CtrlOp::WarpQuery { sm, slot, t } => {
                    let a = ref_hw.warp_may_offload(*sm, *slot, *t);
                    let b = opt_hw.warp_may_offload(*sm, *slot, *t);
                    if a != b {
                        return Err(Box::new(system_divergence(
                            e,
                            t_ps,
                            FieldDivergence {
                                field: "warp_decision",
                                index: Some(*slot),
                                reference: a as u64 as f64,
                                optimized: b as u64 as f64,
                                slack: 0.0,
                            },
                            &reference_thermal,
                            &optimized_thermal,
                            scenario,
                            &flight,
                        )));
                    }
                }
                _ => {}
            }
        }
        let retire = live_blocks.len() / 2;
        for _ in 0..retire {
            let (block, was_pim) = live_blocks.remove(0);
            ref_sw.on_block_complete(block, was_pim, t_ps);
            opt_sw.on_block_complete(block, was_pim, t_ps);
        }

        // 4. Event-stream equality (order and payloads both matter).
        ctrl_scratch.clear();
        ref_sw.drain_control_events(&mut ctrl_scratch);
        ref_hw.drain_control_events(&mut ctrl_scratch);
        let ref_stream = std::mem::take(&mut ctrl_scratch);
        opt_sw.drain_control_events(&mut ctrl_scratch);
        opt_hw.drain_control_events(&mut ctrl_scratch);
        if ref_stream != ctrl_scratch {
            return Err(Box::new(system_divergence(
                e,
                t_ps,
                FieldDivergence {
                    field: "control_events",
                    index: None,
                    reference: ref_stream.len() as f64,
                    optimized: ctrl_scratch.len() as f64,
                    slack: 0.0,
                },
                &reference_thermal,
                &optimized_thermal,
                scenario,
                &flight,
            )));
        }
        ctrl_scratch = ref_stream;

        // 5. Vault activity, accumulating the queue-depth proxy.
        let mut epoch_ops = vec![0u64; vaults];
        let mut epoch_pim = vec![0u64; vaults];
        let mut epoch_wait = vec![0u64; vaults];
        for op in &act.vault {
            let v = op.vault;
            let a = ref_vaults[v].service(
                op.arrive,
                op.bank,
                op.addr,
                op.access,
                &op.timing,
                op.refresh_permille,
                op.freq_stretch,
            );
            let b = opt_vaults[v].service(
                op.arrive,
                op.bank,
                op.addr,
                op.access,
                &op.timing,
                op.refresh_permille,
                op.freq_stretch,
            );
            ref_queue_wait[v] += a.queue_delay;
            opt_queue_wait[v] += b.queue_delay;
            epoch_ops[v] += 1;
            if op.access == coolpim_hmc::vault::VaultAccess::PimRmw {
                epoch_pim[v] += 1;
            }
            epoch_wait[v] += a.queue_delay;
            // Completion fields beyond queue delay (response time, row
            // hit) are compared here directly: the snapshot only carries
            // the accumulated wait, and an exactly-compensating pair of
            // errors should still be caught.
            if a.response_ready != b.response_ready || a.row_hit != b.row_hit {
                return Err(Box::new(system_divergence(
                    e,
                    t_ps,
                    FieldDivergence {
                        field: "vault_completion",
                        index: Some(v),
                        reference: a.response_ready as f64,
                        optimized: b.response_ready as f64,
                        slack: 0.0,
                    },
                    &reference_thermal,
                    &optimized_thermal,
                    scenario,
                    &flight,
                )));
            }
        }

        // 6. Feed the reference side's flight recorder (postmortem
        // context for any later divergence).
        reference_thermal.vault_peak_dram_temps_into(&mut vault_peaks);
        let frame = flight.record(EpochRecord {
            t_ps,
            epoch: e as u64 + 1,
            pim_rate_op_ns: sample.pim_ops / (sample.window_s * 1e9),
            data_bw: sample.ext_bytes / sample.window_s,
            peak_dram_c: ref_readout.peak_dram_c,
            logic_c: ref_readout.peak_logic_c,
            // "Extended" is the closest interned phase label for an epoch
            // hot enough to synthesise warnings (the bundle codec interns
            // phase strings, so an invented label would not round-trip).
            phase: if hot { "Extended" } else { "Normal" },
            pool_size: Some(ref_sw.pool_size() as u64),
            warp_cap: Some(ref_hw.enabled_slots() as u64),
        });
        for (v, fv) in frame.iter_mut().enumerate() {
            fv.peak_dram_c = vault_peaks.get(v).copied().unwrap_or(0.0);
            fv.ops = epoch_ops[v];
            fv.pim_ops = epoch_pim[v];
            fv.flits = epoch_ops[v] * 5;
            fv.queue_wait_ps = epoch_wait[v];
        }

        // 7. Full-state snapshot comparison.
        let r = thermal_snapshot(
            e as u64 + 1,
            t_ps,
            &reference_thermal,
            Some(ref_sw.pool_size() as u64),
            Some(ref_hw.enabled_slots() as u64),
            ref_queue_wait.clone(),
        );
        let o = thermal_snapshot(
            e as u64 + 1,
            t_ps,
            &optimized_thermal,
            Some(opt_sw.pool_size() as u64),
            Some(opt_hw.enabled_slots() as u64),
            opt_queue_wait.clone(),
        );
        max_dev = max_dev.max(max_temp_dev(&r, &o));
        if let Some(field) = r.first_divergence(&o, temp_tol) {
            let mut d = system_divergence(
                e,
                t_ps,
                field,
                &reference_thermal,
                &optimized_thermal,
                scenario,
                &flight,
            );
            d.reference = r;
            d.optimized = o;
            return Err(Box::new(d));
        }
        epochs.push(r);
    }

    Ok(SystemReport {
        epochs,
        warnings_delivered,
        max_temp_dev_c: max_dev,
        pairs,
    })
}

/// [`lockstep_system_on`] with the shipped optimized thermal solver.
pub fn lockstep_system(
    seed: u64,
    scale: Scale,
    temp_tol: Tolerance,
) -> Result<SystemReport, Box<Divergence>> {
    let scenario = ThermalScenario::generate(seed, scale);
    let optimized = match scale {
        Scale::Quick => HmcThermalModel::hmc11(Cooling::CommodityServer),
        Scale::Full => HmcThermalModel::hmc20(Cooling::CommodityServer),
    };
    lockstep_system_on(&scenario, temp_tol, optimized)
}

fn system_divergence<A: ThermalSolve, B: ThermalSolve>(
    e: usize,
    t_ps: u64,
    field: FieldDivergence,
    reference: &HmcThermalModel<A>,
    optimized: &HmcThermalModel<B>,
    scenario: &ThermalScenario,
    flight: &FlightRecorder,
) -> Divergence {
    let lo = e.saturating_sub(2);
    let context = scenario.samples[lo..=e.min(scenario.samples.len() - 1)]
        .iter()
        .enumerate()
        .map(|(k, s)| describe_sample(lo + k, s))
        .collect();
    let postmortem = if flight.is_empty() {
        None
    } else {
        Some(
            PostmortemBundle::from_recorder(
                "lockstep_divergence",
                t_ps,
                None,
                0.0,
                EPOCH_PS,
                flight,
            )
            .encode(),
        )
    };
    Divergence {
        epoch: e as u64 + 1,
        t_ps,
        field,
        reference: thermal_snapshot(e as u64 + 1, t_ps, reference, None, None, Vec::new()),
        optimized: thermal_snapshot(e as u64 + 1, t_ps, optimized, None, None, Vec::new()),
        context,
        postmortem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate_controller_script, generate_vault_script};
    use coolpim_core::multi_level::GraduatedHwDynT;

    #[test]
    fn shipped_thermal_solvers_agree_on_generated_traffic() {
        let scenario = ThermalScenario::generate(11, Scale::Quick);
        let reference =
            HmcThermalModel::hmc11(Cooling::CommodityServer).with_solver(ReferenceTransient::new);
        let optimized = HmcThermalModel::hmc11(Cooling::CommodityServer);
        let run = lockstep_thermal(reference, optimized, &scenario, Tolerance::abs(0.25));
        let epochs = run.unwrap_or_else(|d| panic!("unexpected divergence: {d}"));
        assert_eq!(epochs.len(), Scale::Quick.epochs());
    }

    #[test]
    fn shipped_controllers_agree_on_generated_scripts() {
        let hw = HardwareProfile::paper();
        let kernel = KernelProfile {
            pim_intensity: 0.3,
            divergence_ratio: 0.2,
        };
        for seed in [3, 17, 99] {
            let script = generate_controller_script(seed, 400);
            let mut reference = ReferenceSwDynT::new(SwDynTConfig::default(), &hw, &kernel);
            let mut optimized = SwDynT::new(SwDynTConfig::default(), &hw, &kernel);
            let n = lockstep_controller(&mut reference, &mut optimized, &script)
                .unwrap_or_else(|d| panic!("sw seed {seed}: {}", d.detail));
            assert_eq!(n, script.len());

            let mut reference = ReferenceHwDynT::new(HwDynTConfig::default());
            let mut optimized = HwDynT::new(HwDynTConfig::default());
            lockstep_controller(&mut reference, &mut optimized, &script)
                .unwrap_or_else(|d| panic!("hw seed {seed}: {}", d.detail));
        }
    }

    #[test]
    fn controller_lockstep_catches_a_behaviourally_different_controller() {
        // GraduatedHwDynT reacts to warnings differently from the
        // uniform reference — the oracle must notice, not mask it.
        let script = generate_controller_script(5, 400);
        let mut reference = ReferenceHwDynT::new(HwDynTConfig::default());
        let mut other = GraduatedHwDynT::new(HwDynTConfig::default());
        let err = lockstep_controller(&mut reference, &mut other, &script)
            .expect_err("distinct policies must diverge");
        assert!(err.op_index < script.len());
    }

    #[test]
    fn shipped_vaults_agree_on_generated_scripts() {
        for seed in [1, 8, 1234] {
            let script = generate_vault_script(seed, 600, 4);
            let mut reference: Vec<ReferenceVault> = (0..4)
                .map(|_| ReferenceVault::new(16, 500, 2_000, 10.0e9))
                .collect();
            let mut optimized: Vec<Vault> =
                (0..4).map(|_| Vault::new(16, 500, 2_000, 10.0e9)).collect();
            let n = lockstep_vault(&mut reference, &mut optimized, &script)
                .unwrap_or_else(|d| panic!("seed {seed}: {}", d.detail));
            assert_eq!(n, script.len());
        }
    }

    #[test]
    fn full_system_lockstep_passes_on_the_shipped_implementations() {
        let report = lockstep_system(7, Scale::Quick, Tolerance::abs(0.25))
            .unwrap_or_else(|d| panic!("unexpected divergence: {d}"));
        assert_eq!(report.epochs.len(), Scale::Quick.epochs());
        assert!(report.max_temp_dev_c <= 0.25);
        assert_eq!(report.pairs.len(), 4);
        // The control seams actually exercised their state.
        assert!(report.epochs.iter().all(|s| s.pool_tokens.is_some()));
    }
}
