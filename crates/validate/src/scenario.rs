//! Property-generated lockstep inputs and shrinking.
//!
//! The in-tree proptest replacement: a [`SplitMix64`]-seeded generator
//! produces traffic scenarios (segment-structured, like real co-sim
//! traces: idle stretches, ramps, jittered holds, spikes, vault-skewed
//! phases), controller scripts (timed launch/complete/warp-query/warning
//! sequences), and vault access scripts. Everything derives from the
//! seed, so a failing case is reproducible from one integer.
//!
//! Shrinking is greedy delta debugging over the epoch list: candidate
//! reductions drop chunks (halves, then quarters, then single epochs off
//! the front) and a reduction is adopted whenever the property still
//! fails, terminating at a locally-minimal diverging input.

use coolpim_graph::rng::SplitMix64;
use coolpim_hmc::timing::DramTiming;
use coolpim_hmc::vault::VaultAccess;
use coolpim_hmc::Ps;
use coolpim_thermal::power::TrafficSample;

/// Scenario size: how big a cube and how many epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// HMC 1.1 cube (16 vaults), 40 epochs — CI-friendly.
    Quick,
    /// HMC 2.0 cube (32 vaults), 160 epochs.
    Full,
}

impl Scale {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Epochs generated at this scale.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 40,
            Scale::Full => 160,
        }
    }

    /// Vaults in the cube at this scale.
    pub fn vaults(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Full => 32,
        }
    }
}

/// One generated thermal-lockstep scenario.
#[derive(Debug, Clone)]
pub struct ThermalScenario {
    /// The generating seed (for reports).
    pub seed: u64,
    /// Scenario size.
    pub scale: Scale,
    /// Epoch length in seconds (the co-sim default, 100 µs).
    pub epoch_s: f64,
    /// Per-epoch traffic.
    pub samples: Vec<TrafficSample>,
}

/// Peak external bandwidth generated (bytes/s) — slightly above the
/// HMC 2.0 link maximum so the hot tail of the space is covered.
const MAX_EXT_BYTES_PER_S: f64 = 340.0e9;
/// Peak PIM rate generated (op/ns).
const MAX_PIM_OP_NS: f64 = 3.0;

impl ThermalScenario {
    /// Generates the scenario for `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let epochs = scale.epochs();
        let epoch_s = 1e-4;
        let mut samples = Vec::with_capacity(epochs);
        let mut ext = 0.0;
        let mut pim = 0.0;
        while samples.len() < epochs {
            let remaining = epochs - samples.len();
            let seg_len = 1 + rng.gen_range_u64(8.min(remaining as u64)) as usize;
            match rng.gen_range_u64(5) {
                // Idle stretch.
                0 => {
                    for _ in 0..seg_len {
                        samples.push(TrafficSample::idle(epoch_s));
                    }
                }
                // Jittered hold around a fresh operating point.
                1 => {
                    ext = rng.gen_f64() * MAX_EXT_BYTES_PER_S;
                    pim = rng.gen_f64() * MAX_PIM_OP_NS;
                    for _ in 0..seg_len {
                        let j = 0.9 + 0.2 * rng.gen_f64();
                        samples.push(TrafficSample::with_pim(ext * j, pim * j, epoch_s));
                    }
                }
                // Linear ramp from the current point to a new one.
                2 => {
                    let (e0, p0) = (ext, pim);
                    ext = rng.gen_f64() * MAX_EXT_BYTES_PER_S;
                    pim = rng.gen_f64() * MAX_PIM_OP_NS;
                    for k in 0..seg_len {
                        let f = (k + 1) as f64 / seg_len as f64;
                        samples.push(TrafficSample::with_pim(
                            e0 + (ext - e0) * f,
                            p0 + (pim - p0) * f,
                            epoch_s,
                        ));
                    }
                }
                // One-epoch spike, then back.
                3 => {
                    samples.push(TrafficSample::with_pim(
                        MAX_EXT_BYTES_PER_S,
                        MAX_PIM_OP_NS,
                        epoch_s,
                    ));
                    for _ in 1..seg_len {
                        samples.push(TrafficSample::with_pim(ext, pim, epoch_s));
                    }
                }
                // Vault-skewed hold: concentrate activity on a few vaults.
                _ => {
                    ext = rng.gen_f64() * MAX_EXT_BYTES_PER_S;
                    pim = rng.gen_f64() * MAX_PIM_OP_NS;
                    let vaults = scale.vaults();
                    let mut weights = vec![1.0; vaults];
                    let hot = 1 + rng.gen_range_u64(4) as usize;
                    for _ in 0..hot {
                        let v = rng.gen_range_u64(vaults as u64) as usize;
                        weights[v] = 4.0 + 4.0 * rng.gen_f64();
                    }
                    for _ in 0..seg_len {
                        samples.push(TrafficSample {
                            vault_weights: Some(weights.clone()),
                            ..TrafficSample::with_pim(ext, pim, epoch_s)
                        });
                    }
                }
            }
        }
        samples.truncate(epochs);
        Self {
            seed,
            scale,
            epoch_s,
            samples,
        }
    }

    /// A copy of this scenario restricted to `samples` (used while
    /// shrinking — seed/scale metadata kept for the report).
    pub fn with_samples(&self, samples: Vec<TrafficSample>) -> Self {
        Self {
            samples,
            ..self.clone()
        }
    }
}

/// Greedy delta debugging: repeatedly tries dropping chunks of the input
/// (halves, quarters, …, single elements) and keeps any reduction for
/// which `still_fails` returns true, until no candidate helps. Returns a
/// locally-minimal failing input. `still_fails(&full input)` is assumed
/// true by the caller.
pub fn shrink<T: Clone>(input: &[T], mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = input.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && current.len() > 1 {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                reduced = true;
                // Retry the same window position on the shrunk input.
            } else {
                start += chunk;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

/// One step of a generated controller script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOp {
    /// `on_block_launch(block, t)`.
    BlockLaunch {
        /// Block id.
        block: usize,
        /// Call time (ps).
        t: Ps,
    },
    /// `on_block_complete(block, was_pim, t)`.
    BlockComplete {
        /// Block id.
        block: usize,
        /// Whether the block held a token.
        was_pim: bool,
        /// Call time (ps).
        t: Ps,
    },
    /// `warp_may_offload(sm, slot, t)`.
    WarpQuery {
        /// SM index.
        sm: usize,
        /// Warp residency slot.
        slot: usize,
        /// Call time (ps).
        t: Ps,
    },
    /// `on_thermal_warning(t, id)`.
    Warning {
        /// Warning episode id.
        id: u64,
        /// Call time (ps).
        t: Ps,
    },
    /// `on_thermal_reading(peak, threshold, t)`.
    Reading {
        /// Peak DRAM temperature (milli-°C, integer so the op is `Eq`).
        peak_mc: u64,
        /// Call time (ps).
        t: Ps,
    },
}

impl CtrlOp {
    /// The call time of this op.
    pub fn time(&self) -> Ps {
        match *self {
            CtrlOp::BlockLaunch { t, .. }
            | CtrlOp::BlockComplete { t, .. }
            | CtrlOp::WarpQuery { t, .. }
            | CtrlOp::Warning { t, .. }
            | CtrlOp::Reading { t, .. } => t,
        }
    }
}

/// Generates a time-monotone controller script of `len` ops. Deltas span
/// 0.1 µs to 200 µs, so a script crosses both controllers' T_throttle and
/// T_settle windows many times; warnings reuse a slowly-increasing id so
/// debounce and stale-cancellation paths are both exercised.
pub fn generate_controller_script(seed: u64, len: usize) -> Vec<CtrlOp> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC0DE_C791_0C75_0001);
    let mut t: Ps = 0;
    let mut warning_id = 0u64;
    let mut live_blocks: Vec<(usize, bool)> = Vec::new();
    let mut next_block = 0usize;
    let mut script = Vec::with_capacity(len);
    for _ in 0..len {
        t += 100_000 + rng.gen_range_u64(200_000_000); // 0.1 µs … 200 µs
        match rng.gen_range_u64(10) {
            0..=2 => {
                script.push(CtrlOp::BlockLaunch {
                    block: next_block,
                    t,
                });
                // Whether the launch got a token is decided by the
                // controller; the matching complete's `was_pim` is filled
                // by the lockstep driver from the *reference* decision.
                live_blocks.push((next_block, false));
                next_block += 1;
            }
            3..=4 if !live_blocks.is_empty() => {
                let i = rng.gen_range_u64(live_blocks.len() as u64) as usize;
                let (block, _) = live_blocks.swap_remove(i);
                script.push(CtrlOp::BlockComplete {
                    block,
                    was_pim: false,
                    t,
                });
            }
            5..=7 => {
                script.push(CtrlOp::WarpQuery {
                    sm: rng.gen_range_u64(16) as usize,
                    slot: rng.gen_range_u64(8) as usize,
                    t,
                });
            }
            8 => {
                if rng.gen_range_u64(3) == 0 {
                    warning_id += 1;
                }
                script.push(CtrlOp::Warning { id: warning_id, t });
            }
            _ => {
                script.push(CtrlOp::Reading {
                    peak_mc: 70_000 + rng.gen_range_u64(30_000),
                    t,
                });
            }
        }
    }
    script
}

/// One step of a generated vault access script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultOp {
    /// Arrival time (ps), monotone across the script.
    pub arrive: Ps,
    /// Target vault.
    pub vault: usize,
    /// Target bank within the vault.
    pub bank: usize,
    /// Byte address (64-byte aligned).
    pub addr: u64,
    /// Access kind.
    pub access: VaultAccess,
    /// DRAM timing derated by `freq_stretch`, as the cube passes it.
    pub timing: DramTiming,
    /// Refresh overhead (per-mille).
    pub refresh_permille: u64,
    /// Frequency derating `(num, den)`.
    pub freq_stretch: (u64, u64),
}

/// The refresh/derate regimes vault scripts draw from, as
/// `(refresh_permille, freq_stretch)`: three synthetic corners plus the
/// cube's real Critical phase (two 20 % frequency steps, doubled refresh).
pub const VAULT_REGIMES: [(u64, (u64, u64)); 4] =
    [(0, (1, 1)), (33, (5, 4)), (66, (2, 1)), (66, (25, 16))];

/// A vault op in regime `regime` (an index into [`VAULT_REGIMES`]), with
/// the timing derated the way `Hmc` derates it for that stretch.
pub fn vault_op(
    regime: usize,
    arrive: Ps,
    vault: usize,
    bank: usize,
    addr: u64,
    access: VaultAccess,
) -> VaultOp {
    let (refresh_permille, freq_stretch) = VAULT_REGIMES[regime];
    let (num, den) = freq_stretch;
    VaultOp {
        arrive,
        vault,
        bank,
        addr,
        access,
        timing: DramTiming::hmc20().scaled_by(num, den),
        refresh_permille,
        freq_stretch,
    }
}

/// Generates a time-monotone vault access script of `len` ops over
/// `vaults` vaults × 16 banks, mixing hot rows (hub hammering) with
/// scattered misses, across the [`VAULT_REGIMES`].
pub fn generate_vault_script(seed: u64, len: usize, vaults: usize) -> Vec<VaultOp> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5641_554C_5453_0001);
    let mut t: Ps = 0;
    let mut script = Vec::with_capacity(len);
    for _ in 0..len {
        t += rng.gen_range_u64(20_000); // bursty: 0 … 20 ns apart
        let hot = rng.gen_range_u64(4) == 0;
        let addr = if hot {
            0x40 * rng.gen_range_u64(4) // hub rows: few hot addresses
        } else {
            0x40 * rng.gen_range_u64(1 << 20)
        };
        let access = match rng.gen_range_u64(10) {
            0..=3 => VaultAccess::Read,
            4..=5 => VaultAccess::Write,
            _ => VaultAccess::PimRmw,
        };
        let regime = rng.gen_range_u64(VAULT_REGIMES.len() as u64) as usize;
        let vault = rng.gen_range_u64(vaults as u64) as usize;
        let bank = rng.gen_range_u64(16) as usize;
        script.push(vault_op(regime, t, vault, bank, addr, access));
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_in_the_seed() {
        let a = ThermalScenario::generate(42, Scale::Quick);
        let b = ThermalScenario::generate(42, Scale::Quick);
        assert_eq!(a.samples.len(), Scale::Quick.epochs());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.ext_bytes, y.ext_bytes);
            assert_eq!(x.pim_ops, y.pim_ops);
            assert_eq!(x.vault_weights, y.vault_weights);
        }
        let c = ThermalScenario::generate(43, Scale::Quick);
        assert!(
            a.samples
                .iter()
                .zip(&c.samples)
                .any(|(x, y)| x.ext_bytes != y.ext_bytes || x.pim_ops != y.pim_ops),
            "different seeds must differ"
        );
    }

    #[test]
    fn generated_traffic_stays_in_bounds() {
        for seed in 0..20 {
            let s = ThermalScenario::generate(seed, Scale::Quick);
            for sample in &s.samples {
                assert!(sample.ext_bytes >= 0.0);
                assert!(sample.ext_bytes_per_s() <= 1.25 * MAX_EXT_BYTES_PER_S);
                assert!(sample.pim_ops >= 0.0);
                assert!(sample.pim_ops_per_ns() <= 1.25 * MAX_PIM_OP_NS);
                if let Some(w) = &sample.vault_weights {
                    assert_eq!(w.len(), Scale::Quick.vaults());
                    assert!(w.iter().all(|x| *x > 0.0));
                }
            }
        }
    }

    #[test]
    fn scripts_are_time_monotone() {
        let ctrl = generate_controller_script(7, 200);
        for w in ctrl.windows(2) {
            assert!(w[0].time() <= w[1].time());
        }
        let vault = generate_vault_script(7, 200, 16);
        for w in vault.windows(2) {
            assert!(w[0].arrive <= w[1].arrive);
        }
        assert!(vault.iter().all(|op| op.vault < 16 && op.bank < 16));
    }

    #[test]
    fn vault_scripts_carry_each_regimes_derated_timing() {
        let script = generate_vault_script(7, 400, 16);
        for (refresh, (num, den)) in VAULT_REGIMES {
            let ops: Vec<_> = script
                .iter()
                .filter(|op| op.refresh_permille == refresh && op.freq_stretch == (num, den))
                .collect();
            assert!(
                !ops.is_empty(),
                "regime ({refresh}, {num}/{den}) never drawn"
            );
            let derated = DramTiming::hmc20().scaled_by(num, den);
            assert!(ops.iter().all(|op| op.timing == derated));
        }
    }

    #[test]
    fn shrink_finds_a_minimal_failing_window() {
        // Property: fails iff the input contains the value 13.
        let input: Vec<u32> = (0..50).collect();
        let shrunk = shrink(&input, |s| s.contains(&13));
        assert_eq!(shrunk, vec![13]);
    }

    #[test]
    fn shrink_with_two_required_elements_keeps_both() {
        let input: Vec<u32> = (0..32).collect();
        let shrunk = shrink(&input, |s| s.contains(&3) && s.contains(&30));
        assert!(shrunk.contains(&3) && shrunk.contains(&30));
        assert!(
            shrunk.len() <= 4,
            "greedy shrink should get close: {shrunk:?}"
        );
    }
}
