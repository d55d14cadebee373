//! What a co-sim cell must produce: a bit-exact fingerprint of its
//! simulated results, and the checks that decide whether it failed.
//!
//! For a fixed seed every simulated statistic is deterministic, so two
//! runs of the same cell — untraced and traced, or replayed and live —
//! must print the same fingerprint.

use std::fmt;

use coolpim_core::{CoSimResult, Policy};

/// The simulated outputs a cell is compared on. Floats are kept as bit
/// patterns: equal means bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `workload/policy` (plus cooling and threshold in sweeps).
    pub label: String,
    /// `exec_s` bits.
    pub exec_s_bits: u64,
    /// PIM operations the cube executed.
    pub pim_ops: u64,
    /// Cube reads.
    pub reads: u64,
    /// Cube writes.
    pub writes: u64,
    /// `max_peak_dram_c` bits.
    pub peak_c_bits: u64,
    /// Offload fraction bits.
    pub offload_bits: u64,
    /// Throttle steps the controller took.
    pub throttle_steps: u64,
    /// Thermal epochs simulated.
    pub epochs: u64,
}

impl Fingerprint {
    /// Fingerprint of `r`, labelled `label`.
    pub fn of(label: String, r: &CoSimResult) -> Self {
        Self {
            label,
            exec_s_bits: r.exec_s.to_bits(),
            pim_ops: r.hmc.pim_ops,
            reads: r.hmc.reads,
            writes: r.hmc.writes,
            peak_c_bits: r.max_peak_dram_c.to_bits(),
            offload_bits: r.gpu.offload_fraction().to_bits(),
            throttle_steps: r.throttle_steps,
            epochs: r.metrics.counter("epochs"),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exec_s={:016x} ({:.6} ms) pim={} rd={} wr={} peak={:016x} ({:.3} C) offload={:016x} ({:.4}) throttle={} epochs={}",
            self.label,
            self.exec_s_bits,
            f64::from_bits(self.exec_s_bits) * 1e3,
            self.pim_ops,
            self.reads,
            self.writes,
            self.peak_c_bits,
            f64::from_bits(self.peak_c_bits),
            self.offload_bits,
            f64::from_bits(self.offload_bits),
            self.throttle_steps,
            self.epochs,
        )
    }
}

/// Why a finished cell counts as failed, or `Ok` when it did not: it hit
/// the simulated-time cap, produced a non-finite result, or broke an
/// invariant of its policy.
pub fn check(r: &CoSimResult) -> Result<(), String> {
    if r.timed_out {
        return Err("hit the simulated-time cap".into());
    }
    let finite = [
        r.exec_s,
        r.max_peak_dram_c,
        r.gpu.offload_fraction(),
        r.l2_hit_rate,
    ];
    if finite.iter().any(|v| !v.is_finite()) || r.exec_s <= 0.0 {
        return Err(format!(
            "non-finite or empty result (exec_s {}, peak {}, offload {}, l2 {})",
            r.exec_s,
            r.max_peak_dram_c,
            r.gpu.offload_fraction(),
            r.l2_hit_rate
        ));
    }
    if r.gpu.instructions == 0 {
        return Err("no warp instructions executed".into());
    }
    match r.policy {
        Policy::NonOffloading if r.hmc.pim_ops > 0 || r.gpu.pim_lane_ops > 0 => {
            Err("non-offloading run issued PIM operations".into())
        }
        Policy::NaiveOffloading | Policy::IdealThermal if r.gpu.host_lane_ops > 0 => {
            Err("full-offloading run executed atomics on the host".into())
        }
        _ => Ok(()),
    }
}

/// A cell's outcome: its fingerprint when it finished and passed
/// [`check`], otherwise why not (including a caught panic).
pub type Outcome = Result<Fingerprint, String>;

/// Checks `r` and fingerprints it.
pub fn outcome(label: String, r: &CoSimResult) -> Outcome {
    check(r).map_err(|e| format!("{label}: {e}"))?;
    Ok(Fingerprint::of(label, r))
}

/// The message of a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}
