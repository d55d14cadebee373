//! HW-DynT: hardware-based dynamic throttling (§IV-C).
//!
//! Every SM carries a PIM Control Unit (PCU) that caps how many of its
//! resident warp slots may offload atomics; PIM instructions in disabled
//! warps are decode-translated to the corresponding CUDA atomics
//! (Table III) and take the host path. The PCU reacts to thermal
//! warnings within T_throttle ≈ 0.1 µs, but *delays further control
//! updates* until the cube temperature has settled (≈T_thermal), which
//! prevents over-reduction during the thermal lag (§IV-C "Delayed
//! Control Updates"). No initialisation analysis is needed: the fast
//! loop starts from fully enabled.

use coolpim_gpu::controller::OffloadController;
use coolpim_hmc::{ns_to_ps, Ps};
use coolpim_telemetry::TelemetryEvent;

/// Tunables of the hardware throttler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwDynTConfig {
    /// Warp slots per block (the PCU quota granularity here: one slot
    /// disables one warp in every resident block of the SM).
    pub warps_per_block: usize,
    /// Control factor in warp slots removed per update.
    pub control_factor_slots: usize,
    /// Hardware source-throttling delay T_throttle (ps), ≈0.1 µs.
    pub t_throttle: Ps,
    /// Delayed-update window ≈ T_thermal (ps): further PCU updates are
    /// suppressed until the temperature reflects the previous one.
    pub t_settle: Ps,
    /// Number of SMs.
    pub sms: usize,
}

impl Default for HwDynTConfig {
    fn default() -> Self {
        Self {
            warps_per_block: 8,
            control_factor_slots: 2,
            t_throttle: ns_to_ps(100.0),     // 0.1 µs
            t_settle: ns_to_ps(1_200_000.0), // 1.2 ms
            sms: 16,
        }
    }
}

/// The HW-DynT offloading controller (all PCUs).
#[derive(Debug)]
pub struct HwDynT {
    cfg: HwDynTConfig,
    /// Enabled warp slots per SM (uniform across SMs, as the thermal
    /// feedback is cube-global).
    enabled_slots: Vec<usize>,
    pending_update_at: Option<Ps>,
    /// Warning episode the scheduled update responds to — stamped onto
    /// the resulting warp-cap event for causal correlation.
    pending_warning_id: Option<u64>,
    quiet_until: Ps,
    updates: u64,
    last_warning_at: Ps,
    /// Buffered control-action telemetry, drained by the co-sim driver.
    events: Vec<TelemetryEvent>,
}

/// A pending update is dropped if no warning arrived within this window
/// before it fires — the temperature recovered on its own, so reducing
/// further would over-throttle (stale-interrupt cancellation).
const STALE_WARNING_WINDOW: Ps = 300_000_000; // 300 µs

impl HwDynT {
    /// Builds the controller with every warp PIM-enabled.
    pub fn new(cfg: HwDynTConfig) -> Self {
        Self {
            enabled_slots: vec![cfg.warps_per_block; cfg.sms],
            cfg,
            pending_update_at: None,
            pending_warning_id: None,
            quiet_until: 0,
            updates: 0,
            last_warning_at: 0,
            events: Vec::new(),
        }
    }

    /// Enabled warp slots on SM 0 (uniform across SMs).
    pub fn enabled_slots(&self) -> usize {
        self.enabled_slots[0]
    }

    /// PCU updates applied.
    pub fn update_steps(&self) -> u64 {
        self.updates
    }

    fn apply_pending(&mut self, now: Ps) {
        if let Some(at) = self.pending_update_at {
            if now >= at {
                if at.saturating_sub(self.last_warning_at) > STALE_WARNING_WINDOW {
                    // Temperature recovered before the update fired.
                    self.pending_update_at = None;
                    self.pending_warning_id = None;
                    self.quiet_until = at;
                    return;
                }
                // Stagger the reduction round-robin across SMs so the
                // effective global granularity is finer than one slot ×
                // all SMs at once.
                let cf = self.cfg.control_factor_slots;
                let old_slots = self.enabled_slots[0] as u64;
                // Reduce the currently-highest SMs first.
                for _ in 0..(cf * self.cfg.sms) {
                    if let Some(slot) = self.enabled_slots.iter_mut().max_by_key(|s| **s) {
                        *slot = slot.saturating_sub(1);
                    }
                }
                self.updates += 1;
                self.pending_update_at = None;
                self.quiet_until = at + self.cfg.t_settle;
                self.events.push(TelemetryEvent::WarpCapUpdate {
                    t_ps: now,
                    old_slots,
                    new_slots: self.enabled_slots[0] as u64,
                    warning_id: self.pending_warning_id.take(),
                });
            }
        }
    }
}

impl OffloadController for HwDynT {
    fn name(&self) -> &'static str {
        "hw-dynt"
    }

    fn on_block_launch(&mut self, _block_id: usize, now: Ps) -> bool {
        self.apply_pending(now);
        // HW-DynT always launches the PIM body; per-warp translation
        // happens at decode via `warp_may_offload`.
        true
    }

    fn warp_may_offload(&mut self, sm: usize, warp_slot: usize, now: Ps) -> bool {
        self.apply_pending(now);
        warp_slot < self.enabled_slots[sm % self.enabled_slots.len()]
    }

    fn on_thermal_warning(&mut self, now: Ps, warning_id: u64) {
        self.last_warning_at = self.last_warning_at.max(now);
        if now >= self.quiet_until && self.pending_update_at.is_none() {
            self.pending_update_at = Some(now + self.cfg.t_throttle);
            self.pending_warning_id = Some(warning_id);
            self.quiet_until = now + self.cfg.t_throttle + self.cfg.t_settle;
            self.events.push(TelemetryEvent::ThermalWarningDelivered {
                t_ps: now,
                warning_id,
            });
        }
    }

    fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_enabled() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        assert!(c.warp_may_offload(3, 7, 0));
        assert_eq!(c.enabled_slots(), 8);
    }

    #[test]
    fn warning_disables_warps_quickly() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        c.on_thermal_warning(1_000, 1);
        // 0.1 µs later the PCU update lands (CF = 2 slots).
        assert!(!c.warp_may_offload(0, 7, 1_000 + ns_to_ps(100.0) + 1));
        assert!(!c.warp_may_offload(0, 6, 1_000 + ns_to_ps(100.0) + 2));
        assert!(c.warp_may_offload(0, 5, 1_000 + ns_to_ps(100.0) + 3));
        assert_eq!(c.update_steps(), 1);
    }

    #[test]
    fn delayed_updates_suppress_warning_floods() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        for t in 0..1000 {
            c.on_thermal_warning(t * 10_000, 1); // 10 ns apart
        }
        c.warp_may_offload(0, 0, ns_to_ps(500_000.0)); // 0.5 ms later
        assert_eq!(c.update_steps(), 1, "updates must wait out T_thermal");
    }

    #[test]
    fn updates_resume_after_settle() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        let settle = HwDynTConfig::default().t_settle;
        c.on_thermal_warning(0, 1);
        c.warp_may_offload(0, 0, settle);
        assert_eq!(c.update_steps(), 1);
        c.on_thermal_warning(settle + ns_to_ps(200.0), 2);
        c.warp_may_offload(0, 0, settle + ns_to_ps(200.0) + ns_to_ps(150.0));
        assert_eq!(c.update_steps(), 2);
        assert_eq!(c.enabled_slots(), 8 - 2 * 2);
    }

    #[test]
    fn reduction_is_monotone_and_bounded() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        let settle = HwDynTConfig::default().t_settle;
        let mut t = 0;
        for _ in 0..10 {
            c.on_thermal_warning(t, 1);
            // Apply just after T_throttle so the warning is fresh.
            c.warp_may_offload(0, 0, t + ns_to_ps(200.0));
            t += settle + ns_to_ps(1000.0);
        }
        assert_eq!(c.enabled_slots(), 0);
        assert!(!c.warp_may_offload(5, 0, t + 1));
    }

    #[test]
    fn control_events_mirror_pcu_updates() {
        let mut c = HwDynT::new(HwDynTConfig::default());
        let settle = HwDynTConfig::default().t_settle;
        c.on_thermal_warning(0, 1);
        c.warp_may_offload(0, 0, settle);
        c.on_thermal_warning(settle + ns_to_ps(200.0), 2);
        c.warp_may_offload(0, 0, settle + ns_to_ps(400.0));
        assert_eq!(c.update_steps(), 2);

        let mut events = Vec::new();
        c.drain_control_events(&mut events);
        let caps: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                TelemetryEvent::WarpCapUpdate {
                    old_slots,
                    new_slots,
                    warning_id,
                    ..
                } => Some((old_slots, new_slots, warning_id)),
                _ => None,
            })
            .collect();
        assert_eq!(caps, vec![(8, 6, Some(1)), (6, 4, Some(2))]);
        let delivered = events
            .iter()
            .filter(|e| e.kind() == "ThermalWarningDelivered")
            .count();
        assert_eq!(delivered, 2);
        let mut again = Vec::new();
        c.drain_control_events(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn faster_reaction_than_software() {
        // The whole point of HW-DynT: sub-microsecond T_throttle.
        let cfg = HwDynTConfig::default();
        assert!(cfg.t_throttle < ns_to_ps(1_000.0));
    }
}
