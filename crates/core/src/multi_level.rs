//! Extension: graduated (multi-level) thermal warnings.
//!
//! The paper notes (§IV-B, footnote) that HMC 2.0 defines a single
//! thermal error state "but it can trivially define multiple error
//! states as multiple unused error status bits are available". This
//! module implements that extension: the warning severity is derived
//! from how far the peak DRAM temperature sits above the threshold, and
//! a graduated hardware throttler scales its control factor with
//! severity — large steps when badly overheated, fine steps near the
//! boundary. The `repro ablation_warning_levels` artifact quantifies the
//! benefit.

use coolpim_gpu::controller::OffloadController;
use coolpim_hmc::Ps;
use coolpim_telemetry::TelemetryEvent;

use crate::hw_dynt::HwDynTConfig;

/// Warning severity encoded in the (extended) ERRSTAT field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarningLevel {
    /// Below the warning threshold: no flag.
    None,
    /// Up to 2 °C above the threshold (ERRSTAT 0x01).
    Mild,
    /// 2–6 °C above the threshold (ERRSTAT 0x02).
    Elevated,
    /// More than 6 °C above (ERRSTAT 0x03).
    Severe,
}

impl WarningLevel {
    /// Classifies a temperature against a threshold.
    pub fn classify(peak_dram_c: f64, threshold_c: f64) -> Self {
        let over = peak_dram_c - threshold_c;
        if over < 0.0 {
            WarningLevel::None
        } else if over < 2.0 {
            WarningLevel::Mild
        } else if over < 6.0 {
            WarningLevel::Elevated
        } else {
            WarningLevel::Severe
        }
    }

    /// Encoded ERRSTAT value for this level.
    pub fn errstat(self) -> u8 {
        match self {
            WarningLevel::None => 0x00,
            WarningLevel::Mild => 0x01,
            WarningLevel::Elevated => 0x02,
            WarningLevel::Severe => 0x03,
        }
    }

    /// Decodes an (extended) ERRSTAT value.
    pub fn from_errstat(errstat: u8) -> Self {
        match errstat {
            0x00 => WarningLevel::None,
            0x01 => WarningLevel::Mild,
            0x02 => WarningLevel::Elevated,
            _ => WarningLevel::Severe,
        }
    }

    /// Control-factor multiplier a graduated controller applies.
    pub fn cf_multiplier(self) -> usize {
        match self {
            WarningLevel::None => 0,
            WarningLevel::Mild => 1,
            WarningLevel::Elevated => 2,
            WarningLevel::Severe => 3,
        }
    }
}

/// HW-DynT variant that scales its per-update reduction with the
/// observed warning severity. Severity is supplied out-of-band by the
/// co-simulation driver via [`GraduatedHwDynT::observe_level`] (the base
/// cube model only transmits the single-level flag; this extension
/// models the richer encoding).
#[derive(Debug)]
pub struct GraduatedHwDynT {
    cfg: HwDynTConfig,
    enabled_slots: Vec<usize>,
    level: WarningLevel,
    pending_update_at: Option<Ps>,
    /// Warning episode the scheduled update responds to.
    pending_warning_id: Option<u64>,
    quiet_until: Ps,
    updates: u64,
    /// Buffered control-action telemetry, drained by the co-sim driver.
    events: Vec<TelemetryEvent>,
}

impl GraduatedHwDynT {
    /// Fully-enabled controller.
    pub fn new(cfg: HwDynTConfig) -> Self {
        Self {
            enabled_slots: vec![cfg.warps_per_block; cfg.sms],
            cfg,
            level: WarningLevel::None,
            pending_update_at: None,
            pending_warning_id: None,
            quiet_until: 0,
            updates: 0,
            events: Vec::new(),
        }
    }

    /// Supplies the current warning level (from the extended ERRSTAT).
    pub fn observe_level(&mut self, level: WarningLevel) {
        self.level = self.level.max(level);
    }

    /// Enabled warp slots on SM 0.
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
                let cf = self.cfg.control_factor_slots * self.level.cf_multiplier();
                let old_slots = self.enabled_slots[0] as u64;
                for slot in self.enabled_slots.iter_mut() {
                    *slot = slot.saturating_sub(cf);
                }
                self.updates += 1;
                self.pending_update_at = None;
                self.quiet_until = at + self.cfg.t_settle;
                self.level = WarningLevel::None;
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

impl OffloadController for GraduatedHwDynT {
    fn name(&self) -> &'static str {
        "graduated-hw-dynt"
    }

    fn on_block_launch(&mut self, _block_id: usize, now: Ps) -> bool {
        self.apply_pending(now);
        true
    }

    fn warp_may_offload(&mut self, sm: usize, warp_slot: usize, now: Ps) -> bool {
        self.apply_pending(now);
        warp_slot < self.enabled_slots[sm % self.enabled_slots.len()]
    }

    fn on_thermal_warning(&mut self, now: Ps, warning_id: u64) {
        self.level = self.level.max(WarningLevel::Mild);
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

    fn on_thermal_reading(&mut self, peak_dram_c: f64, threshold_c: f64, _now: Ps) {
        self.observe_level(WarningLevel::classify(peak_dram_c, threshold_c));
    }

    fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_hmc::ns_to_ps;

    #[test]
    fn classification_bands() {
        assert_eq!(WarningLevel::classify(80.0, 84.0), WarningLevel::None);
        assert_eq!(WarningLevel::classify(84.5, 84.0), WarningLevel::Mild);
        assert_eq!(WarningLevel::classify(87.0, 84.0), WarningLevel::Elevated);
        assert_eq!(WarningLevel::classify(92.0, 84.0), WarningLevel::Severe);
    }

    #[test]
    fn errstat_round_trips() {
        for l in [
            WarningLevel::None,
            WarningLevel::Mild,
            WarningLevel::Elevated,
            WarningLevel::Severe,
        ] {
            assert_eq!(WarningLevel::from_errstat(l.errstat()), l);
        }
    }

    #[test]
    fn severe_warnings_cut_deeper() {
        let mk = || {
            GraduatedHwDynT::new(HwDynTConfig {
                control_factor_slots: 1,
                ..Default::default()
            })
        };
        let step = ns_to_ps(100.0) + 1;

        let mut mild = mk();
        mild.on_thermal_warning(0, 1);
        mild.warp_may_offload(0, 0, step);
        assert_eq!(mild.enabled_slots(), 7);

        let mut severe = mk();
        severe.on_thermal_warning(0, 1);
        severe.observe_level(WarningLevel::Severe);
        severe.warp_may_offload(0, 0, step);
        assert_eq!(severe.enabled_slots(), 5);
    }

    #[test]
    fn level_resets_after_an_update() {
        let mut c = GraduatedHwDynT::new(HwDynTConfig::default());
        c.on_thermal_warning(0, 1);
        c.observe_level(WarningLevel::Severe);
        let settle = HwDynTConfig::default().t_settle;
        c.warp_may_offload(0, 0, settle);
        let after_first = c.enabled_slots();
        // Next update without fresh observations is milder.
        c.on_thermal_warning(settle + ns_to_ps(200.0), 2);
        c.warp_may_offload(0, 0, 2 * settle + ns_to_ps(400.0));
        assert!(c.enabled_slots() >= after_first.saturating_sub(3));
        assert_eq!(c.update_steps(), 2);
    }

    #[test]
    fn observe_keeps_the_maximum_until_applied() {
        let mut c = GraduatedHwDynT::new(HwDynTConfig::default());
        c.observe_level(WarningLevel::Elevated);
        c.observe_level(WarningLevel::Mild);
        assert_eq!(c.level, WarningLevel::Elevated);
    }
}
