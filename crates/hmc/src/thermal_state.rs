//! Operating-temperature phases, DRAM derating, and the thermal-warning
//! machinery (§III and Table IV).
//!
//! The paper partitions the HMC operating range into three phases —
//! 0–85 °C (normal), 85–95 °C (extended), 95–105 °C (critical) — and
//! assumes a 20 % DRAM frequency reduction each time the cube moves to a
//! higher phase. Above 105 °C the device must shut down. When the
//! temperature reaches the warning threshold the cube sets
//! ERRSTAT\[6:0\] = 0x01 in response-packet tails, which is the feedback
//! signal CoolPIM's source throttling consumes.

use coolpim_telemetry::TelemetryEvent;

use crate::Ps;

/// ERRSTAT value signalling a thermal warning (§II-A).
pub const ERRSTAT_THERMAL_WARNING: u8 = 0x01;

/// Temperature at which the cube starts flagging warnings in response
/// tails (°C). Set just below the 85 °C normal-range boundary so a
/// well-behaved controller can hold the cube inside the normal range.
pub const DEFAULT_WARNING_THRESHOLD_C: f64 = 84.0;

/// The operating phase of the DRAM stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TempPhase {
    /// 0–85 °C: full speed.
    Normal,
    /// 85–95 °C: JEDEC extended range; 20 % DRAM frequency reduction and
    /// doubled refresh.
    Extended,
    /// 95–105 °C: a further 20 % frequency reduction.
    Critical,
    /// >105 °C: the cube stops serving requests.
    Shutdown,
}

impl TempPhase {
    /// Classifies a peak-DRAM temperature.
    pub fn from_temp(peak_dram_c: f64) -> Self {
        if peak_dram_c > 105.0 {
            TempPhase::Shutdown
        } else if peak_dram_c > 95.0 {
            TempPhase::Critical
        } else if peak_dram_c > 85.0 {
            TempPhase::Extended
        } else {
            TempPhase::Normal
        }
    }

    /// DRAM timing stretch factor as a rational `(num, den)`:
    /// each phase above normal multiplies timings by 1/0.8 = 5/4.
    pub fn timing_stretch(self) -> (u64, u64) {
        match self {
            TempPhase::Normal => (1, 1),
            TempPhase::Extended => (5, 4),
            TempPhase::Critical => (25, 16),
            // Shutdown handled separately; timings are moot.
            TempPhase::Shutdown => (25, 16),
        }
    }

    /// Fraction of bank time lost to refresh: tRFC/tREFI ≈ 3.3 % in the
    /// normal range; the extended range doubles the refresh rate (JEDEC),
    /// and we keep the doubled rate in the critical phase.
    pub fn refresh_overhead(self) -> f64 {
        match self {
            TempPhase::Normal => 0.033,
            TempPhase::Extended | TempPhase::Critical | TempPhase::Shutdown => 0.066,
        }
    }

    /// Whether the cube is operational.
    pub fn operational(self) -> bool {
        self != TempPhase::Shutdown
    }

    /// Stable phase name for telemetry payloads and reports.
    pub fn name(self) -> &'static str {
        match self {
            TempPhase::Normal => "Normal",
            TempPhase::Extended => "Extended",
            TempPhase::Critical => "Critical",
            TempPhase::Shutdown => "Shutdown",
        }
    }
}

/// Live thermal status held by the cube and updated by the co-simulator.
#[derive(Debug, Clone, Copy)]
pub struct ThermalStatus {
    /// Latest peak DRAM temperature pushed by the thermal model (°C).
    pub peak_dram_c: f64,
    /// Warning threshold (°C).
    pub warning_threshold_c: f64,
}

impl Default for ThermalStatus {
    fn default() -> Self {
        Self {
            peak_dram_c: 25.0,
            warning_threshold_c: DEFAULT_WARNING_THRESHOLD_C,
        }
    }
}

impl ThermalStatus {
    /// Current operating phase.
    pub fn phase(&self) -> TempPhase {
        TempPhase::from_temp(self.peak_dram_c)
    }

    /// Whether response packets currently carry the thermal-warning
    /// ERRSTAT.
    pub fn warning_active(&self) -> bool {
        self.peak_dram_c >= self.warning_threshold_c
    }

    /// The ERRSTAT field value for a response issued now.
    pub fn errstat(&self) -> u8 {
        if self.warning_active() {
            ERRSTAT_THERMAL_WARNING
        } else {
            0
        }
    }
}

/// The cube's warning and phase episodes: the latest peak temperature,
/// the ERRSTAT warning bit, the 1-based warning-episode ids, and the
/// events each temperature update raises (warning raised or cleared,
/// phase transition, frequency derate, shutdown).
///
/// [`crate::Hmc`] embeds one and reads its phase and warning bit; that
/// pair is all the timing model ever reads of the temperature. A run that
/// reuses another run's engine steps a tracker of its own, so it raises
/// its own events with its own peak temperatures.
#[derive(Debug, Clone, Default)]
pub struct ThermalTracker {
    status: ThermalStatus,
    /// Warnings raised so far (the last id handed out).
    warnings_raised: u64,
    /// Id of the warning episode in progress, if any.
    active_warning_id: Option<u64>,
    /// Events since the last drain.
    events: Vec<TelemetryEvent>,
}

impl ThermalTracker {
    /// A tracker at the default 25 °C with warnings at `threshold_c`.
    pub fn new(threshold_c: f64) -> Self {
        let mut t = Self::default();
        t.set_warning_threshold(threshold_c);
        t
    }

    /// Overrides the warning threshold (°C).
    pub fn set_warning_threshold(&mut self, threshold_c: f64) {
        self.status.warning_threshold_c = threshold_c;
    }

    /// Current operating phase.
    pub fn phase(&self) -> TempPhase {
        self.status.phase()
    }

    /// Whether responses currently carry the thermal warning.
    pub fn warning_active(&self) -> bool {
        self.status.warning_active()
    }

    /// The ERRSTAT field value for a response issued now.
    pub fn errstat(&self) -> u8 {
        self.status.errstat()
    }

    /// What the timing model reads of the temperature: the phase and
    /// the warning bit.
    pub fn feedback(&self) -> (TempPhase, bool) {
        (self.phase(), self.warning_active())
    }

    /// Id of the warning episode in progress, if any.
    pub fn active_warning_id(&self) -> Option<u64> {
        self.active_warning_id
    }

    /// Records a new peak-DRAM temperature at simulation time `now`,
    /// buffering the events it raises.
    pub fn update(&mut self, peak_dram_c: f64, now: Ps) {
        let was_warning = self.status.warning_active();
        let old_phase = self.status.phase();
        self.status.peak_dram_c = peak_dram_c;
        if !was_warning && self.status.warning_active() {
            // A new warning episode begins: assign the next causal id.
            self.warnings_raised += 1;
            self.active_warning_id = Some(self.warnings_raised);
            self.events.push(TelemetryEvent::ThermalWarningRaised {
                t_ps: now,
                peak_dram_c,
                warning_id: self.warnings_raised,
            });
        } else if was_warning && !self.status.warning_active() {
            if let Some(id) = self.active_warning_id.take() {
                self.events.push(TelemetryEvent::ThermalWarningCleared {
                    t_ps: now,
                    peak_dram_c,
                    warning_id: id,
                });
            }
        }
        let phase = self.status.phase();
        if phase != old_phase {
            self.events.push(TelemetryEvent::PhaseTransition {
                t_ps: now,
                from: old_phase.name(),
                to: phase.name(),
            });
            let (stretch_num, stretch_den) = phase.timing_stretch();
            self.events.push(TelemetryEvent::FrequencyDerate {
                t_ps: now,
                stretch_num,
                stretch_den,
                warning_id: self.active_warning_id,
            });
            if phase == TempPhase::Shutdown {
                self.events.push(TelemetryEvent::Shutdown {
                    t_ps: now,
                    peak_dram_c,
                });
            }
        }
    }

    /// Events buffered since the last drain.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Moves the buffered events into `out`.
    pub fn drain_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_boundaries() {
        assert_eq!(TempPhase::from_temp(25.0), TempPhase::Normal);
        assert_eq!(TempPhase::from_temp(85.0), TempPhase::Normal);
        assert_eq!(TempPhase::from_temp(85.1), TempPhase::Extended);
        assert_eq!(TempPhase::from_temp(95.1), TempPhase::Critical);
        assert_eq!(TempPhase::from_temp(105.1), TempPhase::Shutdown);
    }

    #[test]
    fn each_phase_stretches_by_25_percent() {
        let (n1, d1) = TempPhase::Extended.timing_stretch();
        assert_eq!(n1 * 4, d1 * 5); // 5/4
        let (n2, d2) = TempPhase::Critical.timing_stretch();
        assert_eq!(n2 * 16, d2 * 25); // 25/16
    }

    #[test]
    fn warning_fires_at_threshold() {
        let mut s = ThermalStatus::default();
        assert!(!s.warning_active());
        assert_eq!(s.errstat(), 0);
        s.peak_dram_c = 84.5;
        assert!(s.warning_active());
        assert_eq!(s.errstat(), ERRSTAT_THERMAL_WARNING);
    }

    #[test]
    fn a_tracker_raises_the_events_of_the_cube_it_mirrors() {
        // The cube embeds a tracker: one stepped on its own through the
        // same readings raises the same events, ids and peaks included.
        let mut hmc = crate::Hmc::hmc20();
        hmc.set_warning_threshold(80.0);
        let mut tracker = ThermalTracker::new(80.0);
        for (i, c) in [70.0, 81.0, 86.0, 79.0, 96.0, 84.0, 106.0]
            .into_iter()
            .enumerate()
        {
            let now = 1_000 * (i as Ps + 1);
            hmc.set_peak_dram_temp_at(c, now);
            tracker.update(c, now);
            assert_eq!(tracker.feedback(), (hmc.phase(), hmc.warning_active()));
            assert_eq!(tracker.feedback(), hmc.thermal().feedback());
            assert_eq!(tracker.active_warning_id(), hmc.active_warning_id());
        }
        let (mut cube_events, mut own) = (Vec::new(), Vec::new());
        hmc.drain_events(&mut cube_events);
        tracker.drain_events(&mut own);
        assert_eq!(own, cube_events);
        assert_eq!(tracker.pending_events(), 0);
    }

    #[test]
    fn refresh_doubles_in_extended_range() {
        assert!(
            (TempPhase::Extended.refresh_overhead() / TempPhase::Normal.refresh_overhead() - 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn shutdown_is_not_operational() {
        assert!(TempPhase::Normal.operational());
        assert!(TempPhase::Critical.operational());
        assert!(!TempPhase::Shutdown.operational());
    }

    #[test]
    fn phases_are_ordered() {
        assert!(TempPhase::Normal < TempPhase::Extended);
        assert!(TempPhase::Extended < TempPhase::Critical);
        assert!(TempPhase::Critical < TempPhase::Shutdown);
    }
}
