//! SW-DynT: software-based dynamic throttling (§IV-B).
//!
//! The GPU runtime's offloading controller: a thermal warning raises an
//! interrupt whose handler (after the software throttling delay,
//! T_throttle ≈ 0.1 ms — interrupt forwarding plus waiting out ongoing
//! thread blocks) shrinks the PIM token pool by the control factor. The
//! pool is initialised from Eq. 1's static analysis. After each shrink
//! the controller waits out the thermal response time before honouring
//! further warnings (the temperature needs T_thermal ≈ 1 ms to reflect
//! the new offloading intensity).

use coolpim_gpu::controller::OffloadController;
use coolpim_gpu::kernel::KernelProfile;
use coolpim_hmc::{ns_to_ps, Ps};
use coolpim_telemetry::TelemetryEvent;

use crate::estimate::{initial_ptp_size, HardwareProfile};
use crate::token_pool::TokenPool;

/// Tunables of the software throttler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwDynTConfig {
    /// Control factor: blocks removed from the pool per warning (§IV-B).
    pub control_factor: usize,
    /// Initialisation margin in blocks (the paper uses 4).
    pub margin: usize,
    /// Target PIM rate for Eq. 1 (op/ns) — ≈1.3 under commodity cooling.
    pub target_rate_op_ns: f64,
    /// Software source-throttling delay T_throttle (ps), ≈0.1 ms (Fig. 8).
    pub t_throttle: Ps,
    /// Post-shrink settle time ≈ T_thermal (ps) before the next shrink.
    pub t_settle: Ps,
}

impl Default for SwDynTConfig {
    fn default() -> Self {
        Self {
            control_factor: 4,
            margin: 4,
            target_rate_op_ns: 1.3,
            t_throttle: ns_to_ps(100_000.0), // 0.1 ms
            t_settle: ns_to_ps(1_000_000.0), // 1 ms
        }
    }
}

/// The SW-DynT offloading controller.
#[derive(Debug)]
pub struct SwDynT {
    cfg: SwDynTConfig,
    pool: TokenPool,
    /// Scheduled shrink (interrupt handler completion time).
    pending_shrink_at: Option<Ps>,
    /// Warning episode the scheduled shrink responds to — stamped onto
    /// the resulting resize event for causal correlation.
    pending_warning_id: Option<u64>,
    /// No new shrink may be *scheduled* before this time.
    quiet_until: Ps,
    /// Shrink steps taken (diagnostics).
    shrinks: u64,
    /// Latest thermal warning observed.
    last_warning_at: Ps,
    /// Buffered control-action telemetry, drained by the co-sim driver.
    events: Vec<TelemetryEvent>,
}

/// A pending shrink is dropped if no warning arrived within this window
/// before the handler runs — the temperature recovered on its own
/// (stale-interrupt cancellation).
const STALE_WARNING_WINDOW: Ps = 300_000_000; // 300 µs

impl SwDynT {
    /// Builds the controller with the Eq. 1 initial pool size for
    /// `kernel` on `hw`.
    pub fn new(cfg: SwDynTConfig, hw: &HardwareProfile, kernel: &KernelProfile) -> Self {
        let size = initial_ptp_size(hw, kernel, cfg.target_rate_op_ns, cfg.margin);
        Self {
            cfg,
            pool: TokenPool::new(size),
            pending_shrink_at: None,
            pending_warning_id: None,
            quiet_until: 0,
            shrinks: 0,
            last_warning_at: 0,
            events: vec![TelemetryEvent::TokenPoolResize {
                t_ps: 0,
                old: size as u64,
                new: size as u64,
                trigger: "init",
                warning_id: None,
            }],
        }
    }

    /// Current pool size.
    pub fn pool_size(&self) -> usize {
        self.pool.size()
    }

    /// Number of shrink steps applied.
    pub fn shrink_steps(&self) -> u64 {
        self.shrinks
    }

    fn apply_pending(&mut self, now: Ps) {
        if let Some(at) = self.pending_shrink_at {
            if now >= at {
                if at.saturating_sub(self.last_warning_at) > STALE_WARNING_WINDOW {
                    // Temperature recovered before the handler ran.
                    self.pending_shrink_at = None;
                    self.quiet_until = at;
                    let size = self.pool.size() as u64;
                    self.events.push(TelemetryEvent::TokenPoolResize {
                        t_ps: now,
                        old: size,
                        new: size,
                        trigger: "stale_cancelled",
                        warning_id: self.pending_warning_id.take(),
                    });
                    return;
                }
                let old = self.pool.size() as u64;
                self.pool.shrink(self.cfg.control_factor);
                self.shrinks += 1;
                self.pending_shrink_at = None;
                self.quiet_until = at + self.cfg.t_settle;
                self.events.push(TelemetryEvent::TokenPoolResize {
                    t_ps: now,
                    old,
                    new: self.pool.size() as u64,
                    trigger: "thermal_warning",
                    warning_id: self.pending_warning_id.take(),
                });
            }
        }
    }
}

impl OffloadController for SwDynT {
    fn name(&self) -> &'static str {
        "sw-dynt"
    }

    fn on_block_launch(&mut self, _block_id: usize, now: Ps) -> bool {
        self.apply_pending(now);
        self.pool.try_acquire()
    }

    fn on_block_complete(&mut self, _block_id: usize, was_pim: bool, now: Ps) {
        self.apply_pending(now);
        if was_pim {
            self.pool.release();
        }
    }

    fn on_thermal_warning(&mut self, now: Ps, warning_id: u64) {
        self.last_warning_at = self.last_warning_at.max(now);
        if now >= self.quiet_until && self.pending_shrink_at.is_none() {
            // Interrupt raised; the handler takes effect after T_throttle.
            self.pending_shrink_at = Some(now + self.cfg.t_throttle);
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

    fn controller(intensity: f64) -> SwDynT {
        SwDynT::new(
            SwDynTConfig::default(),
            &HardwareProfile::paper(),
            &KernelProfile {
                pim_intensity: intensity,
                divergence_ratio: 0.1,
            },
        )
    }

    #[test]
    fn initial_pool_comes_from_eq1() {
        let hot = controller(0.4);
        let mild = controller(0.05);
        assert!(hot.pool_size() < mild.pool_size());
        assert_eq!(mild.pool_size(), 96); // unconstrained
    }

    #[test]
    fn warning_shrinks_after_throttle_delay() {
        let mut c = controller(0.4);
        let before = c.pool_size();
        // Saturate the pool so shrink has bite.
        for b in 0..96 {
            c.on_block_launch(b, 0);
        }
        c.on_thermal_warning(1_000_000, 1); // t = 1 µs
                                            // Still pending: too early.
        c.on_block_launch(100, 1_500_000);
        assert_eq!(c.shrink_steps(), 0);
        // After T_throttle (0.1 ms) the next launch applies it.
        c.on_block_launch(101, 1_000_000 + ns_to_ps(100_000.0) + 1);
        assert_eq!(c.shrink_steps(), 1);
        assert_eq!(c.pool_size(), before.saturating_sub(4).min(before));
    }

    #[test]
    fn warnings_in_quiet_window_are_debounced() {
        let mut c = controller(0.4);
        for b in 0..96 {
            c.on_block_launch(b, 0);
        }
        c.on_thermal_warning(0, 1);
        for t in 1..100 {
            c.on_thermal_warning(t * 1000, 1);
        }
        c.on_block_launch(200, ns_to_ps(200_000.0));
        assert_eq!(
            c.shrink_steps(),
            1,
            "flooded warnings must collapse to one step"
        );
    }

    #[test]
    fn second_warning_after_settle_shrinks_again() {
        let mut c = controller(0.4);
        for b in 0..96 {
            c.on_block_launch(b, 0);
        }
        let step = ns_to_ps(100_000.0) + ns_to_ps(1_000_000.0);
        c.on_thermal_warning(0, 1);
        c.on_block_launch(200, step + 1);
        assert_eq!(c.shrink_steps(), 1);
        c.on_thermal_warning(step + 2, 2);
        c.on_block_launch(201, 2 * step + 3);
        assert_eq!(c.shrink_steps(), 2);
    }

    #[test]
    fn control_events_mirror_shrink_steps() {
        let mut c = controller(0.4);
        for b in 0..96 {
            c.on_block_launch(b, 0);
        }
        let step = ns_to_ps(100_000.0) + ns_to_ps(1_000_000.0);
        c.on_thermal_warning(0, 1);
        c.on_block_launch(200, step + 1);
        c.on_thermal_warning(step + 2, 2);
        c.on_block_launch(201, 2 * step + 3);
        assert_eq!(c.shrink_steps(), 2);

        let mut events = Vec::new();
        c.drain_control_events(&mut events);
        let resizes: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::TokenPoolResize {
                        trigger: "thermal_warning",
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(resizes.len() as u64, c.shrink_steps());
        // Each shrink cites the warning that scheduled it.
        let resize_ids: Vec<_> = resizes.iter().filter_map(|e| e.warning_id()).collect();
        assert_eq!(resize_ids, vec![1, 2]);
        let delivered = events
            .iter()
            .filter(|e| e.kind() == "ThermalWarningDelivered")
            .count();
        assert_eq!(delivered, 2);
        // Init event records the Eq. 1 pool size.
        assert!(matches!(
            events[0],
            TelemetryEvent::TokenPoolResize {
                t_ps: 0,
                trigger: "init",
                ..
            }
        ));
        // Drain empties the buffer.
        let mut again = Vec::new();
        c.drain_control_events(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn tokens_flow_with_block_lifecycle() {
        let mut c = controller(0.4);
        let size = c.pool_size();
        let mut granted = 0;
        for b in 0..200 {
            if c.on_block_launch(b, 0) {
                granted += 1;
            }
        }
        assert_eq!(granted, size, "grants bounded by pool size");
        c.on_block_complete(0, true, 10);
        assert!(c.on_block_launch(300, 20), "released token re-granted");
    }
}
