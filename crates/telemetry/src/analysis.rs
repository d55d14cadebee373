//! Control-loop KPIs derived from an event stream.
//!
//! CoolPIM's claims are about a feedback loop — warning raised →
//! throttle action → temperature effect — and this module answers the
//! loop questions from a timeline alone: how fast did each policy react
//! (warning→action latency distribution), how far and how long did the
//! stack overshoot the trigger temperature (episodes, seconds, and the
//! integral °C·s above threshold), how long did the cube run derated,
//! how much did the token pool oscillate, and how much of the thermal
//! headroom the run actually used.
//!
//! Input is any slice of [`TelemetryEvent`]s in non-decreasing `t_ps`
//! order — an in-memory [`crate::EventLog`] snapshot or a parsed JSONL
//! trace (see [`analyze_jsonl`]). Causality comes from the `warning_id`
//! stamped on every warning and on the downstream events it triggers.

use crate::event::{EpochRecord, TelemetryEvent};
use crate::metrics::Histogram;

/// Ambient/coolant reference temperature (°C) for headroom accounting:
/// utilization is `(peak − AMBIENT) / (threshold − AMBIENT)`, i.e. 0 at
/// ambient and 1 exactly at the warning threshold.
pub const AMBIENT_C: f64 = 25.0;

/// Warning threshold assumed when the trace carries no
/// [`TelemetryEvent::RunInfo`] (the ERRSTAT default).
pub const FALLBACK_THRESHOLD_C: f64 = 84.0;

/// Latency distribution summary in simulation picoseconds, backed by a
/// log2-bucketed [`Histogram`] (percentiles are bucket upper bounds —
/// accurate to a factor of two).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of measured latencies.
    pub count: u64,
    /// Mean latency (ps).
    pub mean_ps: f64,
    /// Median (bucket upper bound, ps).
    pub p50_ps: u64,
    /// 90th percentile (bucket upper bound, ps).
    pub p90_ps: u64,
    /// 99th percentile (bucket upper bound, ps).
    pub p99_ps: u64,
    /// Largest latency (exact, ps).
    pub max_ps: u64,
}

impl LatencyStats {
    /// Summarizes a histogram of picosecond latencies.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean_ps: h.mean(),
            p50_ps: h.p50(),
            p90_ps: h.p90(),
            p99_ps: h.p99(),
            max_ps: h.max(),
        }
    }
}

/// Control-loop KPIs of one run, derived by [`analyze`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlLoopReport {
    /// Offloading policy label (from `RunInfo`; `"?"` if absent).
    pub policy: &'static str,
    /// Workload name (from `RunInfo`; `"?"` if absent).
    pub workload: &'static str,
    /// Warning threshold the loop triggers at (°C).
    pub threshold_c: f64,
    /// Run length covered by the trace (s of simulation time).
    pub total_time_s: f64,
    /// Warnings raised by the cube.
    pub warnings_raised: u64,
    /// Warnings accepted by the controller for action.
    pub warnings_delivered: u64,
    /// Throttle actions ([`TelemetryEvent::throttle_action`]: warning
    /// shrinks of the token pool, warp-cap updates) causally tied to a
    /// warning.
    pub actions: u64,
    /// Actions carrying a `warning_id` with no matching raise in the
    /// trace — should be zero; nonzero means a truncated or miswired
    /// trace.
    pub orphan_actions: u64,
    /// Warning raise → controller acceptance latency.
    pub delivery_latency: LatencyStats,
    /// Warning raise → throttle-action-effective latency.
    pub action_latency: LatencyStats,
    /// Upward crossings of the warning threshold in the epoch timeline.
    pub overshoot_episodes: u64,
    /// Simulation time spent above the warning threshold (s).
    pub overshoot_time_s: f64,
    /// Integral of (peak − threshold) over time above threshold (°C·s).
    pub overshoot_integral_c_s: f64,
    /// Simulation time spent outside the Normal phase, i.e. at derated
    /// DRAM frequency (s).
    pub derated_time_s: f64,
    /// Token-pool resize direction reversals (grow→shrink or
    /// shrink→grow; zero-delta resizes ignored).
    pub pool_oscillations: u64,
    /// Time-weighted mean of `(peak − ambient) / (threshold − ambient)`
    /// over the epoch timeline: 1.0 means the run rode the threshold
    /// exactly; > 1 means it overshot on average.
    pub headroom_utilization: f64,
}

impl ControlLoopReport {
    /// Renders the report as a readable block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== control loop ==  {} / {}  (threshold {:.1} C, {:.4} s sim)\n",
            self.policy, self.workload, self.threshold_c, self.total_time_s
        );
        out.push_str(&format!(
            "warnings raised/delivered/actions  {} / {} / {}  (orphans {})\n",
            self.warnings_raised, self.warnings_delivered, self.actions, self.orphan_actions
        ));
        out.push_str(&format!(
            "warning->action latency            p50<={} ps  p90<={} ps  p99<={} ps  mean {:.0} ps\n",
            self.action_latency.p50_ps,
            self.action_latency.p90_ps,
            self.action_latency.p99_ps,
            self.action_latency.mean_ps
        ));
        out.push_str(&format!(
            "overshoot                          {} episodes, {:.4} s, {:.4} C*s\n",
            self.overshoot_episodes, self.overshoot_time_s, self.overshoot_integral_c_s
        ));
        out.push_str(&format!(
            "derated time                       {:.4} s ({:.1} % of run)\n",
            self.derated_time_s,
            if self.total_time_s > 0.0 {
                100.0 * self.derated_time_s / self.total_time_s
            } else {
                0.0
            }
        ));
        out.push_str(&format!(
            "pool oscillations                  {}\n",
            self.pool_oscillations
        ));
        out.push_str(&format!(
            "thermal headroom utilization       {:.3}\n",
            self.headroom_utilization
        ));
        out
    }
}

/// Derives the control-loop KPIs from an event stream in non-decreasing
/// `t_ps` order.
pub fn analyze(events: &[TelemetryEvent]) -> ControlLoopReport {
    let mut r = ControlLoopReport {
        policy: "?",
        workload: "?",
        threshold_c: FALLBACK_THRESHOLD_C,
        ..ControlLoopReport::default()
    };
    // Raise time per warning id, kept for the whole run: a late action
    // may respond to an early warning.
    let mut raised_at: Vec<(u64, u64)> = Vec::new();
    let raise_of =
        |raised: &[(u64, u64)], id: u64| raised.iter().find(|(i, _)| *i == id).map(|(_, t)| *t);
    let mut delivery = Histogram::new();
    let mut action = Histogram::new();

    // Overshoot / headroom integration over the epoch timeline.
    let mut prev_sample: Option<(u64, f64)> = None;
    let mut above = false;
    let mut headroom_weighted = 0.0;
    let mut headroom_span = 0.0;

    // Derated-phase interval tracking.
    let mut derate_started: Option<u64> = None;
    let mut derated_ps: u64 = 0;

    // Token-pool oscillation: sign of the last nonzero resize delta.
    let mut last_delta_sign: i8 = 0;

    let mut t_first: Option<u64> = None;
    let mut t_last: u64 = 0;

    for ev in events {
        t_first.get_or_insert(ev.t_ps());
        t_last = t_last.max(ev.t_ps());
        if let Some((t_ps, Some(id))) = ev.throttle_action() {
            r.actions += 1;
            match raise_of(&raised_at, id) {
                Some(t0) => action.record(t_ps.saturating_sub(t0)),
                None => r.orphan_actions += 1,
            }
        }
        match *ev {
            TelemetryEvent::RunInfo {
                policy,
                workload,
                threshold_c,
                ..
            } => {
                r.policy = policy;
                r.workload = workload;
                r.threshold_c = threshold_c;
            }
            TelemetryEvent::ThermalWarningRaised {
                t_ps, warning_id, ..
            } => {
                r.warnings_raised += 1;
                raised_at.push((warning_id, t_ps));
            }
            TelemetryEvent::ThermalWarningDelivered { t_ps, warning_id } => {
                r.warnings_delivered += 1;
                if let Some(t0) = raise_of(&raised_at, warning_id) {
                    delivery.record(t_ps.saturating_sub(t0));
                }
            }
            TelemetryEvent::TokenPoolResize { old, new, .. } if old != new => {
                let sign: i8 = if new > old { 1 } else { -1 };
                if last_delta_sign != 0 && sign != last_delta_sign {
                    r.pool_oscillations += 1;
                }
                last_delta_sign = sign;
            }
            TelemetryEvent::PhaseTransition { t_ps, to, .. } => {
                if to == "Normal" {
                    if let Some(t0) = derate_started.take() {
                        derated_ps += t_ps.saturating_sub(t0);
                    }
                } else if derate_started.is_none() {
                    derate_started = Some(t_ps);
                }
            }
            TelemetryEvent::EpochSample(EpochRecord {
                t_ps, peak_dram_c, ..
            }) => {
                let over = (peak_dram_c - r.threshold_c).max(0.0);
                if let Some((t0, prev_over)) = prev_sample {
                    let dt_s = t_ps.saturating_sub(t0) as f64 * 1e-12;
                    // Trapezoid over the excess-temperature curve.
                    r.overshoot_integral_c_s += 0.5 * (prev_over + over) * dt_s;
                    if prev_over > 0.0 || over > 0.0 {
                        r.overshoot_time_s += dt_s;
                    }
                    let denom = (r.threshold_c - AMBIENT_C).max(1e-9);
                    let util = ((peak_dram_c - AMBIENT_C) / denom).max(0.0);
                    headroom_weighted += util * dt_s;
                    headroom_span += dt_s;
                }
                if over > 0.0 && !above {
                    r.overshoot_episodes += 1;
                }
                above = over > 0.0;
                prev_sample = Some((t_ps, over));
            }
            _ => {}
        }
    }

    if let Some(t0) = derate_started {
        // Run ended while derated: count up to the last event.
        derated_ps += t_last.saturating_sub(t0);
    }
    r.derated_time_s = derated_ps as f64 * 1e-12;
    r.total_time_s = t_last.saturating_sub(t_first.unwrap_or(0)) as f64 * 1e-12;
    if headroom_span > 0.0 {
        r.headroom_utilization = headroom_weighted / headroom_span;
    }
    r.delivery_latency = LatencyStats::from_histogram(&delivery);
    r.action_latency = LatencyStats::from_histogram(&action);
    r
}

/// Parses a JSONL trace and analyzes it. Unparseable lines are skipped
/// and counted in the returned pair's second element. `None` when no
/// line parses: such a file is not a trace.
pub fn analyze_jsonl(text: &str) -> Option<(ControlLoopReport, usize)> {
    let mut events = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match TelemetryEvent::from_jsonl(line) {
            Some(ev) => events.push(ev),
            None => skipped += 1,
        }
    }
    (!events.is_empty()).then(|| (analyze(&events), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000_000; // ps per ms

    fn sample(t_ps: u64, peak: f64, phase: &'static str) -> TelemetryEvent {
        TelemetryEvent::EpochSample(EpochRecord {
            t_ps,
            pim_rate_op_ns: 1.0,
            data_bw: 1e11,
            peak_dram_c: peak,
            phase,
            ..EpochRecord::default()
        })
    }

    /// A hand-built trace with one full warning → shrink → recovery
    /// cycle and known overshoot geometry.
    fn synthetic_trace() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::RunInfo {
                t_ps: 0,
                policy: "CoolPIM(SW)",
                workload: "pagerank",
                threshold_c: 84.0,
                epoch_ps: MS,
            },
            TelemetryEvent::TokenPoolResize {
                t_ps: 0,
                old: 96,
                new: 96,
                trigger: "init",
                warning_id: None,
            },
            sample(MS, 80.0, "Normal"),
            TelemetryEvent::ThermalWarningRaised {
                t_ps: MS + 10,
                peak_dram_c: 84.5,
                warning_id: 1,
            },
            TelemetryEvent::PhaseTransition {
                t_ps: MS + 10,
                from: "Normal",
                to: "Extended",
            },
            TelemetryEvent::ThermalWarningDelivered {
                t_ps: MS + 110,
                warning_id: 1,
            },
            TelemetryEvent::TokenPoolResize {
                t_ps: MS + 100_010,
                old: 96,
                new: 92,
                trigger: "thermal_warning",
                warning_id: Some(1),
            },
            // threshold 84: 2 over for 1 ms, then back under.
            sample(2 * MS, 86.0, "Extended"),
            TelemetryEvent::ThermalWarningCleared {
                t_ps: 2 * MS + 500,
                peak_dram_c: 83.9,
                warning_id: 1,
            },
            TelemetryEvent::PhaseTransition {
                t_ps: 3 * MS,
                from: "Extended",
                to: "Normal",
            },
            sample(3 * MS, 82.0, "Normal"),
            sample(4 * MS, 80.0, "Normal"),
            TelemetryEvent::TokenPoolResize {
                t_ps: 4 * MS,
                old: 92,
                new: 96,
                trigger: "thermal_warning",
                warning_id: Some(1),
            },
        ]
    }

    #[test]
    fn synthetic_trace_kpis() {
        let r = analyze(&synthetic_trace());
        assert_eq!(r.policy, "CoolPIM(SW)");
        assert_eq!(r.workload, "pagerank");
        assert_eq!(r.threshold_c, 84.0);
        assert_eq!(r.warnings_raised, 1);
        assert_eq!(r.warnings_delivered, 1);
        assert_eq!(r.actions, 2);
        assert_eq!(r.orphan_actions, 0);
        // Raise at 1 ms + 10 ps, shrink effective 100 ns later + 10 ps.
        assert_eq!(r.action_latency.count, 2);
        assert!(r.action_latency.p50_ps >= 100_000);
        // Overshoot: one episode; excess ramps 0→2→0 over samples at
        // 1,2,3 ms → trapezoid = 2.0 C * 1e-3 s * (0.5+0.5) = 2e-3 C*s.
        assert_eq!(r.overshoot_episodes, 1);
        assert!((r.overshoot_integral_c_s - 2e-3).abs() < 1e-9);
        assert!((r.overshoot_time_s - 2e-3).abs() < 1e-12);
        // Derated from 1 ms + 10 ps to 3 ms.
        assert!((r.derated_time_s - 2e-3).abs() < 1e-7);
        // Shrink then grow = one reversal.
        assert_eq!(r.pool_oscillations, 1);
        assert!(r.headroom_utilization > 0.9 && r.headroom_utilization < 1.1);
        assert!((r.total_time_s - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_benign() {
        let r = analyze(&[]);
        assert_eq!(r.policy, "?");
        assert_eq!(r.threshold_c, FALLBACK_THRESHOLD_C);
        assert_eq!(r.warnings_raised, 0);
        assert_eq!(r.total_time_s, 0.0);
        assert_eq!(r.headroom_utilization, 0.0);
        assert!(!r.render().is_empty());
    }

    #[test]
    fn orphan_actions_are_counted_not_measured() {
        let r = analyze(&[TelemetryEvent::WarpCapUpdate {
            t_ps: 500,
            old_slots: 8,
            new_slots: 6,
            warning_id: Some(42),
        }]);
        assert_eq!(r.actions, 1);
        assert_eq!(r.orphan_actions, 1);
        assert_eq!(r.action_latency.count, 0);
    }

    #[test]
    fn init_resize_does_not_count_as_action_or_oscillation() {
        let r = analyze(&[
            TelemetryEvent::TokenPoolResize {
                t_ps: 0,
                old: 0,
                new: 96,
                trigger: "init",
                warning_id: None,
            },
            TelemetryEvent::TokenPoolResize {
                t_ps: 10,
                old: 96,
                new: 92,
                trigger: "thermal_warning",
                warning_id: Some(1),
            },
        ]);
        // The init grow does set direction state, so the first shrink is
        // one reversal — but the init itself is not an "action".
        assert_eq!(r.actions, 1);
        assert_eq!(r.pool_oscillations, 1);
    }

    #[test]
    fn stale_cancelled_resize_is_not_an_action() {
        let r = analyze(&[
            TelemetryEvent::ThermalWarningRaised {
                t_ps: 10,
                peak_dram_c: 84.5,
                warning_id: 1,
            },
            TelemetryEvent::TokenPoolResize {
                t_ps: 500,
                old: 96,
                new: 96,
                trigger: "stale_cancelled",
                warning_id: Some(1),
            },
        ]);
        assert_eq!(r.actions, 0);
        assert_eq!(r.orphan_actions, 0);
        assert_eq!(r.action_latency.count, 0);
    }

    #[test]
    fn run_ending_derated_counts_to_last_event() {
        let r = analyze(&[
            TelemetryEvent::PhaseTransition {
                t_ps: MS,
                from: "Normal",
                to: "Critical",
            },
            sample(3 * MS, 90.0, "Critical"),
        ]);
        assert!((r.derated_time_s - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn analyze_jsonl_skips_garbage_lines() {
        let trace = synthetic_trace();
        let mut text = String::new();
        for ev in &trace {
            text.push_str(&ev.to_jsonl());
            text.push('\n');
        }
        text.push_str("not json\n\n");
        let (r, skipped) = analyze_jsonl(&text).expect("a trace");
        assert_eq!(skipped, 1);
        assert_eq!(r, analyze(&trace));
        assert!(analyze_jsonl("not json\n\n").is_none());
        assert!(analyze_jsonl("").is_none());
    }
}
