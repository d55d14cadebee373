//! The one regression-gate engine, behind `obs gate SET CURRENT`.
//!
//! A [`Gate`] is a metric key plus a [`Check`], and the named [`SETS`]
//! are the only place a CI threshold, band or direction lives. Every
//! set reads run records (`sim --metrics-out`, loaded by
//! [`RunRecord::load`]); one engine ([`evaluate`]) decides every row,
//! and one renderer prints it.
//!
//! A band compares medians: the replicate median of a replicated record
//! (see `crate::replicate`), the value itself otherwise. With ≥ 2
//! samples a side, a shift past the band must also be significant
//! under a permutation test ([`ALPHA`], [`MIN_EFFECT`]), or it is
//! excused as replicate noise. A metric missing on either side of a
//! band is reported and passes: a run whose loop never engaged has no
//! warning→action histogram. A ceiling, floor or [`Check::Below`]
//! fails on a missing metric. An absent `counter.*` key reads 0, as
//! `MetricsSnapshot::counter` does: a run's counter exists only once it
//! has counted. A non-finite value on either side of any check fails.

use std::fmt::Write as _;

use coolpim_telemetry::stats::{drift, median};
use coolpim_telemetry::Tolerance;

use crate::replicate::DIST_PREFIX;
use crate::runrec::{fnv1a, RunRecord};

/// Significance level of the permutation test: the granularity floor
/// of a 3-vs-3 exact test, whose smallest two-sided p is 2/20.
pub const ALPHA: f64 = 0.1;

/// Minimum robust effect size (median shift in MAD-derived σ) for a
/// significant shift to count as a regression.
pub const MIN_EFFECT: f64 = 0.5;

/// What one gate asks of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The current median may not move past `tol` around the baseline
    /// median in the worse direction; moves the other way always pass.
    Band {
        /// Allowed slack, `abs + rel·|baseline|`.
        tol: Tolerance,
        /// Whether larger values are worse (time, temperature) as
        /// opposed to smaller-is-worse throughput metrics.
        higher_is_worse: bool,
    },
    /// Ceiling on the current value.
    Max(f64),
    /// Floor on the current value.
    Min(f64),
    /// The current median must be strictly below the baseline median.
    Below,
}

impl Check {
    /// Whether the check reads a baseline record.
    pub fn compares(&self) -> bool {
        matches!(self, Check::Band { .. } | Check::Below)
    }
}

/// One gated metric.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// An exact metric name, or a pattern with one `*` (such as
    /// `tprof.*.total_s`) that expands to every matching key of the
    /// baseline.
    pub key: &'static str,
    /// The check applied to each matching metric.
    pub check: Check,
}

impl Gate {
    const fn band(key: &'static str, tol: Tolerance, higher_is_worse: bool) -> Self {
        Self {
            key,
            check: Check::Band {
                tol,
                higher_is_worse,
            },
        }
    }

    const fn max(key: &'static str, v: f64) -> Self {
        Self {
            key,
            check: Check::Max(v),
        }
    }

    const fn min(key: &'static str, v: f64) -> Self {
        Self {
            key,
            check: Check::Min(v),
        }
    }

    const fn below(key: &'static str) -> Self {
        Self {
            key,
            check: Check::Below,
        }
    }
}

/// No throttle action may cite a warning the cube never raised.
const NO_ORPHAN_ACTIONS: Gate = Gate::max("counter.orphan_actions", 0.0);

/// `run`: the headline quality and performance metrics of one `sim`
/// run record against a committed baseline. Tolerances are sized to
/// simulation determinism (tight) and log2 histogram granularity (a
/// factor of two).
pub const RUN: &[Gate] = &[
    Gate::band("exec_s", Tolerance::rel(0.05), true),
    Gate::band("max_peak_dram_c", Tolerance::abs(0.5), true),
    Gate::band("avg_pim_rate_op_ns", Tolerance::rel(0.05), false),
    Gate::band("ext_data_bytes", Tolerance::rel(0.05), true),
    Gate::band("throttle_steps", Tolerance::abs(2.0), true),
    Gate::band("shutdown", Tolerance::EXACT, true),
    // Log2-bucketed percentile: identical behaviour can move one
    // bucket, so allow a full factor of two.
    Gate::band("hist.warning_to_action_ps.p50", Tolerance::rel(1.0), true),
    // Wall-clock share, so noisy across machines: the band matches the
    // absolute budget; the `overhead` set holds the hard ceiling.
    Gate::band("telemetry_overhead_pct", Tolerance::abs(3.0), true),
    // Deterministic for a fixed seed; the slack absorbs trigger-order
    // changes near the threshold.
    Gate::band("postmortem_dumps", Tolerance::abs(2.0), true),
    NO_ORPHAN_ACTIONS,
];

/// `profile`: the `tprof.*` span tree of a `sim --trace-timeline` run
/// record against the committed profile baseline. Runner noise can
/// easily double a sub-100 ms phase, so wall times only fail past
/// `2× + 50 ms`. Span calls and the solver-effort gauge are
/// reproduced exactly by a fixed seed, so their bands are tight: drift
/// there is an algorithmic change, not scheduler noise.
pub const PROFILE: &[Gate] = &[
    Gate::band("tprof.*.total_s", Tolerance::band(0.05, 1.0), true),
    Gate::band("tprof.*.calls", Tolerance::band(2.0, 0.02), true),
    Gate::band(
        "gauge.thermal_sweeps_per_substep",
        Tolerance::band(0.5, 0.25),
        true,
    ),
];

/// `overhead`: the 3 % budget on telemetry and flight-recorder
/// self-cost.
pub const OVERHEAD: &[Gate] = &[Gate::max("telemetry_overhead_pct", 3.0)];

/// `trace`: the Chrome timeline of a `sim --trace-timeline` run, as its
/// record summarises it, must nest spans ≥ 3 deep on ≥ 2 tracks and
/// carry ≥ 1 matched warning→throttle flow.
pub const TRACE: &[Gate] = &[
    Gate::min("trace.max_depth", 3.0),
    Gate::min("trace.tracks", 2.0),
    Gate::min("trace.flows_matched", 1.0),
];

/// `control-loop`: a HW-DynT run record against a SW-DynT baseline. No
/// action lacks its warning, and HW-DynT's median warning→action
/// latency is below SW-DynT's (the paper's §IV claim), with data on
/// both sides.
pub const CONTROL_LOOP: &[Gate] = &[
    NO_ORPHAN_ACTIONS,
    Gate::below("hist.warning_to_action_ps.p50"),
];

/// A named gate set.
#[derive(Debug, Clone, Copy)]
pub struct GateSet {
    /// Name on the `obs gate` command line.
    pub name: &'static str,
    /// The gates, in report order.
    pub gates: &'static [Gate],
}

impl GateSet {
    /// Whether any gate compares against a baseline record.
    pub fn needs_baseline(&self) -> bool {
        self.gates.iter().any(|g| g.check.compares())
    }
}

/// Every gate set `obs gate` knows.
pub const SETS: &[GateSet] = &[
    GateSet {
        name: "run",
        gates: RUN,
    },
    GateSet {
        name: "profile",
        gates: PROFILE,
    },
    GateSet {
        name: "overhead",
        gates: OVERHEAD,
    },
    GateSet {
        name: "trace",
        gates: TRACE,
    },
    GateSet {
        name: "control-loop",
        gates: CONTROL_LOOP,
    },
];

/// The gate set called `name`.
pub fn set(name: &str) -> Option<&'static GateSet> {
    SETS.iter().find(|s| s.name == name)
}

/// Scales `metric` (headline value and `dist.<metric>.*` block, except
/// the sample count) by `factor`: the gate's self-test fault injector.
pub fn inflate(rec: &mut RunRecord, metric: &str, factor: f64) {
    let dist_prefix = format!("{DIST_PREFIX}{metric}.");
    let n_key = format!("{dist_prefix}n");
    for (name, value) in rec.metrics.iter_mut() {
        if name == metric || (name.starts_with(&dist_prefix) && *name != n_key) {
            *value *= factor;
        }
    }
}

/// Verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The check holds.
    Ok,
    /// Past the band, but not a significant shift over the replicates.
    Excused,
    /// The check fails.
    Regressed,
    /// A non-finite value on either side.
    NotFinite,
    /// Absent from a side it is needed on.
    Missing,
}

/// One gated metric's decision.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric key (the pattern itself when it matched nothing).
    pub metric: String,
    /// The check applied.
    pub check: Check,
    /// Baseline median, when compared against one.
    pub baseline: Option<f64>,
    /// Current median.
    pub current: Option<f64>,
    /// Sample counts (baseline, current).
    pub n: (usize, usize),
    /// Permutation p-value and robust effect size (σ, current −
    /// baseline), when both sides carry ≥ 2 samples.
    pub stat: Option<(f64, f64)>,
    /// Verdict.
    pub status: Status,
}

impl Row {
    /// Whether this row fails the gate. A missing metric fails a
    /// ceiling or floor but not a band.
    pub fn failed(&self) -> bool {
        match self.status {
            Status::Regressed | Status::NotFinite => true,
            Status::Missing => !matches!(self.check, Check::Band { .. }),
            Status::Ok | Status::Excused => false,
        }
    }
}

/// Checks `current` (and, for bands, `baseline`) against `gates`,
/// expanding each pattern key against the baseline's headline metrics
/// (the current record's when there is no baseline). A pattern that
/// matches nothing yields one missing row under its own name.
pub fn evaluate(gates: &[Gate], baseline: Option<&RunRecord>, current: &RunRecord) -> Vec<Row> {
    let mut rows = Vec::new();
    for g in gates {
        let Some((prefix, suffix)) = g.key.split_once('*') else {
            rows.push(check_metric(g.key, g.check, baseline, current));
            continue;
        };
        let before = rows.len();
        for key in baseline.unwrap_or(current).headline_metrics() {
            if key.len() >= prefix.len() + suffix.len()
                && key.starts_with(prefix)
                && key.ends_with(suffix)
            {
                rows.push(check_metric(key, g.check, baseline, current));
            }
        }
        if rows.len() == before {
            rows.push(check_metric(g.key, g.check, baseline, current));
        }
    }
    rows
}

fn check_metric(
    metric: &str,
    check: Check,
    baseline: Option<&RunRecord>,
    current: &RunRecord,
) -> Row {
    let samples = |r: &RunRecord| match r.samples(metric) {
        s if s.is_empty() && metric.starts_with("counter.") => vec![0.0],
        s => s,
    };
    let compares = check.compares();
    let b = match baseline {
        Some(r) if compares => samples(r),
        _ => Vec::new(),
    };
    let c = samples(current);
    let med = |s: &[f64]| (!s.is_empty()).then(|| median(s));
    let mut row = Row {
        metric: metric.to_string(),
        check,
        baseline: med(&b),
        current: med(&c),
        n: (b.len(), c.len()),
        stat: None,
        status: Status::Ok,
    };
    if c.is_empty() || (compares && b.is_empty()) {
        row.status = Status::Missing;
        return row;
    }
    if b.iter().chain(&c).any(|v| !v.is_finite()) {
        row.status = Status::NotFinite;
        return row;
    }
    let cur = row.current.expect("non-empty");
    let holds = match check {
        Check::Max(v) => cur <= v,
        Check::Min(v) => cur >= v,
        Check::Below => cur < row.baseline.expect("non-empty"),
        Check::Band {
            tol,
            higher_is_worse,
        } => {
            let base = row.baseline.expect("non-empty");
            let worse = if higher_is_worse {
                cur - base
            } else {
                base - cur
            };
            let in_band = worse <= tol.slack(base);
            if b.len() >= 2 && c.len() >= 2 {
                let d = drift(&b, &c, fnv1a(metric));
                row.stat = Some((d.p, d.effect));
                if !in_band && !d.significant(ALPHA, MIN_EFFECT) {
                    row.status = Status::Excused;
                    return row;
                }
            }
            in_band
        }
    };
    if !holds {
        row.status = Status::Regressed;
    }
    row
}

/// The outcome of one gate set.
#[derive(Debug, Clone)]
pub struct Report {
    /// Gate set name.
    pub set: &'static str,
    /// Per-metric decisions, in gate order.
    pub rows: Vec<Row>,
    /// Whether a banded baseline and current hash different
    /// configurations (a warning, not a failure: baselines age across
    /// config changes). A set without bands, such as `control-loop`,
    /// compares two configurations on purpose.
    pub config_mismatch: bool,
}

impl Report {
    /// Runs `set` over `current` (and `baseline` for its comparisons).
    pub fn new(set: &GateSet, baseline: Option<&RunRecord>, current: &RunRecord) -> Self {
        let banded = set
            .gates
            .iter()
            .any(|g| matches!(g.check, Check::Band { .. }));
        Self {
            set: set.name,
            rows: evaluate(set.gates, baseline, current),
            config_mismatch: banded
                && baseline.is_some_and(|b| b.config_hash != current.config_hash),
        }
    }

    /// Rows that fail the gate.
    pub fn failures(&self) -> Vec<&Row> {
        self.rows.iter().filter(|r| r.failed()).collect()
    }

    fn has_bands(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.check, Check::Band { .. }))
    }

    /// Renders the gate as a fixed-width terminal table plus verdict.
    pub fn render(&self, baseline: &str, current: &str) -> String {
        let mut out = format!(
            "== obs gate {} ==  baseline: {baseline}   current: {current}\n",
            self.set
        );
        if self.has_bands() {
            let _ = writeln!(out, "significance α = {ALPHA}, min effect = {MIN_EFFECT} σ");
        }
        if self.config_mismatch {
            out.push_str("!! config hash differs from the baseline\n");
        }
        let _ = writeln!(
            out,
            "{:<46} {:>10} {:>13} {:>13} {:>7} {:>6} {:>7}  status",
            "metric", "check", "base med", "cur med", "n", "p", "effect"
        );
        for r in &self.rows {
            let [m, check, b, c, n, p, e, s] = cells(r, "-");
            let _ = writeln!(
                out,
                "{m:<46} {check:>10} {b:>13} {c:>13} {n:>7} {p:>6} {e:>7}  {s}"
            );
        }
        let failures = self.failures();
        if failures.is_empty() {
            let _ = writeln!(out, "PASS: {} check(s), no regression", self.rows.len());
        }
        for r in failures {
            let _ = writeln!(out, "FAIL: {}", failure(r));
        }
        out
    }

    /// Renders the gate as a Markdown report artifact.
    pub fn render_markdown(&self, baseline: &str, current: &str) -> String {
        let mut out = format!(
            "# Regression gate `{}`\n\nBaseline `{baseline}` vs current `{current}`",
            self.set
        );
        if self.has_bands() {
            let _ = write!(out, " — α = {ALPHA}, min effect = {MIN_EFFECT} σ");
        }
        out.push_str(".\n\n");
        if self.config_mismatch {
            out.push_str("> **Warning:** config hash differs from the baseline.\n\n");
        }
        out.push_str("| metric | check | base med | cur med | n | p | effect σ | verdict |\n");
        out.push_str("|---|---|---:|---:|---|---:|---:|---|\n");
        for r in &self.rows {
            let [m, check, b, c, n, p, e, s] = cells(r, "—");
            let s = if r.failed() { format!("**{s}**") } else { s };
            let _ = writeln!(
                out,
                "| `{m}` | {check} | {b} | {c} | {n} | {p} | {e} | {s} |"
            );
        }
        let failures = self.failures().len();
        let excused = self
            .rows
            .iter()
            .filter(|r| r.status == Status::Excused)
            .count();
        let _ = writeln!(
            out,
            "\n**{}** — {} check(s), {failures} failed, {excused} excused by statistics.",
            if failures == 0 { "PASS" } else { "FAIL" },
            self.rows.len(),
        );
        out
    }
}

/// One row's table cells: metric, check, base, current, n, p, effect,
/// status; `none` fills absent values.
fn cells(r: &Row, none: &str) -> [String; 8] {
    let num = |v: Option<f64>| v.map_or(none.to_string(), |v| format!("{v:.6}"));
    let check = match r.check {
        Check::Band { .. } if r.stat.is_some() => "stat".to_string(),
        Check::Band { .. } => "band".to_string(),
        Check::Max(v) => format!("<= {v}"),
        Check::Min(v) => format!(">= {v}"),
        Check::Below => "< base".to_string(),
    };
    let status = match r.status {
        Status::Ok => "ok",
        Status::Excused => "ok (excused: not significant)",
        Status::Regressed => "REGRESSED",
        Status::NotFinite => "NOT FINITE",
        Status::Missing if r.failed() => "MISSING",
        Status::Missing => "missing",
    };
    [
        r.metric.clone(),
        check,
        num(r.baseline),
        num(r.current),
        format!("{}v{}", r.n.0, r.n.1),
        r.stat.map_or(none.to_string(), |(p, _)| format!("{p:.3}")),
        r.stat.map_or(none.to_string(), |(_, e)| format!("{e:+.2}")),
        status.to_string(),
    ]
}

/// The verdict line for a failed row, naming the metric.
fn failure(r: &Row) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let m = &r.metric;
    match (r.status, r.check) {
        (Status::Missing, _) if r.current.is_none() => {
            format!("{m} missing from the current record")
        }
        (Status::Missing, _) => format!("{m} missing from the baseline"),
        (Status::NotFinite, _) => format!(
            "{m} is not finite — baseline {}, current {}",
            num(r.baseline),
            num(r.current)
        ),
        (_, Check::Max(v)) => format!("{m} = {} above ceiling {v}", num(r.current)),
        (_, Check::Min(v)) => format!("{m} = {} below floor {v}", num(r.current)),
        (_, Check::Below) => format!(
            "{m} = {} not below the baseline's {}",
            num(r.current),
            num(r.baseline)
        ),
        (_, Check::Band { .. }) => format!(
            "{m} regressed — median {} -> {}, {}",
            num(r.baseline),
            num(r.current),
            r.stat
                .map_or("band only (< 2 samples a side)".into(), |(p, e)| {
                    format!("effect {e:+.2} σ, p = {p:.3}")
                }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::fold_replicates;
    use std::path::Path;

    fn record(pairs: &[(&str, f64)]) -> RunRecord {
        let mut r = RunRecord::new("test", "cfg-a");
        for (n, v) in pairs {
            r.push(n, *v);
        }
        r
    }

    fn replicated(exec: &[f64], temp: &[f64]) -> RunRecord {
        let runs: Vec<RunRecord> = exec
            .iter()
            .zip(temp)
            .map(|(&e, &t)| record(&[("exec_s", e), ("max_peak_dram_c", t)]))
            .collect();
        let seeds: Vec<u64> = (0..runs.len() as u64).collect();
        fold_replicates("g", "cfg", &seeds, &runs)
    }

    fn run_set(name: &str, base: Option<&RunRecord>, cur: &RunRecord) -> Report {
        Report::new(set(name).expect("known set"), base, cur)
    }

    fn status(rep: &Report, metric: &str) -> Status {
        rep.rows
            .iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {metric}"))
            .status
    }

    #[test]
    fn band_passes_inside_tolerance() {
        let base = record(&[("exec_s", 1.0), ("max_peak_dram_c", 80.0)]);
        let cur = record(&[("exec_s", 1.04), ("max_peak_dram_c", 80.4)]);
        let rep = run_set("run", Some(&base), &cur);
        assert!(rep.failures().is_empty(), "{}", rep.render("b", "c"));
        assert!(!rep.config_mismatch);
        assert!(rep.render("b", "c").contains("PASS"));
    }

    #[test]
    fn band_flags_the_worse_direction_only() {
        let base = record(&[
            ("exec_s", 1.0),
            ("avg_pim_rate_op_ns", 1.0),
            ("shutdown", 0.0),
            ("ext_data_bytes", 1e9),
        ]);
        // exec_s regressed (+10 % > 5 %), PIM rate improved (higher is
        // better), shutdown appeared (zero tolerance), traffic fell.
        let cur = record(&[
            ("exec_s", 1.10),
            ("avg_pim_rate_op_ns", 2.0),
            ("shutdown", 1.0),
            ("ext_data_bytes", 0.2e9),
        ]);
        let rep = run_set("run", Some(&base), &cur);
        assert_eq!(status(&rep, "exec_s"), Status::Regressed);
        assert_eq!(status(&rep, "avg_pim_rate_op_ns"), Status::Ok);
        assert_eq!(status(&rep, "shutdown"), Status::Regressed);
        assert_eq!(status(&rep, "ext_data_bytes"), Status::Ok);
        assert_eq!(rep.failures().len(), 2);
        let table = rep.render("base", "cur");
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("FAIL: exec_s regressed"), "{table}");
        assert!(table.contains("FAIL: shutdown regressed"), "{table}");
    }

    #[test]
    fn band_metrics_missing_on_either_side_report_but_do_not_fail() {
        let base = replicated(&[1.0, 1.0, 1.0], &[80.0, 80.0, 80.0]);
        let rep = run_set("run", Some(&base), &RunRecord::new("empty", "cfg"));
        assert!(rep.failures().is_empty());
        assert_eq!(status(&rep, "exec_s"), Status::Missing);
        let rep = run_set("run", Some(&RunRecord::new("empty", "cfg")), &base);
        assert!(rep.failures().is_empty());
        assert_eq!(status(&rep, "exec_s"), Status::Missing);
        assert!(rep.render("b", "c").contains("missing"));
    }

    #[test]
    fn config_mismatch_is_a_warning() {
        let base = RunRecord::new("a", "cfg-a");
        let cur = RunRecord::new("a", "cfg-b");
        let rep = run_set("run", Some(&base), &cur);
        assert!(rep.config_mismatch);
        assert!(rep.failures().is_empty());
        assert!(rep.render("a", "b").contains("config hash differs"));
        assert!(rep
            .render_markdown("a", "b")
            .contains("config hash differs"));
    }

    #[test]
    fn identical_replicate_sets_pass() {
        let base = replicated(&[1.0, 1.1, 0.9], &[80.0, 81.0, 79.0]);
        let rep = run_set("run", Some(&base), &base);
        assert!(rep.failures().is_empty(), "{}", rep.render("b", "c"));
        assert!(rep.render("b", "c").contains("3v3"));
    }

    #[test]
    fn inflated_replicates_fail_with_named_effect() {
        let base = replicated(&[1.0, 1.05, 0.95], &[80.0, 81.0, 79.0]);
        let mut cur = base.clone();
        inflate(&mut cur, "exec_s", 1.5);
        assert_eq!(cur.distribution("exec_s").unwrap().summary.n, 3);
        let rep = run_set("run", Some(&base), &cur);
        let failures = rep.failures();
        assert_eq!(failures.len(), 1, "{}", rep.render("b", "c"));
        assert_eq!(failures[0].metric, "exec_s");
        let (p, effect) = failures[0].stat.expect("statistical path");
        assert!(effect > 1.0 && p <= ALPHA);
        assert!(rep.render("b", "c").contains("FAIL: exec_s regressed"));
        assert!(rep.render_markdown("b", "c").contains("**FAIL**"));
    }

    #[test]
    fn noise_outside_the_band_is_excused_when_not_significant() {
        // The medians differ by ~8 % (outside the 5 % exec_s band), but
        // the samples interleave, so no permutation split is extreme.
        let base = replicated(&[1.0, 1.2, 0.8], &[80.0, 80.0, 80.0]);
        let cur = replicated(&[1.08, 0.9, 1.19], &[80.0, 80.0, 80.0]);
        let rep = run_set("run", Some(&base), &cur);
        assert!(rep.failures().is_empty(), "{}", rep.render("b", "c"));
        assert_eq!(status(&rep, "exec_s"), Status::Excused);
        assert!(rep.render("b", "c").contains("excused"));
        assert!(rep.render_markdown("b", "c").contains("1 excused"));
    }

    #[test]
    fn single_runs_fall_back_to_the_band() {
        let base = record(&[("exec_s", 1.0)]);
        let cur = record(&[("exec_s", 1.2)]); // +20 % > 5 % band
        let rep = run_set("run", Some(&base), &cur);
        let failures = rep.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].stat.is_none());
        assert!(rep.render("b", "c").contains("band only"));
    }

    #[test]
    fn profile_gates_expand_their_patterns_against_the_baseline_keys() {
        let base = record(&[
            ("exec_s", 1.0),
            ("tprof.schema", 1.0),
            ("tprof.epoch.total_s", 0.4),
            ("tprof.epoch.calls", 7.0),
            ("tprof.epoch/gpu_advance.total_s", 0.3),
            ("tprof.epoch/gpu_advance.calls", 7.0),
            ("gauge.thermal_sweeps_per_substep", 40.0),
        ]);
        let mut cur = base.clone();
        cur.push("tprof.epoch.total_s", 0.8); // inside 2× + 50 ms
        cur.push("tprof.epoch/gpu_advance.calls", 14.0); // past 2 + 2 %
        cur.metrics
            .retain(|(n, _)| n != "tprof.epoch/gpu_advance.total_s");
        cur.push("tprof.only_in_current.calls", 1e9); // not in baseline
        let rep = run_set("profile", Some(&base), &cur);
        let metrics: Vec<&str> = rep.rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            metrics,
            [
                "tprof.epoch.total_s",
                "tprof.epoch/gpu_advance.total_s",
                "tprof.epoch.calls",
                "tprof.epoch/gpu_advance.calls",
                "gauge.thermal_sweeps_per_substep",
            ]
        );
        assert_eq!(status(&rep, "tprof.epoch.total_s"), Status::Ok);
        assert_eq!(
            status(&rep, "tprof.epoch/gpu_advance.total_s"),
            Status::Missing
        );
        assert_eq!(
            status(&rep, "tprof.epoch/gpu_advance.calls"),
            Status::Regressed
        );
        assert_eq!(rep.failures().len(), 1);

        // A baseline without a span tree shows each pattern as missing
        // rather than silently checking nothing.
        let rep = run_set("profile", Some(&record(&[])), &cur);
        assert_eq!(status(&rep, "tprof.*.total_s"), Status::Missing);
        assert!(rep.failures().is_empty());
    }

    #[test]
    fn ceilings_and_floors_fail_on_missing_metrics() {
        let rep = run_set("overhead", None, &record(&[]));
        assert_eq!(status(&rep, "telemetry_overhead_pct"), Status::Missing);
        assert_eq!(rep.failures().len(), 1);
        let text = rep.render("-", "c");
        assert!(text.contains("MISSING"), "{text}");
        assert!(
            text.contains("FAIL: telemetry_overhead_pct missing"),
            "{text}"
        );

        let rep = run_set("trace", None, &record(&[("trace.max_depth", 3.0)]));
        assert_eq!(status(&rep, "trace.max_depth"), Status::Ok);
        assert_eq!(status(&rep, "trace.tracks"), Status::Missing);
        assert_eq!(rep.failures().len(), 2);

        let ok = run_set(
            "overhead",
            None,
            &record(&[("telemetry_overhead_pct", 3.0)]),
        );
        assert!(ok.failures().is_empty(), "the ceiling is inclusive");
        let over = run_set(
            "overhead",
            None,
            &record(&[("telemetry_overhead_pct", 3.1)]),
        );
        assert!(over.render("-", "c").contains("above ceiling 3"));
        let low = run_set("trace", None, &record(&[("trace.max_depth", 2.0)]));
        assert_eq!(status(&low, "trace.max_depth"), Status::Regressed);
        assert!(low.render("-", "c").contains("below floor 3"));
    }

    #[test]
    fn non_finite_values_fail_in_memory_and_from_a_null_field() {
        let base = record(&[("exec_s", 1.0)]);
        let rep = run_set("run", Some(&base), &record(&[("exec_s", f64::NAN)]));
        assert_eq!(status(&rep, "exec_s"), Status::NotFinite);
        assert!(rep.render("b", "c").contains("FAIL: exec_s is not finite"));
        let rep = run_set("run", Some(&record(&[("exec_s", f64::NAN)])), &base);
        assert_eq!(status(&rep, "exec_s"), Status::NotFinite);
        let rep = run_set(
            "overhead",
            None,
            &record(&[("telemetry_overhead_pct", f64::INFINITY)]),
        );
        assert_eq!(rep.failures().len(), 1);

        // The writer encodes NaN as `null`; the gate must still see it.
        let dir = std::env::temp_dir().join(format!("coolpim-gate-null-{}", std::process::id()));
        let path = dir.join("null.json");
        record(&[("exec_s", f64::NAN)]).write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"exec_s\":null"), "{text}");
        let cur = RunRecord::load(&path).unwrap();
        let rep = run_set("run", Some(&base), &cur);
        assert_eq!(status(&rep, "exec_s"), Status::NotFinite);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn below_needs_the_current_median_strictly_under_the_baseline() {
        const P50: &str = "hist.warning_to_action_ps.p50";
        let sw = record(&[(P50, 134_217_728.0)]);
        let rep = run_set("control-loop", Some(&sw), &record(&[(P50, 2_097_152.0)]));
        assert!(rep.failures().is_empty(), "{}", rep.render("sw", "hw"));
        assert!(rep.render("sw", "hw").contains("< base"));

        let slower = run_set("control-loop", Some(&sw), &record(&[(P50, 268_435_456.0)]));
        assert_eq!(status(&slower, P50), Status::Regressed);
        let text = slower.render("sw", "hw");
        assert!(
            text.contains("not below the baseline's 134217728"),
            "{text}"
        );

        let equal = run_set("control-loop", Some(&sw), &sw);
        assert_eq!(status(&equal, P50), Status::Regressed);

        let missing = run_set("control-loop", Some(&sw), &record(&[]));
        assert_eq!(status(&missing, P50), Status::Missing);
        assert!(missing
            .render("sw", "hw")
            .contains("missing from the current record"));
        let no_base = run_set("control-loop", Some(&record(&[])), &sw);
        assert_eq!(no_base.failures().len(), 1);
        assert!(no_base
            .render("sw", "hw")
            .contains("missing from the baseline"));
    }

    #[test]
    fn an_absent_orphan_counter_reads_zero_and_one_orphan_fails() {
        let rec = record(&[("hist.warning_to_action_ps.p50", 1.0)]);
        let base = record(&[("hist.warning_to_action_ps.p50", 2.0)]);
        for name in ["run", "control-loop"] {
            let rep = run_set(name, Some(&base), &rec);
            assert_eq!(status(&rep, "counter.orphan_actions"), Status::Ok);
            let row = rep
                .rows
                .iter()
                .find(|r| r.metric == "counter.orphan_actions");
            assert_eq!(row.and_then(|r| r.current), Some(0.0));

            let mut orphan = rec.clone();
            orphan.push("counter.orphan_actions", 1.0);
            let rep = run_set(name, Some(&base), &orphan);
            assert_eq!(status(&rep, "counter.orphan_actions"), Status::Regressed);
            assert_eq!(rep.failures().len(), 1);
        }
        // Only counters default: other keys stay missing.
        let rep = run_set("trace", None, &record(&[]));
        assert_eq!(rep.failures().len(), 3);
    }

    #[test]
    fn only_banded_comparisons_warn_about_the_config_hash() {
        let hw = RunRecord::new("hw", "policy=hw");
        let sw = RunRecord::new("sw", "policy=sw");
        assert!(!run_set("control-loop", Some(&sw), &hw).config_mismatch);
        assert!(run_set("run", Some(&sw), &hw).config_mismatch);
    }

    #[test]
    fn committed_baselines_pass_their_own_sets() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (set_name, file) in [
            ("run", "results/baselines/ci_quick.json"),
            ("profile", "results/baselines/profile_quick.json"),
            ("run", "results/baselines/stat_quick_a.json"),
            ("run", "results/baselines/stat_quick_b.json"),
        ] {
            let gs = set(set_name).unwrap();
            let rec = RunRecord::load(&root.join(file)).expect(file);
            let rep = Report::new(gs, Some(&rec), &rec);
            assert!(
                rep.failures().is_empty(),
                "{file} under {set_name}:\n{}",
                rep.render(file, file)
            );
            assert!(
                rep.rows.iter().any(|r| r.status == Status::Ok),
                "{file} under {set_name} checked nothing"
            );
        }
    }

    #[test]
    fn every_set_is_named_once_and_only_comparing_sets_need_a_baseline() {
        for (i, s) in SETS.iter().enumerate() {
            assert!(SETS[..i].iter().all(|o| o.name != s.name), "{}", s.name);
        }
        let needs: Vec<&str> = SETS
            .iter()
            .filter(|s| s.needs_baseline())
            .map(|s| s.name)
            .collect();
        assert_eq!(needs, ["run", "profile", "control-loop"]);
        assert!(set("nope").is_none());
    }
}
