//! The cross-run statistical observatory behind `obs report`:
//! longitudinal reading of directories of run records. (`obs gate`
//! lives in `crate::gate`.)
//!
//! Two layers:
//!
//! * **Scanning** ([`scan_records`]) — walk directories of run records
//!   (schema v1 and v2), tolerating foreign JSON, and group them by
//!   `config_hash` in capture order ([`group_by_config`]) so each
//!   group is one configuration's history;
//! * **Trends** ([`metric_trends`]) — per metric: the value history, a
//!   sparkline, change-points (via `telemetry::stats`), and a
//!   noise-vs-signal classification.

use std::fmt::Write as _;
use std::path::PathBuf;

use coolpim_telemetry::stats::{change_points, median, noise_sigma};

use crate::heatmap::sparkline;
use crate::runrec::RunRecord;

// ---------------------------------------------------------------------
// Scanning and grouping
// ---------------------------------------------------------------------

/// One run record found on disk.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// Where it came from.
    pub path: PathBuf,
    /// The parsed record.
    pub rec: RunRecord,
}

/// Loads every `*.json` run record under each of `dirs` (one level, no
/// recursion), sorted by capture time then path for a stable order.
/// Files that are not run records produce warnings, not failures — the
/// results tree holds other JSON too.
pub fn scan_records(dirs: &[PathBuf]) -> (Vec<ScannedRecord>, Vec<String>) {
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for dir in dirs {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                warnings.push(format!("{}: {e}", dir.display()));
                continue;
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            match RunRecord::load(&path) {
                Ok(rec) => records.push(ScannedRecord { path, rec }),
                Err(e) => warnings.push(format!("skipped {e}")),
            }
        }
    }
    records.sort_by(|a, b| {
        (a.rec.unix_time_s, a.path.as_path()).cmp(&(b.rec.unix_time_s, b.path.as_path()))
    });
    (records, warnings)
}

/// One configuration's history: every scanned record sharing a
/// `config_hash`, in capture order.
#[derive(Debug, Clone)]
pub struct ConfigGroup {
    /// The shared configuration hash.
    pub config_hash: u64,
    /// Display name (taken from the first record).
    pub name: String,
    /// Records in capture order.
    pub records: Vec<ScannedRecord>,
}

/// Groups records by configuration hash, preserving capture order
/// within each group; groups are ordered by their earliest record.
pub fn group_by_config(records: Vec<ScannedRecord>) -> Vec<ConfigGroup> {
    let mut groups: Vec<ConfigGroup> = Vec::new();
    for sr in records {
        match groups
            .iter_mut()
            .find(|g| g.config_hash == sr.rec.config_hash)
        {
            Some(g) => g.records.push(sr),
            None => groups.push(ConfigGroup {
                config_hash: sr.rec.config_hash,
                name: sr.rec.name.clone(),
                records: vec![sr],
            }),
        }
    }
    groups
}

// ---------------------------------------------------------------------
// Trends
// ---------------------------------------------------------------------

/// Noise-vs-signal verdict for one metric's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Effectively constant.
    Flat,
    /// Varies, but within the series' own noise level and with no
    /// detected level shift.
    Noise,
    /// A detected change-point or a drifting tail: a real shift.
    Signal,
}

impl Classification {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Classification::Flat => "flat",
            Classification::Noise => "noise",
            Classification::Signal => "SIGNAL",
        }
    }
}

/// One metric's longitudinal trend across a config group.
#[derive(Debug, Clone)]
pub struct MetricTrend {
    /// Metric name.
    pub metric: String,
    /// Headline values in capture order (records missing the metric
    /// contribute no point).
    pub values: Vec<f64>,
    /// Indices (into `values`) where a new level starts.
    pub change_points: Vec<usize>,
    /// Noise-vs-signal verdict.
    pub class: Classification,
    /// Last-versus-first percentage change (0 when undefined).
    pub delta_pct: f64,
}

impl MetricTrend {
    /// Trend arrow for the last-vs-first direction.
    pub fn arrow(&self) -> &'static str {
        if self.delta_pct > 0.05 {
            "up"
        } else if self.delta_pct < -0.05 {
            "down"
        } else {
            "steady"
        }
    }
}

/// Classifies one value history. Change-points need ≥ 4 points; short
/// histories classify on relative spread alone.
fn classify(values: &[f64]) -> (Classification, Vec<usize>) {
    if values.len() < 2 {
        return (Classification::Flat, Vec::new());
    }
    let med = median(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let flat = (hi - lo).abs() <= 1e-12 + 1e-9 * med.abs();
    if flat {
        return (Classification::Flat, Vec::new());
    }
    let cuts = change_points(values, 2, 3.0);
    if !cuts.is_empty() {
        return (Classification::Signal, cuts);
    }
    // No level shift found: a tail sample far outside the series' own
    // noise band still counts as signal (a fresh regression has only
    // one point of history yet).
    let sigma = noise_sigma(values);
    let last = *values.last().expect("non-empty");
    if sigma > 0.0 && (last - med).abs() > 4.0 * sigma {
        (Classification::Signal, Vec::new())
    } else {
        (Classification::Noise, Vec::new())
    }
}

/// Computes per-metric trends for one group: every headline metric any
/// record carries, in first-seen order. Non-finite values contribute
/// no point.
pub fn metric_trends(group: &ConfigGroup) -> Vec<MetricTrend> {
    let mut names: Vec<&str> = Vec::new();
    for sr in &group.records {
        for n in sr.rec.headline_metrics() {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names
        .into_iter()
        .map(|metric| {
            let values: Vec<f64> = group
                .records
                .iter()
                .filter_map(|sr| sr.rec.metric(metric))
                .filter(|v| v.is_finite())
                .collect();
            let (class, cuts) = classify(&values);
            let delta_pct = match (values.first(), values.last()) {
                (Some(&f), Some(&l)) if f.abs() > 1e-12 => 100.0 * (l - f) / f,
                _ => 0.0,
            };
            MetricTrend {
                metric: metric.to_string(),
                values,
                change_points: cuts,
                class,
                delta_pct,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

/// Sparkline width used by both render targets.
const SPARK_WIDTH: usize = 24;

/// Renders the longitudinal report for `groups` as a terminal
/// dashboard.
pub fn render_terminal(groups: &[ConfigGroup], warnings: &[String]) -> String {
    let mut out = String::from("== cross-run observatory ==\n");
    for w in warnings {
        let _ = writeln!(out, "!! {w}");
    }
    if groups.is_empty() {
        out.push_str("no run records found\n");
        return out;
    }
    for g in groups {
        let reps: u64 = g.records.iter().map(|r| r.rec.replicates).sum();
        let _ = writeln!(
            out,
            "\n-- {}  (config {:016x}, {} record(s), {} run(s))",
            g.name,
            g.config_hash,
            g.records.len(),
            reps
        );
        let _ = writeln!(
            out,
            "{:<34} {:<SPARK_WIDTH$} {:>13} {:>13} {:>9} {:>7}  shifts",
            "metric", "history", "first", "last", "delta%", "class"
        );
        for t in metric_trends(g) {
            let cuts = if t.change_points.is_empty() {
                "-".to_string()
            } else {
                t.change_points
                    .iter()
                    .map(|c| format!("@{c}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                out,
                "{:<34} {:<SPARK_WIDTH$} {:>13.6} {:>13.6} {:>+8.2}% {:>7}  {}",
                t.metric,
                sparkline(&t.values, SPARK_WIDTH),
                t.values.first().copied().unwrap_or(f64::NAN),
                t.values.last().copied().unwrap_or(f64::NAN),
                t.delta_pct,
                t.class.label(),
                cuts
            );
        }
    }
    out
}

/// Renders the longitudinal report as a committable Markdown artifact.
pub fn render_markdown(groups: &[ConfigGroup], warnings: &[String]) -> String {
    let mut out = String::from("# Cross-run observatory\n");
    if !warnings.is_empty() {
        out.push_str("\n## Warnings\n\n");
        for w in warnings {
            let _ = writeln!(out, "- {w}");
        }
    }
    for g in groups {
        let _ = writeln!(
            out,
            "\n## {} (`{:016x}`)\n\n{} record(s): {}\n",
            g.name,
            g.config_hash,
            g.records.len(),
            g.records
                .iter()
                .map(|r| format!("`{}`", r.path.display()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("| metric | history | first | last | Δ% | trend | class | shifts |\n");
        out.push_str("|---|---|---:|---:|---:|---|---|---|\n");
        for t in metric_trends(g) {
            let cuts = if t.change_points.is_empty() {
                "—".to_string()
            } else {
                t.change_points
                    .iter()
                    .map(|c| format!("@{c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "| `{}` | `{}` | {:.6} | {:.6} | {:+.2}% | {} | {} | {} |",
                t.metric,
                sparkline(&t.values, SPARK_WIDTH),
                t.values.first().copied().unwrap_or(f64::NAN),
                t.values.last().copied().unwrap_or(f64::NAN),
                t.delta_pct,
                t.arrow(),
                t.class.label(),
                cuts
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trends_classify_step_noise_and_flat() {
        // Irregular small-amplitude noise (a regular pattern would make
        // the MAD of first differences collapse to zero, which reads as
        // a noise-free series of many tiny real steps).
        const NOISE: [f64; 12] = [
            0.004, -0.006, 0.011, -0.002, 0.007, -0.009, 0.001, 0.013, -0.005, 0.008, -0.012, 0.003,
        ];
        let mut records = Vec::new();
        for i in 0..12u64 {
            let mut r = RunRecord::new("hist", "cfg");
            r.unix_time_s = i;
            // Stepped metric: jumps at index 6. Noisy metric: bounded
            // wiggle. Flat metric: constant.
            r.push("stepped", if i < 6 { 1.0 } else { 2.0 } + NOISE[i as usize]);
            r.push("noisy", 5.0 + 40.0 * NOISE[i as usize]);
            r.push("flat", 3.0);
            records.push(ScannedRecord {
                path: PathBuf::from(format!("r{i}.json")),
                rec: r,
            });
        }
        let groups = group_by_config(records);
        assert_eq!(groups.len(), 1);
        let trends = metric_trends(&groups[0]);
        let find = |m: &str| trends.iter().find(|t| t.metric == m).unwrap();
        assert_eq!(find("stepped").class, Classification::Signal);
        assert_eq!(find("stepped").change_points, vec![6]);
        assert_eq!(find("noisy").class, Classification::Noise);
        assert_eq!(find("flat").class, Classification::Flat);
        let term = render_terminal(&groups, &[]);
        assert!(term.contains("SIGNAL") && term.contains("stepped"));
        let md = render_markdown(&groups, &[]);
        assert!(md.contains("| `stepped` |") && md.contains("SIGNAL"));
    }

    #[test]
    fn grouping_separates_config_hashes() {
        let a = RunRecord::new("a", "cfg-a");
        let b = RunRecord::new("b", "cfg-b");
        let a2 = RunRecord::new("a", "cfg-a");
        let groups = group_by_config(
            [a, b, a2]
                .into_iter()
                .enumerate()
                .map(|(i, rec)| ScannedRecord {
                    path: PathBuf::from(format!("{i}.json")),
                    rec,
                })
                .collect(),
        );
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].records.len(), 2);
        assert_eq!(groups[1].records.len(), 1);
    }

    #[test]
    fn scan_tolerates_foreign_json() {
        let dir = std::env::temp_dir().join(format!("coolpim-obs-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = RunRecord::new("ok", "cfg");
        r.push("exec_s", 1.0);
        r.write_to(&dir.join("good.json")).unwrap();
        std::fs::write(dir.join("bad.json"), "{not json").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let (records, warnings) = scan_records(std::slice::from_ref(&dir));
        assert_eq!(records.len(), 1);
        assert_eq!(warnings.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
