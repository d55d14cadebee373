//! Versioned per-run records and the cross-run regression gate.
//!
//! Every driver (`sim`, `eval_all`, the wall-clock harness) can append a
//! snapshot of one run — config hash, headline metrics, telemetry
//! counters/gauges/histogram summaries, and the wall-clock profile — to
//! `results/runs/*.json` as one flat JSON object. `bench_compare` diffs
//! such a record against a named baseline with per-metric tolerance
//! bands and exits non-zero on regression, which is what CI gates on.
//!
//! Records are self-describing: a `schema_version` field lets future
//! schema changes detect (and refuse, rather than mis-read) old files,
//! and a `config_hash` over the run configuration lets the comparator
//! warn when a baseline was captured under different settings.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use coolpim_core::cosim::CoSimResult;
use coolpim_telemetry::json::{parse_flat_object, FlatValue, JsonBuilder};
use coolpim_telemetry::Tolerance;

/// Version stamped into every record; bump on incompatible layout
/// changes so the comparator can refuse mixed-version diffs.
///
/// v2 (the cross-run observatory) adds replicated-run identity — a
/// `replicates` count and the comma-joined `seeds` list — plus the
/// folded `dist.<metric>.*` distribution fields (see
/// `crate::replicate`). v1 records remain readable: every v2 addition
/// is a new field with a safe default.
pub const RUN_RECORD_SCHEMA_VERSION: u64 = 2;

/// Oldest schema version this build still reads.
pub const MIN_RUN_RECORD_SCHEMA_VERSION: u64 = 1;

/// Environment variable the drivers consult: when set to a directory,
/// every run appends its record there (see [`RunRecord::save_to_dir`]).
pub const RUN_RECORD_ENV: &str = "COOLPIM_RUN_RECORD";

/// FNV-1a 64-bit hash (stable across runs and platforms, unlike
/// [`std::hash`] which is randomized per process).
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One run's snapshot: identity plus a flat list of named numeric
/// metrics (everything the comparator can band-check).
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Schema version of this record.
    pub schema_version: u64,
    /// Run label, e.g. `pagerank-coolpim-sw`.
    pub name: String,
    /// FNV-1a hash of the run-configuration description.
    pub config_hash: u64,
    /// Capture time (Unix seconds; 0 when unavailable).
    pub unix_time_s: u64,
    /// Number of seed-varied replicate runs folded into this record
    /// (1 for an ordinary single run; see `crate::replicate`).
    pub replicates: u64,
    /// The replicate seeds, in run order (empty for a single run).
    pub seeds: Vec<u64>,
    /// Metric name → value, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// An empty record for `name`, hashing `config` for later
    /// compatibility checks.
    pub fn new(name: &str, config: &str) -> Self {
        let unix_time_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Self {
            schema_version: RUN_RECORD_SCHEMA_VERSION,
            name: name.to_string(),
            config_hash: fnv1a(config),
            unix_time_s,
            replicates: 1,
            seeds: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Whether this record folds several seed-varied replicate runs
    /// (and therefore carries `dist.<metric>.*` distribution fields).
    pub fn is_replicated(&self) -> bool {
        self.replicates > 1
    }

    /// Appends one metric (replacing any previous value of the name).
    pub fn push(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Metric value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Builds a record from a finished co-simulation: headline results,
    /// every telemetry counter/gauge, and histogram summaries.
    pub fn from_cosim(name: &str, config: &str, r: &CoSimResult) -> Self {
        let mut rec = Self::new(name, config);
        rec.push("exec_s", r.exec_s);
        rec.push("max_peak_dram_c", r.max_peak_dram_c);
        rec.push("avg_pim_rate_op_ns", r.avg_pim_rate_op_ns);
        rec.push("ext_data_bytes", r.ext_data_bytes);
        rec.push("l2_hit_rate", r.l2_hit_rate);
        rec.push("cube_energy_j", r.cube_energy_j);
        rec.push("fan_energy_j", r.fan_energy_j);
        rec.push("offload_fraction", r.gpu.offload_fraction());
        rec.push("kernel_launches", r.gpu.launches as f64);
        rec.push("pim_ops", r.hmc.pim_ops as f64);
        rec.push("reads", r.hmc.reads as f64);
        rec.push("writes", r.hmc.writes as f64);
        rec.push("throttle_steps", r.throttle_steps as f64);
        rec.push("shutdown", u64::from(r.shutdown) as f64);
        rec.push("timed_out", u64::from(r.timed_out) as f64);
        rec.push("telemetry_overhead_pct", r.telemetry_overhead_pct);
        rec.push("postmortem_dumps", r.postmortem_dumps.len() as f64);
        for (n, v) in &r.metrics.counters {
            rec.push(&format!("counter.{n}"), *v as f64);
        }
        for (n, v) in &r.metrics.gauges {
            rec.push(&format!("gauge.{n}"), *v);
        }
        for (n, h) in &r.metrics.hists {
            rec.push(&format!("hist.{n}.count"), h.count as f64);
            rec.push(&format!("hist.{n}.mean"), h.mean);
            rec.push(&format!("hist.{n}.p50"), h.p50 as f64);
            rec.push(&format!("hist.{n}.p90"), h.p90 as f64);
            rec.push(&format!("hist.{n}.p99"), h.p99 as f64);
            rec.push(&format!("hist.{n}.max"), h.max as f64);
        }
        rec
    }

    /// Serializes the record as one flat JSON object. The config hash
    /// is written as a hex string: a full 64-bit value would lose
    /// precision through the f64 number path of the flat-JSON parser.
    pub fn to_json(&self) -> String {
        let mut b = JsonBuilder::new();
        b.u64("schema_version", self.schema_version)
            .str("name", &self.name)
            .str("config_hash", &format!("{:016x}", self.config_hash))
            .u64("unix_time_s", self.unix_time_s);
        if self.replicates > 1 {
            b.u64("replicates", self.replicates);
            let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
            b.str("seeds", &seeds.join(","));
        }
        for (n, v) in &self.metrics {
            b.f64(n, *v);
        }
        b.finish()
    }

    /// Parses a record. Returns `Err` on malformed JSON or a schema
    /// version this build does not understand.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let o = parse_flat_object(text.trim()).ok_or("not a flat JSON object")?;
        let version = o
            .u64_field("schema_version")
            .ok_or("missing schema_version")?;
        if !(MIN_RUN_RECORD_SCHEMA_VERSION..=RUN_RECORD_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "schema version {version} (this build reads \
                 {MIN_RUN_RECORD_SCHEMA_VERSION}..={RUN_RECORD_SCHEMA_VERSION})"
            ));
        }
        let mut rec = Self {
            schema_version: version,
            name: o.str_field("name").unwrap_or("?").to_string(),
            config_hash: o
                .str_field("config_hash")
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0),
            unix_time_s: o.u64_field("unix_time_s").unwrap_or(0),
            replicates: o.u64_field("replicates").unwrap_or(1).max(1),
            seeds: o
                .str_field("seeds")
                .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
                .unwrap_or_default(),
            metrics: Vec::new(),
        };
        for (k, v) in o.iter() {
            if matches!(
                k,
                "schema_version" | "name" | "config_hash" | "unix_time_s" | "replicates" | "seeds"
            ) {
                continue;
            }
            if let FlatValue::Num(n) = v {
                rec.metrics.push((k.to_string(), *n));
            }
        }
        Ok(rec)
    }

    /// Reads a record file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the record to `path` (creating parent directories).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Appends the record to `dir` as `<name>-<unix_time>.json`
    /// (non-filename characters in the name become `-`). Returns the
    /// path written.
    pub fn save_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let slug: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{slug}-{}.json", self.unix_time_s));
        self.write_to(&path)?;
        Ok(path)
    }
}

/// One gated metric: a [`Tolerance`] band around the baseline value —
/// the same `abs + rel·|baseline|` vocabulary the lockstep oracle and
/// the solver equivalence tests use. A move past the band's slack in
/// the *worse* direction is a regression, any move in the better
/// direction never is.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Metric key in the record.
    pub metric: &'static str,
    /// Tolerance band around the baseline.
    pub tol: Tolerance,
    /// Whether larger values are worse (execution time, temperature) as
    /// opposed to smaller-is-worse throughput metrics.
    pub higher_is_worse: bool,
}

/// The default regression gate: the headline CoolPIM quality and
/// performance metrics with tolerances sized to simulation determinism
/// (tight) and log2 histogram granularity (a factor of two).
pub const DEFAULT_GATES: &[Gate] = &[
    Gate {
        metric: "exec_s",
        tol: Tolerance::rel(0.05),
        higher_is_worse: true,
    },
    Gate {
        metric: "max_peak_dram_c",
        tol: Tolerance::abs(0.5),
        higher_is_worse: true,
    },
    Gate {
        metric: "avg_pim_rate_op_ns",
        tol: Tolerance::rel(0.05),
        higher_is_worse: false,
    },
    Gate {
        metric: "ext_data_bytes",
        tol: Tolerance::rel(0.05),
        higher_is_worse: true,
    },
    Gate {
        metric: "throttle_steps",
        tol: Tolerance::abs(2.0),
        higher_is_worse: true,
    },
    Gate {
        metric: "shutdown",
        tol: Tolerance::EXACT,
        higher_is_worse: true,
    },
    Gate {
        // Log2-bucketed percentile: identical behaviour can move one
        // bucket, so allow a full factor of two.
        metric: "hist.warning_to_action_ps.p50",
        tol: Tolerance::rel(1.0),
        higher_is_worse: true,
    },
    Gate {
        // Wall-clock share, so inherently noisy across machines: the
        // band matches the absolute CI budget (< 3 %) rather than the
        // baseline value. The hard ceiling is asserted separately via
        // `bench_compare --assert-max`.
        metric: "telemetry_overhead_pct",
        tol: Tolerance::abs(3.0),
        higher_is_worse: true,
    },
    Gate {
        // Dump count is deterministic for a fixed seed; a small slack
        // absorbs trigger-ordering changes near the threshold.
        metric: "postmortem_dumps",
        tol: Tolerance::abs(2.0),
        higher_is_worse: true,
    },
];

/// Verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the tolerance band.
    Ok,
    /// Beyond tolerance in the worse direction.
    Regressed,
    /// Metric absent from one of the records.
    Missing,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric key.
    pub metric: &'static str,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Current value, if present.
    pub current: Option<f64>,
    /// Verdict.
    pub status: GateStatus,
}

/// Result of [`compare`].
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-gate rows, in gate order.
    pub rows: Vec<GateRow>,
    /// Whether the two records hash different configurations (a warning,
    /// not a failure — baselines legitimately age across config changes).
    pub config_mismatch: bool,
}

impl CompareReport {
    /// Number of regressed gates.
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == GateStatus::Regressed)
            .count()
    }

    /// Renders the comparison as a fixed-width table plus verdict line.
    pub fn render(&self, baseline_name: &str, current_name: &str) -> String {
        let mut out =
            format!("== bench_compare ==  baseline: {baseline_name}   current: {current_name}\n");
        if self.config_mismatch {
            out.push_str("!! config hash differs from the baseline (tolerances still apply)\n");
        }
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>9}  status",
            "metric", "baseline", "current", "delta%"
        );
        for r in &self.rows {
            let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
            let delta = match (r.baseline, r.current) {
                (Some(b), Some(c)) if b.abs() > 1e-12 => format!("{:+.2}", 100.0 * (c - b) / b),
                _ => "-".to_string(),
            };
            let status = match r.status {
                GateStatus::Ok => "ok",
                GateStatus::Regressed => "REGRESSED",
                GateStatus::Missing => "missing",
            };
            let _ = writeln!(
                out,
                "{:<34} {:>14} {:>14} {:>9}  {}",
                r.metric,
                fmt(r.baseline),
                fmt(r.current),
                delta,
                status
            );
        }
        let _ = writeln!(
            out,
            "{} gate(s), {} regression(s)",
            self.rows.len(),
            self.regressions()
        );
        out
    }
}

/// Diffs `current` against `baseline` over `gates` (use
/// [`DEFAULT_GATES`] for the standard CI set). A missing metric on
/// either side is reported but never counts as a regression — gates on
/// metrics a configuration does not produce (e.g. the warning→action
/// histogram of a run whose loop never engaged) would otherwise flap.
pub fn compare(baseline: &RunRecord, current: &RunRecord, gates: &[Gate]) -> CompareReport {
    let rows = gates
        .iter()
        .map(|g| {
            let b = baseline.metric(g.metric);
            let c = current.metric(g.metric);
            let status = match (b, c) {
                (Some(b), Some(c)) => {
                    let worse = if g.higher_is_worse { c - b } else { b - c };
                    if worse > g.tol.slack(b) {
                        GateStatus::Regressed
                    } else {
                        GateStatus::Ok
                    }
                }
                _ => GateStatus::Missing,
            };
            GateRow {
                metric: g.metric,
                baseline: b,
                current: c,
                status,
            }
        })
        .collect();
    CompareReport {
        rows,
        config_mismatch: baseline.config_hash != current.config_hash,
    }
}

/// The run-record directory requested via [`RUN_RECORD_ENV`], if any.
pub fn run_record_dir() -> Option<PathBuf> {
    std::env::var(RUN_RECORD_ENV)
        .ok()
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pairs: &[(&str, f64)]) -> RunRecord {
        let mut r = RunRecord::new("test", "cfg-a");
        for (n, v) in pairs {
            r.push(n, *v);
        }
        r
    }

    #[test]
    fn json_round_trip_preserves_identity_and_metrics() {
        let mut r = record(&[("exec_s", 0.125), ("hist.lat.p50", 4096.0)]);
        r.push("exec_s", 0.25); // replaces, no duplicate key
        let back = RunRecord::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.schema_version, RUN_RECORD_SCHEMA_VERSION);
        assert_eq!(back.name, "test");
        assert_eq!(back.config_hash, fnv1a("cfg-a"));
        assert_eq!(back.metric("exec_s"), Some(0.25));
        assert_eq!(back.metric("hist.lat.p50"), Some(4096.0));
        assert_eq!(back.metrics.len(), 2);
    }

    #[test]
    fn v1_records_still_parse_and_replicated_identity_round_trips() {
        let v1 = r#"{"schema_version":1,"name":"old","config_hash":"00000000000000ff","unix_time_s":5,"exec_s":1.5}"#;
        let rec = RunRecord::from_json(v1).expect("v1 parses");
        assert_eq!(rec.schema_version, 1);
        assert_eq!(rec.replicates, 1);
        assert!(!rec.is_replicated());
        assert_eq!(rec.metric("exec_s"), Some(1.5));

        let mut r = RunRecord::new("rep", "cfg");
        r.replicates = 3;
        r.seeds = vec![42, 43, 44];
        r.push("exec_s", 2.0);
        let back = RunRecord::from_json(&r.to_json()).expect("v2 parses");
        assert!(back.is_replicated());
        assert_eq!(back.seeds, vec![42, 43, 44]);
        assert_eq!(back.metric("exec_s"), Some(2.0));
        // Single-run v2 records stay free of replicate fields.
        assert!(!record(&[]).to_json().contains("replicates"));
    }

    #[test]
    fn unknown_schema_versions_are_refused() {
        let txt = r#"{"schema_version":99,"name":"x","config_hash":1,"unix_time_s":0}"#;
        let err = RunRecord::from_json(txt).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        assert!(RunRecord::from_json("not json").is_err());
        assert!(RunRecord::from_json("{}").is_err(), "missing version");
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
        // Known FNV-1a vector.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn compare_passes_inside_the_band() {
        let base = record(&[("exec_s", 1.0), ("max_peak_dram_c", 80.0)]);
        let cur = record(&[("exec_s", 1.04), ("max_peak_dram_c", 80.4)]);
        let rep = compare(&base, &cur, DEFAULT_GATES);
        assert_eq!(rep.regressions(), 0);
        assert!(!rep.config_mismatch);
    }

    #[test]
    fn compare_flags_worse_direction_only() {
        let base = record(&[
            ("exec_s", 1.0),
            ("avg_pim_rate_op_ns", 1.0),
            ("shutdown", 0.0),
        ]);
        // exec_s regressed (+10% > 5%), PIM rate improved (higher is
        // better), shutdown appeared (zero tolerance).
        let cur = record(&[
            ("exec_s", 1.10),
            ("avg_pim_rate_op_ns", 2.0),
            ("shutdown", 1.0),
        ]);
        let rep = compare(&base, &cur, DEFAULT_GATES);
        let status = |m: &str| {
            rep.rows
                .iter()
                .find(|r| r.metric == m)
                .map(|r| r.status)
                .unwrap()
        };
        assert_eq!(status("exec_s"), GateStatus::Regressed);
        assert_eq!(status("avg_pim_rate_op_ns"), GateStatus::Ok);
        assert_eq!(status("shutdown"), GateStatus::Regressed);
        assert_eq!(rep.regressions(), 2);
        let table = rep.render("base", "cur");
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("2 regression(s)"));
    }

    #[test]
    fn improvements_in_lower_is_better_metrics_pass() {
        let base = record(&[("exec_s", 1.0), ("ext_data_bytes", 1e9)]);
        let cur = record(&[("exec_s", 0.5), ("ext_data_bytes", 0.2e9)]);
        assert_eq!(compare(&base, &cur, DEFAULT_GATES).regressions(), 0);
    }

    #[test]
    fn missing_metrics_report_but_do_not_fail() {
        let base = record(&[("exec_s", 1.0)]);
        let cur = record(&[]);
        let rep = compare(&base, &cur, DEFAULT_GATES);
        assert_eq!(rep.regressions(), 0);
        assert!(rep.rows.iter().all(|r| r.status != GateStatus::Regressed));
        assert!(rep
            .rows
            .iter()
            .any(|r| r.metric == "exec_s" && r.status == GateStatus::Missing));
    }

    #[test]
    fn config_mismatch_is_surfaced_as_warning() {
        let base = RunRecord::new("a", "cfg-a");
        let cur = RunRecord::new("a", "cfg-b");
        let rep = compare(&base, &cur, DEFAULT_GATES);
        assert!(rep.config_mismatch);
        assert!(rep.render("a", "b").contains("config hash differs"));
    }

    #[test]
    fn save_to_dir_slugs_the_name() {
        let mut r = RunRecord::new("pagerank/CoolPIM(SW)", "cfg");
        r.push("exec_s", 1.0);
        let dir = std::env::temp_dir().join(format!("coolpim-runrec-{}", std::process::id()));
        let path = r.save_to_dir(&dir).expect("writes");
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(file.starts_with("pagerank-CoolPIM-SW-"), "{file}");
        let back = RunRecord::load(&path).expect("loads");
        assert_eq!(back.name, "pagerank/CoolPIM(SW)");
        std::fs::remove_dir_all(&dir).ok();
    }
}
