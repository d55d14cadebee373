//! Versioned per-run records.
//!
//! `sim --metrics-out FILE` writes a snapshot of one run — config
//! hash, headline metrics, telemetry counters/gauges/histogram
//! summaries, and the wall-clock profile — as one flat JSON object.
//! `obs gate` checks such a record against a named baseline and the
//! ceilings of a gate set (see `crate::gate`), which is what CI gates
//! on; `obs report --runs DIR` reads a directory of them.
//!
//! Records are self-describing: a `schema_version` field lets future
//! schema changes detect (and refuse, rather than mis-read) old files,
//! and a `config_hash` over the run configuration lets the gate warn
//! when a baseline was captured under different settings.

use std::path::Path;

use coolpim_core::cosim::CoSimResult;
use coolpim_telemetry::json::{parse_flat_object, JsonBuilder, JsonValue};

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

    /// Builds a record from a finished co-simulation: its
    /// [`CoSimResult::named_metrics`], in order.
    pub fn from_cosim(name: &str, config: &str, r: &CoSimResult) -> Self {
        let mut rec = Self::new(name, config);
        for (n, v) in r.named_metrics() {
            rec.push(&n, v);
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
            // `null` is how the writer encodes a non-finite value; keep
            // it as NaN so a gate sees (and fails) it instead of a gap.
            let value = match v {
                JsonValue::Num(n) => *n,
                JsonValue::Null => f64::NAN,
                _ => continue,
            };
            rec.metrics.push((k.to_string(), value));
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
    fn non_finite_metrics_round_trip_as_nan() {
        let r = record(&[("exec_s", f64::NAN), ("ok", 1.0)]);
        let json = r.to_json();
        assert!(json.contains("\"exec_s\":null"), "{json}");
        let back = RunRecord::from_json(&json).expect("parses");
        assert!(back.metric("exec_s").is_some_and(f64::is_nan));
        assert_eq!(back.metric("ok"), Some(1.0));
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
}
