//! Folding N seed-varied replicate runs into one versioned run record.
//!
//! A replicated record (schema v2, see [`crate::runrec`]) carries, for
//! every metric the replicates produced:
//!
//! * the **headline value** under the plain metric name — the median
//!   across replicates, so every `obs gate` ceiling and band works
//!   unchanged on replicated records;
//! * a **distribution block** under `dist.<metric>.*`: sample count
//!   (`n`), MAD (`mad`), extremes (`min`/`max`), the bootstrap 95 % CI
//!   on the median (`lo`/`hi`), and the raw per-replicate samples
//!   (`v0`…`v{n-1}`, aligned with the record's `seeds` list) — raw
//!   samples are what the `obs gate` permutation test resamples.
//!
//! Bootstrap seeds derive deterministically from the config hash and
//! metric name, so folding the same replicate set twice produces a
//! byte-identical record (modulo the capture timestamp).

use coolpim_telemetry::stats::{summarize, Summary};

use crate::runrec::{fnv1a, RunRecord};

/// Prefix of the folded distribution fields.
pub const DIST_PREFIX: &str = "dist.";

/// One metric's cross-replicate distribution, as stored in (and read
/// back from) a replicated record.
#[derive(Debug, Clone)]
pub struct Distribution {
    /// Robust summary (median, MAD, min/max, bootstrap CI).
    pub summary: Summary,
    /// Raw per-replicate samples in seed order.
    pub samples: Vec<f64>,
}

/// Folds per-replicate records into one replicated record named `name`.
/// `config` should describe the *shared* configuration (with the seed
/// list, not any single seed); `seeds` must parallel `runs`.
///
/// Metrics keep the insertion order of the first record, followed by
/// any names only later replicates produced. A metric missing from some
/// replicates folds over the samples that exist (its `dist.*.n` will be
/// below `runs.len()`).
pub fn fold_replicates(name: &str, config: &str, seeds: &[u64], runs: &[RunRecord]) -> RunRecord {
    assert!(!runs.is_empty(), "fold_replicates needs at least one run");
    assert_eq!(seeds.len(), runs.len(), "one seed per replicate run");
    let mut rec = RunRecord::new(name, config);
    rec.replicates = runs.len() as u64;
    rec.seeds = seeds.to_vec();

    // Union of metric names, first-record order first.
    let mut names: Vec<&str> = Vec::new();
    for run in runs {
        for (n, _) in &run.metrics {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
    }

    for metric in names {
        let samples: Vec<f64> = runs.iter().filter_map(|r| r.metric(metric)).collect();
        if samples.is_empty() {
            continue;
        }
        let s = summarize(&samples, rec.config_hash ^ fnv1a(metric));
        rec.push(metric, s.median);
        rec.push(&format!("{DIST_PREFIX}{metric}.n"), s.n as f64);
        rec.push(&format!("{DIST_PREFIX}{metric}.mad"), s.mad);
        rec.push(&format!("{DIST_PREFIX}{metric}.min"), s.min);
        rec.push(&format!("{DIST_PREFIX}{metric}.max"), s.max);
        rec.push(&format!("{DIST_PREFIX}{metric}.lo"), s.ci_lo);
        rec.push(&format!("{DIST_PREFIX}{metric}.hi"), s.ci_hi);
        for (i, v) in samples.iter().enumerate() {
            rec.push(&format!("{DIST_PREFIX}{metric}.v{i}"), *v);
        }
    }
    rec
}

impl RunRecord {
    /// The folded distribution of `metric`, if this record is
    /// replicated and carries one.
    pub fn distribution(&self, metric: &str) -> Option<Distribution> {
        let get = |f: &str| self.metric(&format!("{DIST_PREFIX}{metric}.{f}"));
        let n = get("n")? as usize;
        let samples: Vec<f64> = (0..n)
            .map_while(|i| self.metric(&format!("{DIST_PREFIX}{metric}.v{i}")))
            .collect();
        Some(Distribution {
            summary: Summary {
                n,
                mean: if samples.is_empty() {
                    f64::NAN
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                },
                median: self.metric(metric)?,
                mad: get("mad")?,
                min: get("min")?,
                max: get("max")?,
                ci_lo: get("lo")?,
                ci_hi: get("hi")?,
            },
            samples,
        })
    }

    /// The replicate samples behind `metric`: the raw distribution
    /// samples for a replicated record, the single value for an
    /// ordinary record, empty when the metric is absent. This is the
    /// unified accessor the statistical gate draws on.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        if let Some(d) = self.distribution(metric) {
            if !d.samples.is_empty() {
                return d.samples;
            }
        }
        self.metric(metric).into_iter().collect()
    }

    /// Names of the headline metrics (distribution fields excluded), in
    /// record order.
    pub fn headline_metrics(&self) -> impl Iterator<Item = &str> {
        self.metrics
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !n.starts_with(DIST_PREFIX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, exec: f64, temp: f64) -> RunRecord {
        let mut r = RunRecord::new("one", &format!("cfg seed={seed}"));
        r.push("exec_s", exec);
        r.push("max_peak_dram_c", temp);
        r
    }

    #[test]
    fn fold_produces_medians_distributions_and_samples() {
        let runs = [run(1, 1.0, 80.0), run(2, 3.0, 81.0), run(3, 2.0, 85.0)];
        let rec = fold_replicates("trip", "cfg seeds=1,2,3", &[1, 2, 3], &runs);
        assert!(rec.is_replicated());
        assert_eq!(rec.replicates, 3);
        assert_eq!(rec.seeds, vec![1, 2, 3]);
        // Headline = median, what every gate reads.
        assert_eq!(rec.metric("exec_s"), Some(2.0));
        let d = rec.distribution("exec_s").expect("distribution");
        assert_eq!(d.summary.n, 3);
        assert_eq!(d.samples, vec![1.0, 3.0, 2.0]); // seed order
        assert_eq!(d.summary.min, 1.0);
        assert_eq!(d.summary.max, 3.0);
        assert!(d.summary.ci_lo <= 2.0 && 2.0 <= d.summary.ci_hi);
        assert_eq!(rec.samples("exec_s"), vec![1.0, 3.0, 2.0]);
        // Headline listing skips dist.* fields.
        let names: Vec<&str> = rec.headline_metrics().collect();
        assert_eq!(names, vec!["exec_s", "max_peak_dram_c"]);
    }

    #[test]
    fn fold_survives_json_round_trip() {
        let runs = [run(7, 1.5, 80.0), run(8, 1.7, 82.0)];
        let rec = fold_replicates("rt", "cfg", &[7, 8], &runs);
        let back = RunRecord::from_json(&rec.to_json()).expect("parses");
        assert!(back.is_replicated());
        assert_eq!(back.seeds, vec![7, 8]);
        let d = back.distribution("max_peak_dram_c").expect("dist");
        assert_eq!(d.samples, vec![80.0, 82.0]);
        assert_eq!(d.summary.median, 81.0);
    }

    #[test]
    fn fold_is_deterministic_for_equal_inputs() {
        let runs = [run(1, 1.0, 80.0), run(2, 1.2, 81.0)];
        let a = fold_replicates("d", "cfg", &[1, 2], &runs);
        let b = fold_replicates("d", "cfg", &[1, 2], &runs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn partial_metrics_fold_over_present_samples() {
        let mut extra = run(2, 2.0, 81.0);
        extra.push("only_in_second", 9.0);
        let runs = [run(1, 1.0, 80.0), extra];
        let rec = fold_replicates("p", "cfg", &[1, 2], &runs);
        let d = rec.distribution("only_in_second").expect("dist");
        assert_eq!(d.summary.n, 1);
        assert_eq!(d.samples, vec![9.0]);
        assert_eq!(rec.metric("only_in_second"), Some(9.0));
    }

    #[test]
    fn single_run_records_answer_samples_with_one_value() {
        let r = run(1, 1.25, 80.0);
        assert_eq!(r.samples("exec_s"), vec![1.25]);
        assert!(r.samples("missing").is_empty());
        assert!(r.distribution("exec_s").is_none());
    }
}
