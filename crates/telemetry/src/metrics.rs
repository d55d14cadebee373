//! Named counters, gauges, and latency histograms.
//!
//! The registry is drained once per run into a cloneable
//! [`MetricsSnapshot`]; hot-path producers (the cube's per-transaction
//! latencies) record into standalone [`Histogram`]s — a fixed array of
//! power-of-two buckets, no allocation per sample — and fold them into
//! the registry at epoch or end-of-run granularity.

/// Number of power-of-two buckets in a [`Histogram`] (covers u64).
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (e.g. picosecond
/// latencies). Bucket `i` holds samples whose value has `i` significant
/// bits, i.e. the range `[2^(i-1), 2^i)` with bucket 0 holding zero.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Constant time, no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[bucket.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), e.g. `quantile(0.99)`. Bucket-granular: accurate
    /// to a factor of two, which is what a log-scale latency profile
    /// needs.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Median (bucket upper bound) — `quantile(0.50)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Raw per-bucket counts (bucket `i` covers `[2^(i-1), 2^i)`, bucket
    /// 0 holds zero).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// A cloneable summary for snapshots.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// Condensed view of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A registry of named metrics, drained per run.
///
/// Lookups are linear over small `Vec`s — the registry is touched at
/// epoch granularity (thousands of times per run), not per transaction.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    hists: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn count(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((name, value)),
        }
    }

    /// Sets the gauge to the max of its current and `value`.
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = v.max(value),
            None => self.gauges.push((name, value)),
        }
    }

    /// Folds a producer-side histogram into the named histogram.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        match self.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.merge(h),
            None => self.hists.push((name, h.clone())),
        }
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        match self.hists.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.hists.push((name, h));
            }
        }
    }

    /// Current value of a counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Drains the registry into a cloneable snapshot, resetting it.
    pub fn take_snapshot(&mut self) -> MetricsSnapshot {
        let reg = std::mem::take(self);
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            hists: reg
                .hists
                .iter()
                .map(|(n, h)| (n.to_string(), h.summary()))
                .collect(),
        }
    }
}

/// Cloneable end-of-run view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → total.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary.
    pub hists: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Whether the snapshot carries no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Counter total by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Folds `other` in: counters and histogram counts add, gauges take
    /// the maximum (they are peaks/levels, not totals).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = mine.max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.hists {
            match self.hists.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    // Count-weighted merge of summaries (full-resolution
                    // merges happen registry-side via `merge_histogram`).
                    let total = mine.count + h.count;
                    if total > 0 {
                        mine.mean = (mine.mean * mine.count as f64 + h.mean * h.count as f64)
                            / total as f64;
                    }
                    mine.count = total;
                    mine.min = if mine.count == 0 {
                        h.min
                    } else {
                        mine.min.min(h.min)
                    };
                    mine.max = mine.max.max(h.max);
                    mine.p50 = mine.p50.max(h.p50);
                    mine.p90 = mine.p90.max(h.p90);
                    mine.p99 = mine.p99.max(h.p99);
                }
                None => self.hists.push((name.clone(), *h)),
            }
        }
    }

    /// Renders a fixed-format summary block (counters, gauges, then
    /// histograms), ready to print under the metric report.
    pub fn render(&self) -> String {
        let mut out = String::from("== metrics ==\n");
        let mut counters = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (n, v) in &counters {
            out.push_str(&format!("{n:<34} {v}\n"));
        }
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (n, v) in &gauges {
            out.push_str(&format!("{n:<34} {v:.3}\n"));
        }
        let mut hists = self.hists.clone();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (n, h) in &hists {
            out.push_str(&format!(
                "{:<34} n={} mean={:.0} p50≤{} p90≤{} p99≤{} max={}\n",
                n, h.count, h.mean, h.p50, h.p90, h.p99, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-9);
        // Median of 7 samples is the 4th (value 3) → bucket [2,4).
        assert_eq!(h.quantile(0.5), 4);
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_single_bucket() {
        // All samples land in bucket [64, 128): every percentile reports
        // that bucket's upper bound.
        let mut h = Histogram::new();
        for v in [64u64, 100, 127] {
            h.record(v);
        }
        assert_eq!(h.p50(), 128);
        assert_eq!(h.p90(), 128);
        assert_eq!(h.p99(), 128);
    }

    #[test]
    fn percentiles_saturating_bucket() {
        // u64::MAX has 64 significant bits → bucket index 64, clamped to
        // the last bucket (63). The shift `1 << 63` must not overflow
        // and percentiles must stay ordered.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.p50(), 1u64 << 63);
        assert_eq!(h.p99(), 1u64 << 63);
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn percentiles_are_monotonic_across_spread_samples() {
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(i * i);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        let s = h.summary();
        assert_eq!(s.p90, h.p90());
    }

    #[test]
    fn histograms_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 2000);
    }

    #[test]
    fn merge_equals_combined() {
        // Recording the union of two sample streams into one histogram
        // must equal recording them separately and merging — the
        // windowed-percentile path (live display merges per-interval
        // histograms) depends on this.
        let xs: Vec<u64> = (0..50u64).map(|i| i * 7 % 1024).collect();
        let ys: Vec<u64> = (0..80u64).map(|i| i * i % 100_000).collect();
        let mut combined = Histogram::new();
        for &v in xs.iter().chain(ys.iter()) {
            combined.record(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &xs {
            a.record(v);
        }
        for &v in &ys {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), combined.bucket_counts());
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.summary(), combined.summary());
    }

    #[test]
    fn reset_clears_to_empty() {
        let mut h = Histogram::new();
        for v in [1u64, 50, 9000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.bucket_counts(), Histogram::new().bucket_counts());
        assert_eq!(h.summary(), HistogramSummary::default());
        // A reset histogram records as if fresh (min tracking intact).
        h.record(42);
        assert_eq!(h.min(), 42);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_counts_gauges_and_snapshots() {
        let mut m = MetricsRegistry::new();
        m.count("epochs", 1);
        m.count("epochs", 1);
        m.gauge("pool_size", 96.0);
        m.gauge("pool_size", 92.0);
        m.gauge_max("peak_dram_c", 80.0);
        m.gauge_max("peak_dram_c", 75.0);
        m.observe("hmc_service_ps", 50_000);
        assert_eq!(m.counter_value("epochs"), 2);
        assert_eq!(m.gauge_value("pool_size"), Some(92.0));
        let snap = m.take_snapshot();
        assert_eq!(snap.counter("epochs"), 2);
        assert_eq!(snap.gauge("peak_dram_c"), Some(80.0));
        assert_eq!(snap.histogram("hmc_service_ps").unwrap().count, 1);
        // Registry is reset after the drain.
        assert_eq!(m.counter_value("epochs"), 0);
    }

    #[test]
    fn snapshots_merge_across_runs() {
        let mut m1 = MetricsRegistry::new();
        m1.count("epochs", 3);
        m1.gauge("peak_dram_c", 70.0);
        m1.observe("lat", 10);
        let mut m2 = MetricsRegistry::new();
        m2.count("epochs", 4);
        m2.gauge("peak_dram_c", 90.0);
        m2.observe("lat", 30);
        let mut s = m1.take_snapshot();
        s.merge(&m2.take_snapshot());
        assert_eq!(s.counter("epochs"), 7);
        assert_eq!(s.gauge("peak_dram_c"), Some(90.0));
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_every_metric() {
        let mut m = MetricsRegistry::new();
        m.count("pim_ops", 5);
        m.gauge("warp_cap", 6.0);
        m.observe("lat", 100);
        let s = m.take_snapshot().render();
        assert!(s.contains("pim_ops"));
        assert!(s.contains("warp_cap"));
        assert!(s.contains("lat"));
        assert!(s.starts_with("== metrics =="));
    }
}
