//! A small wall-clock benchmark harness (the `benches/` entry points are
//! plain `main` binaries built with `harness = false`).
//!
//! Each benchmark closure runs `iters` times per sample; the harness
//! calibrates `iters` so one sample lasts long enough to measure, takes
//! several samples, and reports per-iteration min/median/mean. The
//! sample count can be raised with `COOLPIM_BENCH_SAMPLES` for noisy
//! hosts.

use std::time::Instant;

/// Per-iteration timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample (after calibration).
    pub iters_per_sample: u64,
    /// Fastest sample (s/iter) — least noise-contaminated.
    pub min_s: f64,
    /// Median sample (s/iter) — the headline number.
    pub median_s: f64,
    /// Mean over all samples (s/iter).
    pub mean_s: f64,
}

impl Stats {
    /// One-line report in the conventional `time: [min median mean]`
    /// shape.
    pub fn report(&self) -> String {
        format!(
            "{:<40} time: [{} {} {}]  ({} iters/sample)",
            self.name,
            fmt_s(self.min_s),
            fmt_s(self.median_s),
            fmt_s(self.mean_s),
            self.iters_per_sample
        )
    }
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.4} s")
    } else if s >= 1e-3 {
        format!("{:.4} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.4} µs", s * 1e6)
    } else {
        format!("{:.2} ns", s * 1e9)
    }
}

/// Runs benchmarks and prints their reports.
#[derive(Debug, Clone)]
pub struct Runner {
    samples: usize,
    min_sample_s: f64,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// Default settings: 10 samples (override with
    /// `COOLPIM_BENCH_SAMPLES`), ≥20 ms per sample.
    pub fn new() -> Self {
        let samples = std::env::var("COOLPIM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(10);
        Self {
            samples,
            min_sample_s: 0.02,
        }
    }

    /// Benchmarks `f`, which must execute the measured operation `iters`
    /// times. Prints and returns the stats.
    pub fn bench_n(&self, name: &str, mut f: impl FnMut(u64)) -> Stats {
        // Calibrate: grow the batch until one sample is long enough that
        // timer quantisation is negligible. Doubles as warm-up.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            f(iters);
            let dt = t0.elapsed().as_secs_f64();
            if dt >= self.min_sample_s || iters >= 1 << 30 {
                break;
            }
            // Jump roughly to target, at least doubling.
            let target = (self.min_sample_s * 1.2 / dt.max(1e-9)) as u64;
            iters = (iters * 2).max(iters.saturating_mul(target)).min(1 << 30);
        }
        let mut per_iter: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                f(iters);
                t0.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let stats = Stats {
            name: name.to_string(),
            iters_per_sample: iters,
            min_s: per_iter[0],
            median_s: per_iter[per_iter.len() / 2],
            mean_s: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        println!("{}", stats.report());
        // Opt-in run record (COOLPIM_RUN_RECORD=<dir>) so wall-clock
        // benches feed the same store `obs` reads.
        if let Some(dir) = crate::runrec::run_record_dir() {
            let config = format!("bench={} samples={}", stats.name, self.samples);
            let mut rec = crate::runrec::RunRecord::new(&stats.name, &config);
            rec.push("iters_per_sample", stats.iters_per_sample as f64);
            rec.push("min_s", stats.min_s);
            rec.push("median_s", stats.median_s);
            rec.push("mean_s", stats.mean_s);
            if let Err(e) = rec.save_to_dir(&dir) {
                eprintln!("# run record {}: {e}", stats.name);
            }
        }
        stats
    }

    /// Benchmarks a plain closure (the harness adds the batching loop
    /// and keeps the result live via [`std::hint::black_box`]).
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Stats {
        self.bench_n(name, |iters| {
            for _ in 0..iters {
                std::hint::black_box(f());
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_per_iter_times() {
        let r = Runner {
            samples: 3,
            min_sample_s: 0.001,
        };
        let mut count = 0u64;
        let stats = r.bench("noop_counter", || {
            count += 1;
            count
        });
        assert!(stats.min_s > 0.0);
        assert!(stats.min_s <= stats.median_s);
        assert!(stats.iters_per_sample > 1, "cheap op should be batched");
        assert!(stats.report().contains("noop_counter"));
    }

    #[test]
    fn formatting_covers_all_scales() {
        assert!(fmt_s(2.0).ends_with(" s"));
        assert!(fmt_s(2e-3).ends_with(" ms"));
        assert!(fmt_s(2e-6).ends_with(" µs"));
        assert!(fmt_s(2e-9).ends_with(" ns"));
    }
}
