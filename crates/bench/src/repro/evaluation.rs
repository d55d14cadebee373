//! The evaluation section: Figs. 10–13 from one workload × policy
//! matrix (`eval_all`) and the Fig. 14 timeline.

use std::fmt::Write;

use coolpim_core::cosim::{CoSimConfig, CoSimResult};
use coolpim_core::experiment::{mean_speedup, Cell, WorkloadResults};
use coolpim_core::policy::Policy;
use coolpim_core::report::{f, Table};
use coolpim_graph::workloads::Workload;
use coolpim_telemetry::MetricsSnapshot;

/// One per-workload figure of the evaluation matrix: a row per
/// workload, a column per policy.
struct Figure {
    title: &'static str,
    /// Column labels, one per entry of `policies`.
    columns: &'static [&'static str],
    policies: &'static [Policy],
    /// The plotted value of one workload's run under one policy.
    value: fn(&WorkloadResults, Policy) -> Option<f64>,
    digits: usize,
    /// The per-policy mean over the workloads, for an `average` row.
    average: Option<fn(&[WorkloadResults], Policy) -> f64>,
}

const OFFLOADING: [Policy; 3] = [
    Policy::NaiveOffloading,
    Policy::CoolPimSw,
    Policy::CoolPimHw,
];

const FIGURES: [Figure; 4] = [
    Figure {
        title: "Fig. 10 — speedup over the non-offloading baseline",
        columns: &["Non-Off", "Naive", "CoolPIM(SW)", "CoolPIM(HW)", "Ideal"],
        policies: &Policy::ALL,
        value: WorkloadResults::speedup,
        digits: 3,
        average: Some(mean_speedup),
    },
    Figure {
        title: "Fig. 11 — bandwidth consumption normalized to the baseline",
        columns: &["Non-Off", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
        policies: &[
            Policy::NonOffloading,
            Policy::NaiveOffloading,
            Policy::CoolPimSw,
            Policy::CoolPimHw,
        ],
        value: WorkloadResults::normalized_bandwidth,
        digits: 3,
        average: None,
    },
    Figure {
        title: "Fig. 12 — average PIM offloading rate (op/ns)",
        columns: &["Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
        policies: &OFFLOADING,
        value: |r, p| r.run(p).map(|x| x.avg_pim_rate_op_ns),
        digits: 2,
        average: None,
    },
    Figure {
        title: "Fig. 13 — peak DRAM temperature (°C)",
        columns: &["Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
        policies: &OFFLOADING,
        value: |r, p| r.run(p).map(|x| x.max_peak_dram_c),
        digits: 1,
        average: None,
    },
];

impl Figure {
    fn render(&self, results: &[WorkloadResults]) -> String {
        let mut headers = vec!["Workload"];
        headers.extend(self.columns);
        let mut t = Table::new(self.title, &headers);
        for r in results {
            let mut row = vec![r.workload.name().to_string()];
            for &p in self.policies {
                row.push(f((self.value)(r, p).unwrap_or(f64::NAN), self.digits));
            }
            t.row(&row);
        }
        if let Some(mean) = self.average {
            let mut avg = vec!["average".to_string()];
            for &p in self.policies {
                avg.push(f(mean(results, p), self.digits));
            }
            t.row(&avg);
        }
        t.render()
    }
}

/// The evaluation matrix: all ten workloads × the five system
/// configurations, workload by workload.
pub(super) fn eval_cells() -> Vec<Cell> {
    Workload::ALL
        .iter()
        .flat_map(|&w| Policy::ALL.iter().map(move |&p| Cell::new(w, p)))
        .collect()
}

/// Figs. 10–13 from ONE run of the evaluation matrix, then the
/// aggregated metrics block (warnings, throttle steps, HMC latency
/// histograms) and the average speedups.
pub(super) fn eval_all(runs: &[CoSimResult]) -> String {
    let results = WorkloadResults::grouped(&Workload::ALL, runs.to_vec());
    let mut out = String::new();
    for fig in &FIGURES {
        let _ = writeln!(out, "{}", fig.render(&results));
    }
    let mut metrics = MetricsSnapshot::default();
    runs.iter().for_each(|r| metrics.merge(&r.metrics));
    out.push_str(&metrics.render());
    let _ = writeln!(
        out,
        "Averages: CoolPIM(SW) {:.3}x, CoolPIM(HW) {:.3}x, Naive {:.3}x, Ideal {:.3}x over baseline.",
        mean_speedup(&results, Policy::CoolPimSw),
        mean_speedup(&results, Policy::CoolPimHw),
        mean_speedup(&results, Policy::NaiveOffloading),
        mean_speedup(&results, Policy::IdealThermal),
    );
    out
}

/// Fig. 14's runs: bfs-ta under naïve offloading and both CoolPIM
/// controls.
pub(super) fn fig14_cells() -> Vec<Cell> {
    OFFLOADING.map(|p| Cell::new(Workload::BfsTa, p)).to_vec()
}

/// Figure 14: PIM rate over time for bfs-ta under naïve offloading and
/// both CoolPIM controls, sampled per millisecond.
pub(super) fn fig14_timeline(runs: &[CoSimResult]) -> String {
    let threshold_c = CoSimConfig::default().warning_threshold_c;
    let mut series = Vec::new();
    for r in runs {
        // Aggregate the 100 µs epochs into 1 ms buckets (the paper's
        // sampling granularity).
        let mut buckets: Vec<(f64, u32)> = Vec::new();
        for s in &r.timeline {
            let ms = (s.t_s() * 1e3).ceil() as usize;
            if buckets.len() < ms {
                buckets.resize(ms, (0.0, 0));
            }
            if ms > 0 {
                buckets[ms - 1].0 += s.pim_rate_op_ns;
                buckets[ms - 1].1 += 1;
            }
        }
        let rates: Vec<f64> = buckets
            .iter()
            .map(|&(sum, n)| if n > 0 { sum / n as f64 } else { 0.0 })
            .collect();
        let first_warning = r
            .timeline
            .iter()
            .find(|s| s.peak_dram_c >= threshold_c)
            .map(|s| s.t_s() * 1e3);
        series.push((r.policy, rates, first_warning, r.exec_s * 1e3));
    }
    let len = series.iter().map(|(_, r, _, _)| r.len()).max().unwrap_or(0);
    let mut t = Table::new(
        "Fig. 14 — PIM rate (op/ns) over time, bfs-ta (1 ms samples)",
        &["t (ms)", "Naive-Offloading", "CoolPIM(SW)", "CoolPIM(HW)"],
    );
    for i in 0..len {
        let mut row = vec![format!("{}", i + 1)];
        for (_, rates, _, _) in &series {
            row.push(rates.get(i).map_or("-".into(), |&v| f(v, 2)));
        }
        t.row(&row);
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", t.render());
    for (p, _, fw, exec) in &series {
        let _ = match fw {
            Some(ms) => writeln!(
                out,
                "{}: first thermal warning at {:.1} ms (runtime {:.1} ms)",
                p.name(),
                ms,
                exec
            ),
            None => writeln!(
                out,
                "{}: no thermal warning (runtime {:.1} ms)",
                p.name(),
                exec
            ),
        };
    }
    out.push_str(
        "Both CoolPIM controls settle the PIM rate within ~1 ms of each other —\n\
         the thermal response time, not the throttling delay, dominates (§V-B.4).\n",
    );
    out
}
