//! Runs the evaluation matrix ONCE and prints Figures 10–13 from the
//! shared results — the efficient way to regenerate the whole evaluation
//! section (the `fig10`–`fig13` binaries re-run the matrix each). After
//! the figures it prints the aggregated metrics block (warnings,
//! throttle steps, HMC latency histograms); set `COOLPIM_PROFILE=1` for
//! the span tree of the whole matrix too.
use coolpim_bench::runrec::{run_record_dir, RunRecord};
use coolpim_bench::{eval_graph_spec, run_eval_matrix};
use coolpim_core::experiment::{aggregate_metrics, mean_speedup, WorkloadResults};
use coolpim_core::policy::Policy;
use coolpim_core::report::{f, Table};

fn fig10(results: &[WorkloadResults]) {
    let policies = [
        Policy::NonOffloading,
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
        Policy::CoolPimHw,
        Policy::IdealThermal,
    ];
    let mut t = Table::new(
        "Fig. 10 — speedup over the non-offloading baseline",
        &[
            "Workload",
            "Non-Off",
            "Naive",
            "CoolPIM(SW)",
            "CoolPIM(HW)",
            "Ideal",
        ],
    );
    for r in results {
        let mut row = vec![r.workload.name().to_string()];
        for p in policies {
            row.push(f(r.speedup(p).unwrap_or(f64::NAN), 3));
        }
        t.row(&row);
    }
    let mut avg = vec!["average".to_string()];
    for p in policies {
        avg.push(f(mean_speedup(results, p), 3));
    }
    t.row(&avg);
    t.print();
}

fn fig11(results: &[WorkloadResults]) {
    let policies = [
        Policy::NonOffloading,
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
        Policy::CoolPimHw,
    ];
    let mut t = Table::new(
        "Fig. 11 — bandwidth consumption normalized to the baseline",
        &["Workload", "Non-Off", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
    );
    for r in results {
        let mut row = vec![r.workload.name().to_string()];
        for p in policies {
            row.push(f(r.normalized_bandwidth(p).unwrap_or(f64::NAN), 3));
        }
        t.row(&row);
    }
    t.print();
}

fn fig12(results: &[WorkloadResults]) {
    let policies = [
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
        Policy::CoolPimHw,
    ];
    let mut t = Table::new(
        "Fig. 12 — average PIM offloading rate (op/ns)",
        &["Workload", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
    );
    for r in results {
        let mut row = vec![r.workload.name().to_string()];
        for p in policies {
            row.push(f(r.run(p).map_or(f64::NAN, |x| x.avg_pim_rate_op_ns), 2));
        }
        t.row(&row);
    }
    t.print();
}

fn fig13(results: &[WorkloadResults]) {
    let policies = [
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
        Policy::CoolPimHw,
    ];
    let mut t = Table::new(
        "Fig. 13 — peak DRAM temperature (°C)",
        &["Workload", "Naive", "CoolPIM(SW)", "CoolPIM(HW)"],
    );
    for r in results {
        let mut row = vec![r.workload.name().to_string()];
        for p in policies {
            row.push(f(r.run(p).map_or(f64::NAN, |x| x.max_peak_dram_c), 1));
        }
        t.row(&row);
    }
    t.print();
}

fn metrics_summary(results: &[WorkloadResults]) {
    print!("{}", aggregate_metrics(results, None).render());
}

/// With `COOLPIM_RUN_RECORD=<dir>` set, appends one run record per
/// (workload, policy) cell of the matrix for later `bench_compare`s.
fn save_run_records(results: &[WorkloadResults]) {
    let Some(dir) = run_record_dir() else { return };
    let spec = eval_graph_spec();
    let mut written = 0usize;
    for wr in results {
        for run in &wr.runs {
            let config = format!(
                "workload={} policy={} scale={} degree={} seed={}",
                wr.workload.name(),
                run.policy.name(),
                spec.scale,
                spec.avg_degree,
                spec.seed
            );
            let name = format!("{}-{}", wr.workload.name(), run.policy.name());
            match RunRecord::from_cosim(&name, &config, run).save_to_dir(&dir) {
                Ok(_) => written += 1,
                Err(e) => eprintln!("# run record {name}: {e}"),
            }
        }
    }
    eprintln!(
        "# {} run record(s) appended under {}",
        written,
        dir.display()
    );
}

fn main() {
    let results = run_eval_matrix();
    save_run_records(&results);
    fig10(&results);
    fig11(&results);
    fig12(&results);
    fig13(&results);
    metrics_summary(&results);
    println!(
        "Averages: CoolPIM(SW) {:.3}x, CoolPIM(HW) {:.3}x, Naive {:.3}x, Ideal {:.3}x over baseline.",
        mean_speedup(&results, Policy::CoolPimSw),
        mean_speedup(&results, Policy::CoolPimHw),
        mean_speedup(&results, Policy::NaiveOffloading),
        mean_speedup(&results, Policy::IdealThermal),
    );
}
