//! `analyze` — the control-loop report of run records.
//!
//! ```text
//! analyze [RUN.json ...]
//! ```
//!
//! For each run record (`sim --metrics-out`) this prints the loop KPIs
//! the co-simulation folded into it: warnings raised, accepted and acted
//! on, warning→action latency, overshoot above the warning threshold,
//! derated time and thermal-headroom utilization. A file that is not a
//! run record is named and `analyze` exits 1. With no arguments it
//! renders the records of a built-in fixed-seed CoolPIM(SW) and
//! CoolPIM(HW) run, where the paper's reaction-latency claim (HW reacts
//! orders of magnitude faster) is directly visible; CI gates that claim
//! with `obs gate control-loop HW_RUN --baseline SW_RUN`.

use std::path::Path;

use coolpim_bench::runrec::RunRecord;
use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::policy::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};

fn usage() -> ! {
    eprintln!("usage: analyze [RUN.json ...]");
    std::process::exit(2);
}

/// One hot fixed-seed co-simulation's record (tiny GPU + lowered
/// threshold so the loop engages within seconds).
fn builtin_run(policy: Policy) -> RunRecord {
    let graph = GraphSpec::test_medium().build();
    let mut kernel = make_kernel(Workload::PageRank, &graph);
    let cfg = CoSimConfig {
        gpu: coolpim_gpu::GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    };
    let r = CoSim::new(policy, cfg).run(kernel.as_mut());
    let name = format!("pagerank-{}", policy.name());
    RunRecord::from_cosim(&name, "builtin", &r)
}

/// The control-loop report of one record. An absent counter or
/// histogram reads 0: the co-sim writes them only once they occur.
fn render(rec: &RunRecord) -> String {
    let m = |name: &str| rec.metric(name).unwrap_or(0.0);
    let lat = |q: &str| m(&format!("hist.warning_to_action_ps.{q}"));
    let exec_s = m("exec_s");
    let derated_s = m("gauge.derated_s");
    let derated_pct = if exec_s > 0.0 {
        100.0 * derated_s / exec_s
    } else {
        0.0
    };
    format!(
        "== control loop ==  {}  ({exec_s:.4} s sim)\n\
         warnings raised/accepted/actions   {} / {} / {}  (orphans {})\n\
         warning->action latency            p50<={} ps  p90<={} ps  p99<={} ps  mean {:.0} ps\n\
         overshoot                          {} episodes, {:.4} s, {:.4} C*s\n\
         derated time                       {derated_s:.4} s ({derated_pct:.1} % of run)\n\
         thermal headroom utilization       {:.3}\n",
        rec.name,
        m("counter.thermal_warnings_raised"),
        m("counter.thermal_warnings_accepted"),
        m("throttle_steps"),
        m("counter.orphan_actions"),
        lat("p50"),
        lat("p90"),
        lat("p99"),
        lat("mean"),
        m("counter.overshoot_episodes"),
        m("gauge.overshoot_s"),
        m("gauge.overshoot_c_s"),
        m("gauge.headroom_utilization"),
    )
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown argument {flag:?}");
                usage();
            }
            _ => paths.push(arg),
        }
    }

    let records: Vec<RunRecord> = if paths.is_empty() {
        eprintln!("# no records given: running the built-in fixed-seed SW/HW comparison");
        vec![
            builtin_run(Policy::CoolPimSw),
            builtin_run(Policy::CoolPimHw),
        ]
    } else {
        let load = |path: &String| RunRecord::load(Path::new(path));
        paths
            .iter()
            .map(load)
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| {
                eprintln!("analyze: {e}");
                std::process::exit(1);
            })
    };
    for rec in &records {
        println!("{}", render(rec));
    }
}
