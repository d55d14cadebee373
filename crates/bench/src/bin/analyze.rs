//! `analyze` — control-loop KPIs from event timelines.
//!
//! ```text
//! analyze [TRACE.jsonl ...]
//! ```
//!
//! For each JSONL trace (written by `sim --trace`) this prints the
//! control-loop report: warning→action latency distribution, overshoot
//! episodes/time/integral, derated time, token-pool oscillations, and
//! thermal-headroom utilization. A file in which no line parses as an
//! event is not a trace: `analyze` names it and exits 1.
//!
//! With no trace arguments it runs the built-in fixed-seed comparison —
//! one hot co-simulation each under CoolPIM(SW) and CoolPIM(HW) — and
//! analyzes the in-memory recordings; the paper's reaction-latency claim
//! (HW reacts orders of magnitude faster) is then directly visible in
//! the two reports. CI gates that claim on the runs' records instead:
//! `obs gate control-loop HW_RUN --baseline SW_RUN`.

use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::policy::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_telemetry::analysis::{analyze, analyze_jsonl, ControlLoopReport};
use coolpim_telemetry::{RecordingSink, Telemetry};

fn usage() -> ! {
    eprintln!("usage: analyze [TRACE.jsonl ...]");
    std::process::exit(2);
}

/// One hot fixed-seed co-simulation with an in-memory event recording
/// (tiny GPU + lowered threshold so the loop engages within seconds).
fn builtin_run(policy: Policy) -> ControlLoopReport {
    let graph = GraphSpec::test_medium().build();
    let mut kernel = make_kernel(Workload::PageRank, &graph);
    let cfg = CoSimConfig {
        gpu: coolpim_gpu::GpuConfig::tiny(),
        warning_threshold_c: 30.0,
        ..CoSimConfig::default()
    };
    let (sink, log) = RecordingSink::new();
    CoSim::new(policy, cfg)
        .with_telemetry(Telemetry::with_sink(Box::new(sink)))
        .run(kernel.as_mut());
    analyze(&log.snapshot())
}

fn main() {
    let mut traces: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("unknown argument {flag:?}");
                usage();
            }
            _ => traces.push(arg),
        }
    }

    let mut reports: Vec<ControlLoopReport> = Vec::new();
    if traces.is_empty() {
        eprintln!("# no traces given: running the built-in fixed-seed SW/HW comparison");
        for policy in [Policy::CoolPimSw, Policy::CoolPimHw] {
            reports.push(builtin_run(policy));
        }
    } else {
        for path in &traces {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            });
            let Some((report, skipped)) = analyze_jsonl(&text) else {
                eprintln!("{path}: no line parses as a trace event");
                std::process::exit(1);
            };
            if skipped > 0 {
                eprintln!("# {path}: skipped {skipped} unparseable line(s)");
            }
            reports.push(report);
        }
    }

    for r in &reports {
        print!("{}", r.render());
        println!();
    }
}
