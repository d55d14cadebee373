//! Shared evaluation driver for the `fig10`–`fig14` binaries.

use coolpim_core::cosim::CoSimConfig;
use coolpim_core::experiment::{run_matrix, run_matrix_with, WorkloadResults};
use coolpim_core::policy::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::Workload;
use coolpim_telemetry::{MonitorHub, MonitorServer, Tracer};

/// Resolves the evaluation graph from `COOLPIM_SCALE` (see crate docs),
/// exiting with a diagnostic (status 2) on a value it cannot use.
pub fn eval_graph_spec() -> GraphSpec {
    graph_spec_for(std::env::var("COOLPIM_SCALE").ok().as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Pure form of [`eval_graph_spec`]: maps a `COOLPIM_SCALE` value (`None`
/// = unset) to a graph spec, without reading the environment — testable
/// regardless of what the test process inherited.
pub fn graph_spec_for(scale: Option<&str>) -> Result<GraphSpec, String> {
    let mut spec = GraphSpec::ldbc_like();
    match scale {
        None | Some("full") => {}
        Some("quick") => {
            spec.scale = 16;
            spec.avg_degree = 12;
        }
        Some(n) => {
            let scale: u32 = n.parse().map_err(|_| {
                format!("COOLPIM_SCALE must be 'full', 'quick', or an integer, got {n:?}")
            })?;
            if !(8..=24).contains(&scale) {
                return Err(format!("COOLPIM_SCALE {scale} out of range 8..=24"));
            }
            spec.scale = scale;
        }
    }
    Ok(spec)
}

/// Runs the full evaluation matrix (all ten workloads × the five system
/// configurations) at the configured scale.
///
/// Two environment variables instrument it. `COOLPIM_PROFILE=1` (or
/// `true`) records every cell's span tree on one tracer and prints the
/// tree of the whole matrix before returning. `COOLPIM_MONITOR=ADDR`
/// (e.g. `127.0.0.1:9090`) instead serves `/metrics`, `/status` and
/// `/series` for the duration of the matrix — point `watch --addr` at
/// it.
pub fn run_eval_matrix() -> Vec<WorkloadResults> {
    let spec = eval_graph_spec();
    eprintln!(
        "# generating LDBC-like graph: 2^{} vertices, avg degree {} (seed {})",
        spec.scale, spec.avg_degree, spec.seed
    );
    let graph = spec.build();
    let (workloads, policies) = (&Workload::ALL, &Policy::ALL);
    let cells = workloads.len() * policies.len();
    eprintln!(
        "# graph ready: {} vertices, {} edges; running {} co-simulations...",
        graph.vertices(),
        graph.edge_count(),
        cells
    );
    let cfg = CoSimConfig::default();
    let env = |name| std::env::var(name).ok().filter(|v| !v.is_empty());
    let tracer = matches!(env("COOLPIM_PROFILE").as_deref(), Some("1" | "true")).then(Tracer::new);
    let results = if let Some(addr) = env("COOLPIM_MONITOR") {
        let hub = MonitorHub::new();
        hub.begin_run("eval-matrix", "0");
        hub.expect_runs(cells as u64);
        let mut server = MonitorServer::start(&addr, hub.clone()).unwrap_or_else(|e| {
            eprintln!("failed to bind monitor on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("# monitor: http://{}", server.local_addr());
        let results = run_matrix_with(&graph, workloads, policies, cfg, None, |s| {
            s.with_tracer(&Tracer::new()).with_observer(hub.clone())
        });
        server.stop();
        eprintln!("# monitor stopped");
        results
    } else if let Some(t) = &tracer {
        run_matrix_with(&graph, workloads, policies, cfg, Some(t), |s| {
            s.with_tracer(t)
        })
    } else {
        run_matrix(&graph, workloads, policies, cfg)
    };
    if let Some(t) = &tracer {
        print!("{}", t.profile().render());
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        // Pure mapping — immune to whatever COOLPIM_SCALE the test
        // process inherited.
        let full = GraphSpec::ldbc_like().scale;
        assert_eq!(graph_spec_for(None).unwrap().scale, full);
        assert_eq!(graph_spec_for(Some("full")).unwrap().scale, full);
    }

    #[test]
    fn quick_and_numeric_scales_resolve() {
        let quick = graph_spec_for(Some("quick")).unwrap();
        assert_eq!(quick.scale, 16);
        assert_eq!(quick.avg_degree, 12);
        assert_eq!(graph_spec_for(Some("12")).unwrap().scale, 12);
    }

    #[test]
    fn bad_scales_are_rejected_with_a_diagnostic() {
        let err = graph_spec_for(Some("30")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = graph_spec_for(Some("abc")).unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
    }
}
