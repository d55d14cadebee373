//! The benchmark's description: its workloads and metrics, each with its
//! unit and direction, and the bound by which an end-to-end metric may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repository root is [`manifest`] verbatim (`simbench --manifest`
//! prints it; a test keeps the two in step).

/// The command that runs the benchmark, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "simbench/Cargo.toml",
    "--",
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 35;

/// Workload names and the one-line reason each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "live-sssp-s19",
        "the headline paper-scale sim run: R-MAT scale 19, sssp-dwc under CoolPIM(SW); graph, CSR and live kernel generation dominate",
    ),
    (
        "eval-quick",
        "the eval_all matrix at CI scale (10 workloads x 5 policies, scale 16): engine, all block-trace generators, all controllers, pool tail",
    ),
    (
        "replay-sweep",
        "24 cells replaying one recorded sssp-dwc trace: no graph or live generation; trace codec, hot cells stress thermal and controllers",
    ),
];

/// An end-to-end metric: what a user of the simulator waits for.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// End-to-end metrics, all host-side and measured untraced. Times are
/// scaled to a reference host speed ([`crate::calib`]); the bounds leave
/// room for what that scaling does not remove (README.md, "Noise").
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("run_s", "s", "lower", 0.25),
    e2e("sim_rate_minst_s", "Minst/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("cell_p50_s", "s", "lower", 0.25),
    e2e("cell_tail_s", "s", "lower", 0.25),
];

/// Per-layer metrics from the traced run, grouped by layer.
pub const PER_LAYER: [PerLayer; 48] = [
    // graph (generate, builder)
    layer("graph.build_s", "s", "lower"),
    layer("graph.csr_build_s", "s", "lower"),
    layer("graph.edges", "count", "lower"),
    // kernel / instruction source (workloads, gpu::source, trace::replay)
    layer("kernel.build_s", "s", "lower"),
    layer("source.block_trace_s", "s", "lower"),
    layer("source.next_launch_s", "s", "lower"),
    layer("source.blocks", "count", "lower"),
    layer("source.warp_ops", "count", "lower"),
    layer("source.ns_per_block", "ns", "lower"),
    // trace codec
    layer("trace.record_s", "s", "lower"),
    layer("trace.encode_s", "s", "lower"),
    layer("trace.decode_s", "s", "lower"),
    layer("trace.bytes", "bytes", "lower"),
    layer("trace.ops", "count", "lower"),
    // gpu engine (system, coalesce, cache; the cube runs inside it)
    layer("gpu.self_s", "s", "lower"),
    layer("gpu.warp_insts", "count", "lower"),
    layer("gpu.ns_per_warp_inst", "ns", "lower"),
    layer("gpu.l2_hit_rate", "ratio", "higher"),
    layer("gpu.offload_frac", "ratio", "higher"),
    layer("gpu.unexplained_s", "s", "lower"),
    // hmc
    layer("hmc.requests", "count", "lower"),
    layer("hmc.pim_ops", "count", "lower"),
    layer("hmc.row_hit_rate", "ratio", "higher"),
    layer("hmc.submit_ns", "ns", "lower"),
    layer("hmc.est_s", "s", "lower"),
    // thermal
    layer("thermal.step_s", "s", "lower"),
    layer("thermal.steps", "count", "lower"),
    layer("thermal.sweeps", "count", "lower"),
    layer("thermal.sweeps_per_substep", "count", "lower"),
    layer("thermal.fastpath_hits", "count", "higher"),
    // core controllers
    layer("ctrl.s", "s", "lower"),
    layer("ctrl.calls", "count", "lower"),
    layer("ctrl.throttle_steps", "count", "lower"),
    layer("core.epochs", "count", "lower"),
    // core experiment pool
    layer("pool.workers", "count", "higher"),
    layer("pool.busy_frac", "ratio", "higher"),
    layer("pool.tail_s", "s", "lower"),
    // where the traced wall time went
    layer("split.setup_frac", "ratio", "lower"),
    layer("split.source_frac", "ratio", "lower"),
    layer("split.gpu_frac", "ratio", "lower"),
    layer("split.thermal_frac", "ratio", "lower"),
    layer("split.ctrl_frac", "ratio", "lower"),
    // the traced run itself
    layer("bench.traced_wall_s", "s", "lower"),
    layer("bench.traced_run_s", "s", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.span_coverage", "ratio", "higher"),
    layer("bench.failed_frac", "ratio", "lower"),
    layer("bench.cells", "count", "higher"),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` document this benchmark implements.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| format!("{{\"name\": {}, \"why\": {}}}", quoted(n), quoted(why)))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"simbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(e2e),
        list(per_layer),
    )
}
