//! Per-layer metrics from a traced run, and the two microbenches that
//! time what the spans cannot split out: the CSR build on its own and
//! `Hmc::submit` on the run's request mix.
//!
//! Span paths (aggregated over tracks by `Tracer::profile`):
//! `setup/{graph.build, kernel.build, trace.record, trace.encode,
//! trace.decode}` and `run` on the `main` track; `cell/{kernel.build,
//! block_trace, next_launch, thermal.step, thermal.steady}` on each
//! worker track (under `run/` for the single live cell, which runs on
//! `main`). A `cell` span's self time is the engine's plus the controller
//! calls, which are timed in aggregate (sampled) and subtracted.

use std::hint::black_box;
use std::time::Instant;

use coolpim_graph::builder::from_weighted_edges;
use coolpim_graph::csr::Csr;
use coolpim_graph::rng::SplitMix64;
use coolpim_hmc::{Hmc, PimOp, Request};
use coolpim_telemetry::TraceProfile;

use crate::pool::shape;
use crate::stats::median;
use crate::workload::Traced;

/// Sum of `(total, self, calls)` over every span whose path is `path` or
/// ends in `/path`.
fn spans(rows: &[(String, f64, f64, u64)], path: &str) -> (f64, f64, u64) {
    let nested = format!("/{path}");
    rows.iter()
        .filter(|(p, ..)| p == path || p.ends_with(&nested))
        .fold((0.0, 0.0, 0), |(t, s, c), (_, rt, rs, rc)| {
            (t + rt, s + rs, c + rc)
        })
}

/// Rebuilds `g` with `from_weighted_edges` from its own edges shuffled by
/// `seed`, checks the result is `g` again, and returns the build time (s).
pub fn csr_rebuild_s(g: &Csr, seed: u64) -> Result<f64, String> {
    let n = g.vertices();
    let mut edges = Vec::with_capacity(g.edge_count());
    for v in 0..n as u32 {
        for (&d, &w) in g.neighbours(v).iter().zip(g.weights_of(v)) {
            edges.push((v, d, w));
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_c5b0);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range_inclusive_usize(0, i));
    }
    let t = Instant::now();
    let rebuilt = black_box(from_weighted_edges(n, black_box(&edges)));
    let secs = t.elapsed().as_secs_f64();
    let same = rebuilt.edge_count() == g.edge_count()
        && (0..n as u32).all(|v| {
            rebuilt.neighbours(v) == g.neighbours(v) && rebuilt.weights_of(v) == g.weights_of(v)
        });
    if same {
        Ok(secs)
    } else {
        Err("CSR rebuilt from shuffled edges differs from the original".into())
    }
}

/// Host ns per `Hmc::submit` on a fresh HMC 2.0 cube, for a stream of
/// scattered requests with the given read/write/PIM counts' proportions,
/// issued `interval_ps` apart in simulated time: the median of five
/// batches of 100k requests.
pub fn hmc_submit_ns(reads: u64, writes: u64, pim_ops: u64, interval_ps: u64, seed: u64) -> f64 {
    const BATCH: usize = 100_000;
    let total = (reads + writes + pim_ops).max(1) as f64;
    let (p_read, p_write) = (reads as f64 / total, (reads + writes) as f64 / total);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4d43_5542);
    let mut hmc = Hmc::hmc20();
    let mut now = 0;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let reqs: Vec<Request> = (0..BATCH)
            .map(|_| {
                let r = rng.gen_f64();
                let addr = rng.next_u64();
                if r < p_read {
                    Request::read(addr & 0x3FFF_FFC0)
                } else if r < p_write {
                    Request::write(addr & 0x3FFF_FFC0)
                } else {
                    Request::pim(PimOp::SignedAdd, addr & 0x3FFF_FFF0)
                }
            })
            .collect();
        let t = Instant::now();
        for req in &reqs {
            now += interval_ps;
            black_box(hmc.submit(now, black_box(req)));
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }
    median(&batches)
}

/// Every per-layer metric of a traced run, in catalogue order.
/// `untraced_run_s` is the same process's untraced co-sim section, for
/// the tracing overhead.
pub fn per_layer(
    t: &Traced,
    untraced_run_s: f64,
    failed_frac: f64,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let profile: TraceProfile = t.tracer.profile();
    let rows = profile.flatten();
    let total = |p: &str| spans(&rows, p).0;
    let calls = |p: &str| spans(&rows, p).2 as f64;

    let ok: Vec<_> = t
        .cells
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .collect();
    let sum =
        |f: &dyn Fn(&coolpim_core::CoSimResult) -> f64| ok.iter().map(|(r, _)| f(r)).sum::<f64>();
    let counts = ok
        .iter()
        .fold(crate::wrap::CellCounts::default(), |mut acc, (_, c)| {
            acc.add(c);
            acc
        });

    let cell_s = total("cell");
    let kernel_in_cells = total("cell/kernel.build");
    let block_trace_s = total("cell/block_trace");
    let next_launch_s = total("cell/next_launch");
    let thermal_s = total("cell/thermal.step") + total("cell/thermal.steady");
    let ctrl_s = counts.ctrl_ns * 1e-9;
    let gpu_self_s = spans(&rows, "cell").1 - ctrl_s;
    let insts = sum(&|r| r.gpu.instructions as f64);
    let reads = sum(&|r| r.hmc.reads as f64);
    let writes = sum(&|r| r.hmc.writes as f64);
    let pim_ops = sum(&|r| r.hmc.pim_ops as f64);
    let requests = reads + writes + pim_ops;
    let exec_ps = sum(&|r| r.exec_s * 1e12);
    let sweeps = sum(&|r| r.metrics.counter("thermal_gs_sweeps") as f64);
    let substeps = sum(&|r| r.metrics.counter("thermal_substeps") as f64);
    let lanes = sum(&|r| (r.gpu.pim_lane_ops + r.gpu.host_lane_ops) as f64);

    let submit_ns = hmc_submit_ns(
        reads as u64,
        writes as u64,
        pim_ops as u64,
        (exec_ps / requests.max(1.0)).round().max(1.0) as u64,
        seed,
    );
    let hmc_est_s = requests * submit_ns * 1e-9;
    let csr_s = csr_rebuild_s(&t.setup.graph, seed)?;
    let pool = shape(t.workers, t.run_start, &t.times);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    Ok(vec![
        ("graph.build_s", total("setup/graph.build")),
        ("graph.csr_build_s", csr_s),
        ("graph.edges", t.setup.graph.edge_count() as f64),
        (
            "kernel.build_s",
            total("setup/kernel.build") + kernel_in_cells,
        ),
        ("source.block_trace_s", block_trace_s),
        ("source.next_launch_s", next_launch_s),
        ("source.blocks", counts.blocks as f64),
        ("source.warp_ops", counts.warp_ops as f64),
        (
            "source.ns_per_block",
            ratio(block_trace_s * 1e9, calls("cell/block_trace")),
        ),
        ("trace.record_s", total("setup/trace.record")),
        ("trace.encode_s", total("setup/trace.encode")),
        ("trace.decode_s", total("setup/trace.decode")),
        ("trace.bytes", t.setup.trace_bytes as f64),
        (
            "trace.ops",
            t.setup.trace.as_ref().map_or(0, |tr| tr.total_ops()) as f64,
        ),
        ("gpu.self_s", gpu_self_s),
        ("gpu.warp_insts", insts),
        ("gpu.ns_per_warp_inst", ratio(gpu_self_s * 1e9, insts)),
        (
            "gpu.l2_hit_rate",
            ratio(sum(&|r| r.l2_hit_rate * r.gpu.instructions as f64), insts),
        ),
        (
            "gpu.offload_frac",
            ratio(sum(&|r| r.gpu.pim_lane_ops as f64), lanes),
        ),
        ("gpu.unexplained_s", gpu_self_s - hmc_est_s),
        ("hmc.requests", requests),
        ("hmc.pim_ops", pim_ops),
        (
            "hmc.row_hit_rate",
            ratio(
                sum(&|r| {
                    let req = (r.hmc.reads + r.hmc.writes + r.hmc.pim_ops) as f64;
                    r.metrics.gauge("hmc_row_hit_rate").unwrap_or(0.0) * req
                }),
                requests,
            ),
        ),
        ("hmc.submit_ns", submit_ns),
        ("hmc.est_s", hmc_est_s),
        ("thermal.step_s", thermal_s),
        (
            "thermal.steps",
            calls("cell/thermal.step") + calls("cell/thermal.steady"),
        ),
        ("thermal.sweeps", sweeps),
        ("thermal.sweeps_per_substep", ratio(sweeps, substeps)),
        (
            "thermal.fastpath_hits",
            sum(&|r| r.metrics.counter("thermal_fastpath_hits") as f64),
        ),
        ("ctrl.s", ctrl_s),
        ("ctrl.calls", counts.ctrl_calls as f64),
        ("ctrl.throttle_steps", sum(&|r| r.throttle_steps as f64)),
        ("core.epochs", sum(&|r| r.metrics.counter("epochs") as f64)),
        ("pool.workers", pool.workers as f64),
        ("pool.busy_frac", pool.busy_frac),
        ("pool.tail_s", pool.tail_s),
        ("split.setup_frac", ratio(t.setup_s, t.wall_s)),
        (
            "split.source_frac",
            ratio(kernel_in_cells + block_trace_s + next_launch_s, cell_s),
        ),
        ("split.gpu_frac", ratio(gpu_self_s, cell_s)),
        ("split.thermal_frac", ratio(thermal_s, cell_s)),
        ("split.ctrl_frac", ratio(ctrl_s, cell_s)),
        ("bench.traced_wall_s", t.wall_s),
        ("bench.traced_run_s", t.run_s),
        (
            "bench.trace_overhead_pct",
            100.0 * (ratio(t.run_s, untraced_run_s) - 1.0),
        ),
        (
            "bench.span_coverage",
            ratio(profile.total_s("setup") + profile.total_s("run"), t.wall_s),
        ),
        ("bench.failed_frac", failed_frac),
        ("bench.cells", t.cells.len() as f64),
    ])
}
