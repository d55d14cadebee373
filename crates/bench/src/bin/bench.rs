//! `bench` — the repo's microbenchmark suite and performance trajectory.
//!
//! Times each subsystem at fixed seeds (graph generation, steady-state
//! thermal solve, transient 100 µs epoch step, `Hmc` submit, one full
//! co-simulated run) on the shared `harness::Runner`, and replays a
//! scripted co-sim power sequence (ramp → hold → idle tail) through both
//! the current transient solver and the canonical pre-PR-5 reference
//! solver (`coolpim_thermal::reference::ReferenceTransient` — the same
//! implementation the `coolpim-validate` lockstep oracle drives),
//! counting Gauss–Seidel sweeps and wall time for each. The sweep ratio
//! is the evidence behind PR 5's "≥1.5× fewer sweeps" claim and CI's
//! `bench-trend` job gates on it staying put.
//!
//! PR 10 adds the trace-replay figures: one KCore run at the evaluation
//! scale is recorded into a `.cptr` trace, then the fixed 8-cell
//! (policy × cooling × threshold) sweep runs twice — once replaying the
//! shared trace, once regenerating graph + kernel per cell — and the
//! wall ratio `replay.replay_over_live_wall` is the "record once,
//! replay everywhere" headline CI's `replay-gate` bands at ≤ 0.2
//! (i.e. the replayed sweep is ≥5× faster).
//!
//! Output: the human table on stdout plus a machine-readable flat-JSON
//! run record (see `runrec`) written to `BENCH_7.json` in the working
//! directory (override with `--out PATH`). EXPERIMENTS.md documents the
//! schema and methodology.
//!
//! `--replicates N` (or an explicit `--seed-list a,b,c`) runs the whole
//! suite N times — **sequentially**, never in parallel, because the
//! measurements are wall-clock — varying the graph seed per replicate,
//! and folds the per-replicate records into ONE replicated record
//! (schema v2: median headline + `dist.<metric>.*` distributions), the
//! input format of the `obs gate` statistical path.

use std::time::Instant;

use coolpim_bench::replicate::fold_replicates;
use coolpim_bench::runrec::RunRecord;
use coolpim_bench::Runner;
use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::experiment::{run_source_sweep, SweepCell};
use coolpim_core::policy::Policy;
use coolpim_gpu::GpuConfig;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_hmc::{Hmc, Request};
use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::floorplan::Floorplan;
use coolpim_thermal::grid::ThermalGrid;
use coolpim_thermal::layers::StackConfig;
use coolpim_thermal::model::HmcThermalModel;
use coolpim_thermal::power::{build_power_map, PowerParams, TrafficSample};
use coolpim_thermal::solver::{ThermalSolve, TransientState};
use coolpim_thermal::ReferenceTransient;
use coolpim_trace::{RecordingSource, TraceReplaySource};

use std::sync::Arc;

/// The scripted per-epoch power sequence: a co-sim-shaped load profile
/// at a 100 µs epoch. Both solvers are warm-started at the steady state
/// of the first vector (the co-sim's `warm_start` default), so the
/// opening phase — 30 bitwise-identical busy epochs, what steady traffic
/// windows produce — is where the power-delta fast path earns its keep.
/// Then a 50-epoch ramp (distinct vector per epoch), a 70-epoch jittered
/// busy hold, and an 80-epoch idle tail.
fn scripted_power_sequence(grid: &ThermalGrid) -> Vec<Vec<f64>> {
    let params = PowerParams::hmc20();
    let epoch_s = 1e-4;
    let hi_a = build_power_map(
        grid,
        &params,
        &TrafficSample::with_pim(320.0e9, 2.0, epoch_s),
    );
    let hi_b = build_power_map(
        grid,
        &params,
        &TrafficSample::with_pim(305.0e9, 1.9, epoch_s),
    );
    let mut seq = Vec::new();
    // Steady hold: 30 epochs identical to the warm-start point.
    for _ in 0..30 {
        seq.push(hi_a.clone());
    }
    // Ramp: 50 epochs climbing back up from low load.
    for k in 0..50 {
        let frac = (k + 1) as f64 / 50.0;
        let s = TrafficSample::with_pim(320.0e9 * frac, 2.0 * frac, epoch_s);
        seq.push(build_power_map(grid, &params, &s));
    }
    // Busy hold: 70 epochs alternating two jittered load points.
    for k in 0..70 {
        seq.push(if k % 2 == 0 {
            hi_a.clone()
        } else {
            hi_b.clone()
        });
    }
    // Tail: 80 identical idle epochs (static power only).
    let idle = build_power_map(grid, &params, &TrafficSample::idle(epoch_s));
    for _ in 0..80 {
        seq.push(idle.clone());
    }
    seq
}

/// Replays the scripted sequence through a fresh solver state per rep,
/// returning the wall time of the fastest rep and the final state.
fn replay<S>(
    seq: &[Vec<f64>],
    reps: usize,
    mut fresh: impl FnMut() -> S,
    mut step: impl FnMut(&mut S, &[f64]),
) -> (f64, S) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let mut state = fresh();
        let t0 = Instant::now();
        for p in seq {
            step(&mut state, p);
        }
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    (best, last.expect("reps >= 1"))
}

fn bench_grid() -> ThermalGrid {
    ThermalGrid::build(
        StackConfig::hmc20(),
        Floorplan::hmc20(),
        Cooling::CommodityServer,
    )
}

/// The suite's record config string for one graph seed (`seed_desc` is
/// the printable seed or seed list).
fn suite_config(seed_desc: &str) -> String {
    format!(
        "bench7 grid=hmc20 graph=test_medium(seed {seed_desc}) cosim=tiny-gpu/10us-epoch \
         solver-seq=100us-epoch \
         replay=kcore-scale16/8-cell-sweep"
    )
}

fn main() {
    let mut out = String::from("BENCH_7.json");
    let mut replicates: Option<u64> = None;
    let mut seed_list: Option<Vec<u64>> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" | "-o" => {
                i += 1;
                out = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--out expects a path"));
            }
            "--replicates" => {
                i += 1;
                replicates = Some(
                    argv.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--replicates expects a count")),
                );
            }
            "--seed-list" => {
                i += 1;
                let v = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--seed-list expects a,b,c"));
                let seeds: Result<Vec<u64>, _> = v.split(',').map(str::parse).collect();
                seed_list = Some(seeds.unwrap_or_else(|_| die("--seed-list expects a,b,c")));
            }
            other => die(&format!(
                "unknown argument {other:?} (usage: bench [--out PATH] [--replicates N] [--seed-list a,b,c])"
            )),
        }
        i += 1;
    }

    // The canonical suite seed is test_medium's; replicate seeds count
    // up from it unless given explicitly.
    let base_seed = GraphSpec::test_medium().seed;
    let seeds: Vec<u64> = match (seed_list, replicates) {
        (Some(list), n) => {
            if list.is_empty() {
                die("--seed-list needs at least one seed");
            }
            if let Some(n) = n {
                if n as usize != list.len() {
                    die(&format!(
                        "--replicates {n} does not match --seed-list length {}",
                        list.len()
                    ));
                }
            }
            list
        }
        (None, Some(n)) if n >= 2 => (0..n).map(|k| base_seed.wrapping_add(k)).collect(),
        _ => vec![base_seed],
    };

    let rec = if seeds.len() == 1 {
        run_suite(seeds[0])
    } else {
        // Sequential on purpose: these are wall-clock measurements, and
        // concurrent replicates would contend for cores and corrupt
        // every timing.
        let runs: Vec<RunRecord> = seeds
            .iter()
            .map(|&seed| {
                println!("\n## replicate seed={seed}");
                run_suite(seed)
            })
            .collect();
        let seed_desc = seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        fold_replicates("bench-7", &suite_config(&seed_desc), &seeds, &runs)
    };

    let path = std::path::Path::new(&out);
    if let Err(e) = rec.write_to(path) {
        eprintln!("bench: failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\n# wrote {}", path.display());
}

/// One full pass of the suite with the graph benchmarks drawn at
/// `graph_seed`; returns the per-run record.
fn run_suite(graph_seed: u64) -> RunRecord {
    let spec = GraphSpec {
        seed: graph_seed,
        ..GraphSpec::test_medium()
    };
    let r = Runner::new();
    let mut rec = RunRecord::new("bench-7", &suite_config(&graph_seed.to_string()));

    println!("# subsystem microbenchmarks (fixed seeds)");

    // Graph generation: the fixed-seed R-MAT used by mid-size tests.
    let s = r.bench("graph/generate_test_medium", || spec.build());
    rec.push("graph.generate_s", s.median_s);

    // Steady-state solve: cold solve at a busy operating point.
    let mut model = HmcThermalModel::hmc20(Cooling::CommodityServer);
    let busy = TrafficSample::with_pim(320.0e9, 2.0, 1e-3);
    let s = r.bench("thermal/steady_state_solve", || model.steady_state(&busy));
    rec.push("thermal.steady_state_s", s.median_s);

    // Transient 100 µs epoch: alternating samples so every step pays for
    // a real implicit solve (a constant sample would settle onto the
    // fast path and measure a no-op).
    let mut model = HmcThermalModel::hmc20(Cooling::CommodityServer);
    let sample_a = TrafficSample::with_pim(280.0e9, 1.5, 1e-4);
    let sample_b = TrafficSample::with_pim(240.0e9, 1.2, 1e-4);
    let mut flip = false;
    let s = r.bench("thermal/transient_100us_epoch", || {
        flip = !flip;
        model.step(if flip { &sample_a } else { &sample_b })
    });
    rec.push("thermal.step_100us_s", s.median_s);

    // HMC submit: scattered 64 B reads on the golden-ratio stride.
    let mut hmc = Hmc::hmc20();
    let mut addr = 0u64;
    let s = r.bench("hmc/submit_read64_scattered", || {
        addr = addr.wrapping_add(0x9E3779B97F4A7C15);
        hmc.submit(0, &Request::read(addr & 0x3FFF_FFC0))
    });
    rec.push("hmc.submit_read_s", s.median_s);

    // Full co-simulated run (tiny GPU, fixed-seed medium graph), plus the
    // derived per-epoch cost. The epoch is shortened to 10 µs here — the
    // Dc run completes in under 100 µs of simulated time, so the default
    // epoch would give a one-entry timeline and a meaningless per-epoch
    // figure.
    let graph = spec.build();
    let cfg = CoSimConfig {
        gpu: GpuConfig::tiny(),
        epoch: coolpim_hmc::ns_to_ps(10_000.0),
        ..CoSimConfig::default()
    };
    let mut epochs = 0usize;
    let s = r.bench("cosim/dc_medium_full_run", || {
        let mut k = make_kernel(Workload::Dc, &graph);
        let res = CoSim::new(Policy::CoolPimSw, cfg.clone()).run(k.as_mut());
        epochs = res.timeline.len();
        res
    });
    rec.push("cosim.run_dc_medium_s", s.median_s);
    rec.push("cosim.epochs", epochs as f64);
    rec.push("cosim.epoch_s", s.median_s / epochs.max(1) as f64);

    // Record-once/replay-everywhere: record one KCore run at the
    // evaluation scale into a trace, then fan the fixed 8-cell sweep out
    // twice — over the shared trace and over live per-cell graph +
    // kernel regeneration — on the same worker pool. KCore is the suite
    // workload because its cost profile is the one replay targets:
    // expensive generation (iterative peeling over the whole graph), a
    // compact recorded stream. The wall ratio is the headline the
    // `replay-gate` CI job bands.
    println!("\n# trace replay: 8-cell sweep, shared trace vs live regeneration (kcore, scale 16)");
    let replay_spec = GraphSpec {
        scale: 16,
        avg_degree: 16,
        seed: graph_seed,
        ..GraphSpec::ldbc_like()
    };
    let sweep_cfg = CoSimConfig::default();
    let cells = SweepCell::matrix8(sweep_cfg.warning_threshold_c);

    let t0 = Instant::now();
    let replay_graph = replay_spec.build();
    let mut k = make_kernel(Workload::KCore, &replay_graph);
    let mut recorder = RecordingSource::new(k.as_mut());
    CoSim::new(Policy::CoolPimSw, sweep_cfg.clone()).run(&mut recorder);
    let trace = recorder.finish(replay_spec.config_hash(), "bench7 kcore scale16");
    let trace_bytes = trace.encode().len();
    let record_wall = t0.elapsed().as_secs_f64();
    let trace_ops = trace.total_ops();
    drop(k);
    drop(replay_graph);

    let shared = Arc::new(trace);
    let t0 = Instant::now();
    let replayed = run_source_sweep(
        || Box::new(TraceReplaySource::new(shared.clone())),
        &cells,
        sweep_cfg.clone(),
    );
    let replay_wall = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let live = run_source_sweep(
        || make_kernel(Workload::KCore, &replay_spec.build()),
        &cells,
        sweep_cfg.clone(),
    );
    let live_wall = t0.elapsed().as_secs_f64();

    // Sanity (the full bit-exactness proof is `validate --component
    // replay`): every cell's replayed runtime must equal its live twin's
    // to the last bit.
    let identical_cells = replayed
        .iter()
        .zip(&live)
        .filter(|(r, l)| r.exec_s.to_bits() == l.exec_s.to_bits())
        .count();
    let replay_over_live = replay_wall / live_wall.max(1e-12);
    println!(
        "record : 1 run + encode        in {:>8.2} ms  ({} ops, {} bytes)",
        record_wall * 1e3,
        trace_ops,
        trace_bytes
    );
    println!(
        "replay : {} cells, shared trace in {:>8.2} ms",
        cells.len(),
        replay_wall * 1e3
    );
    println!(
        "live   : {} cells, regenerated  in {:>8.2} ms",
        cells.len(),
        live_wall * 1e3
    );
    println!(
        "ratio  : {:.3}× wall (gate: ≤ 0.2, i.e. ≥5× faster)  {}/{} cells bit-identical",
        replay_over_live,
        identical_cells,
        cells.len()
    );

    rec.push("replay.record_wall_s", record_wall);
    rec.push("replay.trace_bytes", trace_bytes as f64);
    rec.push("replay.trace_ops", trace_ops as f64);
    rec.push("replay.sweep_cells", cells.len() as f64);
    rec.push("replay.sweep_wall_s", replay_wall);
    rec.push("replay.live_sweep_wall_s", live_wall);
    rec.push("replay.replay_over_live_wall", replay_over_live);
    rec.push("replay.cells_bit_identical", identical_cells as f64);

    // Solver trajectory: current solver vs the canonical pre-PR-5
    // reference over the scripted ramp → hold → idle sequence. The
    // `solver.legacy_*` metric names predate the replica's promotion to
    // `coolpim_thermal::reference` and are kept so the bench-trend
    // history stays one continuous series.
    println!("\n# transient solver: current vs reference (scripted 23 ms sequence)");
    let grid = bench_grid();
    let seq = scripted_power_sequence(&grid);
    let c_scale = 1e-4;
    let dt = 1e-4;
    let reps = 3;

    let (legacy_wall, legacy) = replay(
        &seq,
        reps,
        || {
            // Warm start (uncounted, outside the timed region): the
            // co-sim's first-epoch `warm_start`, via the optimized SOR so
            // both contenders begin at the bit-identical field the
            // pre-promotion in-bin replica used.
            let mut st = ReferenceTransient::new(&grid, 25.0, c_scale);
            st.warm_start(&coolpim_thermal::solver::steady_state(&grid, &seq[0], 25.0));
            st
        },
        |st, p| ThermalSolve::step(st, &grid, p, dt),
    );
    let (new_wall, current) = replay(
        &seq,
        reps,
        || {
            let mut st = TransientState::new(&grid, 25.0, c_scale);
            st.jump_to_steady_state(&grid, &seq[0]);
            st
        },
        |st, p| st.step(&grid, p, dt),
    );
    let stats = current.solver_stats();
    let legacy_stats = legacy.solver_stats();
    let new_sweeps = stats.sweeps;
    let sweep_ratio = new_sweeps as f64 / legacy_stats.sweeps.max(1) as f64;
    let wall_ratio = new_wall / legacy_wall.max(1e-12);
    let max_dev = current
        .temps()
        .iter()
        .zip(legacy.temps())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    println!(
        "legacy : {:>8} sweeps / {:>5} substeps  in {:>8.2} ms",
        legacy_stats.sweeps,
        legacy_stats.substeps,
        legacy_wall * 1e3
    );
    println!(
        "current: {:>8} sweeps / {:>5} substeps  in {:>8.2} ms  ({} fast-path hits, {} skipped substeps)",
        new_sweeps, stats.substeps, new_wall * 1e3, stats.fast_path_hits, stats.skipped_substeps
    );
    println!(
        "ratio  : {:.3}× sweeps, {:.3}× wall  (gate: sweeps ≤ 0.67)  max |ΔT| {:.4} °C",
        sweep_ratio, wall_ratio, max_dev
    );

    rec.push("solver.legacy_sweeps", legacy_stats.sweeps as f64);
    rec.push("solver.legacy_substeps", legacy_stats.substeps as f64);
    rec.push("solver.legacy_wall_s", legacy_wall);
    rec.push("solver.new_sweeps", new_sweeps as f64);
    rec.push("solver.new_substeps", stats.substeps as f64);
    rec.push("solver.new_wall_s", new_wall);
    rec.push("solver.fastpath_hits", stats.fast_path_hits as f64);
    rec.push("solver.skipped_substeps", stats.skipped_substeps as f64);
    rec.push("solver.sweeps_per_substep", stats.sweeps_per_substep());
    rec.push("solver.new_over_legacy_sweeps", sweep_ratio);
    rec.push("solver.new_over_legacy_wall", wall_ratio);
    rec.push("solver.max_temp_dev_c", max_dev);

    rec
}

fn die(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(2);
}
