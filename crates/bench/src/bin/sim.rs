//! `sim` — the general-purpose co-simulation driver.
//!
//! ```text
//! sim [--workload NAME] [--policy NAME] [--scale N] [--degree N]
//!     [--cooling NAME] [--seed N] [--graph FILE] [--timeline]
//!     [--trace FILE] [--timeline-out FILE] [--profile]
//!     [--warning-threshold C] [--metrics-out FILE] [--run-record DIR]
//!     [--record-trace FILE] [--replay FILE] [--matrix]
//! ```
//!
//! Runs one workload under one policy and prints the full metric set
//! (runtime, PIM rate, bandwidth, peak temperature, energy). `--graph`
//! loads a plain-text edge list instead of generating an R-MAT graph;
//! `--timeline` dumps the per-epoch telemetry as CSV to stdout,
//! `--timeline-out FILE` writes the same CSV to a file, `--trace FILE`
//! streams the full event log (warnings, phase moves, pool resizes,
//! kernel lifecycle, epoch samples) as JSONL, and `--profile` prints the
//! run's span tree (self and total time per phase, critical path).
//!
//! `--warning-threshold` overrides the ERRSTAT trigger temperature
//! (small-scale CI runs lower it so the feedback loop engages).
//! `--metrics-out FILE` dumps the final run record (headline metrics +
//! telemetry snapshot) as one flat JSON object; `--run-record DIR`
//! appends the same record to a run store (also triggered by the
//! `COOLPIM_RUN_RECORD` environment variable) for `bench_compare`.
//!
//! `--flight-recorder` keeps a rolling in-memory ring of per-vault
//! thermal/traffic samples; `--postmortem-dir DIR` (implies
//! `--flight-recorder`) dumps that ring as a versioned JSONL bundle
//! whenever a thermal warning, phase change, or overshoot episode
//! fires — inspect bundles with the `postmortem` bin.
//! `--flight-capacity N` and `--flight-every N` tune the ring depth and
//! sampling stride. `--trace-rotate-mb MB` caps the `--trace` file by
//! rotating it into numbered parts, keeping only the newest few.
//!
//! `--trace-timeline FILE` records a hierarchical trace timeline of the
//! run — nested epoch/thermal/scheduling spans on per-component tracks,
//! counter tracks (peak DRAM temp, token pool, warp cap), and
//! warning→throttle flow arrows — and writes it as Chrome trace-event
//! JSON loadable at <https://ui.perfetto.dev>. The file is validated
//! in-process before it is written; the aggregated span tree also folds
//! into the run record as `tprof.*` metrics for `profile_diff`.
//!
//! `--replicates N` runs the same configuration N times over seed-varied
//! graph draws (seeds `seed..seed+N`, or exactly `--seed-list a,b,c`)
//! on a worker pool and folds the runs into ONE replicated run record
//! (schema v2): per metric the median as the headline value plus a
//! `dist.<metric>.*` block (MAD, extremes, bootstrap 95 % CI, raw
//! samples). That record is what `obs gate` runs its permutation test
//! on. Replicated mode is incompatible with `--graph` (a fixed graph
//! leaves nothing for the seed to vary) and with the per-run
//! observability flags (`--timeline`, `--trace`, `--monitor`, ...).
//!
//! `--record-trace FILE` tees the workload's exact per-warp instruction
//! stream — the one this very run executed — into a versioned binary
//! `.cptr` trace (see `coolpim-trace`). `--replay FILE` feeds a recorded
//! trace back through the co-sim instead of generating the workload
//! live: no graph build, no kernel execution, bit-identical results
//! under any policy/cooling/threshold (the `validate --component
//! replay` oracle proves it). `--matrix` fans the run out across a
//! fixed 8-cell (policy × cooling × threshold) sweep on the worker
//! pool; combined with `--replay` the cells share one immutable trace
//! (`Arc`), which is the "record once, replay everywhere" sweep —
//! BENCH_7 measures it ≥5x faster than live per-cell regeneration.
//!
//! `--monitor ADDR` (e.g. `127.0.0.1:9184`, or `:0` for an ephemeral
//! port) serves the run's live state over HTTP while it executes —
//! `/metrics` (Prometheus text format), `/status` (flat JSON),
//! `/series` (downsampled time-series JSONL) — and prints the bound
//! address to stderr before the run starts; point the `watch` bin (or
//! `curl`) at it. The server thread is stopped and joined when the run
//! finishes. `--heartbeat SECS` prints a one-line progress summary to
//! stderr at that wall-clock cadence (first beat on the first epoch).

use coolpim_bench::replicate::fold_replicates;
use coolpim_bench::runrec::{fnv1a, run_record_dir, RunRecord};
use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::experiment::{run_replicates, run_source_sweep, SweepCell};
use coolpim_core::observer::{FlightConfig, FlightObserver, Heartbeat};
use coolpim_core::policy::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_graph::Csr;
use coolpim_telemetry::{
    CsvSink, JsonlSink, MonitorHub, MonitorServer, MultiSink, RotatingJsonlSink, Sink, Telemetry,
    Tracer, CSV_TIMELINE_HEADER,
};
use coolpim_thermal::cooling::Cooling;
use coolpim_trace::{RecordingSource, TraceReplaySource, WorkloadTrace};

use std::sync::Arc;

struct Args {
    workload: Workload,
    policy: Policy,
    scale: u32,
    degree: u32,
    seed: u64,
    cooling: Cooling,
    graph_file: Option<String>,
    timeline: bool,
    trace: Option<String>,
    timeline_out: Option<String>,
    profile: bool,
    warning_threshold_c: Option<f64>,
    metrics_out: Option<String>,
    run_record: Option<String>,
    flight_recorder: bool,
    postmortem_dir: Option<String>,
    flight_capacity: Option<u64>,
    flight_every: Option<u64>,
    trace_rotate_mb: Option<u64>,
    trace_timeline: Option<String>,
    monitor: Option<String>,
    heartbeat_s: Option<f64>,
    replicates: Option<u64>,
    seed_list: Option<Vec<u64>>,
    record_trace: Option<String>,
    replay: Option<String>,
    matrix: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim [--workload dc|bfs-ta|bfs-dwc|bfs-twc|bfs-ttc|kcore|pagerank|sssp-dtc|sssp-dwc|sssp-twc]\n\
         \x20          [--policy baseline|naive|coolpim-sw|coolpim-hw|ideal]\n\
         \x20          [--scale N] [--degree N] [--seed N]\n\
         \x20          [--cooling passive|low-end|commodity|high-end]\n\
         \x20          [--graph edge-list-file] [--timeline]\n\
         \x20          [--trace jsonl-file] [--timeline-out csv-file] [--profile]\n\
         \x20          [--warning-threshold C] [--metrics-out json-file]\n\
         \x20          [--run-record dir]\n\
         \x20          [--flight-recorder] [--postmortem-dir dir]\n\
         \x20          [--flight-capacity N] [--flight-every N]\n\
         \x20          [--trace-rotate-mb MB] [--trace-timeline json-file]\n\
         \x20          [--monitor addr:port] [--heartbeat secs]\n\
         \x20          [--replicates N] [--seed-list a,b,c]\n\
         \x20          [--record-trace file.cptr] [--replay file.cptr] [--matrix]"
    );
    std::process::exit(2);
}

fn parse_policy(s: &str) -> Option<Policy> {
    Some(match s {
        "baseline" | "non-offloading" => Policy::NonOffloading,
        "naive" => Policy::NaiveOffloading,
        "coolpim-sw" | "sw" => Policy::CoolPimSw,
        "coolpim-hw" | "hw" => Policy::CoolPimHw,
        "ideal" => Policy::IdealThermal,
        _ => return None,
    })
}

fn parse_cooling(s: &str) -> Option<Cooling> {
    Some(match s {
        "passive" => Cooling::Passive,
        "low-end" => Cooling::LowEndActive,
        "commodity" => Cooling::CommodityServer,
        "high-end" => Cooling::HighEndActive,
        _ => return None,
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Dc,
        policy: Policy::CoolPimSw,
        // Default scale is the smallest at which the thermal feedback
        // loop engages (warnings + throttling) under commodity cooling.
        scale: 19,
        degree: 16,
        seed: 42,
        cooling: Cooling::CommodityServer,
        graph_file: None,
        timeline: false,
        trace: None,
        timeline_out: None,
        profile: false,
        warning_threshold_c: None,
        metrics_out: None,
        run_record: None,
        flight_recorder: false,
        postmortem_dir: None,
        flight_capacity: None,
        flight_every: None,
        trace_rotate_mb: None,
        trace_timeline: None,
        monitor: None,
        heartbeat_s: None,
        replicates: None,
        seed_list: None,
        record_trace: None,
        replay: None,
        matrix: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--workload" | "-w" => {
                let v = take(&mut i);
                args.workload = Workload::from_name(&v).unwrap_or_else(|| usage());
            }
            "--policy" | "-p" => {
                let v = take(&mut i);
                args.policy = parse_policy(&v).unwrap_or_else(|| usage());
            }
            "--scale" | "-s" => args.scale = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--degree" | "-d" => args.degree = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--cooling" | "-c" => {
                let v = take(&mut i);
                args.cooling = parse_cooling(&v).unwrap_or_else(|| usage());
            }
            "--graph" | "-g" => args.graph_file = Some(take(&mut i)),
            "--timeline" | "-t" => args.timeline = true,
            "--trace" => args.trace = Some(take(&mut i)),
            "--timeline-out" => args.timeline_out = Some(take(&mut i)),
            "--profile" => args.profile = true,
            "--warning-threshold" => {
                args.warning_threshold_c = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--metrics-out" => args.metrics_out = Some(take(&mut i)),
            "--run-record" => args.run_record = Some(take(&mut i)),
            "--flight-recorder" => args.flight_recorder = true,
            "--postmortem-dir" => args.postmortem_dir = Some(take(&mut i)),
            "--flight-capacity" => {
                args.flight_capacity = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--flight-every" => {
                args.flight_every = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--trace-rotate-mb" => {
                args.trace_rotate_mb = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--trace-timeline" => args.trace_timeline = Some(take(&mut i)),
            "--monitor" => args.monitor = Some(take(&mut i)),
            "--heartbeat" => {
                args.heartbeat_s = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--replicates" => {
                args.replicates = Some(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--seed-list" => {
                let v = take(&mut i);
                let seeds: Result<Vec<u64>, _> = v.split(',').map(str::parse).collect();
                args.seed_list = Some(seeds.unwrap_or_else(|_| usage()));
            }
            "--record-trace" => args.record_trace = Some(take(&mut i)),
            "--replay" => args.replay = Some(take(&mut i)),
            "--matrix" => args.matrix = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }
    args
}

/// Resolves `--replicates` / `--seed-list` into the replicate seed set;
/// `None` means an ordinary single run.
fn replicate_seeds(args: &Args) -> Option<Vec<u64>> {
    match (&args.seed_list, args.replicates) {
        (Some(list), n) => {
            if list.is_empty() {
                eprintln!("--seed-list needs at least one seed");
                std::process::exit(2);
            }
            if let Some(n) = n {
                if n as usize != list.len() {
                    eprintln!(
                        "--replicates {n} does not match --seed-list length {}",
                        list.len()
                    );
                    std::process::exit(2);
                }
            }
            Some(list.clone())
        }
        // Consecutive seeds from the base --seed; `--replicates 1` is an
        // ordinary single run.
        (None, Some(n)) if n >= 2 => Some((0..n).map(|k| args.seed.wrapping_add(k)).collect()),
        _ => None,
    }
}

/// The replicated-run mode: N seed-varied runs folded into one schema
/// v2 record with per-metric distributions.
fn run_replicated(args: &Args, seeds: &[u64]) {
    if args.graph_file.is_some() {
        eprintln!(
            "--replicates is incompatible with --graph: the co-sim is deterministic \
             for a fixed graph, so seeds would vary nothing"
        );
        std::process::exit(2);
    }
    if args.timeline
        || args.trace.is_some()
        || args.timeline_out.is_some()
        || args.trace_timeline.is_some()
        || args.monitor.is_some()
        || args.flight_recorder
        || args.postmortem_dir.is_some()
    {
        eprintln!(
            "--replicates cannot combine with per-run observability flags \
             (--timeline/--trace/--timeline-out/--trace-timeline/--monitor/\
             --flight-recorder/--postmortem-dir)"
        );
        std::process::exit(2);
    }
    let mut cfg = CoSimConfig {
        cooling: args.cooling,
        ..CoSimConfig::default()
    };
    if let Some(t) = args.warning_threshold_c {
        cfg.warning_threshold_c = t;
    }
    let threshold_c = cfg.warning_threshold_c;
    let spec = GraphSpec {
        scale: args.scale,
        avg_degree: args.degree,
        seed: args.seed,
        ..GraphSpec::ldbc_like()
    };
    let seed_desc = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    eprintln!(
        "# {} replicates of {} under {} (scale {}, seeds {}), {} cooling",
        seeds.len(),
        args.workload.name(),
        args.policy.name(),
        args.scale,
        seed_desc,
        args.cooling.name()
    );
    let results = run_replicates(spec, args.workload, args.policy, cfg, seeds);

    // The shared configuration carries the seed *list* — two replicated
    // runs with the same seed set hash to the same config, which is what
    // lets `obs` group them and `obs gate` compare them.
    let config_desc = format!(
        "workload={} policy={} scale={} degree={} seeds={} cooling={} threshold={} graph=-",
        args.workload.name(),
        args.policy.name(),
        args.scale,
        args.degree,
        seed_desc,
        args.cooling.name(),
        threshold_c,
    );
    let record_name = format!("{}-{}", args.workload.name(), args.policy.name());
    let runs: Vec<RunRecord> = results
        .iter()
        .map(|r| RunRecord::from_cosim(&record_name, &config_desc, r))
        .collect();
    let record = fold_replicates(&record_name, &config_desc, seeds, &runs);

    if let Some(path) = &args.metrics_out {
        if let Err(e) = record.write_to(std::path::Path::new(path)) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
    }
    let record_dir = args
        .run_record
        .clone()
        .map(Into::into)
        .or_else(run_record_dir);
    if let Some(dir) = record_dir {
        match record.save_to_dir(&dir) {
            Ok(path) => eprintln!("# run record: {}", path.display()),
            Err(e) => {
                eprintln!("failed to append run record under {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    println!("workload           {}", args.workload.name());
    println!("policy             {}", args.policy.name());
    println!("replicates         {} (seeds {})", seeds.len(), seed_desc);
    println!(
        "{:<34} {:>13} {:>11} {:>13} {:>13} {:>29}",
        "metric", "median", "mad", "min", "max", "95% CI (median)"
    );
    let names: Vec<String> = record.headline_metrics().map(str::to_string).collect();
    for metric in &names {
        if let Some(d) = record.distribution(metric) {
            println!(
                "{:<34} {:>13.6} {:>11.6} {:>13.6} {:>13.6} [{:>12.6}, {:>12.6}]",
                metric,
                d.summary.median,
                d.summary.mad,
                d.summary.min,
                d.summary.max,
                d.summary.ci_lo,
                d.summary.ci_hi
            );
        }
    }
}

fn load_graph(args: &Args) -> Csr {
    match &args.graph_file {
        Some(path) => coolpim_graph::io::read_edge_list_file(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }),
        None => GraphSpec {
            scale: args.scale,
            avg_degree: args.degree,
            seed: args.seed,
            ..GraphSpec::ldbc_like()
        }
        .build(),
    }
}

/// Loads and decodes `--replay FILE`, exiting with a diagnostic (never a
/// panic) on a missing, truncated, or corrupt trace.
fn load_replay_trace(path: &str) -> Arc<WorkloadTrace> {
    match WorkloadTrace::load(std::path::Path::new(path)) {
        Ok(t) => {
            eprintln!(
                "# replaying {path}: workload {} ({} launches, {} blocks, {} ops, config hash {:016x})",
                t.name,
                t.launches.len(),
                t.total_blocks(),
                t.total_ops(),
                t.config_hash
            );
            Arc::new(t)
        }
        Err(e) => {
            eprintln!("failed to load trace: {e}");
            std::process::exit(1);
        }
    }
}

/// `--matrix`: fan one workload stream across the 8-cell sweep. With
/// `--replay` every cell clones one shared `Arc`'d trace; without it
/// each cell regenerates graph + kernel (the honest live baseline the
/// BENCH_7 replay-speedup ratio is measured against).
fn run_matrix_mode(args: &Args) {
    let mut cfg = CoSimConfig {
        cooling: args.cooling,
        ..CoSimConfig::default()
    };
    if let Some(t) = args.warning_threshold_c {
        cfg.warning_threshold_c = t;
    }
    let cells = SweepCell::matrix8(cfg.warning_threshold_c);
    let started = std::time::Instant::now();
    let (workload_name, results) = match &args.replay {
        Some(path) => {
            let trace = load_replay_trace(path);
            let name = trace.name.clone();
            let sweep = run_source_sweep(
                || Box::new(TraceReplaySource::new(trace.clone())),
                &cells,
                cfg.clone(),
            );
            (name, sweep)
        }
        None => {
            let spec = GraphSpec {
                scale: args.scale,
                avg_degree: args.degree,
                seed: args.seed,
                ..GraphSpec::ldbc_like()
            };
            let workload = args.workload;
            let sweep =
                run_source_sweep(|| make_kernel(workload, &spec.build()), &cells, cfg.clone());
            (workload.name().to_string(), sweep)
        }
    };
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<18} {:<12} {:>9} {:>12} {:>10} {:>10}",
        "policy", "cooling", "thresh °C", "runtime ms", "peak °C", "offload"
    );
    for (cell, r) in cells.iter().zip(&results) {
        println!(
            "{:<18} {:<12} {:>9.1} {:>12.3} {:>10.1} {:>10.3}",
            cell.policy.name(),
            cell.cooling.name(),
            cell.warning_threshold_c,
            r.exec_s * 1e3,
            r.max_peak_dram_c,
            r.gpu.offload_fraction()
        );
    }
    eprintln!(
        "# {} matrix: {} cells of {} in {:.2} s wall ({})",
        if args.replay.is_some() {
            "replay"
        } else {
            "live"
        },
        cells.len(),
        workload_name,
        wall,
        if args.replay.is_some() {
            "one shared trace"
        } else {
            "graph + kernel regenerated per cell"
        }
    );
}

fn main() {
    let args = parse_args();
    if args.replay.is_some() && (args.record_trace.is_some() || args.graph_file.is_some()) {
        eprintln!("--replay is incompatible with --record-trace and --graph (the trace already fixes the workload)");
        std::process::exit(2);
    }
    if args.matrix && (args.replicates.is_some() || args.seed_list.is_some()) {
        eprintln!("--matrix and --replicates are separate sweep modes; pick one");
        std::process::exit(2);
    }
    if let Some(seeds) = replicate_seeds(&args) {
        if args.record_trace.is_some() || args.replay.is_some() {
            eprintln!("--replicates regenerates the graph per seed; record or replay a single run instead");
            std::process::exit(2);
        }
        run_replicated(&args, &seeds);
        return;
    }
    if args.matrix {
        run_matrix_mode(&args);
        return;
    }
    let replay_trace = args.replay.as_deref().map(load_replay_trace);
    // Replay skips graph generation and kernel construction entirely —
    // the trace *is* the workload.
    let mut kernel = if replay_trace.is_none() {
        let graph = load_graph(&args);
        eprintln!(
            "# {} under {} on {} vertices / {} edges, {} cooling",
            args.workload.name(),
            args.policy.name(),
            graph.vertices(),
            graph.edge_count(),
            args.cooling.name()
        );
        Some(make_kernel(args.workload, &graph))
    } else {
        None
    };
    let mut cfg = CoSimConfig {
        cooling: args.cooling,
        ..CoSimConfig::default()
    };
    if let Some(t) = args.warning_threshold_c {
        cfg.warning_threshold_c = t;
    }

    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if let Some(path) = &args.trace {
        // With a rotation budget the trace goes through the size-capped
        // rotating sink (numbered parts, newest kept) instead of one
        // unbounded file.
        let sink: Result<Box<dyn Sink>, std::io::Error> = match args.trace_rotate_mb {
            Some(mb) => RotatingJsonlSink::create(path, mb.max(1) * 1024 * 1024, 4)
                .map(|s| Box::new(s) as Box<dyn Sink>),
            None => JsonlSink::create(path).map(|s| Box::new(s) as Box<dyn Sink>),
        };
        match sink {
            Ok(s) => sinks.push(s),
            Err(e) => {
                eprintln!("failed to create trace file {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.timeline_out {
        match CsvSink::create(path) {
            Ok(s) => sinks.push(Box::new(s)),
            Err(e) => {
                eprintln!("failed to create timeline file {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let telemetry = match sinks.len() {
        0 => Telemetry::disabled(),
        1 => Telemetry::with_sink(sinks.pop().expect("one sink")),
        _ => Telemetry::with_sink(Box::new(MultiSink::new(sinks))),
    };
    let flight_on = args.flight_recorder || args.postmortem_dir.is_some();
    let monitor_on = args.monitor.is_some();

    let threshold_c = cfg.warning_threshold_c;

    // One record serves the snapshot dump, the run store, and the live
    // monitor's /status identity — computed before the run so the
    // monitor can serve it from the first epoch.
    // A replayed run is identified by the trace's recorded workload name
    // and the trace file path — not the (ignored) --workload/--graph.
    let workload_name = match &replay_trace {
        Some(t) => t.name.clone(),
        None => args.workload.name().to_string(),
    };
    let config_desc = format!(
        "workload={} policy={} scale={} degree={} seed={} cooling={} threshold={} graph={}",
        workload_name,
        args.policy.name(),
        args.scale,
        args.degree,
        args.seed,
        args.cooling.name(),
        threshold_c,
        args.replay
            .as_deref()
            .or(args.graph_file.as_deref())
            .unwrap_or("-"),
    );
    let record_name = format!("{}-{}", workload_name, args.policy.name());

    let mut cosim = CoSim::new(args.policy, cfg).with_telemetry(telemetry);
    // One tracer serves the timeline export, the --profile span tree, and
    // the flight recorder's and monitor's self-overhead figure.
    let tracer = (args.trace_timeline.is_some() || args.profile || flight_on || monitor_on)
        .then(Tracer::new);
    if let Some(t) = &tracer {
        cosim = cosim.with_tracer(t);
    }
    // Observers run in attach order: the flight recorder first, so an
    // epoch's FlightDump still streams ahead of its Heartbeat.
    if flight_on {
        let mut fcfg = FlightConfig {
            postmortem_dir: args.postmortem_dir.clone().map(Into::into),
            ..FlightConfig::default()
        };
        if let Some(cap) = args.flight_capacity {
            fcfg.capacity = cap.max(1) as usize;
        }
        if let Some(every) = args.flight_every {
            fcfg.every_epochs = every.max(1);
        }
        if let Some(dir) = &args.postmortem_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create postmortem dir {dir}: {e}");
                std::process::exit(1);
            }
        }
        cosim = cosim.with_observer(FlightObserver::new(fcfg));
    }
    let mut server = None;
    if let Some(addr) = &args.monitor {
        let hub = MonitorHub::new();
        hub.begin_run(&record_name, &format!("{:016x}", fnv1a(&config_desc)));
        match MonitorServer::start(addr, hub.clone()) {
            Ok(s) => {
                // Printed before the run starts so scrapers can attach
                // and land mid-run (the CI live-monitor job greps this).
                eprintln!("# monitor: http://{}", s.local_addr());
                server = Some(s);
            }
            Err(e) => {
                eprintln!("failed to bind monitor on {addr}: {e}");
                std::process::exit(1);
            }
        }
        cosim = cosim.with_observer(hub);
    }
    if let Some(secs) = args.heartbeat_s {
        cosim = cosim.with_observer(Heartbeat::every(secs));
    }
    // (file bytes, ops, blocks, launches) of a just-recorded trace, for
    // the run record.
    let mut recorded_trace: Option<(u64, u64, u64, u64)> = None;
    let r = if let Some(trace) = &replay_trace {
        let mut source = TraceReplaySource::new(trace.clone());
        cosim.run(&mut source)
    } else {
        let kernel = kernel.as_mut().expect("kernel exists unless replaying");
        if let Some(path) = &args.record_trace {
            let mut recorder = RecordingSource::new(kernel.as_mut());
            let result = cosim.run(&mut recorder);
            // A generated graph's lineage hash ties the replay back to
            // the exact draw; a file-loaded graph has no spec, so hash
            // the run configuration instead.
            let config_hash = if args.graph_file.is_some() {
                fnv1a(&config_desc)
            } else {
                GraphSpec {
                    scale: args.scale,
                    avg_degree: args.degree,
                    seed: args.seed,
                    ..GraphSpec::ldbc_like()
                }
                .config_hash()
            };
            let trace = recorder.finish(config_hash, &config_desc);
            let bytes = trace.encode();
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("failed to write trace {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "# recorded trace: {path} ({} bytes, {} launches, {} blocks, {} ops)",
                bytes.len(),
                trace.launches.len(),
                trace.total_blocks(),
                trace.total_ops()
            );
            recorded_trace = Some((
                bytes.len() as u64,
                trace.total_ops() as u64,
                trace.total_blocks() as u64,
                trace.launches.len() as u64,
            ));
            result
        } else {
            cosim.run(kernel.as_mut())
        }
    };

    // Clean monitor shutdown: the run is over, so stop the accept loop
    // and join the server thread — a finished sim must not keep a
    // listener (and the process) alive.
    if let Some(mut s) = server.take() {
        s.stop();
        eprintln!("# monitor stopped");
    }

    for path in &r.postmortem_dumps {
        eprintln!("# postmortem bundle: {}", path.display());
    }

    // Export the trace timeline: self-validate before writing so a
    // malformed document can never land on disk, then report the
    // summary a CI log can grep.
    if let (Some(path), Some(tracer)) = (&args.trace_timeline, &tracer) {
        let json = tracer.to_chrome_json();
        match coolpim_telemetry::validate_trace_json(&json) {
            Ok(sum) => eprintln!(
                "# trace timeline: {path} ({} events, {} tracks, max depth {}, {} flows matched)",
                sum.events, sum.tracks, sum.max_depth, sum.flow_matched
            ),
            Err(e) => {
                eprintln!("internal error: trace timeline failed validation: {e}");
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write trace timeline {path}: {e}");
            std::process::exit(1);
        }
    }

    let mut record = RunRecord::from_cosim(&record_name, &config_desc, &r);
    if let Some((bytes, ops, blocks, launches)) = recorded_trace {
        record.push("trace.file_bytes", bytes as f64);
        record.push("trace.ops", ops as f64);
        record.push("trace.blocks", blocks as f64);
        record.push("trace.launches", launches as f64);
    }
    // Fold the aggregated span tree into the run record as a versioned
    // profile section: one flat `tprof.<path>.{total_s,self_s,calls}`
    // triple per tree path, which is what `profile_diff` bands against
    // committed baselines.
    if let Some(tracer) = &tracer {
        let tp = tracer.profile();
        record.push("tprof.schema", 1.0);
        record.push("tprof.span_s", tp.span_s);
        for (path, total_s, self_s, calls) in tp.flatten() {
            record.push(&format!("tprof.{path}.total_s"), total_s);
            record.push(&format!("tprof.{path}.self_s"), self_s);
            record.push(&format!("tprof.{path}.calls"), calls as f64);
        }
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = record.write_to(std::path::Path::new(path)) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
    }
    let record_dir = args
        .run_record
        .clone()
        .map(Into::into)
        .or_else(run_record_dir);
    if let Some(dir) = record_dir {
        match record.save_to_dir(&dir) {
            Ok(path) => eprintln!("# run record: {}", path.display()),
            Err(e) => {
                eprintln!("failed to append run record under {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    println!("workload           {}", r.workload);
    println!("policy             {}", r.policy.name());
    println!("runtime            {:.3} ms", r.exec_s * 1e3);
    println!("avg PIM rate       {:.3} op/ns", r.avg_pim_rate_op_ns);
    println!("avg data bandwidth {:.1} GB/s", r.avg_data_bw() / 1e9);
    println!("peak DRAM temp     {:.1} °C", r.max_peak_dram_c);
    println!("L2 hit rate        {:.3}", r.l2_hit_rate);
    println!("PIM ops            {}", r.hmc.pim_ops);
    println!("reads / writes     {} / {}", r.hmc.reads, r.hmc.writes);
    println!("cube energy        {:.3} J", r.cube_energy_j);
    println!("fan energy         {:.3} J", r.fan_energy_j);
    println!("offload fraction   {:.3}", r.gpu.offload_fraction());
    println!("kernel launches    {}", r.gpu.launches);
    println!("throttle steps     {}", r.throttle_steps);
    if flight_on || monitor_on {
        println!("telemetry overhead {:.2} %", r.telemetry_overhead_pct);
    }
    if flight_on {
        println!("postmortem dumps   {}", r.postmortem_dumps.len());
    }
    if r.shutdown {
        println!("!! thermal shutdown occurred");
    }
    if args.profile {
        let tracer = tracer.as_ref().expect("--profile attaches a tracer");
        print!("{}", tracer.profile().render());
        print!("{}", r.metrics.render());
    }
    if args.timeline {
        println!("{CSV_TIMELINE_HEADER}");
        for s in &r.timeline {
            println!(
                "{:.3},{:.3},{:.1},{:.2},{:?}",
                s.t_s * 1e3,
                s.pim_rate_op_ns,
                s.data_bw / 1e9,
                s.peak_dram_c,
                s.phase
            );
        }
    }
}
