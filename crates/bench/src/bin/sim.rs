//! `sim` — the general-purpose co-simulation driver.
//!
//! ```text
//! sim [--workload NAME] [--policy NAME] [--scale N] [--degree N]
//!     [--cooling NAME] [--seed N] [--graph FILE]
//!     [--trace FILE] [--timeline-out FILE] [--profile]
//!     [--warning-threshold C] [--metrics-out FILE]
//!     [--flight-recorder] [--postmortem-dir DIR] [--trace-rotate-mb MB]
//!     [--trace-timeline FILE] [--heartbeat SECS] [--seed-list a,b,c]
//!     [--record-trace FILE] [--replay FILE] [--matrix]
//! ```
//!
//! Runs one workload under one policy and prints the full metric set
//! (runtime, PIM rate, bandwidth, peak temperature, energy). `--scale`
//! takes the range `COOLPIM_SCALE` does (`repro::SCALES`, 8..=24); any
//! other value is a usage error (exit 2), as is `--degree 0`. A live
//! run's record carries its setup times, `setup.graph_s` (graph
//! generation or loading, CSR build included) and `setup.kernel_s`
//! (`make_kernel`). `--graph`
//! loads a plain-text edge list instead of generating an R-MAT graph;
//! `--timeline-out FILE` writes the per-epoch telemetry as CSV when the
//! run ends (`/dev/stdout` puts it ahead of the summary, also when stdout
//! is redirected to a file), `--trace FILE` streams the full event log
//! (warnings, phase moves, pool resizes, kernel lifecycle, epoch samples)
//! as JSONL and makes the run exit 1 if an event failed to reach it, and
//! `--profile` prints the run's span tree (self and total time per
//! phase, critical path).
//!
//! `--warning-threshold` overrides the ERRSTAT trigger temperature
//! (small-scale CI runs lower it so the feedback loop engages).
//! `--metrics-out FILE` writes the run record (headline metrics +
//! telemetry snapshot) as one flat JSON object, the input of `obs gate`
//! and, collected in a directory, of `obs report --runs DIR`.
//!
//! `--flight-recorder` keeps a rolling in-memory ring of per-vault
//! thermal/traffic samples; `--postmortem-dir DIR` (implies
//! `--flight-recorder`) dumps that ring as a versioned JSONL bundle
//! whenever a thermal warning, phase change, or overshoot episode
//! fires — inspect bundles with the `postmortem` bin.
//! `--trace-rotate-mb MB` caps the `--trace` file by rotating it into
//! numbered parts, keeping only the newest few; without `--trace`, or
//! as 0, it exits 2.
//!
//! `--trace-timeline FILE` records a hierarchical trace timeline of the
//! run — nested epoch/thermal/scheduling spans on per-component tracks,
//! counter tracks (peak DRAM temp, token pool, warp cap), and
//! warning→throttle flow arrows — and writes it as Chrome trace-event
//! JSON loadable at <https://ui.perfetto.dev>. The file is validated
//! in-process before it is written, and the run record keeps the
//! validator's summary as `trace.tracks`, `trace.max_depth` and
//! `trace.flows_matched` for `obs gate trace`; the aggregated span tree
//! also folds into the record as `tprof.*` metrics for `obs gate
//! profile`.
//!
//! `--seed-list a,b,c` runs the same configuration once per listed seed
//! (distinct seeds, one R-MAT draw each) on a worker pool and folds the
//! runs into ONE replicated run record (schema v2): per metric the
//! median as the headline value plus a `dist.<metric>.*` block (MAD,
//! extremes, bootstrap 95 % CI, raw samples). That record is what `obs gate` runs
//! its permutation test on. Both sweep modes, `--seed-list` and
//! `--matrix` (below), refuse `--graph` (they generate their own graphs;
//! for replicates a fixed graph leaves nothing for the seed to vary) and
//! the per-run flags (`--trace`, `--timeline-out`, `--heartbeat`, ...),
//! exiting 2 naming any they would ignore.
//!
//! `--record-trace FILE` tees the workload's exact per-warp instruction
//! stream — the one this very run executed — into a versioned binary
//! `.cptr` trace (see `coolpim-trace`). `--replay FILE` feeds a recorded
//! trace back through the co-sim instead of generating the workload
//! live: no graph build, no kernel execution, bit-identical results
//! under any policy/cooling/threshold (the `validate --component
//! replay` oracle proves it). The trace fixes the workload and graph,
//! so `--replay` exits 2 naming any of `--workload`, `--scale`,
//! `--degree`, `--seed`, `--graph` and `--record-trace` given with it.
//! `--matrix` fans the run out across a fixed 8-cell (policy × cooling ×
//! threshold) sweep on the worker pool, where cells that the thermal
//! feedback never tells apart share one engine run; combined with
//! `--replay` the cells share one immutable trace (`Arc`), which is the
//! "record once, replay everywhere" sweep that simbench's `replay-sweep`
//! workload times.
//! The matrix writes no run record, so it also refuses `--metrics-out`.
//!
//! `--heartbeat SECS` prints a one-line progress summary to stderr at
//! that wall-clock cadence (first beat on the first epoch); SECS is a
//! positive, finite number.

use coolpim_bench::replicate::fold_replicates;
use coolpim_bench::repro::check_scale;
use coolpim_bench::runrec::{fnv1a, RunRecord};
use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::experiment::{run_replicates, run_source_sweep, SweepCell};
use coolpim_core::observer::{FlightConfig, FlightObserver, Heartbeat};
use coolpim_core::policy::Policy;
use coolpim_core::report::timeline_csv;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_graph::Csr;
use coolpim_telemetry::{JsonlSink, RotatingJsonlSink, Sink, Telemetry, Tracer};
use coolpim_thermal::cooling::Cooling;
use coolpim_trace::{RecordingSource, TraceReplaySource, WorkloadTrace};

use std::io::Write;
use std::sync::Arc;

struct Args {
    workload: Workload,
    policy: Policy,
    scale: u32,
    degree: u32,
    seed: u64,
    cooling: Cooling,
    graph_file: Option<String>,
    trace: Option<String>,
    timeline_out: Option<String>,
    profile: bool,
    warning_threshold_c: Option<f64>,
    metrics_out: Option<String>,
    flight_recorder: bool,
    postmortem_dir: Option<String>,
    trace_rotate_mb: Option<u64>,
    trace_timeline: Option<String>,
    heartbeat_s: Option<f64>,
    seed_list: Option<Vec<u64>>,
    record_trace: Option<String>,
    replay: Option<String>,
    matrix: bool,
    /// The workload and graph flags given on the command line (they all
    /// have defaults, so the values alone cannot tell).
    graph_flags_given: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim [--workload dc|bfs-ta|bfs-dwc|bfs-twc|bfs-ttc|kcore|pagerank|sssp-dtc|sssp-dwc|sssp-twc]\n\
         \x20          [--policy baseline|naive|coolpim-sw|coolpim-hw|ideal]\n\
         \x20          [--scale N] [--degree N] [--seed N]\n\
         \x20          [--cooling passive|low-end|commodity|high-end]\n\
         \x20          [--graph edge-list-file]\n\
         \x20          [--trace jsonl-file] [--timeline-out csv-file] [--profile]\n\
         \x20          [--warning-threshold C] [--metrics-out json-file]\n\
         \x20          [--flight-recorder] [--postmortem-dir dir]\n\
         \x20          [--trace-rotate-mb MB] [--trace-timeline json-file]\n\
         \x20          [--heartbeat secs] [--seed-list a,b,c]\n\
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
        trace: None,
        timeline_out: None,
        profile: false,
        warning_threshold_c: None,
        metrics_out: None,
        flight_recorder: false,
        postmortem_dir: None,
        trace_rotate_mb: None,
        trace_timeline: None,
        heartbeat_s: None,
        seed_list: None,
        record_trace: None,
        replay: None,
        matrix: false,
        graph_flags_given: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        let graph_flag = match argv[i].as_str() {
            "--workload" | "-w" => Some("--workload"),
            "--scale" | "-s" => Some("--scale"),
            "--degree" | "-d" => Some("--degree"),
            "--seed" => Some("--seed"),
            _ => None,
        };
        if let Some(flag) = graph_flag.filter(|f| !args.graph_flags_given.contains(f)) {
            args.graph_flags_given.push(flag);
        }
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
            "--degree" | "-d" => match take(&mut i).parse() {
                Ok(0) => {
                    eprintln!("--degree 0 generates a graph without edges; give 1 or more");
                    std::process::exit(2);
                }
                Ok(d) => args.degree = d,
                Err(_) => usage(),
            },
            "--seed" => args.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--cooling" | "-c" => {
                let v = take(&mut i);
                args.cooling = parse_cooling(&v).unwrap_or_else(|| usage());
            }
            "--graph" | "-g" => args.graph_file = Some(take(&mut i)),
            "--trace" => args.trace = Some(take(&mut i)),
            "--timeline-out" => args.timeline_out = Some(take(&mut i)),
            "--profile" => args.profile = true,
            "--warning-threshold" => {
                let v = take(&mut i);
                match v.parse::<f64>() {
                    Ok(c) if c.is_finite() => args.warning_threshold_c = Some(c),
                    Ok(_) => {
                        eprintln!("--warning-threshold {v} is not a finite temperature");
                        std::process::exit(2);
                    }
                    Err(_) => usage(),
                }
            }
            "--metrics-out" => args.metrics_out = Some(take(&mut i)),
            "--flight-recorder" => args.flight_recorder = true,
            "--postmortem-dir" => args.postmortem_dir = Some(take(&mut i)),
            "--trace-rotate-mb" => match take(&mut i).parse() {
                Ok(0) => {
                    eprintln!(
                        "--trace-rotate-mb 0 leaves no room for a trace part; give 1 or more"
                    );
                    std::process::exit(2);
                }
                Ok(mb) => args.trace_rotate_mb = Some(mb),
                Err(_) => usage(),
            },
            "--trace-timeline" => args.trace_timeline = Some(take(&mut i)),
            "--heartbeat" => {
                let v = take(&mut i);
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => args.heartbeat_s = Some(s),
                    Ok(_) => {
                        eprintln!("--heartbeat {v} is not a positive, finite number of seconds");
                        std::process::exit(2);
                    }
                    Err(_) => usage(),
                }
            }
            "--seed-list" => {
                let v = take(&mut i);
                let seeds: Vec<u64> = v
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if let Some(k) = (1..seeds.len()).find(|&k| seeds[..k].contains(&seeds[k])) {
                    eprintln!(
                        "--seed-list repeats seed {}; each seed is one independent run",
                        seeds[k]
                    );
                    std::process::exit(2);
                }
                args.seed_list = Some(seeds);
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
    if let Err(e) = check_scale("--scale", args.scale) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    args
}

/// The co-sim configuration: `--cooling` plus the `--warning-threshold`
/// override.
fn cosim_config(args: &Args) -> CoSimConfig {
    let base = CoSimConfig::default();
    CoSimConfig {
        cooling: args.cooling,
        warning_threshold_c: args.warning_threshold_c.unwrap_or(base.warning_threshold_c),
        ..base
    }
}

/// The R-MAT graph `--scale`, `--degree` and `--seed` describe.
fn graph_spec(args: &Args) -> GraphSpec {
    GraphSpec {
        scale: args.scale,
        avg_degree: args.degree,
        seed: args.seed,
        ..GraphSpec::ldbc_like()
    }
}

/// Writes `record` to `--metrics-out`, exiting 1 on an I/O error.
fn write_record(args: &Args, record: &RunRecord) {
    if let Some(path) = &args.metrics_out {
        if let Err(e) = record.write_to(std::path::Path::new(path)) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The sweep modes' shared flag check: exits 2 naming every flag given
/// that only a single run reads, instead of ignoring it. `--graph` is
/// among them, since both modes generate their own graphs. A mode that
/// writes no run record (`writes_record` false) also refuses
/// `--metrics-out`.
fn reject_per_run_flags(args: &Args, mode: &str, writes_record: bool) {
    let no_record = !writes_record;
    let flags = [
        ("--graph", args.graph_file.is_some()),
        ("--trace", args.trace.is_some()),
        ("--trace-rotate-mb", args.trace_rotate_mb.is_some()),
        ("--timeline-out", args.timeline_out.is_some()),
        ("--trace-timeline", args.trace_timeline.is_some()),
        ("--profile", args.profile),
        ("--flight-recorder", args.flight_recorder),
        ("--postmortem-dir", args.postmortem_dir.is_some()),
        ("--heartbeat", args.heartbeat_s.is_some()),
        ("--record-trace", args.record_trace.is_some()),
        ("--metrics-out", no_record && args.metrics_out.is_some()),
    ];
    let given: Vec<&str> = flags.iter().filter(|f| f.1).map(|f| f.0).collect();
    if !given.is_empty() {
        eprintln!(
            "{mode} makes many runs and would ignore the per-run flag(s) {}; \
             use them on a single run",
            given.join(" ")
        );
        std::process::exit(2);
    }
}

/// The replicated-run mode: N seed-varied runs folded into one schema
/// v2 record with per-metric distributions.
fn run_replicated(args: &Args, seeds: &[u64]) {
    reject_per_run_flags(args, "--seed-list", true);
    let cfg = cosim_config(args);
    let threshold_c = cfg.warning_threshold_c;
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
    let results = run_replicates(graph_spec(args), args.workload, args.policy, cfg, seeds);

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

    write_record(args, &record);

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
        None => graph_spec(args).build(),
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
/// each cell regenerates graph + kernel (the honest live baseline a
/// replayed sweep is compared with).
fn run_matrix_mode(args: &Args) {
    reject_per_run_flags(args, "--matrix", false);
    let cfg = cosim_config(args);
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
            let spec = graph_spec(args);
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
    if args.replay.is_some() {
        let mut given = args.graph_flags_given.clone();
        given.extend(args.graph_file.as_ref().map(|_| "--graph"));
        given.extend(args.record_trace.as_ref().map(|_| "--record-trace"));
        if !given.is_empty() {
            eprintln!(
                "--replay takes the workload and graph from the trace and would ignore {}",
                given.join(" ")
            );
            std::process::exit(2);
        }
    }
    if let Some(seeds) = &args.seed_list {
        if args.matrix {
            eprintln!("--matrix and --seed-list are separate sweep modes; pick one");
            std::process::exit(2);
        }
        if args.replay.is_some() {
            eprintln!("--seed-list regenerates the graph per seed; replay a single run instead");
            std::process::exit(2);
        }
        run_replicated(&args, seeds);
        return;
    }
    if args.matrix {
        run_matrix_mode(&args);
        return;
    }
    if args.trace_rotate_mb.is_some() && args.trace.is_none() {
        eprintln!("--trace-rotate-mb caps the --trace file; give --trace too");
        std::process::exit(2);
    }
    let replay_trace = args.replay.as_deref().map(load_replay_trace);
    // Replay skips graph generation and kernel construction entirely —
    // the trace *is* the workload.
    // Setup times (s) of a live run: the graph, then the kernel on it.
    let mut setup = None;
    let mut kernel = if replay_trace.is_none() {
        let started = std::time::Instant::now();
        let graph = load_graph(&args);
        let graph_s = started.elapsed().as_secs_f64();
        eprintln!(
            "# {} under {} on {} vertices / {} edges, {} cooling",
            args.workload.name(),
            args.policy.name(),
            graph.vertices(),
            graph.edge_count(),
            args.cooling.name()
        );
        let started = std::time::Instant::now();
        let kernel = make_kernel(args.workload, &graph);
        setup = Some((graph_s, started.elapsed().as_secs_f64()));
        Some(kernel)
    } else {
        None
    };
    let cfg = cosim_config(&args);

    let mut telemetry = Telemetry::disabled();
    if let Some(path) = &args.trace {
        // With a rotation budget the trace goes through the size-capped
        // rotating sink (numbered parts, newest kept) instead of one
        // unbounded file.
        let sink: Result<Box<dyn Sink>, std::io::Error> = match args.trace_rotate_mb {
            Some(mb) => RotatingJsonlSink::create(path, mb.saturating_mul(1 << 20), 4)
                .map(|s| Box::new(s) as Box<dyn Sink>),
            None => JsonlSink::create(path).map(|s| Box::new(s) as Box<dyn Sink>),
        };
        match sink {
            Ok(s) => telemetry = Telemetry::with_sink(s),
            Err(e) => {
                eprintln!("failed to create trace file {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Created up front so a bad path fails before the run; the CSV is
    // written when the run ends. `/dev/stdout` goes through the process's
    // own stdout handle: a second open of it would start at offset 0 of a
    // redirected file, and the summary printed after it would overwrite
    // the CSV.
    let timeline_out = args.timeline_out.as_ref().map(|path| {
        let out: Box<dyn Write> = if path == "/dev/stdout" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("failed to create timeline file {path}: {e}");
                std::process::exit(1);
            }))
        };
        (path, out)
    });
    let flight_on = args.flight_recorder || args.postmortem_dir.is_some();

    let threshold_c = cfg.warning_threshold_c;

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
    // the flight recorder's self-overhead figure.
    let tracer = (args.trace_timeline.is_some() || args.profile || flight_on).then(Tracer::new);
    if let Some(t) = &tracer {
        cosim = cosim.with_tracer(t);
    }
    // Observers run in attach order: the flight recorder first, so an
    // epoch's FlightDump still streams ahead of its Heartbeat.
    if flight_on {
        if let Some(dir) = &args.postmortem_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create postmortem dir {dir}: {e}");
                std::process::exit(1);
            }
        }
        cosim = cosim.with_observer(FlightObserver::new(FlightConfig {
            postmortem_dir: args.postmortem_dir.clone().map(Into::into),
            ..FlightConfig::default()
        }));
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
                graph_spec(&args).config_hash()
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

    for path in &r.postmortem_dumps {
        eprintln!("# postmortem bundle: {}", path.display());
    }

    // Export the trace timeline: self-validate before writing so a
    // malformed document can never land on disk, then report the
    // summary a CI log can grep; the run record keeps it for
    // `obs gate trace`.
    let mut timeline_summary = None;
    if let (Some(path), Some(tracer)) = (&args.trace_timeline, &tracer) {
        let json = tracer.to_chrome_json();
        match coolpim_telemetry::validate_trace_json(&json) {
            Ok(sum) => {
                eprintln!(
                    "# trace timeline: {path} ({} events, {} tracks, max depth {}, {} flows matched)",
                    sum.events, sum.tracks, sum.max_depth, sum.flow_matched
                );
                timeline_summary = Some(sum);
            }
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

    if let Some((path, mut out)) = timeline_out {
        if let Err(e) = out.write_all(timeline_csv(&r.timeline).as_bytes()) {
            eprintln!("failed to write timeline file {path}: {e}");
            std::process::exit(1);
        }
    }

    let mut record = RunRecord::from_cosim(&record_name, &config_desc, &r);
    if let Some((graph_s, kernel_s)) = setup {
        record.push("setup.graph_s", graph_s);
        record.push("setup.kernel_s", kernel_s);
    }
    if let Some((bytes, ops, blocks, launches)) = recorded_trace {
        record.push("trace.file_bytes", bytes as f64);
        record.push("trace.ops", ops as f64);
        record.push("trace.blocks", blocks as f64);
        record.push("trace.launches", launches as f64);
    }
    if let Some(sum) = timeline_summary {
        record.push("trace.tracks", sum.tracks as f64);
        record.push("trace.max_depth", sum.max_depth as f64);
        record.push("trace.flows_matched", sum.flow_matched as f64);
    }
    // Fold the aggregated span tree into the run record as a versioned
    // profile section: one flat `tprof.<path>.{total_s,self_s,calls}`
    // triple per tree path, which is what `obs gate profile` bands
    // against committed baselines.
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
    write_record(&args, &record);

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
    if flight_on {
        println!("telemetry overhead {:.2} %", r.telemetry_overhead_pct);
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
    let dropped = r.metrics.counter("trace_dropped_writes");
    if let (Some(path), true) = (&args.trace, dropped > 0) {
        eprintln!("trace {path} is incomplete: {dropped} event(s) lost");
        std::process::exit(1);
    }
}
