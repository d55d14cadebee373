//! `simbench`: runs one workload of the co-simulator benchmark and prints
//! its metrics, ending with one JSON line.
//!
//! ```text
//! simbench --workload <live-sssp-s19|eval-quick|replay-sweep> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! simbench --manifest      # print BENCHMARK.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: setup and run repeated,
//! untraced, for about `--seconds`, the fastest repetition reported and
//! scaled to a reference host speed. `--trace 1`
//! runs once untraced and once with every seam wrapped, reports the
//! per-layer metrics, and writes the spans to
//! `simbench/out/<workload>-seed<N>.trace.json` (Chrome trace format).
//! Either way every cell's fingerprint is printed and checked; the exit
//! code is 1 when a check fails and 2 on a usage error.

use std::time::Instant;

use coolpim_simbench::calib::{Calibrator, REFERENCE_S};
use coolpim_simbench::catalogue::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS};
use coolpim_simbench::cells::Outcome;
use coolpim_simbench::layers::per_layer;
use coolpim_simbench::pool::workers_for;
use coolpim_simbench::stats::{median, min, tail};
use coolpim_simbench::workload::{
    matrix_reference, run, setup, traced, traced_outcomes, Bench, Cell, DEFAULT_SEED,
};

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       simbench --manifest",
        Bench::ALL.map(Bench::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", manifest());
        std::process::exit(0);
    }
    let (mut bench, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, RUN_SECONDS as f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => bench = Some(Bench::from_name(value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    Args {
        bench: bench.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
    }
}

/// What a run reports: the JSON line's fields plus the problems found.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Fingerprints of the first run, which later runs must repeat.
    reference: Option<Vec<Outcome>>,
}

impl Report {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            reference: None,
        }
    }

    /// Counts `outcomes`, prints them the first time, and checks later
    /// ones against the first.
    fn tally(&mut self, what: &str, outcomes: Vec<Outcome>) {
        for o in &outcomes {
            self.attempted += 1;
            if let Err(e) = o {
                self.failed += 1;
                self.problems.push(format!("failed cell: {e}"));
            }
        }
        match &self.reference {
            None => {
                for o in &outcomes {
                    match o {
                        Ok(fp) => println!("cell {fp}"),
                        Err(e) => println!("cell FAILED {e}"),
                    }
                }
                self.reference = Some(outcomes);
            }
            Some(first) => {
                for (a, b) in first.iter().zip(&outcomes) {
                    if let (Ok(a), Ok(b)) = (a, b) {
                        if a != b {
                            self.problems.push(format!(
                                "{what}: fingerprint differs from the first run\n  first: {a}\n  now:   {b}"
                            ));
                        }
                    }
                }
                if first.len() != outcomes.len() {
                    self.problems.push(format!("{what}: cell count changed"));
                }
            }
        }
    }

    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }
}

fn outcomes(cells: &[Cell]) -> Vec<Outcome> {
    cells.iter().map(|c| c.outcome.clone()).collect()
}

/// Replay's cell 0 must be bit-identical to the run that recorded it.
fn check_replay(rep: &mut Report, recorded: Option<&Outcome>, replayed: Option<&Outcome>) {
    if let (Some(rec), Some(rep0)) = (recorded, replayed) {
        match (rec, rep0) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => rep.problems.push(format!(
                "replayed cell 0 differs from the live recording run\n  live:   {rec:?}\n  replay: {rep0:?}"
            )),
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_fidelity(f: [f64; 3]) {
    println!(
        "fidelity (Fig. 10 mean speedup over Non-Offloading; model error at scale 16, reported only): \
         SW {:.3}x vs paper 1.21x ({:+.3}), HW {:.3}x vs paper 1.25x ({:+.3}), Naive {:.3}x",
        f[0],
        f[0] - 1.21,
        f[1],
        f[1] - 1.25,
        f[2]
    );
}

/// `--trace 0`: the end-to-end metrics from untraced runs.
///
/// Setup and run repeat, at least twice, while another repetition of the
/// last one's length still fits in `--seconds`; setup alone then repeats
/// until it has three samples. The reference workload runs before the
/// first setup and after every setup and run, and every time is scaled by
/// the median of its times ([`Calibrator`]): the host's speed drifts in
/// phases that outlast a process, which no choice among one process's
/// repetitions removes.
/// Each time metric is the fastest repetition, and each cell's time its
/// fastest over them, scaled: contention within a phase only ever adds
/// time.
fn untraced(a: &Args) -> Report {
    let mut rep = Report::new();
    let cal = Calibrator::new(workers_for(a.bench.cells()));
    let origin = Instant::now();
    let mut refs = vec![cal.measure()];
    let (mut setups, mut runs, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut cell_reps: Vec<Vec<f64>> = Vec::new();
    let mut insts = 0u64;
    loop {
        let started = Instant::now();
        let mut s = match setup(a.bench, a.seed, None) {
            Ok(s) => s,
            Err(e) => {
                rep.problems.push(format!("setup failed: {e}"));
                break;
            }
        };
        let setup_s = started.elapsed().as_secs_f64();
        refs.push(cal.measure());
        let t = Instant::now();
        let out = run(a.bench, &mut s);
        let run_s = t.elapsed().as_secs_f64();
        refs.push(cal.measure());
        check_replay(
            &mut rep,
            s.recorded.as_ref(),
            out.cells.first().map(|c| &c.outcome),
        );
        drop(s);
        rep.tally("untraced run", outcomes(&out.cells));
        insts = out.cells.iter().map(|c| c.insts).sum();
        cell_reps.push(
            out.cells
                .iter()
                .map(|c| c.secs.unwrap_or(f64::NAN))
                .collect(),
        );
        setups.push(setup_s);
        runs.push(run_s);
        walls.push(setup_s + run_s);
        let next_ends = origin.elapsed().as_secs_f64() + started.elapsed().as_secs_f64();
        if !rep.problems.is_empty() || (runs.len() >= 2 && next_ends > a.seconds) {
            break;
        }
    }
    // Setup is short next to the run on some workloads: repeat it alone
    // until it has three samples.
    while setups.len() < 3 && rep.problems.is_empty() {
        let t = Instant::now();
        let s = setup(a.bench, a.seed, None);
        setups.push(t.elapsed().as_secs_f64());
        refs.push(cal.measure());
        if let Err(e) = s {
            rep.problems.push(format!("setup failed: {e}"));
        }
    }
    let scale = Calibrator::scale(&refs);
    let cells: Vec<f64> = (0..cell_reps.first().map_or(0, Vec::len))
        .map(|i| {
            let times: Vec<f64> = cell_reps
                .iter()
                .filter_map(|r| r.get(i).copied())
                .filter(|t| t.is_finite())
                .collect();
            min(&times) * scale
        })
        .filter(|t| t.is_finite())
        .collect();
    let (cell_tail, tail_pct) = tail(&cells);
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {} runs, {} setups in {:.1} s; cell_tail_s is p{:.0} of {} cells",
        runs.len(),
        setups.len(),
        origin.elapsed().as_secs_f64(),
        tail_pct,
        cells.len()
    );
    println!(
        "# reference s [{}]: times are scaled by {REFERENCE_S} s over their median, {scale:.4}",
        list(&refs)
    );
    println!(
        "# wall clock: setup_s [{}] run_s [{}]",
        list(&setups),
        list(&runs)
    );
    let run_s = min(&runs) * scale;
    for m in END_TO_END {
        let value = match m.name {
            "wall_s" => min(&walls) * scale,
            "setup_s" => min(&setups) * scale,
            "run_s" => run_s,
            "sim_rate_minst_s" => insts as f64 / run_s / 1e6,
            "peak_rss_mb" => peak_rss_mb(),
            "cell_p50_s" => median(&cells),
            "cell_tail_s" => cell_tail,
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        rep.metric(m.name, m.unit, value);
    }
    rep
}

/// `--trace 1`: one untraced run, then the traced run; the per-layer
/// metrics.
fn traced_run(a: &Args) -> Report {
    let mut rep = Report::new();
    let t = Instant::now();
    let mut s = match setup(a.bench, a.seed, None) {
        Ok(s) => s,
        Err(e) => {
            rep.problems.push(format!("setup failed: {e}"));
            return rep;
        }
    };
    let untraced_setup_s = t.elapsed().as_secs_f64();
    // On eval-quick the untraced run is run_matrix itself, so the traced
    // pool's fingerprints are checked against the library's own pool.
    let t = Instant::now();
    let out = match a.bench {
        Bench::EvalQuick => matrix_reference(&s.graph),
        _ => run(a.bench, &mut s),
    };
    let untraced_run_s = t.elapsed().as_secs_f64();
    if let Some(f) = out.fidelity {
        print_fidelity(f);
    }
    check_replay(
        &mut rep,
        s.recorded.as_ref(),
        out.cells.first().map(|c| &c.outcome),
    );
    rep.tally("untraced run", outcomes(&out.cells));
    drop(s);

    let tr = match traced(a.bench, a.seed) {
        Ok(tr) => tr,
        Err(e) => {
            rep.problems.push(format!("traced setup failed: {e}"));
            return rep;
        }
    };
    let traced = traced_outcomes(&tr.cells);
    check_replay(&mut rep, tr.setup.recorded.as_ref(), traced.first());
    rep.tally("traced run", traced);
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    match per_layer(&tr, untraced_run_s, failed_frac, a.seed) {
        Ok(values) => {
            for (name, value) in values {
                let def = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .expect("per-layer values follow the catalogue");
                rep.metric(def.name, def.unit, value);
            }
        }
        Err(e) => rep.problems.push(e),
    }
    let get = |name: &str| {
        rep.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.2)
    };
    println!(
        "# untraced: setup {untraced_setup_s:.3} s, run {untraced_run_s:.3} s; traced: setup {:.3} s, run {:.3} s",
        tr.setup_s, tr.run_s
    );
    println!(
        "# split of traced wall: setup {:.1} %; of cell time: source {:.1} %, gpu {:.1} %, thermal {:.1} %, ctrl {:.1} %",
        100.0 * get("split.setup_frac"),
        100.0 * get("split.source_frac"),
        100.0 * get("split.gpu_frac"),
        100.0 * get("split.thermal_frac"),
        100.0 * get("split.ctrl_frac"),
    );
    println!(
        "# reconciliation: gpu.self_s {:.3} s - hmc.est_s {:.3} s (estimate: {:.0} requests x {:.1} ns) = unexplained engine remainder {:.3} s",
        get("gpu.self_s"),
        get("hmc.est_s"),
        get("hmc.requests"),
        get("hmc.submit_ns"),
        get("gpu.unexplained_s"),
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", a.bench.name(), a.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.tracer.to_chrome_json()))
    {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
    rep
}

fn main() {
    let a = parse_args();
    println!(
        "# simbench workload={} seed={} seconds={} trace={} workers={} (available_parallelism)",
        a.bench.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        workers_for(a.bench.cells()),
    );
    let mut rep = if a.trace {
        traced_run(&a)
    } else {
        untraced(&a)
    };
    for &(name, unit, value) in &rep.metrics {
        println!("metric {name:<28} {value:>16.6} {unit}");
        if !value.is_finite() {
            rep.problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &rep.problems {
        eprintln!("error: {p}");
    }
    if rep.attempted == 0 {
        // Nothing reached a cell: the run counts as one failed attempt.
        rep.attempted = 1;
        rep.failed = 1;
    }
    let correct = rep.problems.is_empty();
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
