//! The three workloads. Each has a setup (everything before the first
//! co-sim call), an untraced run through the library's public entry
//! points, and a traced run of the same cells with the seams wrapped.
//!
//! | workload        | setup                                   | run                                   |
//! |-----------------|-----------------------------------------|---------------------------------------|
//! | `live-sssp-s19` | R-MAT scale 19, `make_kernel(sssp-dwc)` | one `CoSim::run`, CoolPIM(SW)         |
//! | `eval-quick`    | R-MAT scale 16, degree 12               | `run_matrix`'s 50 cells (10 workloads × 5 policies) |
//! | `replay-sweep`  | scale 17: record sssp-dwc, encode, decode | `run_source_sweep`, 24 replay cells |
//!
//! Every workload uses the commodity-server cooling and 84 °C warning
//! threshold of `CoSimConfig::default()` unless its cells say otherwise.

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::experiment::{mean_speedup, run_matrix, run_source_sweep, SweepCell};
use coolpim_core::{CoSimResult, Policy};
use coolpim_gpu::Kernel;
use coolpim_graph::csr::Csr;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_telemetry::Tracer;
use coolpim_thermal::Cooling;
use coolpim_trace::{RecordingSource, TraceReplaySource, WorkloadTrace};

use crate::cells::{outcome, panic_message, Outcome};
use crate::pool::{run_cells, workers_for, CellTime};
use crate::wrap::{run_wrapped, span, CellCounts, Track};

/// The graph seed when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The paper-scale live `sim` run.
    LiveSssp,
    /// The `eval_all` matrix at CI scale.
    EvalQuick,
    /// The trace-replay sweep.
    ReplaySweep,
}

impl Bench {
    /// All workloads, in catalogue order.
    pub const ALL: [Bench; 3] = [Bench::LiveSssp, Bench::EvalQuick, Bench::ReplaySweep];

    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::LiveSssp => "live-sssp-s19",
            Bench::EvalQuick => "eval-quick",
            Bench::ReplaySweep => "replay-sweep",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The graph the workload's setup generates for `seed`.
    pub fn graph_spec(self, seed: u64) -> GraphSpec {
        let base = GraphSpec {
            seed,
            ..GraphSpec::ldbc_like()
        };
        match self {
            Bench::LiveSssp => GraphSpec { scale: 19, ..base },
            // COOLPIM_SCALE=quick
            Bench::EvalQuick => GraphSpec {
                scale: 16,
                avg_degree: 12,
                ..base
            },
            Bench::ReplaySweep => GraphSpec { scale: 17, ..base },
        }
    }

    /// Cells one run of the workload co-simulates.
    pub fn cells(self) -> usize {
        match self {
            Bench::LiveSssp => 1,
            Bench::EvalQuick => Workload::ALL.len() * Policy::ALL.len(),
            Bench::ReplaySweep => sweep_cells().len(),
        }
    }
}

/// The replay sweep: CoolPIM(SW) and (HW) × commodity, low-end and
/// high-end cooling × 84, 81, 78 and 75 °C. Cell 0 is the recording's own
/// configuration (SW, commodity, 84 °C).
pub fn sweep_cells() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for policy in [Policy::CoolPimSw, Policy::CoolPimHw] {
        for cooling in [
            Cooling::CommodityServer,
            Cooling::LowEndActive,
            Cooling::HighEndActive,
        ] {
            for warning_threshold_c in [84.0, 81.0, 78.0, 75.0] {
                cells.push(SweepCell {
                    policy,
                    cooling,
                    warning_threshold_c,
                });
            }
        }
    }
    cells
}

fn sweep_cfg(cell: &SweepCell) -> CoSimConfig {
    CoSimConfig {
        cooling: cell.cooling,
        warning_threshold_c: cell.warning_threshold_c,
        ..CoSimConfig::default()
    }
}

fn sweep_label(cell: &SweepCell) -> String {
    format!(
        "sssp-dwc/{}/{:?}/{}C",
        cell.policy.name(),
        cell.cooling,
        cell.warning_threshold_c
    )
}

/// The matrix cell at `i`, in `run_matrix`'s task order (workloads
/// outer, policies inner).
fn matrix_cell(i: usize) -> (Workload, Policy) {
    let p = Policy::ALL.len();
    (Workload::ALL[i / p], Policy::ALL[i % p])
}

fn matrix_label(w: Workload, p: Policy) -> String {
    format!("{}/{}", w.name(), p.name())
}

const LIVE_LABEL: &str = "sssp-dwc/CoolPIM(SW)";

/// What a workload's setup leaves for its run.
pub struct Setup {
    /// The generated graph (kept for the CSR microbench).
    pub graph: Csr,
    /// `live-sssp-s19`: the live kernel.
    pub kernel: Option<Box<dyn Kernel>>,
    /// `replay-sweep`: the decoded trace every cell replays.
    pub trace: Option<Arc<WorkloadTrace>>,
    /// `replay-sweep`: the recording run's outcome, which the replayed
    /// cell 0 must match bit for bit.
    pub recorded: Option<Outcome>,
    /// `replay-sweep`: encoded trace size (bytes).
    pub trace_bytes: usize,
}

fn timed<R>(track: Option<&Track>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match track {
        Some(t) => span(t, name, f),
        None => f(),
    }
}

/// Runs `bench`'s setup for graph seed `seed`. With `track`, each setup
/// call runs in its own span.
pub fn setup(bench: Bench, seed: u64, track: Option<&Track>) -> Result<Setup, String> {
    let spec = bench.graph_spec(seed);
    let graph = timed(track, "graph.build", || spec.build());
    let mut s = Setup {
        graph,
        kernel: None,
        trace: None,
        recorded: None,
        trace_bytes: 0,
    };
    match bench {
        Bench::LiveSssp => {
            s.kernel = Some(timed(track, "kernel.build", || {
                make_kernel(Workload::SsspDwc, &s.graph)
            }));
        }
        Bench::EvalQuick => {}
        Bench::ReplaySweep => {
            let mut kernel = timed(track, "kernel.build", || {
                make_kernel(Workload::SsspDwc, &s.graph)
            });
            let (live, recorded) = timed(track, "trace.record", || {
                let mut rec = RecordingSource::new(kernel.as_mut());
                let live = catch_unwind(AssertUnwindSafe(|| {
                    CoSim::new(Policy::CoolPimSw, CoSimConfig::default()).run(&mut rec)
                }));
                (
                    live,
                    rec.finish(spec.config_hash(), "simbench replay-sweep sssp-dwc"),
                )
            });
            let live =
                live.map_err(|p| format!("recording run panicked: {}", panic_message(p.as_ref())))?;
            s.recorded = Some(outcome(sweep_label(&sweep_cells()[0]), &live));
            let bytes = timed(track, "trace.encode", || recorded.encode());
            s.trace_bytes = bytes.len();
            drop(recorded);
            let decoded = timed(track, "trace.decode", || {
                WorkloadTrace::decode(&bytes, "in-memory trace")
            })
            .map_err(|e| format!("trace round trip failed: {e}"))?;
            s.trace = Some(Arc::new(decoded));
        }
    }
    Ok(s)
}

/// One cell of a run: its outcome, its wall time when the pool exposes
/// it, and its warp instructions.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Fingerprint or failure.
    pub outcome: Outcome,
    /// Cell wall time (s), when measured. On `replay-sweep` the times are
    /// handed to the cells in rank order, not matched to them.
    pub secs: Option<f64>,
    /// Warp instructions simulated.
    pub insts: u64,
}

fn cell_of(label: String, r: &CoSimResult, secs: Option<f64>) -> Cell {
    Cell {
        outcome: outcome(label, r),
        secs,
        insts: r.gpu.instructions,
    }
}

fn failed(label: String, why: String) -> Cell {
    Cell {
        outcome: Err(format!("{label}: {why}")),
        secs: None,
        insts: 0,
    }
}

/// An untraced run's cells, plus the Fig. 10 mean speedups (SW, HW,
/// Naive) when the run was the evaluation matrix.
pub struct RunOut {
    /// Cells in catalogue order.
    pub cells: Vec<Cell>,
    /// `eval-quick`: mean speedups over Non-Offloading.
    pub fidelity: Option<[f64; 3]>,
}

/// The untraced run, with every cell timed. `live-sssp-s19` calls
/// `CoSim::run`, and `replay-sweep` calls `run_source_sweep` with a source
/// pointer that records when each cell's source is made and dropped.
/// `run_matrix` exposes no per-cell times, so `eval-quick` runs the
/// matrix's cells on the benchmark's pool ([`matrix_on_pool`]); the traced
/// mode checks that pool against [`matrix_reference`].
pub fn run(bench: Bench, s: &mut Setup) -> RunOut {
    match bench {
        Bench::LiveSssp => {
            let kernel = s.kernel.as_mut().expect("live setup builds the kernel");
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                CoSim::new(Policy::CoolPimSw, CoSimConfig::default()).run(kernel.as_mut())
            }));
            let secs = t.elapsed().as_secs_f64();
            let cell = match r {
                Ok(r) => cell_of(LIVE_LABEL.into(), &r, Some(secs)),
                Err(p) => failed(LIVE_LABEL.into(), panic_message(p.as_ref())),
            };
            RunOut {
                cells: vec![cell],
                fidelity: None,
            }
        }
        Bench::EvalQuick => RunOut {
            cells: matrix_on_pool(&s.graph),
            fidelity: None,
        },
        Bench::ReplaySweep => {
            let shared = s.trace.clone().expect("replay setup decodes the trace");
            let cells = sweep_cells();
            let times = Mutex::new(Vec::new());
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_source_sweep(
                    || {
                        Clocked::new(
                            Box::new(TraceReplaySource::new(Arc::clone(&shared))),
                            &times,
                        )
                    },
                    &cells,
                    CoSimConfig::default(),
                )
            }));
            let mut times = times.into_inner().unwrap_or_else(|e| e.into_inner());
            // The sweep does not say which time is which cell's, so cells
            // get them in rank order: the fastest to cell 0, and so on.
            // Their distribution is what is reported.
            times.sort_by(f64::total_cmp);
            match r {
                Ok(results) if times.len() == cells.len() => RunOut {
                    cells: results
                        .iter()
                        .zip(&cells)
                        .zip(times)
                        .map(|((r, c), t)| cell_of(sweep_label(c), r, Some(t)))
                        .collect(),
                    fidelity: None,
                },
                Ok(_) => RunOut {
                    cells: cells
                        .iter()
                        .map(|c| failed(sweep_label(c), "cell times missing".into()))
                        .collect(),
                    fidelity: None,
                },
                Err(p) => {
                    let why = panic_message(p.as_ref());
                    RunOut {
                        cells: cells
                            .iter()
                            .map(|c| failed(sweep_label(c), why.clone()))
                            .collect(),
                        fidelity: None,
                    }
                }
            }
        }
    }
}

/// An owning source pointer that logs how long it lived: the sweep makes
/// one per cell right before the cell's co-sim and drops it right after,
/// so its lifetime is the cell's wall time. Dereferences to the source,
/// so the co-sim calls it directly.
struct Clocked<'a, B> {
    inner: B,
    born: Instant,
    log: &'a Mutex<Vec<f64>>,
}

impl<'a, B> Clocked<'a, B> {
    fn new(inner: B, log: &'a Mutex<Vec<f64>>) -> Self {
        Self {
            inner,
            born: Instant::now(),
            log,
        }
    }
}

impl<B: Deref> Deref for Clocked<'_, B> {
    type Target = B::Target;
    fn deref(&self) -> &B::Target {
        &self.inner
    }
}

impl<B: DerefMut> DerefMut for Clocked<'_, B> {
    fn deref_mut(&mut self) -> &mut B::Target {
        &mut self.inner
    }
}

impl<B> Drop for Clocked<'_, B> {
    fn drop(&mut self) {
        let secs = self.born.elapsed().as_secs_f64();
        if let Ok(mut log) = self.log.lock() {
            log.push(secs);
        }
    }
}

/// `run_matrix` itself over the evaluation graph: the reference the pool
/// runs are checked against, with the Fig. 10 mean speedups.
pub fn matrix_reference(graph: &Csr) -> RunOut {
    let r = catch_unwind(AssertUnwindSafe(|| {
        run_matrix(graph, &Workload::ALL, &Policy::ALL, CoSimConfig::default())
    }));
    match r {
        Ok(results) => RunOut {
            cells: results
                .iter()
                .flat_map(|wr| {
                    wr.runs
                        .iter()
                        .map(move |r| cell_of(matrix_label(wr.workload, r.policy), r, None))
                })
                .collect(),
            fidelity: Some(
                [
                    Policy::CoolPimSw,
                    Policy::CoolPimHw,
                    Policy::NaiveOffloading,
                ]
                .map(|p| mean_speedup(&results, p)),
            ),
        },
        Err(p) => {
            let why = panic_message(p.as_ref());
            RunOut {
                cells: (0..Bench::EvalQuick.cells())
                    .map(|i| {
                        let (w, p) = matrix_cell(i);
                        failed(matrix_label(w, p), why.clone())
                    })
                    .collect(),
                fidelity: None,
            }
        }
    }
}

/// The evaluation matrix on the benchmark's pool, untraced, timing each
/// cell: the same cells and calls as `run_matrix` (`make_kernel` then
/// `CoSim::new(policy, cfg).run`), on the same number of workers.
pub fn matrix_on_pool(graph: &Csr) -> Vec<Cell> {
    run_cells(Bench::EvalQuick.cells(), None, |i, _| {
        let (w, p) = matrix_cell(i);
        let mut kernel = make_kernel(w, graph);
        CoSim::new(p, CoSimConfig::default()).run(kernel.as_mut())
    })
    .into_iter()
    .enumerate()
    .map(|(i, (r, t))| {
        let (w, p) = matrix_cell(i);
        match r {
            Ok(r) => cell_of(matrix_label(w, p), &r, Some(t.secs())),
            Err(why) => failed(matrix_label(w, p), why),
        }
    })
    .collect()
}

/// One traced cell: its label, and its result with what the wrappers
/// counted, or why it failed.
pub type TracedCell = (String, Result<(CoSimResult, CellCounts), String>);

/// A traced run: setup and cells with every seam wrapped, spans on
/// `tracer` (a `main` track for setup and the run, `worker-N` tracks for
/// the cells).
pub struct Traced {
    /// The tracer holding every span.
    pub tracer: Tracer,
    /// The setup (its graph feeds the CSR microbench).
    pub setup: Setup,
    /// Cells in catalogue order.
    pub cells: Vec<TracedCell>,
    /// When each cell ran.
    pub times: Vec<CellTime>,
    /// Workers the cells ran on.
    pub workers: usize,
    /// Start of the co-sim section.
    pub run_start: Instant,
    /// Setup time (s).
    pub setup_s: f64,
    /// Co-sim section time (s).
    pub run_s: f64,
    /// Setup plus run (s).
    pub wall_s: f64,
}

/// The traced run of `bench` for graph seed `seed`.
pub fn traced(bench: Bench, seed: u64) -> Result<Traced, String> {
    let tracer = Tracer::new();
    let main: Track = Rc::new(std::cell::RefCell::new(tracer.track("main")));
    let t0 = Instant::now();
    let mut prepared = span(&main, "setup", || setup(bench, seed, Some(&main)))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let (cells, times, workers) = span(&main, "run", || {
        traced_cells(bench, &mut prepared, &tracer, &main)
    });
    let run_s = run_start.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    main.borrow_mut().flush();
    Ok(Traced {
        tracer,
        setup: prepared,
        cells,
        times,
        workers,
        run_start,
        setup_s,
        run_s,
        wall_s,
    })
}

fn traced_cells(
    bench: Bench,
    s: &mut Setup,
    tracer: &Tracer,
    main: &Track,
) -> (Vec<TracedCell>, Vec<CellTime>, usize) {
    match bench {
        Bench::LiveSssp => {
            // The live kernel is not `Send`, so the one cell runs on the
            // calling thread, as `sim` runs it.
            let kernel = s.kernel.as_mut().expect("live setup builds the kernel");
            let start = Instant::now();
            let r = span(main, "cell", || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_wrapped(
                        Policy::CoolPimSw,
                        CoSimConfig::default(),
                        kernel.as_mut(),
                        main,
                    )
                }))
            });
            let time = CellTime {
                worker: 0,
                start,
                end: Instant::now(),
            };
            let r = r.map_err(|p| panic_message(p.as_ref()));
            (vec![(LIVE_LABEL.to_string(), r)], vec![time], 1)
        }
        Bench::EvalQuick => {
            let graph = &s.graph;
            let out = run_cells(bench.cells(), Some(tracer), |i, track| {
                let (w, p) = matrix_cell(i);
                let track = track.expect("traced pool hands out tracks");
                let mut kernel = span(track, "kernel.build", || make_kernel(w, graph));
                run_wrapped(p, CoSimConfig::default(), kernel.as_mut(), track)
            });
            let labels = (0..bench.cells()).map(|i| {
                let (w, p) = matrix_cell(i);
                matrix_label(w, p)
            });
            split(labels, out, workers_for(bench.cells()))
        }
        Bench::ReplaySweep => {
            let shared = s.trace.clone().expect("replay setup decodes the trace");
            let cells = sweep_cells();
            let out = run_cells(cells.len(), Some(tracer), |i, track| {
                let track = track.expect("traced pool hands out tracks");
                let mut source = TraceReplaySource::new(Arc::clone(&shared));
                run_wrapped(cells[i].policy, sweep_cfg(&cells[i]), &mut source, track)
            });
            split(cells.iter().map(sweep_label), out, workers_for(cells.len()))
        }
    }
}

type PoolOut = Vec<(Result<(CoSimResult, CellCounts), String>, CellTime)>;

fn split(
    labels: impl Iterator<Item = String>,
    out: PoolOut,
    workers: usize,
) -> (Vec<TracedCell>, Vec<CellTime>, usize) {
    let (results, times): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    (labels.zip(results).collect(), times, workers)
}

/// The traced cells' outcomes, checked like the untraced ones.
pub fn traced_outcomes(cells: &[TracedCell]) -> Vec<Outcome> {
    cells
        .iter()
        .map(|(label, r)| match r {
            Ok((r, _)) => outcome(label.clone(), r),
            Err(why) => Err(format!("{label}: {why}")),
        })
        .collect()
}
