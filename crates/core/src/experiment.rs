//! Parallel experiment harness: co-simulations declared as [`Cell`]s
//! (every graph-based artifact of the evaluation) run by [`run_cells`],
//! the workloads × policies matrix behind Figs. 10–13 ([`run_matrix`]),
//! and the replicate and (policy × cooling × threshold) sweeps.
//!
//! Every runner here is a thin caller of one private pool: each item is
//! an independent co-simulated run, items fan out over a bounded set of
//! scoped worker threads claiming indices from a shared atomic (no
//! external runtime needed), and results are gathered deterministically
//! by index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coolpim_gpu::source::{InstructionSource, RunSlots};
use coolpim_graph::csr::Csr;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_telemetry::Tracer;
use coolpim_thermal::model::HmcThermalModel;

use crate::cosim::{CoSim, CoSimConfig, CoSimResult, EngineLog};
use crate::policy::{ControllerConfig, Policy};

/// Results of one workload across all requested policies, in request
/// order.
#[derive(Debug, Clone)]
pub struct WorkloadResults {
    /// The workload.
    pub workload: Workload,
    /// One result per requested policy.
    pub runs: Vec<CoSimResult>,
}

impl WorkloadResults {
    /// The run for `policy`, if requested.
    pub fn run(&self, policy: Policy) -> Option<&CoSimResult> {
        self.runs.iter().find(|r| r.policy == policy)
    }

    /// Speedup of `policy` over the non-offloading baseline (requires
    /// both runs present).
    pub fn speedup(&self, policy: Policy) -> Option<f64> {
        let base = self.run(Policy::NonOffloading)?;
        let run = self.run(policy)?;
        (run.exec_s > 0.0).then(|| base.exec_s / run.exec_s)
    }

    /// The runs of a workloads × policies matrix, workload by workload,
    /// grouped per workload.
    pub fn grouped(workloads: &[Workload], runs: Vec<CoSimResult>) -> Vec<Self> {
        let per_workload = runs.len() / workloads.len().max(1);
        let mut runs = runs.into_iter();
        workloads
            .iter()
            .map(|&workload| WorkloadResults {
                workload,
                runs: runs.by_ref().take(per_workload).collect(),
            })
            .collect()
    }

    /// Bandwidth consumption of `policy` normalised to the baseline.
    pub fn normalized_bandwidth(&self, policy: Policy) -> Option<f64> {
        let base = self.run(Policy::NonOffloading)?;
        let run = self.run(policy)?;
        (base.ext_data_bytes > 0.0).then(|| run.ext_data_bytes / base.ext_data_bytes)
    }
}

/// The pool width for `items` items: `min(cores, items)`, at least 1.
fn workers_for(items: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(items)
        .max(1)
}

/// The one co-sim pool: runs `job` once per item on `workers` scoped
/// workers (see [`workers_for`]), each claiming the next unclaimed item
/// index from one shared atomic. Results come back in item order
/// regardless of scheduling.
///
/// With a `tracer`, every worker opens a `worker-N` track up front and
/// brackets each item it claims in a span named `label(item)`, so the
/// timeline shows which worker ran what, when, and where the pool sat
/// idle.
fn pool<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    tracer: Option<&Tracer>,
    label: impl Fn(&T) -> &'static str + Sync,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Counted as runners for the pool's whole life, so a kernel's
    // spare-core rule sees every worker, idle moments between items too.
    let slots = RunSlots::reserve(workers);
    let next = AtomicUsize::new(0);
    let results = Mutex::new(items.iter().map(|_| None).collect::<Vec<Option<R>>>());
    // Workers borrow the items (and whatever `job` captures, e.g. one
    // shared `&Csr`) — scoped threads make the lifetimes work without a
    // per-worker clone.
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (slots, next, results, label, job) = (&slots, &next, &results, &label, &job);
            scope.spawn(move || {
                slots.work(|| {
                    let mut track = tracer.map(|t| t.track(&format!("worker-{worker}")));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let tok = track.as_mut().map(|t| t.begin(label(item)));
                        let r = job(item);
                        results.lock().expect("results poisoned")[i] = Some(r);
                        if let (Some(t), Some(tok)) = (track.as_mut(), tok) {
                            t.end(tok);
                        }
                    }
                    if let Some(t) = track.as_mut() {
                        t.flush();
                    }
                })
            });
        }
    });
    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("every pool item runs"))
        .collect()
}

/// One co-simulation on the evaluation graph: a workload under a
/// policy, driven by a controller, with a configuration. Equal cells
/// give equal results, so [`run_cells`] runs each distinct one once.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The workload's kernel, built from the graph for this cell.
    pub workload: Workload,
    /// The system configuration (and whether temperature feeds back).
    pub policy: Policy,
    /// The offloading controller the run uses.
    pub controller: ControllerConfig,
    /// Co-simulation parameters.
    pub cfg: CoSimConfig,
}

impl Cell {
    /// `workload` under `policy` with its default controller and the
    /// default configuration.
    pub fn new(workload: Workload, policy: Policy) -> Self {
        Self {
            workload,
            policy,
            controller: policy.default_controller(),
            cfg: CoSimConfig::default(),
        }
    }

    /// Runs the cell on `graph`, every track of the run on `tracer` if
    /// one is given.
    fn run(&self, graph: &Csr, tracer: Option<&Tracer>) -> CoSimResult {
        let started = Instant::now();
        let mut kernel = make_kernel(self.workload, graph);
        let mut ctrl = self.controller.build(&kernel.profile());
        let mut sim = CoSim::new(self.policy, self.cfg.clone());
        if let Some(t) = tracer {
            sim = sim.with_tracer(t);
        }
        let feedback = self.policy.thermal_feedback();
        let r = sim.run_with_controller(kernel.as_mut(), ctrl.as_mut(), feedback);
        eprintln!(
            "# {:<10} {:<18} {:>8.3} ms simulated ({:>5.1} s wall)",
            self.workload.name(),
            self.policy.name(),
            r.exec_s * 1e3,
            started.elapsed().as_secs_f64()
        );
        r
    }
}

/// Runs `cells` on `graph` in parallel and returns one result per cell,
/// in cell order. Each distinct cell runs once, and a cell equal to an
/// earlier one gets a copy of its result.
///
/// With a `tracer`, each pool worker gets a `worker-N` track with one
/// span per cell it runs, named after the workload, and every run adds
/// its own `sim`/`gpu`/`hmc` tracks (see [`CoSim::with_tracer`]), so
/// [`Tracer::profile`] folds one span tree over all of them.
pub fn run_cells(graph: &Csr, cells: &[Cell], tracer: Option<&Tracer>) -> Vec<CoSimResult> {
    let first: Vec<usize> = (0..cells.len())
        .map(|i| cells[..i].iter().position(|c| *c == cells[i]).unwrap_or(i))
        .collect();
    let distinct: Vec<usize> = (0..cells.len()).filter(|&i| first[i] == i).collect();
    eprintln!(
        "# {} co-simulations for {} declared cells",
        distinct.len(),
        cells.len()
    );
    let runs = pool(
        &distinct,
        workers_for(distinct.len()),
        tracer,
        |&i| cells[i].workload.name(),
        |&i| cells[i].run(graph, tracer),
    );
    first
        .iter()
        .map(|i| runs[distinct.binary_search(i).expect("first cells run")].clone())
        .collect()
}

/// Runs the full matrix in parallel. Results keep the order of
/// `workloads` and, within each, of `policies`.
pub fn run_matrix(
    graph: &Csr,
    workloads: &[Workload],
    policies: &[Policy],
    cfg: CoSimConfig,
) -> Vec<WorkloadResults> {
    let cells: Vec<Cell> = workloads
        .iter()
        .flat_map(|&w| policies.iter().map(move |&p| (w, p)))
        .map(|(w, p)| Cell {
            cfg: cfg.clone(),
            ..Cell::new(w, p)
        })
        .collect();
    WorkloadResults::grouped(workloads, run_cells(graph, &cells, None))
}

/// Runs one workload × policy cell once per seed in `seeds`, each
/// replicate over a freshly generated graph from `spec` re-seeded with
/// that replicate's seed. Results come back in seed order regardless of
/// scheduling.
///
/// This is the engine behind `sim --seed-list`:
/// the co-simulator itself is deterministic for a fixed graph, so the
/// only run-to-run variation the stack exposes is the graph draw — each
/// replicate therefore needs its own [`GraphSpec::build`] instead of
/// [`run_matrix`]'s single borrowed `&Csr`.
pub fn run_replicates(
    spec: GraphSpec,
    workload: Workload,
    policy: Policy,
    cfg: CoSimConfig,
    seeds: &[u64],
) -> Vec<CoSimResult> {
    let cell = Cell {
        cfg,
        ..Cell::new(workload, policy)
    };
    pool(
        seeds,
        workers_for(seeds.len()),
        None,
        |_| workload.name(),
        |&seed| cell.run(&GraphSpec { seed, ..spec }.build(), None),
    )
}

/// One point of a (policy × cooling × warning-threshold) sweep over a
/// single instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Offloading policy for this cell.
    pub policy: Policy,
    /// Cooling solution for this cell.
    pub cooling: coolpim_thermal::cooling::Cooling,
    /// Thermal-warning threshold (°C) for this cell.
    pub warning_threshold_c: f64,
}

impl SweepCell {
    /// The fixed 8-cell (policy × cooling × threshold) sweep of
    /// `sim --matrix`, live or replayed: both CoolPIM policies,
    /// commodity vs high-end cooling, the base warning threshold and one
    /// 5 °C tighter.
    pub fn matrix8(base_threshold_c: f64) -> Vec<SweepCell> {
        use coolpim_thermal::cooling::Cooling;
        let mut cells = Vec::new();
        for &policy in &[Policy::CoolPimSw, Policy::CoolPimHw] {
            for &cooling in &[Cooling::CommodityServer, Cooling::HighEndActive] {
                for &threshold in &[base_threshold_c, base_threshold_c - 5.0] {
                    cells.push(SweepCell {
                        policy,
                        cooling,
                        warning_threshold_c: threshold,
                    });
                }
            }
        }
        cells
    }
}

/// Fans one instruction stream out across `cells` on the shared worker
/// pool. `make_source` builds a fresh source per cell — for a live
/// baseline that means regenerating graph + kernel (the honest per-cell
/// cost [`run_replicates`] also pays); for a trace replay it is an
/// `Arc` clone of one immutable decoded stream, which is the
/// ROADMAP-item-2 "record once, replay everywhere" sweep. The factory
/// returns any owning pointer to an
/// [`coolpim_gpu::InstructionSource`] — `Box<dyn Kernel>` and a boxed
/// replay source both fit. Each cell calls `make_source` once, on the
/// worker that runs it, and drops the source before that worker claims
/// its next cell, so a cell's wall time includes building and dropping
/// its source. Results come back in cell order regardless of
/// scheduling.
///
/// Cells that the thermal feedback never tells apart share one engine
/// run. The engine reads only the cube's phase and warning bit (the
/// feedback pair), so a cell whose own thermal model, stepped on a
/// completed run's logged traffic, gives the cube that run's pair before
/// the first epoch and after every epoch but the last would run the same
/// engine: it folds the log instead, stepping only its thermal model and
/// its own warning tracker, and its source serves no block. Its result
/// is bit-identical to running it alone. A cell that matches no
/// completed run of its policy runs in full, and its log joins the
/// call's store, which is dropped when the call returns. Cells are
/// claimed round-robin across policies, so a cell's earlier same-policy
/// cells have usually finished by the time it starts.
pub fn run_source_sweep<S, F>(
    make_source: F,
    cells: &[SweepCell],
    cfg: CoSimConfig,
) -> Vec<CoSimResult>
where
    S: std::ops::DerefMut,
    S::Target: InstructionSource,
    F: Fn() -> S + Sync,
{
    source_sweep(workers_for(cells.len()), make_source, cells, cfg)
}

/// [`run_source_sweep`] on `workers` workers.
fn source_sweep<S, F>(
    workers: usize,
    make_source: F,
    cells: &[SweepCell],
    cfg: CoSimConfig,
) -> Vec<CoSimResult>
where
    S: std::ops::DerefMut,
    S::Target: InstructionSource,
    F: Fn() -> S + Sync,
{
    let order = round_robin_by_policy(cells);
    // The full runs completed so far, with their policies.
    let store: Mutex<Vec<(Policy, Arc<EngineLog>)>> = Mutex::new(Vec::new());
    let claimed = pool(
        &order,
        workers,
        None,
        |&i| cells[i].policy.name(),
        |&i| {
            let cell = &cells[i];
            let cell_cfg = CoSimConfig {
                cooling: cell.cooling,
                warning_threshold_c: cell.warning_threshold_c,
                ..cfg.clone()
            };
            let mut source = make_source();
            let plant = HmcThermalModel::hmc20(cell.cooling);
            let done: Vec<Arc<EngineLog>> = store
                .lock()
                .expect("store poisoned")
                .iter()
                .filter(|(p, _)| *p == cell.policy)
                .map(|(_, log)| Arc::clone(log))
                .collect();
            if !done.is_empty() {
                let cosim = CoSim::on_plant(cell.policy, cell_cfg.clone(), plant.clone());
                if let Some(r) = cosim.replay(source.name(), &done) {
                    return r;
                }
            }
            let cosim = CoSim::on_plant(cell.policy, cell_cfg, plant);
            let (r, log) = cosim.run_logged(&mut *source, true);
            let log = log.expect("a logged run returns its log");
            store
                .lock()
                .expect("store poisoned")
                .push((cell.policy, Arc::new(log)));
            r
        },
    );
    let mut results: Vec<Option<CoSimResult>> = cells.iter().map(|_| None).collect();
    for (&i, r) in order.iter().zip(claimed) {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell runs"))
        .collect()
}

/// Cell indices taken round-robin across the policies, in the order each
/// policy first appears: `[SW, SW, HW, HW]` becomes `[0, 2, 1, 3]`.
fn round_robin_by_policy(cells: &[SweepCell]) -> Vec<usize> {
    let mut groups: Vec<(Policy, Vec<usize>)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match groups.iter_mut().find(|(p, _)| *p == cell.policy) {
            Some((_, g)) => g.push(i),
            None => groups.push((cell.policy, vec![i])),
        }
    }
    let rounds = groups.iter().map(|(_, g)| g.len()).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|k| groups.iter().filter_map(move |(_, g)| g.get(k).copied()))
        .collect()
}

/// Arithmetic mean of per-workload speedups for `policy` (the paper's
/// "on average" figures).
pub fn mean_speedup(results: &[WorkloadResults], policy: Policy) -> f64 {
    let speedups: Vec<f64> = results.iter().filter_map(|r| r.speedup(policy)).collect();
    if speedups.is_empty() {
        return 0.0;
    }
    speedups.iter().sum::<f64>() / speedups.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_hmc::ns_to_ps;

    #[test]
    fn matrix_runs_in_parallel_and_keeps_order() {
        let g = GraphSpec::test_medium().build();
        let workloads = [Workload::Dc, Workload::KCore];
        let policies = [Policy::NonOffloading, Policy::NaiveOffloading];
        let cfg = CoSimConfig {
            gpu: coolpim_gpu::GpuConfig::tiny(),
            max_sim_time: ns_to_ps(1.0e9),
            ..CoSimConfig::default()
        };
        let res = run_matrix(&g, &workloads, &policies, cfg);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].workload, Workload::Dc);
        assert_eq!(res[0].runs[0].policy, Policy::NonOffloading);
        assert_eq!(res[0].runs[1].policy, Policy::NaiveOffloading);
        let s = res[0].speedup(Policy::NaiveOffloading).unwrap();
        assert!(s > 0.1 && s < 10.0, "speedup {s} out of sanity range");
        let nb = res[0]
            .normalized_bandwidth(Policy::NaiveOffloading)
            .unwrap();
        assert!(nb < 1.0, "offloading must reduce bandwidth (got {nb})");
    }

    #[test]
    fn equal_cells_run_once_and_each_result_equals_its_own_run() {
        use crate::sw_dynt::SwDynTConfig;
        let g = GraphSpec::tiny().build();
        let sw = Cell::new(Workload::Dc, Policy::CoolPimSw);
        let cf = |control_factor| Cell {
            controller: ControllerConfig::Sw(SwDynTConfig {
                control_factor,
                ..SwDynTConfig::default()
            }),
            ..sw.clone()
        };
        // CF 4 is SW-DynT's default; Ideal offloads like Naive but
        // without feedback, so it is a cell of its own.
        let cells = [
            sw.clone(),
            cf(8),
            cf(4),
            Cell::new(Workload::Dc, Policy::NaiveOffloading),
            Cell::new(Workload::Dc, Policy::IdealThermal),
        ];
        assert_eq!(cells[2], cells[0]);
        assert!(cells[1] != cells[0] && cells[4] != cells[3]);
        let results = run_cells(&g, &cells, None);
        assert_eq!(results.len(), cells.len());
        for (r, cell) in results.iter().zip(&cells) {
            let mut kernel = make_kernel(cell.workload, &g);
            let mut ctrl = cell.controller.build(&kernel.profile());
            let feedback = cell.policy.thermal_feedback();
            let direct = CoSim::new(cell.policy, cell.cfg.clone()).run_with_controller(
                kernel.as_mut(),
                ctrl.as_mut(),
                feedback,
            );
            assert_eq!(format!("{r:?}"), format!("{direct:?}"), "{cell:?}");
        }
    }

    #[test]
    fn mean_speedup_of_baseline_is_one() {
        let g = GraphSpec::tiny().build();
        let res = run_matrix(
            &g,
            &[Workload::Dc],
            &[Policy::NonOffloading],
            CoSimConfig::default(),
        );
        let m = mean_speedup(&res, Policy::NonOffloading);
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicates_keep_seed_order_and_are_deterministic() {
        let spec = GraphSpec::tiny();
        let cfg = CoSimConfig::default();
        let seeds = [3u64, 1, 2];
        let a = run_replicates(
            spec,
            Workload::Dc,
            Policy::NonOffloading,
            cfg.clone(),
            &seeds,
        );
        let b = run_replicates(spec, Workload::Dc, Policy::NonOffloading, cfg, &seeds);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            // Bit-identical across invocations: the pool order may
            // differ, the results must not.
            assert_eq!(x.exec_s.to_bits(), y.exec_s.to_bits());
            assert_eq!(x.ext_data_bytes.to_bits(), y.ext_data_bytes.to_bits());
            assert_eq!(x.max_peak_dram_c.to_bits(), y.max_peak_dram_c.to_bits());
        }
        // Different seeds draw different graphs, so at least one pair of
        // replicates must differ somewhere.
        assert!(
            a.iter()
                .any(|r| r.exec_s.to_bits() != a[0].exec_s.to_bits())
                || a.iter()
                    .any(|r| r.ext_data_bytes.to_bits() != a[0].ext_data_bytes.to_bits()),
            "seed variation produced identical replicates"
        );
    }

    #[test]
    fn source_sweep_keeps_cell_order_and_matches_direct_runs() {
        use coolpim_thermal::cooling::Cooling;
        let g = GraphSpec::tiny().build();
        let cfg = CoSimConfig::default();
        let cells = [
            SweepCell {
                policy: Policy::NonOffloading,
                cooling: Cooling::CommodityServer,
                warning_threshold_c: 85.0,
            },
            SweepCell {
                policy: Policy::NaiveOffloading,
                cooling: Cooling::HighEndActive,
                warning_threshold_c: 80.0,
            },
        ];
        let sweep = run_source_sweep(|| make_kernel(Workload::Dc, &g), &cells, cfg.clone());
        assert_eq!(sweep.len(), 2);
        for (r, cell) in sweep.iter().zip(&cells) {
            assert_eq!(r.policy, cell.policy);
            // Same cell run directly must agree bit-for-bit.
            let mut kernel = make_kernel(Workload::Dc, &g);
            let direct_cfg = CoSimConfig {
                cooling: cell.cooling,
                warning_threshold_c: cell.warning_threshold_c,
                ..cfg.clone()
            };
            let direct = CoSim::new(cell.policy, direct_cfg).run(kernel.as_mut());
            assert_eq!(r.exec_s.to_bits(), direct.exec_s.to_bits());
            assert_eq!(
                r.max_peak_dram_c.to_bits(),
                direct.max_peak_dram_c.to_bits()
            );
        }
    }

    /// A live source that reports how many blocks it served when it is
    /// dropped.
    struct Counted<'a> {
        kernel: Box<dyn coolpim_gpu::Kernel>,
        blocks: usize,
        served: &'a Mutex<Vec<usize>>,
    }

    impl InstructionSource for Counted<'_> {
        fn name(&self) -> &str {
            self.kernel.name()
        }
        fn grid_blocks(&self) -> usize {
            self.kernel.grid_blocks()
        }
        fn warps_per_block(&self) -> usize {
            self.kernel.warps_per_block()
        }
        fn block_trace(&mut self, block: usize, pim_enabled: bool) -> coolpim_gpu::BlockTrace {
            self.blocks += 1;
            self.kernel.block_trace(block, pim_enabled)
        }
        fn recycle(&mut self, spent: coolpim_gpu::BlockTrace) {
            self.kernel.recycle(spent);
        }
        fn next_launch(&mut self) -> bool {
            self.kernel.next_launch()
        }
        fn profile(&self) -> coolpim_gpu::kernel::KernelProfile {
            self.kernel.profile()
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.served.lock().unwrap().push(self.blocks);
        }
    }

    #[test]
    fn one_worker_reuses_exactly_the_runs_the_feedback_cannot_tell_apart() {
        use coolpim_thermal::cooling::Cooling;
        let g = GraphSpec::test_medium().build();
        let cfg = CoSimConfig {
            gpu: coolpim_gpu::GpuConfig::tiny(),
            ..CoSimConfig::default()
        };
        let cell = |policy, cooling, warning_threshold_c| SweepCell {
            policy,
            cooling,
            warning_threshold_c,
        };
        // Per policy: a cell that never warns, one that warns from the
        // first epoch (it walks the first cell's log and diverges), and
        // one whose cooler cube never warns either (it reuses the first).
        // SW's last cell warns like the second on a cooler cube (it reuses
        // it, raising its own warning); HW's warns from the start, at
        // 25 °C (no log starts that way, so it runs in full).
        let cells = [
            cell(Policy::CoolPimSw, Cooling::CommodityServer, 200.0),
            cell(Policy::CoolPimSw, Cooling::CommodityServer, 30.0),
            cell(Policy::CoolPimSw, Cooling::HighEndActive, 190.0),
            cell(Policy::CoolPimSw, Cooling::HighEndActive, 30.0),
            cell(Policy::CoolPimHw, Cooling::CommodityServer, 200.0),
            cell(Policy::CoolPimHw, Cooling::CommodityServer, 30.0),
            cell(Policy::CoolPimHw, Cooling::HighEndActive, 190.0),
            cell(Policy::CoolPimHw, Cooling::CommodityServer, 20.0),
        ];
        let served = Mutex::new(Vec::new());
        let sweep = || {
            served.lock().unwrap().clear();
            let results = source_sweep(
                1,
                || {
                    Box::new(Counted {
                        kernel: make_kernel(Workload::PageRank, &g),
                        blocks: 0,
                        served: &served,
                    })
                },
                &cells,
                cfg.clone(),
            );
            // One worker claims round-robin: SW, HW, SW, HW, ...
            let counts = served.lock().unwrap().clone();
            (results, counts)
        };
        let (results, counts) = sweep();
        assert_eq!(counts.len(), cells.len(), "one source per cell");
        let full: Vec<bool> = counts.iter().map(|&n| n > 0).collect();
        let expected = [true, true, true, true, false, false, false, true];
        assert_eq!(full, expected, "{counts:?}");
        for (r, cell) in results.iter().zip(&cells) {
            let mut kernel = make_kernel(Workload::PageRank, &g);
            let direct = CoSim::new(
                cell.policy,
                CoSimConfig {
                    cooling: cell.cooling,
                    warning_threshold_c: cell.warning_threshold_c,
                    ..cfg.clone()
                },
            )
            .run(kernel.as_mut());
            assert_eq!(format!("{r:?}"), format!("{direct:?}"), "{cell:?}");
        }
        for warned in [1, 3, 5] {
            assert!(results[warned].metrics.counter("thermal_warnings_raised") > 0);
        }
        // Warned from the start, HW's last cell ran its own engine.
        assert_ne!(results[5].gpu.end_ps, results[7].gpu.end_ps);
        // Nothing outlives a call: a second one runs the same cells in full.
        let (again, counts_again) = sweep();
        assert_eq!(counts_again, counts);
        assert_eq!(format!("{again:?}"), format!("{results:?}"));
    }

    #[test]
    fn round_robin_alternates_policies_in_first_seen_order() {
        use coolpim_thermal::cooling::Cooling;
        let cells: Vec<SweepCell> = [
            Policy::CoolPimSw,
            Policy::CoolPimSw,
            Policy::CoolPimSw,
            Policy::CoolPimHw,
            Policy::IdealThermal,
        ]
        .into_iter()
        .map(|policy| SweepCell {
            policy,
            cooling: Cooling::CommodityServer,
            warning_threshold_c: 84.0,
        })
        .collect();
        assert_eq!(round_robin_by_policy(&cells), [0, 3, 4, 1, 2]);
    }

    #[test]
    fn span_tree_matrix_folds_every_cell_into_one_tree() {
        let g = GraphSpec::tiny().build();
        let tracer = Tracer::new();
        let cells = [
            Cell::new(Workload::Dc, Policy::NonOffloading),
            Cell::new(Workload::Dc, Policy::CoolPimSw),
        ];
        let res = run_cells(&g, &cells, Some(&tracer));
        let epochs: u64 = res.iter().map(|r| r.timeline.len() as u64).sum();
        let tree = tracer.profile();
        let calls = |path: &str| {
            tree.flatten()
                .into_iter()
                .find(|r| r.0 == path)
                .map_or(0, |r| r.3)
        };
        assert_eq!(calls("epoch"), epochs, "every cell's epochs in one tree");
        assert_eq!(calls("epoch/gpu_advance"), epochs);
        assert_eq!(calls("dc"), 2, "one worker span per cell");
    }

    #[test]
    fn traced_matrix_matches_the_plain_matrix_bit_for_bit() {
        let g = GraphSpec::tiny().build();
        let workloads = [Workload::Dc, Workload::KCore];
        let policies = [Policy::NonOffloading, Policy::CoolPimSw];
        let tracer = Tracer::new();
        let cells: Vec<Cell> = workloads
            .iter()
            .flat_map(|&w| policies.iter().map(move |&p| Cell::new(w, p)))
            .collect();
        let traced = run_cells(&g, &cells, Some(&tracer));
        assert!(
            tracer.profile().total_s("epoch/gpu_advance") > 0.0,
            "a traced matrix must record hot-phase spans"
        );
        let plain = run_matrix(&g, &workloads, &policies, CoSimConfig::default());
        let plain: Vec<&CoSimResult> = plain.iter().flat_map(|w| &w.runs).collect();
        assert_eq!(traced.len(), plain.len());
        for (t, p) in traced.iter().zip(plain) {
            assert_eq!(t.workload, p.workload);
            assert_eq!(p.telemetry_overhead_pct, 0.0);
            assert_eq!(t.exec_s.to_bits(), p.exec_s.to_bits());
            assert_eq!(t.max_peak_dram_c.to_bits(), p.max_peak_dram_c.to_bits());
        }
    }

    /// A source that logs its construction and drop, with the thread
    /// each happened on.
    struct Logged<'a> {
        kernel: Box<dyn coolpim_gpu::Kernel>,
        log: &'a Mutex<Vec<(std::thread::ThreadId, bool)>>,
    }

    impl Drop for Logged<'_> {
        fn drop(&mut self) {
            let me = std::thread::current().id();
            self.log.lock().unwrap().push((me, false));
        }
    }

    impl std::ops::Deref for Logged<'_> {
        type Target = dyn coolpim_gpu::Kernel;
        fn deref(&self) -> &Self::Target {
            self.kernel.as_ref()
        }
    }

    impl std::ops::DerefMut for Logged<'_> {
        fn deref_mut(&mut self) -> &mut Self::Target {
            self.kernel.as_mut()
        }
    }

    #[test]
    fn source_sweep_builds_and_drops_one_source_per_cell_on_its_worker() {
        let g = GraphSpec::tiny().build();
        let cells = SweepCell::matrix8(85.0);
        let log = Mutex::new(Vec::new());
        let sweep = run_source_sweep(
            || {
                log.lock()
                    .unwrap()
                    .push((std::thread::current().id(), true));
                Logged {
                    kernel: make_kernel(Workload::Dc, &g),
                    log: &log,
                }
            },
            &cells,
            CoSimConfig::default(),
        );
        assert_eq!(sweep.len(), cells.len());
        let log = log.into_inner().unwrap();
        let made = log.iter().filter(|e| e.1).count();
        assert_eq!(made, cells.len(), "one make_source call per cell");
        assert_eq!(log.len(), 2 * cells.len(), "every source dropped");
        let caller = std::thread::current().id();
        assert!(log.iter().all(|e| e.0 != caller), "sources live on workers");
        // Per worker, builds and drops alternate: a worker drops its
        // source before it claims (and builds) the next cell's.
        let mut threads = Vec::new();
        for e in &log {
            if !threads.contains(&e.0) {
                threads.push(e.0);
            }
        }
        for t in threads {
            let seq: Vec<bool> = log.iter().filter(|e| e.0 == t).map(|e| e.1).collect();
            assert!(seq.chunks(2).all(|c| c == [true, false]), "{seq:?}");
        }
    }
}
