//! Sweep sharing end to end: `run_source_sweep` over one recorded trace
//! lets cells that the thermal feedback never tells apart reuse one
//! engine run, and every cell's result still equals running that cell
//! alone, field for field.

use std::sync::{Arc, Mutex};

use coolpim::core::cosim::{CoSim, CoSimConfig, CoSimResult};
use coolpim::core::experiment::{run_source_sweep, SweepCell};
use coolpim::gpu::isa::BlockTrace;
use coolpim::gpu::kernel::KernelProfile;
use coolpim::gpu::InstructionSource;
use coolpim::prelude::*;
use coolpim::trace::{RecordingSource, TraceReplaySource, WorkloadTrace};

/// The tiny GPU: the scale-14 test graph's PageRank then spans three
/// thermal epochs, so a warning on the first one reaches the engine.
fn config() -> CoSimConfig {
    CoSimConfig {
        gpu: GpuConfig::tiny(),
        ..CoSimConfig::default()
    }
}

fn recorded_pagerank() -> Arc<WorkloadTrace> {
    let g = GraphSpec::test_medium().build();
    let mut kernel = make_kernel(Workload::PageRank, &g);
    let mut recorder = RecordingSource::new(kernel.as_mut());
    CoSim::new(Policy::CoolPimSw, config()).run(&mut recorder);
    Arc::new(recorder.finish(0, "workload=pagerank graph=test_medium"))
}

/// A replay source that reports how many blocks it served when dropped.
struct Counted<'a> {
    inner: TraceReplaySource,
    blocks: usize,
    served: &'a Mutex<Vec<usize>>,
}

impl InstructionSource for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn grid_blocks(&self) -> usize {
        self.inner.grid_blocks()
    }
    fn warps_per_block(&self) -> usize {
        self.inner.warps_per_block()
    }
    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace {
        self.blocks += 1;
        self.inner.block_trace(block, pim_enabled)
    }
    fn recycle(&mut self, spent: BlockTrace) {
        self.inner.recycle(spent);
    }
    fn next_launch(&mut self) -> bool {
        self.inner.next_launch()
    }
    fn profile(&self) -> KernelProfile {
        self.inner.profile()
    }
}

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.served.lock().unwrap().push(self.blocks);
    }
}

/// Every policy. Per CoolPIM policy: a cell that never warns, one that
/// warns from the first epoch and diverges from it, and one on a cooler
/// cube that never warns either; then, for SW, one that warns like the
/// second on a cooler cube, and for HW one warned from the start (25 °C
/// is above its threshold).
fn cells() -> Vec<SweepCell> {
    let cell = |policy, cooling, warning_threshold_c| SweepCell {
        policy,
        cooling,
        warning_threshold_c,
    };
    let mut cells = Vec::new();
    for p in [Policy::CoolPimSw, Policy::CoolPimHw] {
        cells.push(cell(p, Cooling::CommodityServer, 200.0));
        cells.push(cell(p, Cooling::CommodityServer, 30.0));
        cells.push(cell(p, Cooling::HighEndActive, 190.0));
    }
    cells.push(cell(Policy::CoolPimSw, Cooling::HighEndActive, 30.0));
    cells.push(cell(Policy::CoolPimHw, Cooling::CommodityServer, 20.0));
    for p in [Policy::NaiveOffloading, Policy::NonOffloading] {
        cells.push(cell(p, Cooling::CommodityServer, 84.0));
        cells.push(cell(p, Cooling::HighEndActive, 84.0));
    }
    // No feedback: every ideal cell runs the same engine.
    cells.push(cell(Policy::IdealThermal, Cooling::CommodityServer, 30.0));
    cells.push(cell(Policy::IdealThermal, Cooling::Passive, 30.0));
    cells
}

/// One sweep with its per-cell block counts (in drop order).
fn sweep(trace: &Arc<WorkloadTrace>, cells: &[SweepCell]) -> (Vec<CoSimResult>, Vec<usize>) {
    let served = Mutex::new(Vec::new());
    let results = run_source_sweep(
        || {
            Box::new(Counted {
                inner: TraceReplaySource::new(Arc::clone(trace)),
                blocks: 0,
                served: &served,
            })
        },
        cells,
        config(),
    );
    (results, served.into_inner().unwrap())
}

#[test]
fn shared_sweep_cells_equal_their_independent_runs() {
    let trace = recorded_pagerank();
    let cells = cells();
    let (results, served) = sweep(&trace, &cells);
    assert_eq!(served.len(), cells.len(), "one source per cell");

    let mut engines: Vec<(Policy, String)> = Vec::new();
    for (r, cell) in results.iter().zip(&cells) {
        let direct = CoSim::new(
            cell.policy,
            CoSimConfig {
                cooling: cell.cooling,
                warning_threshold_c: cell.warning_threshold_c,
                ..config()
            },
        )
        .run(&mut TraceReplaySource::new(Arc::clone(&trace)));
        // Field for field: the Debug rendering spells out every field,
        // floats to the last bit and the metrics in their order.
        assert_eq!(r.exec_s.to_bits(), direct.exec_s.to_bits(), "{cell:?}");
        assert_eq!(r.throttle_steps, direct.throttle_steps, "{cell:?}");
        assert_eq!(format!("{r:?}"), format!("{direct:?}"), "{cell:?}");
        let engine = (cell.policy, format!("{:?} {:?}", r.gpu, r.hmc));
        if !engines.contains(&engine) {
            engines.push(engine);
        }
    }
    // The warned cells ran a different engine from the quiet ones, and
    // a cell warned from the start its own.
    assert!(results[1].metrics.counter("thermal_warnings_raised") > 0);
    assert_ne!(results[0].gpu.end_ps, results[1].gpu.end_ps);
    assert_ne!(results[4].gpu.end_ps, results[7].gpu.end_ps);

    // A reused cell's source serves no block; every distinct engine
    // needed a full run.
    let full = served.iter().filter(|&&n| n > 0).count();
    assert!(full < cells.len(), "no cell reused a run: {served:?}");
    assert!(
        full >= engines.len(),
        "{full} full runs, {} engines",
        engines.len()
    );

    // Nothing outlives a call: the first cell of every policy runs in
    // full again, and the results do not change.
    let (again, served_again) = sweep(&trace, &cells);
    let full_again = served_again.iter().filter(|&&n| n > 0).count();
    assert!(full_again >= engines.len(), "{served_again:?}");
    assert_eq!(format!("{again:?}"), format!("{results:?}"));
}
