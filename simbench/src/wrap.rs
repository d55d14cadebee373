//! Transparent timing wrappers around the co-simulator's three seams.
//!
//! Each wrapper forwards every call unchanged, so a wrapped run is
//! bit-identical to a plain one (the `transparency` test checks this
//! under every policy). The traced run uses them to attribute host time
//! to layers from outside the program:
//!
//! * [`TimedSource`] spans every `block_trace` and `next_launch` call
//!   (live kernel generation or replayed-trace clones) and counts blocks
//!   and warp ops;
//! * [`TimedCtrl`] counts every controller call and times a sample of
//!   them in aggregate (HW-DynT is consulted per atomic, too often to
//!   span or time each);
//! * [`TimedSolve`] spans every thermal step and steady-state solve.
//!
//! Spans land on the cell's [`TraceTrack`], shared by the source and the
//! solver through a [`Track`] handle, so they nest under the pool's
//! `cell` span and the track's self time is the engine's.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::{CoSimResult, Policy};
use coolpim_gpu::controller::OffloadController;
use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::InstructionSource;
use coolpim_hmc::Ps;
use coolpim_telemetry::{TelemetryEvent, TraceTrack};
use coolpim_thermal::grid::ThermalGrid;
use coolpim_thermal::solver::{
    NonConvergence, SolveStats, ThermalSolve, TransientSolverStats, TransientState,
};
use coolpim_thermal::HmcThermalModel;

/// One worker's trace track, shared by the wrappers of the cell it runs.
pub type Track = Rc<RefCell<TraceTrack>>;

/// Runs `f` inside a span named `name` on `track`.
pub fn span<R>(track: &Track, name: &'static str, f: impl FnOnce() -> R) -> R {
    let tok = track.borrow_mut().begin(name);
    let r = f();
    track.borrow_mut().end(tok);
    r
}

/// Instruction-source wrapper: spans and counts the calls that generate
/// or clone instructions.
pub struct TimedSource<'a, S: InstructionSource + ?Sized> {
    inner: &'a mut S,
    track: Track,
    /// Block traces handed out.
    pub blocks: u64,
    /// Warp ops in those block traces.
    pub warp_ops: u64,
}

impl<'a, S: InstructionSource + ?Sized> TimedSource<'a, S> {
    /// Wraps `inner`, recording on `track`.
    pub fn new(inner: &'a mut S, track: Track) -> Self {
        Self {
            inner,
            track,
            blocks: 0,
            warp_ops: 0,
        }
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for TimedSource<'_, S> {
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
        let inner = &mut *self.inner;
        let trace = span(&self.track, "block_trace", || {
            inner.block_trace(block, pim_enabled)
        });
        self.blocks += 1;
        self.warp_ops += trace.warps.iter().map(|w| w.ops.len() as u64).sum::<u64>();
        trace
    }
    fn next_launch(&mut self) -> bool {
        let inner = &mut *self.inner;
        span(&self.track, "next_launch", || inner.next_launch())
    }
    fn profile(&self) -> KernelProfile {
        self.inner.profile()
    }
}

/// Every how many controller calls one is timed.
const CTRL_SAMPLE_EVERY: u64 = 32;

/// Host cost (ns) of timing an empty call: two clock reads. Subtracted
/// from each timed controller call, whose bodies are often cheaper.
pub fn timer_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Offload-controller wrapper: counts every call and times one in
/// [`CTRL_SAMPLE_EVERY`]. HW-DynT is consulted per atomic, tens of
/// millions of times per run, so timing every call would double its
/// cost; the sampled time, less the clock's own cost, scales to all.
pub struct TimedCtrl {
    inner: Box<dyn OffloadController>,
    timer_ns: f64,
    calls: u64,
    sampled: u64,
    sampled_ns: f64,
}

impl TimedCtrl {
    /// Wraps `inner`; `timer_ns` is [`timer_overhead_ns`].
    pub fn new(inner: Box<dyn OffloadController>, timer_ns: f64) -> Self {
        Self {
            inner,
            timer_ns,
            calls: 0,
            sampled: 0,
            sampled_ns: 0.0,
        }
    }

    /// Controller calls made by the engine and the co-sim loop.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Estimated host time inside those calls (ns).
    pub fn ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns * self.calls as f64 / self.sampled as f64
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn OffloadController) -> R) -> R {
        self.calls += 1;
        if self.calls % CTRL_SAMPLE_EVERY != 1 {
            return f(self.inner.as_mut());
        }
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as f64;
        self.sampled += 1;
        self.sampled_ns += (ns - self.timer_ns).max(0.0);
        r
    }
}

impl OffloadController for TimedCtrl {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_block_launch(&mut self, block_id: usize, now: Ps) -> bool {
        self.timed(|c| c.on_block_launch(block_id, now))
    }
    fn on_block_complete(&mut self, block_id: usize, was_pim: bool, now: Ps) {
        self.timed(|c| c.on_block_complete(block_id, was_pim, now))
    }
    fn warp_may_offload(&mut self, sm: usize, warp_slot: usize, now: Ps) -> bool {
        self.timed(|c| c.warp_may_offload(sm, warp_slot, now))
    }
    fn on_thermal_warning(&mut self, now: Ps, warning_id: u64) {
        self.timed(|c| c.on_thermal_warning(now, warning_id))
    }
    fn on_thermal_reading(&mut self, peak_dram_c: f64, threshold_c: f64, now: Ps) {
        self.timed(|c| c.on_thermal_reading(peak_dram_c, threshold_c, now))
    }
    fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        self.timed(|c| c.drain_control_events(out))
    }
}

/// Thermal-solver wrapper: spans every transient step and steady-state
/// solve of the production solver.
pub struct TimedSolve {
    inner: TransientState,
    track: Track,
}

impl ThermalSolve for TimedSolve {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn temps(&self) -> &[f64] {
        ThermalSolve::temps(&self.inner)
    }
    fn ambient_c(&self) -> f64 {
        ThermalSolve::ambient_c(&self.inner)
    }
    fn c_scale(&self) -> f64 {
        ThermalSolve::c_scale(&self.inner)
    }
    fn solver_stats(&self) -> &TransientSolverStats {
        ThermalSolve::solver_stats(&self.inner)
    }
    fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64) {
        let inner = &mut self.inner;
        span(&self.track, "thermal.step", || {
            ThermalSolve::step(inner, grid, power, dt)
        });
    }
    fn step_traced(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
        dt: f64,
        trace: Option<&mut TraceTrack>,
    ) {
        let inner = &mut self.inner;
        span(&self.track, "thermal.step", || {
            ThermalSolve::step_traced(inner, grid, power, dt, trace)
        });
    }
    fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence> {
        let inner = &mut self.inner;
        span(&self.track, "thermal.steady", || {
            ThermalSolve::try_jump_to_steady_state(inner, grid, power)
        })
    }
    fn reset(&mut self) {
        ThermalSolve::reset(&mut self.inner);
    }
}

/// What the wrappers counted over one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellCounts {
    /// Block traces handed out.
    pub blocks: u64,
    /// Warp ops in them.
    pub warp_ops: u64,
    /// Controller calls.
    pub ctrl_calls: u64,
    /// Estimated host time in controller calls (ns).
    pub ctrl_ns: f64,
}

impl CellCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &CellCounts) {
        self.blocks += o.blocks;
        self.warp_ops += o.warp_ops;
        self.ctrl_calls += o.ctrl_calls;
        self.ctrl_ns += o.ctrl_ns;
    }
}

/// Runs one co-sim cell with all three seams wrapped — the traced twin
/// of `CoSim::new(policy, cfg).run(source)`: the controller comes from
/// `Policy::controller` over the source's profile, feedback from
/// `Policy::thermal_feedback`, and the thermal plant is the HMC 2.0
/// model for the configured cooling with its production solver wrapped.
pub fn run_wrapped<S: InstructionSource + ?Sized>(
    policy: Policy,
    cfg: CoSimConfig,
    source: &mut S,
    track: &Track,
) -> (CoSimResult, CellCounts) {
    let mut src = TimedSource::new(source, Rc::clone(track));
    static TIMER_NS: OnceLock<f64> = OnceLock::new();
    let timer_ns = *TIMER_NS.get_or_init(timer_overhead_ns);
    let mut ctrl = TimedCtrl::new(policy.controller(&src.profile()), timer_ns);
    let solver_track = Rc::clone(track);
    let thermal =
        HmcThermalModel::hmc20(cfg.cooling).with_solver(|grid, ambient_c, c_scale| TimedSolve {
            inner: TransientState::new(grid, ambient_c, c_scale),
            track: solver_track,
        });
    let r = CoSim::new(policy, cfg)
        .with_thermal_model(thermal)
        .run_with_controller(&mut src, &mut ctrl, policy.thermal_feedback());
    let counts = CellCounts {
        blocks: src.blocks,
        warp_ops: src.warp_ops,
        ctrl_calls: ctrl.calls(),
        ctrl_ns: ctrl.ns(),
    };
    (r, counts)
}
