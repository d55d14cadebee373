//! The assembled GPU + HMC system and its discrete-event engine.
//!
//! Warps are scheduled through one global event heap keyed by
//! `(ready_time, warp_slot)`; each step issues one warp instruction on
//! its SM (a serial issue resource), walks the memory hierarchy, and
//! requeues the warp at its next ready time. This "next-free-time"
//! engine is what makes multi-millisecond co-simulation windows cheap
//! while still producing bank-, link-, and cache-accurate traffic.
//!
//! A slot holds at most one live warp, so heap keys are unique and any
//! exact priority queue pops them in the same order. The engine relies on
//! that to requeue in place: a step peeks at the top entry and, unless
//! the warp retires, overwrites it with the warp's next ready time (one
//! sift-down); a paused run leaves the heap untouched.
//!
//! Approximations (documented per DESIGN.md):
//! * warps block in-order on load results (no scoreboarded overlap within
//!   a warp) — latency hiding happens across warps, as on a real GPU;
//! * stores and no-return atomics are fire-and-forget past *request
//!   acceptance* (link serialization), which bounds outstanding traffic
//!   at link rate;
//! * functional execution happens at trace-generation (dispatch) time,
//!   standard trace-driven practice.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use coolpim_hmc::{Hmc, Ps, Request};
use coolpim_telemetry::{TelemetryEvent, TraceTrack};

use crate::cache::{Cache, CacheOutcome};
use crate::coalesce::coalesce_into;
use crate::config::GpuConfig;
use crate::controller::OffloadController;
use crate::isa::{BlockTrace, Lanes, WarpOp, WarpTrace};
use crate::source::InstructionSource;
use crate::stats::GpuStats;

/// Why `run_until` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The workload completed; `GpuStats::end_ps` holds the finish time.
    Finished,
    /// The time horizon was reached with work still pending.
    Paused,
    /// The cube thermally shut down; the run cannot make progress.
    Shutdown,
}

#[derive(Debug, Clone, Copy)]
struct SmState {
    issue_next_free: Ps,
    resident_blocks: usize,
    resident_warps: usize,
}

/// Core-cycle latencies in ps, computed once from the [`GpuConfig`].
#[derive(Debug, Clone, Copy)]
struct CycleTimes {
    cycle: Ps,
    l1_hit: Ps,
    l2_hit: Ps,
    store_issue: Ps,
}

impl CycleTimes {
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            cycle: cfg.cycle_ps(),
            l1_hit: cfg.cycles_ps(cfg.l1_hit_cycles),
            l2_hit: cfg.cycles_ps(cfg.l2_hit_cycles),
            store_issue: cfg.cycles_ps(cfg.store_issue_cycles),
        }
    }
}

#[derive(Debug)]
struct WarpRun {
    /// The warp's op headers; their lanes index its block's arena.
    ops: Vec<WarpOp>,
    pc: usize,
    sm: usize,
    slot_in_sm: usize,
    block_slot: usize,
    pim_enabled: bool,
}

#[derive(Debug)]
struct BlockRun {
    id: usize,
    sm: usize,
    pim: bool,
    warps_left: usize,
    /// The block's warp list. A running warp has moved its ops out to its
    /// [`WarpRun`] and puts them back when it retires, so the completed
    /// block goes back to the source whole, for reuse.
    warps: Vec<WarpTrace>,
    /// The block's address arena, shared by its warps' memory ops.
    addrs: Vec<u64>,
}

/// The host GPU coupled to an HMC cube.
pub struct GpuSystem {
    cfg: GpuConfig,
    times: CycleTimes,
    hmc: Hmc,
    l1: Vec<Cache>,
    l2: Cache,
    sms: Vec<SmState>,
    warps: Vec<Option<WarpRun>>,
    free_warps: Vec<usize>,
    blocks: Vec<Option<BlockRun>>,
    free_blocks: Vec<usize>,
    heap: BinaryHeap<Reverse<(Ps, usize)>>,
    /// Next block id of the current grid awaiting dispatch.
    next_block: usize,
    grid_blocks: usize,
    /// Earliest dispatch time for blocks of the current grid.
    launch_ready: Ps,
    now: Ps,
    finished: bool,
    shutdown: bool,
    started: bool,
    stats: GpuStats,
    scratch: Vec<u64>,
    /// Kernel launch/retire events since the last drain (one per grid —
    /// rare; drained at epoch boundaries by the co-simulator).
    events: Vec<TelemetryEvent>,
    /// Timeline track for the engine's scheduling spans, when trace
    /// timelines are on: one `warp_scheduling` span per `run_until`
    /// call with `dispatch` children per block-fill pass. Per-warp
    /// stepping is deliberately not traced — at one span per issued
    /// instruction the tracer itself would dominate the epoch.
    trace: Option<TraceTrack>,
}

impl GpuSystem {
    /// Builds a system from a GPU configuration and a cube.
    pub fn new(cfg: GpuConfig, hmc: Hmc) -> Self {
        let l1 = (0..cfg.sms)
            .map(|_| Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes))
            .collect();
        let l2 = Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes);
        let sms = vec![
            SmState {
                issue_next_free: 0,
                resident_blocks: 0,
                resident_warps: 0
            };
            cfg.sms
        ];
        Self {
            times: CycleTimes::new(&cfg),
            cfg,
            hmc,
            l1,
            l2,
            sms,
            warps: Vec::new(),
            free_warps: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            heap: BinaryHeap::new(),
            next_block: 0,
            grid_blocks: 0,
            launch_ready: 0,
            now: 0,
            finished: false,
            shutdown: false,
            started: false,
            stats: GpuStats::default(),
            scratch: Vec::with_capacity(32),
            events: Vec::new(),
            trace: None,
        }
    }

    /// Attaches the engine's timeline track (see the `trace` field).
    pub fn set_trace(&mut self, track: TraceTrack) {
        self.trace = Some(track);
    }

    /// The engine's timeline track, if attached (it flushes into its
    /// tracer when the system drops).
    pub fn trace(&self) -> Option<&TraceTrack> {
        self.trace.as_ref()
    }

    /// Table IV system: 16-SM GPU + HMC 2.0.
    pub fn paper() -> Self {
        Self::new(GpuConfig::paper(), Hmc::hmc20())
    }

    /// The cube (for thermal updates and window drains).
    pub fn hmc(&self) -> &Hmc {
        &self.hmc
    }

    /// Mutable cube access.
    pub fn hmc_mut(&mut self) -> &mut Hmc {
        &mut self.hmc
    }

    /// Engine statistics.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Latest processed event time (ps).
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Whether the workload completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// L2 hit rate so far.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Begins executing `kernel` at simulation time `start`. Must be
    /// called once before `run_until`, with the same kernel passed to
    /// every subsequent call.
    pub fn start<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
        start: Ps,
    ) {
        assert!(!self.started, "start() called twice");
        self.started = true;
        self.grid_blocks = kernel.grid_blocks();
        self.next_block = 0;
        self.launch_ready = start;
        self.now = start;
        self.stats.launches = 1;
        self.events.push(TelemetryEvent::KernelLaunch {
            t_ps: start,
            launch: 1,
        });
        self.fill_sms(kernel, controller);
    }

    /// Moves the engine's buffered telemetry events (kernel launches and
    /// the final retire) into `out`.
    pub fn drain_events(&mut self, out: &mut Vec<TelemetryEvent>) {
        out.append(&mut self.events);
    }

    /// Processes events up to `until`; returns why it stopped.
    pub fn run_until<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
        until: Ps,
    ) -> RunOutcome {
        let tok = self.trace.as_mut().map(|t| t.begin("warp_scheduling"));
        let out = self.run_until_inner(kernel, controller, until);
        if let (Some(t), Some(tok)) = (self.trace.as_mut(), tok) {
            t.end(tok);
        }
        out
    }

    fn run_until_inner<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
        until: Ps,
    ) -> RunOutcome {
        assert!(self.started, "run_until() before start()");
        loop {
            if self.shutdown {
                return RunOutcome::Shutdown;
            }
            if self.finished {
                return RunOutcome::Finished;
            }
            let Some(&Reverse((ready, slot))) = self.heap.peek() else {
                // No resident warps. Dispatch stragglers or move to the
                // next launch.
                if self.next_block < self.grid_blocks {
                    let before = self.next_block;
                    self.fill_sms(kernel, controller);
                    assert!(
                        self.next_block > before,
                        "dispatch made no progress (SM capacity misconfigured?)"
                    );
                    continue;
                }
                if kernel.next_launch() {
                    self.grid_blocks = kernel.grid_blocks();
                    self.next_block = 0;
                    self.launch_ready = self.now + self.cfg.launch_overhead;
                    self.stats.launches += 1;
                    self.events.push(TelemetryEvent::KernelLaunch {
                        t_ps: self.launch_ready,
                        launch: self.stats.launches,
                    });
                    self.fill_sms(kernel, controller);
                    continue;
                }
                self.finished = true;
                self.stats.end_ps = self.now;
                self.events.push(TelemetryEvent::KernelRetire {
                    t_ps: self.now,
                    launch: self.stats.launches,
                });
                return RunOutcome::Finished;
            };
            if ready > until {
                return RunOutcome::Paused;
            }
            self.step_warp(slot, ready, kernel, controller);
        }
    }

    /// Convenience: run to completion (or shutdown) with no horizon.
    pub fn run_to_completion<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
    ) -> RunOutcome {
        self.start(kernel, controller, 0);
        self.run_until(kernel, controller, Ps::MAX)
    }

    fn fill_sms<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
    ) {
        let tok = self.trace.as_mut().map(|t| t.begin("dispatch"));
        self.fill_sms_inner(kernel, controller);
        if let (Some(t), Some(tok)) = (self.trace.as_mut(), tok) {
            t.end(tok);
        }
    }

    fn fill_sms_inner<K: InstructionSource + ?Sized>(
        &mut self,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
    ) {
        let wpb = kernel.warps_per_block();
        assert!(
            wpb > 0 && wpb <= self.cfg.max_warps_per_sm,
            "warps/block {wpb} unschedulable"
        );
        // Round-robin over SMs until no SM can take another block.
        let mut placed = true;
        while placed && self.next_block < self.grid_blocks {
            placed = false;
            for sm in 0..self.cfg.sms {
                if self.next_block >= self.grid_blocks {
                    break;
                }
                let s = &self.sms[sm];
                if s.resident_blocks < self.cfg.max_blocks_per_sm
                    && s.resident_warps + wpb <= self.cfg.max_warps_per_sm
                {
                    let id = self.next_block;
                    self.next_block += 1;
                    self.dispatch_block(id, sm, kernel, controller);
                    placed = true;
                }
            }
        }
    }

    fn dispatch_block<K: InstructionSource + ?Sized>(
        &mut self,
        id: usize,
        sm: usize,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
    ) {
        let t = self.launch_ready.max(self.now);
        let pim = controller.on_block_launch(id, t);
        let mut block = kernel.block_trace(id, pim);
        if pim {
            self.stats.pim_blocks += 1;
        } else {
            self.stats.non_pim_blocks += 1;
        }
        // Idle warps (empty traces — e.g. topology scans past the vertex
        // range) retire immediately and never enter the event heap.
        let live_warps = block.warps.iter().filter(|w| !w.is_empty()).count();
        if live_warps == 0 {
            // The whole block is a no-op: complete it on the spot.
            controller.on_block_complete(id, pim, t);
            kernel.recycle(block);
            return;
        }
        let block_slot = match self.free_blocks.pop() {
            Some(s) => s,
            None => {
                self.blocks.push(None);
                self.blocks.len() - 1
            }
        };
        self.sms[sm].resident_blocks += 1;
        self.sms[sm].resident_warps += live_warps;
        for (wi, wt) in block.warps.iter_mut().enumerate() {
            if wt.is_empty() {
                continue;
            }
            let warp_slot = match self.free_warps.pop() {
                Some(s) => s,
                None => {
                    self.warps.push(None);
                    self.warps.len() - 1
                }
            };
            self.warps[warp_slot] = Some(WarpRun {
                ops: std::mem::take(&mut wt.ops),
                pc: 0,
                sm,
                slot_in_sm: wi,
                block_slot,
                pim_enabled: pim,
            });
            self.heap.push(Reverse((t, warp_slot)));
        }
        self.blocks[block_slot] = Some(BlockRun {
            id,
            sm,
            pim,
            warps_left: live_warps,
            warps: block.warps,
            addrs: block.addrs,
        });
    }

    /// Issues the next instruction of the warp in `slot`, which is the
    /// heap's top entry `(ready, slot)`, then requeues or retires it.
    // Index loops below iterate a scratch vector while `&mut self` methods
    // are called in the body — iterator forms would hold a borrow.
    #[allow(clippy::needless_range_loop)]
    fn step_warp<K: InstructionSource + ?Sized>(
        &mut self,
        slot: usize,
        ready: Ps,
        kernel: &mut K,
        controller: &mut dyn OffloadController,
    ) {
        let warp = self.warps[slot].as_mut().expect("warp slot empty");
        let op = warp.ops[warp.pc];
        warp.pc += 1;
        let retired = warp.pc == warp.ops.len();
        let (sm, slot_in_sm, block_slot, pim_enabled) =
            (warp.sm, warp.slot_in_sm, warp.block_slot, warp.pim_enabled);
        let issue_start = self.sms[sm].issue_next_free.max(ready);
        self.now = self.now.max(issue_start);
        self.stats.instructions += 1;

        let times = self.times;
        let cycle = times.cycle;
        let next_ready = match op {
            WarpOp::Compute(cycles) => {
                self.sms[sm].issue_next_free = issue_start + cycle;
                issue_start + u64::from(cycles) * cycle
            }
            WarpOp::Load(lanes) => {
                self.stats.loads += 1;
                let mut blocks = std::mem::take(&mut self.scratch);
                coalesce_into(self.lane_addrs(block_slot, lanes), &mut blocks);
                let txs = blocks.len().max(1) as u64;
                self.sms[sm].issue_next_free = issue_start + txs * cycle;
                let mut data_ready = issue_start + times.l1_hit;
                for i in 0..blocks.len() {
                    let r = self.load_block(sm, issue_start, blocks[i], controller);
                    data_ready = data_ready.max(r);
                }
                self.scratch = blocks;
                data_ready
            }
            WarpOp::Store(lanes) => {
                self.stats.stores += 1;
                let mut blocks = std::mem::take(&mut self.scratch);
                coalesce_into(self.lane_addrs(block_slot, lanes), &mut blocks);
                let txs = blocks.len().max(1) as u64;
                self.sms[sm].issue_next_free = issue_start + txs * cycle;
                let mut accepted = issue_start + times.store_issue;
                for i in 0..blocks.len() {
                    let a = self.store_block(issue_start, blocks[i], controller);
                    accepted = accepted.max(a);
                }
                self.scratch = blocks;
                accepted
            }
            WarpOp::Atomic { op, lanes } => {
                let offload =
                    pim_enabled && controller.warp_may_offload(sm, slot_in_sm, issue_start);
                if offload {
                    let n = lanes.len() as u64;
                    self.sms[sm].issue_next_free = issue_start + n.max(1) * cycle;
                    self.stats.pim_lane_ops += n;
                    let mut done = issue_start + times.store_issue;
                    let wait_for_data = op.returns_data();
                    // Each active lane is one PIM instruction, tagged
                    // with the issuing SM for hot-spot attribution.
                    for li in 0..lanes.len() {
                        let addr = self.lane_addrs(block_slot, lanes)[li];
                        let c =
                            self.hmc
                                .submit_from(issue_start, &Request::pim(op, addr), Some(sm));
                        self.note_completion(&c, controller);
                        done = done.max(if wait_for_data {
                            c.finish_ps
                        } else {
                            c.req_accepted_ps
                        });
                    }
                    done
                } else {
                    // Host path: the atomic executes at the L2; traffic is
                    // per unique 64-byte line.
                    self.stats.host_lane_ops += lanes.len() as u64;
                    let mut blocks = std::mem::take(&mut self.scratch);
                    coalesce_into(self.lane_addrs(block_slot, lanes), &mut blocks);
                    let txs = blocks.len().max(1) as u64;
                    self.sms[sm].issue_next_free = issue_start + txs * cycle;
                    let wait_for_data = op.returns_data();
                    let mut done = issue_start + times.l1_hit + times.l2_hit;
                    for i in 0..blocks.len() {
                        let (accepted, data) =
                            self.host_atomic_block(issue_start, blocks[i], controller);
                        done = done.max(if wait_for_data { data } else { accepted });
                    }
                    self.scratch = blocks;
                    done
                }
            }
        };

        debug_assert_eq!(self.heap.peek(), Some(&Reverse((ready, slot))));
        if retired {
            // Popped before `fill_sms` can push new warps, so the entry
            // removed is this warp's.
            self.heap.pop();
            let warp = self.warps[slot].take().expect("warp slot empty");
            self.sms[sm].resident_warps -= 1;
            self.free_warps.push(slot);
            self.now = self.now.max(next_ready.min(Ps::MAX / 2));
            let done = {
                let b = self.blocks[block_slot].as_mut().expect("block slot empty");
                b.warps[slot_in_sm].ops = warp.ops;
                b.warps_left -= 1;
                b.warps_left == 0
            };
            if done {
                let b = self.blocks[block_slot].take().unwrap();
                self.sms[b.sm].resident_blocks -= 1;
                controller.on_block_complete(b.id, b.pim, self.now);
                self.free_blocks.push(block_slot);
                kernel.recycle(BlockTrace {
                    warps: b.warps,
                    addrs: b.addrs,
                });
                self.fill_sms(kernel, controller);
            }
        } else {
            // Requeue in place: one sift-down instead of a pop and a push.
            *self.heap.peek_mut().expect("the stepped warp is queued") =
                Reverse((next_ready, slot));
        }
    }

    /// The addresses of `lanes` in the arena of the block in `block_slot`.
    fn lane_addrs(&self, block_slot: usize, lanes: Lanes) -> &[u64] {
        let block = self.blocks[block_slot].as_ref().expect("block slot empty");
        &block.addrs[lanes.range()]
    }

    /// Load one 64-byte block through L1 → L2 → HMC; returns data-ready
    /// time.
    fn load_block(
        &mut self,
        sm: usize,
        t: Ps,
        addr: u64,
        controller: &mut dyn OffloadController,
    ) -> Ps {
        let t_l2 = t + self.times.l1_hit;
        if self.l1[sm].access(addr, false).is_hit() {
            return t_l2;
        }
        let t_mem = t_l2 + self.times.l2_hit;
        match self.l2.access(addr, false) {
            CacheOutcome::Hit => t_mem,
            CacheOutcome::Miss { writeback } => {
                if let Some(wb) = writeback {
                    let c = self.hmc.submit(t_mem, &Request::write(wb));
                    self.note_completion(&c, controller);
                }
                let c = self.hmc.submit(t_mem, &Request::read(addr));
                self.note_completion(&c, controller);
                c.finish_ps
            }
        }
    }

    /// Store one block (write-allocate at L2); returns acceptance time.
    fn store_block(&mut self, t: Ps, addr: u64, controller: &mut dyn OffloadController) -> Ps {
        let t_l2 = t + self.times.l1_hit;
        match self.l2.access(addr, true) {
            CacheOutcome::Hit => t_l2,
            CacheOutcome::Miss { writeback } => {
                if let Some(wb) = writeback {
                    let c = self.hmc.submit(t_l2, &Request::write(wb));
                    self.note_completion(&c, controller);
                }
                // Write-allocate: fetch the line, but the store is posted
                // — the warp only waits for request acceptance.
                let c = self.hmc.submit(t_l2, &Request::read(addr));
                self.note_completion(&c, controller);
                c.req_accepted_ps
            }
        }
    }

    /// Host atomic on one block at the L2; returns (acceptance,
    /// data-ready).
    fn host_atomic_block(
        &mut self,
        t: Ps,
        addr: u64,
        controller: &mut dyn OffloadController,
    ) -> (Ps, Ps) {
        let t_l2 = t + self.times.l1_hit + self.times.l2_hit;
        match self.l2.access(addr, true) {
            CacheOutcome::Hit => (t_l2, t_l2),
            CacheOutcome::Miss { writeback } => {
                if let Some(wb) = writeback {
                    let c = self.hmc.submit(t_l2, &Request::write(wb));
                    self.note_completion(&c, controller);
                }
                let c = self.hmc.submit(t_l2, &Request::read(addr));
                self.note_completion(&c, controller);
                (c.req_accepted_ps, c.finish_ps)
            }
        }
    }

    fn note_completion(
        &mut self,
        c: &coolpim_hmc::Completion,
        controller: &mut dyn OffloadController,
    ) {
        if c.shutdown {
            self.shutdown = true;
        }
        if c.thermal_warning {
            self.stats.warnings_seen += 1;
            controller.on_thermal_warning(c.finish_ps, c.warning_id.unwrap_or(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{AlwaysOffload, NeverOffload};
    use crate::isa::{BlockTrace, WarpOp, WarpTrace};
    use crate::kernel::KernelProfile;
    use coolpim_hmc::PimOp;

    /// Synthetic kernel: every warp does `loads` scattered loads and
    /// `atomics` scattered atomics per launch.
    struct SyntheticKernel {
        launches_left: usize,
        blocks: usize,
        warps: usize,
        loads: usize,
        atomics: usize,
        seed: u64,
        /// Shows when the kernel drops.
        token: std::sync::Arc<()>,
    }

    impl SyntheticKernel {
        fn new(launches: usize, blocks: usize, warps: usize, loads: usize, atomics: usize) -> Self {
            Self {
                launches_left: launches,
                blocks,
                warps,
                loads,
                atomics,
                seed: 0x9E3779B97F4A7C15,
                token: std::sync::Arc::default(),
            }
        }
        fn addr(&self, i: u64) -> u64 {
            // Cheap deterministic scatter over 256 MB.
            (i.wrapping_mul(self.seed) >> 13) % (256 << 20)
        }
    }

    impl InstructionSource for SyntheticKernel {
        fn name(&self) -> &str {
            "synthetic"
        }
        fn grid_blocks(&self) -> usize {
            self.blocks
        }
        fn warps_per_block(&self) -> usize {
            self.warps
        }
        fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
            let mut t = BlockTrace::default();
            for w in 0..self.warps {
                let mut ops = Vec::new();
                let base = (block * self.warps + w) as u64 * 1000;
                for l in 0..self.loads {
                    ops.push(WarpOp::Load(t.push_lanes(
                        (0..32u64).map(|lane| self.addr(base + l as u64 * 37 + lane)),
                    )));
                    ops.push(WarpOp::Compute(6));
                }
                for a in 0..self.atomics {
                    ops.push(WarpOp::Atomic {
                        op: PimOp::SignedAdd,
                        lanes: t.push_lanes(
                            (0..32u64).map(|lane| self.addr(base + 777 + a as u64 * 91 + lane)),
                        ),
                    });
                }
                t.warps.push(WarpTrace { ops });
            }
            t
        }
        fn next_launch(&mut self) -> bool {
            self.launches_left = self.launches_left.saturating_sub(1);
            self.launches_left > 0
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                pim_intensity: 0.3,
                divergence_ratio: 0.1,
            }
        }
    }

    #[test]
    fn finishes_and_reports_time() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = SyntheticKernel::new(1, 8, 4, 4, 2);
        let out = sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(out, RunOutcome::Finished);
        assert!(sys.stats().end_ps > 0);
        assert!(sys.stats().instructions > 0);
        assert_eq!(sys.stats().pim_lane_ops, 0);
        assert!(sys.stats().host_lane_ops > 0);
    }

    #[test]
    fn offloading_reduces_link_traffic() {
        let mut base = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k1 = SyntheticKernel::new(1, 16, 4, 2, 4);
        base.run_to_completion(&mut k1, &mut NeverOffload);
        let base_flits = base.hmc().totals().flits;

        let mut off = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k2 = SyntheticKernel::new(1, 16, 4, 2, 4);
        off.run_to_completion(&mut k2, &mut AlwaysOffload);
        let off_flits = off.hmc().totals().flits;

        assert!(
            off_flits < base_flits,
            "PIM offloading should cut FLIT traffic: {off_flits} vs {base_flits}"
        );
        assert!(off.stats().pim_lane_ops > 0);
        assert_eq!(off.stats().host_lane_ops, 0);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = SyntheticKernel::new(2, 8, 4, 6, 2);
        let mut ctrl = AlwaysOffload;
        sys.start(&mut k, &mut ctrl, 0);
        let mut pauses = 0;
        let mut t = 2_000; // 2 ns horizon steps
        loop {
            match sys.run_until(&mut k, &mut ctrl, t) {
                RunOutcome::Finished => break,
                RunOutcome::Paused => {
                    pauses += 1;
                    t += 10_000;
                }
                RunOutcome::Shutdown => panic!("unexpected shutdown"),
            }
            assert!(pauses < 1_000_000, "no forward progress");
        }
        assert!(pauses > 0, "expected at least one pause");
        assert!(sys.is_finished());
    }

    #[test]
    fn multi_launch_kernels_relaunch() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = SyntheticKernel::new(3, 4, 2, 1, 1);
        sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(sys.stats().launches, 3);
    }

    #[test]
    fn launch_and_retire_events_bracket_the_run() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = SyntheticKernel::new(3, 4, 2, 1, 1);
        sys.run_to_completion(&mut k, &mut NeverOffload);
        let mut evs = Vec::new();
        sys.drain_events(&mut evs);
        let launches: Vec<_> = evs
            .iter()
            .filter(|e| e.kind() == "KernelLaunch")
            .map(|e| e.t_ps())
            .collect();
        assert_eq!(launches.len(), 3, "one event per grid launch");
        assert!(
            launches.windows(2).all(|w| w[0] <= w[1]),
            "launch times monotone"
        );
        let retires: Vec<_> = evs.iter().filter(|e| e.kind() == "KernelRetire").collect();
        assert_eq!(retires.len(), 1, "single retire at workload completion");
        assert_eq!(retires[0].t_ps(), sys.stats().end_ps);
        let mut again = Vec::new();
        sys.drain_events(&mut again);
        assert!(again.is_empty(), "drain empties the buffer");
    }

    #[test]
    fn warnings_propagate_to_controller() {
        struct CountingCtrl {
            warnings: u64,
            ids: Vec<u64>,
        }
        impl OffloadController for CountingCtrl {
            fn on_block_launch(&mut self, _b: usize, _t: Ps) -> bool {
                true
            }
            fn on_thermal_warning(&mut self, _t: Ps, warning_id: u64) {
                self.warnings += 1;
                self.ids.push(warning_id);
            }
        }
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        sys.hmc_mut().set_peak_dram_temp(90.0);
        let mut k = SyntheticKernel::new(1, 4, 2, 2, 2);
        let mut ctrl = CountingCtrl {
            warnings: 0,
            ids: Vec::new(),
        };
        sys.run_to_completion(&mut k, &mut ctrl);
        assert!(ctrl.warnings > 0);
        assert!(sys.stats().warnings_seen > 0);
        // Every delivered warning cites the cube's (single) episode.
        assert!(ctrl.ids.iter().all(|&id| id == 1), "ids: {:?}", ctrl.ids);
    }

    #[test]
    fn shutdown_surfaces_as_outcome() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        sys.hmc_mut().set_peak_dram_temp(106.0);
        let mut k = SyntheticKernel::new(1, 4, 2, 2, 0);
        let out = sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(out, RunOutcome::Shutdown);
    }

    #[test]
    fn shutdown_drops_a_prefetching_kernel_and_joins_its_producer() {
        use crate::source::PrefetchKernel;
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        sys.hmc_mut().set_peak_dram_temp(106.0);
        // Far more blocks than the producer may run ahead: it is parked
        // on a full queue when the run ends.
        let kernel = SyntheticKernel::new(3, 512, 2, 2, 0);
        let token = std::sync::Arc::clone(&kernel.token);
        let mut k = PrefetchKernel::with_producer(Box::new(kernel));
        let out = sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(out, RunOutcome::Shutdown);
        drop(k);
        assert_eq!(
            std::sync::Arc::strong_count(&token),
            1,
            "the producer still holds the kernel"
        );
    }

    #[test]
    fn timeout_drops_a_prefetching_kernel_and_joins_its_producer() {
        use crate::source::PrefetchKernel;
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let kernel = SyntheticKernel::new(3, 512, 2, 2, 0);
        let token = std::sync::Arc::clone(&kernel.token);
        let mut k = PrefetchKernel::with_producer(Box::new(kernel));
        // Stop at a horizon, as `CoSim` does at `max_sim_time`.
        sys.start(&mut k, &mut NeverOffload, 0);
        let out = sys.run_until(&mut k, &mut NeverOffload, 3_000_000);
        assert_eq!(out, RunOutcome::Paused);
        drop(k);
        assert_eq!(
            std::sync::Arc::strong_count(&token),
            1,
            "the producer still holds the kernel"
        );
    }

    #[test]
    fn sw_granularity_blocks_mix_pim_and_shadow() {
        /// Grant PIM bodies to even blocks only.
        struct EvenBlocks;
        impl OffloadController for EvenBlocks {
            fn on_block_launch(&mut self, b: usize, _t: Ps) -> bool {
                b.is_multiple_of(2)
            }
        }
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = SyntheticKernel::new(1, 8, 2, 1, 2);
        sys.run_to_completion(&mut k, &mut EvenBlocks);
        assert_eq!(sys.stats().pim_blocks, 4);
        assert_eq!(sys.stats().non_pim_blocks, 4);
        assert!(sys.stats().pim_lane_ops > 0);
        assert!(sys.stats().host_lane_ops > 0);
    }

    #[test]
    fn hot_cube_slows_the_same_workload() {
        let run_with_temp = |temp: f64| {
            let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
            sys.hmc_mut().set_peak_dram_temp(temp);
            let mut k = SyntheticKernel::new(1, 16, 8, 8, 0);
            sys.run_to_completion(&mut k, &mut NeverOffload);
            sys.stats().end_ps
        };
        let cool = run_with_temp(40.0);
        let hot = run_with_temp(96.0);
        assert!(
            hot > cool,
            "critical-phase derating must slow the run: {hot} vs {cool}"
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::controller::{AlwaysOffload, NeverOffload};
    use crate::isa::{BlockTrace, WarpOp, WarpTrace};
    use crate::kernel::KernelProfile;
    use coolpim_hmc::PimOp;

    /// One block, one warp, fixed op list.
    struct OneShot {
        block: BlockTrace,
        fired: bool,
    }

    impl OneShot {
        /// `ops` lists the warp's ops, placing their lanes in the arena.
        fn new(ops: impl FnOnce(&mut BlockTrace) -> Vec<WarpOp>) -> Self {
            let mut block = BlockTrace::default();
            let ops = ops(&mut block);
            block.warps.push(WarpTrace { ops });
            Self {
                block,
                fired: false,
            }
        }
    }

    impl InstructionSource for OneShot {
        fn name(&self) -> &str {
            "one-shot"
        }
        fn grid_blocks(&self) -> usize {
            1
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn block_trace(&mut self, _block: usize, _pim: bool) -> BlockTrace {
            assert!(!self.fired, "single block requested twice");
            self.fired = true;
            self.block.clone()
        }
        fn next_launch(&mut self) -> bool {
            false
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                pim_intensity: 0.5,
                divergence_ratio: 0.0,
            }
        }
    }

    #[test]
    fn compute_only_kernel_time_matches_cycles() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = OneShot::new(|_| vec![WarpOp::Compute(1000)]);
        sys.run_to_completion(&mut k, &mut NeverOffload);
        let cycles = sys.stats().end_ps / GpuConfig::tiny().cycle_ps();
        assert!((1000..1100).contains(&cycles), "took {cycles} cycles");
    }

    #[test]
    fn coalesced_load_is_one_transaction() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        // 32 lanes in one 64B line.
        let mut k = OneShot::new(|b| vec![WarpOp::Load(b.push_lanes((0..32u64).map(|l| l * 2)))]);
        sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(sys.hmc().totals().reads, 1);
    }

    #[test]
    fn l1_hits_produce_no_memory_traffic() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = OneShot::new(|b| (0..3).map(|_| WarpOp::Load(b.push_lanes([0x40]))).collect());
        sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(sys.hmc().totals().reads, 1, "repeat loads must hit L1");
    }

    #[test]
    fn blocking_atomic_waits_for_response() {
        // CasSmaller returns data: the completion time must include the
        // full round trip, unlike fire-and-forget SignedAdd.
        let run = |op: PimOp| {
            let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
            let mut k = OneShot::new(|b| {
                (0..64)
                    .map(|i| WarpOp::Atomic {
                        op,
                        lanes: b.push_lanes([i * 4096]),
                    })
                    .collect()
            });
            sys.run_to_completion(&mut k, &mut AlwaysOffload);
            sys.stats().end_ps
        };
        let blocking = run(PimOp::CasSmaller);
        let posted = run(PimOp::SignedAdd);
        assert!(
            blocking > posted + 1000,
            "blocking {blocking} should exceed posted {posted}"
        );
    }

    #[test]
    fn stats_count_instruction_mix() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        let mut k = OneShot::new(|b| {
            vec![
                WarpOp::Compute(5),
                WarpOp::Load(b.push_lanes([0])),
                WarpOp::Store(b.push_lanes([64])),
                WarpOp::Atomic {
                    op: PimOp::SignedAdd,
                    lanes: b.push_lanes([128, 132]),
                },
            ]
        });
        sys.run_to_completion(&mut k, &mut AlwaysOffload);
        let s = sys.stats();
        assert_eq!(s.instructions, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.pim_lane_ops, 2);
        assert_eq!(s.host_lane_ops, 0);
    }

    #[test]
    fn host_atomics_coalesce_to_lines_but_count_lanes() {
        let mut sys = GpuSystem::new(GpuConfig::tiny(), Hmc::hmc20());
        // 4 lanes in the same 64B line.
        let mut k = OneShot::new(|b| {
            vec![WarpOp::Atomic {
                op: PimOp::SignedAdd,
                lanes: b.push_lanes([0, 16, 32, 48]),
            }]
        });
        sys.run_to_completion(&mut k, &mut NeverOffload);
        assert_eq!(sys.stats().host_lane_ops, 4);
        assert_eq!(sys.hmc().totals().reads, 1, "one line fill for four lanes");
    }
}
