//! Allocation probe for the instruction front end: producing one block
//! trace costs at most `warps_per_block + 2` heap allocations — the warp
//! list, one op list per warp and the block's address arena — whether the
//! block comes from a live kernel or from a replayed recording. Memory ops
//! are headers into the arena, so their number does not matter.
//!
//! The probe is a counting global allocator, armed per thread so that
//! tests running in parallel do not count each other's allocations. It
//! counts fresh allocations and reallocations apart: a live kernel's
//! reusable trace builder grows its scratch by reallocation, a few times
//! per run, to the largest block seen so far.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use coolpim::gpu::InstructionSource;
use coolpim::graph::generate::GraphSpec;
use coolpim::graph::workloads::{make_kernel, Workload};
use coolpim::trace::{RecordingSource, TraceReplaySource};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if ARMED.with(Cell::get) {
        counter.with(|n| n.set(n.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: delegates verbatim to the system allocator; the probe only
// bumps a thread-local counter (const-initialised, so touching it never
// allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Counts the allocations and reallocations `f` makes on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCS.with(|n| n.set(0));
    REALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// What driving one source to completion cost.
struct Probe {
    blocks: usize,
    /// The most fresh allocations any one `block_trace` call made.
    worst_allocs: usize,
    /// Reallocations over the whole run.
    reallocs: usize,
}

/// Drives `src` to completion the way the engine does: blocks in id
/// order, then the next launch.
fn probe<S: InstructionSource + ?Sized>(src: &mut S) -> Probe {
    let mut p = Probe {
        blocks: 0,
        worst_allocs: 0,
        reallocs: 0,
    };
    loop {
        for b in 0..src.grid_blocks() {
            let (trace, allocs, reallocs) = allocs_during(|| src.block_trace(b, true));
            drop(trace);
            p.blocks += 1;
            p.worst_allocs = p.worst_allocs.max(allocs);
            p.reallocs += reallocs;
        }
        if !src.next_launch() {
            return p;
        }
    }
}

fn assert_within_budget(what: &str, p: &Probe, warps_per_block: usize) {
    assert!(p.blocks > 100, "{what}: only {} blocks probed", p.blocks);
    let budget = warps_per_block + 2;
    assert!(
        p.worst_allocs <= budget,
        "{what}: a block trace took {} allocations, budget {budget}",
        p.worst_allocs
    );
}

#[test]
fn live_kernels_allocate_per_warp_not_per_op() {
    let g = GraphSpec::test_medium().build();
    for w in [Workload::SsspDwc, Workload::PageRank] {
        let mut k = make_kernel(w, &g);
        let wpb = k.warps_per_block();
        let p = probe(&mut *k);
        assert_within_budget(w.name(), &p, wpb);
        // Only the builder's scratch grows, geometrically.
        assert!(
            p.reallocs * 100 < p.blocks,
            "{}: {} reallocations over {} blocks",
            w.name(),
            p.reallocs,
            p.blocks
        );
    }
}

#[test]
fn replayed_blocks_allocate_per_warp_not_per_op() {
    let g = GraphSpec::test_medium().build();
    let mut k = make_kernel(Workload::SsspDwc, &g);
    let trace = {
        let mut rec = RecordingSource::new(&mut *k);
        probe(&mut rec);
        rec.finish(GraphSpec::test_medium().config_hash(), "alloc probe")
    };
    let wpb = trace.warps_per_block;
    let p = probe(&mut TraceReplaySource::new(Arc::new(trace)));
    assert_within_budget("replay", &p, wpb);
    assert_eq!(p.reallocs, 0, "replay clones blocks at their exact size");
}
