//! Allocation probe for the instruction front end. Producing one block
//! trace from scratch costs at most `warps_per_block + 2` heap
//! allocations — the warp list, one op list per warp and the block's
//! address arena — whether the block comes from a live kernel or from a
//! replayed recording. Memory ops are headers into the arena, so their
//! number does not matter. A block built after the engine handed a spent
//! one back through `recycle` costs no fresh allocation at all.
//!
//! The probe is a counting global allocator, armed per thread so that
//! tests running in parallel do not count each other's allocations. It
//! counts fresh allocations and reallocations apart: a live kernel's
//! reusable trace builder grows its scratch by reallocation, a few times
//! per run, to the largest block seen so far, and a recycled block is
//! resized to each block it holds by reallocation. Because the counts are per thread, the live kernels are probed
//! through `inline_kernel`, which generates on the calling thread;
//! `make_kernel` may move generation to a producer thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use coolpim::gpu::InstructionSource;
use coolpim::graph::generate::GraphSpec;
use coolpim::graph::workloads::{inline_kernel, Workload};
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
    /// The most fresh allocations a `block_trace` call made with no spent
    /// block to reuse.
    worst_fresh: usize,
    /// The most fresh allocations a `block_trace` call made after a spent
    /// block was recycled (`None` when nothing was recycled).
    worst_recycled: Option<usize>,
    /// Reallocations over the whole run.
    reallocs: usize,
}

/// Drives `src` to completion the way the engine does: blocks in id
/// order, then the next launch. With `recycle`, each block goes back to
/// the source as soon as it is built, so every block after the first is
/// built in a spent one.
fn probe<S: InstructionSource + ?Sized>(src: &mut S, recycle: bool) -> Probe {
    let mut p = Probe {
        blocks: 0,
        worst_fresh: 0,
        worst_recycled: None,
        reallocs: 0,
    };
    loop {
        for b in 0..src.grid_blocks() {
            let (trace, allocs, reallocs) = allocs_during(|| src.block_trace(b, true));
            let worst = if recycle && p.blocks > 0 {
                p.worst_recycled.get_or_insert(0)
            } else {
                &mut p.worst_fresh
            };
            *worst = (*worst).max(allocs);
            if recycle {
                src.recycle(trace);
            }
            p.blocks += 1;
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
        p.worst_fresh <= budget,
        "{what}: a block trace took {} allocations, budget {budget}",
        p.worst_fresh
    );
}

/// Without recycling only the builder's scratch grows, geometrically, a
/// few times per run. A recycled block is refilled to its new contents
/// and trimmed to fit them, so it may reallocate a buffer or two per
/// block, never once per op.
fn assert_reallocs_bounded(what: &str, p: &Probe, recycle: bool) {
    let within = if recycle {
        p.reallocs <= 2 * p.blocks
    } else {
        p.reallocs * 100 < p.blocks
    };
    assert!(
        within,
        "{what}: {} reallocations over {} blocks",
        p.reallocs, p.blocks
    );
}

fn assert_recycling_is_free(what: &str, p: &Probe) {
    assert_eq!(
        p.worst_recycled,
        Some(0),
        "{what}: a block built in a recycled one allocated"
    );
}

#[test]
fn live_kernels_allocate_per_warp_not_per_op() {
    let g = GraphSpec::test_medium().build();
    for w in [Workload::SsspDwc, Workload::PageRank] {
        for recycle in [false, true] {
            let mut k = inline_kernel(w, &g);
            let wpb = k.warps_per_block();
            let p = probe(&mut *k, recycle);
            assert_within_budget(w.name(), &p, wpb);
            if recycle {
                assert_recycling_is_free(w.name(), &p);
            }
            assert_reallocs_bounded(w.name(), &p, recycle);
        }
    }
}

#[test]
fn replayed_blocks_allocate_per_warp_not_per_op() {
    let g = GraphSpec::test_medium().build();
    let mut k = inline_kernel(Workload::SsspDwc, &g);
    let trace = {
        let mut rec = RecordingSource::new(&mut *k);
        probe(&mut rec, false);
        Arc::new(rec.finish(GraphSpec::test_medium().config_hash(), "alloc probe"))
    };
    let wpb = trace.warps_per_block;
    let p = probe(&mut TraceReplaySource::new(Arc::clone(&trace)), false);
    assert_within_budget("replay", &p, wpb);
    assert_eq!(p.reallocs, 0, "replay copies blocks at their exact size");
    let p = probe(&mut TraceReplaySource::new(trace), true);
    assert_within_budget("replay", &p, wpb);
    assert_recycling_is_free("replay", &p);
    assert_reallocs_bounded("replay", &p, true);
}
