//! Warp-trace emission helpers shared by the workloads.

use coolpim_gpu::isa::{fresh_buffer, BlockTrace, Lanes, SpareBlocks, WarpOp, WarpTrace};
use coolpim_hmc::PimOp;

/// Warp width (threads per warp, Table IV).
pub const WARP: usize = 32;

/// Incrementally builds one block's instruction streams, warp after warp,
/// fusing adjacent compute work into single bursts.
///
/// Memory ops take their addresses from any iterator and append them to
/// the block's address arena; nothing is allocated per op. A kernel keeps
/// one builder for its whole run, and the builder builds each block in a
/// spent block handed back through [`Self::recycle`] when it has one: the
/// block then costs no fresh allocation, only a reallocation where a
/// buffer must grow or is trimmed to fit
/// ([`coolpim_gpu::isa::BlockTrace::trim`]). Without one it builds in its
/// own scratch buffers,
/// which only grow (to the largest block seen), and returns a copy in
/// fresh buffers ([`coolpim_gpu::isa::fresh_buffer`]): one allocation for
/// the warp list, one per warp and one for the arena. `default()` is an
/// empty placeholder that allocates nothing, for moving a kernel's
/// builder out while it builds a block.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    /// The block being built: its first `warps_done` warps are finished.
    /// Warp slots past them are left from a recycled block's earlier use
    /// and are overwritten.
    block: BlockTrace,
    warps_done: usize,
    /// The builder's own scratch block while `block` is a recycled one.
    parked: Option<BlockTrace>,
    /// Spent blocks handed back for reuse.
    spares: SpareBlocks,
    /// The current warp's ops.
    ops: Vec<WarpOp>,
    pending_compute: u32,
}

impl TraceBuilder {
    /// A fresh builder, with scratch room for a typical block.
    pub fn new() -> Self {
        Self {
            block: BlockTrace {
                warps: Vec::with_capacity(8),
                addrs: Vec::with_capacity(1024),
            },
            ops: Vec::with_capacity(64),
            ..Self::default()
        }
    }

    /// Adds `cycles` of ALU/control work (fused with neighbours). A fused
    /// burst saturates at `u32::MAX` cycles rather than wrapping — at
    /// 1.4 GHz that is already a ~3 s single burst, far beyond any real
    /// workload, so clamping is strictly safer than overflow.
    pub fn compute(&mut self, cycles: u32) {
        self.pending_compute = self.pending_compute.saturating_add(cycles);
    }

    fn flush_compute(&mut self) {
        if self.pending_compute > 0 {
            self.ops.push(WarpOp::Compute(self.pending_compute));
            self.pending_compute = 0;
        }
    }

    /// Appends one memory op over the active-lane `addrs`; an op with no
    /// active lane is dropped.
    fn mem(&mut self, addrs: impl IntoIterator<Item = u64>, op: impl FnOnce(Lanes) -> WarpOp) {
        let lanes = self.block.push_lanes(addrs);
        if lanes.is_empty() {
            return;
        }
        self.flush_compute();
        self.ops.push(op(lanes));
    }

    /// Adds a global load for the given active-lane addresses.
    pub fn load(&mut self, addrs: impl IntoIterator<Item = u64>) {
        self.mem(addrs, WarpOp::Load);
    }

    /// Adds a global store.
    pub fn store(&mut self, addrs: impl IntoIterator<Item = u64>) {
        self.mem(addrs, WarpOp::Store);
    }

    /// Adds an atomic (offloadable) operation.
    pub fn atomic(&mut self, op: PimOp, addrs: impl IntoIterator<Item = u64>) {
        self.mem(addrs, |lanes| WarpOp::Atomic { op, lanes });
    }

    /// Ends the current warp (flushing trailing compute) and starts the
    /// next one.
    pub fn end_warp(&mut self) {
        self.flush_compute();
        match self.block.warps.get_mut(self.warps_done) {
            Some(slot) => slot.ops.clone_from(&self.ops),
            None => self.block.warps.push(WarpTrace {
                ops: fresh_buffer(&self.ops),
            }),
        }
        self.warps_done += 1;
        self.ops.clear();
    }

    /// Builds one block of `warps` warps, `warp(self, i)` emitting warp
    /// `i`'s ops, in a recycled block if one is spare.
    pub fn block(&mut self, warps: usize, mut warp: impl FnMut(&mut Self, usize)) -> BlockTrace {
        if let Some(mut spare) = self.spares.take() {
            spare.addrs.clear();
            self.parked = Some(std::mem::replace(&mut self.block, spare));
        }
        for i in 0..warps {
            warp(self, i);
            self.end_warp();
        }
        self.finish_block()
    }

    /// Ends the current block and returns it; the builder is ready for
    /// the next block. Call after the block's last [`Self::end_warp`].
    pub fn finish_block(&mut self) -> BlockTrace {
        debug_assert!(
            self.ops.is_empty() && self.pending_compute == 0,
            "finish_block with an unfinished warp"
        );
        let warps = std::mem::take(&mut self.warps_done);
        if let Some(scratch) = self.parked.take() {
            let mut block = std::mem::replace(&mut self.block, scratch);
            block.warps.truncate(warps);
            block.trim();
            return block;
        }
        let block = BlockTrace {
            warps: self.block.warps.drain(..).collect(),
            addrs: fresh_buffer(&self.block.addrs),
        };
        self.block.addrs.clear();
        block
    }

    /// Takes back a block this builder produced once its consumer is done
    /// with it; a later [`Self::block`] is built in its buffers.
    pub fn recycle(&mut self, spent: BlockTrace) {
        self.spares.put(spent);
    }
}

/// Number of thread blocks needed for `warps` warps at `warps_per_block`.
pub fn blocks_for_warps(warps: usize, warps_per_block: usize) -> usize {
    warps.div_ceil(warps_per_block).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One warp built by `f`, as a block.
    fn one_warp(f: impl FnOnce(&mut TraceBuilder)) -> BlockTrace {
        let mut b = TraceBuilder::new();
        f(&mut b);
        b.end_warp();
        b.finish_block()
    }

    #[test]
    fn compute_fuses_until_memory_op() {
        let t = one_warp(|b| {
            b.compute(4);
            b.compute(6);
            b.load([0, 64]);
            b.compute(2);
        });
        let ops = &t.warps[0].ops;
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0], WarpOp::Compute(10));
        assert_eq!(t.addrs_of(&ops[1]), &[0, 64]);
        assert_eq!(ops[2], WarpOp::Compute(2));
    }

    #[test]
    fn empty_memory_ops_are_dropped() {
        let t = one_warp(|b| {
            b.load([]);
            b.atomic(PimOp::SignedAdd, std::iter::empty());
        });
        assert!(t.warps[0].is_empty());
        assert!(t.addrs.is_empty());
    }

    #[test]
    fn compute_saturates_at_u32_max_instead_of_wrapping() {
        let t = one_warp(|b| {
            b.compute(u32::MAX - 1);
            b.compute(100); // would wrap to 98 with unchecked +=
            b.load([0]);
        });
        assert_eq!(t.warps[0].ops[0], WarpOp::Compute(u32::MAX));
    }

    #[test]
    fn trailing_pending_compute_is_flushed_by_end_warp() {
        // Shrunk from the replay-oracle wiring: a kernel that ends on
        // compute (no trailing memory op) must still emit that burst.
        let t = one_warp(|b| {
            b.load([64]);
            b.compute(3);
        });
        assert_eq!(t.warps[0].ops.len(), 2);
        assert_eq!(t.warps[0].ops[1], WarpOp::Compute(3));
    }

    #[test]
    fn blocks_share_one_arena_in_program_order_and_reuse_the_builder() {
        let mut b = TraceBuilder::new();
        b.load([1, 2]);
        b.end_warp();
        b.end_warp(); // an idle warp
        b.compute(5);
        b.store([3]);
        b.atomic(PimOp::SignedAdd, [4, 5]);
        b.end_warp();
        let first = b.finish_block();
        assert_eq!(first.warps.len(), 3);
        assert_eq!(first.addrs, [1, 2, 3, 4, 5]);
        assert!(first.warps[1].is_empty());
        let last = first.warps[2].ops[2];
        assert_eq!(first.addrs_of(&last), &[4, 5]);

        b.load([9]);
        b.end_warp();
        let second = b.finish_block();
        assert_eq!(second.warps.len(), 1);
        assert_eq!(second.addrs, [9]);
        assert_eq!(
            second.warps[0].ops[0],
            WarpOp::Load(Lanes { start: 0, len: 1 })
        );
    }

    #[test]
    fn recycled_blocks_are_rebuilt_in_place_without_stale_contents() {
        let mut b = TraceBuilder::new();
        let first = b.block(3, |b, w| {
            b.load((0..40).map(|i| i * 64 + w as u64));
            b.compute(2);
        });
        let arena = first.addrs.as_ptr();
        b.recycle(first);
        let second = b.block(2, |b, w| {
            if w == 1 {
                b.store([5]);
            }
        });
        assert_eq!(second.addrs.as_ptr(), arena, "built in the spent block");
        assert_eq!(second.warps.len(), 2);
        assert!(second.warps[0].is_empty());
        assert_eq!(
            second.warps[1].ops,
            [WarpOp::Store(Lanes { start: 0, len: 1 })]
        );
        assert_eq!(second.addrs, [5]);
        // The builder's own scratch is back for a block with no spare.
        let third = b.block(1, |b, _| b.load([8]));
        assert_eq!(third.addrs, [8]);
        assert_ne!(third.addrs.as_ptr(), arena);
    }

    #[test]
    fn block_count_rounds_up_and_is_nonzero() {
        assert_eq!(blocks_for_warps(0, 8), 1);
        assert_eq!(blocks_for_warps(8, 8), 1);
        assert_eq!(blocks_for_warps(9, 8), 2);
    }
}
