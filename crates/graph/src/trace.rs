//! Warp-trace emission helpers shared by the workloads.

use coolpim_gpu::isa::{BlockTrace, Lanes, WarpOp, WarpTrace};
use coolpim_hmc::PimOp;

/// Warp width (threads per warp, Table IV).
pub const WARP: usize = 32;

/// Incrementally builds one block's instruction streams, warp after warp,
/// fusing adjacent compute work into single bursts.
///
/// Memory ops take their addresses from any iterator and append them to
/// the block's address arena; nothing is allocated per op. A kernel keeps
/// one builder for its whole run: its scratch buffers are reused and only
/// grow (to the largest block seen), so a finished block costs one
/// allocation for its warp list, one per non-empty warp's ops and one for
/// its address arena. `default()` is an empty placeholder that allocates
/// nothing, for moving a kernel's builder out while it builds a block.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    /// The current block: its finished warps and its address arena.
    block: BlockTrace,
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
            pending_compute: 0,
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
        self.block.warps.push(WarpTrace {
            ops: self.ops.as_slice().to_vec(),
        });
        self.ops.clear();
    }

    /// Builds one block of `warps` warps, `warp(self, i)` emitting warp
    /// `i`'s ops.
    pub fn block(&mut self, warps: usize, mut warp: impl FnMut(&mut Self, usize)) -> BlockTrace {
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
        let block = BlockTrace {
            warps: self.block.warps.drain(..).collect(),
            addrs: self.block.addrs.as_slice().to_vec(),
        };
        self.block.addrs.clear();
        block
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
    fn block_count_rounds_up_and_is_nonzero() {
        assert_eq!(blocks_for_warps(0, 8), 1);
        assert_eq!(blocks_for_warps(8, 8), 1);
        assert_eq!(blocks_for_warps(9, 8), 2);
    }
}
