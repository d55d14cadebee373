//! The abstract warp-level instruction stream executed by the engine.
//!
//! Workloads compile to sequences of [`WarpOp`]s per warp. Compute work
//! between memory operations is fused into single `Compute` bursts; memory
//! operations carry the per-lane addresses of the *active* lanes, so
//! divergence shows up as short address runs.
//!
//! Ops are small `Copy` headers. A memory op's addresses live in one flat
//! arena per block ([`BlockTrace::addrs`]), and the op holds only its
//! [`Lanes`], the run of arena slots that are its addresses. A block is
//! therefore a handful of flat vectors: one op list per warp plus the
//! arena, whatever its number of memory ops. In a well-formed block the
//! arena holds the addresses in program order, warp after warp, which is
//! the order every builder and the trace decoder produce, so two blocks
//! with the same ops and addresses compare equal.

use std::ops::Range;

use coolpim_hmc::PimOp;

/// The active-lane addresses of one memory op: `len` consecutive slots of
/// its block's address arena, starting at `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lanes {
    /// First arena slot.
    pub start: u32,
    /// Number of active lanes.
    pub len: u32,
}

impl Lanes {
    /// Number of active lanes.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when no lane is active.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The arena slots, as an index range.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// One warp-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// A burst of ALU/control work lasting this many core cycles.
    Compute(u32),
    /// A global load; one address per active lane. The warp blocks until
    /// the data returns.
    Load(Lanes),
    /// A global store; fire-and-forget past request acceptance.
    Store(Lanes),
    /// An atomic read-modify-write per active lane. Offloadable to a PIM
    /// instruction when the warp/block is PIM-enabled; otherwise executed
    /// as a host atomic at the L2.
    Atomic {
        /// Which RMW operation.
        op: PimOp,
        /// Per-active-lane target addresses.
        lanes: Lanes,
    },
}

impl WarpOp {
    /// The op's lane addresses in the block arena (`None` for compute).
    pub fn lanes(&self) -> Option<Lanes> {
        match *self {
            WarpOp::Compute(_) => None,
            WarpOp::Load(l) | WarpOp::Store(l) | WarpOp::Atomic { lanes: l, .. } => Some(l),
        }
    }

    /// Number of active lanes touching memory (0 for compute).
    pub fn active_lanes(&self) -> usize {
        self.lanes().map_or(0, Lanes::len)
    }

    /// Whether this op is an offloadable atomic.
    pub fn is_atomic(&self) -> bool {
        matches!(self, WarpOp::Atomic { .. })
    }
}

/// The instruction stream of one warp.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct WarpTrace {
    /// Operations in program order.
    pub ops: Vec<WarpOp>,
}

impl WarpTrace {
    /// Count of atomic lane-operations in this trace (one per active lane
    /// of each atomic instruction).
    pub fn atomic_lane_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| op.is_atomic())
            .map(|op| op.active_lanes() as u64)
            .sum()
    }

    /// Total warp instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

// `clone_from` refills the target's buffers in place (the derived one
// would allocate new ones): that is how a recycled block takes a
// replayed block's contents.
impl Clone for WarpTrace {
    fn clone(&self) -> Self {
        Self {
            ops: self.ops.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ops.clone_from(&source.ops);
    }
}

/// Copies `items` into a new buffer with room for at least one element.
///
/// Fresh block buffers are made this way, so that refilling a recycled
/// block never allocates from nothing: an idle warp's op list, or an idle
/// block's arena, takes a busy one's contents by reallocation.
pub fn fresh_buffer<T: Copy>(items: &[T]) -> Vec<T> {
    let mut v = Vec::with_capacity(items.len().max(1));
    v.extend_from_slice(items);
    v
}

/// Buffers of at most this many elements are never trimmed
/// ([`BlockTrace::trim`]): reallocating them would cost more than it
/// saves.
const TRIM_FLOOR: usize = 64;

/// Spent blocks kept for reuse by a block source.
///
/// It keeps at most [`SpareBlocks::KEEP`] and drops the rest. A source
/// needs about one spare per block it builds, since the engine returns a
/// block each time it finishes one; but at the end of a launch every
/// resident block comes back at once, and holding all of them would tie
/// up memory the kernel's next launch could reuse.
#[derive(Debug, Default, Clone)]
pub struct SpareBlocks(Vec<BlockTrace>);

impl SpareBlocks {
    /// Spares kept at most.
    pub const KEEP: usize = 8;

    /// Keeps `spent` if there is room, else drops it.
    pub fn put(&mut self, spent: BlockTrace) {
        if self.0.len() < Self::KEEP {
            self.0.push(spent);
        }
    }

    /// The most recently kept spare, if any.
    pub fn take(&mut self) -> Option<BlockTrace> {
        self.0.pop()
    }
}

/// The instruction streams of all warps of one thread block.
///
/// A block's buffers can be reused: the engine hands a spent block back
/// to its source ([`crate::InstructionSource::recycle`]), which builds a
/// later block in the same vectors.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BlockTrace {
    /// One trace per warp.
    pub warps: Vec<WarpTrace>,
    /// The address arena every memory op's [`Lanes`] index.
    pub addrs: Vec<u64>,
}

impl Clone for BlockTrace {
    fn clone(&self) -> Self {
        Self {
            warps: self.warps.clone(),
            addrs: self.addrs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.warps.clone_from(&source.warps);
        self.addrs.clone_from(&source.addrs);
    }
}

impl BlockTrace {
    /// A copy in new buffers made by [`fresh_buffer`]: one allocation
    /// for the warp list, one per warp and one for the arena.
    pub fn fresh_copy(&self) -> Self {
        Self {
            warps: self
                .warps
                .iter()
                .map(|w| WarpTrace {
                    ops: fresh_buffer(&w.ops),
                })
                .collect(),
            addrs: fresh_buffer(&self.addrs),
        }
    }

    /// Shrinks every buffer that is more than a quarter larger than what
    /// it holds (and past a small floor) to fit. A refilled
    /// buffer only grows, so a block built in a recycled one is trimmed
    /// before it goes out: blocks in flight then hold about what a block
    /// of fresh, exact buffers would, not the largest block their buffers
    /// ever held.
    pub fn trim(&mut self) {
        fn trim<T>(v: &mut Vec<T>) {
            if v.capacity() > (v.len() + v.len() / 4).max(TRIM_FLOOR) {
                v.shrink_to(v.len().max(1));
            }
        }
        trim(&mut self.addrs);
        for w in &mut self.warps {
            trim(&mut w.ops);
        }
    }

    /// Number of warps.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// The addresses of `op` (empty for compute).
    pub fn addrs_of(&self, op: &WarpOp) -> &[u64] {
        op.lanes().map_or(&[], |l| &self.addrs[l.range()])
    }

    /// Appends `addrs` to the arena and returns their lanes, for building
    /// a memory op by hand.
    ///
    /// # Panics
    /// Panics if the arena would outgrow `u32` indices.
    pub fn push_lanes(&mut self, addrs: impl IntoIterator<Item = u64>) -> Lanes {
        let start = self.addrs.len();
        self.addrs.extend(addrs);
        Lanes {
            start: u32::try_from(start).expect("block address arena exceeds u32 indices"),
            len: u32::try_from(self.addrs.len() - start).expect("op lane count exceeds u32"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_lane_accounting() {
        let mut b = BlockTrace::default();
        assert_eq!(WarpOp::Compute(10).active_lanes(), 0);
        let load = WarpOp::Load(b.push_lanes([0, 64, 128]));
        assert_eq!(load.active_lanes(), 3);
        let a = WarpOp::Atomic {
            op: PimOp::SignedAdd,
            lanes: b.push_lanes([0; 32]),
        };
        assert_eq!(a.active_lanes(), 32);
        assert!(a.is_atomic());
        assert_eq!(b.addrs_of(&load), &[0, 64, 128]);
        assert_eq!(b.addrs_of(&a), &[0; 32]);
        assert_eq!(b.addrs_of(&WarpOp::Compute(1)), &[] as &[u64]);
    }

    #[test]
    fn lanes_index_the_arena_in_push_order() {
        let mut b = BlockTrace::default();
        let first = b.push_lanes([7, 8]);
        let empty = b.push_lanes([]);
        let second = b.push_lanes([9]);
        assert_eq!((first.start, first.len), (0, 2));
        assert!(empty.is_empty());
        assert_eq!(empty.start, 2);
        assert_eq!(second.range(), 2..3);
        assert_eq!(b.addrs, [7, 8, 9]);
    }

    #[test]
    fn atomic_lane_ops_counts_lanes_not_instructions() {
        let mut b = BlockTrace::default();
        let t = WarpTrace {
            ops: vec![
                WarpOp::Atomic {
                    op: PimOp::SignedAdd,
                    lanes: b.push_lanes([0, 8]),
                },
                WarpOp::Compute(5),
                WarpOp::Atomic {
                    op: PimOp::CasGreater,
                    lanes: b.push_lanes([16]),
                },
            ],
        };
        assert_eq!(t.atomic_lane_ops(), 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clone_from_refills_the_target_buffers_in_place() {
        let mut src = BlockTrace::default();
        let lanes = src.push_lanes([1, 2, 3]);
        src.warps.push(WarpTrace {
            ops: vec![WarpOp::Load(lanes), WarpOp::Compute(4)],
        });
        src.warps.push(WarpTrace::default());
        let mut spare = src.fresh_copy();
        spare.warps[0].ops.push(WarpOp::Compute(9));
        spare.addrs.extend([7; 64]);
        let (ops, addrs) = (spare.warps[0].ops.as_ptr(), spare.addrs.as_ptr());
        spare.clone_from(&src);
        assert_eq!(spare, src);
        assert_eq!(spare.warps[0].ops.as_ptr(), ops);
        assert_eq!(spare.addrs.as_ptr(), addrs);
    }

    #[test]
    fn fresh_copies_leave_room_in_every_buffer() {
        let mut b = BlockTrace::default();
        b.warps.push(WarpTrace::default());
        let copy = b.fresh_copy();
        assert_eq!(copy, b);
        assert!(copy.warps[0].ops.capacity() >= 1);
        assert!(copy.addrs.capacity() >= 1);
    }

    #[test]
    fn ops_are_small_copy_headers() {
        assert!(std::mem::size_of::<WarpOp>() <= 12);
    }
}
