//! The kernel abstraction workloads implement.
//!
//! A kernel is an *iterative* GPU computation: a sequence of launches
//! (BFS levels, SSSP rounds, PageRank iterations…), each a grid of thread
//! blocks. The engine asks for one [`BlockTrace`](crate::isa::BlockTrace) per dispatched
//! block; the kernel runs its algorithm functionally while emitting the trace.
//!
//! A PIM-enabled block and its non-PIM shadow (§IV-B "Code Generation for
//! Non-PIM Code") have identical addresses and control flow; only the
//! atomic encoding differs. So a kernel emits one stream for both, and
//! the engine chooses the encoding when it issues each atomic, from the
//! block's PIM grant (`WarpRun::pim_enabled` in [`crate::system`]). No
//! in-tree kernel reads the `pim_enabled` argument of
//! [`InstructionSource::block_trace`], which is what lets a block stream be
//! recorded once and replayed, or generated ahead of the engine on
//! another thread ([`crate::source::PrefetchKernel`]).

use crate::source::InstructionSource;

/// Static per-kernel characteristics used by Eq. 1's PTP initialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Fraction of dynamic warp instructions that are offloadable atomics
    /// (PIM intensity).
    pub pim_intensity: f64,
    /// Estimated ratio of divergent warps (topology-driven graph kernels
    /// are high; warp-centric ones are low).
    pub divergence_ratio: f64,
}

/// An iterative GPU workload. `Kernel` adds nothing to
/// [`InstructionSource`], whose methods and contract it shares: every
/// source is a kernel, and workload code names it by this trait.
pub trait Kernel: InstructionSource {}

impl<S: InstructionSource + ?Sized> Kernel for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BlockTrace, WarpOp, WarpTrace};

    /// A trivial streaming kernel used by engine unit tests.
    pub struct StreamKernel {
        launches_left: usize,
        blocks: usize,
        warps: usize,
    }

    impl StreamKernel {
        pub fn new(launches: usize, blocks: usize, warps: usize) -> Self {
            Self {
                launches_left: launches,
                blocks,
                warps,
            }
        }
    }

    impl InstructionSource for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }
        fn grid_blocks(&self) -> usize {
            self.blocks
        }
        fn warps_per_block(&self) -> usize {
            self.warps
        }
        fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
            let base = (block as u64) << 20;
            let mut t = BlockTrace::default();
            for w in 0..self.warps as u64 {
                let lanes = t.push_lanes((0..32).map(|l| base + w * 2048 + l * 4));
                t.warps.push(WarpTrace {
                    ops: vec![WarpOp::Load(lanes), WarpOp::Compute(8)],
                });
            }
            t
        }
        fn next_launch(&mut self) -> bool {
            self.launches_left = self.launches_left.saturating_sub(1);
            self.launches_left > 0
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                pim_intensity: 0.0,
                divergence_ratio: 0.0,
            }
        }
    }

    #[test]
    fn stream_kernel_emits_expected_shape() {
        let mut k = StreamKernel::new(2, 3, 4);
        assert_eq!(k.grid_blocks(), 3);
        let t = k.block_trace(0, false);
        assert_eq!(t.warp_count(), 4);
        assert_eq!(t.warps[0].ops.len(), 2);
        assert!(k.next_launch());
        assert!(!k.next_launch());
    }
}
