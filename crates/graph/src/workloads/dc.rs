//! Degree centrality: one warp-centric pass counting incoming edges with
//! `atomicAdd` (`PimOp::SignedAdd`).
//!
//! The suite's most atomic-dominated kernel — per edge it does nothing
//! but one coalesced edge load and one scattered atomic increment, which
//! is why `dc` shows both the highest naïve PIM rate and the largest
//! CoolPIM speedup in the paper's figures.

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::{Kernel, KernelProfile};
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::trace::{blocks_for_warps, TraceBuilder};
use crate::workloads::common::warp_centric_vertex;
use crate::workloads::WARPS_PER_BLOCK;

/// The degree-centrality kernel.
pub struct DcKernel {
    g: Csr,
    counts: Vec<u32>,
    done: bool,
    tb: TraceBuilder,
}

impl DcKernel {
    /// The kernel's static profile, whatever the graph.
    pub const PROFILE: KernelProfile = KernelProfile {
        pim_intensity: 0.40,
        divergence_ratio: 0.05,
    };

    /// Creates the kernel over `g`.
    pub fn new(g: Csr) -> Self {
        let n = g.vertices();
        Self {
            g,
            counts: vec![0; n],
            done: false,
            tb: TraceBuilder::new(),
        }
    }

    /// In-degree counts (valid once the run completes).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

impl Kernel for DcKernel {
    fn name(&self) -> &str {
        "dc"
    }

    fn grid_blocks(&self) -> usize {
        blocks_for_warps(self.g.vertices(), WARPS_PER_BLOCK)
    }

    fn warps_per_block(&self) -> usize {
        WARPS_PER_BLOCK
    }

    fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
        let g = &self.g;
        let n = g.vertices();
        let counts = &mut self.counts;
        self.tb.block(WARPS_PER_BLOCK, |b, w| {
            let u_idx = block * WARPS_PER_BLOCK + w;
            if u_idx < n {
                warp_centric_vertex(b, g, u_idx as u32, false, PimOp::SignedAdd, |t, _| {
                    counts[t as usize] += 1;
                });
            }
        })
    }

    fn recycle(&mut self, spent: BlockTrace) {
        self.tb.recycle(spent);
    }

    fn next_launch(&mut self) -> bool {
        self.done = true;
        false
    }

    fn profile(&self) -> KernelProfile {
        Self::PROFILE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphSpec;
    use crate::reference;

    #[test]
    fn single_launch_counts_all_incoming_edges() {
        let g = GraphSpec::tiny().build();
        let mut k = DcKernel::new(g.clone());
        for b in 0..k.grid_blocks() {
            let _ = k.block_trace(b, true);
        }
        assert!(!k.next_launch());
        assert_eq!(k.counts(), &reference::degree_centrality(&g)[..]);
    }

    #[test]
    fn atomic_lane_count_equals_edge_count() {
        let g = GraphSpec::tiny().build();
        let mut k = DcKernel::new(g.clone());
        let mut lanes = 0u64;
        for b in 0..k.grid_blocks() {
            lanes += k
                .block_trace(b, true)
                .warps
                .iter()
                .map(|w| w.atomic_lane_ops())
                .sum::<u64>();
        }
        assert_eq!(lanes, g.edge_count() as u64);
    }

    #[test]
    fn profile_is_the_most_atomic_intense() {
        let g = GraphSpec::tiny().build();
        let k = DcKernel::new(g);
        assert!(k.profile().pim_intensity >= 0.4);
        assert!(k.profile().divergence_ratio < 0.1);
    }
}
