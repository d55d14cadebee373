//! PageRank: synchronous iterations with atomic float accumulation.
//!
//! Every iteration, each vertex's share `d·rank[u]/deg(u)` is scattered
//! into its out-neighbours' next-rank slots with the GraphPIM
//! floating-point atomic-add extension (`PimOp::FloatAdd` ↔ `atomicAdd`)
//! — fire-and-forget, which makes PageRank one of the highest PIM-rate
//! workloads of the suite.

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::{Kernel, KernelProfile};
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::layout;
use crate::trace::{blocks_for_warps, TraceBuilder};
use crate::workloads::common::warp_centric_vertex;
use crate::workloads::WARPS_PER_BLOCK;

/// Damping factor.
pub const DAMPING: f64 = 0.85;

/// The PageRank kernel.
pub struct PageRankKernel {
    g: Csr,
    rank: Vec<f64>,
    next: Vec<f64>,
    iterations_left: usize,
    tb: TraceBuilder,
}

impl PageRankKernel {
    /// `iterations` synchronous iterations over `g`.
    pub fn new(g: Csr, iterations: usize) -> Self {
        assert!(iterations > 0);
        let n = g.vertices();
        let base = (1.0 - DAMPING) / n as f64;
        Self {
            g,
            rank: vec![1.0 / n as f64; n],
            next: vec![base; n],
            iterations_left: iterations,
            tb: TraceBuilder::new(),
        }
    }

    /// The rank vector (valid once the run completes).
    pub fn ranks(&self) -> &[f64] {
        &self.rank
    }
}

impl Kernel for PageRankKernel {
    fn name(&self) -> &str {
        "pagerank"
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
        let (rank, next) = (&self.rank, &mut self.next);
        self.tb.block(WARPS_PER_BLOCK, |b, w| {
            let u_idx = block * WARPS_PER_BLOCK + w;
            if u_idx < n {
                let u = u_idx as u32;
                let deg = g.degree(u);
                // Load own rank + degree.
                b.load([layout::aux_addr(u)]);
                b.compute(12); // division + share computation
                if deg > 0 {
                    let share = DAMPING * rank[u_idx] / f64::from(deg);
                    warp_centric_vertex(b, g, u, false, PimOp::FloatAdd, |t, _| {
                        next[t as usize] += share;
                    });
                }
            }
        })
    }

    fn recycle(&mut self, spent: BlockTrace) {
        self.tb.recycle(spent);
    }

    fn next_launch(&mut self) -> bool {
        self.iterations_left -= 1;
        let n = self.g.vertices();
        let base = (1.0 - DAMPING) / n as f64;
        std::mem::swap(&mut self.rank, &mut self.next);
        for x in self.next.iter_mut() {
            *x = base;
        }
        self.iterations_left > 0
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile {
            pim_intensity: 0.32,
            divergence_ratio: 0.10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphSpec;
    use crate::reference;

    #[test]
    fn three_iterations_match_reference() {
        let g = GraphSpec::tiny().build();
        let mut k = PageRankKernel::new(g.clone(), 3);
        loop {
            for b in 0..k.grid_blocks() {
                let _ = k.block_trace(b, true);
            }
            if !k.next_launch() {
                break;
            }
        }
        let expect = reference::pagerank(&g, 3, DAMPING);
        let max_err = k
            .ranks()
            .iter()
            .zip(&expect)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-12, "deviation {max_err}");
    }

    #[test]
    fn launch_count_equals_iterations() {
        let g = GraphSpec::tiny().build();
        let mut k = PageRankKernel::new(g, 5);
        let mut launches = 1;
        loop {
            for b in 0..k.grid_blocks() {
                let _ = k.block_trace(b, true);
            }
            if !k.next_launch() {
                break;
            }
            launches += 1;
        }
        assert_eq!(launches, 5);
    }

    #[test]
    fn atomics_are_fire_and_forget_float_adds() {
        use coolpim_gpu::isa::WarpOp;
        let g = GraphSpec::tiny().build();
        let mut k = PageRankKernel::new(g, 1);
        let t = k.block_trace(0, true);
        let mut seen = false;
        for w in &t.warps {
            for op in &w.ops {
                if let WarpOp::Atomic { op, .. } = op {
                    assert_eq!(*op, PimOp::FloatAdd);
                    assert!(!op.returns_data());
                    seen = true;
                }
            }
        }
        assert!(seen);
    }

    #[test]
    #[should_panic(expected = "iterations > 0")]
    fn zero_iterations_rejected() {
        let g = GraphSpec::tiny().build();
        let _ = PageRankKernel::new(g, 0);
    }
}
