//! Extension workload: connected components (label propagation).
//!
//! Not part of the paper's figure set, but a GraphBIG member and a
//! natural CoolPIM client: per-edge `atomicMin` on component labels
//! (`PimOp::CasSmaller`), topology-driven warp-centric, iterating until
//! no label changes. Its offloading intensity sits between `bfs-twc` and
//! `dc`, making it a useful extra point for throttling studies.
//!
//! Components are computed over the *undirected* closure conceptually;
//! with a forward-only CSR we propagate labels along out-edges and
//! re-run until fixpoint, which converges to weakly-connected components
//! only when label minima can flow both ways — so, like the GraphBIG GPU
//! kernel, this computes the fixpoint of forward min-label propagation
//! (equal to weakly-connected components on graphs whose edges appear in
//! both directions, the common social-network representation).

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::{Kernel, KernelProfile};
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::trace::{blocks_for_warps, TraceBuilder};
use crate::workloads::common::{topology_scan, warp_centric_vertex};
use crate::workloads::WARPS_PER_BLOCK;

/// The connected-components kernel.
pub struct CcKernel {
    g: Csr,
    labels: Vec<u32>,
    /// Vertices whose label changed last round (active set).
    active: Vec<bool>,
    changed: bool,
    rounds: u32,
    tb: TraceBuilder,
}

impl CcKernel {
    /// Creates the kernel with each vertex its own component.
    pub fn new(g: Csr) -> Self {
        let n = g.vertices();
        Self {
            labels: (0..n as u32).collect(),
            active: vec![true; n],
            g,
            changed: false,
            rounds: 0,
            tb: TraceBuilder::new(),
        }
    }

    /// The component label array (valid once the run completes).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Label-propagation rounds executed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Sequential reference: fixpoint of forward min-label propagation.
    pub fn reference(g: &Csr) -> Vec<u32> {
        let n = g.vertices();
        let mut labels: Vec<u32> = (0..n as u32).collect();
        loop {
            let mut changed = false;
            for v in 0..n as u32 {
                let lv = labels[v as usize];
                for &w in g.neighbours(v) {
                    if lv < labels[w as usize] {
                        labels[w as usize] = lv;
                        changed = true;
                    }
                }
            }
            if !changed {
                return labels;
            }
        }
    }
}

impl Kernel for CcKernel {
    fn name(&self) -> &str {
        "cc"
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
        let (labels, active, changed) = (&mut self.labels, &mut self.active, &mut self.changed);
        self.tb.block(WARPS_PER_BLOCK, |b, w| {
            let idx = block * WARPS_PER_BLOCK + w;
            if idx < n {
                let u = idx as u32;
                topology_scan(b, [u]);
                if active[u as usize] {
                    active[u as usize] = false;
                    let lu = labels[u as usize];
                    warp_centric_vertex(b, g, u, false, PimOp::CasSmaller, |t, _| {
                        if lu < labels[t as usize] {
                            labels[t as usize] = lu;
                            active[t as usize] = true;
                            *changed = true;
                        }
                    });
                }
            }
        })
    }

    fn recycle(&mut self, spent: BlockTrace) {
        self.tb.recycle(spent);
    }

    fn next_launch(&mut self) -> bool {
        self.rounds += 1;
        std::mem::take(&mut self.changed)
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile {
            pim_intensity: 0.25,
            divergence_ratio: 0.15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generate::GraphSpec;

    fn run(k: &mut CcKernel) {
        loop {
            for b in 0..k.grid_blocks() {
                let _ = k.block_trace(b, true);
            }
            if !k.next_launch() {
                break;
            }
        }
    }

    #[test]
    fn two_components_on_disjoint_cycles() {
        // Bidirectional cycles {0,1,2} and {3,4}.
        let g = from_edges(
            5,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 2),
                (3, 4),
                (4, 3),
            ],
        );
        let mut k = CcKernel::new(g.clone());
        run(&mut k);
        assert_eq!(k.labels(), &[0, 0, 0, 3, 3]);
        assert_eq!(k.labels(), &CcKernel::reference(&g)[..]);
    }

    #[test]
    fn matches_reference_on_random_graph() {
        let g = GraphSpec::tiny().build();
        let mut k = CcKernel::new(g.clone());
        run(&mut k);
        assert_eq!(k.labels(), &CcKernel::reference(&g)[..]);
    }

    #[test]
    fn isolated_vertices_keep_their_own_labels() {
        let g = from_edges(4, &[(0, 1)]);
        let mut k = CcKernel::new(g);
        run(&mut k);
        assert_eq!(k.labels(), &[0, 0, 2, 3]);
    }

    #[test]
    fn converges_in_bounded_rounds() {
        let g = GraphSpec::tiny().build();
        let mut k = CcKernel::new(g);
        run(&mut k);
        assert!(
            k.rounds() < 64,
            "label propagation took {} rounds",
            k.rounds()
        );
    }
}
