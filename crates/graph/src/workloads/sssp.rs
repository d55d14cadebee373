//! Single-source shortest paths, three GraphBIG flavours.
//!
//! Frontier-based Bellman–Ford: each round relaxes the out-edges of every
//! vertex whose distance improved in the previous round, using an
//! atomic-min on the distance (`PimOp::CasSmaller` ↔ `atomicMin`).
//!
//! * `dwc` — data-driven warp-centric (frontier vertex per warp);
//! * `twc` — topology-driven warp-centric (scan all vertices, process
//!   active ones);
//! * `dtc` — data-driven thread-centric (32 frontier vertices per warp,
//!   serial divergent edge walks — the latency-bound flavour whose PIM
//!   rate stays low in the paper's Fig. 12).

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::InstructionSource;
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::layout;
use crate::reference::UNREACHED;
use crate::trace::{blocks_for_warps, TraceBuilder, WARP};
use crate::workloads::common::{thread_centric_group, topology_scan, warp_centric_vertex};
use crate::workloads::WARPS_PER_BLOCK;

/// Which SSSP flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsspVariant {
    /// Data-driven warp-centric.
    Dwc,
    /// Topology-driven warp-centric.
    Twc,
    /// Data-driven thread-centric.
    Dtc,
}

/// The SSSP kernel.
pub struct SsspKernel {
    g: Csr,
    variant: SsspVariant,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Marks membership in `next_frontier` to avoid duplicates.
    in_next: Vec<bool>,
    /// Topology-driven: set of vertices active this round.
    active: Vec<bool>,
    tb: TraceBuilder,
}

impl SsspKernel {
    /// Creates an SSSP from `source` over a weighted graph.
    pub fn new(g: Csr, variant: SsspVariant, source: u32) -> Self {
        assert!(g.is_weighted(), "SSSP needs edge weights");
        let n = g.vertices();
        let mut dist = vec![UNREACHED; n];
        dist[source as usize] = 0;
        let mut active = vec![false; n];
        active[source as usize] = true;
        Self {
            g,
            variant,
            dist,
            // `in_next` keeps a frontier within the vertex count, so with
            // both buffers sized for it up front and swapped between
            // launches, relaxations never reallocate mid-block.
            frontier: {
                let mut f = Vec::with_capacity(n);
                f.push(source);
                f
            },
            next_frontier: Vec::with_capacity(n),
            in_next: vec![false; n],
            active,
            tb: TraceBuilder::new(),
        }
    }

    /// The computed distance array (valid once the run completes).
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    fn warps_in_grid(&self) -> usize {
        match self.variant {
            SsspVariant::Dwc => self.frontier.len().max(1),
            SsspVariant::Twc => self.g.vertices(),
            SsspVariant::Dtc => self.frontier.len().div_ceil(WARP).max(1),
        }
    }

    fn trace_warp(&mut self, warp_idx: usize, b: &mut TraceBuilder) {
        let g = self.g.clone();
        macro_rules! relax {
            ($du:expr) => {{
                let du = $du;
                let dist = &mut self.dist;
                let next = &mut self.next_frontier;
                let in_next = &mut self.in_next;
                move |w: u32, wt: u32| {
                    let nd = du.saturating_add(wt);
                    if nd < dist[w as usize] {
                        dist[w as usize] = nd;
                        if !in_next[w as usize] {
                            in_next[w as usize] = true;
                            next.push(w);
                        }
                    }
                }
            }};
        }
        match self.variant {
            SsspVariant::Dwc => {
                let Some(&u) = self.frontier.get(warp_idx) else {
                    return;
                };
                b.load([layout::aux_addr(u)]); // work item + own distance
                let du = self.dist[u as usize];
                warp_centric_vertex(b, &g, u, true, PimOp::CasSmaller, relax!(du));
            }
            SsspVariant::Twc => {
                let u = warp_idx as u32;
                topology_scan(b, [u]);
                if self.active[u as usize] {
                    let du = self.dist[u as usize];
                    warp_centric_vertex(b, &g, u, true, PimOp::CasSmaller, relax!(du));
                }
            }
            SsspVariant::Dtc => {
                let lo = warp_idx * WARP;
                let hi = ((warp_idx + 1) * WARP).min(self.frontier.len());
                if lo >= hi {
                    return;
                }
                let items = &self.frontier[lo..hi];
                b.load(items.iter().map(|&v| layout::aux_addr(v)));
                let mut dist_snapshot = [0u32; WARP];
                for (d, &v) in dist_snapshot.iter_mut().zip(items) {
                    *d = self.dist[v as usize];
                }
                let dist = &mut self.dist;
                let next = &mut self.next_frontier;
                let in_next = &mut self.in_next;
                let visit = move |src: u32, w: u32, wt: u32| {
                    let lane = items.iter().position(|&v| v == src).unwrap();
                    let nd = dist_snapshot[lane].saturating_add(wt);
                    if nd < dist[w as usize] {
                        dist[w as usize] = nd;
                        if !in_next[w as usize] {
                            in_next[w as usize] = true;
                            next.push(w);
                        }
                    }
                };
                thread_centric_group(b, &g, items, true, PimOp::CasSmaller, visit);
            }
        }
    }
}

impl InstructionSource for SsspKernel {
    fn name(&self) -> &str {
        match self.variant {
            SsspVariant::Dwc => "sssp-dwc",
            SsspVariant::Twc => "sssp-twc",
            SsspVariant::Dtc => "sssp-dtc",
        }
    }

    fn grid_blocks(&self) -> usize {
        blocks_for_warps(self.warps_in_grid(), WARPS_PER_BLOCK)
    }

    fn warps_per_block(&self) -> usize {
        WARPS_PER_BLOCK
    }

    fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
        let total = self.warps_in_grid();
        let mut tb = std::mem::take(&mut self.tb);
        let trace = tb.block(WARPS_PER_BLOCK, |b, w| {
            let idx = block * WARPS_PER_BLOCK + w;
            if idx < total {
                self.trace_warp(idx, b);
            }
        });
        self.tb = tb;
        trace
    }

    fn recycle(&mut self, spent: BlockTrace) {
        self.tb.recycle(spent);
    }

    fn next_launch(&mut self) -> bool {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        self.next_frontier.clear();
        for &v in &self.frontier {
            self.in_next[v as usize] = false;
        }
        for a in self.active.iter_mut() {
            *a = false;
        }
        for &v in &self.frontier {
            self.active[v as usize] = true;
        }
        !self.frontier.is_empty()
    }

    fn profile(&self) -> KernelProfile {
        match self.variant {
            SsspVariant::Dwc => KernelProfile {
                pim_intensity: 0.25,
                divergence_ratio: 0.10,
            },
            SsspVariant::Twc => KernelProfile {
                pim_intensity: 0.20,
                divergence_ratio: 0.15,
            },
            SsspVariant::Dtc => KernelProfile {
                pim_intensity: 0.20,
                divergence_ratio: 0.60,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;
    use crate::generate::GraphSpec;
    use crate::reference;

    fn run(k: &mut SsspKernel) {
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
    fn all_variants_match_dijkstra_functionally() {
        let g = GraphSpec::tiny().build();
        let expect = reference::sssp_distances(&g, 3);
        for v in [SsspVariant::Dwc, SsspVariant::Twc, SsspVariant::Dtc] {
            let mut k = SsspKernel::new(g.clone(), v, 3);
            run(&mut k);
            assert_eq!(k.distances(), &expect[..], "{v:?}");
        }
    }

    #[test]
    fn negative_free_relaxation_takes_cheapest_path() {
        let g = from_weighted_edges(4, &[(0, 1, 50), (0, 2, 1), (2, 1, 1), (1, 3, 1)]);
        let mut k = SsspKernel::new(g, SsspVariant::Dwc, 0);
        run(&mut k);
        assert_eq!(k.distances(), &[0, 2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn unweighted_graph_rejected() {
        let g = crate::builder::from_edges(3, &[(0, 1)]);
        let _ = SsspKernel::new(g, SsspVariant::Dwc, 0);
    }

    #[test]
    fn frontier_deduplication_holds() {
        // A vertex reachable over many parallel paths must appear in the
        // next frontier exactly once — grid sizes stay bounded.
        let edges: Vec<(u32, u32, u32)> = (1..=30)
            .map(|i| (0, i, 1))
            .chain((1..=30).map(|i| (i, 31, i)))
            .collect();
        let g = from_weighted_edges(32, &edges);
        let mut k = SsspKernel::new(g, SsspVariant::Dwc, 0);
        for b in 0..k.grid_blocks() {
            let _ = k.block_trace(b, true);
        }
        assert!(k.next_launch());
        // Frontier: the 30 mid vertices + vertex 31 (already improved).
        assert!(k.warps_in_grid() <= 31);
    }
}
