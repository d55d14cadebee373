//! Breadth-first search, four GraphBIG flavours.
//!
//! All variants relax neighbour levels with an atomic-min
//! (`PimOp::CasSmaller` ↔ `atomicMin`, Table III); they differ in how
//! work maps to threads:
//!
//! * `dwc` — data-driven warp-centric: one warp streams one frontier
//!   vertex's adjacency (coalesced, low divergence);
//! * `twc` — topology-driven warp-centric: every vertex is scanned every
//!   level, active ones stream their adjacency;
//! * `ta`  — topology-driven thread-mapped **atomic**: one thread per
//!   vertex walking edges serially, atomic per edge (high divergence);
//! * `ttc` — topology-driven thread-centric with a visited check: like
//!   `ta` but loads the neighbour's status first and only issues the
//!   atomic for unvisited neighbours (more load traffic, fewer atomics).
//!
//! The status array read by scans is the auxiliary (cacheable) mirror;
//! atomics target the PIM property region (see [`crate::layout`]).

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::{Kernel, KernelProfile};
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::layout;
use crate::reference::UNREACHED;
use crate::trace::{blocks_for_warps, TraceBuilder, WARP};
use crate::workloads::common::{thread_centric_group, topology_scan, warp_centric_vertex};
use crate::workloads::WARPS_PER_BLOCK;

/// Which BFS flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsVariant {
    /// Topology-driven, thread-mapped atomic.
    Ta,
    /// Data-driven warp-centric.
    Dwc,
    /// Topology-driven warp-centric.
    Twc,
    /// Topology-driven thread-centric with visited check.
    Ttc,
}

impl BfsVariant {
    fn is_topology(self) -> bool {
        matches!(self, BfsVariant::Ta | BfsVariant::Twc | BfsVariant::Ttc)
    }
}

/// The BFS kernel.
pub struct BfsKernel {
    g: Csr,
    variant: BfsVariant,
    levels: Vec<u32>,
    cur_level: u32,
    /// Data-driven: the current frontier. Topology-driven: unused for
    /// work mapping (the whole vertex set is scanned).
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Topology-driven: updates seen in the current round.
    updated_this_round: bool,
    tb: TraceBuilder,
}

impl BfsKernel {
    /// Creates a BFS from `source`.
    pub fn new(g: Csr, variant: BfsVariant, source: u32) -> Self {
        let mut levels = vec![UNREACHED; g.vertices()];
        levels[source as usize] = 0;
        Self {
            g,
            variant,
            levels,
            cur_level: 0,
            frontier: vec![source],
            next_frontier: Vec::new(),
            updated_this_round: false,
            tb: TraceBuilder::new(),
        }
    }

    /// The computed level array (valid once the run completes).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    fn warps_in_grid(&self) -> usize {
        match self.variant {
            BfsVariant::Dwc => self.frontier.len().max(1),
            BfsVariant::Twc => self.g.vertices(),
            BfsVariant::Ta | BfsVariant::Ttc => self.g.vertices().div_ceil(WARP),
        }
    }

    fn trace_warp(&mut self, warp_idx: usize, b: &mut TraceBuilder) {
        let g = self.g.clone();
        let cur = self.cur_level;
        let next_level = cur + 1;
        // The functional relaxation, borrowed fresh in each arm so the
        // arms can also read `self.levels` for their activity checks.
        macro_rules! visit {
            () => {{
                let levels = &mut self.levels;
                let next_frontier = &mut self.next_frontier;
                let updated = &mut self.updated_this_round;
                move |w: u32, _wt: u32| {
                    if levels[w as usize] > next_level {
                        levels[w as usize] = next_level;
                        next_frontier.push(w);
                        *updated = true;
                    }
                }
            }};
        }
        match self.variant {
            BfsVariant::Dwc => {
                let Some(&u) = self.frontier.get(warp_idx) else {
                    return;
                };
                b.load([layout::aux_addr(u)]); // fetch the work item
                warp_centric_vertex(b, &g, u, false, PimOp::CasSmaller, visit!());
            }
            BfsVariant::Twc => {
                let u = warp_idx as u32;
                topology_scan(b, [u]);
                if self.levels[u as usize] == cur {
                    warp_centric_vertex(b, &g, u, false, PimOp::CasSmaller, visit!());
                }
            }
            BfsVariant::Ta | BfsVariant::Ttc => {
                let group = vertex_group(&g, warp_idx);
                topology_scan(b, group.clone());
                // The group's vertices on the current level, one per lane.
                let mut lanes = [0u32; WARP];
                let mut len = 0;
                for v in group.filter(|&v| self.levels[v as usize] == cur) {
                    lanes[len] = v;
                    len += 1;
                }
                let active = &lanes[..len];
                if self.variant == BfsVariant::Ttc {
                    self.trace_ttc_edges(b, active);
                } else {
                    let mut visit = visit!();
                    thread_centric_group(b, &g, active, false, PimOp::CasSmaller, |_, w, wt| {
                        visit(w, wt)
                    });
                }
            }
        }
    }

    /// Thread-centric edge walk with a visited pre-check: load the
    /// neighbour's status, atomic only when unvisited.
    fn trace_ttc_edges(&mut self, b: &mut TraceBuilder, items: &[u32]) {
        if items.is_empty() {
            return;
        }
        let g = &self.g;
        let next_level = self.cur_level + 1;
        b.load(items.iter().map(|&v| layout::offset_addr(v)));
        b.load(items.iter().map(|&v| layout::offset_addr(v + 1)));
        b.compute(10);
        let max_deg = items.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
        for e in 0..max_deg {
            // The lanes whose vertex still has an `e`-th edge, in lane
            // order, and that edge's target.
            let active = || items.iter().copied().filter(move |&v| g.degree(v) > e);
            let target = |v: u32| g.neighbours(v)[e as usize];
            b.load(active().map(|v| layout::edge_addr(g.edge_start(v) as u64 + u64::from(e))));
            b.load(active().map(|v| layout::aux_addr(target(v))));
            b.compute(3);
            // Atomics only for unvisited targets, settled lane by lane.
            b.atomic(
                PimOp::CasSmaller,
                active()
                    .map(target)
                    .filter(|&w| {
                        let unvisited = self.levels[w as usize] > next_level;
                        if unvisited {
                            self.levels[w as usize] = next_level;
                            self.next_frontier.push(w);
                            self.updated_this_round = true;
                        }
                        unvisited
                    })
                    .map(layout::prop_addr),
            );
        }
    }
}

/// The 32 consecutive vertex ids a thread-centric warp covers.
fn vertex_group(g: &Csr, warp_idx: usize) -> std::ops::Range<u32> {
    let lo = warp_idx * WARP;
    let hi = ((warp_idx + 1) * WARP).min(g.vertices());
    lo as u32..hi as u32
}

impl Kernel for BfsKernel {
    fn name(&self) -> &str {
        match self.variant {
            BfsVariant::Ta => "bfs-ta",
            BfsVariant::Dwc => "bfs-dwc",
            BfsVariant::Twc => "bfs-twc",
            BfsVariant::Ttc => "bfs-ttc",
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
        self.cur_level += 1;
        self.frontier = std::mem::take(&mut self.next_frontier);
        if self.variant.is_topology() {
            std::mem::take(&mut self.updated_this_round)
        } else {
            !self.frontier.is_empty()
        }
    }

    fn profile(&self) -> KernelProfile {
        match self.variant {
            BfsVariant::Dwc => KernelProfile {
                pim_intensity: 0.28,
                divergence_ratio: 0.10,
            },
            BfsVariant::Twc => KernelProfile {
                pim_intensity: 0.22,
                divergence_ratio: 0.15,
            },
            BfsVariant::Ta => KernelProfile {
                pim_intensity: 0.30,
                divergence_ratio: 0.60,
            },
            BfsVariant::Ttc => KernelProfile {
                pim_intensity: 0.15,
                divergence_ratio: 0.60,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generate::GraphSpec;
    use coolpim_gpu::isa::WarpOp;

    fn chain() -> Csr {
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn dwc_grid_tracks_frontier_size() {
        let g = GraphSpec::tiny().build();
        let k = BfsKernel::new(g, BfsVariant::Dwc, 0);
        // First launch: frontier = {source} → 1 warp → 1 block.
        assert_eq!(k.grid_blocks(), 1);
    }

    #[test]
    fn topology_grids_cover_all_vertices() {
        let g = GraphSpec::tiny().build();
        let n = g.vertices();
        let twc = BfsKernel::new(g.clone(), BfsVariant::Twc, 0);
        assert_eq!(twc.warps_in_grid(), n);
        let ta = BfsKernel::new(g, BfsVariant::Ta, 0);
        assert_eq!(ta.warps_in_grid(), n.div_ceil(WARP));
    }

    #[test]
    fn functional_levels_on_chain_all_variants() {
        for variant in [
            BfsVariant::Ta,
            BfsVariant::Dwc,
            BfsVariant::Twc,
            BfsVariant::Ttc,
        ] {
            let mut k = BfsKernel::new(chain(), variant, 0);
            loop {
                for b in 0..k.grid_blocks() {
                    let _ = k.block_trace(b, true);
                }
                if !k.next_launch() {
                    break;
                }
            }
            assert_eq!(k.levels(), &[0, 1, 2, 3, 4], "{variant:?}");
        }
    }

    #[test]
    fn dwc_traces_emit_atomics_per_edge() {
        let mut k = BfsKernel::new(chain(), BfsVariant::Dwc, 0);
        let t = k.block_trace(0, true);
        let atomic_lanes: u64 = t.warps.iter().map(|w| w.atomic_lane_ops()).sum();
        assert_eq!(atomic_lanes, 1, "source vertex 0 has one out-edge");
    }

    #[test]
    fn ttc_emits_fewer_atomics_than_ta() {
        // The visited pre-check of ttc skips atomics for already-settled
        // neighbours; ta emits one per touched edge regardless.
        let g = GraphSpec::tiny().build();
        let count_atomics = |variant| {
            let mut k = BfsKernel::new(g.clone(), variant, 0);
            let mut lanes = 0u64;
            loop {
                for b in 0..k.grid_blocks() {
                    let t = k.block_trace(b, true);
                    lanes += t.warps.iter().map(|w| w.atomic_lane_ops()).sum::<u64>();
                }
                if !k.next_launch() {
                    break;
                }
            }
            lanes
        };
        let ta = count_atomics(BfsVariant::Ta);
        let ttc = count_atomics(BfsVariant::Ttc);
        assert!(
            ttc < ta,
            "ttc {ttc} should emit fewer atomic lanes than ta {ta}"
        );
    }

    #[test]
    fn finished_bfs_stops_launching() {
        let mut k = BfsKernel::new(chain(), BfsVariant::Dwc, 4); // sink vertex
        for b in 0..k.grid_blocks() {
            let _ = k.block_trace(b, true);
        }
        assert!(!k.next_launch(), "no neighbours → single launch");
    }

    #[test]
    fn names_match_paper_labels() {
        let g = chain();
        assert_eq!(
            BfsKernel::new(g.clone(), BfsVariant::Ta, 0).name(),
            "bfs-ta"
        );
        assert_eq!(
            BfsKernel::new(g.clone(), BfsVariant::Dwc, 0).name(),
            "bfs-dwc"
        );
        assert_eq!(
            BfsKernel::new(g.clone(), BfsVariant::Twc, 0).name(),
            "bfs-twc"
        );
        assert_eq!(BfsKernel::new(g, BfsVariant::Ttc, 0).name(), "bfs-ttc");
    }

    #[test]
    fn scan_loads_use_aux_and_atomics_use_prop_region() {
        let g = GraphSpec::tiny().build();
        let mut k = BfsKernel::new(g, BfsVariant::Twc, 0);
        let mut saw_aux = false;
        let mut saw_prop_atomic = false;
        for b in 0..k.grid_blocks() {
            let t = k.block_trace(b, true);
            for op in t.warps.iter().flat_map(|w| &w.ops) {
                let addrs = t.addrs_of(op);
                match op {
                    WarpOp::Load(_) => {
                        saw_aux |= addrs
                            .iter()
                            .any(|&a| (layout::AUX_BASE..layout::WEIGHTS_BASE).contains(&a));
                    }
                    WarpOp::Atomic { .. } => {
                        assert!(addrs
                            .iter()
                            .all(|&a| (layout::PROP_BASE..layout::AUX_BASE).contains(&a)));
                        saw_prop_atomic |= !addrs.is_empty();
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_aux && saw_prop_atomic);
    }
}
