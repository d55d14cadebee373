//! Trace-emission helpers shared by the graph kernels.

use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::layout;
use crate::trace::{TraceBuilder, WARP};

/// Emits the warp-centric processing of one vertex `u`: the 32 lanes
/// cooperatively stream `u`'s adjacency in chunks of 32 edges — coalesced
/// edge (and weight) loads followed by one scattered atomic per chunk —
/// calling `visit(neighbour, weight)` per edge for the functional update.
pub fn warp_centric_vertex(
    b: &mut TraceBuilder,
    g: &Csr,
    u: u32,
    weighted: bool,
    op: PimOp,
    mut visit: impl FnMut(u32, u32),
) {
    let start = g.edge_start(u) as u64;
    let neighbours = g.neighbours(u);
    let weights = weighted.then(|| g.weights_of(u));
    b.load([layout::offset_addr(u), layout::offset_addr(u + 1)]);
    b.compute(8);
    for (ci, chunk) in neighbours.chunks(WARP).enumerate() {
        let base = start + (ci * WARP) as u64;
        let lanes = base..base + chunk.len() as u64;
        b.load(lanes.clone().map(layout::edge_addr));
        if weighted {
            b.load(lanes.map(layout::weight_addr));
        }
        b.compute(4);
        b.atomic(op, chunk.iter().map(|&w| layout::prop_addr(w)));
        for (i, &w) in chunk.iter().enumerate() {
            let wt = weights.map_or(0, |ws| ws[ci * WARP + i]);
            visit(w, wt);
        }
    }
}

/// Emits the thread-centric processing of up to 32 work vertices mapped
/// one-per-lane: every lane walks its own adjacency serially, so the warp
/// executes `max_degree` edge steps with a shrinking active mask —
/// scattered edge loads, scattered atomics, heavy divergence.
/// `visit(src, neighbour, weight)` runs per edge.
pub fn thread_centric_group(
    b: &mut TraceBuilder,
    g: &Csr,
    items: &[u32],
    weighted: bool,
    op: PimOp,
    mut visit: impl FnMut(u32, u32, u32),
) {
    assert!(items.len() <= WARP);
    if items.is_empty() {
        return;
    }
    // Each lane loads its vertex's offset pair (coalesced only if the
    // items happen to be contiguous — the coalescer decides).
    b.load(items.iter().map(|&v| layout::offset_addr(v)));
    b.load(items.iter().map(|&v| layout::offset_addr(v + 1)));
    b.compute(10);
    let max_deg = items.iter().map(|&v| g.degree(v)).max().unwrap_or(0);
    for e in 0..max_deg {
        // The lanes whose vertex still has an `e`-th edge, in lane order.
        let active = || items.iter().copied().filter(move |&v| g.degree(v) > e);
        let edge = |v: u32| g.edge_start(v) as u64 + u64::from(e);
        // Weight sits adjacent in its own array; one extra lane address
        // in the same load instruction keeps the trace compact.
        b.load(active().flat_map(|v| {
            let ei = edge(v);
            let wa = weighted.then(|| layout::weight_addr(ei));
            std::iter::once(layout::edge_addr(ei)).chain(wa)
        }));
        b.compute(2);
        // The atomic's lanes drive the functional update, lane by lane.
        b.atomic(
            op,
            active().map(|v| {
                let w = g.neighbours(v)[e as usize];
                let wt = if weighted {
                    g.weights_of(v)[e as usize]
                } else {
                    0
                };
                visit(v, w, wt);
                layout::prop_addr(w)
            }),
        );
    }
}

/// Emits the topology scan of up to 32 consecutive vertices: a coalesced
/// load of each vertex's status word. Returns nothing — filtering happens
/// functionally in the caller.
pub fn topology_scan(b: &mut TraceBuilder, group: impl IntoIterator<Item = u32>) {
    b.load(group.into_iter().map(layout::aux_addr));
    b.compute(4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;
    use coolpim_gpu::isa::WarpOp;

    fn star() -> Csr {
        // 0 → 1..=40 (spans two 32-edge chunks).
        let edges: Vec<(u32, u32, u32)> = (1..=40).map(|d| (0, d, d)).collect();
        from_weighted_edges(41, &edges)
    }

    #[test]
    fn warp_centric_chunks_edges_by_32() {
        let g = star();
        let mut b = TraceBuilder::new();
        let mut visited = Vec::new();
        warp_centric_vertex(&mut b, &g, 0, true, PimOp::CasSmaller, |w, wt| {
            visited.push((w, wt));
        });
        b.end_warp();
        let t = b.finish_block();
        assert_eq!(visited.len(), 40);
        assert_eq!(visited[0], (1, 1));
        let atomics: Vec<usize> = t.warps[0]
            .ops
            .iter()
            .filter(|op| op.is_atomic())
            .map(WarpOp::active_lanes)
            .collect();
        assert_eq!(atomics, vec![32, 8]);
    }

    #[test]
    fn thread_centric_divergence_shrinks_active_mask() {
        // Degrees 3, 1, 0.
        let g = from_weighted_edges(5, &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1)]);
        let mut b = TraceBuilder::new();
        let mut count = 0;
        thread_centric_group(
            &mut b,
            &g,
            &[0, 1, 2],
            true,
            PimOp::CasSmaller,
            |_, _, _| {
                count += 1;
            },
        );
        b.end_warp();
        let t = b.finish_block();
        assert_eq!(count, 4);
        let atomics: Vec<usize> = t.warps[0]
            .ops
            .iter()
            .filter(|op| op.is_atomic())
            .map(WarpOp::active_lanes)
            .collect();
        // Step 0: lanes {0,1} active; steps 1,2: lane 0 only.
        assert_eq!(atomics, vec![2, 1, 1]);
    }

    #[test]
    fn empty_group_emits_nothing() {
        let g = star();
        let mut b = TraceBuilder::new();
        thread_centric_group(&mut b, &g, &[], true, PimOp::SignedAdd, |_, _, _| {});
        b.end_warp();
        assert!(b.finish_block().warps[0].is_empty());
    }
}
