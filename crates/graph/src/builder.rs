//! Edge-list → CSR construction.
//!
//! A counting sort by source: one pass counts out-degrees, a second
//! scatters each edge's target (and weight) into its source's slot in
//! input order, and then each adjacency list is sorted by target and
//! de-duplicated in place. A list's sort key is `(target, position in the
//! list)`, so the order among duplicates is input order and the first
//! edge of a duplicate group is the one that survives, with its weight.

use crate::csr::Csr;

/// Builds a CSR from a directed edge list, sorting and de-duplicating
/// parallel edges and self-loops.
pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    build(n, edges, |&(s, d)| (s, d, 0), false)
}

/// Builds a weighted CSR; weights follow the de-duplicated edge order
/// (the weight of a duplicate group's first edge in input order wins).
pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u32)]) -> Csr {
    build(n, edges, |&e| e, true)
}

/// Builds a CSR from `(src, dst, weight)` triples, keeping the weights
/// only when `weighted` (the generators and the edge-list reader hold
/// triples either way).
pub(crate) fn from_triples(n: usize, edges: &[(u32, u32, u32)], weighted: bool) -> Csr {
    build(n, edges, |&e| e, weighted)
}

fn build<E>(n: usize, edges: &[E], edge: impl Fn(&E) -> (u32, u32, u32), weighted: bool) -> Csr {
    assert!(n < u32::MAX as usize, "vertex count too large for u32 ids");
    assert!(
        edges.len() < u32::MAX as usize,
        "edge count too large for u32 offsets"
    );
    // Count out-degrees (self-loops are dropped up front).
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        let (s, d, _) = edge(e);
        assert!(
            (s as usize) < n && (d as usize) < n,
            "edge ({s},{d}) out of range"
        );
        if s != d {
            offsets[s as usize + 1] += 1;
        }
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    // Scatter targets and weights into their source's slot, input order.
    let total = offsets[n] as usize;
    let mut adj = vec![0u32; total];
    let mut wts = if weighted {
        vec![0u32; total]
    } else {
        Vec::new()
    };
    let mut cursor = offsets[..n].to_vec();
    for e in edges {
        let (s, d, w) = edge(e);
        if s != d {
            let at = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            adj[at] = d;
            if weighted {
                wts[at] = w;
            }
        }
    }
    // Sort each list by (target, position), drop duplicates, and compact
    // the survivors leftwards in place; `offsets` becomes the final CSR.
    // The list's keys and weights are copied out first, because the
    // compacted writes may land on slots not yet read.
    let mut keys: Vec<u64> = Vec::new();
    let mut list_wts: Vec<u32> = Vec::new();
    let mut out = 0usize;
    let mut lo = 0usize;
    for v in 0..n {
        let hi = offsets[v + 1] as usize;
        keys.clear();
        keys.extend(
            adj[lo..hi]
                .iter()
                .enumerate()
                .map(|(i, &d)| u64::from(d) << 32 | i as u64),
        );
        keys.sort_unstable();
        if weighted {
            list_wts.clear();
            list_wts.extend_from_slice(&wts[lo..hi]);
        }
        let mut last = None;
        for &k in &keys {
            let d = (k >> 32) as u32;
            if last == Some(d) {
                continue;
            }
            last = Some(d);
            adj[out] = d;
            if weighted {
                wts[out] = list_wts[(k as u32) as usize];
            }
            out += 1;
        }
        offsets[v + 1] = out as u32;
        lo = hi;
    }
    adj.truncate(out);
    wts.truncate(out);
    Csr::from_raw(offsets, adj, weighted.then_some(wts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduplicated_csr() {
        let g = from_edges(4, &[(2, 1), (0, 3), (0, 1), (0, 1), (1, 1), (0, 3)]);
        assert_eq!(g.neighbours(0), &[1, 3]);
        assert_eq!(g.neighbours(1), &[] as &[u32]); // self-loop dropped
        assert_eq!(g.neighbours(2), &[1]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn weights_follow_their_edges() {
        let g = from_weighted_edges(3, &[(1, 0, 9), (0, 2, 5), (0, 1, 3)]);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[3, 5]);
        assert_eq!(g.weights_of(1), &[9]);
    }

    #[test]
    fn first_duplicate_in_input_order_keeps_its_weight() {
        // Many permuted copies of one edge among distractors: whatever
        // order they arrive in, the first one's weight survives.
        let mut edges: Vec<(u32, u32, u32)> = (0..64).map(|w| (0, 1, 100 + w)).collect();
        edges.extend((2..40).map(|d| (0, d, d)));
        let mut rng = crate::rng::SplitMix64::seed_from_u64(3);
        for round in 0..20 {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range_inclusive_usize(0, i));
            }
            let first = edges.iter().find(|e| e.1 == 1).unwrap().2;
            let g = from_weighted_edges(40, &edges);
            assert_eq!(g.neighbours(0)[0], 1);
            assert_eq!(g.weights_of(0)[0], first, "round {round}");
            assert_eq!(g.degree(0), 39);
        }
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(5, &[]);
        assert_eq!(g.vertices(), 5);
        assert_eq!(g.edge_count(), 0);
    }
}
