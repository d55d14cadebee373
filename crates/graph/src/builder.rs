//! Edge-list → CSR construction.
//!
//! A counting sort by source, split over contiguous source-vertex
//! ranges: each worker reads every edge but keeps only the sources in
//! its range, counts their out-degrees, scatters each edge's target (and
//! weight) into its source's slot in input order, and then sorts each
//! adjacency list by target and de-duplicates it in place — all inside
//! its own slices of the offset and target arrays. A list's sort key is
//! `(target, position in the list)`, so the order among duplicates is
//! input order and the first edge of a duplicate group is the one that
//! survives, with its weight. A list never crosses a range, so the
//! result does not depend on the worker count.

use std::ops::Range;

use crate::csr::Csr;

/// Below this many edges per worker, splitting the work over more
/// threads costs more than it saves.
const MIN_EDGES_PER_WORKER: usize = 1 << 16;

/// The threads to split `edges` edges over: one per core, but at least
/// [`MIN_EDGES_PER_WORKER`] edges each.
pub(crate) fn workers_for(edges: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(edges / MIN_EDGES_PER_WORKER).max(1)
}

/// Builds a CSR from a directed edge list, sorting and de-duplicating
/// parallel edges and self-loops.
pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    build(
        n,
        edges,
        |&(s, d)| (s, d, 0),
        false,
        workers_for(edges.len()),
    )
}

/// Builds a weighted CSR; weights follow the de-duplicated edge order
/// (the weight of a duplicate group's first edge in input order wins).
pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u32)]) -> Csr {
    from_triples(n, edges, true, workers_for(edges.len()))
}

/// Builds a CSR from `(src, dst, weight)` triples on `workers` threads,
/// keeping the weights only when `weighted` (the generators and the
/// edge-list reader hold triples either way).
pub(crate) fn from_triples(
    n: usize,
    edges: &[(u32, u32, u32)],
    weighted: bool,
    workers: usize,
) -> Csr {
    build(n, edges, |&e| e, weighted, workers)
}

/// The build on `workers` threads (at most one per vertex), reading each
/// input edge through `edge`.
fn build<E: Sync>(
    n: usize,
    edges: &[E],
    edge: impl Fn(&E) -> (u32, u32, u32) + Sync,
    weighted: bool,
    workers: usize,
) -> Csr {
    assert!(n < u32::MAX as usize, "vertex count too large for u32 ids");
    assert!(
        edges.len() < u32::MAX as usize,
        "edge count too large for u32 offsets"
    );
    let workers = workers.clamp(1, n.max(1));
    let ranges: Vec<Range<usize>> = (0..workers)
        .map(|k| n * k / workers..n * (k + 1) / workers)
        .collect();
    let part = Part {
        edges,
        edge: &edge,
        n,
        weighted,
    };
    // offsets[v + 1] ends vertex v's list: range `lo..hi` owns
    // offsets[lo + 1..=hi], holding ends relative to the range's start.
    let mut offsets = vec![0u32; n + 1];
    let counts = on_ranges(&ranges, split(&mut offsets[1..], &ranges), |r, ends| {
        part.count(r, ends)
    });
    // Each range's span of `adj`/`wts`, in range order.
    let mut total = 0;
    let spans: Vec<Range<usize>> = counts
        .iter()
        .map(|&(edges, _)| {
            total += edges;
            total - edges..total
        })
        .collect();
    let mut adj = vec![0u32; total];
    let mut wts = if weighted {
        vec![0u32; total]
    } else {
        Vec::new()
    };
    let wt_spans = if weighted {
        spans.clone()
    } else {
        vec![0..0; workers] // an empty share each
    };
    // Each worker's sort buffer, sized to its longest list, is made here:
    // a buffer grown on a worker thread would open that thread's own
    // allocator arena, which keeps its pages after the build.
    let slices = split(&mut offsets[1..], &ranges)
        .into_iter()
        .zip(split(&mut adj, &spans))
        .zip(split(&mut wts, &wt_spans))
        .zip(&counts)
        .map(|(((ends, adj), wts), &(_, longest))| (ends, adj, wts, Vec::with_capacity(longest)))
        .collect();
    let kept = on_ranges(&ranges, slices, |r, (ends, adj, wts, keys)| {
        part.fill(r, ends, adj, wts, keys)
    });
    // Close the gaps de-duplication left: each range's survivors move
    // down to follow the previous range's, and its ends become global.
    let mut out = 0usize;
    for ((r, span), kept) in ranges.iter().zip(&spans).zip(kept) {
        let from = span.start..span.start + kept;
        adj.copy_within(from.clone(), out);
        if weighted {
            wts.copy_within(from, out);
        }
        for end in &mut offsets[r.start + 1..=r.end] {
            *end += out as u32;
        }
        out += kept;
    }
    adj.truncate(out);
    wts.truncate(out);
    Csr::from_raw(offsets, adj, weighted.then_some(wts))
}

/// Cuts `slice` into the disjoint, ascending `ranges` (which together
/// cover it).
fn split<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut at = 0;
    ranges
        .iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut slice).split_at_mut(r.end - at);
            slice = tail;
            at = r.end;
            head
        })
        .collect()
}

/// Runs `job` on each range with its share, the first on the calling
/// thread and the rest on scoped threads; results come back in range
/// order.
fn on_ranges<S: Send, R: Send>(
    ranges: &[Range<usize>],
    shares: Vec<S>,
    job: impl Fn(&Range<usize>, S) -> R + Sync,
) -> Vec<R> {
    let job = &job;
    std::thread::scope(|scope| {
        let mut work = ranges.iter().zip(shares);
        let (first, share) = work.next().expect("at least one range");
        let rest: Vec<_> = work
            .map(|(r, share)| scope.spawn(move || job(r, share)))
            .collect();
        let mut out = vec![job(first, share)];
        out.extend(
            rest.into_iter()
                .map(|h| h.join().expect("CSR build worker panicked")),
        );
        out
    })
}

/// What every range's worker reads: the whole edge list.
struct Part<'a, E, F> {
    edges: &'a [E],
    edge: &'a F,
    n: usize,
    weighted: bool,
}

impl<E, F: Fn(&E) -> (u32, u32, u32)> Part<'_, E, F> {
    /// Counts the range's out-degrees and turns them into list ends in
    /// place; returns the range's edge total and its longest list's
    /// length. The range holding vertex 0 runs on the calling thread and
    /// checks every edge, so an edge outside the graph panics there with
    /// its endpoints.
    fn count(&self, r: &Range<usize>, ends: &mut [u32]) -> (usize, usize) {
        let (lo, len, n, check) = (r.start, r.len(), self.n, r.start == 0);
        if len > 0 {
            for e in self.edges {
                let (s, d, _) = (self.edge)(e);
                if check {
                    assert!(
                        (s as usize) < n && (d as usize) < n,
                        "edge ({s},{d}) out of range"
                    );
                }
                let at = (s as usize).wrapping_sub(lo);
                let keep = at < len && s != d;
                ends[if keep { at } else { 0 }] += u32::from(keep);
            }
        }
        let (mut total, mut longest) = (0, 0);
        for end in ends.iter_mut() {
            longest = longest.max(*end);
            total += *end;
            *end = total;
        }
        (total as usize, longest as usize)
    }

    /// Scatters the range's edges into `adj`/`wts` in input order, then
    /// sorts and de-duplicates each list, compacting the survivors to the
    /// front of the slices; `ends` becomes the compacted list ends.
    /// `keys` must hold the longest list without growing. Returns the
    /// number of edges kept.
    fn fill(
        &self,
        r: &Range<usize>,
        ends: &mut [u32],
        adj: &mut [u32],
        wts: &mut [u32],
        mut keys: Vec<u64>,
    ) -> usize {
        // Walking the edges backwards and filling each list from its end
        // leaves every list in input order and `ends[i]` at list i's
        // start, with no cursor array.
        let (lo, len) = (r.start, r.len());
        for e in self.edges.iter().rev() {
            let (s, d, w) = (self.edge)(e);
            let at = (s as usize).wrapping_sub(lo);
            if at < len && s != d {
                ends[at] -= 1;
                let i = ends[at] as usize;
                adj[i] = d;
                if self.weighted {
                    wts[i] = w;
                }
            }
        }
        // Sort each list by (target, position) and keep the first key of
        // each target. The survivors' weights replace their positions
        // before anything is written back, because the compacted writes
        // may land on slots of the list not yet read. A list ends where
        // the next one starts, read before that entry is overwritten.
        let mut out = 0usize;
        for i in 0..ends.len() {
            let lo = ends[i] as usize;
            let hi = ends.get(i + 1).map_or(adj.len(), |&e| e as usize);
            if hi - lo <= 1 {
                // Nothing to sort (most lists of a skewed graph).
                for j in lo..hi {
                    adj[out] = adj[j];
                    if self.weighted {
                        wts[out] = wts[j];
                    }
                    out += 1;
                }
                ends[i] = out as u32;
                continue;
            }
            keys.clear();
            keys.extend(
                adj[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(j, &d)| u64::from(d) << 32 | j as u64),
            );
            keys.sort_unstable();
            keys.dedup_by_key(|k| *k >> 32);
            if self.weighted {
                for k in &mut keys {
                    *k = *k >> 32 << 32 | u64::from(wts[lo + (*k as u32) as usize]);
                }
            }
            for &k in &keys {
                adj[out] = (k >> 32) as u32;
                if self.weighted {
                    wts[out] = k as u32;
                }
                out += 1;
            }
            ends[i] = out as u32;
        }
        out
    }
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

#[cfg(test)]
mod differential {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// The plainest CSR build: per source, an ordered map from target to
    /// the weight of its first edge in input order, self-loops skipped.
    /// Returns `(offsets, targets, weights)`.
    fn reference(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut lists = vec![BTreeMap::new(); n];
        for &(s, d, w) in edges {
            if s != d {
                lists[s as usize].entry(d).or_insert(w);
            }
        }
        let mut offsets = vec![0u32];
        let (mut adj, mut wts) = (Vec::new(), Vec::new());
        for list in &lists {
            for (&d, &w) in list {
                adj.push(d);
                wts.push(w);
            }
            offsets.push(adj.len() as u32);
        }
        (offsets, adj, wts)
    }

    /// `g` laid out as `(offsets, targets, weights)`.
    fn parts(g: &Csr) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let n = g.vertices() as u32;
        let mut offsets: Vec<u32> = (0..n).map(|v| g.edge_start(v)).collect();
        offsets.push(g.edge_count() as u32);
        let adj = (0..n).flat_map(|v| g.neighbours(v).to_vec()).collect();
        let wts = if g.is_weighted() {
            (0..n).flat_map(|v| g.weights_of(v).to_vec()).collect()
        } else {
            Vec::new()
        };
        (offsets, adj, wts)
    }

    /// Checks the weighted and unweighted builds of `edges` on 1, 2, 3
    /// and 8 workers against the reference.
    fn agree(case: &str, n: usize, edges: &[(u32, u32, u32)]) {
        let (offsets, adj, wts) = reference(n, edges);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        for workers in [1, 2, 3, 8] {
            let weighted = from_triples(n, edges, true, workers);
            assert!(weighted.is_weighted());
            assert_eq!(
                parts(&weighted),
                (offsets.clone(), adj.clone(), wts.clone()),
                "{case}, weighted, {workers} workers"
            );
            let plain = build(n, &pairs, |&(s, d)| (s, d, 0), false, workers);
            assert!(!plain.is_weighted());
            assert_eq!(
                parts(&plain),
                (offsets.clone(), adj.clone(), Vec::new()),
                "{case}, unweighted, {workers} workers"
            );
        }
    }

    fn shuffle(edges: &mut [(u32, u32, u32)], rng: &mut SplitMix64) {
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range_inclusive_usize(0, i));
        }
    }

    #[test]
    fn shuffled_duplicates_with_different_weights() {
        let mut rng = SplitMix64::seed_from_u64(11);
        // Few distinct (source, target) pairs, each drawn many times with
        // a fresh weight, so nearly every list holds duplicate groups.
        let n = 40;
        let mut edges: Vec<(u32, u32, u32)> = (0..5000)
            .map(|_| {
                let s = rng.gen_range_u32(0, n);
                let d = rng.gen_range_u32(0, 8);
                (s, d, rng.gen_range_u32(1, 1 << 20))
            })
            .collect();
        for round in 0..5 {
            shuffle(&mut edges, &mut rng);
            agree(&format!("duplicates round {round}"), n as usize, &edges);
        }
    }

    #[test]
    fn self_loops_and_isolated_vertices() {
        // Only even vertices have edges out and only multiples of three
        // have edges in; every tenth edge is a self-loop.
        let mut rng = SplitMix64::seed_from_u64(5);
        let n = 301;
        let edges: Vec<(u32, u32, u32)> = (0..2000)
            .map(|i| {
                let s = 2 * rng.gen_range_u32(0, 150);
                let d = if i % 10 == 0 {
                    s
                } else {
                    3 * rng.gen_range_u32(0, 100)
                };
                (s, d, i)
            })
            .collect();
        agree("self-loops", n, &edges);
        agree("only self-loops", 9, &[(4, 4, 1), (0, 0, 2), (8, 8, 3)]);
    }

    #[test]
    fn one_hub_with_many_edges() {
        let mut rng = SplitMix64::seed_from_u64(17);
        let n = 5000u32;
        let hub = 2717;
        let mut edges: Vec<(u32, u32, u32)> = (0..12_000)
            .map(|i| (hub, rng.gen_range_u32(0, n), i))
            .collect();
        edges.extend((0..3000).map(|i| (rng.gen_range_u32(0, n), rng.gen_range_u32(0, n), i)));
        shuffle(&mut edges, &mut rng);
        agree("hub", n as usize, &edges);
    }

    #[test]
    fn empty_input() {
        agree("no vertices", 0, &[]);
        agree("no edges", 7, &[]);
    }

    #[test]
    #[should_panic(expected = "edge (3,9) out of range")]
    fn an_edge_outside_the_graph_panics_with_its_endpoints() {
        // The bad edge's source lies in the second of two ranges.
        from_triples(4, &[(0, 1, 1), (3, 9, 1)], true, 2);
    }
}
