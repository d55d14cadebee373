//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on the LDBC social-network dataset. LDBC graphs
//! are skewed-degree, community-structured social graphs; we stand in an
//! R-MAT generator with LDBC-like skew parameters plus a deterministic
//! vertex permutation (so hub ids are scattered through the address
//! space, as after LDBC's id assignment). See DESIGN.md §2 for the
//! substitution rationale.

use crate::builder;
use crate::csr::Csr;
use crate::rng::SplitMix64;

/// R-MAT quadrant probabilities with social-network skew.
pub const RMAT_SOCIAL: (f64, f64, f64, f64) = (0.45, 0.22, 0.22, 0.11);

/// Which generator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// R-MAT with [`RMAT_SOCIAL`] parameters (LDBC-like skew).
    RmatSocial,
    /// Uniform random (Erdős–Rényi-style) graph.
    Uniform,
}

/// A reproducible graph specification.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Generator family.
    pub kind: GraphKind,
    /// log2 of the vertex count.
    pub scale: u32,
    /// Average out-degree (directed edges = `n × avg_degree`).
    pub avg_degree: u32,
    /// Whether to attach edge weights (1..=63, for SSSP).
    pub weighted: bool,
    /// RNG seed.
    pub seed: u64,
}

impl GraphSpec {
    /// The default evaluation dataset: LDBC-like skewed graph, 2^20
    /// vertices, average degree 16 (≈16 M directed edges). Scaled so (a)
    /// the atomic-targeted property footprint (16 MB at the 16-byte PIM
    /// operand stride) dwarfs the 1 MB L2 — as the LDBC datasets dwarf
    /// the paper platform's caches — and (b) one kernel spans several
    /// milliseconds of simulated time, multiple thermal response times
    /// (the co-simulator's warm start covers the steady regime).
    pub fn ldbc_like() -> Self {
        Self {
            kind: GraphKind::RmatSocial,
            scale: 20,
            avg_degree: 16,
            weighted: true,
            seed: 42,
        }
    }

    /// A small graph for unit tests (2^10 vertices).
    pub fn tiny() -> Self {
        Self {
            kind: GraphKind::RmatSocial,
            scale: 10,
            avg_degree: 8,
            weighted: true,
            seed: 7,
        }
    }

    /// A medium test graph whose property array exceeds the tiny GPU
    /// configuration's L2, so offloading behaviour is representative
    /// (2^14 vertices).
    pub fn test_medium() -> Self {
        Self {
            kind: GraphKind::RmatSocial,
            scale: 14,
            avg_degree: 8,
            weighted: true,
            seed: 11,
        }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Deterministic lineage hash of this spec (FNV-1a over its fields).
    /// Stamps recorded traces so a replay can be matched back to the
    /// exact graph draw that produced it.
    pub fn config_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u64| {
            for byte in b.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(match self.kind {
            GraphKind::RmatSocial => 1,
            GraphKind::Uniform => 2,
        });
        eat(u64::from(self.scale));
        eat(u64::from(self.avg_degree));
        eat(u64::from(self.weighted));
        eat(self.seed);
        h
    }

    /// Generates the graph: the edges, then the CSR, each split over the
    /// same worker threads.
    pub fn build(&self) -> Csr {
        let workers = builder::workers_for(self.vertices() * self.avg_degree as usize);
        builder::from_triples(
            self.vertices(),
            &self.edges(workers),
            self.weighted,
            workers,
        )
    }

    /// The raw `(src, dst, weight)` draws, in draw order, generated on up
    /// to `workers` threads. Weights are drawn even for unweighted specs,
    /// so the two share one stream. The output does not depend on
    /// `workers`: the permutation takes the stream's first `n − 1` draws
    /// and edge `i` the next `per_edge` draws from `n − 1 + i·per_edge`,
    /// so each chunk of edges seeks straight to its own draws.
    fn edges(&self, workers: usize) -> Vec<(u32, u32, u32)> {
        let n = self.vertices();
        let m = n * self.avg_degree as usize;
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        // Deterministic vertex permutation scatters R-MAT's low-id hubs.
        let perm = permutation(n, &mut rng);
        let first = n.saturating_sub(1) as u64;
        let per_edge = match self.kind {
            GraphKind::RmatSocial => u64::from(self.scale) + 1,
            GraphKind::Uniform => 3,
        };
        let thresholds = rmat_thresholds(RMAT_SOCIAL);
        let mut edges = vec![(0u32, 0u32, 0u32); m];
        let chunk = m.div_ceil(workers.max(1)).max(1);
        let fill = |ci: usize, part: &mut [(u32, u32, u32)]| {
            let mut rng = SplitMix64::at_draw(self.seed, first + (ci * chunk) as u64 * per_edge);
            for e in part {
                *e = self.edge(&mut rng, &perm, thresholds);
            }
        };
        std::thread::scope(|scope| {
            let mut parts = edges.chunks_mut(chunk).enumerate();
            let local = parts.next();
            for (ci, part) in parts {
                scope.spawn(move || fill(ci, part));
            }
            if let Some((ci, part)) = local {
                fill(ci, part);
            }
        });
        edges
    }

    /// One edge: its endpoints' draws, then its weight's.
    #[inline]
    fn edge(&self, rng: &mut SplitMix64, perm: &[u32], thresholds: [u64; 3]) -> (u32, u32, u32) {
        let (s, d) = match self.kind {
            GraphKind::RmatSocial => rmat_edge(self.scale, thresholds, rng),
            GraphKind::Uniform => {
                let n = perm.len() as u32;
                (rng.gen_range_u32(0, n), rng.gen_range_u32(0, n))
            }
        };
        (perm[s as usize], perm[d as usize], rng.gen_range_u32(1, 64))
    }
}

/// 2^53, the scale of [`SplitMix64::gen_f64`]'s 53-bit draws.
const TWO_53: f64 = (1u64 << 53) as f64;

/// The cumulative R-MAT quadrant probabilities `a`, `a + b`,
/// `a + b + c` (summed in `f64`, as a float walk would) as integer
/// thresholds on a 53-bit draw `m`: `gen_f64()` is exactly `m·2^-53`,
/// so `m·2^-53 < p` holds exactly when `m < ⌈p·2^53⌉`, and scaling by a
/// power of two loses nothing.
fn rmat_thresholds((a, b, c, _d): (f64, f64, f64, f64)) -> [u64; 3] {
    [a, a + b, a + b + c].map(|p| (p * TWO_53).ceil() as u64)
}

/// One R-MAT edge: per level, one 53-bit draw `m` picks the quadrant by
/// `m < t_a`, `m < t_ab`, `m < t_abc` ([`rmat_thresholds`]: top-left,
/// top-right, bottom-left, else bottom-right), the same decisions as
/// comparing `gen_f64()` against `a`, `a + b`, `a + b + c`. The three
/// comparisons are taken as bits rather than branches: the source bit is
/// set from the third quadrant on, the target bit in the second and
/// fourth.
#[inline]
fn rmat_edge(scale: u32, [ta, tab, tabc]: [u64; 3], rng: &mut SplitMix64) -> (u32, u32) {
    let mut s = 0u32;
    let mut t = 0u32;
    for _ in 0..scale {
        let m = rng.next_u64() >> 11;
        let (past_a, past_ab, past_abc) = (
            u32::from(m >= ta),
            u32::from(m >= tab),
            u32::from(m >= tabc),
        );
        s = s << 1 | past_ab;
        t = t << 1 | (past_a ^ past_ab ^ past_abc);
    }
    (s, t)
}

fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range_inclusive_usize(0, i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a graph's offsets, targets and weights, in that order.
    fn csr_digest(g: &Csr) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let n = g.vertices() as u32;
        for v in 0..n {
            eat(g.edge_start(v));
        }
        eat(g.edge_count() as u32);
        for v in 0..n {
            g.neighbours(v).iter().for_each(|&d| eat(d));
        }
        if g.is_weighted() {
            for v in 0..n {
                g.weights_of(v).iter().for_each(|&w| eat(w));
            }
        }
        h
    }

    /// The generator loop before edges were cut into chunks: one stream
    /// drawn strictly in order, with a branchy quadrant walk.
    fn sequential_replica(spec: &GraphSpec) -> Vec<(u32, u32, u32)> {
        let n = spec.vertices();
        let mut rng = SplitMix64::seed_from_u64(spec.seed);
        let perm = permutation(n, &mut rng);
        let (a, b, c, _) = RMAT_SOCIAL;
        (0..n * spec.avg_degree as usize)
            .map(|_| {
                let (s, d) = match spec.kind {
                    GraphKind::RmatSocial => {
                        let (mut s, mut t) = (0u32, 0u32);
                        for _ in 0..spec.scale {
                            s <<= 1;
                            t <<= 1;
                            let r = rng.gen_f64();
                            if r < a {
                            } else if r < a + b {
                                t |= 1;
                            } else if r < a + b + c {
                                s |= 1;
                            } else {
                                s |= 1;
                                t |= 1;
                            }
                        }
                        (s, t)
                    }
                    GraphKind::Uniform => (
                        rng.gen_range_u32(0, n as u32),
                        rng.gen_range_u32(0, n as u32),
                    ),
                };
                let (s, d) = (perm[s as usize], perm[d as usize]);
                (s, d, rng.gen_range_u32(1, 64))
            })
            .collect()
    }

    #[test]
    fn integer_thresholds_decide_exactly_as_the_float_comparison() {
        let mut rng = SplitMix64::seed_from_u64(2024);
        for params in [RMAT_SOCIAL, (0.57, 0.19, 0.19, 0.05), (0.1, 0.2, 0.3, 0.4)] {
            let (a, b, c, _) = params;
            let ps = [a, a + b, a + b + c];
            for (t, p) in rmat_thresholds(params).into_iter().zip(ps) {
                let same = |m: u64| (m >= t) == (m as f64 / TWO_53 >= p);
                for m in [t - 1, t, t + 1] {
                    assert!(same(m), "{params:?}: m = {m} at threshold {t}");
                }
                for _ in 0..100_000 {
                    // The integer draw and the float one come from the
                    // same stream position.
                    let mut twin = rng.clone();
                    let m = rng.next_u64() >> 11;
                    assert_eq!(twin.gen_f64(), m as f64 / TWO_53);
                    assert!(same(m), "{params:?}: m = {m} at threshold {t}");
                }
            }
        }
    }

    #[test]
    fn built_graphs_match_their_pinned_digests() {
        let uniform = GraphSpec {
            kind: GraphKind::Uniform,
            ..GraphSpec::test_medium()
        };
        let digests: Vec<u64> = [GraphSpec::tiny(), GraphSpec::test_medium(), uniform]
            .iter()
            .map(|spec| csr_digest(&spec.build()))
            .collect();
        assert_eq!(
            digests,
            [
                0x83a5_dda8_9db3_38b1,
                0x56c5_3f0f_e912_5c39,
                0xbc2a_f506_3116_b57b
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn chunked_edges_equal_the_sequential_stream() {
        for (kind, scale, seed) in [
            (GraphKind::RmatSocial, 1, 1),
            (GraphKind::RmatSocial, 10, 7),
            (GraphKind::RmatSocial, 16, 42),
            (GraphKind::RmatSocial, 17, 7),
            (GraphKind::Uniform, 0, 3),
            (GraphKind::Uniform, 15, 42),
        ] {
            let spec = GraphSpec {
                kind,
                scale,
                avg_degree: 6,
                weighted: true,
                seed,
            };
            let expect = sequential_replica(&spec);
            for workers in [1, 2, 3, 8] {
                assert!(
                    spec.edges(workers) == expect,
                    "{kind:?} scale {scale} seed {seed} on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_graph() {
        let spec = GraphSpec {
            scale: 16,
            ..GraphSpec::test_medium()
        };
        let on = |workers| {
            let edges = spec.edges(workers);
            csr_digest(&builder::from_triples(
                spec.vertices(),
                &edges,
                true,
                workers,
            ))
        };
        let one = on(1);
        for workers in 2..=8 {
            assert_eq!(on(workers), one, "{workers} workers");
        }
        assert_eq!(csr_digest(&spec.build()), one);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphSpec::tiny().build();
        let b = GraphSpec::tiny().build();
        assert_eq!(a.edge_count(), b.edge_count());
        for v in 0..a.vertices() as u32 {
            assert_eq!(a.neighbours(v), b.neighbours(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GraphSpec::tiny().build();
        let b = GraphSpec {
            seed: 8,
            ..GraphSpec::tiny()
        }
        .build();
        let same = (0..a.vertices() as u32).all(|v| a.neighbours(v) == b.neighbours(v));
        assert!(!same);
    }

    #[test]
    fn rmat_is_skewed_relative_to_uniform() {
        let rmat = GraphSpec::tiny().build();
        let uni = GraphSpec {
            kind: GraphKind::Uniform,
            ..GraphSpec::tiny()
        }
        .build();
        assert!(
            rmat.max_degree() > 2 * uni.max_degree(),
            "R-MAT max degree {} should dwarf uniform {}",
            rmat.max_degree(),
            uni.max_degree()
        );
    }

    #[test]
    fn edge_count_is_near_target() {
        let g = GraphSpec::tiny().build();
        let target = g.vertices() * 8;
        // Deduplication loses some edges, but most survive.
        assert!(
            g.edge_count() > target / 2,
            "{} of {target} edges",
            g.edge_count()
        );
        assert!(g.edge_count() <= target);
    }

    #[test]
    fn weighted_graphs_carry_weights_in_range() {
        let g = GraphSpec::tiny().build();
        assert!(g.is_weighted());
        for v in 0..g.vertices() as u32 {
            for &w in g.weights_of(v) {
                assert!((1..64).contains(&w));
            }
        }
    }
}
