//! The paper's benchmark suite: GraphBIG-style GPU graph kernels.
//!
//! Ten workloads appear in the evaluation figures: `dc`, `bfs-ta`,
//! `bfs-dwc`, `bfs-twc`, `bfs-ttc`, `kcore`, `pagerank`, `sssp-dtc`,
//! `sssp-dwc`, `sssp-twc`. The suffix encodes the GraphBIG kernel
//! flavour: **d**ata-driven vs **t**opology-driven frontier handling ×
//! **w**arp-centric vs **t**hread-centric edge mapping (`ta` is the
//! topology-driven thread-mapped *atomic* variant).
//!
//! Every kernel executes its algorithm functionally (results are checked
//! against [`crate::reference`] in tests) while emitting warp traces for
//! the GPU timing model. Beyond the paper's set, [`cc`] adds connected
//! components as an extension workload.

pub mod bfs;
pub mod cc;
pub mod common;
pub mod dc;
pub mod kcore;
pub mod pagerank;
pub mod sssp;

use coolpim_gpu::source::PrefetchKernel;
use coolpim_gpu::Kernel;

use crate::csr::Csr;

/// Default traversal source: the highest-out-degree vertex, which is
/// guaranteed to seed a substantial traversal on any non-empty graph
/// (GraphBIG-style hub source).
pub fn default_source(g: &Csr) -> u32 {
    (0..g.vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap_or(0)
}

/// Warps per thread block used by all workloads (256 threads/block).
pub const WARPS_PER_BLOCK: usize = 8;

/// The benchmark suite of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Degree centrality (one pass, atomic-add dominated).
    Dc,
    /// BFS, topology-driven thread-mapped atomic.
    BfsTa,
    /// BFS, data-driven warp-centric.
    BfsDwc,
    /// BFS, topology-driven warp-centric.
    BfsTwc,
    /// BFS, topology-driven thread-centric.
    BfsTtc,
    /// k-core decomposition (forward-peeling).
    KCore,
    /// PageRank (3 synchronous iterations).
    PageRank,
    /// SSSP, data-driven thread-centric.
    SsspDtc,
    /// SSSP, data-driven warp-centric.
    SsspDwc,
    /// SSSP, topology-driven warp-centric.
    SsspTwc,
}

impl Workload {
    /// All ten benchmarks in the paper's figure order.
    pub const ALL: [Workload; 10] = [
        Workload::Dc,
        Workload::BfsTa,
        Workload::BfsDwc,
        Workload::BfsTwc,
        Workload::BfsTtc,
        Workload::KCore,
        Workload::PageRank,
        Workload::SsspDtc,
        Workload::SsspDwc,
        Workload::SsspTwc,
    ];

    /// Benchmark label as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dc => "dc",
            Workload::BfsTa => "bfs-ta",
            Workload::BfsDwc => "bfs-dwc",
            Workload::BfsTwc => "bfs-twc",
            Workload::BfsTtc => "bfs-ttc",
            Workload::KCore => "kcore",
            Workload::PageRank => "pagerank",
            Workload::SsspDtc => "sssp-dtc",
            Workload::SsspDwc => "sssp-dwc",
            Workload::SsspTwc => "sssp-twc",
        }
    }

    /// Parses a paper-style label.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instantiates the kernel for `workload` over `graph` with default
/// parameters (hub source for traversals, k=8 for k-core, 3 PageRank
/// iterations), behind a [`PrefetchKernel`]: when the run has a spare
/// core to itself, the kernel generates its blocks on that core, ahead
/// of the engine; otherwise it runs inline. The block stream is the same
/// either way.
pub fn make_kernel(workload: Workload, graph: &Csr) -> Box<dyn Kernel> {
    Box::new(PrefetchKernel::new(inline_kernel(workload, graph)))
}

/// The kernel [`make_kernel`] wraps, unwrapped: it generates every block
/// on the caller's thread, when the engine asks for it.
pub fn inline_kernel(workload: Workload, graph: &Csr) -> Box<dyn Kernel + Send> {
    let src = default_source(graph);
    let g = graph.clone();
    match workload {
        Workload::Dc => Box::new(dc::DcKernel::new(g)),
        Workload::BfsTa => Box::new(bfs::BfsKernel::new(g, bfs::BfsVariant::Ta, src)),
        Workload::BfsDwc => Box::new(bfs::BfsKernel::new(g, bfs::BfsVariant::Dwc, src)),
        Workload::BfsTwc => Box::new(bfs::BfsKernel::new(g, bfs::BfsVariant::Twc, src)),
        Workload::BfsTtc => Box::new(bfs::BfsKernel::new(g, bfs::BfsVariant::Ttc, src)),
        Workload::KCore => Box::new(kcore::KCoreKernel::new(g, 8)),
        Workload::PageRank => Box::new(pagerank::PageRankKernel::new(g, 3)),
        Workload::SsspDtc => Box::new(sssp::SsspKernel::new(g, sssp::SsspVariant::Dtc, src)),
        Workload::SsspDwc => Box::new(sssp::SsspKernel::new(g, sssp::SsspVariant::Dwc, src)),
        Workload::SsspTwc => Box::new(sssp::SsspKernel::new(g, sssp::SsspVariant::Twc, src)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphSpec;
    use coolpim_gpu::isa::BlockTrace;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Drives `k` to completion in the engine's order, `grant(n)` being
    /// the `n`-th block's `pim_enabled`; returns each launch's blocks.
    /// With `recycle`, every block goes back to the kernel once copied,
    /// as the engine returns it after retiring it.
    fn stream(
        mut k: Box<dyn Kernel + Send>,
        grant: impl Fn(usize) -> bool,
        recycle: bool,
    ) -> Vec<Vec<BlockTrace>> {
        let mut launches = Vec::new();
        let mut n = 0;
        loop {
            let mut blocks = Vec::with_capacity(k.grid_blocks());
            for b in 0..k.grid_blocks() {
                let t = k.block_trace(b, grant(n));
                n += 1;
                blocks.push(t.clone());
                if recycle {
                    k.recycle(t);
                }
            }
            launches.push(blocks);
            if !k.next_launch() {
                return launches;
            }
        }
    }

    /// Prefetching and record/replay both rely on this: a kernel's launch
    /// geometry and block stream do not depend on the PIM grant (or on
    /// buffer reuse).
    #[test]
    fn block_streams_ignore_the_pim_grant() {
        let g = GraphSpec::tiny().build();
        let kernels = || {
            Workload::ALL
                .iter()
                .map(|&w| (w.name(), inline_kernel(w, &g)))
                .chain(std::iter::once((
                    "cc",
                    Box::new(cc::CcKernel::new(g.clone())) as Box<dyn Kernel + Send>,
                )))
        };
        let all_on = kernels().map(|(name, k)| (name, stream(k, |_| true, false)));
        let all_off = kernels().map(|(_, k)| stream(k, |_| false, false));
        let alternating = kernels().map(|(_, k)| stream(k, |n| n % 2 == 0, true));
        for (((name, on), off), alt) in all_on.zip(all_off).zip(alternating) {
            assert!(on.iter().map(Vec::len).sum::<usize>() > 1, "{name}");
            assert!(on == off, "{name}: the stream depends on the grant");
            assert!(on == alt, "{name}: alternating grants change the stream");
        }
    }

    #[test]
    fn every_workload_instantiates() {
        let g = GraphSpec::tiny().build();
        for w in Workload::ALL {
            let k = make_kernel(w, &g);
            assert!(k.grid_blocks() > 0, "{} has empty grid", w.name());
            assert_eq!(k.warps_per_block(), WARPS_PER_BLOCK);
        }
    }
}
