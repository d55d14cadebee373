//! k-core decomposition by iterative forward peeling.
//!
//! Rounds alternate two launches: a topology *scan* that finds remaining
//! vertices whose (in+out) degree fell below `k`, and a *process* launch
//! that streams the peeled vertices' out-edges, decrementing neighbour
//! degrees with `atomicSub` (`PimOp::SignedAdd` of −1). Most rounds peel
//! few vertices, so the kernel's PIM offloading intensity is low — in the
//! paper's evaluation `kcore` never trips the thermal limit and all
//! offloading configurations perform alike (Figs. 10–13).
//!
//! Semantics match [`crate::reference::kcore_membership`] (forward
//! peeling: incoming edges of peeled vertices are not re-walked, which is
//! what a forward-CSR GPU kernel can do without a transpose).

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::InstructionSource;
use coolpim_hmc::PimOp;

use crate::csr::Csr;
use crate::layout;
use crate::trace::{blocks_for_warps, TraceBuilder, WARP};
use crate::workloads::common::warp_centric_vertex;
use crate::workloads::WARPS_PER_BLOCK;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Scan,
    Process,
}

/// The k-core kernel.
pub struct KCoreKernel {
    g: Csr,
    k: u32,
    deg: Vec<u32>,
    alive: Vec<bool>,
    phase: Phase,
    /// Vertices peeled by the last scan, awaiting edge processing.
    peeled: Vec<u32>,
    tb: TraceBuilder,
}

impl KCoreKernel {
    /// Creates the kernel for the `k`-core of `g`.
    pub fn new(g: Csr, k: u32) -> Self {
        let n = g.vertices();
        let mut deg = vec![0u32; n];
        for v in 0..n as u32 {
            deg[v as usize] += g.degree(v);
            for &w in g.neighbours(v) {
                deg[w as usize] += 1;
            }
        }
        Self {
            g,
            k,
            deg,
            alive: vec![true; n],
            phase: Phase::Scan,
            peeled: Vec::new(),
            tb: TraceBuilder::new(),
        }
    }

    /// Per-vertex k-core membership (valid once the run completes).
    pub fn membership(&self) -> &[bool] {
        &self.alive
    }

    fn warps_in_grid(&self) -> usize {
        match self.phase {
            Phase::Scan => self.g.vertices().div_ceil(WARP),
            Phase::Process => self.peeled.len().max(1),
        }
    }
}

impl InstructionSource for KCoreKernel {
    fn name(&self) -> &str {
        "kcore"
    }

    fn grid_blocks(&self) -> usize {
        blocks_for_warps(self.warps_in_grid(), WARPS_PER_BLOCK)
    }

    fn warps_per_block(&self) -> usize {
        WARPS_PER_BLOCK
    }

    fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
        let total = self.warps_in_grid();
        let Self {
            g,
            k,
            deg,
            alive,
            phase,
            peeled,
            tb,
        } = self;
        tb.block(WARPS_PER_BLOCK, |b, w| {
            let idx = block * WARPS_PER_BLOCK + w;
            if idx >= total {
                return;
            }
            match phase {
                Phase::Scan => {
                    let lo = (idx * WARP) as u32;
                    let hi = (((idx + 1) * WARP).min(g.vertices())) as u32;
                    // Coalesced loads of degree + liveness words.
                    b.load((lo..hi).map(layout::aux_addr));
                    b.compute(6);
                    for v in lo..hi {
                        if alive[v as usize] && deg[v as usize] < *k {
                            alive[v as usize] = false;
                            peeled.push(v);
                        }
                    }
                }
                Phase::Process => {
                    if let Some(&u) = peeled.get(idx) {
                        b.load([layout::aux_addr(u)]); // work item
                        warp_centric_vertex(b, g, u, false, PimOp::SignedAdd, |t, _| {
                            if alive[t as usize] {
                                deg[t as usize] -= 1;
                            }
                        });
                    }
                }
            }
        })
    }

    fn recycle(&mut self, spent: BlockTrace) {
        self.tb.recycle(spent);
    }

    fn next_launch(&mut self) -> bool {
        match self.phase {
            Phase::Scan => {
                if self.peeled.is_empty() {
                    false // converged
                } else {
                    self.phase = Phase::Process;
                    true
                }
            }
            Phase::Process => {
                self.peeled.clear();
                self.phase = Phase::Scan;
                true
            }
        }
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile {
            pim_intensity: 0.05,
            divergence_ratio: 0.30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::GraphSpec;
    use crate::reference;

    fn run_to_completion(k: &mut KCoreKernel) -> usize {
        let mut launches = 1;
        loop {
            for b in 0..k.grid_blocks() {
                let _ = k.block_trace(b, true);
            }
            if !k.next_launch() {
                return launches;
            }
            launches += 1;
        }
    }

    #[test]
    fn matches_reference_membership() {
        let g = GraphSpec::tiny().build();
        for k_val in [2, 8, 16] {
            let mut k = KCoreKernel::new(g.clone(), k_val);
            run_to_completion(&mut k);
            assert_eq!(
                k.membership(),
                &reference::kcore_membership(&g, k_val)[..],
                "k = {k_val}"
            );
        }
    }

    #[test]
    fn launches_alternate_scan_and_process() {
        let g = GraphSpec::tiny().build();
        let mut k = KCoreKernel::new(g, 8);
        let launches = run_to_completion(&mut k);
        // Ends on a scan that peels nothing: scan, (process, scan)*.
        assert!(launches >= 1);
        assert_eq!(launches % 2, 1, "must end on a quiescent scan");
    }

    #[test]
    fn k_zero_peels_nothing() {
        let g = GraphSpec::tiny().build();
        let n = g.vertices();
        let mut k = KCoreKernel::new(g, 0);
        run_to_completion(&mut k);
        assert_eq!(k.membership().iter().filter(|&&a| a).count(), n);
    }

    #[test]
    fn huge_k_peels_everything() {
        let g = GraphSpec::tiny().build();
        let mut k = KCoreKernel::new(g, 1_000_000);
        run_to_completion(&mut k);
        assert!(k.membership().iter().all(|&a| !a));
    }
}
