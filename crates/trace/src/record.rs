//! Recording tee: capture the stream a live kernel feeds the engine.
//!
//! [`RecordingSource`] wraps a live kernel and is itself an
//! [`InstructionSource`], so `sim --record-trace` is a *normal* run that
//! happens to keep what it produced — the recorded stream is equal to the
//! executed stream by construction, not by re-derivation.

use coolpim_gpu::isa::BlockTrace;
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::source::InstructionSource;

use crate::format::WorkloadTrace;

/// An [`InstructionSource`] adapter that delegates to a live kernel and
/// tees every block trace it hands out, indexed by launch and block id.
pub struct RecordingSource<'a, K: InstructionSource + ?Sized> {
    inner: &'a mut K,
    launches: Vec<Vec<Option<BlockTrace>>>,
}

impl<'a, K: InstructionSource + ?Sized> RecordingSource<'a, K> {
    /// Wraps `inner`, ready to record its first launch.
    pub fn new(inner: &'a mut K) -> Self {
        let blocks = inner.grid_blocks();
        Self {
            inner,
            launches: vec![vec![None; blocks]],
        }
    }

    /// Consumes the recorder and packages the captured stream with its
    /// provenance. Call after the run completes; blocks the engine never
    /// requested (it requests each exactly once) are recorded as empty.
    pub fn finish(self, config_hash: u64, params: &str) -> WorkloadTrace {
        WorkloadTrace {
            name: self.inner.name().to_string(),
            params: params.to_string(),
            config_hash,
            warps_per_block: self.inner.warps_per_block(),
            profile: self.inner.profile(),
            launches: self
                .launches
                .into_iter()
                .map(|launch| launch.into_iter().map(Option::unwrap_or_default).collect())
                .collect(),
        }
    }
}

impl<K: InstructionSource + ?Sized> InstructionSource for RecordingSource<'_, K> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn grid_blocks(&self) -> usize {
        self.inner.grid_blocks()
    }
    fn warps_per_block(&self) -> usize {
        self.inner.warps_per_block()
    }
    fn block_trace(&mut self, block: usize, pim_enabled: bool) -> BlockTrace {
        let trace = self.inner.block_trace(block, pim_enabled);
        let launch = self.launches.last_mut().expect("at least one launch");
        if block >= launch.len() {
            launch.resize(block + 1, None);
        }
        launch[block] = Some(trace.clone());
        trace
    }
    fn recycle(&mut self, spent: BlockTrace) {
        self.inner.recycle(spent);
    }
    fn next_launch(&mut self) -> bool {
        let more = self.inner.next_launch();
        if more {
            self.launches.push(vec![None; self.inner.grid_blocks()]);
        }
        more
    }
    fn profile(&self) -> KernelProfile {
        self.inner.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_gpu::isa::{WarpOp, WarpTrace};

    struct TwoLaunch {
        launch: usize,
    }

    impl InstructionSource for TwoLaunch {
        fn name(&self) -> &str {
            "two"
        }
        fn grid_blocks(&self) -> usize {
            2 - self.launch
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn block_trace(&mut self, block: usize, _pim: bool) -> BlockTrace {
            BlockTrace {
                warps: vec![WarpTrace {
                    ops: vec![WarpOp::Compute((self.launch * 10 + block + 1) as u32)],
                }],
                addrs: Vec::new(),
            }
        }
        fn next_launch(&mut self) -> bool {
            self.launch += 1;
            self.launch < 2
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile {
                pim_intensity: 0.5,
                divergence_ratio: 0.25,
            }
        }
    }

    #[test]
    fn records_per_launch_blocks_in_id_order() {
        let mut k = TwoLaunch { launch: 0 };
        let mut rec = RecordingSource::new(&mut k);
        // Emulate the engine's deterministic request order.
        rec.block_trace(0, true);
        rec.block_trace(1, false);
        assert!(rec.next_launch());
        rec.block_trace(0, true);
        assert!(!rec.next_launch());
        let t = rec.finish(42, "unit");
        assert_eq!(t.launches.len(), 2);
        assert_eq!(t.launches[0].len(), 2);
        assert_eq!(t.launches[1].len(), 1);
        assert_eq!(t.launches[0][1].warps[0].ops[0], WarpOp::Compute(2));
        assert_eq!(t.launches[1][0].warps[0].ops[0], WarpOp::Compute(11));
        assert_eq!(t.config_hash, 42);
        assert_eq!(t.warps_per_block, 1);
    }
}
