//! Replay sources: feed `CoSim` from a recorded trace.
//!
//! [`TraceReplaySource`] is the production path — an eagerly decoded
//! [`WorkloadTrace`] behind an [`Arc`], so a sweep's worker pool shares
//! one immutable copy and each cell clones only the per-block streams it
//! dispatches. [`ReferenceReplay`] is its oracle twin: a streaming
//! decoder that walks the raw bytes launch-by-launch at dispatch time.
//! The lockstep validator runs both against the live kernel; agreement
//! proves the encode → decode → replay pipeline end to end.

use std::sync::Arc;

use coolpim_gpu::isa::{BlockTrace, SpareBlocks};
use coolpim_gpu::kernel::KernelProfile;
use coolpim_gpu::source::InstructionSource;

use crate::format::{read_header, read_op, Reader, TraceError, WorkloadTrace};

/// Replays an eagerly decoded trace. Cheap to construct per sweep cell:
/// the trace itself is shared immutably via [`Arc`]. Each dispatched block
/// is a copy, made in a spent block's buffers when the engine has handed
/// one back.
#[derive(Debug, Clone)]
pub struct TraceReplaySource {
    trace: Arc<WorkloadTrace>,
    launch: usize,
    spares: SpareBlocks,
}

impl TraceReplaySource {
    /// A replay source positioned at the first launch.
    pub fn new(trace: Arc<WorkloadTrace>) -> Self {
        Self {
            trace,
            launch: 0,
            spares: SpareBlocks::default(),
        }
    }

    /// The shared trace this source replays.
    pub fn trace(&self) -> &Arc<WorkloadTrace> {
        &self.trace
    }
}

impl InstructionSource for TraceReplaySource {
    fn name(&self) -> &str {
        &self.trace.name
    }
    fn grid_blocks(&self) -> usize {
        self.trace.launches.get(self.launch).map_or(0, Vec::len)
    }
    fn warps_per_block(&self) -> usize {
        self.trace.warps_per_block
    }
    fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
        let recorded = &self.trace.launches[self.launch][block];
        match self.spares.take() {
            Some(mut spare) => {
                spare.clone_from(recorded);
                spare.trim();
                spare
            }
            None => recorded.fresh_copy(),
        }
    }
    fn recycle(&mut self, spent: BlockTrace) {
        self.spares.put(spent);
    }
    fn next_launch(&mut self) -> bool {
        if self.launch + 1 < self.trace.launches.len() {
            self.launch += 1;
            true
        } else {
            false
        }
    }
    fn profile(&self) -> KernelProfile {
        self.trace.profile
    }
}

/// The oracle twin: replays straight from the encoded bytes, decoding
/// each block's ops only when the engine dispatches it.
///
/// The whole file is structurally validated up front (so a corrupt or
/// truncated trace is a contextful [`TraceError`], never a mid-run
/// panic); dispatch-time decoding then walks the pre-validated bytes.
#[derive(Debug)]
pub struct ReferenceReplay {
    bytes: Vec<u8>,
    label: String,
    name: String,
    warps_per_block: usize,
    profile: KernelProfile,
    /// `(byte offset of first block, block count)` per launch.
    launch_index: Vec<(usize, usize)>,
    launch: usize,
    /// Byte cursor within the current launch's block stream.
    pos: usize,
    /// Next block id the engine is expected to dispatch.
    next_block: usize,
}

impl ReferenceReplay {
    /// Builds a streaming replayer from encoded bytes; `label` names the
    /// source (file path) in errors.
    pub fn from_bytes(bytes: Vec<u8>, label: &str) -> Result<Self, TraceError> {
        let (header, launch_index) = {
            let mut r = Reader::new(&bytes, label);
            let h = read_header(&mut r, label)?;
            // Full structural pre-scan: every op decodes or the file is
            // rejected here with its byte offset.
            let mut index = Vec::with_capacity(h.launch_count);
            let mut arena = Vec::new();
            for _ in 0..h.launch_count {
                let blocks = r.varint("block count")? as usize;
                index.push((r.pos(), blocks));
                for _ in 0..blocks {
                    let warps = r.varint("warp count")? as usize;
                    for _ in 0..warps {
                        let ops = r.varint("op count")? as usize;
                        for _ in 0..ops {
                            read_op(&mut r, &mut arena)?;
                        }
                    }
                    arena.clear();
                }
            }
            (h, index)
        };
        let pos = launch_index.first().map_or(0, |&(off, _)| off);
        Ok(Self {
            bytes,
            label: label.to_string(),
            name: header.name,
            warps_per_block: header.warps_per_block,
            profile: header.profile,
            launch_index,
            launch: 0,
            pos,
            next_block: 0,
        })
    }

    /// Loads and validates a trace file for streaming replay.
    pub fn open(path: &std::path::Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_bytes(bytes, &path.display().to_string())
    }
}

impl InstructionSource for ReferenceReplay {
    fn name(&self) -> &str {
        &self.name
    }
    fn grid_blocks(&self) -> usize {
        self.launch_index.get(self.launch).map_or(0, |&(_, n)| n)
    }
    fn warps_per_block(&self) -> usize {
        self.warps_per_block
    }
    fn block_trace(&mut self, block: usize, _pim_enabled: bool) -> BlockTrace {
        // The engine dispatches block ids monotonically within a launch;
        // the streaming decoder depends on that order.
        assert_eq!(
            block, self.next_block,
            "{}: out-of-order dispatch (streaming replay expects block {}, engine asked for {})",
            self.label, self.next_block, block
        );
        self.next_block += 1;
        let mut r = Reader::new(&self.bytes, &self.label);
        r.seek(self.pos);
        let mut block_trace = BlockTrace::default();
        let warps = r.varint("warp count").expect("pre-validated") as usize;
        for _ in 0..warps {
            let ops = r.varint("op count").expect("pre-validated") as usize;
            let mut warp = coolpim_gpu::isa::WarpTrace {
                ops: Vec::with_capacity(ops),
            };
            for _ in 0..ops {
                let op = read_op(&mut r, &mut block_trace.addrs).expect("pre-validated");
                warp.ops.push(op);
            }
            block_trace.warps.push(warp);
        }
        self.pos = r.pos();
        block_trace
    }
    fn next_launch(&mut self) -> bool {
        if self.launch + 1 < self.launch_index.len() {
            self.launch += 1;
            self.pos = self.launch_index[self.launch].0;
            self.next_block = 0;
            true
        } else {
            false
        }
    }
    fn profile(&self) -> KernelProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_gpu::isa::{WarpOp, WarpTrace};
    use coolpim_hmc::PimOp;

    fn trace() -> WorkloadTrace {
        let mut first = BlockTrace::default();
        let ops = vec![
            WarpOp::Atomic {
                op: PimOp::CasGreater,
                lanes: first.push_lanes([128, 64]),
            },
            WarpOp::Compute(3),
        ];
        first.warps.push(WarpTrace { ops });
        let mut last = BlockTrace::default();
        let ops = vec![WarpOp::Load(last.push_lanes([8, 16, 24]))];
        last.warps.push(WarpTrace { ops });
        WorkloadTrace {
            name: "replay-unit".into(),
            params: "p".into(),
            config_hash: 7,
            warps_per_block: 2,
            profile: KernelProfile {
                pim_intensity: 0.25,
                divergence_ratio: 0.75,
            },
            launches: vec![
                vec![
                    first,
                    // Empty-warp block: shrunk from the oracle wiring —
                    // the engine retires these at dispatch, and both
                    // replay paths must still hand them over.
                    BlockTrace {
                        warps: vec![WarpTrace { ops: vec![] }],
                        addrs: Vec::new(),
                    },
                ],
                vec![last],
            ],
        }
    }

    fn drain<S: InstructionSource>(src: &mut S) -> Vec<Vec<BlockTrace>> {
        let mut launches = Vec::new();
        loop {
            let blocks = (0..src.grid_blocks())
                .map(|b| src.block_trace(b, true))
                .collect();
            launches.push(blocks);
            if !src.next_launch() {
                return launches;
            }
        }
    }

    #[test]
    fn eager_and_streaming_replay_agree_with_original() {
        let t = trace();
        let bytes = t.encode();

        let mut eager = TraceReplaySource::new(Arc::new(t.clone()));
        assert_eq!(eager.name(), "replay-unit");
        assert_eq!(eager.warps_per_block(), 2);
        assert_eq!(eager.profile(), t.profile);
        assert_eq!(drain(&mut eager), t.launches);

        let mut streaming = ReferenceReplay::from_bytes(bytes, "mem").expect("valid");
        assert_eq!(streaming.name(), "replay-unit");
        assert_eq!(streaming.profile(), t.profile);
        assert_eq!(drain(&mut streaming), t.launches);
    }

    #[test]
    fn streaming_open_rejects_corrupt_bytes_up_front() {
        let mut bytes = trace().encode();
        let n = bytes.len();
        bytes.truncate(n - 2);
        let err = ReferenceReplay::from_bytes(bytes, "short.cptr").unwrap_err();
        assert!(err.to_string().contains("short.cptr"), "{err}");
    }
}
