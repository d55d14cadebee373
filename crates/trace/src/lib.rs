//! # coolpim-trace
//!
//! Record-once / replay-everywhere workload traces (ROADMAP item 2).
//!
//! The paper's evaluation re-executes every graph kernel for each
//! (cooling × policy × derating) point, but the *instruction stream* is
//! identical across all of them: workload kernels generate addresses
//! independently of `pim_enabled` (host-vs-PIM encoding is decided at
//! execution time by the offload controller), and the engine's dispatch
//! order is deterministic. This crate exploits that: run a kernel once,
//! capture the exact per-block/per-warp [`coolpim_gpu::WarpOp`] streams
//! the engine consumed, serialize them to a compact versioned binary
//! format, and replay them through `CoSim` under any policy — provably
//! bit-identical to the live run (see `coolpim-validate`'s replay
//! oracle).
//!
//! Modules:
//!
//! * [`format`](mod@format) — the `CPTR` binary format: header (magic, version,
//!   graph `config_hash`, workload params, bit-exact profile), varint
//!   op packing with delta-encoded addresses, contextful load errors,
//! * [`record`] — [`RecordingSource`], a tee that wraps a live kernel
//!   during a normal `CoSim` run and captures the stream it produced,
//! * [`replay`] — [`TraceReplaySource`] (decoded, `Arc`-shareable across
//!   sweep workers) and [`ReferenceReplay`] (an independent streaming
//!   byte-walking decoder used as the lockstep oracle's twin).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod record;
pub mod replay;

pub use format::{TraceError, WorkloadTrace, TRACE_MAGIC, TRACE_VERSION};
pub use record::RecordingSource;
pub use replay::{ReferenceReplay, TraceReplaySource};
