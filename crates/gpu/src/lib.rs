//! # coolpim-gpu
//!
//! A discrete-event GPU timing model for PIM-offloading studies, standing
//! in for the MacSim cycle-level simulator used by the CoolPIM paper.
//!
//! The model executes *kernel traces*: workloads (see `coolpim-graph`)
//! run their algorithms functionally while emitting per-warp instruction
//! streams — compute bursts, coalesced loads/stores, and atomic
//! operations that may be offloaded as HMC PIM instructions. The engine
//! schedules warps across SMs with a global event heap, moves memory
//! traffic through per-SM L1Ds and a shared L2, and submits misses to the
//! `coolpim-hmc` cube model, from whose response tails thermal warnings
//! propagate back to the offloading controller.
//!
//! Table IV configuration: 16 PTX SMs, 32 threads/warp, 1.4 GHz, 16 KB
//! private L1D, 1 MB 16-way L2.
//!
//! Modules:
//!
//! * [`config`] — the host configuration,
//! * [`isa`] — the abstract warp-level instruction stream,
//! * [`kernel`] — the trait workloads implement,
//! * [`cache`] — set-associative L1/L2 with dirty-eviction accounting,
//! * [`coalesce`] — the 32-lane memory coalescer,
//! * [`controller`] — the offload-control hook CoolPIM's policies implement,
//! * [`source`] — the instruction-source seam (live kernel or trace replay),
//! * [`system`] — the assembled GPU + HMC system and its event engine,
//! * [`stats`] — run statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod config;
pub mod controller;
pub mod isa;
pub mod kernel;
pub mod source;
pub mod stats;
pub mod system;

pub use config::GpuConfig;
pub use controller::{AlwaysOffload, NeverOffload, OffloadController};
pub use isa::{BlockTrace, Lanes, WarpOp, WarpTrace};
pub use kernel::Kernel;
pub use source::InstructionSource;
pub use system::{GpuSystem, RunOutcome};
