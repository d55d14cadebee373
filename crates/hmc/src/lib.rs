//! # coolpim-hmc
//!
//! An event-free ("next-free-time algebra") timing model of a Hybrid
//! Memory Cube with HMC 2.0 PIM instruction support, as used by the
//! CoolPIM paper (IPDPS 2018).
//!
//! The model covers:
//!
//! * the FLIT-based packet protocol and Table I transaction costs
//!   ([`flit`], [`packet`]),
//! * HMC 2.0 PIM commands and their CUDA-atomic equivalents, Table III
//!   ([`command`]),
//! * DRAM bank timing (tCL/tRCD/tRP/tRAS) with closed-page policy and
//!   temperature-dependent derating ([`timing`], [`bank`]),
//! * vault controllers with PIM functional units that lock the target
//!   bank for the duration of an atomic read-modify-write ([`vault`]),
//!   behind the swappable [`vault::VaultTiming`] seam with an
//!   independently re-derived reference implementation ([`reference`](mod@reference)),
//! * serialized links with per-direction raw bandwidth ([`link`]),
//! * the thermal status/warning machinery (ERRSTAT=0x01 in response
//!   tails) and operating phases ([`thermal_state`]),
//! * windowed activity counters feeding the thermal model ([`stats`]),
//! * and the assembled cube ([`cube`]).
//!
//! Time is measured in integer picoseconds ([`Ps`]).
//!
//! ## Example
//!
//! ```
//! use coolpim_hmc::cube::Hmc;
//! use coolpim_hmc::packet::Request;
//! use coolpim_hmc::command::PimOp;
//!
//! let mut hmc = Hmc::hmc20();
//! let rd = hmc.submit(0, &Request::read(0x1000));
//! let pim = hmc.submit(0, &Request::pim(PimOp::SignedAdd, 0x2000));
//! assert!(rd.finish_ps > 0 && pim.finish_ps > 0);
//! assert!(!rd.thermal_warning);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod command;
pub mod cube;
pub mod flit;
pub mod link;
pub mod packet;
pub mod reference;
pub mod stats;
pub mod thermal_state;
pub mod timing;
pub mod vault;

pub use command::PimOp;
pub use cube::{Completion, Hmc, HmcConfig};
pub use packet::Request;
pub use reference::ReferenceVault;
pub use stats::PimAttribution;
pub use thermal_state::{TempPhase, ThermalTracker};
pub use vault::VaultTiming;

/// Simulation time in integer picoseconds.
pub type Ps = u64;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: Ps = 1_000;

/// Converts nanoseconds (f64) to picoseconds, rounding.
pub fn ns_to_ps(ns: f64) -> Ps {
    (ns * PS_PER_NS as f64).round() as Ps
}

/// Converts picoseconds to (fractional) nanoseconds.
pub fn ps_to_ns(ps: Ps) -> f64 {
    ps as f64 / PS_PER_NS as f64
}
