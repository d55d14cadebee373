//! # coolpim-core
//!
//! CoolPIM: thermal-aware software- and hardware-based source throttling
//! for PIM instruction offloading (Nai et al., IPDPS 2018).
//!
//! The crate implements the paper's contribution on top of the
//! `coolpim-gpu` / `coolpim-hmc` / `coolpim-thermal` substrates:
//!
//! * [`token_pool`] — the PIM token pool (PTP) of SW-DynT,
//! * [`estimate`] — Eq. 1's static PTP initialisation,
//! * [`sw_dynt`] — software dynamic throttling (thermal interrupt →
//!   shrink the pool of PIM-enabled thread blocks),
//! * [`hw_dynt`] — hardware dynamic throttling (per-SM PIM Control Unit
//!   capping PIM-enabled warps, with delayed control updates),
//! * [`policy`] — the four evaluated system configurations,
//! * [`cosim`] — the timing ⟷ thermal co-simulation driver,
//! * [`observer`] — per-epoch observers of its loop (flight recorder,
//!   heartbeat),
//! * [`experiment`] — the parallel experiment harness behind the
//!   evaluation figures,
//! * [`multi_level`] — the paper's multi-error-state extension
//!   (graduated warnings, footnote in §IV-B),
//! * [`reference`](mod@reference) — independently re-derived SW/HW-DynT controllers the
//!   lockstep oracle (`coolpim-validate`) pits against the shipped ones,
//! * [`report`] — fixed-format output for the reproduction binaries.
//!
//! ## Quick start
//!
//! ```no_run
//! use coolpim_core::cosim::CoSim;
//! use coolpim_core::policy::Policy;
//! use coolpim_graph::{generate::GraphSpec, workloads::{make_kernel, Workload}};
//!
//! let graph = GraphSpec::tiny().build();
//! let mut kernel = make_kernel(Workload::Dc, &graph);
//! let result = CoSim::paper(Policy::CoolPimSw).run(kernel.as_mut());
//! println!("runtime: {:.3} ms, peak {:.1} °C",
//!          result.exec_s * 1e3, result.max_peak_dram_c);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod estimate;
pub mod experiment;
pub mod hw_dynt;
pub mod multi_level;
pub mod observer;
pub mod policy;
pub mod reference;
pub mod report;
pub mod sw_dynt;
pub mod token_pool;

pub use cosim::{CoSim, CoSimResult};
pub use policy::Policy;
