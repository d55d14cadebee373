//! # coolpim-simbench
//!
//! The co-simulator's benchmark: host time of a paper-scale live `sim`
//! run, the `eval_all` matrix at CI scale, and a trace-replay sweep,
//! measured end to end (untraced) and per layer (a separate traced run
//! that wraps the co-sim's three seams from outside). See `README.md`
//! beside this crate for the metric catalogue and how to run it.
//!
//! Modules:
//!
//! * [`catalogue`] — the workloads and metrics, with units, directions
//!   and bounds; renders `BENCHMARK.json`;
//! * [`calib`] — the reference workload that scales host times to a
//!   reference host speed;
//! * [`stats`] — median and the tail percentile;
//! * [`cells`] — per-cell fingerprints and failure checks;
//! * [`wrap`] — transparent timing wrappers around `InstructionSource`,
//!   `OffloadController` and `ThermalSolve`;
//! * [`pool`] — the cell pool used where the library pools expose no
//!   per-cell timing (same claim-next-index scheme and worker count);
//! * [`workload`] — the three workloads: setup, untraced run, traced run;
//! * [`layers`] — per-layer metrics from the traced run, plus the CSR and
//!   HMC microbenches.

#![forbid(unsafe_code)]

pub mod calib;
pub mod catalogue;
pub mod cells;
pub mod layers;
pub mod pool;
pub mod stats;
pub mod workload;
pub mod wrap;
