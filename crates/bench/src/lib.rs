//! # coolpim-bench
//!
//! Reproduction harness: every table, figure and ablation of the CoolPIM
//! paper this repository reproduces, in one registry ([`repro`], driven
//! by the `repro` binary), the drivers around the co-simulator (`sim`,
//! `analyze`, `obs`, `postmortem` in `src/bin/`), and the regression
//! gates they feed ([`gate`]).
//!
//! The graph-based artifacts share one evaluation graph, built once per
//! [`repro::reproduce`] call at the scale set by the `COOLPIM_SCALE`
//! environment variable:
//!
//! * `full` (default) — the paper-scale LDBC-like graph (2^20 vertices);
//!   the full matrix takes a few minutes on a multicore host;
//! * `quick` — a 2^16 graph for smoke runs (~seconds; thermal effects are
//!   muted at this scale, so shapes are only indicative);
//! * any integer `n` in [`repro::SCALES`] (8..=24) — a 2^n-vertex graph;
//!   any other value exits 2 with a diagnostic, as `sim --scale` does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod heatmap;
pub mod obs;
pub mod replicate;
pub mod repro;
pub mod runrec;

pub use gate::{Gate, SETS};
pub use replicate::{fold_replicates, Distribution};
pub use runrec::{RunRecord, RUN_RECORD_SCHEMA_VERSION};
