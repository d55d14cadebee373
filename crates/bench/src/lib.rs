//! # coolpim-bench
//!
//! Reproduction harness: one binary per table and figure of the CoolPIM
//! paper (see `src/bin/`), plus wall-clock micro-benchmarks of the
//! substrates (`benches/`, driven by the in-tree [`harness`]).
//!
//! The evaluation binaries (`fig10`–`fig14`) share [`eval`], which runs
//! the workload × policy matrix once at the configured scale. Scale is
//! controlled by the `COOLPIM_SCALE` environment variable:
//!
//! * `full` (default) — the paper-scale LDBC-like graph (2^20 vertices);
//!   the full matrix takes a few minutes on a multicore host;
//! * `quick` — a 2^16 graph for smoke runs (~seconds; thermal effects are
//!   muted at this scale, so shapes are only indicative);
//! * any integer `n` — a 2^n-vertex graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod gate;
pub mod harness;
pub mod heatmap;
pub mod obs;
pub mod replicate;
pub mod runrec;

pub use eval::{eval_graph_spec, run_eval_matrix};
pub use gate::{Gate, SETS};
pub use harness::{Runner, Stats};
pub use replicate::{fold_replicates, Distribution};
pub use runrec::{RunRecord, RUN_RECORD_SCHEMA_VERSION};
