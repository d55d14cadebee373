//! # coolpim-graph
//!
//! Graph substrate and GraphBIG-style GPU graph workloads for the CoolPIM
//! reproduction.
//!
//! * [`csr`] — compressed-sparse-row graphs,
//! * [`builder`] — edge-list → CSR construction,
//! * [`generate`] — deterministic synthetic generators (R-MAT with
//!   LDBC-like skew, uniform random),
//! * [`io`] — plain-text edge-list reading/writing,
//! * [`layout`] — the simulated-address-space layout (CSR arrays,
//!   property arrays in the PIM/uncacheable region),
//! * [`trace`] — warp-trace emission helpers,
//! * [`mod@reference`] — sequential reference algorithms used by tests,
//! * [`rng`] — the dependency-free deterministic PRNG behind the
//!   generators (also used by randomized tests elsewhere in the
//!   workspace),
//! * [`workloads`] — the ten paper benchmarks (`dc`, `bfs-ta`, `bfs-dwc`,
//!   `bfs-twc`, `bfs-ttc`, `kcore`, `pagerank`, `sssp-dtc`, `sssp-dwc`,
//!   `sssp-twc`), each a [`coolpim_gpu::InstructionSource`].
//!
//! ## Example
//!
//! ```
//! use coolpim_graph::generate::GraphSpec;
//! use coolpim_graph::workloads::{Workload, make_kernel};
//!
//! let graph = GraphSpec::tiny().build();
//! let mut kernel = make_kernel(Workload::Dc, &graph);
//! assert!(kernel.grid_blocks() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod generate;
pub mod io;
pub mod layout;
pub mod reference;
pub mod rng;
pub mod trace;
pub mod workloads;

pub use csr::Csr;
pub use generate::GraphSpec;
pub use workloads::{make_kernel, Workload};
