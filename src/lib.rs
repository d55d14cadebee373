//! # coolpim
//!
//! Façade crate for the CoolPIM reproduction (Nai et al., *CoolPIM:
//! Thermal-Aware Source Throttling for Efficient PIM Instruction
//! Offloading*, IPDPS 2018): re-exports the full system so downstream
//! users depend on one crate.
//!
//! * [`hmc`] — HMC 1.1/2.0 memory-system timing model with PIM support,
//! * [`thermal`] — power model + 3D-stacked RC thermal solver,
//! * [`gpu`] — discrete-event GPU timing model,
//! * [`graph`] — graph substrate and the GraphBIG-style workload suite,
//! * [`core`] — CoolPIM source throttling (SW-DynT / HW-DynT),
//!   co-simulation, and the experiment harness,
//! * [`trace`] — record-once/replay-everywhere workload traces: a
//!   versioned compact binary format (`.cptr`), the recording tee, and
//!   the replay instruction sources,
//! * [`telemetry`] — typed event tracing, metrics, span timelines
//!   of the co-simulation loop, and the spatial flight recorder behind
//!   postmortem dump bundles,
//! * [`validate`] — the lockstep oracle: reference and optimized
//!   implementations of the swappable component seams run side by side
//!   on property-generated inputs, with first-divergence reporting.
//!
//! ## Quick start
//!
//! ```no_run
//! use coolpim::prelude::*;
//!
//! // Build the evaluation graph, pick a workload, and co-simulate it
//! // under CoolPIM's software throttling.
//! let graph = GraphSpec::ldbc_like().build();
//! let mut kernel = make_kernel(Workload::Dc, &graph);
//! let result = CoSim::paper(Policy::CoolPimSw).run(kernel.as_mut());
//! println!(
//!     "dc under CoolPIM(SW): {:.2} ms, peak DRAM {:.1} °C, {:.2} op/ns",
//!     result.exec_s * 1e3,
//!     result.max_peak_dram_c,
//!     result.avg_pim_rate_op_ns,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use coolpim_core as core;
pub use coolpim_gpu as gpu;
pub use coolpim_graph as graph;
pub use coolpim_hmc as hmc;
pub use coolpim_telemetry as telemetry;
pub use coolpim_thermal as thermal;
pub use coolpim_trace as trace;
pub use coolpim_validate as validate;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use coolpim_core::cosim::{CoSim, CoSimConfig, CoSimResult};
    pub use coolpim_core::experiment::{mean_speedup, run_matrix, WorkloadResults};
    pub use coolpim_core::observer::{FlightConfig, FlightObserver, Heartbeat};
    pub use coolpim_core::policy::Policy;
    pub use coolpim_gpu::{GpuConfig, GpuSystem};
    pub use coolpim_graph::generate::{GraphKind, GraphSpec};
    pub use coolpim_graph::workloads::{make_kernel, Workload};
    pub use coolpim_graph::Csr;
    pub use coolpim_hmc::{Hmc, HmcConfig, PimOp, Request, TempPhase};
    pub use coolpim_telemetry::{
        FlightRecorder, PostmortemBundle, RecordingSink, Telemetry, TelemetryEvent,
    };
    pub use coolpim_thermal::{Cooling, HmcThermalModel, TrafficSample};
    pub use coolpim_trace::{RecordingSource, TraceReplaySource, WorkloadTrace};
}
