//! # coolpim-thermal
//!
//! Power modelling and compact 3D thermal simulation for HMC-class
//! die-stacked memory cubes, in the style of KitFox + 3D-ICE as used by the
//! CoolPIM paper (IPDPS 2018).
//!
//! The crate provides:
//!
//! * a material/geometry description of a die stack ([`layers`], [`materials`]),
//! * a vault-grid floorplan that localises power injection ([`floorplan`]),
//! * an RC thermal network assembled from the stack ([`grid`]),
//! * steady-state and transient solvers ([`solver`]),
//! * a traffic-to-power model with the paper's published energy constants
//!   ([`power`]),
//! * a cooling-solution library reproducing Table II of the paper
//!   ([`cooling`]),
//! * a high-level [`model::HmcThermalModel`] façade used by the
//!   co-simulator — generic over the [`solver::ThermalSolve`] seam so any
//!   conforming solver can be swapped in,
//! * the canonical plain-Gauss–Seidel reference solver the optimized one
//!   is validated against ([`reference`](mod@reference)), and
//! * HMC 1.1 prototype calibration data for reproducing Figures 1 and 2
//!   ([`hmc11`]).
//!
//! ## Unit conventions
//!
//! All temperatures are degrees Celsius (`f64`), power is Watts, energy is
//! Joules, geometry is metres, and time is seconds unless a name says
//! otherwise.
//!
//! ## Quick example
//!
//! ```
//! use coolpim_thermal::cooling::Cooling;
//! use coolpim_thermal::model::HmcThermalModel;
//! use coolpim_thermal::power::TrafficSample;
//!
//! // HMC 2.0 cube under a commodity-server active heat sink.
//! let mut model = HmcThermalModel::hmc20(Cooling::CommodityServer);
//! // Drive 320 GB/s of external data traffic for 10 ms.
//! let sample = TrafficSample::external_stream(320.0e9, 1e-3);
//! let mut readout = model.steady_state(&sample);
//! assert!(readout.peak_dram_c > 70.0 && readout.peak_dram_c < 90.0);
//! // Idle cube is much cooler.
//! readout = model.steady_state(&TrafficSample::idle(1e-3));
//! assert!(readout.peak_dram_c < 45.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cooling;
pub mod floorplan;
pub mod grid;
pub mod hmc11;
pub mod layers;
pub mod materials;
pub mod model;
pub mod power;
pub mod reference;
pub mod solver;

pub use cooling::Cooling;
pub use model::{HmcThermalModel, ThermalReadout};
pub use power::TrafficSample;
pub use reference::ReferenceTransient;
pub use solver::ThermalSolve;

/// Default ambient temperature used throughout the paper reproduction (°C).
pub const AMBIENT_C: f64 = 25.0;

/// Upper bound of the DRAM normal operating temperature range (°C).
///
/// Above this the JEDEC extended range applies (doubled refresh) and the
/// paper's HMC model derates DRAM frequency by 20 %.
pub const NORMAL_TEMP_LIMIT_C: f64 = 85.0;

/// Upper bound of the extended operating range (°C); a second derating
/// phase applies between this and [`SHUTDOWN_TEMP_C`].
pub const EXTENDED_TEMP_LIMIT_C: f64 = 95.0;

/// The HMC operating limit (°C): the cube shuts down above this.
pub const SHUTDOWN_TEMP_C: f64 = 105.0;
