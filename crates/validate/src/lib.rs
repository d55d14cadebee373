//! # coolpim-validate
//!
//! The lockstep oracle for the CoolPIM workspace: every swappable
//! component seam — [`ThermalSolve`](coolpim_thermal::ThermalSolve),
//! [`OffloadController`](coolpim_gpu::OffloadController),
//! [`VaultTiming`](coolpim_hmc::VaultTiming) — ships a *reference*
//! implementation (simple, auditable, independently derived) alongside
//! the *optimized* one the simulator runs. This crate drives the two
//! sides of each seam in lockstep on property-generated inputs,
//! snapshots the full intermediate state every epoch, and reports the
//! **first divergence** with causal context, so a rewrite of any hot
//! path can be proven behaviourally equivalent instead of eyeballed.
//!
//! Layout:
//!
//! * [`state`] — the per-epoch [`EpochState`] snapshot, ordered
//!   field-by-field comparison, and a flat-JSON serialisation for
//!   storing diverging traces;
//! * [`scenario`] — seeded input generation (traffic scenarios,
//!   controller scripts, vault access scripts) and greedy
//!   delta-debugging [`shrink`]ing;
//! * [`lockstep`] — the drivers: per-seam
//!   ([`lockstep_thermal`](lockstep::lockstep_thermal),
//!   [`lockstep_controller`](lockstep::lockstep_controller),
//!   [`lockstep_vault`](lockstep::lockstep_vault)) and the full-system
//!   [`lockstep_system`] that exercises all three seams in one epoch
//!   loop;
//! * [`broken`] — deliberately perturbed solver variants used to prove
//!   the oracle *catches* divergence at the exact epoch it is injected;
//! * [`replay`] — the record→replay equivalence oracle: a live run, its
//!   recorded trace replayed through the production source *and* the
//!   streaming reference twin, compared metric-by-metric for bit
//!   equality (with trace corruptions as the matching self-test).
//!
//! The `validate` bin wraps all of this behind seed/scale/tolerance
//! flags; CI runs it on fixed seeds as the `lockstep-gate` job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broken;
pub mod lockstep;
pub mod replay;
pub mod scenario;
pub mod state;

pub use broken::{Perturbation, PerturbedTransient};
pub use lockstep::{lockstep_system, lockstep_system_on, Divergence, SystemReport};
pub use replay::{lockstep_replay, ReplayReport, TracePerturbation};
pub use scenario::{shrink, Scale, ThermalScenario};
pub use state::{EpochState, FieldDivergence};
