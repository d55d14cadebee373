//! The four system configurations of the paper's evaluation (§V-B).

use coolpim_gpu::controller::{AlwaysOffload, NeverOffload, OffloadController};
use coolpim_gpu::kernel::KernelProfile;

use crate::estimate::HardwareProfile;
use crate::hw_dynt::{HwDynT, HwDynTConfig};
use crate::multi_level::GraduatedHwDynT;
use crate::sw_dynt::{SwDynT, SwDynTConfig};

/// Offloading policy / system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Conventional architecture: HMC as plain GPU memory, no PIM.
    NonOffloading,
    /// PEI-style offloading of every atomic, no source control.
    NaiveOffloading,
    /// CoolPIM with software dynamic throttling (SW-DynT).
    CoolPimSw,
    /// CoolPIM with hardware dynamic throttling (HW-DynT).
    CoolPimHw,
    /// Unlimited cooling: full offloading, temperature never fed back.
    IdealThermal,
}

impl Policy {
    /// The five configurations in the paper's figure order.
    pub const ALL: [Policy; 5] = [
        Policy::NonOffloading,
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
        Policy::CoolPimHw,
        Policy::IdealThermal,
    ];

    /// Label as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::NonOffloading => "Non-Offloading",
            Policy::NaiveOffloading => "Naive-Offloading",
            Policy::CoolPimSw => "CoolPIM(SW)",
            Policy::CoolPimHw => "CoolPIM(HW)",
            Policy::IdealThermal => "IdealThermal",
        }
    }

    /// Whether the thermal readout is fed back into the cube (false only
    /// for the ideal-cooling scenario).
    pub fn thermal_feedback(self) -> bool {
        self != Policy::IdealThermal
    }

    /// The controller this policy runs by default: SW-DynT and HW-DynT
    /// with their paper tunables, never or always offloading otherwise.
    pub fn default_controller(self) -> ControllerConfig {
        match self {
            Policy::NonOffloading => ControllerConfig::Never,
            Policy::NaiveOffloading | Policy::IdealThermal => ControllerConfig::Always,
            Policy::CoolPimSw => ControllerConfig::Sw(SwDynTConfig::default()),
            Policy::CoolPimHw => ControllerConfig::Hw(HwDynTConfig::default()),
        }
    }

    /// Builds the offloading controller for this policy, given the
    /// kernel's static profile (used by SW-DynT's Eq. 1 initialisation).
    pub fn controller(self, kernel: &KernelProfile) -> Box<dyn OffloadController> {
        self.default_controller().build(kernel)
    }
}

/// An offloading controller with its tunables: the one value that
/// builds it, so two equal configs build controllers that act alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerConfig {
    /// Never offload (the non-offloading baseline).
    Never,
    /// Offload every atomic, with no source control.
    Always,
    /// SW-DynT, its pool initialised by Eq. 1.
    Sw(SwDynTConfig),
    /// HW-DynT.
    Hw(HwDynTConfig),
    /// HW-DynT graded by warning severity ([`GraduatedHwDynT`]).
    Graduated(HwDynTConfig),
}

impl ControllerConfig {
    /// Builds the controller for a kernel with the static profile
    /// `kernel` (SW-DynT's Eq. 1 input; the others ignore it).
    pub fn build(self, kernel: &KernelProfile) -> Box<dyn OffloadController> {
        match self {
            ControllerConfig::Never => Box::new(NeverOffload),
            ControllerConfig::Always => Box::new(AlwaysOffload),
            ControllerConfig::Sw(cfg) => {
                Box::new(SwDynT::new(cfg, &HardwareProfile::paper(), kernel))
            }
            ControllerConfig::Hw(cfg) => Box::new(HwDynT::new(cfg)),
            ControllerConfig::Graduated(cfg) => Box::new(GraduatedHwDynT::new(cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_figures() {
        assert_eq!(Policy::NaiveOffloading.name(), "Naive-Offloading");
        assert_eq!(Policy::CoolPimSw.name(), "CoolPIM(SW)");
    }

    #[test]
    fn only_ideal_skips_feedback() {
        for p in Policy::ALL {
            assert_eq!(p.thermal_feedback(), p != Policy::IdealThermal);
        }
    }

    #[test]
    fn controllers_build_for_every_policy() {
        let k = KernelProfile {
            pim_intensity: 0.3,
            divergence_ratio: 0.1,
        };
        for p in Policy::ALL {
            let mut c = p.controller(&k);
            let grants = c.on_block_launch(0, 0);
            if p == Policy::NonOffloading {
                assert!(!grants);
            } else {
                assert!(grants);
            }
        }
    }
}

/// Guards the premise of sweep sharing (`experiment::run_source_sweep`):
/// a policy's controller acts on the cube's warning bit alone, never on
/// the temperature readings the loop also offers it.
#[cfg(test)]
mod reading_tests {
    use super::*;
    use crate::cosim::{CoSim, CoSimConfig};
    use coolpim_gpu::controller::OffloadController;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::{make_kernel, Workload};
    use coolpim_hmc::Ps;
    use coolpim_telemetry::{RecordingSink, Telemetry, TelemetryEvent};

    /// Forwards every call but the temperature readings.
    struct Deaf(Box<dyn OffloadController>);

    impl OffloadController for Deaf {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn on_block_launch(&mut self, block_id: usize, now: Ps) -> bool {
            self.0.on_block_launch(block_id, now)
        }
        fn on_block_complete(&mut self, block_id: usize, was_pim: bool, now: Ps) {
            self.0.on_block_complete(block_id, was_pim, now);
        }
        fn warp_may_offload(&mut self, sm: usize, warp_slot: usize, now: Ps) -> bool {
            self.0.warp_may_offload(sm, warp_slot, now)
        }
        fn on_thermal_warning(&mut self, now: Ps, warning_id: u64) {
            self.0.on_thermal_warning(now, warning_id);
        }
        fn drain_control_events(&mut self, out: &mut Vec<TelemetryEvent>) {
            self.0.drain_control_events(out);
        }
    }

    #[test]
    fn every_policy_controller_ignores_temperature_readings() {
        let g = GraphSpec::test_medium().build();
        // A hot loop: warnings from the first epoch, throttling after.
        let cfg = CoSimConfig {
            gpu: coolpim_gpu::GpuConfig::tiny(),
            warning_threshold_c: 40.0,
            ..CoSimConfig::default()
        };
        for policy in Policy::ALL {
            let run = |deaf: bool| {
                let (sink, log) = RecordingSink::new();
                let sim = CoSim::new(policy, cfg.clone())
                    .with_telemetry(Telemetry::with_sink(Box::new(sink)));
                let mut kernel = make_kernel(Workload::PageRank, &g);
                let r = if deaf {
                    let mut ctrl = Deaf(policy.controller(&kernel.profile()));
                    sim.run_with_controller(kernel.as_mut(), &mut ctrl, policy.thermal_feedback())
                } else {
                    sim.run(kernel.as_mut())
                };
                (format!("{r:?}"), log.snapshot())
            };
            let (heard, deaf) = (run(false), run(true));
            let warned = heard.0.contains("thermal_warnings_raised");
            assert_eq!(warned, policy.thermal_feedback(), "{}", policy.name());
            assert_eq!(heard.0, deaf.0, "{}", policy.name());
            assert_eq!(heard.1, deaf.1, "{}", policy.name());
        }
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn all_lists_every_policy_once() {
        assert_eq!(Policy::ALL.len(), 5);
        for (i, a) in Policy::ALL.iter().enumerate() {
            for b in Policy::ALL.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
