//! End-to-end tests of the lockstep oracle (`coolpim-validate`), the
//! acceptance criteria of the swappable-component refactor:
//!
//! 1. the shipped reference/optimized pairs agree within tolerance on
//!    property-generated inputs across every seam (thermal solver,
//!    SW-/HW-DynT controllers, vault timing, and the composed system);
//! 2. an intentionally perturbed solver is *caught* — at exactly the
//!    epoch the defect activates, with the diverging state field named
//!    and causal context attached;
//! 3. a diverging scenario shrinks to a minimal input;
//! 4. the full-state snapshot round-trips through its serialized form.

use coolpim::core::estimate::HardwareProfile;
use coolpim::core::hw_dynt::{HwDynT, HwDynTConfig};
use coolpim::core::reference::{ReferenceHwDynT, ReferenceSwDynT};
use coolpim::core::sw_dynt::{SwDynT, SwDynTConfig};
use coolpim::gpu::kernel::KernelProfile;
use coolpim::hmc::vault::Vault;
use coolpim::hmc::ReferenceVault;
use coolpim::telemetry::Tolerance;
use coolpim::thermal::{Cooling, HmcThermalModel};
use coolpim::validate::lockstep::{lockstep_controller, lockstep_vault};
use coolpim::validate::scenario::{generate_controller_script, generate_vault_script, shrink};
use coolpim::validate::{
    lockstep_system, lockstep_system_on, Perturbation, PerturbedTransient, Scale, ThermalScenario,
};

const TOL: Tolerance = Tolerance::abs(0.25);

fn kernel() -> KernelProfile {
    KernelProfile {
        pim_intensity: 0.3,
        divergence_ratio: 0.2,
    }
}

#[test]
fn shipped_system_passes_lockstep_on_fixed_seeds() {
    for seed in [7, 1234] {
        let report = lockstep_system(seed, Scale::Quick, TOL)
            .unwrap_or_else(|d| panic!("seed {seed} diverged: {d}"));
        assert_eq!(report.epochs.len(), Scale::Quick.epochs());
        // The reference/optimized thermal fields track far inside the
        // band on honest implementations.
        assert!(
            report.max_temp_dev_c < 0.01,
            "seed {seed}: max |dT| {} °C",
            report.max_temp_dev_c
        );
        // Control state was live (pool and cap populated each epoch).
        assert!(report
            .epochs
            .iter()
            .all(|s| s.pool_tokens.is_some() && s.warp_cap.is_some()));
    }
}

#[test]
fn perturbed_solver_is_caught_at_the_exact_epoch_with_the_field_named() {
    let scenario = ThermalScenario::generate(7, Scale::Quick);
    let perturb_epoch = 5u64;
    let broken = HmcThermalModel::hmc11(Cooling::CommodityServer).with_solver(|g, a, c| {
        PerturbedTransient::new(g, a, c, Perturbation::WrongOmega, perturb_epoch)
    });
    let d = *lockstep_system_on(&scenario, TOL, broken)
        .expect_err("a diverging solver must be reported");
    // ω > 2 blows up within its first active step: the 0-based epoch 5
    // is the 1-based epoch 6, and the report must say so exactly.
    assert_eq!(d.epoch, perturb_epoch + 1, "caught at the injection epoch");
    assert_eq!(d.field.field, "temps_c", "diverging state field named");
    assert!(d.field.index.is_some(), "node index pinpointed");
    // Causal context rides along: recent traffic plus the reference
    // side's flight-recorder postmortem.
    assert!(!d.context.is_empty());
    let postmortem = d.postmortem.expect("system driver attaches a postmortem");
    let bundle = coolpim::telemetry::PostmortemBundle::parse(&postmortem)
        .expect("postmortem bundle round-trips");
    assert_eq!(bundle.trigger, "lockstep_divergence");
    assert!(!bundle.frames.is_empty());
}

#[test]
fn diverging_scenario_shrinks_to_a_minimal_input() {
    let scenario = ThermalScenario::generate(7, Scale::Quick);
    let perturb_epoch = 5u64;
    let diverges = |samples: &[coolpim::thermal::TrafficSample]| {
        let sc = scenario.with_samples(samples.to_vec());
        let broken = HmcThermalModel::hmc11(Cooling::CommodityServer).with_solver(|g, a, c| {
            PerturbedTransient::new(g, a, c, Perturbation::WrongOmega, perturb_epoch)
        });
        lockstep_system_on(&sc, TOL, broken).is_err()
    };
    assert!(diverges(&scenario.samples), "full scenario diverges");
    let minimal = shrink(&scenario.samples, diverges);
    // The defect activates on the 6th step, so no scenario shorter than
    // 6 epochs can trigger it — the shrinker must land exactly there.
    assert_eq!(minimal.len(), perturb_epoch as usize + 1);
    assert!(diverges(&minimal), "shrunk scenario still diverges");
}

#[test]
fn controller_and_vault_seams_hold_in_lockstep() {
    let hw = HardwareProfile::paper();
    let script = generate_controller_script(1234, 500);
    let mut a = ReferenceSwDynT::new(SwDynTConfig::default(), &hw, &kernel());
    let mut b = SwDynT::new(SwDynTConfig::default(), &hw, &kernel());
    lockstep_controller(&mut a, &mut b, &script).unwrap_or_else(|d| panic!("{}", d.detail));
    let mut a = ReferenceHwDynT::new(HwDynTConfig::default());
    let mut b = HwDynT::new(HwDynTConfig::default());
    lockstep_controller(&mut a, &mut b, &script).unwrap_or_else(|d| panic!("{}", d.detail));

    let script = generate_vault_script(1234, 500, 8);
    let mut refs: Vec<ReferenceVault> = (0..8)
        .map(|_| ReferenceVault::new(16, 500, 2_000, 10.0e9))
        .collect();
    let mut opts: Vec<Vault> = (0..8).map(|_| Vault::new(16, 500, 2_000, 10.0e9)).collect();
    lockstep_vault(&mut refs, &mut opts, &script).unwrap_or_else(|d| panic!("{}", d.detail));
}

#[test]
fn divergence_snapshots_round_trip_through_their_serialized_form() {
    let scenario = ThermalScenario::generate(7, Scale::Quick);
    let broken = HmcThermalModel::hmc11(Cooling::CommodityServer)
        .with_solver(|g, a, c| PerturbedTransient::new(g, a, c, Perturbation::ShortSweep, 3));
    let d = *lockstep_system_on(&scenario, TOL, broken).expect_err("short-sweep diverges");
    for snapshot in [&d.reference, &d.optimized] {
        let line = snapshot.encode();
        let back = coolpim::validate::EpochState::decode(&line).expect("snapshot decodes");
        assert_eq!(&back, snapshot, "lossless round trip");
    }
    // The two snapshots reproduce the reported divergence when compared
    // again after the round trip.
    let again = d
        .reference
        .first_divergence(&d.optimized, TOL)
        .expect("still divergent");
    assert_eq!(again.field, d.field.field);
}
