//! Lockstep validation CLI: runs reference and optimized component
//! implementations side by side on seeded, property-generated inputs and
//! reports the first divergence — shrunk to a minimal diverging traffic
//! scenario — with causal context. Exit code 0 means every checked seam
//! agreed within tolerance; 1 means a divergence was found (inverted by
//! `--expect-divergence`, the self-test mode CI uses to prove the oracle
//! still catches injected defects).
//!
//! ```text
//! validate [--seed N] [--cases N] [--scale quick|full]
//!          [--component system|thermal|controller|vault|replay|all]
//!          [--temp-tol-c T] [--perturb short-sweep|wrong-omega|skip-last-node]
//!          [--perturb-epoch E]
//!          [--perturb-trace bump-compute|shift-address|drop-last-launch]
//!          [--expect-divergence] [--dump]
//! ```
//!
//! `--component replay` runs the record→replay equivalence oracle: a
//! fixed-seed Dc run is recorded through the trace tee, round-tripped
//! through the binary format, and replayed through both the production
//! and the streaming reference source — every run-record metric must be
//! bit-identical. `--perturb-trace` corrupts the trace in between (the
//! CI self-test pairs it with `--expect-divergence`).

use coolpim_core::estimate::HardwareProfile;
use coolpim_core::hw_dynt::{HwDynT, HwDynTConfig};
use coolpim_core::reference::{ReferenceHwDynT, ReferenceSwDynT};
use coolpim_core::sw_dynt::{SwDynT, SwDynTConfig};
use coolpim_gpu::kernel::KernelProfile;
use coolpim_hmc::vault::Vault;
use coolpim_hmc::ReferenceVault;
use coolpim_telemetry::Tolerance;
use coolpim_thermal::{Cooling, HmcThermalModel, ReferenceTransient};
use coolpim_validate::lockstep::{
    lockstep_controller, lockstep_system_on, lockstep_thermal, lockstep_vault, Divergence,
};
use coolpim_validate::replay::{lockstep_replay, TracePerturbation};
use coolpim_validate::scenario::{
    generate_controller_script, generate_vault_script, shrink, Scale, ThermalScenario,
};
use coolpim_validate::{Perturbation, PerturbedTransient};

struct Args {
    seed: u64,
    cases: u64,
    scale: Scale,
    component: String,
    temp_tol_c: f64,
    perturb: Option<Perturbation>,
    perturb_epoch: u64,
    perturb_trace: Option<TracePerturbation>,
    expect_divergence: bool,
    dump: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: validate [--seed N] [--cases N] [--scale quick|full] \
         [--component system|thermal|controller|vault|replay|all] [--temp-tol-c T] \
         [--perturb short-sweep|wrong-omega|skip-last-node] [--perturb-epoch E] \
         [--perturb-trace bump-compute|shift-address|drop-last-launch] \
         [--expect-divergence] [--dump]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 7,
        cases: 1,
        scale: Scale::Quick,
        component: "all".to_string(),
        temp_tol_c: 0.25,
        perturb: None,
        perturb_epoch: 5,
        perturb_trace: None,
        expect_divergence: false,
        dump: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--cases" => args.cases = value("--cases").parse().unwrap_or_else(|_| usage()),
            "--scale" => {
                args.scale = Scale::parse(&value("--scale")).unwrap_or_else(|| usage());
            }
            "--component" => {
                args.component = value("--component");
                if !matches!(
                    args.component.as_str(),
                    "system" | "thermal" | "controller" | "vault" | "replay" | "all"
                ) {
                    usage()
                }
            }
            "--temp-tol-c" => {
                args.temp_tol_c = value("--temp-tol-c").parse().unwrap_or_else(|_| usage())
            }
            "--perturb" => {
                let v = value("--perturb");
                if v == "none" {
                    args.perturb = None;
                } else {
                    args.perturb = Some(Perturbation::parse(&v).unwrap_or_else(|| usage()));
                }
            }
            "--perturb-epoch" => {
                args.perturb_epoch = value("--perturb-epoch").parse().unwrap_or_else(|_| usage())
            }
            "--perturb-trace" => {
                let v = value("--perturb-trace");
                if v == "none" {
                    args.perturb_trace = None;
                } else {
                    args.perturb_trace =
                        Some(TracePerturbation::parse(&v).unwrap_or_else(|| usage()));
                }
            }
            "--expect-divergence" => args.expect_divergence = true,
            "--dump" => args.dump = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn fresh_model(scale: Scale) -> HmcThermalModel {
    match scale {
        Scale::Quick => HmcThermalModel::hmc11(Cooling::CommodityServer),
        Scale::Full => HmcThermalModel::hmc20(Cooling::CommodityServer),
    }
}

fn report_divergence(d: &Divergence, scenario: &ThermalScenario, dump: bool) {
    println!(
        "DIVERGED seed {} ({} epochs in scenario):",
        scenario.seed,
        scenario.samples.len()
    );
    print!("{d}");
    if let Some(pm) = &d.postmortem {
        println!(
            "  postmortem bundle ({} bytes) captured from the reference side",
            pm.len()
        );
        if dump {
            println!("{pm}");
        }
    }
    if dump {
        println!("  reference snapshot: {}", d.reference.encode());
        println!("  optimized snapshot: {}", d.optimized.encode());
    }
}

/// Runs the system (or thermal-only) lockstep for one seed, shrinking on
/// divergence. Returns true when the sides agreed.
fn run_thermal_or_system(args: &Args, seed: u64, system: bool) -> bool {
    let tol = Tolerance::abs(args.temp_tol_c);
    let scenario = ThermalScenario::generate(seed, args.scale);
    let perturb = args.perturb;
    let from_epoch = args.perturb_epoch;

    // Silent runner — the shrink loop replays it many times.
    let run = |sc: &ThermalScenario| -> Result<String, Box<Divergence>> {
        if system {
            let result = match perturb {
                Some(p) => lockstep_system_on(
                    sc,
                    tol,
                    fresh_model(args.scale)
                        .with_solver(|g, a, c| PerturbedTransient::new(g, a, c, p, from_epoch)),
                ),
                None => lockstep_system_on(sc, tol, fresh_model(args.scale)),
            };
            result.map(|report| {
                let mut s = format!(
                    "seed {seed}: {} epochs in lockstep, {} warnings delivered, max |dT| {:.2e} °C",
                    report.epochs.len(),
                    report.warnings_delivered,
                    report.max_temp_dev_c
                );
                for p in &report.pairs {
                    s.push_str(&format!("\n  {p}"));
                }
                s
            })
        } else {
            let reference = fresh_model(args.scale).with_solver(ReferenceTransient::new);
            let result = match perturb {
                Some(p) => lockstep_thermal(
                    reference,
                    fresh_model(args.scale)
                        .with_solver(|g, a, c| PerturbedTransient::new(g, a, c, p, from_epoch)),
                    sc,
                    tol,
                ),
                None => lockstep_thermal(reference, fresh_model(args.scale), sc, tol),
            };
            result.map(|epochs| format!("seed {seed}: {} thermal epochs in lockstep", epochs.len()))
        }
    };

    match run(&scenario) {
        Ok(summary) => {
            println!("{summary}");
            true
        }
        Err(first) => {
            println!(
                "seed {seed}: diverged at epoch {} — shrinking the scenario…",
                first.epoch
            );
            let minimal = shrink(&scenario.samples, |candidate| {
                run(&scenario.with_samples(candidate.to_vec())).is_err()
            });
            let min_scenario = scenario.with_samples(minimal);
            match run(&min_scenario) {
                Err(d) => report_divergence(&d, &min_scenario, args.dump),
                Ok(_) => report_divergence(&first, &scenario, args.dump),
            }
            false
        }
    }
}

fn run_controllers(seed: u64) -> bool {
    let hw = HardwareProfile::paper();
    let kernel = KernelProfile {
        pim_intensity: 0.3,
        divergence_ratio: 0.2,
    };
    let script = generate_controller_script(seed, 500);
    let mut ok = true;
    let mut reference = ReferenceSwDynT::new(SwDynTConfig::default(), &hw, &kernel);
    let mut optimized = SwDynT::new(SwDynTConfig::default(), &hw, &kernel);
    match lockstep_controller(&mut reference, &mut optimized, &script) {
        Ok(n) => println!("seed {seed}: sw-dynt pair agreed on {n} controller ops"),
        Err(d) => {
            println!(
                "DIVERGED seed {seed} at controller op {}: {}",
                d.op_index, d.detail
            );
            ok = false;
        }
    }
    let mut reference = ReferenceHwDynT::new(HwDynTConfig::default());
    let mut optimized = HwDynT::new(HwDynTConfig::default());
    match lockstep_controller(&mut reference, &mut optimized, &script) {
        Ok(n) => println!("seed {seed}: hw-dynt pair agreed on {n} controller ops"),
        Err(d) => {
            println!(
                "DIVERGED seed {seed} at controller op {}: {}",
                d.op_index, d.detail
            );
            ok = false;
        }
    }
    ok
}

fn run_vaults(seed: u64, scale: Scale) -> bool {
    let vaults = scale.vaults();
    let script = generate_vault_script(seed, 800, vaults);
    let mut reference: Vec<ReferenceVault> = (0..vaults)
        .map(|_| ReferenceVault::new(16, 500, 2_000, 10.0e9))
        .collect();
    let mut optimized: Vec<Vault> = (0..vaults)
        .map(|_| Vault::new(16, 500, 2_000, 10.0e9))
        .collect();
    match lockstep_vault(&mut reference, &mut optimized, &script) {
        Ok(n) => {
            println!("seed {seed}: vault pair integer-identical on {n} accesses");
            true
        }
        Err(d) => {
            println!(
                "DIVERGED seed {seed} at vault op {}: {}",
                d.op_index, d.detail
            );
            false
        }
    }
}

/// Runs the record→replay equivalence oracle on a fixed-seed Dc graph.
/// Returns true when live and both replay paths are bit-identical.
fn run_replay(args: &Args, seed: u64) -> bool {
    use coolpim_core::cosim::CoSimConfig;
    use coolpim_core::policy::Policy;
    use coolpim_graph::generate::GraphSpec;
    use coolpim_graph::workloads::Workload;

    let spec = match args.scale {
        Scale::Quick => GraphSpec {
            scale: 12,
            seed,
            ..GraphSpec::tiny()
        },
        Scale::Full => GraphSpec {
            scale: 16,
            avg_degree: 16,
            seed,
            ..GraphSpec::ldbc_like()
        },
    };
    // Dc is the oracle workload, but it runs as a single kernel launch,
    // so the drop-last-launch corruption would be a silent no-op on it;
    // that self-test runs on multi-launch KCore instead.
    let workload = match args.perturb_trace {
        Some(TracePerturbation::DropLastLaunch) => Workload::KCore,
        _ => Workload::Dc,
    };
    match lockstep_replay(
        spec,
        workload,
        Policy::CoolPimSw,
        CoSimConfig::default(),
        args.perturb_trace,
    ) {
        Ok(report) => {
            println!(
                "seed {seed}: record→replay bit-identical — {} metrics (eager) + {} (streaming) \
                 over {} blocks / {} ops, config hash {:016x}",
                report.eager_metrics,
                report.streaming_metrics,
                report.trace.total_blocks(),
                report.trace.total_ops(),
                report.trace.config_hash,
            );
            true
        }
        Err(d) => {
            println!("DIVERGED seed {seed}: {d}");
            false
        }
    }
}

fn main() {
    let args = parse_args();
    let mut all_agreed = true;
    for case in 0..args.cases {
        let seed = args.seed + case;
        let agreed = match args.component.as_str() {
            "system" => run_thermal_or_system(&args, seed, true),
            "thermal" => run_thermal_or_system(&args, seed, false),
            "controller" => run_controllers(seed),
            "vault" => run_vaults(seed, args.scale),
            "replay" => run_replay(&args, seed),
            _ => {
                let mut ok = run_thermal_or_system(&args, seed, true);
                ok &= run_controllers(seed);
                ok &= run_vaults(seed, args.scale);
                ok &= run_replay(&args, seed);
                ok
            }
        };
        all_agreed &= agreed;
    }
    let code = match (all_agreed, args.expect_divergence) {
        (true, false) => {
            println!("all lockstep checks agreed");
            0
        }
        (false, true) => {
            println!("divergence found, as expected (--expect-divergence)");
            0
        }
        (true, true) => {
            eprintln!("expected a divergence but every check agreed");
            1
        }
        (false, false) => 1,
    };
    std::process::exit(code)
}
