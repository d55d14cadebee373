//! Determinism guard: two runs with identical seed + configuration must
//! produce the identical `config_hash` and bit-identical gated metrics.
//!
//! This is the property CI's `obs gate run` on replicated records leans
//! on — it gates a freshly-run replicate set against a committed
//! baseline produced with the *same seeds*, so any non-determinism in
//! the stack (graph draw, co-sim scheduling, replicate folding) would
//! surface here first, as a flaking gate.

use coolpim_bench::gate::RUN;
use coolpim_bench::replicate::fold_replicates;
use coolpim_bench::runrec::RunRecord;
use coolpim_core::cosim::{CoSim, CoSimConfig};
use coolpim_core::experiment::run_replicates;
use coolpim_core::policy::Policy;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};

const CONFIG: &str = "workload=dc policy=coolpim-sw scale=10 seeds=1,2,3";

fn replicated_record() -> RunRecord {
    let seeds = [1u64, 2, 3];
    let results = run_replicates(
        GraphSpec::tiny(),
        Workload::Dc,
        Policy::CoolPimSw,
        CoSimConfig::default(),
        &seeds,
    );
    let runs: Vec<RunRecord> = results
        .iter()
        .map(|r| RunRecord::from_cosim("dc-coolpim-sw", CONFIG, r))
        .collect();
    fold_replicates("dc-coolpim-sw", CONFIG, &seeds, &runs)
}

#[test]
fn identical_seeds_and_config_fold_to_identical_records() {
    let a = replicated_record();
    let b = replicated_record();
    assert_eq!(a.config_hash, b.config_hash, "config hash must be stable");
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(
        a.metrics.len(),
        b.metrics.len(),
        "replicate folding produced different metric sets"
    );
    // Bit-identical, not approximately equal: the replicate pool may
    // schedule runs in any order, but results are gathered by seed index
    // and every run is deterministic, so even the last float bit must
    // agree — including the bootstrap CIs, whose RNG is seeded from the
    // config hash.
    for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(na, nb, "metric order diverged");
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "metric {na} not bit-identical: {va} vs {vb}"
        );
    }
    // And specifically every gated metric that exists in the record.
    for gate in RUN {
        if let (Some(x), Some(y)) = (a.metric(gate.key), b.metric(gate.key)) {
            assert_eq!(x.to_bits(), y.to_bits(), "gated metric {}", gate.key);
        }
    }
}

#[test]
fn single_runs_with_identical_seed_are_bit_identical() {
    let run = || {
        let g = GraphSpec::tiny().build();
        let mut k = make_kernel(Workload::Dc, &g);
        CoSim::new(Policy::CoolPimSw, CoSimConfig::default()).run(k.as_mut())
    };
    let a = run();
    let b = run();
    assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
    assert_eq!(a.ext_data_bytes.to_bits(), b.ext_data_bytes.to_bits());
    assert_eq!(a.max_peak_dram_c.to_bits(), b.max_peak_dram_c.to_bits());
    assert_eq!(
        a.avg_pim_rate_op_ns.to_bits(),
        b.avg_pim_rate_op_ns.to_bits()
    );
    assert_eq!(a.throttle_steps, b.throttle_steps);
}
