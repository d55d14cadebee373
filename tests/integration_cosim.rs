//! Cross-crate integration tests: the full GPU ⟷ HMC ⟷ thermal ⟷
//! throttling loop on a reduced platform (tiny GPU, medium graph), fast
//! enough for CI yet large enough that offloading and thermal effects are
//! representative.

use coolpim::core::cosim::{CoSim, CoSimConfig};
use coolpim::prelude::*;

fn tiny_cfg() -> CoSimConfig {
    CoSimConfig {
        gpu: GpuConfig::tiny(),
        ..CoSimConfig::default()
    }
}

fn medium_graph() -> Csr {
    GraphSpec::test_medium().build()
}

#[test]
fn every_workload_completes_under_every_policy() {
    let g = GraphSpec::tiny().build();
    for w in Workload::ALL {
        for p in Policy::ALL {
            let mut k = make_kernel(w, &g);
            let r = CoSim::new(p, tiny_cfg()).run(k.as_mut());
            assert!(!r.shutdown, "{} under {} shut down", w.name(), p.name());
            assert!(!r.timed_out, "{} under {} timed out", w.name(), p.name());
            assert!(r.exec_s > 0.0);
        }
    }
}

#[test]
fn non_offloading_never_issues_pim() {
    let g = medium_graph();
    let mut k = make_kernel(Workload::PageRank, &g);
    let r = CoSim::new(Policy::NonOffloading, tiny_cfg()).run(k.as_mut());
    assert_eq!(r.hmc.pim_ops, 0);
    assert_eq!(r.gpu.pim_lane_ops, 0);
    assert!(r.gpu.host_lane_ops > 0);
}

#[test]
fn naive_offloads_every_atomic() {
    let g = medium_graph();
    let mut k = make_kernel(Workload::PageRank, &g);
    let r = CoSim::new(Policy::NaiveOffloading, tiny_cfg()).run(k.as_mut());
    assert_eq!(r.gpu.host_lane_ops, 0);
    assert!(r.gpu.pim_lane_ops > 0);
    assert!((r.gpu.offload_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn offloading_reduces_external_traffic_on_large_working_sets() {
    let g = medium_graph();
    let mut base = make_kernel(Workload::Dc, &g);
    let rb = CoSim::new(Policy::NonOffloading, tiny_cfg()).run(base.as_mut());
    let mut naive = make_kernel(Workload::Dc, &g);
    let rn = CoSim::new(Policy::NaiveOffloading, tiny_cfg()).run(naive.as_mut());
    assert!(
        rn.ext_data_bytes < rb.ext_data_bytes,
        "naive {} !< baseline {}",
        rn.ext_data_bytes,
        rb.ext_data_bytes
    );
}

#[test]
fn coolpim_rate_never_exceeds_naive_rate() {
    let g = medium_graph();
    for w in [Workload::Dc, Workload::PageRank] {
        let mut naive = make_kernel(w, &g);
        let rn = CoSim::new(Policy::NaiveOffloading, tiny_cfg()).run(naive.as_mut());
        for p in [Policy::CoolPimSw, Policy::CoolPimHw] {
            let mut k = make_kernel(w, &g);
            let rc = CoSim::new(p, tiny_cfg()).run(k.as_mut());
            assert!(
                rc.avg_pim_rate_op_ns <= rn.avg_pim_rate_op_ns + 1e-9,
                "{} under {}: {} > naive {}",
                w.name(),
                p.name(),
                rc.avg_pim_rate_op_ns,
                rn.avg_pim_rate_op_ns
            );
        }
    }
}

#[test]
fn ideal_thermal_is_at_least_as_fast_as_naive() {
    let g = medium_graph();
    let mut naive = make_kernel(Workload::Dc, &g);
    let rn = CoSim::new(Policy::NaiveOffloading, tiny_cfg()).run(naive.as_mut());
    let mut ideal = make_kernel(Workload::Dc, &g);
    let ri = CoSim::new(Policy::IdealThermal, tiny_cfg()).run(ideal.as_mut());
    assert!(
        ri.exec_s <= rn.exec_s * 1.01,
        "ideal {} slower than naive {}",
        ri.exec_s,
        rn.exec_s
    );
}

#[test]
fn timeline_is_monotone_in_time_and_covers_the_run() {
    let g = medium_graph();
    let mut k = make_kernel(Workload::BfsDwc, &g);
    let r = CoSim::new(Policy::CoolPimHw, tiny_cfg()).run(k.as_mut());
    let mut last = 0.0;
    for s in &r.timeline {
        assert!(s.t_s() >= last);
        last = s.t_s();
    }
    assert!(
        (last - r.exec_s).abs() < 1e-3,
        "timeline end {last} vs exec {}",
        r.exec_s
    );
}

#[test]
fn functional_results_are_policy_invariant() {
    // The offloading policy must never change *what* is computed.
    use coolpim::graph::workloads::bfs::{BfsKernel, BfsVariant};
    let g = medium_graph();
    let src = coolpim::graph::workloads::default_source(&g);
    let mut levels: Vec<Vec<u32>> = Vec::new();
    for p in [
        Policy::NonOffloading,
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
    ] {
        let mut k = BfsKernel::new(g.clone(), BfsVariant::Dwc, src);
        let _ = CoSim::new(p, tiny_cfg()).run(&mut k);
        levels.push(k.levels().to_vec());
    }
    assert_eq!(levels[0], levels[1]);
    assert_eq!(levels[0], levels[2]);
    assert_eq!(levels[0], coolpim::graph::reference::bfs_levels(&g, src));
}
