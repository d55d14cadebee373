//! Quickstart: co-simulate one graph workload on the paper's GPU + HMC 2.0
//! platform and see what thermal-aware source throttling buys.
//!
//! Run with `cargo run --release --example quickstart`.

use coolpim::prelude::*;

fn main() {
    // A mid-size LDBC-like graph so the example finishes in seconds yet
    // the atomic working set exceeds the L2, where offloading pays off.
    // (The paper-scale dataset is `GraphSpec::ldbc_like()`.)
    let spec = GraphSpec {
        scale: 18,
        avg_degree: 12,
        ..GraphSpec::ldbc_like()
    };
    let graph = spec.build();
    println!(
        "graph: {} vertices, {} edges (LDBC-like R-MAT)",
        graph.vertices(),
        graph.edge_count()
    );

    // Degree centrality — the suite's most atomic-dominated kernel.
    for policy in [
        Policy::NonOffloading,
        Policy::NaiveOffloading,
        Policy::CoolPimSw,
    ] {
        let mut kernel = make_kernel(Workload::Dc, &graph);
        let result = CoSim::paper(policy).run(kernel.as_mut());
        println!(
            "{:<18} runtime {:>7.3} ms | avg PIM rate {:>5.2} op/ns | peak DRAM {:>5.1} °C | ext traffic {:>6.1} MB",
            policy.name(),
            result.exec_s * 1e3,
            result.avg_pim_rate_op_ns,
            result.max_peak_dram_c,
            result.ext_data_bytes / 1e6,
        );
    }

    println!();
    println!("Naïve offloading saves bandwidth but overheats the cube (DRAM derating);");
    println!("CoolPIM throttles the offloading intensity at the source and keeps the");
    println!("stack inside the normal operating range. Run `repro eval_all` (the");
    println!("coolpim-bench repro binary) for the full paper-scale evaluation.");
}
