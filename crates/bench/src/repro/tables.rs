//! Tables I–IV: protocol costs, cooling types, instruction mapping and
//! the evaluated system's configuration.

use coolpim_core::cosim::CoSimResult;
use coolpim_core::report::Table;
use coolpim_gpu::GpuConfig;
use coolpim_hmc::command::PimOp;
use coolpim_hmc::{flit, ps_to_ns, HmcConfig};
use coolpim_thermal::cooling::{Cooling, FanCurve};

/// Table I: HMC memory-transaction bandwidth requirement in FLITs.
pub(super) fn table1_flits(_: &[CoSimResult]) -> String {
    let mut t = Table::new(
        "Table I — HMC memory transaction bandwidth requirement (FLIT = 128 bit)",
        &["Type", "Request", "Response", "Total", "Raw bytes"],
    );
    let rows = [
        ("64-byte READ", flit::READ64),
        ("64-byte WRITE", flit::WRITE64),
        ("PIM inst. without return", flit::PIM_NO_RETURN),
        ("PIM inst. with return", flit::PIM_WITH_RETURN),
    ];
    for (name, c) in rows {
        t.row(&[
            name.to_string(),
            format!("{} FLITs", c.request),
            format!("{} FLITs", c.response),
            format!("{}", c.total()),
            format!("{}", c.total_bytes()),
        ]);
    }
    format!(
        "{}\nPIM offloading saves up to {:.0}% of the bandwidth of a 64-byte request.\n",
        t.render(),
        (1.0 - flit::PIM_NO_RETURN.total() as f64 / flit::READ64.total() as f64) * 100.0
    )
}

/// Table II: typical cooling types (thermal resistance and fan power).
pub(super) fn table2_cooling(_: &[CoSimResult]) -> String {
    let mut t = Table::new(
        "Table II — typical cooling types",
        &[
            "Type",
            "Thermal resistance",
            "Cooling power (rel.)",
            "Fan power (W)",
            "Fan-curve est. (W)",
        ],
    );
    for c in Cooling::TABLE2 {
        let r = c.resistance_c_per_w();
        t.row(&[
            c.name().to_string(),
            format!("{r:.1} °C/W"),
            if c.fan_power_relative() == 0.0 {
                "0".to_string()
            } else {
                format!("{:.0}x", c.fan_power_relative())
            },
            format!("{:.2}", c.fan_power_w()),
            format!("{:.2}", FanCurve::PAPER.fan_power_w(r)),
        ]);
    }
    format!(
        "{}\n\
         Suppressing 85 °C under full-loaded PIM needs R < 0.27 °C/W; the fan-curve model\n\
         prices that at {:.1} W — ≈half of a fully-utilized cube (paper §III-B).\n",
        t.render(),
        FanCurve::PAPER.fan_power_w(0.27)
    )
}

/// Table III: examples of PIM instruction mapping.
pub(super) fn table3_mapping(_: &[CoSimResult]) -> String {
    let mut t = Table::new(
        "Table III — PIM instruction ↔ CUDA atomic mapping",
        &["Type", "PIM instruction", "Non-PIM (CUDA)", "Returns data"],
    );
    for op in PimOp::ALL {
        t.row(&[
            format!("{:?}", op.class()),
            format!("{op:?}"),
            format!("{:?}", op.cuda_equivalent()),
            format!("{}", op.returns_data()),
        ]);
    }
    format!("{}\n", t.render())
}

/// Table IV: performance-evaluation configuration.
pub(super) fn table4_config(_: &[CoSimResult]) -> String {
    let g = GpuConfig::paper();
    let h = HmcConfig::hmc20();
    let mut t = Table::new(
        "Table IV — performance evaluation configuration",
        &["Component", "Configuration"],
    );
    let rows: [(&str, String); 10] = [
        (
            "Host",
            format!(
                "GPU, {} PTX SMs, {} threads/warp, {:.1} GHz",
                g.sms,
                g.threads_per_warp,
                g.clock_hz / 1e9
            ),
        ),
        (
            "",
            format!(
                "{} KB private L1D and {} MB {}-way L2 cache",
                g.l1_bytes / 1024,
                g.l2_bytes / (1024 * 1024),
                g.l2_ways
            ),
        ),
        ("HMC", "8 GB cube, 1 logic die, 8 DRAM dies".into()),
        (
            "",
            format!(
                "{} vaults, {} DRAM banks",
                h.vaults,
                h.vaults * h.banks_per_vault
            ),
        ),
        (
            "",
            format!(
                "tCL = tRCD = tRP = {:.2} ns, tRAS = {:.1} ns",
                ps_to_ns(h.timing.t_cl),
                ps_to_ns(h.timing.t_ras)
            ),
        ),
        (
            "",
            format!(
                "{} links per package, {:.0} GB/s per link ({:.0} GB/s data bandwidth per link)",
                h.links,
                2.0 * h.link_raw_bytes_per_s_per_dir / 1e9,
                h.peak_data_bandwidth() / h.links as f64 / 1e9
            ),
        ),
        ("DRAM", "Temp. phases: 0-85 °C, 85-95 °C, 95-105 °C".into()),
        ("", "20% DRAM freq reduction per higher temp. phase".into()),
        (
            "Benchmark",
            "GraphBIG-style workload suite (10 kernels)".into(),
        ),
        (
            "",
            "LDBC-like synthetic social graph (R-MAT, skewed)".into(),
        ),
    ];
    for (component, config) in rows {
        t.row(&[component.into(), config]);
    }
    format!("{}\n", t.render())
}
