//! Figs. 1–5: the HMC 1.1 prototype measurements, the thermal model's
//! validation, and the HMC 2.0 model's heat map and sweeps.

use std::fmt::Write;

use coolpim_core::cosim::CoSimResult;
use coolpim_core::report::Table;
use coolpim_thermal::cooling::Cooling;
use coolpim_thermal::hmc11::{
    max_sustainable_bandwidth, run_fig1, run_fig2, PrototypeSink, FIG1_MEASURED, HMC11_PEAK_BW,
};
use coolpim_thermal::layers::LayerKind;
use coolpim_thermal::model::HmcThermalModel;
use coolpim_thermal::power::TrafficSample;
use coolpim_thermal::{EXTENDED_TEMP_LIMIT_C, SHUTDOWN_TEMP_C};

use crate::heatmap::glyph;

/// Figure 1: thermal evaluation of a real HMC 1.1 prototype —
/// idle/busy surface temperatures under three heat sinks, with the
/// passive sink shutting down before peak bandwidth.
pub(super) fn fig1_prototype(_: &[CoSimResult]) -> String {
    let mut t = Table::new(
        "Fig. 1 — HMC 1.1 prototype surface temperature (modeled vs measured)",
        &[
            "Heat sink",
            "Idle model",
            "Idle measured",
            "Busy model",
            "Busy measured",
            "Shutdown",
        ],
    );
    for p in run_fig1() {
        let m = FIG1_MEASURED
            .iter()
            .find(|m| m.sink == p.sink)
            .expect("every modelled sink has a measurement");
        t.row(&[
            p.sink.name().to_string(),
            format!("{:.1} °C", p.idle.surface_c),
            format!("{:.1} °C", m.idle_surface_c),
            format!("{:.1} °C", p.busy.surface_c),
            format!(
                "{:.1} °C{}",
                m.busy_surface_c,
                if m.shutdown { " (shutdown)" } else { "" }
            ),
            if p.shutdown {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    let bw = max_sustainable_bandwidth(PrototypeSink::Passive, EXTENDED_TEMP_LIMIT_C);
    format!(
        "{}\n\
         Passive sink sustains only {:.0} GB/s of the {:.0} GB/s peak before the die\n\
         leaves the extended range — the prototype cannot operate at full bandwidth\n\
         without active cooling (paper §III-A).\n",
        t.render(),
        bw / 1e9,
        HMC11_PEAK_BW / 1e9
    )
}

/// Figure 2: thermal-model validation — measured surface vs estimated
/// die vs modeled die temperature for the low-end and high-end sinks.
pub(super) fn fig2_validation(_: &[CoSimResult]) -> String {
    let mut t = Table::new(
        "Fig. 2 — thermal model validation (busy HMC 1.1)",
        &[
            "Heat sink",
            "Surface (measured)",
            "Die (estimated)",
            "Die (modeling)",
            "Model error",
        ],
    );
    for v in run_fig2() {
        t.row(&[
            v.sink.name().to_string(),
            format!("{:.1} °C", v.surface_measured_c),
            format!("{:.1} °C", v.die_estimated_c),
            format!("{:.1} °C", v.die_modeled_c),
            format!("{:+.1} °C", v.die_modeled_c - v.die_estimated_c),
        ]);
    }
    format!(
        "{}\n\
         The RC model tracks the junction-estimate within a few degrees (paper: \"reasonable error\").\n",
        t.render()
    )
}

/// Figure 3: heat map at full bandwidth under a commodity-server sink —
/// per-layer peak temperatures plus a 2-D ASCII heat map of the logic
/// layer showing the vault-centre hot spots.
pub(super) fn fig3_heatmap(_: &[CoSimResult]) -> String {
    let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
    m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
    let mut out = String::new();
    out.push_str(
        "== Fig. 3 — heat map, 320 GB/s, commodity-server active heat sink ==\n\
         Per-layer peak/avg temperature (bottom to top):\n",
    );
    let stack = m.grid().stack.clone();
    for (li, layer) in stack.layers.iter().enumerate() {
        let temps = m.layer_temps(li);
        let peak = temps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = temps.iter().sum::<f64>() / temps.len() as f64;
        let label = match layer.kind {
            LayerKind::Substrate => "substrate".to_string(),
            LayerKind::Logic => "logic layer".to_string(),
            LayerKind::Dram(i) => format!("DRAM die {i}"),
            LayerKind::Tim => "TIM".to_string(),
        };
        let _ = writeln!(
            out,
            "  {label:<12} peak {peak:6.1} °C  avg {avg:6.1} °C  ({:6.1} K peak)",
            peak + 273.15
        );
    }
    // 2-D logic-layer map.
    let logic = m.logic_layer();
    let field = m.layer_temps(logic);
    let fp = &m.grid().floorplan;
    let (lo, hi) = field
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let _ = writeln!(
        out,
        "\nLogic-layer heat map ({}x{} cells, {lo:.1}–{hi:.1} °C, '.'=cool '#'=hot):",
        fp.nx, fp.ny
    );
    for y in 0..fp.ny {
        let line: String = (0..fp.nx)
            .map(|x| glyph(field[fp.cell(x, y)], lo, hi))
            .collect();
        let _ = writeln!(out, "  {line}");
    }
    out.push_str(
        "\nHot spots sit at the vault centres (controller + FU power); the lowest DRAM\n\
         die and the logic layer are the hottest layers, as in the paper's Fig. 3.\n",
    );
    out
}

/// Figure 4: peak DRAM temperature vs data bandwidth for the four
/// cooling solutions.
pub(super) fn fig4_bw_sweep(_: &[CoSimResult]) -> String {
    let mut models: Vec<HmcThermalModel> = Cooling::TABLE2
        .iter()
        .map(|&c| HmcThermalModel::hmc20(c))
        .collect();
    let mut t = Table::new(
        "Fig. 4 — peak DRAM temperature (°C) vs data bandwidth",
        &["BW (GB/s)", "Passive", "Low-end", "Commodity", "High-end"],
    );
    for step in 0..=8 {
        let bw = step as f64 * 40.0e9;
        let mut row = vec![format!("{:.0}", bw / 1e9)];
        for m in models.iter_mut() {
            let r = m.steady_state(&TrafficSample::external_stream(bw, 1e-3));
            let mark = if r.peak_dram_c > SHUTDOWN_TEMP_C {
                " (>limit)"
            } else {
                ""
            };
            row.push(format!("{:.1}{mark}", r.peak_dram_c));
        }
        t.row(&row);
    }
    format!(
        "{}\n\
         HMC operating temperature: 0 °C – 105 °C. The passive (and, near peak, the\n\
         low-end) sink exceeds the limit before full bandwidth; the commodity sink\n\
         peaks near 81 °C at 320 GB/s, as in the paper.\n",
        t.render()
    )
}

/// Figure 5: thermal impact of PIM offloading — peak DRAM temperature
/// vs PIM rate at full external bandwidth, with the operating bands.
pub(super) fn fig5_pim_sweep(_: &[CoSimResult]) -> String {
    let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
    let mut t = Table::new(
        "Fig. 5 — peak DRAM temperature vs PIM offloading rate (full bandwidth, commodity sink)",
        &["PIM rate (op/ns)", "Peak DRAM (°C)", "Operating band"],
    );
    let mut r85 = None;
    let mut r105 = None;
    let mut rate = 0.0;
    while rate <= 4.0 + 1e-9 {
        let v = m
            .steady_state(&TrafficSample::with_pim(320.0e9, rate, 1e-3))
            .peak_dram_c;
        let band = if v <= 85.0 {
            "0-85 °C"
        } else if v <= 95.0 {
            "85-95 °C"
        } else if v <= 105.0 {
            "95-105 °C"
        } else {
            "Too hot"
        };
        if v > 85.0 && r85.is_none() {
            r85 = Some(rate);
        }
        if v > 105.0 && r105.is_none() {
            r105 = Some(rate);
        }
        t.row(&[format!("{rate:.2}"), format!("{v:.1}"), band.to_string()]);
        rate += 0.25;
    }
    format!(
        "{}\n\
         Keeping the DRAM below 85 °C bounds the PIM rate to ≈{:.2} op/ns; the 105 °C\n\
         operating limit caps it at ≈{:.2} op/ns. (Paper values: 1.3 and 6.5 — our\n\
         power model is calibrated to the evaluation figures, which shifts the\n\
         crossings left; see EXPERIMENTS.md.)\n",
        t.render(),
        r85.unwrap_or(f64::NAN),
        r105.unwrap_or(f64::NAN)
    )
}
