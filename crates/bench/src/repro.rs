//! The reproduction registry: every paper table, figure and ablation
//! this repository reproduces, once each, under the stem of its
//! committed `results/<name>.txt`. The `repro` binary prints or writes
//! them.
//!
//! Each artifact renders to the exact text its file holds, from the
//! results of the co-simulations ([`Cell`]s) it declares. The nine table
//! and thermal-model artifacts (Tables I–IV, Figs. 1–5) declare none;
//! [`reproduce`] runs the cells of all requested artifacts together.

use std::ops::RangeInclusive;

use coolpim_core::experiment::{run_cells, Cell};
use coolpim_core::CoSimResult;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::Csr;
use coolpim_telemetry::Tracer;

mod ablation;
mod evaluation;
mod tables;
mod thermal;

use ablation::*;
use evaluation::*;
use tables::*;
use thermal::*;

/// An artifact: its name (the stem of its `results/<name>.txt`), the
/// co-simulations it declares on the evaluation graph (none for the nine
/// fixed by the models alone), and its text from their results, in
/// declared order.
pub type Artifact = (
    &'static str,
    fn() -> Vec<Cell>,
    fn(&[CoSimResult]) -> String,
);

/// Every artifact, in `results/` regeneration order: the cheap,
/// scale-independent ones first.
pub static ARTIFACTS: [Artifact; 16] = [
    ("table1_flits", no_cells, table1_flits),
    ("table2_cooling", no_cells, table2_cooling),
    ("table3_mapping", no_cells, table3_mapping),
    ("table4_config", no_cells, table4_config),
    ("fig1_prototype", no_cells, fig1_prototype),
    ("fig2_validation", no_cells, fig2_validation),
    ("fig3_heatmap", no_cells, fig3_heatmap),
    ("fig4_bw_sweep", no_cells, fig4_bw_sweep),
    ("fig5_pim_sweep", no_cells, fig5_pim_sweep),
    ("eval_all", eval_cells, eval_all),
    ("fig14_timeline", fig14_cells, fig14_timeline),
    ("ablation_cf", cf_cells, ablation_cf),
    ("ablation_cooling", cooling_cells, ablation_cooling),
    ("ablation_epoch", epoch_cells, ablation_epoch),
    ("ablation_margin", margin_cells, ablation_margin),
    ("ablation_warning_levels", level_cells, warning_levels),
];

fn no_cells() -> Vec<Cell> {
    Vec::new()
}

/// The text of each of `artifacts`, in order. Their cells run together
/// through [`run_cells`], each distinct cell once and on `tracer` if one
/// is given, on one evaluation graph, which is built only if some
/// artifact declares a cell.
pub fn reproduce(artifacts: &[&Artifact], tracer: Option<&Tracer>) -> Vec<String> {
    let declared: Vec<Vec<Cell>> = artifacts.iter().map(|a| (a.1)()).collect();
    let all = declared.concat();
    let results = if all.is_empty() {
        Vec::new()
    } else {
        run_cells(&eval_graph(), &all, tracer)
    };
    let mut rest = results.as_slice();
    artifacts
        .iter()
        .zip(&declared)
        .map(|(artifact, cells)| {
            let (mine, after) = rest.split_at(cells.len());
            rest = after;
            (artifact.2)(mine)
        })
        .collect()
}

/// The evaluation graph at the scale `COOLPIM_SCALE` names (see crate
/// docs), exiting with a diagnostic (status 2) on a value it cannot use.
fn eval_graph() -> Csr {
    let spec = graph_spec_for(std::env::var("COOLPIM_SCALE").ok().as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!(
        "# generating LDBC-like graph: 2^{} vertices, avg degree {} (seed {})",
        spec.scale, spec.avg_degree, spec.seed
    );
    spec.build()
}

/// The graph scales (log2 of the vertex count) the drivers take, from
/// `COOLPIM_SCALE` and from `sim --scale`.
pub const SCALES: RangeInclusive<u32> = 8..=24;

/// `scale` if it lies in [`SCALES`], else a diagnostic naming `what`
/// (the flag or variable it came from).
pub fn check_scale(what: &str, scale: u32) -> Result<u32, String> {
    if SCALES.contains(&scale) {
        Ok(scale)
    } else {
        Err(format!(
            "{what} {scale} out of range {}..={}",
            SCALES.start(),
            SCALES.end()
        ))
    }
}

/// Maps a `COOLPIM_SCALE` value (`None` = unset) to a graph spec,
/// without reading the environment — testable regardless of what the
/// test process inherited.
fn graph_spec_for(scale: Option<&str>) -> Result<GraphSpec, String> {
    let mut spec = GraphSpec::ldbc_like();
    match scale {
        None | Some("full") => {}
        Some("quick") => {
            spec.scale = 16;
            spec.avg_degree = 12;
        }
        Some(n) => {
            let scale: u32 = n.parse().map_err(|_| {
                format!("COOLPIM_SCALE must be 'full', 'quick', or an integer, got {n:?}")
            })?;
            spec.scale = check_scale("COOLPIM_SCALE", scale)?;
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every graph-based artifact's declared cells, by artifact name.
    fn declared() -> Vec<(&'static str, Vec<Cell>)> {
        ARTIFACTS
            .iter()
            .map(|(name, cells, _)| (*name, cells()))
            .filter(|(_, cells)| !cells.is_empty())
            .collect()
    }

    #[test]
    fn a_full_write_declares_75_cells_and_runs_68() {
        let declared = declared();
        let all: Vec<Cell> = declared.iter().flat_map(|(_, c)| c.clone()).collect();
        assert_eq!(all.len(), 75);
        // Every repeat, as (artifact, row) = (artifact, row) of the cell
        // it repeats.
        let rows: Vec<(&str, usize)> = declared
            .iter()
            .flat_map(|(name, cells)| (0..cells.len()).map(move |i| (*name, i)))
            .collect();
        let repeats: Vec<_> = (0..all.len())
            .filter_map(|i| {
                let first = all.iter().position(|c| *c == all[i])?;
                (first < i).then(|| (rows[i], rows[first]))
            })
            .collect();
        // eval_all's row of workload w (in Workload::ALL order) under
        // policy p (in Policy::ALL order).
        let eval = |w: usize, p: usize| ("eval_all", w * 5 + p);
        let (dc, bfs_ta, bfs_dwc) = (0, 1, 2);
        let (naive, sw, hw) = (1, 2, 3);
        assert_eq!(
            repeats,
            [
                // Fig. 14's three bfs-ta runs.
                (("fig14_timeline", 0), eval(bfs_ta, naive)),
                (("fig14_timeline", 1), eval(bfs_ta, sw)),
                (("fig14_timeline", 2), eval(bfs_ta, hw)),
                // CF 4 and margin 4 are SW-DynT's defaults.
                (("ablation_cf", 2), eval(bfs_dwc, sw)),
                // Commodity cooling and the 100 µs epoch are the defaults.
                (("ablation_cooling", 2), eval(dc, hw)),
                (("ablation_epoch", 2), eval(dc, hw)),
                (("ablation_margin", 2), eval(dc, sw)),
            ]
        );
        assert_eq!(all.len() - repeats.len(), 68, "distinct cells");
    }

    #[test]
    fn default_scale_is_full() {
        // Pure mapping — immune to whatever COOLPIM_SCALE the test
        // process inherited.
        let full = GraphSpec::ldbc_like().scale;
        assert_eq!(graph_spec_for(None).unwrap().scale, full);
        assert_eq!(graph_spec_for(Some("full")).unwrap().scale, full);
    }

    #[test]
    fn quick_and_numeric_scales_resolve() {
        let quick = graph_spec_for(Some("quick")).unwrap();
        assert_eq!(quick.scale, 16);
        assert_eq!(quick.avg_degree, 12);
        assert_eq!(graph_spec_for(Some("12")).unwrap().scale, 12);
    }

    #[test]
    fn bad_scales_are_rejected_with_a_diagnostic() {
        let err = graph_spec_for(Some("30")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = graph_spec_for(Some("abc")).unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
    }
}
