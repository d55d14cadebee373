//! The reproduction registry: every paper table, figure and ablation
//! this repository reproduces, once each, under the stem of its
//! committed `results/<name>.txt`. The `repro` binary prints or writes
//! them.
//!
//! Each artifact renders to the exact text its file holds. The nine
//! table and thermal-model artifacts (Tables I–IV, Figs. 1–5) are fixed
//! by the models alone; `eval_all` (Figs. 10–13), `fig14_timeline` and
//! the five ablations run co-simulations on the shared [`EvalGraph`].

use std::cell::OnceCell;
use std::ops::RangeInclusive;

use coolpim_graph::generate::GraphSpec;
use coolpim_graph::Csr;

mod ablation;
mod evaluation;
mod tables;
mod thermal;

use ablation::*;
use evaluation::*;
use tables::*;
use thermal::*;

/// Renders an artifact's full text. Only the graph-based artifacts touch
/// the graph, so the others never build it.
pub type Render = fn(&EvalGraph) -> String;

/// Every artifact as (name, renderer), in `results/` regeneration order:
/// the cheap, scale-independent ones first. The name is the stem of the
/// artifact's `results/<name>.txt`.
pub static ARTIFACTS: [(&str, Render); 16] = [
    ("table1_flits", table1_flits),
    ("table2_cooling", table2_cooling),
    ("table3_mapping", table3_mapping),
    ("table4_config", table4_config),
    ("fig1_prototype", fig1_prototype),
    ("fig2_validation", fig2_validation),
    ("fig3_heatmap", fig3_heatmap),
    ("fig4_bw_sweep", fig4_bw_sweep),
    ("fig5_pim_sweep", fig5_pim_sweep),
    ("eval_all", eval_all),
    ("fig14_timeline", fig14_timeline),
    ("ablation_cf", ablation_cf),
    ("ablation_cooling", ablation_cooling),
    ("ablation_epoch", ablation_epoch),
    ("ablation_margin", ablation_margin),
    ("ablation_warning_levels", ablation_warning_levels),
];

/// The evaluation graph, resolved from `COOLPIM_SCALE` (see crate docs)
/// and built on first use, at most once per `EvalGraph`. Artifacts that
/// never ask for it never read `COOLPIM_SCALE`.
#[derive(Default)]
pub struct EvalGraph {
    built: OnceCell<Csr>,
}

impl EvalGraph {
    /// The graph: resolved and built on the first call, exiting with a
    /// diagnostic (status 2) on a `COOLPIM_SCALE` it cannot use.
    pub(crate) fn csr(&self) -> &Csr {
        self.built.get_or_init(|| {
            let spec = graph_spec_for(std::env::var("COOLPIM_SCALE").ok().as_deref())
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            eprintln!(
                "# generating LDBC-like graph: 2^{} vertices, avg degree {} (seed {})",
                spec.scale, spec.avg_degree, spec.seed
            );
            spec.build()
        })
    }
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
