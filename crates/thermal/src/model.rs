//! High-level KitFox-style façade: couple a power model to the RC grid and
//! expose the readouts the rest of the system consumes.

use coolpim_telemetry::TraceTrack;

use crate::cooling::Cooling;
use crate::floorplan::Floorplan;
use crate::grid::ThermalGrid;
use crate::layers::{LayerKind, StackConfig};
use crate::power::{build_power_map_into, PowerParams, TrafficSample};
use crate::solver::{NonConvergence, ThermalSolve, TransientSolverStats, TransientState};
use crate::AMBIENT_C;

/// The cube-level thermal response time the transient plant is calibrated
/// to (seconds). The paper's feedback-control analysis (Fig. 8) puts the
/// thermal delay T_thermal at ~1 ms.
pub const DEFAULT_THERMAL_TAU_S: f64 = 1.0e-3;

/// Aggregate temperature readout of one thermal evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalReadout {
    /// Hottest DRAM cell (°C) — the quantity the paper's figures plot and
    /// the HMC thermal-warning logic watches.
    pub peak_dram_c: f64,
    /// Average DRAM temperature (°C).
    pub avg_dram_c: f64,
    /// Hottest logic-layer cell (°C).
    pub peak_logic_c: f64,
    /// Heat-sink base temperature (°C) — what a thermal camera pointed at
    /// the package surface sees in the prototype experiments.
    pub surface_c: f64,
}

/// A die stack + floorplan + cooling + power model + transient state.
///
/// Generic over the [`ThermalSolve`] seam: the default `S` is the
/// optimized [`TransientState`]; [`Self::with_solver`] swaps in any other
/// conforming solver (e.g. the plain-Gauss–Seidel
/// [`ReferenceTransient`](crate::reference::ReferenceTransient) the
/// lockstep oracle drives).
#[derive(Debug, Clone)]
pub struct HmcThermalModel<S: ThermalSolve = TransientState> {
    grid: ThermalGrid,
    params: PowerParams,
    state: S,
    dram_layers: Vec<usize>,
    logic_layer: usize,
    /// Scratch power map reused across steps.
    power_scratch: Vec<f64>,
}

// Constructors live on the non-generic impl (default `S`) because default
// type parameters don't participate in inference: `HmcThermalModel::hmc20`
// must resolve without annotation everywhere it already appears.
impl HmcThermalModel {
    /// HMC 2.0 cube (8 DRAM dies, 32 vaults) under `cooling`.
    pub fn hmc20(cooling: Cooling) -> Self {
        Self::new(
            StackConfig::hmc20(),
            Floorplan::hmc20(),
            cooling,
            PowerParams::hmc20(),
            DEFAULT_THERMAL_TAU_S,
        )
    }

    /// HMC 1.1 prototype cube (4 DRAM dies, 16 vaults) under `cooling`.
    pub fn hmc11(cooling: Cooling) -> Self {
        Self::new(
            StackConfig::hmc11(),
            Floorplan::hmc11(),
            cooling,
            PowerParams::hmc11(),
            DEFAULT_THERMAL_TAU_S,
        )
    }

    /// Fully custom model. `tau_target_s` calibrates the transient plant's
    /// dominant time constant (see [`DEFAULT_THERMAL_TAU_S`]); pass the
    /// physical value by computing it from the grid if fidelity to real
    /// transients is wanted instead.
    pub fn new(
        stack: StackConfig,
        floorplan: Floorplan,
        cooling: Cooling,
        params: PowerParams,
        tau_target_s: f64,
    ) -> Self {
        let grid = ThermalGrid::build(stack, floorplan, cooling);
        // Raw dominant time constant: the sink RC plus the stack RC through
        // its internal resistance.
        let sink = grid.sink_node();
        let r_sink = 1.0 / grid.g_ambient()[sink];
        let r_total = grid.logic_to_ambient_resistance();
        let r_internal = (r_total - r_sink).max(0.05);
        let tau_raw =
            grid.capacitance()[sink] * r_sink + grid.total_stack_capacitance() * r_internal;
        let c_scale = (tau_target_s / tau_raw).min(1.0);
        let state = TransientState::new(&grid, AMBIENT_C, c_scale);
        let dram_layers = grid.layers_where(LayerKind::is_dram);
        let logic_layer = grid.layers_where(|k| k == LayerKind::Logic)[0];
        let n = grid.node_count();
        Self {
            grid,
            params,
            state,
            dram_layers,
            logic_layer,
            power_scratch: vec![0.0; n],
        }
    }
}

impl<S: ThermalSolve> HmcThermalModel<S> {
    /// Swaps the solver out (builder style): `make` receives the grid,
    /// the current ambient (°C), and the calibrated capacitance scale,
    /// and builds the replacement — e.g.
    /// `model.with_solver(ReferenceTransient::new)`. The new solver
    /// starts from ambient; swap before stepping.
    pub fn with_solver<S2: ThermalSolve>(
        self,
        make: impl FnOnce(&ThermalGrid, f64, f64) -> S2,
    ) -> HmcThermalModel<S2> {
        let state = make(&self.grid, self.state.ambient_c(), self.state.c_scale());
        HmcThermalModel {
            grid: self.grid,
            params: self.params,
            state,
            dram_layers: self.dram_layers,
            logic_layer: self.logic_layer,
            power_scratch: self.power_scratch,
        }
    }

    /// The solver driving this model.
    pub fn solver(&self) -> &S {
        &self.state
    }

    /// The full temperature field (absolute °C, grid node order) — what
    /// the lockstep oracle snapshots each epoch.
    pub fn temps(&self) -> &[f64] {
        self.state.temps()
    }

    /// The underlying RC grid (for heat-map style inspection).
    pub fn grid(&self) -> &ThermalGrid {
        &self.grid
    }

    /// The power parameters in use.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Mutable access to the power parameters (for what-if studies).
    pub fn params_mut(&mut self) -> &mut PowerParams {
        &mut self.params
    }

    /// Total cube power (W) implied by a traffic sample.
    pub fn total_power_w(&self, sample: &TrafficSample) -> f64 {
        self.params.total_power_w(sample)
    }

    /// Advances the transient state by `sample.window_s` under the power
    /// implied by `sample`, returning the end-of-window readout.
    pub fn step(&mut self, sample: &TrafficSample) -> ThermalReadout {
        self.step_traced(sample, None)
    }

    /// Like [`Self::step`], but emits timeline spans on `trace` when
    /// given: a `power_map_build` span, a `thermal_solve` span, and —
    /// through [`ThermalSolve::step_traced`] — one `sor_substep` child
    /// per solved backward-Euler sub-step.
    pub fn step_traced(
        &mut self,
        sample: &TrafficSample,
        mut trace: Option<&mut TraceTrack>,
    ) -> ThermalReadout {
        let tok = trace.as_deref_mut().map(|tr| tr.begin("power_map_build"));
        build_power_map_into(&self.grid, &self.params, sample, &mut self.power_scratch);
        if let (Some(tr), Some(tok)) = (trace.as_deref_mut(), tok) {
            tr.end(tok);
        }
        let tok = trace.as_deref_mut().map(|tr| tr.begin("thermal_solve"));
        let p = std::mem::take(&mut self.power_scratch);
        self.state
            .step_traced(&self.grid, &p, sample.window_s, trace.as_deref_mut());
        self.power_scratch = p;
        if let (Some(tr), Some(tok)) = (trace, tok) {
            tr.end(tok);
        }
        self.readout()
    }

    /// Jumps directly to the steady state for `sample` (open-loop sweeps,
    /// warm starts) and returns the readout.
    ///
    /// # Panics
    /// Panics with full solve diagnostics on non-convergence — see
    /// [`Self::try_steady_state`] for the fallible form.
    pub fn steady_state(&mut self, sample: &TrafficSample) -> ThermalReadout {
        match self.try_steady_state(sample) {
            Ok(r) => r,
            Err(e) => panic!(
                "thermal steady-state solve failed under {:?} cooling at \
                 {:.1} GB/s ext, {:.2} op/ns PIM: {e}",
                self.grid.cooling,
                sample.ext_bytes_per_s() / 1e9,
                sample.pim_ops_per_ns(),
            ),
        }
    }

    /// Fallible [`Self::steady_state`]: on non-convergence returns the
    /// [`NonConvergence`] diagnostics (sweeps spent, final residual,
    /// tolerance) instead of panicking; the field then holds the partial
    /// solution.
    pub fn try_steady_state(
        &mut self,
        sample: &TrafficSample,
    ) -> Result<ThermalReadout, NonConvergence> {
        build_power_map_into(&self.grid, &self.params, sample, &mut self.power_scratch);
        let p = std::mem::take(&mut self.power_scratch);
        let res = self.state.try_jump_to_steady_state(&self.grid, &p);
        self.power_scratch = p;
        res.map(|_| self.readout())
    }

    /// Cumulative transient-solver work counters (sub-steps, sweeps,
    /// fast-path hits) since construction or the last [`Self::reset`].
    pub fn solver_stats(&self) -> &TransientSolverStats {
        self.state.solver_stats()
    }

    /// Resets all temperatures to ambient and clears the solver counters.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// The current readout without advancing time.
    pub fn readout(&self) -> ThermalReadout {
        let t = self.state.temps();
        let cells = self.grid.floorplan.cells();
        let mut peak_dram = f64::NEG_INFINITY;
        let mut sum_dram = 0.0;
        let mut n_dram = 0usize;
        for &layer in &self.dram_layers {
            for c in 0..cells {
                let v = t[self.grid.node(layer, c)];
                peak_dram = peak_dram.max(v);
                sum_dram += v;
                n_dram += 1;
            }
        }
        let mut peak_logic = f64::NEG_INFINITY;
        for c in 0..cells {
            peak_logic = peak_logic.max(t[self.grid.node(self.logic_layer, c)]);
        }
        ThermalReadout {
            peak_dram_c: peak_dram,
            avg_dram_c: sum_dram / n_dram.max(1) as f64,
            peak_logic_c: peak_logic,
            surface_c: t[self.grid.sink_node()],
        }
    }

    /// Temperature field of one layer (row-major `nx × ny`), for heat maps.
    pub fn layer_temps(&self, layer: usize) -> Vec<f64> {
        let cells = self.grid.floorplan.cells();
        (0..cells)
            .map(|c| self.state.temps()[self.grid.node(layer, c)])
            .collect()
    }

    /// Index of the logic layer in the stack.
    pub fn logic_layer(&self) -> usize {
        self.logic_layer
    }

    /// Indices of the DRAM layers in the stack (bottom-up).
    pub fn dram_layers(&self) -> &[usize] {
        &self.dram_layers
    }

    /// Per-vault peak DRAM temperature: for each vault, the maximum over
    /// every DRAM layer of the cells in the vault's footprint. Writes
    /// into `out` (resized to the vault count) so the flight recorder's
    /// sampling path allocates only on the first call.
    ///
    /// The floorplan's vault index is the cube's vault index — the same
    /// alignment the power map relies on when it spreads PIM heat by
    /// per-vault activity weights.
    pub fn vault_peak_dram_temps_into(&self, out: &mut Vec<f64>) {
        let fp = &self.grid.floorplan;
        out.clear();
        out.resize(fp.vaults(), f64::NEG_INFINITY);
        let t = self.state.temps();
        for &layer in &self.dram_layers {
            for c in 0..fp.cells() {
                let v = fp.vault_of_cell(c);
                let temp = t[self.grid.node(layer, c)];
                if temp > out[v] {
                    out[v] = temp;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_full_bandwidth_lands_near_81c() {
        // Paper §III-B: 81 °C peak DRAM at 320 GB/s under commodity cooling.
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let r = m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
        assert!(
            (77.0..86.0).contains(&r.peak_dram_c),
            "peak DRAM {} °C, expected ≈81 °C",
            r.peak_dram_c
        );
    }

    #[test]
    fn commodity_idle_lands_near_33c() {
        // Paper §III-B: 33 °C at idle under commodity cooling.
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let r = m.steady_state(&TrafficSample::idle(1e-3));
        assert!(
            (29.0..38.0).contains(&r.peak_dram_c),
            "idle peak DRAM {} °C, expected ≈33 °C",
            r.peak_dram_c
        );
    }

    #[test]
    fn pim_threshold_rates_match_fig5_shape() {
        // Fig. 5's shape under full external bandwidth: temperature rises
        // roughly linearly with the PIM rate; holding ≤85 °C bounds the
        // rate to a low value, and the 105 °C operating limit caps it a
        // few op/ns higher. The paper reads those crossings at 1.3 and
        // 6.5 op/ns; our Fig-13-calibrated energy puts them lower (see
        // the calibration note in `power.rs`) — the shape test asserts
        // the crossings exist in a band covering both calibrations.
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let mut at = |rate: f64| {
            m.steady_state(&TrafficSample::with_pim(320.0e9, rate, 1e-3))
                .peak_dram_c
        };
        let crossing = |m: &mut dyn FnMut(f64) -> f64, limit: f64| {
            let mut r = 0.0;
            while m(r) < limit && r < 8.0 {
                r += 0.05;
            }
            r
        };
        let r85 = crossing(&mut at, 85.0);
        let r105 = crossing(&mut at, 105.0);
        assert!((0.2..1.5).contains(&r85), "85 °C crossing at {r85} op/ns");
        assert!(
            (2.0..7.0).contains(&r105),
            "105 °C crossing at {r105} op/ns"
        );
        assert!(r105 > 2.0 * r85, "curve must stay roughly linear");
        // Monotone increase.
        let (a, b, c) = (at(1.0), at(2.0), at(3.0));
        assert!(a < b && b < c);
    }

    #[test]
    fn hotter_with_more_bandwidth_and_worse_cooling() {
        let mut commodity = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let mut passive = HmcThermalModel::hmc20(Cooling::Passive);
        let low = commodity.steady_state(&TrafficSample::external_stream(80.0e9, 1e-3));
        let high = commodity.steady_state(&TrafficSample::external_stream(240.0e9, 1e-3));
        assert!(high.peak_dram_c > low.peak_dram_c);
        let p = passive.steady_state(&TrafficSample::external_stream(240.0e9, 1e-3));
        assert!(p.peak_dram_c > high.peak_dram_c);
    }

    #[test]
    fn lowest_dram_die_is_the_hottest() {
        // The paper observes the lowest DRAM die and logic layer reach the
        // highest temperatures (§III-B, Fig. 3).
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
        let layers = m.dram_layers().to_vec();
        let peak_of = |m: &HmcThermalModel, l: usize| {
            m.layer_temps(l)
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let bottom = peak_of(&m, layers[0]);
        let top = peak_of(&m, *layers.last().unwrap());
        assert!(
            bottom > top,
            "bottom die {bottom} °C not hotter than top {top} °C"
        );
    }

    #[test]
    fn transient_approaches_steady_state_within_a_few_tau() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let sample = TrafficSample::external_stream(320.0e9, 1e-4);
        let ss = {
            let mut m2 = HmcThermalModel::hmc20(Cooling::CommodityServer);
            m2.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3))
                .peak_dram_c
        };
        // 8 ms = 8 nominal time constants.
        let mut last = ThermalReadout {
            peak_dram_c: 0.0,
            avg_dram_c: 0.0,
            peak_logic_c: 0.0,
            surface_c: 0.0,
        };
        for _ in 0..80 {
            last = m.step(&sample);
        }
        assert!(
            (last.peak_dram_c - ss).abs() < 2.0,
            "after 8 τ: {} vs steady {}",
            last.peak_dram_c,
            ss
        );
    }

    #[test]
    fn vault_hotspot_appears_at_vault_center() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
        let logic = m.logic_layer();
        let field = m.layer_temps(logic);
        let fp = &m.grid().floorplan;
        // An interior vault (away from the PHY edge bands): its centre
        // should be hotter than its corner.
        let v = 2 * fp.vaults_x + fp.vaults_x / 2;
        let center = fp.vault_center_cell(v);
        let corner = fp.vault_cells(v)[0];
        assert!(field[center] > field[corner]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::reference::ReferenceTransient;

    #[test]
    fn reset_returns_to_ambient() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
        assert!(m.readout().peak_dram_c > 60.0);
        m.reset();
        assert!((m.readout().peak_dram_c - crate::AMBIENT_C).abs() < 1e-9);
    }

    #[test]
    fn total_power_passthrough_matches_params() {
        let m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let s = TrafficSample::with_pim(100.0e9, 1.0, 1e-3);
        assert!((m.total_power_w(&s) - m.params().total_power_w(&s)).abs() < 1e-12);
    }

    #[test]
    fn vault_skew_raises_peak_for_equal_power() {
        let mut uniform = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let mut skewed = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let base = TrafficSample::with_pim(200.0e9, 2.0, 1e-3);
        let r_uniform = uniform.steady_state(&base);
        let mut weights = vec![1.0; 32];
        // Concentrate a third of the activity on four vaults.
        for w in weights.iter_mut().take(4) {
            *w = 5.0;
        }
        let skew = TrafficSample {
            vault_weights: Some(weights),
            ..base.clone()
        };
        let r_skew = skewed.steady_state(&skew);
        assert!(
            r_skew.peak_dram_c > r_uniform.peak_dram_c,
            "skewed {} !> uniform {}",
            r_skew.peak_dram_c,
            r_uniform.peak_dram_c
        );
    }

    #[test]
    fn surface_is_cooler_than_die_under_load() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let r = m.steady_state(&TrafficSample::external_stream(320.0e9, 1e-3));
        assert!(r.surface_c < r.avg_dram_c);
        assert!(r.avg_dram_c < r.peak_dram_c);
    }

    #[test]
    fn traced_step_matches_plain_step_and_records_spans() {
        let mut plain = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let mut traced = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let sample = TrafficSample::external_stream(200.0e9, 1e-4);
        let tracer = coolpim_telemetry::Tracer::new();
        let mut track = tracer.track("sim");
        for _ in 0..5 {
            let a = plain.step(&sample);
            let b = traced.step_traced(&sample, Some(&mut track));
            assert_eq!(a, b, "tracing must not change the physics");
        }
        let tree = track.profile();
        for span in ["power_map_build", "thermal_solve"] {
            let node = tree.roots.iter().find(|n| n.name == span).expect(span);
            assert_eq!(node.calls, 5, "{span}");
            assert!(node.total_s > 0.0, "{span}");
        }
        assert!(tree.total_s("thermal_solve/sor_substep") > 0.0);
    }

    #[test]
    fn step_duration_zero_is_a_noop() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        let before = m.readout();
        m.step(&TrafficSample::idle(0.0));
        let after = m.readout();
        assert!((before.peak_dram_c - after.peak_dram_c).abs() < 1e-12);
    }

    #[test]
    fn swapped_reference_solver_reaches_the_same_steady_state() {
        let mut opt = HmcThermalModel::hmc11(Cooling::LowEndActive);
        let mut reference =
            HmcThermalModel::hmc11(Cooling::LowEndActive).with_solver(ReferenceTransient::new);
        assert_eq!(reference.solver().name(), "reference-gs");
        let s = TrafficSample::external_stream(120.0e9, 1e-3);
        let a = opt.steady_state(&s);
        let b = reference.steady_state(&s);
        assert!(
            (a.peak_dram_c - b.peak_dram_c).abs() < 1e-3,
            "optimized {} vs reference {}",
            a.peak_dram_c,
            b.peak_dram_c
        );
        assert_eq!(reference.temps().len(), reference.grid().node_count());
        reference.reset();
        assert!((reference.readout().peak_dram_c - crate::AMBIENT_C).abs() < 1e-9);
    }

    #[test]
    fn per_vault_peaks_cover_the_grid_and_single_out_hot_vaults() {
        let mut m = HmcThermalModel::hmc20(Cooling::CommodityServer);
        // Concentrate all PIM activity on vault 5: its footprint must be
        // the hottest, and the max over vaults must equal the readout.
        let vaults = m.grid().floorplan.vaults();
        let mut weights = vec![0.0; vaults];
        weights[5] = 1.0;
        let sample = TrafficSample {
            window_s: 1e-3,
            ext_bytes: 0.0,
            pim_ops: 5e6,
            vault_weights: Some(weights),
        };
        m.steady_state(&sample);
        let mut per_vault = Vec::new();
        m.vault_peak_dram_temps_into(&mut per_vault);
        assert_eq!(per_vault.len(), vaults);
        let hottest = per_vault
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, _)| v)
            .unwrap();
        assert_eq!(hottest, 5, "heat should concentrate over the active vault");
        let max = per_vault.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let readout = m.readout();
        assert!(
            (max - readout.peak_dram_c).abs() < 1e-9,
            "vault-wise max {max} must equal the cube peak {}",
            readout.peak_dram_c
        );
        // The scratch vector is reused without growing.
        m.vault_peak_dram_temps_into(&mut per_vault);
        assert_eq!(per_vault.len(), vaults);
    }
}
