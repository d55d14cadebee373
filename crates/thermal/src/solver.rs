//! Steady-state and transient solvers for the RC thermal network.
//!
//! * [`steady_state`] / [`try_steady_state_into`] solve `G·T = P` with
//!   red-black successive over-relaxation (the network's conductance
//!   matrix is symmetric diagonally dominant, so SOR converges for
//!   0 < ω < 2 in any sweep order; the red-black order propagates fresh
//!   values colour-to-colour and is precomputed by the grid so a solve
//!   allocates nothing beyond its output buffer).
//! * [`TransientState`] advances `C·dT/dt = P − G·T` with **backward
//!   Euler**: each sub-step solves the implicit system with red-black
//!   over-relaxed Gauss–Seidel warm-started from the previous field.
//!   Backward Euler is unconditionally stable, so sub-step length is
//!   chosen for accuracy of the millisecond-scale modes rather than for
//!   stability of the microsecond cell modes — this is what makes
//!   multi-millisecond co-simulation windows cheap.
//!
//! Two structural optimisations keep the transient inner solve off the
//! co-simulation's critical path:
//!
//! 1. **Per-sub-step precompute.** The implicit system's right-hand side
//!    and diagonal are constant within a sub-step, so they are built once
//!    (`rhs`, `inv_diag`) instead of being re-derived — two divisions per
//!    node — on every sweep.
//! 2. **Settled-state fast paths.** When a sub-step converges on its
//!    first sweep the field is stationary under the current power, so the
//!    remaining sub-steps of the epoch are skipped; and when the next
//!    epoch arrives with a power vector unchanged within
//!    [`POWER_MATCH_REL_TOL`], the whole implicit solve is skipped
//!    ([`TransientSolverStats::fast_path_hits`]). Idle and steady-tail
//!    phases of a run cost zero sweeps.
//!
//! Every solve reports its work through [`SolveStats`] /
//! [`TransientSolverStats`] so convergence behaviour is visible in run
//! records, and non-convergence surfaces as a typed [`NonConvergence`]
//! error carrying the final residual instead of a bare panic.
//!
//! Temperatures returned are absolute °C.

use coolpim_telemetry::{Histogram, TraceTrack};

use crate::grid::ThermalGrid;

/// SOR relaxation factor for the steady-state solve.
const SOR_OMEGA: f64 = 1.92;
/// Steady-state convergence threshold (max |ΔT| per sweep, °C).
const SS_TOLERANCE: f64 = 1e-7;
/// Steady-state iteration cap.
const SS_MAX_SWEEPS: usize = 60_000;
/// Transient inner-solve convergence threshold (°C).
const TR_TOLERANCE: f64 = 1e-6;
/// Transient inner-solve sweep cap per sub-step.
const TR_MAX_SWEEPS: usize = 2_000;
/// Over-relaxation factor for the transient inner solve, tuned
/// empirically on a scripted co-sim power sequence (the one
/// `tests/solver_effort.rs` replays): sweeps-per-substep bottoms out
/// near 1.72 — below the steady solve's 1.92 because the capacitive
/// term `C/h` shifts the implicit matrix's spectrum — and climbs
/// steeply past ~1.9.
const TR_OMEGA: f64 = 1.72;
/// Relative per-node tolerance under which two power vectors count as
/// unchanged for the epoch fast path.
pub const POWER_MATCH_REL_TOL: f64 = 1e-9;
/// Absolute floor (W) of the power-match comparison, so exactly-idle
/// nodes compare equal against denormal noise.
const POWER_MATCH_ABS_TOL_W: f64 = 1e-12;

/// Work report of one converged solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Gauss–Seidel sweeps performed.
    pub sweeps: usize,
    /// Final per-sweep residual (max |ΔT| of the last sweep, °C).
    pub residual_c: f64,
}

/// A solve that hit its sweep cap before reaching tolerance.
///
/// Carries the diagnostics a caller needs to report the failure usefully:
/// how many sweeps ran, how far from stationary the field still was, and
/// what the target was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonConvergence {
    /// Sweeps performed before giving up.
    pub sweeps: usize,
    /// Residual at the final sweep (max |ΔT|, °C).
    pub residual_c: f64,
    /// The convergence threshold that was not reached (°C).
    pub tolerance_c: f64,
}

impl std::fmt::Display for NonConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solve did not converge after {} sweeps (residual {:.3e} °C, tolerance {:.1e} °C)",
            self.sweeps, self.residual_c, self.tolerance_c
        )
    }
}

impl std::error::Error for NonConvergence {}

/// Solves the steady-state temperature field for `power` (W per node) at
/// the given ambient temperature (°C). Returns one temperature per node.
///
/// Convenience wrapper over [`try_steady_state_into`] for callers that
/// solve rarely; hot paths should reuse an output buffer instead.
///
/// # Panics
/// Panics if `power.len()` does not match the grid's node count, or if the
/// solve fails to converge (which would indicate a malformed network).
pub fn steady_state(grid: &ThermalGrid, power: &[f64], ambient_c: f64) -> Vec<f64> {
    let mut out = Vec::new();
    match try_steady_state_into(grid, power, ambient_c, &mut out) {
        Ok(_) => out,
        Err(e) => panic!("steady-state solve did not converge: {e}"),
    }
}

/// Solves the steady state into `out` (cleared and resized to the node
/// count — an already-sized buffer is reused without allocating) and
/// reports the sweeps spent and the final residual.
///
/// # Panics
/// Panics if `power.len()` does not match the grid's node count.
pub fn try_steady_state_into(
    grid: &ThermalGrid,
    power: &[f64],
    ambient_c: f64,
    out: &mut Vec<f64>,
) -> Result<SolveStats, NonConvergence> {
    try_steady_state_capped(grid, power, ambient_c, out, SS_MAX_SWEEPS)
}

/// [`try_steady_state_into`] with an explicit sweep cap (diagnostics,
/// tests, and callers that prefer a bounded partial solve over waiting
/// out the default cap).
pub fn try_steady_state_capped(
    grid: &ThermalGrid,
    power: &[f64],
    ambient_c: f64,
    out: &mut Vec<f64>,
    max_sweeps: usize,
) -> Result<SolveStats, NonConvergence> {
    assert_eq!(
        power.len(),
        grid.node_count(),
        "power vector length mismatch"
    );
    let n = grid.node_count();
    let g_total = grid.g_total();
    let order = grid.rb_order();
    // Solve for temperature *rise* over ambient; the ambient boundary term
    // vanishes in rise coordinates.
    out.clear();
    out.resize(n, 0.0);
    let mut sweeps = 0;
    let mut last_delta = f64::INFINITY;
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut max_delta: f64 = 0.0;
        for &ni in order {
            let i = ni as usize;
            let mut acc = power[i];
            for (nb, g) in grid.neighbours(i) {
                acc += g * out[nb];
            }
            debug_assert!(g_total[i] > 0.0);
            let fresh = acc / g_total[i];
            let updated = out[i] + SOR_OMEGA * (fresh - out[i]);
            max_delta = max_delta.max((updated - out[i]).abs());
            out[i] = updated;
        }
        last_delta = max_delta;
        if max_delta < SS_TOLERANCE {
            for v in out.iter_mut() {
                *v += ambient_c;
            }
            return Ok(SolveStats {
                sweeps,
                residual_c: max_delta,
            });
        }
    }
    Err(NonConvergence {
        sweeps,
        residual_c: last_delta,
        tolerance_c: SS_TOLERANCE,
    })
}

/// Cumulative work counters of a [`TransientState`] — the telemetry the
/// co-simulator folds into its metrics so convergence improvements show
/// up in run records.
#[derive(Debug, Clone, Default)]
pub struct TransientSolverStats {
    /// Implicit sub-steps actually solved.
    pub substeps: u64,
    /// Total Gauss–Seidel sweeps across all solved sub-steps.
    pub sweeps: u64,
    /// Whole [`TransientState::step`] calls skipped because the field was
    /// settled and the power vector was unchanged within tolerance.
    pub fast_path_hits: u64,
    /// Sub-steps skipped after the field went stationary mid-step.
    pub skipped_substeps: u64,
    /// Distribution of sweeps per solved sub-step.
    pub sweep_hist: Histogram,
}

impl TransientSolverStats {
    /// Mean sweeps per solved sub-step (0 when nothing was solved).
    pub fn sweeps_per_substep(&self) -> f64 {
        if self.substeps == 0 {
            0.0
        } else {
            self.sweeps as f64 / self.substeps as f64
        }
    }
}

/// The swappable transient-solver interface: everything the
/// [`crate::model::HmcThermalModel`] façade (and through it the
/// co-simulator) needs from a thermal integrator.
///
/// Two implementations ship: the optimized [`TransientState`] (red-black
/// over-relaxed Gauss–Seidel with per-sub-step precompute and settled
/// fast paths) and the canonical reference
/// [`crate::reference::ReferenceTransient`] (the pre-optimisation plain
/// Gauss–Seidel solver). The `coolpim-validate` lockstep oracle runs
/// any two implementations side by side and reports their first
/// divergence; aggressive solver rewrites plug in here and are proven
/// equivalent before they replace the default.
pub trait ThermalSolve {
    /// Implementation label for lockstep reports and logs.
    fn name(&self) -> &'static str;

    /// Current node temperatures (absolute °C).
    fn temps(&self) -> &[f64];

    /// Ambient temperature (°C).
    fn ambient_c(&self) -> f64;

    /// The capacitance scale the state was created with.
    fn c_scale(&self) -> f64;

    /// Cumulative solver work counters since construction or the last
    /// [`ThermalSolve::reset`].
    fn solver_stats(&self) -> &TransientSolverStats;

    /// Advances the field by `dt` seconds under constant `power`
    /// (W/node), internally sub-stepping as the implementation sees fit.
    fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64);

    /// [`ThermalSolve::step`] with an optional trace track: when `trace`
    /// is set, implementations may emit per-sub-step timeline spans so a
    /// Perfetto timeline shows where inside a solve epoch time goes. The
    /// default ignores the track and just steps, so alternative solvers
    /// (the lockstep reference, future rewrites) stay correct without
    /// instrumenting anything.
    fn step_traced(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
        dt: f64,
        trace: Option<&mut TraceTrack>,
    ) {
        let _ = trace;
        self.step(grid, power, dt);
    }

    /// Overwrites the field with a steady-state solution for `power`,
    /// reporting the solve's work. On failure the field holds the
    /// partial solution.
    fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence>;

    /// Returns every node to ambient and clears the work counters.
    fn reset(&mut self);
}

/// Transient temperature state advanced with backward Euler.
#[derive(Debug, Clone)]
pub struct TransientState {
    /// Absolute node temperatures (°C).
    temps: Vec<f64>,
    /// Ambient temperature (°C).
    ambient_c: f64,
    /// Capacitance scale: <1 accelerates the plant uniformly. The CoolPIM
    /// reproduction calibrates this so the cube-level time constant
    /// matches the paper's ~1 ms thermal response (Fig. 8); `1.0` keeps
    /// physical capacitances.
    c_scale: f64,
    /// Longest sub-step taken by [`TransientState::step`] (s).
    max_substep_s: f64,
    /// Scratch buffer for the previous field within a sub-step.
    prev: Vec<f64>,
    /// Per-sub-step right-hand side, rebuilt once per sub-step (not per
    /// sweep).
    rhs: Vec<f64>,
    /// `C·c_scale/h` per node, valid for `diag_h`.
    c_over_h: Vec<f64>,
    /// `1 / (C·c_scale/h + G_total)` per node, valid for `diag_h`.
    inv_diag: Vec<f64>,
    /// Sub-step length the diagonal scratch was built for (s).
    diag_h: f64,
    /// Power vector of the last completed step/jump (fast-path key).
    last_power: Vec<f64>,
    /// Whether the field is stationary under `last_power`.
    settled: bool,
    /// Cumulative solver work counters.
    stats: TransientSolverStats,
}

impl TransientState {
    /// Creates a transient state with every node at ambient.
    ///
    /// The sub-step bound is set to 1/20 of the scaled sink time constant,
    /// which resolves the dynamics the CoolPIM control loop reacts to.
    pub fn new(grid: &ThermalGrid, ambient_c: f64, c_scale: f64) -> Self {
        assert!(c_scale > 0.0);
        let sink = grid.sink_node();
        let sink_tau = c_scale * grid.capacitance()[sink] / grid.g_ambient()[sink];
        let n = grid.node_count();
        Self {
            temps: vec![ambient_c; n],
            ambient_c,
            c_scale,
            max_substep_s: (sink_tau / 20.0).max(1e-9),
            prev: vec![ambient_c; n],
            rhs: vec![0.0; n],
            c_over_h: Vec::new(),
            inv_diag: Vec::new(),
            diag_h: 0.0,
            last_power: Vec::new(),
            settled: false,
            stats: TransientSolverStats::default(),
        }
    }

    /// Ambient temperature (°C).
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Current node temperatures (absolute °C).
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// The capacitance scale this state was created with.
    pub fn c_scale(&self) -> f64 {
        self.c_scale
    }

    /// Cumulative solver work counters since construction.
    pub fn solver_stats(&self) -> &TransientSolverStats {
        &self.stats
    }

    /// Overwrites the state with a steady-state solution for `power`.
    ///
    /// # Panics
    /// Panics on non-convergence; use
    /// [`TransientState::try_jump_to_steady_state`] where the caller wants
    /// the diagnostics instead.
    pub fn jump_to_steady_state(&mut self, grid: &ThermalGrid, power: &[f64]) {
        if let Err(e) = self.try_jump_to_steady_state(grid, power) {
            panic!("steady-state solve did not converge: {e}");
        }
    }

    /// Overwrites the state with a steady-state solution for `power`,
    /// reporting the solve's sweep count and residual. On failure the
    /// error carries the final residual; the field then holds the partial
    /// (non-converged) solution.
    ///
    /// A successful jump marks the field settled for `power`, so a
    /// following [`TransientState::step`] under the same power takes the
    /// fast path.
    pub fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence> {
        let mut out = std::mem::take(&mut self.temps);
        let res = try_steady_state_into(grid, power, self.ambient_c, &mut out);
        self.temps = out;
        match res {
            Ok(stats) => {
                self.note_settled(power, true);
                Ok(stats)
            }
            Err(e) => {
                self.settled = false;
                Err(e)
            }
        }
    }

    /// Advances the field by `dt` seconds under constant `power` (W/node),
    /// internally sub-stepping for accuracy.
    ///
    /// When the field is already stationary under a power vector that
    /// matches `power` within [`POWER_MATCH_REL_TOL`], the whole call is a
    /// recorded fast-path hit and the field is left untouched (the exact
    /// solution within the inner solve's own tolerance).
    pub fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64) {
        self.step_with_trace(grid, power, dt, None);
    }

    /// [`TransientState::step`] with an optional timeline track: each
    /// solved backward-Euler sub-step becomes a `sor_substep` span, so a
    /// Perfetto timeline shows sub-step count and cost inside every
    /// `thermal_solve` epoch. Fast-path and skipped sub-steps emit no
    /// spans — their absence *is* the signal that the settled-state
    /// optimisations fired.
    pub fn step_with_trace(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
        dt: f64,
        mut trace: Option<&mut TraceTrack>,
    ) {
        assert_eq!(power.len(), grid.node_count());
        assert!(dt >= 0.0);
        if dt == 0.0 {
            return;
        }
        if self.settled && power_matches(&self.last_power, power) {
            self.stats.fast_path_hits += 1;
            return;
        }
        let substeps = (dt / self.max_substep_s).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        self.prepare_diag(grid, h);
        let mut stationary = false;
        for k in 0..substeps {
            stationary = match trace.as_deref_mut() {
                Some(t) => {
                    let tok = t.begin("sor_substep");
                    let s = self.substep(grid, power);
                    t.end(tok);
                    s
                }
                None => self.substep(grid, power),
            };
            if stationary {
                // Nothing moved within tolerance: the remaining sub-steps
                // of this epoch would be identity solves.
                self.stats.skipped_substeps += (substeps - 1 - k) as u64;
                break;
            }
        }
        self.note_settled(power, stationary);
    }

    /// Returns every node to ambient, drops the fast-path key, and
    /// clears the work counters — the state a fresh
    /// [`TransientState::new`] would give without re-deriving the
    /// sub-step bound.
    pub fn reset(&mut self) {
        self.temps.fill(self.ambient_c);
        self.prev.fill(self.ambient_c);
        self.last_power.clear();
        self.settled = false;
        self.stats = TransientSolverStats::default();
    }

    /// Records `power` as the last-applied vector and the settled flag.
    fn note_settled(&mut self, power: &[f64], settled: bool) {
        self.last_power.clear();
        self.last_power.extend_from_slice(power);
        self.settled = settled;
    }

    /// Rebuilds the per-node diagonal scratch for sub-step length `h`
    /// (no-op when already valid — `h` is constant within an epoch and
    /// usually across epochs).
    fn prepare_diag(&mut self, grid: &ThermalGrid, h: f64) {
        let n = grid.node_count();
        if self.diag_h == h && self.inv_diag.len() == n {
            return;
        }
        let caps = grid.capacitance();
        let g_total = grid.g_total();
        self.c_over_h.clear();
        self.inv_diag.clear();
        for i in 0..n {
            let coh = self.c_scale * caps[i] / h;
            self.c_over_h.push(coh);
            self.inv_diag.push(1.0 / (coh + g_total[i]));
        }
        self.diag_h = h;
    }

    /// One backward-Euler step of length `diag_h`: solves
    /// `(C/h + G) T_new = C/h · T_old + P + G_amb · T_amb`
    /// with red-black over-relaxed Gauss–Seidel warm-started from
    /// `T_old`. Returns whether the field was already stationary (the
    /// first sweep moved nothing beyond tolerance).
    fn substep(&mut self, grid: &ThermalGrid, power: &[f64]) -> bool {
        let g_amb = grid.g_ambient();
        let n = grid.node_count();
        self.prev.copy_from_slice(&self.temps);
        for i in 0..n {
            self.rhs[i] = power[i] + self.c_over_h[i] * self.prev[i] + g_amb[i] * self.ambient_c;
        }
        let order = grid.rb_order();
        let mut sweeps = 0usize;
        let mut first_sweep_delta = f64::INFINITY;
        let mut converged = false;
        while sweeps < TR_MAX_SWEEPS {
            sweeps += 1;
            let mut max_delta: f64 = 0.0;
            for &ni in order {
                let i = ni as usize;
                let mut acc = self.rhs[i];
                for (nb, g) in grid.neighbours(i) {
                    acc += g * self.temps[nb];
                }
                let fresh = acc * self.inv_diag[i];
                let updated = self.temps[i] + TR_OMEGA * (fresh - self.temps[i]);
                max_delta = max_delta.max((updated - self.temps[i]).abs());
                self.temps[i] = updated;
            }
            if sweeps == 1 {
                first_sweep_delta = max_delta;
            }
            if max_delta < TR_TOLERANCE {
                converged = true;
                break;
            }
        }
        debug_assert!(converged, "transient inner solve did not converge");
        self.stats.substeps += 1;
        self.stats.sweeps += sweeps as u64;
        self.stats.sweep_hist.record(sweeps as u64);
        converged && first_sweep_delta < TR_TOLERANCE
    }
}

impl ThermalSolve for TransientState {
    fn name(&self) -> &'static str {
        "rb-sor-fastpath"
    }

    fn temps(&self) -> &[f64] {
        TransientState::temps(self)
    }

    fn ambient_c(&self) -> f64 {
        TransientState::ambient_c(self)
    }

    fn c_scale(&self) -> f64 {
        TransientState::c_scale(self)
    }

    fn solver_stats(&self) -> &TransientSolverStats {
        TransientState::solver_stats(self)
    }

    fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64) {
        TransientState::step(self, grid, power, dt);
    }

    fn step_traced(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
        dt: f64,
        trace: Option<&mut TraceTrack>,
    ) {
        TransientState::step_with_trace(self, grid, power, dt, trace);
    }

    fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence> {
        TransientState::try_jump_to_steady_state(self, grid, power)
    }

    fn reset(&mut self) {
        TransientState::reset(self);
    }
}

/// Whether two power vectors are equal within the fast-path tolerance.
fn power_matches(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x - y).abs() <= POWER_MATCH_ABS_TOL_W + POWER_MATCH_REL_TOL * x.abs().max(y.abs())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooling::Cooling;
    use crate::floorplan::Floorplan;
    use crate::layers::StackConfig;
    use coolpim_telemetry::Tolerance;

    fn small_grid() -> ThermalGrid {
        ThermalGrid::build(
            StackConfig::hmc11(),
            Floorplan::hmc11(),
            Cooling::LowEndActive,
        )
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let g = small_grid();
        let p = vec![0.0; g.node_count()];
        let t = steady_state(&g, &p, 25.0);
        let tol = Tolerance::abs(1e-6);
        for v in t {
            assert!(tol.allows(25.0, v), "node at {v} °C, expected ambient");
        }
    }

    #[test]
    fn steady_state_is_linear_in_power() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 10)] = 2.0;
        let t1 = steady_state(&g, &p, 0.0);
        for v in &mut p {
            *v *= 3.0;
        }
        let t3 = steady_state(&g, &p, 0.0);
        let tol = Tolerance::abs(1e-4);
        for (a, b) in t1.iter().zip(&t3) {
            assert!(tol.allows(3.0 * a, *b), "linearity violated: {a} vs {b}");
        }
    }

    #[test]
    fn global_energy_balance_holds_at_steady_state() {
        // Total power in == total power out to ambient.
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 3)] = 5.0;
        p[g.node(2, 7)] = 2.5;
        let t = steady_state(&g, &p, 25.0);
        let out: f64 = (0..g.node_count())
            .map(|i| g.g_ambient()[i] * (t[i] - 25.0))
            .sum();
        assert!((out - 7.5).abs() < 1e-3, "energy out {out} != 7.5 W in");
    }

    #[test]
    fn steady_state_into_reuses_the_buffer_and_reports_work() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 4.0;
        let mut buf = Vec::new();
        let s1 = try_steady_state_into(&g, &p, 25.0, &mut buf).expect("converges");
        assert!(s1.sweeps > 0);
        assert!(s1.residual_c < 1e-6);
        let reference = steady_state(&g, &p, 25.0);
        for (a, b) in buf.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9);
        }
        // Second solve reuses the buffer (capacity unchanged) and gives
        // the same answer despite the stale contents.
        let cap = buf.capacity();
        let s2 = try_steady_state_into(&g, &p, 25.0, &mut buf).expect("converges");
        assert_eq!(buf.capacity(), cap);
        assert_eq!(s1.sweeps, s2.sweeps);
        for (a, b) in buf.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_solve_reports_residual_and_sweeps() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 4.0;
        let mut buf = Vec::new();
        let err = try_steady_state_capped(&g, &p, 25.0, &mut buf, 2).expect_err("cap of 2 sweeps");
        assert_eq!(err.sweeps, 2);
        assert!(err.residual_c > err.tolerance_c, "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("2 sweeps"), "{msg}");
        assert!(msg.contains("residual"), "{msg}");
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 4.0;
        let ss = steady_state(&g, &p, 25.0);
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        // Step for many scaled time constants.
        for _ in 0..100 {
            tr.step(&g, &p, 1e-3);
        }
        let max_err = tr
            .temps()
            .iter()
            .zip(&ss)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_err < 0.2,
            "transient end-state differs from steady state by {max_err} °C"
        );
    }

    #[test]
    fn transient_heats_monotonically_under_constant_power() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 4.0;
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        let probe = g.node(1, 5);
        let mut last = tr.temps()[probe];
        for _ in 0..20 {
            tr.step(&g, &p, 1e-4);
            let now = tr.temps()[probe];
            assert!(now >= last - 1e-9, "hot node cooled under constant power");
            last = now;
        }
        assert!(last > 25.0);
    }

    #[test]
    fn transient_cools_back_to_ambient_when_power_removed() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 6.0;
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        tr.jump_to_steady_state(&g, &p);
        let probe = g.node(1, 5);
        assert!(tr.temps()[probe] > 30.0);
        let zero = vec![0.0; g.node_count()];
        for _ in 0..200 {
            tr.step(&g, &zero, 1e-3);
        }
        assert!((tr.temps()[probe] - 25.0).abs() < 0.3);
    }

    #[test]
    fn smaller_c_scale_responds_faster() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 6.0;
        let probe = g.node(1, 5);
        let mut fast = TransientState::new(&g, 25.0, 1e-5);
        let mut slow = TransientState::new(&g, 25.0, 1e-2);
        fast.step(&g, &p, 5e-4);
        slow.step(&g, &p, 5e-4);
        assert!(fast.temps()[probe] > slow.temps()[probe] + 0.5);
    }

    #[test]
    fn unchanged_power_after_steady_state_takes_the_fast_path() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 6.0;
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        tr.jump_to_steady_state(&g, &p);
        let before = tr.temps().to_vec();
        let substeps_before = tr.solver_stats().substeps;
        for _ in 0..5 {
            tr.step(&g, &p, 1e-3);
        }
        let stats = tr.solver_stats();
        assert_eq!(stats.fast_path_hits, 5, "every step should be skipped");
        assert_eq!(
            stats.substeps, substeps_before,
            "no sub-step may be solved on the fast path"
        );
        assert_eq!(tr.temps(), &before[..], "fast path must not move temps");
        // A genuinely different power vector leaves the fast path.
        p[g.node(1, 5)] = 3.0;
        tr.step(&g, &p, 1e-3);
        assert_eq!(tr.solver_stats().fast_path_hits, 5);
        assert!(tr.solver_stats().substeps > substeps_before);
        assert!(tr.temps()[g.node(1, 5)] < before[g.node(1, 5)]);
    }

    #[test]
    fn settled_field_skips_remaining_substeps() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 6.0;
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        // Drive to (near) equilibrium the long way.
        for _ in 0..400 {
            tr.step(&g, &p, 1e-3);
        }
        let stats = tr.solver_stats();
        assert!(
            stats.fast_path_hits > 0 || stats.skipped_substeps > 0,
            "a converged tail must stop paying for sweeps: {stats:?}"
        );
        // The tail is still physically correct.
        let ss = steady_state(&g, &p, 25.0);
        let probe = g.node(1, 5);
        assert!((tr.temps()[probe] - ss[probe]).abs() < 0.05);
    }

    #[test]
    fn solver_stats_histogram_tracks_substeps() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 7)] = 2.0;
        let mut tr = TransientState::new(&g, 25.0, 1e-4);
        tr.step(&g, &p, 5e-4);
        let stats = tr.solver_stats();
        assert!(stats.substeps > 0);
        assert_eq!(stats.sweep_hist.count(), stats.substeps);
        assert!(stats.sweeps >= stats.substeps, "≥1 sweep per sub-step");
        assert!(stats.sweeps_per_substep() >= 1.0);
    }

    #[test]
    fn power_match_tolerance_is_tight() {
        let a = [1.0, 0.0, 5.0e-3];
        assert!(power_matches(&a, &[1.0, 0.0, 5.0e-3]));
        assert!(power_matches(&a, &[1.0 + 1e-12, 0.0, 5.0e-3]));
        assert!(!power_matches(&a, &[1.001, 0.0, 5.0e-3]));
        assert!(!power_matches(&a, &[1.0, 1e-6, 5.0e-3]));
        assert!(!power_matches(&a, &[1.0, 0.0]));
    }
}
