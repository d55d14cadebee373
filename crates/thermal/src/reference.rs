//! The canonical reference solver: the pre-optimisation transient
//! integrator, kept as the one trusted implementation the whole
//! workspace checks the optimized solver against.
//!
//! [`ReferenceTransient`] advances the same backward-Euler system as
//! [`TransientState`](crate::solver::TransientState) but the way the
//! solver looked before the PR-5 optimisation pass: natural node order,
//! plain (unrelaxed) Gauss–Seidel, the per-node diagonal re-derived on
//! every sweep, and no settled-state fast paths. It is deliberately slow
//! and deliberately simple — every line is auditable against the
//! discretised equations — which is what makes it a useful oracle:
//!
//! * `tests/solver_effort.rs` replays a scripted co-sim sequence
//!   through both solvers and holds the optimized one to ≤ 0.67× the
//!   reference's Gauss–Seidel sweeps within 0.1 °C;
//! * the `coolpim-validate` lockstep driver runs it side by side with
//!   the optimized solver on property-generated traffic and reports the
//!   first divergence.
//!
//! The steady-state companion, [`reference_steady_state_into`], is the
//! same plain Gauss–Seidel iteration applied to `G·T = P` — no red-black
//! ordering, no over-relaxation — with a sweep cap sized to plain GS's
//! slower convergence.

use crate::grid::ThermalGrid;
use crate::solver::{NonConvergence, SolveStats, ThermalSolve, TransientSolverStats};

/// Transient inner-solve convergence threshold (°C) — the pre-PR-5
/// value, identical to the optimized solver's.
const TR_TOLERANCE: f64 = 1e-6;
/// Transient inner-solve sweep cap per sub-step.
const TR_MAX_SWEEPS: usize = 2_000;
/// Steady-state convergence threshold (max |ΔT| per sweep, °C).
const SS_TOLERANCE: f64 = 1e-7;
/// Steady-state sweep cap. Plain Gauss–Seidel converges much more
/// slowly than the optimized red-black SOR (no ω acceleration), so the
/// cap is an order of magnitude above the optimized solver's.
const SS_MAX_SWEEPS: usize = 600_000;

/// Solves the steady state `G·T = P` with plain Gauss–Seidel in natural
/// node order (rise coordinates; ambient added at the end), writing into
/// `out` and reporting the work done.
///
/// # Panics
/// Panics if `power.len()` does not match the grid's node count.
pub fn reference_steady_state_into(
    grid: &ThermalGrid,
    power: &[f64],
    ambient_c: f64,
    out: &mut Vec<f64>,
) -> Result<SolveStats, NonConvergence> {
    assert_eq!(
        power.len(),
        grid.node_count(),
        "power vector length mismatch"
    );
    let n = grid.node_count();
    let g_total = grid.g_total();
    out.clear();
    out.resize(n, 0.0);
    let mut sweeps = 0;
    let mut last_delta = f64::INFINITY;
    while sweeps < SS_MAX_SWEEPS {
        sweeps += 1;
        let mut max_delta: f64 = 0.0;
        for i in 0..n {
            let mut acc = power[i];
            for (nb, g) in grid.neighbours(i) {
                acc += g * out[nb];
            }
            let fresh = acc / g_total[i];
            max_delta = max_delta.max((fresh - out[i]).abs());
            out[i] = fresh;
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

/// The reference backward-Euler integrator (see the module docs).
///
/// State layout and sub-step policy mirror the pre-PR-5
/// `TransientState`: the sub-step bound is 1/20 of the scaled sink time
/// constant, and each sub-step solves the implicit system with plain
/// Gauss–Seidel to [`struct@ReferenceTransient`]'s tolerance, re-deriving the
/// per-node diagonal every sweep.
#[derive(Debug, Clone)]
pub struct ReferenceTransient {
    temps: Vec<f64>,
    ambient_c: f64,
    c_scale: f64,
    max_substep_s: f64,
    prev: Vec<f64>,
    stats: TransientSolverStats,
}

impl ReferenceTransient {
    /// Creates a reference state with every node at ambient.
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
            stats: TransientSolverStats::default(),
        }
    }

    /// Current node temperatures (absolute °C).
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Overwrites the field (absolute °C) without touching the work
    /// counters — used to warm-start the reference at a field computed
    /// elsewhere (e.g. the solver-effort test starts it at the
    /// optimized-SOR steady state the optimized solver jumps to).
    ///
    /// # Panics
    /// Panics if `temps.len()` does not match the node count.
    pub fn warm_start(&mut self, temps: &[f64]) {
        assert_eq!(temps.len(), self.temps.len(), "field length mismatch");
        self.temps.copy_from_slice(temps);
        self.prev.copy_from_slice(temps);
    }

    /// Cumulative solver work counters.
    pub fn solver_stats(&self) -> &TransientSolverStats {
        &self.stats
    }

    /// One backward-Euler sub-step of length `h`, exactly as the
    /// pre-PR-5 solver wrote it: natural order, no over-relaxation,
    /// `C/h` re-derived per node per sweep.
    fn substep(&mut self, grid: &ThermalGrid, power: &[f64], h: f64) {
        let caps = grid.capacitance();
        let g_amb = grid.g_ambient();
        let g_total = grid.g_total();
        let n = grid.node_count();
        self.prev.copy_from_slice(&self.temps);
        self.stats.substeps += 1;
        let mut sweeps = 0u64;
        for _ in 0..TR_MAX_SWEEPS {
            sweeps += 1;
            let mut max_delta: f64 = 0.0;
            for i in 0..n {
                let c_over_h = self.c_scale * caps[i] / h;
                let mut acc = power[i] + c_over_h * self.prev[i] + g_amb[i] * self.ambient_c;
                for (nb, g) in grid.neighbours(i) {
                    acc += g * self.temps[nb];
                }
                let fresh = acc / (c_over_h + g_total[i]);
                max_delta = max_delta.max((fresh - self.temps[i]).abs());
                self.temps[i] = fresh;
            }
            if max_delta < TR_TOLERANCE {
                break;
            }
        }
        self.stats.sweeps += sweeps;
        self.stats.sweep_hist.record(sweeps);
    }
}

impl ThermalSolve for ReferenceTransient {
    fn name(&self) -> &'static str {
        "reference-gs"
    }

    fn temps(&self) -> &[f64] {
        &self.temps
    }

    fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    fn c_scale(&self) -> f64 {
        self.c_scale
    }

    fn solver_stats(&self) -> &TransientSolverStats {
        &self.stats
    }

    fn step(&mut self, grid: &ThermalGrid, power: &[f64], dt: f64) {
        assert_eq!(power.len(), grid.node_count());
        assert!(dt >= 0.0);
        if dt == 0.0 {
            return;
        }
        let substeps = (dt / self.max_substep_s).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        for _ in 0..substeps {
            self.substep(grid, power, h);
        }
    }

    fn try_jump_to_steady_state(
        &mut self,
        grid: &ThermalGrid,
        power: &[f64],
    ) -> Result<SolveStats, NonConvergence> {
        let mut out = std::mem::take(&mut self.temps);
        let res = reference_steady_state_into(grid, power, self.ambient_c, &mut out);
        self.temps = out;
        res
    }

    fn reset(&mut self) {
        self.temps.fill(self.ambient_c);
        self.prev.fill(self.ambient_c);
        self.stats = TransientSolverStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooling::Cooling;
    use crate::floorplan::Floorplan;
    use crate::layers::StackConfig;
    use crate::solver::{steady_state, TransientState};
    use coolpim_telemetry::Tolerance;

    fn small_grid() -> ThermalGrid {
        ThermalGrid::build(
            StackConfig::hmc11(),
            Floorplan::hmc11(),
            Cooling::LowEndActive,
        )
    }

    #[test]
    fn reference_steady_state_matches_optimized_sor() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 4.0;
        p[g.node(2, 9)] = 2.0;
        let sor = steady_state(&g, &p, 25.0);
        let mut gs = Vec::new();
        let stats = reference_steady_state_into(&g, &p, 25.0, &mut gs).expect("converges");
        assert!(stats.sweeps > 0);
        // Both iterate to a 1e-7 per-sweep delta; the fixed points agree
        // to well under a millikelvin.
        let tol = Tolerance::abs(1e-3);
        for (a, b) in sor.iter().zip(&gs) {
            assert!(tol.allows(*a, *b), "SOR {a} vs plain GS {b}");
        }
    }

    #[test]
    fn reference_transient_tracks_the_optimized_solver() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 5)] = 5.0;
        let mut reference = ReferenceTransient::new(&g, 25.0, 1e-4);
        let mut optimized = TransientState::new(&g, 25.0, 1e-4);
        let tol = Tolerance::abs(5e-2);
        for _ in 0..20 {
            ThermalSolve::step(&mut reference, &g, &p, 1e-4);
            optimized.step(&g, &p, 1e-4);
            for (a, b) in reference.temps().iter().zip(optimized.temps()) {
                assert!(tol.allows(*a, *b), "reference {a} vs optimized {b}");
            }
        }
        assert!(reference.solver_stats().substeps > 0);
        assert!(reference.solver_stats().sweeps >= reference.solver_stats().substeps);
    }

    #[test]
    fn jump_then_reset_round_trips_through_the_trait() {
        let g = small_grid();
        let mut p = vec![0.0; g.node_count()];
        p[g.node(1, 3)] = 6.0;
        let mut r = ReferenceTransient::new(&g, 25.0, 1e-4);
        ThermalSolve::try_jump_to_steady_state(&mut r, &g, &p).expect("converges");
        assert!(r.temps()[g.node(1, 3)] > 30.0);
        ThermalSolve::reset(&mut r);
        assert!(r.temps().iter().all(|&t| (t - 25.0).abs() < 1e-12));
        assert_eq!(r.solver_stats().substeps, 0);
        assert_eq!(ThermalSolve::name(&r), "reference-gs");
        assert_eq!(ThermalSolve::c_scale(&r), 1e-4);
        assert_eq!(ThermalSolve::ambient_c(&r), 25.0);
    }
}
