//! The one tolerance-band vocabulary shared by every comparator in the
//! workspace: the run-record regression gates (`obs gate`), the
//! lockstep oracle (`coolpim-validate`), and the solver equivalence
//! tests.
//!
//! A band is `abs + rel × |baseline|` — the same shape everywhere, so a
//! reviewer reading "0.05 °C abs" in a lockstep report and "5 % rel" in
//! a CI gate is reading the same algebra. Constructors are `const` so
//! gate tables can live in `const` arrays.

/// An absolute + relative tolerance band around a baseline value.
///
/// The allowed slack at baseline `b` is `abs + rel·|b|`; a value within
/// `slack` of the baseline is inside the band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute component (units of the compared quantity).
    pub abs: f64,
    /// Relative component (fraction of the baseline's magnitude).
    pub rel: f64,
}

impl Tolerance {
    /// Zero-width band: only exact matches pass.
    pub const EXACT: Tolerance = Tolerance { abs: 0.0, rel: 0.0 };

    /// Purely absolute band.
    pub const fn abs(abs: f64) -> Self {
        Self { abs, rel: 0.0 }
    }

    /// Purely relative band.
    pub const fn rel(rel: f64) -> Self {
        Self { abs: 0.0, rel }
    }

    /// Combined band.
    pub const fn band(abs: f64, rel: f64) -> Self {
        Self { abs, rel }
    }

    /// Allowed deviation from `baseline`.
    pub fn slack(&self, baseline: f64) -> f64 {
        self.abs + self.rel * baseline.abs()
    }

    /// Whether `value` lies within the band around `baseline`
    /// (symmetric; direction-aware callers compare against
    /// [`Self::slack`] themselves). Non-finite inputs never pass.
    pub fn allows(&self, baseline: f64, value: f64) -> bool {
        let dev = (value - baseline).abs();
        dev.is_finite() && dev <= self.slack(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_band_admits_only_equality() {
        assert!(Tolerance::EXACT.allows(1.0, 1.0));
        assert!(!Tolerance::EXACT.allows(1.0, 1.0 + 1e-12));
        assert_eq!(Tolerance::EXACT.slack(123.0), 0.0);
    }

    #[test]
    fn abs_and_rel_components_add() {
        let t = Tolerance::band(0.5, 0.1);
        assert!((t.slack(10.0) - 1.5).abs() < 1e-12);
        // Relative part scales with |baseline|.
        assert!((t.slack(-10.0) - 1.5).abs() < 1e-12);
        assert!(t.allows(10.0, 11.5));
        assert!(!t.allows(10.0, 11.6));
    }

    #[test]
    fn pure_constructors_zero_the_other_component() {
        assert_eq!(Tolerance::abs(0.3).rel, 0.0);
        assert_eq!(Tolerance::rel(0.05).abs, 0.0);
        assert!(Tolerance::rel(0.05).allows(100.0, 104.9));
        assert!(!Tolerance::rel(0.05).allows(100.0, 105.1));
    }

    #[test]
    fn non_finite_values_never_pass() {
        let t = Tolerance::band(1e30, 1e30);
        assert!(!t.allows(0.0, f64::NAN));
        assert!(!t.allows(0.0, f64::INFINITY));
        assert!(!t.allows(f64::NAN, 0.0));
    }
}
