//! Order statistics over small samples of host times.

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Smallest value; NaN when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The tail cell time: the highest percentile that still has at least
/// ten cells beyond it (p80 of 50 cells, p58 of 24). Returns the value
/// and its percentile; with ten or fewer cells the maximum (p100).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let v = sorted(xs);
    let n = v.len();
    let rank = n.saturating_sub(10).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_cells_beyond_it() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs), (40.0, 80.0));
        let xs: Vec<f64> = (1..=24).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 14.0);
        assert!((p - 58.333).abs() < 1e-3);
        assert_eq!(tail(&[5.0]), (5.0, 100.0));
    }
}
