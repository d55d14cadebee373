//! Shared ASCII heat-map cells: the glyph ramp and vault-grid layout
//! used by the Fig. 3 artifact and `postmortem`, plus a one-line
//! sparkline for time series (the `obs` history view).

/// The cool→hot glyph ramp (`.` coolest … `#` hottest).
pub const GLYPHS: [u8; 9] = [b'.', b':', b'-', b'=', b'+', b'*', b'%', b'@', b'#'];

/// Maps `v` in `[lo, hi]` onto the glyph ramp (clamped).
pub fn glyph(v: f64, lo: f64, hi: f64) -> char {
    if !v.is_finite() {
        return '?';
    }
    let t = ((v - lo) / (hi - lo + 1e-9)).clamp(0.0, 1.0);
    let g = (t * (GLYPHS.len() - 1) as f64).round() as usize;
    GLYPHS[g.min(GLYPHS.len() - 1)] as char
}

/// Lay `vaults` out on a grid: known cube footprints get their real
/// aspect ratio (32 vaults → 8x4, 16 → 4x4), anything else one row.
pub fn vault_grid(vaults: usize) -> (usize, usize) {
    match vaults {
        32 => (8, 4),
        16 => (4, 4),
        n => (n.max(1), 1),
    }
}

/// Renders `values` as a grid of heat glyphs scaled to `[lo, hi]`, one
/// `String` per row, using the [`vault_grid`] layout. Missing trailing
/// cells render as spaces.
pub fn render_vault_rows(values: &[f64], lo: f64, hi: f64) -> Vec<String> {
    let (nx, ny) = vault_grid(values.len());
    (0..ny)
        .map(|y| {
            (0..nx)
                .map(|x| values.get(y * nx + x).map_or(' ', |&v| glyph(v, lo, hi)))
                .collect()
        })
        .collect()
}

/// Renders a time series as a one-line sparkline over the glyph ramp,
/// newest value last, resampled to `width` columns (taking the max of
/// each bucket so peaks survive the squeeze).
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "?".repeat(width.min(values.len()));
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let cols = width.min(values.len());
    (0..cols)
        .map(|c| {
            let a = c * values.len() / cols;
            let b = ((c + 1) * values.len() / cols).max(a + 1);
            let peak = values[a..b]
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            glyph(peak, lo, hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyph_spans_the_ramp_and_clamps() {
        assert_eq!(glyph(0.0, 0.0, 1.0), '.');
        assert_eq!(glyph(1.0, 0.0, 1.0), '#');
        assert_eq!(glyph(-5.0, 0.0, 1.0), '.');
        assert_eq!(glyph(5.0, 0.0, 1.0), '#');
        assert_eq!(glyph(f64::NAN, 0.0, 1.0), '?');
    }

    #[test]
    fn vault_grids_match_cube_footprints() {
        assert_eq!(vault_grid(32), (8, 4));
        assert_eq!(vault_grid(16), (4, 4));
        assert_eq!(vault_grid(7), (7, 1));
        assert_eq!(vault_grid(0), (1, 1));
    }

    #[test]
    fn vault_rows_render_8x4_for_32_vaults() {
        let temps: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let rows = render_vault_rows(&temps, 0.0, 31.0);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.chars().count() == 8));
        assert_eq!(rows[0].chars().next(), Some('.'));
        assert_eq!(rows[3].chars().last(), Some('#'));
    }

    #[test]
    fn sparkline_keeps_peaks_when_downsampling() {
        let mut v = vec![0.0; 100];
        v[50] = 10.0; // a single spike must survive 100 → 10 columns
        let s = sparkline(&v, 10);
        assert_eq!(s.chars().count(), 10);
        assert!(s.contains('#'), "spike lost in {s:?}");
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0, 2.0], 10).chars().count(), 2);
    }
}
