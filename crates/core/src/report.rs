//! Fixed-format tabular output for the reproduction binaries.
//!
//! Every `repro` artifact renders its tables through these helpers so
//! the regenerated tables share one layout: a title line, an aligned
//! header, aligned rows, and a trailing blank line. [`timeline_csv`] is
//! the machine-readable per-epoch series behind `sim --timeline-out`.

use std::fmt::Write;

use coolpim_telemetry::EpochRecord;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats bytes/s as GB/s with one decimal.
pub fn gbps(v: f64) -> String {
    format!("{:.1}", v / 1e9)
}

/// Column headers of [`timeline_csv`].
const CSV_TIMELINE_HEADER: &str = "t_ms,pim_rate_op_ns,data_bw_gbps,peak_dram_c,phase";

/// Renders a run's per-epoch timeline as CSV with a header row — the
/// machine-readable form of the paper's Fig. 14 time series.
pub fn timeline_csv(timeline: &[EpochRecord]) -> String {
    let mut out = format!("{CSV_TIMELINE_HEADER}\n");
    for s in timeline {
        let _ = writeln!(
            out,
            "{:.3},{:.3},{:.1},{:.2},{}",
            s.t_s() * 1e3,
            s.pim_rate_op_ns,
            s.data_bw / 1e9,
            s.peak_dram_c,
            s.phase
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1.00".into()]);
        t.row(&["longer-name".into(), "2.50".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("longer-name  2.50"));
        // The short row is padded to the same column.
        assert!(s.contains("a            1.00"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn headerless_table_renders_without_panicking() {
        let t = Table::new("Empty", &[]);
        let s = t.render();
        assert!(s.contains("== Empty =="));
    }

    #[test]
    fn rowless_table_renders_headers_only() {
        let t = Table::new("NoRows", &["a", "bb"]);
        let s = t.render();
        assert!(s.contains("a  bb"), "got {s:?}");
        assert_eq!(s.lines().count(), 3, "title, header, rule — no rows");
    }

    #[test]
    fn timeline_csv_writes_a_header_and_one_row_per_epoch() {
        let sample = |t_ps, phase| EpochRecord {
            t_ps,
            pim_rate_op_ns: 1.0,
            data_bw: 2.0e9,
            peak_dram_c: 80.0,
            phase,
            ..EpochRecord::default()
        };
        let csv = timeline_csv(&[
            sample(1_000_000_000, "Normal"),
            sample(2_000_000_000, "Extended"),
        ]);
        assert_eq!(
            csv,
            "t_ms,pim_rate_op_ns,data_bw_gbps,peak_dram_c,phase\n\
             1.000,1.000,2.0,80.00,Normal\n\
             2.000,1.000,2.0,80.00,Extended\n"
        );
        assert_eq!(timeline_csv(&[]), format!("{CSV_TIMELINE_HEADER}\n"));
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(gbps(320.0e9), "320.0");
    }
}
