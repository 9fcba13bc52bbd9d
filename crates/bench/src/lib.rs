//! # lori-bench
//!
//! The experiment harness for LORI: shared report-formatting helpers used
//! by the `exp-*` binaries that regenerate every figure of the paper, plus
//! the Criterion benches. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results.

pub mod harness;
pub mod perf;
pub mod points;

pub use harness::Harness;
pub use perf::{write_bench_arch, ArchGroup};

use std::fmt::Write as _;

/// Renders an ASCII table with a header row.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for &w in &widths {
            let _ = write!(out, "+{:-<width$}", "", width = w + 2);
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (h, &w) in headers.iter().zip(&widths) {
        let _ = write!(out, "| {h:w$} ");
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (cell, &w) in row.iter().zip(&widths) {
            let _ = write!(out, "| {cell:w$} ");
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Formats a float with engineering-friendly precision.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats an error probability for axis labels. One shared precision for
/// every experiment table (binaries used to disagree: `{:.0e}` in some,
/// `{:.2e}` in others).
#[must_use]
pub fn fmt_prob(p: f64) -> String {
    format!("{p:.1e}")
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["p", "hit"],
            &[
                vec!["1e-6".into(), "0.99".into()],
                vec!["1e-5".into(), "0.10".into()],
            ],
        );
        assert!(t.contains("| p    | hit  |"));
        // 3 separators + 1 header + 2 data rows.
        assert_eq!(t.matches('\n').count(), 6);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.5), "0.5000");
        assert!(fmt(1e-6).contains('e'));
        assert!(fmt(123456.0).contains('e'));
    }

    #[test]
    fn fmt_prob_one_shared_precision() {
        assert_eq!(fmt_prob(1e-6), "1.0e-6");
        assert_eq!(fmt_prob(2.5e-5), "2.5e-5");
    }
}
