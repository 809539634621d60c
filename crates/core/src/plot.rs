//! Terminal scatter plots for figure-style results.
//!
//! `--csv` writes CSVs for real plotting; this module renders a
//! quick ASCII view so `nmcache fig1`/`fig2` show the curve *shapes*
//! directly in the terminal.

use crate::report::Series;
use std::fmt::Write as _;

/// Glyphs assigned to series, in order.
const GLYPHS: [char; 8] = ['o', 'x', '+', '*', '#', '@', '%', '&'];

/// Renders series as an ASCII scatter plot of the given character size.
///
/// Points from different series landing on the same cell show the glyph
/// of the *later* series (curves are usually separated enough for this
/// not to matter). Returns an empty string when no series has points.
///
/// ```
/// use nm_cache_core::plot::ascii_plot;
/// use nm_cache_core::report::Series;
///
/// let mut s = Series::new("demo");
/// s.points = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)];
/// let art = ascii_plot(&[s], 40, 12, "x", "y");
/// assert!(art.contains("demo"));
/// assert!(art.contains('o'));
/// ```
pub fn ascii_plot(
    series: &[Series],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    let width = width.max(16);
    let height = height.max(6);
    let points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if points.is_empty() {
        return String::new();
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    if x_hi <= x_lo {
        x_hi = x_lo + 1.0;
    }
    if y_hi <= y_lo {
        y_hi = y_lo + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{y_label} (top = {y_hi:.3}, bottom = {y_lo:.3})");
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    let _ = writeln!(out, " {x_label}: {x_lo:.1} .. {x_hi:.1}");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} {}", GLYPHS[si % GLYPHS.len()], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(label: &str, pts: &[(f64, f64)]) -> Series {
        let mut s = Series::new(label);
        s.points = pts.to_vec();
        s
    }

    #[test]
    fn empty_input_renders_nothing() {
        assert_eq!(ascii_plot(&[], 40, 10, "x", "y"), "");
        assert_eq!(ascii_plot(&[Series::new("e")], 40, 10, "x", "y"), "");
    }

    #[test]
    fn plot_contains_axes_labels_and_legend() {
        let s = series("alpha", &[(0.0, 1.0), (10.0, 5.0)]);
        let art = ascii_plot(&[s], 40, 10, "time", "power");
        assert!(art.contains("time"));
        assert!(art.contains("power"));
        assert!(art.contains("alpha"));
        assert!(art.contains('o'));
    }

    #[test]
    fn corners_map_to_extremes() {
        let s = series("c", &[(0.0, 0.0), (1.0, 1.0)]);
        let art = ascii_plot(&[s], 20, 6, "x", "y");
        let rows: Vec<&str> = art.lines().collect();
        // First grid row (index 1 after the header) holds the max-y point.
        assert!(rows[1].ends_with('o'), "{art}");
    }

    #[test]
    fn multiple_series_get_distinct_glyphs() {
        let a = series("a", &[(0.0, 0.0)]);
        let b = series("b", &[(1.0, 1.0)]);
        let art = ascii_plot(&[a, b], 30, 8, "x", "y");
        assert!(art.contains('o') && art.contains('x'), "{art}");
    }

    #[test]
    fn degenerate_ranges_do_not_panic() {
        let s = series("flat", &[(5.0, 3.0), (5.0, 3.0)]);
        let art = ascii_plot(&[s], 30, 8, "x", "y");
        assert!(art.contains("flat"));
    }
}
