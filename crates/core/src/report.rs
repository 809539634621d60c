//! Plain-text and CSV rendering of experiment results.
//!
//! Every experiment produces a [`Table`]; the CLI prints it and, with
//! `--csv`, persists it as CSV, so each paper figure/table can be
//! regenerated and diffed from artefacts.

use nm_telemetry::SweepRecord;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// A rectangular result table with a title and column headers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the header count — rows
    /// are produced by the experiment code, so a mismatch is a bug.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialises as CSV (headers first; fields quoted when they contain
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV to a file.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over headers and cells.
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(
                f,
                "{:>width$}{}",
                h,
                if i + 1 < ncols { "  " } else { "\n" },
                width = widths[i]
            )?;
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(
                    f,
                    "{:>width$}{}",
                    cell,
                    if i + 1 < ncols { "  " } else { "\n" },
                    width = widths[i]
                )?;
            }
        }
        Ok(())
    }
}

/// Formats a float with a fixed number of decimals (table-cell helper).
pub fn cell(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Renders recorded sweep-executor statistics (one row per completed
/// sweep, in completion order) for the CLI's `--stats` flag.
pub fn sweep_stats_table(sweeps: &[SweepRecord]) -> Table {
    let mut t = Table::new(
        "Parallel sweeps",
        &[
            "sweep",
            "items",
            "workers",
            "wall (ms)",
            "items/s",
            "faults",
        ],
    );
    for s in sweeps {
        let secs = std::time::Duration::from_nanos(s.wall_ns).as_secs_f64();
        let items_per_sec = if secs > 0.0 {
            s.items as f64 / secs
        } else {
            0.0
        };
        t.push_row(vec![
            s.label.clone(),
            s.items.to_string(),
            s.workers.to_string(),
            cell(secs * 1e3, 1),
            cell(items_per_sec, 0),
            s.faults.to_string(),
        ]);
    }
    t
}

/// One labelled data series of a figure (x/y point list).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"Tox=10A"`.
    pub label: String,
    /// `(x, y)` points in plot order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Renders a set of series as one table with `(series, x, y)` rows.
    pub fn to_table(series: &[Series], title: &str, x_name: &str, y_name: &str) -> Table {
        let mut t = Table::new(title, &["series", x_name, y_name]);
        for s in series {
            for &(x, y) in &s.points {
                t.push_row(vec![s.label.clone(), cell(x, 1), cell(y, 3)]);
            }
        }
        t
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- {} --", self.label)?;
        for &(x, y) in &self.points {
            writeln!(f, "{x:>12.1}  {y:>12.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["30".into(), "4,4".into()]);
        t
    }

    #[test]
    fn csv_quotes_commas() {
        let csv = sample().to_csv();
        assert_eq!(csv, "a,b\n1,2\n30,\"4,4\"\n");
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains(" a"), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("nmcache-test-report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        sample().write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, sample().to_csv());
    }

    #[test]
    fn sweep_stats_render_one_row_per_sweep() {
        let sweeps = [
            SweepRecord {
                label: "missrate-table".into(),
                items: 9,
                workers: 4,
                wall_ns: 120_000_000,
                faults: 0,
            },
            SweepRecord {
                label: "tuple-curves".into(),
                items: 30,
                workers: 8,
                wall_ns: 0,
                faults: 1,
            },
        ];
        let t = sweep_stats_table(&sweeps);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.headers(),
            [
                "sweep",
                "items",
                "workers",
                "wall (ms)",
                "items/s",
                "faults"
            ]
        );
        let csv = t.to_csv();
        assert!(csv.contains("missrate-table,9,4,120.0,75,0"), "{csv}");
        // An instantaneous sweep reports 0 items/s, not infinity.
        assert!(csv.contains("tuple-curves,30,8,0.0,0,1"), "{csv}");
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.headers(), ["a", "b"]);
        assert_eq!(t.title(), "demo");
        assert_eq!(cell(1.23456, 2), "1.23");
    }
}
