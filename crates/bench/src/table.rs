//! Minimal fixed-width text tables for the experiment reports.

use std::fmt::Write;

/// A text table: headers plus string rows, rendered with column
/// auto-sizing, right-aligned numerics-style.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Render to a string with a separator line under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:>w$}", h, w = widths[i]);
            if i + 1 < cols {
                out.push_str("  ");
            }
        }
        out.push('\n');
        for (i, &w) in widths.iter().enumerate() {
            out.push_str(&"-".repeat(w));
            if i + 1 < cols {
                out.push_str("  ");
            }
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}", c, w = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Format bits/second with an adaptive unit.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gb/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.1} Mb/s", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} kb/s", bps / 1e3)
    } else {
        format!("{bps:.0} b/s")
    }
}

/// Format a ratio as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn bps_units() {
        assert_eq!(fmt_bps(1.5e9), "1.50 Gb/s");
        assert_eq!(fmt_bps(540.4e6), "540.4 Mb/s");
        assert_eq!(fmt_bps(12_500.0), "12.5 kb/s");
        assert_eq!(fmt_bps(900.0), "900 b/s");
    }

    #[test]
    fn pct() {
        assert_eq!(fmt_pct(0.1234), "12.3%");
    }
}
