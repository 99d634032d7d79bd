//! Plain-text table rendering for experiment output.

use std::fmt;

/// A simple aligned-column table.
///
/// # Examples
///
/// ```
/// use xpipes_bench::Table;
///
/// let mut t = Table::new(&["flit", "area (mm²)"]);
/// t.row(&["32", "0.083"]);
/// let text = t.to_string();
/// assert!(text.contains("flit"));
/// assert!(text.contains("0.083"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Appends a row of already-owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        let mut row = cells;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long_header"]);
        t.row(&["wide_cell", "1"]);
        t.row(&["x", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and rows align: the second column starts at the same
        // offset everywhere.
        let off = lines[0].find("long_header").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), off);
        assert_eq!(lines[3].find('2').unwrap(), off);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["1"]);
        assert_eq!(t.rows.len(), 1);
        let s = t.to_string();
        assert!(s.contains('1'));
    }

    #[test]
    fn row_owned_accepts_strings() {
        let mut t = Table::new(&["v"]);
        t.row_owned(vec![format!("{:.2}", 1.234)]);
        assert!(t.to_string().contains("1.23"));
    }
}
