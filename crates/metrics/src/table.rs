//! Plain-text table rendering for scenario reports.
//!
//! Each scenario binary prints the rows the paper's demo GUIs displayed
//! (satisfaction per technique, response times, providers kept online). The
//! output format is a simple aligned text table, stable enough to diff across
//! runs.

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Adds a row of pre-formatted cells. Rows shorter than the header are
    /// padded with empty cells; longer rows are truncated.
    pub fn add_row<S: ToString>(&mut self, cells: &[S]) {
        let mut row: Vec<String> = cells.iter().map(ToString::to_string).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Formats a floating-point cell with three decimals.
    #[must_use]
    pub fn num(value: f64) -> String {
        format!("{value:.3}")
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_and_rows() {
        let mut table = Table::new("Scenario 1", &["technique", "consumer sat", "provider sat"]);
        table.add_row(&["Capacity", "0.812", "0.341"]);
        table.add_row(&["Economic", "0.733", "0.402"]);
        let text = table.render();
        assert!(text.contains("== Scenario 1 =="));
        assert!(text.contains("technique"));
        assert!(text.contains("Capacity"));
        assert!(text.contains("0.402"));
        assert_eq!(table.title(), "Scenario 1");
        // Display and render agree.
        assert_eq!(text, table.to_string());
    }

    #[test]
    fn rows_are_padded_and_truncated_to_header_width() {
        let mut table = Table::new("t", &["a", "b"]);
        table.add_row(&["only-one"]);
        table.add_row(&["x", "y", "z"]);
        let text = table.render();
        assert!(text.contains("only-one"));
        assert!(!text.contains('z'));
    }

    #[test]
    fn num_formats_three_decimals() {
        assert_eq!(Table::num(1.0), "1.000");
        assert_eq!(Table::num(0.123456), "0.123");
    }

    #[test]
    fn columns_align_on_longest_cell() {
        let mut table = Table::new("align", &["name", "v"]);
        table.add_row(&["a-very-long-name", "1"]);
        table.add_row(&["b", "2"]);
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        // Header, separator and two rows after the title line.
        assert_eq!(lines.len(), 5);
        // Both data rows have the same column offset for the second column.
        let col = lines[3].find('1').unwrap();
        assert_eq!(lines[4].find('2').unwrap(), col);
    }
}
