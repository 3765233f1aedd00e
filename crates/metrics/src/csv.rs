//! Minimal CSV rendering for time series.
//!
//! The scenario binaries can emit their time series as CSV so that the
//! "on-line drawing" of the demo (Figure 2b) can be reproduced with any
//! plotting tool. We only *write* CSV and only for our own well-formed data,
//! so a dependency-free writer with basic quoting is sufficient.

use std::fmt::Write as _;

use crate::timeseries::TimeSeries;

/// Writer that renders rows of string-able cells as CSV text.
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    buffer: String,
}

impl CsvWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row.
    fn write_row<S: AsRef<str>>(&mut self, cells: &[S]) {
        let escaped: Vec<String> = cells.iter().map(|c| Self::escape(c.as_ref())).collect();
        let _ = writeln!(self.buffer, "{}", escaped.join(","));
    }

    /// Returns the accumulated CSV text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buffer
    }

    /// Quotes a cell if it contains a comma, a quote or a newline.
    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }

    /// Renders a set of time series sharing a time axis as long-format CSV
    /// with columns `series,time,value`.
    #[must_use]
    pub fn render_series(series: &[TimeSeries]) -> String {
        let mut writer = CsvWriter::new();
        writer.write_row(&["series", "time", "value"]);
        for s in series {
            for point in s.points() {
                writer.write_row(&[
                    s.name.clone(),
                    format!("{:.6}", point.at.seconds()),
                    format!("{:.6}", point.value),
                ]);
            }
        }
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::VirtualTime;

    #[test]
    fn rows_are_comma_separated_lines() {
        let mut w = CsvWriter::new();
        w.write_row(&["a", "b", "c"]);
        w.write_row(&["1", "2", "3"]);
        assert_eq!(w.finish(), "a,b,c\n1,2,3\n");
    }

    #[test]
    fn cells_with_special_characters_are_quoted() {
        let mut w = CsvWriter::new();
        w.write_row(&["hello, world", "say \"hi\"", "line\nbreak"]);
        let out = w.finish();
        assert!(out.contains("\"hello, world\""));
        assert!(out.contains("\"say \"\"hi\"\"\""));
        assert!(out.contains("\"line\nbreak\""));
    }

    #[test]
    fn series_render_in_long_format() {
        let mut s1 = TimeSeries::new("sat/SbQA");
        s1.push(VirtualTime::new(1.0), 0.9);
        let mut s2 = TimeSeries::new("sat/Capacity");
        s2.push(VirtualTime::new(1.0), 0.4);
        let csv = CsvWriter::render_series(&[s1, s2]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,time,value");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("sat/SbQA,1.000000,0.900000"));
        assert!(lines[2].starts_with("sat/Capacity,"));
    }
}
