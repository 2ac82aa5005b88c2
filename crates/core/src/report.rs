//! Plain-text table rendering for the regeneration binaries.
//!
//! The `sfc-bench` binaries print each of the paper's tables and figure data
//! series as aligned text (and optionally pipe-delimited Markdown). Keeping
//! the renderer here lets the integration tests assert on table structure
//! without duplicating formatting logic.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Append a row with a string label followed by numeric cells formatted
    /// to three decimals (the paper's precision).
    pub fn push_numeric_row(&mut self, label: &str, values: &[f64]) {
        let mut cells = Vec::with_capacity(values.len() + 1);
        cells.push(label.to_string());
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.push_row(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format_row(&self.header));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a Markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Curve", "ACD"]);
        t.push_numeric_row("Hilbert", &[4.008]);
        t.push_numeric_row("Row Major", &[70.353]);
        let text = t.render();
        assert!(text.contains("Demo"));
        assert!(text.contains("Hilbert"));
        assert!(text.contains("4.008"));
        assert!(text.contains("70.353"));
        // Columns align: both numeric cells end at the same offset.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn markdown_has_header_separator() {
        let mut t = Table::new("", &["A", "B"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("| A | B |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("", &["A", "B"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn numeric_rows_use_three_decimals() {
        let mut t = Table::new("", &["L", "V"]);
        t.push_numeric_row("x", &[1.0 / 3.0]);
        assert!(t.render().contains("0.333"));
        assert_eq!(t.num_rows(), 1);
    }
}
