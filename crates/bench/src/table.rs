//! Minimal aligned-column table printer for the figures harness.

/// A printable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
    blocks: Vec<String>,
    artifact: Option<(String, String)>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            blocks: Vec::new(),
            artifact: None,
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Append a free-form note shown under the table.
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_string());
        self
    }

    /// Append a verbatim multi-line block (e.g. ASCII art) rendered
    /// between the rows and the notes.
    pub fn block(&mut self, text: &str) -> &mut Self {
        self.blocks.push(text.to_string());
        self
    }

    /// Attach a machine-readable file (name, contents) that goes with the
    /// table, e.g. a `BENCH_*.json` with wall-clock numbers kept off
    /// stdout. Only the `figures` binary writes it.
    pub fn artifact(&mut self, name: &str, contents: String) -> &mut Self {
        self.artifact = Some((name.to_string(), contents));
        self
    }

    /// The attached file, if any, as `(name, contents)`.
    pub fn attached(&self) -> Option<(&str, &str)> {
        self.artifact
            .as_ref()
            .map(|(name, contents)| (name.as_str(), contents.as_str()))
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for block in &self.blocks {
            out.push_str(block);
            if !block.ends_with('\n') {
                out.push('\n');
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Format seconds adaptively (s / ms / µs).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format bits/s adaptively (Gbps / Mbps / kbps).
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2}Gbps", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.1}Mbps", bps / 1e6)
    } else {
        format!("{:.1}kbps", bps / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "longer"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: hello"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0421), "42.1ms");
        assert_eq!(fmt_secs(0.0000421), "42.1us");
        assert_eq!(fmt_bps(2.5e9), "2.50Gbps");
        assert_eq!(fmt_bps(12e6), "12.0Mbps");
        assert_eq!(fmt_bps(9_500.0), "9.5kbps");
    }
}
