//! Small containers the experiment binaries use to print paper-style tables
//! and figure series.

/// One point of a figure series: a method evaluated at an x-coordinate
/// (sparsification ratio, density, …).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Method name (`"GDB"`, `"EMD"`, `"NI"`, `"SS"`, …).
    pub(crate) method: String,
    /// X coordinate (e.g. `α` in percent, or graph density in percent).
    pub(crate) x: f64,
    /// Measured value (MAE, relative entropy, `D_em`, seconds, …).
    pub value: f64,
}

impl SeriesPoint {
    /// Creates a point.
    pub(crate) fn new(method: impl Into<String>, x: f64, value: f64) -> Self {
        SeriesPoint {
            method: method.into(),
            x,
            value,
        }
    }
}

/// A complete experiment result: an identifier (e.g. `"fig6a"`), a
/// description, axis labels and the measured series.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Identifier matching the paper (e.g. `"table2"`, `"fig10_pr_flickr"`).
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis / value label.
    pub y_label: String,
    /// All measured points.
    pub points: Vec<SeriesPoint>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentReport {
            id: id.into(),
            description: description.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
        }
    }

    /// Adds a measurement.
    pub fn push(&mut self, method: impl Into<String>, x: f64, value: f64) {
        self.points.push(SeriesPoint::new(method, x, value));
    }

    /// Distinct method names in insertion order.
    pub fn methods(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.method) {
                seen.push(p.method.clone());
            }
        }
        seen
    }

    /// Distinct x values in ascending order.
    pub fn xs(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self.points.iter().map(|p| p.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        xs
    }

    /// The value for `(method, x)`, if measured.
    pub fn value(&self, method: &str, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.method == method && (p.x - x).abs() < 1e-12)
            .map(|p| p.value)
    }

    /// Renders the report as a paper-style text table: one row per method,
    /// one column per x value.
    pub fn to_table(&self) -> TextTable {
        let xs = self.xs();
        let mut table = TextTable::new(
            std::iter::once(self.x_label.clone())
                .chain(xs.iter().map(|x| format!("{x}")))
                .collect(),
        );
        for method in self.methods() {
            let mut row = vec![method.clone()];
            for &x in &xs {
                row.push(match self.value(&method, x) {
                    Some(v) => format_value(v),
                    None => "-".to_string(),
                });
            }
            table.add_row(row);
        }
        table
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.01 && v.abs() < 10_000.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// A minimal fixed-width text table renderer (no external dependencies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub(crate) fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub(crate) fn add_row(&mut self, mut row: Vec<String>) {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths = vec![0usize; columns];
        for (i, cell) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:>width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_collects_points_and_builds_tables() {
        let mut report = ExperimentReport::new("fig6a", "MAE of δA(u) on Flickr", "α (%)", "MAE");
        for &alpha in &[8.0, 16.0] {
            report.push("GDB", alpha, 0.01 / alpha);
            report.push("NI", alpha, 0.1 / alpha);
        }
        assert_eq!(report.methods(), vec!["GDB".to_string(), "NI".to_string()]);
        assert_eq!(report.xs(), vec![8.0, 16.0]);
        assert_eq!(report.value("GDB", 8.0), Some(0.00125));
        assert_eq!(report.value("GDB", 99.0), None);
        let table = report.to_table();
        assert_eq!(table.rows.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("GDB"));
        assert!(rendered.contains("NI"));
        assert!(rendered.contains("16"));
    }

    #[test]
    fn table_renders_aligned_columns_and_pads_rows() {
        let mut table = TextTable::new(vec!["method".into(), "a".into(), "b".into()]);
        table.add_row(vec!["X".into(), "1".into()]);
        table.add_row(vec!["longer-name".into(), "2".into(), "3".into()]);
        let rendered = format!("{table}");
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4); // header + separator + 2 rows
        assert!(lines[0].contains("method"));
        assert!(lines[2].ends_with(' ') || lines[2].len() >= lines[0].len() - 2);
    }

    #[test]
    fn value_formatting_switches_to_scientific_for_extremes() {
        assert_eq!(format_value(0.0), "0");
        assert!(format_value(0.5).starts_with("0.5"));
        assert!(format_value(1e-7).contains('e'));
        assert!(format_value(1e9).contains('e'));
    }
}
