//! Small reporting helpers shared by the figures.

use ompc_json::Json;

/// A figure as the `ompc-bench` binary prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// One line naming the figure and its sizing, printed to stderr.
    pub title: String,
    /// The tables exactly as printed on stdout.
    pub text: String,
    /// The measured rows as a pretty JSON array, for `results/<name>.json`.
    pub json: String,
    /// How many rows `json` holds.
    pub rows: usize,
}

impl Figure {
    /// A figure titled `title` that prints `text` and records `rows`.
    pub fn new<R: JsonRow>(title: impl Into<String>, text: String, rows: &[R]) -> Self {
        Self { title: title.into(), text, json: rows_to_json_pretty(rows), rows: rows.len() }
    }
}

/// A result row that can render itself as a JSON object, so a figure can
/// persist a machine-readable copy of its tables.
pub trait JsonRow {
    /// The row as a JSON value.
    fn to_json_value(&self) -> Json;
}

/// Render a slice of rows as a pretty-printed JSON array.
pub fn rows_to_json_pretty<R: JsonRow>(rows: &[R]) -> String {
    Json::Arr(rows.iter().map(JsonRow::to_json_value).collect()).to_string_pretty()
}

/// First quartile, median and third quartile of `values`, linearly
/// interpolated between order statistics (all `NaN` for an empty slice).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let Some(last) = sorted.len().checked_sub(1) else { return f64::NAN };
        let x = p * last as f64;
        let (lo, hi) = (sorted[x.floor() as usize], sorted[x.ceil() as usize]);
        lo + (hi - lo) * x.fract()
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Render an ASCII table: a header row followed by data rows, columns
/// padded to their widest cell.
pub fn render_table(header: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .take(columns)
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&render_row(&header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[2.0, 1.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(quartiles(&[]).1.is_nan());
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["pattern".to_string(), "time".to_string()],
            &[
                vec!["fft".to_string(), "1.25".to_string()],
                vec!["stencil_1d".to_string(), "10.50".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("pattern"));
        assert!(lines[3].contains("stencil_1d"));
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
