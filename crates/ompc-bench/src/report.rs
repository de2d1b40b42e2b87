//! Small reporting helpers shared by the figure binaries.

use crate::runtimes::RuntimeKind;
use ompc_json::Json;

/// A result row that can render itself as a JSON object, so the figure
/// binaries can persist machine-readable copies of their tables.
pub trait JsonRow {
    /// The row as a JSON value.
    fn to_json_value(&self) -> Json;
}

/// Render a slice of rows as a pretty-printed JSON array.
pub fn rows_to_json_pretty<R: JsonRow>(rows: &[R]) -> String {
    Json::Arr(rows.iter().map(JsonRow::to_json_value).collect()).to_string_pretty()
}

/// Geometric mean of a slice of positive values (0.0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
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
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
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
    out.push_str(&render_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Summarize the speedup of OMPC over another runtime across a series of
/// (ompc_seconds, other_seconds) pairs: returns the mean ratio
/// `other / ompc` (>1 means OMPC is faster).
pub fn speedup_summary(pairs: &[(f64, f64)], versus: RuntimeKind) -> String {
    if pairs.is_empty() {
        return format!("no data versus {}", versus.name());
    }
    let ratios: Vec<f64> =
        pairs.iter().filter(|(ompc, _)| *ompc > 0.0).map(|(ompc, other)| other / ompc).collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    format!("mean OMPC speedup vs {}: {:.2}x", versus.name(), mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

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

    #[test]
    fn speedup_summary_reports_mean_ratio() {
        let s = speedup_summary(&[(1.0, 2.0), (2.0, 2.0)], RuntimeKind::Charm);
        assert!(s.contains("1.50x"));
        assert!(s.contains("Charm++"));
        assert!(speedup_summary(&[], RuntimeKind::Mpi).contains("no data"));
    }
}
