//! Table printers: [`render_table`] prints a list of [`Col`]s, each
//! stating its header, width, alignment and cell function once, so a
//! header can never drift from its cells; [`render_lines`] prints the
//! same list untitled, as CSV too (the result sink's schema);
//! [`render_normalized`] prints the
//! normalized-runtime matrix of the figure scenarios through it. Zero
//! baselines and ragged rows render as `-` cells, never `NaN`/`inf` (a zero
//! baseline is real — e.g. a workload whose runs were all filtered out).

use std::fmt::Display;

/// One table column: a header, a width, an alignment and the function
/// that renders a row's cell. Header and cells are padded to the same
/// width with the same alignment; a cell longer than the width is printed
/// whole. A separator is leading spaces in the header and cell text, and a
/// spacer is a column with an empty header and empty cells.
pub(crate) struct Col<'a, R> {
    head: &'a str,
    width: usize,
    left: bool,
    cell: Box<dyn Fn(&R) -> String + 'a>,
}

impl<'a, R> Col<'a, R> {
    /// A left-aligned column.
    pub(crate) fn left(head: &'a str, width: usize, cell: impl Fn(&R) -> String + 'a) -> Self {
        Col::new(head, width, true, cell)
    }

    /// A right-aligned column.
    pub(crate) fn right(head: &'a str, width: usize, cell: impl Fn(&R) -> String + 'a) -> Self {
        Col::new(head, width, false, cell)
    }

    fn new(head: &'a str, width: usize, left: bool, cell: impl Fn(&R) -> String + 'a) -> Self {
        Col {
            head,
            width,
            left,
            cell: Box::new(cell),
        }
    }

    /// A right-aligned column of a displayed value.
    pub(crate) fn num<T: Display>(
        head: &'a str,
        width: usize,
        value: impl Fn(&R) -> T + 'a,
    ) -> Self {
        Col::right(head, width, move |r| value(r).to_string())
    }

    /// A right-aligned column of a float at `prec` decimals.
    pub(crate) fn fixed(
        head: &'a str,
        width: usize,
        prec: usize,
        value: impl Fn(&R) -> f64 + 'a,
    ) -> Self {
        Col::right(head, width, move |r| format!("{:.prec$}", value(r)))
    }

    fn pad(&self, text: &str, out: &mut String) {
        let w = self.width;
        let padded = if self.left {
            format!("{text:<w$}")
        } else {
            format!("{text:>w$}")
        };
        out.push_str(&padded);
    }
}

/// Renders `=== title ===`, the header line, one line per row and, when
/// `footnote` is non-empty, a blank line and the footnote. A table whose
/// headers are all empty prints no header line.
pub(crate) fn render_table<'r, R: 'r>(
    title: &str,
    cols: &[Col<'_, R>],
    rows: impl IntoIterator<Item = &'r R>,
    footnote: &str,
) -> String {
    let mut out = format!("=== {title} ===\n{}", render_lines(cols, rows, ""));
    if !footnote.is_empty() {
        out.push('\n');
        out.push_str(footnote);
    }
    out
}

/// The header line (unless every header is empty) and one line per row,
/// cells separated by `sep`: `""` for a padded table, `","` for CSV.
pub(crate) fn render_lines<'r, R: 'r>(
    cols: &[Col<'_, R>],
    rows: impl IntoIterator<Item = &'r R>,
    sep: &str,
) -> String {
    let mut out = String::new();
    if cols.iter().any(|c| !c.head.is_empty()) {
        render_line(cols, None, sep, &mut out);
    }
    for row in rows {
        render_line(cols, Some(row), sep, &mut out);
    }
    out
}

/// Appends one line of `cols` to `out`, cells separated by `sep`: `row`'s
/// cells, or the headers when `row` is `None`.
pub(crate) fn render_line<R>(cols: &[Col<'_, R>], row: Option<&R>, sep: &str, out: &mut String) {
    for (i, c) in cols.iter().enumerate() {
        out.push_str(if i > 0 { sep } else { "" });
        c.pad(&row.map_or_else(|| c.head.into(), |r| (c.cell)(r)), out);
    }
    out.push('\n');
}

/// Renders a normalized-runtime table: one row per benchmark, one column
/// per configuration, all normalized to the first column. Rows whose
/// baseline is zero or missing print `-` for the affected cells and are
/// excluded from the column averages.
pub(crate) fn render_normalized(
    title: &str,
    benchmarks: &[&str],
    configs: &[&str],
    runtimes: &[Vec<u64>],
) -> String {
    type Row<'b> = (&'b str, Vec<Option<f64>>);
    let mut rows: Vec<Row> = Vec::new();
    let mut sums = vec![0.0; configs.len()];
    let mut averaged_rows = 0usize;
    for (&b, row) in benchmarks.iter().zip(runtimes) {
        let base = row.first().copied().unwrap_or(0);
        let norm = |i: usize| Some(*row.get(i)? as f64 / base as f64).filter(|_| base > 0);
        let norms: Vec<Option<f64>> = (0..configs.len()).map(norm).collect();
        if base > 0 {
            averaged_rows += 1;
            for (sum, n) in sums.iter_mut().zip(&norms) {
                *sum += n.unwrap_or(0.0);
            }
        }
        rows.push((b, norms));
    }
    let avg = sums
        .iter()
        .map(|s| (averaged_rows > 0).then(|| s / averaged_rows as f64));
    rows.push(("AVG", avg.collect()));
    let mut cols = vec![Col::left("benchmark", 16, |r: &Row| r.0.into())];
    for (i, &c) in configs.iter().enumerate() {
        cols.push(Col::right(c, 16, move |r: &Row| {
            r.1[i].map_or_else(|| "-".into(), |v| format!("{v:.3}"))
        }));
    }
    format!("\n{}", render_table(title, &cols, &rows, ""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_pad_header_and_cells_alike() {
        let cols = [
            Col::left("name", 6, |r: &(&str, f64)| r.0.to_string()),
            Col::right("value", 8, |r: &(&str, f64)| format!("{:.1}%", r.1)),
            Col::left("", 0, |_: &(&str, f64)| "  <-".into()),
        ];
        let t = render_table("demo", &cols, &[("a", 2.3), ("longer!", 100.0)], "note\n");
        assert_eq!(
            t,
            "=== demo ===\nname     value\na         2.3%  <-\nlonger!  100.0%  <-\n\nnote\n"
        );
        // All-empty headers print no header line; no footnote, no blank.
        let cols = [Col::left("", 3, |r: &u8| r.to_string())];
        assert_eq!(render_table("t", &cols, &[7], ""), "=== t ===\n7  \n");
    }

    #[test]
    fn normalizes_to_first_column() {
        let t = render_normalized(
            "demo",
            &["a", "b"],
            &["base", "x2"],
            &[vec![100, 200], vec![10, 5]],
        );
        assert!(t.contains("=== demo ==="));
        assert!(t.contains("2.000"));
        assert!(t.contains("0.500"));
        // AVG of [1,1] and [2,0.5] columns.
        assert!(t.contains("1.250"));
    }

    #[test]
    fn zero_baseline_renders_dashes_not_nan() {
        let t = render_normalized(
            "demo",
            &["dead", "live"],
            &["base", "x"],
            &[vec![0, 50], vec![10, 20]],
        );
        assert!(!t.contains("NaN") && !t.contains("inf"), "{t}");
        let dead_row = t.lines().find(|l| l.starts_with("dead")).unwrap();
        assert!(dead_row.contains('-'));
        // The AVG only covers the live row.
        let avg = t.lines().find(|l| l.starts_with("AVG")).unwrap();
        assert!(avg.contains("2.000"), "{avg}");
    }

    #[test]
    fn empty_and_ragged_rows_do_not_panic() {
        let t = render_normalized(
            "demo",
            &["empty", "short"],
            &["base", "x"],
            &[vec![], vec![10]],
        );
        assert!(t.contains("empty"));
        let short = t.lines().find(|l| l.starts_with("short")).unwrap();
        assert!(short.contains("1.000") && short.contains('-'));
    }

    #[test]
    fn no_rows_at_all() {
        let t = render_normalized("demo", &[], &["base"], &[]);
        let avg = t.lines().find(|l| l.starts_with("AVG")).unwrap();
        assert!(avg.contains('-'), "empty table must not divide by zero");
    }
}
