//! The normalized-runtime pretty-printer used by most figure scenarios.
//!
//! Hardened against degenerate input: empty rows, ragged rows and zero
//! baselines render as `-` cells instead of panicking or printing
//! `NaN`/`inf` (a zero baseline is real — e.g. a workload whose runs were
//! all filtered out of a grid, or a misconfigured sweep).

/// Renders a normalized-runtime table: one row per benchmark, one column
/// per configuration, all normalized to the first column. Rows whose
/// baseline is zero or missing print `-` for the affected cells and are
/// excluded from the column averages.
pub fn render_normalized(
    title: &str,
    benchmarks: &[&str],
    configs: &[&str],
    runtimes: &[Vec<u64>],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n=== {title} ===\n"));
    out.push_str(&format!("{:<16}", "benchmark"));
    for c in configs {
        out.push_str(&format!("{c:>16}"));
    }
    out.push('\n');
    let mut sums = vec![0.0; configs.len()];
    let mut averaged_rows = 0usize;
    for (b, row) in benchmarks.iter().zip(runtimes) {
        out.push_str(&format!("{b:<16}"));
        let base = row.first().copied().unwrap_or(0);
        if base == 0 {
            for _ in configs {
                out.push_str(&format!("{:>16}", "-"));
            }
            out.push('\n');
            continue;
        }
        averaged_rows += 1;
        for (i, _) in configs.iter().enumerate() {
            match row.get(i) {
                Some(&rt) => {
                    let norm = rt as f64 / base as f64;
                    sums[i] += norm;
                    out.push_str(&format!("{norm:>16.3}"));
                }
                None => out.push_str(&format!("{:>16}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "AVG"));
    for s in &sums {
        if averaged_rows == 0 {
            out.push_str(&format!("{:>16}", "-"));
        } else {
            out.push_str(&format!("{:>16.3}", s / averaged_rows as f64));
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
