//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Two interleaved sets (A B A B …) of plain runs of the same binary on the
//! same seed, each run a child process so that peak memory is its own. The
//! sets' medians must agree within each metric's bound, and the exact
//! metrics must be identical in every run.

use crate::estimator::median;
use crate::metrics::{correct_in_json_line, value_in_json_line, Better, END_TO_END};
use crate::workloads;
use std::process::Command;

/// One child run's end-to-end values, in table order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("could not start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child run of {workload} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if correct_in_json_line(line) != Some(true) {
        return Err(format!("child run of {workload} was not correct: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            value_in_json_line(line, m.name)
                .ok_or_else(|| format!("child run of {workload} printed no {}", m.name))
        })
        .collect()
}

/// Runs the check over every workload; `Ok(true)` if every gap is within
/// bounds.
pub fn selfcheck(runs_per_set: u32, seed: u64, seconds: f64) -> Result<bool, String> {
    println!(
        "selfcheck: 2 interleaved sets of {runs_per_set} plain runs per workload, seed {seed}, \
         {seconds} s each"
    );
    let mut all_ok = true;
    for w in workloads::all() {
        // sets[s][m] holds metric m's values in set s.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for _ in 0..runs_per_set {
            for set in &mut sets {
                for (m, value) in child_run(w.name, seed, seconds)?.into_iter().enumerate() {
                    set[m].push(value);
                }
            }
        }
        println!("\n{}", w.name);
        println!(
            "  {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
            "metric", "median A", "median B", "gap", "bound"
        );
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][m]), median(&sets[1][m]));
            // How much worse the worse set is, as a share of the better one:
            // neither set may look like a regression of the other.
            let gap = match def.better {
                Better::Higher => (a - b).abs() / a.max(b),
                Better::Lower => (a - b).abs() / a.min(b),
            };
            let identical = sets
                .iter()
                .flat_map(|s| &s[m])
                .all(|v| v.to_bits() == sets[0][m][0].to_bits());
            let ok = if def.exact {
                identical
            } else {
                gap <= def.bound
            };
            all_ok &= ok;
            println!(
                "  {:<26} {:>16.6} {:>16.6} {:>9.5} {:>7} {}",
                def.name,
                a,
                b,
                gap,
                def.bound,
                match (ok, def.exact) {
                    (true, true) => " ok, identical in every run",
                    (true, false) => " ok",
                    (false, true) => " FAIL: differs between runs",
                    (false, false) => " FAIL: gap exceeds the bound",
                }
            );
        }
    }
    println!("\nselfcheck {}", if all_ok { "passed" } else { "FAILED" });
    Ok(all_ok)
}
