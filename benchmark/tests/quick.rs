//! `--quick` smoke test: every workload builds, runs two timed passes,
//! passes its own correctness checks and prints a well-formed result line.

use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

/// One run at a time: each is timed, and the host has two cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn quick(workload: &str) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_scorpio-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--quick"])
        .output()
        .expect("the benchmark binary starts");
    let seconds = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with(r#"{"correct": true, "attempted": "#) && last.ends_with("}}}"),
        "{workload} result line: {last}"
    );
    for metric in [
        "sim_cycles_per_s",
        "setup_s",
        "peak_rss_mb",
        "heap_allocs_per_kcycle",
        "runtime_cycles",
        "l2_service_mean_cycles",
        "sojourn_p50_cycles",
        "sojourn_p99_cycles",
        "completed_op_share",
    ] {
        assert!(
            last.contains(&format!(r#""{metric}": {{"value": "#)),
            "{workload} prints no {metric}"
        );
        assert!(
            stdout.lines().any(|l| l.starts_with(metric)),
            "{workload} does not print {metric} by name"
        );
    }
    assert!(last.contains(r#""failed": 0,"#));
    assert!(seconds < 5.0, "{workload} --quick took {seconds:.1} s");
}

#[test]
fn chip_6x6_quick() {
    quick("chip-6x6");
}

#[test]
fn sat_8x8_quick() {
    quick("sat-8x8");
}

#[test]
fn sparse_16x16_quick() {
    quick("sparse-16x16");
}

#[test]
fn open_cmesh_2pl_quick() {
    quick("open-cmesh-2pl");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_scorpio-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
