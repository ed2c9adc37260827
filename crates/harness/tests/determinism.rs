//! The harness's central guarantee: a sweep's serialized results depend
//! only on (scenario, seeds, ops-per-core) — never on worker count,
//! scheduling, or completion order.

use scorpio_harness::exec::{run_grid, ExecOptions, Overrides};
use scorpio_harness::registry;
use scorpio_harness::sink::{self, SinkOptions};
use std::collections::HashSet;

fn opts(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        ops_per_core: 10,
        ..ExecOptions::default()
    }
}

/// `harness run fig7 --threads N` must emit byte-identical JSON and CSV
/// for every `N` — the acceptance bar for the parallel executor.
#[test]
fn fig7_results_are_byte_identical_across_thread_counts() {
    let scenario = registry::by_name("fig7").expect("fig7 is registered");
    let baseline_results = run_grid(&scenario.grid, &opts(1));
    let baseline_json = sink::jsonl("fig7", &baseline_results, SinkOptions::default());
    let baseline_csv = sink::csv("fig7", &baseline_results, SinkOptions::default());
    assert_eq!(baseline_results.len(), 20);

    for threads in [2, 4, 8] {
        let results = run_grid(&scenario.grid, &opts(threads));
        assert_eq!(
            baseline_json,
            sink::jsonl("fig7", &results, SinkOptions::default()),
            "JSON output changed at {threads} threads"
        );
        assert_eq!(
            baseline_csv,
            sink::csv("fig7", &results, SinkOptions::default()),
            "CSV output changed at {threads} threads"
        );
    }
}

/// The same holds for a grid with a seed axis and for the table render.
#[test]
fn seeded_sweep_and_tables_are_thread_count_invariant() {
    let mut scenario = registry::by_name("ablation-small").expect("registered");
    scenario.grid.seeds = vec![1, 7];
    let serial = run_grid(&scenario.grid, &opts(1));
    let parallel = run_grid(&scenario.grid, &opts(6));
    assert_eq!(
        sink::jsonl("ablation-small", &serial, SinkOptions::default()),
        sink::jsonl("ablation-small", &parallel, SinkOptions::default()),
    );
    assert_eq!(
        (scenario.render)(&scenario, &serial),
        (scenario.render)(&scenario, &parallel),
    );
}

/// Sweep-grid enumeration is stable and duplicate-free for every
/// registered grid, full and small, including the filtered
/// (non-rectangular) ones.
#[test]
fn every_registered_grid_enumerates_stably_without_duplicates() {
    let grids: Vec<_> = registry::experiments()
        .into_iter()
        .flat_map(|(full, small)| std::iter::once(full).chain(small))
        .collect();
    assert_eq!(grids.len(), 36);
    for scenario in grids {
        let a = scenario.grid.enumerate();
        let b = scenario.grid.enumerate();
        assert_eq!(a, b, "{}: enumeration unstable", scenario.name);
        let keys: HashSet<String> = a.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), a.len(), "{}: duplicate specs", scenario.name);
        for (i, spec) in a.iter().enumerate() {
            assert_eq!(spec.index, i, "{}: sparse indices", scenario.name);
        }
    }
}

/// With observability on (histograms, counters and the flit trace), the
/// percentile-bearing JSONL/CSV *and* the merged trace stream must stay
/// byte-identical across worker counts — the observability layer inherits
/// the executor's determinism guarantee.
#[test]
fn observability_output_is_thread_count_invariant() {
    let scenario = registry::by_name("fig7-small").expect("registered");
    let o = |threads| ExecOptions {
        threads,
        ops_per_core: 10,
        overrides: Overrides {
            obs: Some(scorpio::ObsLevel::Trace),
            trace_limit: Some(4096),
            ..Overrides::default()
        },
        ..ExecOptions::default()
    };
    let hist = SinkOptions {
        ..SinkOptions::default()
    };
    let serial = run_grid(&scenario.grid, &o(1));
    let json = sink::jsonl("fig7-small", &serial, hist);
    let csv = sink::csv("fig7-small", &serial, hist);
    assert!(json.contains(r#""obs":{"schema_version":3,"packet_latency":{"count":"#));
    assert!(json.contains(r#""p999":"#));
    assert!(csv.lines().next().unwrap().contains("packet_p50"));
    for threads in [2, 8] {
        let parallel = run_grid(&scenario.grid, &o(threads));
        assert_eq!(json, sink::jsonl("fig7-small", &parallel, hist));
        assert_eq!(csv, sink::csv("fig7-small", &parallel, hist));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.trace, b.trace, "{}: trace varies", a.spec.key());
        }
    }
    // The trace actually recorded something on the SCORPIO rows.
    assert!(serial
        .iter()
        .any(|r| r.trace.as_ref().is_some_and(|t| !t.0.is_empty())));
}

/// Different seeds must actually produce different results (the seed axis
/// is not decorative).
#[test]
fn seeds_change_results() {
    let mut scenario = registry::by_name("fig7").expect("registered");
    scenario.grid.workloads.truncate(1);
    scenario.grid.protocols.truncate(1);
    scenario.grid.seeds = vec![1, 2];
    let results = run_grid(&scenario.grid, &opts(2));
    assert_eq!(results.len(), 2);
    assert_ne!(results[0].config_hash, results[1].config_hash);
    assert_ne!(
        results[0].report.to_json(),
        results[1].report.to_json(),
        "different seeds should perturb the simulation"
    );
}
