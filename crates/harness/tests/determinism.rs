//! The harness's central guarantee: a sweep's serialized results depend
//! only on (scenario, seeds, ops-per-core) — never on worker count,
//! scheduling, or completion order. The output manifest checks the
//! worker-count half: it is blessed on one thread and checked on several
//! (`manifest.rs`). These tests check the grids themselves.

use scorpio_harness::exec::{run_grid, ExecOptions};
use scorpio_harness::registry;
use std::collections::HashSet;

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

/// Different seeds must actually produce different results (the seed axis
/// is not decorative).
#[test]
fn seeds_change_results() {
    let mut scenario = registry::by_name("fig7").expect("registered");
    scenario.grid.workloads.truncate(1);
    scenario.grid.protocols.truncate(1);
    scenario.grid.seeds = vec![1, 2];
    let opts = ExecOptions {
        threads: 2,
        ops_per_core: 10,
        ..ExecOptions::default()
    };
    let results = run_grid(&scenario.grid, &opts);
    assert_eq!(results.len(), 2);
    assert_ne!(
        results[0].config.stable_hash(),
        results[1].config.stable_hash()
    );
    assert_ne!(
        results[0].report.to_json(),
        results[1].report.to_json(),
        "different seeds should perturb the simulation"
    );
}
