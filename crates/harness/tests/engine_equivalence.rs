//! The fast engines' hard requirement: they are *optimizations*, never a
//! semantics change. Every run on the active-set engine and on the
//! event-leaping clock must produce a byte-identical
//! [`scorpio::SystemReport`] — and, where traced, a byte-identical merged
//! flit trace — to the always-scan reference engine.
//!
//! The rows are a covering set, not a cross product. Features covered
//! (a later cut must keep each one somewhere):
//!
//! * every ordering protocol (SCORPIO, TokenB, INSO, LPD-D, HT-D) —
//!   `fig7_small…`, `topology_small…`, `cmesh…`, `observability…`
//! * each fabric: mesh, torus, ring (`topology_small…`, `multi_plane…`),
//!   concentrated mesh (`cmesh…`)
//! * planes 1 / 2 / 4 — `multi_plane…` (2, 4), `cmesh…` (1, 2),
//!   `observability…` (4)
//! * concentration 1 / 2 / 4 — `cmesh…`
//! * notification scheme flat / quad-f2 / quad-f4 — `leap_and_worker…`
//!   (flat), `quad_notify…` (f2), `quad_f4…` (f4)
//! * observability off / full trace — off in the registry-grid rows and
//!   `scaling_mesh_point…`, trace in `observability…` and the three
//!   phased 8×8 rows
//! * a leap that really fires (phased low-injection 8×8, proportional
//!   MCs) — `leap_and_worker…`, `quad_notify…`, `quad_f4…`, `watchdog…`
//! * closed loop here; the open-loop rows live in `open_loop.rs`, spans
//!   and windows in `observability.rs`.

use scorpio::ObsLevel;
use scorpio_harness::exec::{run_spec, run_spec_ov, Overrides};
use scorpio_harness::registry;
use scorpio_harness::{Engine, Fabric, Knob, RunResult, RunSpec};

/// Runs `spec` on the always-scan reference and on both fast engines and
/// asserts each fast run byte-identical to the reference: report, config
/// hash and — with `trace` — the merged flit trace. Returns the
/// `(reference, leap)` results for row-specific follow-ups.
fn assert_fast_engines_match_reference(
    spec: &RunSpec,
    ops: usize,
    trace: bool,
) -> (RunResult, RunResult) {
    let run = |engine: Engine| {
        let mut s = spec.clone();
        s.engine = engine;
        if trace {
            let ov = Overrides {
                obs: Some(ObsLevel::Trace),
                trace_limit: Some(2048),
                ..Overrides::default()
            };
            run_spec_ov(&s, ops, &ov)
        } else {
            run_spec(&s, ops)
        }
    };
    let reference = run(Engine::AlwaysScan);
    let json = reference.report.to_json();
    assert!(reference.report.ops_completed > 0);
    let matching = |engine: Engine| {
        let fast = run(engine);
        let at = format!("{} on {engine:?}", spec.key());
        assert_eq!(json, fast.report.to_json(), "report divergence at {at}");
        assert_eq!(reference.trace, fast.trace, "trace divergence at {at}");
        assert_eq!(reference.trace_dropped, fast.trace_dropped, "{at}");
        assert_eq!(reference.config_hash, fast.config_hash, "{at}");
        fast
    };
    matching(Engine::ActiveSet);
    let leap = matching(Engine::Leap);
    (reference, leap)
}

/// The phased low-injection 8×8 point with proportional MCs: the regime
/// where the active-set engine skips most of the machine and the leap
/// crosses whole compute gaps in one step. `quad` adds a quad-tree
/// notification scheme of that fanout.
fn phased_8x8(quad: Option<u8>) -> RunSpec {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let mut spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    if let Some(fanout) = quad {
        spec.variant.label = format!("{}+quad-f{fanout}", spec.variant.label);
        spec.variant.knobs.push(Knob::QuadNotify(fanout));
    }
    spec
}

/// Golden equivalence on the fig7-small grid: SCORPIO, TokenB, INSO-40,
/// LPD-D and HT-D on the chip-style mesh.
#[test]
fn fig7_small_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("fig7-small").expect("fig7-small is registered");
    let specs = scenario.grid.enumerate();
    assert_eq!(specs.len(), 10, "2 workloads x 5 protocols");
    for spec in specs {
        assert_fast_engines_match_reference(&spec, 12, false);
    }
}

/// Every delivery fabric (mesh, torus, ring) under every ordering
/// protocol: scheduling and clock leaping are semantics-neutral whatever
/// the fabric's diameter, wrap links and dateline classes.
#[test]
fn topology_small_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("topology-small").expect("topology-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.workload.name == "blackscholes")
        .collect();
    assert_eq!(specs.len(), 3 * 5, "3 fabrics x 5 protocols");
    for spec in specs {
        assert_fast_engines_match_reference(&spec, 8, false);
    }
}

/// The plane axis: multi-plane main networks (2 and 4 planes, every
/// fabric). This covers the idle-plane skip — the always-scan engine
/// never skips a plane, the fast engines skip every quiescent one.
#[test]
fn multi_plane_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("planes-small").expect("planes-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.planes != 1 && s.protocol == scorpio::Protocol::Scorpio)
        .collect();
    assert_eq!(specs.len(), 3 * 2, "3 fabrics x 2 multi-plane counts");
    for spec in specs {
        assert_fast_engines_match_reference(&spec, 8, false);
    }
}

/// The concentrated-mesh axis: every concentration (1/2/4 tiles per
/// router), single- and multi-plane. This exercises the endpoint-indexed
/// broadcast tables (source-slot-dependent fork masks), the per-slot ESID
/// views and the higher-radix router arbitration — and SCORPIO's 2-plane
/// cells cover the cmesh × planes composition.
#[test]
fn cmesh_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("cmesh-small").expect("cmesh-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| {
            s.protocol == scorpio::Protocol::Scorpio
                || (s.fabric == Fabric::CMesh(4) && s.planes == 1)
        })
        .collect();
    // 3 concentrations x {1, 2} planes of SCORPIO + the four baseline
    // protocols at concentration 4.
    assert_eq!(specs.len(), 3 * 2 + 4);
    for spec in specs {
        assert_fast_engines_match_reference(&spec, 8, false);
    }
}

/// The observability layer inherits the equivalence guarantee: with full
/// tracing on (counters, histograms and the flit-event stream), the
/// report — now carrying the `"obs"` annex with its percentiles, stall
/// splits and per-plane counters — and the merged trace itself must be
/// byte-identical across engines. Every hook sits after the shared
/// idle-skip check, so an engine that never visits a quiescent router and
/// one that visits-and-skips it must record the same thing. Grid points
/// cover single-plane mesh (fig7-small, all 5 protocols on one workload),
/// multi-plane fabrics and a concentrated mesh.
#[test]
fn observability_reports_and_traces_are_byte_identical_across_engines() {
    let fig7 = registry::by_name("fig7-small").expect("registered");
    let planes = registry::by_name("planes-small").expect("registered");
    let cmesh = registry::by_name("cmesh-small").expect("registered");
    let mut specs: Vec<_> = fig7
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.workload.name == "blackscholes")
        .collect();
    assert_eq!(specs.len(), 5, "all 5 ordering protocols");
    specs.extend(
        planes
            .grid
            .enumerate()
            .into_iter()
            .filter(|s| s.planes == 4 && s.protocol == scorpio::Protocol::Scorpio),
    );
    specs.extend(
        cmesh
            .grid
            .enumerate()
            .into_iter()
            .filter(|s| s.fabric == Fabric::CMesh(2) && s.protocol == scorpio::Protocol::Scorpio),
    );
    assert!(specs.len() > 5 + 3, "plane and cmesh cells present");
    for spec in specs {
        let (reference, _) = assert_fast_engines_match_reference(&spec, 8, true);
        assert!(
            reference
                .report
                .to_json()
                .contains(r#""obs":{"schema_version":3,"packet_latency""#),
            "obs annex missing at {}",
            spec.key()
        );
        assert!(reference.trace.is_some_and(|t| !t.is_empty()));
    }
}

/// The acceptance benchmark behind the `planes-throughput` scenario: on
/// the broadcast-saturated 8×8 mesh, four address-interleaved planes must
/// deliver at least 1.5× the request throughput of the single network.
/// Runtime ratios of simulated cycles are deterministic, but the runs are
/// big — CI executes this under `--release --ignored` like the other
/// heavy benchmarks.
#[test]
#[ignore = "heavy: run explicitly with --release (CI equivalence job)"]
fn four_planes_deliver_1_5x_throughput_on_a_saturated_mesh() {
    let scenario = registry::by_name("planes-throughput").expect("registered");
    let specs = scenario.grid.enumerate();
    let one = specs.iter().find(|s| s.planes == 1).expect("1-plane cell");
    let four = specs.iter().find(|s| s.planes == 4).expect("4-plane cell");
    let r1 = run_spec(one, 150);
    let r4 = run_spec(four, 150);
    assert_eq!(r1.report.ops_completed, r4.report.ops_completed);
    let speedup = r1.report.runtime_cycles as f64 / r4.report.runtime_cycles as f64;
    assert!(
        speedup >= 1.5,
        "4 planes delivered only {speedup:.2}x the single-network throughput \
         ({} vs {} cycles)",
        r4.report.runtime_cycles,
        r1.report.runtime_cycles
    );
}

/// The event-leaping clock is a pure optimisation: on the phased
/// low-injection point (flat notification) both fast engines match the
/// reference in reports AND merged flit traces, and the leap really
/// crosses the compute gaps rather than stepping them. (The name predates
/// the removal of the worker lanes.)
#[test]
fn leap_and_worker_matrix_is_byte_identical_including_traces() {
    let (reference, leap) = assert_fast_engines_match_reference(&phased_8x8(None), 13, true);
    assert!(
        reference.report.runtime_cycles > 40_000,
        "phased gap missing"
    );
    assert!(
        leap.stepped_cycles < reference.stepped_cycles / 2,
        "leap never fired ({} of {} cycles stepped)",
        leap.stepped_cycles,
        reference.stepped_cycles
    );
}

/// The hierarchical notification scheme composes with the leap: the same
/// row under the quad-f2 window. Flat and quad are deliberately *not*
/// compared to each other — the quad tree shortens the notification
/// window, so it is a different (hash-visible) machine.
#[test]
fn quad_notify_matrix_is_byte_identical_including_traces() {
    let (reference, leap) = assert_fast_engines_match_reference(&phased_8x8(Some(2)), 13, true);
    assert!(
        reference.config_label.contains("+q2"),
        "quad scheme not applied"
    );
    assert!(
        reference.report.runtime_cycles > 40_000,
        "phased gap missing"
    );
    assert!(
        leap.stepped_cycles < reference.stepped_cycles / 2,
        "quad-f2: leap never fired ({} of {} cycles stepped)",
        leap.stepped_cycles,
        reference.stepped_cycles
    );
}

/// The wider quad tree (fanout 4) gets the same guarantee. (The name
/// predates the removal of the turbo engine.)
#[test]
fn quad_f4_leap_and_turbo_are_byte_identical() {
    let (reference, leap) = assert_fast_engines_match_reference(&phased_8x8(Some(4)), 13, true);
    assert!(
        reference.config_label.contains("+q4"),
        "quad scheme not applied"
    );
    assert!(leap.stepped_cycles < reference.stepped_cycles / 2);
}

/// A compute gap longer than the 50k-cycle deadlock watchdog must not
/// trip it under the leap engine: the watchdog counts *stepped* progress
/// (a wedged machine really steps without completing ops), and the leap
/// engine crosses the whole gap in one step. Under the old cycle-delta
/// watchdog this run panicked as a false positive.
#[test]
fn watchdog_tolerates_leaped_gaps_beyond_50k_cycles() {
    let mut spec = phased_8x8(None);
    spec.workload.phase_gap = 120_000;
    spec.engine = Engine::Leap;
    let r = run_spec(&spec, 13);
    assert!(r.report.ops_completed > 0);
    assert!(
        r.report.runtime_cycles > 120_000,
        "the >50k gap never happened ({} cycles)",
        r.report.runtime_cycles
    );
    assert!(
        r.stepped_cycles < r.report.runtime_cycles / 2,
        "the gap was stepped ({} of {}), not leaped",
        r.stepped_cycles,
        r.report.runtime_cycles
    );

    // The quad-leap case: under the hierarchical scheme the watchdog's
    // stepped-progress accounting must likewise ignore cycles crossed by
    // the leap. A bug that charged leaped cycles to the watchdog trips the
    // 50k assertion inside `run_to_completion`.
    spec.variant.label = format!("{}+quad-f2", spec.variant.label);
    spec.variant.knobs.push(Knob::QuadNotify(2));
    let q = run_spec(&spec, 13);
    assert!(q.report.ops_completed > 0);
    assert!(
        q.report.runtime_cycles > 120_000,
        "the >50k gap never happened under quad-f2 ({} cycles)",
        q.report.runtime_cycles
    );
    assert!(
        q.stepped_cycles < q.report.runtime_cycles / 2,
        "the quad-f2 gap was stepped ({} of {}), not leaped",
        q.stepped_cycles,
        q.report.runtime_cycles
    );
}

/// The acceptance check behind the `scaling-kilocore` scenario: on the
/// drifting 32×32 mesh under the quad-f2 window, the leap engine must
/// report exactly what the active-set engine reports while stepping fewer
/// cycles. (The name outlived the per-region ratio it once floored: no
/// engine leaps a region on its own, so that ledger was deleted.)
/// Deterministic, but kilocore-heavy, so ignored like the other heavy
/// shape checks (CI equivalence job).
#[test]
#[ignore = "heavy: run explicitly with --release (CI equivalence job)"]
fn quad_leap_region_ratio_floor_on_kilocore() {
    let scenario = registry::by_name("scaling-kilocore").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| {
            s.mesh_side == 32
                && s.fabric == scorpio_harness::Fabric::Mesh
                && s.engine == Engine::Leap
                && s.variant.knobs.contains(&Knob::QuadNotify(2))
        })
        .expect("32x32 quad-f2 leap cell");
    // The tree shrank the window: 13 cycles at 32×32 against flat's 65.
    assert!(
        spec.config().notification_window() <= 20,
        "quad window regressed: {}",
        spec.config().notification_window()
    );
    let r = run_spec(&spec, 150);
    assert!(r.report.ops_completed > 0);
    let mut active_spec = spec.clone();
    active_spec.engine = Engine::ActiveSet;
    let active = run_spec(&active_spec, 150);
    assert_eq!(
        active.report.to_json(),
        r.report.to_json(),
        "engines diverged"
    );
    assert!(
        r.stepped_cycles < active.stepped_cycles,
        "leap never fired ({} vs {} stepped cycles)",
        r.stepped_cycles,
        active.stepped_cycles
    );
}

/// The phased point with observability off: the reference comparison must
/// hold without any sink installed, and the runs did real work and really
/// slept through phases.
#[test]
fn scaling_mesh_point_is_byte_identical_across_engines() {
    let (reference, _) = assert_fast_engines_match_reference(&phased_8x8(None), 13, false);
    assert!(reference.trace.is_none());
    assert!(
        reference.report.runtime_cycles > 40_000,
        "phased gap missing"
    );
}
