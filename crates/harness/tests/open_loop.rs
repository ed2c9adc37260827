//! Open-loop injection guarantees. The arrival generators are simulation
//! inputs, so they inherit every determinism bar the closed-loop traces
//! already clear: byte-identical reports *and* flit traces across all six
//! engines and every executor thread count, a zero-load knob that
//! degenerates to the closed-loop machine exactly, and an event-leaping
//! clock that never jumps past a pending arrival deadline.

use scorpio::{ArrivalProcess, ObsLevel};
use scorpio_harness::exec::{run_grid, run_spec, run_spec_ov, ExecOptions, Overrides};
use scorpio_harness::registry;
use scorpio_harness::sink::{self, SinkOptions};
use scorpio_harness::{Engine, Fabric, Knob, RunSpec};

/// Full flit tracing, capped at `limit` events.
fn traced(limit: usize) -> Overrides {
    Overrides {
        obs: Some(ObsLevel::Trace),
        trace_limit: Some(limit),
        ..Overrides::default()
    }
}

/// The mesh SCORPIO cell of `latency-curve-small` carrying `variant`.
fn curve_cell(variant: &str) -> RunSpec {
    registry::by_name("latency-curve-small")
        .expect("registered")
        .grid
        .enumerate()
        .into_iter()
        .find(|s| {
            s.protocol == scorpio::Protocol::Scorpio
                && s.fabric == Fabric::Mesh
                && s.variant.label == variant
        })
        .unwrap_or_else(|| panic!("the mesh SCORPIO {variant} cell exists"))
}

/// Offered load 0 is the closed loop: the schedule is empty, the tile
/// never switches to the source-queue path, and the report — spans,
/// runtime, everything — is byte-identical to the run without the knob.
/// Only the configuration fingerprint moves (the knob is still a
/// different machine description).
#[test]
fn zero_load_open_loop_degenerates_to_the_closed_loop() {
    let fig7 = registry::by_name("fig7-small").expect("registered");
    let closed = fig7
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.protocol == scorpio::Protocol::Scorpio)
        .expect("a SCORPIO cell exists");
    let mut open = closed.clone();
    open.variant.label = format!("{}+pois-0", open.variant.label);
    open.variant.knobs.push(Knob::OpenLoad {
        process: ArrivalProcess::Poisson,
        millis: 0,
    });
    let a = run_spec_ov(&closed, 10, &traced(4096));
    let b = run_spec_ov(&open, 10, &traced(4096));
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "zero-load open loop diverged from the closed loop"
    );
    assert_eq!(a.trace, b.trace);
    assert_ne!(
        a.config_hash, b.config_hash,
        "the knob must stay hash-visible"
    );
}

/// The trace-input path: `ArrivalProcess::Replay` turns the trace's own
/// think-time deltas into absolute arrival times, so the whole workload
/// still completes — every op arrives and none is dropped at the
/// closed-loop-paced offered load — and the run is engine-invariant
/// like every other open-loop cell.
#[test]
fn replay_arrivals_complete_the_full_trace() {
    let fig7 = registry::by_name("fig7-small").expect("registered");
    let mut spec = fig7
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.protocol == scorpio::Protocol::Scorpio)
        .expect("a SCORPIO cell exists");
    spec.variant.label = format!("{}+replay", spec.variant.label);
    spec.variant.knobs.push(Knob::OpenLoad {
        process: ArrivalProcess::Replay,
        millis: 0,
    });
    let ops = 10;
    let base = run_spec(&spec, ops);
    let cores = spec.config().cores() as u64;
    assert_eq!(base.report.ops_completed, ops as u64 * cores);
    assert_eq!(base.report.source_dropped, 0);
    let mut scan_spec = spec.clone();
    scan_spec.engine = Engine::AlwaysScan;
    let scan = run_spec(&scan_spec, ops);
    assert_eq!(base.report.to_json(), scan.report.to_json());
}

/// The equivalence suite gains open-loop rows: under Poisson and bursty
/// arrivals, all three engines must produce byte-identical reports AND
/// merged flit traces. The leap row is the interesting one — arrival
/// deadlines reach the timed-wake heap, so the leaping clock stops at
/// them like any other event. (The name predates the cut from six
/// engines to three.)
#[test]
fn open_loop_reports_and_traces_are_byte_identical_across_six_engines() {
    for variant in ["pois-12", "burst-20"] {
        let spec = curve_cell(variant);
        assert_eq!(spec.engine, Engine::ActiveSet);
        let base = run_spec_ov(&spec, 8, &traced(2048));
        let json = base.report.to_json();
        assert!(base.report.ops_completed > 0);
        for engine in [Engine::AlwaysScan, Engine::Leap] {
            let mut other_spec = spec.clone();
            other_spec.engine = engine;
            let other = run_spec_ov(&other_spec, 8, &traced(2048));
            assert_eq!(
                json,
                other.report.to_json(),
                "report divergence at {variant} vs {engine:?}"
            );
            assert_eq!(
                base.trace, other.trace,
                "trace divergence at {variant} vs {engine:?}"
            );
            assert_eq!(base.config_hash, other.config_hash);
        }
    }
}

/// `harness run latency-curve-small --threads N` emits byte-identical
/// JSONL and CSV — spans, windows and histograms included — for every
/// worker count. (The SCORPIO half of the grid keeps the test tractable;
/// both arrival processes and both fabrics are in it.)
#[test]
fn open_loop_sweep_is_thread_count_invariant() {
    let mut scenario = registry::by_name("latency-curve-small").expect("registered");
    scenario.grid.protocols.truncate(1);
    let mk = |threads| ExecOptions {
        threads,
        ops_per_core: 8,
        overrides: Overrides {
            spans: true,
            window_cycles: Some(256),
            ..Overrides::default()
        },
        ..ExecOptions::default()
    };
    let sink_opts = SinkOptions {
        ..SinkOptions::default()
    };
    let serial = run_grid(&scenario.grid, &mk(1));
    assert_eq!(serial.len(), 2 * 6, "2 fabrics x (5 loads + 1 burst)");
    let base_json = sink::jsonl("latency-curve-small", &serial, sink_opts);
    let base_csv = sink::csv("latency-curve-small", &serial, sink_opts);
    // The open-loop columns actually render.
    assert!(base_json.contains(r#""arrival":"pois-12","load_millis":12"#));
    assert!(base_csv.contains(",burst-20,20,"));
    for threads in [2, 8] {
        let parallel = run_grid(&scenario.grid, &mk(threads));
        assert_eq!(
            base_json,
            sink::jsonl("latency-curve-small", &parallel, sink_opts),
            "JSONL changed at {threads} threads"
        );
        assert_eq!(
            base_csv,
            sink::csv("latency-curve-small", &parallel, sink_opts),
            "CSV changed at {threads} threads"
        );
    }
}

/// The regression the arrival deadlines exist to prevent: on a sparse
/// schedule the leaping clock must wake *at* each pending arrival, not
/// beyond it. Equal reports and traces against the stepped baseline
/// prove no deadline was jumped; the stepped-cycle count proves the leap
/// actually crossed the idle gaps rather than never firing.
#[test]
fn leap_never_jumps_an_arrival_deadline() {
    // A 2x2 machine at 1 request/1000 cycles/core: combined inter-
    // arrival gaps average ~250 cycles against transactions an order of
    // magnitude shorter, so the fabric drains fully between arrivals
    // and the leap has real gaps to cross.
    let mut spec = curve_cell("pois-2");
    spec.mesh_side = 2;
    for k in spec.variant.knobs.iter_mut() {
        if let Knob::OpenLoad { millis, .. } = k {
            *millis = 1;
        }
    }
    spec.variant.label = "pois-1".into();
    let stepped = run_spec_ov(&spec, 12, &traced(2048));
    let mut leap_spec = spec.clone();
    leap_spec.engine = Engine::Leap;
    let leaped = run_spec_ov(&leap_spec, 12, &traced(2048));
    assert_eq!(
        stepped.report.to_json(),
        leaped.report.to_json(),
        "the leaping clock changed an open-loop run"
    );
    assert_eq!(stepped.trace, leaped.trace);
    assert!(
        leaped.stepped_cycles < stepped.stepped_cycles / 2,
        "the leap never fired ({} of {} cycles stepped)",
        leaped.stepped_cycles,
        stepped.stepped_cycles
    );
}

/// The p99 sojourn of the full ladder on one curve, keyed by load.
fn p99_ladder(specs: &[RunSpec], ops: usize) -> Vec<(u32, u64, f64)> {
    let mut ladder: Vec<(u32, u64, f64)> = specs
        .iter()
        .map(|s| {
            let r = run_spec(s, ops);
            let sp = r
                .report
                .obs
                .as_deref()
                .and_then(|o| o.spans.as_ref())
                .expect("span annex present");
            let mean = sp.total.sum() as f64 / sp.total.count().max(1) as f64;
            let (_, load) = s.open_load().unwrap();
            (load, sp.total.percentile(0.99).unwrap_or(0), mean)
        })
        .collect();
    ladder.sort_by_key(|&(load, ..)| load);
    ladder
}

/// The acceptance sweep: on the 8x8 mesh under both SCORPIO and the
/// LPD-D baseline, mean sojourn rises monotonically with offered load
/// and the top of the ladder clears the knee detector's 3x-baseline p99
/// bar. On the concentrated mesh the knee arrives no later (two tiles
/// share each injection port), and the per-slot injection-wait spread
/// widens past it. Heavy: a full Poisson ladder at real op counts — CI
/// runs it under `--release --ignored` with the other shape checks.
#[test]
#[ignore = "heavy: run explicitly with --release (CI equivalence job)"]
fn latency_curve_ramps_monotonically_to_a_detected_knee() {
    let scenario = registry::by_name("latency-curve-small").expect("registered");
    let specs = scenario.grid.enumerate();
    let poisson = |fabric: Fabric, proto: scorpio::Protocol| -> Vec<RunSpec> {
        specs
            .iter()
            .filter(|s| {
                s.fabric == fabric
                    && s.protocol == proto
                    && matches!(s.open_load(), Some((ArrivalProcess::Poisson, _)))
            })
            .cloned()
            .collect()
    };
    let knee_of = |ladder: &[(u32, u64, f64)]| -> Option<u32> {
        let base = ladder.first()?.1;
        ladder
            .iter()
            .find(|&&(_, p99, _)| p99 > 3 * base)
            .map(|&(load, ..)| load)
    };
    let mut mesh_knee = None;
    for proto in [scorpio::Protocol::Scorpio, scorpio::Protocol::LpdDir] {
        let ladder = p99_ladder(&poisson(Fabric::Mesh, proto), 60);
        assert_eq!(ladder.len(), 5);
        for pair in ladder.windows(2) {
            assert!(
                pair[1].2 >= pair[0].2,
                "{proto:?}: mean sojourn fell from load {} to {} ({:.1} -> {:.1})",
                pair[0].0,
                pair[1].0,
                pair[0].2,
                pair[1].2
            );
        }
        let knee = knee_of(&ladder);
        assert!(
            knee.is_some(),
            "{proto:?}: no knee on the mesh ladder: {ladder:?}"
        );
        if proto == scorpio::Protocol::Scorpio {
            mesh_knee = knee;
        }
    }
    // Concentration halves the injection bandwidth per router port, so
    // the SCORPIO knee must not move later — and the per-slot fairness
    // spread must widen between the bottom and the top of the ladder.
    let cmesh_specs = poisson(Fabric::CMesh(2), scorpio::Protocol::Scorpio);
    let cmesh = p99_ladder(&cmesh_specs, 60);
    let cmesh_knee = knee_of(&cmesh).expect("no knee on the cmesh ladder");
    assert!(
        cmesh_knee <= mesh_knee.unwrap(),
        "concentration moved the knee later ({cmesh_knee} > {:?})",
        mesh_knee
    );
    // The fairness surface: every tile slot of the concentrated mesh has
    // a populated per-slot inject-wait histogram (plus the MC bucket),
    // and the windowed per-endpoint wait extremes — the max/min cells
    // the render prints per slot — spread further apart at the top of
    // the ladder than at the bottom.
    let wait_spread = |spec: &RunSpec| -> f64 {
        let r = run_spec(spec, 60);
        let obs = r.report.obs.as_deref().expect("obs annex present");
        assert_eq!(obs.inject_wait_slots.len(), 3, "2 tile slots + MC");
        for (i, h) in obs.inject_wait_slots.iter().enumerate() {
            assert!(h.count() > 0, "inject-wait slot {i} never recorded");
        }
        let w = obs.windows.as_ref().expect("window report present");
        let mean = |e: &Option<scorpio::EpWait>| {
            e.as_ref()
                .map_or(0.0, |m| m.sum as f64 / m.count.max(1) as f64)
        };
        mean(&w.max_wait) - mean(&w.min_wait)
    };
    let bottom = cmesh_specs
        .iter()
        .min_by_key(|s| s.open_load().unwrap().1)
        .unwrap();
    let top = cmesh_specs
        .iter()
        .max_by_key(|s| s.open_load().unwrap().1)
        .unwrap();
    let low = wait_spread(bottom);
    let high = wait_spread(top);
    assert!(
        high > low,
        "windowed per-endpoint wait spread did not widen past the knee \
         ({low:.2} at the bottom vs {high:.2} at the top)"
    );
}
