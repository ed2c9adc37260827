//! Observability integration: the flit trace is not a parallel truth.
//! Every `eject` event carries the packet's end-to-end latency, so the
//! trace must *reconcile exactly* with the aggregate packet-latency
//! histogram the report carries — rebuild the histogram from the trace
//! and the buckets must match one for one. (What the layer costs, off and
//! on, is measured by the `benchmark/` crate: `obs.on_cost_share`,
//! `trace.overhead_share`.)

use scorpio::ObsLevel;
use scorpio_harness::exec::{run_spec_ov, Overrides, RunResult};
use scorpio_harness::{registry, Engine};
use scorpio_sim::json::{self, Fields};
use std::collections::{HashMap, HashSet};

/// Each record's JSON body, written from its field list.
fn bodies<T: Fields>(records: &[T]) -> Vec<String> {
    records
        .iter()
        .map(|r| json::record(|o| r.write_fields(o)))
        .collect()
}

/// Tiny numeric-field extractor for the hand-rolled trace JSON (no JSON
/// parser in the dependency-free build): the value of `"key":` up to the
/// next `,` or `}`.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// The `"event"` kind string of a trace line.
fn kind(line: &str) -> &str {
    let pat = "\"event\":\"";
    let start = line.find(pat).expect("trace line has an event kind") + pat.len();
    let rest = &line[start..];
    &rest[..rest.find('"').expect("kind string is terminated")]
}

/// Full flit tracing, capped at `limit` events.
fn traced(limit: usize) -> Overrides {
    Overrides {
        obs: Some(ObsLevel::Trace),
        trace_limit: Some(limit),
        ..Overrides::default()
    }
}

/// Run one SCORPIO cell with an effectively unbounded trace and check
/// that (a) every eject's `lat` equals its packet's inject→eject span,
/// (b) the histogram rebuilt from the `lat` fields matches the report's
/// packet-latency histogram bucket for bucket, and (c) the trace
/// exercises the full documented schema (all six event kinds).
#[test]
fn trace_reconciles_with_packet_latency_histogram() {
    let scenario = registry::by_name("fig7-small").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.protocol == scorpio::Protocol::Scorpio)
        .expect("a SCORPIO cell exists");
    let r = run_spec_ov(&spec, 10, &traced(10_000_000));
    let (events, dropped) = r.trace.as_ref().expect("trace recorded");
    assert_eq!(*dropped, 0, "the cap must not truncate this run");
    let obs = r.report.obs.as_deref().expect("obs annex present");
    let trace = bodies(events);

    let mut inject: HashMap<(u64, u64), u64> = HashMap::new();
    let mut buckets = [0u64; 65];
    let mut ejects = 0u64;
    let mut kinds = HashSet::new();
    for line in &trace {
        let k = kind(line);
        kinds.insert(k.to_string());
        match k {
            "inject" => {
                let key = (field(line, "plane").unwrap(), field(line, "uid").unwrap());
                inject.insert(key, field(line, "cycle").unwrap());
            }
            "eject" => {
                ejects += 1;
                let lat = field(line, "lat").unwrap();
                buckets[(64 - lat.leading_zeros()) as usize] += 1;
                let key = (field(line, "plane").unwrap(), field(line, "uid").unwrap());
                let t0 = inject[&key];
                assert_eq!(
                    field(line, "cycle").unwrap() - t0,
                    lat,
                    "inject→eject span disagrees with lat: {line}"
                );
            }
            _ => {}
        }
    }
    assert!(ejects > 0, "the run delivered packets");
    assert_eq!(obs.packet_latency.count(), ejects, "one sample per eject");
    let reported: Vec<(usize, u64)> = obs.packet_latency.nonzero_buckets().collect();
    let rebuilt: Vec<(usize, u64)> = buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i, c))
        .collect();
    assert_eq!(
        reported, rebuilt,
        "trace does not reconcile with the histogram"
    );
    for k in [
        "inject",
        "vc-alloc",
        "hop",
        "bypass",
        "eject",
        "ordered-commit",
    ] {
        assert!(kinds.contains(k), "trace never emitted a {k:?} event");
    }
}

/// When the cap bites, the retained events are the exact global prefix —
/// the capped trace must equal the first `limit` lines of the uncapped
/// one, and the report's kept/dropped split must account for every event.
#[test]
fn capped_trace_is_an_exact_prefix_of_the_uncapped_trace() {
    let scenario = registry::by_name("fig7-small").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.protocol == scorpio::Protocol::Scorpio)
        .expect("a SCORPIO cell exists");
    let full = run_spec_ov(&spec, 8, &traced(10_000_000));
    let capped = run_spec_ov(&spec, 8, &traced(200));
    let (full_trace, _) = full.trace.as_ref().unwrap();
    let (capped_trace, capped_dropped) = capped.trace.as_ref().unwrap();
    assert!(full_trace.len() > 200, "run is big enough to hit the cap");
    assert_eq!(capped_trace.len(), 200);
    assert_eq!(
        &full_trace[..200],
        &capped_trace[..],
        "capped trace is not the exact global prefix"
    );
    assert!(*capped_dropped > 0);
    // Identical simulation either way: the cap only truncates output.
    assert_eq!(full.report.runtime_cycles, capped.report.runtime_cycles);
}

/// The SCORPIO cell of `fig7-small` — the shared subject of the span
/// suite below.
fn scorpio_cell() -> scorpio_harness::RunSpec {
    registry::by_name("fig7-small")
        .expect("registered")
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.protocol == scorpio::Protocol::Scorpio)
        .expect("a SCORPIO cell exists")
}

/// The shared body of the span-reconciliation suite: every span line
/// must (a) carry phases that are exactly the differences of its stamps
/// and partition its end-to-end latency, (b) rebuild the annex's
/// per-phase histograms bucket for bucket, and (c) reconcile with the
/// scalar report: inject+flight+commit is the ordering delay, and span
/// totals plus hit latencies rebuild the full L2 service distribution.
fn check_span_reconciliation(r: &RunResult) {
    let obs = r.report.obs.as_deref().expect("obs annex present");
    let sp = obs.spans.as_ref().expect("span report present");
    let (records, dropped) = r.spans.as_ref().expect("spans recorded");
    assert_eq!(*dropped, 0, "the cap must not truncate this run");
    let spans = bodies(records);
    assert_eq!(sp.dropped, 0);
    assert_eq!(sp.count as usize, spans.len());
    assert!(!spans.is_empty(), "the run missed at least once");

    const PHASES: [&str; 7] = [
        "source", "queue", "inject", "flight", "commit", "data", "fill",
    ];
    let mut rebuilt: HashMap<&str, [u64; 65]> = HashMap::new();
    let mut totals = [0u64; 65];
    let bucket = |v: u64| (64 - v.leading_zeros()) as usize;
    for line in &spans {
        // `inject`/`data` name both an absolute stamp and a phase, so
        // split at the phases object before extracting fields.
        let (head, phases) = line.split_once("\"phases\":").expect("span has phases");
        let stamp = |key| field(head, key).unwrap_or_else(|| panic!("span lacks {key}: {line}"));
        let phase = |key| field(phases, key).unwrap_or_else(|| panic!("span lacks {key}: {line}"));
        // Stamps are monotonic through the pipeline and the phases are
        // exactly their differences.
        assert_eq!(phase("source"), stamp("admitted") - stamp("enqueued"));
        assert_eq!(phase("queue"), stamp("issue") - stamp("admitted"));
        assert_eq!(phase("inject"), stamp("inject") - stamp("issue"));
        assert_eq!(phase("flight"), stamp("popped") - stamp("inject"));
        assert_eq!(phase("commit"), stamp("ordered") - stamp("popped"));
        let ready = stamp("data").max(stamp("ordered"));
        assert_eq!(phase("data"), ready - stamp("ordered"));
        assert_eq!(phase("fill"), stamp("retire") - ready);
        // The seven phases partition the end-to-end miss latency.
        let total: u64 = PHASES.iter().map(|&p| phase(p)).sum();
        assert_eq!(total, stamp("retire") - stamp("enqueued"));
        for p in PHASES {
            rebuilt.entry(p).or_insert([0; 65])[bucket(phase(p))] += 1;
        }
        totals[bucket(total)] += 1;
    }
    let nz = |b: &[u64; 65]| -> Vec<(usize, u64)> {
        b.iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    };
    for (name, hist) in PHASES.iter().zip([
        &sp.source, &sp.queue, &sp.inject, &sp.flight, &sp.commit, &sp.data, &sp.fill,
    ]) {
        assert_eq!(
            hist.nonzero_buckets().collect::<Vec<_>>(),
            nz(&rebuilt[name]),
            "span stream does not rebuild the {name} histogram"
        );
    }
    assert_eq!(sp.total.nonzero_buckets().collect::<Vec<_>>(), nz(&totals));

    // Scalar reconciliation — the identities the latency-breakdown
    // table prints as `exact`.
    let ordering = &r.report.ordering_delay;
    assert_eq!(sp.inject.count(), ordering.count());
    assert_eq!(
        sp.inject.sum() + sp.flight.sum() + sp.commit.sum(),
        ordering.sum(),
        "inject+flight+commit must be the ordering delay"
    );
    let service = &r.report.l2_service_latency;
    assert_eq!(sp.total.count() + sp.hit.count(), service.count());
    assert_eq!(
        sp.total.sum() + sp.hit.sum(),
        service.sum(),
        "span totals + hits must rebuild the L2 service distribution"
    );
}

/// Closed-loop spans reconcile, and the source phase — arrival to
/// source-queue release, which only open-loop injection can stretch —
/// is identically zero because a closed-loop request is admitted the
/// cycle it is generated.
#[test]
fn spans_reconcile_with_report_histograms() {
    let r = run_spec_ov(
        &scorpio_cell(),
        10,
        &Overrides {
            spans: true,
            ..Overrides::default()
        },
    );
    check_span_reconciliation(&r);
    let sp = r.report.obs.as_deref().unwrap().spans.as_ref().unwrap();
    assert_eq!(sp.source.sum(), 0, "closed-loop source wait must be zero");
    assert_eq!(sp.source.count(), sp.total.count());
}

/// Open-loop spans reconcile too, and the source phase is *live*: at an
/// offered load past the service capacity the bounded source queue
/// actually backs up, so the rebuilt-from-stream source histogram must
/// carry real wait — the new phase joins the partition of
/// retire−enqueued rather than riding alongside it.
#[test]
fn open_loop_spans_reconcile_and_fill_the_source_phase() {
    let scenario = registry::by_name("latency-curve-small").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| {
            s.protocol == scorpio::Protocol::Scorpio
                && s.fabric == scorpio_harness::Fabric::Mesh
                && s.variant.label == "pois-30"
        })
        .expect("the mesh SCORPIO pois-30 cell exists");
    let r = run_spec_ov(
        &spec,
        10,
        &Overrides {
            spans: true,
            ..Overrides::default()
        },
    );
    check_span_reconciliation(&r);
    let sp = r.report.obs.as_deref().unwrap().spans.as_ref().unwrap();
    assert!(
        sp.source.sum() > 0,
        "past-capacity offered load never queued at the source"
    );
}

/// Spans and windows are simulation truth, so every engine must render
/// byte-identical streams — the always-scan reference and the leaping
/// clock against the active-set default, on single- and multi-plane
/// configurations.
#[test]
fn span_and_window_streams_are_engine_invariant() {
    let ov = Overrides {
        spans: true,
        window_cycles: Some(256),
        ..Overrides::default()
    };
    for planes in [1, 2] {
        let mut spec = scorpio_cell();
        spec.planes = planes;
        let base = run_spec_ov(&spec, 13, &ov);
        let streams = |r: &RunResult| {
            let (spans, _) = r.spans.as_ref().expect("spans recorded");
            let windows = r.windows.as_ref().expect("windows recorded");
            (bodies(spans), bodies(windows))
        };
        let (spans, windows) = streams(&base);
        assert!(!spans.is_empty() && !windows.is_empty());
        for engine in [Engine::AlwaysScan, Engine::Leap] {
            spec.engine = engine;
            let r = run_spec_ov(&spec, 13, &ov);
            let (s, w) = streams(&r);
            assert_eq!(s, spans, "{engine:?} spans diverge at {planes} plane(s)");
            assert_eq!(
                w, windows,
                "{engine:?} windows diverge at {planes} plane(s)"
            );
            assert_eq!(
                r.report.to_json(),
                base.report.to_json(),
                "{engine:?} report diverges at {planes} plane(s)"
            );
        }
    }
}

/// Executor worker counts must not leak into the recorded streams or the
/// sinks: `--threads 1/2/8` over the whole latency-breakdown grid emit
/// byte-identical span/window JSONL and CSV.
#[test]
fn span_and_window_output_is_thread_invariant() {
    use scorpio_harness::exec::{run_grid, ExecOptions};
    use scorpio_harness::sink::{self, SinkOptions};
    let scenario = registry::by_name("latency-breakdown-small").expect("registered");
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
    let base_json = sink::jsonl("lb", &serial, sink_opts);
    let base_csv = sink::csv("lb", &serial, sink_opts);
    assert!(serial
        .iter()
        .all(|r| r.spans.is_some() && r.windows.is_some()));
    for threads in [2, 8] {
        let parallel = run_grid(&scenario.grid, &mk(threads));
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spans, b.spans, "{} spans depend on threads", a.spec.key());
            let windows = |r: &RunResult| bodies(r.windows.as_deref().unwrap_or_default());
            assert_eq!(
                windows(a),
                windows(b),
                "{} windows depend on threads",
                a.spec.key()
            );
        }
        assert_eq!(sink::jsonl("lb", &parallel, sink_opts), base_json);
        assert_eq!(sink::csv("lb", &parallel, sink_opts), base_csv);
    }
}
