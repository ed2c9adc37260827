//! The fast engines' hard requirement: they are *optimizations*, never a
//! semantics change. Every row runs three times — on the always-scan
//! reference, on the active-set engine and on the event-leaping clock —
//! and the fast runs must write byte-identical reports, config hashes,
//! flit traces, span streams and window streams to the reference's.
//!
//! The reference run also audits the sleep rule itself (`System::tile_wake`
//! / `mc_wake`, DESIGN.md §9) for its first [`BUDGET`] cycles, then runs
//! to completion. The always-scan engine ticks everything but keeps the
//! wake bookkeeping, so before every step `endpoint_awake` says what the
//! event-driven engines would have ticked, and every endpoint they would
//! have skipped must come out of the step with its state digest unchanged
//! (its NIC, L2, core driver and tile latches, or its NIC and MC).
//! Deleting any one wake source (flit ejection, non-empty-window
//! wake-all, the timed-wake heap, the wheel's L2-stage or window-start
//! deadlines) fails a row on the first tick that source should have
//! caused, naming the endpoint and the cycle span; the byte comparison
//! alone would only hang or diverge downstream. EXPERIMENTS.md records
//! the mutation runs.
//!
//! [`rows`] is the one row list: a covering set, not a cross product,
//! with each registry cell in it once. Features covered (a later cut must
//! keep each one somewhere):
//!
//! * every ordering protocol (SCORPIO, TokenB, INSO, LPD-D, HT-D) —
//!   [`Group::Fig7`], [`Group::Topology`], [`Group::CMesh`],
//!   [`Group::Traced`], [`Group::Squeeze`]
//! * each fabric: mesh ([`Group::Fig7`]), torus and ring
//!   ([`Group::Topology`], [`Group::Planes`]), concentrated mesh
//!   ([`Group::CMesh`])
//! * planes 1 / 2 / 4 — [`Group::Planes`] (2), [`Group::CMesh`] (1, 2),
//!   [`Group::Traced`] (2, 4), [`Group::Streams`] (1, 2)
//! * concentration 1 / 2 / 4 — [`Group::CMesh`], [`Group::Traced`] (2)
//! * notification scheme flat / quad-f2 / quad-f4 — [`Group::Phased`]
//! * recording off (the untraced groups), full trace ([`Group::Traced`],
//!   [`Group::Phased`], [`Group::OpenLoop`]), spans and windows
//!   ([`Group::Streams`], the open-loop cmesh row of
//!   [`Group::OffRegistry`])
//! * a leap that really fires (phased low-injection 8×8, proportional
//!   MCs) — [`Group::Phased`]
//! * closed loop, and open-loop Poisson and bursty arrivals —
//!   [`Group::OpenLoop`], [`Group::OffRegistry`]
//! * what no registry grid reaches: the non-pipelined NIC and L2, two
//!   outstanding accesses per core, a tiny L2 — [`Group::OffRegistry`];
//!   the `failure_injection` buffer squeeze under all five protocols —
//!   [`Group::Squeeze`]

use scorpio::{ObsLevel, OpenLoopConfig, Protocol, System, SystemConfig, SystemReport};
use scorpio_harness::exec::run_spec;
use scorpio_harness::registry;
use scorpio_harness::{Engine, Fabric, Knob, RunSpec};
use scorpio_sim::json::{self, Fields};
use scorpio_workloads::{generate, WorkloadParams};

/// Cycles audited per reference run: every row runs to completion well
/// inside it, except the phased rows, which cross their whole first burst
/// and the start of the 40 000-cycle gap that follows.
const BUDGET: u64 = 6_000;

/// One row: a machine and its workload, run on every engine.
struct Row {
    name: String,
    cfg: SystemConfig,
    workload: WorkloadParams,
    ops: usize,
    /// The leap must cross idle spans: its run steps fewer than half the
    /// reference's cycles.
    leaps: bool,
}

impl Row {
    fn of_spec(spec: &RunSpec, ops: usize) -> Row {
        Row {
            name: spec.key(),
            cfg: spec.config(),
            workload: spec.workload.clone(),
            ops,
            leaps: false,
        }
    }

    fn of_preset(name: &str, cfg: SystemConfig, workload: &str, ops: usize) -> Row {
        Row {
            name: name.to_string(),
            cfg,
            workload: WorkloadParams::by_name(workload).expect("preset exists"),
            ops,
            leaps: false,
        }
    }

    /// With the full flit trace on, capped at 2048 events.
    fn traced(mut self) -> Row {
        self.cfg = self.cfg.with_obs(ObsLevel::Trace).with_trace_limit(2048);
        self.name += "+trace";
        self
    }

    /// With transaction spans and 256-cycle windows on.
    fn streams(mut self) -> Row {
        self.cfg = self.cfg.with_spans(true).with_windows(256);
        self.name += "+spans+windows";
        self
    }
}

/// The test that runs a row: tier-1 runs the groups side by side.
#[derive(Clone, Copy, PartialEq)]
enum Group {
    /// fig7-small's `swaptions` cells: five protocols on the mesh.
    Fig7,
    /// Torus and ring under every protocol.
    Topology,
    /// 2 planes on the torus and ring: the always-scan engine never skips
    /// a plane, the fast engines skip every quiescent one.
    Planes,
    /// Concentrations 1/2/4, single- and multi-plane: endpoint-indexed
    /// broadcast tables, per-slot ESID views, higher-radix arbitration.
    CMesh,
    /// Full tracing: the obs annex and the merged trace are simulation
    /// truth too.
    Traced,
    /// The phased 8×8 point under flat, quad-f2 and quad-f4 notification.
    Phased(Option<u8>),
    /// Poisson and bursty arrivals: arrival deadlines reach the
    /// timed-wake heap, so the leaping clock stops at them.
    OpenLoop,
    /// Spans and windows on one and two planes.
    Streams,
    /// Configurations no registry grid reaches.
    OffRegistry,
    /// The buffer squeeze under all five protocols.
    Squeeze,
}

/// The registry grid `scenario`, filtered by `keep`.
fn grid(scenario: &str, keep: impl Fn(&RunSpec) -> bool) -> Vec<RunSpec> {
    registry::by_name(scenario)
        .unwrap_or_else(|| panic!("{scenario} is registered"))
        .grid
        .enumerate()
        .into_iter()
        .filter(keep)
        .collect()
}

/// The phased low-injection 8×8 point with proportional MCs: the regime
/// where the active-set engine skips most of the machine and the leap
/// crosses whole compute gaps in one step. `quad` adds a quad-tree
/// notification scheme of that fanout.
fn phased_8x8(quad: Option<u8>) -> RunSpec {
    let mut spec = grid("scaling-mesh-small", |s| {
        s.mesh_side == 8 && s.workload.name == "uniform-low"
    })
    .into_iter()
    .next()
    .expect("8x8 uniform-low point exists");
    if let Some(fanout) = quad {
        spec.variant.label = format!("{}+quad-f{fanout}", spec.variant.label);
        spec.variant.knobs.push(Knob::QuadNotify(fanout));
    }
    spec
}

/// The one row list, each row with the test that runs it. Each registry
/// cell appears once, with whatever recording its group adds.
fn rows() -> Vec<(Group, Row)> {
    let mut rows = Vec::new();
    for s in grid("fig7-small", |_| true) {
        let row = Row::of_spec(&s, 12);
        rows.push(match (s.workload.name, s.protocol) {
            ("blackscholes", Protocol::Scorpio) => (Group::Streams, row.traced().streams()),
            ("blackscholes", _) => (Group::Traced, row.traced()),
            _ => (Group::Fig7, row),
        });
    }
    // The mesh cells are fig7-small's.
    for s in grid("topology-small", |s| {
        s.workload.name == "blackscholes" && s.fabric != Fabric::Mesh
    }) {
        rows.push((Group::Topology, Row::of_spec(&s, 8)));
    }
    for s in grid("planes-small", |s| {
        s.planes != 1 && s.protocol == Protocol::Scorpio
    }) {
        let row = Row::of_spec(&s, 8);
        rows.push(match (s.planes, s.fabric) {
            (4, _) => (Group::Traced, row.traced()),
            (_, Fabric::Mesh) => (Group::Streams, row.streams()),
            _ => (Group::Planes, row),
        });
    }
    // 3 concentrations × {1, 2} planes of SCORPIO, and the four baseline
    // protocols at concentration 4.
    for s in grid("cmesh-small", |s| {
        s.protocol == Protocol::Scorpio || (s.fabric == Fabric::CMesh(4) && s.planes == 1)
    }) {
        let row = Row::of_spec(&s, 8);
        rows.push(match (s.fabric, s.protocol) {
            (Fabric::CMesh(2), Protocol::Scorpio) => (Group::Traced, row.traced()),
            _ => (Group::CMesh, row),
        });
    }
    for quad in [None, Some(2), Some(4)] {
        let row = Row::of_spec(&phased_8x8(quad), 13).traced();
        if let Some(fanout) = quad {
            let label = row.cfg.label();
            assert!(label.contains(&format!("+q{fanout}")), "{label}: no quad");
        }
        rows.push((Group::Phased(quad), Row { leaps: true, ..row }));
    }
    for s in grid("latency-curve-small", |s| {
        s.protocol == Protocol::Scorpio
            && s.fabric == Fabric::Mesh
            && ["pois-12", "burst-20"].contains(&s.variant.label.as_str())
    }) {
        rows.push((Group::OpenLoop, Row::of_spec(&s, 8).traced()));
    }
    let open = SystemConfig::cmesh(4, 4, 4)
        .with_planes(2)
        .with_open_loop(OpenLoopConfig::poisson(2))
        .with_obs(ObsLevel::Counters)
        .with_spans(true)
        .with_windows(512);
    let mut tiny = SystemConfig::with_topology(Fabric::Torus.topology(3)).with_obs(ObsLevel::Trace);
    tiny.l2.capacity_bytes = 2 * 1024;
    for row in [
        Row::of_preset("open-cmesh-2pl", open, "fft", 10),
        Row::of_preset(
            "non-pipelined",
            SystemConfig::square(4).with_pipelined_uncore(false),
            "barnes",
            10,
        ),
        Row::of_preset(
            "max_outstanding=2",
            SystemConfig::square(4).with_outstanding(2),
            "barnes",
            12,
        ),
        Row::of_preset("tiny-l2 torus, traced", tiny, "radix", 40),
        Row::of_preset("chip", SystemConfig::chip(), "barnes", 12),
    ] {
        rows.push((Group::OffRegistry, row));
    }
    for protocol in [
        Protocol::Scorpio,
        Protocol::TokenB,
        Protocol::Inso { expiry_window: 40 },
        Protocol::LpdDir,
        Protocol::HtDir,
    ] {
        let mut squeezed = SystemConfig::square(3).with_protocol(protocol);
        squeezed.nic.tracker_depth = 2;
        squeezed.nic.ordered_queue_depth = 1;
        squeezed.nic.packet_queue_depth = 1;
        squeezed.nic.max_pending_notifications = 1;
        squeezed.noc.inject_queue_depth = 1;
        squeezed.l2.queue_depth = 1;
        squeezed.l2.fid_capacity = 1;
        squeezed.l2.wb_entries = 1;
        let name = format!("buffer squeeze, {}", protocol.name());
        rows.push((
            Group::Squeeze,
            Row::of_preset(&name, squeezed, "canneal", 40),
        ));
    }
    rows
}

/// Steps `sys` on the always-scan engine for up to [`BUDGET`] cycles,
/// asserting that every tick the event-driven engines would have skipped
/// changes nothing. An endpoint's state changes only in its own tick, so
/// one digest when it falls asleep and one when a wake fires (or the
/// audit ends) cover every tick between.
fn audit(name: &str, sys: &mut System) {
    let eps = sys.config().cores() + sys.config().mesh.mc_routers().len();
    // Per endpoint asleep for the coming step: since when, and its digest.
    let mut asleep: Vec<Option<(u64, u64)>> = vec![None; eps];
    let (mut skipped, mut taken) = (0, 0);
    loop {
        let now = sys.cycle().as_u64();
        let over = sys.is_complete() || now >= BUDGET;
        for (ep, slot) in asleep.iter_mut().enumerate() {
            match (*slot, sys.endpoint_awake(ep) || over) {
                (Some((since, digest)), true) => {
                    assert_eq!(
                        digest,
                        sys.endpoint_digest(ep),
                        "{name}: endpoint {ep} was asleep from cycle {since} to {now} with \
                         no wake fired, yet one of its ticks in between changed state"
                    );
                    *slot = None;
                }
                (None, false) => *slot = Some((now, sys.endpoint_digest(ep))),
                _ => {}
            }
        }
        if over {
            break;
        }
        let sleeping = asleep.iter().flatten().count();
        skipped += sleeping;
        taken += eps - sleeping;
        sys.step();
    }
    assert!(skipped > 0, "{name}: the sleep rule never slept anything");
    assert!(taken > 0, "{name}: nothing ever ticked");
}

/// What one run wrote.
struct Output {
    report: SystemReport,
    config_hash: u64,
    /// Each recorded stream by name, one JSON body per record.
    streams: Vec<(&'static str, Vec<String>)>,
    stepped: u64,
}

fn bodies<T: Fields>(records: &[T]) -> Vec<String> {
    records
        .iter()
        .map(|r| json::record(|o| r.write_fields(o)))
        .collect()
}

/// Runs `row` to completion on `engine`; the reference run is audited on
/// the way.
fn run(row: &Row, engine: Engine) -> Output {
    let cfg = &row.cfg;
    let traces = generate(
        &row.workload.clone().with_ops(row.ops),
        cfg.cores(),
        cfg.seed,
    );
    let mut sys = System::with_traces(cfg.clone(), traces);
    match engine {
        Engine::AlwaysScan => {
            sys.set_always_scan(true);
            audit(&row.name, &mut sys);
        }
        Engine::Leap => sys.set_leap(true),
        Engine::ActiveSet => {}
    }
    let report = sys.run_to_completion();
    let mut streams = Vec::new();
    if cfg.obs == ObsLevel::Trace {
        streams.push(("trace", bodies(&sys.take_trace().0)));
    }
    if cfg.spans {
        streams.push(("spans", bodies(&sys.span_records().0)));
    }
    if cfg.window_cycles != 0 {
        streams.push(("windows", bodies(&sys.window_rows())));
    }
    Output {
        report,
        config_hash: sys.config().stable_hash(),
        streams,
        stepped: sys.stepped_cycles(),
    }
}

/// Runs `row` on the audited reference and on both fast engines, and
/// asserts each fast run byte-identical to the reference.
fn check(row: &Row) {
    let reference = run(row, Engine::AlwaysScan);
    let json = reference.report.to_json();
    assert!(reference.report.ops_completed > 0, "{}: no op", row.name);
    let recording = row.cfg.obs != ObsLevel::Off || row.cfg.spans || row.cfg.window_cycles != 0;
    assert_eq!(
        reference.report.obs.is_some(),
        recording,
        "{}: annex",
        row.name
    );
    for (stream, lines) in &reference.streams {
        assert!(!lines.is_empty(), "{}: empty {stream} stream", row.name);
    }
    for engine in [Engine::ActiveSet, Engine::Leap] {
        let fast = run(row, engine);
        let at = format!("{} on {engine:?}", row.name);
        assert_eq!(json, fast.report.to_json(), "report divergence at {at}");
        assert_eq!(reference.config_hash, fast.config_hash, "{at}");
        for ((stream, want), (_, got)) in reference.streams.iter().zip(&fast.streams) {
            if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
                panic!(
                    "{stream} divergence at {at}, record {i}:\n  reference {:?}\n  {engine:?} {:?}",
                    want.get(i),
                    got.get(i)
                );
            }
        }
        if row.leaps && engine == Engine::Leap {
            assert!(
                fast.stepped < reference.stepped / 2,
                "{at}: the leap never fired ({} of {} cycles stepped)",
                fast.stepped,
                reference.stepped
            );
        }
    }
}

fn check_group(group: Group) {
    let mine: Vec<Row> = rows()
        .into_iter()
        .filter_map(|(g, row)| (g == group).then_some(row))
        .collect();
    assert!(!mine.is_empty(), "no row in the group");
    mine.iter().for_each(check);
}

#[test]
fn fig7_small_reports_are_byte_identical_across_engines() {
    check_group(Group::Fig7);
}

#[test]
fn topology_small_reports_are_byte_identical_across_engines() {
    check_group(Group::Topology);
}

#[test]
fn multi_plane_reports_are_byte_identical_across_engines() {
    check_group(Group::Planes);
}

#[test]
fn cmesh_reports_are_byte_identical_across_engines() {
    check_group(Group::CMesh);
}

#[test]
fn observability_reports_and_traces_are_byte_identical_across_engines() {
    check_group(Group::Traced);
}

#[test]
fn flat_notify_matrix_is_byte_identical_including_traces() {
    check_group(Group::Phased(None));
}

#[test]
fn quad_notify_matrix_is_byte_identical_including_traces() {
    check_group(Group::Phased(Some(2)));
}

#[test]
fn quad_f4_matrix_is_byte_identical_including_traces() {
    check_group(Group::Phased(Some(4)));
}

#[test]
fn open_loop_reports_and_traces_are_byte_identical_across_engines() {
    check_group(Group::OpenLoop);
}

#[test]
fn span_and_window_streams_are_engine_invariant() {
    check_group(Group::Streams);
}

#[test]
fn off_registry_rows_are_byte_identical_across_engines() {
    check_group(Group::OffRegistry);
}

#[test]
fn buffer_squeeze_rows_are_byte_identical_across_engines() {
    check_group(Group::Squeeze);
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
/// cycles. Deterministic, but kilocore-heavy, so ignored like the other
/// heavy shape checks (CI equivalence job).
#[test]
#[ignore = "heavy: run explicitly with --release (CI equivalence job)"]
fn kilocore_quad_leap_matches_the_active_set_in_fewer_steps() {
    let spec = grid("scaling-kilocore", |s| {
        s.mesh_side == 32
            && s.fabric == Fabric::Mesh
            && s.engine == Engine::Leap
            && s.variant.knobs.contains(&Knob::QuadNotify(2))
    })
    .into_iter()
    .next()
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
