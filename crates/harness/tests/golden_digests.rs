//! Cross-commit golden digests.
//!
//! `reference ≡ fast` cannot catch a change to the router, arbiters or the
//! notification tracker: both engines run the same code. This table pins
//! the FNV-1a digest of `report().to_json()`, of the *full* flit trace and
//! of the span stream for a covering set of small cells, recorded at the
//! commit before the mask-native router rewrite (PR 13). Any later change
//! that moves one arbitration decision, credit or notification expansion
//! shows up here as a digest mismatch; the failure message prints the whole
//! table of actual values so an *intended* behaviour change can re-pin it
//! in one paste.
//!
//! Covered: 6×6 mesh under SCORPIO and LPD-D (three unordered vnets), 4×4
//! torus (dateline classes C0/C1), 8-router ring, `cmesh(2,2,4)` × 2 planes
//! (9-port routers, plane steering), saturated 8×8 `bcast-heavy` (rVC and
//! SID-conflict paths), TokenB and INSO-40 on 4×4, one open-loop Poisson
//! cell with spans, one open-loop bursty cell (every ON/OFF dwell and gap
//! is a geometric draw), and the buffer squeeze (one-deep injection and L2
//! queues, non-pipelined uncore, four outstanding accesses): INSO-1,
//! LPD-D and TokenB on 8×8 `bcast-heavy`, where the baselines' held
//! broadcasts retry (a slot-stamped request, an INSO expiry, a home's
//! rebroadcast) and tiles hold data the L2 cannot take, and SCORPIO on
//! 4×4, whose tiles hold data too. A second table runs with the
//! observability level off but spans or windows on (4×4 with spans, 4×4
//! with windows, `cmesh(2,2,4)` × 2 planes with both): their reports carry
//! the annex with its latency histograms empty, and the window stream is
//! digested beside the report.

use scorpio::{
    span_json, ArrivalProcess, ObsLevel, OpenLoopConfig, Protocol, System, SystemConfig, WindowRow,
};
use scorpio_harness::registry;
use scorpio_noc::TraceEvent;
use scorpio_workloads::{generate, WorkloadParams};

/// A cap no golden cell reaches (asserted: nothing may be dropped).
const TRACE_CAP: usize = 50_000_000;

struct Golden {
    name: &'static str,
    cfg: fn() -> SystemConfig,
    workload: fn() -> WorkloadParams,
    ops: usize,
    report: u64,
    trace: u64,
    spans: u64,
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a line stream: every line plus a newline, in order.
fn digest<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    lines.fold(0xcbf2_9ce4_8422_2325, |h, l| {
        fnv1a(fnv1a(h, l.as_bytes()), b"\n")
    })
}

fn preset(name: &str) -> WorkloadParams {
    WorkloadParams::by_name(name).expect("workload preset exists")
}

/// `side`×`side` mesh under `protocol` with the least buffering the
/// baselines' retry paths need to run: one-deep injection and L2 queues,
/// non-pipelined NIC and L2, four outstanding accesses per core.
fn squeezed(side: u16, protocol: Protocol) -> SystemConfig {
    let mut cfg = SystemConfig::square(side)
        .with_protocol(protocol)
        .with_outstanding(4)
        .with_pipelined_uncore(false);
    cfg.noc.inject_queue_depth = 1;
    cfg.l2.queue_depth = 1;
    cfg
}

/// A workload that lives in the scenario registry rather than the presets.
fn registry_workload(scenario: &str, name: &str) -> WorkloadParams {
    registry::by_name(scenario)
        .expect("scenario registered")
        .grid
        .workloads
        .into_iter()
        .find(|w| w.name == name)
        .expect("scenario carries the workload")
}

const TABLE: &[Golden] = &[
    Golden {
        name: "mesh6x6/SCORPIO/barnes",
        cfg: SystemConfig::chip,
        workload: || preset("barnes"),
        ops: 10,
        report: 0x4e7d_ac2c_a7de_29a4,
        trace: 0x67f4_6409_5c7c_76b9,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh6x6/LPD-D/barnes",
        cfg: || SystemConfig::chip().with_protocol(Protocol::LpdDir),
        workload: || preset("barnes"),
        ops: 10,
        report: 0x396c_543e_eb4f_d0b3,
        trace: 0xbfa2_f4a5_16f4_f587,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "torus4x4/SCORPIO/blackscholes",
        cfg: || SystemConfig::torus(4),
        workload: || preset("blackscholes"),
        ops: 20,
        report: 0x81b4_4aa6_2540_f8ee,
        trace: 0x885b_ee20_3fd1_cbb3,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "ring8/SCORPIO/barnes",
        cfg: || SystemConfig::ring(8, 4),
        workload: || preset("barnes"),
        ops: 20,
        report: 0x125d_7417_492b_3813,
        trace: 0x85a1_36fe_decc_bd88,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "cmesh2x2x4+2pl/SCORPIO/barnes",
        cfg: || SystemConfig::cmesh(2, 2, 4).with_planes(2),
        workload: || preset("barnes"),
        ops: 20,
        report: 0x0d87_5a7d_a6d1_1548,
        trace: 0x414e_953a_2114_8703,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh8x8/SCORPIO/bcast-heavy",
        cfg: || SystemConfig::square(8),
        workload: || registry_workload("planes-throughput", "bcast-heavy"),
        ops: 2,
        report: 0x1b8e_ae57_6787_510d,
        trace: 0xf8a5_3fb2_9959_d9ee,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh4x4/TokenB/barnes",
        cfg: || SystemConfig::square(4).with_protocol(Protocol::TokenB),
        workload: || preset("barnes"),
        ops: 20,
        report: 0xf2b4_192a_fe41_6c09,
        trace: 0xf1bf_7bad_dc53_8d73,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh4x4/INSO-40/barnes",
        cfg: || SystemConfig::square(4).with_protocol(Protocol::Inso { expiry_window: 40 }),
        workload: || preset("barnes"),
        ops: 10,
        report: 0xd188_5fba_17ee_7946,
        trace: 0x7958_8650_d468_5cfc,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh4x4/SCORPIO/open-uniform/pois-8+spans",
        cfg: || {
            SystemConfig::square(4)
                .with_open_loop(OpenLoopConfig::poisson(8))
                .with_spans(true)
        },
        workload: || registry_workload("latency-curve-small", "open-uniform"),
        ops: 20,
        report: 0xe1ba_1499_2950_aefc,
        trace: 0x0e1c_80ec_d040_746d,
        spans: 0xa693_cfb1_f235_8e60,
    },
    Golden {
        name: "mesh4x4/SCORPIO/open-uniform/burst-20",
        cfg: || {
            SystemConfig::square(4).with_open_loop(OpenLoopConfig {
                process: ArrivalProcess::Bursty { on: 50, off: 150 },
                ..OpenLoopConfig::poisson(20)
            })
        },
        workload: || registry_workload("latency-curve-small", "open-uniform"),
        ops: 20,
        report: 0x138e_4913_7e62_d488,
        trace: 0x9a14_5ccf_f29b_6d9f,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh8x8/INSO-1/bcast-heavy/squeeze",
        cfg: || squeezed(8, Protocol::Inso { expiry_window: 1 }),
        workload: || registry_workload("planes-throughput", "bcast-heavy"),
        ops: 25,
        report: 0xc035_2bb6_7629_d675,
        trace: 0x9659_696f_eb9c_dbd5,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh8x8/LPD-D/bcast-heavy/squeeze",
        cfg: || squeezed(8, Protocol::LpdDir),
        workload: || registry_workload("planes-throughput", "bcast-heavy"),
        ops: 4,
        report: 0xab71_dde1_041d_01bf,
        trace: 0x1fe8_e4e8_aaa1_e862,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh8x8/TokenB/bcast-heavy/squeeze",
        cfg: || squeezed(8, Protocol::TokenB),
        workload: || registry_workload("planes-throughput", "bcast-heavy"),
        ops: 4,
        report: 0xe951_026c_0f71_fb05,
        trace: 0x562b_6739_ab80_b86f,
        spans: 0xcbf2_9ce4_8422_2325,
    },
    Golden {
        name: "mesh4x4/SCORPIO/bcast-heavy/squeeze",
        cfg: || squeezed(4, Protocol::Scorpio),
        workload: || registry_workload("planes-throughput", "bcast-heavy"),
        ops: 12,
        report: 0xda7b_f0e2_1b2a_b42a,
        trace: 0x2429_7753_51aa_9317,
        spans: 0xcbf2_9ce4_8422_2325,
    },
];

/// Runs one golden cell and returns its (report, trace, spans) digests.
fn run(g: &Golden) -> (u64, u64, u64) {
    let cfg = (g.cfg)()
        .with_obs(ObsLevel::Trace)
        .with_trace_limit(TRACE_CAP);
    let traces = generate(&(g.workload)().with_ops(g.ops), cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    let report = sys.run_to_completion();
    assert!(report.ops_completed > 0, "{}: nothing completed", g.name);
    let (events, dropped) = sys.take_trace();
    assert_eq!(dropped, 0, "{}: the trace cap truncated the run", g.name);
    assert!(!events.is_empty(), "{}: empty trace", g.name);
    let trace: Vec<String> = events.iter().map(TraceEvent::json_body).collect();
    let (records, span_dropped) = sys.span_records();
    assert_eq!(
        span_dropped, 0,
        "{}: the span cap truncated the run",
        g.name
    );
    let spans: Vec<String> = records.iter().map(span_json).collect();
    (
        digest(std::iter::once(report.to_json().as_str())),
        digest(trace.iter().map(String::as_str)),
        digest(spans.iter().map(String::as_str)),
    )
}

#[test]
fn reports_traces_and_spans_match_the_recorded_digests() {
    let actual: Vec<(u64, u64, u64)> = TABLE.iter().map(run).collect();
    let stale = TABLE
        .iter()
        .zip(&actual)
        .any(|(g, &a)| a != (g.report, g.trace, g.spans));
    if stale {
        let mut table = String::new();
        for (g, (report, trace, spans)) in TABLE.iter().zip(&actual) {
            let mark = if (*report, *trace, *spans) == (g.report, g.trace, g.spans) {
                "ok      "
            } else {
                "MISMATCH"
            };
            table.push_str(&format!(
                "{mark} {:<46} report: {report:#018x}, trace: {trace:#018x}, spans: {spans:#018x}\n",
                g.name
            ));
        }
        panic!("golden digests moved — simulated behaviour changed:\n{table}");
    }
}

/// A cell recorded with the observability level off: only spans and
/// windows turn the annex on.
struct Annex {
    name: &'static str,
    cfg: fn() -> SystemConfig,
    ops: usize,
    report: u64,
    windows: u64,
}

const ANNEX: &[Annex] = &[
    Annex {
        name: "mesh4x4/SCORPIO/barnes+spans",
        cfg: || SystemConfig::square(4).with_spans(true),
        ops: 20,
        report: 0xc218_e8cd_1735_a8c9,
        windows: 0xcbf2_9ce4_8422_2325,
    },
    Annex {
        name: "mesh4x4/SCORPIO/barnes+windows",
        cfg: || SystemConfig::square(4).with_windows(64),
        ops: 20,
        report: 0x1916_3b17_7bcf_3e20,
        windows: 0xc2d1_a224_cc91_7bc8,
    },
    Annex {
        name: "cmesh2x2x4+2pl/SCORPIO/barnes+spans+windows",
        cfg: || {
            SystemConfig::cmesh(2, 2, 4)
                .with_planes(2)
                .with_spans(true)
                .with_windows(128)
        },
        ops: 20,
        report: 0xe138_e439_1498_cb2e,
        windows: 0xb653_dd34_3c09_0f21,
    },
];

/// Runs one annex cell and returns its (report, window stream) digests.
fn run_annex(a: &Annex) -> (u64, u64) {
    let cfg = (a.cfg)();
    assert_eq!(cfg.obs, ObsLevel::Off, "{}: counters must be off", a.name);
    let traces = generate(&preset("barnes").with_ops(a.ops), cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    let report = sys.run_to_completion();
    assert!(report.obs.is_some(), "{}: no annex", a.name);
    let rows: Vec<String> = sys.window_rows().iter().map(WindowRow::json_body).collect();
    (
        digest(std::iter::once(report.to_json().as_str())),
        digest(rows.iter().map(String::as_str)),
    )
}

#[test]
fn annexes_without_counters_match_the_recorded_digests() {
    let actual: Vec<(u64, u64)> = ANNEX.iter().map(run_annex).collect();
    if ANNEX
        .iter()
        .zip(&actual)
        .any(|(a, &d)| d != (a.report, a.windows))
    {
        let mut table = String::new();
        for (a, (report, windows)) in ANNEX.iter().zip(&actual) {
            let mark = if (*report, *windows) == (a.report, a.windows) {
                "ok      "
            } else {
                "MISMATCH"
            };
            table.push_str(&format!(
                "{mark} {:<46} report: {report:#018x}, windows: {windows:#018x}\n",
                a.name
            ));
        }
        panic!("annex digests moved — the report or window stream changed:\n{table}");
    }
}

/// The span row must actually carry spans, and the others must not: the
/// empty-stream digest in their rows is the FNV offset basis.
#[test]
fn span_digests_are_empty_exactly_where_spans_are_off() {
    for g in TABLE {
        let spans_on = (g.cfg)().spans;
        assert_eq!(
            g.spans == 0xcbf2_9ce4_8422_2325,
            !spans_on,
            "{}: span digest does not match the cell's span setting",
            g.name
        );
    }
}
