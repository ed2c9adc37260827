//! Litmus tests: which values may loads return? SCORPIO's claim is that
//! one global order of snoops makes the mesh behave like a bus, so every
//! run must be sequentially consistent (SC). Four shapes, written as core
//! programs on a 2×2 mesh (tiles 0 and 3, one access in flight per core —
//! the chip's AHB constraint), for all five protocols on 1 and 2 planes:
//!
//! - MP (message passing): T0 stores x = 1 then y = 1; T1 loads y then x.
//!   SC forbids (y, x) = (1, 0).
//! - SB (store buffering): T0 stores x = 1 then loads y; T1 stores y = 1
//!   then loads x. SC forbids (0, 0).
//! - LB (load buffering): T0 loads x then stores y = 1; T1 loads y then
//!   stores x = 1. SC forbids (T0's x, T1's y) = (1, 1).
//! - CoRR (read-read coherence): T0 stores x = 1; T1 loads x twice,
//!   `CORR_GAP` cycles apart. SC forbids (1, 0): a later load of one
//!   location may not return an older value.
//!
//! The sweep varies the two cores' relative start offset `d` over
//! `OFFSETS`. It is wide because the race window is: the notification
//! window plus one round trip (5 cycles on 2×2, plus a few tens) is far
//! smaller than a cold miss, and on cold lines the outcome only changes
//! near d = ±230 (SCORPIO, TokenB) to ±350 (LPD-D, HT-D). MP therefore
//! warms x in both cores first and races after `WARM_GAP` cycles, so the
//! reader's copy of x is live when the writer's store must invalidate it;
//! CoRR warms x the same way. Back-to-back loads of a warm x are both L1
//! hits, so without `CORR_GAP` the store could never land between them.
//! Tier-1 samples every 16th offset; `litmus_full_sweep` (CI, release)
//! runs them all.

use scorpio::{Protocol, System, SystemConfig};
use scorpio_workloads::{generate, CoreProgram, TraceOp, TraceRecord, WorkloadParams};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// x and y sit on consecutive 32-byte lines: different planes at 2.
const X: u64 = 0x1000;
const Y: u64 = 0x1020;
/// Relative start offsets of the racing halves, in cycles.
const OFFSETS: std::ops::RangeInclusive<i64> = -400..=400;
/// Cycles between MP's (and CoRR's) warming loads and the race.
const WARM_GAP: u32 = 600;
/// Cycles between CoRR's two racing loads.
const CORR_GAP: u32 = 100;

/// Runs its records in order and logs the value every load returns.
struct Script {
    ops: Vec<TraceRecord>,
    next: usize,
    loads: Arc<Mutex<Vec<u64>>>,
}

impl Script {
    fn boxed(ops: Vec<TraceRecord>, loads: &Arc<Mutex<Vec<u64>>>) -> Box<dyn CoreProgram + Send> {
        Box::new(Script {
            ops,
            next: 0,
            loads: Arc::clone(loads),
        })
    }
}

impl CoreProgram for Script {
    fn next(&mut self, last_value: Option<u64>) -> Option<TraceRecord> {
        let prev = self.next.checked_sub(1).map(|i| self.ops[i].op);
        if let (Some(TraceOp::Load), Some(v)) = (prev, last_value) {
            self.loads.lock().unwrap().push(v);
        }
        self.next += 1;
        self.ops.get(self.next - 1).copied()
    }
}

fn op(gap: u32, op: TraceOp, addr: u64, value: u64) -> TraceRecord {
    TraceRecord {
        gap,
        op,
        addr,
        value,
    }
}

fn protocols() -> [Protocol; 5] {
    [
        Protocol::Scorpio,
        Protocol::TokenB,
        Protocol::Inso { expiry_window: 40 },
        Protocol::LpdDir,
        Protocol::HtDir,
    ]
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Mp,
    Sb,
    Lb,
    CoRR,
}

impl Shape {
    /// The two cores' ops at offset `d` (T1 starts `d` cycles after T0).
    fn programs(self, d: i64) -> [Vec<TraceRecord>; 2] {
        let (t0, t1) = (d.min(0).unsigned_abs() as u32, d.max(0) as u32);
        let (ld, st) = (TraceOp::Load, TraceOp::Store);
        match self {
            Shape::Mp => [
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t0, st, X, 1),
                    op(0, st, Y, 1),
                ],
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t1, ld, Y, 0),
                    op(0, ld, X, 0),
                ],
            ],
            Shape::Sb => [
                vec![op(t0, st, X, 1), op(0, ld, Y, 0)],
                vec![op(t1, st, Y, 1), op(0, ld, X, 0)],
            ],
            Shape::Lb => [
                vec![op(t0, ld, X, 0), op(0, st, Y, 1)],
                vec![op(t1, ld, Y, 0), op(0, st, X, 1)],
            ],
            Shape::CoRR => [
                vec![op(0, ld, X, 0), op(WARM_GAP + t0, st, X, 1)],
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t1, ld, X, 0),
                    op(CORR_GAP, ld, X, 0),
                ],
            ],
        }
    }

    /// The outcome from each core's load log, as the module doc names it.
    fn outcome(self, t0: &[u64], t1: &[u64]) -> (u64, u64) {
        match self {
            Shape::Mp | Shape::CoRR => (t1[1], t1[2]),
            Shape::Sb | Shape::Lb => (t0[0], t1[0]),
        }
    }

    fn forbidden(self) -> (u64, u64) {
        match self {
            Shape::Mp | Shape::CoRR => (1, 0),
            Shape::Sb => (0, 0),
            Shape::Lb => (1, 1),
        }
    }
}

/// One run of `shape` at offset `d`; T0 on tile 0, T1 on tile 3.
fn run(shape: Shape, d: i64, protocol: Protocol, planes: usize) -> (u64, u64) {
    let cfg = SystemConfig::square(2)
        .with_protocol(protocol)
        .with_planes(planes);
    let logs: [Arc<Mutex<Vec<u64>>>; 2] = Default::default();
    let [t0, t1] = shape.programs(d);
    let idle = || Script::boxed(Vec::new(), &Arc::default());
    let programs = vec![
        Script::boxed(t0, &logs[0]),
        idle(),
        idle(),
        Script::boxed(t1, &logs[1]),
    ];
    let mut sys = System::with_programs(cfg, programs);
    sys.run_to_completion();
    assert_eq!(
        sys.cores_done(),
        4,
        "{shape:?} {d:+}: a core never finished"
    );
    let log = |t: usize| logs[t].lock().unwrap().clone();
    shape.outcome(&log(0), &log(1))
}

/// Sweeps every `step`-th offset of `shape` over all twenty
/// configurations, failing on the first SC-forbidden outcome, and on a
/// configuration that misses an SC-allowed one (the offsets must span the
/// race). Prints each configuration's outcomes as `offset: outcome` at
/// every offset where the outcome changes.
fn sweep(shape: Shape, step: usize) {
    for protocol in protocols() {
        for planes in [1, 2] {
            let config = format!("{} mesh2x2 {planes} planes", protocol.name());
            let mut changes: Vec<(i64, (u64, u64))> = Vec::new();
            for d in OFFSETS.step_by(step) {
                let outcome = run(shape, d, protocol, planes);
                assert!(
                    outcome != shape.forbidden(),
                    "{shape:?} offset {d:+} {config}: SC-forbidden outcome {outcome:?}"
                );
                if changes.last().map(|c| c.1) != Some(outcome) {
                    changes.push((d, outcome));
                }
            }
            let line: Vec<String> = changes
                .iter()
                .map(|(d, o)| format!("{d:+}: {o:?}"))
                .collect();
            println!("{shape:?} {config}: {}", line.join(", "));
            let seen: BTreeSet<_> = changes.iter().map(|c| c.1).collect();
            assert_eq!(
                seen.len(),
                3,
                "{shape:?} {config}: race not spanned, saw {seen:?}"
            );
        }
    }
}

#[test]
fn mp_and_sb_sample_is_sequentially_consistent() {
    sweep(Shape::Mp, 16);
    sweep(Shape::Sb, 16);
}

#[test]
fn lb_and_corr_sample_is_sequentially_consistent() {
    sweep(Shape::Lb, 16);
    sweep(Shape::CoRR, 16);
}

#[test]
#[ignore = "every offset, ~64k runs: run in release with --ignored"]
fn litmus_full_sweep() {
    for shape in [Shape::Mp, Shape::Sb, Shape::Lb, Shape::CoRR] {
        sweep(shape, 1);
    }
}

/// A trace replayed as a program that ignores loaded values runs the
/// same machine cycle for cycle: a program op's gap is charged exactly as
/// a trace record's, so the litmus offsets above are trace timing.
#[test]
fn traces_replayed_as_programs_report_identically() {
    let barnes = WorkloadParams::by_name("barnes").unwrap().with_ops(40);
    for protocol in protocols() {
        for planes in [1, 2] {
            let cfg = SystemConfig::square(4)
                .with_protocol(protocol)
                .with_planes(planes)
                .with_spans(true);
            let traces = generate(&barnes, cfg.cores(), cfg.seed);
            let programs = traces
                .iter()
                .map(|t| Script::boxed(t.records().to_vec(), &Arc::default()))
                .collect();
            let mut by_trace = System::with_traces(cfg.clone(), traces);
            let mut by_program = System::with_programs(cfg, programs);
            let (a, b) = (by_trace.run_to_completion(), by_program.run_to_completion());
            let label = format!("{} {planes} planes", protocol.name());
            assert_eq!(a.to_json(), b.to_json(), "{label}");
            let (spans, _) = by_trace.span_records();
            assert!(!spans.is_empty(), "{label}: no spans recorded");
            let dump = |s: &System| format!("{:?}", s.span_records());
            assert_eq!(dump(&by_trace), dump(&by_program), "{label}");
        }
    }
}
