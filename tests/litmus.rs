//! Litmus tests: which values may loads return? SCORPIO's claim is that
//! one global order of snoops makes the mesh behave like a bus, so every
//! run must be sequentially consistent (SC). Seven shapes, written as core
//! programs on a 2×2 mesh (T0 on tile 0 and T1 on tile 3 but for IRIW,
//! one access in flight per core — the chip's AHB constraint), for all
//! five protocols on 1 and 2 planes:
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
//! - CoWW (write-write coherence): T0 stores x = 1, then x = 2
//!   `CORR_GAP` cycles later; T1 loads x once in the race and once more
//!   `FINAL_GAP` cycles later, after both stores. SC forbids a final
//!   value other than 2: the later store of one core must win.
//! - 2+2W: T0 stores x = 1 then y = 2; T1 stores y = 1 then x = 2; each
//!   then loads, `CORR_GAP` cycles later, the location the other stored
//!   last (T0 y, T1 x). SC forbids (1, 1): both first stores winning
//!   would order each thread's stores against its program order.
//! - IRIW (independent reads of independent writes): tile 0 stores x = 1
//!   and tile 3 stores y = 1, each after warming its own line; tile 1
//!   loads x then y, and tile 2 loads y then x, their two loads
//!   `CORR_GAP` cycles apart. Both readers first warm x and y, as MP's
//!   reader does, and start their racing loads `WARM_GAP` cycles after
//!   that, in step with a writer at zero offset: the offset moves only
//!   the writers (tile 3's store starts `d` cycles after tile 0's). The
//!   outcome is (tile 1's x, y, tile 2's y, x); SC forbids (1, 0, 1, 0),
//!   the two readers seeing the writes in opposite orders. At 2 planes x
//!   and y are ordered on different planes.
//!
//! The sweep varies the two cores' relative start offset `d` over
//! `OFFSETS`. It is wide because the race window is: the notification
//! window plus one round trip (5 cycles on 2×2, plus a few tens) is far
//! smaller than a cold miss, and on cold lines the outcome only changes
//! near d = ±230 (SCORPIO, TokenB) to ±350 (LPD-D, HT-D). MP therefore
//! warms x in both cores first and races after `WARM_GAP` cycles, so the
//! reader's copy of x is live when the writer's store must invalidate it;
//! CoRR and CoWW warm x the same way. Back-to-back loads of a warm x are
//! both L1 hits, so without `CORR_GAP` the store could never land between
//! them (nor a remote store between 2+2W's store and load).
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
/// Cycles between CoRR's two racing loads, between CoWW's two stores and
/// before 2+2W's trailing loads.
const CORR_GAP: u32 = 100;
/// Cycles before CoWW's final load: past both stores at every offset.
const FINAL_GAP: u32 = 2000;

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
    CoWW,
    TwoPlusTwoW,
    Iriw,
}

impl Shape {
    /// Each tile's ops at offset `d` (T1 starts `d` cycles after T0).
    fn programs(self, d: i64) -> [Vec<TraceRecord>; 4] {
        let (t0, t1) = (d.min(0).unsigned_abs() as u32, d.max(0) as u32);
        let (ld, st) = (TraceOp::Load, TraceOp::Store);
        match self {
            Shape::Mp => pair(
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
            ),
            Shape::Sb => pair(
                vec![op(t0, st, X, 1), op(0, ld, Y, 0)],
                vec![op(t1, st, Y, 1), op(0, ld, X, 0)],
            ),
            Shape::Lb => pair(
                vec![op(t0, ld, X, 0), op(0, st, Y, 1)],
                vec![op(t1, ld, Y, 0), op(0, st, X, 1)],
            ),
            Shape::CoRR => pair(
                vec![op(0, ld, X, 0), op(WARM_GAP + t0, st, X, 1)],
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t1, ld, X, 0),
                    op(CORR_GAP, ld, X, 0),
                ],
            ),
            Shape::CoWW => pair(
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t0, st, X, 1),
                    op(CORR_GAP, st, X, 2),
                ],
                vec![
                    op(0, ld, X, 0),
                    op(WARM_GAP + t1, ld, X, 0),
                    op(FINAL_GAP, ld, X, 0),
                ],
            ),
            Shape::TwoPlusTwoW => pair(
                vec![op(t0, st, X, 1), op(0, st, Y, 2), op(CORR_GAP, ld, Y, 0)],
                vec![op(t1, st, Y, 1), op(0, st, X, 2), op(CORR_GAP, ld, X, 0)],
            ),
            Shape::Iriw => [
                vec![op(0, ld, X, 0), op(WARM_GAP + t0, st, X, 1)],
                vec![
                    op(0, ld, X, 0),
                    op(0, ld, Y, 0),
                    op(WARM_GAP, ld, X, 0),
                    op(CORR_GAP, ld, Y, 0),
                ],
                vec![
                    op(0, ld, Y, 0),
                    op(0, ld, X, 0),
                    op(WARM_GAP, ld, Y, 0),
                    op(CORR_GAP, ld, X, 0),
                ],
                vec![op(0, ld, Y, 0), op(WARM_GAP + t1, st, Y, 1)],
            ],
        }
    }

    /// The outcome from each tile's load log, as the module doc names it.
    fn outcome(self, logs: &[Vec<u64>; 4]) -> Vec<u64> {
        let (t0, t1) = (&logs[0], &logs[3]);
        match self {
            Shape::Mp | Shape::CoRR | Shape::CoWW => vec![t1[1], t1[2]],
            Shape::Sb | Shape::Lb | Shape::TwoPlusTwoW => vec![t0[0], t1[0]],
            Shape::Iriw => vec![logs[1][2], logs[1][3], logs[2][2], logs[2][3]],
        }
    }

    /// Whether SC forbids `outcome`.
    fn forbids(self, outcome: &[u64]) -> bool {
        match self {
            Shape::Mp | Shape::CoRR => outcome == [1, 0],
            Shape::Sb => outcome == [0, 0],
            Shape::Lb | Shape::TwoPlusTwoW => outcome == [1, 1],
            Shape::CoWW => outcome[1] != 2,
            Shape::Iriw => outcome == [1, 0, 1, 0],
        }
    }

    /// Whether the outcomes `seen` over a sweep show that it spans the
    /// race: all three SC-allowed outcomes of a two-location shape, and
    /// for IRIW a reader that sees one write but not the other.
    fn spanned(self, seen: &BTreeSet<Vec<u64>>) -> bool {
        match self {
            Shape::Iriw => seen.iter().any(|o| o[0] != o[1] || o[2] != o[3]),
            _ => seen.len() == 3,
        }
    }
}

/// A two-core shape's programs: T0 on tile 0, T1 on tile 3.
fn pair(t0: Vec<TraceRecord>, t1: Vec<TraceRecord>) -> [Vec<TraceRecord>; 4] {
    [t0, Vec::new(), Vec::new(), t1]
}

/// One run of `shape` at offset `d`: each tile runs its program and logs
/// the value every load returns.
fn run(shape: Shape, d: i64, protocol: Protocol, planes: usize) -> Vec<u64> {
    let cfg = SystemConfig::square(2)
        .with_protocol(protocol)
        .with_planes(planes);
    let logs: [Arc<Mutex<Vec<u64>>>; 4] = Default::default();
    let programs = shape
        .programs(d)
        .into_iter()
        .zip(&logs)
        .map(|(ops, log)| Script::boxed(ops, log))
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    sys.run_to_completion();
    assert_eq!(
        sys.cores_done(),
        4,
        "{shape:?} {d:+}: a core never finished"
    );
    shape.outcome(&logs.map(|l| l.lock().unwrap().clone()))
}

/// An outcome as a tuple, `(1, 0)`.
fn tuple(outcome: &[u64]) -> String {
    let values: Vec<String> = outcome.iter().map(u64::to_string).collect();
    format!("({})", values.join(", "))
}

/// Sweeps every `step`-th offset of `shape` over all ten
/// configurations, failing on the first SC-forbidden outcome, and on a
/// configuration whose outcomes do not span the race
/// ([`Shape::spanned`]). Prints each configuration's outcomes as
/// `offset: outcome` at every offset where the outcome changes.
fn sweep(shape: Shape, step: usize) {
    for protocol in protocols() {
        for planes in [1, 2] {
            let config = format!("{} mesh2x2 {planes} planes", protocol.name());
            let mut changes: Vec<(i64, Vec<u64>)> = Vec::new();
            for d in OFFSETS.step_by(step) {
                let outcome = run(shape, d, protocol, planes);
                assert!(
                    !shape.forbids(&outcome),
                    "{shape:?} offset {d:+} {config}: SC-forbidden outcome {}",
                    tuple(&outcome)
                );
                if changes.last().map(|c| &c.1) != Some(&outcome) {
                    changes.push((d, outcome));
                }
            }
            let line: Vec<String> = changes
                .iter()
                .map(|(d, o)| format!("{d:+}: {}", tuple(o)))
                .collect();
            println!("{shape:?} {config}: {}", line.join(", "));
            let seen: BTreeSet<_> = changes.into_iter().map(|c| c.1).collect();
            let seen_list: Vec<String> = seen.iter().map(|o| tuple(o)).collect();
            assert!(
                shape.spanned(&seen),
                "{shape:?} {config}: race not spanned, saw {}",
                seen_list.join(" ")
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
fn coww_and_2p2w_sample_is_sequentially_consistent() {
    sweep(Shape::CoWW, 16);
    sweep(Shape::TwoPlusTwoW, 16);
}

#[test]
fn iriw_sample_is_sequentially_consistent() {
    sweep(Shape::Iriw, 16);
}

#[test]
#[ignore = "every offset, ~112k runs: run in release with --ignored"]
fn litmus_full_sweep() {
    for shape in [
        Shape::Mp,
        Shape::Sb,
        Shape::Lb,
        Shape::CoRR,
        Shape::CoWW,
        Shape::TwoPlusTwoW,
        Shape::Iriw,
    ] {
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
