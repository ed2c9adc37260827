//! The per-tile core driver: an in-order core with a write-through L1,
//! executing a trace or a reactive program against the L2 (Section 4.1).
//!
//! The AHB constraint is modelled faithfully: a single outstanding data
//! transaction — the core blocks on every L2 access (loads that miss the
//! L1, all stores, all atomics).

use std::collections::VecDeque;

use crate::config::SystemConfig;
use scorpio_coherence::LineAddr;
use scorpio_mem::{CoreOp, CoreReq, CoreResp, L1Cache, SnoopyL2};
use scorpio_sim::{Cycle, Wake};
use scorpio_workloads::{CoreProgram, Trace, TraceOp, TraceRecord};

/// What drives this core. A trace is held unboxed: running it as a boxed
/// program would cost one more allocation per core at build.
pub(crate) enum CoreKind {
    /// A fixed memory trace (the paper's trace-driven RTL methodology).
    Trace(Trace),
    /// A reactive program (locks/barriers, Section 4.3 regressions).
    Program(Box<dyn CoreProgram + Send>),
}

impl CoreKind {
    /// The op after the first `taken`, given the value the last completed
    /// op returned (`None` once the source is exhausted). A trace ignores
    /// the value; a program ignores the count. The only place that asks
    /// which kind drives the core.
    #[inline]
    fn next(&mut self, taken: usize, last_value: Option<u64>) -> Option<TraceRecord> {
        match self {
            CoreKind::Trace(t) => t.records().get(taken).copied(),
            CoreKind::Program(p) => p.next(last_value),
        }
    }
}

impl std::fmt::Debug for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::Trace(t) => write!(f, "Trace({} ops)", t.len()),
            CoreKind::Program(_) => f.write_str("Program"),
        }
    }
}

/// What [`CoreDriver::issue`] did with one operation.
enum Issue {
    /// A load the L1 served; the operation is complete.
    L1Hit,
    /// The L2 took the request; it is outstanding.
    Accepted,
    /// The L2 was busy; nothing is outstanding.
    Rejected,
}

/// The in-order core + L1 driver for one tile.
#[derive(Debug)]
pub(crate) struct CoreDriver {
    kind: CoreKind,
    l1: L1Cache,
    line_bytes: u64,
    /// Ops drawn from `kind` so far.
    taken: usize,
    /// A closed-loop op drawn but not yet taken by the L1 or L2, its gap
    /// already charged: it issues once `gap_until` passes, and retries
    /// here while the L2 refuses it.
    pending: Option<TraceRecord>,
    /// First cycle the charged compute gap allows the next issue. Stored
    /// as an absolute deadline rather than a countdown so an idle tile can
    /// sleep through the gap: once charged, the countdown can never pause
    /// (nothing issues mid-gap, so `outstanding` cannot grow), which makes
    /// the deadline exactly equivalent to decrementing every cycle.
    gap_until: Cycle,
    /// In-flight (token, op, addr) tuples; capacity = `max_outstanding`.
    outstanding: Vec<(u64, TraceOp)>,
    max_outstanding: usize,
    last_value: Option<u64>,
    token_counter: u64,
    /// Open-loop arrival schedule (absolute cycles, one per trace record;
    /// op `taken` arrives at `arrivals[taken]`). Empty in closed-loop
    /// mode — the only mode switch.
    arrivals: Vec<u64>,
    /// Bounded source queue of admitted-but-unissued `(arrival, record)`
    /// pairs. Records are drawn at admission time so a tail-drop discards
    /// exactly the op whose arrival overflowed; the front retries while
    /// the L2 refuses it.
    src_queue: VecDeque<(u64, TraceRecord)>,
    src_cap: usize,
    /// Arrivals tail-dropped because the source queue was full.
    pub(crate) src_dropped: u64,
    done: bool,
    /// Cycle the driver finished all its work.
    pub(crate) finished_at: Option<Cycle>,
    /// Completed operations.
    pub(crate) ops_done: u64,
    /// L1 hits that completed without touching the L2.
    pub(crate) l1_hits: u64,
}

impl CoreDriver {
    /// A driver over `kind` with a fresh L1 and `max_outstanding` accesses
    /// in flight.
    pub(crate) fn new(kind: CoreKind, cfg: &SystemConfig, max_outstanding: usize) -> CoreDriver {
        CoreDriver {
            kind,
            l1: L1Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.l2.line_bytes),
            line_bytes: cfg.l2.line_bytes,
            taken: 0,
            pending: None,
            gap_until: Cycle::ZERO,
            outstanding: Vec::new(),
            max_outstanding: max_outstanding.max(1),
            last_value: None,
            token_counter: 0,
            arrivals: Vec::new(),
            src_queue: VecDeque::new(),
            src_cap: 0,
            src_dropped: 0,
            done: false,
            finished_at: None,
            ops_done: 0,
            l1_hits: 0,
        }
    }

    /// Digest of everything a tick of this driver can change, for the
    /// sleep audit. `kind` is left out (a trace is read-only, a program
    /// prints no state), as are `arrivals`, written once at build, and the
    /// constants `line_bytes`, `max_outstanding` and `src_cap`.
    pub(crate) fn state_digest(&self) -> u64 {
        scorpio_sim::Fnv1a::debug_digest(&(
            (&self.l1, self.taken, &self.pending, self.gap_until),
            (&self.outstanding, self.last_value, self.token_counter),
            (
                &self.src_queue,
                self.src_dropped,
                self.done,
                self.finished_at,
            ),
            (self.ops_done, self.l1_hits),
        ))
    }

    /// Switches the driver to open-loop injection: record `i` is
    /// *released* at `arrivals[i]` (rather than by the completion of
    /// record `i-1`), queueing in a bounded source queue of `cap` entries
    /// while the core is busy. The compute gaps recorded in the trace
    /// become the Replay process's arrival deltas and are otherwise not
    /// charged. A zero-load schedule is empty and the driver keeps
    /// closed-loop semantics — the degenerate case *is* the closed-loop
    /// trace.
    pub(crate) fn set_open_loop(&mut self, arrivals: Vec<u64>, cap: usize) {
        self.arrivals = arrivals;
        self.src_cap = cap.max(1);
        self.src_queue = VecDeque::with_capacity(self.src_cap.min(1024));
    }

    /// Whether this driver releases requests by arrival time.
    pub(crate) fn is_open_loop(&self) -> bool {
        !self.arrivals.is_empty()
    }

    /// Whether all work is complete (and nothing is in flight).
    pub(crate) fn is_done(&self) -> bool {
        self.done && self.outstanding.is_empty()
    }

    /// The L1, for inclusion-driven invalidations.
    pub(crate) fn l1_mut(&mut self) -> &mut L1Cache {
        &mut self.l1
    }

    /// When this driver's next tick can first change its state, asked
    /// after its tick at `now`: *next cycle* while it can issue (or is
    /// retrying an op the L2 refused); *the gap deadline* mid-gap, also
    /// with an access outstanding — nothing issues mid-gap, so the charged
    /// countdown can never pause; an event (the L2's completion) at the
    /// outstanding-access budget or once done. An open-loop driver also
    /// wakes at its next arrival for as long as arrivals remain, so
    /// admissions and tail drops land on their own cycles.
    pub(crate) fn next_wake(&self, now: Cycle) -> Wake {
        let can_issue = !self.done && self.outstanding.len() < self.max_outstanding;
        if self.is_open_loop() {
            if can_issue && !self.src_queue.is_empty() {
                return Wake::at(now.next(), "core can issue");
            }
            return match self.arrivals.get(self.taken) {
                Some(&a) => Wake::at(Cycle::from(a), "open-loop arrival"),
                // Everything admitted and issued: the next tick retires.
                None if !self.done && self.src_queue.is_empty() => {
                    Wake::at(now.next(), "core retiring")
                }
                None => Wake::event("core response"),
            };
        }
        if !can_issue {
            Wake::event("core response")
        } else if now < self.gap_until {
            Wake::at(self.gap_until, "compute gap")
        } else {
            Wake::at(now.next(), "core can issue")
        }
    }

    /// One cycle: issue the pending op or draw the next one. Completions
    /// arrive via [`CoreDriver::complete`]; this only issues. A drawn op
    /// with a compute gap charges it first (as the absolute `gap_until`
    /// deadline) and waits in `pending` until it passes.
    pub(crate) fn tick(&mut self, now: Cycle, l2: &mut SnoopyL2) {
        if self.is_open_loop() {
            return self.tick_open(now, l2);
        }
        if self.done || self.outstanding.len() >= self.max_outstanding || now < self.gap_until {
            return;
        }
        let rec = match self.pending.take() {
            Some(rec) => rec,
            None => {
                let Some(rec) = self.kind.next(self.taken, self.last_value) else {
                    return self.mark_done(now);
                };
                self.taken += 1;
                if rec.gap > 0 {
                    // The charging tick issues nothing, then `gap` idle
                    // ticks pass: next issue at `now + gap + 1`, exactly
                    // the old per-cycle countdown's schedule.
                    self.gap_until = now + rec.gap as u64 + 1;
                    self.pending = Some(rec);
                    return;
                }
                rec
            }
        };
        if let Issue::Rejected = self.issue(now, l2, rec, now) {
            // L2 busy: retry the same op next cycle, its gap already paid.
            self.pending = Some(rec);
        }
    }

    /// One open-loop cycle: admit every arrival whose deadline has
    /// passed (tail-dropping at the queue cap — the record is drawn
    /// either way, so later drops discard exactly the right ops), then
    /// issue at most one queued request, matching the closed-loop issue
    /// width.
    fn tick_open(&mut self, now: Cycle, l2: &mut SnoopyL2) {
        while let Some(&a) = self.arrivals.get(self.taken) {
            if now < Cycle::from(a) {
                break;
            }
            let rec = self.kind.next(self.taken, self.last_value);
            self.taken += 1;
            if self.src_queue.len() >= self.src_cap {
                self.src_dropped += 1;
            } else if let Some(rec) = rec {
                self.src_queue.push_back((a, rec));
            }
        }
        if self.taken >= self.arrivals.len() && self.src_queue.is_empty() {
            self.mark_done(now);
        }
        if self.done || self.outstanding.len() >= self.max_outstanding {
            return;
        }
        let Some(&(arrival, rec)) = self.src_queue.front() else {
            return;
        };
        match self.issue(now, l2, rec, Cycle::from(arrival)) {
            Issue::L1Hit | Issue::Accepted => {
                self.src_queue.pop_front();
            }
            // The pair stays at the queue front and retries next cycle. The
            // L1 store/invalidate side effects are idempotent, the same
            // property the closed-loop retry relies on.
            Issue::Rejected => {}
        }
    }

    /// Issues one operation: the L1 probe (a load hit completes here), the
    /// write-through store or atomic invalidation, then the L2 request. The
    /// token counter advances only when the L2 accepts. Inlined into both
    /// callers, as the two copies it replaced were: out of line it cost
    /// ~2% of `sim_cycles_per_s` on the L1-hit-heavy `chip-6x6` cell.
    #[inline(always)]
    fn issue(&mut self, now: Cycle, l2: &mut SnoopyL2, rec: TraceRecord, enqueued: Cycle) -> Issue {
        let TraceRecord {
            op, addr, value, ..
        } = rec;
        let line = LineAddr::containing(addr, self.line_bytes);
        let core_op = match op {
            TraceOp::Load => {
                if let Some(v) = self.l1.load(line) {
                    self.l1_hits += 1;
                    self.op_completed(now, v);
                    return Issue::L1Hit;
                }
                CoreOp::Load
            }
            TraceOp::Store => {
                // Write-through: update the local copy and send to the L2.
                self.l1.store(line, value);
                CoreOp::Store
            }
            TraceOp::AtomicAdd => {
                // The L2 performs the RMW; the L1 copy becomes stale.
                self.l1.invalidate(line);
                CoreOp::AtomicAdd
            }
        };
        let token = self.token_counter + 1;
        let accepted = l2.try_core_req(CoreReq {
            op: core_op,
            addr,
            value,
            token,
            enqueued,
            admitted: now,
        });
        if !accepted {
            return Issue::Rejected;
        }
        self.token_counter = token;
        self.outstanding.push((token, op));
        Issue::Accepted
    }

    /// Delivers an L2 completion to this core.
    pub(crate) fn complete(&mut self, now: Cycle, resp: CoreResp) {
        let pos = self
            .outstanding
            .iter()
            .position(|(t, _)| *t == resp.token)
            .expect("completion without a matching outstanding op");
        let (_, op) = self.outstanding.remove(pos);
        if op == TraceOp::Load && resp.installed {
            // Fill the L1 with the loaded line (only when the L2 kept it:
            // inclusion).
            self.l1.fill(resp.addr, resp.value);
        }
        self.op_completed(now, resp.value);
    }

    fn op_completed(&mut self, now: Cycle, value: u64) {
        self.ops_done += 1;
        self.last_value = Some(value);
        if self.done && self.outstanding.is_empty() {
            self.finished_at.get_or_insert(now);
        }
    }

    fn mark_done(&mut self, now: Cycle) {
        if !self.done {
            self.done = true;
            if self.outstanding.is_empty() {
                self.finished_at.get_or_insert(now);
            }
        }
    }
}
