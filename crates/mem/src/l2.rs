//! The private, inclusive, snoopy MOSI L2 cache controller (Section 4.2).
//!
//! The controller consumes three input streams — core requests from the
//! AHB side, *globally ordered* snoops from the NIC, and unordered data
//! responses — and produces ordered coherence requests, unicast responses
//! and core replies. Key mechanisms reproduced from the paper:
//!
//! * **O_D state**: dirty data stays on chip across read sharing; memory is
//!   written only on eviction.
//! * **RSHR** (request status holding registers): bounded outstanding
//!   misses; each tagged with the "request entry ID" that responses and
//!   forwards match on.
//! * **FID lists**: snoops that hit a pending write are recorded, not
//!   blocked; the completed write forwards updated data to every recorded
//!   requester. The list closes at the first GETX (ownership moves on).
//! * **Writeback buffer**: evicted dirty lines keep answering snoops until
//!   their WbReq is globally ordered; a GETX ordered before the WbReq
//!   squashes it (the memory controller ignores the stale writeback).
//! * **Region tracker**: snoops to regions with no resident lines skip the
//!   tag array.
//! * **Pipelining switch**: models Figure 10's pipelined vs non-pipelined
//!   uncore (initiation interval 1 vs full occupancy per access).

use crate::array::{CacheArray, Line};
use crate::region::RegionTracker;
use scorpio_coherence::{
    fill_state, snoop_transition, CohMsg, FidList, FidPush, LineAddr, LineState, MsgKind,
};
use scorpio_noc::Endpoint;
use scorpio_sim::json::{Fields, Obj};
use scorpio_sim::stats::LogHistogram;
use scorpio_sim::{json_fields, Cycle, Fifo, Wake};
use std::collections::VecDeque;

/// L2 configuration (defaults: the chip's 128 KB 4-way L2, 10-cycle access,
/// 2 RSHRs matching the core's two outstanding AHB transactions).
#[derive(Debug, Clone)]
pub struct L2Config {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub(crate) ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u64,
    /// Initiation interval 1 when true; full occupancy per access when
    /// false (Figure 10).
    pub pipelined: bool,
    /// Outstanding-miss registers.
    pub rshr_entries: usize,
    /// FID-list capacity per pending write.
    pub fid_capacity: usize,
    /// Writeback buffer entries.
    pub wb_entries: usize,
    /// Region snoop filter: `Some(n)` turns it on and pre-sizes its table
    /// for `n` regions (it tracks any number exactly); `None` turns it
    /// off.
    pub region_entries: Option<usize>,
    /// Input queue depths (core, snoop, response).
    pub queue_depth: usize,
    /// The memory-controller endpoints, for writeback routing
    /// (line-interleaved).
    pub mc_endpoints: Vec<Endpoint>,
}

impl L2Config {
    /// The chip configuration, given the memory-controller endpoints.
    pub fn chip(mc_endpoints: Vec<Endpoint>) -> Self {
        L2Config {
            capacity_bytes: 128 * 1024,
            ways: 4,
            line_bytes: 32,
            latency: 10,
            pipelined: true,
            rshr_entries: 2,
            fid_capacity: 4,
            wb_entries: 2,
            region_entries: Some(128),
            queue_depth: 4,
            mc_endpoints,
        }
    }

    /// The MC endpoint responsible for `addr`.
    ///
    /// # Panics
    ///
    /// Panics if no MC endpoints were configured.
    pub(crate) fn mc_for(&self, addr: LineAddr) -> Endpoint {
        assert!(!self.mc_endpoints.is_empty(), "no memory controllers");
        let idx = (addr.0 / self.line_bytes) as usize % self.mc_endpoints.len();
        self.mc_endpoints[idx]
    }
}

/// A core-side operation (post-L1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// Read a line.
    Load,
    /// Write a line (write-through from the L1).
    Store,
    /// Atomic fetch-and-add (lock/barrier support, Section 4.3 tests).
    AtomicAdd,
}

/// A request from the core/L1 into the L2.
#[derive(Debug, Clone, Copy)]
pub struct CoreReq {
    /// Operation.
    pub op: CoreOp,
    /// Byte address (the L2 masks it to a line).
    pub addr: u64,
    /// Store/add operand.
    pub value: u64,
    /// Caller-chosen id echoed in the reply.
    pub token: u64,
    /// Arrival timestamp (service-latency accounting). Under open-loop
    /// injection this is the request's theoretical arrival cycle, so
    /// recorded latencies are sojourn times; closed-loop callers pass the
    /// issue cycle (equal to `admitted`).
    pub enqueued: Cycle,
    /// Cycle the request left the core's source queue and was handed to
    /// the L2. `admitted - enqueued` is the source-queue wait (0 in
    /// closed-loop mode).
    pub admitted: Cycle,
}

/// The L2's reply to the core.
#[derive(Debug, Clone, Copy)]
pub struct CoreResp {
    /// Echoed token.
    pub token: u64,
    /// Loaded value (loads/atomics) or the stored value.
    pub value: u64,
    /// The line this op touched (for L1 fills).
    pub addr: LineAddr,
    /// Cycles from enqueue to this reply (the L2 service latency).
    pub latency: u64,
    /// Who supplied the data of a miss; `None` for a hit.
    pub served_by: Option<ServedBy>,
    /// Whether the line is resident in the L2 after this op — `false` for
    /// fills discarded by a later-ordered GETX. The L1 must only fill when
    /// this is true (inclusion).
    pub installed: bool,
}

/// A globally ordered snoop delivered by the NIC.
#[derive(Debug, Clone, Copy)]
pub struct OrderedSnoop {
    /// Whether this is the L2's own request coming back in order.
    pub own: bool,
    /// The coherence request.
    pub msg: CohMsg,
}

/// Messages leaving the L2 toward the NIC.
#[derive(Debug, Clone, Copy)]
pub enum L2Out {
    /// A coherence request needing global ordering (GetS/GetX/WbReq).
    OrderedRequest(CohMsg),
    /// A unicast message; `data_sized` selects the multi-flit data format.
    Unicast {
        /// Destination endpoint.
        dest: Endpoint,
        /// The message.
        msg: CohMsg,
        /// Cache-line-sized (multi-flit) packet.
        data_sized: bool,
    },
}

/// Who supplied the data for a completed miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Another cache (on-chip transfer).
    Cache,
    /// A memory controller.
    Memory,
}

/// One completed coherence transaction's lifecycle, as absolute cycle
/// stamps (span recording — [`SnoopyL2::enable_spans`]).
///
/// The stamps are monotone (`enqueued ≤ admitted ≤ issue ≤ inject ≤
/// popped ≤ ordered ≤ retire`, `data ≤ retire`), so the seven phase
/// accessors partition the end-to-end latency exactly: their sum equals
/// [`MissSpan::total`], and `inject_wait + flight + commit` equals the
/// ordering-delay sample the report records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissSpan {
    /// The requesting tile.
    pub tile: u16,
    /// The missed line.
    pub addr: LineAddr,
    /// `GetS` or `GetX`.
    pub kind: MsgKind,
    /// Who supplied the data.
    pub served_by: ServedBy,
    /// The request arrived (open loop: its theoretical arrival cycle;
    /// closed loop: the issue cycle, making the source phase 0).
    pub enqueued: u64,
    /// The request left the core's source queue into the L2.
    pub admitted: u64,
    /// L2 allocated the RSHR and emitted the ordered request.
    pub issue: u64,
    /// The request left the L2 outbox into the interconnect layer.
    pub inject: u64,
    /// The own ordered observation left the NIC / reorder buffer.
    pub popped: u64,
    /// The L2 pipeline applied the own ordered observation.
    pub ordered: u64,
    /// The data response arrived (may precede `ordered`).
    pub data: u64,
    /// The miss completed and the core reply was enqueued.
    pub retire: u64,
}

impl MissSpan {
    /// Phase 0 — source wait: arrival → release from the source queue
    /// (0 for closed-loop traffic, where arrival and release coincide).
    pub fn source(&self) -> u64 {
        self.admitted - self.enqueued
    }

    /// Phase 1 — queueing: source-queue release → RSHR allocation.
    pub fn queue(&self) -> u64 {
        self.issue - self.admitted
    }

    /// Phase 2 — injection wait: RSHR allocation → network injection.
    pub fn inject_wait(&self) -> u64 {
        self.inject - self.issue
    }

    /// Phase 3 — flight: network injection → own ordered pop.
    pub fn flight(&self) -> u64 {
        self.popped - self.inject
    }

    /// Phase 4 — commit: own ordered pop → L2 applies the observation.
    pub fn commit(&self) -> u64 {
        self.ordered - self.popped
    }

    /// Phase 5 — data wait: ordering done → data arrival (0 when the
    /// data raced ahead of the ordered observation).
    pub fn data_wait(&self) -> u64 {
        self.data.max(self.ordered) - self.ordered
    }

    /// Phase 6 — fill: both prerequisites in hand → core reply.
    pub fn fill(&self) -> u64 {
        self.retire - self.data.max(self.ordered)
    }

    /// End-to-end latency; equals the sum of the seven phases and the
    /// service-latency sample the scalar stats record for this miss.
    pub fn total(&self) -> u64 {
        self.retire - self.enqueued
    }

    /// Ordering delay (`issue → ordered`); equals
    /// `inject_wait + flight + commit` and the ordering-delay sample the
    /// scalar stats record for this miss.
    pub fn ordering(&self) -> u64 {
        self.ordered - self.issue
    }
}

/// A span's stream record: the absolute stamps plus the derived
/// seven-phase breakdown, which sums to `retire - enqueued` exactly.
impl Fields for MissSpan {
    fn write_fields(&self, o: &mut Obj) {
        json_fields!(o; tile: self.tile, addr: self.addr.0, kind: format!("{:?}", self.kind),
            served_by: format!("{:?}", self.served_by));
        json_fields!(o, self; enqueued, admitted, issue, inject, popped, ordered, data, retire);
        o.object("phases", |p| {
            json_fields!(p; source: self.source(), queue: self.queue(),
                inject: self.inject_wait(), flight: self.flight(), commit: self.commit(),
                data: self.data_wait(), fill: self.fill());
        });
    }
}

/// L2 statistics.
#[derive(Debug, Clone, Default)]
pub struct L2Stats {
    /// Core requests that hit with sufficient permission.
    pub hits: u64,
    /// Core requests that missed (or needed an upgrade).
    pub misses: u64,
    /// Remote snoops processed against the tag array.
    pub snoops: u64,
    /// Snoops skipped by the region tracker.
    pub snoops_filtered: u64,
    /// Data responses sent to other caches (cache-to-cache transfers).
    pub data_forwards: u64,
    /// Dirty evictions (writebacks issued).
    pub writebacks: u64,
    /// Writebacks squashed by an earlier-ordered GETX.
    pub wb_squashed: u64,
    /// Ordering delay (issue → own ordered observation), recorded when
    /// the L2 applies its own ordered request. Service latency is carried
    /// by each [`CoreResp`], for the caller to record.
    pub ordering_delay: LogHistogram,
}

#[derive(Debug, Clone, Copy)]
struct RshrEntry {
    addr: LineAddr,
    kind: MsgKind,
    op: CoreOp,
    token: u64,
    operand: u64,
    /// The cycle the own ordered observation was applied, once it was.
    ordered: Option<Cycle>,
    /// The line's value and the cycle it arrived, once it did.
    data: Option<(u64, Cycle)>,
    invalidate_on_fill: bool,
    fill_blocked: bool,
    served_by: ServedBy,
    enqueued: Cycle,
    admitted: Cycle,
    t_issue: Cycle,
    t_inject: Option<Cycle>,
    t_popped: Option<Cycle>,
}

#[derive(Debug, Clone)]
struct WbEntry {
    addr: LineAddr,
    value: u64,
    squashed: bool,
}

/// Per-class pipeline stages, mirroring the separate ACE channels: a snoop
/// stalled on a full FID list must never block the data responses that
/// complete the pending write (that would deadlock the forwarding chain).
#[derive(Debug, Default)]
struct Stages {
    resps: VecDeque<(Cycle, CohMsg)>,
    snoops: VecDeque<(Cycle, OrderedSnoop)>,
    cores: VecDeque<(Cycle, CoreReq)>,
}

impl Stages {
    fn len(&self) -> usize {
        self.resps.len() + self.snoops.len() + self.cores.len()
    }
}

/// The snoopy L2 cache controller for one tile.
#[derive(Debug)]
pub struct SnoopyL2 {
    tile: u16,
    cfg: L2Config,
    array: CacheArray,
    region: Option<RegionTracker>,
    rshr: Vec<Option<RshrEntry>>,
    /// The forwarding-ID list of each RSHR slot, cleared when the slot
    /// frees rather than rebuilt per miss: a miss makes no heap allocation,
    /// and a slot's list allocates once, at its first recorded snooper.
    fids: Vec<FidList>,
    wb_buf: Vec<WbEntry>,
    core_q: Fifo<CoreReq>,
    snoop_q: Fifo<OrderedSnoop>,
    resp_q: Fifo<CohMsg>,
    stage: Stages,
    outbox: VecDeque<L2Out>,
    core_resps: VecDeque<CoreResp>,
    l1_invalidations: VecDeque<LineAddr>,
    record_spans: bool,
    spans: Vec<MissSpan>,
    busy_until: Cycle,
    /// Statistics.
    pub stats: L2Stats,
}

impl SnoopyL2 {
    /// A controller for tile `tile` with configuration `cfg`.
    pub fn new(tile: u16, cfg: L2Config) -> Self {
        SnoopyL2 {
            tile,
            array: CacheArray::with_capacity(cfg.capacity_bytes, cfg.ways, cfg.line_bytes),
            region: cfg.region_entries.map(RegionTracker::new),
            rshr: vec![None; cfg.rshr_entries],
            fids: vec![FidList::new(cfg.fid_capacity); cfg.rshr_entries],
            wb_buf: Vec::with_capacity(cfg.wb_entries),
            core_q: Fifo::bounded(cfg.queue_depth),
            snoop_q: Fifo::bounded(cfg.queue_depth),
            resp_q: Fifo::bounded(cfg.queue_depth),
            stage: Stages::default(),
            outbox: VecDeque::new(),
            core_resps: VecDeque::new(),
            l1_invalidations: VecDeque::new(),
            record_spans: false,
            spans: Vec::new(),
            busy_until: Cycle::ZERO,
            stats: L2Stats::default(),
            cfg,
        }
    }

    /// This tile's id.
    pub fn tile(&self) -> u16 {
        self.tile
    }

    /// Offers a core request. Returns `false` (and leaves the caller to
    /// retry) when the input queue is full.
    pub fn try_core_req(&mut self, req: CoreReq) -> bool {
        self.core_q.push(req).is_ok()
    }

    /// Whether the snoop input queue can take another ordered request.
    pub fn snoop_ready(&self) -> bool {
        !self.snoop_q.is_full()
    }

    /// Delivers one globally ordered snoop (caller must check
    /// [`SnoopyL2::snoop_ready`]).
    ///
    /// # Panics
    ///
    /// Panics if the snoop queue is full.
    pub fn push_snoop(&mut self, snoop: OrderedSnoop) {
        self.snoop_q
            .push(snoop)
            .unwrap_or_else(|_| panic!("snoop queue overflow: check snoop_ready first"));
    }

    /// Whether the response input queue has room.
    pub fn resp_ready(&self) -> bool {
        !self.resp_q.is_full()
    }

    /// Delivers one unordered response (data).
    ///
    /// # Panics
    ///
    /// Panics if the response queue is full.
    pub fn push_resp(&mut self, msg: CohMsg) {
        self.resp_q
            .push(msg)
            .unwrap_or_else(|_| panic!("resp queue overflow: check resp_ready first"));
    }

    /// Next outgoing network message, if any (peek).
    pub fn peek_out(&self) -> Option<&L2Out> {
        self.outbox.front()
    }

    /// Consumes the outgoing message just peeked.
    pub fn pop_out(&mut self) -> Option<L2Out> {
        self.outbox.pop_front()
    }

    /// Next core reply, if any.
    pub fn pop_core_resp(&mut self) -> Option<CoreResp> {
        self.core_resps.pop_front()
    }

    /// Core replies made but not popped yet, oldest first.
    pub fn queued_core_resps(&self) -> impl Iterator<Item = &CoreResp> {
        self.core_resps.iter()
    }

    /// Next L1 invalidation (inclusion), if any.
    pub fn pop_l1_invalidation(&mut self) -> Option<LineAddr> {
        self.l1_invalidations.pop_front()
    }

    /// Always `None`: no per-miss record is kept. A reply's latency travels
    /// in its [`CoreResp`] and a miss's phases in its [`MissSpan`]. Kept
    /// for the standalone benchmark's L2 probe, which drains it.
    pub fn pop_miss_record(&mut self) -> Option<std::convert::Infallible> {
        None
    }

    /// Enables per-transaction lifecycle spans. A no-op for simulated
    /// behavior: spans only mirror timestamps the controller already
    /// tracks.
    pub fn enable_spans(&mut self) {
        self.record_spans = true;
    }

    /// The RSHR entry a stamp for `msg` goes to: only this tile's own
    /// `GetS`/`GetX`. A `WbReq` has no RSHR entry, and its tag could alias
    /// a live one. Stamps are kept with spans off too, for the post-mortem.
    fn own_miss_entry(&mut self, msg: &CohMsg) -> Option<&mut RshrEntry> {
        let own_miss =
            msg.requester == self.tile && matches!(msg.kind, MsgKind::GetS | MsgKind::GetX);
        if !own_miss {
            return None;
        }
        self.rshr[msg.req_tag as usize].as_mut()
    }

    /// Stamps the network-injection cycle on `msg`'s RSHR entry: the cycle
    /// the ordered request left the L2 outbox toward the interconnect
    /// layer.
    pub fn stamp_inject(&mut self, msg: &CohMsg, now: Cycle) {
        if let Some(entry) = self.own_miss_entry(msg) {
            entry.t_inject = Some(now);
        }
    }

    /// Stamps the own-ordered-pop cycle on `msg`'s RSHR entry: the cycle
    /// the own ordered observation left the NIC or reorder buffer toward
    /// the snoop queue.
    pub fn stamp_popped(&mut self, msg: &CohMsg, now: Cycle) {
        if let Some(entry) = self.own_miss_entry(msg) {
            entry.t_popped = Some(now);
        }
    }

    /// The completed-transaction spans recorded so far, in retire order.
    pub fn spans(&self) -> &[MissSpan] {
        &self.spans
    }

    /// Whether the queues toward the core side are drained too: no
    /// completion or L1-inclusion invalidation waiting to be popped. An
    /// idle L2 can still hold these (a snoop's invalidation lands after
    /// the tile's pop loop ran), so the skip-idle-tiles engine checks both
    /// before letting a tile sleep.
    pub(crate) fn outputs_drained(&self) -> bool {
        self.core_resps.is_empty() && self.l1_invalidations.is_empty()
    }

    /// Whether the controller has no in-flight work (drained).
    pub fn is_idle(&self) -> bool {
        self.core_q.is_empty()
            && self.snoop_q.is_empty()
            && self.resp_q.is_empty()
            && self.stage.len() == 0
            && self.outbox.is_empty()
            && self.rshr.iter().all(Option::is_none)
            && self.wb_buf.is_empty()
    }

    /// When this controller's next tick can first change its state, asked
    /// after its tick at `now`: *next cycle* while an input queue, the
    /// outbox or a core-facing queue holds anything (the tile moves those
    /// every tick) or a fill is blocked on a writeback slot; *the earliest
    /// stage due cycle* while only the pipeline holds work; otherwise an
    /// event — outstanding misses and writebacks advance only when a data
    /// flit or the own ordered request arrives.
    pub fn next_wake(&self, now: Cycle) -> Wake {
        let next = now.next();
        if !(self.core_q.is_empty() && self.snoop_q.is_empty() && self.resp_q.is_empty()) {
            return Wake::at(next, "l2 input queue");
        }
        if !self.outbox.is_empty() {
            return Wake::at(next, "l2 outbox");
        }
        if !self.outputs_drained() {
            return Wake::at(next, "l2 core-facing queue");
        }
        if self.rshr.iter().flatten().any(|e| e.fill_blocked) {
            return Wake::at(next, "blocked fill");
        }
        // Each class is a FIFO in due order, so its front is its minimum.
        let st = &self.stage;
        let fronts = [
            st.resps.front().map(|e| e.0),
            st.snoops.front().map(|e| e.0),
            st.cores.front().map(|e| e.0),
        ];
        match fronts.into_iter().flatten().min() {
            Some(due) => Wake::at(due, "l2 stage due"),
            None => Wake::event("data flit or own ordered request"),
        }
    }

    /// One cycle: apply due staged items, retry blocked fills, accept one
    /// new input.
    pub fn tick(&mut self, now: Cycle) {
        self.apply_due(now);
        self.retry_blocked_fills(now);
        self.accept_one(now);
    }

    fn apply_due(&mut self, now: Cycle) {
        // Responses first: they complete pending writes and drain FIDs.
        while self.stage.resps.front().is_some_and(|(r, _)| *r <= now) {
            let (_, msg) = self.stage.resps.pop_front().expect("checked");
            self.apply_resp(msg, now);
        }
        // Snoops in global order; a FID-full stall blocks only this class.
        while self.stage.snoops.front().is_some_and(|(r, _)| *r <= now) {
            let (_, snoop) = self.stage.snoops.pop_front().expect("checked");
            if !self.apply_snoop(snoop, now) {
                self.stage.snoops.push_front((now.next(), snoop));
                break;
            }
        }
        while self.stage.cores.front().is_some_and(|(r, _)| *r <= now) {
            let (_, req) = self.stage.cores.pop_front().expect("checked");
            self.apply_core(req, now);
        }
    }

    fn accept_one(&mut self, now: Cycle) {
        if !self.cfg.pipelined && now < self.busy_until {
            return;
        }
        let ready = now + self.cfg.latency;
        if !self.resp_q.is_empty() {
            let msg = self.resp_q.pop().expect("checked");
            self.stage.resps.push_back((ready, msg));
        } else if !self.snoop_q.is_empty() {
            let snoop = self.snoop_q.pop().expect("checked");
            self.stage.snoops.push_back((ready, snoop));
        } else if self.core_accept_ok() {
            let req = self.core_q.pop().expect("checked");
            self.stage.cores.push_back((ready, req));
        } else {
            return;
        }
        self.busy_until = now + self.cfg.latency;
    }

    /// Whether the head core request may enter the pipeline: needs a free
    /// RSHR (unless it could hit) and no conflicting pending miss or
    /// writeback on the same line.
    fn core_accept_ok(&mut self) -> bool {
        let Some(req) = self.core_q.front() else {
            return false;
        };
        let line = LineAddr::containing(req.addr, self.cfg.line_bytes);
        if self.rshr.iter().flatten().any(|e| e.addr == line) {
            return false;
        }
        if self.wb_buf.iter().any(|w| w.addr == line) {
            return false;
        }
        // Same-line requests still in the stage pipeline count too —
        // otherwise two RSHRs for one line can be allocated back to back.
        if self
            .stage
            .cores
            .iter()
            .any(|(_, r)| LineAddr::containing(r.addr, self.cfg.line_bytes) == line)
        {
            return false;
        }
        // A potential miss needs a free RSHR slot; hits do not. Being
        // conservative (requiring a slot even for hits) would deadlock a
        // two-outstanding core, so check the array without LRU update.
        let hit = self.array.peek(line).map(|l| {
            matches!(
                (req.op, l.state.can_write()),
                (CoreOp::Load, _) | (CoreOp::Store, true) | (CoreOp::AtomicAdd, true)
            ) && l.state.can_read()
        });
        if hit == Some(true) {
            return true;
        }
        self.rshr.iter().any(Option::is_none)
    }

    fn apply_resp(&mut self, msg: CohMsg, now: Cycle) {
        assert_eq!(msg.kind, MsgKind::Data, "L2 only receives data responses");
        let tag = msg.req_tag as usize;
        let entry = self.rshr[tag]
            .as_mut()
            .unwrap_or_else(|| panic!("data for free RSHR tag {tag}"));
        assert_eq!(entry.addr, msg.addr, "data for wrong line");
        assert!(
            entry.data.is_none(),
            "duplicate data response for {} (two responders)",
            msg.addr
        );
        entry.data = Some((msg.value, now));
        entry.served_by = if msg.sender.slot == scorpio_noc::LocalSlot::Mc {
            ServedBy::Memory
        } else {
            ServedBy::Cache
        };
        self.try_complete(tag, now);
    }

    /// Applies one ordered snoop; returns `false` to stall (FID list full).
    fn apply_snoop(&mut self, s: OrderedSnoop, now: Cycle) -> bool {
        if s.own {
            self.apply_own(s.msg, now);
            return true;
        }
        let addr = s.msg.addr;
        let kind = s.msg.kind;
        if kind == MsgKind::WbReq {
            // Other caches' writebacks never affect us.
            return true;
        }
        // Pending-miss interactions take precedence over the array.
        if let Some(tag) = self.find_rshr(addr) {
            let entry = self.rshr[tag]
                .as_mut()
                .expect("find_rshr returned live tag");
            if entry.ordered.is_some() && entry.kind == MsgKind::GetX {
                // We own the line as of our position: record and forward
                // after our write completes. A full list stalls the snoop.
                return self.fids[tag].push(s.msg.requester, s.msg.req_tag, kind) != FidPush::Full;
            }
            if entry.ordered.is_some() && entry.kind == MsgKind::GetS && kind == MsgKind::GetX {
                // A write ordered after our read: the fill is stale on
                // arrival.
                entry.invalidate_on_fill = true;
            }
            // Not ordered yet: the snoop precedes us; fall through to the
            // array (e.g. invalidate our S copy under a pending upgrade).
        }
        // Writeback buffer still owns evicted dirty lines until ordered.
        if let Some(pos) = self
            .wb_buf
            .iter()
            .position(|w| w.addr == addr && !w.squashed)
        {
            let value = self.wb_buf[pos].value;
            match kind {
                MsgKind::GetS => {
                    self.send_data(s.msg, value);
                }
                MsgKind::GetX => {
                    self.send_data(s.msg, value);
                    self.wb_buf[pos].squashed = true;
                    self.stats.wb_squashed += 1;
                }
                _ => {}
            }
            return true;
        }
        // Region filter.
        let pending_here = self.find_rshr(addr).is_some();
        if let Some(region) = &self.region {
            if !region.may_be_present(addr) && !pending_here {
                self.stats.snoops_filtered += 1;
                return true;
            }
        }
        self.stats.snoops += 1;
        let Some(line) = self.array.peek(addr).copied() else {
            return true;
        };
        let action = snoop_transition(line.state, kind);
        if action.respond_with_data {
            self.send_data(s.msg, line.value);
        }
        if action.next == LineState::I {
            self.drop_line(addr);
        } else if action.next != line.state {
            self.array
                .lookup_mut(addr)
                .expect("peeked line vanished")
                .state = action.next;
        }
        true
    }

    /// Our own ordered request came back around.
    fn apply_own(&mut self, msg: CohMsg, now: Cycle) {
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX => {
                let tag = msg.req_tag as usize;
                let line = self.array.peek(msg.addr).copied();
                let entry = self.rshr[tag]
                    .as_mut()
                    .unwrap_or_else(|| panic!("own ordered request for free tag {tag}"));
                assert!(entry.ordered.is_none(), "request ordered twice");
                entry.ordered = Some(now);
                // Owner upgrade: a GETX from the cache that already owns
                // the (dirty) line — a store to an O_D line — receives no
                // external response: the memory controller sees a
                // cache-owned line and every other cache is a mere sharer.
                // The owner self-supplies its own data.
                if entry.kind == MsgKind::GetX && entry.data.is_none() {
                    if let Some(line) = line {
                        if line.state.is_owner() {
                            entry.data = Some((line.value, now));
                            entry.served_by = ServedBy::Cache;
                        }
                    }
                }
                let t_issue = entry.t_issue;
                self.stats.ordering_delay.record(now - t_issue);
                self.try_complete(tag, now);
            }
            MsgKind::WbReq => {
                let pos = self
                    .wb_buf
                    .iter()
                    .position(|w| w.addr == msg.addr)
                    .expect("own WbReq without writeback entry");
                let wb = self.wb_buf.remove(pos);
                if !wb.squashed {
                    let dest = self.cfg.mc_for(wb.addr);
                    let data = CohMsg::new(MsgKind::WbData, wb.addr, self.tile, 0, self.my_ep())
                        .with_value(wb.value);
                    self.outbox.push_back(L2Out::Unicast {
                        dest,
                        msg: data,
                        data_sized: true,
                    });
                }
            }
            other => panic!("unexpected own ordered message {other:?}"),
        }
    }

    fn apply_core(&mut self, req: CoreReq, now: Cycle) {
        let addr = LineAddr::containing(req.addr, self.cfg.line_bytes);
        if let Some(line) = self.array.lookup_mut(addr) {
            match req.op {
                CoreOp::Load if line.state.can_read() => {
                    let value = line.value;
                    self.finish_hit(req, addr, value, now);
                    return;
                }
                CoreOp::Store if line.state.can_write() => {
                    line.value = req.value;
                    self.finish_hit(req, addr, req.value, now);
                    return;
                }
                CoreOp::AtomicAdd if line.state.can_write() => {
                    let old = line.value;
                    line.value = old.wrapping_add(req.value);
                    self.finish_hit(req, addr, old, now);
                    return;
                }
                _ => {}
            }
        }
        // Miss or upgrade: allocate an RSHR and issue the ordered request.
        // Re-check conflicts at apply time (state may have moved while the
        // request sat in the stage): retry next cycle instead of creating
        // a duplicate-line RSHR.
        if self.rshr.iter().flatten().any(|e| e.addr == addr)
            || self.wb_buf.iter().any(|w| w.addr == addr)
            || !self.rshr.iter().any(Option::is_none)
        {
            self.stage.cores.push_front((now.next(), req));
            return;
        }
        self.stats.misses += 1;
        let tag = self
            .rshr
            .iter()
            .position(Option::is_none)
            .expect("checked above");
        let kind = match req.op {
            CoreOp::Load => MsgKind::GetS,
            CoreOp::Store | CoreOp::AtomicAdd => MsgKind::GetX,
        };
        let msg = CohMsg::new(kind, addr, self.tile, tag as u8, self.my_ep());
        self.rshr[tag] = Some(RshrEntry {
            addr,
            kind,
            op: req.op,
            token: req.token,
            operand: req.value,
            ordered: None,
            data: None,
            invalidate_on_fill: false,
            fill_blocked: false,
            served_by: ServedBy::Memory,
            enqueued: req.enqueued,
            admitted: req.admitted,
            t_issue: now,
            t_inject: None,
            t_popped: None,
        });
        self.outbox.push_back(L2Out::OrderedRequest(msg));
    }

    fn finish_hit(&mut self, req: CoreReq, addr: LineAddr, value: u64, now: Cycle) {
        self.stats.hits += 1;
        self.core_resps.push_back(CoreResp {
            token: req.token,
            value,
            addr,
            latency: now - req.enqueued,
            served_by: None,
            installed: true,
        });
    }

    fn retry_blocked_fills(&mut self, now: Cycle) {
        for tag in 0..self.rshr.len() {
            if self.rshr[tag].as_ref().is_some_and(|e| e.fill_blocked) {
                self.try_complete(tag, now);
            }
        }
    }

    /// Completes a miss when both the ordered observation and the data have
    /// arrived.
    fn try_complete(&mut self, tag: usize, now: Cycle) {
        let entry = self.rshr[tag].expect("completing a free tag");
        let (Some(_), Some((data_value, _))) = (entry.ordered, entry.data) else {
            return;
        };

        // Compute the line's post-fill value and the core's reply value.
        let (core_value, line_value) = match entry.op {
            CoreOp::Load => (data_value, data_value),
            CoreOp::Store => (entry.operand, entry.operand),
            CoreOp::AtomicAdd => (data_value, data_value.wrapping_add(entry.operand)),
        };

        if entry.kind == MsgKind::GetS && entry.invalidate_on_fill {
            // The load still returns its (correctly ordered) value, but the
            // line is already stale: do not install it.
            self.complete_entry(tag, core_value, false, now);
            return;
        }

        // Install (or update) the line. An insertion may evict a dirty
        // victim, which needs a writeback-buffer slot.
        let needs_insert = self.array.peek(entry.addr).is_none();
        if needs_insert && self.wb_buf.len() >= self.cfg.wb_entries {
            self.rshr[tag].as_mut().expect("checked").fill_blocked = true;
            return;
        }
        let state = fill_state(entry.kind);
        if let Some(line) = self.array.lookup_mut(entry.addr) {
            line.state = state;
            line.value = line_value;
        } else {
            let victim = self.array.insert(Line {
                addr: entry.addr,
                state,
                value: line_value,
            });
            if let Some(region) = self.region.as_mut() {
                region.line_filled(entry.addr);
            }
            if let Some(victim) = victim {
                self.evict(victim);
            }
        }

        // Forward to everyone recorded while the write was pending.
        if entry.kind == MsgKind::GetX && !self.fids[tag].is_empty() {
            let final_value = self.array.peek(entry.addr).expect("just installed").value;
            let me = self.my_ep();
            for fid in self.fids[tag].entries() {
                let fwd = CohMsg::new(MsgKind::Data, entry.addr, fid.sid, fid.req_tag, me)
                    .with_value(final_value);
                self.outbox.push_back(L2Out::Unicast {
                    dest: Endpoint::tile(scorpio_noc::RouterId(fid.sid)),
                    msg: fwd,
                    data_sized: true,
                });
                self.stats.data_forwards += 1;
            }
            if self.fids[tag].ends_in_getx() {
                self.drop_line(entry.addr);
            } else {
                // We answered reads: dirty data stays on chip, shared.
                self.array
                    .lookup_mut(entry.addr)
                    .expect("just installed")
                    .state = LineState::Od;
            }
        }

        let still_resident = self.array.peek(entry.addr).is_some();
        self.complete_entry(tag, core_value, still_resident, now);
    }

    fn complete_entry(&mut self, tag: usize, core_value: u64, installed: bool, now: Cycle) {
        let entry = self.rshr[tag].take().expect("completing a free tag");
        self.fids[tag].clear();
        let total = now - entry.enqueued;
        if self.record_spans {
            self.spans.push(MissSpan {
                tile: self.tile,
                addr: entry.addr,
                kind: entry.kind,
                served_by: entry.served_by,
                enqueued: entry.enqueued.as_u64(),
                admitted: entry.admitted.as_u64(),
                issue: entry.t_issue.as_u64(),
                inject: entry.t_inject.expect("span missing inject stamp").as_u64(),
                popped: entry.t_popped.expect("span missing pop stamp").as_u64(),
                ordered: entry.ordered.expect("completed unordered").as_u64(),
                data: entry.data.expect("completed without data").1.as_u64(),
                retire: now.as_u64(),
            });
        }
        self.core_resps.push_back(CoreResp {
            token: entry.token,
            value: core_value,
            addr: entry.addr,
            latency: total,
            served_by: Some(entry.served_by),
            installed,
        });
    }

    fn evict(&mut self, victim: Line) {
        if let Some(region) = self.region.as_mut() {
            region.line_evicted(victim.addr);
        }
        self.l1_invalidations.push_back(victim.addr);
        if victim.state.is_owner() {
            self.stats.writebacks += 1;
            assert!(
                self.wb_buf.len() < self.cfg.wb_entries,
                "eviction without a writeback slot"
            );
            self.wb_buf.push(WbEntry {
                addr: victim.addr,
                value: victim.value,
                squashed: false,
            });
            let msg = CohMsg::new(MsgKind::WbReq, victim.addr, self.tile, 0, self.my_ep());
            self.outbox.push_back(L2Out::OrderedRequest(msg));
        }
    }

    /// Invalidates a resident line: array, region tracker and L1 inclusion.
    fn drop_line(&mut self, addr: LineAddr) {
        if self.array.remove(addr).is_some() {
            if let Some(region) = self.region.as_mut() {
                region.line_evicted(addr);
            }
            self.l1_invalidations.push_back(addr);
        }
    }

    fn send_data(&mut self, req: CohMsg, value: u64) {
        let reply = CohMsg::new(
            MsgKind::Data,
            req.addr,
            req.requester,
            req.req_tag,
            self.my_ep(),
        )
        .with_value(value);
        self.outbox.push_back(L2Out::Unicast {
            dest: Endpoint::tile(scorpio_noc::RouterId(req.requester)),
            msg: reply,
            data_sized: true,
        });
        self.stats.data_forwards += 1;
    }

    fn find_rshr(&self, addr: LineAddr) -> Option<usize> {
        self.rshr
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.addr == addr))
    }

    fn my_ep(&self) -> Endpoint {
        Endpoint::tile(scorpio_noc::RouterId(self.tile))
    }

    /// Renders internal state for deadlock debugging. An RSHR entry's
    /// `t_inject` and `t_popped` stamps read `-` until its own request is
    /// injected and popped in order, so a stuck miss shows which it waits
    /// for.
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let mut out = String::new();
        let at = |c: Option<Cycle>| c.map_or("-".into(), |c| c.as_u64().to_string());
        for (tag, e) in self.rshr.iter().enumerate() {
            if let Some(e) = e {
                out.push_str(&format!(
                    "  rshr[{tag}] addr={} kind={:?} data={:?} blocked={} fids={} inval_on_fill={} enqueued={} admitted={} t_issue={} t_inject={} t_popped={} ordered={} data_at={}\n",
                    e.addr, e.kind, e.data.map(|(v, _)| v), e.fill_blocked, self.fids[tag].entries().len(), e.invalidate_on_fill,
                    at(Some(e.enqueued)), at(Some(e.admitted)), at(Some(e.t_issue)), at(e.t_inject), at(e.t_popped), at(e.ordered), at(e.data.map(|d| d.1))
                ));
            }
        }
        for w in &self.wb_buf {
            out.push_str(&format!("  wb addr={} squashed={}\n", w.addr, w.squashed));
        }
        out.push_str(&format!(
            "  q core={} snoop={} resp={} stage={} outbox={} core_resps={}\n",
            self.core_q.len(),
            self.snoop_q.len(),
            self.resp_q.len(),
            self.stage.len(),
            self.outbox.len(),
            self.core_resps.len()
        ));
        if let Some((ready, snoop)) = self.stage.snoops.front() {
            out.push_str(&format!("  stalled/next snoop ready={ready} {snoop:?}\n"));
        }
        out
    }

    /// The current state of `addr` in the tag array (tests/diagnostics).
    pub fn line_state(&self, addr: LineAddr) -> LineState {
        self.array
            .peek(addr)
            .map(|l| l.state)
            .unwrap_or(LineState::I)
    }

    /// The current value of `addr` if resident.
    pub fn line_value(&self, addr: LineAddr) -> Option<u64> {
        self.array.peek(addr).map(|l| l.value)
    }
}

/// Support the sleep-soundness audit shares; not part of the L2's
/// interface.
#[doc(hidden)]
pub mod testing {
    use super::SnoopyL2;

    /// Digest of everything a tick of `l2` can change. `tile`, `cfg` and
    /// `record_spans` are left out: they are set at build. The recorded
    /// spans count by their length: a tick only appends to them, so the
    /// length moves whenever they do, and their text grows with the run.
    pub fn state_digest(l2: &SnoopyL2) -> u64 {
        scorpio_sim::Fnv1a::debug_digest(&(
            (&l2.array, &l2.region, &l2.rshr, &l2.fids, &l2.wb_buf),
            (&l2.core_q, &l2.snoop_q, &l2.resp_q, &l2.stage, &l2.outbox),
            (&l2.core_resps, &l2.l1_invalidations, l2.spans.len()),
            (l2.busy_until, &l2.stats),
        ))
    }
}
