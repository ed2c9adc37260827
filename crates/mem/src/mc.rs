//! Memory controllers: ordered endpoints that serve requests exactly when
//! no cache owns the line.
//!
//! Each MC port consumes the same globally ordered request stream as every
//! tile (its NIC tracks ESIDs like any other). Ownership bits — the paper's
//! "directory cache (1 owner bit, 1 dirty bit)" — decide whether memory
//! responds; a finite [`DirectoryCache`] in front charges extra latency on
//! misses. The functional store additionally remembers *which* cache owns,
//! so stale writebacks (squashed by an earlier-ordered GETX) are ignored
//! (see DESIGN.md).

use crate::l2::OrderedSnoop;
use scorpio_coherence::{CohMsg, DirectoryCache, LineAddr, MsgKind, Owner, OwnershipStore};
use scorpio_noc::{Endpoint, RouterId};
use scorpio_sim::Cycle;
use std::collections::{HashMap, VecDeque};

/// Memory-controller configuration.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Fully pipelined DRAM access latency (the paper's RTL model: 90).
    pub(crate) dram_latency: u64,
    /// Directory-cache (ownership bits) access latency on a hit.
    pub dir_latency: u64,
    /// Extra penalty when the ownership entry missed the directory cache
    /// (fetched alongside the data from DRAM).
    pub dir_miss_penalty: u64,
    /// Directory-cache storage budget in bytes (Table 1: 128 KB total).
    pub(crate) dir_cache_bytes: usize,
    /// Bits per directory entry (owner + valid for SCORPIO/HT).
    pub(crate) dir_entry_bits: usize,
    /// Directory-cache associativity.
    pub(crate) dir_ways: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            dram_latency: 90,
            dir_latency: 10,
            dir_miss_penalty: 90,
            dir_cache_bytes: 32 * 1024, // 128 KB split over 4 MC ports
            dir_entry_bits: 2,
            dir_ways: 4,
        }
    }
}

/// MC statistics.
#[derive(Debug, Clone, Default)]
pub struct McStats {
    /// Requests this port was responsible for.
    pub(crate) requests_seen: u64,
    /// Data responses served from memory.
    pub responses: u64,
    /// Responses that had to wait for in-flight writeback data.
    pub(crate) wb_waits: u64,
    /// Stale writebacks ignored.
    pub(crate) stale_writebacks: u64,
}

/// An outgoing data response.
#[derive(Debug, Clone, Copy)]
pub struct McOut {
    /// Destination tile endpoint.
    pub dest: Endpoint,
    /// The data message.
    pub msg: CohMsg,
}

#[derive(Debug, Clone, Copy)]
struct PendingResp {
    ready: Cycle,
    requester: u16,
    req_tag: u8,
    addr: LineAddr,
}

/// One memory-controller port.
#[derive(Debug)]
pub struct MemoryController {
    ep: Endpoint,
    /// This port's index among all MC ports and the total count
    /// (line-interleaved responsibility).
    mc_index: usize,
    mc_total: usize,
    line_bytes: u64,
    cfg: McConfig,
    store: OwnershipStore,
    dir_cache: DirectoryCache,
    /// Scheduled responses in the order they were scheduled, not by
    /// readiness: DRAM latency varies with the directory hit, and a
    /// response held for writeback data is scheduled when the data arrives.
    pending: VecDeque<PendingResp>,
    /// Responses blocked on writeback data, per line.
    waiting_wb: HashMap<LineAddr, Vec<PendingResp>>,
    /// Writeback data that arrived before its (ordered) WbReq — the paper:
    /// "the writeback request and data may arrive separately and in any
    /// order". Keyed by line; value is (evictor, data).
    early_wb: HashMap<LineAddr, (u16, u64)>,
    /// Accepted WbReqs whose data has not arrived yet (survives an
    /// intervening GETX re-owning the line).
    awaiting_data: HashMap<LineAddr, u16>,
    outbox: VecDeque<McOut>,
    /// Statistics.
    pub stats: McStats,
}

impl MemoryController {
    /// A controller at endpoint `ep`, `mc_index` of `mc_total` ports.
    ///
    /// # Panics
    ///
    /// Panics if `mc_total` is zero or the index is out of range.
    pub fn new(
        ep: Endpoint,
        mc_index: usize,
        mc_total: usize,
        line_bytes: u64,
        cfg: McConfig,
    ) -> Self {
        assert!(mc_total > 0, "at least one MC port required");
        assert!(mc_index < mc_total, "MC index out of range");
        let dir_cache =
            DirectoryCache::with_budget(cfg.dir_cache_bytes, cfg.dir_entry_bits, cfg.dir_ways);
        MemoryController {
            ep,
            mc_index,
            mc_total,
            line_bytes,
            store: OwnershipStore::new(0),
            dir_cache,
            pending: VecDeque::new(),
            waiting_wb: HashMap::new(),
            early_wb: HashMap::new(),
            awaiting_data: HashMap::new(),
            outbox: VecDeque::new(),
            stats: McStats::default(),
            cfg,
        }
    }

    /// Whether this port is responsible for `addr`.
    pub fn responsible_for(&self, addr: LineAddr) -> bool {
        (addr.0 / self.line_bytes) as usize % self.mc_total == self.mc_index
    }

    /// Consumes one globally ordered request from this port's NIC.
    pub fn snoop(&mut self, s: OrderedSnoop, now: Cycle) {
        let msg = s.msg;
        if !self.responsible_for(msg.addr) {
            return;
        }
        match msg.kind {
            MsgKind::GetS | MsgKind::GetX => {
                self.stats.requests_seen += 1;
                let dir_hit = self.dir_cache.access(msg.addr);
                let lat = self.cfg.dir_latency
                    + if dir_hit {
                        0
                    } else {
                        self.cfg.dir_miss_penalty
                    };
                let owner = self.store.owner(msg.addr);
                let resp = PendingResp {
                    ready: now + lat + self.cfg.dram_latency,
                    requester: msg.requester,
                    req_tag: msg.req_tag,
                    addr: msg.addr,
                };
                match owner {
                    Owner::Memory => self.pending.push_back(resp),
                    Owner::MemoryPendingWb { .. } => {
                        self.stats.wb_waits += 1;
                        self.waiting_wb.entry(msg.addr).or_default().push(resp);
                    }
                    Owner::Cache(_) => {
                        // The owning cache answers; memory stays silent.
                    }
                }
                if msg.kind == MsgKind::GetX {
                    // Ownership moves to the writer, whoever supplies data.
                    self.store.set_owner(msg.addr, Owner::Cache(msg.requester));
                }
            }
            MsgKind::WbReq => {
                if self.store.owner(msg.addr) == Owner::Cache(msg.requester) {
                    // The data may have raced ahead on the unordered
                    // network; if so the writeback completes immediately.
                    if let Some((from, value)) = self.early_wb.remove(&msg.addr) {
                        if from == msg.requester {
                            self.store.write_value(msg.addr, value);
                            self.store.set_owner(msg.addr, Owner::Memory);
                            self.release_waiters(msg.addr, now);
                            return;
                        }
                        self.early_wb.insert(msg.addr, (from, value));
                    }
                    self.awaiting_data.insert(msg.addr, msg.requester);
                    self.store.set_owner(
                        msg.addr,
                        Owner::MemoryPendingWb {
                            from: msg.requester,
                        },
                    );
                } else {
                    // An earlier-ordered GETX took the line; the evictor's
                    // writeback was squashed on its side too.
                    self.stats.stale_writebacks += 1;
                }
            }
            other => panic!("MC received unexpected ordered message {other:?}"),
        }
    }

    /// Accepts writeback data from the unordered network.
    pub fn wb_data(&mut self, msg: CohMsg, now: Cycle) {
        assert_eq!(msg.kind, MsgKind::WbData, "not writeback data");
        if !self.responsible_for(msg.addr) {
            return;
        }
        if self.awaiting_data.get(&msg.addr) == Some(&msg.requester) {
            self.awaiting_data.remove(&msg.addr);
            self.store.write_value(msg.addr, msg.value);
            // Only hand the line back to memory if no later GETX already
            // re-owned it.
            if self.store.owner(msg.addr)
                == (Owner::MemoryPendingWb {
                    from: msg.requester,
                })
            {
                self.store.set_owner(msg.addr, Owner::Memory);
            }
            self.release_waiters(msg.addr, now);
        } else {
            // Raced ahead of its ordered WbReq: hold until it arrives.
            self.early_wb.insert(msg.addr, (msg.requester, msg.value));
        }
    }

    fn release_waiters(&mut self, addr: LineAddr, now: Cycle) {
        if let Some(waiters) = self.waiting_wb.remove(&addr) {
            for mut w in waiters {
                w.ready = now + self.cfg.dram_latency;
                self.pending.push_back(w);
            }
        }
    }

    /// One cycle: release due responses into the outbox.
    pub fn tick(&mut self, now: Cycle) {
        let mut idx = 0;
        while idx < self.pending.len() {
            if self.pending[idx].ready <= now {
                let resp = self.pending.remove(idx).expect("index in range");
                let value = self.store.value(resp.addr);
                let msg = CohMsg::new(
                    MsgKind::Data,
                    resp.addr,
                    resp.requester,
                    resp.req_tag,
                    self.ep,
                )
                .with_value(value);
                self.stats.responses += 1;
                self.outbox.push_back(McOut {
                    dest: Endpoint::tile(RouterId(resp.requester)),
                    msg,
                });
            } else {
                idx += 1;
            }
        }
    }

    /// Next outgoing response, if any (peek).
    pub fn peek_out(&self) -> Option<&McOut> {
        self.outbox.front()
    }

    /// Consumes the outgoing response just peeked.
    pub fn pop_out(&mut self) -> Option<McOut> {
        self.outbox.pop_front()
    }

    /// Whether all queues are drained.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.waiting_wb.is_empty()
            && self.outbox.is_empty()
            && self.early_wb.is_empty()
    }

    /// The earliest cycle at which a scheduled DRAM access completes, if
    /// any. Between now and that cycle every [`MemoryController::tick`] is
    /// a no-op (ticking only releases due responses), so a controller
    /// whose remaining work is all scheduled — empty outbox, writebacks
    /// all event-driven — can sleep until this deadline. The queue is not
    /// kept sorted by readiness (see `pending`), hence the scan.
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.pending.iter().map(|p| p.ready).min()
    }

    /// Direct read of memory's logical value (verification oracle).
    pub fn memory_value(&self, addr: LineAddr) -> u64 {
        self.store.value(addr)
    }

    /// Direct read of the tracked owner (verification oracle).
    pub fn owner(&self, addr: LineAddr) -> Owner {
        self.store.owner(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(Endpoint::mc(RouterId(0)), 0, 1, 32, McConfig::default())
    }

    fn gets(addr: u64, requester: u16, tag: u8) -> OrderedSnoop {
        OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::GetS,
                LineAddr(addr),
                requester,
                tag,
                Endpoint::tile(RouterId(requester)),
            ),
        }
    }

    fn getx(addr: u64, requester: u16, tag: u8) -> OrderedSnoop {
        OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::GetX,
                LineAddr(addr),
                requester,
                tag,
                Endpoint::tile(RouterId(requester)),
            ),
        }
    }

    fn run_until_out(m: &mut MemoryController, start: Cycle, max: u64) -> (McOut, Cycle) {
        let mut now = start;
        for _ in 0..max {
            m.tick(now);
            if let Some(out) = m.pop_out() {
                return (out, now);
            }
            now = now.next();
        }
        panic!("MC produced no response");
    }

    #[test]
    fn memory_serves_unowned_lines() {
        let mut m = mc();
        m.snoop(gets(0x40, 3, 1), Cycle::ZERO);
        let (out, at) = run_until_out(&mut m, Cycle::ZERO, 300);
        assert_eq!(out.dest, Endpoint::tile(RouterId(3)));
        assert_eq!(out.msg.req_tag, 1);
        assert_eq!(out.msg.kind, MsgKind::Data);
        // Cold access: dir miss penalty + dir latency + DRAM.
        assert!(at.as_u64() >= 90 + 10);
    }

    #[test]
    fn cache_owned_lines_are_silent() {
        let mut m = mc();
        m.snoop(getx(0x40, 2, 0), Cycle::ZERO);
        // First GETX: memory owns, so it responds AND transfers ownership.
        let _ = run_until_out(&mut m, Cycle::ZERO, 300);
        assert_eq!(m.owner(LineAddr(0x40)), Owner::Cache(2));
        // Second reader: owned by cache 2 → memory silent.
        m.snoop(gets(0x40, 5, 0), Cycle::new(500));
        for c in 500..900 {
            m.tick(Cycle::new(c));
        }
        assert!(m.pop_out().is_none());
    }

    #[test]
    fn writeback_returns_ownership_and_data() {
        let mut m = mc();
        m.snoop(getx(0x40, 2, 0), Cycle::ZERO);
        let _ = run_until_out(&mut m, Cycle::ZERO, 300);
        // Cache 2 evicts: WbReq then WbData.
        let wb = OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::WbReq,
                LineAddr(0x40),
                2,
                0,
                Endpoint::tile(RouterId(2)),
            ),
        };
        m.snoop(wb, Cycle::new(400));
        assert_eq!(m.owner(LineAddr(0x40)), Owner::MemoryPendingWb { from: 2 });
        let data = CohMsg::new(
            MsgKind::WbData,
            LineAddr(0x40),
            2,
            0,
            Endpoint::tile(RouterId(2)),
        )
        .with_value(77);
        m.wb_data(data, Cycle::new(410));
        assert_eq!(m.owner(LineAddr(0x40)), Owner::Memory);
        assert_eq!(m.memory_value(LineAddr(0x40)), 77);
    }

    #[test]
    fn reads_during_pending_writeback_wait_for_data() {
        let mut m = mc();
        m.snoop(getx(0x40, 2, 0), Cycle::ZERO);
        let _ = run_until_out(&mut m, Cycle::ZERO, 300);
        let wb = OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::WbReq,
                LineAddr(0x40),
                2,
                0,
                Endpoint::tile(RouterId(2)),
            ),
        };
        m.snoop(wb, Cycle::new(400));
        // A read arrives before the data: it must wait.
        m.snoop(gets(0x40, 7, 1), Cycle::new(401));
        for c in 401..800 {
            m.tick(Cycle::new(c));
        }
        assert!(m.pop_out().is_none(), "responded before writeback data");
        assert_eq!(m.stats.wb_waits, 1);
        let data = CohMsg::new(
            MsgKind::WbData,
            LineAddr(0x40),
            2,
            0,
            Endpoint::tile(RouterId(2)),
        )
        .with_value(55);
        m.wb_data(data, Cycle::new(800));
        let (out, _) = run_until_out(&mut m, Cycle::new(801), 300);
        assert_eq!(out.msg.value, 55);
        assert_eq!(out.dest, Endpoint::tile(RouterId(7)));
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut m = mc();
        // Tile 2 owns, then tile 4's GETX (ordered first) takes the line,
        // then tile 2's stale WbReq arrives.
        m.snoop(getx(0x40, 2, 0), Cycle::ZERO);
        let _ = run_until_out(&mut m, Cycle::ZERO, 300);
        m.snoop(getx(0x40, 4, 0), Cycle::new(400));
        assert_eq!(m.owner(LineAddr(0x40)), Owner::Cache(4));
        let wb = OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::WbReq,
                LineAddr(0x40),
                2,
                0,
                Endpoint::tile(RouterId(2)),
            ),
        };
        m.snoop(wb, Cycle::new(410));
        assert_eq!(m.owner(LineAddr(0x40)), Owner::Cache(4));
        assert_eq!(m.stats.stale_writebacks, 1);
    }

    #[test]
    fn responsibility_is_interleaved() {
        let m0 = MemoryController::new(Endpoint::mc(RouterId(0)), 0, 4, 32, McConfig::default());
        let m1 = MemoryController::new(Endpoint::mc(RouterId(5)), 1, 4, 32, McConfig::default());
        assert!(m0.responsible_for(LineAddr(0)));
        assert!(!m0.responsible_for(LineAddr(32)));
        assert!(m1.responsible_for(LineAddr(32)));
        // Requests outside our slice are ignored entirely.
        let mut m = m0;
        m.snoop(gets(32, 1, 0), Cycle::ZERO);
        for c in 0..300 {
            m.tick(Cycle::new(c));
        }
        assert!(m.pop_out().is_none());
        assert_eq!(m.stats.requests_seen, 0);
    }

    #[test]
    fn getx_while_wb_pending_hands_old_data_to_new_owner() {
        let mut m = mc();
        m.snoop(getx(0x40, 2, 0), Cycle::ZERO);
        let _ = run_until_out(&mut m, Cycle::ZERO, 300);
        let wb = OrderedSnoop {
            own: false,
            msg: CohMsg::new(
                MsgKind::WbReq,
                LineAddr(0x40),
                2,
                0,
                Endpoint::tile(RouterId(2)),
            ),
        };
        m.snoop(wb, Cycle::new(400));
        // New writer ordered while the writeback data is in flight.
        m.snoop(getx(0x40, 9, 1), Cycle::new(405));
        assert_eq!(m.owner(LineAddr(0x40)), Owner::Cache(9));
        let data = CohMsg::new(
            MsgKind::WbData,
            LineAddr(0x40),
            2,
            0,
            Endpoint::tile(RouterId(2)),
        )
        .with_value(123);
        m.wb_data(data, Cycle::new(500));
        let (out, _) = run_until_out(&mut m, Cycle::new(501), 300);
        assert_eq!(out.dest, Endpoint::tile(RouterId(9)));
        assert_eq!(out.msg.value, 123);
        assert!(m.is_idle());
    }
}
