//! The baselines' one ordering point (DESIGN.md §3).

use crate::config::{Protocol, SystemConfig};
use crate::report::SystemReport;
use scorpio_coherence::{
    home_tile, CohMsg, DirectoryCache, InsoReorderBuffer, InsoSlotAllocator, LineAddr, LpdEntry,
    MsgKind, SlotContent,
};
use scorpio_nic::Nic;
use scorpio_noc::{Endpoint, MultiNetwork, RouterId, Topology, VnetId};
use scorpio_sim::{Cycle, Wake};
use std::collections::VecDeque;

type Net = MultiNetwork<CohMsg>;

/// Where TokenB, INSO, LPD-D and HT-D establish the global request order;
/// `System` holds none under SCORPIO, which orders inside the network.
/// Requests are stamped with a global slot number and every endpoint
/// releases them through a reorder buffer in slot order. Only the slot's
/// source differs: TokenB takes the next value of one global counter; INSO
/// the tile's own next slot, and an idle tile broadcasts expiries for the
/// slots it does not use; LPD-D and HT-D send the request to its home tile,
/// whose directory slice stamps it from the global counter once the
/// directory access is done.
pub(crate) struct Sequencer {
    protocol: Protocol,
    cores: usize,
    /// The global counter: TokenB requests and directory homes.
    next_slot: u64,
    /// Per endpoint, tiles first, then MCs (which use only `reorder`).
    ports: Vec<Port>,
    expiry_sent: u64,
}

/// One endpoint's ordering state. The three latches each hold a stamped
/// broadcast the NIC refused, until it goes.
#[derive(Debug)]
struct Port {
    reorder: InsoReorderBuffer<CohMsg>,
    /// The tile's own request; its L2 outbox waits behind it.
    request: Option<CohMsg>,
    /// An INSO expiry.
    expiry: Option<CohMsg>,
    /// The directory home's broadcast; the home's stage waits behind it.
    bcast: Option<CohMsg>,
    alloc: Option<InsoSlotAllocator>,
    home: Option<DirHome>,
}

impl Port {
    /// Nothing left to order. A held INSO expiry does not count: idle
    /// tiles send those forever.
    fn is_idle(&self) -> bool {
        self.request.is_none()
            && self.bcast.is_none()
            && self.home.as_ref().is_none_or(|h| h.stage.is_empty())
    }
}

impl Sequencer {
    /// The ordering point of `cfg`'s protocol over `endpoints` endpoints;
    /// `None` under SCORPIO.
    pub(crate) fn new(cfg: &SystemConfig, endpoints: usize) -> Option<Sequencer> {
        let cores = cfg.cores();
        // Home-directory slices split the total budget across tiles; LPD's
        // wide entries cache far fewer lines than HT's 2-bit entries in the
        // same storage (Section 5.1).
        let entry_bits = match cfg.protocol {
            Protocol::Scorpio => return None,
            Protocol::LpdDir => LpdEntry::entry_bits(cores, cfg.lpd_pointers),
            _ => 2,
        };
        let slice_bytes = (cfg.dir_total_bytes / cores).max(64);
        let inso = matches!(cfg.protocol, Protocol::Inso { .. });
        let ports = (0..endpoints)
            .map(|ep| Port {
                reorder: InsoReorderBuffer::new(),
                request: None,
                expiry: None,
                bcast: None,
                alloc: (inso && ep < cores).then(|| InsoSlotAllocator::new(ep, cores)),
                home: (cfg.protocol.uses_directory() && ep < cores).then(|| DirHome {
                    dir: DirectoryCache::with_budget(slice_bytes, entry_bits, 4),
                    latency: cfg.mc.dir_latency,
                    miss_penalty: cfg.mc.dir_miss_penalty,
                    stage: VecDeque::new(),
                }),
            })
            .collect();
        Some(Sequencer {
            protocol: cfg.protocol,
            cores,
            next_slot: 0,
            ports,
            expiry_sent: 0,
        })
    }

    /// Takes an ordered request from tile `t`'s L2 outbox: LPD-D and HT-D
    /// send it to its home; TokenB and INSO stamp and broadcast it, or hold
    /// it ([`Sequencer::holds_request`]). Returns whether it left the L2.
    pub(crate) fn order(
        &mut self,
        t: usize,
        msg: CohMsg,
        now: Cycle,
        mesh: &Topology,
        nic: &mut Nic<CohMsg>,
        net: &mut Net,
    ) -> bool {
        let port = &mut self.ports[t];
        let slot = match self.protocol {
            Protocol::LpdDir | Protocol::HtDir => {
                let mut dir_msg = msg;
                dir_msg.kind = match msg.kind {
                    MsgKind::GetS => MsgKind::DirGetS,
                    MsgKind::GetX => MsgKind::DirGetX,
                    MsgKind::WbReq => MsgKind::DirPut,
                    other => panic!("unexpected ordered kind {other:?}"),
                };
                let home = home_tile(msg.addr, self.cores) as usize;
                if home == t {
                    // Local home: no network hop for the request.
                    self.intake(t, dir_msg, now);
                    return true;
                }
                let dest = mesh.tile_endpoint(home);
                return nic
                    .try_send_unicast(VnetId(0), dest, 1, dir_msg, net)
                    .is_ok();
            }
            Protocol::Inso { .. } => port.alloc.as_mut().expect("INSO tile").take_slot(now),
            Protocol::TokenB | Protocol::Scorpio => {
                self.next_slot += 1;
                self.next_slot - 1
            }
        };
        stamp(&mut port.reorder, &mut port.request, msg, slot, nic, net);
        true
    }

    /// Retries tile `t`'s held request; returns whether none is held now.
    pub(crate) fn retry_request(&mut self, t: usize, nic: &mut Nic<CohMsg>, net: &mut Net) -> bool {
        retry(&mut self.ports[t].request, nic, net)
    }

    pub(crate) fn holds_request(&self, t: usize) -> bool {
        self.ports[t].request.is_some()
    }

    /// Tile `t`'s own ordering work, after its L2 outbox: INSO expires an
    /// unused slot; a directory home stamps and broadcasts the requests
    /// whose directory access is done.
    pub(crate) fn tick(&mut self, t: usize, now: Cycle, nic: &mut Nic<CohMsg>, net: &mut Net) {
        let port = &mut self.ports[t];
        match self.protocol {
            Protocol::Inso { expiry_window } => {
                // A held expiry retries alone. None is sent while a request
                // waits to inject: its slot is taken and must stay in
                // sequence.
                if port.expiry.is_some() {
                    retry(&mut port.expiry, nic, net);
                    return;
                }
                // Pace expiry against consumption: racing more than a
                // couple of rounds ahead of what this node has released
                // floods the network with expiries faster than they can
                // deliver (livelock).
                let alloc = port.alloc.as_mut().expect("INSO tile");
                let lead_bound = 2 * self.cores as u64;
                if port.request.is_some()
                    || alloc.peek_next_slot() > port.reorder.next_slot() + lead_bound
                {
                    return;
                }
                if let Some(slot) = alloc.maybe_expire(now, expiry_window) {
                    let me = Endpoint::tile(RouterId(t as u16));
                    let msg = CohMsg::new(MsgKind::InsoExpire, LineAddr(0), t as u16, 0, me);
                    self.expiry_sent += 1;
                    stamp(&mut port.reorder, &mut port.expiry, msg, slot, nic, net);
                }
            }
            Protocol::LpdDir | Protocol::HtDir => {
                let home = port.home.as_mut().expect("directory tile");
                if !retry(&mut port.bcast, nic, net) {
                    return;
                }
                while let Some(mut msg) = home.pop_ready(now) {
                    // Back to the snoopy kind, stamped with the global slot.
                    msg.kind = match msg.kind {
                        MsgKind::DirGetS => MsgKind::GetS,
                        MsgKind::DirGetX => MsgKind::GetX,
                        MsgKind::DirPut => MsgKind::WbReq,
                        other => panic!("home ordered {other:?}"),
                    };
                    self.next_slot += 1;
                    let slot = self.next_slot - 1;
                    if !stamp(&mut port.reorder, &mut port.bcast, msg, slot, nic, net) {
                        break;
                    }
                }
            }
            Protocol::TokenB | Protocol::Scorpio => {}
        }
    }

    /// Takes a message the network delivered to endpoint `ep`: a request
    /// for the home here, or a slot's request or expiry.
    pub(crate) fn intake(&mut self, ep: usize, msg: CohMsg, now: Cycle) {
        let port = &mut self.ports[ep];
        match msg.kind {
            MsgKind::DirGetS | MsgKind::DirGetX | MsgKind::DirPut => {
                port.home.as_mut().expect("directory tile").accept(msg, now);
            }
            k if k == MsgKind::InsoExpire || k.is_ordered_request() => {
                file(&mut port.reorder, msg);
            }
            other => panic!("endpoint {ep} received {other:?}"),
        }
    }

    /// Releases endpoint `ep`'s next slot: `Some(Some(_))` for a request,
    /// `Some(None)` for an expired slot, `None` while it has not arrived.
    pub(crate) fn pop_ready(&mut self, ep: usize) -> Option<Option<CohMsg>> {
        self.ports[ep].reorder.pop_ready()
    }

    /// The sleep rule's ordering half for endpoint `ep` (DESIGN.md §9):
    /// cycle `next` while a latch holds a message or the reorder buffer's
    /// head is in, and always at an INSO tile, whose slot expiry is
    /// wall-clock driven; else when the home's stage front is done.
    pub(crate) fn wake(&self, ep: usize, next: Cycle) -> Option<Wake> {
        let port = &self.ports[ep];
        let polled = [
            (port.alloc.is_some(), "inso slot expiry"),
            (port.request.is_some(), "request to inject"),
            (port.expiry.is_some(), "expiry to inject"),
            (port.bcast.is_some(), "directory broadcast to inject"),
            (port.reorder.head_ready(), "reorder buffer head"),
        ];
        if let Some(&(_, why)) = polled.iter().find(|(due, _)| *due) {
            return Some(Wake::at(next, why));
        }
        // Ready cycles never decrease along the stage: the front's is the
        // earliest.
        let &(ready, _) = port.home.as_ref()?.stage.front()?;
        Some(Wake::at(ready.max(next), "directory access"))
    }

    pub(crate) fn tile_idle(&self, t: usize) -> bool {
        self.ports[t].is_idle()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.ports.iter().all(Port::is_idle)
    }

    /// Endpoint `ep`'s whole ordering state, for its digest.
    pub(crate) fn port(&self, ep: usize) -> &impl std::fmt::Debug {
        &self.ports[ep]
    }

    pub(crate) fn report(&self, r: &mut SystemReport) {
        r.expiry_messages = self.expiry_sent;
        for home in self.ports.iter().filter_map(|p| p.home.as_ref()) {
            r.dir_accesses += home.dir.hits() + home.dir.misses();
            r.dir_misses += home.dir.misses();
        }
    }

    /// One post-mortem line per endpoint.
    pub(crate) fn dump(&self, out: &mut String) {
        for (i, p) in self.ports.iter().enumerate() {
            let held = [p.request, p.expiry, p.bcast].map(|m| m.map(|m| m.value));
            out.push_str(&format!(
                "rb {i}: next_slot={} buffered={} held (request, expiry, bcast)={held:?} slots_used={:?}\n",
                p.reorder.next_slot(),
                p.reorder.buffered(),
                p.alloc.as_ref().map(InsoSlotAllocator::slots_used),
            ));
        }
    }
}

/// Files a slot-stamped request or expiry in `reorder`.
fn file(reorder: &mut InsoReorderBuffer<CohMsg>, msg: CohMsg) {
    let content = match msg.kind {
        MsgKind::InsoExpire => SlotContent::Expired,
        _ => SlotContent::Request(msg),
    };
    reorder.insert(msg.value, content);
}

/// The one stamping path: `msg` takes `slot`, is filed in the sender's own
/// reorder buffer (its broadcast skips the sender) and goes out on vnet 0,
/// or waits in `latch`. Returns whether it went out.
fn stamp(
    reorder: &mut InsoReorderBuffer<CohMsg>,
    latch: &mut Option<CohMsg>,
    msg: CohMsg,
    slot: u64,
    nic: &mut Nic<CohMsg>,
    net: &mut Net,
) -> bool {
    let msg = msg.with_value(slot);
    file(reorder, msg);
    *latch = Some(msg);
    retry(latch, nic, net)
}

/// Broadcasts the message held in `latch` on vnet 0, keeping it while the
/// NIC refuses. Returns whether the latch is empty.
fn retry(latch: &mut Option<CohMsg>, nic: &mut Nic<CohMsg>, net: &mut Net) -> bool {
    if let Some(msg) = latch.take() {
        if nic.try_send_broadcast(VnetId(0), msg, net).is_err() {
            *latch = Some(msg);
        }
    }
    latch.is_none()
}

/// One tile's slice of the distributed directory for the LPD-D / HT-D
/// baselines: a latency pipeline in front of the global sequencer. The
/// entry width (set by the protocol) determines how many lines the slice
/// caches, which is the paper's LPD-vs-HT distinction.
#[derive(Debug)]
struct DirHome {
    dir: DirectoryCache,
    latency: u64,
    miss_penalty: u64,
    stage: VecDeque<(Cycle, CohMsg)>,
}

impl DirHome {
    /// Accepts a request: the directory access starts now; the request is
    /// ready for ordering after the (hit- or miss-) latency.
    fn accept(&mut self, msg: CohMsg, now: Cycle) {
        let hit = self.dir.access(msg.addr);
        let lat = self.latency + if hit { 0 } else { self.miss_penalty };
        // Serialization at the home: a request cannot overtake the one in
        // front of it (the paper's "Req Ordering" component).
        let ready = self
            .stage
            .back()
            .map(|(r, _)| (*r).max(now) + self.latency)
            .unwrap_or(now + lat)
            .max(now + lat);
        self.stage.push_back((ready, msg));
    }

    fn pop_ready(&mut self, now: Cycle) -> Option<CohMsg> {
        if self.stage.front()?.0 > now {
            return None;
        }
        self.stage.pop_front().map(|(_, msg)| msg)
    }
}
