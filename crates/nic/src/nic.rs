//! The network interface controller (Figure 4).
//!
//! The NIC sits between a cache controller (or memory controller) and the
//! two networks. On the send path it packetises coherence messages, steers
//! each ordered request onto its address's main-network plane, counts
//! pending notifications per plane (blocking new ordered requests past the
//! limit, Table 1: max 4) and announces them at time-window boundaries. On
//! the receive path it consumes unordered responses freely, but releases
//! ordered requests to the controller only in the per-plane global order
//! determined by the notification trackers — including the NIC's *own*
//! requests, which self-deliver through per-plane loopback queues rather
//! than traversing the mesh. Because the steering function assigns every
//! address to exactly one plane, the per-plane orders compose into a
//! per-address total order, which is all snoopy coherence requires.

use crate::tracker::NotificationTracker;
use scorpio_noc::{
    set_bits, Endpoint, MultiNetwork, Network, NocConfig, Packet, Payload, Sid, SteerKey, VnetId,
};
use scorpio_notify::NotifyNetwork;
use scorpio_sim::stats::{Accumulator, Counter};
use scorpio_sim::{Cycle, Fifo, Wake};

/// NIC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicConfig {
    /// Maximum notifications awaiting announcement (per plane) before the
    /// NIC blocks new ordered requests onto that plane (Table 1: 4).
    pub max_pending_notifications: u8,
    /// Notification tracker queue depth (windows).
    pub tracker_depth: usize,
    /// Pipelined receive path (Figure 10's "PL" configuration). When
    /// false, each consumed flit occupies the NIC for [`NicConfig::latency`]
    /// cycles.
    pub pipelined: bool,
    /// Processing occupancy per consumed flit when not pipelined.
    pub latency: u64,
    /// Depth of the ordered-delivery queue toward the cache controller.
    pub ordered_queue_depth: usize,
    /// Depth of the unordered packet-delivery queue.
    pub packet_queue_depth: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            max_pending_notifications: 4,
            tracker_depth: 8,
            pipelined: true,
            latency: 2,
            ordered_queue_depth: 4,
            packet_queue_depth: 8,
        }
    }
}

/// Whether this NIC enforces SCORPIO global ordering or passes every packet
/// through unordered (the baseline protocols).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicMode {
    /// SCORPIO: GO-REQ deliveries gated by the per-plane ESID streams.
    Ordered,
    /// Baselines: every packet delivered as it arrives.
    Unordered,
}

/// An ordered coherence request released to the cache controller.
#[derive(Debug, Clone, Copy)]
pub struct OrderedDelivery<T> {
    /// The global-order source of the request.
    pub sid: Sid,
    /// The coherence message.
    pub payload: T,
    /// True when this is the NIC's own request (loopback self-delivery).
    pub own: bool,
    /// Cycle the request entered its source NIC.
    pub inject_cycle: Cycle,
    /// Cycle this NIC could first have seen it (arrival at the ejection
    /// buffers; equals delivery cycle for loopback).
    pub first_seen: Cycle,
}

/// Error returned when the NIC cannot accept an ordered request this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The pending-notification counter is at its limit.
    NotificationLimit,
    /// The injection queue into the main network is full.
    NetworkFull,
    /// This NIC cannot send ordered requests (no SID / unordered mode).
    NotACore,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SendError::NotificationLimit => "pending notification limit reached",
            SendError::NetworkFull => "network injection queue full",
            SendError::NotACore => "this NIC cannot send ordered requests",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SendError {}

/// NIC statistics.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Ordered requests injected.
    pub requests_sent: Counter,
    /// Unordered packets injected.
    pub responses_sent: Counter,
    /// Ordered requests delivered to the controller.
    pub ordered_delivered: Counter,
    /// Unordered packets delivered to the controller.
    pub packets_delivered: Counter,
    /// Cycles an ordered request waited at this NIC for its turn.
    pub ordering_wait: Accumulator,
    /// End-to-end latency of delivered ordered requests (inject → deliver).
    pub ordered_latency: Accumulator,
    /// Plane word groups ignored because someone asserted stop.
    pub stop_windows: Counter,
    /// Announcements that had to be re-sent after a stop window.
    pub notif_resends: Counter,
}

/// What the NIC remembers about one plane's ejection VCs between ticks,
/// indexed by flat VC. A VC is a FIFO, so its head stays its head until the
/// NIC takes it: state keyed by the VC is state keyed by the head flit.
#[derive(Debug, Clone, Default)]
struct EjectTable {
    /// Ordered VCs whose current head has its first-seen stamp.
    stamped: u32,
    /// The cycle each stamped head was first seen waiting.
    seen_at: [Cycle; NocConfig::MAX_VCS_PER_PORT],
    /// Flits received of the packet each VC is reassembling.
    partial: [u8; NocConfig::MAX_VCS_PER_PORT],
}

/// The network interface controller for one endpoint.
///
/// Every per-plane structure below is a `Vec` indexed by plane; with one
/// plane (the chip configuration) each collapses to the single-network
/// NIC, byte-for-byte.
pub struct Nic<T> {
    ep: Endpoint,
    /// `ep`'s dense index in the main network, resolved on the first tick.
    ep_idx: Option<usize>,
    sid: Option<Sid>,
    mode: NicMode,
    cfg: NicConfig,
    planes: usize,
    /// One tracker per plane, each expanding its own plane's word group.
    tracker: Vec<NotificationTracker>,
    /// Requests injected but not yet announced, per plane.
    unsent: Vec<u8>,
    /// Requests announced in the window currently in flight, per plane.
    announced: Vec<u8>,
    last_window: Option<u64>,
    /// Loopback self-delivery queues, per plane.
    own_queue: Vec<Fifo<(T, Cycle, u64)>>,
    ordered_out: Fifo<OrderedDelivery<T>>,
    packet_out: Fifo<Packet<T>>,
    /// Receive-side bookkeeping per plane.
    eject: Vec<EjectTable>,
    /// Per-plane, per-source count of ordered requests this NIC has
    /// delivered; the expected instance on plane `p` is always
    /// (ESID, delivered[p][ESID]).
    delivered_seq: Vec<Vec<u16>>,
    /// Per-plane count of own requests sent (assigns sid_seq).
    sent_seq: Vec<u16>,
    published_esid: Vec<Option<(Sid, u16)>>,
    published_any: Vec<bool>,
    busy_until: Cycle,
    /// Public statistics.
    pub stats: NicStats,
}

impl<T: Payload + SteerKey> Nic<T> {
    /// Creates a NIC for endpoint `ep` attached to a `planes`-plane main
    /// network.
    ///
    /// `sid` is `Some` for tile NICs that issue ordered requests and `None`
    /// for memory-controller NICs (which observe the order but never
    /// inject into it). `cores` sizes the notification trackers.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero.
    pub fn new(
        ep: Endpoint,
        sid: Option<Sid>,
        mode: NicMode,
        cores: usize,
        planes: usize,
        cfg: NicConfig,
    ) -> Self {
        assert!(planes > 0, "a NIC needs at least one plane");
        Nic {
            ep,
            ep_idx: None,
            sid,
            mode,
            planes,
            tracker: (0..planes)
                .map(|p| NotificationTracker::new(cores, cfg.tracker_depth, p))
                .collect(),
            unsent: vec![0; planes],
            announced: vec![0; planes],
            last_window: None,
            own_queue: (0..planes).map(|_| Fifo::bounded(64)).collect(),
            delivered_seq: vec![vec![0; cores]; planes],
            sent_seq: vec![0; planes],
            ordered_out: Fifo::bounded(cfg.ordered_queue_depth),
            packet_out: Fifo::bounded(cfg.packet_queue_depth),
            eject: vec![EjectTable::default(); planes],
            published_esid: vec![None; planes],
            published_any: vec![false; planes],
            busy_until: Cycle::ZERO,
            cfg,
            stats: NicStats::default(),
        }
    }

    /// The endpoint this NIC serves.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// The SID currently expected in plane `plane`'s global order.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn current_esid(&self, plane: usize) -> Option<Sid> {
        self.tracker[plane].current_esid()
    }

    /// Ordered requests (current + queued windows, all planes) still to be
    /// delivered.
    pub fn ordering_backlog(&self) -> usize {
        self.tracker.iter().map(NotificationTracker::backlog).sum()
    }

    /// Internal counters for diagnostics: summed (unsent, announced) over
    /// planes, and the last window processed.
    #[doc(hidden)]
    pub fn debug_counters(&self) -> (u32, u32, Option<u64>) {
        (
            self.unsent.iter().map(|&u| u as u32).sum(),
            self.announced.iter().map(|&a| a as u32).sum(),
            self.last_window,
        )
    }

    /// Whether ticking this NIC is a no-op until something external
    /// happens, flits in its ejection buffers aside: nothing awaiting
    /// announcement or re-announcement on any plane, no loopback
    /// self-delivery pending, empty delivery queues toward the controller,
    /// and no stop bit due at the next window start. A coarser, always
    /// conservative form of [`Nic::next_wake`] (which the system sleeps
    /// on), kept for callers that poll a NIC standalone.
    pub fn can_sleep(&self) -> bool {
        self.announced.iter().all(|&a| a == 0) && self.can_sleep_leap()
    }

    /// [`Nic::can_sleep`] minus the outstanding-announcement term: a NIC
    /// whose only obligation is an announcement in flight may sleep too,
    /// because the window carrying it is non-empty by construction and a
    /// non-empty window's publication wakes every endpoint.
    pub fn can_sleep_leap(&self) -> bool {
        self.unsent.iter().all(|&u| u == 0)
            && self.own_queue.iter().all(Fifo::is_empty)
            && self.ordered_out.is_empty()
            && self.packet_out.is_empty()
            && !self.tracker.iter().any(NotificationTracker::should_stop)
    }

    /// When this NIC's next tick can first change its state, asked after
    /// its tick at `now` (pass the notification network exactly as to
    /// [`Nic::tick`]). *Next cycle* while a delivery queue holds anything,
    /// an unordered flit waits, a plane expects this NIC's own request (it
    /// polls the injection port) or an ordered head is either the expected
    /// one or not yet first-seen-stamped while a scan would run; *the next
    /// window start* when there is something to announce there; otherwise
    /// an event — flit arrivals and non-empty windows wake the endpoint.
    pub fn next_wake(
        &self,
        now: Cycle,
        net: &MultiNetwork<T>,
        notify: Option<&NotifyNetwork>,
    ) -> Wake {
        let next = now.next();
        if !self.ordered_out.is_empty() || !self.packet_out.is_empty() {
            return Wake::at(next, "nic delivery queue");
        }
        let idx = self.index_in(net);
        let mut waiting = false;
        for p in 0..self.planes {
            let net = net.plane(p);
            let vcs = net.eject_vcs(idx);
            let heads = match self.mode {
                NicMode::Ordered => vcs & net.ordered_vcs(),
                NicMode::Unordered => 0,
            };
            if vcs != heads {
                return Wake::at(next, "unordered flit");
            }
            if let Some(esid) = self.tracker[p].current_esid() {
                if Some(esid) == self.sid {
                    return Wake::at(next, "own request expected");
                }
                if heads & !self.eject[p].stamped != 0 {
                    return Wake::at(next, "ordered head to stamp");
                }
                if expected_vc(net, idx, heads, esid).is_some() {
                    return Wake::at(next, "expected request present");
                }
            }
            waiting |= heads != 0;
        }
        let announces = self.unsent.iter().any(|&u| u != 0)
            || self.tracker.iter().any(NotificationTracker::should_stop);
        if let (Some(n), Some(_), true) = (notify, self.sid, announces) {
            let w = n.config().window;
            let start = Cycle::new((now.as_u64() / w + 1) * w);
            return Wake::at(start, "announcement at window start");
        }
        Wake::event(if self.announced.iter().any(|&a| a != 0) {
            "window publish"
        } else if waiting {
            "expected request flit"
        } else {
            "flit or window"
        })
    }

    /// `ep`'s dense index in `net` (cached from the first tick on).
    fn index_in(&self, net: &MultiNetwork<T>) -> usize {
        self.ep_idx.unwrap_or_else(|| net.endpoint_index(self.ep))
    }

    /// Injects an ordered coherence request (broadcast + later
    /// notification) onto the plane its payload's [`SteerKey`] selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NotACore`] if this NIC has no SID or is unordered;
    /// [`SendError::NotificationLimit`] when the plane's pending counter is
    /// at its limit; [`SendError::NetworkFull`] when the plane's injection
    /// queue is full.
    pub fn try_send_request(
        &mut self,
        payload: T,
        now: Cycle,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        let sid = match (self.mode, self.sid) {
            (NicMode::Ordered, Some(sid)) => sid,
            _ => return Err(SendError::NotACore),
        };
        let plane = net.plane_of(payload.steer_key());
        if self.unsent[plane] + self.announced[plane] >= self.cfg.max_pending_notifications
            || self.own_queue[plane].is_full()
        {
            return Err(SendError::NotificationLimit);
        }
        let seq = self.sent_seq[plane];
        let (steered, uid) = net
            .try_inject(self.ep, Packet::request(self.ep, sid, seq, payload))
            .map_err(|_| SendError::NetworkFull)?;
        debug_assert_eq!(steered, plane, "steering function disagreed with itself");
        self.sent_seq[plane] = self.sent_seq[plane].wrapping_add(1);
        self.own_queue[plane]
            .push((payload, now, uid))
            .expect("own queue capacity checked above");
        self.unsent[plane] += 1;
        self.stats.requests_sent.incr();
        Ok(())
    }

    /// Injects a unicast packet (response, directory request/forward, ...)
    /// on the plane its payload's address selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NetworkFull`] when the per-vnet injection queue is full.
    pub fn try_send_unicast(
        &mut self,
        vnet: VnetId,
        dest: Endpoint,
        len_flits: u8,
        payload: T,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        net.try_inject(
            self.ep,
            Packet::unicast(vnet, self.ep, dest, len_flits, payload),
        )
        .map_err(|_| SendError::NetworkFull)?;
        self.stats.responses_sent.incr();
        Ok(())
    }

    /// Injects an unordered broadcast (TokenB / INSO baselines) on the
    /// plane its payload's address selects.
    ///
    /// # Errors
    ///
    /// [`SendError::NetworkFull`] when the injection queue is full.
    pub fn try_send_broadcast(
        &mut self,
        vnet: VnetId,
        payload: T,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        net.try_inject(self.ep, Packet::broadcast_unordered(vnet, self.ep, payload))
            .map_err(|_| SendError::NetworkFull)?;
        self.stats.responses_sent.incr();
        Ok(())
    }

    /// Takes the next globally ordered request, if one is ready.
    pub fn pop_ordered(&mut self) -> Option<OrderedDelivery<T>> {
        self.ordered_out.pop()
    }

    /// Takes the next fully reassembled unordered packet, if any.
    pub fn pop_packet(&mut self) -> Option<Packet<T>> {
        self.packet_out.pop()
    }

    /// One cycle. Call before the networks tick, every cycle, passing the
    /// notification network only for ordered-mode NICs.
    pub fn tick(
        &mut self,
        now: Cycle,
        net: &mut MultiNetwork<T>,
        notify: Option<&mut NotifyNetwork>,
    ) {
        self.ep_idx = Some(self.index_in(net));
        if self.mode == NicMode::Ordered {
            if let Some(notify) = notify {
                self.process_completed_window(notify);
                self.announce(now, notify);
            }
        }
        self.receive(now, net);
        self.publish_esid(net);
    }

    /// Handles the merged message of a window that just completed: each
    /// plane's word group is processed independently, so one plane's stop
    /// bit never stalls the others.
    fn process_completed_window(&mut self, notify: &NotifyNetwork) {
        let Some((w, msg)) = notify.latest() else {
            return;
        };
        if self.last_window == Some(w) {
            return;
        }
        self.last_window = Some(w);
        for p in 0..self.planes {
            if msg.stop(p) {
                // Everyone ignores this plane's word group; our
                // announcement (if any) must be re-sent.
                self.stats.stop_windows.incr();
                if self.announced[p] > 0 {
                    self.stats.notif_resends.incr();
                    self.unsent[p] += self.announced[p];
                }
                self.announced[p] = 0;
                continue;
            }
            self.announced[p] = 0;
            self.tracker[p].push_window(msg);
        }
    }

    /// At window starts, announce pending requests per plane (and the stop
    /// bit when a plane's tracker is near-full).
    fn announce(&mut self, now: Cycle, notify: &mut NotifyNetwork) {
        if !notify.is_window_start(now) {
            return;
        }
        let Some(sid) = self.sid else {
            // MC NICs observe but never announce.
            return;
        };
        let max = (1u16 << notify.config().bits_per_core) as u8 - 1;
        for p in 0..self.planes {
            let stop = self.tracker[p].should_stop();
            let count = self.unsent[p].min(max);
            if count > 0 || stop {
                notify.stage_injection(p, sid.index(), count, stop);
                self.unsent[p] -= count;
                self.announced[p] = count;
            }
        }
    }

    /// Receive path: per plane, one ordered consume plus one unordered
    /// flit per cycle — each plane has its own ejection port, so receive
    /// bandwidth scales with the plane count exactly as the replicated
    /// hardware's would.
    fn receive(&mut self, now: Cycle, net: &mut MultiNetwork<T>) {
        if !self.cfg.pipelined && now < self.busy_until {
            return;
        }
        let mut consumed = false;
        match self.mode {
            NicMode::Ordered => {
                // One ordered consume + one unordered flit per plane per
                // cycle (separate ACE channels toward the L2).
                for p in 0..self.planes {
                    consumed |= self.receive_ordered(p, now, net);
                }
                for p in 0..self.planes {
                    consumed |= self.receive_any_class(p, net, false);
                }
            }
            NicMode::Unordered => {
                // Same aggregate bandwidth: two flits from any class per
                // plane.
                for p in 0..self.planes {
                    consumed |= self.receive_any_class(p, net, true);
                    consumed |= self.receive_any_class(p, net, true);
                }
            }
        }
        if consumed && !self.cfg.pipelined {
            self.busy_until = now + self.cfg.latency;
        }
    }

    /// Consumes plane `plane`'s expected ordered request if present
    /// (network or loopback). Returns whether something was consumed.
    fn receive_ordered(&mut self, plane: usize, now: Cycle, net: &mut MultiNetwork<T>) -> bool {
        let Some(esid) = self.tracker[plane].current_esid() else {
            return false;
        };
        if self.ordered_out.is_full() {
            return false;
        }
        let idx = self.index_in(net);
        if Some(esid) == self.sid {
            // Own request: self-delivery through the loopback path — but
            // only once the broadcast copy has left the injection queue.
            // Consuming earlier would advance our ESID past our own SID
            // while the flit is not yet in the network, breaking the
            // reserved-VC deadlock-freedom invariant.
            let &(_, _, uid) = self.own_queue[plane]
                .front()
                .expect("own request announced but missing from loopback queue");
            if net.plane(plane).inject_pending(idx, uid) {
                return false;
            }
            let (payload, inject_cycle, _) = self.own_queue[plane].pop().expect("checked above");
            self.delivered_seq[plane][esid.index()] =
                self.delivered_seq[plane][esid.index()].wrapping_add(1);
            self.deliver_ordered(OrderedDelivery {
                sid: esid,
                payload,
                own: true,
                inject_cycle,
                first_seen: now,
            });
            self.tracker[plane].advance();
            return true;
        }
        // Stamp every ordered head not seen before, then find the expected
        // request among them (lowest VC first).
        let net = net.plane_mut(plane);
        let heads = net.eject_vcs(idx) & net.ordered_vcs();
        let table = &mut self.eject[plane];
        for vc in set_bits(heads & !table.stamped) {
            table.seen_at[vc] = now;
        }
        table.stamped |= heads;
        let Some(vc) = expected_vc(net, idx, heads, esid) else {
            return false;
        };
        let flit = net.eject_take_vc(idx, vc).expect("head flit vanished");
        table.stamped &= !(1 << vc);
        let first_seen = table.seen_at[vc];
        debug_assert_eq!(
            flit.packet.sid_seq,
            self.delivered_seq[plane][esid.index()],
            "point-to-point ordering violated: wrong request instance"
        );
        self.delivered_seq[plane][esid.index()] =
            self.delivered_seq[plane][esid.index()].wrapping_add(1);
        self.stats.ordering_wait.record(now - first_seen);
        self.deliver_ordered(OrderedDelivery {
            sid: esid,
            payload: flit.packet.payload,
            own: false,
            inject_cycle: flit.packet.inject_cycle,
            first_seen,
        });
        self.tracker[plane].advance();
        true
    }

    fn deliver_ordered(&mut self, d: OrderedDelivery<T>) {
        let lat = d.first_seen.max(d.inject_cycle) - d.inject_cycle;
        self.stats.ordered_latency.record(lat);
        self.stats.ordered_delivered.incr();
        self.ordered_out
            .push(d)
            .expect("ordered_out fullness checked by caller");
    }

    /// Consumes one flit from plane `plane` into the packet queue. Ordered
    /// vnets are included only when `include_ordered` is set (baseline
    /// mode, where no global ordering applies).
    fn receive_any_class(
        &mut self,
        plane: usize,
        net: &mut MultiNetwork<T>,
        include_ordered: bool,
    ) -> bool {
        if self.packet_out.is_full() {
            return false;
        }
        let idx = self.index_in(net);
        let net = net.plane_mut(plane);
        let mut vcs = net.eject_vcs(idx);
        if !include_ordered {
            vcs &= !net.ordered_vcs();
        }
        if vcs == 0 {
            return false;
        }
        let vc = vcs.trailing_zeros() as usize;
        let flit = net.eject_take_vc(idx, vc).expect("head flit vanished");
        let got = &mut self.eject[plane].partial[vc];
        debug_assert_eq!(*got, flit.idx, "flit reassembly out of order");
        *got += 1;
        if flit.is_tail() {
            *got = 0;
            self.stats.packets_delivered.incr();
            self.packet_out
                .push(flit.packet)
                .expect("packet_out fullness checked above");
        }
        true
    }

    /// Publishes each plane's expected request instance (SID + per-source
    /// sequence number) to that plane for rVC policing.
    fn publish_esid(&mut self, net: &mut MultiNetwork<T>) {
        for p in 0..self.planes {
            let esid = match self.mode {
                NicMode::Ordered => self.tracker[p]
                    .current_esid()
                    .map(|sid| (sid, self.delivered_seq[p][sid.index()])),
                NicMode::Unordered => None,
            };
            if !self.published_any[p] || esid != self.published_esid[p] {
                net.set_esid(p, self.ep, esid);
                self.published_esid[p] = esid;
                self.published_any[p] = true;
            }
        }
    }
}

/// The lowest of endpoint `idx`'s ejection VCs `heads` whose head flit is
/// the request from `esid`, if it has arrived.
fn expected_vc<T: Payload>(net: &Network<T>, idx: usize, heads: u32, esid: Sid) -> Option<usize> {
    set_bits(heads).find(|&vc| {
        net.eject_head(idx, vc)
            .is_some_and(|f| f.packet.sid == Some(esid))
    })
}

/// One expected SID and one unsent count per plane, so a multi-plane
/// post-mortem shows every plane's expectation.
impl<T: Payload> std::fmt::Debug for Nic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let esid: Vec<Option<Sid>> = self
            .tracker
            .iter()
            .map(NotificationTracker::current_esid)
            .collect();
        f.debug_struct("Nic")
            .field("ep", &self.ep)
            .field("sid", &self.sid)
            .field("mode", &self.mode)
            .field("planes", &self.planes)
            .field("esid", &esid)
            .field("unsent", &self.unsent)
            .finish()
    }
}

/// Support the sleep-soundness tests share; not part of the NIC's
/// interface.
#[doc(hidden)]
pub mod testing {
    use super::Nic;
    use scorpio_noc::Payload;

    /// Digest of everything a tick of `nic` can change. `last_window` is
    /// left out: a sleeping NIC observes empty windows late or never, and
    /// nothing reads the field back.
    pub fn state_digest<T: Payload>(nic: &Nic<T>) -> u64 {
        scorpio_sim::testing::debug_digest(&(
            (&nic.tracker, &nic.unsent, &nic.announced, &nic.own_queue),
            (&nic.ordered_out, &nic.packet_out, &nic.eject),
            (&nic.delivered_seq, &nic.sent_seq, &nic.published_esid),
            (nic.busy_until, &nic.stats),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_noc::RouterId;
    use scorpio_notify::NotifyMsg;

    /// A hang on plane 1 must be visible in the NIC's debug text, not only
    /// plane 0's expectation.
    #[test]
    fn debug_shows_every_planes_expectation() {
        let ep = Endpoint::tile(RouterId(0));
        let mut nic: Nic<u32> = Nic::new(
            ep,
            Some(Sid(0)),
            NicMode::Ordered,
            4,
            2,
            NicConfig::default(),
        );
        let mut window = NotifyMsg::new(4, 1, 2);
        window.set_count(1, 3, 1);
        nic.tracker[1].push_window(&window);
        assert_eq!(nic.current_esid(0), None);
        assert_eq!(nic.current_esid(1), Some(Sid(3)));
        let text = format!("{nic:?}");
        assert!(text.contains("esid: [None, Some(Sid(3))]"), "{text}");
    }
}
