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
//! than traversing the mesh (a baseline NIC keeps none of this state).
//! Because the steering function assigns every address to exactly one
//! plane, the per-plane orders compose into a per-address total order,
//! which is all snoopy coherence requires.

use crate::tracker::NotificationTracker;
use scorpio_noc::{
    set_bits, Endpoint, MultiNetwork, Network, NocConfig, Packet, Payload, Sid, SteerKey, VnetId,
};
use scorpio_notify::NotifyNetwork;
use scorpio_sim::{Cycle, Fifo, Wake};
use std::collections::VecDeque;

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
    /// Plane word groups ignored because someone asserted stop.
    pub stop_windows: u64,
}

/// Own requests one plane's loopback path holds. A full path refuses new
/// ordered requests onto that plane with [`SendError::NotificationLimit`].
const LOOPBACK_DEPTH: usize = 64;

/// Everything SCORPIO's global ordering keeps for one main-network plane
/// (Figure 4): the notification tracker, the pending-notification budget,
/// the loopback path and the ESID register.
#[derive(Debug)]
struct PlaneOrder<T> {
    /// Expands this plane's word group of every window.
    tracker: NotificationTracker,
    /// Requests injected but not yet announced.
    unsent: u8,
    /// Requests announced in the window currently in flight.
    announced: u8,
    /// Loopback self-delivery: each own request and its packet uid.
    own: VecDeque<(T, u64)>,
    /// Per-source count of ordered requests delivered; the expected
    /// instance is always (ESID, `delivered[ESID]`).
    delivered: Vec<u16>,
    /// Own requests sent (assigns `sid_seq`).
    sent: u16,
    /// The ESID last published to the plane; `None` before the first.
    published: Option<Option<(Sid, u16)>>,
}

/// The network interface controller for one endpoint.
///
/// An ordering (SCORPIO) NIC keeps one ordering record per plane; a
/// baseline NIC keeps none and passes every packet through. With one plane
/// (the chip configuration) each collapses to the single-network NIC,
/// byte-for-byte.
pub struct Nic<T> {
    ep: Endpoint,
    /// `ep`'s dense index in the main network, resolved on the first tick.
    ep_idx: Option<usize>,
    sid: Option<Sid>,
    cfg: NicConfig,
    /// Per plane, the flits received of the packet each ejection VC (by
    /// flat VC) is reassembling.
    partial: Vec<[u8; NocConfig::MAX_VCS_PER_PORT]>,
    /// The ordering record of each plane; empty on a baseline NIC.
    order: Vec<PlaneOrder<T>>,
    last_window: Option<u64>,
    ordered_out: Fifo<OrderedDelivery<T>>,
    packet_out: Fifo<Packet<T>>,
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
    /// inject into it). `cores` sizes the notification trackers, which
    /// only a [`NicMode::Ordered`] NIC builds.
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
        let order = match mode {
            NicMode::Ordered => (0..planes)
                .map(|p| PlaneOrder {
                    tracker: NotificationTracker::new(cores, cfg.tracker_depth, p),
                    unsent: 0,
                    announced: 0,
                    own: VecDeque::new(),
                    delivered: vec![0; cores],
                    sent: 0,
                    published: None,
                })
                .collect(),
            NicMode::Unordered => Vec::new(),
        };
        Nic {
            ep,
            ep_idx: None,
            sid,
            partial: vec![[0; NocConfig::MAX_VCS_PER_PORT]; planes],
            order,
            last_window: None,
            ordered_out: Fifo::bounded(cfg.ordered_queue_depth),
            packet_out: Fifo::bounded(cfg.packet_queue_depth),
            busy_until: Cycle::ZERO,
            cfg,
            stats: NicStats::default(),
        }
    }

    /// The endpoint this NIC serves.
    pub fn endpoint(&self) -> Endpoint {
        self.ep
    }

    /// The SID currently expected in plane `plane`'s global order; `None`
    /// on a baseline NIC, which keeps no order.
    pub fn current_esid(&self, plane: usize) -> Option<Sid> {
        self.order.get(plane)?.tracker.current_esid()
    }

    /// Ordered requests (current + queued windows, all planes) still to be
    /// delivered.
    pub fn ordering_backlog(&self) -> usize {
        self.order.iter().map(|o| o.tracker.backlog()).sum()
    }

    /// Whether ticking this NIC is a no-op until something external
    /// happens, flits in its ejection buffers aside: nothing awaiting
    /// announcement or re-announcement on any plane, no loopback
    /// self-delivery pending, empty delivery queues toward the controller,
    /// and no stop bit due at the next window start. A coarser, always
    /// conservative form of [`Nic::next_wake`] (which the system sleeps
    /// on), kept for callers that poll a NIC standalone.
    pub fn can_sleep(&self) -> bool {
        self.order.iter().all(|o| o.announced == 0) && self.can_sleep_leap()
    }

    /// [`Nic::can_sleep`] minus the outstanding-announcement term: a NIC
    /// whose only obligation is an announcement in flight may sleep too,
    /// because the window carrying it is non-empty by construction and a
    /// non-empty window's publication wakes every endpoint.
    pub fn can_sleep_leap(&self) -> bool {
        self.order
            .iter()
            .all(|o| o.unsent == 0 && o.own.is_empty() && !o.tracker.should_stop())
            && self.ordered_out.is_empty()
            && self.packet_out.is_empty()
    }

    /// When this NIC's next tick can first change its state, asked after
    /// its tick at `now` (pass the notification network exactly as to
    /// [`Nic::tick`]). *Next cycle* while a delivery queue holds anything,
    /// an unordered flit waits, a plane expects this NIC's own request (it
    /// polls the injection port) or the expected ordered request heads an
    /// ejection VC; *the next window start* when there is something to
    /// announce there; otherwise an event — flit arrivals and non-empty
    /// windows wake the endpoint.
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
        if self.order.is_empty() && net.eject_occupied(idx) {
            return Wake::at(next, "unordered flit");
        }
        let mut waiting = false;
        for (p, o) in self.order.iter().enumerate() {
            let net = net.plane(p);
            let vcs = net.eject_vcs(idx);
            let heads = vcs & net.ordered_vcs();
            if vcs != heads {
                return Wake::at(next, "unordered flit");
            }
            if let Some(esid) = o.tracker.current_esid() {
                if Some(esid) == self.sid {
                    return Wake::at(next, "own request expected");
                }
                if expected_vc(net, idx, heads, esid).is_some() {
                    return Wake::at(next, "expected request present");
                }
            }
            waiting |= heads != 0;
        }
        let announces = self
            .order
            .iter()
            .any(|o| o.unsent != 0 || o.tracker.should_stop());
        if let (Some(n), Some(_), true) = (notify, self.sid, announces) {
            let w = n.config().window;
            let start = Cycle::new((now.as_u64() / w + 1) * w);
            return Wake::at(start, "announcement at window start");
        }
        Wake::event(if self.order.iter().any(|o| o.announced != 0) {
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
    /// [`SendError::NotACore`] if this NIC has no SID or keeps no order;
    /// [`SendError::NotificationLimit`] when the plane's pending counter is
    /// at its limit or its loopback path is full;
    /// [`SendError::NetworkFull`] when the plane's injection queue is
    /// full. `_now` is unused: the network stamps the injection cycle.
    pub fn try_send_request(
        &mut self,
        payload: T,
        _now: Cycle,
        net: &mut MultiNetwork<T>,
    ) -> Result<(), SendError> {
        let plane = net.plane_of(payload.steer_key());
        let (Some(sid), Some(o)) = (self.sid, self.order.get_mut(plane)) else {
            return Err(SendError::NotACore);
        };
        if o.unsent + o.announced >= self.cfg.max_pending_notifications
            || o.own.len() >= LOOPBACK_DEPTH
        {
            return Err(SendError::NotificationLimit);
        }
        let (steered, uid) = net
            .try_inject(self.ep, Packet::request(self.ep, sid, o.sent, payload))
            .map_err(|_| SendError::NetworkFull)?;
        debug_assert_eq!(steered, plane, "steering function disagreed with itself");
        o.sent = o.sent.wrapping_add(1);
        o.own.push_back((payload, uid));
        o.unsent += 1;
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
    /// notification network only for ordering NICs.
    pub fn tick(
        &mut self,
        now: Cycle,
        net: &mut MultiNetwork<T>,
        notify: Option<&mut NotifyNetwork>,
    ) {
        self.ep_idx = Some(self.index_in(net));
        if let Some(notify) = notify {
            self.process_completed_window(notify);
            self.announce(now, notify);
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
        for (p, o) in self.order.iter_mut().enumerate() {
            if msg.stop(p) {
                // Everyone ignores this plane's word group; our
                // announcement (if any) must be re-sent.
                self.stats.stop_windows += 1;
                o.unsent += o.announced;
                o.announced = 0;
                continue;
            }
            o.announced = 0;
            o.tracker.push_window(msg);
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
        for (p, o) in self.order.iter_mut().enumerate() {
            let stop = o.tracker.should_stop();
            let count = o.unsent.min(max);
            if count > 0 || stop {
                notify.stage_injection(p, sid.index(), count, stop);
                o.unsent -= count;
                o.announced = count;
            }
        }
    }

    /// Receive path: each plane has its own ejection port, so receive
    /// bandwidth scales with the plane count exactly as the replicated
    /// hardware's would.
    fn receive(&mut self, now: Cycle, net: &mut MultiNetwork<T>) {
        if !self.cfg.pipelined && now < self.busy_until {
            return;
        }
        let mut consumed = false;
        let planes = self.partial.len();
        if self.order.is_empty() {
            // Baselines: two flits from any class per plane.
            for p in 0..planes {
                consumed |= self.receive_any_class(p, net);
                consumed |= self.receive_any_class(p, net);
            }
        } else {
            // Same aggregate bandwidth: one ordered consume + one unordered
            // flit per plane (separate ACE channels toward the L2).
            for p in 0..planes {
                consumed |= self.receive_ordered(p, net);
            }
            for p in 0..planes {
                consumed |= self.receive_any_class(p, net);
            }
        }
        if consumed && !self.cfg.pipelined {
            self.busy_until = now + self.cfg.latency;
        }
    }

    /// Consumes plane `plane`'s expected ordered request if present
    /// (network or loopback). Returns whether something was consumed.
    fn receive_ordered(&mut self, plane: usize, net: &mut MultiNetwork<T>) -> bool {
        let idx = self.index_in(net);
        let o = &mut self.order[plane];
        let Some(esid) = o.tracker.current_esid() else {
            return false;
        };
        if self.ordered_out.is_full() {
            return false;
        }
        let own = Some(esid) == self.sid;
        let payload = if own {
            // Own request: self-delivery through the loopback path — but
            // only once the broadcast copy has left the injection queue.
            // Consuming earlier would advance our ESID past our own SID
            // while the flit is not yet in the network, breaking the
            // reserved-VC deadlock-freedom invariant.
            let &(_, uid) = o
                .own
                .front()
                .expect("own request announced but missing from loopback queue");
            if net.plane(plane).inject_pending(idx, uid) {
                return false;
            }
            o.own.pop_front().expect("checked above").0
        } else {
            // The expected request among the ordered heads (lowest VC first).
            let net = net.plane_mut(plane);
            let heads = net.eject_vcs(idx) & net.ordered_vcs();
            let Some(vc) = expected_vc(net, idx, heads, esid) else {
                return false;
            };
            let flit = net.eject_take_vc(idx, vc).expect("head flit vanished");
            debug_assert_eq!(
                flit.packet.sid_seq,
                o.delivered[esid.index()],
                "point-to-point ordering violated: wrong request instance"
            );
            flit.packet.payload
        };
        o.delivered[esid.index()] = o.delivered[esid.index()].wrapping_add(1);
        o.tracker.advance();
        self.ordered_out
            .push(OrderedDelivery {
                sid: esid,
                payload,
                own,
            })
            .expect("ordered_out fullness checked above");
        true
    }

    /// Consumes one flit from plane `plane` into the packet queue. Flits
    /// awaiting the global order are left alone on an ordering NIC; a
    /// baseline NIC takes every class.
    fn receive_any_class(&mut self, plane: usize, net: &mut MultiNetwork<T>) -> bool {
        if self.packet_out.is_full() {
            return false;
        }
        let idx = self.index_in(net);
        let net = net.plane_mut(plane);
        let mut vcs = net.eject_vcs(idx);
        if !self.order.is_empty() {
            vcs &= !net.ordered_vcs();
        }
        if vcs == 0 {
            return false;
        }
        let vc = vcs.trailing_zeros() as usize;
        let flit = net.eject_take_vc(idx, vc).expect("head flit vanished");
        let got = &mut self.partial[plane][vc];
        debug_assert_eq!(*got, flit.idx, "flit reassembly out of order");
        *got += 1;
        if flit.is_tail() {
            *got = 0;
            self.packet_out
                .push(flit.packet)
                .expect("packet_out fullness checked above");
        }
        true
    }

    /// Publishes each plane's expected request instance (SID + per-source
    /// sequence number) to that plane for rVC policing.
    fn publish_esid(&mut self, net: &mut MultiNetwork<T>) {
        for (p, o) in self.order.iter_mut().enumerate() {
            let esid = o
                .tracker
                .current_esid()
                .map(|sid| (sid, o.delivered[sid.index()]));
            if o.published != Some(esid) {
                net.set_esid(p, self.ep, esid);
                o.published = Some(esid);
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

/// Per ordered plane (none on a baseline NIC) the expected SID, the
/// unsent and announced counts, and the tracker's queued windows, the SIDs
/// it still expects and its priority pointer, so a multi-plane
/// post-mortem shows every plane's expectation.
impl<T: Payload> std::fmt::Debug for Nic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn each<T, V>(order: &[PlaneOrder<T>], v: impl Fn(&PlaneOrder<T>) -> V) -> Vec<V> {
            order.iter().map(v).collect()
        }
        let o = &self.order;
        f.debug_struct("Nic")
            .field("ep", &self.ep)
            .field("sid", &self.sid)
            .field("planes", &self.partial.len())
            .field("esid", &each(o, |o| o.tracker.current_esid()))
            .field("unsent", &each(o, |o| o.unsent))
            .field("announced", &each(o, |o| o.announced))
            .field("queued_windows", &each(o, |o| o.tracker.queued_windows()))
            .field("expected", &each(o, |o| o.tracker.backlog()))
            .field("priority", &each(o, |o| o.tracker.priority()))
            .field("last_window", &self.last_window)
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
        scorpio_sim::Fnv1a::debug_digest(&(
            &nic.order,
            (&nic.ordered_out, &nic.packet_out, &nic.partial),
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
        nic.order[1].tracker.push_window(&window);
        // A second window queues behind the first, one more SID.
        let mut second = NotifyMsg::new(4, 1, 2);
        second.set_count(1, 2, 1);
        nic.order[1].tracker.push_window(&second);
        assert_eq!(nic.current_esid(0), None);
        assert_eq!(nic.current_esid(1), Some(Sid(3)));
        let text = format!("{nic:?}");
        assert!(text.contains("esid: [None, Some(Sid(3))]"), "{text}");
        // Plane 1's tracker: one window queued, two SIDs expected, the
        // pointer rotated once per accepted window.
        assert!(text.contains("queued_windows: [0, 1]"), "{text}");
        assert!(text.contains("expected: [0, 2]"), "{text}");
        assert!(text.contains("priority: [0, 2]"), "{text}");
    }
}
