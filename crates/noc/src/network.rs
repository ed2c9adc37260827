//! The assembled main network: routers, links, injection and ejection ports.
//!
//! [`Network`] owns every router of the mesh plus, for each endpoint (tile
//! or memory-controller port), an injection port and an ejection port.
//! Cross-component communication travels on *wires* with fixed delays:
//! flits take two cycles from ST to availability at the next hop (crossbar
//! edge + one link stage), lookaheads and credits take one. A cycle is
//! `tick()` (compute) followed by `commit()` (clock edge). The clock edge
//! is the cycle counter: a wire's slots are indexed by cycle, so commit
//! moves no buffer, and a quiescent network's tick returns at once.
//!
//! All of that state is network-level arrays sized from the configuration
//! and built once, at construction — the routers', the injection queues,
//! send slots and credit rows, the ejection rings, and per-router buckets
//! for each wire's deliveries — so a network costs 36 allocations
//! whatever its size.
//!
//! The consumer (a NIC model, or a test harness) interacts through:
//!
//! * [`Network::try_inject`] — queue a packet at an endpoint,
//! * [`Network::eject_vcs`] / [`Network::eject_head`] /
//!   [`Network::eject_take_vc`] — inspect and consume arrived flits VC by
//!   VC, by dense endpoint index and flat VC (the NIC's ESID logic decides
//!   *which* GO-REQ flit to take),
//! * [`Network::set_esid`] — publish the endpoint's expected SID so routers
//!   can police their reserved VCs.

use crate::config::NocConfig;
use crate::flit::{Dest, Flit, Packet, Payload, Sid};
use crate::obs::{NetObs, ObsConfig};
use crate::router::{
    flat_depths, CreditArrival, Downstream, EsidOracle, FlitArrival, LaArrival, RouterOut, Routers,
    SlabRing, TickCtx,
};
use crate::tables::{validate_datelines, RouteCtx, RoutingTables, VcClass};
use crate::topology::{Endpoint, Port, RouterId, Topology};
use scorpio_sim::stats::LogHistogram;
use scorpio_sim::{ActiveSet, Cycle, PushError};
use std::collections::HashMap;

/// A wire with a fixed delay of `N − 1` cycles: an event pushed during
/// cycle `c` is delivered by the tick of cycle `c + N − 1`. Slot `c % N`
/// holds what cycle `c`'s tick delivers, so the clock edge is the cycle
/// counter and nothing rotates; one slot more than the delay keeps the
/// slot a tick drains apart from the one it pushes to. A drained slot
/// keeps its buffer, so a wire allocates nothing in steady state.
struct Wire<E, const N: usize> {
    slots: [Vec<E>; N],
}

impl<E, const N: usize> Wire<E, N> {
    fn new() -> Self {
        Wire {
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn slot(at: u64) -> usize {
        (at % N as u64) as usize
    }

    fn push(&mut self, now: Cycle, e: E) {
        self.slots[Self::slot(now.as_u64() + N as u64 - 1)].push(e);
    }

    /// Hands every event due at `now` to `f`, delivering straight into the
    /// receiver's preallocated inbox without an intermediate `Vec`.
    fn deliver(&mut self, now: Cycle, f: impl FnMut(E)) {
        self.slots[Self::slot(now.as_u64())].drain(..).for_each(f);
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// The network's fixed-latency plumbing (paper §3.2): a flit takes two
/// cycles from ST to the next hop's input or the ejection buffer (crossbar
/// edge plus one link stage); a lookahead or a credit takes one.
struct Wires<T> {
    flit: Wire<(RouterId, Port, u8, Flit<T>), 3>,
    la: Wire<(RouterId, Port, Flit<T>), 2>,
    credit: Wire<(RouterId, CreditArrival), 2>,
    eject: Wire<(usize, u8, u8, Flit<T>), 3>,
    inject_credit: Wire<(usize, u8, u8, bool), 2>,
}

impl<T: Payload> Wires<T> {
    fn new() -> Self {
        Wires {
            flit: Wire::new(),
            la: Wire::new(),
            credit: Wire::new(),
            eject: Wire::new(),
            inject_credit: Wire::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.flit.is_empty()
            && self.la.is_empty()
            && self.credit.is_empty()
            && self.eject.is_empty()
            && self.inject_credit.is_empty()
    }

    /// Puts router `rid`'s output `ev` of cycle `now` on its wire, bound
    /// for the neighbour or local endpoint the tables name.
    fn route(&mut self, tables: &RoutingTables, rid: RouterId, now: Cycle, ev: &RouterOut<T>) {
        match ev {
            RouterOut::Flit { out_port, vc, flit } => {
                if out_port.is_local() {
                    let ep = tables.local_ep_index(rid, *out_port);
                    self.eject.push(now, (ep, flit.packet.vnet.0, *vc, *flit));
                } else {
                    let n = tables
                        .neighbor(rid, *out_port)
                        .expect("ST off the fabric edge");
                    self.flit.push(now, (n, out_port.opposite(), *vc, *flit));
                }
            }
            RouterOut::La { out_port, flit } => {
                let n = tables
                    .neighbor(rid, *out_port)
                    .expect("LA off the fabric edge");
                self.la.push(now, (n, out_port.opposite(), *flit));
            }
            RouterOut::CreditUp {
                in_port,
                vnet,
                vc,
                dealloc,
            } => {
                if in_port.is_local() {
                    let ep = tables.local_ep_index(rid, *in_port);
                    self.inject_credit.push(now, (ep, *vnet, *vc, *dealloc));
                } else {
                    let n = tables
                        .neighbor(rid, *in_port)
                        .expect("credit off the fabric edge");
                    let credit = CreditArrival {
                        out_port: in_port.opposite(),
                        vnet: *vnet,
                        vc: *vc,
                        dealloc: *dealloc,
                    };
                    self.credit.push(now, (n, credit));
                }
            }
        }
    }
}

/// One wire's deliveries of the current cycle, bucketed by receiving
/// router: router `r`'s are `items[r · cap..][..len[r]]`, in wire-delivery
/// order — the order its tick bypasses or buffers them, and so its outbox
/// and trace order. `cap` bounds what one router receives in a cycle. The
/// buckets are reserved at build and filled on first use; a slot past its
/// bucket's `len` holds a stale copy and is never read.
struct Inbox<E> {
    items: Vec<E>,
    len: Vec<u32>,
    cap: usize,
}

impl<E: Copy> Inbox<E> {
    fn new(routers: usize, cap: usize) -> Self {
        Inbox {
            items: Vec::with_capacity(routers * cap),
            len: vec![0; routers],
            cap,
        }
    }

    fn push(&mut self, r: usize, e: E) {
        let k = self.len[r] as usize;
        assert!(
            k < self.cap,
            "router {r} received more than {} wire events in one cycle",
            self.cap
        );
        let at = r * self.cap + k;
        if self.items.len() <= at {
            // Inside the capacity reserved at build: no allocation.
            self.items.resize(at + 1, e);
        }
        self.items[at] = e;
        self.len[r] += 1;
    }

    fn get(&self, r: usize) -> &[E] {
        match self.len[r] as usize {
            0 => &[],
            n => &self.items[r * self.cap..][..n],
        }
    }

    fn clear(&mut self, r: usize) {
        self.len[r] = 0;
    }
}

/// In-flight state of a multi-flit packet being injected.
#[derive(Debug, Clone, Copy)]
struct SendState<T> {
    packet: Packet<T>,
    next_idx: u8,
    vc: u8,
}

/// The NIC-side injection ports, one lane per `[endpoint][vnet]`: a packet
/// queue (`inject_queue_depth` deep, a ring over one slab) and the
/// multi-flit packet it is mid-way through sending, plus each endpoint's
/// credit/VC view of its router's local input port (one [`Downstream`]
/// row per endpoint).
struct Injection<T> {
    vnets: usize,
    queues: Vec<SlabRing>,
    slab: Vec<Option<Packet<T>>>,
    sending: Vec<Option<SendState<T>>>,
    /// Per endpoint, the vnet its next attempt tries first.
    next_vnet: Vec<usize>,
    ds: Downstream,
}

impl<T: Payload> Injection<T> {
    fn new(cfg: &NocConfig, endpoints: usize) -> Self {
        let (vnets, depth) = (cfg.vnets.len(), cfg.inject_queue_depth);
        let lanes = endpoints * vnets;
        let mut queues = Vec::with_capacity(lanes);
        queues.extend(SlabRing::carve(lanes, std::iter::once(depth)));
        Injection {
            vnets,
            queues,
            slab: vec![None; lanes * depth],
            sending: vec![None; lanes],
            next_vnet: vec![0; endpoints],
            ds: Downstream::new(cfg, endpoints),
        }
    }

    /// Queues `packet` on lane (`ep`, `vnet`).
    fn push(
        &mut self,
        ep: usize,
        vnet: usize,
        packet: Packet<T>,
    ) -> Result<(), PushError<Packet<T>>> {
        let queue = &mut self.queues[ep * self.vnets + vnet];
        if queue.is_full() {
            return Err(PushError(packet));
        }
        queue.push(&mut self.slab, packet);
        Ok(())
    }

    /// Packets queued or mid-send at endpoint `ep`.
    fn backlog(&self, ep: usize) -> usize {
        (ep * self.vnets..(ep + 1) * self.vnets)
            .map(|lane| self.queues[lane].len() + usize::from(self.sending[lane].is_some()))
            .sum()
    }
}

/// The NIC-side ejection buffers, mirroring the VC structure the router's
/// local output port sees downstream: per endpoint one flit ring per flat
/// VC (`vnet_base + vc`, the router's numbering), each as deep as its
/// vnet's VCs (the router's credits bound the occupancy), all over one
/// slab.
struct Ejection<T> {
    port_vcs: usize,
    /// `[endpoint][flat VC]`.
    rings: Vec<SlabRing>,
    slab: Vec<Option<Flit<T>>>,
    /// Per endpoint, the flat VCs holding a flit, so "anything waiting?" is
    /// one load and the NIC's receive scans are `trailing_zeros` walks.
    nonempty: Vec<u32>,
}

impl<T: Payload> Ejection<T> {
    fn new(cfg: &NocConfig, endpoints: usize) -> Self {
        let port_vcs = flat_depths(cfg).count();
        let mut rings = Vec::with_capacity(endpoints * port_vcs);
        rings.extend(SlabRing::carve(endpoints, flat_depths(cfg)));
        Ejection {
            port_vcs,
            rings,
            slab: vec![None; endpoints * flat_depths(cfg).sum::<usize>()],
            nonempty: vec![0; endpoints],
        }
    }

    fn push(&mut self, ep: usize, vc: usize, flit: Flit<T>) {
        self.rings[ep * self.port_vcs + vc].push(&mut self.slab, flit);
        self.nonempty[ep] |= 1 << vc;
    }

    /// The head flit of `vc` at endpoint `ep`.
    fn head(&self, ep: usize, vc: usize) -> Option<&Flit<T>> {
        self.rings[ep * self.port_vcs + vc].front(&self.slab)
    }

    fn pop(&mut self, ep: usize, vc: usize) -> Option<Flit<T>> {
        let ring = &mut self.rings[ep * self.port_vcs + vc];
        let flit = ring.pop(&mut self.slab)?;
        if ring.is_empty() {
            self.nonempty[ep] &= !(1 << vc);
        }
        Some(flit)
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Packets accepted by [`Network::try_inject`].
    pub injected_packets: u64,
    /// Latency from injection to tail consumption, per delivered copy
    /// (tail flit taken), split by virtual network (indexed like
    /// `NocConfig::vnets`); [`NocStats::packet_latency`]'s count is the
    /// number of packet copies delivered.
    pub vnet_latency: [LogHistogram; NocConfig::MAX_VNETS],
    /// Flits that took the single-cycle bypass path, summed over routers.
    pub bypassed_flits: u64,
    /// Flits that were buffered (three-stage path), summed over routers.
    pub buffered_flits: u64,
}

impl NocStats {
    /// Folds another network's statistics into this one (the multi-plane
    /// aggregate view).
    pub(crate) fn merge(&mut self, other: &NocStats) {
        self.injected_packets += other.injected_packets;
        for (a, b) in self.vnet_latency.iter_mut().zip(&other.vnet_latency) {
            a.merge(b);
        }
        self.bypassed_flits += other.bypassed_flits;
        self.buffered_flits += other.buffered_flits;
    }

    /// Packet latency over every virtual network.
    pub fn packet_latency(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for h in &self.vnet_latency {
            all.merge(h);
        }
        all
    }
}

/// The SCORPIO main network.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Mesh, Network, NocConfig, Packet, RouterId, Endpoint, Sid};
///
/// let mesh = Mesh::square_with_corner_mcs(4);
/// let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
/// let src = Endpoint::tile(RouterId(0));
/// net.try_inject(src, Packet::request(src, Sid(0), 0, 7)).unwrap();
/// for _ in 0..100 {
///     net.tick();
///     net.commit();
/// }
/// // The broadcast reached the opposite corner.
/// let far = net.endpoint_index(Endpoint::tile(RouterId(15)));
/// assert!(net.eject_occupied(far));
/// ```
pub struct Network<T> {
    topology: Topology,
    /// Routing tables compiled from the topology's spec at construction.
    tables: RoutingTables,
    cfg: NocConfig,
    cycle: Cycle,
    routers: Routers<T>,
    /// Every endpoint by dense index (tiles, then MC ports).
    endpoints: Vec<Endpoint>,
    injection: Injection<T>,
    ejection: Ejection<T>,
    /// First flat VC of each vnet, and the flat VCs of ordered vnets —
    /// the same at every port.
    vnet_base: [u8; NocConfig::MAX_VNETS],
    ordered_vcs: u32,
    /// Per endpoint index (tile `router·c + slot`, then MC ports by
    /// rank): its committed ESID, and the census of the SID with that
    /// index. `staged_esid` applies at commit.
    esid: Vec<EsidSlot>,
    staged_esid: Vec<(usize, Option<(Sid, u16)>)>,
    wires: Wires<T>,
    // This cycle's wire deliveries, bucketed by receiving router.
    inbox_flits: Inbox<FlitArrival<T>>,
    inbox_las: Inbox<LaArrival<T>>,
    inbox_credits: Inbox<CreditArrival>,
    outbox: Vec<RouterOut<T>>,
    // Active-set engine state: routers and injection ports with pending
    // work this cycle (wire arrivals, residual occupancy, queued packets).
    router_active: ActiveSet,
    inject_active: ActiveSet,
    router_scratch: Vec<u32>,
    inject_scratch: Vec<u32>,
    /// Endpoints whose ejection buffers received flits this tick; drained
    /// by the system layer to wake sleeping tiles/MCs.
    ep_woken: ActiveSet,
    next_uid: u64,
    deliveries: HashMap<u64, u32>,
    last_progress: Cycle,
    stats: NocStats,
    /// Observability sink; `None` (the default) keeps every hook on the
    /// hot path down to a single branch.
    obs: Option<Box<NetObs>>,
}

/// One endpoint index's entry in [`Network`]'s `esid`. A SID is the
/// endpoint index of the tile that sends it, so the census shares the
/// ESID's allocation: slot `i` holds endpoint `i`'s ESID and the count for
/// SID `i`.
#[derive(Debug, Clone, Copy, Default)]
struct EsidSlot {
    /// The committed ESID of endpoint `i`'s NIC.
    esid: Option<(Sid, u16)>,
    /// How many endpoints' committed ESIDs name SID `i`.
    expecting: u32,
}

/// ESID view used by routers for reserved-VC eligibility. Expectations are
/// exact request instances: (SID, per-source sequence number). Link and MC
/// queries go through the compiled tables, not coordinate math.
struct EsidView<'a> {
    tables: &'a RoutingTables,
    /// [`Network`]'s `esid`: committed ESIDs and the SID census.
    esid: &'a [EsidSlot],
}

impl EsidView<'_> {
    /// Whether any NIC local to router `r` — one of its tile slots or its
    /// MC port — expects exactly (`sid`, `seq`). Inlined into injection's
    /// rVC check and into `rvc_eligible`, which the routers may still call
    /// out of line; the census (`any_expects`) keeps those calls rare.
    #[inline]
    fn router_has_expected(&self, r: RouterId, sid: Sid, seq: u16) -> bool {
        let c = self.tables.concentration() as usize;
        let base = r.index() * c;
        let expected = Some((sid, seq));
        self.esid[base..base + c].iter().any(|s| s.esid == expected)
            || (self.tables.has_mc(r)
                && self.esid[self.tables.tile_count() + self.tables.mc_rank(r)].esid == expected)
    }
}

impl EsidOracle for EsidView<'_> {
    #[inline]
    fn any_expects(&self, sid: Sid) -> bool {
        self.esid.get(sid.index()).is_some_and(|s| s.expecting != 0)
    }

    #[inline]
    fn rvc_eligible(&self, router: RouterId, out_port: Port, sid: Sid, seq: u16) -> bool {
        if out_port.is_local() {
            self.esid[self.tables.local_ep_index(router, out_port)].esid == Some((sid, seq))
        } else {
            match self.tables.neighbor(router, out_port) {
                Some(n) => self.router_has_expected(n, sid, seq),
                None => false,
            }
        }
    }
}

impl<T: Payload> Network<T> {
    /// Builds a network over any delivery fabric — a [`Topology`] or a
    /// reference to one — with configuration `cfg`. The topology's routing
    /// spec is compiled into per-router lookup tables here; the per-flit
    /// hot path never runs coordinate math.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`], or if the topology
    /// has wraparound links and a vnet has fewer than two regular VCs
    /// (dateline deadlock freedom needs a class split).
    pub fn new(fabric: impl Into<Topology>, cfg: NocConfig) -> Self {
        let topology: Topology = fabric.into();
        cfg.validate().expect("invalid NoC configuration");
        validate_datelines(&topology, &cfg);
        let tables = RoutingTables::build(&topology);
        let n_routers = topology.router_count();
        let routers = Routers::new(&tables, &cfg, n_routers);
        let endpoints: Vec<Endpoint> = topology.endpoints().collect();
        let n_eps = endpoints.len();
        let mut vnet_base = [0; NocConfig::MAX_VNETS];
        let (mut flat, mut ordered_vcs) = (0, 0u32);
        for (n, v) in cfg.vnets.iter().enumerate() {
            vnet_base[n] = flat as u8;
            if v.ordered {
                ordered_vcs |= ((1 << v.total_vcs()) - 1) << flat;
            }
            flat += v.total_vcs();
        }
        // Per cycle a router receives at most one flit and one lookahead
        // per input port, and per output port no more credits than the
        // downstream port has buffer slots.
        let n_ports = routers.n_ports();
        let port_slots: usize = flat_depths(&cfg).sum();
        Network {
            injection: Injection::new(&cfg, n_eps),
            ejection: Ejection::new(&cfg, n_eps),
            topology,
            tables,
            cfg,
            cycle: Cycle::ZERO,
            routers,
            endpoints,
            vnet_base,
            ordered_vcs,
            esid: vec![EsidSlot::default(); n_eps],
            staged_esid: Vec::new(),
            wires: Wires::new(),
            inbox_flits: Inbox::new(n_routers, n_ports),
            inbox_las: Inbox::new(n_routers, n_ports),
            inbox_credits: Inbox::new(n_routers, n_ports * port_slots),
            outbox: Vec::new(),
            router_active: ActiveSet::new(n_routers),
            inject_active: ActiveSet::new(n_eps),
            router_scratch: Vec::with_capacity(n_routers),
            inject_scratch: Vec::with_capacity(n_eps),
            ep_woken: ActiveSet::new(n_eps),
            next_uid: 1,
            deliveries: HashMap::new(),
            last_progress: Cycle::ZERO,
            stats: NocStats::default(),
            obs: None,
        }
    }

    /// The topology this network delivers over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Aggregate statistics (router counters folded in on each call).
    pub fn stats(&self) -> NocStats {
        let mut s = self.stats.clone();
        let (bypassed, buffered) = self.routers.flit_paths();
        s.bypassed_flits += bypassed;
        s.buffered_flits += buffered;
        s
    }

    /// The last cycle on which any packet moved or was consumed — a
    /// watchdog hook for deadlock detection in tests.
    pub(crate) fn last_progress(&self) -> Cycle {
        self.last_progress
    }

    /// Dumps occupied router state for deadlock debugging: per router,
    /// every resident input VC with its stall cause and every busy
    /// downstream VC.
    #[doc(hidden)]
    pub(crate) fn debug_dump(&self) -> String {
        let mut out = String::new();
        for r in 0..self.topology.router_count() {
            let lines = self.routers.debug_occupancy(r);
            if !lines.is_empty() {
                out.push_str(&format!("router {}\n", RouterId(r as u16)));
                for l in lines {
                    out.push_str(&l);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The dense index of `ep` (tiles first, then MC ports).
    ///
    /// # Panics
    ///
    /// Panics if `ep` does not exist in this topology.
    pub fn endpoint_index(&self, ep: Endpoint) -> usize {
        self.tables.endpoint_index(ep)
    }

    /// Queues `packet` for injection at `ep`, stamping uid and inject cycle.
    ///
    /// # Errors
    ///
    /// Returns the packet if the per-vnet injection queue is full.
    ///
    /// # Panics
    ///
    /// Panics on an unknown vnet, and on a broadcast whose source is an MC
    /// endpoint of a concentrated fabric: the broadcast tree of an MC
    /// source is its router's slot-0 tree (`Topology::broadcast_hop`),
    /// which would silently starve that slot's tile.
    pub fn try_inject(
        &mut self,
        ep: Endpoint,
        mut packet: Packet<T>,
    ) -> Result<u64, PushError<Packet<T>>> {
        let idx = self.endpoint_index(ep);
        packet.inject_cycle = self.cycle;
        packet.uid = self.next_uid;
        let vnet = packet.vnet.index();
        assert!(vnet < self.cfg.vnets.len(), "packet on unknown vnet");
        assert!(
            packet.dest != Dest::Broadcast
                || packet.src.slot.is_tile()
                || self.tables.concentration() == 1,
            "MC-sourced broadcast from {} is undefined on a concentrated fabric",
            packet.src
        );
        self.injection.push(idx, vnet, packet)?;
        self.inject_active.wake(idx);
        self.next_uid += 1;
        self.stats.injected_packets += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_inject(self.cycle.as_u64(), idx as u32, packet.vnet.0, packet.uid);
        }
        Ok(packet.uid)
    }

    /// Number of packets waiting (or mid-send) at `ep`'s injection port.
    pub fn inject_backlog(&self, ep: Endpoint) -> usize {
        self.injection.backlog(self.endpoint_index(ep))
    }

    /// Whether ordered packet `uid` is still waiting in the injection port
    /// of the endpoint with dense index `ep_idx` (not yet handed to the
    /// router). The NIC uses this to hold back loopback self-delivery of
    /// its own ordered requests until the broadcast copy has actually
    /// entered the network — the invariant the reserved-VC
    /// deadlock-freedom argument rests on. Only the ordered vnets' queues
    /// and send slots are searched: that is where requests travel.
    pub fn inject_pending(&self, ep_idx: usize, uid: u64) -> bool {
        let inj = &self.injection;
        let ordered = self.cfg.vnets.iter().enumerate().filter(|(_, v)| v.ordered);
        ordered.map(|(v, _)| ep_idx * inj.vnets + v).any(|lane| {
            inj.queues[lane].iter(&inj.slab).any(|pkt| pkt.uid == uid)
                || inj.sending[lane].is_some_and(|s| s.packet.uid == uid)
        })
    }

    /// Publishes the expected request instance — (SID, per-source sequence
    /// number) — of `ep`'s NIC (takes effect next cycle).
    ///
    /// # Panics
    ///
    /// Panics if the SID is no endpoint index: the census has no slot
    /// for it.
    pub(crate) fn set_esid(&mut self, ep: Endpoint, esid: Option<(Sid, u16)>) {
        let idx = self.endpoint_index(ep);
        if let Some((sid, _)) = esid {
            assert!(sid.index() < self.esid.len(), "{sid} names no endpoint");
        }
        self.staged_esid.push((idx, esid));
    }

    /// Whether any flit is waiting in the ejection buffers of the endpoint
    /// with dense index `ep_idx`.
    pub fn eject_occupied(&self, ep_idx: usize) -> bool {
        self.ejection.nonempty[ep_idx] != 0
    }

    /// The flat ejection VCs (`vnet_base + vc`, ascending in vnet then VC)
    /// of endpoint `ep_idx` that hold a flit, as a bit mask.
    pub fn eject_vcs(&self, ep_idx: usize) -> u32 {
        self.ejection.nonempty[ep_idx]
    }

    /// The flat VCs that belong to ordered vnets (the same at every
    /// endpoint), as a bit mask over [`Network::eject_vcs`]' numbering.
    pub fn ordered_vcs(&self) -> u32 {
        self.ordered_vcs
    }

    /// The head flit of flat ejection VC `vc` at endpoint `ep_idx`.
    pub fn eject_head(&self, ep_idx: usize, vc: usize) -> Option<&Flit<T>> {
        self.ejection.head(ep_idx, vc)
    }

    /// Consumes the head flit of flat ejection VC `flat` at endpoint
    /// `idx`, returning a credit to the router. Returns `None` if the VC is
    /// empty.
    pub fn eject_take_vc(&mut self, idx: usize, flat: usize) -> Option<Flit<T>> {
        let flit = self.ejection.pop(idx, flat)?;
        let ep = self.endpoints[idx];
        let vc = flat as u8 - self.vnet_base[flit.packet.vnet.index()];
        let credit = CreditArrival {
            out_port: ep.slot.port(),
            vnet: flit.packet.vnet.0,
            vc,
            dealloc: flit.is_tail(),
        };
        self.wires.credit.push(self.cycle, (ep.router, credit));
        self.last_progress = self.cycle;
        if flit.is_tail() {
            let lat = self.cycle - flit.packet.inject_cycle;
            self.stats.vnet_latency[flit.packet.vnet.index()].record(lat);
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_eject(
                    self.cycle.as_u64(),
                    idx as u32,
                    flit.packet.vnet.0,
                    vc,
                    flit.packet.uid,
                    lat,
                );
            }
            if self.cfg.track_deliveries {
                *self.deliveries.entry(flit.packet.uid).or_insert(0) += 1;
            }
        }
        Some(flit)
    }

    /// How many copies of packet `uid` have been fully consumed so far
    /// (requires `track_deliveries`).
    pub fn deliveries(&self, uid: u64) -> u32 {
        self.deliveries.get(&uid).copied().unwrap_or(0)
    }

    /// Drains the per-uid delivery counts accumulated under
    /// `track_deliveries`. The map grows with every delivered packet and is
    /// never pruned otherwise, so long-running tests that assert on
    /// [`Network::deliveries`] should call this between traffic phases.
    pub fn clear_deliveries(&mut self) {
        self.deliveries.clear();
    }

    /// Wakes every router and injection port, so the next tick probes
    /// them all. Called before every tick this is the always-scan
    /// reference engine, cycle-exact with the active-set one (a probe
    /// with nothing to do changes nothing; the equivalence suite checks).
    pub fn wake_all(&mut self) {
        self.router_active.wake_all();
        self.inject_active.wake_all();
    }

    /// Installs (or, with `None`, removes) the observability sink for this
    /// network, tagged as plane `plane` in trace events. Call before the
    /// first cycle; every hook is engine-invariant, so enabling the sink
    /// never changes simulated behavior.
    pub(crate) fn set_observability(&mut self, plane: u16, cfg: Option<ObsConfig>) {
        self.obs = cfg.map(|c| {
            Box::new(NetObs::new(
                plane,
                c,
                &self.cfg,
                self.topology.router_count(),
                self.endpoints.len(),
            ))
        });
    }

    /// The observability sink, if installed.
    pub(crate) fn obs(&self) -> Option<&NetObs> {
        self.obs.as_deref()
    }

    /// Mutable access to the observability sink (trace draining).
    pub(crate) fn obs_mut(&mut self) -> Option<&mut NetObs> {
        self.obs.as_deref_mut()
    }

    /// Drains the set of endpoints whose ejection buffers received flits
    /// since the last call (ascending order, deduplicated). The system
    /// layer uses this to wake sleeping tiles and memory controllers.
    pub(crate) fn take_woken_endpoints(&mut self, out: &mut Vec<u32>) {
        self.ep_woken.drain_sorted(out);
    }

    /// Moves `other`'s woken endpoints into this network's set (the
    /// multi-plane merge: planes share one endpoint numbering).
    pub(crate) fn absorb_woken(&mut self, other: &mut Network<T>) {
        self.ep_woken.absorb(&mut other.ep_woken);
    }

    /// Compute phase of one cycle. A quiescent network's tick would change
    /// nothing, so it returns at once.
    pub fn tick(&mut self) {
        if self.is_quiescent() {
            return;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.cycle = self.cycle.as_u64();
        }
        self.deliver_wires();
        self.tick_routers();
        self.tick_inject_ports();
    }

    /// Delivers due wire traffic into the per-router inboxes, waking the
    /// receiving routers and recording which endpoints saw ejections.
    fn deliver_wires(&mut self) {
        let Network {
            wires,
            inbox_flits,
            inbox_las,
            inbox_credits,
            injection,
            ejection,
            vnet_base,
            router_active,
            ep_woken,
            last_progress,
            cycle,
            ..
        } = self;
        let now = *cycle;
        wires.flit.deliver(now, |(r, port, vc, flit)| {
            inbox_flits.push(r.index(), FlitArrival { port, vc, flit });
            router_active.wake(r.index());
            *last_progress = now;
        });
        wires.la.deliver(now, |(r, port, flit)| {
            inbox_las.push(r.index(), LaArrival { port, flit });
            router_active.wake(r.index());
        });
        wires.credit.deliver(now, |(r, credit)| {
            inbox_credits.push(r.index(), credit);
            router_active.wake(r.index());
        });
        wires.eject.deliver(now, |(ep_idx, vnet, vc, flit)| {
            ejection.push(ep_idx, (vnet_base[vnet as usize] + vc) as usize, flit);
            ep_woken.wake(ep_idx);
            *last_progress = now;
        });
        wires.inject_credit.deliver(now, |(ep, vnet, vc, dealloc)| {
            injection.ds.on_credit(ep, vnet, vc, dealloc);
        });
    }

    /// Ticks every router with pending work: the drained active set, in
    /// ascending index order. A woken router with nothing buffered and
    /// nothing arriving is skipped, so waking it changes nothing.
    fn tick_routers(&mut self) {
        let mut list = std::mem::take(&mut self.router_scratch);
        self.router_active.drain_sorted(&mut list);
        let Network {
            topology,
            tables,
            cfg,
            routers,
            inbox_flits,
            inbox_las,
            inbox_credits,
            outbox,
            esid,
            wires,
            router_active,
            obs,
            cycle,
            ..
        } = self;
        let ctx = TickCtx {
            route: RouteCtx {
                tables,
                datelines: topology.has_datelines(),
            },
            cfg,
            esid: &EsidView { tables, esid },
        };
        for &r in &list {
            let ridx = r as usize;
            let flits = inbox_flits.get(ridx);
            let las = inbox_las.get(ridx);
            let credits = inbox_credits.get(ridx);
            if routers.is_idle(ridx) && flits.is_empty() && las.is_empty() && credits.is_empty() {
                continue;
            }
            if let Some(o) = obs.as_deref_mut() {
                // Occupancy integral, sampled pre-tick over exactly the
                // routers both engines agree to tick.
                o.on_occupancy(u64::from(routers.occupancy(ridx)));
            }
            outbox.clear();
            routers.tick(ridx, &ctx, flits, las, credits, outbox, obs.as_deref_mut());
            let rid = RouterId(ridx as u16);
            for ev in outbox.iter() {
                if let RouterOut::Flit { out_port, vc, flit } = ev {
                    if let Some(o) = obs.as_deref_mut() {
                        o.on_crossing(
                            ridx as u32,
                            out_port.index() as u8,
                            flit.packet.vnet.0,
                            *vc,
                            flit.packet.uid,
                        );
                    }
                }
                wires.route(tables, rid, *cycle, ev);
            }
            // A router with resident packets must tick again next cycle
            // even if no new arrivals wake it.
            if !routers.is_idle(ridx) {
                router_active.wake(ridx);
            }
        }
        for &r in &list {
            let ridx = r as usize;
            inbox_flits.clear(ridx);
            inbox_las.clear(ridx);
            inbox_credits.clear(ridx);
        }
        self.router_scratch = list;
    }

    /// One injection attempt per woken port.
    fn tick_inject_ports(&mut self) {
        let mut list = std::mem::take(&mut self.inject_scratch);
        self.inject_active.drain_sorted(&mut list);
        for &idx in &list {
            self.inject_try_send(idx as usize);
        }
        self.inject_scratch = list;
    }

    /// Clock edge: staged ESIDs apply (moving the census with them) and
    /// time moves. The wires need nothing: their slots are indexed by the
    /// cycle counter.
    pub fn commit(&mut self) {
        for k in 0..self.staged_esid.len() {
            let (idx, esid) = self.staged_esid[k];
            if let Some((old, _)) = std::mem::replace(&mut self.esid[idx].esid, esid) {
                self.esid[old.index()].expecting -= 1;
            }
            if let Some((new, _)) = esid {
                self.esid[new.index()].expecting += 1;
            }
        }
        self.staged_esid.clear();
        self.cycle = self.cycle.next();
    }

    /// Clock advance for a provably idle *span*: equivalent to `delta`
    /// consecutive quiescent tick + commit cycles in one call. Valid
    /// exactly when [`Network::is_quiescent`] holds — then every wire slot
    /// is empty, no router or port would have been visited, and the only
    /// state the skipped cycles would have changed is the clock.
    pub(crate) fn leap(&mut self, delta: u64) {
        debug_assert!(self.is_quiescent(), "leap over a live network");
        self.cycle += delta;
    }

    /// Whether ticking this network would be a no-op: no woken router or
    /// injection port, no in-flight wire traffic, no staged ESID update
    /// and no pending endpoint wake-up. External events (an injection, an
    /// ejection-buffer take returning a credit, an ESID publication) all
    /// break quiescence before the next tick, so a quiescent network can
    /// be skipped for a cycle without observable effect.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.router_active.is_empty()
            && self.inject_active.is_empty()
            && self.ep_woken.is_empty()
            && self.staged_esid.is_empty()
            && self.wires.is_empty()
    }

    /// Convenience: `tick` + `commit`.
    pub fn step(&mut self) {
        self.tick();
        self.commit();
    }

    /// Whether no packet is anywhere in the network (queues, buffers,
    /// wires). Ejection buffers must also be empty.
    pub fn is_drained(&self) -> bool {
        self.routers.all_idle()
            && (0..self.endpoints.len())
                .all(|ep| self.injection.backlog(ep) == 0 && self.ejection.nonempty[ep] == 0)
            && self.wires.is_empty()
    }

    /// One injection attempt (at most one flit) for endpoint `idx`. While
    /// the port still holds work afterwards it re-arms itself in the
    /// active set, so a port with queued packets is probed every cycle —
    /// exactly as under the always-scan engine — and a drained port sleeps
    /// until the next [`Network::try_inject`].
    fn inject_try_send(&mut self, idx: usize) {
        let Network {
            cfg,
            tables,
            esid,
            endpoints,
            injection: inj,
            wires,
            inject_active,
            obs,
            cycle,
            last_progress,
            ..
        } = self;
        if inj.backlog(idx) == 0 {
            return;
        }
        inject_active.wake(idx);
        let view = EsidView { tables, esid };
        let (router, local_in) = (endpoints[idx].router, endpoints[idx].slot.port());
        let vnets = inj.vnets;
        for k in 0..vnets {
            let v = (inj.next_vnet[idx] + k) % vnets;
            let lane = idx * vnets + v;
            // Continue a multi-flit send first.
            if let Some(mut s) = inj.sending[lane].take() {
                if inj.ds.has_credit(idx, v as u8, s.vc) {
                    inj.ds.take_credit(idx, v as u8, s.vc);
                    let flit = Flit {
                        packet: s.packet,
                        idx: s.next_idx,
                    };
                    wires.flit.push(*cycle, (router, local_in, s.vc, flit));
                    s.next_idx += 1;
                    if s.next_idx < s.packet.len_flits {
                        inj.sending[lane] = Some(s);
                    }
                    inj.next_vnet[idx] = (v + 1) % vnets;
                    return;
                }
                inj.sending[lane] = Some(s);
                continue;
            }
            let Some(&packet) = inj.queues[lane].front(&inj.slab) else {
                continue;
            };
            // Point-to-point ordering: same-SID exclusivity at the router
            // input port.
            if let Some(sid) = packet.sid {
                if inj.ds.sid_in_flight(idx, v as u8, sid) {
                    continue;
                }
            }
            // Injection allocates at the router's *local* input port; the
            // dateline discipline only constrains mesh links. The rVC is
            // open to a request some NIC local to this router (any tile
            // slot, or its MC port) expects as this exact instance.
            let rvc_ok = || {
                packet.sid.is_some_and(|s| {
                    view.any_expects(s) && view.router_has_expected(router, s, packet.sid_seq)
                })
            };
            let Some(vc) = inj
                .ds
                .alloc_vc(idx, v as u8, packet.sid, VcClass::Any, rvc_ok)
            else {
                continue;
            };
            inj.queues[lane].pop(&mut inj.slab);
            if let Some(o) = obs.as_deref_mut() {
                o.on_injected(
                    cycle.as_u64(),
                    idx as u32,
                    router.0 as u32,
                    local_in.index() as u8,
                    v as u8,
                    vc,
                    packet.uid,
                    *cycle - packet.inject_cycle,
                );
            }
            let head = Flit { packet, idx: 0 };
            if cfg.bypass && packet.len_flits == 1 {
                wires.la.push(*cycle, (router, local_in, head));
            }
            wires.flit.push(*cycle, (router, local_in, vc, head));
            if packet.len_flits > 1 {
                inj.sending[lane] = Some(SendState {
                    packet,
                    next_idx: 1,
                    vc,
                });
            }
            inj.next_vnet[idx] = (v + 1) % vnets;
            *last_progress = *cycle;
            return;
        }
    }
}

impl<T: Payload> std::fmt::Debug for Network<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.topology.label())
            .field("cycle", &self.cycle)
            .field("injected", &self.stats.injected_packets)
            .field("delivered", &self.stats.packet_latency().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::set_bits;
    use crate::flit::VnetId;
    use crate::obs::TraceKind;
    use crate::planes::MultiNetwork;
    use crate::topology::{CMesh, Mesh, Ring, Torus};

    fn drain_all(net: &mut Network<u64>, max: u64) -> Vec<(Endpoint, Flit<u64>)> {
        let mut got = Vec::new();
        let eps: Vec<Endpoint> = net.topology().endpoints().collect();
        for _ in 0..max {
            for (idx, &ep) in eps.iter().enumerate() {
                for vc in set_bits(net.eject_vcs(idx)) {
                    if let Some(f) = net.eject_take_vc(idx, vc) {
                        got.push((ep, f));
                    }
                }
            }
            net.step();
            if net.is_drained() {
                break;
            }
        }
        got
    }

    /// A wire's slot is picked by the cycle counter: an event pushed at
    /// cycle `c` is delivered by the tick of `c + N − 1` and by no earlier
    /// tick, whether it was pushed during tick `c` or before it.
    #[test]
    fn wire_delivers_by_cycle_index() {
        let mut flits: Wire<u64, 3> = Wire::new();
        let mut got = Vec::new();
        for c in 0..10 {
            flits.deliver(Cycle::new(c), |e| got.push((c, e)));
            flits.push(Cycle::new(c), c);
        }
        let due: Vec<(u64, u64)> = (0..8).map(|c| (c + 2, c)).collect();
        assert_eq!(got, due, "pushed at c, delivered by the tick of c + 2");

        // A credit the NIC returns between ticks — the counter already at
        // `c`, tick `c` still to come — lands one tick later: at `c + 1`.
        let mut credits: Wire<u64, 2> = Wire::new();
        let c = Cycle::new(7);
        credits.push(c, 1);
        let mut got = Vec::new();
        credits.deliver(c, |e| got.push(e));
        assert!(
            got.is_empty(),
            "a one-cycle wire delivered in its own cycle"
        );
        credits.deliver(c.next(), |e| got.push(e));
        assert_eq!(got, [1]);
        assert!(credits.is_empty());
    }

    /// `Wire::is_empty` sees every slot: with one event in each of the
    /// three, the wire is empty only once the last has been delivered.
    #[test]
    fn wire_is_empty_checks_every_slot() {
        let mut w: Wire<u64, 3> = Wire::new();
        for c in 0..3 {
            w.push(Cycle::new(c), c);
        }
        for c in 2..5 {
            assert!(!w.is_empty(), "an event left in a slot before cycle {c}");
            w.deliver(Cycle::new(c), |_| {});
        }
        assert!(w.is_empty());
    }

    /// A standalone network skips its own quiescent ticks. Traffic comes
    /// in bursts between idle gaps and woken endpoints are drained every
    /// cycle, so the network does fall quiescent; the ejection log and
    /// the cycle it drains at are those of the always-scan reference (the
    /// same network woken whole before every step), which never skips.
    #[test]
    fn quiescent_ticks_are_skipped_without_effect() {
        use scorpio_sim::SimRng;
        let run = |scan: bool| {
            let mut net: Network<u64> =
                Network::new(Mesh::square_with_corner_mcs(4), NocConfig::scorpio());
            let eps: Vec<Endpoint> = net.topology().endpoints().collect();
            let mut rng = SimRng::seed_from(43);
            let (mut log, mut woken) = (Vec::new(), Vec::new());
            let (mut quiet, mut drained_at) = (0, None);
            for cycle in 0..2_500u64 {
                // 40-cycle bursts every 300 cycles, the last at 1 800.
                if cycle % 300 < 40 && cycle < 2_000 {
                    for &ep in &eps {
                        if !rng.chance(0.06) {
                            continue;
                        }
                        let to = eps[rng.gen_range_usize(eps.len())];
                        let pkt = if ep.slot.is_tile() && rng.chance(0.4) {
                            Packet::request(ep, Sid(ep.router.0), cycle as u16, cycle)
                        } else if to != ep {
                            Packet::response(ep, to, 3, cycle)
                        } else {
                            continue;
                        };
                        let _ = net.try_inject(ep, pkt);
                    }
                }
                for idx in 0..eps.len() {
                    for vc in set_bits(net.eject_vcs(idx)) {
                        if let Some(f) = net.eject_take_vc(idx, vc) {
                            log.push((cycle, idx, f.packet.uid, f.idx));
                        }
                    }
                }
                quiet += usize::from(net.is_quiescent());
                if scan {
                    net.wake_all();
                }
                net.step();
                net.take_woken_endpoints(&mut woken);
                if cycle >= 1_840 && drained_at.is_none() && net.is_drained() {
                    drained_at = Some(cycle);
                }
            }
            assert_eq!(net.cycle(), Cycle::new(2_500));
            (log, drained_at, quiet)
        };
        let (log, drained_at, quiet) = run(false);
        let (scan_log, scan_drained_at, _) = run(true);
        assert!(
            log.len() > 1_000,
            "{} ejections: too little traffic",
            log.len()
        );
        assert!(drained_at.is_some(), "the last burst never drained");
        assert!(quiet > 500, "quiescent on only {quiet} ticks");
        assert_eq!(drained_at, scan_drained_at, "drain cycle");
        assert_eq!(log, scan_log, "ejection log");
    }

    #[test]
    fn unicast_response_delivered_once() {
        let mesh = Mesh::square_with_corner_mcs(4);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(15));
        let uid = net
            .try_inject(src, Packet::response(src, dst, 3, 42))
            .unwrap();
        let got = drain_all(&mut net, 200);
        assert!(net.is_drained(), "network failed to drain");
        // 3 flits, all at the destination, in order.
        let flits: Vec<_> = got.iter().filter(|(ep, _)| *ep == dst).collect();
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[0].1.idx, 0);
        assert_eq!(flits[2].1.idx, 2);
        assert!(flits.iter().all(|(_, f)| f.packet.payload == 42));
        assert_eq!(net.deliveries(uid), 1);
    }

    #[test]
    fn broadcast_reaches_every_other_endpoint_exactly_once() {
        let mesh = Mesh::square_with_corner_mcs(4);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let src = Endpoint::tile(RouterId(5));
        let uid = net
            .try_inject(src, Packet::request(src, Sid(5), 0, 99))
            .unwrap();
        let got = drain_all(&mut net, 400);
        assert!(net.is_drained(), "network failed to drain");
        // 16 tiles - 1 source + 4 MC endpoints = 19 copies.
        assert_eq!(net.deliveries(uid), 19);
        let mut seen = std::collections::HashSet::new();
        for (ep, f) in &got {
            assert_eq!(f.packet.payload, 99);
            assert!(seen.insert(*ep), "duplicate delivery at {ep}");
        }
        assert!(!seen.contains(&src));
    }

    #[test]
    fn broadcasts_from_all_sources_all_delivered() {
        let mesh = Mesh::square_with_corner_mcs(3);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let mut uids = Vec::new();
        for r in 0..9u16 {
            let src = Endpoint::tile(RouterId(r));
            let uid = net
                .try_inject(src, Packet::request(src, Sid(r), 0, r as u64))
                .unwrap();
            uids.push(uid);
        }
        drain_all(&mut net, 2000);
        assert!(net.is_drained(), "network failed to drain");
        for &uid in &uids {
            assert_eq!(net.deliveries(uid), 8 + 4, "uid {uid}");
        }
        // The per-uid map is append-only while tracking; tests that assert
        // on it drain it once done so long traffic phases stay bounded.
        net.clear_deliveries();
        assert_eq!(net.deliveries(uids[0]), 0);
    }

    #[test]
    fn zero_load_unicast_latency_reflects_bypass() {
        // Single-flit UO-RESP unicast across a 4x4 mesh with bypassing:
        // inject (2) + per-hop (2) * hops + ejection consumption.
        let mesh = Mesh::new(4, 4, &[]);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(3)); // 3 hops east
        net.try_inject(src, Packet::response(src, dst, 1, 1))
            .unwrap();
        let got = drain_all(&mut net, 100);
        assert_eq!(got.len(), 1);
        let lat = net.stats().packet_latency().mean();
        // 4 router traversals (src router + 3) at 1 cycle bypassed + links
        // + injection and ejection wires; anything ≤ 14 means bypassing is
        // working (the buffered path would exceed that).
        assert!(lat <= 14.0, "latency {lat} too high — bypass broken?");
        let s = net.stats();
        assert!(s.bypassed_flits > 0, "no flit ever bypassed");
    }

    #[test]
    fn bypass_disabled_increases_latency() {
        let mut fast_cfg = NocConfig::scorpio();
        fast_cfg.track_deliveries = false;
        let mut slow_cfg = fast_cfg.clone();
        slow_cfg.bypass = false;

        let run = |cfg: NocConfig| -> f64 {
            let mut net: Network<u64> = Network::new(Mesh::new(4, 4, &[]), cfg);
            let src = Endpoint::tile(RouterId(0));
            let dst = Endpoint::tile(RouterId(15));
            net.try_inject(src, Packet::response(src, dst, 1, 1))
                .unwrap();
            drain_all(&mut net, 300);
            net.stats().packet_latency().mean()
        };
        let fast = run(fast_cfg);
        let slow = run(slow_cfg);
        assert!(
            slow > fast + 5.0,
            "expected 3-stage path ({slow}) to be clearly slower than bypass ({fast})"
        );
    }

    #[test]
    fn heavy_random_traffic_drains_without_loss() {
        use scorpio_sim::SimRng;
        let mesh = Mesh::square_with_corner_mcs(4);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let mut rng = SimRng::seed_from(1234);
        let eps: Vec<Endpoint> = net.topology().endpoints().collect();
        let mut injected = 0u64;
        let mut consumed = 0u64;
        for cycle in 0..3000u64 {
            // Random injections for the first 1500 cycles.
            if cycle < 1500 {
                for &ep in &eps {
                    if rng.chance(0.05) {
                        let to = eps[rng.gen_range_usize(eps.len())];
                        let pkt = if ep.slot.is_tile() && rng.chance(0.4) {
                            Packet::request(ep, Sid(ep.router.0), cycle as u16, cycle)
                        } else if to != ep {
                            Packet::response(ep, to, 3, cycle)
                        } else {
                            continue;
                        };
                        if net.try_inject(ep, pkt).is_ok() {
                            injected += 1;
                        }
                    }
                }
            }
            for idx in 0..eps.len() {
                for vc in set_bits(net.eject_vcs(idx)) {
                    if net.eject_take_vc(idx, vc).is_some() {
                        consumed += 1;
                    }
                }
            }
            net.step();
            if cycle > 1500 && net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "network wedged under random traffic");
        assert!(injected > 100, "test generated too little traffic");
        assert!(
            consumed > injected,
            "broadcast copies should multiply flits"
        );
    }

    #[test]
    fn inject_backpressure_reports_full() {
        let mesh = Mesh::new(2, 2, &[]);
        let mut cfg = NocConfig::scorpio();
        cfg.inject_queue_depth = 2;
        let mut net: Network<u64> = Network::new(mesh, cfg);
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(3));
        // Queue depth 2: third push without ticking must fail.
        net.try_inject(src, Packet::response(src, dst, 1, 0))
            .unwrap();
        net.try_inject(src, Packet::response(src, dst, 1, 1))
            .unwrap();
        assert!(net
            .try_inject(src, Packet::response(src, dst, 1, 2))
            .is_err());
        assert_eq!(net.inject_backlog(src), 2);
    }

    #[test]
    fn esid_is_staged_until_commit() {
        let mesh = Mesh::new(2, 2, &[]);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let ep = Endpoint::tile(RouterId(0));
        net.set_esid(ep, Some((Sid(3), 0)));
        assert_eq!(net.esid[net.endpoint_index(ep)].esid, None);
        net.step();
        assert_eq!(net.esid[net.endpoint_index(ep)].esid, Some((Sid(3), 0)));
    }

    #[test]
    fn multi_flit_packets_arrive_in_order_under_load() {
        let mesh = Mesh::new(4, 1, &[]);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let dst = Endpoint::tile(RouterId(3));
        for r in 0..3u16 {
            let src = Endpoint::tile(RouterId(r));
            for k in 0..4u64 {
                net.try_inject(src, Packet::response(src, dst, 3, r as u64 * 10 + k))
                    .unwrap();
            }
        }
        let got = drain_all(&mut net, 2000);
        assert!(net.is_drained());
        assert_eq!(got.len(), 3 * 4 * 3);
        // Per-packet flit order must be 0,1,2 in consumption order.
        let mut per_uid: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for (_, f) in got {
            per_uid.entry(f.packet.uid).or_default().push(f.idx);
        }
        for (uid, idxs) in per_uid {
            assert_eq!(idxs, vec![0, 1, 2], "packet {uid} flits out of order");
        }
    }

    #[test]
    fn endpoint_indexing_is_dense_and_stable() {
        let mesh = Mesh::scorpio_chip();
        let net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        assert_eq!(net.endpoint_index(Endpoint::tile(RouterId(0))), 0);
        assert_eq!(net.endpoint_index(Endpoint::tile(RouterId(35))), 35);
        assert_eq!(net.endpoint_index(Endpoint::mc(RouterId(0))), 36);
        assert_eq!(net.endpoint_index(Endpoint::mc(RouterId(35))), 39);
    }

    #[test]
    #[should_panic(expected = "MC-sourced broadcast")]
    fn mc_sourced_broadcast_on_a_concentrated_fabric_is_rejected() {
        let mut net: Network<u64> =
            Network::new(CMesh::with_corner_mcs(2, 2, 2), NocConfig::scorpio());
        let mc = Endpoint::mc(RouterId(0));
        let _ = net.try_inject(mc, Packet::broadcast_unordered(VnetId(1), mc, 0));
    }

    #[test]
    #[should_panic(expected = "no MC port")]
    fn mc_index_at_non_mc_router_panics() {
        let mesh = Mesh::scorpio_chip();
        let net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let _ = net.endpoint_index(Endpoint::mc(RouterId(1)));
    }

    #[test]
    fn broadcast_on_unordered_vnet_works() {
        // TokenB/INSO-style: broadcast without SID on the request vnet.
        let mesh = Mesh::new(3, 3, &[]);
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[0].ordered = false;
        let mut net: Network<u64> = Network::new(mesh, cfg);
        let src = Endpoint::tile(RouterId(4));
        let uid = net
            .try_inject(src, Packet::broadcast_unordered(VnetId(0), src, 7))
            .unwrap();
        drain_all(&mut net, 300);
        assert!(net.is_drained());
        assert_eq!(net.deliveries(uid), 8);
    }

    #[test]
    fn dest_debug_formats() {
        let d = Dest::Broadcast;
        assert!(format!("{d:?}").contains("Broadcast"));
    }

    #[test]
    fn cmesh_broadcast_reaches_every_endpoint_including_siblings() {
        // 4 routers x 2 tiles + 4 MC ports = 12 endpoints. A broadcast
        // from tile slot 1 of router 0 must reach its *sibling* slot 0
        // (through the router, not the mesh), every remote slot, and every
        // MC port — 11 copies, each exactly once.
        let cm = CMesh::with_corner_mcs(2, 2, 2);
        let mut net: Network<u64> = Network::new(cm, NocConfig::scorpio());
        let src = Endpoint::tile_slot(RouterId(0), 1);
        let uid = net
            .try_inject(src, Packet::request(src, Sid(1), 0, 77))
            .unwrap();
        let got = drain_all(&mut net, 400);
        assert!(net.is_drained(), "cmesh failed to drain");
        assert_eq!(net.deliveries(uid), 11);
        let mut seen = std::collections::HashSet::new();
        for (ep, f) in &got {
            assert_eq!(f.packet.payload, 77);
            assert!(seen.insert(*ep), "duplicate delivery at {ep}");
        }
        assert!(!seen.contains(&src), "source must self-deliver via NIC");
        assert!(
            seen.contains(&Endpoint::tile(RouterId(0))),
            "sibling slot 0 of the source router missed the broadcast"
        );
    }

    #[test]
    fn cmesh_unicast_targets_the_exact_slot() {
        let cm = CMesh::with_corner_mcs(2, 2, 4);
        let mut net: Network<u64> = Network::new(cm, NocConfig::scorpio());
        let src = Endpoint::tile_slot(RouterId(0), 0);
        let dst = Endpoint::tile_slot(RouterId(3), 2);
        net.try_inject(src, Packet::response(src, dst, 3, 9))
            .unwrap();
        let got = drain_all(&mut net, 300);
        assert!(net.is_drained());
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(ep, _)| *ep == dst), "wrong slot ejected");
    }

    #[test]
    fn cmesh_heavy_random_traffic_drains_without_loss() {
        use scorpio_sim::SimRng;
        let cm = CMesh::with_corner_mcs(3, 2, 2);
        let mut net: Network<u64> = Network::new(cm, NocConfig::scorpio());
        let mut rng = SimRng::seed_from(99);
        let eps: Vec<Endpoint> = net.topology().endpoints().collect();
        let n_tiles = net.topology().tile_count();
        let mut injected = 0u64;
        for cycle in 0..4000u64 {
            if cycle < 1500 {
                for (i, &ep) in eps.iter().enumerate() {
                    if rng.chance(0.05) {
                        let to = eps[rng.gen_range_usize(eps.len())];
                        let pkt = if ep.slot.is_tile() && rng.chance(0.4) {
                            Packet::request(ep, Sid(i as u16), cycle as u16, cycle)
                        } else if to != ep {
                            Packet::response(ep, to, 3, cycle)
                        } else {
                            continue;
                        };
                        if net.try_inject(ep, pkt).is_ok() {
                            injected += 1;
                        }
                    }
                }
            }
            for idx in 0..eps.len() {
                for vc in set_bits(net.eject_vcs(idx)) {
                    net.eject_take_vc(idx, vc);
                }
            }
            net.step();
            if cycle > 1500 && net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "cmesh wedged under random traffic");
        assert!(injected > 100, "too little traffic");
        assert_eq!(n_tiles, 12);
    }

    #[test]
    fn broadcast_reaches_everyone_on_torus_and_ring() {
        for topo in [
            Torus::square_with_corner_mcs(4),
            Ring::with_spread_mcs(16, 4),
        ] {
            let n_eps = topo.endpoints().count();
            let mut net: Network<u64> = Network::new(topo.clone(), NocConfig::scorpio());
            let src = Endpoint::tile(RouterId(5));
            let uid = net
                .try_inject(src, Packet::request(src, Sid(5), 0, 99))
                .unwrap();
            let got = drain_all(&mut net, 600);
            assert!(net.is_drained(), "{} failed to drain", topo.label());
            assert_eq!(net.deliveries(uid) as usize, n_eps - 1, "{}", topo.label());
            let mut seen = std::collections::HashSet::new();
            for (ep, _) in &got {
                assert!(seen.insert(*ep), "duplicate delivery at {ep}");
            }
        }
    }

    #[test]
    fn torus_unicast_takes_the_wraparound_shortcut() {
        // 0 -> 3 on a 4x4 torus is one hop west; the mesh needs three east.
        let run = |topo: Topology| -> f64 {
            let mut cfg = NocConfig::scorpio();
            cfg.track_deliveries = false;
            let mut net: Network<u64> = Network::new(topo, cfg);
            let src = Endpoint::tile(RouterId(0));
            let dst = Endpoint::tile(RouterId(3));
            net.try_inject(src, Packet::response(src, dst, 1, 1))
                .unwrap();
            drain_all(&mut net, 200);
            net.stats().packet_latency().mean()
        };
        let mesh_lat = run(Mesh::new(4, 4, &[]));
        let torus_lat = run(Torus::new(4, 4, &[]));
        assert!(
            torus_lat < mesh_lat,
            "wrap link unused: torus {torus_lat} >= mesh {mesh_lat}"
        );
    }

    #[test]
    fn heavy_random_traffic_drains_on_wraparound_fabrics() {
        use scorpio_sim::SimRng;
        for topo in [
            Torus::square_with_corner_mcs(4),
            Ring::with_spread_mcs(12, 4),
        ] {
            let mut net: Network<u64> = Network::new(topo.clone(), NocConfig::scorpio());
            let mut rng = SimRng::seed_from(4321);
            let eps: Vec<Endpoint> = net.topology().endpoints().collect();
            let mut injected = 0u64;
            for cycle in 0..4000u64 {
                if cycle < 1500 {
                    for &ep in &eps {
                        if rng.chance(0.05) {
                            let to = eps[rng.gen_range_usize(eps.len())];
                            let pkt = if ep.slot.is_tile() && rng.chance(0.4) {
                                Packet::request(ep, Sid(ep.router.0), cycle as u16, cycle)
                            } else if to != ep {
                                Packet::response(ep, to, 3, cycle)
                            } else {
                                continue;
                            };
                            if net.try_inject(ep, pkt).is_ok() {
                                injected += 1;
                            }
                        }
                    }
                }
                for idx in 0..eps.len() {
                    for vc in set_bits(net.eject_vcs(idx)) {
                        net.eject_take_vc(idx, vc);
                    }
                }
                net.step();
                if cycle > 1500 && net.is_drained() {
                    break;
                }
            }
            assert!(
                net.is_drained(),
                "{} wedged under random traffic (dateline classes broken?)",
                topo.label()
            );
            assert!(injected > 100, "too little traffic on {}", topo.label());
        }
    }

    /// Recounts the census from the committed ESIDs.
    fn recount(net: &Network<u64>) -> Vec<u32> {
        let mut count = vec![0; net.esid.len()];
        for slot in &net.esid {
            if let Some((sid, _)) = slot.esid {
                count[sid.index()] += 1;
            }
        }
        count
    }

    /// The census is what `any_expects` reads, so after every commit each
    /// SID's count must equal a recount of the committed ESIDs — with
    /// several updates staged per cycle, the same endpoint staged twice,
    /// and ESIDs withdrawn.
    #[test]
    fn esid_census_matches_a_recount_after_every_commit() {
        use scorpio_sim::SimRng;
        for topo in [
            Mesh::square_with_corner_mcs(4),
            CMesh::with_corner_mcs(8, 8, 4),
        ] {
            let mut net: Network<u64> = Network::new(topo.clone(), NocConfig::scorpio());
            let eps: Vec<Endpoint> = topo.endpoints().collect();
            let n_tiles = topo.tile_count();
            let mut rng = SimRng::seed_from(40);
            for _ in 0..2_000 {
                for _ in 0..rng.gen_range_usize(6) {
                    let ep = eps[rng.gen_range_usize(eps.len())];
                    // A few SIDs, so counts above one are common.
                    let sid = Sid(rng.gen_range_usize(n_tiles.min(6)) as u16);
                    let esid = rng
                        .chance(0.8)
                        .then_some((sid, rng.gen_range_u64(4) as u16));
                    net.set_esid(ep, esid);
                }
                net.commit();
                let census: Vec<u32> = net.esid.iter().map(|s| s.expecting).collect();
                assert_eq!(census, recount(&net), "{}", topo.label());
            }
        }
    }

    /// The census only skips rVC checks that would have failed: with every
    /// SID's count lifted by one, so that `any_expects` always holds, the
    /// routers make the same SA-I choices, the same grants and the same
    /// VC allocations on every cycle of saturating broadcast traffic.
    #[test]
    fn census_gate_changes_no_sa_i_winner_or_grant() {
        use scorpio_sim::SimRng;
        let obs = ObsConfig {
            counters: false,
            trace: Some(usize::MAX),
            window_cycles: 0,
        };
        for topo in [
            Mesh::square_with_corner_mcs(4),
            CMesh::with_corner_mcs(2, 2, 4),
        ] {
            let build = || {
                let mut net: Network<u64> = Network::new(topo.clone(), NocConfig::scorpio());
                net.set_observability(0, Some(obs));
                net
            };
            let (mut census, mut always) = (build(), build());
            for slot in &mut always.esid {
                slot.expecting = 1;
            }
            let eps: Vec<Endpoint> = topo.endpoints().collect();
            let tiles: Vec<Endpoint> = eps.iter().copied().filter(|e| e.slot.is_tile()).collect();
            let mut seq = vec![0u16; eps.len()];
            let mut rng = SimRng::seed_from(7);
            for cycle in 0..3_000u64 {
                for &ep in &tiles {
                    if rng.chance(0.08) {
                        let i = census.endpoint_index(ep);
                        let pkt = Packet::request(ep, Sid(i as u16), seq[i], cycle);
                        let a = census.try_inject(ep, pkt).is_ok();
                        assert_eq!(a, always.try_inject(ep, pkt).is_ok());
                        seq[i] += u16::from(a);
                    }
                }
                // ESIDs name the recent requests of the first half of the
                // tiles only, so both census branches are taken.
                for _ in 0..4 {
                    let ep = eps[rng.gen_range_usize(eps.len())];
                    let src = census.endpoint_index(tiles[rng.gen_range_usize(tiles.len() / 2)]);
                    let back = rng.gen_range_u64(12) as u16;
                    let esid = rng
                        .chance(0.9)
                        .then_some((Sid(src as u16), seq[src].saturating_sub(back)));
                    census.set_esid(ep, esid);
                    always.set_esid(ep, esid);
                }
                for net in [&mut census, &mut always] {
                    for idx in 0..eps.len() {
                        for vc in set_bits(net.eject_vcs(idx)) {
                            net.eject_take_vc(idx, vc);
                        }
                    }
                    net.step();
                }
                for r in 0..topo.router_count() {
                    assert_eq!(
                        census.routers.registers(r),
                        always.routers.registers(r),
                        "{}: router {r} diverged at cycle {cycle}",
                        topo.label()
                    );
                }
            }
            let trace = |net: &Network<u64>| {
                let events = net.obs().and_then(|o| o.events.as_ref()).expect("tracing");
                events.stream().0.to_vec()
            };
            let events = trace(&census);
            assert_eq!(events, trace(&always), "{}: grants diverged", topo.label());
            let cfg = NocConfig::scorpio();
            let rvc_grants = events
                .iter()
                .filter(|e| {
                    let v = &cfg.vnets[e.vnet as usize];
                    e.kind == TraceKind::VcAlloc && v.ordered && e.vc == v.rvc_index()
                })
                .count();
            assert!(rvc_grants > 10, "{}: {rvc_grants} rVC grants", topo.label());
        }
    }

    /// A wedged fabric's post-mortem says why each resident VC is stuck: on
    /// a 2×2 mesh flooded with broadcasts whose endpoints never consume, the
    /// ejection buffers fill, the local outputs run out of VCs, and every
    /// plane dumps input VCs stalled in VC allocation.
    #[test]
    fn post_mortem_names_the_blocked_vcs_on_every_plane() {
        let planes = std::num::NonZeroUsize::new(2).expect("non-zero");
        let mut net: MultiNetwork<u64> =
            MultiNetwork::new(Mesh::new(2, 2, &[]), NocConfig::scorpio(), planes, 0);
        for addr in 0..200u64 {
            for r in 0..4u16 {
                let src = Endpoint::tile(RouterId(r));
                // A full injection queue refuses the copy; the flood goes on.
                let _ = net.try_inject(src, Packet::broadcast_unordered(VnetId(0), src, addr));
            }
            net.step();
        }
        let dump = net.debug_dump();
        for p in 0..2 {
            let section = dump
                .split(&format!("plane {p}\n"))
                .nth(1)
                .unwrap_or_else(|| panic!("no plane {p} section in:\n{dump}"));
            let section = section.split("plane ").next().expect("a section");
            assert!(
                section.contains(" vc-alloc: "),
                "plane {p} names no VC-allocation stall:\n{dump}"
            );
        }
    }
}
