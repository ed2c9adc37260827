//! The SCORPIO main-network router (Figure 2).
//!
//! A three-stage virtual-channel router:
//!
//! 1. **BW + SA-I** — arriving flits are buffered while arbitrating among
//!    the input port's VCs for the crossbar input slot;
//! 2. **SA-O + VS** — SA-I winners arbitrate per crossbar output port and
//!    select a free VC at the next router;
//! 3. **ST** — winners traverse the crossbar; flits spend the following
//!    cycle on the link.
//!
//! Three optimizations from the paper are modelled faithfully:
//!
//! * **Lookahead bypassing**: a lookahead is emitted during a flit's ST
//!   stage and processed by the next router one cycle before the flit
//!   arrives; if it wins switch allocation (all-or-nothing for its whole
//!   output set) and a downstream VC, the flit skips straight to ST —
//!   a single-cycle router traversal. Lookaheads beat buffered flits,
//!   except flits in reserved VCs which beat lookaheads.
//! * **Single-cycle multicast**: a broadcast flit forks through every
//!   granted output port in the same cycle; ungranted branches retry.
//! * **Reserved VC (rVC) deadlock avoidance**: each ordered-vnet input port
//!   has one extra VC allocatable only to the request whose SID equals the
//!   ESID of a NIC local to the downstream router.
//!
//! Point-to-point ordering is enforced with per-output-port SID trackers:
//! a request cannot be allocated toward an output while another request
//! with the same SID occupies a VC of the downstream input port.
//!
//! One function, `Router::grantable`, states which outputs a packet may
//! be given: a free VC of its class, or the rVC when a NIC there expects
//! exactly this request, and never while a same-SID request holds a VC
//! there. SA-I, SA-O and the lookahead bypass all ask it, and every
//! downstream VC they take goes through `Router::take_vc`.
//!
//! Every packet goes through one input-VC state machine: a broadcast
//! flit forks through each granted output, and a multi-flit unicast is
//! the one-output case whose later flits reuse the downstream VC its head
//! was allocated, needing only a credit.
//!
//! Every router of a network lives in one [`Routers`]: network-level
//! arrays built once, at construction — fixed-size per-router registers,
//! input-VC control state `[router][port][vc]`, one slab holding every
//! input VC's flit ring, and one [`Downstream`] row per `[router][output
//! port]` — so a network costs the same handful of allocations whatever
//! its router count. A tick borrows one router's share as a [`Router`],
//! together with the [`TickCtx`] every stage reads and the plane's
//! observability sink, so the stages take only their own arguments.

use crate::arbiter::{set_bits, RotatingArbiter};
use crate::config::NocConfig;
use crate::flit::{Flit, Payload, Sid};
use crate::obs::NetObs;
use crate::tables::{RouteCtx, RoutingTables, VcClass};
use crate::topology::{Port, PortMask, RouterId};

/// A flit arriving at an input port, tagged with the VC the upstream VS
/// stage allocated for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitArrival<T> {
    pub(crate) port: Port,
    pub(crate) vc: u8,
    pub(crate) flit: Flit<T>,
}

/// A lookahead: the control information of a single-flit packet, arriving
/// one cycle ahead of the flit itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaArrival<T> {
    pub(crate) port: Port,
    pub(crate) flit: Flit<T>,
}

/// A credit returning from the downstream input port attached to `out_port`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditArrival {
    pub(crate) out_port: Port,
    pub(crate) vnet: u8,
    pub(crate) vc: u8,
    /// Tail left the downstream buffer: the VC is free for a new packet.
    pub(crate) dealloc: bool,
}

/// Everything a router emits during one tick; the network stages these onto
/// the appropriate wires.
#[derive(Debug)]
pub(crate) enum RouterOut<T> {
    /// A flit traversed the crossbar through `out_port` into downstream
    /// VC `vc` (arrives in two cycles: one ST edge + one link stage).
    Flit {
        out_port: Port,
        vc: u8,
        flit: Flit<T>,
    },
    /// A lookahead for `flit`, sent during its ST stage (arrives next cycle).
    La { out_port: Port, flit: Flit<T> },
    /// A buffer slot at input `in_port` was freed; return credit upstream.
    CreditUp {
        in_port: Port,
        vnet: u8,
        vc: u8,
        dealloc: bool,
    },
}

/// Answers "may SID `s` use the reserved VC of the input port downstream of
/// (`router`, `out_port`)?" — true when `s` equals the ESID of a NIC local
/// to the downstream node.
pub(crate) trait EsidOracle {
    /// Whether some NIC on the plane expects a request from `sid` at all.
    /// `rvc_eligible` is false everywhere unless this holds, so
    /// `grantable` and `take_vc` ask this first: under saturation the rVC
    /// stays open and most blocked requests are ones no NIC expects yet.
    fn any_expects(&self, sid: Sid) -> bool;
    fn rvc_eligible(&self, router: RouterId, out_port: Port, sid: Sid, seq: u16) -> bool;
}

/// What every stage of a router tick reads and none writes: the routing
/// context, the configuration and the ESID oracle. The network builds one
/// per pass over its routers.
pub(crate) struct TickCtx<'a, E> {
    pub(crate) route: RouteCtx<'a>,
    pub(crate) cfg: &'a NocConfig,
    pub(crate) esid: &'a E,
}

const MAX_VNETS: usize = NocConfig::MAX_VNETS;

/// The buffer depth of every VC of an input port, in flat order (vnet
/// `n`'s VC `c` at the VCs of the vnets before it, plus `c`).
pub(crate) fn flat_depths(cfg: &NocConfig) -> impl Iterator<Item = usize> + Clone + '_ {
    cfg.vnets
        .iter()
        .flat_map(|v| std::iter::repeat_n(usize::from(v.depth), v.total_vcs()))
}

/// A bounded FIFO ring of `depth` slots from `base` in a slab of
/// `Option<E>` shared with other rings. Slots outside the live region are
/// `None`, so the front of an empty ring reads as `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabRing {
    base: u32,
    depth: u32,
    head: u32,
    len: u32,
}

impl SlabRing {
    /// One ring per entry of `depths`, the whole list `groups` times, laid
    /// back to back from slot 0: the rings of a slab of `groups · Σ depths`
    /// slots.
    pub(crate) fn carve(
        groups: usize,
        depths: impl Iterator<Item = usize> + Clone,
    ) -> impl Iterator<Item = SlabRing> {
        let mut base = 0;
        std::iter::repeat_n(depths, groups)
            .flatten()
            .map(move |depth| {
                let ring = SlabRing {
                    base,
                    depth: depth as u32,
                    head: 0,
                    len: 0,
                };
                base += depth as u32;
                ring
            })
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == self.depth
    }

    /// Appends `e` at the back.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full: the credits (or the queue bound) that
    /// size it were violated.
    pub(crate) fn push<E>(&mut self, slab: &mut [Option<E>], e: E) {
        assert!(!self.is_full(), "ring overflow: credits violated");
        let at = (self.head + self.len) % self.depth;
        slab[(self.base + at) as usize] = Some(e);
        self.len += 1;
    }

    pub(crate) fn front<'s, E>(&self, slab: &'s [Option<E>]) -> Option<&'s E> {
        slab[(self.base + self.head) as usize].as_ref()
    }

    pub(crate) fn pop<E>(&mut self, slab: &mut [Option<E>]) -> Option<E> {
        let e = slab[(self.base + self.head) as usize].take()?;
        self.head = (self.head + 1) % self.depth;
        self.len -= 1;
        Some(e)
    }

    /// The live entries, front to back.
    pub(crate) fn iter<'s, E>(&self, slab: &'s [Option<E>]) -> impl Iterator<Item = &'s E> {
        let r = *self;
        (0..r.len).filter_map(move |i| slab[(r.base + (r.head + i) % r.depth) as usize].as_ref())
    }
}

/// Credit/VC bookkeeping for a set of downstream input ports, one row per
/// port, as seen from upstream: per output port of every router, and per
/// endpoint on the NIC injection path.
///
/// A row is flat — one credit counter and one SID slot per VC, vnet `n`'s
/// VC `c` at `base[n] + c` — plus two bit-per-VC words per vnet, so the
/// allocation questions are word operations. All rows live in four arrays
/// sized from the configuration at build, which also fixes each vnet's
/// regular-VC count, ordering and buffer depth.
#[derive(Debug, Clone)]
pub(crate) struct Downstream {
    vnets: usize,
    port_vcs: usize,
    /// Flat index of each vnet's VC 0; one extra entry closes the last row.
    base: [u8; MAX_VNETS + 1],
    /// Regular VCs per vnet; an ordered vnet's rVC is VC `vcs`.
    vcs: [u8; MAX_VNETS],
    /// Whether each vnet is ordered (tracks SIDs, has an rVC).
    ordered: [bool; MAX_VNETS],
    /// Buffer depth of each vnet's VCs.
    depth: [u8; MAX_VNETS],
    /// `[row][vnet]`, bit `c`: VC `c` is not currently owned by a packet.
    free: Vec<u16>,
    /// `[row][vnet]`, bit `c`: VC `c` is free *and* holds a credit, i.e.
    /// VS can allocate it. Every mutator below keeps
    /// `ok ≡ free ∧ credits > 0`.
    ok: Vec<u16>,
    /// `[row][flat VC]`: free buffer slots.
    credits: Vec<u8>,
    /// `[row][flat VC]`: SID tracker (ordered vnets).
    sids: Vec<Option<Sid>>,
}

impl Downstream {
    pub(crate) fn new(cfg: &NocConfig, rows: usize) -> Self {
        let vnets = cfg.vnets.len();
        let mut base = [0; MAX_VNETS + 1];
        let mut all = [0u16; MAX_VNETS];
        let (mut vcs, mut ordered, mut depth) =
            ([0; MAX_VNETS], [false; MAX_VNETS], [0; MAX_VNETS]);
        for (n, v) in cfg.vnets.iter().enumerate() {
            all[n] = ((1u32 << v.total_vcs()) - 1) as u16;
            base[n + 1] = base[n] + v.total_vcs() as u8;
            (vcs[n], ordered[n], depth[n]) = (v.vcs, v.ordered, v.depth);
        }
        let port_vcs = usize::from(base[vnets]);
        let mut free = Vec::with_capacity(rows * vnets);
        let mut credits = Vec::with_capacity(rows * port_vcs);
        for _ in 0..rows {
            free.extend_from_slice(&all[..vnets]);
            credits.extend(flat_depths(cfg).map(|d| d as u8));
        }
        Downstream {
            vnets,
            port_vcs,
            base,
            vcs,
            ordered,
            depth,
            ok: free.clone(),
            free,
            credits,
            sids: vec![None; rows * port_vcs],
        }
    }

    /// Index of `row`'s word of `vnet`.
    #[inline]
    fn word(&self, row: usize, vnet: u8) -> usize {
        row * self.vnets + vnet as usize
    }

    /// Index of `row`'s credit and SID slot of (`vnet`, `vc`).
    #[inline]
    fn flat(&self, row: usize, vnet: u8, vc: u8) -> usize {
        row * self.port_vcs + usize::from(self.base[vnet as usize] + vc)
    }

    pub(crate) fn on_credit(&mut self, row: usize, vnet: u8, vc: u8, dealloc: bool) {
        let (w, c) = (self.word(row, vnet), self.flat(row, vnet, vc));
        self.credits[c] += 1;
        debug_assert!(self.credits[c] <= self.depth[vnet as usize]);
        if dealloc {
            self.free[w] |= 1 << vc;
            self.sids[c] = None;
        }
        self.ok[w] |= self.free[w] & (1 << vc);
    }

    /// Whether a request with `sid` is already in flight to / buffered at
    /// the downstream input port of `row` (point-to-point ordering
    /// constraint).
    pub(crate) fn sid_in_flight(&self, row: usize, vnet: u8, sid: Sid) -> bool {
        let (n, at) = (vnet as usize, row * self.port_vcs);
        let vcs = at + usize::from(self.base[n])..at + usize::from(self.base[n + 1]);
        self.sids[vcs].contains(&Some(sid))
    }

    /// Whether VS could allocate a regular VC of `class` right now.
    /// `class` restricts the regular-VC pool to the flit's dateline
    /// partition on wraparound topologies ([`VcClass::Any`] on a mesh).
    pub(crate) fn regular_open(&self, row: usize, vnet: u8, class: VcClass) -> bool {
        self.ok[self.word(row, vnet)] & class.regular_mask(self.vcs[vnet as usize]) != 0
    }

    /// Whether the reserved VC is allocatable (never on an unordered vnet,
    /// whose bit `vcs` does not exist).
    pub(crate) fn rvc_open(&self, row: usize, vnet: u8) -> bool {
        u32::from(self.ok[self.word(row, vnet)]) >> self.vcs[vnet as usize] & 1 != 0
    }

    /// VS: allocates a VC for a new packet — the lowest open regular VC of
    /// `class`, else the rVC if it is open and `rvc_ok` — consuming one
    /// credit. `rvc_ok` is only evaluated when the regular pool is closed,
    /// which is the only case where it can change the answer.
    pub(crate) fn alloc_vc(
        &mut self,
        row: usize,
        vnet: u8,
        sid: Option<Sid>,
        class: VcClass,
        rvc_ok: impl FnOnce() -> bool,
    ) -> Option<u8> {
        let (w, n) = (self.word(row, vnet), vnet as usize);
        let regular = self.ok[w] & class.regular_mask(self.vcs[n]);
        let vc = if regular != 0 {
            regular.trailing_zeros() as u8
        } else if self.rvc_open(row, vnet) && rvc_ok() {
            self.vcs[n]
        } else {
            return None;
        };
        let c = self.flat(row, vnet, vc);
        self.free[w] &= !(1 << vc);
        self.ok[w] &= !(1 << vc);
        self.credits[c] -= 1;
        if self.ordered[n] {
            self.sids[c] = sid;
        }
        Some(vc)
    }

    pub(crate) fn has_credit(&self, row: usize, vnet: u8, vc: u8) -> bool {
        self.credits[self.flat(row, vnet, vc)] > 0
    }

    /// Spends a credit of a VC the caller's packet already owns (so its
    /// `ok` bit is clear and stays clear).
    pub(crate) fn take_credit(&mut self, row: usize, vnet: u8, vc: u8) {
        debug_assert!(self.has_credit(row, vnet, vc));
        debug_assert_eq!(self.free[self.word(row, vnet)] & (1 << vc), 0);
        let c = self.flat(row, vnet, vc);
        self.credits[c] -= 1;
    }
}

/// State of one virtual channel at an input port. Holds at most one packet
/// at a time (VCs are reallocated only after the tail departs downstream);
/// whether one is resident is the VC's bit in [`RouterCore::active`].
/// The front flit leaves once `remaining` is empty, which is then
/// re-armed to `held` for the next flit, but only while one is present.
#[derive(Debug, Clone, Copy)]
struct VcState {
    /// The VC's flits, a ring in [`Routers::slab`].
    ring: SlabRing,
    /// The resident packet's SID and per-source sequence number, if it is
    /// an ordered request (always a single flit).
    order: Option<(Sid, u16)>,
    /// Outputs the front flit still needs.
    remaining: PortMask,
    /// Outputs granted to the front flit, for ST next cycle.
    granted: PortMask,
    /// Outputs whose downstream VC the packet owns: a later flit toward
    /// one needs only a credit.
    held: PortMask,
    /// Downstream VC per held output port.
    grant_vcs: [u8; Port::COUNT],
    /// Dateline class-1 bit per output port of the packet's route
    /// (always 0 on non-wraparound topologies).
    class_mask: u8,
}

impl VcState {
    fn new(ring: SlabRing) -> Self {
        VcState {
            ring,
            order: None,
            remaining: PortMask::EMPTY,
            granted: PortMask::EMPTY,
            held: PortMask::EMPTY,
            grant_vcs: [0; Port::COUNT],
            class_mask: 0,
        }
    }

    /// The outputs this VC may request: those of the front flit not yet
    /// granted, or, once the front is fully granted and a flit waits
    /// behind it, the held outputs that flit will take — so a stream
    /// requests its next flit while the current one is on its way and
    /// keeps one flit per cycle. Empty while the ring is empty mid-packet
    /// (`remaining` is re-armed only when a flit is present).
    #[inline]
    fn pending(&self) -> PortMask {
        let pending = self.remaining - self.granted;
        if pending.is_empty() && self.ring.len() >= 2 {
            self.held
        } else {
            pending
        }
    }

    /// Why an active, non-requesting VC is not progressing — `None` when it
    /// is merely waiting on its own granted switch traversals (or on flits
    /// still upstream). An active VC with somewhere to go that *cannot
    /// even request* is stalled in VC allocation (an output it holds no VC
    /// for: no free VC in its class, or a SID conflict) or on credits (a
    /// flit whose outputs are all held).
    fn blocked_cause(&self) -> Option<Stall> {
        let pending = self.pending();
        if pending.is_empty() {
            None
        } else if (pending - self.held).is_empty() {
            Some(Stall::Credit)
        } else {
            Some(Stall::VcAlloc)
        }
    }
}

/// Stall cause of a blocked (non-requesting) input VC.
enum Stall {
    VcAlloc,
    Credit,
}

/// An input VC named the way wires and credits name it.
#[derive(Debug, Clone, Copy, Default)]
struct VcRef {
    vnet: u8,
    vc: u8,
}

/// A bypass reservation: the flit with `uid` arriving next cycle at this
/// input port goes straight to ST through `outs`, into downstream VC
/// `vcs[p]` at output `p`.
#[derive(Debug, Clone, Copy, Default)]
struct BypassRes {
    uid: u64,
    outs: PortMask,
    vcs: [u8; Port::COUNT],
}

/// What one `allocate_outputs` pass has handed out so far.
#[derive(Default)]
struct Crossbar {
    /// Output ports granted for next cycle.
    out_taken: PortMask,
    /// Input ports whose SA-I winner holds at least one grant.
    in_granted: PortMask,
    /// Input ports whose crossbar slot went to a bypassing flit.
    in_bypass: PortMask,
}

/// The port and VC layout every router of a network shares.
#[derive(Debug)]
struct Shape {
    /// Ports each router has: the prefix of [`Port::ALL`] ending after the
    /// last tile slot the topology attaches (6 on every single-tile fabric
    /// — the historical port set in its historical order, so arbitration
    /// is bit-identical there — up to 9 at concentration 4). Arbiters and
    /// port scans run over exactly this prefix.
    n_ports: usize,
    /// VCs per input port, summed over the vnets.
    port_vcs: usize,
    /// Flat index, within an input port, of each vnet's VC 0.
    vnet_base: [u8; MAX_VNETS],
    /// Flat VC index → `(vnet, vc)`: the SA-I request order.
    vc_index: [VcRef; NocConfig::MAX_VCS_PER_PORT],
    /// The flat indices that are reserved VCs.
    rvc_flat: u32,
}

/// One router's fixed-size registers: everything but its input VCs and
/// downstream rows, which live in the [`Routers`] arrays.
#[derive(Debug, Clone)]
struct RouterCore {
    /// Output ports with a downstream input port (a link, a tile slot or
    /// the MC port); the other ports' downstream rows are never touched.
    present: PortMask,
    /// Per input port, the flat VCs holding a packet.
    active: [u32; Port::COUNT],
    /// Input ports with an active VC. Only these have an SA-I requester,
    /// and an empty grant leaves an arbiter pointer untouched, so SA-I
    /// visits exactly the set bits.
    occupied_ports: PortMask,
    /// Per vnet and [`VcClass::ALL`] position, the outputs whose downstream
    /// regular pool is open; refreshed with every downstream mutation.
    open: [[PortMask; 3]; MAX_VNETS],
    /// Per vnet, the outputs whose downstream reserved VC is open.
    rvc_open: [PortMask; MAX_VNETS],
    /// SA-I pipeline register: input ports whose winner sits in a reserved
    /// VC / a regular VC, and the winning VC per input port.
    sa_i_rvc: PortMask,
    sa_i_regular: PortMask,
    sa_i_win: [VcRef; Port::COUNT],
    /// Input ports holding a bypass reservation for the next arrival.
    bypass_pending: PortMask,
    bypass_res: [BypassRes; Port::COUNT],
    /// The switch traversals scheduled for next cycle, in grant order: the
    /// input VC whose front flit goes. At most one per input port — only
    /// its SA-I winner is granted — so the first `st_len` entries are live.
    st_plan: [(Port, VcRef); Port::COUNT],
    st_len: u8,
    sa_i_arb: [RotatingArbiter; Port::COUNT],
    sa_o_arb: [RotatingArbiter; Port::COUNT],
    la_arb: RotatingArbiter,
    /// Flits written into input buffers (took the 3-stage path).
    buffered_flits: u64,
    /// Flits that bypassed straight to ST (1-stage path).
    bypassed_flits: u64,
}

impl RouterCore {
    fn new(present: PortMask, shape: &Shape) -> Self {
        RouterCore {
            present,
            active: [0; Port::COUNT],
            occupied_ports: PortMask::EMPTY,
            open: Default::default(),
            rvc_open: Default::default(),
            sa_i_rvc: PortMask::EMPTY,
            sa_i_regular: PortMask::EMPTY,
            sa_i_win: Default::default(),
            bypass_pending: PortMask::EMPTY,
            bypass_res: Default::default(),
            st_plan: [(Port::North, VcRef::default()); Port::COUNT],
            st_len: 0,
            sa_i_arb: std::array::from_fn(|_| RotatingArbiter::new(shape.port_vcs)),
            sa_o_arb: std::array::from_fn(|_| RotatingArbiter::new(shape.n_ports)),
            la_arb: RotatingArbiter::new(shape.n_ports),
            buffered_flits: 0,
            bypassed_flits: 0,
        }
    }

    /// Schedules the front flit of (`port`, `vc`) for ST next cycle.
    fn schedule_st(&mut self, port: Port, vc: VcRef) {
        self.st_plan[self.st_len as usize] = (port, vc);
        self.st_len += 1;
    }

    /// Re-derives output `port`'s bits of the vnet's open masks from the
    /// `ok` word of its downstream row `row`. Called at construction, on
    /// every credit and on every VC taken — the only mutations that move
    /// an `ok` bit — so the masks never go stale mid-tick.
    fn refresh_open(&mut self, ds: &Downstream, row: usize, port: Port, vnet: u8) {
        for (open, class) in self.open[vnet as usize].iter_mut().zip(VcClass::ALL) {
            open.set(port, ds.regular_open(row, vnet, class));
        }
        self.rvc_open[vnet as usize].set(port, ds.rvc_open(row, vnet));
    }
}

/// Every router of one network, as network-level arrays built once: the
/// per-router registers, input-VC control state `[router][port][flat VC]`,
/// one slab holding every input VC's flit ring (each as deep as its vnet's
/// `depth`), and the downstream rows `[router][output port]`.
pub(crate) struct Routers<T> {
    shape: Shape,
    cores: Vec<RouterCore>,
    /// Input VC state, `[router][port][flat VC]`.
    vcs: Vec<VcState>,
    /// Every input VC's flit ring, back to back in `vcs` order.
    slab: Vec<Option<Flit<T>>>,
    /// Downstream view per `[router][output port]`.
    downstream: Downstream,
}

impl<T: Payload> Routers<T> {
    pub(crate) fn new(tables: &RoutingTables, cfg: &NocConfig, n_routers: usize) -> Self {
        // The port set is the Port::ALL prefix covering the four cardinal
        // ports, tile slot 0, Mc, and any further tile slots the topology
        // concentrates behind a router. Single-tile fabrics get
        // n_ports == 6: the exact historical router, with identical
        // arbiter sizes and scan order.
        let n_ports = 5 + tables.concentration() as usize;
        let port_vcs: usize = cfg.vnets.iter().map(|v| v.total_vcs()).sum();
        let mut shape = Shape {
            n_ports,
            port_vcs,
            vnet_base: [0; MAX_VNETS],
            vc_index: [VcRef::default(); NocConfig::MAX_VCS_PER_PORT],
            rvc_flat: 0,
        };
        let mut flat = 0;
        for (n, vcfg) in cfg.vnets.iter().enumerate() {
            shape.vnet_base[n] = flat as u8;
            for vc in 0..vcfg.total_vcs() as u8 {
                shape.vc_index[flat] = VcRef { vnet: n as u8, vc };
                shape.rvc_flat |= u32::from(vcfg.ordered && vc == vcfg.rvc_index()) << flat;
                flat += 1;
            }
        }
        let ports = n_routers * n_ports;
        let mut vcs = Vec::with_capacity(ports * port_vcs);
        vcs.extend(SlabRing::carve(ports, flat_depths(cfg)).map(VcState::new));
        let downstream = Downstream::new(cfg, ports);
        let mut cores = Vec::with_capacity(n_routers);
        cores.extend((0..n_routers).map(|r| {
            let id = RouterId(r as u16);
            let mut present = PortMask::EMPTY;
            for &port in &Port::ALL[..n_ports] {
                let here = match port.tile_index() {
                    Some(k) => k < tables.concentration(),
                    None => match port {
                        Port::Mc => tables.has_mc(id),
                        mesh_port => tables.neighbor(id, mesh_port).is_some(),
                    },
                };
                present.set(port, here);
            }
            let mut core = RouterCore::new(present, &shape);
            for port in present.iter() {
                let row = r * n_ports + port.index();
                (0..cfg.vnets.len())
                    .for_each(|n| core.refresh_open(&downstream, row, port, n as u8));
            }
            core
        }));
        Routers {
            shape,
            cores,
            vcs,
            slab: vec![None; ports * flat_depths(cfg).sum::<usize>()],
            downstream,
        }
    }

    /// Ports per router (the same at every router of the network).
    pub(crate) fn n_ports(&self) -> usize {
        self.shape.n_ports
    }

    /// Whether router `r` can skip its tick entirely this cycle. Grants
    /// pending ST belong to resident packets, so no occupied input port
    /// means nothing is scheduled either.
    pub(crate) fn is_idle(&self, r: usize) -> bool {
        self.cores[r].occupied_ports.is_empty()
    }

    /// Whether every router is idle.
    pub(crate) fn all_idle(&self) -> bool {
        self.cores.iter().all(|c| c.occupied_ports.is_empty())
    }

    /// Router `r`'s registers — SA-I winners, ST plan, bypass
    /// reservations, arbiter pointers, open masks — for comparing runs.
    #[cfg(test)]
    pub(crate) fn registers(&self, r: usize) -> String {
        format!("{:?}", self.cores[r])
    }

    /// Resident packets across router `r`'s input VCs — the quantity the
    /// observability occupancy integral samples.
    pub(crate) fn occupancy(&self, r: usize) -> u32 {
        self.cores[r].active.iter().map(|a| a.count_ones()).sum()
    }

    /// Flits that bypassed and flits that were buffered, summed over the
    /// routers.
    pub(crate) fn flit_paths(&self) -> (u64, u64) {
        self.cores.iter().fold((0, 0), |(bypassed, buffered), c| {
            (bypassed + c.bypassed_flits, buffered + c.buffered_flits)
        })
    }

    /// One cycle of router `r`: credits → ST → arrivals (bypass/BW) →
    /// SA-O/VS → SA-I.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        r: usize,
        ctx: &TickCtx<'_, impl EsidOracle>,
        arrivals: &[FlitArrival<T>],
        las: &[LaArrival<T>],
        credits: &[CreditArrival],
        out: &mut Vec<RouterOut<T>>,
        obs: Option<&mut NetObs>,
    ) {
        let per = self.shape.n_ports * self.shape.port_vcs;
        Router {
            id: RouterId(r as u16),
            shape: &self.shape,
            core: &mut self.cores[r],
            vcs: &mut self.vcs[r * per..][..per],
            slab: &mut self.slab,
            downstream: &mut self.downstream,
            row0: r * self.shape.n_ports,
            ctx,
            obs,
        }
        .tick(arrivals, las, credits, out);
    }

    /// Renders router `r`'s occupied input VCs, each with its stall cause
    /// (`vc-alloc`, `credit`, or `granted` for one waiting on its own
    /// grant), and its busy downstream VCs, for deadlock debugging.
    pub(crate) fn debug_occupancy(&self, r: usize) -> Vec<String> {
        let (shape, core) = (&self.shape, &self.cores[r]);
        let per = shape.n_ports * shape.port_vcs;
        let vcs = &self.vcs[r * per..][..per];
        let mut lines = Vec::new();
        for port in core.occupied_ports.iter() {
            for flat in set_bits(core.active[port.index()]) {
                let state = &vcs[port.index() * shape.port_vcs + flat];
                let VcRef { vnet, vc } = shape.vc_index[flat];
                let cause = match state.blocked_cause() {
                    Some(Stall::VcAlloc) => "vc-alloc",
                    Some(Stall::Credit) => "credit",
                    None => "granted",
                };
                let front = state.ring.front(&self.slab).map(|f| {
                    format!(
                        "uid={} sid={:?} flits={}",
                        f.packet.uid,
                        f.packet.sid,
                        state.ring.len()
                    )
                });
                lines.push(format!(
                    "  in {port} v{vnet} vc{vc} {cause}: {:?} remaining={:?} granted={:?} held={:?}",
                    front, state.remaining, state.granted, state.held
                ));
            }
        }
        let ds = &self.downstream;
        for port in core.present.iter() {
            let row = r * shape.n_ports + port.index();
            let desc: Vec<String> = shape.vc_index[..shape.port_vcs]
                .iter()
                .filter(|v| ds.free[ds.word(row, v.vnet)] & (1 << v.vc) == 0)
                .map(|v| {
                    let c = ds.flat(row, v.vnet, v.vc);
                    let sid = ds.sids[c].map(|s| s.0);
                    format!("v{}vc{}:{sid:?}cr{}", v.vnet, v.vc, ds.credits[c])
                })
                .collect();
            if !desc.is_empty() {
                lines.push(format!("  out {port} busy: {}", desc.join(" ")));
            }
        }
        lines
    }
}

/// One router's share of the [`Routers`] arrays, borrowed for a tick with
/// the tick's context and the plane's observability sink.
struct Router<'a, T, E> {
    id: RouterId,
    shape: &'a Shape,
    core: &'a mut RouterCore,
    /// This router's input VCs, `port · port_vcs + flat`.
    vcs: &'a mut [VcState],
    /// The network's input flit slab (the VCs' rings index it directly).
    slab: &'a mut [Option<Flit<T>>],
    downstream: &'a mut Downstream,
    /// The downstream row of this router's port 0.
    row0: usize,
    ctx: &'a TickCtx<'a, E>,
    obs: Option<&'a mut NetObs>,
}

impl<T: Payload, E: EsidOracle> Router<'_, T, E> {
    /// Flat index of `vc` within its input port.
    #[inline]
    fn flat(&self, vc: VcRef) -> usize {
        self.shape.vnet_base[vc.vnet as usize] as usize + vc.vc as usize
    }

    #[inline]
    fn slot(&self, port: Port, vc: VcRef) -> usize {
        port.index() * self.shape.port_vcs + self.flat(vc)
    }

    /// The downstream row of output `port`.
    #[inline]
    fn row(&self, port: Port) -> usize {
        self.row0 + port.index()
    }

    /// The outputs whose regular pool is open to a packet of `vnet` whose
    /// route carries dateline class bits `class_mask`: class-free on a
    /// mesh and toward local ports, per-port C0/C1 on wraparound links.
    #[inline]
    fn open_for(&self, vnet: u8, class_mask: u8) -> PortMask {
        let [any, c0, c1] = self.core.open[vnet as usize];
        if !self.ctx.route.datelines {
            return any;
        }
        let class1 = PortMask::from_bits(u16::from(class_mask));
        (any - PortMask::CARDINAL) | (c1 & class1) | ((c0 & PortMask::CARDINAL) - class1)
    }

    /// One cycle: credits → ST → arrivals (bypass/BW) → SA-O/VS → SA-I.
    fn tick(
        &mut self,
        arrivals: &[FlitArrival<T>],
        las: &[LaArrival<T>],
        credits: &[CreditArrival],
        out: &mut Vec<RouterOut<T>>,
    ) {
        for c in credits {
            debug_assert!(
                self.core.present.contains(c.out_port),
                "credit for absent output port"
            );
            let row = self.row(c.out_port);
            self.downstream.on_credit(row, c.vnet, c.vc, c.dealloc);
            self.core
                .refresh_open(self.downstream, row, c.out_port, c.vnet);
        }
        self.execute_st(out);
        self.process_arrivals(arrivals, out);
        self.allocate_outputs(las);
        self.sa_i();
    }

    /// Stage 3: execute the switch traversals scheduled last cycle.
    fn execute_st(&mut self, out: &mut Vec<RouterOut<T>>) {
        for i in 0..self.core.st_len as usize {
            let (port, vc) = self.core.st_plan[i];
            let slot = self.slot(port, vc);
            let state = &mut self.vcs[slot];
            // The front flit STs through its granted set and leaves once
            // no output remains; the next flit, if present, needs the
            // outputs the packet holds.
            let flit = *state
                .ring
                .front(self.slab)
                .expect("granted VC lost its flit");
            let granted = std::mem::take(&mut state.granted);
            let grant_vcs = state.grant_vcs;
            state.remaining = state.remaining - granted;
            if state.remaining.is_empty() {
                state.ring.pop(self.slab);
                if !state.ring.is_empty() {
                    state.remaining = state.held;
                }
                if flit.is_tail() {
                    self.vacate(port, vc);
                }
                out.push(RouterOut::CreditUp {
                    in_port: port,
                    vnet: vc.vnet,
                    vc: vc.vc,
                    dealloc: flit.is_tail(),
                });
            }
            for p in granted.iter() {
                self.emit_flit(p, grant_vcs[p.index()], flit, out);
            }
        }
        self.core.st_len = 0;
    }

    /// The packet at (`port`, `vc`) fully departed.
    fn vacate(&mut self, port: Port, vc: VcRef) {
        let flat = self.flat(vc);
        let active = &mut self.core.active[port.index()];
        *active &= !(1 << flat);
        if *active == 0 {
            self.core.occupied_ports.remove(port);
        }
    }

    fn emit_flit(&self, out_port: Port, vc: u8, flit: Flit<T>, out: &mut Vec<RouterOut<T>>) {
        // Lookaheads accompany single-flit packets heading to mesh ports.
        if self.ctx.cfg.bypass && flit.is_single() && !out_port.is_local() {
            out.push(RouterOut::La { out_port, flit });
        }
        out.push(RouterOut::Flit { out_port, vc, flit });
    }

    /// Stage 1 (BW) or the bypass path for flits arriving this cycle.
    fn process_arrivals(&mut self, arrivals: &[FlitArrival<T>], out: &mut Vec<RouterOut<T>>) {
        for a in arrivals {
            if self.core.bypass_pending.contains(a.port) {
                self.core.bypass_pending.remove(a.port);
                let res = self.core.bypass_res[a.port.index()];
                assert_eq!(
                    res.uid, a.flit.packet.uid,
                    "bypass reservation does not match arriving flit"
                );
                // Full bypass: ST immediately; input buffer untouched, so
                // the upstream VC+credit are released right away.
                self.core.bypassed_flits += 1;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.on_bypass(
                        self.id.0 as u32,
                        a.port.index() as u8,
                        a.flit.packet.vnet.0,
                        a.flit.packet.uid,
                    );
                }
                out.push(RouterOut::CreditUp {
                    in_port: a.port,
                    vnet: a.flit.packet.vnet.0,
                    vc: a.vc,
                    dealloc: true,
                });
                for p in res.outs.iter() {
                    self.emit_flit(p, res.vcs[p.index()], a.flit, out);
                }
                continue;
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_buffered(a.flit.packet.vnet.0, a.vc);
            }
            self.buffer_flit(a);
        }
        // Unconsumed reservations expire (the LA won but we still clear
        // conservatively; arrival is guaranteed one cycle after the LA).
        self.core.bypass_pending = PortMask::EMPTY;
    }

    fn buffer_flit(&mut self, a: &FlitArrival<T>) {
        self.core.buffered_flits += 1;
        let vc = VcRef {
            vnet: a.flit.packet.vnet.0,
            vc: a.vc,
        };
        let (flat, slot) = (self.flat(vc), self.slot(a.port, vc));
        let state = &mut self.vcs[slot];
        if a.flit.is_head() {
            let active = &mut self.core.active[a.port.index()];
            assert!(
                *active & (1 << flat) == 0,
                "VC allocated while occupied (flow-control bug)"
            );
            *active |= 1 << flat;
            self.core.occupied_ports.insert(a.port);
            let arrived_on = (!a.port.is_local()).then_some(a.port);
            let routed = self.ctx.route.route(self.id, &a.flit.packet, arrived_on);
            state.class_mask = routed.classes;
            state.remaining = routed.mask;
            state.held = PortMask::EMPTY;
            state.order = a.flit.packet.sid.map(|sid| (sid, a.flit.packet.sid_seq));
        } else if state.ring.is_empty() {
            // A body flit landing after its predecessors all left.
            state.remaining = state.held;
        }
        state.ring.push(self.slab, a.flit);
    }

    /// The grant rule: which of `outs` a new packet of `vnet` — route
    /// class bits `class_mask`, SID and sequence number `order` if it is
    /// an ordered request — may be given a downstream VC at right now. An
    /// unordered packet needs an open regular VC of its class. An ordered
    /// one needs that or the rVC, which it may take only when a NIC local
    /// to the downstream node expects exactly this request, and neither
    /// while a same-SID request holds a VC there. `first_only` stops at
    /// the first such output (SA-I asks only whether the set is empty).
    ///
    /// SA-I, SA-O and the lookahead bypass all ask this one function, so
    /// they cannot disagree. `rvc_eligible` and the SID scan are reached
    /// only for an output whose pool or rVC is open. Under saturation the
    /// pool is shut and the rVC mostly open, so it is the census
    /// (`any_expects`) that keeps a blocked request to two ANDs and one
    /// load: the rVC counts only when some NIC on the plane expects the
    /// request's SID.
    ///
    /// Inlined into every caller: out of line its call cost 4–5 % of
    /// `sim_cycles_per_s` on `sat-8x8`, where SA-I asks it for every
    /// blocked VC on every cycle.
    #[inline(always)]
    fn grantable(
        &self,
        vnet: u8,
        class_mask: u8,
        order: Option<(Sid, u16)>,
        outs: PortMask,
        first_only: bool,
    ) -> PortMask {
        let open = self.open_for(vnet, class_mask);
        let Some((sid, seq)) = order else {
            return outs & open;
        };
        let esid = self.ctx.esid;
        let rvc_open = if esid.any_expects(sid) {
            self.core.rvc_open[vnet as usize]
        } else {
            PortMask::EMPTY
        };
        let mut set = PortMask::EMPTY;
        for p in (outs & (open | rvc_open)).iter() {
            if (open.contains(p) || esid.rvc_eligible(self.id, p, sid, seq))
                && !self.downstream.sid_in_flight(self.row(p), vnet, sid)
            {
                set.insert(p);
                if first_only {
                    break;
                }
            }
        }
        set
    }

    /// The outputs the packet at flat VC `flat` of `in_port` could be
    /// granted right now: those it still needs that [`Self::grantable`]
    /// admits, plus each held output (whose VC the packet owns) with a
    /// credit on that VC. SA-I asks only whether the set is non-empty
    /// (`first_only`), SA-O needs all of it.
    #[inline(always)]
    fn requestable(&self, in_port: Port, flat: usize, first_only: bool) -> PortMask {
        let state = &self.vcs[in_port.index() * self.shape.port_vcs + flat];
        let vnet = self.shape.vc_index[flat].vnet;
        if state.order.is_some() {
            // An ordered request is one flit, so none of its outputs is
            // held; reading `pending()` (the ring length) here cost 6 % on
            // `sat-8x8`.
            let pending = state.remaining - state.granted;
            return self.grantable(vnet, state.class_mask, state.order, pending, first_only);
        }
        let pending = state.pending();
        let mut set = self.grantable(
            vnet,
            state.class_mask,
            None,
            pending - state.held,
            first_only,
        );
        for p in (pending & state.held).iter() {
            let vc = state.grant_vcs[p.index()];
            set.set(p, self.downstream.has_credit(self.row(p), vnet, vc));
        }
        set
    }

    /// VS: takes a downstream VC at output `port` for the packet `uid` of
    /// `vnet` that [`Self::grantable`] admitted there — the lowest open
    /// regular VC of its class, else the rVC — refreshes the output's open
    /// masks and records the allocation. Every downstream VC a router
    /// allocates is taken here.
    fn take_vc(
        &mut self,
        port: Port,
        vnet: u8,
        order: Option<(Sid, u16)>,
        class_mask: u8,
        uid: u64,
    ) -> u8 {
        let (ctx, id, row) = (self.ctx, self.id, self.row(port));
        let class = ctx.route.class_for(class_mask, port);
        let rvc_ok = || {
            order.is_some_and(|(sid, seq)| {
                ctx.esid.any_expects(sid) && ctx.esid.rvc_eligible(id, port, sid, seq)
            })
        };
        let sid = order.map(|(sid, _)| sid);
        let dvc = self
            .downstream
            .alloc_vc(row, vnet, sid, class, rvc_ok)
            .expect("grantable admitted no VC");
        self.core.refresh_open(self.downstream, row, port, vnet);
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_vc_alloc(id.0 as u32, port.index() as u8, vnet, dvc, uid);
        }
        dvc
    }

    /// Stage 2: SA-O + VS, merged with lookahead processing. Produces the
    /// ST plan and bypass reservations for next cycle.
    fn allocate_outputs(&mut self, las: &[LaArrival<T>]) {
        let mut xbar = Crossbar::default();
        let rvc_winners = std::mem::take(&mut self.core.sa_i_rvc);
        let regular_winners = std::mem::take(&mut self.core.sa_i_regular);

        // Class 1: buffered flits in reserved VCs beat everything.
        self.grant_buffered_class(rvc_winners, &mut xbar);

        // Class 2: lookaheads, all-or-nothing, rotating priority by port.
        let la_reqs = las.iter().fold(0, |m, la| m | 1 << la.port.index());
        let order = self.core.la_arb.order(la_reqs);
        self.core.la_arb.rotate();
        for pidx in order {
            let la = las
                .iter()
                .find(|l| l.port.index() == pidx)
                .expect("LA request bitmap out of sync");
            self.try_bypass(la, &mut xbar);
        }

        // Class 3: regular buffered SA-I winners, except at input ports
        // whose crossbar slot went to a bypass flit.
        self.grant_buffered_class(regular_winners - xbar.in_bypass, &mut xbar);

        // SA-O stall accounting: an SA-I winner that did not end up owning
        // its input's crossbar slot lost stage II this cycle (to another
        // input port, or to a lookahead bypass).
        if let Some(o) = self.obs.as_deref_mut() {
            if o.counters {
                let losers = (rvc_winners | regular_winners) - xbar.in_granted;
                o.stall_sa_o += losers.len() as u64;
            }
        }
    }

    /// Grants output ports to the buffered SA-I winners of one priority
    /// class, the winners at input ports `winners`.
    ///
    /// Each winner's requestable set is taken once, up front: a grant made
    /// during the pass touches only the downstream state of the output it
    /// takes, and a taken output is never revisited, so for every output
    /// still open the up-front answer is the answer at visit time.
    fn grant_buffered_class(&mut self, winners: PortMask, xbar: &mut Crossbar) {
        // SA-O request vector per output port, one bit per input port.
        let mut reqs = [0u32; Port::COUNT];
        let mut wanted = PortMask::EMPTY;
        for in_port in winners.iter() {
            let flat = self.flat(self.core.sa_i_win[in_port.index()]);
            let wants = self.requestable(in_port, flat, false) - xbar.out_taken;
            for out_port in wants.iter() {
                reqs[out_port.index()] |= 1 << in_port.index();
            }
            wanted = wanted | wants;
        }
        for out_port in wanted.iter() {
            let winner = self.core.sa_o_arb[out_port.index()]
                .grant(reqs[out_port.index()])
                .expect("wanted output without a requester");
            let in_port = Port::ALL[winner];
            self.commit_grant(in_port, out_port);
            xbar.out_taken.insert(out_port);
            xbar.in_granted.insert(in_port);
        }
    }

    /// Applies a grant decided by SA-O to the SA-I winner at `in_port`: VS
    /// allocation + ST scheduling.
    fn commit_grant(&mut self, in_port: Port, out_port: Port) {
        let vc = self.core.sa_i_win[in_port.index()];
        let slot = self.slot(in_port, vc);
        let state = &self.vcs[slot];
        let uid = state
            .ring
            .front(self.slab)
            .expect("grant on empty VC")
            .packet
            .uid;
        if state.held.contains(out_port) {
            // A later flit toward an output whose VC the packet owns. That
            // VC's `ok` bit is clear and stays clear, so no mask moves.
            let dvc = state.grant_vcs[out_port.index()];
            self.downstream
                .take_credit(self.row(out_port), vc.vnet, dvc);
        } else {
            let (order, class_mask) = (state.order, state.class_mask);
            let dvc = self.take_vc(out_port, vc.vnet, order, class_mask, uid);
            let state = &mut self.vcs[slot];
            state.grant_vcs[out_port.index()] = dvc;
            state.held.insert(out_port);
        }
        let state = &mut self.vcs[slot];
        if state.granted.is_empty() {
            self.core.schedule_st(in_port, vc);
        }
        state.granted.insert(out_port);
    }

    /// Attempts an all-or-nothing bypass setup for a lookahead: every
    /// output of its route must be untaken and grantable.
    fn try_bypass(&mut self, la: &LaArrival<T>, xbar: &mut Crossbar) {
        // The crossbar input slot must be free next cycle.
        if !self.ctx.cfg.bypass || (xbar.in_granted | xbar.in_bypass).contains(la.port) {
            return;
        }
        let packet = &la.flit.packet;
        let arrived_on = (!la.port.is_local()).then_some(la.port);
        let routed = self.ctx.route.route(self.id, packet, arrived_on);
        let (vnet, order) = (packet.vnet.0, packet.sid.map(|s| (s, packet.sid_seq)));
        if !(routed.mask & xbar.out_taken).is_empty()
            || self.grantable(vnet, routed.classes, order, routed.mask, false) != routed.mask
        {
            return;
        }
        let mut res = BypassRes {
            uid: packet.uid,
            outs: routed.mask,
            vcs: [0; Port::COUNT],
        };
        for p in routed.mask.iter() {
            res.vcs[p.index()] = self.take_vc(p, vnet, order, routed.classes, packet.uid);
        }
        xbar.out_taken = xbar.out_taken | routed.mask;
        xbar.in_bypass.insert(la.port);
        self.core.bypass_pending.insert(la.port);
        self.core.bypass_res[la.port.index()] = res;
    }

    /// Stage 1b: per input port, arbitrate among VCs for the crossbar input.
    ///
    /// A VC only *requests* the switch when it could actually progress
    /// (downstream VC/credit obtainable and no same-SID conflict). This
    /// matters most for the reserved VC, which wins SA-I outright: letting
    /// a blocked rVC flit hold the input slot would starve the port.
    fn sa_i(&mut self) {
        self.core.sa_i_rvc = PortMask::EMPTY;
        self.core.sa_i_regular = PortMask::EMPTY;
        for in_port in self.core.occupied_ports.iter() {
            let pidx = in_port.index();
            let active = self.core.active[pidx];
            let reqs = set_bits(active)
                .filter(|&flat| !self.requestable(in_port, flat, true).is_empty())
                .fold(0u32, |m, flat| m | 1 << flat);
            // Stall accounting reads only; it cannot perturb the outcome.
            if let Some(o) = self.obs.as_deref_mut() {
                if o.counters {
                    // Exactly one requester wins the port's crossbar slot.
                    o.stall_sa_i += u64::from(reqs.count_ones()).saturating_sub(1);
                    for flat in set_bits(active & !reqs) {
                        match self.vcs[pidx * self.shape.port_vcs + flat].blocked_cause() {
                            Some(Stall::VcAlloc) => o.stall_vc_alloc += 1,
                            Some(Stall::Credit) => o.stall_credit += 1,
                            None => {}
                        }
                    }
                }
            }
            // Reserved VCs win outright, lowest vnet first; regular VCs
            // share the rotating priority over the flattened VC list.
            let rvc_reqs = reqs & self.shape.rvc_flat;
            let winner = if rvc_reqs != 0 {
                self.core.sa_i_rvc.insert(in_port);
                rvc_reqs.trailing_zeros() as usize
            } else if let Some(flat) = self.core.sa_i_arb[pidx].grant(reqs) {
                self.core.sa_i_regular.insert(in_port);
                flat
            } else {
                continue;
            };
            self.core.sa_i_win[pidx] = self.shape.vc_index[winner];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Fabric, Topology};

    struct NoRvc;
    impl EsidOracle for NoRvc {
        fn any_expects(&self, _: Sid) -> bool {
            false
        }
        fn rvc_eligible(&self, _: RouterId, _: Port, _: Sid, _: u16) -> bool {
            false
        }
    }

    fn cfg() -> NocConfig {
        NocConfig::scorpio()
    }

    #[test]
    fn rings_carved_from_one_slab_wrap_independently() {
        let mut rings: Vec<SlabRing> = SlabRing::carve(2, [1usize, 3].into_iter()).collect();
        let mut slab = vec![None; 8];
        assert_eq!(
            rings.iter().map(|r| r.base).collect::<Vec<_>>(),
            [0, 1, 4, 5]
        );
        for k in 0..7u32 {
            rings[1].push(&mut slab, k);
            if rings[1].len() == 3 {
                assert!(rings[1].is_full());
                let got: Vec<u32> = rings[1].iter(&slab).copied().collect();
                assert_eq!(got, [k - 2, k - 1, k]);
                assert_eq!(rings[1].pop(&mut slab), Some(k - 2));
            }
        }
        // The neighbours never saw a write.
        assert!(rings[0].front(&slab).is_none() && rings[2].front(&slab).is_none());
        rings[2].push(&mut slab, 9);
        assert_eq!(rings[2].pop(&mut slab), Some(9));
        assert_eq!(rings[2].pop(&mut slab), None);
        assert!(rings[2].is_empty());
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn ring_overflow_panics() {
        let mut ring = SlabRing::carve(1, std::iter::once(1)).next().unwrap();
        let mut slab = vec![None; 1];
        ring.push(&mut slab, 0u8);
        ring.push(&mut slab, 1u8);
    }

    #[test]
    fn downstream_vc_allocation_prefers_regular() {
        let c = cfg();
        let mut ds = Downstream::new(&c, 1);
        // GO-REQ: 4 regular + 1 rVC.
        for expected in 0..4u8 {
            let vc = ds.alloc_vc(0, 0, Some(Sid(expected as u16)), VcClass::Any, || true);
            assert_eq!(vc, Some(expected));
        }
        // Regular exhausted: rVC only if eligible.
        let any = VcClass::Any;
        assert_eq!(ds.alloc_vc(0, 0, Some(Sid(9)), any, || false), None);
        assert_eq!(ds.alloc_vc(0, 0, Some(Sid(9)), any, || true), Some(4));
        assert_eq!(ds.alloc_vc(0, 0, Some(Sid(10)), any, || true), None);
    }

    #[test]
    fn dateline_classes_partition_the_regular_vcs() {
        let c = cfg();
        let mut ds = Downstream::new(&c, 1);
        let mut alloc = |class| ds.alloc_vc(0, 0, None, class, || false);
        // GO-REQ has 4 regular VCs: class 0 may use {0,1}, class 1 {2,3}.
        assert_eq!(alloc(VcClass::C0), Some(0));
        assert_eq!(alloc(VcClass::C1), Some(2));
        assert_eq!(alloc(VcClass::C0), Some(1));
        assert_eq!(alloc(VcClass::C0), None);
        assert!(ds.regular_open(0, 0, VcClass::C1));
        assert!(!ds.regular_open(0, 0, VcClass::C0));
        assert!(ds.rvc_open(0, 0) && !ds.rvc_open(0, 1));
        let mut alloc = |class| ds.alloc_vc(0, 0, None, class, || false);
        assert_eq!(alloc(VcClass::C1), Some(3));
        assert_eq!(alloc(VcClass::C1), None);
    }

    #[test]
    fn downstream_credit_roundtrip() {
        let c = cfg();
        let mut ds = Downstream::new(&c, 1);
        let vc = ds.alloc_vc(0, 1, None, VcClass::Any, || false).unwrap();
        assert!(ds.has_credit(0, 1, vc)); // depth 3: 2 credits left
        ds.take_credit(0, 1, vc);
        ds.take_credit(0, 1, vc);
        assert!(!ds.has_credit(0, 1, vc));
        ds.on_credit(0, 1, vc, false);
        assert!(ds.has_credit(0, 1, vc));
        // Dealloc frees the VC for reallocation.
        ds.on_credit(0, 1, vc, false);
        ds.on_credit(0, 1, vc, true);
        assert_eq!(ds.alloc_vc(0, 1, None, VcClass::Any, || false), Some(vc));
    }

    #[test]
    fn sid_tracker_blocks_same_sid() {
        let c = cfg();
        let mut ds = Downstream::new(&c, 2);
        ds.alloc_vc(1, 0, Some(Sid(5)), VcClass::Any, || false)
            .unwrap();
        assert!(ds.sid_in_flight(1, 0, Sid(5)));
        assert!(!ds.sid_in_flight(1, 0, Sid(6)));
        // The tracker is per vnet: UO-RESP's row never sees GO-REQ's SIDs.
        assert!(!ds.sid_in_flight(1, 1, Sid(5)));
        // And per row: the neighbouring port's tracker is untouched.
        assert!(!ds.sid_in_flight(0, 0, Sid(5)));
    }

    /// The invariant every allocation shortcut rests on: after any sequence
    /// of allocations, credit spends and credit returns, a VC's `ok` bit is
    /// set exactly when the VC is free and holds a credit.
    #[test]
    fn ok_bits_track_free_and_credit_under_random_traffic() {
        let c = cfg();
        let mut ds = Downstream::new(&c, 3);
        let row = 1;
        let mut rng = scorpio_sim::SimRng::seed_from(14);
        // (vnet, vc, flits still to send, flits downstream has yet to free)
        let mut owned: Vec<(u8, u8, u8, u8)> = Vec::new();
        for _ in 0..4000 {
            match rng.gen_range_usize(3) {
                0 => {
                    let vnet = rng.gen_range_usize(2) as u8;
                    let class = VcClass::ALL[rng.gen_range_usize(3)];
                    let rvc = rng.gen_range_usize(2) == 0;
                    let len = 1 + rng.gen_range_usize(c.vnets[vnet as usize].depth as usize) as u8;
                    if let Some(vc) = ds.alloc_vc(row, vnet, Some(Sid(3)), class, || rvc) {
                        owned.push((vnet, vc, len - 1, len));
                    }
                }
                1 if !owned.is_empty() => {
                    let k = rng.gen_range_usize(owned.len());
                    let (vnet, vc, to_send, _) = &mut owned[k];
                    if *to_send > 0 && ds.has_credit(row, *vnet, *vc) {
                        ds.take_credit(row, *vnet, *vc);
                        *to_send -= 1;
                    }
                }
                _ if !owned.is_empty() => {
                    let k = rng.gen_range_usize(owned.len());
                    let (vnet, vc, to_send, to_free) = owned[k];
                    // Downstream frees flits it has received; the tail's
                    // credit deallocates.
                    if to_free > to_send {
                        ds.on_credit(row, vnet, vc, to_free == 1);
                        owned[k].3 -= 1;
                        if to_free == 1 {
                            owned.swap_remove(k);
                        }
                    }
                }
                _ => {}
            }
            for (n, v) in c.vnets.iter().enumerate() {
                for vc in 0..v.total_vcs() as u8 {
                    let free = !owned.iter().any(|o| (o.0, o.1) == (n as u8, vc));
                    let want = free && ds.has_credit(row, n as u8, vc);
                    let ok = ds.ok[ds.word(row, n as u8)];
                    assert_eq!(ok >> vc & 1 == 1, want, "vnet {n} vc {vc}");
                }
            }
        }
        // The other rows never moved.
        for r in [0, 2] {
            assert_eq!(ds.ok[ds.word(r, 0)], 0b1_1111);
            assert_eq!(ds.ok[ds.word(r, 1)], 0b11);
        }
    }

    /// A mesh tick context whose oracle admits no request to an rVC.
    fn ctx<'a>(tables: &'a RoutingTables, cfg: &'a NocConfig) -> TickCtx<'a, NoRvc> {
        TickCtx {
            route: RouteCtx {
                tables,
                datelines: false,
            },
            cfg,
            esid: &NoRvc,
        }
    }

    fn routers(topo: &Topology) -> (RoutingTables, Routers<u32>) {
        let tables = RoutingTables::build(topo);
        let routers = Routers::new(&tables, &cfg(), topo.router_count());
        (tables, routers)
    }

    #[test]
    fn router_construction_ports() {
        let (_, routers) = routers(&Fabric::Mesh.topology(6));
        // NW corner: East, South, Tile, Mc.
        let corner = routers.cores[0].present;
        assert!(corner.contains(Port::East));
        assert!(corner.contains(Port::South));
        assert!(!corner.contains(Port::North));
        assert!(!corner.contains(Port::West));
        assert!(corner.contains(Port::Tile));
        assert!(corner.contains(Port::Mc));

        assert!(!routers.cores[14].present.contains(Port::Mc));
        assert!(routers.is_idle(14));
        // The arrays are shaped [router][port][vc], every ring as deep as
        // its vnet: 6 ports × (5 GO-REQ × 1 + 2 UO-RESP × 3) slots.
        assert_eq!(routers.vcs.len(), 36 * 6 * 7);
        assert_eq!(routers.slab.len(), 36 * 6 * 11);
    }

    #[test]
    fn torus_router_has_all_four_mesh_ports() {
        let (_, routers) = routers(&Fabric::Torus.topology(4));
        for port in [Port::North, Port::South, Port::East, Port::West] {
            assert!(routers.cores[0].present.contains(port), "{port}");
        }
    }

    /// A multi-flit unicast whose ring empties mid-packet: the head
    /// leaves router 14 before the body reaches it. The body, buffered
    /// into the empty ring, is not granted before the next cycle
    /// (`remaining` is re-armed only when a flit is present), and the
    /// tail, buffered behind the granted body, requests that same cycle,
    /// so the two leave on consecutive cycles.
    #[test]
    fn stream_that_empties_mid_packet_waits_for_its_next_flit() {
        use crate::flit::Packet;
        use crate::topology::Endpoint;
        let (tables, mut routers) = routers(&Fabric::Mesh.topology(6));
        let cfg = cfg();
        let ctx = ctx(&tables, &cfg);
        let r = 14;
        let (src, dest) = (Endpoint::tile(RouterId(13)), Endpoint::tile(RouterId(15)));
        let packet = Packet::response(src, dest, 3, 7u32);
        // (cycle, flit index) of each arrival on the West port, UO-RESP VC 0.
        let arrive = [(0, 0), (3, 1), (4, 2)];
        let state = {
            let shape = &routers.shape;
            let at = r * shape.n_ports + Port::West.index();
            at * shape.port_vcs + usize::from(shape.vnet_base[1])
        };
        let (mut sent, mut credits, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut lookaheads = 0;
        for cycle in 0..8 {
            let arrivals: Vec<_> = arrive
                .iter()
                .filter(|&&(at, _)| at == cycle)
                .map(|&(_, idx)| FlitArrival {
                    port: Port::West,
                    vc: 0,
                    flit: Flit { packet, idx },
                })
                .collect();
            out.clear();
            routers.tick(r, &ctx, &arrivals, &[], &[], &mut out, None);
            for ev in &out {
                match ev {
                    RouterOut::Flit { out_port, flit, .. } => {
                        assert_eq!(*out_port, Port::East);
                        sent.push((cycle, flit.idx));
                    }
                    RouterOut::CreditUp { dealloc, .. } => credits.push((cycle, *dealloc)),
                    RouterOut::La { .. } => lookaheads += 1,
                }
            }
            if cycle == 3 {
                let vc = &routers.vcs[state];
                assert!(
                    vc.granted.is_empty(),
                    "the body was granted in the cycle it landed in an empty ring"
                );
            }
            if cycle == 4 {
                assert!(
                    routers.cores[r].sa_i_regular.contains(Port::West),
                    "the tail behind a granted body did not request"
                );
            }
        }
        assert_eq!(sent, [(2, 0), (5, 1), (6, 2)], "(cycle, flit) sent East");
        assert_eq!(lookaheads, 0, "a data flit sent a lookahead");
        assert_eq!(credits, [(2, false), (5, false), (6, true)]);
        assert!(routers.is_idle(r));
    }

    /// The same-SID half of the grant rule, at router 14 of the chip: two
    /// ordered requests with one SID, both bound East. While the first
    /// holds its East VC, the second neither sets up a bypass nor requests
    /// in SA-I, though East has free VCs; the credit that deallocates
    /// that VC lets it go.
    #[test]
    fn same_sid_request_waits_for_the_first_to_release_its_vc() {
        use crate::flit::{Dest, Packet};
        use crate::topology::Endpoint;
        let (tables, mut routers) = routers(&Fabric::Mesh.topology(6));
        let cfg = cfg();
        let ctx = ctx(&tables, &cfg);
        let r = 14;
        let request = |seq: u16| Packet {
            dest: Dest::Unicast(Endpoint::tile(RouterId(15))),
            uid: u64::from(seq) + 1,
            ..Packet::request(Endpoint::tile(RouterId(13)), Sid(13), seq, 0u32)
        };
        let flit = |seq| Flit {
            packet: request(seq),
            idx: 0,
        };
        let (mut sent, mut out) = (Vec::<(u32, u64, u8)>::new(), Vec::new());
        for cycle in 0..10 {
            // Request `seq` arrives on West VC `seq`: the first on cycle 0,
            // the second on cycle 3, one cycle after its lookahead.
            let arrivals: Vec<_> = [(0, 0u16), (3, 1)]
                .into_iter()
                .filter(|&(at, _)| at == cycle)
                .map(|(_, seq)| FlitArrival {
                    port: Port::West,
                    vc: seq as u8,
                    flit: flit(seq),
                })
                .collect();
            let las: Vec<_> = (cycle == 2)
                .then(|| LaArrival {
                    port: Port::West,
                    flit: flit(1),
                })
                .into_iter()
                .collect();
            // The first request's East VC is freed on cycle 6.
            let credits: Vec<_> = (cycle == 6)
                .then(|| CreditArrival {
                    out_port: Port::East,
                    vnet: 0,
                    vc: sent[0].2,
                    dealloc: true,
                })
                .into_iter()
                .collect();
            out.clear();
            routers.tick(r, &ctx, &arrivals, &las, &credits, &mut out, None);
            for ev in &out {
                if let RouterOut::Flit { out_port, vc, flit } = ev {
                    assert_eq!(*out_port, Port::East);
                    sent.push((cycle, flit.packet.uid, *vc));
                }
            }
            let core = &routers.cores[r];
            if cycle == 2 {
                assert!(
                    !core.bypass_pending.contains(Port::West),
                    "a request bypassed while its SID holds a VC East"
                );
            }
            if (3..6).contains(&cycle) {
                assert!(
                    !(core.sa_i_regular | core.sa_i_rvc).contains(Port::West),
                    "cycle {cycle}: a request asked SA-I while its SID holds a VC East"
                );
            }
        }
        assert_eq!(
            sent.iter().map(|&(c, uid, _)| (c, uid)).collect::<Vec<_>>(),
            [(2, 1), (8, 2)],
            "(cycle, uid) sent East"
        );
        assert!(routers.is_idle(r));
    }

    #[test]
    fn idle_router_tick_emits_nothing() {
        let (tables, mut routers) = routers(&Fabric::Mesh.topology(6));
        let cfg = cfg();
        let ctx = ctx(&tables, &cfg);
        let mut out = Vec::new();
        routers.tick(14, &ctx, &[], &[], &[], &mut out, None);
        assert!(out.is_empty());
        assert!(routers.is_idle(14));
    }
}
