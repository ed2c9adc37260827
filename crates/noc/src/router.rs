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

use crate::arbiter::{set_bits, RotatingArbiter};
use crate::config::NocConfig;
use crate::flit::{Flit, Payload, Sid};
use crate::obs::NetObs;
use crate::tables::{RouteCtx, RoutingTables, VcClass};
use crate::topology::{Port, PortMask, RouterId};
use scorpio_sim::stats::Counter;
use std::collections::VecDeque;

/// A flit arriving at an input port, tagged with the VC the upstream VS
/// stage allocated for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitArrival<T> {
    pub port: Port,
    pub vc: u8,
    pub flit: Flit<T>,
}

/// A lookahead: the control information of a single-flit packet, arriving
/// one cycle ahead of the flit itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaArrival<T> {
    pub port: Port,
    pub flit: Flit<T>,
}

/// A credit returning from the downstream input port attached to `out_port`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditArrival {
    pub out_port: Port,
    pub vnet: u8,
    pub vc: u8,
    /// Tail left the downstream buffer: the VC is free for a new packet.
    pub dealloc: bool,
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
    fn rvc_eligible(&self, router: RouterId, out_port: Port, sid: Sid, seq: u16) -> bool;
}

const MAX_VNETS: usize = NocConfig::MAX_VNETS;

/// Credit/VC bookkeeping for one downstream input port, as seen from an
/// upstream output port (also used by the NIC injection path).
///
/// State is flat — one credit counter and one SID slot per VC, vnet `n`'s
/// VC `c` at `base[n] + c` — plus two bit-per-VC words per vnet, so the
/// allocation questions are word operations.
#[derive(Debug, Clone)]
pub(crate) struct DownstreamState {
    /// Per vnet, bit `c`: VC `c` is not currently owned by a packet.
    free: [u16; MAX_VNETS],
    /// Per vnet, bit `c`: VC `c` is free *and* holds a credit, i.e. VS can
    /// allocate it. Every mutator below keeps `ok ≡ free ∧ credits > 0`.
    ok: [u16; MAX_VNETS],
    /// Flat index of each vnet's VC 0; one extra entry closes the last row.
    base: [u8; MAX_VNETS + 1],
    /// Free buffer slots per VC.
    credits: Box<[u8]>,
    /// SID tracker per VC (ordered vnets).
    sids: Box<[Option<Sid>]>,
}

impl DownstreamState {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let depths = cfg
            .vnets
            .iter()
            .flat_map(|v| std::iter::repeat_n(v.depth, v.total_vcs()));
        let credits: Box<[u8]> = depths.collect();
        let mut ds = DownstreamState {
            free: [0; MAX_VNETS],
            ok: [0; MAX_VNETS],
            base: [0; MAX_VNETS + 1],
            sids: vec![None; credits.len()].into(),
            credits,
        };
        for (n, v) in cfg.vnets.iter().enumerate() {
            ds.free[n] = ((1u32 << v.total_vcs()) - 1) as u16;
            ds.ok[n] = ds.free[n];
            ds.base[n + 1] = ds.base[n] + v.total_vcs() as u8;
        }
        ds
    }

    #[inline]
    fn flat(&self, vnet: u8, vc: u8) -> usize {
        (self.base[vnet as usize] + vc) as usize
    }

    pub(crate) fn on_credit(&mut self, cfg: &NocConfig, vnet: u8, vc: u8, dealloc: bool) {
        let (n, c) = (vnet as usize, self.flat(vnet, vc));
        self.credits[c] += 1;
        debug_assert!(self.credits[c] <= cfg.vnets[n].depth);
        if dealloc {
            self.free[n] |= 1 << vc;
            self.sids[c] = None;
        }
        self.ok[n] |= self.free[n] & (1 << vc);
    }

    /// Whether a request with `sid` is already in flight to / buffered at
    /// the downstream input port (point-to-point ordering constraint).
    pub(crate) fn sid_in_flight(&self, vnet: u8, sid: Sid) -> bool {
        let n = vnet as usize;
        self.sids[self.base[n] as usize..self.base[n + 1] as usize].contains(&Some(sid))
    }

    /// Whether VS could allocate a regular VC of `class` right now.
    /// `class` restricts the regular-VC pool to the flit's dateline
    /// partition on wraparound topologies ([`VcClass::Any`] on a mesh).
    pub(crate) fn regular_open(&self, cfg: &NocConfig, vnet: u8, class: VcClass) -> bool {
        self.ok[vnet as usize] & class.regular_mask(cfg.vnets[vnet as usize].vcs) != 0
    }

    /// Whether the reserved VC is allocatable (never on an unordered vnet,
    /// whose bit `vcs` does not exist).
    pub(crate) fn rvc_open(&self, cfg: &NocConfig, vnet: u8) -> bool {
        u32::from(self.ok[vnet as usize]) >> cfg.vnets[vnet as usize].vcs & 1 != 0
    }

    /// VS: allocates a VC for a new packet — the lowest open regular VC of
    /// `class`, else the rVC if it is open and `rvc_ok` — consuming one
    /// credit. `rvc_ok` is only evaluated when the regular pool is closed,
    /// which is the only case where it can change the answer.
    pub(crate) fn alloc_vc(
        &mut self,
        cfg: &NocConfig,
        vnet: u8,
        sid: Option<Sid>,
        class: VcClass,
        rvc_ok: impl FnOnce() -> bool,
    ) -> Option<u8> {
        let n = vnet as usize;
        let vcfg = &cfg.vnets[n];
        let regular = self.ok[n] & class.regular_mask(vcfg.vcs);
        let vc = if regular != 0 {
            regular.trailing_zeros() as u8
        } else if self.rvc_open(cfg, vnet) && rvc_ok() {
            vcfg.rvc_index()
        } else {
            return None;
        };
        let c = self.flat(vnet, vc);
        self.free[n] &= !(1 << vc);
        self.ok[n] &= !(1 << vc);
        self.credits[c] -= 1;
        if vcfg.ordered {
            self.sids[c] = sid;
        }
        Some(vc)
    }

    pub(crate) fn has_credit(&self, vnet: u8, vc: u8) -> bool {
        self.credits[self.flat(vnet, vc)] > 0
    }

    /// Spends a credit of a VC the caller's packet already owns (so its
    /// `ok` bit is clear and stays clear).
    pub(crate) fn take_credit(&mut self, vnet: u8, vc: u8) {
        debug_assert!(self.has_credit(vnet, vc));
        debug_assert_eq!(self.free[vnet as usize] & (1 << vc), 0);
        self.credits[self.flat(vnet, vc)] -= 1;
    }
}

/// State of one virtual channel at an input port. Holds at most one packet
/// at a time (VCs are reallocated only after the tail departs downstream);
/// whether one is resident is the VC's bit in [`Router::active`].
#[derive(Debug, Clone)]
struct VcState<T> {
    flits: VecDeque<Flit<T>>,
    /// Whether the resident packet is a single flit (mask path) or a
    /// multi-flit unicast (stream path).
    single: bool,
    /// The resident packet's SID and per-source sequence number, if it is
    /// an ordered request.
    order: Option<(Sid, u16)>,
    /// Mask path (single-flit packets): outputs still to serve.
    remaining: PortMask,
    /// Mask path: outputs granted for ST next cycle.
    granted: PortMask,
    /// Mask path: downstream VC per granted output port.
    grant_vcs: [u8; Port::COUNT],
    /// Dateline class-1 bit per output port of the packet's route
    /// (always 0 on non-wraparound topologies).
    class_mask: u8,
    /// Stream path (multi-flit unicast): fixed output port after head VS.
    out_port: Option<Port>,
    /// Stream path: downstream VC for the whole packet.
    out_vc: u8,
    /// Stream path: flits granted for ST next cycle (0 or 1).
    granted_flits: u8,
}

impl<T> VcState<T> {
    fn new(depth: u8) -> Self {
        VcState {
            flits: VecDeque::with_capacity(depth as usize),
            single: true,
            order: None,
            remaining: PortMask::EMPTY,
            granted: PortMask::EMPTY,
            grant_vcs: [0; Port::COUNT],
            class_mask: 0,
            out_port: None,
            out_vc: 0,
            granted_flits: 0,
        }
    }
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

/// An ST operation scheduled for the next cycle.
#[derive(Debug, Clone, Copy)]
enum StOp {
    /// Mask-path flit at (`port`, `vc`) STs through its granted set.
    MaskFlit { port: Port, vc: VcRef },
    /// Stream-path: the front flit of (`port`, `vc`) STs.
    StreamFlit { port: Port, vc: VcRef },
}

/// Per-router statistics.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Flits written into input buffers (took the 3-stage path).
    pub buffered_flits: Counter,
    /// Flits that bypassed straight to ST (1-stage path).
    pub bypassed_flits: Counter,
    /// Crossbar traversals (one per output-port grant, so a 4-way fork
    /// counts 4).
    pub crossings: Counter,
    /// Lookaheads that failed to set up the bypass.
    pub la_failures: Counter,
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

pub(crate) struct Router<T> {
    id: RouterId,
    /// Ports this router actually has: the prefix of [`Port::ALL`] ending
    /// after the last tile slot the topology attaches (6 on every
    /// single-tile fabric — the historical port set in its historical
    /// order, so arbitration is bit-identical there — up to 9 at
    /// concentration 4). Arbiters and port scans run over exactly this
    /// prefix.
    n_ports: usize,
    /// VCs per input port, summed over the vnets.
    port_vcs: usize,
    /// Flat index, within an input port, of each vnet's VC 0.
    vnet_base: [u8; MAX_VNETS],
    /// Flat VC index → `(vnet, vc)`: the SA-I request order.
    vc_index: [VcRef; NocConfig::MAX_VCS_PER_PORT],
    /// The flat indices that are reserved VCs.
    rvc_flat: u32,
    /// Input VC state, `port * port_vcs + flat`.
    inputs: Vec<VcState<T>>,
    /// Per input port, the flat VCs holding a packet.
    active: [u32; Port::COUNT],
    /// Input ports with an active VC. Only these have an SA-I requester,
    /// and an empty grant leaves an arbiter pointer untouched, so SA-I
    /// visits exactly the set bits.
    occupied_ports: PortMask,
    /// Downstream credit view per output port (`None` = port absent).
    pub(crate) downstream: Vec<Option<DownstreamState>>,
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
    st_plan: Vec<StOp>,
    sa_i_arb: [RotatingArbiter; Port::COUNT],
    sa_o_arb: [RotatingArbiter; Port::COUNT],
    la_arb: RotatingArbiter,
    pub(crate) stats: RouterStats,
}

impl<T: Payload> Router<T> {
    pub(crate) fn new(tables: &RoutingTables, cfg: &NocConfig, id: RouterId) -> Self {
        // The router's port set is the Port::ALL prefix covering the four
        // cardinal ports, tile slot 0, Mc, and any further tile slots the
        // topology concentrates behind this router. Single-tile fabrics
        // get n_ports == 6: the exact historical router, with identical
        // arbiter sizes and scan order.
        let n_ports = 5 + tables.concentration() as usize;
        let port_vcs: usize = cfg.vnets.iter().map(|v| v.total_vcs()).sum();
        let mut vnet_base = [0; MAX_VNETS];
        let mut vc_index = [VcRef::default(); NocConfig::MAX_VCS_PER_PORT];
        let mut rvc_flat = 0;
        let mut flat = 0;
        for (n, vcfg) in cfg.vnets.iter().enumerate() {
            vnet_base[n] = flat as u8;
            for vc in 0..vcfg.total_vcs() as u8 {
                vc_index[flat] = VcRef { vnet: n as u8, vc };
                rvc_flat |= u32::from(vcfg.ordered && vc == vcfg.rvc_index()) << flat;
                flat += 1;
            }
        }
        let mut inputs = Vec::with_capacity(n_ports * port_vcs);
        for _ in 0..n_ports {
            for vc in &vc_index[..port_vcs] {
                inputs.push(VcState::new(cfg.vnets[vc.vnet as usize].depth));
            }
        }
        let downstream = Port::ALL[..n_ports]
            .iter()
            .map(|&port| {
                let present = match port.tile_index() {
                    Some(k) => k < tables.concentration(),
                    None => match port {
                        Port::Mc => tables.has_mc(id),
                        mesh_port => tables.neighbor(id, mesh_port).is_some(),
                    },
                };
                present.then(|| DownstreamState::new(cfg))
            })
            .collect();
        let mut router = Router {
            id,
            n_ports,
            port_vcs,
            vnet_base,
            vc_index,
            rvc_flat,
            inputs,
            active: [0; Port::COUNT],
            occupied_ports: PortMask::EMPTY,
            downstream,
            open: Default::default(),
            rvc_open: Default::default(),
            sa_i_rvc: PortMask::EMPTY,
            sa_i_regular: PortMask::EMPTY,
            sa_i_win: Default::default(),
            bypass_pending: PortMask::EMPTY,
            bypass_res: Default::default(),
            st_plan: Vec::new(),
            sa_i_arb: std::array::from_fn(|_| RotatingArbiter::new(port_vcs)),
            sa_o_arb: std::array::from_fn(|_| RotatingArbiter::new(n_ports)),
            la_arb: RotatingArbiter::new(n_ports),
            stats: RouterStats::default(),
        };
        for &port in router.ports() {
            if router.downstream[port.index()].is_some() {
                (0..cfg.vnets.len()).for_each(|n| router.refresh_open(cfg, port, n as u8));
            }
        }
        router
    }

    /// The ports this router has (a prefix of [`Port::ALL`]).
    #[inline]
    fn ports(&self) -> &'static [Port] {
        &Port::ALL[..self.n_ports]
    }

    pub(crate) fn id(&self) -> RouterId {
        self.id
    }

    /// Whether this router can skip its tick entirely this cycle. Grants
    /// pending ST belong to resident packets, so no occupied input port
    /// means nothing is scheduled either.
    pub(crate) fn is_idle(&self) -> bool {
        self.occupied_ports.is_empty()
    }

    /// Resident packets across the input VCs — the quantity the
    /// observability occupancy integral samples.
    pub(crate) fn occupancy(&self) -> u32 {
        self.active.iter().map(|a| a.count_ones()).sum()
    }

    /// Flat index of `vc` within its input port.
    #[inline]
    fn flat(&self, vc: VcRef) -> usize {
        self.vnet_base[vc.vnet as usize] as usize + vc.vc as usize
    }

    #[inline]
    fn slot(&self, port: Port, vc: VcRef) -> usize {
        port.index() * self.port_vcs + self.flat(vc)
    }

    /// Re-derives output `port`'s bits of the vnet's open masks from its
    /// downstream `ok` word. Called after every downstream mutation that
    /// can move an `ok` bit, so the masks never go stale mid-tick.
    fn refresh_open(&mut self, cfg: &NocConfig, port: Port, vnet: u8) {
        let ds = self.downstream[port.index()]
            .as_ref()
            .expect("open masks of an absent output port");
        for (open, class) in self.open[vnet as usize].iter_mut().zip(VcClass::ALL) {
            open.set(port, ds.regular_open(cfg, vnet, class));
        }
        self.rvc_open[vnet as usize].set(port, ds.rvc_open(cfg, vnet));
    }

    /// The outputs whose regular pool is open to a packet of `vnet` whose
    /// route carries dateline class bits `class_mask`: class-free on a
    /// mesh and toward local ports, per-port C0/C1 on wraparound links.
    #[inline]
    fn open_for(&self, route: &RouteCtx<'_>, vnet: u8, class_mask: u8) -> PortMask {
        let [any, c0, c1] = self.open[vnet as usize];
        if !route.datelines {
            return any;
        }
        let class1 = PortMask::from_bits(u16::from(class_mask));
        (any - PortMask::CARDINAL) | (c1 & class1) | ((c0 & PortMask::CARDINAL) - class1)
    }

    /// One cycle: credits → ST → arrivals (bypass/BW) → SA-O/VS → SA-I.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &impl EsidOracle,
        arrivals: &[FlitArrival<T>],
        las: &[LaArrival<T>],
        credits: &[CreditArrival],
        out: &mut Vec<RouterOut<T>>,
        mut obs: Option<&mut NetObs>,
    ) {
        for c in credits {
            self.downstream[c.out_port.index()]
                .as_mut()
                .expect("credit for absent output port")
                .on_credit(cfg, c.vnet, c.vc, c.dealloc);
            self.refresh_open(cfg, c.out_port, c.vnet);
        }
        self.execute_st(cfg, out);
        self.process_arrivals(route, cfg, arrivals, out, obs.as_deref_mut());
        self.allocate_outputs(route, cfg, esid, las, obs.as_deref_mut());
        self.sa_i(route, esid, obs);
    }

    /// Stage 3: execute the switch traversals scheduled last cycle.
    fn execute_st(&mut self, cfg: &NocConfig, out: &mut Vec<RouterOut<T>>) {
        for i in 0..self.st_plan.len() {
            match self.st_plan[i] {
                StOp::MaskFlit { port, vc } => {
                    let slot = self.slot(port, vc);
                    let state = &mut self.inputs[slot];
                    let flit = *state.flits.front().expect("granted VC lost its flit");
                    let granted = std::mem::take(&mut state.granted);
                    let grant_vcs = state.grant_vcs;
                    state.remaining = state.remaining - granted;
                    if state.remaining.is_empty() {
                        state.flits.pop_front();
                        self.vacate(port, vc);
                        out.push(RouterOut::CreditUp {
                            in_port: port,
                            vnet: vc.vnet,
                            vc: vc.vc,
                            dealloc: true,
                        });
                    }
                    for p in granted.iter() {
                        self.emit_flit(cfg, p, grant_vcs[p.index()], flit, out);
                    }
                }
                StOp::StreamFlit { port, vc } => {
                    let slot = self.slot(port, vc);
                    let state = &mut self.inputs[slot];
                    let flit = state.flits.pop_front().expect("granted VC lost its flit");
                    state.granted_flits = 0;
                    let out_port = state.out_port.expect("stream flit without route");
                    let out_vc = state.out_vc;
                    if flit.is_tail() {
                        state.out_port = None;
                        self.vacate(port, vc);
                    }
                    out.push(RouterOut::CreditUp {
                        in_port: port,
                        vnet: vc.vnet,
                        vc: vc.vc,
                        dealloc: flit.is_tail(),
                    });
                    self.emit_flit(cfg, out_port, out_vc, flit, out);
                }
            }
        }
        self.st_plan.clear();
    }

    /// The packet at (`port`, `vc`) fully departed.
    fn vacate(&mut self, port: Port, vc: VcRef) {
        self.active[port.index()] &= !(1 << self.flat(vc));
        if self.active[port.index()] == 0 {
            self.occupied_ports.remove(port);
        }
    }

    fn emit_flit(
        &mut self,
        cfg: &NocConfig,
        out_port: Port,
        vc: u8,
        flit: Flit<T>,
        out: &mut Vec<RouterOut<T>>,
    ) {
        self.stats.crossings.incr();
        // Lookaheads accompany single-flit packets heading to mesh ports.
        if cfg.bypass && flit.is_single() && !out_port.is_local() {
            out.push(RouterOut::La { out_port, flit });
        }
        out.push(RouterOut::Flit { out_port, vc, flit });
    }

    /// Stage 1 (BW) or the bypass path for flits arriving this cycle.
    fn process_arrivals(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        arrivals: &[FlitArrival<T>],
        out: &mut Vec<RouterOut<T>>,
        mut obs: Option<&mut NetObs>,
    ) {
        for a in arrivals {
            if self.bypass_pending.contains(a.port) {
                self.bypass_pending.remove(a.port);
                let res = self.bypass_res[a.port.index()];
                assert_eq!(
                    res.uid, a.flit.packet.uid,
                    "bypass reservation does not match arriving flit"
                );
                // Full bypass: ST immediately; input buffer untouched, so
                // the upstream VC+credit are released right away.
                self.stats.bypassed_flits.incr();
                if let Some(o) = obs.as_deref_mut() {
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
                    self.emit_flit(cfg, p, res.vcs[p.index()], a.flit, out);
                }
                continue;
            }
            if let Some(o) = obs.as_deref_mut() {
                o.on_buffered(a.flit.packet.vnet.0, a.vc);
            }
            self.buffer_flit(route, a);
        }
        // Unconsumed reservations expire (the LA won but we still clear
        // conservatively; arrival is guaranteed one cycle after the LA).
        self.bypass_pending = PortMask::EMPTY;
    }

    fn buffer_flit(&mut self, route: &RouteCtx<'_>, a: &FlitArrival<T>) {
        self.stats.buffered_flits.incr();
        let vc = VcRef {
            vnet: a.flit.packet.vnet.0,
            vc: a.vc,
        };
        let (flat, slot) = (self.flat(vc), self.slot(a.port, vc));
        let state = &mut self.inputs[slot];
        if a.flit.is_head() {
            assert!(
                self.active[a.port.index()] & (1 << flat) == 0,
                "VC allocated while occupied (flow-control bug)"
            );
            self.active[a.port.index()] |= 1 << flat;
            self.occupied_ports.insert(a.port);
            let arrived_on = (!a.port.is_local()).then_some(a.port);
            let routed = route.route(self.id, &a.flit.packet, arrived_on);
            state.class_mask = routed.classes;
            state.remaining = routed.mask;
            state.single = a.flit.is_single();
            state.order = a.flit.packet.sid.map(|sid| (sid, a.flit.packet.sid_seq));
            if state.single {
                state.granted = PortMask::EMPTY;
            } else {
                debug_assert_eq!(routed.mask.len(), 1, "multi-flit packets are unicast");
                state.out_port = None;
                state.granted_flits = 0;
            }
        }
        state.flits.push_back(a.flit);
    }

    /// The outputs the packet at flat VC `flat` of `in_port` could be
    /// granted right now: it holds a flit with somewhere to go *and* the
    /// downstream resources for that output are obtainable (a VC of its
    /// class or the rVC it is eligible for, no same-SID conflict; a credit
    /// on its VC for a routed stream). SA-I asks only whether the set is
    /// non-empty (`first_only`), SA-O needs all of it — one predicate, so
    /// the two stages cannot disagree.
    ///
    /// The saturated case costs two ANDs: `rvc_eligible` and the SID scan
    /// are reached only for an output whose pool or rVC is open.
    fn requestable(
        &self,
        route: &RouteCtx<'_>,
        esid: &impl EsidOracle,
        in_port: Port,
        flat: usize,
        first_only: bool,
    ) -> PortMask {
        let state = &self.inputs[in_port.index() * self.port_vcs + flat];
        let vnet = self.vc_index[flat].vnet;
        if !state.single {
            // Stream path: one pending ST grant at a time.
            if state.flits.len() <= state.granted_flits as usize {
                return PortMask::EMPTY;
            }
            return match state.out_port {
                // Head not yet routed: its single route needs a fresh VC.
                None => state.remaining & self.open_for(route, vnet, state.class_mask),
                Some(p) => {
                    let ds = self.downstream[p.index()].as_ref();
                    let credit = ds.is_some_and(|ds| ds.has_credit(vnet, state.out_vc));
                    if credit {
                        PortMask::single(p)
                    } else {
                        PortMask::EMPTY
                    }
                }
            };
        }
        // Mask path: the flit is resident exactly while outputs remain.
        let pending = state.remaining - state.granted;
        let open = self.open_for(route, vnet, state.class_mask);
        let Some((sid, seq)) = state.order else {
            return pending & open;
        };
        let mut set = PortMask::EMPTY;
        for p in (pending & (open | self.rvc_open[vnet as usize])).iter() {
            let ds = self.downstream[p.index()]
                .as_ref()
                .expect("open bit on an absent output port");
            if (open.contains(p) || esid.rvc_eligible(self.id, p, sid, seq))
                && !ds.sid_in_flight(vnet, sid)
            {
                set.insert(p);
                if first_only {
                    break;
                }
            }
        }
        set
    }

    /// Stage 2: SA-O + VS, merged with lookahead processing. Produces the
    /// ST plan and bypass reservations for next cycle.
    fn allocate_outputs(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &impl EsidOracle,
        las: &[LaArrival<T>],
        mut obs: Option<&mut NetObs>,
    ) {
        let mut xbar = Crossbar::default();
        let rvc_winners = std::mem::take(&mut self.sa_i_rvc);
        let regular_winners = std::mem::take(&mut self.sa_i_regular);

        // Class 1: buffered flits in reserved VCs beat everything.
        self.grant_buffered_class(route, cfg, esid, rvc_winners, &mut xbar, obs.as_deref_mut());

        // Class 2: lookaheads, all-or-nothing, rotating priority by port.
        let la_reqs = las.iter().fold(0, |m, la| m | 1 << la.port.index());
        let order = self.la_arb.order(la_reqs);
        self.la_arb.rotate();
        for pidx in order {
            let la = las
                .iter()
                .find(|l| l.port.index() == pidx)
                .expect("LA request bitmap out of sync");
            if !self.try_bypass(route, cfg, esid, la, &mut xbar, obs.as_deref_mut()) {
                self.stats.la_failures.incr();
            }
        }

        // Class 3: regular buffered SA-I winners, except at input ports
        // whose crossbar slot went to a bypass flit.
        let contenders = regular_winners - xbar.in_bypass;
        self.grant_buffered_class(route, cfg, esid, contenders, &mut xbar, obs.as_deref_mut());

        // SA-O stall accounting: an SA-I winner that did not end up owning
        // its input's crossbar slot lost stage II this cycle (to another
        // input port, or to a lookahead bypass).
        if let Some(o) = obs {
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
    #[allow(clippy::too_many_arguments)]
    fn grant_buffered_class(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &impl EsidOracle,
        winners: PortMask,
        xbar: &mut Crossbar,
        mut obs: Option<&mut NetObs>,
    ) {
        // SA-O request vector per output port, one bit per input port.
        let mut reqs = [0u32; Port::COUNT];
        let mut wanted = PortMask::EMPTY;
        for in_port in winners.iter() {
            let flat = self.flat(self.sa_i_win[in_port.index()]);
            let wants = self.requestable(route, esid, in_port, flat, false) - xbar.out_taken;
            for out_port in wants.iter() {
                reqs[out_port.index()] |= 1 << in_port.index();
            }
            wanted = wanted | wants;
        }
        for out_port in wanted.iter() {
            let winner = self.sa_o_arb[out_port.index()]
                .grant(reqs[out_port.index()])
                .expect("wanted output without a requester");
            let in_port = Port::ALL[winner];
            self.commit_grant(route, cfg, esid, in_port, out_port, obs.as_deref_mut());
            xbar.out_taken.insert(out_port);
            xbar.in_granted.insert(in_port);
        }
    }

    /// Applies a grant decided by SA-O to the SA-I winner at `in_port`: VS
    /// allocation + ST scheduling.
    fn commit_grant(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &impl EsidOracle,
        in_port: Port,
        out_port: Port,
        obs: Option<&mut NetObs>,
    ) {
        let id = self.id;
        let vc = self.sa_i_win[in_port.index()];
        let slot = self.slot(in_port, vc);
        let state = &mut self.inputs[slot];
        let uid = state.flits.front().expect("grant on empty VC").packet.uid;
        let (single, order) = (state.single, state.order);
        let ds = self.downstream[out_port.index()]
            .as_mut()
            .expect("grant toward absent port");
        if !single && state.out_port.is_some() {
            // Body flit of a routed stream: its VC is already owned.
            ds.take_credit(vc.vnet, state.out_vc);
        } else {
            let class = route.class_for(state.class_mask, out_port);
            // Only the mask path is SID-tracked and rVC-eligible.
            let order = order.filter(|_| single);
            let dvc = ds
                .alloc_vc(cfg, vc.vnet, order.map(|(sid, _)| sid), class, || {
                    order.is_some_and(|(sid, seq)| esid.rvc_eligible(id, out_port, sid, seq))
                })
                .expect("requestable guaranteed allocatability");
            if let Some(o) = obs {
                o.on_vc_alloc(id.0 as u32, out_port.index() as u8, vc.vnet, dvc, uid);
            }
            if single {
                state.grant_vcs[out_port.index()] = dvc;
            } else {
                state.out_port = Some(out_port);
                state.out_vc = dvc;
            }
        }
        if single {
            if state.granted.is_empty() {
                self.st_plan.push(StOp::MaskFlit { port: in_port, vc });
            }
            state.granted.insert(out_port);
        } else {
            state.granted_flits = 1;
            self.st_plan.push(StOp::StreamFlit { port: in_port, vc });
        }
        self.refresh_open(cfg, out_port, vc.vnet);
    }

    /// Attempts an all-or-nothing bypass setup for a lookahead.
    fn try_bypass(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &impl EsidOracle,
        la: &LaArrival<T>,
        xbar: &mut Crossbar,
        mut obs: Option<&mut NetObs>,
    ) -> bool {
        // The crossbar input slot must be free next cycle.
        if !cfg.bypass || (xbar.in_granted | xbar.in_bypass).contains(la.port) {
            return false;
        }
        let arrived_on = (!la.port.is_local()).then_some(la.port);
        let routed = route.route(self.id, &la.flit.packet, arrived_on);
        let packet = &la.flit.packet;
        let (vnet, sid, seq) = (packet.vnet.0, packet.sid, packet.sid_seq);
        // Check every output first (all-or-nothing), then allocate: each
        // must be untaken and have a VC this flit may use — a regular one
        // of its class, or the reserved one if it is eligible.
        let open = self.open_for(route, vnet, routed.classes);
        let closed = routed.mask - open;
        if !(routed.mask & xbar.out_taken).is_empty()
            || !(closed - self.rvc_open[vnet as usize]).is_empty()
        {
            return false;
        }
        let eligible = |p: Port| sid.is_some_and(|s| esid.rvc_eligible(self.id, p, s, seq));
        let conflict = |p: Port| {
            let ds = self.downstream[p.index()].as_ref();
            sid.is_some_and(|s| ds.is_some_and(|ds| ds.sid_in_flight(vnet, s)))
        };
        if routed.mask.iter().any(conflict) || !closed.iter().all(eligible) {
            return false;
        }
        let mut res = BypassRes {
            uid: packet.uid,
            outs: routed.mask,
            vcs: [0; Port::COUNT],
        };
        for p in routed.mask.iter() {
            let dvc = self.downstream[p.index()]
                .as_mut()
                .expect("checked above")
                .alloc_vc(cfg, vnet, sid, route.class_for(routed.classes, p), || true)
                .expect("checked above");
            self.refresh_open(cfg, p, vnet);
            if let Some(o) = obs.as_deref_mut() {
                o.on_vc_alloc(self.id.0 as u32, p.index() as u8, vnet, dvc, packet.uid);
            }
            res.vcs[p.index()] = dvc;
        }
        xbar.out_taken = xbar.out_taken | routed.mask;
        xbar.in_bypass.insert(la.port);
        self.bypass_pending.insert(la.port);
        self.bypass_res[la.port.index()] = res;
        true
    }

    /// Stage 1b: per input port, arbitrate among VCs for the crossbar input.
    ///
    /// A VC only *requests* the switch when it could actually progress
    /// (downstream VC/credit obtainable and no same-SID conflict). This
    /// matters most for the reserved VC, which wins SA-I outright: letting
    /// a blocked rVC flit hold the input slot would starve the port.
    fn sa_i(&mut self, route: &RouteCtx<'_>, esid: &impl EsidOracle, mut obs: Option<&mut NetObs>) {
        self.sa_i_rvc = PortMask::EMPTY;
        self.sa_i_regular = PortMask::EMPTY;
        for in_port in self.occupied_ports.iter() {
            let pidx = in_port.index();
            let active = self.active[pidx];
            let reqs = set_bits(active)
                .filter(|&flat| {
                    !self
                        .requestable(route, esid, in_port, flat, true)
                        .is_empty()
                })
                .fold(0u32, |m, flat| m | 1 << flat);
            // Stall accounting reads only; it cannot perturb the outcome.
            if let Some(o) = obs.as_deref_mut() {
                if o.counters {
                    // Exactly one requester wins the port's crossbar slot.
                    o.stall_sa_i += u64::from(reqs.count_ones()).saturating_sub(1);
                    for flat in set_bits(active & !reqs) {
                        match Self::blocked_cause(&self.inputs[pidx * self.port_vcs + flat]) {
                            Some(Stall::VcAlloc) => o.stall_vc_alloc += 1,
                            Some(Stall::Credit) => o.stall_credit += 1,
                            None => {}
                        }
                    }
                }
            }
            // Reserved VCs win outright, lowest vnet first; regular VCs
            // share the rotating priority over the flattened VC list.
            let rvc_reqs = reqs & self.rvc_flat;
            let winner = if rvc_reqs != 0 {
                self.sa_i_rvc.insert(in_port);
                rvc_reqs.trailing_zeros() as usize
            } else if let Some(flat) = self.sa_i_arb[pidx].grant(reqs) {
                self.sa_i_regular.insert(in_port);
                flat
            } else {
                continue;
            };
            self.sa_i_win[pidx] = self.vc_index[winner];
        }
    }

    /// Renders occupied input VCs and SID trackers for deadlock debugging.
    pub(crate) fn debug_occupancy(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for port in self.occupied_ports.iter() {
            for flat in set_bits(self.active[port.index()]) {
                let state = &self.inputs[port.index() * self.port_vcs + flat];
                let VcRef { vnet, vc } = self.vc_index[flat];
                let front = state.flits.front().map(|f| {
                    format!(
                        "uid={} sid={:?} flits={}",
                        f.packet.uid,
                        f.packet.sid,
                        state.flits.len()
                    )
                });
                lines.push(format!(
                    "  in {port} v{vnet} vc{vc}: {:?} remaining={:?} granted={:?} out={:?}",
                    front, state.remaining, state.granted, state.out_port
                ));
            }
        }
        for &port in self.ports() {
            let Some(ds) = &self.downstream[port.index()] else {
                continue;
            };
            let desc: Vec<String> = self.vc_index[..self.port_vcs]
                .iter()
                .filter(|v| ds.free[v.vnet as usize] & (1 << v.vc) == 0)
                .map(|v| {
                    let c = ds.flat(v.vnet, v.vc);
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

    /// Why an active, non-requesting VC is not progressing — `None` when it
    /// is merely waiting on its own granted switch traversals. An active VC
    /// with somewhere to go that *cannot even request* is stalled in VC
    /// allocation (head blocked on a free VC or a SID conflict) or on
    /// credits (body flit of a routed stream).
    fn blocked_cause(state: &VcState<T>) -> Option<Stall> {
        let flit = state.flits.front()?;
        if flit.is_single() {
            // A pending output it could not request = the downstream VC
            // allocator (no free VC in its class, or a SID conflict).
            (!(state.remaining - state.granted).is_empty()).then_some(Stall::VcAlloc)
        } else {
            if state.flits.len() <= state.granted_flits as usize {
                return None;
            }
            match state.out_port {
                // Head waiting for a downstream VC.
                None => Some(Stall::VcAlloc),
                // Routed stream with buffered flits but no request: the
                // only blocker on a fixed (port, VC) is credits.
                Some(_) => Some(Stall::Credit),
            }
        }
    }
}

/// Stall cause of a blocked (non-requesting) input VC.
enum Stall {
    VcAlloc,
    Credit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh, Topology, Torus};

    struct NoRvc;
    impl EsidOracle for NoRvc {
        fn rvc_eligible(&self, _: RouterId, _: Port, _: Sid, _: u16) -> bool {
            false
        }
    }

    fn cfg() -> NocConfig {
        NocConfig::scorpio()
    }

    #[test]
    fn downstream_vc_allocation_prefers_regular() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        // GO-REQ: 4 regular + 1 rVC.
        for expected in 0..4u8 {
            let vc = ds.alloc_vc(&c, 0, Some(Sid(expected as u16)), VcClass::Any, || true);
            assert_eq!(vc, Some(expected));
        }
        // Regular exhausted: rVC only if eligible.
        let any = VcClass::Any;
        assert_eq!(ds.alloc_vc(&c, 0, Some(Sid(9)), any, || false), None);
        assert_eq!(ds.alloc_vc(&c, 0, Some(Sid(9)), any, || true), Some(4));
        assert_eq!(ds.alloc_vc(&c, 0, Some(Sid(10)), any, || true), None);
    }

    #[test]
    fn dateline_classes_partition_the_regular_vcs() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        let mut alloc = |class| ds.alloc_vc(&c, 0, None, class, || false);
        // GO-REQ has 4 regular VCs: class 0 may use {0,1}, class 1 {2,3}.
        assert_eq!(alloc(VcClass::C0), Some(0));
        assert_eq!(alloc(VcClass::C1), Some(2));
        assert_eq!(alloc(VcClass::C0), Some(1));
        assert_eq!(alloc(VcClass::C0), None);
        assert!(ds.regular_open(&c, 0, VcClass::C1));
        assert!(!ds.regular_open(&c, 0, VcClass::C0));
        assert!(ds.rvc_open(&c, 0) && !ds.rvc_open(&c, 1));
        let mut alloc = |class| ds.alloc_vc(&c, 0, None, class, || false);
        assert_eq!(alloc(VcClass::C1), Some(3));
        assert_eq!(alloc(VcClass::C1), None);
    }

    #[test]
    fn downstream_credit_roundtrip() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        let vc = ds.alloc_vc(&c, 1, None, VcClass::Any, || false).unwrap();
        assert!(ds.has_credit(1, vc)); // depth 3: 2 credits left
        ds.take_credit(1, vc);
        ds.take_credit(1, vc);
        assert!(!ds.has_credit(1, vc));
        ds.on_credit(&c, 1, vc, false);
        assert!(ds.has_credit(1, vc));
        // Dealloc frees the VC for reallocation.
        ds.on_credit(&c, 1, vc, false);
        ds.on_credit(&c, 1, vc, true);
        assert_eq!(ds.alloc_vc(&c, 1, None, VcClass::Any, || false), Some(vc));
    }

    #[test]
    fn sid_tracker_blocks_same_sid() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        ds.alloc_vc(&c, 0, Some(Sid(5)), VcClass::Any, || false)
            .unwrap();
        assert!(ds.sid_in_flight(0, Sid(5)));
        assert!(!ds.sid_in_flight(0, Sid(6)));
        // The tracker is per vnet: UO-RESP's row never sees GO-REQ's SIDs.
        assert!(!ds.sid_in_flight(1, Sid(5)));
    }

    /// The invariant every allocation shortcut rests on: after any sequence
    /// of allocations, credit spends and credit returns, a VC's `ok` bit is
    /// set exactly when the VC is free and holds a credit.
    #[test]
    fn ok_bits_track_free_and_credit_under_random_traffic() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
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
                    if let Some(vc) = ds.alloc_vc(&c, vnet, Some(Sid(3)), class, || rvc) {
                        owned.push((vnet, vc, len - 1, len));
                    }
                }
                1 if !owned.is_empty() => {
                    let k = rng.gen_range_usize(owned.len());
                    let (vnet, vc, to_send, _) = &mut owned[k];
                    if *to_send > 0 && ds.has_credit(*vnet, *vc) {
                        ds.take_credit(*vnet, *vc);
                        *to_send -= 1;
                    }
                }
                _ if !owned.is_empty() => {
                    let k = rng.gen_range_usize(owned.len());
                    let (vnet, vc, to_send, to_free) = owned[k];
                    // Downstream frees flits it has received; the tail's
                    // credit deallocates.
                    if to_free > to_send {
                        ds.on_credit(&c, vnet, vc, to_free == 1);
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
                    let want = free && ds.has_credit(n as u8, vc);
                    assert_eq!(ds.ok[n] >> vc & 1 == 1, want, "vnet {n} vc {vc}");
                }
            }
        }
    }

    #[test]
    fn router_construction_ports() {
        let topo: Topology = Mesh::scorpio_chip();
        let tables = RoutingTables::build(&topo);
        let c = cfg();
        let corner: Router<u32> = Router::new(&tables, &c, RouterId(0));
        // NW corner: East, South, Tile, Mc.
        assert!(corner.downstream[Port::East.index()].is_some());
        assert!(corner.downstream[Port::South.index()].is_some());
        assert!(corner.downstream[Port::North.index()].is_none());
        assert!(corner.downstream[Port::West.index()].is_none());
        assert!(corner.downstream[Port::Tile.index()].is_some());
        assert!(corner.downstream[Port::Mc.index()].is_some());

        let center: Router<u32> = Router::new(&tables, &c, RouterId(14));
        assert!(center.downstream[Port::Mc.index()].is_none());
        assert!(center.is_idle());
    }

    #[test]
    fn torus_router_has_all_four_mesh_ports() {
        let topo: Topology = Torus::square_with_corner_mcs(4);
        let tables = RoutingTables::build(&topo);
        let corner: Router<u32> = Router::new(&tables, &cfg(), RouterId(0));
        for port in [Port::North, Port::South, Port::East, Port::West] {
            assert!(corner.downstream[port.index()].is_some(), "{port}");
        }
    }

    #[test]
    fn idle_router_tick_emits_nothing() {
        let topo: Topology = Mesh::scorpio_chip();
        let tables = RoutingTables::build(&topo);
        let c = cfg();
        let mut r: Router<u32> = Router::new(&tables, &c, RouterId(14));
        let ctx = RouteCtx {
            tables: &tables,
            datelines: false,
        };
        let mut out = Vec::new();
        r.tick(&ctx, &c, &NoRvc, &[], &[], &[], &mut out, None);
        assert!(out.is_empty());
        assert!(r.is_idle());
    }
}
