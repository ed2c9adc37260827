//! Multiple main networks: address-interleaved parallel delivery planes.
//!
//! Section 5.3's "cheaper fix" for the mesh broadcast bound: a `k × k`
//! fabric cannot deliver more than one broadcast flit per node per cycle,
//! so per-node broadcast throughput falls as 1/k². Instead of ever more
//! VCs (which only approach that bound), the main network is *replicated*:
//! [`MultiNetwork`] owns N parallel [`Network`] instances — each with its
//! own routers, tables, VC state and active sets — and a deterministic
//! [`PlaneSteer`] function that maps every line address to exactly one
//! plane. Per-address total order is preserved (all requests for a line
//! travel, announce and deliver on that line's plane), which is all snoopy
//! coherence needs; aggregate bandwidth multiplies by the plane count.
//!
//! A [`MultiNetwork`] with one plane *is* the single-network engine: every
//! call delegates straight through and reports are byte-identical (the
//! engine-equivalence suite asserts this). Planes whose active sets are
//! empty — no woken router or injection port, no in-flight wire traffic —
//! are skipped entirely each cycle except for their clock advance, so idle
//! planes cost O(1).

use crate::config::NocConfig;
use crate::flit::{Packet, Payload, Sid};
use crate::network::{Network, NocStats};
use crate::topology::{Endpoint, Topology};
use scorpio_sim::{Cycle, PushError};
use std::num::NonZeroUsize;

/// Types that expose the address key the plane steering function
/// interleaves on. Implemented by the coherence message (its line address)
/// and by the integer payloads the NoC-level tests use.
pub trait SteerKey {
    /// The 64-bit key (a line address) that selects this payload's plane.
    fn steer_key(&self) -> u64;
}

impl SteerKey for u64 {
    fn steer_key(&self) -> u64 {
        *self
    }
}

impl SteerKey for u32 {
    fn steer_key(&self) -> u64 {
        *self as u64
    }
}

impl SteerKey for () {
    fn steer_key(&self) -> u64 {
        0
    }
}

impl SteerKey for &'static str {
    fn steer_key(&self) -> u64 {
        self.len() as u64
    }
}

/// The deterministic address → plane steering function.
///
/// Addresses are striped over the planes at a configurable granularity:
/// plane = (addr >> interleave_log2) mod planes. Every address maps to
/// exactly one plane (the partition property the steering invariant rests
/// on), all nodes compute the same mapping with no communication, and
/// `planes == 1` maps everything to plane 0.
///
/// # Examples
///
/// ```
/// use scorpio_noc::PlaneSteer;
/// use std::num::NonZeroUsize;
///
/// let s = PlaneSteer::new(NonZeroUsize::new(4).unwrap(), 0);
/// assert_eq!(s.plane_of(0), 0);
/// assert_eq!(s.plane_of(5), 1);
/// // Coarser stripes: 4 consecutive lines share a plane.
/// let coarse = PlaneSteer::new(NonZeroUsize::new(2).unwrap(), 2);
/// assert_eq!(coarse.plane_of(3), 0);
/// assert_eq!(coarse.plane_of(4), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneSteer {
    planes: NonZeroUsize,
    interleave_log2: u32,
}

impl PlaneSteer {
    /// A steering function over `planes` planes, striping addresses in
    /// blocks of `2^interleave_log2` lines.
    ///
    /// # Panics
    ///
    /// Panics if `interleave_log2 >= 64` (the shift would be undefined).
    pub fn new(planes: NonZeroUsize, interleave_log2: u32) -> PlaneSteer {
        assert!(interleave_log2 < 64, "interleave shift out of range");
        PlaneSteer {
            planes,
            interleave_log2,
        }
    }

    /// The plane carrying address `addr`. Total and deterministic: every
    /// address belongs to exactly one plane.
    #[inline]
    pub fn plane_of(&self, addr: u64) -> usize {
        ((addr >> self.interleave_log2) % self.planes.get() as u64) as usize
    }
}

/// N parallel main networks behind the single-network delivery interface.
///
/// All planes share one topology, one configuration and one clock; each
/// plane owns its routers, tables, VC/credit state, ESID views and active
/// sets. Packets are steered by their payload's [`SteerKey`] so that all
/// traffic for a given line travels on that line's plane.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Endpoint, Mesh, MultiNetwork, NocConfig, Packet, RouterId, Sid};
/// use std::num::NonZeroUsize;
///
/// let mesh = Mesh::square_with_corner_mcs(4);
/// let mut net: MultiNetwork<u64> =
///     MultiNetwork::new(mesh, NocConfig::scorpio(), NonZeroUsize::new(2).unwrap(), 0);
/// let src = Endpoint::tile(RouterId(0));
/// // Payload 7 is odd: the request travels on plane 1.
/// net.try_inject(src, Packet::request(src, Sid(0), 0, 7)).unwrap();
/// assert_eq!(net.plane(1).inject_backlog(src), 1);
/// for _ in 0..100 {
///     net.tick();
///     net.commit();
/// }
/// let far = net.endpoint_index(Endpoint::tile(RouterId(15)));
/// assert!(net.plane(1).eject_occupied(far));
/// assert!(!net.plane(0).eject_occupied(far));
/// ```
pub struct MultiNetwork<T> {
    planes: Vec<Network<T>>,
    steer: PlaneSteer,
    /// When set, tick every plane every cycle (the reference engines must
    /// not skip anything).
    always_scan: bool,
    /// Per-plane skip decision of the current tick, consulted by commit.
    skipped: Vec<bool>,
}

impl<T: Payload + SteerKey> MultiNetwork<T> {
    /// Builds `planes` parallel networks over `fabric` with configuration
    /// `cfg`, striping addresses in blocks of `2^interleave_log2` lines.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation (see [`Network::new`]).
    pub fn new(
        fabric: impl Into<Topology>,
        cfg: NocConfig,
        planes: NonZeroUsize,
        interleave_log2: u32,
    ) -> Self {
        let topology: Topology = fabric.into();
        let nets: Vec<Network<T>> = (0..planes.get())
            .map(|_| Network::new(topology.clone(), cfg.clone()))
            .collect();
        MultiNetwork {
            planes: nets,
            steer: PlaneSteer::new(planes, interleave_log2),
            always_scan: false,
            skipped: vec![false; planes.get()],
        }
    }

    /// Number of parallel planes.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Plane `p`'s network (read access for stats and tests).
    pub fn plane(&self, p: usize) -> &Network<T> {
        &self.planes[p]
    }

    /// Plane `p`'s network (mutable: the NIC's receive path takes flits
    /// from it).
    pub fn plane_mut(&mut self, p: usize) -> &mut Network<T> {
        &mut self.planes[p]
    }

    /// Current cycle (all planes advance in lockstep).
    pub fn cycle(&self) -> Cycle {
        self.planes[0].cycle()
    }

    /// The dense index of `ep` (identical across planes).
    pub fn endpoint_index(&self, ep: Endpoint) -> usize {
        self.planes[0].endpoint_index(ep)
    }

    /// Queues `packet` at `ep` on the plane selected by its payload's
    /// [`SteerKey`], returning `(plane, uid)`.
    ///
    /// # Errors
    ///
    /// Returns the packet if that plane's injection queue is full.
    pub fn try_inject(
        &mut self,
        ep: Endpoint,
        packet: Packet<T>,
    ) -> Result<(usize, u64), PushError<Packet<T>>> {
        let plane = self.steer.plane_of(packet.payload.steer_key());
        let uid = self.planes[plane].try_inject(ep, packet)?;
        Ok((plane, uid))
    }

    /// The plane the steering function assigns to `key`.
    #[inline]
    pub fn plane_of(&self, key: u64) -> usize {
        self.steer.plane_of(key)
    }

    /// Packets waiting (or mid-send) at `ep`'s injection ports, summed
    /// over planes.
    pub fn inject_backlog(&self, ep: Endpoint) -> usize {
        self.planes.iter().map(|n| n.inject_backlog(ep)).sum()
    }

    /// Publishes `ep`'s expected request instance on plane `p` (takes
    /// effect at that plane's next commit).
    pub fn set_esid(&mut self, p: usize, ep: Endpoint, esid: Option<(Sid, u16)>) {
        self.planes[p].set_esid(ep, esid);
    }

    /// Whether any flit waits in the ejection buffers of endpoint
    /// `ep_idx` on *any* plane.
    pub fn eject_occupied(&self, ep_idx: usize) -> bool {
        self.planes.iter().any(|n| n.eject_occupied(ep_idx))
    }

    /// Selects the always-scan engine on every plane and disables the
    /// idle-plane skip (the reference engine probes everything).
    pub fn set_always_scan(&mut self, scan: bool) {
        self.always_scan = scan;
        for n in &mut self.planes {
            n.set_always_scan(scan);
        }
    }

    /// Installs (or removes) an observability sink on every plane, each
    /// tagged with its plane index for trace merging. Call before the
    /// first cycle.
    pub fn set_observability(&mut self, cfg: Option<crate::obs::ObsConfig>) {
        for (p, n) in self.planes.iter_mut().enumerate() {
            n.set_observability(p as u16, cfg);
        }
    }

    /// Plane `p`'s observability sink, if installed.
    pub fn obs(&self, p: usize) -> Option<&crate::obs::NetObs> {
        self.planes[p].obs()
    }

    /// Empties every plane's trace stream: no event kept, none dropped.
    pub fn clear_trace(&mut self) {
        for o in self.planes.iter_mut().filter_map(Network::obs_mut) {
            if let Some(events) = &mut o.events {
                events.clear();
            }
        }
    }

    /// Drains the merged set of endpoints whose ejection buffers received
    /// flits on any plane (ascending, deduplicated): the planes' bitsets
    /// are ORed into plane 0's, which is then drained.
    pub fn take_woken_endpoints(&mut self, out: &mut Vec<u32>) {
        let (first, rest) = self.planes.split_first_mut().expect("a plane");
        for n in rest {
            first.absorb_woken(n);
        }
        first.take_woken_endpoints(out);
    }

    /// Whether every plane is quiescent (empty active sets, empty wires,
    /// no staged ESID update) — the precondition for [`MultiNetwork::leap`].
    pub fn is_quiescent(&self) -> bool {
        self.planes.iter().all(Network::is_quiescent)
    }

    /// Advances every plane's clock by `delta` cycles without ticking.
    /// Exact only while [`MultiNetwork::is_quiescent`] holds: a quiescent
    /// plane's tick/commit pair is a provable no-op apart from the clock
    /// edge, so `delta` of them collapse to one addition per plane.
    pub fn leap(&mut self, delta: u64) {
        debug_assert!(self.is_quiescent(), "leap over a live network");
        for n in &mut self.planes {
            n.leap(delta);
        }
    }

    /// Compute phase of one cycle: ticks only planes with pending work.
    ///
    /// A plane is *quiescent* when its router and injection active sets
    /// are empty, no wire carries in-flight traffic and no ESID update is
    /// staged; ticking such a plane is a provable no-op (empty drains,
    /// empty wire rotations), so it is skipped and only its clock advances
    /// at [`MultiNetwork::commit`]. The skip is exact — the equivalence
    /// suite asserts byte-identical reports against the always-scan
    /// engine, which never skips.
    pub fn tick(&mut self) {
        for (p, n) in self.planes.iter_mut().enumerate() {
            let skip = !self.always_scan && n.is_quiescent();
            self.skipped[p] = skip;
            if !skip {
                n.tick();
            }
        }
    }

    /// Clock edge: commits ticked planes, fast-forwards skipped ones.
    pub fn commit(&mut self) {
        for (p, n) in self.planes.iter_mut().enumerate() {
            if self.skipped[p] {
                n.commit_idle();
            } else {
                n.commit();
            }
        }
    }

    /// The last cycle on which any plane made progress.
    pub fn last_progress(&self) -> Cycle {
        self.planes
            .iter()
            .map(Network::last_progress)
            .max()
            .expect("at least one plane")
    }

    /// Aggregate statistics, merged over every plane.
    pub fn stats(&self) -> NocStats {
        let mut total = self.planes[0].stats();
        for n in &self.planes[1..] {
            total.merge(&n.stats());
        }
        total
    }

    /// Occupied-state dump of every plane, for deadlock debugging.
    #[doc(hidden)]
    pub fn debug_dump(&self) -> String {
        let mut out = String::new();
        for (p, n) in self.planes.iter().enumerate() {
            let d = n.debug_dump();
            if !d.is_empty() {
                out.push_str(&format!("plane {p}\n{d}"));
            }
        }
        out
    }
}

#[cfg(test)]
impl<T: Payload + SteerKey> MultiNetwork<T> {
    /// The shared topology (identical across planes).
    pub(crate) fn topology(&self) -> &Topology {
        self.planes[0].topology()
    }

    /// Convenience: `tick` + `commit`.
    pub(crate) fn step(&mut self) {
        self.tick();
        self.commit();
    }

    /// Whether every plane is fully drained.
    pub(crate) fn is_drained(&self) -> bool {
        self.planes.iter().all(Network::is_drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::set_bits;
    use crate::flit::VnetId;
    use crate::topology::{Mesh, Ring, RouterId, Torus};

    fn two_planes(k: u16, planes: usize) -> MultiNetwork<u64> {
        MultiNetwork::new(
            Mesh::square_with_corner_mcs(k),
            NocConfig::scorpio(),
            NonZeroUsize::new(planes).unwrap(),
            0,
        )
    }

    #[test]
    fn steering_partitions_every_address_exactly_once() {
        for planes in 1..=6usize {
            for gran in [0u32, 1, 3, 6] {
                let s = PlaneSteer::new(NonZeroUsize::new(planes).unwrap(), gran);
                let mut per_plane = vec![0usize; planes];
                // A whole number of full rotations so the partition is
                // exactly balanced.
                let span = ((planes as u64) << gran) * 64;
                for addr in 0..span {
                    let p = s.plane_of(addr);
                    assert!(p < planes, "plane out of range");
                    // Exactly once: the same address never maps elsewhere.
                    assert_eq!(s.plane_of(addr), p, "steering must be deterministic");
                    per_plane[p] += 1;
                }
                // Every plane gets an equal share of a full rotation span.
                assert!(
                    per_plane.iter().all(|&n| n as u64 == span / planes as u64),
                    "unbalanced partition {per_plane:?} (planes={planes}, gran={gran})"
                );
                // Addresses within one stripe share a plane.
                let stripe = 1u64 << gran;
                for base in (0..1024u64).step_by(stripe as usize) {
                    let p = s.plane_of(base);
                    for off in 0..stripe {
                        assert_eq!(s.plane_of(base + off), p, "stripe split across planes");
                    }
                }
            }
        }
    }

    #[test]
    fn single_plane_delegates_transparently() {
        let mut multi = two_planes(4, 1);
        let mut single: Network<u64> =
            Network::new(Mesh::square_with_corner_mcs(4), NocConfig::scorpio());
        let src = Endpoint::tile(RouterId(0));
        let (plane, uid) = multi
            .try_inject(src, Packet::request(src, Sid(0), 0, 7))
            .unwrap();
        assert_eq!(plane, 0);
        let uid2 = single
            .try_inject(src, Packet::request(src, Sid(0), 0, 7))
            .unwrap();
        assert_eq!(uid, uid2);
        for _ in 0..200 {
            multi.step();
            single.step();
        }
        // Identical delivery pattern at every endpoint.
        for idx in 0..multi.topology().endpoints().count() {
            let (m, s) = (multi.plane(0).eject_vcs(idx), single.eject_vcs(idx));
            assert_eq!(m, s, "divergence at endpoint {idx}");
        }
    }

    #[test]
    fn planes_carry_disjoint_address_sets() {
        let mut net = two_planes(4, 2);
        let src = Endpoint::tile(RouterId(5));
        // Even addresses -> plane 0, odd -> plane 1.
        let (p0, _) = net
            .try_inject(src, Packet::request(src, Sid(5), 0, 42))
            .unwrap();
        let (p1, _) = net
            .try_inject(src, Packet::request(src, Sid(5), 1, 43))
            .unwrap();
        assert_eq!((p0, p1), (0, 1));
        for _ in 0..300 {
            net.step();
        }
        let far = net.endpoint_index(Endpoint::tile(RouterId(10)));
        let heads = |p: usize| -> Vec<u64> {
            let plane = net.plane(p);
            set_bits(plane.eject_vcs(far))
                .map(|vc| plane.eject_head(far, vc).unwrap().packet.payload)
                .collect()
        };
        assert_eq!(heads(0), vec![42]);
        assert_eq!(heads(1), vec![43]);
    }

    #[test]
    fn idle_planes_advance_their_clock() {
        let mut net = two_planes(3, 4);
        let src = Endpoint::tile(RouterId(0));
        // Only plane 2 carries traffic.
        net.try_inject(src, Packet::request(src, Sid(0), 0, 2))
            .unwrap();
        for _ in 0..50 {
            net.step();
        }
        // Lockstep clocks despite three planes being skipped throughout.
        for p in 0..4 {
            assert_eq!(net.plane(p).cycle().as_u64(), 50, "plane {p} clock");
        }
        assert!(net.plane(2).stats().delivered_packets == 0);
        let dst = net.endpoint_index(Endpoint::tile(RouterId(8)));
        assert!(net.plane(2).eject_occupied(dst));
    }

    #[test]
    fn merged_stats_sum_over_planes() {
        let mut net = two_planes(4, 2);
        let src = Endpoint::tile(RouterId(0));
        for addr in 0..4u64 {
            net.try_inject(src, Packet::request(src, Sid(0), addr as u16, addr))
                .unwrap();
        }
        assert_eq!(net.stats().injected_packets, 4);
        assert_eq!(net.plane(0).stats().injected_packets, 2);
        assert_eq!(net.plane(1).stats().injected_packets, 2);
        let eps = net.topology().endpoints().count();
        for _ in 0..500 {
            for idx in 0..eps {
                for p in 0..2 {
                    for vc in set_bits(net.plane(p).eject_vcs(idx)) {
                        net.plane_mut(p).eject_take_vc(idx, vc);
                    }
                }
            }
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained());
        // 19 copies per broadcast on the 4x4 + corner-MC fabric.
        assert_eq!(net.stats().delivered_packets, 4 * 19);
    }

    #[test]
    fn unordered_broadcast_steers_and_drains_on_all_fabrics() {
        for topo in [
            Mesh::square_with_corner_mcs(4),
            Torus::square_with_corner_mcs(4),
            Ring::with_spread_mcs(16, 4),
        ] {
            let mut cfg = NocConfig::scorpio();
            cfg.vnets[0].ordered = false;
            let mut net: MultiNetwork<u64> =
                MultiNetwork::new(topo.clone(), cfg, NonZeroUsize::new(3).unwrap(), 0);
            let src = Endpoint::tile(RouterId(2));
            for addr in 0..6u64 {
                net.try_inject(src, Packet::broadcast_unordered(VnetId(0), src, addr))
                    .unwrap();
            }
            let eps = net.topology().endpoints().count();
            for _ in 0..800 {
                for idx in 0..eps {
                    for p in 0..3 {
                        for vc in set_bits(net.plane(p).eject_vcs(idx)) {
                            net.plane_mut(p).eject_take_vc(idx, vc);
                        }
                    }
                }
                net.step();
                if net.is_drained() {
                    break;
                }
            }
            assert!(net.is_drained(), "{} wedged", topo.label());
            assert_eq!(net.stats().delivered_packets, 6 * 19);
        }
    }

    #[test]
    #[should_panic(expected = "interleave shift out of range")]
    fn oversized_interleave_panics() {
        let _ = PlaneSteer::new(NonZeroUsize::new(2).unwrap(), 64);
    }
}
