//! Compiled routing tables: the per-flit hot path of the router.
//!
//! The [`Topology`] routing *spec* ([`Topology::unicast_hop`],
//! [`Topology::broadcast_hop`]) is coordinate arithmetic — modular
//! distances, tie-breaks, dateline tests. Evaluating it for every arriving
//! head flit and every lookahead is pure per-flit overhead, so
//! [`RoutingTables::build`] evaluates the spec once per (router,
//! destination) / (source, router, arrival) point at network construction
//! and the routers route by flat array lookup from then on. The tables
//! are the only routing path; the spec stays as their compile source and
//! as the oracle `tables_match_the_spec_everywhere` checks them against,
//! point by point, on every fabric shape the scenario registry runs.
//!
//! The tables also carry the *dateline VC class* of every hop: on
//! wraparound fabrics (torus, ring) each regular-VC pool is split into a
//! class-0 and a class-1 partition, flits switch partitions exactly once —
//! when their remaining path clears the wraparound link — and the switch
//! breaks every ring's channel-dependency cycle (DESIGN.md §10). On a mesh
//! every hop is [`VcClass::Any`] and allocation is exactly what it was
//! before the tables existed.

use crate::config::NocConfig;
use crate::flit::{Dest, Packet, Payload};
use crate::topology::{Endpoint, LocalSlot, Port, PortMask, RouterId, Topology};

/// Dateline VC-class constraint on one downstream VC allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcClass {
    /// No constraint (mesh links, local ports, rVC escapes).
    Any,
    /// Pre-dateline: only the lower half of the regular VCs.
    C0,
    /// Post-dateline: only the upper half of the regular VCs.
    C1,
}

impl VcClass {
    /// Every class, in the order routers index their per-class state.
    pub(crate) const ALL: [VcClass; 3] = [VcClass::Any, VcClass::C0, VcClass::C1];

    /// The regular VCs this class may allocate from, as a bit per VC
    /// index of a vnet with `vcs` regular VCs.
    #[inline]
    pub(crate) fn regular_mask(self, vcs: u8) -> u16 {
        let below = |n: u8| ((1u32 << n) - 1) as u16;
        match self {
            VcClass::Any => below(vcs),
            VcClass::C0 => below(vcs / 2),
            VcClass::C1 => below(vcs) & !below(vcs / 2),
        }
    }
}

/// A routed output set: the ports to fork through plus, per port, whether
/// the downstream VC must come from the class-1 partition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteMask {
    /// Output ports (mesh ports + local deliveries).
    pub(crate) mask: PortMask,
    /// Class-1 bit per [`Port::index`].
    pub(crate) classes: u8,
}

/// Index of an arrival slot: the four cardinal ports plus "at source".
#[inline]
fn arrival_index(arrived_on: Option<Port>) -> usize {
    match arrived_on {
        None => 4,
        Some(p) => {
            debug_assert!(!p.is_local(), "broadcast cannot arrive on a local port");
            p.index()
        }
    }
}

const ARRIVALS: usize = 5;
const ABSENT: u16 = u16::MAX;

/// Precomputed routing state for one topology instance.
///
/// * `unicast[here * n_endpoints + ep]` — output port + class bit,
/// * `broadcast[(src_tile * n_routers + here) * 5 + arrival]` — fork mask
///   plus class bits, keyed by the *source endpoint's* tile index (on a
///   concentrated fabric the fork mask depends on which slot injected:
///   the source slot self-delivers, its siblings are fed by the router),
/// * `neighbor[router * 9 + port]` — link table ([`ABSENT`] = no link),
/// * `mc_rank[router]` — dense MC index ([`ABSENT`] = no MC port).
pub(crate) struct RoutingTables {
    n_routers: usize,
    n_endpoints: usize,
    n_tiles: usize,
    /// Tiles per router (the topology's concentration).
    concentration: u8,
    /// Packed `port.index() | (class1 << 4)`.
    unicast: Vec<u8>,
    /// `(mask bits, class bits)`.
    broadcast: Vec<(u16, u8)>,
    /// Elements the broadcast index advances per source tile. On an open
    /// single-tile fabric the broadcast masks are independent of the
    /// source (a direction is taken iff a neighbour exists, and "at the
    /// source" is decided by the arrival port alone), so the source
    /// dimension collapses entirely (`stride == 0`) — O(routers) entries
    /// instead of O(tiles × routers).
    broadcast_src_stride: usize,
    neighbor: Vec<u16>,
    mc_rank: Vec<u16>,
}

impl RoutingTables {
    /// Evaluates the routing spec of `topo` at every table point.
    pub(crate) fn build(topo: &Topology) -> RoutingTables {
        let n_routers = topo.router_count();
        let n_tiles = topo.tile_count();
        let concentration = topo.tiles_per_router();
        let endpoints: Vec<Endpoint> = topo.endpoints().collect();
        let n_endpoints = endpoints.len();

        let mut unicast = Vec::with_capacity(n_routers * n_endpoints);
        for r in topo.routers() {
            for &ep in &endpoints {
                let (port, class1) = topo.unicast_hop(r, ep);
                unicast.push(port.index() as u8 | (u8::from(class1) << 4));
            }
        }

        // Wraparound fabrics key their fork budgets on the source router,
        // and concentrated fabrics key the local-delivery set on the
        // source slot — both store the cube; everything else keeps one
        // source slice.
        let src_independent = !topo.has_datelines() && concentration == 1;
        let broadcast_src_stride = if src_independent {
            0
        } else {
            n_routers * ARRIVALS
        };
        let sources: usize = if src_independent { 1 } else { n_tiles };
        let mut broadcast = Vec::with_capacity(sources * n_routers * ARRIVALS);
        for src_tile in 0..sources {
            let src = topo.tile_endpoint(src_tile);
            for here in topo.routers() {
                for arr in 0..ARRIVALS {
                    let arrived_on = if arr == 4 { None } else { Some(Port::ALL[arr]) };
                    // Only probe arrivals that have a physical incoming
                    // link (a flit cannot arrive on a port that is not
                    // wired — e.g. North on a ring); absent-link slots stay
                    // empty and are never queried.
                    let wired = match arrived_on {
                        None => true,
                        Some(p) => topo.neighbor(here, p).is_some(),
                    };
                    if wired {
                        let (mask, classes) = topo.broadcast_hop(src, here, arrived_on);
                        broadcast.push((mask.bits(), classes));
                    } else {
                        broadcast.push((0, 0));
                    }
                }
            }
        }

        let mut neighbor = Vec::with_capacity(n_routers * Port::COUNT);
        for r in topo.routers() {
            for port in Port::ALL {
                neighbor.push(match topo.neighbor(r, port) {
                    Some(n) => n.0,
                    None => ABSENT,
                });
            }
        }

        let mut mc_rank = vec![ABSENT; n_routers];
        for (rank, &r) in topo.mc_routers().iter().enumerate() {
            mc_rank[r.index()] = rank as u16;
        }

        RoutingTables {
            n_routers,
            n_endpoints,
            n_tiles,
            concentration,
            unicast,
            broadcast,
            broadcast_src_stride,
            neighbor,
            mc_rank,
        }
    }

    /// Unicast lookup: output port + class-1 bit at `here` toward the
    /// endpoint with dense index `ep_idx`.
    #[inline]
    pub(crate) fn unicast(&self, here: RouterId, ep_idx: usize) -> (Port, bool) {
        let packed = self.unicast[here.index() * self.n_endpoints + ep_idx];
        (Port::ALL[(packed & 0xF) as usize], packed & 0x10 != 0)
    }

    /// Broadcast lookup: fork mask + class bits at `here` for the
    /// broadcast from the endpoint `src` arriving through `arrived_on`.
    #[inline]
    pub(crate) fn broadcast(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> (PortMask, u8) {
        // The source dimension is indexed by tile number; an MC source
        // rides its router's slot-0 entry, exactly as the spec defines it.
        let slot = match src.slot {
            LocalSlot::Tile(k) => k as usize,
            LocalSlot::Mc => 0,
        };
        let src_idx = src.router.index() * self.concentration as usize + slot;
        let idx = src_idx * self.broadcast_src_stride
            + here.index() * ARRIVALS
            + arrival_index(arrived_on);
        let (mask, classes) = self.broadcast[idx];
        (PortMask::from_bits(mask), classes)
    }

    /// Link lookup.
    #[inline]
    pub(crate) fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        match self.neighbor[r.index() * Port::COUNT + port.index()] {
            ABSENT => None,
            n => Some(RouterId(n)),
        }
    }

    /// Whether `r` hosts a memory-controller port.
    #[inline]
    pub(crate) fn has_mc(&self, r: RouterId) -> bool {
        self.mc_rank[r.index()] != ABSENT
    }

    /// The dense MC rank of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` hosts no MC port.
    #[inline]
    pub(crate) fn mc_rank(&self, r: RouterId) -> usize {
        let rank = self.mc_rank[r.index()];
        assert!(rank != ABSENT, "no MC port at {r}");
        rank as usize
    }

    /// The dense index of `ep`: tiles first (router-major, slot-minor),
    /// then MC ports by MC-router rank.
    #[inline]
    pub(crate) fn endpoint_index(&self, ep: Endpoint) -> usize {
        match ep.slot {
            LocalSlot::Tile(k) => {
                debug_assert!(ep.router.index() < self.n_routers && k < self.concentration);
                ep.router.index() * self.concentration as usize + k as usize
            }
            LocalSlot::Mc => self.n_tiles + self.mc_rank(ep.router),
        }
    }

    /// The dense endpoint index served by local output `port` of router
    /// `r` — the ejection-wire demux (tile slot `k` of router `r` is
    /// endpoint `r·c + k`; the MC port is `n_tiles + mc_rank`).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a local port of `r`.
    #[inline]
    pub(crate) fn local_ep_index(&self, r: RouterId, port: Port) -> usize {
        match port.tile_index() {
            Some(k) => {
                debug_assert!(k < self.concentration, "tile slot {k} absent at {r}");
                r.index() * self.concentration as usize + k as usize
            }
            None => {
                debug_assert_eq!(port, Port::Mc, "not a local port");
                self.n_tiles + self.mc_rank(r)
            }
        }
    }

    /// Tile count the tables were built for.
    #[inline]
    pub(crate) fn tile_count(&self) -> usize {
        self.n_tiles
    }

    /// Tiles per router.
    #[inline]
    pub(crate) fn concentration(&self) -> u8 {
        self.concentration
    }
}

/// The routing view handed to routers each tick: the compiled tables plus
/// whether their class bits apply.
pub(crate) struct RouteCtx<'a> {
    pub(crate) tables: &'a RoutingTables,
    /// Whether dateline VC classes are in force (wraparound fabrics).
    pub(crate) datelines: bool,
}

impl RouteCtx<'_> {
    /// Routes `packet` at `here`: the full output set plus per-port
    /// dateline classes.
    pub(crate) fn route<T: Payload>(
        &self,
        here: RouterId,
        packet: &Packet<T>,
        arrived_on: Option<Port>,
    ) -> RouteMask {
        match packet.dest {
            Dest::Unicast(ep) => {
                let (port, class1) = self.tables.unicast(here, self.tables.endpoint_index(ep));
                RouteMask {
                    mask: PortMask::single(port),
                    // Class bits exist only on the four cardinal ports
                    // (index < 4); a local ejection (up to index 8) never
                    // carries one, so the shift must be guarded.
                    classes: if class1 { 1 << port.index() } else { 0 },
                }
            }
            Dest::Broadcast => {
                let (mask, classes) = self.tables.broadcast(packet.src, here, arrived_on);
                RouteMask { mask, classes }
            }
        }
    }

    /// The VC-class constraint for allocating toward `port` given a
    /// route's class bits.
    #[inline]
    pub(crate) fn class_for(&self, classes: u8, port: Port) -> VcClass {
        if !self.datelines || port.is_local() {
            VcClass::Any
        } else if classes & (1 << port.index()) != 0 {
            VcClass::C1
        } else {
            VcClass::C0
        }
    }
}

/// Validates that `cfg` can support dateline classes when `topo` needs
/// them: every vnet must have at least two regular VCs to split.
pub(crate) fn validate_datelines(topo: &Topology, cfg: &NocConfig) {
    if !topo.has_datelines() {
        return;
    }
    for v in &cfg.vnets {
        assert!(
            v.vcs >= 2,
            "wraparound topology {} needs >= 2 regular VCs per vnet for \
             dateline classes; vnet {} has {}",
            topo.label(),
            v.name,
            v.vcs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;
    use crate::topology::{Fabric, Topology};

    /// Every fabric family at an odd small shape, the shapes the scenario
    /// registry runs (16×16 mesh with proportional MCs, 6×6 torus, ring36,
    /// cmesh 8×8×4, a non-square cmesh at c = 2), the chip and the
    /// degenerate shapes — since no whole-simulation run samples the
    /// tables point by point any more.
    fn covered_fabrics() -> Vec<Topology> {
        vec![
            Topology::new(Fabric::Mesh, 5, 3, [RouterId(2), RouterId(14)]),
            Topology::new(Fabric::Mesh, 16, 16, placement::proportional(16, 16)),
            Topology::new(Fabric::Torus, 4, 4, [RouterId(0), RouterId(15)]),
            Fabric::Torus.topology(6),
            Topology::new(Fabric::Ring, 9, 1, placement::spread(9, 3)),
            Fabric::Ring.topology(6),
            Topology::new(Fabric::CMesh(2), 3, 2, placement::corners(3, 2)),
            Fabric::CMesh(4).topology(4),
            Fabric::CMesh(4).topology(16),
            Fabric::CMesh(2).topology(6),
            Fabric::Mesh.topology(6),
            Fabric::Mesh.topology(1),
            Topology::new(Fabric::Mesh, 4, 1, [RouterId(3)]),
            Topology::new(Fabric::Mesh, 1, 4, [RouterId(0), RouterId(3)]),
            Fabric::Torus.topology(2),
            Topology::new(Fabric::Torus, 5, 3, [RouterId(7)]),
            Topology::new(Fabric::Ring, 2, 1, [RouterId(1)]),
            Topology::new(Fabric::Ring, 37, 1, placement::spread(37, 4)),
            Fabric::CMesh(1).topology(4),
            Topology::new(Fabric::CMesh(4), 1, 1, [RouterId(0)]),
        ]
    }

    /// Tables and spec must agree at every point — they are the same
    /// function, memoized.
    #[test]
    fn tables_match_the_spec_everywhere() {
        for topo in covered_fabrics() {
            let tables = RoutingTables::build(&topo);
            let endpoints: Vec<Endpoint> = topo.endpoints().collect();
            for r in topo.routers() {
                for (i, &ep) in endpoints.iter().enumerate() {
                    assert_eq!(
                        tables.unicast(r, i),
                        topo.unicast_hop(r, ep),
                        "unicast {r} -> {ep} on {}",
                        topo.label()
                    );
                }
                // Every tile source, and on single-tile fabrics every MC
                // source too (elsewhere `try_inject` rejects those).
                let tiles = topo.tile_count();
                let single_tile = topo.tiles_per_router() == 1;
                let sources = if single_tile { endpoints.len() } else { tiles };
                for &src in &endpoints[..sources] {
                    for arr in [
                        None,
                        Some(Port::North),
                        Some(Port::South),
                        Some(Port::East),
                        Some(Port::West),
                    ] {
                        // The spec is only defined for arrivals with a
                        // physical incoming link.
                        if arr.is_some_and(|p| topo.neighbor(r, p).is_none()) {
                            continue;
                        }
                        assert_eq!(
                            tables.broadcast(src, r, arr),
                            topo.broadcast_hop(src, r, arr),
                            "broadcast src={src} here={r} arr={arr:?} on {}",
                            topo.label()
                        );
                    }
                }
                for port in Port::ALL {
                    assert_eq!(tables.neighbor(r, port), topo.neighbor(r, port));
                }
                assert_eq!(tables.has_mc(r), topo.has_mc(r));
            }
            for (i, ep) in topo.endpoints().enumerate() {
                assert_eq!(tables.endpoint_index(ep), i);
                assert_eq!(tables.endpoint_index(ep), topo.endpoint_index(ep));
            }
            // Local ejection demux agrees with endpoint indexing.
            for r in topo.routers() {
                for k in 0..topo.tiles_per_router() {
                    assert_eq!(
                        tables.local_ep_index(r, Port::tile_slot(k)),
                        topo.endpoint_index(Endpoint::tile_slot(r, k))
                    );
                }
                if topo.has_mc(r) {
                    assert_eq!(
                        tables.local_ep_index(r, Port::Mc),
                        topo.endpoint_index(Endpoint::mc(r))
                    );
                }
            }
        }
    }

    /// FNV-1a over the four compiled arrays, each prefixed by its length.
    fn table_digest(t: &RoutingTables) -> u64 {
        use std::hash::Hasher;
        let mut h = scorpio_sim::Fnv1a::default();
        h.write(&t.unicast.len().to_le_bytes());
        h.write(&t.unicast);
        h.write(&t.broadcast.len().to_le_bytes());
        for &(mask, classes) in &t.broadcast {
            h.write(&mask.to_le_bytes());
            h.write(&[classes]);
        }
        for words in [&t.neighbor, &t.mc_rank] {
            h.write(&words.len().to_le_bytes());
            for w in words {
                h.write(&w.to_le_bytes());
            }
        }
        h.finish()
    }

    /// Recorded from the four per-fabric coordinate specs at the commit
    /// before they collapsed into one rule, in `covered_fabrics()` order.
    /// Since the collapse `tables_match_the_spec_everywhere` compares the
    /// tables with the only function that can build them, so this table is
    /// what pins that function to the behaviour it replaced.
    const TABLE_DIGESTS: &[(&str, u64)] = &[
        ("5x3", 0x875e17c2beeb14a4),
        ("16x16", 0xfc47900fdeaab477),
        ("torus4x4", 0xdcabb579aecb346e),
        ("torus6x6", 0xe1af769d2dcd0b3e),
        ("ring9", 0xec81c78fb0351327),
        ("ring36", 0xb886bb2622f428a6),
        ("cmesh3x2x2", 0xc14a13b87a05ae23),
        ("cmesh2x2x4", 0xf4f22ee2f4fe3514),
        ("cmesh8x8x4", 0xdd8597be191b70e3),
        ("cmesh6x3x2", 0x5774415ec48937e4),
        ("6x6", 0x729d1c84be658ccf),
        ("1x1", 0xc80a643fb3407961),
        ("4x1", 0x2518b358babced65),
        ("1x4", 0xc7896291add7da9b),
        ("torus2x2", 0x0faf6706d8b00561),
        ("torus5x3", 0x0c4db91075c72932),
        ("ring2", 0x5388973b51825424),
        ("ring37", 0x620a072846233e33),
        ("cmesh4x4x1", 0x05116e2e3a2f4da8),
        ("cmesh1x1x4", 0x978c1f1388da7563),
    ];

    #[test]
    fn compiled_tables_match_the_recorded_digests() {
        let actual: Vec<(String, u64)> = covered_fabrics()
            .iter()
            .map(|topo| (topo.label(), table_digest(&RoutingTables::build(topo))))
            .collect();
        let recorded = TABLE_DIGESTS.iter().map(|&(l, d)| (l.to_string(), d));
        if !recorded.eq(actual.iter().cloned()) {
            let mut table = String::new();
            for (label, digest) in &actual {
                table.push_str(&format!("        (\"{label}\", {digest:#018x}),\n"));
            }
            panic!("compiled routing tables moved — the routing spec changed:\n{table}");
        }
    }

    #[test]
    fn vc_class_ranges_partition_the_regular_vcs() {
        assert_eq!(VcClass::Any.regular_mask(4), 0b1111);
        assert_eq!(VcClass::C0.regular_mask(4), 0b0011);
        assert_eq!(VcClass::C1.regular_mask(4), 0b1100);
        assert_eq!(VcClass::C0.regular_mask(2), 0b01);
        assert_eq!(VcClass::C1.regular_mask(2), 0b10);
        assert_eq!(VcClass::Any.regular_mask(16), u16::MAX);
    }

    #[test]
    #[should_panic(expected = "needs >= 2 regular VCs")]
    fn single_vc_torus_is_rejected() {
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[1].vcs = 1;
        let topo = Fabric::Torus.topology(4);
        validate_datelines(&topo, &cfg);
    }

    #[test]
    fn mesh_skips_dateline_validation() {
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[1].vcs = 1;
        validate_datelines(&Topology::new(Fabric::Mesh, 2, 2, []), &cfg);
    }
}
