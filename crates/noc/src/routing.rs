//! Routing-spec walkers and shared topology property checks.
//!
//! The per-flit hot path routes through the compiled tables (`tables.rs`);
//! this module walks the *spec* — [`Topology::unicast_hop`] /
//! [`Topology::broadcast_hop`] — off the hot path: path enumeration for
//! latency bounds, and the broadcast exactly-once property check that every
//! [`Topology`] must pass ([`check_broadcast_exactly_once`]).

use crate::topology::{Endpoint, LocalSlot, Port, PortMask, RouterId, Topology};

/// Walks the unicast route from `src` to `dest`, returning the router
/// sequence including both ends. Useful for tests and latency bounds.
pub fn unicast_path(topo: &Topology, src: RouterId, dest: Endpoint) -> Vec<RouterId> {
    let mut path = vec![src];
    let mut here = src;
    loop {
        let (out, _) = topo.unicast_hop(here, dest);
        if out.is_local() {
            return path;
        }
        here = topo
            .neighbor(here, out)
            .expect("unicast routing never points off-fabric");
        path.push(here);
    }
}

/// Simulates the broadcast tree from the tile endpoint `src`, returning
/// for every router the set of local ports that receive a copy. Asserts
/// that no router is visited twice (a revisit would mean a duplicate
/// delivery or a routing cycle) and that no local port is fed twice. The
/// router pipeline performs the same forking cycle by cycle.
pub fn broadcast_deliveries(topo: &Topology, src: Endpoint) -> Vec<PortMask> {
    let mut deliveries = vec![PortMask::EMPTY; topo.router_count()];
    let mut visited = vec![false; topo.router_count()];
    visited[src.router.index()] = true;
    // (router, arrival port) work list seeded at the source router.
    let mut work: Vec<(RouterId, Option<Port>)> = vec![(src.router, None)];
    while let Some((here, arrived)) = work.pop() {
        let (outs, _) = topo.broadcast_hop(src, here, arrived);
        for port in outs.iter() {
            if port.is_local() {
                let mut m = deliveries[here.index()];
                assert!(!m.contains(port), "duplicate delivery at {here}");
                m.insert(port);
                deliveries[here.index()] = m;
            } else {
                let next = topo
                    .neighbor(here, port)
                    .expect("broadcast mask never points off-fabric");
                assert!(
                    !visited[next.index()],
                    "broadcast from {src} revisits router {next}"
                );
                visited[next.index()] = true;
                work.push((next, Some(port.opposite())));
            }
        }
    }
    deliveries
}

/// The shared broadcast property every [`Topology`] must satisfy, checked from every source *tile endpoint* (on a concentrated
/// fabric that is every slot of every router):
///
/// * no router is visited by more than one branch (no flit revisits a
///   router — asserted inside [`broadcast_deliveries`]),
/// * every tile slot except the source's own receives exactly one copy —
///   including the source router's sibling slots — while the source tile
///   self-delivers through its NIC loopback,
/// * every MC port — including the source router's — receives exactly one
///   copy, and non-MC routers receive none.
///
/// # Panics
///
/// Panics with a description of the first violation.
pub fn check_broadcast_exactly_once(topo: &Topology) {
    for src_tile in 0..topo.tile_count() {
        let src = topo.tile_endpoint(src_tile);
        let LocalSlot::Tile(src_slot) = src.slot else {
            unreachable!("tile_endpoint returned a non-tile slot");
        };
        let deliveries = broadcast_deliveries(topo, src);
        for r in topo.routers() {
            for k in 0..topo.tiles_per_router() {
                let got = deliveries[r.index()].contains(Port::tile_slot(k));
                if r == src.router && k == src_slot {
                    assert!(
                        !got,
                        "{}: source tile {src} must self-deliver via loopback",
                        topo.label()
                    );
                } else {
                    assert!(
                        got,
                        "{}: tile slot {k} of {r} missed the broadcast from {src}",
                        topo.label()
                    );
                }
            }
            assert_eq!(
                deliveries[r.index()].contains(Port::Mc),
                topo.has_mc(r),
                "{}: MC delivery mismatch at {r} from {src}",
                topo.label()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Fabric, Topology};

    fn mesh(cols: u16, rows: u16) -> Topology {
        Topology::new(Fabric::Mesh, cols, rows, [])
    }

    /// The diameter obtained by *walking the unicast routing spec* between
    /// every router pair — the ground truth [`Topology::diameter`] (the
    /// single closed-form derivation every consumer reads:
    /// notification-window sizing, OR-propagation convergence, the physical
    /// wire model) is asserted against, so a declared diameter and the
    /// paths flits actually take can never quietly disagree.
    /// O(routers² · diameter).
    fn walked_diameter(topo: &Topology) -> u16 {
        let mut max = 0;
        for a in topo.routers() {
            for b in topo.routers() {
                max = max.max(topo.hops(a, b));
            }
        }
        max
    }

    #[test]
    fn unicast_routes_x_before_y() {
        let topo = mesh(6, 6);
        // From (0,0) to (3,2): go east first.
        let src = RouterId(0);
        let dest = Endpoint::tile(RouterId(2 * 6 + 3));
        assert_eq!(topo.unicast_hop(src, dest).0, Port::East);
        // Same column: go south.
        let below = Endpoint::tile(RouterId(12));
        assert_eq!(topo.unicast_hop(src, below).0, Port::South);
        // At destination: eject.
        assert_eq!(topo.unicast_hop(src, Endpoint::tile(src)).0, Port::Tile);
    }

    #[test]
    fn unicast_path_has_hops_length_on_every_topology() {
        for topo in [
            mesh(6, 6),
            Topology::new(Fabric::Torus, 5, 4, []),
            Topology::new(Fabric::Ring, 9, 1, []),
        ] {
            for a in topo.routers() {
                for b in topo.routers() {
                    let path = unicast_path(&topo, a, Endpoint::tile(b));
                    assert_eq!(
                        path.len() as u16 - 1,
                        topo.hops(a, b),
                        "{}: path {a}->{b}",
                        topo.label()
                    );
                    assert_eq!(*path.last().unwrap(), b);
                }
            }
        }
    }

    #[test]
    fn unicast_to_mc_slot_ejects_on_mc_port() {
        let topo = Fabric::Mesh.topology(6);
        let dest = Endpoint::mc(RouterId(0));
        assert_eq!(topo.unicast_hop(RouterId(0), dest).0, Port::Mc);
    }

    // The shared property check, over every fabric family and a
    // spread of geometries — the generalized form of the original
    // `broadcast_reaches_every_tile_exactly_once` mesh test.
    #[test]
    fn broadcast_exactly_once_on_every_topology() {
        let topologies: Vec<Topology> = vec![
            Fabric::Mesh.topology(6),
            Topology::new(Fabric::Mesh, 1, 1, []),
            Topology::new(Fabric::Mesh, 1, 4, []),
            Topology::new(Fabric::Mesh, 4, 1, []),
            Topology::new(Fabric::Mesh, 3, 5, [RouterId(2)]),
            Topology::new(Fabric::Mesh, 8, 8, []),
            Topology::new(Fabric::Torus, 2, 2, []),
            Topology::new(Fabric::Torus, 3, 3, [RouterId(4)]),
            Topology::new(Fabric::Torus, 4, 4, [RouterId(0), RouterId(15)]),
            Topology::new(Fabric::Torus, 5, 3, []),
            Topology::new(
                Fabric::Torus,
                6,
                6,
                [RouterId(0), RouterId(5), RouterId(30), RouterId(35)],
            ),
            Topology::new(Fabric::Ring, 2, 1, []),
            Topology::new(Fabric::Ring, 3, 1, [RouterId(1)]),
            Topology::new(Fabric::Ring, 8, 1, [RouterId(0), RouterId(4)]),
            Fabric::Ring.topology(6),
            Fabric::CMesh(2).topology(4),
            Fabric::CMesh(4).topology(4),
            Fabric::CMesh(1).topology(4),
            Topology::new(Fabric::CMesh(3), 3, 3, [RouterId(4)]),
            Topology::new(Fabric::CMesh(4), 1, 1, [RouterId(0)]),
            Topology::new(Fabric::CMesh(2), 5, 1, []),
        ];
        for topo in &topologies {
            check_broadcast_exactly_once(topo);
        }
    }

    // Property test over *random* concentrated meshes (and random MC
    // placements): the exactly-once broadcast property, the declared-vs-
    // walked diameter agreement, and dense endpoint indexing must hold for
    // every (cols, rows, concentration) the generator produces. This is
    // the dependency-free stand-in for a proptest suite (the offline
    // toolchain carries no external crates), using the simulator's own
    // deterministic RNG.
    #[test]
    fn random_concentrations_hold_the_topology_properties() {
        use scorpio_sim::SimRng;
        let mut rng = SimRng::seed_from(0xC0DE);
        for _ in 0..40 {
            let cols = 1 + rng.gen_range_usize(5) as u16;
            let rows = 1 + rng.gen_range_usize(5) as u16;
            let conc = 1 + rng.gen_range_usize(Port::MAX_TILE_SLOTS as usize) as u8;
            let n = cols as usize * rows as usize;
            // Random duplicate-free MC subset (possibly empty).
            let mut mcs: Vec<RouterId> = Vec::new();
            for r in 0..n as u16 {
                if rng.chance(0.2) {
                    mcs.push(RouterId(r));
                }
            }
            let topo: Topology = Topology::new(Fabric::CMesh(conc), cols, rows, mcs);
            let label = topo.label();
            assert_eq!(topo.tile_count(), n * conc as usize, "{label}");
            check_broadcast_exactly_once(&topo);
            assert_eq!(topo.diameter(), walked_diameter(&topo), "{label}");
            for (i, ep) in topo.endpoints().enumerate() {
                assert_eq!(topo.endpoint_index(ep), i, "{label}");
            }
            for i in 0..topo.tile_count() {
                assert_eq!(topo.endpoint_index(topo.tile_endpoint(i)), i, "{label}");
            }
        }
    }

    // The bugfix satellite: the diameter every consumer reads (notify
    // window sizing, OR-propagation bound, physical wire model) and the
    // diameter implied by actually walking the unicast spec must be the
    // same number on every fabric — CMesh included, where the router grid
    // (not the tile count) is what bounds propagation.
    #[test]
    fn declared_diameter_matches_walked_diameter_everywhere() {
        let topologies: Vec<Topology> = vec![
            Fabric::Mesh.topology(6),
            Topology::new(Fabric::Mesh, 7, 3, []),
            Topology::new(Fabric::Mesh, 1, 1, []),
            Topology::new(Fabric::Torus, 4, 4, []),
            Topology::new(Fabric::Torus, 5, 3, []),
            Topology::new(Fabric::Torus, 2, 2, []),
            Topology::new(Fabric::Ring, 2, 1, []),
            Topology::new(Fabric::Ring, 9, 1, []),
            Fabric::Ring.topology(6),
            Fabric::CMesh(2).topology(4),
            Fabric::CMesh(4).topology(4),
            Fabric::CMesh(1).topology(6),
        ];
        for topo in &topologies {
            assert_eq!(
                topo.diameter(),
                walked_diameter(topo),
                "declared vs walked diameter diverged on {}",
                topo.label()
            );
            // And the notification window follows that one number.
            assert_eq!(
                topo.notification_window(),
                topo.diameter() as u64 + 3,
                "{}",
                topo.label()
            );
        }
    }

    #[test]
    fn column_branches_do_not_refork() {
        let topo = mesh(6, 6);
        // A flit arriving from the north (travelling south) only continues
        // south + ejects; it must never turn east/west (that would duplicate).
        let mid = RouterId(14);
        let (outs, _) = topo.broadcast_hop(Endpoint::tile(RouterId(2)), mid, Some(Port::North));
        assert!(outs.contains(Port::South));
        assert!(outs.contains(Port::Tile));
        assert!(!outs.contains(Port::East));
        assert!(!outs.contains(Port::West));
        assert!(!outs.contains(Port::North));
    }

    #[test]
    #[should_panic(expected = "cannot arrive on local port")]
    fn broadcast_from_local_arrival_panics() {
        let topo = mesh(2, 2);
        let _ = topo.broadcast_hop(Endpoint::tile(RouterId(0)), RouterId(0), Some(Port::Tile));
    }

    #[test]
    fn broadcast_targets_exclude_source() {
        let topo: Topology = Fabric::Mesh.topology(6);
        let src = Endpoint::tile(RouterId(7));
        let deliveries = broadcast_deliveries(&topo, src);
        let copies: usize = deliveries.iter().map(|m| m.iter().count()).sum();
        assert_eq!(copies, 39);
        assert!(!deliveries[7].contains(Port::tile_slot(0)));
    }

    #[test]
    fn ring_broadcast_splits_between_directions() {
        let topo: Topology = Topology::new(Fabric::Ring, 4, 1, []);
        // len=4: the east branch covers 2 routers, the west branch 1.
        let deliveries = broadcast_deliveries(&topo, Endpoint::tile(RouterId(0)));
        let tiles = deliveries.iter().filter(|m| m.contains(Port::Tile)).count();
        assert_eq!(tiles, 3);
        assert!(deliveries[2].contains(Port::Tile)); // reached eastbound
    }
}
