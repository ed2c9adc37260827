//! Large-mesh and non-square topology coverage: broadcasts must reach
//! every endpoint exactly once and the network must drain, on meshes well
//! beyond the 6×6 chip — the scaling scenarios' substrate.

use scorpio_noc::{
    placement, set_bits, Endpoint, Fabric, Network, NocConfig, Packet, RouterId, Sid, Topology,
};

/// Consumes everything that arrives until the network drains (or `max`
/// cycles pass), returning the number of flits consumed.
fn drain(net: &mut Network<u64>, max: u64) -> u64 {
    let eps = net.topology().endpoints().count();
    let mut consumed = 0;
    for _ in 0..max {
        for idx in 0..eps {
            for vc in set_bits(net.eject_vcs(idx)) {
                if net.eject_take_vc(idx, vc).is_some() {
                    consumed += 1;
                }
            }
        }
        net.step();
        if net.is_drained() {
            break;
        }
    }
    consumed
}

fn broadcast_reaches_everyone(mesh: Topology, src: RouterId, max_cycles: u64) {
    let n_eps = mesh.endpoints().count();
    let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
    let src_ep = Endpoint::tile(src);
    let uid = net
        .try_inject(src_ep, Packet::request(src_ep, Sid(src.0), 0, 7))
        .unwrap();
    drain(&mut net, max_cycles);
    assert!(net.is_drained(), "network failed to drain");
    // Every endpoint except the source consumes exactly one copy.
    assert_eq!(net.deliveries(uid) as usize, n_eps - 1);
}

#[test]
fn broadcast_on_non_square_mesh() {
    // 8×4 with MCs on two corners: 32 tiles + 2 MC ports.
    let mesh = Topology::new(Fabric::Mesh, 8, 4, [RouterId(0), RouterId(31)]);
    broadcast_reaches_everyone(mesh, RouterId(13), 600);
}

#[test]
fn broadcast_on_tall_thin_mesh() {
    let mesh = Topology::new(Fabric::Mesh, 2, 9, [RouterId(4)]);
    broadcast_reaches_everyone(mesh, RouterId(17), 600);
}

#[test]
fn broadcast_on_16x16_with_proportional_mcs() {
    let mesh = Topology::new(Fabric::Mesh, 16, 16, placement::proportional(16, 16));
    assert_eq!(mesh.mc_routers().len(), 16);
    // 256 tiles + 16 MCs - 1 source = 271 copies.
    broadcast_reaches_everyone(mesh, RouterId(8 * 16 + 8), 2000);
}

#[test]
fn sixteen_by_sixteen_quiesces_between_traffic_phases() {
    let mesh = Topology::new(Fabric::Mesh, 16, 16, placement::proportional(16, 16));
    let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
    let n_eps = net.topology().endpoints().count();
    // Phase 1: broadcasts from two far-apart tiles.
    for (k, r) in [RouterId(0), RouterId(255)].into_iter().enumerate() {
        let ep = Endpoint::tile(r);
        net.try_inject(ep, Packet::request(ep, Sid(r.0), k as u16, k as u64))
            .unwrap();
    }
    drain(&mut net, 3000);
    assert!(net.is_drained(), "phase 1 failed to drain");
    // The delivery map grows without bound under track_deliveries; tests
    // that assert per-uid counts drain it between phases.
    net.clear_deliveries();
    // Phase 2: a fresh broadcast starts from a clean quiescent network.
    let ep = Endpoint::tile(RouterId(100));
    let uid = net
        .try_inject(ep, Packet::request(ep, Sid(100), 0, 3))
        .unwrap();
    drain(&mut net, 3000);
    assert!(net.is_drained(), "phase 2 failed to drain");
    assert_eq!(net.deliveries(uid) as usize, n_eps - 1);
}

/// The active-set engine and the always-scan reference (every router and
/// injection port woken before each step) must march the same network
/// through the exact same states: same cycle-by-cycle ejections, same
/// drain cycle, same delivery counts — under random mixed traffic on a
/// non-square mesh.
#[test]
fn engines_are_cycle_exact_under_random_traffic() {
    use scorpio_sim::SimRng;

    let run = |scan: bool| -> (u64, Vec<(u64, u64)>) {
        let mesh = Topology::new(Fabric::Mesh, 6, 3, [RouterId(0), RouterId(17)]);
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let eps: Vec<Endpoint> = net.topology().endpoints().collect();
        let mut rng = SimRng::seed_from(99);
        let mut log = Vec::new();
        let mut drained_at = 0;
        for cycle in 0..2500u64 {
            if cycle < 800 {
                for &ep in &eps {
                    if rng.chance(0.03) {
                        let to = eps[rng.gen_range_usize(eps.len())];
                        if ep.slot.is_tile() && rng.chance(0.5) {
                            let _ = net.try_inject(
                                ep,
                                Packet::request(ep, Sid(ep.router.0), cycle as u16, cycle),
                            );
                        } else if to != ep {
                            let _ = net.try_inject(ep, Packet::response(ep, to, 3, cycle));
                        }
                    }
                }
            }
            for idx in 0..eps.len() {
                for vc in set_bits(net.eject_vcs(idx)) {
                    if let Some(f) = net.eject_take_vc(idx, vc) {
                        log.push((cycle, f.packet.uid));
                    }
                }
            }
            if scan {
                net.wake_all();
            }
            net.step();
            if cycle > 800 && net.is_drained() {
                drained_at = cycle;
                break;
            }
        }
        assert!(net.is_drained(), "network wedged (scan={scan})");
        (drained_at, log)
    };

    let (drain_a, log_a) = run(false);
    let (drain_b, log_b) = run(true);
    assert_eq!(drain_a, drain_b, "engines drained on different cycles");
    assert_eq!(log_a, log_b, "engines ejected different flit sequences");
    assert!(!log_a.is_empty());
}
