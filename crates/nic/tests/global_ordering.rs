//! End-to-end tests of the in-network ordering property: every NIC —
//! tiles and memory controllers alike — observes the identical global
//! sequence of coherence requests, regardless of injection timing, mesh
//! position, congestion, or stop-bit interference. With a multi-plane
//! main network the guarantee is per plane (which implies per address):
//! every NIC observes the identical order *within* each plane.

use scorpio_nic::{Nic, NicConfig, NicMode, OrderedDelivery};
use scorpio_noc::{Endpoint, Fabric, MultiNetwork, NocConfig, RouterId, Sid, Topology};
use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
use scorpio_sim::SimRng;
use std::num::NonZeroUsize;

/// A tile/MC world driving NICs against both networks.
struct World {
    net: MultiNetwork<u32>,
    notify: NotifyNetwork,
    nics: Vec<Nic<u32>>,
    logs: Vec<Vec<(usize, u16, u16)>>, // per NIC: (plane, sid, seq) order
}

fn payload(sid: u16, seq: u16) -> u32 {
    ((sid as u32) << 16) | seq as u32
}

fn unpack(p: u32) -> (u16, u16) {
    ((p >> 16) as u16, (p & 0xFFFF) as u16)
}

impl World {
    fn new(mesh: Topology, nic_cfg: NicConfig) -> World {
        World::with_planes(mesh, nic_cfg, 1)
    }

    fn with_planes(mesh: Topology, nic_cfg: NicConfig, planes: usize) -> World {
        let cores = mesh.router_count();
        let net: MultiNetwork<u32> = MultiNetwork::new(
            mesh.clone(),
            NocConfig::scorpio(),
            NonZeroUsize::new(planes).unwrap(),
            0,
        );
        let cfg = NotifyConfig::for_mesh(&mesh);
        let notify = NotifyNetwork::with_scheme(&mesh, cfg, planes, NotifyScheme::Flat);
        let mut nics = Vec::new();
        for ep in mesh.endpoints() {
            let sid = match ep.slot {
                scorpio_noc::LocalSlot::Tile(_) => Some(Sid(ep.router.0)),
                scorpio_noc::LocalSlot::Mc => None,
            };
            nics.push(Nic::new(
                ep,
                sid,
                NicMode::Ordered,
                cores,
                planes,
                nic_cfg.clone(),
            ));
        }
        let n = nics.len();
        World {
            net,
            notify,
            nics,
            logs: vec![Vec::new(); n],
        }
    }

    fn step(&mut self) {
        let now = self.net.cycle();
        for (i, nic) in self.nics.iter_mut().enumerate() {
            nic.tick(now, &mut self.net, Some(&mut self.notify));
            while let Some(OrderedDelivery { payload, sid, .. }) = nic.pop_ordered() {
                let (psid, seq) = unpack(payload);
                assert_eq!(psid, sid.0, "payload/sid mismatch");
                let plane = self.net.plane_of(payload as u64);
                self.logs[i].push((plane, psid, seq));
            }
            // Drain unordered deliveries too (none expected in these tests).
            while nic.pop_packet().is_some() {}
        }
        self.net.tick();
        self.net.commit();
        self.notify.tick();
    }

    /// Every NIC delivered all `expected_total` requests, every NIC agrees
    /// with NIC 0 on the order *within each plane*, and per (plane,
    /// source) the sequence numbers ascend (point-to-point ordering). For
    /// a single plane this is exactly the old identical-total-order check.
    fn assert_identical_logs(&self, expected_total: usize) {
        let planes = self.net.plane_count();
        let per_plane = |log: &[(usize, u16, u16)], p: usize| -> Vec<(u16, u16)> {
            log.iter()
                .filter(|&&(pl, _, _)| pl == p)
                .map(|&(_, s, q)| (s, q))
                .collect()
        };
        for (i, log) in self.logs.iter().enumerate() {
            assert_eq!(
                log.len(),
                expected_total,
                "NIC {i} delivered {} of {expected_total} requests",
                log.len()
            );
            for p in 0..planes {
                assert_eq!(
                    per_plane(log, p),
                    per_plane(&self.logs[0], p),
                    "NIC {i} observed a different plane-{p} order than NIC 0"
                );
            }
        }
        // Point-to-point ordering: per (plane, source), injection order is
        // preserved (the issue-order subsequence steered to one plane must
        // stay ascending).
        let mut last = std::collections::HashMap::new();
        for &(plane, sid, seq) in &self.logs[0] {
            let prev = last.insert((plane, sid), seq);
            if let Some(prev) = prev {
                assert!(prev < seq, "source {sid} out of order on plane {plane}");
            }
        }
    }
}

#[test]
fn all_nodes_observe_identical_order_single_burst() {
    let mesh = Fabric::Mesh.topology(4);
    let mut w = World::new(mesh, NicConfig::default());
    // Every tile fires one request in the same cycle.
    let now = w.net.cycle();
    for i in 0..16u16 {
        let ep = Endpoint::tile(RouterId(i));
        let idx = w.net.endpoint_index(ep);
        w.nics[idx]
            .try_send_request(payload(i, 0), now, &mut w.net)
            .unwrap();
    }
    for _ in 0..400 {
        w.step();
    }
    w.assert_identical_logs(16);
}

#[test]
fn staggered_random_injections_stay_ordered() {
    let mesh = Fabric::Mesh.topology(4);
    let mut w = World::new(mesh, NicConfig::default());
    let mut rng = SimRng::seed_from(77);
    let per_tile = 6u16;
    let mut seq = [0u16; 16];
    let mut remaining: usize = 16 * per_tile as usize;
    for _ in 0..6000 {
        if remaining > 0 {
            for i in 0..16u16 {
                if seq[i as usize] < per_tile && rng.chance(0.04) {
                    let ep = Endpoint::tile(RouterId(i));
                    let idx = w.net.endpoint_index(ep);
                    let now = w.net.cycle();
                    let s = seq[i as usize];
                    if w.nics[idx]
                        .try_send_request(payload(i, s), now, &mut w.net)
                        .is_ok()
                    {
                        seq[i as usize] += 1;
                        remaining -= 1;
                    }
                }
            }
        }
        w.step();
        if remaining == 0 && w.logs[0].len() == 16 * per_tile as usize {
            // Give stragglers a grace period.
            for _ in 0..300 {
                w.step();
            }
            break;
        }
    }
    w.assert_identical_logs(16 * per_tile as usize);
}

#[test]
fn stop_bit_pressure_does_not_break_ordering() {
    // A tiny tracker queue forces stop windows under load.
    let mesh = Fabric::Mesh.topology(3);
    let cfg = NicConfig {
        tracker_depth: 2,
        ..NicConfig::default()
    };
    let mut w = World::new(mesh, cfg);
    let per_tile = 8u16;
    let mut seq = [0u16; 9];
    for _ in 0..8000 {
        for i in 0..9u16 {
            if seq[i as usize] < per_tile {
                let ep = Endpoint::tile(RouterId(i));
                let idx = w.net.endpoint_index(ep);
                let now = w.net.cycle();
                let s = seq[i as usize];
                if w.nics[idx]
                    .try_send_request(payload(i, s), now, &mut w.net)
                    .is_ok()
                {
                    seq[i as usize] += 1;
                }
            }
        }
        w.step();
        if w.logs.iter().all(|l| l.len() == 9 * per_tile as usize) {
            break;
        }
    }
    w.assert_identical_logs(9 * per_tile as usize);
    // The pressure must actually have triggered the stop protocol.
    let stops: u64 = w.nics.iter().map(|n| n.stats.stop_windows).sum();
    assert!(stops > 0, "test failed to exercise the stop bit");
}

#[test]
fn saturating_burst_from_one_tile_respects_pending_limit() {
    let mesh = Topology::new(Fabric::Mesh, 2, 2, []);
    let mut w = World::new(mesh, NicConfig::default());
    let ep = Endpoint::tile(RouterId(0));
    let idx = w.net.endpoint_index(ep);
    // Push as many as the NIC will take in one cycle: limited to 4 by the
    // pending-notification counter.
    let now = w.net.cycle();
    let mut accepted = 0u16;
    for s in 0..10u16 {
        if w.nics[idx]
            .try_send_request(payload(0, s), now, &mut w.net)
            .is_ok()
        {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 4, "pending-notification limit should cap at 4");
    // The rest go in over time.
    let mut s = accepted;
    for _ in 0..2000 {
        if s < 10 {
            let now = w.net.cycle();
            if w.nics[idx]
                .try_send_request(payload(0, s), now, &mut w.net)
                .is_ok()
            {
                s += 1;
            }
        }
        w.step();
        if w.logs.iter().all(|l| l.len() == 10) {
            break;
        }
    }
    w.assert_identical_logs(10);
}

#[test]
fn mc_endpoints_observe_the_same_order_as_tiles() {
    let mesh = Fabric::Mesh.topology(4);
    let mut w = World::new(mesh, NicConfig::default());
    for round in 0..3u16 {
        for i in [0u16, 5, 10, 15] {
            let ep = Endpoint::tile(RouterId(i));
            let idx = w.net.endpoint_index(ep);
            let now = w.net.cycle();
            w.nics[idx]
                .try_send_request(payload(i, round), now, &mut w.net)
                .unwrap();
        }
        for _ in 0..40 {
            w.step();
        }
    }
    for _ in 0..200 {
        w.step();
    }
    w.assert_identical_logs(12);
    // Indices 16..20 are the MC NICs; spot-check one explicitly.
    let mc_idx = w.net.endpoint_index(Endpoint::mc(RouterId(0)));
    assert_eq!(w.logs[mc_idx], w.logs[0]);
}

#[test]
fn non_pipelined_nic_still_orders_correctly() {
    let mesh = Fabric::Mesh.topology(3);
    let cfg = NicConfig {
        pipelined: false,
        latency: 3,
        ..NicConfig::default()
    };
    let mut w = World::new(mesh, cfg);
    let now = w.net.cycle();
    for i in 0..9u16 {
        let ep = Endpoint::tile(RouterId(i));
        let idx = w.net.endpoint_index(ep);
        w.nics[idx]
            .try_send_request(payload(i, 0), now, &mut w.net)
            .unwrap();
    }
    for _ in 0..1500 {
        w.step();
    }
    w.assert_identical_logs(9);
}

#[test]
fn two_planes_keep_per_plane_global_order_under_random_load() {
    let mesh = Fabric::Mesh.topology(4);
    let mut w = World::with_planes(mesh, NicConfig::default(), 2);
    let mut rng = SimRng::seed_from(4242);
    let per_tile = 6u16;
    let mut seq = [0u16; 16];
    let mut remaining: usize = 16 * per_tile as usize;
    for _ in 0..8000 {
        if remaining > 0 {
            for i in 0..16u16 {
                if seq[i as usize] < per_tile && rng.chance(0.04) {
                    let ep = Endpoint::tile(RouterId(i));
                    let idx = w.net.endpoint_index(ep);
                    let now = w.net.cycle();
                    let s = seq[i as usize];
                    if w.nics[idx]
                        .try_send_request(payload(i, s), now, &mut w.net)
                        .is_ok()
                    {
                        seq[i as usize] += 1;
                        remaining -= 1;
                    }
                }
            }
        }
        w.step();
        if remaining == 0 && w.logs.iter().all(|l| l.len() == 16 * per_tile as usize) {
            break;
        }
    }
    w.assert_identical_logs(16 * per_tile as usize);
    // Both planes really carried traffic (payload parity splits them).
    let plane0 = w.logs[0].iter().filter(|&&(p, _, _)| p == 0).count();
    assert!(plane0 > 0 && plane0 < w.logs[0].len(), "one plane sat idle");
}

#[test]
fn four_planes_multiply_the_pending_notification_budget() {
    let mut w = World::with_planes(
        Topology::new(Fabric::Mesh, 2, 2, []),
        NicConfig::default(),
        4,
    );
    let ep = Endpoint::tile(RouterId(0));
    let idx = w.net.endpoint_index(ep);
    // Ten requests whose addresses stripe over four planes: per-plane
    // pending counts stay below 4, so — unlike the single-plane NIC,
    // which caps at 4 — all ten inject in one cycle.
    let now = w.net.cycle();
    let mut accepted = 0u16;
    for s in 0..10u16 {
        if w.nics[idx]
            .try_send_request(payload(0, s), now, &mut w.net)
            .is_ok()
        {
            accepted += 1;
        }
    }
    assert_eq!(
        accepted, 10,
        "per-plane notification budgets should all have headroom"
    );
    for _ in 0..2000 {
        w.step();
        if w.logs.iter().all(|l| l.len() == 10) {
            break;
        }
    }
    w.assert_identical_logs(10);
}
