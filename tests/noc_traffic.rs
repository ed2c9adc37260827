//! Network-level integration tests at the workspace root: latency/
//! throughput sanity of the main network under synthetic traffic patterns
//! (the NoC-only methodology of the paper's Section 5.2 exploration).

use scorpio_noc::{
    data_packet_flits, set_bits, Endpoint, Mesh, Network, NocConfig, Packet, RouterId,
};
use scorpio_sim::SimRng;

fn drain_step(net: &mut Network<u64>) {
    for idx in 0..net.topology().endpoints().count() {
        for vc in set_bits(net.eject_vcs(idx)) {
            net.eject_take_vc(idx, vc);
        }
    }
    net.step();
}

#[test]
fn uniform_random_unicast_latency_is_stable_at_low_load() {
    let mesh = Mesh::new(6, 6, &[]);
    let mut cfg = NocConfig::scorpio();
    cfg.track_deliveries = false;
    let mut net: Network<u64> = Network::new(mesh, cfg);
    let mut rng = SimRng::seed_from(99);
    // ~2% injection rate of 3-flit data packets for 2000 cycles.
    for cycle in 0..2000u64 {
        for r in 0..36u16 {
            if cycle < 1500 && rng.chance(0.02) {
                let src = Endpoint::tile(RouterId(r));
                let mut dst = r;
                while dst == r {
                    dst = rng.gen_range_u64(36) as u16;
                }
                let _ = net.try_inject(
                    src,
                    Packet::response(src, Endpoint::tile(RouterId(dst)), 3, cycle),
                );
            }
        }
        drain_step(&mut net);
    }
    for _ in 0..2000 {
        drain_step(&mut net);
        if net.is_drained() {
            break;
        }
    }
    assert!(net.is_drained(), "uniform traffic failed to drain");
    let s = net.stats();
    assert!(s.delivered_packets > 500);
    let mean = s.packet_latency.mean();
    // Zero-load 6x6 average ~ 10 hops worst case; low load must stay well
    // under 60 cycles mean.
    assert!(mean < 60.0, "low-load mean latency {mean} too high");
}

#[test]
fn broadcast_throughput_respects_mesh_bound() {
    // The theoretical broadcast throughput of a k×k mesh is 1/k² flits per
    // node per cycle (Section 5.3). Offer more than that and the network
    // must backpressure rather than wedge or drop.
    let mesh = Mesh::new(4, 4, &[]);
    let mut cfg = NocConfig::scorpio();
    cfg.vnets[0].ordered = false; // pure broadcast traffic, no ESIDs
    cfg.track_deliveries = false;
    let mut net: Network<u64> = Network::new(mesh, cfg);
    let mut injected = 0u64;
    let warm = 3000u64;
    for cycle in 0..warm {
        for r in 0..16u16 {
            let src = Endpoint::tile(RouterId(r));
            let pkt = Packet::broadcast_unordered(scorpio_noc::VnetId(0), src, cycle);
            if net.try_inject(src, pkt).is_ok() {
                injected += 1;
            }
        }
        drain_step(&mut net);
    }
    for _ in 0..4000 {
        drain_step(&mut net);
        if net.is_drained() {
            break;
        }
    }
    assert!(net.is_drained(), "broadcast saturation wedged the network");
    let s = net.stats();
    // Every injected broadcast reached all 15 other tiles.
    assert_eq!(s.delivered_packets, injected * 15);
    // Accepted rate is bounded by ~1/k² per node per cycle (plus modest
    // slack for warm-up buffering).
    let per_node_per_cycle = injected as f64 / (16.0 * warm as f64);
    assert!(
        per_node_per_cycle < 1.5 / 16.0,
        "accepted broadcast rate {per_node_per_cycle} exceeds the topology bound"
    );
}

#[test]
fn channel_width_changes_data_packet_length() {
    for (cw, expect) in [(8u32, 5u8), (16, 3), (32, 2)] {
        assert_eq!(data_packet_flits(cw, 32), expect);
        let mesh = Mesh::new(3, 3, &[]);
        let mut cfg = NocConfig::scorpio();
        cfg.channel_bytes = cw;
        let mut net: Network<u64> = Network::new(mesh, cfg.clone());
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(8));
        net.try_inject(src, Packet::response(src, dst, cfg.data_flits(), 1))
            .unwrap();
        let dst = net.endpoint_index(dst);
        let mut flits = 0;
        for _ in 0..200 {
            for vc in set_bits(net.eject_vcs(dst)) {
                net.eject_take_vc(dst, vc);
                flits += 1;
            }
            net.step();
            if net.is_drained() {
                break;
            }
        }
        assert_eq!(flits, expect as u32, "CW={cw}");
    }
}

#[test]
fn wider_goreq_helps_under_broadcast_pressure() {
    // More GO-REQ VCs should never hurt broadcast drain time.
    let run = |vcs: u8| -> u64 {
        let mesh = Mesh::new(4, 4, &[]);
        let mut cfg = NocConfig::scorpio();
        cfg.vnets[0].vcs = vcs;
        cfg.vnets[0].ordered = false;
        cfg.track_deliveries = false;
        let mut net: Network<u64> = Network::new(mesh, cfg);
        for r in 0..16u16 {
            let src = Endpoint::tile(RouterId(r));
            for _ in 0..4 {
                let _ = net.try_inject(
                    src,
                    Packet::broadcast_unordered(scorpio_noc::VnetId(0), src, 0),
                );
            }
        }
        let mut cycles = 0;
        for _ in 0..20_000 {
            drain_step(&mut net);
            cycles += 1;
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "vcs={vcs} wedged");
        cycles
    };
    let two = run(2);
    let four = run(4);
    assert!(
        four <= two,
        "4 VCs ({four} cycles) should not be slower than 2 VCs ({two})"
    );
}
