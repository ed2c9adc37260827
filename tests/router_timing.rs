//! Router-timing regression anchors: the paper's pipeline claims as exact
//! cycle counts at zero load. These pin the timing model — any change to
//! stage structure, lookahead handling or link delays shows up here first.
//!
//! Timing model under test (DESIGN.md §4): non-bypassed hop = BW/SA-I →
//! SA-O/VS → ST (+1 link) = 4 cycles; bypassed hop = ST (+1 link) = 2
//! cycles; lookaheads processed one cycle before their flit arrives.

use scorpio_noc::{
    set_bits, Endpoint, Fabric, Network, NocConfig, Packet, RouterId, Sid, Topology, VnetId,
};

/// Runs until the single injected packet's tail is consumed at `dst`,
/// returning the consumption cycle.
fn delivery_cycle(mut net: Network<u64>, dst: Endpoint) -> u64 {
    let dst = net.endpoint_index(dst);
    for _ in 0..200 {
        let mut done = false;
        for vc in set_bits(net.eject_vcs(dst)) {
            if let Some(f) = net.eject_take_vc(dst, vc) {
                if f.is_tail() {
                    done = true;
                }
            }
        }
        if done {
            return net.cycle().as_u64();
        }
        net.step();
    }
    panic!("packet never arrived");
}

fn single_flit_latency(hops: u16, bypass: bool) -> u64 {
    // A 1×N line mesh: hops east from router 0.
    let mesh = Topology::new(Fabric::Mesh, hops + 1, 1, []);
    let mut cfg = NocConfig::scorpio();
    cfg.bypass = bypass;
    cfg.track_deliveries = false;
    let mut net: Network<u64> = Network::new(mesh, cfg);
    let src = Endpoint::tile(RouterId(0));
    let dst = Endpoint::tile(RouterId(hops));
    net.try_inject(src, Packet::response(src, dst, 1, 7))
        .unwrap();
    delivery_cycle(net, dst)
}

#[test]
fn bypassed_hop_adds_two_cycles() {
    // At zero load every lookahead wins: each extra hop costs exactly
    // ST + link = 2 cycles.
    let l1 = single_flit_latency(1, true);
    let l2 = single_flit_latency(2, true);
    let l4 = single_flit_latency(4, true);
    assert_eq!(l2 - l1, 2, "hop 1→2: {l1} → {l2}");
    assert_eq!(l4 - l2, 4, "hop 2→4: {l2} → {l4}");
}

#[test]
fn buffered_hop_adds_four_cycles() {
    // With bypassing disabled every hop pays the full three-stage router
    // plus the link.
    let l1 = single_flit_latency(1, false);
    let l2 = single_flit_latency(2, false);
    let l4 = single_flit_latency(4, false);
    assert_eq!(l2 - l1, 4, "hop 1→2: {l1} → {l2}");
    assert_eq!(l4 - l2, 8, "hop 2→4: {l2} → {l4}");
}

#[test]
fn bypass_saves_two_cycles_per_router() {
    // An N-hop path traverses N+1 routers (the source router included),
    // each saving BW/SA-I + SA-O/VS = 2 cycles when bypassed.
    for hops in [1u16, 3, 5] {
        let fast = single_flit_latency(hops, true);
        let slow = single_flit_latency(hops, false);
        assert_eq!(
            slow - fast,
            2 * (hops as u64 + 1),
            "bypass saving at {hops} hops ({fast} vs {slow})"
        );
    }
}

#[test]
fn multi_flit_tail_trails_head_by_flit_count() {
    // Cut-through: at zero load the tail lands len-1 cycles after the head
    // would as a single flit (one flit per cycle on the link).
    let mesh = Topology::new(Fabric::Mesh, 4, 1, []);
    let mut cfg = NocConfig::scorpio();
    cfg.track_deliveries = false;
    let single = {
        let mut net: Network<u64> = Network::new(mesh.clone(), cfg.clone());
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(3));
        net.try_inject(src, Packet::response(src, dst, 1, 7))
            .unwrap();
        delivery_cycle(net, dst)
    };
    let triple = {
        let mut net: Network<u64> = Network::new(mesh, cfg);
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(3));
        net.try_inject(src, Packet::response(src, dst, 3, 7))
            .unwrap();
        delivery_cycle(net, dst)
    };
    // Multi-flit packets take the buffered path (no lookahead), so compare
    // against the buffered single-flit baseline plus 2 serialization slots.
    let single_buffered = {
        let mesh = Topology::new(Fabric::Mesh, 4, 1, []);
        let mut cfg = NocConfig::scorpio();
        cfg.bypass = false;
        cfg.track_deliveries = false;
        let mut net: Network<u64> = Network::new(mesh, cfg);
        let src = Endpoint::tile(RouterId(0));
        let dst = Endpoint::tile(RouterId(3));
        net.try_inject(src, Packet::response(src, dst, 1, 7))
            .unwrap();
        delivery_cycle(net, dst)
    };
    assert!(single < triple, "single {single} vs triple {triple}");
    assert_eq!(
        triple,
        single_buffered + 2,
        "tail should trail the buffered head by exactly 2 flit slots"
    );
}

#[test]
fn broadcast_farthest_copy_matches_unicast_distance() {
    // The XY broadcast tree delivers the farthest copy no later than a
    // unicast over the same distance plus fork-contention slack.
    let mesh = Topology::new(Fabric::Mesh, 4, 4, []);
    let mut cfg = NocConfig::scorpio();
    cfg.track_deliveries = false;
    let mut net: Network<u64> = Network::new(mesh, cfg);
    let src = Endpoint::tile(RouterId(0));
    let far = Endpoint::tile(RouterId(15));
    net.try_inject(src, Packet::request(src, Sid(0), 0, 7))
        .unwrap();
    let bcast = delivery_cycle(net, far);
    let uni = single_flit_latency(6, true) /* 6 hops on a line */;
    // Same Manhattan distance (6 hops): the broadcast copy pays at most a
    // few cycles of fork arbitration over the unicast.
    assert!(
        bcast <= uni + 8,
        "broadcast far-copy {bcast} vs unicast {uni}"
    );
}

#[test]
fn goreq_vnet_uses_separate_buffers_from_uoresp() {
    // Saturate UO-RESP with data packets; a GO-REQ broadcast must still
    // make progress (virtual-network isolation).
    let mesh = Topology::new(Fabric::Mesh, 4, 1, []);
    let mut cfg = NocConfig::scorpio();
    cfg.vnets[0].ordered = false;
    cfg.track_deliveries = false;
    let mut net: Network<u64> = Network::new(mesh, cfg);
    let src = Endpoint::tile(RouterId(0));
    let dst = Endpoint::tile(RouterId(3));
    for k in 0..6 {
        let _ = net.try_inject(src, Packet::response(src, dst, 3, k));
    }
    net.try_inject(src, Packet::broadcast_unordered(VnetId(0), src, 99))
        .unwrap();
    // Consume only GO-REQ flits; leave UO-RESP parked to hold its buffers.
    let dst = net.endpoint_index(dst);
    let mut got_broadcast_at = None;
    for _ in 0..120 {
        let go_req: Vec<usize> = set_bits(net.eject_vcs(dst))
            .filter(|&vc| net.eject_head(dst, vc).unwrap().packet.vnet == VnetId(0))
            .collect();
        for vc in go_req {
            net.eject_take_vc(dst, vc);
            got_broadcast_at = Some(net.cycle().as_u64());
        }
        if got_broadcast_at.is_some() {
            break;
        }
        net.step();
    }
    assert!(
        got_broadcast_at.is_some(),
        "GO-REQ blocked behind parked UO-RESP traffic"
    );
}
