//! Property-based tests (proptest) over the reproduction's core
//! invariants: exactly-once broadcast delivery on arbitrary meshes,
//! global-order agreement of notification trackers under arbitrary window
//! streams, and full-system coherence of final values under random
//! write-sharing traces.

use proptest::prelude::*;
use scorpio::{Protocol, System, SystemConfig};
use scorpio_nic::NotificationTracker;
use scorpio_noc::{routing, Endpoint, Mesh, Network, NocConfig, Packet, Port, RouterId, Sid};
use scorpio_notify::NotifyMsg;
use scorpio_workloads::{Trace, TraceOp, TraceRecord};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The broadcast tree reaches every tile except the source exactly
    /// once, on any mesh shape (the per-topology generalization lives in
    /// `scorpio_noc::routing::check_broadcast_exactly_once`).
    #[test]
    fn broadcast_tree_exactly_once(cols in 1u16..8, rows in 1u16..8, src_seed in any::<u16>()) {
        let topo: scorpio_noc::Topology = Mesh::new(cols, rows, &[]).into();
        let src = RouterId(src_seed % (cols * rows));
        let deliveries = routing::broadcast_deliveries(&topo, src);
        for r in topo.routers() {
            let got = deliveries[r.index()].contains(Port::Tile);
            prop_assert_eq!(got, r != src, "router {} from {}", r, src);
        }
    }

    /// Unicast XY paths have exactly Manhattan length and end at the
    /// destination, for any pair.
    #[test]
    fn unicast_paths_are_minimal(cols in 1u16..8, rows in 1u16..8, a in any::<u16>(), b in any::<u16>()) {
        let topo: scorpio_noc::Topology = Mesh::new(cols, rows, &[]).into();
        let n = cols * rows;
        let (src, dst) = (RouterId(a % n), RouterId(b % n));
        let path = routing::unicast_path(&topo, src, Endpoint::tile(dst));
        prop_assert_eq!(path.len() as u16 - 1, topo.hops(src, dst));
        prop_assert_eq!(*path.last().unwrap(), dst);
    }

    /// The broadcast exactly-once property holds on wraparound fabrics of
    /// arbitrary size, not just meshes.
    #[test]
    fn broadcast_exactly_once_on_wraparound_fabrics(cols in 2u16..7, rows in 2u16..7, len in 2u16..20) {
        use scorpio_noc::{Ring, Torus};
        routing::check_broadcast_exactly_once(&Torus::new(cols, rows, &[]).into());
        routing::check_broadcast_exactly_once(&Ring::new(len, &[]).into());
    }

    /// Notification trackers fed the same window stream agree on the full
    /// expansion order regardless of when each one drains.
    #[test]
    fn trackers_agree_on_any_window_stream(
        windows in prop::collection::vec(
            prop::collection::vec(0u8..3, 6),
            1..10
        )
    ) {
        let make = || NotificationTracker::new(6, 16);
        let mut eager = make();
        let mut lazy = make();
        let mut eager_order = Vec::new();
        for w in &windows {
            let mut msg = NotifyMsg::new(6, 2);
            for (core, &count) in w.iter().enumerate() {
                msg.set_count(core, count);
            }
            if msg.is_empty() {
                continue;
            }
            eager.push_window(&msg);
            lazy.push_window(&msg);
            // Eager drains immediately.
            while let Some(sid) = eager.current_esid() {
                eager_order.push(sid.0);
                eager.advance();
            }
        }
        let mut lazy_order = Vec::new();
        while let Some(sid) = lazy.current_esid() {
            lazy_order.push(sid.0);
            lazy.advance();
        }
        prop_assert_eq!(eager_order, lazy_order);
    }

    /// A network full of random single-flit broadcasts always drains, and
    /// every packet is delivered to all other endpoints exactly once.
    #[test]
    fn random_broadcast_batches_drain(seed in any::<u64>(), k in 2u16..5) {
        let mesh = Mesh::new(k, k, &[]);
        let n = (k * k) as u64;
        let mut net: Network<u64> = Network::new(mesh, NocConfig::scorpio());
        let mut rng = scorpio_sim::SimRng::seed_from(seed);
        let mut uids = Vec::new();
        for r in 0..n as u16 {
            if rng.chance(0.7) {
                let src = Endpoint::tile(RouterId(r));
                let uid = net
                    .try_inject(src, Packet::request(src, Sid(r), 0, r as u64))
                    .unwrap();
                uids.push(uid);
            }
        }
        for _ in 0..3000 {
            let eps: Vec<Endpoint> = net.mesh().endpoints().collect();
            for ep in eps {
                let slots: Vec<_> = net.eject_heads(ep).map(|(s, _)| s).collect();
                for s in slots {
                    net.eject_take(ep, s);
                }
            }
            net.step();
            if net.is_drained() {
                break;
            }
        }
        prop_assert!(net.is_drained(), "network failed to drain");
        for uid in uids {
            prop_assert_eq!(net.deliveries(uid), n as u32 - 1);
        }
    }

    /// Plane steering is a partition: for any plane count and interleave
    /// granularity, every address maps to exactly one in-range plane,
    /// deterministically, and full stripe rotations divide evenly.
    #[test]
    fn plane_steering_partitions_addresses(planes in 1usize..=16, gran in 0u32..12, addr in any::<u64>()) {
        let steer = scorpio_noc::PlaneSteer::new(
            std::num::NonZeroUsize::new(planes).unwrap(),
            gran,
        );
        let p = steer.plane_of(addr);
        prop_assert!(p < planes, "plane {p} out of range for {planes}");
        prop_assert_eq!(steer.plane_of(addr), p, "steering must be deterministic");
        // The mapping matches the striping spec exactly — every node
        // computing this formula independently lands on the same plane,
        // and the modulo makes the per-stripe partition total + disjoint.
        prop_assert_eq!(p as u64, (addr >> gran) % planes as u64);
        // Addresses within the same stripe share the plane.
        let stripe_base = addr & !((1u64 << gran) - 1);
        prop_assert_eq!(steer.plane_of(stripe_base), p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full-system coherence: after random stores from random cores to a
    /// small line pool, a final load of each line (from a fresh core)
    /// returns the value of the globally last completed store. Runs on
    /// SCORPIO and the TokenB baseline.
    #[test]
    fn final_values_are_coherent(seed in any::<u64>(), tokenb in any::<bool>()) {
        let protocol = if tokenb { Protocol::TokenB } else { Protocol::Scorpio };
        let cfg = SystemConfig::square(2).with_protocol(protocol);
        let mut rng = scorpio_sim::SimRng::seed_from(seed);
        let lines: Vec<u64> = (0..4).map(|i| 0x7_0000 + i * 32).collect();
        // Each core writes an ascending series to random lines; because
        // stores from one core are program-ordered and tagged uniquely,
        // the final value of each line must equal one of the last-issued
        // stores to it — and reading it back from every core must agree.
        let mut traces = vec![Trace::new(); 4];
        for (c, trace) in traces.iter_mut().enumerate() {
            for s in 0..12u64 {
                let addr = lines[rng.gen_range_usize(lines.len())];
                trace.push(TraceRecord {
                    gap: rng.gen_range_u64(4) as u32,
                    op: TraceOp::Store,
                    addr,
                    value: (c as u64) << 32 | s,
                });
            }
        }
        // Afterwards every core reads every line.
        for trace in traces.iter_mut() {
            for &addr in &lines {
                trace.push(TraceRecord { gap: 1, op: TraceOp::Load, addr, value: 0 });
            }
        }
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        prop_assert_eq!(r.ops_completed, 4 * (12 + 4));
        // Single-owner invariant at quiescence: each line has at most one
        // owner among the L2s.
        for &addr in &lines {
            let line = scorpio_coherence::LineAddr(addr);
            let owners = (0..4)
                .filter(|&t| sys.l2(t).line_state(line).is_owner())
                .count();
            prop_assert!(owners <= 1, "line {addr:#x} has {owners} owners");
        }
    }
}
