//! Randomized property tests over the reproduction's core invariants:
//! exactly-once broadcast delivery on arbitrary meshes, global-order
//! agreement of notification trackers under arbitrary window streams, and
//! full-system coherence of final values under random write-sharing
//! traces. Each property draws its inputs from a [`SimRng`] seeded from a
//! fixed seed list, so runs are reproducible and a failure names the seed
//! that triggers it.

use scorpio::{Protocol, System, SystemConfig};
use scorpio_nic::NotificationTracker;
use scorpio_noc::{
    set_bits, testing, Endpoint, Fabric, Network, NocConfig, Packet, PlaneSteer, Port, RouterId,
    Sid, Topology,
};
use scorpio_notify::NotifyMsg;
use scorpio_sim::SimRng;
use scorpio_workloads::{Trace, TraceOp, TraceRecord};

/// Runs `case` once per seed in `0..cases`, each on a fresh generator; a
/// failing case is reported with the seed that reproduces it.
fn for_each_seed(cases: u64, case: impl Fn(&mut SimRng) + std::panic::RefUnwindSafe) {
    for seed in 0..cases {
        let run = || case(&mut SimRng::seed_from(seed));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property failed at seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A uniform `u16` in `lo..hi`.
fn range_u16(rng: &mut SimRng, lo: u16, hi: u16) -> u16 {
    lo + rng.gen_range_u64(u64::from(hi - lo)) as u16
}

/// The broadcast tree reaches every tile except the source exactly once,
/// on any mesh shape (the per-topology generalization lives in
/// `scorpio_noc::testing::check_broadcast_exactly_once`).
#[test]
fn broadcast_tree_exactly_once() {
    for_each_seed(16, |rng| {
        let (cols, rows) = (range_u16(rng, 1, 8), range_u16(rng, 1, 8));
        let topo: Topology = Topology::new(Fabric::Mesh, cols, rows, []);
        let src = RouterId(range_u16(rng, 0, cols * rows));
        let deliveries = testing::broadcast_deliveries(&topo, Endpoint::tile(src));
        for r in topo.routers() {
            let got = deliveries[r.index()].contains(Port::Tile);
            assert_eq!(got, r != src, "router {r} from {src} on {cols}x{rows}");
        }
    });
}

/// Unicast XY paths have exactly Manhattan length and end at the
/// destination, for any pair.
#[test]
fn unicast_paths_are_minimal() {
    for_each_seed(16, |rng| {
        let (cols, rows) = (range_u16(rng, 1, 8), range_u16(rng, 1, 8));
        let topo: Topology = Topology::new(Fabric::Mesh, cols, rows, []);
        let n = cols * rows;
        let (src, dst) = (
            RouterId(range_u16(rng, 0, n)),
            RouterId(range_u16(rng, 0, n)),
        );
        let path = testing::unicast_path(&topo, src, Endpoint::tile(dst));
        assert_eq!(path.len() as u16 - 1, topo.hops(src, dst));
        assert_eq!(*path.last().unwrap(), dst);
    });
}

/// The broadcast exactly-once property holds on wraparound fabrics of
/// arbitrary size, not just meshes.
#[test]
fn broadcast_exactly_once_on_wraparound_fabrics() {
    for_each_seed(16, |rng| {
        let (cols, rows) = (range_u16(rng, 2, 7), range_u16(rng, 2, 7));
        testing::check_broadcast_exactly_once(&Topology::new(Fabric::Torus, cols, rows, []));
        testing::check_broadcast_exactly_once(&Topology::new(
            Fabric::Ring,
            range_u16(rng, 2, 20),
            1,
            [],
        ));
    });
}

/// Notification trackers fed the same window stream agree on the full
/// expansion order regardless of when each one drains.
#[test]
fn trackers_agree_on_any_window_stream() {
    for_each_seed(16, |rng| {
        let mut eager = NotificationTracker::new(6, 16, 0);
        let mut lazy = NotificationTracker::new(6, 16, 0);
        let mut eager_order = Vec::new();
        for _ in 0..1 + rng.gen_range_usize(9) {
            let mut msg = NotifyMsg::new(6, 2, 1);
            for core in 0..6 {
                msg.set_count(0, core, rng.gen_range_u64(3) as u8);
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
        assert_eq!(eager_order, lazy_order);
    });
}

/// A network full of random single-flit broadcasts always drains, and
/// every packet is delivered to all other endpoints exactly once.
#[test]
fn random_broadcast_batches_drain() {
    for_each_seed(16, |rng| {
        let k = range_u16(rng, 2, 5);
        let n = k * k;
        let mut net: Network<u64> =
            Network::new(Topology::new(Fabric::Mesh, k, k, []), NocConfig::scorpio());
        let mut uids = Vec::new();
        for r in 0..n {
            if rng.chance(0.7) {
                let src = Endpoint::tile(RouterId(r));
                let uid = net
                    .try_inject(src, Packet::request(src, Sid(r), 0, u64::from(r)))
                    .unwrap();
                uids.push(uid);
            }
        }
        let eps = net.topology().endpoints().count();
        let drained = testing::run_until_drained(&mut net, 3000, |net| {
            for idx in 0..eps {
                for vc in set_bits(net.eject_vcs(idx)) {
                    net.eject_take_vc(idx, vc);
                }
            }
        });
        assert!(drained, "network failed to drain");
        for uid in uids {
            assert_eq!(net.deliveries(uid), u32::from(n) - 1);
        }
    });
}

/// Plane steering is a partition: for any plane count and interleave
/// granularity, every address maps to exactly one in-range plane,
/// deterministically, and full stripe rotations divide evenly.
#[test]
fn plane_steering_partitions_addresses() {
    for_each_seed(16, |rng| {
        let planes = 1 + rng.gen_range_usize(16);
        let gran = rng.gen_range_u64(12) as u32;
        let addr = rng.next_u64();
        let steer = PlaneSteer::new(std::num::NonZeroUsize::new(planes).unwrap(), gran);
        let p = steer.plane_of(addr);
        assert!(p < planes, "plane {p} out of range for {planes}");
        assert_eq!(steer.plane_of(addr), p, "steering must be deterministic");
        // The mapping matches the striping spec exactly — every node
        // computing this formula independently lands on the same plane,
        // and the modulo makes the per-stripe partition total + disjoint.
        assert_eq!(p as u64, (addr >> gran) % planes as u64);
        // Addresses within the same stripe share the plane.
        let stripe_base = addr & !((1u64 << gran) - 1);
        assert_eq!(steer.plane_of(stripe_base), p);
    });
}

/// Full-system coherence: after random stores from random cores to a
/// small line pool, every core reads every line back and the run
/// completes. At quiescence each line has at most one owner among the
/// L2s, every valid L2 copy holds the line's coherent value (data-value),
/// and that value is the last store some core issued to the line, or the
/// initial 0 if none wrote it: each core's stores are ascending and
/// uniquely tagged, so an earlier store of one core can never be final
/// (per-core CoWW). Every case runs on SCORPIO, the TokenB baseline and
/// 2-plane SCORPIO, where neighbouring lines are ordered on different
/// planes.
#[test]
fn final_values_are_coherent() {
    for_each_seed(4, |rng| {
        let lines: Vec<u64> = (0..4).map(|i| 0x7_0000 + i * 32).collect();
        // Each core writes an ascending, uniquely tagged series to random
        // lines, then reads every line.
        let mut traces = vec![Trace::new(); 4];
        // Per line, the last value each core stored there.
        let mut finals = vec![Vec::new(); lines.len()];
        for (c, trace) in traces.iter_mut().enumerate() {
            let mut last = vec![None; lines.len()];
            for s in 0..12u64 {
                let i = rng.gen_range_usize(lines.len());
                let value = (c as u64) << 32 | s;
                last[i] = Some(value);
                trace.push(TraceRecord {
                    gap: rng.gen_range_u64(4) as u32,
                    op: TraceOp::Store,
                    addr: lines[i],
                    value,
                });
            }
            for (f, v) in finals.iter_mut().zip(last) {
                f.extend(v);
            }
        }
        for trace in traces.iter_mut() {
            for &addr in &lines {
                trace.push(TraceRecord {
                    gap: 1,
                    op: TraceOp::Load,
                    addr,
                    value: 0,
                });
            }
        }
        for (protocol, planes) in [
            (Protocol::Scorpio, 1),
            (Protocol::TokenB, 1),
            (Protocol::Scorpio, 2),
        ] {
            let cfg = SystemConfig::square(2)
                .with_protocol(protocol)
                .with_planes(planes);
            let mut sys = System::with_traces(cfg, traces.clone());
            let r = sys.run_to_completion();
            let run = format!("{protocol:?}, {planes} plane(s)");
            assert_eq!(r.ops_completed, 4 * (12 + 4), "{run}");
            for (&addr, stored) in lines.iter().zip(&finals) {
                let line = scorpio_coherence::LineAddr(addr);
                let states = (0..4).map(|t| sys.l2(t).line_state(line));
                let owners = states.clone().filter(|s| s.is_owner()).count();
                assert!(owners <= 1, "{run}: line {addr:#x} has {owners} owners");
                let value = sys
                    .coherent_value(line)
                    .unwrap_or_else(|| panic!("{run}: line {addr:#x} has no value"));
                for (t, state) in states.enumerate() {
                    if state.can_read() {
                        assert_eq!(
                            sys.l2(t).line_value(line),
                            Some(value),
                            "{run}: L2 {t} holds a stale copy of line {addr:#x}"
                        );
                    }
                }
                let allowed = if stored.is_empty() { &[0][..] } else { stored };
                assert!(
                    allowed.contains(&value),
                    "{run}: line {addr:#x} ends at {value:#x}, not a last store {allowed:#x?}"
                );
            }
        }
    });
}
