//! Steady-state allocation regression: once every ring, wire buffer and
//! scratch vector has grown to its working size, stepping the simulator
//! must not go back to the heap for the per-cycle decisions.
//!
//! The binary installs its own counting allocator (per-thread counters, so
//! the tests — and the harness threads around them — do not disturb each
//! other). It counts requests and records the largest single one.

use scorpio::{System, SystemConfig};
use scorpio_coherence::{DirectoryCache, LineAddr, LineState};
use scorpio_mem::{CacheArray, Line};
use scorpio_nic::{Nic, NicConfig, NicMode};
use scorpio_noc::{
    set_bits, Endpoint, Fabric, MultiNetwork, Network, NocConfig, Packet, RouterId, Sid, Topology,
    VnetId,
};
use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
use scorpio_workloads::{generate, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: an allocation made during TLS teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition is
// a thread-local counter bump that cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which always delegates to
        // the system allocator, with `layout`.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by the system allocator with `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f`, returning its result with the allocations it made and the
/// largest single request among them (0 if none).
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, usize) {
    let outer = LARGEST.with(|m| m.replace(0));
    let before = allocations();
    let result = f();
    let made = allocations() - before;
    let largest = LARGEST.with(|m| m.replace(m.get().max(outer)));
    (result, made, largest)
}

/// Cache and directory arrays hold only the sets they touch: an empty
/// 128 KB 4-way `CacheArray` (the chip's L2, 1 024 sets) and an MC-sized
/// `DirectoryCache` (32 KiB of 2-bit entries, 4-way: 32 768 sets) are each
/// one allocation of at most 4 bytes per set, and filling `k` distinct
/// sets costs at most 2 + ⌈log2(k · ways)⌉ allocations in all — one slab
/// growing by doubling. With a `Vec` per set the build wrote a 24-byte
/// header per set and every first fill of a set allocated.
#[test]
fn cache_arrays_hold_only_what_they_touch() {
    let bound = |k: u64, ways: u64| 2 + (k * ways).next_power_of_two().ilog2() as u64;

    let (mut l2, made, largest) = measured(|| CacheArray::with_capacity(128 * 1024, 4, 32));
    let sets = l2.capacity_lines() / 4;
    assert_eq!(sets, 1024);
    assert_eq!(made, 1, "building an empty L2 array");
    assert!(largest <= 4 * sets, "{largest} B for {sets} sets");
    let k = 300u64;
    let ((), filled, _) = measured(|| {
        for set in 0..k {
            let line = Line {
                addr: LineAddr(set * 32),
                state: LineState::S,
                value: set,
            };
            assert!(l2.insert(line).is_none());
        }
    });
    assert_eq!(l2.len(), k as usize);
    assert!(
        made + filled <= bound(k, 4),
        "{} allocations for {k} sets of 4 ways (bound {})",
        made + filled,
        bound(k, 4)
    );

    let (mut dir, made, largest) = measured(|| DirectoryCache::with_budget(32 * 1024, 2, 4));
    let sets = dir.capacity() / 4;
    assert_eq!(sets, 32_768);
    assert_eq!(made, 1, "building an empty directory cache");
    assert!(largest <= 4 * sets, "{largest} B for {sets} sets");
    let ((), filled, _) = measured(|| {
        for set in 0..k {
            assert!(!dir.access(LineAddr(set << 5)));
        }
    });
    assert!(
        made + filled <= bound(k, 4),
        "{} allocations for {k} sets of 4 ways (bound {})",
        made + filled,
        bound(k, 4)
    );
}

/// The 36-core chip on `barnes`: after 2 000 warm-up cycles, the next
/// 2 000 stepped cycles make 120 allocations in total (180 while each L2
/// queued a miss record nothing read, 675 while every cache set was its
/// own `Vec` and every pending write had a fresh FID list, 683 while
/// routers were per-router heap objects; the parent of the mask-native
/// router made about 30 000); the bound is that + 10 %. What remains is
/// growth, not per-cycle work: cache slabs doubling, MC ownership maps
/// and each RSHR slot's one FID allocation.
/// Ejection rings, NIC tables, the wake wheel and the timed-wake heap are
/// sized at build.
#[test]
fn chip_on_barnes_steps_without_per_cycle_allocations() {
    let cfg = SystemConfig::chip();
    let params = WorkloadParams::by_name("barnes").expect("preset exists");
    let traces = generate(&params, cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    for _ in 0..2000 {
        sys.step();
    }
    assert!(!sys.is_complete(), "warm-up must leave work to measure");
    let before = allocations();
    let stepped_before = sys.stepped_cycles();
    for _ in 0..2000 {
        sys.step();
    }
    let made = allocations() - before;
    assert!(!sys.is_complete(), "the measured span must be all work");
    assert_eq!(sys.stepped_cycles() - stepped_before, 2000);
    assert!(
        made <= 132,
        "{made} allocations in 2000 warm stepped cycles (bound 132)"
    );
}

/// A standalone network under sustained broadcast injection, endpoints
/// consuming everything that arrives: exactly zero allocations once warm.
#[test]
fn network_under_broadcast_injection_allocates_nothing_once_warm() {
    let mesh = Fabric::Mesh.topology(4);
    let mut cfg = NocConfig::scorpio();
    cfg.track_deliveries = false;
    let mut net: Network<u32> = Network::new(mesh, cfg);
    let endpoints = net.topology().endpoints().count();
    let mut seq = [0u16; 16];
    let mut cycle = |net: &mut Network<u32>, n: u32| {
        // Every fourth cycle each tile tries a broadcast (a full injection
        // queue refuses it, which keeps the load at what the fabric takes).
        if n.is_multiple_of(4) {
            for r in 0..16u16 {
                let src = Endpoint::tile(RouterId(r));
                let packet = Packet::request(src, Sid(r), seq[r as usize], n);
                if net.try_inject(src, packet).is_ok() {
                    seq[r as usize] = seq[r as usize].wrapping_add(1);
                }
            }
        }
        for idx in 0..endpoints {
            for vc in set_bits(net.eject_vcs(idx)) {
                net.eject_take_vc(idx, vc);
            }
        }
        net.step();
    };
    (0..5000).for_each(|n| cycle(&mut net, n));
    let delivered = net.stats().packet_latency().count();
    let before = allocations();
    (5000..8000).for_each(|n| cycle(&mut net, n));
    let made = allocations() - before;
    // `stats()` clones the per-vnet accumulators, so read it after counting.
    let moved = net.stats().packet_latency().count() - delivered;
    assert!(moved > 10_000, "the measured span carried traffic: {moved}");
    assert_eq!(made, 0, "a warm network must not allocate");
}

/// The interconnect alone, in the shape of the benchmark's interconnect
/// probe: two planes, real NICs and the notification network, tiles in
/// turn sending ordered requests and data-sized unicasts, endpoints
/// sleeping and waking by the system's own rule. Exactly zero allocations
/// once warm — ejection rings, NIC tables, trackers and wake scratch
/// included.
#[test]
fn interconnect_with_nics_and_notify_allocates_nothing_once_warm() {
    let mesh = Fabric::Mesh.topology(4);
    let mut noc = NocConfig::scorpio();
    noc.track_deliveries = false;
    let data_flits = noc.data_flits();
    let planes = std::num::NonZeroUsize::new(2).expect("non-zero");
    let mut net: MultiNetwork<u64> = MultiNetwork::new(mesh.clone(), noc, planes, 0);
    let cfg = NotifyConfig::for_mesh(&mesh);
    let mut notify = NotifyNetwork::with_scheme(&mesh, cfg, 2, NotifyScheme::Flat);
    let endpoints: Vec<Endpoint> = mesh.endpoints().collect();
    let mut nics: Vec<Nic<u64>> = endpoints
        .iter()
        .enumerate()
        .map(|(i, &ep)| {
            let sid = (i < 16).then_some(Sid(i as u16));
            Nic::new(ep, sid, NicMode::Ordered, 16, 2, NicConfig::default())
        })
        .collect();
    let mut awake = vec![true; endpoints.len()];
    let mut woken = Vec::new();
    let mut last_window = None;
    let mut delivered = 0u64;
    let mut cycle = |delivered: &mut u64| {
        let now = net.cycle();
        // One ordered request every fourth cycle and one data response
        // every eighth, walking round the endpoints (payloads alternate
        // planes; a refused send is dropped).
        let n = now.as_u64();
        if n.is_multiple_of(4) {
            let t = (n / 4 % 16) as usize;
            awake[t] |= nics[t].try_send_request(n / 4, now, &mut net).is_ok();
        }
        if n.is_multiple_of(8) {
            let src = (n / 8 % endpoints.len() as u64) as usize;
            let dest = endpoints[(n / 8 * 7 % 16) as usize];
            if dest != endpoints[src] {
                let sent =
                    nics[src].try_send_unicast(VnetId::UO_RESP, dest, data_flits, n / 8, &mut net);
                awake[src] |= sent.is_ok();
            }
        }
        for (i, nic) in nics.iter_mut().enumerate() {
            if !awake[i] {
                continue;
            }
            while nic.pop_ordered().is_some() {
                *delivered += 1;
            }
            while nic.pop_packet().is_some() {}
            nic.tick(now, &mut net, Some(&mut notify));
            awake[i] = nic.next_wake(now, &net, Some(&notify)).at <= now.next();
        }
        net.tick();
        net.commit();
        notify.tick();
        net.take_woken_endpoints(&mut woken);
        for &e in &woken {
            awake[e as usize] = true;
        }
        if let Some((w, msg)) = notify.latest() {
            if last_window != Some(w) {
                last_window = Some(w);
                if !msg.is_empty() {
                    awake.fill(true);
                }
            }
        }
        // Announcements wait for a window start; this loop has no timed
        // wakes, so it re-arms every NIC there.
        if notify.is_window_start(net.cycle()) {
            awake.fill(true);
        }
    };
    (0..6000).for_each(|_| cycle(&mut delivered));
    let warm = delivered;
    let before = allocations();
    (0..4000).for_each(|_| cycle(&mut delivered));
    let made = allocations() - before;
    let moved = delivered - warm;
    assert!(moved > 10_000, "the measured span carried traffic: {moved}");
    assert_eq!(made, 0, "a warm interconnect must not allocate");
}

/// A NIC builds SCORPIO's ordering state only when it orders, one record
/// per plane: a baseline NIC (TokenB, INSO, LPD-D, HT-D) takes the same
/// few allocations at 1, 2 and 4 planes, an ordering NIC at most two more
/// per extra plane (its tracker's window queue and its per-source
/// delivered counts), and a tile NIC costs what an MC NIC of the same mode
/// does. With nine parallel per-plane vectors every NIC took
/// 11 + 3 · planes, whatever its mode.
#[test]
fn nic_construction_cost_is_one_record_per_ordering_plane() {
    let cost = |tile: bool, mode: NicMode, planes: usize| {
        let (ep, sid) = if tile {
            (Endpoint::tile(RouterId(5)), Some(Sid(5)))
        } else {
            (Endpoint::mc(RouterId(0)), None)
        };
        let cfg = NicConfig::default();
        measured(|| Nic::<u64>::new(ep, sid, mode, 16, planes, cfg)).1
    };
    for mode in [NicMode::Ordered, NicMode::Unordered] {
        for planes in [1, 2, 4] {
            let (tile, mc) = (cost(true, mode, planes), cost(false, mode, planes));
            assert_eq!(tile, mc, "{mode:?} at {planes} planes: tile vs MC NIC");
        }
    }
    let baseline = [1, 2, 4].map(|planes| cost(true, NicMode::Unordered, planes));
    assert_eq!(baseline, [baseline[0]; 3], "baseline NIC at 1, 2, 4 planes");
    assert!(
        baseline[0] <= 4,
        "{} allocations for a baseline NIC",
        baseline[0]
    );
    let [one, two, four] = [1, 2, 4].map(|planes| cost(true, NicMode::Ordered, planes));
    assert!(
        two <= one + 2 && four <= two + 2 * 2,
        "ordering NIC at 1, 2, 4 planes: {one}, {two}, {four} allocations"
    );
}

/// The notification network is a handful of message registers, whatever
/// the fabric: building it for 256 routers (flat) and for 1024 (quad,
/// fanout 2) takes the same few allocations — never a message or a list
/// per router.
#[test]
fn notify_construction_cost_is_independent_of_the_router_count() {
    let build = |k: u16, scheme: NotifyScheme| {
        let mesh = Topology::new(Fabric::Mesh, k, k, []);
        let cfg = NotifyConfig {
            cores: mesh.tile_count(),
            bits_per_core: 1,
            window: scheme.window_for(&mesh),
        };
        let before = allocations();
        let notify = NotifyNetwork::with_scheme(&mesh, cfg, 1, scheme);
        (allocations() - before, notify)
    };
    let (flat, _flat_net) = build(16, NotifyScheme::Flat);
    let (quad, _quad_net) = build(32, NotifyScheme::Quad { fanout: 2 });
    assert_eq!(flat, quad, "16x16 flat vs 32x32 quad-f2");
    assert!(flat <= 8, "{flat} allocations to build a notify network");
}

/// The main network is a fixed handful of network-level arrays: building
/// one takes the same allocations on a 4×4 mesh, a 16×16 mesh and a cmesh
/// of 8×8 routers with four tiles each — never a buffer, ring or credit
/// row per router, port or VC — and every plane of a multi-plane network
/// costs exactly one network. With per-router objects the 4×4 took 1 090
/// allocations, the 16×16 17 026 and the cmesh 7 714. The count is pinned
/// exactly: per-plane state belongs in an existing array (the SID census
/// shares the ESID slots), and one more `Vec` fails here.
#[test]
fn network_construction_cost_is_independent_of_the_router_count() {
    let cfg = NocConfig::scorpio();
    let build = |fabric: Topology| {
        let cfg = cfg.clone();
        let before = allocations();
        let net: Network<u64> = Network::new(fabric, cfg);
        (allocations() - before, net)
    };
    let (small, _small) = build(Fabric::Mesh.topology(4));
    let (large, _large) = build(Fabric::Mesh.topology(16));
    let (cmesh, _cmesh) = build(Fabric::CMesh(4).topology(16));
    assert_eq!([small, large], [cmesh; 2], "4x4, 16x16 and cmesh8x8x4");
    assert_eq!(small, 36, "allocations to build a network");

    // A plane is one network built from its own copies of the topology and
    // the configuration.
    let mesh = Fabric::Mesh.topology(4);
    let before = allocations();
    let copies = (mesh.clone(), cfg.clone());
    let plane = small + (allocations() - before);
    drop(copies);
    let multi = |planes: usize| {
        let (mesh, cfg) = (mesh.clone(), cfg.clone());
        let planes = std::num::NonZeroUsize::new(planes).expect("non-zero");
        let before = allocations();
        let net: MultiNetwork<u64> = MultiNetwork::new(mesh, cfg, planes, 0);
        (allocations() - before, net)
    };
    let ((one, _one), (two, _two)) = (multi(1), multi(2));
    assert_eq!(two - one, plane, "1 plane: {one}, 2 planes: {two}");
}
