//! Steady-state allocation regression: once every ring, wire buffer and
//! scratch vector has grown to its working size, stepping the simulator
//! must not go back to the heap for the per-cycle decisions.
//!
//! The binary installs its own counting allocator (per-thread counter, so
//! the tests — and the harness threads around them — do not disturb each
//! other).

use scorpio::{System, SystemConfig};
use scorpio_nic::{Nic, NicConfig, NicMode};
use scorpio_noc::{
    set_bits, Endpoint, Mesh, MultiNetwork, Network, NocConfig, Packet, RouterId, Sid, VnetId,
};
use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
use scorpio_workloads::{generate, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: an allocation made during TLS teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition is
// a thread-local counter bump that cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, passed through.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout, passed through.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// The 36-core chip on `barnes`: after 2 000 warm-up cycles, the next
/// 2 000 stepped cycles make 683 allocations in total (the parent of the
/// mask-native router made about 30 000); the bound is that + 10 %. What
/// remains is first-touch state — cache sets, FID lists, MC maps — not
/// per-cycle work: ejection rings, NIC tables, the wake wheel and the
/// timed-wake heap are sized at build.
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
        made <= 750,
        "{made} allocations in 2000 warm stepped cycles (bound 750)"
    );
}

/// A standalone network under sustained broadcast injection, endpoints
/// consuming everything that arrives: exactly zero allocations once warm.
#[test]
fn network_under_broadcast_injection_allocates_nothing_once_warm() {
    let mesh = Mesh::square_with_corner_mcs(4);
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
    let delivered = net.stats().delivered_packets.get();
    let before = allocations();
    (5000..8000).for_each(|n| cycle(&mut net, n));
    let made = allocations() - before;
    // `stats()` clones the per-vnet accumulators, so read it after counting.
    let moved = net.stats().delivered_packets.get() - delivered;
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
    let mesh = Mesh::square_with_corner_mcs(4);
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

/// The notification network is a handful of message registers, whatever
/// the fabric: building it for 256 routers (flat) and for 1024 (quad,
/// fanout 2) takes the same few allocations — never a message or a list
/// per router.
#[test]
fn notify_construction_cost_is_independent_of_the_router_count() {
    let build = |k: u16, scheme: NotifyScheme| {
        let mesh = Mesh::new(k, k, &[]);
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
