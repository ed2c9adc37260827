//! Steady-state allocation regression: once every ring, wire buffer and
//! scratch vector has grown to its working size, stepping the simulator
//! must not go back to the heap for the per-cycle decisions.
//!
//! The binary installs its own counting allocator (per-thread counter, so
//! the two tests — and the harness threads around them — do not disturb
//! each other).

use scorpio::{System, SystemConfig};
use scorpio_noc::{Endpoint, Mesh, Network, NocConfig, Packet, RouterId, Sid};
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
/// 2 000 stepped cycles stay under 1 000 allocations in total (the parent
/// of the mask-native router made about 30 000). What remains is
/// first-touch state — cache sets, FID lists, MC maps — not per-cycle work.
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
        made <= 1000,
        "{made} allocations in 2000 warm stepped cycles (bound 1000)"
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
    let endpoints: Vec<Endpoint> = net.topology().endpoints().collect();
    let mut slots = Vec::new();
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
        for &ep in &endpoints {
            slots.clear();
            slots.extend(net.eject_heads(ep).map(|(slot, _)| slot));
            for &slot in &slots {
                net.eject_take(ep, slot);
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
