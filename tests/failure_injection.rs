//! Failure-injection and pathological-configuration tests: the system must
//! stay correct (never deadlock, never lose an update) when every buffer
//! is squeezed to its minimum, when notification pressure forces stop-bit
//! storms, and when the uncore runs at its slowest settings.

use scorpio::{Protocol, System, SystemConfig};
use scorpio_workloads::{generate, CoreProgram, TicketLockProgram, WorkloadParams};

fn shrunk(mut cfg: SystemConfig) -> SystemConfig {
    // Minimum legal buffering everywhere.
    cfg.nic.tracker_depth = 2;
    cfg.nic.ordered_queue_depth = 1;
    cfg.nic.packet_queue_depth = 1;
    cfg.nic.max_pending_notifications = 1;
    cfg.noc.inject_queue_depth = 1;
    cfg.l2.queue_depth = 1;
    cfg.l2.fid_capacity = 1;
    cfg.l2.wb_entries = 1;
    cfg
}

/// The five ordering schemes: SCORPIO and the four baselines.
const PROTOCOLS: [Protocol; 5] = [
    Protocol::Scorpio,
    Protocol::TokenB,
    Protocol::Inso { expiry_window: 40 },
    Protocol::LpdDir,
    Protocol::HtDir,
];

#[test]
fn minimum_buffering_still_completes() {
    for protocol in PROTOCOLS {
        let cfg = shrunk(SystemConfig::square(3).with_protocol(protocol));
        let params = WorkloadParams::by_name("canneal").unwrap().with_ops(40);
        let traces = generate(&params, cfg.cores(), 3);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(r.ops_completed, 9 * 40, "{}", protocol.name());
        // The squeeze must actually have produced backpressure events.
        assert!(
            r.stop_windows > 0 || r.l2_misses > 0,
            "{}: squeezed run exercised nothing",
            protocol.name()
        );
    }
}

#[test]
fn minimum_buffering_lock_is_exact() {
    let cfg = shrunk(SystemConfig::square(2));
    let cores = cfg.cores() as u64;
    let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
        .map(|_| {
            Box::new(TicketLockProgram::new(0x9_0000, 0x9_0040, 0x9_0080, 3))
                as Box<dyn CoreProgram + Send>
        })
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    sys.run_to_completion();
    let value = sys
        .coherent_value(scorpio_coherence::LineAddr(0x9_0080))
        .expect("counter vanished");
    assert_eq!(value, cores * 3);
}

#[test]
fn tiny_l2_forces_writeback_storms() {
    // A 2 KB L2 on a shared working set: constant capacity evictions and
    // writeback/GETX races, all of which must be squashed or completed
    // consistently.
    let mut cfg = SystemConfig::square(3);
    cfg.l2.capacity_bytes = 2 * 1024;
    let params = WorkloadParams::by_name("radix").unwrap().with_ops(80);
    let traces = generate(&params, cfg.cores(), 11);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 9 * 80);
    assert!(
        r.writebacks > 10,
        "tiny L2 produced only {} writebacks",
        r.writebacks
    );
}

#[test]
fn slowest_uncore_configuration_completes() {
    let mut cfg = SystemConfig::square(3).with_pipelined_uncore(false);
    cfg.l2.latency = 20;
    cfg.nic.latency = 6;
    let params = WorkloadParams::by_name("water-nsq").unwrap().with_ops(30);
    let traces = generate(&params, cfg.cores(), 5);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 9 * 30);
}

#[test]
fn single_vc_network_is_live() {
    // One regular GO-REQ VC (+rVC) and one UO-RESP VC: the rVC chain is
    // the only thing standing between this and deadlock.
    let mut cfg = SystemConfig::square(3);
    cfg.noc.vnets[0].vcs = 1;
    cfg.noc.vnets[1].vcs = 1;
    let params = WorkloadParams::by_name("fmm").unwrap().with_ops(40);
    let traces = generate(&params, cfg.cores(), 9);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 9 * 40);
}

#[test]
fn region_tracker_disabled_still_coherent() {
    let mut cfg = SystemConfig::square(3);
    cfg.l2.region_entries = None;
    let params = WorkloadParams::by_name("lu").unwrap().with_ops(40);
    let traces = generate(&params, cfg.cores(), 13);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 9 * 40);
    assert_eq!(r.snoops_filtered, 0, "filter ran while disabled");
}

#[test]
fn inso_with_hostile_expiry_window_completes() {
    // A 200-cycle expiry window (well past the paper's sweep) maximises
    // ordering stalls; the system must still finish.
    let cfg = SystemConfig::square(3).with_protocol(Protocol::Inso { expiry_window: 200 });
    let params = WorkloadParams::by_name("swaptions").unwrap().with_ops(30);
    let traces = generate(&params, cfg.cores(), 17);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 9 * 30);
}

#[test]
fn notification_bits_and_outstanding_sweep_is_live() {
    for (bits, outstanding) in [(1u8, 2usize), (2, 3), (3, 4)] {
        let cfg = SystemConfig::square(3)
            .with_notification_bits(bits)
            .with_outstanding(outstanding);
        let params = WorkloadParams::by_name("barnes").unwrap().with_ops(40);
        let traces = generate(&params, cfg.cores(), 19);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(
            r.ops_completed,
            9 * 40,
            "bits={bits} outstanding={outstanding}"
        );
    }
}

#[test]
fn rectangular_mesh_system_works() {
    use scorpio_noc::{Fabric, RouterId, Topology};
    // A 6×2 mesh with MCs on two corners: exercises asymmetric broadcast
    // trees and window sizing.
    let mesh = Topology::new(Fabric::Mesh, 6, 2, [RouterId(0), RouterId(11)]);
    let cfg = SystemConfig::with_topology(mesh);
    let params = WorkloadParams::by_name("fft").unwrap().with_ops(40);
    let traces = generate(&params, cfg.cores(), 23);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 12 * 40);
}
