//! Full-system integration tests: every protocol variant runs synthetic
//! workloads to completion, and the §4.3-style regressions (locks,
//! barriers) validate end-to-end coherence through L1s, L2s, both networks
//! and the memory controllers.

use scorpio::{Protocol, System, SystemConfig};
use scorpio_noc::Fabric;
use scorpio_workloads::{
    generate, BarrierProgram, CoreProgram, TicketLockProgram, Trace, TraceOp, TraceRecord,
    WorkloadParams,
};

fn small_workload(cfg: &SystemConfig, ops: usize) -> Vec<Trace> {
    let params = WorkloadParams::by_name("fluidanimate")
        .unwrap()
        .with_ops(ops);
    generate(&params, cfg.cores(), cfg.seed)
}

#[test]
fn scorpio_system_completes_synthetic_workload() {
    let cfg = SystemConfig::square(4);
    let traces = small_workload(&cfg, 60);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 16 * 60);
    assert!(r.runtime_cycles > 0);
    assert!(r.l2_misses > 0, "workload never exercised coherence");
    assert!(r.data_forwards > 0, "no cache-to-cache transfers");
    assert!(r.notify_nonempty > 0, "notification network unused");
    assert!(r.bypass_rate() > 0.1, "lookahead bypassing inert");
}

#[test]
fn tokenb_and_inso_complete_the_same_workload() {
    for protocol in [Protocol::TokenB, Protocol::Inso { expiry_window: 40 }] {
        let cfg = SystemConfig::square(3).with_protocol(protocol);
        let traces = small_workload(&cfg, 40);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(r.ops_completed, 9 * 40, "{}", protocol.name());
        if let Protocol::Inso { .. } = protocol {
            assert!(r.expiry_messages > 0, "INSO never expired a slot");
        }
    }
}

#[test]
fn directory_baselines_complete_and_pay_indirection() {
    let mut runtimes = Vec::new();
    for protocol in [Protocol::Scorpio, Protocol::HtDir, Protocol::LpdDir] {
        let cfg = SystemConfig::square(3).with_protocol(protocol);
        let traces = small_workload(&cfg, 50);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(r.ops_completed, 9 * 50, "{}", protocol.name());
        if protocol.uses_directory() {
            assert!(r.dir_accesses > 0, "directory never consulted");
        }
        runtimes.push((
            protocol.name(),
            r.runtime_cycles,
            r.l2_service_latency.mean(),
        ));
    }
    // The paper's headline: SCORPIO beats both directory baselines.
    let scorpio = runtimes[0].1 as f64;
    for (name, rt, _) in &runtimes[1..] {
        assert!(
            (*rt as f64) > scorpio * 0.95,
            "{name} ({rt}) should not beat SCORPIO ({scorpio}) clearly"
        );
    }
}

#[test]
fn multi_plane_systems_complete_on_every_fabric() {
    // The plane subsystem end-to-end: 2 and 4 address-interleaved main
    // networks under the full SCORPIO stack (per-plane notification
    // words, per-plane ESID streams, steered data responses), across
    // delivery fabrics. Completion + exact op counts means no plane ever
    // wedged and no request was double- or un-delivered.
    for planes in [2usize, 4] {
        for cfg in [
            SystemConfig::square(4).with_planes(planes),
            SystemConfig::with_topology(Fabric::Torus.topology(4)).with_planes(planes),
            SystemConfig::with_topology(Fabric::Ring.topology(4)).with_planes(planes),
        ] {
            let label = cfg.label();
            let traces = small_workload(&cfg, 40);
            let mut sys = System::with_traces(cfg, traces);
            let r = sys.run_to_completion();
            assert_eq!(r.ops_completed, 16 * 40, "{label}");
            assert!(r.l2_misses > 0, "{label} never exercised coherence");
            assert!(r.notify_nonempty > 0, "{label} notification unused");
        }
    }
}

#[test]
fn multi_plane_baselines_complete_too() {
    // Planes compose with every ordering protocol: the baselines reorder
    // by slot value, so cross-plane delivery skew must not matter.
    for protocol in [
        Protocol::TokenB,
        Protocol::Inso { expiry_window: 40 },
        Protocol::HtDir,
    ] {
        let cfg = SystemConfig::square(3)
            .with_planes(2)
            .with_protocol(protocol);
        let traces = small_workload(&cfg, 30);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(r.ops_completed, 9 * 30, "{}", protocol.name());
    }
}

#[test]
fn ticket_lock_counts_exactly_on_four_planes() {
    // The §4.3 lock regression on a 4-plane network: the ticket, serving
    // and counter lines stripe onto different planes, so lock acquisition
    // order and the protected increments cross plane boundaries — per-
    // address order must still be airtight.
    let cfg = SystemConfig::square(3).with_planes(4);
    let cores = cfg.cores() as u64;
    let iters = 3u64;
    let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
        .map(|_| {
            Box::new(TicketLockProgram::new(0x2_0000, 0x2_0040, 0x2_0080, iters))
                as Box<dyn CoreProgram + Send>
        })
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    let _ = sys.run_to_completion();
    assert_eq!(sys.cores_done(), cores as usize, "a core never finished");
    let value = sys.coherent_value(scorpio_coherence::LineAddr(0x2_0080));
    assert_eq!(
        value,
        Some(cores * iters),
        "lock-protected counter lost increments across planes"
    );
}

#[test]
fn ticket_lock_counts_exactly_on_scorpio() {
    // The paper's §4.3 regression: lock-protected increments through the
    // full machine. Any coherence bug (lost invalidation, stale L1, broken
    // ordering) makes the final count wrong or wedges the run.
    let cfg = SystemConfig::square(3);
    let cores = cfg.cores() as u64;
    let iters = 3u64;
    let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
        .map(|_| {
            Box::new(TicketLockProgram::new(0x1_0000, 0x1_0040, 0x1_0080, iters))
                as Box<dyn CoreProgram + Send>
        })
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    let r = sys.run_to_completion();
    assert_eq!(sys.cores_done(), cores as usize, "a core never finished");
    // Verify the final counter via the coherent state: owner or memory.
    let value = sys
        .coherent_value(scorpio_coherence::LineAddr(0x1_0080))
        .expect("counter line vanished");
    assert_eq!(value, cores * iters, "lost updates under the lock");
    assert!(r.ops_completed > cores * iters * 4);
}

#[test]
fn barrier_rounds_complete_on_scorpio() {
    let cfg = SystemConfig::square(3);
    let cores = cfg.cores() as u64;
    let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
        .map(|_| Box::new(BarrierProgram::new(0x2_0000, cores, 2)) as Box<dyn CoreProgram + Send>)
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    sys.run_to_completion();
    assert_eq!(sys.cores_done(), cores as usize, "barrier wedged");
}

#[test]
fn ticket_lock_counts_exactly_on_baselines() {
    for protocol in [Protocol::TokenB, Protocol::HtDir] {
        let cfg = SystemConfig::square(2).with_protocol(protocol);
        let cores = cfg.cores() as u64;
        let iters = 2u64;
        let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
            .map(|_| {
                Box::new(TicketLockProgram::new(0x3_0000, 0x3_0040, 0x3_0080, iters))
                    as Box<dyn CoreProgram + Send>
            })
            .collect();
        let mut sys = System::with_programs(cfg, programs);
        sys.run_to_completion();
        assert_eq!(sys.cores_done(), cores as usize, "{}", protocol.name());
        let value = sys
            .coherent_value(scorpio_coherence::LineAddr(0x3_0080))
            .expect("counter line vanished");
        assert_eq!(value, cores * iters, "{}: lost updates", protocol.name());
    }
}

#[test]
fn single_writer_multiple_reader_values_propagate() {
    // Core 0 writes generations into a line; readers poll until they see
    // the final generation. Exercises O_D sharing chains.
    struct Writer {
        addr: u64,
        gens: u64,
        sent: u64,
    }
    impl CoreProgram for Writer {
        fn next(&mut self, _last: Option<u64>) -> Option<TraceRecord> {
            if self.sent == self.gens {
                return None;
            }
            self.sent += 1;
            Some(TraceRecord {
                gap: 0,
                op: TraceOp::Store,
                addr: self.addr,
                value: self.sent,
            })
        }
    }
    struct Reader {
        addr: u64,
        target: u64,
        started: bool,
    }
    impl CoreProgram for Reader {
        fn next(&mut self, last: Option<u64>) -> Option<TraceRecord> {
            if self.started && last == Some(self.target) {
                return None;
            }
            self.started = true;
            Some(TraceRecord {
                gap: 0,
                op: TraceOp::Load,
                addr: self.addr,
                value: 0,
            })
        }
    }
    let cfg = SystemConfig::square(2);
    let addr = 0x5_0000u64;
    let gens = 5u64;
    let programs: Vec<Box<dyn CoreProgram + Send>> = vec![
        Box::new(Writer {
            addr,
            gens,
            sent: 0,
        }),
        Box::new(Reader {
            addr,
            target: gens,
            started: false,
        }),
        Box::new(Reader {
            addr,
            target: gens,
            started: false,
        }),
        Box::new(Reader {
            addr,
            target: gens,
            started: false,
        }),
    ];
    let mut sys = System::with_programs(cfg, programs);
    sys.run_to_completion();
    assert_eq!(sys.cores_done(), 4, "a reader never saw the final value");
}

#[test]
fn trace_record_gaps_are_respected() {
    // A single core with large gaps: runtime must reflect them.
    let cfg = SystemConfig::square(2);
    let mut traces = vec![Trace::new(); 4];
    for k in 0..10 {
        traces[0].push(TraceRecord {
            gap: 100,
            op: TraceOp::Load,
            addr: 0x9000 + k * 32,
            value: 0,
        });
    }
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert!(
        r.runtime_cycles >= 1000,
        "gaps ignored: runtime {}",
        r.runtime_cycles
    );
}

#[test]
fn scorpio_completes_on_a_concentrated_mesh() {
    // 16 cores as a 4x2 router grid x 2 tiles per router: same core count
    // as `square(4)` with the diameter cut from 6 to 4. The full stack —
    // per-slot broadcast delivery, sibling-tile forwarding, tile-indexed
    // SIDs and notification lanes — must carry the ordered protocol.
    let cfg = SystemConfig::cmesh(4, 2, 2);
    assert_eq!(cfg.cores(), 16);
    let traces = small_workload(&cfg, 60);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 16 * 60);
    assert!(r.l2_misses > 0, "workload never exercised coherence");
    assert!(r.data_forwards > 0, "no cache-to-cache transfers");
    assert!(r.notify_nonempty > 0, "notification network unused");
}

#[test]
fn every_protocol_completes_on_cmesh_and_composes_with_planes() {
    for protocol in [
        Protocol::Scorpio,
        Protocol::TokenB,
        Protocol::Inso { expiry_window: 40 },
        Protocol::LpdDir,
        Protocol::HtDir,
    ] {
        let cfg = SystemConfig::cmesh(2, 2, 4).with_protocol(protocol);
        let traces = small_workload(&cfg, 40);
        let mut sys = System::with_traces(cfg, traces);
        let r = sys.run_to_completion();
        assert_eq!(r.ops_completed, 16 * 40, "{}", protocol.name());
    }
    // The fabric axis composes with the plane axis: two address-interleaved
    // CMesh planes behind one delivery interface.
    let cfg = SystemConfig::cmesh(4, 2, 2).with_planes(2);
    let traces = small_workload(&cfg, 40);
    let mut sys = System::with_traces(cfg, traces);
    let r = sys.run_to_completion();
    assert_eq!(r.ops_completed, 16 * 40);
}

#[test]
fn single_tile_cmesh_reports_match_the_plain_mesh() {
    // Concentration 1 is the mesh: same router grid, same port set, same
    // tables, same windows — the whole report must be byte-identical.
    let mesh_cfg = SystemConfig::square(4);
    let cmesh_cfg = SystemConfig::cmesh(4, 4, 1);
    let traces = small_workload(&mesh_cfg, 50);
    let mut mesh_sys = System::with_traces(mesh_cfg, traces.clone());
    let mut cmesh_sys = System::with_traces(cmesh_cfg, traces);
    assert_eq!(
        mesh_sys.run_to_completion().to_json(),
        cmesh_sys.run_to_completion().to_json(),
        "c=1 CMesh diverged from the mesh"
    );
}

#[test]
fn concentration_cuts_ordered_broadcast_latency_at_matched_core_count() {
    // The CMesh acceptance bar: 16 cores at concentration 1 (4x4 routers,
    // diameter 6), 2 (4x2, diameter 4) and 4 (2x2, diameter 2) on an
    // uncongested workload. Fewer hops must show up as strictly lower
    // average packet latency at c=2 and c=4 than at c=1.
    let run = |cols: u16, rows: u16, c: u8| -> f64 {
        let cfg = SystemConfig::cmesh(cols, rows, c);
        assert_eq!(cfg.cores(), 16);
        let traces = small_workload(&cfg, 60);
        let mut sys = System::with_traces(cfg, traces);
        sys.run_to_completion().packet_latency.mean()
    };
    let c1 = run(4, 4, 1);
    let c2 = run(4, 2, 2);
    let c4 = run(2, 2, 4);
    assert!(
        c2 < c1,
        "c=2 packet latency {c2:.1} not below c=1's {c1:.1}"
    );
    assert!(
        c4 < c1,
        "c=4 packet latency {c4:.1} not below c=1's {c1:.1}"
    );
}

#[test]
fn nonpipelined_uncore_is_slower() {
    let mk = |pl: bool| {
        let cfg = SystemConfig::square(3).with_pipelined_uncore(pl);
        let traces = small_workload(&cfg, 40);
        let mut sys = System::with_traces(cfg, traces);
        sys.run_to_completion().runtime_cycles
    };
    let pipelined = mk(true);
    let nonpipelined = mk(false);
    assert!(
        nonpipelined > pipelined,
        "non-pipelined ({nonpipelined}) should exceed pipelined ({pipelined})"
    );
}
