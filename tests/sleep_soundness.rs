//! Sleep soundness: the event-driven engines skip a tile's or memory
//! controller's tick whenever the one sleep rule (`System::tile_wake` /
//! `mc_wake`, DESIGN.md §9) says it cannot change state and no wake has
//! fired. This suite checks that claim directly instead of through a
//! downstream report: the always-scan engine ticks everything but keeps
//! the wake bookkeeping, so before every step `endpoint_awake` says what
//! the event-driven engines would have ticked — and every endpoint they
//! would have skipped must come out of the step with its state digest
//! (NIC + L2 + core driver + tile latches, or NIC + MC) unchanged.
//!
//! Deleting any one wake source (flit ejection, non-empty-window wake-all,
//! the timed-wake heap, the wheel's L2-stage or window-start deadlines)
//! makes this suite fail on the first tick that source should have caused;
//! EXPERIMENTS.md records the mutation run.

use scorpio::{ObsLevel, OpenLoopConfig, Protocol, System, SystemConfig};
use scorpio_harness::{registry, Fabric, Knob, RunSpec};
use scorpio_workloads::{generate, WorkloadParams};

/// Cycles audited per row: every row runs to completion well inside it,
/// except the phased rows, which cross their whole first burst and the
/// start of the 40 000-cycle gap that follows.
const BUDGET: u64 = 6_000;

/// Steps `sys` on the always-scan engine, asserting that every tick the
/// event-driven engines would have skipped changes nothing. An endpoint's
/// state changes only in its own tick, so one digest when it falls asleep
/// and one when a wake fires (or the run ends) cover every tick between.
/// Returns the `(skipped, taken)` endpoint-tick counts.
fn audit(name: &str, mut sys: System) -> (u64, u64) {
    sys.set_always_scan(true);
    let cfg = sys.config();
    let eps = cfg.cores() + cfg.mesh.mc_routers().len();
    // Per endpoint asleep for the coming step: since when, and its digest.
    let mut asleep: Vec<Option<(u64, u64)>> = vec![None; eps];
    let (mut skipped, mut taken) = (0, 0);
    loop {
        let now = sys.cycle().as_u64();
        let over = sys.is_complete() || now >= BUDGET;
        for (ep, slot) in asleep.iter_mut().enumerate() {
            match (*slot, sys.endpoint_awake(ep) || over) {
                (Some((since, digest)), true) => {
                    assert_eq!(
                        digest,
                        sys.endpoint_digest(ep),
                        "{name}: endpoint {ep} was asleep from cycle {since} to {now} with \
                         no wake fired, yet one of its ticks in between changed state"
                    );
                    *slot = None;
                }
                (None, false) => *slot = Some((now, sys.endpoint_digest(ep))),
                _ => {}
            }
        }
        if over {
            break;
        }
        let sleeping = asleep.iter().flatten().count() as u64;
        skipped += sleeping;
        taken += eps as u64 - sleeping;
        sys.step();
    }
    assert!(skipped > 0, "{name}: the sleep rule never slept anything");
    assert!(taken > 0, "{name}: nothing ever ticked");
    (skipped, taken)
}

fn from_spec(spec: &RunSpec, ops: usize) -> System {
    let cfg = spec.config();
    let traces = generate(&spec.workload.clone().with_ops(ops), cfg.cores(), cfg.seed);
    System::with_traces(cfg, traces)
}

fn from_cfg(cfg: SystemConfig, workload: &str, ops: usize) -> System {
    let params = WorkloadParams::by_name(workload).expect("preset exists");
    let traces = generate(&params.with_ops(ops), cfg.cores(), cfg.seed);
    System::with_traces(cfg, traces)
}

fn grid(scenario: &str) -> Vec<RunSpec> {
    registry::by_name(scenario)
        .unwrap_or_else(|| panic!("{scenario} is registered"))
        .grid
        .enumerate()
}

/// The engine-equivalence suite's covering set: five protocols on the
/// mesh, torus and ring, 2 and 4 planes, concentrations 1/2/4, and the
/// phased 8×8 point under flat, quad-f2 and quad-f4 notification.
#[test]
fn equivalence_rows_never_change_state_while_asleep() {
    let mut rows: Vec<(RunSpec, usize)> = Vec::new();
    rows.extend(grid("fig7-small").into_iter().map(|s| (s, 12)));
    rows.extend(
        grid("topology-small")
            .into_iter()
            .filter(|s| s.workload.name == "blackscholes" && s.fabric != Fabric::Mesh)
            .map(|s| (s, 8)),
    );
    rows.extend(
        grid("planes-small")
            .into_iter()
            .filter(|s| s.planes != 1 && s.protocol == Protocol::Scorpio)
            .map(|s| (s, 8)),
    );
    rows.extend(
        grid("cmesh-small")
            .into_iter()
            .filter(|s| {
                s.protocol == Protocol::Scorpio || (s.fabric == Fabric::CMesh(4) && s.planes == 1)
            })
            .map(|s| (s, 8)),
    );
    let phased = grid("scaling-mesh-small")
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    for quad in [None, Some(2), Some(4)] {
        let mut spec = phased.clone();
        spec.variant.knobs.extend(quad.map(Knob::QuadNotify));
        rows.push((spec, 13));
    }
    for (spec, ops) in rows {
        audit(&spec.key(), from_spec(&spec, ops));
    }
}

/// What the registry rows leave out: open-loop Poisson arrivals on the
/// 2-plane 4×4×4 concentrated mesh with spans and windows on (the
/// benchmark's `open-cmesh-2pl` shape), the non-pipelined NIC and L2,
/// two outstanding accesses per core, the `failure_injection` buffer
/// squeeze under all five protocols, full tracing, and the leap switch set (inert under
/// always-scan: the sleep rule does not depend on it).
#[test]
fn off_registry_rows_never_change_state_while_asleep() {
    let open = SystemConfig::cmesh(4, 4, 4)
        .with_planes(2)
        .with_open_loop(OpenLoopConfig::poisson(2))
        .with_obs(ObsLevel::Counters)
        .with_spans(true)
        .with_windows(512);
    audit("open-cmesh-2pl", from_cfg(open, "fft", 10));

    let slow = SystemConfig::square(4).with_pipelined_uncore(false);
    audit("non-pipelined", from_cfg(slow, "barnes", 10));

    let wide = SystemConfig::square(4).with_outstanding(2);
    audit("max_outstanding=2", from_cfg(wide, "barnes", 12));

    for protocol in [
        Protocol::Scorpio,
        Protocol::TokenB,
        Protocol::Inso { expiry_window: 40 },
        Protocol::LpdDir,
        Protocol::HtDir,
    ] {
        let mut squeezed = SystemConfig::square(3).with_protocol(protocol);
        squeezed.nic.tracker_depth = 2;
        squeezed.nic.ordered_queue_depth = 1;
        squeezed.nic.packet_queue_depth = 1;
        squeezed.nic.max_pending_notifications = 1;
        squeezed.noc.inject_queue_depth = 1;
        squeezed.l2.queue_depth = 1;
        squeezed.l2.fid_capacity = 1;
        squeezed.l2.wb_entries = 1;
        let name = format!("buffer squeeze, {}", protocol.name());
        audit(&name, from_cfg(squeezed, "canneal", 40));
    }

    let mut tiny = SystemConfig::torus(3).with_obs(ObsLevel::Trace);
    tiny.l2.capacity_bytes = 2 * 1024;
    audit("tiny-l2 torus, traced", from_cfg(tiny, "radix", 40));

    let mut leaping = from_cfg(SystemConfig::chip(), "barnes", 12);
    leaping.set_leap(true);
    audit("chip, leap set", leaping);
}
