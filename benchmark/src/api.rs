//! Every call the benchmark makes into the program under test.
//!
//! The rest of the crate sees only the plain-data types defined here, so a
//! change to the program's public API is absorbed in this one file. The
//! first half drives whole systems (`Cell`); the second half holds the
//! per-layer probes, which drive one layer's public functions standalone on
//! the cell's topology at the rates the cell measured.

use crate::estimator::BlockFloor;
use crate::workloads::{CellSpec, Fabric, Protocol, Traffic, WINDOW_CYCLES};
use scorpio::{ObsLevel, OpenLoopConfig, System, SystemConfig, SystemReport};
use scorpio_coherence::{CohMsg, MsgKind};
use scorpio_harness::scenario::{Engine, Knob, RunSpec, Variant};
use scorpio_harness::sink::{json_line, SinkOptions};
use scorpio_mem::{CoreOp, CoreReq, L2Out, MemoryController, MissSpan, OrderedSnoop, SnoopyL2};
use scorpio_nic::{Nic, NicMode};
use scorpio_noc::{Endpoint, LocalSlot, MultiNetwork, Sid, VnetId};
use scorpio_notify::{NotifyConfig, NotifyNetwork};
use scorpio_sim::{Cycle, SimRng};
use scorpio_workloads::{generate, ArrivalProcess, Trace, TraceOp, WorkloadParams};
use std::collections::VecDeque;
use std::time::Instant;

// ------------------------------------------------------------------ cells

/// What a cell records while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    /// Everything off, whatever the workload asks for.
    Off,
    /// What the workload's timed passes run with.
    Timed,
    /// Counters and spans (plus the workload's windows): the statistics pass.
    Stats,
}

/// How far a cell is stepped. Either way the bound is the program's own
/// `max_cycles`, which the event-leaping clock never jumps past, so every
/// engine stops on the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Until every core has finished (or the cell's `max_cycles`, with the
    /// unfinished operations counted as failed): the modelled-chip
    /// statistics.
    AtCompletion,
    /// Until the clock reaches the cell's `timed_cycles`: the timed passes.
    AtTimedCycles,
}

/// The traces one cell's cores execute.
pub struct Traces(Vec<Trace>);

impl Traces {
    pub fn ops(&self) -> u64 {
        self.0.iter().map(|t| t.len() as u64).sum()
    }
}

fn params(t: &Traffic) -> WorkloadParams {
    WorkloadParams {
        name: t.name,
        ops_per_core: t.ops_per_core,
        mean_gap: t.mean_gap,
        write_fraction: t.write_fraction,
        shared_fraction: t.shared_fraction,
        shared_lines: t.shared_lines,
        private_lines: t.private_lines,
        hot_fraction: t.hot_fraction,
        hot_lines: t.hot_lines,
        migratory_fraction: t.migratory_fraction,
        locality: t.locality,
        phase_ops: t.phase_ops,
        phase_gap: t.phase_gap,
    }
}

fn protocol(spec: &CellSpec) -> scorpio::Protocol {
    match spec.protocol {
        Protocol::Scorpio => scorpio::Protocol::Scorpio,
        Protocol::LpdDir => scorpio::Protocol::LpdDir,
    }
}

fn config(spec: &CellSpec, seed: u64, obs: Obs, stop: Stop) -> SystemConfig {
    let mut cfg = match spec.fabric {
        Fabric::Chip => SystemConfig::chip(),
        Fabric::Mesh(k) => SystemConfig::square(k),
        Fabric::MeshProportionalMcs(k) => SystemConfig::square(k).with_proportional_mcs(),
        Fabric::CMesh {
            tile_side,
            concentration,
        } => {
            let (cols, rows) = scorpio_harness::Fabric::cmesh_dims(tile_side, concentration);
            SystemConfig::cmesh(cols, rows, concentration)
        }
    };
    cfg.seed = seed;
    cfg.max_cycles = match stop {
        Stop::AtCompletion => spec.max_cycles,
        Stop::AtTimedCycles => spec.timed_cycles,
    };
    cfg = cfg.with_protocol(protocol(spec));
    if spec.planes != 1 {
        cfg = cfg.with_planes(spec.planes);
    }
    if let Some(millis) = spec.open_poisson_millis {
        cfg = cfg.with_open_loop(OpenLoopConfig::poisson(millis));
    }
    let recording = match obs {
        Obs::Off => false,
        Obs::Timed => spec.timed_with_obs,
        Obs::Stats => true,
    };
    if recording {
        cfg = cfg.with_obs(ObsLevel::Counters).with_spans(true);
        if spec.timed_with_obs {
            cfg = cfg.with_windows(WINDOW_CYCLES);
        }
    }
    cfg
}

/// Cores of the cell's system.
pub fn cores(spec: &CellSpec) -> usize {
    config(spec, 0, Obs::Off, Stop::AtCompletion).cores()
}

/// Generates the cell's traces from the seed (the only use of the seed
/// besides `cfg.seed`, which draws the open-loop arrival schedule).
pub fn generate_traces(spec: &CellSpec, seed: u64) -> Traces {
    let mut traces = generate(&params(&spec.traffic), cores(spec), seed);
    for (core, trace) in traces.iter_mut().enumerate() {
        if core % spec.active_tile_stride != 0 {
            *trace = Trace::new();
        }
    }
    Traces(traces)
}

/// One built system.
pub struct Cell {
    sys: System,
    /// Operations in the traces: what the cell attempts.
    attempted: u64,
}

impl Cell {
    /// Builds the cell's system over `traces`: tables compiled, caches empty.
    pub fn build(spec: &CellSpec, seed: u64, obs: Obs, stop: Stop, traces: Traces) -> Cell {
        let attempted = traces.ops();
        let mut sys = System::with_traces(config(spec, seed, obs, stop), traces.0);
        sys.set_leap(spec.leap);
        Cell { sys, attempted }
    }

    /// Switches to the always-scan reference engine (call before stepping).
    pub fn use_reference_engine(&mut self) {
        self.sys.set_always_scan(true);
    }

    /// Steps up to `n` times, stopping at completion or `max_cycles`.
    /// Returns the number of steps made; fewer than `n` means the cell is
    /// over.
    pub fn step_block(&mut self, n: u32) -> u32 {
        for done in 0..n {
            if self.sys.is_complete() || self.sys.cycle().as_u64() >= self.sys.config().max_cycles {
                return done;
            }
            self.sys.step();
        }
        n
    }

    /// Steps until the cell is over.
    pub fn run(&mut self) {
        while self.step_block(1024) == 1024 {}
    }

    /// The cell's statistics so far.
    pub fn stats(&self, spec: &CellSpec) -> CellStats {
        CellStats::from_report(&self.sys.report(), &self.sys, spec, self.attempted)
    }

    /// One sample per retired L2 miss (empty unless spans were recorded).
    pub fn spans(&self) -> Vec<SpanSample> {
        let (records, dropped) = self.sys.span_records();
        assert_eq!(dropped, 0, "span stream was capped");
        records.iter().map(SpanSample::from).collect()
    }
}

/// The phases of one retired L2 miss, in simulated cycles. They partition
/// `total`, the sojourn from arrival (open loop: the due cycle) to retire.
#[derive(Debug, Clone, Copy)]
pub struct SpanSample {
    pub source: u64,
    pub queue: u64,
    pub inject: u64,
    pub flight: u64,
    pub commit: u64,
    pub data: u64,
    pub fill: u64,
    pub total: u64,
}

impl From<&MissSpan> for SpanSample {
    fn from(s: &MissSpan) -> SpanSample {
        SpanSample {
            source: s.source(),
            queue: s.queue(),
            inject: s.inject_wait(),
            flight: s.flight(),
            commit: s.commit(),
            data: s.data_wait(),
            fill: s.fill(),
            total: s.total(),
        }
    }
}

/// A cell's simulated statistics, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    pub scorpio: bool,
    pub routers: u64,
    pub planes: u64,
    pub ops_attempted: u64,
    pub ops_completed: u64,
    pub source_dropped: u64,
    pub runtime_cycles: u64,
    pub stepped_cycles: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub l2_service_sum: u64,
    pub l2_service_count: u64,
    pub ordering_sum: u64,
    pub ordering_count: u64,
    pub cache_served: u64,
    pub memory_served: u64,
    pub memory_served_sum: u64,
    pub snoops_filtered: u64,
    pub snoops_looked_up: u64,
    pub writebacks: u64,
    pub data_responses: u64,
    pub bypassed_flits: u64,
    pub buffered_flits: u64,
    pub packets_injected: u64,
    pub packet_latency_sum: u64,
    pub packet_latency_count: u64,
    pub notify_window_cycles: u64,
    pub notify_windows: u64,
    pub notify_nonempty: u64,
    pub stop_windows: u64,
    pub dir_accesses: u64,
    pub dir_misses: u64,
    /// Counter-plane figures; zero unless the cell ran with counters on.
    pub stall_sa_i: u64,
    pub stall_sa_o: u64,
    pub stall_vc_alloc: u64,
    pub stall_credit: u64,
    pub max_link_flits: u64,
    pub buffer_integral: u64,
    pub plane_link_flits: Vec<u64>,
    pub inject_wait_p99: u64,
    /// The program's own report rendering, for byte-for-byte comparison.
    pub report_json: String,
}

impl CellStats {
    fn from_report(
        r: &SystemReport,
        sys: &System,
        spec: &CellSpec,
        ops_attempted: u64,
    ) -> CellStats {
        let cfg = sys.config();
        let scorpio = spec.protocol == Protocol::Scorpio;
        let mut s = CellStats {
            scorpio,
            routers: cfg.mesh.router_count() as u64,
            planes: cfg.planes.get() as u64,
            ops_attempted,
            ops_completed: r.ops_completed,
            source_dropped: r.source_dropped,
            runtime_cycles: r.runtime_cycles,
            stepped_cycles: sys.stepped_cycles(),
            l2_hits: r.l2_hits,
            l2_misses: r.l2_misses,
            l2_service_sum: r.l2_service_latency.sum(),
            l2_service_count: r.l2_service_latency.count(),
            ordering_sum: r.ordering_delay.sum(),
            ordering_count: r.ordering_delay.count(),
            cache_served: r.cache_served.count(),
            memory_served: r.memory_served.count(),
            memory_served_sum: r.memory_served.sum(),
            snoops_filtered: r.snoops_filtered,
            snoops_looked_up: r.snoops_looked_up,
            writebacks: r.writebacks,
            data_responses: r.data_forwards + r.memory_responses,
            bypassed_flits: r.bypassed_flits,
            buffered_flits: r.buffered_flits,
            packets_injected: r.packets_injected,
            packet_latency_sum: r.packet_latency.sum(),
            packet_latency_count: r.packet_latency.count(),
            notify_window_cycles: if scorpio {
                cfg.notification_window()
            } else {
                0
            },
            notify_windows: r.notify_windows,
            notify_nonempty: r.notify_nonempty,
            stop_windows: r.stop_windows,
            dir_accesses: r.dir_accesses,
            dir_misses: r.dir_misses,
            report_json: r.to_json(),
            ..CellStats::default()
        };
        if let Some(o) = &r.obs {
            for p in &o.planes {
                s.stall_sa_i += p.stall_sa_i;
                s.stall_sa_o += p.stall_sa_ii;
                s.stall_vc_alloc += p.stall_vc_alloc;
                s.stall_credit += p.stall_credit;
                s.max_link_flits = s.max_link_flits.max(p.max_link_flits);
                s.buffer_integral += p.buffer_integral;
                s.plane_link_flits.push(p.link_flits);
            }
            s.inject_wait_p99 = o.inject_wait.percentile(0.99).unwrap_or(0);
        }
        s
    }

    /// Router traversals by flits (bypassed plus buffered).
    pub fn flit_hops(&self) -> u64 {
        self.bypassed_flits + self.buffered_flits
    }

    /// Globally ordered requests the cell's tiles issued.
    pub fn ordered_requests(&self) -> u64 {
        if self.scorpio {
            self.l2_misses + self.writebacks
        } else {
            0
        }
    }
}

// ------------------------------------------------------------ host timing

/// Smallest reading of back-to-back `Instant::now()` pairs, in seconds:
/// what every timed section below carries on top of its work.
pub fn timer_overhead() -> f64 {
    (0..2000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------- interconnect probe

/// Cycles per timed block of the interconnect probe, as in the timed passes.
const PROBE_BLOCK_CYCLES: u64 = 4;

/// Host time of the interconnect probe's four timed calls, block by block. The probe is deterministic, so repeating it and keeping
/// each block's smallest reading gives a floor, like the timed passes'.
#[derive(Debug, Clone, Default)]
pub struct InterconnectFloors {
    /// `Nic::tick` over the awake endpoints.
    pub nic: BlockFloor,
    /// `MultiNetwork::tick` and `commit`.
    pub tick: BlockFloor,
    pub commit: BlockFloor,
    /// `NotifyNetwork::tick` (all zero for protocols without one).
    pub notify: BlockFloor,
}

impl InterconnectFloors {
    fn each(&mut self) -> [&mut BlockFloor; 4] {
        [
            &mut self.nic,
            &mut self.tick,
            &mut self.commit,
            &mut self.notify,
        ]
    }
}

/// What one run of the interconnect probe did.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterconnectProbe {
    pub cycles: u64,
    /// `Nic::tick` calls on awake endpoints.
    pub nic_ticks: u64,
    /// Router traversals the probe's traffic made.
    pub flit_hops: u64,
}

/// Drives real `Nic`s over a standalone `MultiNetwork` and `NotifyNetwork`
/// on the cell's topology for the cell's stepped cycles. Uniformly
/// random active tiles send ordered requests at the cell's ordered-request rate
/// (so the notification windows, ESID policing and in-order consumption
/// back-pressure the fabric as they do in the cell), random endpoints send
/// data-sized unicasts at its data-response rate and single-flit unicasts
/// for the rest of its packets. Endpoints sleep and wake by the system's
/// own rules. The four calls are timed separately every cycle, summed per
/// block and recorded as one pass of `floors`.
pub fn probe_interconnect(
    spec: &CellSpec,
    stats: &CellStats,
    seed: u64,
    timer: f64,
    floors: &mut InterconnectFloors,
) -> InterconnectProbe {
    let cfg = config(spec, seed, Obs::Off, Stop::AtTimedCycles);
    let ordered = stats.scorpio;
    let mut noc = cfg.noc.clone();
    noc.vnets[0].ordered = ordered;
    noc.track_deliveries = false;
    let data_flits = noc.data_flits();
    let planes = cfg.planes.get();
    let mut net: MultiNetwork<u64> = MultiNetwork::new(
        cfg.mesh.clone(),
        noc,
        cfg.planes,
        cfg.plane_interleave_log2(),
    );
    let mut notify = ordered.then(|| {
        NotifyNetwork::with_scheme(
            &cfg.mesh,
            NotifyConfig {
                cores: cfg.cores(),
                bits_per_core: cfg.notification_bits,
                window: cfg.notification_window(),
            },
            planes,
            cfg.notify,
        )
    });
    let endpoints: Vec<Endpoint> = cfg.mesh.endpoints().collect();
    let tiles = cfg.cores();
    let stride = spec.active_tile_stride;
    let mode = if ordered {
        NicMode::Ordered
    } else {
        NicMode::Unordered
    };
    let mut nics: Vec<Nic<u64>> = endpoints
        .iter()
        .enumerate()
        .map(|(i, &ep)| {
            let sid = (i < tiles).then_some(Sid(i as u16));
            Nic::new(ep, sid, mode, tiles, planes, cfg.nic.clone())
        })
        .collect();

    let per_cycle = |n: u64| n as f64 / stats.stepped_cycles.max(1) as f64;
    let request_rate = per_cycle(stats.ordered_requests());
    let data_rate = per_cycle(stats.data_responses);
    let short_rate = per_cycle(
        stats
            .packets_injected
            .saturating_sub(stats.ordered_requests() + stats.data_responses),
    );
    let mut rng = SimRng::seed_from(seed ^ 0x0C0C);
    let mut line = move || rng.next_u64() >> 8 << 5;
    let mut pick = SimRng::seed_from(seed ^ 0x0D0D);
    let (mut requests_due, mut data_due, mut short_due) = (0.0f64, 0.0f64, 0.0f64);
    let mut awake = vec![true; endpoints.len()];
    let mut woken = Vec::new();
    let mut last_window = None;
    let mut probe = InterconnectProbe::default();
    // Seconds of the block under way: NIC ticks, tick, commit, notify.
    let mut block = [0.0f64; 4];
    floors.each().into_iter().for_each(BlockFloor::begin_pass);
    while probe.cycles < stats.stepped_cycles {
        let now = net.cycle();
        requests_due += request_rate;
        data_due += data_rate;
        short_due += short_rate;
        // A refused send (notification budget or injection queue full)
        // stays due and is retried from another endpoint next cycle.
        while requests_due >= 1.0 {
            let t = pick.gen_range_usize(tiles.div_ceil(stride)) * stride;
            if nics[t].try_send_request(line(), now, &mut net).is_err() {
                break;
            }
            awake[t] = true;
            requests_due -= 1.0;
        }
        for (due, vnet, len) in [
            (&mut data_due, VnetId::UO_RESP, data_flits),
            (&mut short_due, VnetId(0), 1),
        ] {
            while *due >= 1.0 {
                let src = pick.gen_range_usize(endpoints.len());
                let dest = endpoints[pick.gen_range_usize(tiles)];
                if dest != endpoints[src]
                    && nics[src]
                        .try_send_unicast(vnet, dest, len, line(), &mut net)
                        .is_err()
                {
                    break;
                }
                *due -= 1.0;
            }
        }

        let t0 = Instant::now();
        for (i, nic) in nics.iter_mut().enumerate() {
            if awake[i] {
                nic.tick(now, &mut net, notify.as_mut());
                probe.nic_ticks += 1;
            }
        }
        let t1 = Instant::now();
        // The controller side accepts everything at once.
        for (i, nic) in nics.iter_mut().enumerate() {
            if awake[i] {
                while nic.pop_ordered().is_some() {}
                while nic.pop_packet().is_some() {}
            }
        }
        let t2 = Instant::now();
        net.tick();
        let t3 = Instant::now();
        net.commit();
        let t4 = Instant::now();
        if let Some(n) = notify.as_mut() {
            n.tick();
        }
        let t5 = Instant::now();
        block[0] += (t1 - t0).as_secs_f64() - timer;
        block[1] += (t3 - t2).as_secs_f64() - timer;
        block[2] += (t4 - t3).as_secs_f64() - timer;
        if notify.is_some() {
            block[3] += (t5 - t4).as_secs_f64() - timer;
        }
        probe.cycles += 1;
        if probe.cycles % PROBE_BLOCK_CYCLES == 0 || probe.cycles == stats.stepped_cycles {
            for (floor, seconds) in floors.each().into_iter().zip(block) {
                floor.record(seconds);
            }
            block = [0.0; 4];
        }

        // Sleep and wake as `System::apply_wakes` does: an endpoint sleeps
        // once its NIC has nothing to do and its ejection buffers are
        // empty; arriving flits wake it, and a completed window carrying
        // announcements wakes everyone.
        for (i, nic) in nics.iter().enumerate() {
            let nic_asleep = if spec.leap {
                nic.can_sleep_leap()
            } else {
                nic.can_sleep()
            };
            if awake[i] && nic_asleep && !net.eject_occupied(i) {
                awake[i] = false;
            }
        }
        net.take_woken_endpoints(&mut woken);
        for &e in &woken {
            awake[e as usize] = true;
        }
        if let Some((w, msg)) = notify.as_ref().and_then(NotifyNetwork::latest) {
            if last_window != Some(w) {
                last_window = Some(w);
                if !msg.is_empty() {
                    awake.iter_mut().for_each(|a| *a = true);
                }
            }
        }
    }
    for floor in floors.each() {
        floor.end_pass();
    }
    let ns = net.stats();
    probe.flit_hops = ns.bypassed_flits + ns.buffered_flits;
    probe
}

// ------------------------------------------------------------- mem probe

/// Host cost of the cache and memory controllers alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemProbe {
    /// Core requests accepted plus snoops pushed, over all L2s.
    pub l2_ops: u64,
    pub l2_seconds: f64,
    pub mc_ticks: u64,
    pub mc_seconds: f64,
    /// Ordered requests the probe's L2s issued.
    pub ordered_requests: u64,
}

impl std::ops::AddAssign for MemProbe {
    fn add_assign(&mut self, other: MemProbe) {
        self.l2_ops += other.l2_ops;
        self.l2_seconds += other.l2_seconds;
        self.mc_ticks += other.mc_ticks;
        self.mc_seconds += other.mc_seconds;
        self.ordered_requests += other.ordered_requests;
    }
}

/// Runs the cell's traces through standalone `SnoopyL2`s and
/// `MemoryController`s joined by a fixed-delay broker in place of the NIC,
/// notification network and fabric: ordered requests reach every L2 and MC
/// in one order, unicasts go straight to their destination. No L1 filters
/// the accesses and think times are ignored. Each cycle the ticks of the
/// busy L2s, and of the busy MCs, are timed as two sections. Runs until
/// every trace has drained (or the cell's step cap).
pub fn probe_mem(spec: &CellSpec, seed: u64, timer: f64) -> MemProbe {
    const ORDER_DELAY: u64 = 8;
    const UNICAST_DELAY: u64 = 6;
    let cfg = config(spec, seed, Obs::Off, Stop::AtTimedCycles);
    let traces = generate_traces(spec, seed).0;
    let mut l2s: Vec<SnoopyL2> = (0..cfg.cores() as u16)
        .map(|t| SnoopyL2::new(t, cfg.l2.clone()))
        .collect();
    let mc_eps = cfg.l2.mc_endpoints.clone();
    let mut mcs: Vec<MemoryController> = mc_eps
        .iter()
        .enumerate()
        .map(|(i, &ep)| {
            MemoryController::new(ep, i, mc_eps.len(), cfg.l2.line_bytes, cfg.mc.clone())
        })
        .collect();
    let mut order_wire: VecDeque<(Cycle, CohMsg)> = VecDeque::new();
    let mut unicast_wire: VecDeque<(Cycle, Endpoint, CohMsg)> = VecDeque::new();
    let mut next_op = vec![0usize; l2s.len()];
    let mut outstanding = vec![false; l2s.len()];
    let mut probe = MemProbe::default();
    let mut busy = Vec::new();
    let mut now = Cycle::ZERO;
    loop {
        // Closed loop, one access outstanding per core.
        for (t, l2) in l2s.iter_mut().enumerate() {
            if outstanding[t] {
                continue;
            }
            let Some(rec) = traces[t].records().get(next_op[t]) else {
                continue;
            };
            let accepted = l2.try_core_req(CoreReq {
                op: match rec.op {
                    TraceOp::Load => CoreOp::Load,
                    TraceOp::Store => CoreOp::Store,
                    TraceOp::AtomicAdd => CoreOp::AtomicAdd,
                },
                addr: rec.addr,
                value: rec.value,
                token: next_op[t] as u64,
                enqueued: now,
                admitted: now,
            });
            if accepted {
                outstanding[t] = true;
                next_op[t] += 1;
                probe.l2_ops += 1;
            }
        }
        // Ordered requests: to every L2 and MC, once all L2s have room.
        while order_wire.front().is_some_and(|(at, _)| *at <= now)
            && l2s.iter().all(SnoopyL2::snoop_ready)
        {
            let (_, msg) = order_wire.pop_front().expect("front checked");
            for l2 in &mut l2s {
                let own = l2.tile() == msg.requester;
                l2.push_snoop(OrderedSnoop { own, msg });
            }
            probe.l2_ops += l2s.len() as u64;
            for mc in &mut mcs {
                mc.snoop(OrderedSnoop { own: false, msg }, now);
            }
        }
        while let Some(&(at, dest, msg)) = unicast_wire.front() {
            let to_tile = matches!(dest.slot, LocalSlot::Tile(_));
            let ready =
                !to_tile || msg.kind != MsgKind::Data || l2s[dest.router.index()].resp_ready();
            if at > now || !ready {
                break;
            }
            unicast_wire.pop_front();
            if to_tile {
                l2s[dest.router.index()].push_resp(msg);
            } else {
                let mc = mc_eps.iter().position(|&e| e == dest).expect("known MC");
                mcs[mc].wb_data(msg, now);
            }
        }
        busy.clear();
        busy.extend((0..l2s.len()).filter(|&t| !l2s[t].is_idle()));
        let t0 = Instant::now();
        for &t in &busy {
            l2s[t].tick(now);
        }
        probe.l2_seconds += t0.elapsed().as_secs_f64() - timer;
        for &t in &busy {
            let l2 = &mut l2s[t];
            while let Some(out) = l2.pop_out() {
                match out {
                    L2Out::OrderedRequest(msg) => {
                        probe.ordered_requests += 1;
                        order_wire.push_back((now + ORDER_DELAY, msg));
                    }
                    L2Out::Unicast { dest, msg, .. } => {
                        unicast_wire.push_back((now + UNICAST_DELAY, dest, msg));
                    }
                }
            }
            while l2.pop_core_resp().is_some() {
                outstanding[t] = false;
            }
            while l2.pop_l1_invalidation().is_some() {}
            while l2.pop_miss_record().is_some() {}
        }
        let busy_mcs = mcs.iter().filter(|m| !m.is_idle()).count() as u64;
        if busy_mcs > 0 {
            let t0 = Instant::now();
            for mc in mcs.iter_mut().filter(|m| !m.is_idle()) {
                mc.tick(now);
            }
            probe.mc_seconds += t0.elapsed().as_secs_f64() - timer;
            probe.mc_ticks += busy_mcs;
        }
        for mc in &mut mcs {
            while let Some(out) = mc.pop_out() {
                unicast_wire.push_back((now + UNICAST_DELAY, out.dest, out.msg));
            }
        }
        now = now.next();
        let drained = order_wire.is_empty()
            && unicast_wire.is_empty()
            && outstanding.iter().all(|o| !o)
            && next_op
                .iter()
                .zip(&traces)
                .all(|(&n, t)| n == t.records().len());
        if drained || now.as_u64() >= spec.max_cycles {
            return probe;
        }
    }
}

// --------------------------------------------------------- harness probe

/// Host cost of going through the experiment harness.
#[derive(Debug, Clone, Copy)]
pub struct HarnessProbe {
    /// Wall time of `run_spec` on the cell run to completion, in seconds.
    pub run_spec_s: f64,
    /// Wall time of the same generate, build, run and report made by the
    /// benchmark's own calls, in seconds.
    pub direct_s: f64,
    /// Smallest time to render one JSONL row, in seconds.
    pub jsonl_row_s: f64,
    /// The harness rendered the same report as the benchmark's own build of
    /// the cell.
    pub same_run: bool,
}

/// Runs the cell to completion once through `scorpio_harness::run_spec`
/// and once driven directly, and renders the harness's result row. `None`
/// for a cell the harness cannot express (it always gives every core a
/// trace).
pub fn probe_harness(spec: &CellSpec, seed: u64) -> Option<HarnessProbe> {
    if spec.active_tile_stride != 1 {
        return None;
    }
    let mut knobs = Vec::new();
    let (mesh_side, fabric) = match spec.fabric {
        Fabric::Chip => (6, scorpio_harness::Fabric::Mesh),
        Fabric::Mesh(k) => (k, scorpio_harness::Fabric::Mesh),
        Fabric::MeshProportionalMcs(k) => {
            knobs.push(Knob::ProportionalMcs);
            (k, scorpio_harness::Fabric::Mesh)
        }
        Fabric::CMesh {
            tile_side,
            concentration,
        } => (tile_side, scorpio_harness::Fabric::CMesh(concentration)),
    };
    if spec.timed_with_obs {
        knobs.push(Knob::Spans);
        knobs.push(Knob::Windows(WINDOW_CYCLES));
    }
    if let Some(millis) = spec.open_poisson_millis {
        knobs.push(Knob::OpenLoad {
            process: ArrivalProcess::Poisson,
            millis,
        });
    }
    let run = RunSpec {
        index: 0,
        workload: params(&spec.traffic),
        mesh_side,
        fabric,
        planes: spec.planes,
        protocol: protocol(spec),
        variant: Variant::new("benchmark", knobs),
        engine: if spec.leap {
            Engine::Leap
        } else {
            Engine::ActiveSet
        },
        seed,
    };
    let result = scorpio_harness::run_spec(&run, spec.traffic.ops_per_core);

    let t0 = Instant::now();
    let traces = generate_traces(spec, seed);
    let mut cell = Cell::build(spec, seed, Obs::Timed, Stop::AtCompletion, traces);
    cell.run();
    let direct = cell.stats(spec);
    let direct_s = t0.elapsed().as_secs_f64();

    let mut probe = HarnessProbe {
        run_spec_s: result.wall_nanos as f64 / 1e9,
        direct_s,
        jsonl_row_s: f64::INFINITY,
        same_run: result.report.to_json() == direct.report_json,
    };
    for _ in 0..20 {
        let t0 = Instant::now();
        let row = json_line("benchmark", &result, SinkOptions::default());
        probe.jsonl_row_s = probe.jsonl_row_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(row);
    }
    Some(probe)
}
