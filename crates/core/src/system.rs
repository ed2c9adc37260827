//! The assembled full system: cores + L1s + L2s + NICs + both networks +
//! memory controllers, under one of five ordering schemes.
//!
//! * [`Protocol::Scorpio`] — the paper's system: ordered GO-REQ deliveries
//!   via the notification network and ESID-gated NICs.
//! * The baselines — TokenB, INSO, LPD-D and HT-D — order requests by
//!   global slot number in one [`Sequencer`] instead.
//!
//! All of them share the identical caches, memory controllers and router
//! fabric, exactly as the paper's methodology demands ("keeping all
//! conditions equal besides the ordered network").

use crate::config::{ObsLevel, Protocol, SystemConfig};
use crate::report::{
    EpWait, ObsReport, PlaneObs, SpanReport, SystemReport, WindowReport, WindowRow,
};
use crate::sequencer::Sequencer;
use crate::tile::{CoreDriver, CoreKind};
use scorpio_coherence::{CohMsg, LineAddr, MsgKind, Owner};
use scorpio_mem::{CoreResp, L2Out, MemoryController, MissSpan, OrderedSnoop, ServedBy, SnoopyL2};
use scorpio_nic::{Nic, NicMode};
use scorpio_noc::{
    Endpoint, LocalSlot, MultiNetwork, ObsConfig, Sid, SteerKey, TraceEvent, TraceKind, VnetId,
    WindowCell,
};
use scorpio_notify::{NotifyConfig, NotifyNetwork};
use scorpio_sim::capped::{self, Capped};
use scorpio_sim::stats::LogHistogram;
use scorpio_sim::{ActiveSet, Cycle, Wake};
use scorpio_workloads::{arrival_schedule, Trace};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A full SCORPIO (or baseline) system.
pub struct System {
    cfg: SystemConfig,
    /// The main network: one or more address-interleaved delivery planes
    /// behind one interface (`planes = 1` is the chip's single fabric).
    net: MultiNetwork<CohMsg>,
    notify: Option<NotifyNetwork>,
    /// NICs per endpoint (tiles first, then MC ports).
    nics: Vec<Nic<CohMsg>>,
    drivers: Vec<CoreDriver>,
    l2s: Vec<SnoopyL2>,
    mcs: Vec<MemoryController>,
    /// The baselines' ordering point; `None` under SCORPIO.
    seq: Option<Sequencer>,
    /// Data response popped from the NIC but not yet accepted by the L2,
    /// per tile.
    resp_hold: Vec<Option<CohMsg>>,
    /// Stepped-count snapshot at the last completed op (deadlock watchdog).
    watchdog_steps: u64,
    watchdog_ops: u64,
    /// Cycles actually stepped (ticked or skipped one at a time); with the
    /// leap engine this lags [`System::cycle`] by the leaped spans.
    stepped: u64,
    /// When set, [`System::step`] may leap the clock straight to the next
    /// timed deadline whenever the whole machine is provably idle.
    leap: bool,
    // ---- Active-set engine state (see DESIGN.md, "wake/sleep protocol").
    /// Endpoints (tiles first, then MCs — `v < cores` is tile `v`, anything
    /// above is MC `v - cores`) whose next tick can change state; drained
    /// in ascending order each cycle, so tiles tick before MCs.
    active: ActiveSet,
    tick_list: Vec<u32>,
    ep_scratch: Vec<u32>,
    /// Cached per-endpoint completion state backing the incremental
    /// [`System::is_complete`]: an endpoint's flag is refreshed whenever it
    /// is ticked, and a sleeping endpoint cannot change it.
    quiet: Vec<bool>,
    pending: usize,
    /// Running ops total (each tile tick adds its driver's progress; the
    /// watchdog reads this instead of re-summing every driver every cycle).
    ops_total: u64,
    /// Last notification window the wake logic has seen.
    last_notify_window: Option<u64>,
    /// Endpoints parked until an absolute deadline cycle: an L2 stage due,
    /// an announcement's window start, a compute gap's end, a scheduled
    /// DRAM response. The earliest deadline is also what the event-leaping
    /// clock jumps to when the whole machine is idle.
    timed_wakes: TimedWakes,
    /// When set, tick every tile and MC each cycle, wake every router and
    /// injection port of the network before its tick, and compute
    /// [`System::is_complete`] by full scan — the pre-refactor engine,
    /// kept as the equivalence/benchmark reference.
    always_scan: bool,
    // ---- Observability (all empty/zero unless `cfg.obs` enables it).
    /// System-layer trace events (ordered commits), one stream per plane
    /// so each stays in [`TraceEvent::sort_key`] order.
    sys_trace: Vec<Capped<TraceEvent>>,
    /// Core ops completed per telemetry window (epoch-indexed, grown on
    /// demand); maintained only when `cfg.window_cycles` is non-zero.
    win_ops: Vec<u64>,
    /// L2 service latency of every reply a tile has popped.
    service: ServiceLatency,
}

impl System {
    /// Builds a system where every core runs the corresponding trace, with
    /// `cfg.core_outstanding` accesses in flight and, under
    /// `cfg.open_loop`, its arrival schedule.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count.
    pub fn with_traces(cfg: SystemConfig, traces: Vec<Trace>) -> System {
        assert_eq!(traces.len(), cfg.cores(), "one trace per core");
        let drivers = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| {
                // Schedules are drawn serially here from (seed, core)
                // lanes, so they are byte-identical for every engine and
                // worker-thread count.
                let arrivals = cfg.open_loop.as_ref().map(|ol| {
                    let a =
                        arrival_schedule(ol.process, ol.load_millis, &trace, i as u64, cfg.seed);
                    (a, ol.queue_cap)
                });
                let mut d = CoreDriver::new(CoreKind::Trace(trace), &cfg, cfg.core_outstanding);
                if let Some((a, cap)) = arrivals {
                    d.set_open_loop(a, cap);
                }
                d
            })
            .collect();
        System::build(cfg, drivers)
    }

    /// Builds a system where every core runs a reactive program. A
    /// program's next op may depend on the value its last one returned, so
    /// it runs one access at a time, closed loop.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the core count.
    pub fn with_programs(
        cfg: SystemConfig,
        programs: Vec<Box<dyn scorpio_workloads::CoreProgram + Send>>,
    ) -> System {
        assert_eq!(programs.len(), cfg.cores(), "one program per core");
        let drivers = programs
            .into_iter()
            .map(|p| CoreDriver::new(CoreKind::Program(p), &cfg, 1))
            .collect();
        System::build(cfg, drivers)
    }

    fn build(mut cfg: SystemConfig, drivers: Vec<CoreDriver>) -> System {
        let cores = cfg.cores();
        let scorpio = cfg.protocol == Protocol::Scorpio;
        // Baselines broadcast on an unordered request class.
        cfg.noc.vnets[0].ordered = scorpio;
        // Big sweeps don't need per-uid delivery tracking.
        cfg.noc.track_deliveries = false;

        let planes = cfg.planes;
        let mut net: MultiNetwork<CohMsg> = MultiNetwork::new(
            cfg.mesh.clone(),
            cfg.noc.clone(),
            planes,
            cfg.plane_interleave_log2(),
        );
        // Sinks go in before the first cycle and only record: every level
        // simulates identically (the obs equivalence tests). Windows need
        // a sink even at `ObsLevel::Off`, with its counters off.
        let recording = cfg.obs != ObsLevel::Off || cfg.window_cycles != 0;
        net.set_observability(recording.then_some(ObsConfig {
            counters: cfg.obs != ObsLevel::Off,
            trace: (cfg.obs == ObsLevel::Trace).then_some(cfg.trace_limit),
            window_cycles: cfg.window_cycles,
        }));
        let notify = scorpio.then(|| {
            // One notification fabric whose messages carry an independent
            // announcement word group per plane; the scheme picks flat
            // grid-diameter propagation or the hierarchical quad tree.
            NotifyNetwork::with_scheme(
                &cfg.mesh,
                NotifyConfig {
                    cores,
                    bits_per_core: cfg.notification_bits,
                    window: cfg.notification_window(),
                },
                planes.get(),
                cfg.notify,
            )
        });
        let mode = if scorpio {
            NicMode::Ordered
        } else {
            NicMode::Unordered
        };
        let nic_cfg = cfg.nic.clone();
        let endpoints: Vec<Endpoint> = cfg.mesh.endpoints().collect();
        let nics: Vec<Nic<CohMsg>> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                // A tile's SID is its tile number — its dense endpoint
                // index (tiles come first), which on a concentrated mesh
                // differs from its router id.
                let sid = ep.slot.is_tile().then_some(scorpio_noc::Sid(i as u16));
                Nic::new(*ep, sid, mode, cores, planes.get(), nic_cfg.clone())
            })
            .collect();
        let l2s: Vec<SnoopyL2> = (0..cores as u16)
            .map(|t| {
                let mut l2 = SnoopyL2::new(t, cfg.l2.clone());
                if cfg.spans {
                    l2.enable_spans();
                }
                l2
            })
            .collect();
        let mc_total = cfg.mesh.mc_routers().len();
        let mcs: Vec<MemoryController> = cfg
            .mesh
            .mc_routers()
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                MemoryController::new(
                    Endpoint::mc(r),
                    i,
                    mc_total,
                    cfg.l2.line_bytes,
                    cfg.mc.clone(),
                )
            })
            .collect();
        let n_eps = endpoints.len();
        let mut active = ActiveSet::new(n_eps);
        active.wake_all();
        System {
            net,
            notify,
            nics,
            drivers,
            l2s,
            mcs,
            seq: Sequencer::new(&cfg, n_eps),
            resp_hold: vec![None; cores],
            watchdog_steps: 0,
            watchdog_ops: 0,
            stepped: 0,
            leap: false,
            active,
            tick_list: Vec::new(),
            ep_scratch: Vec::new(),
            quiet: vec![false; n_eps],
            pending: n_eps,
            ops_total: 0,
            last_notify_window: None,
            timed_wakes: TimedWakes::new(n_eps),
            always_scan: false,
            sys_trace: vec![Capped::new(cfg.trace_limit); cfg.planes.get()],
            // One slot per telemetry window of the longest possible run
            // (bounded: the rows only ever cover windows that saw an op).
            win_ops: Vec::with_capacity(match cfg.window_cycles {
                0 => 0,
                w => (cfg.max_cycles / w + 1).min(1 << 16) as usize,
            }),
            service: ServiceLatency::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Maps a coherence-layer destination to its delivery-fabric endpoint.
    ///
    /// The cache/memory layer addresses tiles by *tile index* (it encodes
    /// tile `t` as `Endpoint::tile(RouterId(t))` — requesters, FID owners
    /// and directory homes are all tile numbers); the fabric addresses
    /// them by (router, slot). On every unconcentrated fabric the two
    /// coincide; on a concentrated mesh tile `t` lives at router `t / c`,
    /// slot `t % c`. MC endpoints already carry physical router ids and
    /// pass through. This is the single logical→physical boundary — every
    /// unicast the system layer injects crosses it.
    fn physical_dest(&self, dest: Endpoint) -> Endpoint {
        match dest.slot {
            LocalSlot::Tile(k) => {
                debug_assert_eq!(k, 0, "coherence layer addresses tiles by index");
                self.cfg.mesh.tile_endpoint(dest.router.index())
            }
            LocalSlot::Mc => dest,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.net.cycle()
    }

    /// Selects the always-scan engine: probe every tile, MC, router and
    /// injection port each cycle, and compute [`System::is_complete`] by
    /// full scan, exactly as the pre-refactor engine did (the wake
    /// bookkeeping still runs, unread). The active-set
    /// engine (the default) is required to produce byte-identical
    /// [`SystemReport`]s — asserted by the engine-equivalence suite — so
    /// this switch exists to keep that claim testable and the speedup
    /// measurable. Call before the first cycle.
    pub fn set_always_scan(&mut self, scan: bool) {
        self.always_scan = scan;
    }

    /// Enables the event-leaping clock: when every component is provably
    /// asleep and the only future work is a known timed deadline (a compute
    /// gap or a scheduled memory response) or a notification window's
    /// publish tick, [`System::step`] advances the clock straight there
    /// instead of stepping empty cycles. Live windows no longer pin the
    /// clock: an announcer whose only obligation is its in-flight
    /// announcement sleeps on the window-publish event (`Nic::next_wake`
    /// answers an event, not a cycle), and the window's OR
    /// state fast-forwards arithmetically to its publish tick
    /// (`NotifyNetwork::leap_horizon` / `advance`). Exact by construction
    /// — leaping requires the active sets empty and every plane quiescent,
    /// states in which a serial cycle is a provable no-op — and asserted
    /// byte-identical (reports *and* traces) by the equivalence matrix.
    /// Off by default; incompatible with the always-scan reference engine
    /// (silently inert under it). Call before the first cycle.
    pub fn set_leap(&mut self, leap: bool) {
        self.leap = leap;
    }

    /// Cycles actually executed as steps. Without the leap engine this
    /// equals [`System::cycle`]; with it, `cycle - stepped_cycles` is the
    /// span covered by clock leaps.
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped
    }

    /// Whether every core has finished and the machine is quiescent.
    ///
    /// The active-set engine answers from incrementally maintained
    /// counters (components report completion transitions as they tick);
    /// the always-scan engine performs the full scan the counters mirror.
    pub fn is_complete(&self) -> bool {
        if self.always_scan {
            self.drivers.iter().all(CoreDriver::is_done)
                && self.l2s.iter().all(SnoopyL2::is_idle)
                && self.mcs.iter().all(MemoryController::is_idle)
                && self.resp_hold.iter().all(Option::is_none)
                && self.seq.as_ref().is_none_or(Sequencer::is_idle)
        } else {
            self.pending == 0
        }
    }

    /// Runs until completion (or `cfg.max_cycles`), returning the report.
    ///
    /// # Panics
    ///
    /// Panics if the system makes no progress for 50 000 cycles — the
    /// deadlock watchdog used by the verification suite.
    pub fn run_to_completion(&mut self) -> SystemReport {
        let max = self.cfg.max_cycles;
        while !self.is_complete() && self.cycle().as_u64() < max {
            self.step();
            // The ops total is maintained incrementally as drivers tick
            // (a sleeping driver is done and cannot complete ops). The
            // watchdog counts *steps* without progress, not raw cycles: a
            // clock leap over a >50k-cycle compute gap is progress-neutral
            // idleness, not a wedge (without the leap engine the two
            // measures coincide, every step being one cycle).
            if self.ops_total > self.watchdog_ops {
                self.watchdog_ops = self.ops_total;
                self.watchdog_steps = self.stepped;
            }
            assert!(
                self.stepped - self.watchdog_steps < 50_000,
                "system wedged: no op completed for 50k stepped cycles at {} ({} ops done)\n{}",
                self.cycle(),
                self.ops_total,
                self.debug_dump()
            );
        }
        self.report()
    }

    /// One full system cycle. With the leap engine enabled and the whole
    /// machine provably idle, the clock first jumps to just before the
    /// next timed deadline, so this call may advance [`System::cycle`] by
    /// more than one.
    pub fn step(&mut self) {
        if self.leap {
            self.try_leap();
        }
        self.stepped += 1;
        let now = self.net.cycle();
        self.tick_endpoints(now);
        if self.always_scan {
            self.net.wake_all();
        }
        self.net.tick();
        self.net.commit();
        if let Some(n) = self.notify.as_mut() {
            n.tick();
        }
        self.apply_wakes();
    }

    /// The event leap: if nothing can happen until the earliest timed
    /// deadline `k`, advance the clock to `k - 1` and let the following
    /// normal step fire the wake exactly as the serial engine would (timed
    /// wakes with key `<= cycle` fire at the end of the step that reaches
    /// them, so the woken component ticks at cycle `k`).
    ///
    /// The notification network no longer has to be idle: a live window
    /// whose announcers all sleep on its publish event (`Nic::next_wake`)
    /// bounds
    /// the jump instead, via [`NotifyNetwork::leap_horizon`] — the clock
    /// leaps straight to the window's publish tick (or to `k - 1`,
    /// whichever is earlier), and [`NotifyNetwork::advance`] fast-forwards
    /// the OR-tree state exactly (mid-window propagation over latched
    /// inputs is time-invariant). The remaining preconditions make the
    /// skipped span a provable no-op: both active sets empty (no tile or
    /// MC would tick) and every plane quiescent (its tick/commit collapses
    /// to a clock edge — the same argument the idle-plane skip rests on).
    fn try_leap(&mut self) {
        if self.always_scan || !self.active.is_empty() {
            return;
        }
        let now = self.net.cycle().as_u64();
        let wake = self.timed_wakes.first_deadline(now);
        let horizon = self.notify.as_ref().and_then(NotifyNetwork::leap_horizon);
        let target = match (wake, horizon) {
            (Some(k), Some(h)) => (k - 1).min(h),
            (Some(k), None) => k - 1,
            (None, Some(h)) => h,
            (None, None) => return,
        };
        // Never leap past the run bound: the serial engine would have
        // stopped stepping at max_cycles with the deadline still pending.
        let target = target.min(self.cfg.max_cycles.saturating_sub(1));
        if target <= now {
            return;
        }
        if !self.net.is_quiescent() {
            return;
        }
        let delta = target - now;
        self.net.leap(delta);
        if let Some(n) = self.notify.as_mut() {
            n.advance(delta);
        }
    }

    /// Post-cycle wake propagation: due timed wakes fire for the next
    /// cycle; an endpoint that received a flit wakes if its NIC can act on
    /// it (a flit changes only the NIC's answer to the sleep rule, so only
    /// that is asked again — a request not yet expected just waits); a
    /// completed window carrying announcements or a stop bit wakes
    /// everyone. Always-scan keeps this bookkeeping too, so its active set
    /// says what the event-driven engines would tick (the sleep-soundness
    /// tests read it).
    fn apply_wakes(&mut self) {
        let next = self.net.cycle();
        self.timed_wakes.fire(next.as_u64(), &mut self.active);
        let mut eps = std::mem::take(&mut self.ep_scratch);
        self.net.take_woken_endpoints(&mut eps);
        let last = Cycle::new(next.as_u64() - 1);
        for &ep in &eps {
            let ep = ep as usize;
            if self.active.is_active(ep) {
                continue;
            }
            let nic = self.nics[ep].next_wake(last, &self.net, self.notify.as_ref());
            if nic.at <= next {
                self.active.wake(ep);
            }
        }
        self.ep_scratch = eps;
        if let Some(n) = &self.notify {
            if let Some((w, msg)) = n.latest() {
                if self.last_notify_window != Some(w) {
                    self.last_notify_window = Some(w);
                    // is_empty() is false for stop-bit windows too, so this
                    // single check covers both wake triggers.
                    if !msg.is_empty() {
                        self.active.wake_all();
                    }
                }
            }
        }
    }

    /// Ticks every woken endpoint: tiles in index order, then MCs. The
    /// always-scan engine ticks every endpoint, but only the woken ones go
    /// through the sleep rule afterwards — a tick the event-driven engines
    /// skip never re-arms itself — so its active set stays exactly theirs.
    fn tick_endpoints(&mut self, now: Cycle) {
        let mut list = std::mem::take(&mut self.tick_list);
        self.active.drain_sorted(&mut list);
        if self.always_scan {
            let mut drained = list.iter().peekable();
            for ep in 0..self.nics.len() {
                let woken = drained.next_if(|&&w| w as usize == ep).is_some();
                self.tick_endpoint(ep, now, woken);
            }
        } else {
            for &ep in &list {
                self.tick_endpoint(ep as usize, now, true);
            }
        }
        self.tick_list = list;
    }

    /// One endpoint's tick, then (for a `woken` endpoint) the one sleep
    /// rule: it ticks again next cycle only if that tick could change
    /// state; otherwise it is parked until the cycle its wake names, or
    /// left to its wake events (a flit ejecting at it, a non-empty window).
    fn tick_endpoint(&mut self, ep: usize, now: Cycle, woken: bool) {
        let wake = match ep.checked_sub(self.cfg.cores()) {
            None => {
                self.tick_tile(ep, now);
                woken.then(|| self.tile_wake(ep, now))
            }
            Some(m) => {
                self.tick_mc(m, now);
                woken.then(|| self.mc_wake(m, now))
            }
        };
        let Some(wake) = wake else { return };
        if wake.at <= now.next() {
            self.active.wake(ep);
        } else if !wake.is_event() {
            self.timed_wakes
                .park(now.as_u64(), wake.at.as_u64(), ep as u32);
        }
    }

    /// Refreshes endpoint `ep`'s completion flag after its tick.
    fn set_quiet(&mut self, ep: usize, quiet: bool) {
        if quiet != self.quiet[ep] {
            self.quiet[ep] = quiet;
            if quiet {
                self.pending -= 1;
            } else {
                self.pending += 1;
            }
        }
    }

    /// The sleep rule's tile half: when tile `t`'s next tick can first
    /// change state, asked after its tick at `now` (DESIGN.md §9 tabulates
    /// obligation → wake source).
    /// What the tile itself retries every cycle comes first; the ordering
    /// point, L2, core and NIC then each name their own earliest cycle.
    fn tile_wake(&self, t: usize, now: Cycle) -> Wake {
        let next = now.next();
        if self.resp_hold[t].is_some() {
            return Wake::at(next, "held data response");
        }
        // A reorder buffer missing its next slot waits for that slot's
        // packet to eject here.
        let order = self.seq.as_ref().and_then(|s| s.wake(t, next));
        if let Some(wake) = order.filter(|w| w.at == next) {
            return wake;
        }
        let mut mem = self.l2s[t]
            .next_wake(now)
            .earliest(self.drivers[t].next_wake(now));
        if let Some(wake) = order {
            mem = mem.earliest(wake);
        }
        if mem.at == next {
            return mem;
        }
        mem.earliest(self.nics[t].next_wake(now, &self.net, self.notify.as_ref()))
    }

    /// [`System::tile_wake`] for memory controller `m`: an MC with DRAM
    /// accesses in flight sleeps until the earliest scheduled response;
    /// everything else that could need a tick arrives as an ejected flit.
    fn mc_wake(&self, m: usize, now: Cycle) -> Wake {
        let ep = self.cfg.cores() + m;
        if let Some(wake) = self.seq.as_ref().and_then(|s| s.wake(ep, now.next())) {
            return wake;
        }
        if self.mcs[m].peek_out().is_some() {
            return Wake::at(now.next(), "mc outbox");
        }
        let dram = match self.mcs[m].next_deadline() {
            Some(ready) => Wake::at(ready, "dram response"),
            None => Wake::event("ordered request"),
        };
        dram.earliest(self.nics[ep].next_wake(now, &self.net, self.notify.as_ref()))
    }

    fn tick_tile(&mut self, t: usize, now: Cycle) {
        // A driver's op count moves only inside this tick.
        let ops_before = self.drivers[t].ops_done;
        // L2 → core completions, then inclusion invalidations.
        while let Some(resp) = self.l2s[t].pop_core_resp() {
            self.service.record(&resp);
            self.drivers[t].complete(now, resp);
        }
        while let Some(addr) = self.l2s[t].pop_l1_invalidation() {
            self.drivers[t].l1_mut().invalidate(addr);
        }
        // Ordered deliveries into the snoop queue: SCORPIO's from the NIC
        // (a baseline's NIC delivers none)...
        while self.l2s[t].snoop_ready() {
            let Some(d) = self.nics[t].pop_ordered() else {
                break;
            };
            self.trace_commit(now, t, d.sid, d.own, d.payload.steer_key());
            self.l2s[t].stamp_popped(&d.payload, now);
            self.l2s[t].push_snoop(OrderedSnoop {
                own: d.own,
                msg: d.payload,
            });
        }
        self.drain_packets(t, now);
        // ...a baseline's from the reorder buffer, in global slot order.
        if let Some(seq) = &mut self.seq {
            while self.l2s[t].snoop_ready() {
                let Some(ready) = seq.pop_ready(t) else {
                    break;
                };
                // `None`: an expired slot.
                if let Some(msg) = ready {
                    self.l2s[t].stamp_popped(&msg, now);
                    let own = msg.requester as usize == t;
                    self.l2s[t].push_snoop(OrderedSnoop { own, msg });
                }
            }
        }
        // Held data response, L2 outbox → NIC, then the ordering point's
        // own work (INSO expiry, the directory home).
        if let Some(msg) = self.resp_hold[t].take() {
            self.offer_data(t, msg);
        }
        self.forward_l2_out(t, now);
        if let Some(seq) = &mut self.seq {
            seq.tick(t, now, &mut self.nics[t], &mut self.net);
        }
        // Core issues; L2 and NIC advance.
        self.drivers[t].tick(now, &mut self.l2s[t]);
        self.l2s[t].tick(now);
        let notify = self.notify.as_mut();
        self.nics[t].tick(now, &mut self.net, notify);
        // Report this tile's completion transition and ops progress.
        let quiet = self.l2s[t].is_idle()
            && self.resp_hold[t].is_none()
            && self.seq.as_ref().is_none_or(|s| s.tile_idle(t))
            && self.drivers[t].is_done();
        self.set_quiet(t, quiet);
        let ops_delta = self.drivers[t].ops_done - ops_before;
        self.ops_total += ops_delta;
        if self.cfg.window_cycles != 0 && ops_delta != 0 {
            let idx = (now.as_u64() / self.cfg.window_cycles) as usize;
            if self.win_ops.len() <= idx {
                self.win_ops.resize(idx + 1, 0);
            }
            self.win_ops[idx] += ops_delta;
        }
    }

    fn tick_mc(&mut self, m: usize, now: Cycle) {
        let ep = self.cfg.cores() + m;
        // SCORPIO's ordered deliveries (a baseline's NIC delivers none)...
        while let Some(d) = self.nics[ep].pop_ordered() {
            self.trace_commit(now, ep, d.sid, d.own, d.payload.steer_key());
            let msg = d.payload;
            self.mcs[m].snoop(OrderedSnoop { own: false, msg }, now);
        }
        while let Some(pkt) = self.nics[ep].pop_packet() {
            match (pkt.payload.kind, &mut self.seq) {
                (MsgKind::WbData, _) => self.mcs[m].wb_data(pkt.payload, now),
                (_, Some(seq)) => seq.intake(ep, pkt.payload, now),
                (other, None) => panic!("MC received {other:?}"),
            }
        }
        // ...a baseline's from the reorder buffer, in global slot order.
        if let Some(seq) = &mut self.seq {
            while let Some(ready) = seq.pop_ready(ep) {
                if let Some(msg) = ready {
                    self.mcs[m].snoop(OrderedSnoop { own: false, msg }, now);
                }
            }
        }
        self.mcs[m].tick(now);
        while let Some(out) = self.mcs[m].peek_out() {
            let dest = self.physical_dest(out.dest);
            let msg = out.msg;
            let flits = self.cfg.noc.data_flits();
            match self.nics[ep].try_send_unicast(VnetId::UO_RESP, dest, flits, msg, &mut self.net) {
                Ok(()) => {
                    self.mcs[m].pop_out();
                }
                Err(_) => break,
            }
        }
        let notify = self.notify.as_mut();
        self.nics[ep].tick(now, &mut self.net, notify);
        self.set_quiet(ep, self.mcs[m].is_idle());
    }

    /// Drains tile `t`'s unordered packets: data goes to the L2 (and stops
    /// the drain while it waits for room); under a baseline anything else
    /// is the ordering point's.
    fn drain_packets(&mut self, t: usize, now: Cycle) {
        while self.resp_hold[t].is_none() {
            let Some(pkt) = self.nics[t].pop_packet() else {
                break;
            };
            match (pkt.payload.kind, &mut self.seq) {
                (MsgKind::Data, _) => self.offer_data(t, pkt.payload),
                (_, Some(seq)) => seq.intake(t, pkt.payload, now),
                (other, None) => panic!("tile received {other:?}"),
            }
        }
    }

    /// Hands data to tile `t`'s L2, or holds it while the L2 has no room.
    fn offer_data(&mut self, t: usize, msg: CohMsg) {
        if self.l2s[t].resp_ready() {
            self.l2s[t].push_resp(msg);
        } else {
            self.resp_hold[t] = Some(msg);
        }
    }

    /// Moves L2 output messages into the NIC, respecting backpressure.
    fn forward_l2_out(&mut self, t: usize, now: Cycle) {
        // A request the ordering point holds back retries first, and blocks
        // the outbox until it goes.
        if let Some(seq) = &mut self.seq {
            if !seq.retry_request(t, &mut self.nics[t], &mut self.net) {
                return;
            }
        }
        while let Some(out) = self.l2s[t].peek_out().copied() {
            match out {
                L2Out::OrderedRequest(msg) => {
                    let taken = match &mut self.seq {
                        Some(seq) => {
                            let mesh = &self.cfg.mesh;
                            seq.order(t, msg, now, mesh, &mut self.nics[t], &mut self.net)
                        }
                        None => self.nics[t]
                            .try_send_request(msg, now, &mut self.net)
                            .is_ok(),
                    };
                    if !taken {
                        break;
                    }
                    self.l2s[t].pop_out();
                    self.l2s[t].stamp_inject(&msg, now);
                    if self.seq.as_ref().is_some_and(|s| s.holds_request(t)) {
                        break;
                    }
                }
                L2Out::Unicast {
                    dest,
                    msg,
                    data_sized,
                } => {
                    let flits = if data_sized {
                        self.cfg.noc.data_flits()
                    } else {
                        1
                    };
                    let dest = self.physical_dest(dest);
                    if self.nics[t]
                        .try_send_unicast(VnetId::UO_RESP, dest, flits, msg, &mut self.net)
                        .is_err()
                    {
                        break;
                    }
                    self.l2s[t].pop_out();
                }
            }
        }
    }

    /// Records an ordered-commit trace event: endpoint `ep` consumed SID
    /// `sid`'s ordered broadcast (`own`: its own request), filed under the
    /// plane the payload's steering `key` picks.
    fn trace_commit(&mut self, now: Cycle, ep: usize, sid: scorpio_noc::Sid, own: bool, key: u64) {
        if self.cfg.obs != ObsLevel::Trace {
            return;
        }
        let plane = self.net.plane_of(key);
        self.sys_trace[plane].push(TraceEvent {
            cycle: now.as_u64(),
            plane: plane as u16,
            kind: TraceKind::OrderedCommit,
            uid: u64::from(sid.0),
            vnet: 0,
            node: ep as u32,
            port: 0,
            vc: 0,
            aux: u64::from(own),
        });
    }

    /// The flit-trace streams in merge order: the planes' network streams,
    /// then their ordered commits, which thus sort last at a tied key.
    fn trace_streams(&self) -> impl Iterator<Item = (&[TraceEvent], u64)> + Clone {
        (0..self.net.plane_count())
            .filter_map(|p| self.net.obs(p)?.events.as_ref())
            .chain(&self.sys_trace)
            .map(Capped::stream)
    }

    /// Drains the run's flit-event trace, merged and capped at
    /// `cfg.trace_limit`, with the count of events beyond the cap. Empty
    /// unless `cfg.obs` is [`ObsLevel::Trace`].
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let trace = capped::merge(
            self.trace_streams(),
            self.cfg.trace_limit,
            TraceEvent::sort_key,
        );
        self.net.clear_trace();
        self.sys_trace.iter_mut().for_each(Capped::clear);
        trace
    }

    /// The L2s' span streams: uncapped, in tile order, each retire-ordered.
    fn span_streams(&self) -> impl Iterator<Item = (&[MissSpan], u64)> + Clone {
        self.l2s.iter().map(|l2| (l2.spans(), 0))
    }

    /// The run's transaction spans, merged across tiles into retire order
    /// (ties keep tile order — a deterministic, engine-invariant key) and
    /// capped at `cfg.trace_limit`. The second value counts spans beyond
    /// the cap. Empty unless `cfg.spans` is set.
    pub fn span_records(&self) -> (Vec<MissSpan>, u64) {
        capped::merge(self.span_streams(), self.cfg.trace_limit, |s| s.retire)
    }

    /// The run's merged windowed-telemetry rows — every plane's epoch
    /// cells folded together, plus core-op progress and notification
    /// publish ticks. Empty unless `cfg.window_cycles` is non-zero.
    pub fn window_rows(&self) -> Vec<WindowRow> {
        self.window_data().0
    }

    /// Builds the window rows and their summary in one pass.
    fn window_data(&self) -> (Vec<WindowRow>, WindowReport) {
        let w = self.cfg.window_cycles;
        let mut report = WindowReport {
            window_cycles: w,
            ..WindowReport::default()
        };
        if w == 0 {
            return (Vec::new(), report);
        }
        // Fold the planes' epoch cells together; epochs one plane never
        // touched merge as zero.
        let mut cells: Vec<WindowCell> = Vec::new();
        for p in 0..self.cfg.planes.get() {
            let Some(o) = self.net.obs(p) else { continue };
            if cells.len() < o.windows.len() {
                cells.resize_with(o.windows.len(), WindowCell::default);
            }
            for (a, b) in cells.iter_mut().zip(&o.windows) {
                a.merge(b);
            }
        }
        // Notification publishes per row, counted on the notify clock: a
        // window publishes on its last cycle, so the last publish ran at
        // cycle `windows_completed · window − 1`.
        let before = |c: u64| self.notify.as_ref().map_or(0, |n| n.publishes_before(c));
        let published = self.notify.as_ref().map_or(0, |n| {
            (n.windows_completed() * n.config().window).div_ceil(w) as usize
        });
        let count = cells.len().max(self.win_ops.len()).max(published);
        cells.resize_with(count, WindowCell::default);
        let mut rows = Vec::with_capacity(count);
        for (i, cell) in cells.into_iter().enumerate() {
            let mut row = WindowRow {
                window: i as u64,
                cycles: w,
                cell,
                ops: self.win_ops.get(i).copied().unwrap_or(0),
                publishes: before((i as u64 + 1) * w) - before(i as u64 * w),
                ep_wait_max: None,
                ep_wait_min: None,
            };
            for (ep, &(cnt, sum)) in row.cell.ep_wait.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let cand = EpWait {
                    ep: ep as u32,
                    window: i as u64,
                    count: cnt,
                    sum,
                };
                keep_extreme(&mut row.ep_wait_max, cand, Ordering::Greater);
                keep_extreme(&mut row.ep_wait_min, cand, Ordering::Less);
            }
            // Fold the row extremes into the run-level starvation signal.
            if let Some(m) = row.ep_wait_max {
                keep_extreme(&mut report.max_wait, m, Ordering::Greater);
            }
            if let Some(m) = row.ep_wait_min {
                keep_extreme(&mut report.min_wait, m, Ordering::Less);
            }
            rows.push(row);
        }
        // Warmup/steady-state split: the prefix before the first window
        // whose completed-op count reaches half the peak window's.
        let peak = rows.iter().map(|r| r.ops).max().unwrap_or(0);
        let warmup = if peak == 0 {
            0
        } else {
            rows.iter().position(|r| r.ops * 2 >= peak).unwrap_or(0)
        };
        report.count = rows.len() as u64;
        report.warmup = warmup as u64;
        for r in &rows[warmup..] {
            report.steady_ops += r.ops;
            report.steady_ejected += r.cell.ejected;
        }
        (rows, report)
    }

    /// Assembles the observability annex of `r`, whose L2 hit latencies
    /// are `hits`: latency histograms, per-plane counter snapshots, and
    /// the trace totals [`System::take_trace`] will report. Every latency
    /// is recorded whatever the level; the annex shows them only at
    /// counter level and above, so a spans-only or windows-only annex
    /// carries them empty.
    fn obs_report(&self, r: &SystemReport, hits: &LogHistogram) -> Box<ObsReport> {
        let mut o = Box::new(ObsReport::default());
        o.vnet_latency = self
            .cfg
            .noc
            .vnets
            .iter()
            .map(|v| (v.name.to_string(), LogHistogram::default()))
            .collect();
        if self.cfg.obs != ObsLevel::Off {
            let classes = self.net.stats().vnet_latency;
            for ((_, dst), src) in o.vnet_latency.iter_mut().zip(classes) {
                *dst = src;
            }
            o.packet_latency = r.packet_latency.clone();
            o.l2_service = r.l2_service_latency.clone();
            o.ordering_delay = r.ordering_delay.clone();
        }
        let endpoints: Vec<Endpoint> = self.cfg.mesh.endpoints().collect();
        // Concentration positions 0..tile_slots, then one MC bucket.
        let tile_slots = endpoints
            .iter()
            .filter_map(|e| match e.slot {
                LocalSlot::Tile(k) => Some(k as usize + 1),
                LocalSlot::Mc => None,
            })
            .max()
            .unwrap_or(1);
        o.inject_wait_slots = vec![LogHistogram::default(); tile_slots + 1];
        for p in 0..self.cfg.planes.get() {
            let Some(n) = self.net.obs(p) else { continue };
            for (i, h) in n.inject_wait.iter().enumerate() {
                o.inject_wait.merge(h);
                let slot = match endpoints[i].slot {
                    LocalSlot::Tile(k) => k as usize,
                    LocalSlot::Mc => tile_slots,
                };
                o.inject_wait_slots[slot].merge(h);
            }
            o.planes.push(PlaneObs {
                link_flits: n.link_flits.iter().sum(),
                links_used: n.link_flits.iter().filter(|&&c| c > 0).count() as u64,
                max_link_flits: n.link_flits.iter().copied().max().unwrap_or(0),
                buffer_integral: n.buffer_integral,
                stall_sa_i: n.stall_sa_i,
                stall_sa_ii: n.stall_sa_o,
                stall_vc_alloc: n.stall_vc_alloc,
                stall_credit: n.stall_credit,
                vc_buffered: n.vc_buffered.clone(),
            });
        }
        let (kept, dropped) = capped::totals(self.trace_streams(), self.cfg.trace_limit);
        o.trace_kept = kept as u64;
        o.trace_dropped = dropped;
        if self.cfg.spans {
            let mut sp = SpanReport {
                hit: hits.clone(),
                ..SpanReport::default()
            };
            for s in self.l2s.iter().flat_map(|l2| l2.spans()) {
                sp.fold(s);
            }
            // The phase histograms above fold every span; only the
            // record stream itself is capped.
            sp.dropped = capped::totals(self.span_streams(), self.cfg.trace_limit).1;
            o.spans = Some(sp);
        }
        if self.cfg.window_cycles != 0 {
            o.windows = Some(self.window_data().1);
        }
        o
    }

    /// Builds the aggregate report for the run so far.
    pub fn report(&self) -> SystemReport {
        let mut r = SystemReport {
            protocol: self.cfg.protocol.name(),
            cores: self.cfg.cores(),
            runtime_cycles: self
                .drivers
                .iter()
                .map(|d| d.finished_at.unwrap_or(self.net.cycle()).as_u64())
                .max()
                .unwrap_or(0),
            ..SystemReport::default()
        };
        // A reply the L2 has queued but its tile has not popped yet is
        // complete: count it, so a report cut mid-run counts every reply
        // the L2 has made.
        let mut service = self.service.clone();
        for resp in self.l2s.iter().flat_map(SnoopyL2::queued_core_resps) {
            service.record(resp);
        }
        for h in [&service.hit, &service.cache, &service.memory] {
            r.l2_service_latency.merge(h);
        }
        r.cache_served = service.cache.clone();
        r.memory_served = service.memory.clone();
        for d in &self.drivers {
            r.ops_completed += d.ops_done;
            r.l1_hits += d.l1_hits;
            r.source_dropped += d.src_dropped;
        }
        for l2 in &self.l2s {
            r.l2_hits += l2.stats.hits;
            r.l2_misses += l2.stats.misses;
            r.ordering_delay.merge(&l2.stats.ordering_delay);
            r.data_forwards += l2.stats.data_forwards;
            r.snoops_filtered += l2.stats.snoops_filtered;
            r.snoops_looked_up += l2.stats.snoops;
            r.writebacks += l2.stats.writebacks;
            r.writebacks_squashed += l2.stats.wb_squashed;
        }
        for mc in &self.mcs {
            r.memory_responses += mc.stats.responses;
        }
        let ns = self.net.stats();
        r.bypassed_flits = ns.bypassed_flits;
        r.buffered_flits = ns.buffered_flits;
        r.packets_injected = ns.injected_packets;
        r.packet_latency = ns.packet_latency();
        if let Some(n) = &self.notify {
            r.notify_windows = n.windows_completed();
            r.notify_nonempty = n.nonempty_windows;
        }
        r.stop_windows = self.nics.iter().map(|n| n.stats.stop_windows).sum();
        if let Some(seq) = &self.seq {
            seq.report(&mut r);
        }
        if self.cfg.obs != ObsLevel::Off || self.cfg.spans || self.cfg.window_cycles != 0 {
            r.obs = Some(self.obs_report(&r, &service.hit));
        }
        r
    }

    /// Direct access to a tile's L2 (verification).
    pub fn l2(&self, tile: usize) -> &SnoopyL2 {
        &self.l2s[tile]
    }

    /// The coherent value of `addr` (verification oracle): the owning L2's
    /// copy, else memory's at the one MC port responsible for the line.
    /// `None` while ownership is in transit (a writeback or an ordered
    /// GETX not yet complete), so ask at quiescence.
    pub fn coherent_value(&self, addr: LineAddr) -> Option<u64> {
        if let Some(l2) = self.l2s.iter().find(|l2| l2.line_state(addr).is_owner()) {
            return l2.line_value(addr);
        }
        let mc = self.mcs.iter().find(|mc| mc.responsible_for(addr))?;
        (mc.owner(addr) == Owner::Memory).then(|| mc.memory_value(addr))
    }

    /// Per endpoint with work left, how the sleep rule sees it —
    /// `awake(<obligation>)`, `asleep until <cycle>` or `asleep on
    /// event(<what it waits for>)` — plus the earliest timed wake. A missed
    /// wake shows as an endpoint asleep past its due cycle, or on an event
    /// that already happened.
    fn sleep_states(&self) -> String {
        let cores = self.cfg.cores();
        let last = Cycle::new(self.cycle().as_u64().saturating_sub(1));
        let mut out = String::new();
        for ep in (0..self.nics.len()).filter(|&ep| !self.quiet[ep]) {
            let (name, wake) = match ep.checked_sub(cores) {
                None => (format!("tile {ep}"), self.tile_wake(ep, last)),
                Some(m) => (format!("mc {m}"), self.mc_wake(m, last)),
            };
            let state = if self.active.is_active(ep) {
                format!("awake({})", wake.why)
            } else if wake.at <= self.cycle() {
                format!("asleep, yet due since {} ({})", wake.at, wake.why)
            } else if wake.is_event() {
                format!("asleep on event({})", wake.why)
            } else {
                format!("asleep until {} ({})", wake.at, wake.why)
            };
            out.push_str(&format!("{name}: {state}\n"));
        }
        let head = self.timed_wakes.first_deadline(last.as_u64());
        out.push_str(&format!("timed wakes: earliest deadline {head:?}\n"));
        out
    }

    /// The watchdog's post-mortem: every busy endpoint's sleep state,
    /// every tile's and MC's expected SID on each plane, the latest
    /// window's stop bit on each plane and the fabric's occupancy.
    pub(crate) fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let planes = self.cfg.planes.get();
        let esids = |nic: &Nic<CohMsg>| -> Vec<Option<Sid>> {
            (0..planes).map(|p| nic.current_esid(p)).collect()
        };
        let mut out = format!(
            "cycle {}  net last progress {}\n",
            self.cycle(),
            self.net.last_progress()
        );
        out.push_str(&self.sleep_states());
        for (t, l2) in self.l2s.iter().enumerate() {
            let _ = writeln!(
                out,
                "tile {t}: driver done={} ops={} l2 idle={} esid={:?} nic backlog={} ordered_backlog={}",
                self.drivers[t].is_done(),
                self.drivers[t].ops_done,
                l2.is_idle(),
                esids(&self.nics[t]),
                self.net.inject_backlog(self.nics[t].endpoint()),
                self.nics[t].ordering_backlog(),
            );
            let _ = writeln!(out, "        {:?}", self.nics[t]);
            out.push_str(&self.l2s[t].debug_state());
        }
        if let Some(n) = &self.notify {
            let latest = n.latest().map(|(w, m)| {
                let stops: Vec<bool> = (0..m.planes()).map(|p| m.stop(p)).collect();
                (w, m.total(), stops)
            });
            let _ = writeln!(
                out,
                "notify: windows={} nonempty={} latest={latest:?}",
                n.windows_completed(),
                n.nonempty_windows,
            );
        }
        if let Some(seq) = &self.seq {
            seq.dump(&mut out);
        }
        for (m, mc) in self.mcs.iter().enumerate() {
            let idx = self.cfg.cores() + m;
            let _ = writeln!(
                out,
                "mc {m}: idle={} esid={:?} backlog={}",
                mc.is_idle(),
                esids(&self.nics[idx]),
                self.nics[idx].ordering_backlog()
            );
        }
        out.push_str(&self.net.debug_dump());
        out
    }
}

/// Keeps in `best` the wait with the extreme mean on `side` (`Greater`:
/// largest). Strict, so ties keep the earliest window, then the lowest
/// endpoint. Means compare exactly, cross-multiplied in u128, so the
/// starvation extremes are bit-stable across platforms.
fn keep_extreme(best: &mut Option<EpWait>, cand: EpWait, side: Ordering) {
    let mean_cmp = |b: &EpWait| {
        (u128::from(cand.sum) * u128::from(b.count))
            .cmp(&(u128::from(b.sum) * u128::from(cand.count)))
    };
    if best.as_ref().is_none_or(|b| mean_cmp(b) == side) {
        *best = Some(cand);
    }
}

/// L2 service latency (enqueue → core reply), one histogram per reply
/// class; each reply is recorded in exactly one.
#[derive(Debug, Clone, Default)]
struct ServiceLatency {
    hit: LogHistogram,
    cache: LogHistogram,
    memory: LogHistogram,
}

impl ServiceLatency {
    fn record(&mut self, resp: &CoreResp) {
        match resp.served_by {
            None => &mut self.hit,
            Some(ServedBy::Cache) => &mut self.cache,
            Some(ServedBy::Memory) => &mut self.memory,
        }
        .record(resp.latency);
    }
}

/// Timed wake-ups: endpoints parked until an absolute deadline cycle.
/// Near deadlines (an L2 stage due, the next window start) sit in a
/// cycle-indexed wheel of endpoint bitsets — parking sets a bit, firing ORs
/// a slot into the active set; far ones (compute gaps, DRAM) in a min-heap.
/// Both are sized at build.
struct TimedWakes {
    /// `WHEEL_SLOTS` endpoint bitsets of `words` words each, back to back:
    /// slot `c % WHEEL_SLOTS` holds the endpoints to wake for cycle `c`.
    wheel: Vec<u64>,
    words: usize,
    /// Bit `s` is set iff wheel slot `s` holds anyone.
    occupied: u64,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Each endpoint's deadline already in `heap` (0: none), so parking on
    /// the same far deadline after every early wake pushes it once.
    in_heap: Vec<u64>,
}

/// Wheel slots: deadlines less than this far ahead use the wheel.
const WHEEL_SLOTS: u64 = u64::BITS as u64;

impl TimedWakes {
    fn new(endpoints: usize) -> TimedWakes {
        let words = endpoints.div_ceil(64);
        TimedWakes {
            wheel: vec![0; WHEEL_SLOTS as usize * words],
            words,
            occupied: 0,
            heap: BinaryHeap::with_capacity(endpoints),
            in_heap: vec![0; endpoints],
        }
    }

    /// Parks endpoint `ep` at cycle `now` until `deadline > now`.
    fn park(&mut self, now: u64, deadline: u64, ep: u32) {
        if deadline - now < WHEEL_SLOTS {
            let slot = (deadline % WHEEL_SLOTS) as usize;
            self.wheel[slot * self.words + ep as usize / 64] |= 1 << (ep % 64);
            self.occupied |= 1 << slot;
        } else if self.in_heap[ep as usize] != deadline {
            self.in_heap[ep as usize] = deadline;
            self.heap.push(Reverse((deadline, ep)));
        }
    }

    /// The earliest pending deadline after `now` — the machine-wide leap
    /// target: the first occupied wheel slot or the heap's top.
    fn first_deadline(&self, now: u64) -> Option<u64> {
        let ahead = self.occupied.rotate_right(((now + 1) % WHEEL_SLOTS) as u32);
        let near = (ahead != 0).then(|| now + 1 + u64::from(ahead.trailing_zeros()));
        let far = self.heap.peek().map(|&Reverse((deadline, _))| deadline);
        near.into_iter().chain(far).min()
    }

    /// Wakes every endpoint parked until `cycle` (or earlier, in the heap).
    fn fire(&mut self, cycle: u64, active: &mut ActiveSet) {
        let slot = (cycle % WHEEL_SLOTS) as usize;
        if self.occupied & (1 << slot) != 0 {
            self.occupied &= !(1 << slot);
            active.wake_words(&mut self.wheel[slot * self.words..][..self.words]);
        }
        while let Some(&Reverse((deadline, ep))) = self.heap.peek() {
            if deadline > cycle {
                break;
            }
            self.heap.pop();
            if self.in_heap[ep as usize] == deadline {
                self.in_heap[ep as usize] = 0;
            }
            active.wake(ep as usize);
        }
    }
}

/// Probes other crates' test suites call: the sleep-soundness check and
/// the functional-verification runs. Not part of the simulator's API.
mod testing {
    use super::System;
    use scorpio_sim::Fnv1a;

    impl System {
        /// Whether the event-driven engines tick endpoint `ep` (tiles
        /// first, then MCs) in the next step.
        #[doc(hidden)]
        pub fn endpoint_awake(&self, ep: usize) -> bool {
            self.active.is_active(ep)
        }

        /// Digest of everything endpoint `ep`'s own tick can change: its
        /// NIC and ordering state, then its L2 + core driver + held data,
        /// or its memory controller.
        #[doc(hidden)]
        pub fn endpoint_digest(&self, ep: usize) -> u64 {
            let nic = scorpio_nic::testing::state_digest(&self.nics[ep]);
            let shared = (nic, self.seq.as_ref().map(|s| s.port(ep)));
            match ep.checked_sub(self.cfg.cores()) {
                Some(m) => Fnv1a::debug_digest(&(shared, &self.mcs[m])),
                None => Fnv1a::debug_digest(&(
                    shared,
                    (&self.l2s[ep], &self.drivers[ep]),
                    &self.resp_hold[ep],
                )),
            }
        }

        /// Cores whose driver has finished its program.
        #[doc(hidden)]
        pub fn cores_done(&self) -> usize {
            self.drivers.iter().filter(|d| d.is_done()).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_workloads::{generate, WorkloadParams};

    #[test]
    fn timed_wakes_fire_on_their_cycle_from_wheel_and_heap() {
        let mut wakes = TimedWakes::new(70);
        let mut active = ActiveSet::new(70);
        wakes.park(100, 110, 3); // near: wheel
        wakes.park(100, 163, 69); // the wheel's last slot
        wakes.park(100, 164, 5); // far: heap
        wakes.park(100, 164, 5); // same far deadline again: pushed once
        assert_eq!(wakes.heap.len(), 1);
        assert_eq!(wakes.first_deadline(100), Some(110));
        let mut fired = Vec::new();
        for cycle in 101..=164 {
            wakes.fire(cycle, &mut active);
            active.drain_sorted(&mut fired);
            let expect: &[u32] = match cycle {
                110 => &[3],
                163 => &[69],
                164 => &[5],
                _ => &[],
            };
            assert_eq!(fired, expect, "cycle {cycle}");
        }
        assert_eq!(wakes.first_deadline(164), None);
    }

    /// Spans under `with_trace_limit(N)` are the first N of the uncapped
    /// run's, and the span annex is unchanged but for `dropped`.
    #[test]
    fn capped_spans_are_the_first_n_of_the_uncapped_run() {
        let run = |limit: usize| {
            let cfg = SystemConfig::square(4)
                .with_spans(true)
                .with_trace_limit(limit);
            let params = WorkloadParams::by_name("barnes").expect("preset exists");
            let traces = generate(&params.with_ops(20), cfg.cores(), cfg.seed);
            let mut sys = System::with_traces(cfg, traces);
            let report = sys.run_to_completion();
            let (spans, dropped) = sys.span_records();
            (report.obs.and_then(|o| o.spans).unwrap(), spans, dropped)
        };
        let (mut full, all, none) = run(usize::MAX);
        assert_eq!((none, full.dropped, full.count), (0, 0, all.len() as u64));
        let n = all.len() / 3;
        let (capped, first, dropped) = run(n);
        assert_eq!(first, all[..n]);
        assert_eq!(dropped, full.count - n as u64);
        full.dropped = dropped;
        assert_eq!(format!("{capped:?}"), format!("{full:?}"));
    }

    #[test]
    fn hung_run_dump_names_every_busy_endpoints_sleep_state() {
        let cfg = SystemConfig::chip();
        let params = WorkloadParams::by_name("barnes").expect("preset exists");
        let traces = generate(&params.with_ops(20), cfg.cores(), cfg.seed);
        let mut sys = System::with_traces(cfg, traces);
        (0..300).for_each(|_| sys.step());
        let dump = sys.sleep_states();
        for form in ["awake(", "asleep on event(", "asleep until cycle "] {
            assert!(dump.contains(form), "no `{form}` line in:\n{dump}");
        }
        assert!(dump.contains("timed wakes: earliest deadline Some("));
        assert!(
            !dump.contains("yet due since"),
            "a wake was missed:\n{dump}"
        );
    }

    /// A multi-plane post-mortem shows every plane's expectation and stop
    /// bit, not plane 0's alone.
    #[test]
    fn debug_dump_shows_every_plane() {
        let cfg = SystemConfig::square(4).with_planes(2);
        let params = WorkloadParams::by_name("barnes").expect("preset exists");
        let traces = generate(&params.with_ops(20), cfg.cores(), cfg.seed);
        let mut sys = System::with_traces(cfg, traces);
        (0..300).for_each(|_| sys.step());
        let dump = sys.debug_dump();
        // The bracketed list after `key` holds one entry per plane.
        let per_plane = |prefix: &str, key: &str| {
            let line = dump.lines().find(|l| l.starts_with(prefix)).unwrap();
            let list = line.split(key).nth(1).unwrap().split(']').next().unwrap();
            assert_eq!(list.split(", ").count(), 2, "{line}");
        };
        per_plane("tile 0: driver", "esid=[");
        per_plane("mc 0: idle", "esid=[");
        per_plane("notify:", ", [");
        // A live RSHR entry shows its transaction's stamps.
        let stamped = |l: &str| {
            let issued = l.split(" t_issue=").nth(1).unwrap_or_default();
            issued.starts_with(|c: char| c.is_ascii_digit()) && l.contains(" t_popped=")
        };
        assert!(
            dump.lines().any(|l| l.contains("rshr[") && stamped(l)),
            "{dump}"
        );
    }

    /// The watchdog panics with the full post-mortem, not a summary of it.
    #[test]
    fn watchdog_panic_carries_the_full_dump() {
        let cfg = SystemConfig::square(2);
        let params = WorkloadParams::by_name("barnes").expect("preset exists");
        let traces = generate(&params.with_ops(20), cfg.cores(), cfg.seed);
        let mut sys = System::with_traces(cfg, traces);
        // 50 000 steps without a completed op trip the watchdog on the
        // next step.
        sys.stepped = 50_000;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_to_completion();
        }))
        .expect_err("the watchdog fires");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.starts_with("system wedged"), "{msg}");
        assert!(msg.contains("\ntile 0: driver done="), "{msg}");
        assert!(msg.contains("\nnotify: windows="), "{msg}");
    }
}
