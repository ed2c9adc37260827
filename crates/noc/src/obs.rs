//! Observability: per-plane counters, latency histograms and a
//! deterministic flit-event trace.
//!
//! The network carries an optional [`NetObs`] sink (one per plane). When
//! absent — the default — every hook in the hot path is a single
//! `Option::is_none` branch and nothing is allocated or recorded, so
//! reports stay byte-identical to a build without the layer. When present,
//! the sink accumulates:
//!
//! * **Counters** (`ObsConfig::counters`): per-router/per-output-port link
//!   crossings, a buffer-occupancy integral (packet-cycles resident in
//!   input VCs), per-VC buffered-flit counts, stall causes split by arbitration
//!   stage (SA-I losses, SA-O losses, VC-allocation blocks, credit blocks),
//!   and the per-endpoint injection-wait [`LogHistogram`]s. Packet latency
//!   is the network's own statistic (`NocStats::vnet_latency`, recorded
//!   once per tail ejection), with or without a sink.
//! * **Trace** (`ObsConfig::trace`): the plane's [`TraceEvent`]s
//!   (inject / vc-alloc / hop / bypass / eject) in one [`Capped`] stream,
//!   in cycle order. The system layer merges every plane's stream, then
//!   its own ordered-commit streams, on [`TraceEvent::sort_key`]; the
//!   merge is stable, so stream order breaks ties, and exact-prefix.
//!
//! Every hook sits in code that executes identically under the active-set,
//! always-scan and leap engines (after the shared idle-skip check),
//! so enabling observability never perturbs simulated behavior and its
//! output is engine-invariant. Counter-classification paths only ever call
//! `&self` router queries — arbiter state is never touched.

use crate::config::NocConfig;
use crate::topology::Port;
use scorpio_sim::capped::Capped;
use scorpio_sim::json::{Fields, Obj};
use scorpio_sim::json_fields;
use scorpio_sim::stats::LogHistogram;

/// What to record. Passed to `crate::Network::set_observability`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record counters and latency histograms.
    pub counters: bool,
    /// Record the flit-event trace, keeping at most this many events
    /// (later ones are counted as dropped); `None` records no trace.
    pub trace: Option<usize>,
    /// Window length, in cycles, for epoch-bucketed time-series
    /// telemetry; `0` disables windowing.
    pub window_cycles: u64,
}

/// One window's (epoch's) telemetry for one plane: everything is derived
/// from event timestamps (`epoch = cycle / window_cycles`), so leaped or
/// idle-skipped cycles — during which the plane is quiescent by
/// construction — contribute exactly zero and the cells stay
/// byte-identical across engines and executor threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCell {
    /// Packets that entered an injection queue this window.
    pub injected: u64,
    /// Tail flits consumed at their destination this window (bucketed by
    /// ejection cycle; the packet may have been injected earlier).
    pub ejected: u64,
    /// Packet latency of this window's ejections.
    pub latency: LogHistogram,
    /// Injection-queue waits granted this window: sample count…
    pub wait_count: u64,
    /// …their sum…
    pub wait_sum: u64,
    /// …and the largest single wait.
    pub wait_max: u64,
    /// Packet-cycles resident in input VCs this window.
    pub buffer_integral: u64,
    /// Per-endpoint `(count, sum)` of injection waits granted this
    /// window — the starvation signal: a windowed per-endpoint mean.
    pub ep_wait: Vec<(u64, u64)>,
}

impl WindowCell {
    /// An empty cell with `endpoints` per-endpoint wait slots (merging
    /// grows them on demand, so the slot-less default accumulates fine).
    pub(crate) fn new(endpoints: usize) -> WindowCell {
        WindowCell {
            ep_wait: vec![(0, 0); endpoints],
            ..WindowCell::default()
        }
    }

    /// Folds another plane's same-epoch cell into this one.
    pub fn merge(&mut self, other: &WindowCell) {
        self.injected += other.injected;
        self.ejected += other.ejected;
        self.latency.merge(&other.latency);
        self.wait_count += other.wait_count;
        self.wait_sum += other.wait_sum;
        self.wait_max = self.wait_max.max(other.wait_max);
        self.buffer_integral += other.buffer_integral;
        if self.ep_wait.len() < other.ep_wait.len() {
            self.ep_wait.resize(other.ep_wait.len(), (0, 0));
        }
        for (a, b) in self.ep_wait.iter_mut().zip(&other.ep_wait) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// The kind of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet entered a NIC injection queue.
    Inject,
    /// A packet won a downstream virtual channel (at injection or at an
    /// in-network VC allocator).
    VcAlloc,
    /// A flit crossed a router's crossbar toward an output port.
    Hop,
    /// A single-flit packet took the lookahead bypass path through a
    /// router (zero-cycle buffering).
    Bypass,
    /// A tail flit was consumed at its destination endpoint.
    Eject,
    /// The system layer committed a globally ordered request at an
    /// endpoint (recorded by `scorpio-core`, not the network).
    OrderedCommit,
}

impl TraceKind {
    /// The schema name of this event kind, as emitted in trace JSONL.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceKind::Inject => "inject",
            TraceKind::VcAlloc => "vc-alloc",
            TraceKind::Hop => "hop",
            TraceKind::Bypass => "bypass",
            TraceKind::Eject => "eject",
            TraceKind::OrderedCommit => "ordered-commit",
        }
    }
}

/// One flit event. Field meaning varies by [`TraceKind`]; its
/// [`Fields`] list is the rendered schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event occurred on.
    pub cycle: u64,
    /// Network plane (0 for single-plane fabrics; the system layer's
    /// ordered-commit events carry the plane the request travelled on).
    pub plane: u16,
    /// What happened.
    pub kind: TraceKind,
    /// Packet uid — or the SID for [`TraceKind::OrderedCommit`].
    pub uid: u64,
    /// Virtual network (unused for ordered-commit).
    pub vnet: u8,
    /// Endpoint index (inject/eject/ordered-commit) or router id
    /// (vc-alloc/hop/bypass).
    pub node: u32,
    /// Port index (`Port::index` order): the output port for
    /// vc-alloc/hop, the arrival port for bypass. Unused otherwise.
    pub port: u8,
    /// Virtual channel within `vnet` (vc-alloc/hop/eject).
    pub vc: u8,
    /// Extra: packet latency for eject, `own` flag (0/1) for
    /// ordered-commit.
    pub aux: u64,
}

impl TraceEvent {
    /// The merge key, `(cycle, plane)`; stream order breaks ties.
    pub fn sort_key(&self) -> (u64, u16) {
        (self.cycle, self.plane)
    }
}

impl Fields for TraceEvent {
    fn write_fields(&self, o: &mut Obj) {
        json_fields!(o, self; cycle, plane);
        o.field("event", self.kind.name());
        let (node, port, vc, vnet, uid) = (self.node, self.port, self.vc, self.vnet, self.uid);
        match self.kind {
            TraceKind::Inject => json_fields!(o; ep: node, vnet: vnet, uid: uid),
            TraceKind::VcAlloc | TraceKind::Hop => {
                json_fields!(o; router: node, port: port, vc: vc, vnet: vnet, uid: uid)
            }
            TraceKind::Bypass => {
                json_fields!(o; router: node, port: port, vnet: vnet, uid: uid)
            }
            TraceKind::Eject => {
                json_fields!(o; ep: node, vnet: vnet, vc: vc, uid: uid, lat: self.aux)
            }
            TraceKind::OrderedCommit => json_fields!(o; ep: node, sid: uid, own: self.aux),
        }
    }
}

/// The per-plane observability sink. Owned by [`crate::Network`]; absent
/// (a `None`) unless `crate::Network::set_observability` installs it.
#[derive(Debug, Clone)]
pub struct NetObs {
    plane: u16,
    /// Counters enabled?
    pub(crate) counters: bool,
    /// Current cycle, refreshed by the network at the top of each tick.
    pub(crate) cycle: u64,
    /// This plane's flit-event trace, when recorded.
    pub events: Option<Capped<TraceEvent>>,
    /// Flit crossings per (router, output port), flattened as
    /// `router * Port::COUNT + port`. Non-local ports measure link
    /// utilization; local ports measure ejection traffic.
    pub link_flits: Vec<u64>,
    /// Sum over ticked routers and cycles of resident input-VC packets
    /// (a buffer-occupancy integral in packet-cycles; idle-skipped routers
    /// contribute zero by construction).
    pub buffer_integral: u64,
    /// Buffered flits that lost switch allocation stage I (another VC on
    /// the same input port won the port this cycle).
    pub stall_sa_i: u64,
    /// SA-I winners that lost switch allocation stage II (another input
    /// port — or a lookahead bypass — won the output).
    pub stall_sa_o: u64,
    /// Cycles a head flit sat blocked in VC allocation (no eligible free
    /// downstream VC, or an in-flight SID conflict), counted per VC.
    pub stall_vc_alloc: u64,
    /// Cycles a body flit sat blocked on downstream credits, per VC.
    pub stall_credit: u64,
    /// Flits buffered per VC, flattened per vnet at `vc_offset`.
    pub vc_buffered: Vec<u64>,
    /// Start of each vnet's VC range within [`NetObs::vc_buffered`].
    pub(crate) vc_offset: Vec<u32>,
    /// Injection wait (queue entry to head-flit VC grant) per endpoint,
    /// indexed like the network's injection ports.
    pub inject_wait: Vec<LogHistogram>,
    /// Window length in cycles; 0 disables the windowed telemetry.
    window_cycles: u64,
    /// Epoch-indexed telemetry cells (epoch = cycle / window length),
    /// grown on first touch so untouched tail epochs simply don't exist.
    pub windows: Vec<WindowCell>,
    /// Injection-port count, for sizing new cells.
    endpoints: usize,
}

impl NetObs {
    /// Builds a sink for a plane with `routers` routers and `endpoints`
    /// injection ports, shaped by `cfg`'s virtual networks.
    pub(crate) fn new(
        plane: u16,
        obs: ObsConfig,
        cfg: &NocConfig,
        routers: usize,
        endpoints: usize,
    ) -> Self {
        let mut vc_offset = Vec::with_capacity(cfg.vnets.len());
        let mut total_vcs = 0u32;
        for v in &cfg.vnets {
            vc_offset.push(total_vcs);
            total_vcs += v.total_vcs() as u32;
        }
        NetObs {
            plane,
            counters: obs.counters,
            cycle: 0,
            events: obs.trace.map(Capped::new),
            link_flits: vec![0; routers * Port::COUNT],
            buffer_integral: 0,
            stall_sa_i: 0,
            stall_sa_o: 0,
            stall_vc_alloc: 0,
            stall_credit: 0,
            vc_buffered: vec![0; total_vcs as usize],
            vc_offset,
            inject_wait: vec![LogHistogram::new(); endpoints],
            window_cycles: obs.window_cycles,
            windows: Vec::new(),
            endpoints,
        }
    }

    /// Flat index of (vnet, vc) into [`NetObs::vc_buffered`].
    pub(crate) fn vc_flat(&self, vnet: u8, vc: u8) -> usize {
        self.vc_offset[vnet as usize] as usize + vc as usize
    }

    /// The cell for the epoch containing `cycle`, grown on demand.
    #[inline]
    fn window_at(&mut self, cycle: u64) -> &mut WindowCell {
        let idx = (cycle / self.window_cycles) as usize;
        if self.windows.len() <= idx {
            let endpoints = self.endpoints;
            self.windows
                .resize_with(idx + 1, || WindowCell::new(endpoints));
        }
        &mut self.windows[idx]
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn event(
        &mut self,
        kind: TraceKind,
        uid: u64,
        vnet: u8,
        node: u32,
        port: u8,
        vc: u8,
        aux: u64,
    ) {
        if let Some(events) = &mut self.events {
            events.push(TraceEvent {
                cycle: self.cycle,
                plane: self.plane,
                kind,
                uid,
                vnet,
                node,
                port,
                vc,
                aux,
            });
        }
    }

    /// Hook: a packet entered injection queue `ep` (cycle passed in
    /// because injection happens between network ticks).
    pub(crate) fn on_inject(&mut self, cycle: u64, ep: u32, vnet: u8, uid: u64) {
        self.cycle = cycle;
        if self.window_cycles != 0 {
            self.window_at(cycle).injected += 1;
        }
        self.event(TraceKind::Inject, uid, vnet, ep, 0, 0, 0);
    }

    /// Hook: a head flit left injection queue `ep` into downstream VC
    /// `(vnet, vc)` of router `router`'s local input `port` after
    /// `wait` cycles in the queue.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_injected(
        &mut self,
        cycle: u64,
        ep: u32,
        router: u32,
        port: u8,
        vnet: u8,
        vc: u8,
        uid: u64,
        wait: u64,
    ) {
        self.cycle = cycle;
        if self.counters {
            self.inject_wait[ep as usize].record(wait);
        }
        if self.window_cycles != 0 {
            let cell = self.window_at(cycle);
            cell.wait_count += 1;
            cell.wait_sum += wait;
            cell.wait_max = cell.wait_max.max(wait);
            cell.ep_wait[ep as usize].0 += 1;
            cell.ep_wait[ep as usize].1 += wait;
        }
        self.event(TraceKind::VcAlloc, uid, vnet, router, port, vc, 0);
    }

    /// Hook: a tail flit was consumed at endpoint `ep`; `lat` is the
    /// end-to-end packet latency.
    pub(crate) fn on_eject(&mut self, cycle: u64, ep: u32, vnet: u8, vc: u8, uid: u64, lat: u64) {
        self.cycle = cycle;
        if self.window_cycles != 0 {
            let cell = self.window_at(cycle);
            cell.ejected += 1;
            cell.latency.record(lat);
        }
        self.event(TraceKind::Eject, uid, vnet, ep, 0, vc, lat);
    }

    /// Hook: a flit crossed router `router`'s crossbar to `port`.
    pub(crate) fn on_crossing(&mut self, router: u32, port: u8, vnet: u8, vc: u8, uid: u64) {
        if self.counters {
            self.link_flits[router as usize * Port::COUNT + port as usize] += 1;
        }
        self.event(TraceKind::Hop, uid, vnet, router, port, vc, 0);
    }

    /// Hook: a flit took the bypass path at `router`, arriving on `port`.
    pub(crate) fn on_bypass(&mut self, router: u32, port: u8, vnet: u8, uid: u64) {
        self.event(TraceKind::Bypass, uid, vnet, router, port, 0, 0);
    }

    /// Hook: a head flit won downstream VC `(vnet, vc)` toward `port` at
    /// `router` (in-network VC allocation, including bypass grants).
    pub(crate) fn on_vc_alloc(&mut self, router: u32, port: u8, vnet: u8, vc: u8, uid: u64) {
        self.event(TraceKind::VcAlloc, uid, vnet, router, port, vc, 0);
    }

    /// Hook: a flit was written into an input VC buffer.
    #[inline]
    pub(crate) fn on_buffered(&mut self, vnet: u8, vc: u8) {
        if self.counters {
            let idx = self.vc_flat(vnet, vc);
            self.vc_buffered[idx] += 1;
        }
    }

    /// Hook: a ticked router holds `occupancy` resident input-VC packets
    /// this cycle (the buffer-occupancy integral's integrand).
    #[inline]
    pub(crate) fn on_occupancy(&mut self, occupancy: u64) {
        if self.counters {
            self.buffer_integral += occupancy;
        }
        if self.window_cycles != 0 && occupancy != 0 {
            let cycle = self.cycle;
            self.window_at(cycle).buffer_integral += occupancy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_sim::{capped, json};

    fn sink(plane: u16) -> NetObs {
        let obs = ObsConfig {
            counters: true,
            trace: Some(4),
            window_cycles: 0,
        };
        NetObs::new(plane, obs, &NocConfig::scorpio(), 4, 5)
    }

    fn stream(o: &NetObs) -> (&[TraceEvent], u64) {
        o.events.as_ref().expect("tracing").stream()
    }

    /// The ordered-commit event the system layer records.
    fn commit(cycle: u64, plane: u16) -> TraceEvent {
        TraceEvent {
            cycle,
            plane,
            kind: TraceKind::OrderedCommit,
            uid: 5,
            vnet: 0,
            node: 2,
            port: 0,
            vc: 0,
            aux: 1,
        }
    }

    #[test]
    fn trace_cap_counts_drops() {
        let mut o = sink(0);
        for i in 0..6 {
            o.on_inject(i, 0, 0, i);
        }
        let (kept, dropped) = stream(&o);
        let cycles: Vec<u64> = kept.iter().map(|e| e.cycle).collect();
        assert_eq!((cycles, dropped), (vec![0, 1, 2, 3], 2));
    }

    #[test]
    fn vc_flat_layout_spans_vnets() {
        let o = sink(0);
        // GO-REQ: 4 VCs + rVC = 5, then UO-RESP: 2 VCs.
        assert_eq!(o.vc_flat(0, 0), 0);
        assert_eq!(o.vc_flat(0, 4), 4);
        assert_eq!(o.vc_flat(1, 0), 5);
        assert_eq!(o.vc_buffered.len(), 7);
    }

    #[test]
    fn json_bodies_match_schema() {
        let mut o = sink(0);
        o.on_inject(3, 7, 1, 42);
        o.on_eject(9, 8, 0, 2, 42, 6);
        let body = |e: &TraceEvent| json::record(|o| e.write_fields(o));
        let e0 = body(&stream(&o).0[0]);
        assert_eq!(
            e0,
            r#"{"cycle":3,"plane":0,"event":"inject","ep":7,"vnet":1,"uid":42}"#
        );
        let e1 = body(&stream(&o).0[1]);
        assert_eq!(
            e1,
            r#"{"cycle":9,"plane":0,"event":"eject","ep":8,"vnet":0,"vc":2,"uid":42,"lat":6}"#
        );
        assert_eq!(
            body(&commit(11, 1)),
            r#"{"cycle":11,"plane":1,"event":"ordered-commit","ep":2,"sid":5,"own":1}"#
        );
    }

    #[test]
    fn merge_trace_is_exact_prefix() {
        // Plane 0 keeps 4 of its 5 events (cycle 5 is dropped); plane 1
        // stays under its cap; the system layer commits on plane 0 at
        // cycle 2. Merged network planes first, the first 3 are the 3
        // earliest events, the network's (2, 0) before the system's.
        let (mut p0, mut p1) = (sink(0), sink(1));
        for c in 1..=5 {
            p0.on_inject(c, 0, 0, c);
        }
        p1.on_inject(2, 0, 0, 9);
        p1.on_inject(50, 0, 0, 9);
        let mut sys = Capped::new(3);
        sys.push(commit(2, 0));
        let streams = [stream(&p0), stream(&p1), sys.stream()];
        let (merged, dropped) = capped::merge(streams, 3, TraceEvent::sort_key);
        let keys: Vec<_> = merged.iter().map(|e| (e.cycle, e.plane, e.kind)).collect();
        assert_eq!(
            keys,
            [
                (1, 0, TraceKind::Inject),
                (2, 0, TraceKind::Inject),
                (2, 0, TraceKind::OrderedCommit)
            ]
        );
        assert_eq!(dropped, 5);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut o = sink(0);
        o.on_crossing(1, 2, 0, 0, 9);
        o.on_crossing(1, 2, 0, 0, 10);
        o.on_buffered(1, 1);
        o.on_eject(4, 0, 1, 0, 10, 12);
        assert_eq!(o.link_flits[Port::COUNT + 2], 2);
        assert_eq!(o.vc_buffered[o.vc_flat(1, 1)], 1);
    }
}
