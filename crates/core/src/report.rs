//! End-of-run reporting: the numbers the paper's figures are built from.

use scorpio_mem::MissSpan;
use scorpio_noc::WindowCell;
use scorpio_sim::json::{self, Fields, Json, Obj};
use scorpio_sim::json_fields;
use scorpio_sim::stats::LogHistogram;

/// Version of the `"obs"` JSON annex schema, emitted as its first key so
/// downstream parsers can evolve without sniffing for the presence of
/// individual keys. History: 1 = PR 6 (histograms, counter planes, trace
/// totals); 2 = PR 9 (explicit `schema_version`, histogram `sum` fields,
/// `spans` and `windows` sub-annexes); 3 = this version (open-loop
/// injection: the `source` span phase and the `admitted` span stamp).
pub(crate) const OBS_SCHEMA_VERSION: u32 = 3;

/// One delivery plane's counter snapshot (observability layer).
#[derive(Debug, Clone, Default)]
pub struct PlaneObs {
    /// Total flit crossings summed over every (router, output port) link.
    pub link_flits: u64,
    /// Links that carried at least one flit.
    pub(crate) links_used: u64,
    /// Crossings on the busiest single link.
    pub max_link_flits: u64,
    /// Buffer-occupancy integral: resident packets summed over ticked
    /// routers and cycles (packet-cycles).
    pub buffer_integral: u64,
    /// Switch-allocation stage-I losses (another VC won the input port).
    pub stall_sa_i: u64,
    /// Switch-allocation stage-II losses (another input won the output).
    pub stall_sa_ii: u64,
    /// Head-flit cycles blocked in VC allocation.
    pub stall_vc_alloc: u64,
    /// Body-flit cycles blocked on downstream credits.
    pub stall_credit: u64,
    /// Flits buffered per VC, flattened vnet-major (GO-REQ VCs first).
    pub(crate) vc_buffered: Vec<u64>,
}

impl Json for PlaneObs {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            json_fields!(o, self; link_flits, links_used, max_link_flits, buffer_integral);
            o.object("stalls", |st| {
                json_fields!(st; sa_i: self.stall_sa_i, sa_ii: self.stall_sa_ii,
                    vc_alloc: self.stall_vc_alloc, credit: self.stall_credit);
            })
            .array("vc_buffered", &self.vc_buffered);
        });
    }
}

/// Observability annex of a [`SystemReport`]: log-bucketed latency
/// histograms per message class plus the per-plane counter snapshots.
/// Present only when the run enabled observability
/// ([`crate::config::ObsLevel`]), so reports with it off stay
/// byte-identical to pre-observability output.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// End-to-end packet latency, all classes, merged over planes.
    pub packet_latency: LogHistogram,
    /// Packet latency split per virtual network (message class).
    pub(crate) vnet_latency: Vec<(String, LogHistogram)>,
    /// L2 service latency (enqueue → reply).
    pub(crate) l2_service: LogHistogram,
    /// Ordering delay (issue → own ordered observation).
    pub ordering_delay: LogHistogram,
    /// Injection wait (queue entry → head-flit VC grant), all endpoints.
    pub inject_wait: LogHistogram,
    /// Injection wait split per tile slot (concentration position; the
    /// final entry is the MC ports).
    pub inject_wait_slots: Vec<LogHistogram>,
    /// Per-plane counters (one entry per delivery plane).
    pub planes: Vec<PlaneObs>,
    /// Flit-trace events retained / dropped at the cap (zero when the
    /// level stops at counters).
    pub(crate) trace_kept: u64,
    /// Events beyond the cap.
    pub(crate) trace_dropped: u64,
    /// Per-phase transaction-span breakdown; present only when the run
    /// recorded spans ([`crate::config::SystemConfig::spans`]).
    pub spans: Option<SpanReport>,
    /// Windowed-telemetry summary; present only when the run bucketed
    /// windows ([`crate::config::SystemConfig::window_cycles`]).
    pub windows: Option<WindowReport>,
}

/// The per-phase latency breakdown built from every recorded
/// [`MissSpan`] (before any stream cap): seven phase histograms that
/// partition each miss's end-to-end latency, the whole-miss totals, and
/// the hit latencies needed to rebuild the full L2 service distribution.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Spans recorded (equals the number of completed misses).
    pub count: u64,
    /// Spans beyond the stream cap — dropped from the JSONL stream only;
    /// the histograms here always cover every span.
    pub dropped: u64,
    /// Phase 0: arrival → release from the bounded source queue (always
    /// 0 in closed-loop runs, where arrival and release coincide).
    pub source: LogHistogram,
    /// Phase 1: source-queue release → RSHR allocation.
    pub queue: LogHistogram,
    /// Phase 2: RSHR allocation → network injection.
    pub inject: LogHistogram,
    /// Phase 3: network injection → own ordered pop.
    pub flight: LogHistogram,
    /// Phase 4: own ordered pop → L2 applies the observation.
    pub commit: LogHistogram,
    /// Phase 5: ordering done → data arrival (0 if data raced ahead).
    pub data: LogHistogram,
    /// Phase 6: both prerequisites in hand → core reply.
    pub fill: LogHistogram,
    /// End-to-end miss latency (the sum of the seven phases, per span).
    pub total: LogHistogram,
    /// Hit latencies (spans only cover misses; hits + totals rebuild the
    /// full service-latency distribution).
    pub hit: LogHistogram,
}

impl SpanReport {
    /// Folds one span into the phase histograms.
    pub(crate) fn fold(&mut self, s: &MissSpan) {
        self.count += 1;
        self.source.record(s.source());
        self.queue.record(s.queue());
        self.inject.record(s.inject_wait());
        self.flight.record(s.flight());
        self.commit.record(s.commit());
        self.data.record(s.data_wait());
        self.fill.record(s.fill());
        self.total.record(s.total());
    }
}

impl Json for SpanReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            json_fields!(o, self; count, dropped);
            json_fields!(o; source: Hist(&self.source), queue: Hist(&self.queue),
                inject: Hist(&self.inject), flight: Hist(&self.flight),
                commit: Hist(&self.commit), data: Hist(&self.data), fill: Hist(&self.fill),
                total: Hist(&self.total), hit: Hist(&self.hit));
        });
    }
}

/// One endpoint's injection-wait aggregate within one window — the
/// windowed starvation signal (`sum / count` is its mean wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpWait {
    /// Endpoint index (injection-port order; MC ports last).
    pub ep: u32,
    /// Window (epoch) index.
    pub(crate) window: u64,
    /// Waits granted in the window.
    pub count: u64,
    /// Their sum, in cycles.
    pub sum: u64,
}

impl EpWait {
    /// The mean wait, `sum / count`.
    pub fn mean(self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

impl Json for EpWait {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| json_fields!(o, self; ep, window, count, sum));
    }
}

/// Windowed-telemetry summary: window geometry, the warmup/steady-state
/// split, and the per-endpoint windowed-wait extremes.
#[derive(Debug, Clone, Default)]
pub struct WindowReport {
    /// Window length in cycles.
    pub(crate) window_cycles: u64,
    /// Number of windows (epochs) the run covered.
    pub count: u64,
    /// Windows classified as warmup: the prefix before the first window
    /// whose completed-op count reaches half the peak window's.
    pub warmup: u64,
    /// Ops completed in steady-state (post-warmup) windows.
    pub steady_ops: u64,
    /// Packets ejected in steady-state windows.
    pub steady_ejected: u64,
    /// The (endpoint, window) cell with the highest mean injection wait.
    pub max_wait: Option<EpWait>,
    /// The cell with the lowest mean wait (among cells with samples).
    pub min_wait: Option<EpWait>,
}

impl Json for WindowReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            json_fields!(o, self; window_cycles, count, warmup, steady_ops, steady_ejected,
                max_wait, min_wait);
        });
    }
}

/// One window's merged (all-plane) telemetry, as emitted to the
/// `--windows` JSONL stream and summarized into [`WindowReport`].
#[derive(Debug, Clone, Default)]
pub struct WindowRow {
    /// Window (epoch) index; it starts at cycle `window * cycles`.
    pub(crate) window: u64,
    /// Window length in cycles.
    pub(crate) cycles: u64,
    /// Every plane's network telemetry for this window, merged.
    pub(crate) cell: WindowCell,
    /// Core memory operations completed.
    pub(crate) ops: u64,
    /// Notification-window publish ticks that fell in this window.
    pub(crate) publishes: u64,
    /// The endpoint with the highest mean wait this window.
    pub(crate) ep_wait_max: Option<EpWait>,
    /// The endpoint with the lowest mean wait (among those with waits).
    pub(crate) ep_wait_min: Option<EpWait>,
}

/// A window's stream record, under the same byte-stability contract as
/// [`SystemReport::to_json`].
impl Fields for WindowRow {
    fn write_fields(&self, o: &mut Obj) {
        let c = &self.cell;
        json_fields!(o; window: self.window, start: self.window * self.cycles,
            cycles: self.cycles, injected: c.injected, ejected: c.ejected,
            latency: Hist(&c.latency));
        o.object("wait", |w| {
            json_fields!(w; count: c.wait_count, sum: c.wait_sum, max: c.wait_max);
        });
        o.field("buffer_integral", c.buffer_integral);
        json_fields!(o, self; ops, publishes, ep_wait_max, ep_wait_min);
    }
}

/// A log histogram as the obs annex renders it: count, sum,
/// p50/p95/p99/p999 and max (all `null` when empty), plus the sparse
/// `[bucket_index, count]` pairs. An index `k` covers samples in
/// `[2^(k-1), 2^k - 1]` (bucket 0 holds zero).
struct Hist<'a>(&'a LogHistogram);

impl Json for Hist<'_> {
    fn write_json(&self, out: &mut String) {
        let h = self.0;
        json::object(out, |o| {
            json_fields!(o; count: h.count(), sum: h.sum(), p50: h.percentile(0.50),
                p95: h.percentile(0.95), p99: h.percentile(0.99), p999: h.percentile(0.999),
                max: h.max());
            o.array("buckets", h.nonzero_buckets());
        });
    }
}

/// A histogram as the report's accumulators render it: count, sum,
/// mean, and min/max (`null` when empty).
struct Acc<'a>(&'a LogHistogram);

impl Json for Acc<'_> {
    fn write_json(&self, out: &mut String) {
        let a = self.0;
        json::object(out, |o| {
            json_fields!(o; count: a.count(), sum: a.sum(), mean: a.mean(), min: a.min(),
                max: a.max());
        });
    }
}

/// The annex leads with its schema version; its span and window
/// sub-annexes appear only when their recorders ran.
impl Json for ObsReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            json_fields!(o; schema_version: OBS_SCHEMA_VERSION,
                packet_latency: Hist(&self.packet_latency));
            o.object("classes", |c| {
                for (name, h) in &self.vnet_latency {
                    c.field(name, Hist(h));
                }
            });
            json_fields!(o; l2_service: Hist(&self.l2_service),
                ordering_delay: Hist(&self.ordering_delay), inject_wait: Hist(&self.inject_wait));
            o.array("inject_wait_slots", self.inject_wait_slots.iter().map(Hist))
                .array("planes", &self.planes)
                .object("trace", |t| {
                    json_fields!(t; kept: self.trace_kept, dropped: self.trace_dropped);
                });
            if let Some(sp) = &self.spans {
                o.field("spans", sp);
            }
            if let Some(w) = &self.windows {
                o.field("windows", w);
            }
        });
    }
}

/// Aggregated results of one full-system run.
#[derive(Debug, Clone, Default)]
pub struct SystemReport {
    /// Protocol name.
    pub protocol: String,
    /// Cores in the system.
    pub cores: usize,
    /// Cycles until every core finished its work ("runtime").
    pub runtime_cycles: u64,
    /// Memory operations completed across all cores.
    pub ops_completed: u64,
    /// L1 hits (no L2 access).
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (coherence transactions).
    pub l2_misses: u64,
    /// Average L2 service latency over all core requests (the paper's
    /// "average L2 service latency": hits, misses, queueing).
    pub l2_service_latency: LogHistogram,
    /// Miss latency when another cache supplied the data.
    pub cache_served: LogHistogram,
    /// Miss latency when memory supplied the data.
    pub memory_served: LogHistogram,
    /// Request ordering delay (issue → own ordered observation).
    pub ordering_delay: LogHistogram,
    /// Cache-to-cache data forwards.
    pub data_forwards: u64,
    /// Memory responses.
    pub memory_responses: u64,
    /// Snoops filtered by region trackers.
    pub snoops_filtered: u64,
    /// Snoops that looked up L2 tags.
    pub snoops_looked_up: u64,
    /// Writebacks (and how many were squashed by races).
    pub writebacks: u64,
    /// Squashed writebacks.
    pub writebacks_squashed: u64,
    /// Flits that bypassed (single-cycle router traversals).
    pub bypassed_flits: u64,
    /// Flits that buffered.
    pub buffered_flits: u64,
    /// Packets injected into the main network.
    pub packets_injected: u64,
    /// Average packet latency in the main network.
    pub packet_latency: LogHistogram,
    /// Notification windows completed / carrying announcements (SCORPIO).
    pub notify_windows: u64,
    /// Non-empty notification windows.
    pub notify_nonempty: u64,
    /// Stop-bit windows observed.
    pub stop_windows: u64,
    /// INSO expiry broadcasts sent (baseline cost).
    pub expiry_messages: u64,
    /// Directory-home accesses (LPD-D / HT-D).
    pub dir_accesses: u64,
    /// Directory-cache misses at the homes.
    pub dir_misses: u64,
    /// Open-loop arrivals tail-dropped at full source queues (0 in
    /// closed-loop runs, and omitted from the JSON when 0 so closed-loop
    /// reports stay byte-identical to pre-open-loop output).
    pub source_dropped: u64,
    /// Observability annex — histograms, counter planes and trace totals.
    /// `None` (and absent from the JSON) unless the run enabled
    /// observability, keeping default reports byte-identical to
    /// pre-observability output.
    pub obs: Option<Box<ObsReport>>,
}

/// The key order of [`SystemReport::to_json`]; `source_dropped` and the
/// `obs` annex appear only when non-zero / recorded.
impl Json for SystemReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            json_fields!(o, self; protocol, cores, runtime_cycles, ops_completed, l1_hits, l2_hits,
                l2_misses);
            json_fields!(o; l2_service_latency: Acc(&self.l2_service_latency),
                cache_served: Acc(&self.cache_served), memory_served: Acc(&self.memory_served),
                ordering_delay: Acc(&self.ordering_delay));
            json_fields!(o, self; data_forwards, memory_responses, snoops_filtered,
                snoops_looked_up, writebacks, writebacks_squashed, bypassed_flits, buffered_flits,
                packets_injected);
            o.field("packet_latency", Acc(&self.packet_latency));
            json_fields!(o, self; notify_windows, notify_nonempty, stop_windows, expiry_messages,
                dir_accesses, dir_misses);
            if self.source_dropped > 0 {
                o.field("source_dropped", self.source_dropped);
            }
            if let Some(obs) = &self.obs {
                o.field("obs", &**obs);
            }
        });
    }
}

impl SystemReport {
    /// Fraction of misses served by other caches (the paper reports ~90%).
    pub fn cache_served_fraction(&self) -> f64 {
        let total = self.cache_served.count() + self.memory_served.count();
        if total == 0 {
            0.0
        } else {
            self.cache_served.count() as f64 / total as f64
        }
    }

    /// Bypass rate of the main network.
    pub fn bypass_rate(&self) -> f64 {
        let total = self.bypassed_flits + self.buffered_flits;
        if total == 0 {
            0.0
        } else {
            self.bypassed_flits as f64 / total as f64
        }
    }

    /// Serializes the report as a single JSON object.
    ///
    /// Written through [`scorpio_sim::json`] (the build is offline, so no
    /// serde), with a fixed key order and shortest-roundtrip float
    /// formatting: the output is **byte-identical** for equal reports,
    /// which is what the harness's determinism guarantee — same
    /// (scenario, seed) ⇒ same bytes, regardless of worker count — rests
    /// on.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        self.write_json(&mut s);
        s
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:>14}: runtime={:>8} ops={:>7} L2 svc={:>7.1} cyc  cache-served={:>5.1}% \
             (c2c {:>6.1} / mem {:>6.1} cyc)  ordering={:>5.1} cyc  bypass={:>5.1}%",
            self.protocol,
            self.runtime_cycles,
            self.ops_completed,
            self.l2_service_latency.mean(),
            100.0 * self.cache_served_fraction(),
            self.cache_served.mean(),
            self.memory_served.mean(),
            self.ordering_delay.mean(),
            100.0 * self.bypass_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_empty() {
        let r = SystemReport::default();
        assert_eq!(r.cache_served_fraction(), 0.0);
        assert_eq!(r.bypass_rate(), 0.0);
        assert!(r.summary().contains("runtime"));
    }

    #[test]
    fn json_is_wellformed_and_deterministic() {
        let mut r = SystemReport {
            protocol: "SCORPIO".into(),
            cores: 16,
            runtime_cycles: 1234,
            ..SystemReport::default()
        };
        r.l2_service_latency.record(10);
        r.l2_service_latency.record(21);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""protocol":"SCORPIO""#));
        assert!(j.contains(r#""runtime_cycles":1234"#));
        assert!(j.contains(
            r#""l2_service_latency":{"count":2,"sum":31,"mean":15.5,"min":10,"max":21}"#
        ));
        // Empty histograms serialize min/max as null, not a panic.
        assert!(
            j.contains(r#""packet_latency":{"count":0,"sum":0,"mean":0.0,"min":null,"max":null}"#)
        );
        assert_eq!(j, r.clone().to_json(), "serialization must be stable");
    }

    #[test]
    fn source_dropped_is_json_transparent_at_zero() {
        // Closed-loop reports (source_dropped == 0) must serialize
        // byte-identically to pre-open-loop output.
        let mut r = SystemReport::default();
        assert!(!r.to_json().contains("source_dropped"));
        r.source_dropped = 3;
        assert!(r.to_json().contains(r#""source_dropped":3"#));
    }

    #[test]
    fn obs_annex_is_absent_by_default_and_renders_when_present() {
        let mut r = SystemReport::default();
        assert!(!r.to_json().contains(r#""obs""#));
        let mut o = ObsReport::default();
        o.packet_latency.record(5);
        o.packet_latency.record(9);
        o.vnet_latency
            .push(("GO-REQ".into(), LogHistogram::default()));
        o.planes.push(PlaneObs {
            link_flits: 7,
            links_used: 3,
            max_link_flits: 4,
            ..PlaneObs::default()
        });
        r.obs = Some(Box::new(o));
        let j = r.to_json();
        // The annex leads with its schema version.
        assert!(j.contains(&format!(
            r#""obs":{{"schema_version":{OBS_SCHEMA_VERSION},"#
        )));
        // 5 → bucket 3 ([4,7]), 9 → bucket 4 ([8,15]); p50 = edge(3) = 7.
        assert!(j.contains(
            r#""packet_latency":{"count":2,"sum":14,"p50":7,"p95":15,"p99":15,"p999":15,"max":9,"buckets":[[3,1],[4,1]]}"#
        ));
        // Empty histograms render null percentiles, not a panic.
        assert!(j.contains(r#""GO-REQ":{"count":0,"sum":0,"p50":null,"p95":null,"p99":null,"p999":null,"max":null,"buckets":[]}"#));
        assert!(j.contains(r#""link_flits":7,"links_used":3,"max_link_flits":4"#));
        assert!(j.contains(r#""trace":{"kept":0,"dropped":0}"#));
        // Span and window sub-annexes are absent unless their recorders
        // ran.
        assert!(!j.contains(r#""spans""#));
        assert!(!j.contains(r#""windows""#));
        assert!(j.ends_with('}'));
        assert_eq!(j, r.clone().to_json(), "serialization must be stable");
    }

    #[test]
    fn span_and_window_annexes_render() {
        let mut r = SystemReport::default();
        let mut o = ObsReport::default();
        let span = MissSpan {
            tile: 3,
            addr: scorpio_coherence::LineAddr(64),
            kind: scorpio_coherence::MsgKind::GetS,
            served_by: scorpio_mem::ServedBy::Cache,
            enqueued: 10,
            admitted: 11,
            issue: 12,
            inject: 13,
            popped: 20,
            ordered: 22,
            data: 18,
            retire: 25,
        };
        let mut sp = SpanReport::default();
        sp.fold(&span);
        // Phases partition the end-to-end latency.
        assert_eq!(
            span.source()
                + span.queue()
                + span.inject_wait()
                + span.flight()
                + span.commit()
                + span.data_wait()
                + span.fill(),
            span.total()
        );
        assert_eq!(span.ordering(), 10);
        o.spans = Some(sp);
        o.windows = Some(WindowReport {
            window_cycles: 1024,
            count: 2,
            warmup: 1,
            steady_ops: 40,
            steady_ejected: 9,
            max_wait: Some(EpWait {
                ep: 7,
                window: 1,
                count: 2,
                sum: 10,
            }),
            min_wait: None,
        });
        r.obs = Some(Box::new(o));
        let j = r.to_json();
        assert!(j.contains(r#""spans":{"count":1,"dropped":0,"source":{"count":1,"sum":1,"#));
        assert!(j.contains(
            r#""windows":{"window_cycles":1024,"count":2,"warmup":1,"steady_ops":40,"steady_ejected":9,"max_wait":{"ep":7,"window":1,"count":2,"sum":10},"min_wait":null}"#
        ));
        // The span JSONL row carries stamps and the derived phases.
        let body = json::record(|o| span.write_fields(o));
        assert_eq!(
            body,
            r#"{"tile":3,"addr":64,"kind":"GetS","served_by":"Cache","enqueued":10,"admitted":11,"issue":12,"inject":13,"popped":20,"ordered":22,"data":18,"retire":25,"phases":{"source":1,"queue":1,"inject":1,"flight":7,"commit":2,"data":0,"fill":3}}"#
        );
        // And the window JSONL row schema.
        let row = WindowRow {
            window: 1,
            cycles: 1024,
            cell: WindowCell {
                injected: 4,
                ejected: 3,
                ..WindowCell::default()
            },
            ops: 5,
            publishes: 2,
            ..WindowRow::default()
        };
        let body = json::record(|o| row.write_fields(o));
        assert!(body.starts_with(
            r#"{"window":1,"start":1024,"cycles":1024,"injected":4,"ejected":3,"latency":{"count":0,"sum":0,"#
        ));
        assert!(body.ends_with(r#""ops":5,"publishes":2,"ep_wait_max":null,"ep_wait_min":null}"#));
    }

    #[test]
    fn fractions_compute() {
        let mut r = SystemReport::default();
        r.cache_served.record(10);
        r.cache_served.record(20);
        r.memory_served.record(100);
        r.bypassed_flits = 3;
        r.buffered_flits = 1;
        assert!((r.cache_served_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!((r.bypass_rate() - 0.75).abs() < 1e-9);
    }
}
