//! Full-system configuration.

use scorpio_mem::{L2Config, McConfig};
use scorpio_nic::NicConfig;
use scorpio_noc::{placement, Endpoint, Fabric, NocConfig, RouterId, Topology};
use scorpio_notify::NotifyScheme;
use scorpio_sim::Fnv1a;
use scorpio_workloads::ArrivalProcess;
use std::num::NonZeroUsize;

/// Which coherence-ordering scheme the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// SCORPIO: snoopy MOSI over the ordered mesh (notification network +
    /// ESID delivery). The paper's contribution.
    Scorpio,
    /// TokenB idealisation (Figure 7): the same snoopy protocol and the
    /// same mesh, but ordering comes from a zero-cost global sequencer
    /// (the paper models TokenB without races/persistent requests, so its
    /// cost is delivery only).
    TokenB,
    /// INSO (Figure 7): per-source slot ordering with periodic expiry
    /// broadcasts; the expiry window is the knob the paper sweeps.
    Inso {
        /// Expiry window in cycles (20 / 40 / 80 in Figure 7).
        expiry_window: u64,
    },
    /// Distributed limited-pointer directory (LPD-D, Figure 6): requests
    /// indirect through a home tile whose directory cache stores *wide*
    /// entries (2 state bits + owner + pointer vector), so a fixed storage
    /// budget caches few lines and misses pay an off-chip penalty.
    LpdDir,
    /// Distributed HyperTransport-style directory (HT-D, Figure 6): the
    /// home is a pure ordering point with 2-bit entries that broadcasts
    /// every request — no sharer storage, but still one indirection.
    HtDir,
}

impl Protocol {
    /// Short name for reports.
    pub fn name(self) -> String {
        match self {
            Protocol::Scorpio => "SCORPIO".into(),
            Protocol::TokenB => "TokenB".into(),
            Protocol::Inso { expiry_window } => format!("INSO(exp={expiry_window})"),
            Protocol::LpdDir => "LPD-D".into(),
            Protocol::HtDir => "HT-D".into(),
        }
    }

    /// Whether this protocol indirects requests through home directories.
    pub fn uses_directory(self) -> bool {
        matches!(self, Protocol::LpdDir | Protocol::HtDir)
    }
}

/// Default cap on retained flit-trace events ([`SystemConfig::trace_limit`]).
pub(crate) const DEFAULT_TRACE_LIMIT: usize = 100_000;

/// Default bounded source-queue depth for open-loop injection
/// ([`OpenLoopConfig::queue_cap`]).
pub const DEFAULT_SOURCE_QUEUE_CAP: usize = 64;

/// Open-loop injection: requests are *released* by an arrival process at
/// a configured offered load instead of by the completion of the previous
/// operation, queueing in a bounded per-core source queue. `None` (the
/// default) keeps the historical closed-loop semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopConfig {
    /// The arrival process shaping inter-arrival gaps.
    pub process: ArrivalProcess,
    /// Offered load in requests per 1000 cycles per core. `0` degenerates
    /// to the closed-loop trace (except under
    /// [`ArrivalProcess::Replay`], which carries its own schedule).
    pub load_millis: u32,
    /// Bounded source-queue depth; arrivals past a full queue are
    /// tail-dropped and counted in the report.
    pub queue_cap: usize,
}

impl OpenLoopConfig {
    /// Poisson arrivals at `load_millis` requests per 1000 cycles per
    /// core, with the default queue depth.
    pub fn poisson(load_millis: u32) -> OpenLoopConfig {
        OpenLoopConfig {
            process: ArrivalProcess::Poisson,
            load_millis,
            queue_cap: DEFAULT_SOURCE_QUEUE_CAP,
        }
    }
}

/// How much the observability layer records during a run.
///
/// Purely additive instrumentation: every level produces identical
/// simulated behavior (the equivalence suite asserts it), and the default
/// [`ObsLevel::Off`] keeps the hot path free of any recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// No observability sinks installed (the pre-observability hot path
    /// plus one dormant branch per hook).
    #[default]
    Off,
    /// Latency histograms and the per-router/link/VC counter plane.
    Counters,
    /// Counters plus the deterministic flit-event trace (bounded by
    /// [`SystemConfig::trace_limit`]).
    Trace,
}

/// Configuration of a full SCORPIO system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The delivery fabric (tiles + MC ports): any [`Topology`].
    ///
    /// The field keeps its historical name because the out-of-workspace
    /// benchmark (`benchmark/src/api.rs`) reads `cfg.mesh`, and that crate
    /// is a contract ordinary changes do not edit.
    pub mesh: Topology,
    /// Ordering scheme.
    pub protocol: Protocol,
    /// Main-network configuration.
    pub noc: NocConfig,
    /// NIC configuration.
    pub nic: NicConfig,
    /// Notification bits per core (Figure 8d: 1/2/3).
    pub notification_bits: u8,
    /// Extra cycles added to the minimum notification window (ablation:
    /// the chip uses the tight bound, 13 cycles on 6×6).
    pub notification_window_slack: u64,
    /// L1 data cache capacity in bytes.
    pub(crate) l1_bytes: u64,
    /// L1 associativity.
    pub(crate) l1_ways: usize,
    /// L2 configuration template (MC endpoints filled in automatically).
    pub l2: L2Config,
    /// Memory-controller configuration.
    pub mc: McConfig,
    /// Total directory-cache storage across all home tiles, in bytes
    /// (Section 5.1: 256 KB for the baseline comparisons).
    pub dir_total_bytes: usize,
    /// LPD sharer pointers per entry (Section 5.1: ~4 at 36 cores).
    pub(crate) lpd_pointers: usize,
    /// Outstanding accesses per core (1 = the AHB constraint; the paper's
    /// Figure 8d exploration raises it alongside the RSHR count).
    pub core_outstanding: usize,
    /// Safety limit for [`crate::System::run_to_completion`].
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// Parallel main-network planes (Section 5.3's "multiple main
    /// networks"): N address-interleaved copies of the delivery fabric,
    /// each with its own routers, VCs and per-plane ordering windows.
    /// `1` is the chip's single network.
    pub planes: NonZeroUsize,
    /// Notification aggregation scheme: the chip's flat diameter-bounded
    /// OR mesh (default), or hierarchical quad aggregation whose window is
    /// logarithmic in the grid side ([`NotifyScheme::Quad`]) — the
    /// kilocore window knob.
    pub notify: NotifyScheme,
    /// Observability level (histograms / counters / trace).
    pub obs: ObsLevel,
    /// Retained flit-trace events (per plane and in the merged stream);
    /// meaningful only at [`ObsLevel::Trace`].
    pub trace_limit: usize,
    /// Record per-coherence-transaction lifecycle spans (issue → inject →
    /// ordered commit → data → retire) for the paper-style per-phase
    /// latency breakdown. Independent of `obs`: spans live in the L2/RSHR
    /// layer, not the flit-level observer.
    pub spans: bool,
    /// Window length, in cycles, for epoch-bucketed time-series telemetry
    /// (throughput, latency percentiles, per-endpoint injection wait,
    /// buffer-occupancy integrals). `0` disables windowing entirely.
    pub window_cycles: u64,
    /// Open-loop injection (arrival-timed request release). `None` keeps
    /// the historical closed-loop trace semantics.
    pub open_loop: Option<OpenLoopConfig>,
}

impl SystemConfig {
    /// The 36-core chip configuration (Table 1).
    pub fn chip() -> SystemConfig {
        SystemConfig::with_topology(Fabric::Mesh.topology(6))
    }

    /// A chip-like configuration over any delivery fabric. The L2's
    /// MC-interleaving endpoints follow the topology's MC placement.
    pub fn with_topology(mesh: Topology) -> SystemConfig {
        let mc_eps = mc_endpoints(&mesh);
        SystemConfig {
            mesh,
            protocol: Protocol::Scorpio,
            noc: NocConfig::scorpio(),
            nic: NicConfig::default(),
            notification_bits: 1,
            notification_window_slack: 0,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2: L2Config::chip(mc_eps),
            mc: McConfig::default(),
            dir_total_bytes: 256 * 1024,
            lpd_pointers: 4,
            core_outstanding: 1,
            max_cycles: 2_000_000,
            seed: 1,
            planes: NonZeroUsize::new(1).expect("1 is non-zero"),
            notify: NotifyScheme::Flat,
            obs: ObsLevel::Off,
            trace_limit: DEFAULT_TRACE_LIMIT,
            spans: false,
            window_cycles: 0,
            open_loop: None,
        }
    }

    /// A `k × k` system with corner memory controllers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn square(k: u16) -> SystemConfig {
        SystemConfig::with_topology(Fabric::Mesh.topology(k))
    }

    /// A concentrated-mesh system: a `cols × rows` router grid hosting
    /// `concentration` tiles per router, corner MCs —
    /// `SystemConfig::cmesh(4, 2, 2)` matches the core and endpoint count
    /// of `SystemConfig::square(4)` at diameter 4 instead of 6.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `concentration` is not `1..=4`.
    pub fn cmesh(cols: u16, rows: u16, concentration: u8) -> SystemConfig {
        let mcs = placement::corners(cols, rows);
        SystemConfig::with_topology(Topology::new(Fabric::CMesh(concentration), cols, rows, mcs))
    }

    /// Number of cores (tiles). On a concentrated mesh this is
    /// `routers × concentration` — the tile count, not the router count.
    pub fn cores(&self) -> usize {
        self.mesh.tile_count()
    }

    /// Sets the protocol, builder-style.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> SystemConfig {
        self.protocol = protocol;
        self
    }

    /// Moves the fabric's MC ports to `mc_routers` (see
    /// [`scorpio_noc::placement`] for the stock schemes), rewiring the L2's
    /// MC-interleaving endpoints to match.
    ///
    /// # Panics
    ///
    /// Panics if an MC router is out of range or listed twice.
    #[must_use]
    pub fn with_mc_routers(mut self, mc_routers: Vec<RouterId>) -> SystemConfig {
        self.mesh = self.mesh.with_mc_routers(mc_routers);
        self.l2.mc_endpoints = mc_endpoints(&self.mesh);
        self
    }

    /// Replaces the mesh's MC placement with the proportional scheme
    /// ([`placement::proportional`]): one MC per 16 tiles, spread along the
    /// perimeter. Required for the large-mesh scaling scenarios, where
    /// four corner MCs cannot feed hundreds of cores.
    ///
    /// # Panics
    ///
    /// Panics if the fabric is not a square mesh.
    #[must_use]
    pub fn with_proportional_mcs(self) -> SystemConfig {
        let (cols, rows) = (self.mesh.cols(), self.mesh.rows());
        assert_eq!(
            self.mesh.fabric(),
            Fabric::Mesh,
            "proportional MC placement is defined for meshes only"
        );
        assert_eq!(cols, rows, "proportional MC placement needs a square mesh");
        self.with_mc_routers(placement::proportional(cols, rows))
    }

    /// Sets the pipelining of the uncore (L2 + NIC), Figure 10.
    #[must_use]
    pub fn with_pipelined_uncore(mut self, pipelined: bool) -> SystemConfig {
        self.l2.pipelined = pipelined;
        self.nic.pipelined = pipelined;
        self
    }

    /// Sets the channel width in bytes (Figure 8a).
    #[must_use]
    pub fn with_channel_bytes(mut self, bytes: u32) -> SystemConfig {
        self.noc.channel_bytes = bytes;
        self
    }

    /// Sets the GO-REQ VC count (Figure 8b).
    #[must_use]
    pub fn with_goreq_vcs(mut self, vcs: u8) -> SystemConfig {
        self.noc.vnets[0].vcs = vcs;
        self
    }

    /// Sets the UO-RESP VC count (Figure 8c).
    #[must_use]
    pub fn with_uoresp_vcs(mut self, vcs: u8) -> SystemConfig {
        self.noc.vnets[1].vcs = vcs;
        self
    }

    /// Sets the notification bits per core (Figure 8d).
    #[must_use]
    pub fn with_notification_bits(mut self, bits: u8) -> SystemConfig {
        self.notification_bits = bits;
        self
    }

    /// Sets the per-core outstanding-miss budget (RSHRs and the core's
    /// in-flight access limit move together).
    #[must_use]
    pub fn with_outstanding(mut self, rshrs: usize) -> SystemConfig {
        self.l2.rshr_entries = rshrs;
        self.core_outstanding = rshrs;
        self
    }

    /// Sets the number of parallel main-network planes (Section 5.3).
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero.
    #[must_use]
    pub fn with_planes(mut self, planes: usize) -> SystemConfig {
        self.planes = NonZeroUsize::new(planes).expect("at least one plane");
        self
    }

    /// Sets the notification aggregation scheme, builder-style.
    ///
    /// # Panics
    ///
    /// Panics on a quad fanout below 2.
    #[must_use]
    pub fn with_notify(mut self, scheme: NotifyScheme) -> SystemConfig {
        if let NotifyScheme::Quad { fanout } = scheme {
            assert!(fanout >= 2, "quad fanout must be at least 2");
        }
        self.notify = scheme;
        self
    }

    /// The notification window this configuration materializes: the
    /// scheme's minimum on the fabric plus the configured slack.
    pub fn notification_window(&self) -> u64 {
        self.notify.window_for(&self.mesh) + self.notification_window_slack
    }

    /// Sets the observability level, builder-style.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsLevel) -> SystemConfig {
        self.obs = obs;
        self
    }

    /// Caps the retained flit-trace events, builder-style.
    #[must_use]
    pub fn with_trace_limit(mut self, limit: usize) -> SystemConfig {
        self.trace_limit = limit;
        self
    }

    /// Enables per-transaction lifecycle spans, builder-style.
    #[must_use]
    pub fn with_spans(mut self, spans: bool) -> SystemConfig {
        self.spans = spans;
        self
    }

    /// Sets the telemetry window length in cycles (0 = off), builder-style.
    #[must_use]
    pub fn with_windows(mut self, window_cycles: u64) -> SystemConfig {
        self.window_cycles = window_cycles;
        self
    }

    /// Enables open-loop injection, builder-style. A zero-load Poisson or
    /// bursty config degenerates to the closed-loop trace at build time.
    #[must_use]
    pub fn with_open_loop(mut self, open_loop: OpenLoopConfig) -> SystemConfig {
        self.open_loop = Some(open_loop);
        self
    }

    /// The byte-address shift the plane steering function applies: the
    /// line-offset bits, so consecutive lines alternate planes.
    pub fn plane_interleave_log2(&self) -> u32 {
        self.l2.line_bytes.trailing_zeros()
    }

    /// Short human-readable label: fabric geometry, protocol and seed
    /// (`"6x6/SCORPIO/seed1"`, `"torus6x6/…"`, `"ring36/…"` — mesh labels
    /// are unchanged from before the topology axis existed). Multi-plane
    /// systems append the plane count to the geometry (`"8x8+4pl"`); a
    /// quad notification scheme appends its tag (`"32x32+q2"`).
    pub fn label(&self) -> String {
        let planes = match self.planes.get() {
            1 => String::new(),
            n => format!("+{n}pl"),
        };
        let notify = match self.notify.label().as_str() {
            "" => String::new(),
            tag => format!("+{tag}"),
        };
        format!(
            "{}{planes}{notify}/{}/seed{}",
            self.mesh.label(),
            self.protocol.name(),
            self.seed
        )
    }

    /// A stable 64-bit fingerprint of what this configuration *simulates*.
    ///
    /// FNV-1a over the derived `Debug` rendering of a copy whose four
    /// recording fields — `obs`, `trace_limit`, `spans`, `window_cycles` —
    /// are reset to their defaults: any knob that changes the simulation
    /// (protocol, fabric, VC counts, cache geometry, seed, …) moves the
    /// hash, while recording more or less of a run never does, so a
    /// `--hist` row joins its plain twin. The reset list is the split
    /// between simulated and recorded fields. Used by the experiment
    /// harness to tag result rows; stable across processes and thread
    /// counts (unlike `DefaultHasher`, it does not depend on per-process
    /// state).
    pub fn stable_hash(&self) -> u64 {
        let simulated = SystemConfig {
            obs: ObsLevel::Off,
            trace_limit: DEFAULT_TRACE_LIMIT,
            spans: false,
            window_cycles: 0,
            ..self.clone()
        };
        Fnv1a::debug_digest(&simulated)
    }
}

/// The MC endpoints the L2s interleave memory traffic over: one per MC
/// router of `topo`, in router order.
fn mc_endpoints(topo: &Topology) -> Vec<Endpoint> {
    topo.mc_routers().iter().map(|&r| Endpoint::mc(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_matches_table1() {
        let cfg = SystemConfig::chip();
        assert_eq!(cfg.cores(), 36);
        assert_eq!(cfg.noc.channel_bytes, 16);
        assert_eq!(cfg.l2.capacity_bytes, 128 * 1024);
        assert_eq!(cfg.l1_bytes, 16 * 1024);
        assert_eq!(cfg.l2.rshr_entries, 2);
        assert_eq!(cfg.notification_bits, 1);
        assert_eq!(cfg.l2.mc_endpoints.len(), 4);
        assert_eq!(cfg.protocol, Protocol::Scorpio);
    }

    #[test]
    fn builders_apply() {
        let cfg = SystemConfig::square(4)
            .with_channel_bytes(32)
            .with_goreq_vcs(6)
            .with_uoresp_vcs(4)
            .with_notification_bits(2)
            .with_outstanding(4)
            .with_pipelined_uncore(false)
            .with_protocol(Protocol::TokenB);
        assert_eq!(cfg.noc.channel_bytes, 32);
        assert_eq!(cfg.noc.vnets[0].vcs, 6);
        assert_eq!(cfg.noc.vnets[1].vcs, 4);
        assert_eq!(cfg.notification_bits, 2);
        assert_eq!(cfg.l2.rshr_entries, 4);
        assert!(!cfg.l2.pipelined);
        assert!(!cfg.nic.pipelined);
        assert_eq!(cfg.protocol, Protocol::TokenB);
    }

    #[test]
    fn label_and_hash_are_stable_and_discriminating() {
        let a = SystemConfig::square(4);
        assert_eq!(a.label(), "4x4/SCORPIO/seed1");
        assert_eq!(a.stable_hash(), SystemConfig::square(4).stable_hash());
        let b = SystemConfig::square(4).with_protocol(Protocol::TokenB);
        assert_ne!(a.stable_hash(), b.stable_hash());
        let mut c = SystemConfig::square(4);
        c.seed = 2;
        assert_ne!(a.stable_hash(), c.stable_hash());
        let d = SystemConfig::square(4).with_goreq_vcs(6);
        assert_ne!(a.stable_hash(), d.stable_hash());
    }

    // The hash fingerprints the derived Debug rendering, so *any* change
    // to SystemConfig's shape (or a nested config's) shifts every hash.
    // That is intended — the hash ties result rows to the exact simulated
    // configuration — but it must never happen silently: stored JSONL/CSV
    // results stop matching. If this assertion fails, you changed the
    // config's shape; update the constants, list old → new in
    // EXPERIMENTS.md and note the result-file break in CHANGES.md.
    #[test]
    fn stable_hash_is_pinned() {
        // One row per fabric family and MC placement.
        for (name, cfg, hash) in [
            ("chip", SystemConfig::chip(), 0xfcbee57edb6bd233),
            ("square(4)", SystemConfig::square(4), 0x25f00f9be80321f3),
            (
                "torus, k = 4",
                SystemConfig::with_topology(Fabric::Torus.topology(4)),
                0x5a56e34b442147b9,
            ),
            (
                "ring, k = 4",
                SystemConfig::with_topology(Fabric::Ring.topology(4)),
                0xcb1d2356f6e1ca28,
            ),
            (
                "cmesh(4, 2, 2)",
                SystemConfig::cmesh(4, 2, 2),
                0xc3f8db1b9d72d82b,
            ),
            (
                "cmesh(4, 4, 1)",
                SystemConfig::cmesh(4, 4, 1),
                0x5b58eec400eb02f2,
            ),
            (
                "square(16) + proportional MCs",
                SystemConfig::square(16).with_proportional_mcs(),
                0xc510c44e1f39f3dd,
            ),
        ] {
            assert_eq!(
                cfg.stable_hash(),
                hash,
                "{name}: {:#018x}",
                cfg.stable_hash()
            );
        }
    }

    #[test]
    fn topology_axis_has_stable_labels_and_distinct_hashes() {
        let mesh = SystemConfig::square(4);
        let torus = SystemConfig::with_topology(Fabric::Torus.topology(4));
        let ring = SystemConfig::with_topology(Fabric::Ring.topology(4));
        assert_eq!(mesh.label(), "4x4/SCORPIO/seed1");
        assert_eq!(torus.label(), "torus4x4/SCORPIO/seed1");
        assert_eq!(ring.label(), "ring16/SCORPIO/seed1");
        // Matched endpoint counts at the same k.
        assert_eq!(mesh.cores(), 16);
        assert_eq!(torus.cores(), 16);
        assert_eq!(ring.cores(), 16);
        assert_eq!(mesh.mesh.endpoint_count(), 20);
        assert_eq!(torus.mesh.endpoint_count(), 20);
        assert_eq!(ring.mesh.endpoint_count(), 20);
        // Every fabric fingerprints differently.
        assert_ne!(mesh.stable_hash(), torus.stable_hash());
        assert_ne!(mesh.stable_hash(), ring.stable_hash());
        assert_ne!(torus.stable_hash(), ring.stable_hash());
        // The kind tag is hashed: a concentration-1 cmesh has the mesh's
        // links and tables but is a different fabric name.
        assert_ne!(
            SystemConfig::cmesh(4, 4, 1).stable_hash(),
            mesh.stable_hash()
        );
        // The L2's MC interleaving follows the fabric's MC placement.
        assert_eq!(ring.l2.mc_endpoints.len(), 4);
    }

    #[test]
    #[should_panic(expected = "meshes only")]
    fn proportional_mcs_reject_non_mesh_fabrics() {
        let _ = SystemConfig::with_topology(Fabric::Torus.topology(4)).with_proportional_mcs();
    }

    // The five axis tests keep the names they had while the default of
    // each axis rendered invisibly; they now pin the simulated/recorded
    // split: planes, notify scheme and open loop move the hash, the four
    // recording fields move neither the hash nor the label.
    #[test]
    fn plane_axis_is_hash_transparent_at_default_and_distinct_otherwise() {
        let base = SystemConfig::square(4);
        assert_eq!(base.planes.get(), 1);
        // Plane knobs fingerprint differently from the base and from each
        // other.
        let two = SystemConfig::square(4).with_planes(2);
        let four = SystemConfig::square(4).with_planes(4);
        assert_ne!(base.stable_hash(), two.stable_hash());
        assert_ne!(two.stable_hash(), four.stable_hash());
        // Labels: planes join the geometry segment.
        assert_eq!(base.label(), "4x4/SCORPIO/seed1");
        assert_eq!(two.label(), "4x4+2pl/SCORPIO/seed1");
        // The steering shift covers the line-offset bits (32 B lines).
        assert_eq!(base.plane_interleave_log2(), 5);
    }

    #[test]
    fn notify_axis_is_hash_transparent_at_default_and_distinct_otherwise() {
        let base = SystemConfig::square(4);
        assert_eq!(base.notify, NotifyScheme::Flat);
        // Quad schemes fingerprint differently from the base and from each
        // other, and join the label's geometry segment.
        let q2 = SystemConfig::square(4).with_notify(NotifyScheme::Quad { fanout: 2 });
        let q4 = SystemConfig::square(4).with_notify(NotifyScheme::Quad { fanout: 4 });
        assert_ne!(base.stable_hash(), q2.stable_hash());
        assert_ne!(q2.stable_hash(), q4.stable_hash());
        assert_eq!(base.label(), "4x4/SCORPIO/seed1");
        assert_eq!(q2.label(), "4x4+q2/SCORPIO/seed1");
        // The derived window: 4x4 mesh diameter 6 → flat 9; depth-2 quad
        // tree → 7; fanout 4 folds in one level → 5.
        assert_eq!(base.notification_window(), 9);
        assert_eq!(q2.notification_window(), 7);
        assert_eq!(q4.notification_window(), 5);
    }

    #[test]
    #[should_panic(expected = "quad fanout")]
    fn quad_fanout_below_two_panics() {
        let _ = SystemConfig::square(4).with_notify(NotifyScheme::Quad { fanout: 1 });
    }

    #[test]
    fn obs_axis_is_hash_transparent_at_default_and_distinct_otherwise() {
        // Observability alters what a run records, not what it simulates:
        // neither the level nor the trace cap moves the hash or the label.
        let base = SystemConfig::square(4);
        assert_eq!(base.obs, ObsLevel::Off);
        for recorded in [
            SystemConfig::square(4).with_obs(ObsLevel::Counters),
            SystemConfig::square(4).with_obs(ObsLevel::Trace),
            SystemConfig::square(4)
                .with_obs(ObsLevel::Trace)
                .with_trace_limit(16),
        ] {
            assert_eq!(recorded.stable_hash(), base.stable_hash());
            assert_eq!(recorded.label(), base.label());
        }
    }

    #[test]
    fn span_and_window_axes_are_hash_transparent_at_default_and_distinct_otherwise() {
        // Like observability, spans and windows are recording, not
        // simulation: no span or window setting moves the hash or label.
        let base = SystemConfig::square(4);
        assert!(!base.spans);
        assert_eq!(base.window_cycles, 0);
        for recorded in [
            SystemConfig::square(4).with_spans(true),
            SystemConfig::square(4).with_windows(1024),
            SystemConfig::square(4).with_windows(256),
            SystemConfig::square(4)
                .with_obs(ObsLevel::Counters)
                .with_spans(true)
                .with_windows(512),
        ] {
            assert_eq!(recorded.stable_hash(), base.stable_hash());
            assert_eq!(recorded.label(), base.label());
        }
    }

    #[test]
    fn open_loop_axis_is_hash_transparent_at_default_and_distinct_otherwise() {
        let base = SystemConfig::square(4);
        assert!(base.open_loop.is_none());
        // Open-loop knobs fingerprint differently from the base and from
        // each other, across process, load and queue depth.
        let pois = SystemConfig::square(4).with_open_loop(OpenLoopConfig::poisson(40));
        let pois_hot = SystemConfig::square(4).with_open_loop(OpenLoopConfig::poisson(80));
        let mut burst = OpenLoopConfig::poisson(40);
        burst.process = ArrivalProcess::Bursty { on: 50, off: 150 };
        let burst = SystemConfig::square(4).with_open_loop(burst);
        let mut replay = OpenLoopConfig::poisson(0);
        replay.process = ArrivalProcess::Replay;
        let replay = SystemConfig::square(4).with_open_loop(replay);
        let mut deep = OpenLoopConfig::poisson(40);
        deep.queue_cap = 256;
        let deep = SystemConfig::square(4).with_open_loop(deep);
        assert_ne!(base.stable_hash(), pois.stable_hash());
        assert_ne!(pois.stable_hash(), pois_hot.stable_hash());
        assert_ne!(pois.stable_hash(), burst.stable_hash());
        assert_ne!(pois.stable_hash(), replay.stable_hash());
        assert_ne!(pois.stable_hash(), deep.stable_hash());
        // Injection mode never changes the label: the sink carries it in
        // dedicated columns instead.
        assert_eq!(pois.label(), base.label());
    }

    #[test]
    #[should_panic(expected = "at least one plane")]
    fn zero_planes_panics() {
        let _ = SystemConfig::square(4).with_planes(0);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Scorpio.name(), "SCORPIO");
        assert_eq!(Protocol::Inso { expiry_window: 40 }.name(), "INSO(exp=40)");
        assert_eq!(Protocol::TokenB.name(), "TokenB");
        assert_eq!(Protocol::LpdDir.name(), "LPD-D");
        assert_eq!(Protocol::HtDir.name(), "HT-D");
        assert!(Protocol::LpdDir.uses_directory());
        assert!(!Protocol::Scorpio.uses_directory());
    }
}
