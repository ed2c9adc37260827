//! The bufferless bitwise-OR notification network (Figure 3), modelled as
//! what the paper specifies it to be: a contention-free, *fixed-latency*
//! primitive on a window clock.
//!
//! On the chip each "router" is nothing but OR gates and latches: every
//! cycle it merges the messages latched by its neighbours with its own and
//! latches the result. Merging never blocks, so after as many cycles as
//! the fabric's diameter (or one up plus one down pass of the quad tree)
//! every node holds the OR of everything latched at the window start — by
//! construction, not as something a run discovers. That is the whole
//! contract global ordering rests on, so it is all [`NotifyNetwork`]
//! models: three registers, `staged` → `flight` → `latest`, moved at the
//! window boundaries. The window length is where the fabric enters
//! ([`NotifyScheme::propagation_cycles`]).
//!
//! What is *checked* rather than modelled is the window formula itself:
//! the test module's `gates` oracle rebuilds the per-router latches, the
//! neighbour OR over the fabric's links and the quad tree's up/down sweep,
//! and asserts on every fabric that real propagation reaches the published
//! word at every router in exactly the declared number of cycles.

use crate::message::NotifyMsg;
use scorpio_noc::Topology;
use scorpio_sim::Cycle;

/// Configuration of the notification network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotifyConfig {
    /// Number of cores (== tiles == bit-field lanes).
    pub cores: usize,
    /// Bits per core: how many requests one core can announce per window
    /// (Section 3.3, "multiple requests per notification message").
    pub bits_per_core: u8,
    /// Time-window length in cycles; must exceed the topology diameter.
    pub window: u64,
}

impl NotifyConfig {
    /// The chip configuration for any delivery fabric: 1 bit per core,
    /// window from [`Topology::notification_window`] (13 cycles on the 6×6
    /// chip; diameter-derived, so a torus — or a concentrated mesh, whose
    /// *router grid* is what bounds propagation — gets a tighter window
    /// than the mesh of the same core count).
    pub fn for_mesh(mesh: &Topology) -> Self {
        NotifyConfig {
            cores: mesh.tile_count(),
            bits_per_core: 1,
            window: mesh.notification_window(),
        }
    }
}

/// How announcement words reach every node within a window: the flat
/// diameter-bounded OR mesh of the chip (Figure 3), or hierarchical
/// aggregation over a quad tree whose propagation cost tracks the tree
/// *depth* instead of the grid diameter — the Epiphany-V scaling move.
/// Either way every node ends the window holding the same OR; the scheme
/// decides how long the window must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NotifyScheme {
    /// The chip's flat OR mesh: one propagation step per neighbour hop,
    /// window `diameter + 3`.
    #[default]
    Flat,
    /// Recursive quad partitioning of the router grid: each `fanout ×
    /// fanout` block of level-`ℓ` nodes folds its announcement words into
    /// one level-`ℓ+1` aggregate, up to a single root and back down, so
    /// the window is `2 · depth + 3` — logarithmic in the grid side. At
    /// 32×32, window 13 (fanout 2) or 9 (fanout 4) instead of the flat 67.
    Quad {
        /// Side of the square block folded per tree level (≥ 2).
        fanout: u8,
    },
}

/// Number of quad-tree levels above the leaves for a `cols × rows` router
/// grid at `fanout`: repeatedly divide (ceiling) both sides by the fanout
/// until a single node covers the grid. A 1×1 grid needs no tree.
fn quad_depth(cols: u16, rows: u16, fanout: u8) -> u64 {
    let f = fanout as u32;
    let (mut c, mut r) = (cols as u32, rows as u32);
    let mut depth = 0;
    while c > 1 || r > 1 {
        c = c.div_ceil(f);
        r = r.div_ceil(f);
        depth += 1;
    }
    depth
}

impl NotifyScheme {
    /// Cycles one window spends propagating announcements: the topology
    /// diameter (flat) or one up plus one down pass over the tree (quad).
    pub(crate) fn propagation_cycles(self, topo: &Topology) -> u64 {
        match self {
            NotifyScheme::Flat => topo.diameter() as u64,
            NotifyScheme::Quad { fanout } => {
                assert!(fanout >= 2, "quad fanout must be at least 2");
                2 * quad_depth(topo.cols(), topo.rows(), fanout)
            }
        }
    }

    /// The notification window this scheme needs on `topo`: propagation
    /// cycles plus the fixed merge margin [`Topology::notification_window`]
    /// adds to the diameter, so `Flat` *is* that window.
    pub fn window_for(self, topo: &Topology) -> u64 {
        let margin = topo.notification_window() - topo.diameter() as u64;
        self.propagation_cycles(topo) + margin
    }

    /// Short label for config/scenario rows: `""` (flat — keeps every
    /// pre-scheme key byte-stable) or `"q<fanout>"`.
    pub fn label(self) -> String {
        match self {
            NotifyScheme::Flat => String::new(),
            NotifyScheme::Quad { fanout } => format!("q{fanout}"),
        }
    }
}

/// The notification network state: a three-stage register pipeline on a
/// window clock.
///
/// Drive it with one [`NotifyNetwork::tick`] per system cycle. NICs stage
/// injections with [`NotifyNetwork::stage_injection`] (latched at the next
/// window start) and read finished windows via [`NotifyNetwork::latest`].
///
/// # Examples
///
/// ```
/// use scorpio_noc::Mesh;
/// use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
///
/// let mesh = Mesh::scorpio_chip();
/// let cfg = NotifyConfig::for_mesh(&mesh);
/// let mut nn = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
/// nn.stage_injection(0, 7, 1, false);
/// for _ in 0..13 {
///     nn.tick();
/// }
/// let (window, msg) = nn.latest().expect("window 0 completed");
/// assert_eq!(window, 0);
/// assert_eq!(msg.count(0, 7), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NotifyNetwork {
    cfg: NotifyConfig,
    cycle: Cycle,
    /// Contributions waiting for the next window start.
    staged: NotifyMsg,
    /// The window in flight: the OR of everything latched at its start —
    /// what every node holds once propagation has converged. All-zero
    /// whenever `live` is clear.
    flight: NotifyMsg,
    /// Whether the window in flight carries any announcement. Stays set
    /// past the publish tick, until the next window-start tick runs.
    live: bool,
    /// The merged message of the last completed window, and its index
    /// (`None` until the first window completes).
    latest: NotifyMsg,
    latest_window: Option<u64>,
    /// Publish-tick cycles, recorded when enabled ([`NotifyNetwork::set_publish_log`]).
    /// Lives here rather than in the system layer because a single
    /// empty-window advance can complete several windows at once — an
    /// external observer polling `latest` would only see the last.
    publish_log: Option<Vec<u64>>,
    /// Completed windows so far.
    pub windows_completed: u64,
    /// Completed windows that carried at least one announcement.
    pub nonempty_windows: u64,
}

impl NotifyNetwork {
    /// Builds the notification network mirroring `fabric` — a
    /// [`Topology`] or a reference to one — whose messages carry one
    /// independent announcement word group per main-network plane. One
    /// physical OR fabric propagates all planes' words together (they are
    /// just wider messages); each plane's ordering windows converge
    /// independently. `scheme` is the in-window propagation:
    /// [`NotifyScheme::Flat`] is the chip's OR mesh, [`NotifyScheme::Quad`]
    /// aggregates hierarchically so `cfg.window` may be as short as
    /// `2 · tree depth + 3` ([`NotifyScheme::window_for`]).
    ///
    /// # Panics
    ///
    /// Panics if the window is too short for the scheme's propagation
    /// cycles, if `cores` does not match the fabric's tile count, if
    /// `planes` is 0 or greater than 64, or on a quad fanout below 2.
    pub fn with_scheme(
        fabric: impl Into<Topology>,
        cfg: NotifyConfig,
        planes: usize,
        scheme: NotifyScheme,
    ) -> Self {
        let topo: Topology = fabric.into();
        let prop_cycles = scheme.propagation_cycles(&topo);
        assert!(
            cfg.window > prop_cycles,
            "window {} cannot cover the {prop_cycles} propagation cycles of {scheme:?}",
            cfg.window
        );
        assert_eq!(cfg.cores, topo.tile_count(), "one bit-lane per tile");
        let blank = NotifyMsg::new(cfg.cores, cfg.bits_per_core, planes);
        NotifyNetwork {
            cycle: Cycle::ZERO,
            staged: blank.clone(),
            flight: blank.clone(),
            live: false,
            latest: blank,
            latest_window: None,
            publish_log: None,
            windows_completed: 0,
            nonempty_windows: 0,
            cfg,
        }
    }

    /// Enables (or disables) recording of every publish-tick cycle —
    /// the windowed-telemetry timestamps. Purely observational: the log
    /// is written, never read, by the network itself.
    pub fn set_publish_log(&mut self, on: bool) {
        self.publish_log = on.then(Vec::new);
    }

    /// The recorded publish-tick cycles (empty unless enabled).
    pub fn publish_log(&self) -> &[u64] {
        self.publish_log.as_deref().unwrap_or(&[])
    }

    /// The configuration in use.
    pub fn config(&self) -> &NotifyConfig {
        &self.cfg
    }

    /// Whether `cycle` is a window-start boundary.
    pub fn is_window_start(&self, cycle: Cycle) -> bool {
        cycle.is_multiple_of(self.cfg.window)
    }

    /// Stages core `core`'s announcement for plane `plane` at the next
    /// window start: `count` requests (saturating) and optionally the stop
    /// bit. Staging twice before a window start merges (max/OR semantics).
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `core` is out of range.
    pub fn stage_injection(&mut self, plane: usize, core: usize, count: u8, stop: bool) {
        // `count` rejects an out-of-range plane or core; `set_count`
        // saturates at the field width.
        let merged = self.staged.count(plane, core).max(count);
        self.staged.set_count(plane, core, merged);
        if stop {
            self.staged.set_stop(plane, true);
        }
    }

    /// The merged message of the most recently completed window, with its
    /// index. `None` until the first window completes.
    pub fn latest(&self) -> Option<(u64, &NotifyMsg)> {
        self.latest_window.map(|w| (w, &self.latest))
    }

    /// Advances one cycle. Only the two boundary cycles of a window do
    /// anything: its first latches what was staged, its last publishes.
    /// Every cycle in between is a clock increment — the in-window
    /// propagation those cycles stand for cannot change what the window
    /// publishes.
    pub fn tick(&mut self) {
        let w = self.cfg.window;
        let now = self.cycle.as_u64();
        let in_window = now % w;
        if in_window == 0 {
            // Window start: the previous window's word is dropped and the
            // staged contributions become the window in flight. `staged`
            // gets the all-zero `flight` back.
            if self.live {
                self.flight.clear();
                self.live = false;
            }
            if !self.staged.is_empty() {
                std::mem::swap(&mut self.staged, &mut self.flight);
                self.live = true;
            }
        }
        if in_window == w - 1 {
            // Window end: every node now holds the global OR.
            if self.live {
                self.nonempty_windows += 1;
            }
            self.publish(now, 1);
        }
        self.cycle = self.cycle.next();
    }

    /// Completes `n` consecutive windows, the first of them publishing at
    /// cycle `first_tick`: all publish `flight`, and `latest` keeps the
    /// last. (`n > 1` only across empty windows.)
    fn publish(&mut self, first_tick: u64, n: u64) {
        let w = self.cfg.window;
        if let Some(log) = &mut self.publish_log {
            log.extend((0..n).map(|i| first_tick + i * w));
        }
        self.windows_completed += n;
        self.latest.copy_from(&self.flight);
        self.latest_window = Some(first_tick / w + n - 1);
    }

    /// The farthest cycle the event-leaping clock may advance this network
    /// *to* (the tick at the returned cycle still executes normally), or
    /// `None` when nothing constrains the leap:
    ///
    /// * A live window's horizon is its publish tick (`window start +
    ///   window − 1`): the ticks before it are clock increments, but the
    ///   publish tick — the only tick a NIC can observe, via
    ///   [`NotifyNetwork::latest`] — must execute, because it wakes every
    ///   endpoint.
    /// * Staged-but-unlatched contributions bound the leap at the next
    ///   window-start tick, which must execute to latch them.
    /// * A cycle sitting exactly on a window start whose latch/clear has
    ///   not run yet returns `Some(now)` — no leap at all.
    ///
    /// A `None` horizon means every future tick is empty-window
    /// bookkeeping, which [`NotifyNetwork::advance`] reproduces for any
    /// distance.
    pub fn leap_horizon(&self) -> Option<u64> {
        let w = self.cfg.window;
        let now = self.cycle.as_u64();
        if self.live {
            if now.is_multiple_of(w) {
                // The window-start clear (and possibly a relatch) must run.
                Some(now)
            } else {
                Some(now - now % w + w - 1)
            }
        } else if !self.staged.is_empty() {
            Some(now.next_multiple_of(w))
        } else {
            None
        }
    }

    /// Moves the clock `delta` cycles at once, reproducing exactly what
    /// `delta` consecutive [`NotifyNetwork::tick`] calls would do — the
    /// caller must not advance past [`NotifyNetwork::leap_horizon`]. Inside
    /// a live window there is nothing to reproduce before the publish
    /// tick; otherwise every window boundary crossed completes an empty
    /// window (counted, logged, and published as the blank `latest`
    /// message with the right index).
    ///
    /// # Panics
    ///
    /// Panics on a leap past the horizon, which would silently drop a
    /// window's latch or publication: a live advance must end at or before
    /// the window's publish tick, and an advance with contributions staged
    /// must not cross the next window start.
    pub fn advance(&mut self, delta: u64) {
        let w = self.cfg.window;
        let start = self.cycle.as_u64();
        let end = start + delta;
        if self.live {
            assert!(
                !start.is_multiple_of(w),
                "cannot leap over a window-start tick"
            );
            assert!(
                end < start.next_multiple_of(w),
                "live advance of {delta} from {start} overruns the publish tick"
            );
        } else {
            assert!(
                self.staged.is_empty() || end <= start.next_multiple_of(w),
                "advance of {delta} from {start} crosses a latch tick with staged contributions"
            );
            // Cycles c in [start, end) with c % w == w - 1 complete a window.
            let completed = end / w - start / w;
            if completed > 0 {
                self.publish(start - start % w + w - 1, completed);
            }
        }
        self.cycle += delta;
    }
}

#[cfg(test)]
impl NotifyNetwork {
    /// Current cycle.
    fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Number of main-network planes the messages announce for.
    fn planes(&self) -> usize {
        self.flight.planes()
    }

    /// Whether every remaining tick is a pure window-bookkeeping no-op:
    /// nothing is staged for the next window and the window in flight (if
    /// any) carries nothing. Note that `live` stays set from a window's
    /// end until the *next* window-start tick clears it, so a network is
    /// idle-leapable at the earliest one cycle into the window after its
    /// last live one.
    fn is_idle(&self) -> bool {
        !self.live && self.staged.is_empty()
    }
}

/// The gate-level oracle: what the chip's notification fabric does *inside*
/// a window. [`NotifyNetwork`] takes the outcome — every node ends the
/// window holding the OR of everything latched at its start — as given;
/// this module rebuilds the OR gates and latches (and the quad tree's
/// aggregate levels) so the tests can check that the outcome really is
/// reached, at every router, within [`NotifyScheme::propagation_cycles`].
#[cfg(test)]
mod gates {
    use super::{NotifyMsg, NotifyScheme};
    use scorpio_noc::{Port, Topology};

    /// One level of the quad tree: for every node of a `cols × rows` grid
    /// (indexed `y * cols + x`), the index of the `fanout × fanout` block it
    /// folds into on the `ceil(cols / fanout) × ceil(rows / fanout)` grid one
    /// level up. The window needs only `quad_depth`; this oracle builds the
    /// tree level by level from it.
    pub fn quad_parents(cols: u32, rows: u32, fanout: u32) -> Vec<u32> {
        let parent_cols = cols.div_ceil(fanout);
        let mut map = Vec::with_capacity((cols * rows) as usize);
        for y in 0..rows {
            for x in 0..cols {
                map.push((y / fanout) * parent_cols + x / fanout);
            }
        }
        map
    }

    /// One staged contribution: `(plane, core, count, stop)`.
    pub type Staged = (usize, usize, u8, bool);

    pub struct Gates {
        scheme: NotifyScheme,
        /// The scheme's declared propagation cycles on this fabric.
        pub prop_cycles: u64,
        /// `levels[0]` holds the per-router latches; `levels[l]`, `l ≥ 1`,
        /// the quad tree's level-`l` aggregates (none on a flat fabric).
        levels: Vec<Vec<NotifyMsg>>,
        /// `parent[l][i]`: index at level `l + 1` of node `i` at level `l`.
        parent: Vec<Vec<u32>>,
        /// Each router's OR fan-in: its distinct neighbours over the
        /// fabric's links.
        fan_in: Vec<Vec<usize>>,
        /// The router each core's bit lane is latched at — on a
        /// concentrated fabric several cores share one.
        tile_router: Vec<usize>,
        /// Propagation steps run since the last latch.
        steps: u64,
    }

    impl Gates {
        pub fn new(topo: &Topology, scheme: NotifyScheme, blank: &NotifyMsg) -> Gates {
            let fan_in = topo
                .routers()
                .map(|r| {
                    let mut nbs = Vec::new();
                    for port in [Port::North, Port::South, Port::East, Port::West] {
                        if let Some(n) = topo.neighbor(r, port) {
                            // A 2-wide torus dimension wires both ports to
                            // the same neighbour; merging it twice is the
                            // identity, but dedup keeps the gate count
                            // honest.
                            if !nbs.contains(&n.index()) {
                                nbs.push(n.index());
                            }
                        }
                    }
                    nbs
                })
                .collect();
            let mut levels = vec![vec![blank.clone(); topo.router_count()]];
            let mut parent = Vec::new();
            if let NotifyScheme::Quad { fanout } = scheme {
                let f = fanout as u32;
                let (mut c, mut r) = (topo.cols() as u32, topo.rows() as u32);
                while c > 1 || r > 1 {
                    parent.push(quad_parents(c, r, f));
                    (c, r) = (c.div_ceil(f), r.div_ceil(f));
                    levels.push(vec![blank.clone(); (c * r) as usize]);
                }
            }
            Gates {
                scheme,
                prop_cycles: scheme.propagation_cycles(topo),
                levels,
                parent,
                fan_in,
                tile_router: (0..topo.tile_count())
                    .map(|i| topo.tile_endpoint(i).router.index())
                    .collect(),
                steps: 0,
            }
        }

        /// Window start: clears the router latches — and only those; a
        /// live window must rebuild whatever tree levels it uses — and
        /// latches each contribution at the router hosting its core.
        pub fn latch(&mut self, staged: &[Staged]) {
            self.steps = 0;
            for m in &mut self.levels[0] {
                m.clear();
            }
            for &(plane, core, count, stop) in staged {
                let m = &mut self.levels[0][self.tile_router[core]];
                m.set_count(plane, core, m.count(plane, core).max(count));
                if stop {
                    m.set_stop(plane, true);
                }
            }
        }

        /// Runs `steps` more propagation cycles and returns the router
        /// latches.
        pub fn run(&mut self, steps: u64) -> &[NotifyMsg] {
            for _ in 0..steps {
                self.steps += 1;
                match self.scheme {
                    NotifyScheme::Flat => self.flat_step(),
                    NotifyScheme::Quad { .. } => self.quad_step(self.steps),
                }
            }
            &self.levels[0]
        }

        /// Each router ORs its neighbours' latched values into its own
        /// (two-phase: all read the old latches).
        fn flat_step(&mut self) {
            let old = self.levels[0].clone();
            for (latch, nbs) in self.levels[0].iter_mut().zip(&self.fan_in) {
                for &nb in nbs {
                    latch.merge_from(&old[nb]);
                }
            }
        }

        /// Step `t` (1-based) of the quad sweep: steps `1..=depth` fold
        /// upward (clearing the target level first, so stale aggregates of
        /// earlier windows are irrelevant), steps `depth+1..=2·depth`
        /// broadcast the root's OR back down. Later steps change nothing.
        fn quad_step(&mut self, t: u64) {
            let (t, d) = (t as usize, self.parent.len());
            if t <= d {
                let (lo, hi) = self.levels.split_at_mut(t);
                let (src, dst) = (&lo[t - 1], &mut hi[0]);
                for m in dst.iter_mut() {
                    m.clear();
                }
                for (s, &p) in src.iter().zip(&self.parent[t - 1]) {
                    dst[p as usize].merge_from(s);
                }
            } else if t <= 2 * d {
                let l = 2 * d - t;
                let (lo, hi) = self.levels.split_at_mut(l + 1);
                let (dst, src) = (&mut lo[l], &hi[0]);
                for (m, &p) in dst.iter_mut().zip(&self.parent[l]) {
                    m.merge_from(&src[p as usize]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gates::{quad_parents, Gates, Staged};
    use super::*;
    use scorpio_noc::{CMesh, Mesh, Ring, RouterId, Torus};
    use scorpio_sim::SimRng;

    fn net(k: u16) -> NotifyNetwork {
        let mesh = Mesh::new(k, k, &[]);
        NotifyNetwork::with_scheme(&mesh, NotifyConfig::for_mesh(&mesh), 1, NotifyScheme::Flat)
    }

    /// A network at the scheme's own window on `topo`, and the gate-level
    /// oracle of the same fabric.
    fn both(
        topo: &Topology,
        scheme: NotifyScheme,
        planes: usize,
        bits_per_core: u8,
    ) -> (NotifyNetwork, Gates) {
        let cfg = NotifyConfig {
            cores: topo.tile_count(),
            bits_per_core,
            window: scheme.window_for(topo),
        };
        let blank = NotifyMsg::new(cfg.cores, bits_per_core, planes);
        (
            NotifyNetwork::with_scheme(topo, cfg, planes, scheme),
            Gates::new(topo, scheme, &blank),
        )
    }

    /// Runs one window both ways — `staged` through `nn` for a whole
    /// window, and through the gates for the declared propagation cycles —
    /// asserts that every router's latch holds the word `nn` published,
    /// and returns that word.
    fn window_both_ways(nn: &mut NotifyNetwork, gates: &mut Gates, staged: &[Staged]) -> NotifyMsg {
        assert!(nn.is_window_start(nn.cycle()));
        for &(plane, core, count, stop) in staged {
            nn.stage_injection(plane, core, count, stop);
        }
        for _ in 0..nn.config().window {
            nn.tick();
        }
        let (_, published) = nn.latest().expect("a window completed");
        gates.latch(staged);
        for (r, held) in gates.run(gates.prop_cycles).iter().enumerate() {
            assert_eq!(held, published, "router {r} latched a different word");
        }
        published.clone()
    }

    #[test]
    fn chip_window_is_13() {
        let mesh = Mesh::scorpio_chip();
        let cfg = NotifyConfig::for_mesh(&mesh);
        assert_eq!(cfg.window, 13);
        assert_eq!(cfg.cores, 36);
        assert_eq!(cfg.bits_per_core, 1);
    }

    #[test]
    fn single_injection_reaches_all_nodes() {
        let (mut nn, mut gates) = both(&Mesh::new(6, 6, &[]), NotifyScheme::Flat, 1, 1);
        assert_eq!(nn.config().window, 13);
        // Every router's latch agrees with the published word.
        let msg = window_both_ways(&mut nn, &mut gates, &[(0, 0, 1, false)]);
        assert_eq!(nn.latest().unwrap().0, 0);
        assert_eq!(msg.count(0, 0), 1);
        assert_eq!(msg.total(), 1);
    }

    #[test]
    fn corner_to_corner_injections_converge() {
        let mut nn = net(6);
        nn.stage_injection(0, 0, 1, false);
        nn.stage_injection(0, 35, 1, false);
        for _ in 0..13 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count(0, 0), 1);
        assert_eq!(msg.count(0, 35), 1);
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn mid_window_injection_waits_for_next_window() {
        let mut nn = net(4); // window 9
        for _ in 0..3 {
            nn.tick();
        }
        nn.stage_injection(0, 5, 1, false);
        for _ in 3..9 {
            nn.tick();
        }
        let (w0, msg0) = nn.latest().unwrap();
        assert_eq!(w0, 0);
        assert!(msg0.is_empty(), "mid-window injection leaked into window 0");
        for _ in 0..9 {
            nn.tick();
        }
        let (w1, msg1) = nn.latest().unwrap();
        assert_eq!(w1, 1);
        assert_eq!(msg1.count(0, 5), 1);
    }

    #[test]
    fn stop_bit_propagates() {
        let mut nn = net(4);
        nn.stage_injection(0, 3, 0, true);
        nn.stage_injection(0, 7, 1, false);
        for _ in 0..9 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert!(msg.stop(0));
        assert_eq!(msg.count(0, 7), 1);
    }

    #[test]
    fn multi_bit_counts_survive_merging() {
        let mesh = Mesh::new(4, 4, &[]);
        let cfg = NotifyConfig {
            cores: 16,
            bits_per_core: 2,
            window: mesh.notification_window(),
        };
        let mut nn = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
        nn.stage_injection(0, 2, 3, false);
        nn.stage_injection(0, 9, 2, false);
        nn.stage_injection(0, 9, 1, false); // merges to max(2,1)=2
        nn.stage_injection(0, 4, 200, false); // saturates at 2^bits - 1
        for _ in 0..9 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count(0, 2), 3);
        assert_eq!(msg.count(0, 9), 2);
        assert_eq!(msg.count(0, 4), 3);
    }

    #[test]
    fn empty_windows_complete_too() {
        let mut nn = net(4);
        for _ in 0..27 {
            nn.tick();
        }
        assert_eq!(nn.windows_completed, 3);
        assert_eq!(nn.nonempty_windows, 0);
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 2);
        assert!(msg.is_empty());
    }

    /// `advance(d)` on an idle network must leave it in exactly the state
    /// `d` ticks would — from any in-window offset, across any number of
    /// window boundaries, before and after live traffic, publish log
    /// included.
    #[test]
    fn advance_idle_matches_ticked_reference() {
        for warmup in [0u64, 1, 3, 8, 9] {
            for delta in [1u64, 2, 8, 9, 10, 26, 27, 40] {
                let mut ticked = net(4); // window 9
                let mut leaped = net(4);
                for nn in [&mut ticked, &mut leaped] {
                    nn.set_publish_log(true);
                    for _ in 0..warmup {
                        nn.tick();
                    }
                }
                assert!(leaped.is_idle());
                for _ in 0..delta {
                    ticked.tick();
                }
                leaped.advance(delta);
                assert_eq!(ticked.cycle(), leaped.cycle());
                assert_eq!(ticked.windows_completed, leaped.windows_completed);
                assert_eq!(ticked.nonempty_windows, leaped.nonempty_windows);
                assert_eq!(
                    ticked.latest().map(|(w, m)| (w, m.clone())),
                    leaped.latest().map(|(w, m)| (w, m.clone())),
                    "latest diverged at warmup {warmup} delta {delta}"
                );
                // Subsequent live traffic behaves identically.
                ticked.stage_injection(0, 5, 1, false);
                leaped.stage_injection(0, 5, 1, false);
                for _ in 0..18 {
                    ticked.tick();
                    leaped.tick();
                }
                assert_eq!(
                    ticked.latest().map(|(w, m)| (w, m.clone())),
                    leaped.latest().map(|(w, m)| (w, m.clone()))
                );
                assert_eq!(ticked.publish_log(), leaped.publish_log());
            }
        }
    }

    /// A network is not idle-leapable between a live window's end and the
    /// next window start (the latch clear has not happened yet).
    #[test]
    fn live_window_blocks_idle_until_next_window_start() {
        let mut nn = net(4); // window 9
        nn.stage_injection(0, 0, 1, false);
        assert!(!nn.is_idle(), "staged injection blocks leaping");
        for _ in 0..9 {
            nn.tick();
        }
        assert!(!nn.is_idle(), "live flag persists past the window end");
        nn.tick(); // window-start tick clears the latches
        assert!(nn.is_idle());
    }

    #[test]
    fn rectangular_mesh_converges() {
        let mesh = Mesh::new(8, 2, &[]);
        let cfg = NotifyConfig::for_mesh(&mesh);
        let mut nn = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
        nn.stage_injection(0, 0, 1, false);
        nn.stage_injection(0, 15, 1, false);
        let w = mesh.notification_window();
        for _ in 0..w {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.total(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot cover the 10 propagation cycles of Flat")]
    fn too_short_window_panics() {
        let mesh = Mesh::new(6, 6, &[]);
        let cfg = NotifyConfig {
            cores: 36,
            bits_per_core: 1,
            window: 5,
        };
        let _ = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
    }

    #[test]
    fn torus_window_is_tighter_and_converges() {
        let topo = Torus::square_with_corner_mcs(6);
        // Torus diameter 6 vs mesh 10: window 9 vs the chip's 13.
        assert_eq!(NotifyConfig::for_mesh(&topo).window, 9);
        let (mut nn, mut gates) = both(&topo, NotifyScheme::Flat, 1, 1);
        assert_eq!(nn.config().window, 9);
        let staged = [(0, 0, 1, false), (0, 35, 1, false)];
        let msg = window_both_ways(&mut nn, &mut gates, &staged);
        assert_eq!(msg.total(), 2);
        assert_eq!(msg.count(0, 0), 1);
    }

    #[test]
    fn ring_converges_within_its_half_circumference_window() {
        let topo = Ring::with_spread_mcs(16, 4);
        let cfg = NotifyConfig::for_mesh(&topo);
        assert_eq!(cfg.window, 8 + 3);
        let mut nn = NotifyNetwork::with_scheme(&topo, cfg.clone(), 1, NotifyScheme::Flat);
        nn.stage_injection(0, 0, 1, false);
        nn.stage_injection(0, 8, 1, false); // antipodal
        for _ in 0..cfg.window {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn two_wide_torus_dimension_dedups_or_inputs() {
        // cols = 2: East and West reach the same neighbour; the OR fan-in
        // must still converge (merging a value twice is the identity).
        let (mut nn, mut gates) = both(&Torus::new(2, 4, &[]), NotifyScheme::Flat, 1, 1);
        let msg = window_both_ways(&mut nn, &mut gates, &[(0, 7, 1, false)]);
        assert_eq!(msg.count(0, 7), 1);
        assert_eq!(msg.total(), 1);
    }

    #[test]
    fn cmesh_lanes_share_routers_and_converge_in_the_smaller_window() {
        // 16 cores as a 4x2 router grid x 2 tiles: diameter 4, window 7 —
        // tighter than the 4x4 mesh's 9 at the same core count.
        let topo = CMesh::with_corner_mcs(4, 2, 2);
        let (mut nn, mut gates) = both(&topo, NotifyScheme::Flat, 1, 1);
        assert_eq!(nn.config(), &NotifyConfig::for_mesh(&topo));
        assert_eq!(nn.config().cores, 16);
        assert_eq!(nn.config().window, 7);
        // Cores 0 and 1 share router 0; core 15 sits at router 7. Every
        // *router* latches the identical merged word.
        let staged = [(0, 0, 1, false), (0, 1, 1, false), (0, 15, 0, true)];
        let msg = window_both_ways(&mut nn, &mut gates, &staged);
        assert_eq!(nn.latest().unwrap().0, 0);
        assert_eq!(msg.count(0, 0), 1);
        assert_eq!(msg.count(0, 1), 1);
        assert_eq!(msg.total(), 2);
        assert!(msg.stop(0));
    }

    #[test]
    fn quad_window_depths_match_the_derivation() {
        // 32×32: fanout 2 folds 32→16→8→4→2→1 (depth 5, window 13 — the
        // chip's own window at 28× the core count); fanout 4 folds
        // 32→8→2→1 (depth 3, window 9). Both beat the ≤ 20 target and the
        // flat 67 by far.
        let m32: Topology = Mesh::new(32, 32, &[]);
        assert_eq!(m32.notification_window(), 65);
        assert_eq!(NotifyScheme::Quad { fanout: 2 }.window_for(&m32), 13);
        assert_eq!(NotifyScheme::Quad { fanout: 4 }.window_for(&m32), 9);
        // The chip's 6×6 folds 6→3→2→1 at fanout 2: depth 3, window 9.
        let chip: Topology = Mesh::new(6, 6, &[]);
        assert_eq!(NotifyScheme::Quad { fanout: 2 }.window_for(&chip), 9);
        // Non-square and degenerate grids.
        let m8x2: Topology = Mesh::new(8, 2, &[]);
        assert_eq!(NotifyScheme::Quad { fanout: 2 }.window_for(&m8x2), 9);
        let m1x1: Topology = Mesh::new(1, 1, &[]);
        assert_eq!(NotifyScheme::Quad { fanout: 2 }.window_for(&m1x1), 3);
        // Flat reproduces the topology window exactly.
        assert_eq!(
            NotifyScheme::Flat.window_for(&m32),
            m32.notification_window()
        );
        assert_eq!(NotifyScheme::Flat.label(), "");
        assert_eq!(NotifyScheme::Quad { fanout: 4 }.label(), "q4");
    }

    fn quad_net(cols: u16, rows: u16, fanout: u8, planes: usize) -> NotifyNetwork {
        let scheme = NotifyScheme::Quad { fanout };
        both(&Mesh::new(cols, rows, &[]), scheme, planes, 1).0
    }

    #[test]
    fn quad_corner_injections_converge_in_the_log_window() {
        // depth 3, window 9 (flat: 17)
        let scheme = NotifyScheme::Quad { fanout: 2 };
        let (mut nn, mut gates) = both(&Mesh::new(8, 8, &[]), scheme, 1, 1);
        assert_eq!(nn.config().window, 9);
        let staged = [(0, 0, 1, false), (0, 63, 1, false)];
        let msg = window_both_ways(&mut nn, &mut gates, &staged);
        assert_eq!(nn.latest().unwrap().0, 0);
        assert_eq!(msg.count(0, 0), 1);
        assert_eq!(msg.count(0, 63), 1);
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn quad_regions_partition_the_grid_into_leaf_quads() {
        // The tree's first level: each router's leaf quad, numbered
        // densely from 0 in row-major block order.
        let leaf_quads = |map: &[u32]| map.iter().max().map_or(0, |&m| m + 1);
        // 8×8 at fanout 4 → 2×2 leaf quads of 4×4 routers.
        let square = quad_parents(8, 8, 4);
        assert_eq!(leaf_quads(&square), 4);
        assert_eq!(square[0], 0); // (0,0)
        assert_eq!(square[7], 1); // (7,0)
        assert_eq!(square[8 * 7], 2); // (0,7)
        assert_eq!(square[8 * 7 + 7], 3); // (7,7)
        for q in 0..4 {
            assert_eq!(square.iter().filter(|&&g| g == q).count(), 16);
        }

        // A ragged grid: 5×3 at fanout 2 → 3×2 leaf quads.
        let ragged = quad_parents(5, 3, 2);
        assert_eq!(leaf_quads(&ragged), 6);
        assert_eq!(ragged[4], 2); // (4,0)
        assert_eq!(ragged[5 * 2 + 4], 5); // (4,2)

        // A 1×1 grid is one leaf quad.
        assert_eq!(quad_parents(1, 1, 2), [0]);
    }

    /// Satellite proptest (hand-rolled off SimRng — the workspace carries
    /// no external crates): for random announcement patterns over random
    /// non-square grids, the quad window's published merge must equal the
    /// flat window's, plane for plane, stop bits included.
    #[test]
    fn quad_published_merge_equals_flat_for_random_patterns() {
        let mut rng = SimRng::seed_from(0x5c0_2b10);
        for trial in 0..60 {
            let cols = 1 + rng.gen_range_usize(9) as u16;
            let rows = 1 + rng.gen_range_usize(9) as u16;
            let fanout = if rng.chance(0.5) { 2 } else { 4 };
            let planes = if rng.chance(0.5) { 1 } else { 4 };
            let mesh = Mesh::new(cols, rows, &[]);
            let cores = mesh.tile_count();
            let cfg = NotifyConfig::for_mesh(&mesh);
            let mut flat = NotifyNetwork::with_scheme(&mesh, cfg, planes, NotifyScheme::Flat);
            let mut quad = quad_net(cols, rows, fanout, planes);
            // Two windows of random announcements (the second follows a
            // live window, so it exercises the window-start clear).
            for _ in 0..2 {
                for core in 0..cores {
                    for plane in 0..planes {
                        if rng.chance(0.2) {
                            let stop = rng.chance(0.1);
                            flat.stage_injection(plane, core, 1, stop);
                            quad.stage_injection(plane, core, 1, stop);
                        }
                    }
                }
                for _ in 0..flat.config().window {
                    flat.tick();
                }
                for _ in 0..quad.config().window {
                    quad.tick();
                }
                let (fw, fm) = flat.latest().unwrap();
                let (qw, qm) = quad.latest().unwrap();
                assert_eq!(fw, qw);
                assert_eq!(
                    fm, qm,
                    "flat/quad merge diverged: trial {trial}, \
                     {cols}x{rows} fanout {fanout} planes {planes}"
                );
            }
        }
    }

    /// The window formula against the gates, on every fabric: after
    /// exactly `propagation_cycles` steps of real OR propagation every
    /// router holds the word the network publishes — and, on the flat
    /// fabric, one step fewer is not enough.
    #[test]
    fn gates_converge_in_exactly_the_declared_propagation_cycles() {
        let mut shapes: Vec<Topology> = Vec::new();
        shapes.extend(
            [(1, 1), (4, 1), (1, 4), (6, 6), (8, 2), (16, 16)].map(|(c, r)| Mesh::new(c, r, &[])),
        );
        shapes.extend([(2, 2), (2, 4), (5, 3), (6, 6)].map(|(c, r)| Torus::new(c, r, &[])));
        shapes.extend([2, 16, 37].map(|n| Ring::new(n, &[])));
        shapes.extend(
            [(4, 2, 2), (2, 2, 4), (4, 4, 1), (1, 1, 4)].map(|(c, r, k)| CMesh::new(c, r, k, &[])),
        );
        let schemes = [
            NotifyScheme::Flat,
            NotifyScheme::Quad { fanout: 2 },
            NotifyScheme::Quad { fanout: 4 },
        ];
        let mut rng = SimRng::seed_from(0x6a7e5);
        for topo in &shapes {
            for scheme in schemes {
                for planes in [1, 4] {
                    let (mut nn, mut gates) = both(topo, scheme, planes, 2);
                    // Two consecutive windows: the second latches over the
                    // first one's converged latches and stale tree levels.
                    for window in 0..2 {
                        let mut staged = Vec::new();
                        for core in 0..topo.tile_count() {
                            for plane in 0..planes {
                                if rng.chance(0.25) {
                                    let count = rng.gen_range_usize(4) as u8;
                                    staged.push((plane, core, count, rng.chance(0.1)));
                                }
                            }
                        }
                        let msg = window_both_ways(&mut nn, &mut gates, &staged);
                        assert_eq!(nn.latest().unwrap().0, window);
                        for &(plane, core, count, stop) in &staged {
                            assert!(msg.count(plane, core) >= count);
                            assert!(msg.stop(plane) || !stop);
                        }
                    }
                }
            }
            // Tight, not merely sufficient: an announcement latched at
            // router 0 has not reached the farthest router one step short
            // of the diameter.
            if topo.diameter() >= 1 {
                let (_, mut gates) = both(topo, NotifyScheme::Flat, 1, 1);
                let far = topo
                    .routers()
                    .max_by_key(|&r| topo.hops(RouterId(0), r))
                    .expect("at least one router");
                assert_eq!(topo.hops(RouterId(0), far), topo.diameter());
                gates.latch(&[(0, 0, 1, false)]);
                let latches = gates.run(gates.prop_cycles - 1);
                assert_eq!(latches[0].count(0, 0), 1);
                assert!(latches[far.index()].is_empty(), "{topo:?} converged early");
                assert_eq!(gates.run(1)[far.index()].count(0, 0), 1);
            }
        }
    }

    /// `advance` must reproduce ticked execution from any leapable point of
    /// a live window — including straight to the publish tick — for both
    /// schemes.
    #[test]
    fn live_advance_matches_ticked_reference() {
        for quad in [false, true] {
            let make = || {
                if quad {
                    quad_net(4, 4, 2, 1) // depth 2, window 7
                } else {
                    net(4) // window 9
                }
            };
            let w = make().config().window;
            // Latch a window, then from each in-window offset leap every
            // admissible distance and compare against stepping.
            for offset in 1..w {
                let horizon = w - 1;
                for target in offset..=horizon {
                    let mut ticked = make();
                    let mut leaped = make();
                    for nn in [&mut ticked, &mut leaped] {
                        nn.stage_injection(0, 0, 1, false);
                        nn.stage_injection(0, 5, 1, true);
                        for _ in 0..offset {
                            nn.tick();
                        }
                    }
                    assert_eq!(leaped.leap_horizon(), Some(horizon));
                    let delta = target - offset;
                    if delta > 0 {
                        leaped.advance(delta);
                        for _ in 0..delta {
                            ticked.tick();
                        }
                    }
                    // Finish the window plus one more either way.
                    for _ in 0..(w - target) + w {
                        ticked.tick();
                        leaped.tick();
                    }
                    assert_eq!(
                        ticked.latest().map(|(i, m)| (i, m.clone())),
                        leaped.latest().map(|(i, m)| (i, m.clone())),
                        "diverged at offset {offset} target {target} quad {quad}"
                    );
                    assert_eq!(ticked.windows_completed, leaped.windows_completed);
                    assert_eq!(ticked.nonempty_windows, leaped.nonempty_windows);
                }
            }
        }
    }

    #[test]
    fn leap_horizon_tracks_window_state() {
        let mut nn = net(4); // window 9
        assert_eq!(nn.leap_horizon(), None, "idle network is unconstrained");
        nn.stage_injection(0, 3, 1, false);
        assert_eq!(
            nn.leap_horizon(),
            Some(0),
            "staged at a window start: the latch tick must run now"
        );
        nn.tick();
        assert_eq!(nn.leap_horizon(), Some(8), "live window leaps to publish");
        for _ in 1..9 {
            nn.tick();
        }
        // Past the publish tick `live` persists until the next
        // window-start tick, which must execute to clear the latches.
        assert_eq!(nn.leap_horizon(), Some(9));
        nn.tick();
        assert_eq!(nn.leap_horizon(), None);
        // Staged mid-window: horizon is the next window start.
        nn.tick();
        nn.stage_injection(0, 4, 1, false);
        assert_eq!(nn.leap_horizon(), Some(18));
        nn.advance(7); // up to the latch tick exactly
        assert_eq!(nn.cycle().as_u64(), 18);
        for _ in 0..9 {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 2);
        assert_eq!(msg.count(0, 4), 1);
    }

    /// Overshooting the horizon would drop the window's publication (and
    /// the wake-all it triggers): it must fail at the leap, in every build.
    #[test]
    #[should_panic(expected = "overruns the publish tick")]
    fn live_advance_past_the_publish_tick_panics() {
        let mut nn = net(4); // window 9
        nn.stage_injection(0, 3, 1, false);
        nn.tick();
        assert_eq!(nn.leap_horizon(), Some(8));
        nn.advance(8); // from cycle 1: would skip the publish tick at 8
    }

    #[test]
    #[should_panic(expected = "crosses a latch tick with staged contributions")]
    fn advance_across_a_staged_latch_tick_panics() {
        let mut nn = net(4); // window 9
        nn.tick();
        nn.stage_injection(0, 3, 1, false);
        assert_eq!(nn.leap_horizon(), Some(9));
        nn.advance(9); // from cycle 1: would skip the latch tick at 9
    }

    #[test]
    fn quad_multi_plane_idle_planes_skip_word_groups_exactly() {
        // 4 planes, only planes 0 and 2 live: the idle planes' word groups
        // stay all-zero through the quad sweep at every router, and the
        // live ones carry exactly what was staged.
        let scheme = NotifyScheme::Quad { fanout: 2 };
        let (mut nn, mut gates) = both(&Mesh::new(6, 3, &[]), scheme, 4, 1);
        let staged = [(0, 0, 1, false), (2, 17, 1, true)];
        let msg = window_both_ways(&mut nn, &mut gates, &staged);
        assert_eq!(msg.count(0, 0), 1);
        assert_eq!(msg.count(2, 17), 1);
        assert!(!msg.stop(0) && msg.stop(2));
        assert_eq!(msg.total(), 2);
        assert_eq!(msg.total_in(1) + msg.total_in(3), 0);
    }

    #[test]
    fn per_plane_words_converge_independently() {
        let (mut nn, mut gates) = both(&Mesh::new(4, 4, &[]), NotifyScheme::Flat, 3, 1);
        assert_eq!(nn.planes(), 3);
        assert_eq!(nn.config().window, 9);
        // Same core announces on two planes; another core stops plane 2.
        // Every router latches the identical merged multi-plane word.
        let staged = [(0, 5, 1, false), (1, 5, 1, false), (2, 9, 0, true)];
        let msg = window_both_ways(&mut nn, &mut gates, &staged);
        assert_eq!(nn.latest().unwrap().0, 0);
        assert_eq!(msg.count(0, 5), 1);
        assert_eq!(msg.count(1, 5), 1);
        assert_eq!(msg.count(2, 5), 0);
        assert!(!msg.stop(0) && !msg.stop(1) && msg.stop(2));
    }
}
