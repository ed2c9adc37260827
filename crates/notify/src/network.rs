//! The bufferless bitwise-OR notification network (Figure 3).
//!
//! Each "router" is nothing but OR gates and latches: every cycle it merges
//! the messages latched by its neighbours with its own and latches the
//! result. Because merging never blocks, the network is contention-free and
//! its latency is bounded by the *topology diameter* — the notification
//! fabric mirrors whatever delivery fabric the main network runs on (mesh,
//! torus or ring), so low-diameter fabrics get proportionally shorter time
//! windows. Nodes inject only at window boundaries; by construction every
//! node holds the identical merged message at the end of the window, which
//! is the property global ordering rests on (asserted in debug builds).

use crate::message::NotifyMsg;
use scorpio_noc::{Port, RouterId, Topology};
use scorpio_sim::stats::Counter;
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
    pub fn propagation_cycles(self, topo: &Topology) -> u64 {
        match self {
            NotifyScheme::Flat => topo.diameter() as u64,
            NotifyScheme::Quad { fanout } => {
                assert!(fanout >= 2, "quad fanout must be at least 2");
                2 * quad_depth(topo.cols(), topo.rows(), fanout)
            }
        }
    }

    /// The notification window this scheme needs on `topo`: propagation
    /// cycles plus the same fixed merge margin the flat window uses, so
    /// `Flat` reproduces [`Topology::notification_window`] exactly.
    pub fn window_for(self, topo: &Topology) -> u64 {
        self.propagation_cycles(topo) + 3
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

/// The aggregation tree of the quad scheme. Level 0 is the router grid
/// itself (the `acc` latches); level `ℓ + 1` holds one aggregate word per
/// `fanout × fanout` block of level-`ℓ` nodes. A live window runs `depth`
/// up-steps (each clearing its target level, then OR-folding children into
/// parents) followed by `depth` down-steps (each child ORs its parent's
/// aggregate back in), after which every leaf holds the global OR — the
/// same convergence contract the flat mesh meets after `diameter` steps.
#[derive(Debug, Clone)]
struct QuadTree {
    /// `parent[l][i]`: index at level `l + 1` of node `i` at level `l`
    /// (`l` ranges over `0..depth`).
    parent: Vec<Vec<u32>>,
    /// `levels[l - 1]`: aggregate words of level `l` (`l` in `1..=depth`).
    levels: Vec<Vec<NotifyMsg>>,
    /// Tree height above the leaves.
    depth: u64,
}

impl QuadTree {
    /// Builds the tree over a `cols × rows` grid of routers indexed
    /// `y * cols + x`, with `blank` as the all-zero aggregate prototype.
    fn new(cols: u16, rows: u16, fanout: u8, blank: &NotifyMsg) -> QuadTree {
        let f = fanout as u32;
        let mut parent = Vec::new();
        let mut levels = Vec::new();
        let (mut c, mut r) = (cols as u32, rows as u32);
        while c > 1 || r > 1 {
            let (pc, pr) = (c.div_ceil(f), r.div_ceil(f));
            let mut map = Vec::with_capacity((c * r) as usize);
            for y in 0..r {
                for x in 0..c {
                    map.push((y / f) * pc + (x / f));
                }
            }
            parent.push(map);
            levels.push(vec![blank.clone(); (pc * pr) as usize]);
            (c, r) = (pc, pr);
        }
        let depth = levels.len() as u64;
        QuadTree {
            parent,
            levels,
            depth,
        }
    }

    /// Runs propagation step `t` (1-based within the window) for a live
    /// window: steps `1..=depth` fold upward, steps `depth+1..=2·depth`
    /// broadcast downward. `acc` is the leaf level; `mask` restricts the
    /// merges to the window's live planes.
    fn step(&mut self, t: u64, acc: &mut [NotifyMsg], mask: u64) {
        let d = self.depth;
        debug_assert!((1..=2 * d).contains(&t), "quad step {t} out of range");
        if t <= d {
            // Up: recompute level t from level t − 1. Clearing the target
            // level first makes stale aggregates from earlier windows
            // irrelevant — each live window rebuilds the levels it uses.
            let l = (t - 1) as usize;
            if l == 0 {
                for m in self.levels[0].iter_mut() {
                    m.clear();
                }
                for (i, src) in acc.iter().enumerate() {
                    self.levels[0][self.parent[0][i] as usize].merge_from_planes(src, mask);
                }
            } else {
                let (lo, hi) = self.levels.split_at_mut(l);
                let (src, dst) = (&lo[l - 1], &mut hi[0]);
                for m in dst.iter_mut() {
                    m.clear();
                }
                for (i, s) in src.iter().enumerate() {
                    dst[self.parent[l][i] as usize].merge_from_planes(s, mask);
                }
            }
        } else {
            // Down: level (depth − s) merges its parent's aggregate, which
            // already holds the global OR of everything latched this
            // window.
            let l = (d - (t - d)) as usize;
            if l == 0 {
                let src = &self.levels[0];
                for (i, m) in acc.iter_mut().enumerate() {
                    m.merge_from_planes(&src[self.parent[0][i] as usize], mask);
                }
            } else {
                let (lo, hi) = self.levels.split_at_mut(l);
                let (dst, src) = (&mut lo[l - 1], &hi[0]);
                for (i, m) in dst.iter_mut().enumerate() {
                    m.merge_from_planes(&src[self.parent[l][i] as usize], mask);
                }
            }
        }
    }
}

/// The notification network state.
///
/// Drive it with one [`NotifyNetwork::tick`] per system cycle. NICs stage
/// injections with [`NotifyNetwork::stage_injection`] (latched at the next
/// window start) and read finished windows via [`NotifyNetwork::latest`].
///
/// # Examples
///
/// ```
/// use scorpio_noc::Mesh;
/// use scorpio_notify::{NotifyConfig, NotifyNetwork};
///
/// let mesh = Mesh::scorpio_chip();
/// let mut nn = NotifyNetwork::new(&mesh, NotifyConfig::for_mesh(&mesh));
/// nn.stage_injection(7, 1, false);
/// for _ in 0..13 {
///     nn.tick();
/// }
/// let (window, msg) = nn.latest().expect("window 0 completed");
/// assert_eq!(window, 0);
/// assert_eq!(msg.count(7), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NotifyNetwork {
    cfg: NotifyConfig,
    /// Flattened neighbour lists (`adj[adj_idx[r]..adj_idx[r + 1]]`), one
    /// entry per physical link of the underlying topology — the OR-gate
    /// fan-in of each notification router.
    adj: Vec<u32>,
    adj_idx: Vec<u32>,
    /// The notification router each core's bit lane injects at — on a
    /// concentrated fabric several cores share one router (`tile_router[i]
    /// == i / c`); everywhere else it is the identity.
    tile_router: Vec<u32>,
    cycle: Cycle,
    /// Number of main-network planes the message word groups announce for.
    planes: usize,
    /// Latched value per router.
    acc: Vec<NotifyMsg>,
    scratch: Vec<NotifyMsg>,
    /// Contributions waiting for the next window start, one lane per
    /// (plane, core) pair (lane `p * cores + c`).
    pending: Vec<(u8, bool)>,
    /// Lanes with a staged contribution (indices into `pending`); lets a
    /// window start skip the all-lanes latch scan when nothing is staged.
    pending_dirty: Vec<usize>,
    /// Which planes the window in flight carries announcements for (bit
    /// `p` = plane `p`). An all-zero window needs no propagation, and a
    /// window live on a subset of planes merges only those planes' word
    /// groups — OR-merging an idle plane's all-zero group is the identity,
    /// so skipping it changes no latch value.
    live_planes: u64,
    /// Propagation steps per window: the topology diameter (flat) or
    /// `2 × tree depth` (quad). Convergence is reached after this many
    /// steps, after which further OR steps merge equal values and are
    /// skipped too.
    prop_cycles: u64,
    /// The aggregation scheme in use.
    scheme: NotifyScheme,
    /// The aggregation tree (quad scheme only).
    tree: Option<QuadTree>,
    /// Leaf-quad index of each router (`parent[0]` of the tree); a flat
    /// network is one region. This is the region map per-region event
    /// leaping keys its quiescence tracking on.
    region_of_router: Vec<u32>,
    /// Number of leaf quads (1 when flat).
    regions: usize,
    /// The merged message of the last completed window.
    latest: Option<(u64, NotifyMsg)>,
    /// Publish-tick cycles, recorded when enabled ([`NotifyNetwork::set_publish_log`]).
    /// Lives here rather than in the system layer because a single
    /// empty-window advance can complete several windows at once — an
    /// external observer polling `latest` would only see the last.
    publish_log: Option<Vec<u64>>,
    /// Completed windows so far.
    pub windows_completed: Counter,
    /// Completed windows that carried at least one announcement.
    pub nonempty_windows: Counter,
}

impl NotifyNetwork {
    /// Builds the notification network mirroring `fabric` — a
    /// [`Topology`] or a reference to one.
    ///
    /// # Panics
    ///
    /// Panics if the window is too short for worst-case propagation across
    /// the fabric, or if `cores` does not match its router count.
    pub fn new(fabric: impl Into<Topology>, cfg: NotifyConfig) -> Self {
        NotifyNetwork::with_planes(fabric, cfg, 1)
    }

    /// Builds a notification network whose messages carry one independent
    /// announcement word group per main-network plane — the multi-plane
    /// configuration. One physical OR-tree fabric propagates all planes'
    /// words together (they are just wider messages); each plane's
    /// ordering windows converge independently.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NotifyNetwork::new`], or if
    /// `planes` is 0 or greater than 64.
    pub fn with_planes(fabric: impl Into<Topology>, cfg: NotifyConfig, planes: usize) -> Self {
        NotifyNetwork::with_scheme(fabric, cfg, planes, NotifyScheme::Flat)
    }

    /// Builds a notification network using `scheme` for in-window
    /// propagation: [`NotifyScheme::Flat`] reproduces the chip's OR mesh
    /// bit-for-bit, [`NotifyScheme::Quad`] aggregates hierarchically so
    /// `cfg.window` may be as short as `2 · tree depth + 3`
    /// ([`NotifyScheme::window_for`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NotifyNetwork::with_planes`],
    /// or if the window is too short for the scheme's propagation cycles,
    /// or on a quad fanout below 2.
    pub fn with_scheme(
        fabric: impl Into<Topology>,
        cfg: NotifyConfig,
        planes: usize,
        scheme: NotifyScheme,
    ) -> Self {
        let topo: Topology = fabric.into();
        let prop_cycles = scheme.propagation_cycles(&topo);
        match scheme {
            NotifyScheme::Flat => assert!(
                cfg.window > prop_cycles,
                "window {} cannot cover topology diameter {}",
                cfg.window,
                prop_cycles
            ),
            NotifyScheme::Quad { .. } => assert!(
                cfg.window > prop_cycles,
                "window {} cannot cover the quad tree's {} up/down steps",
                cfg.window,
                prop_cycles
            ),
        }
        assert_eq!(cfg.cores, topo.tile_count(), "one bit-lane per tile");
        let tile_router: Vec<u32> = (0..cfg.cores)
            .map(|i| topo.tile_endpoint(i).router.0 as u32)
            .collect();
        // Flatten the neighbour lists: the OR-propagation step visits them
        // in router order, and a router's merge order is irrelevant (OR is
        // commutative), so mesh behavior is bit-identical to the old
        // hard-coded 4-neighbourhood loop.
        let mut adj = Vec::new();
        let mut adj_idx = Vec::with_capacity(topo.router_count() + 1);
        adj_idx.push(0u32);
        for r in topo.routers() {
            for port in [Port::North, Port::South, Port::East, Port::West] {
                if let Some(n) = topo.neighbor(r, port) {
                    // A 2-wide torus dimension wires both ports to the
                    // same neighbour; merging it twice is the identity,
                    // but dedup keeps the gate count honest.
                    if !adj[adj_idx[r.index()] as usize..].contains(&(n.0 as u32)) {
                        adj.push(n.0 as u32);
                    }
                }
            }
            adj_idx.push(adj.len() as u32);
        }
        let blank = NotifyMsg::with_planes(cfg.cores, cfg.bits_per_core, planes);
        let tree = match scheme {
            NotifyScheme::Flat => None,
            NotifyScheme::Quad { fanout } => {
                let (cols, rows) = (topo.cols(), topo.rows());
                Some(QuadTree::new(cols, rows, fanout, &blank))
            }
        };
        let (region_of_router, regions) = match &tree {
            Some(t) if t.depth > 0 => (t.parent[0].clone(), t.levels[0].len()),
            _ => (vec![0; topo.router_count()], 1),
        };
        NotifyNetwork {
            adj,
            adj_idx,
            tile_router,
            cycle: Cycle::ZERO,
            planes,
            acc: vec![blank.clone(); topo.router_count()],
            scratch: vec![blank; topo.router_count()],
            pending: vec![(0, false); planes * cfg.cores],
            pending_dirty: Vec::new(),
            live_planes: 0,
            prop_cycles,
            scheme,
            tree,
            region_of_router,
            regions,
            latest: None,
            publish_log: None,
            windows_completed: Counter::new(),
            nonempty_windows: Counter::new(),
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

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Whether `cycle` is a window-start boundary.
    pub fn is_window_start(&self, cycle: Cycle) -> bool {
        cycle.is_multiple_of(self.cfg.window)
    }

    /// Number of main-network planes the messages announce for.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// The propagation scheme in use.
    pub fn scheme(&self) -> NotifyScheme {
        self.scheme
    }

    /// Number of leaf quads of the aggregation tree — the regions
    /// per-region event leaping tracks quiescence over. 1 on a flat
    /// network (the whole machine is one region).
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// The leaf-quad index of router `r` (always 0 when [`NotifyNetwork::regions`]
    /// is 1).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn region_of_router(&self, r: usize) -> u32 {
        self.region_of_router[r]
    }

    /// Whether the window in flight carries any announcement.
    fn live(&self) -> bool {
        self.live_planes != 0
    }

    /// Stages core `core`'s plane-0 announcement for the next window
    /// start: `count` requests (saturating) and optionally the stop bit.
    /// Staging twice before a window start merges (max/OR semantics).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn stage_injection(&mut self, core: usize, count: u8, stop: bool) {
        self.stage_injection_in(0, core, count, stop);
    }

    /// Stages core `core`'s announcement for plane `plane` at the next
    /// window start (see [`NotifyNetwork::stage_injection`]).
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `core` is out of range.
    pub fn stage_injection_in(&mut self, plane: usize, core: usize, count: u8, stop: bool) {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(core < self.cfg.cores, "core {core} out of range");
        let max = (1u16 << self.cfg.bits_per_core) as u8 - 1;
        let lane = plane * self.cfg.cores + core;
        let entry = &mut self.pending[lane];
        if *entry == (0, false) && (count > 0 || stop) {
            self.pending_dirty.push(lane);
        }
        entry.0 = entry.0.max(count.min(max));
        entry.1 |= stop;
    }

    /// The merged message of the most recently completed window, with its
    /// index. `None` until the first window completes.
    pub fn latest(&self) -> Option<(u64, &NotifyMsg)> {
        self.latest.as_ref().map(|(w, m)| (*w, m))
    }

    /// The value currently latched at `router` (for inspection/tests).
    pub fn latched_at(&self, router: RouterId) -> &NotifyMsg {
        &self.acc[router.index()]
    }

    /// Advances one cycle: window-start injection, one OR-propagation step,
    /// and window-end completion.
    ///
    /// Two exact shortcuts keep an idle notification mesh O(1) per cycle:
    /// a window nobody injected into stays all-zero (OR with zero is the
    /// identity), and a live window stops propagating once every router
    /// provably holds the global OR — after `diameter` steps — since
    /// merging equal values changes nothing. Neither shortcut alters any
    /// latch value a NIC could observe.
    pub fn tick(&mut self) {
        let w = self.cfg.window;
        let in_window = self.cycle.as_u64() % w;

        if in_window == 0 {
            // Window start: latch pending contributions as fresh values.
            // Only a live window leaves nonzero latches to clear, and only
            // staged cores latch anything.
            if self.live() {
                for msg in self.acc.iter_mut() {
                    msg.clear();
                }
                self.live_planes = 0;
            }
            for k in 0..self.pending_dirty.len() {
                let lane = self.pending_dirty[k];
                let (plane, core) = (lane / self.cfg.cores, lane % self.cfg.cores);
                let (count, stop) = std::mem::take(&mut self.pending[lane]);
                // Latch at the router hosting this core's tile; the lane
                // inside the message stays the core number.
                let msg = &mut self.acc[self.tile_router[core] as usize];
                if count > 0 {
                    msg.set_count_in(plane, core, count);
                }
                if stop {
                    msg.set_stop_in(plane, true);
                }
                self.live_planes |= 1 << plane;
            }
            self.pending_dirty.clear();
        } else if self.live() && in_window <= self.prop_cycles {
            let mask = self.live_planes;
            match &mut self.tree {
                // One flat propagation step: each router ORs its
                // neighbours' latched values into its own (two-phase via
                // scratch, buffers reused). Neighbour sets come from the
                // precomputed adjacency of the underlying topology, so the
                // same loop serves mesh, torus and ring fabrics. Only live
                // planes' word groups are merged — an idle plane's group
                // is all-zero everywhere, so skipping it is exact.
                None => {
                    for idx in 0..self.acc.len() {
                        self.scratch[idx].copy_from(&self.acc[idx]);
                        let merged = &mut self.scratch[idx];
                        let (lo, hi) = (self.adj_idx[idx] as usize, self.adj_idx[idx + 1] as usize);
                        for &nb in &self.adj[lo..hi] {
                            merged.merge_from_planes(&self.acc[nb as usize], mask);
                        }
                    }
                    std::mem::swap(&mut self.acc, &mut self.scratch);
                }
                // One quad-tree step: up-fold for the first `depth` steps,
                // down-broadcast for the next `depth`.
                Some(tree) => tree.step(in_window, &mut self.acc, mask),
            }
        }

        if in_window == w - 1 {
            // Window end: every node now holds the global OR.
            debug_assert!(
                self.acc.iter().all(|m| *m == self.acc[0]),
                "notification network failed to converge within the window"
            );
            let window_index = self.cycle.as_u64() / w;
            if let Some(log) = &mut self.publish_log {
                log.push(self.cycle.as_u64());
            }
            self.windows_completed.incr();
            if self.live() {
                self.nonempty_windows.incr();
            }
            match &mut self.latest {
                Some((idx, msg)) => {
                    *idx = window_index;
                    msg.copy_from(&self.acc[0]);
                }
                None => self.latest = Some((window_index, self.acc[0].clone())),
            }
        }
        self.cycle = self.cycle.next();
    }

    /// The port fan-in of a notification router (for the physical model):
    /// 4 neighbour inputs + local, merged by five OR gates per Figure 3.
    /// (Concentration does not add gates: co-hosted cores share the local
    /// input, their contributions having been ORed at the latch.)
    pub fn router_or_gate_count() -> usize {
        5
    }

    /// Whether every remaining tick is a pure window-bookkeeping no-op:
    /// nothing is staged for the next window and the window in flight (if
    /// any) carries nothing. Note that `live` stays set from a window's
    /// end until the *next* window-start tick clears the latches, so a
    /// network is idle-leapable at the earliest one cycle into the window
    /// after its last live one.
    pub fn is_idle(&self) -> bool {
        !self.live() && self.pending_dirty.is_empty()
    }

    /// Advances `delta` cycles at once, reproducing exactly what `delta`
    /// consecutive [`NotifyNetwork::tick`] calls would do on an idle
    /// network: every window boundary crossed completes an empty window
    /// (counted, and published as the blank `latest` message with the
    /// right window index — `acc[0]` is all-zero whenever the network is
    /// idle). Latches, liveness and staging are untouched.
    ///
    /// # Panics
    ///
    /// Debug-asserts [`NotifyNetwork::is_idle`]; leaping a live network
    /// would skip real propagation steps.
    pub fn advance_idle(&mut self, delta: u64) {
        debug_assert!(self.is_idle(), "idle-advance on a live notify network");
        self.advance_empty(delta);
    }

    /// The idle-advance body, shared with [`NotifyNetwork::advance`]
    /// (which also admits staged-but-unlatched contributions, provided no
    /// window start is crossed).
    fn advance_empty(&mut self, delta: u64) {
        let w = self.cfg.window;
        let start = self.cycle.as_u64();
        let end = start + delta;
        // Cycles c in [start, end) with c % w == w - 1 complete a window.
        let completed = end / w - start / w;
        if let Some(log) = &mut self.publish_log {
            // The first publish tick at or after `start`.
            let mut c = start + (w - 1 - start % w);
            while c < end {
                log.push(c);
                c += w;
            }
        }
        if completed > 0 {
            self.windows_completed.add(completed);
            let window_index = end / w - 1;
            match &mut self.latest {
                Some((idx, msg)) => {
                    *idx = window_index;
                    msg.copy_from(&self.acc[0]);
                }
                None => self.latest = Some((window_index, self.acc[0].clone())),
            }
        }
        self.cycle += delta;
    }

    /// The farthest cycle the event-leaping clock may advance this network
    /// *to* (the tick at the returned cycle still executes normally), or
    /// `None` when nothing constrains the leap:
    ///
    /// * A live window's horizon is its publish tick (`window start +
    ///   window − 1`): the intermediate propagation steps are replaced
    ///   exactly by [`NotifyNetwork::advance`], but the publish tick — the
    ///   only tick a NIC can observe, via [`NotifyNetwork::latest`] — must
    ///   execute, because it wakes every endpoint.
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
        if self.live() {
            if now.is_multiple_of(w) {
                // The window-start clear (and possibly a relatch) must run.
                Some(now)
            } else {
                Some(now - now % w + w - 1)
            }
        } else if !self.pending_dirty.is_empty() {
            if now.is_multiple_of(w) {
                Some(now)
            } else {
                Some(now - now % w + w)
            }
        } else {
            None
        }
    }

    /// Advances `delta` cycles at once from any state the event-leaping
    /// clock is allowed to leap over — the caller must not advance past
    /// [`NotifyNetwork::leap_horizon`]. On an idle network this is
    /// [`NotifyNetwork::advance_idle`]; on a live window it replaces the
    /// skipped propagation steps by setting every node to the global OR
    /// directly, which is exact: propagation only spreads latched bits, so
    /// the OR over all latches is invariant from the latch tick onward and
    /// equals the value the publish tick would have converged to.
    ///
    /// # Panics
    ///
    /// Debug-asserts the horizon contract: a live advance must stay inside
    /// the current window (end ≤ publish tick), a staged-pending advance
    /// must not cross the next window start.
    pub fn advance(&mut self, delta: u64) {
        let w = self.cfg.window;
        let start = self.cycle.as_u64();
        if self.live() {
            debug_assert!(
                !start.is_multiple_of(w),
                "cannot leap over a window-start tick"
            );
            debug_assert!(
                start + delta < start - start % w + w,
                "live advance of {delta} from {start} overruns the publish tick"
            );
            // Fold the global OR into acc[0], then fan it back out to every
            // node — leaves and tree levels alike — so any remaining
            // stepped propagation (and the publish-tick convergence
            // assert) sees the converged state.
            for i in 1..self.acc.len() {
                let (head, tail) = self.acc.split_at_mut(i);
                head[0].merge_from(&tail[0]);
            }
            for i in 1..self.acc.len() {
                let (head, tail) = self.acc.split_at_mut(i);
                tail[0].copy_from(&head[0]);
            }
            if let Some(tree) = &mut self.tree {
                for level in tree.levels.iter_mut() {
                    for m in level.iter_mut() {
                        m.copy_from(&self.acc[0]);
                    }
                }
            }
            self.cycle += delta;
        } else {
            debug_assert!(
                self.pending_dirty.is_empty() || {
                    let next_start = if start.is_multiple_of(w) {
                        start
                    } else {
                        start - start % w + w
                    };
                    start + delta <= next_start
                },
                "advance of {delta} from {start} crosses a latch tick with staged contributions"
            );
            self.advance_empty(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio_noc::Mesh;

    fn net(k: u16) -> NotifyNetwork {
        let mesh = Mesh::new(k, k, &[]);
        NotifyNetwork::new(&mesh, NotifyConfig::for_mesh(&mesh))
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
        let mut nn = net(6);
        nn.stage_injection(0, 1, false);
        for _ in 0..13 {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 0);
        assert_eq!(msg.count(0), 1);
        assert_eq!(msg.total(), 1);
        // Every router's latch agrees.
        for r in 0..36u16 {
            assert_eq!(nn.latched_at(RouterId(r)).count(0), 1);
        }
    }

    #[test]
    fn corner_to_corner_injections_converge() {
        let mut nn = net(6);
        nn.stage_injection(0, 1, false);
        nn.stage_injection(35, 1, false);
        for _ in 0..13 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count(0), 1);
        assert_eq!(msg.count(35), 1);
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn mid_window_injection_waits_for_next_window() {
        let mut nn = net(4); // window 9
        for _ in 0..3 {
            nn.tick();
        }
        nn.stage_injection(5, 1, false);
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
        assert_eq!(msg1.count(5), 1);
    }

    #[test]
    fn stop_bit_propagates() {
        let mut nn = net(4);
        nn.stage_injection(3, 0, true);
        nn.stage_injection(7, 1, false);
        for _ in 0..9 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert!(msg.stop());
        assert_eq!(msg.count(7), 1);
    }

    #[test]
    fn multi_bit_counts_survive_merging() {
        let mesh = Mesh::new(4, 4, &[]);
        let mut nn = NotifyNetwork::new(
            &mesh,
            NotifyConfig {
                cores: 16,
                bits_per_core: 2,
                window: mesh.notification_window(),
            },
        );
        nn.stage_injection(2, 3, false);
        nn.stage_injection(9, 2, false);
        nn.stage_injection(9, 1, false); // merges to max(2,1)=2
        for _ in 0..9 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count(2), 3);
        assert_eq!(msg.count(9), 2);
    }

    #[test]
    fn empty_windows_complete_too() {
        let mut nn = net(4);
        for _ in 0..27 {
            nn.tick();
        }
        assert_eq!(nn.windows_completed.get(), 3);
        assert_eq!(nn.nonempty_windows.get(), 0);
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 2);
        assert!(msg.is_empty());
    }

    /// `advance_idle(d)` must leave the network in exactly the state `d`
    /// ticks would — from any in-window offset, across any number of
    /// window boundaries, before and after live traffic.
    #[test]
    fn advance_idle_matches_ticked_reference() {
        for warmup in [0u64, 1, 3, 8, 9] {
            for delta in [1u64, 2, 8, 9, 10, 26, 27, 40] {
                let mut ticked = net(4); // window 9
                let mut leaped = net(4);
                for _ in 0..warmup {
                    ticked.tick();
                    leaped.tick();
                }
                assert!(leaped.is_idle());
                for _ in 0..delta {
                    ticked.tick();
                }
                leaped.advance_idle(delta);
                assert_eq!(
                    ticked.windows_completed.get(),
                    leaped.windows_completed.get()
                );
                assert_eq!(ticked.nonempty_windows.get(), leaped.nonempty_windows.get());
                assert_eq!(
                    ticked.latest().map(|(w, m)| (w, m.clone())),
                    leaped.latest().map(|(w, m)| (w, m.clone())),
                    "latest diverged at warmup {warmup} delta {delta}"
                );
                // Subsequent live traffic behaves identically.
                ticked.stage_injection(5, 1, false);
                leaped.stage_injection(5, 1, false);
                for _ in 0..18 {
                    ticked.tick();
                    leaped.tick();
                }
                assert_eq!(
                    ticked.latest().map(|(w, m)| (w, m.clone())),
                    leaped.latest().map(|(w, m)| (w, m.clone()))
                );
            }
        }
    }

    /// A network is not idle-leapable between a live window's end and the
    /// next window start (the latch clear has not happened yet).
    #[test]
    fn live_window_blocks_idle_until_next_window_start() {
        let mut nn = net(4); // window 9
        nn.stage_injection(0, 1, false);
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
        let mut nn = NotifyNetwork::new(&mesh, NotifyConfig::for_mesh(&mesh));
        nn.stage_injection(0, 1, false);
        nn.stage_injection(15, 1, false);
        let w = mesh.notification_window();
        for _ in 0..w {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.total(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot cover topology diameter")]
    fn too_short_window_panics() {
        let mesh = Mesh::new(6, 6, &[]);
        let _ = NotifyNetwork::new(
            &mesh,
            NotifyConfig {
                cores: 36,
                bits_per_core: 1,
                window: 5,
            },
        );
    }

    #[test]
    fn torus_window_is_tighter_and_converges() {
        use scorpio_noc::{Topology, Torus};
        let topo: Topology = Torus::square_with_corner_mcs(6);
        let cfg = NotifyConfig::for_mesh(&topo);
        // Torus diameter 6 vs mesh 10: window 9 vs the chip's 13.
        assert_eq!(cfg.window, 9);
        let mut nn = NotifyNetwork::new(&topo, cfg);
        nn.stage_injection(0, 1, false);
        nn.stage_injection(35, 1, false);
        for _ in 0..9 {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.total(), 2);
        for r in 0..36u16 {
            assert_eq!(nn.latched_at(RouterId(r)).count(0), 1);
        }
    }

    #[test]
    fn ring_converges_within_its_half_circumference_window() {
        use scorpio_noc::{Ring, Topology};
        let topo: Topology = Ring::with_spread_mcs(16, 4);
        let cfg = NotifyConfig::for_mesh(&topo);
        assert_eq!(cfg.window, 8 + 3);
        let mut nn = NotifyNetwork::new(&topo, cfg.clone());
        nn.stage_injection(0, 1, false);
        nn.stage_injection(8, 1, false); // antipodal
        for _ in 0..cfg.window {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn two_wide_torus_dimension_dedups_or_inputs() {
        use scorpio_noc::Torus;
        // cols = 2: East and West reach the same neighbour; the OR fan-in
        // must still converge (merging a value twice is the identity).
        let t = Torus::new(2, 4, &[]);
        let cfg = NotifyConfig::for_mesh(&t);
        let mut nn = NotifyNetwork::new(&t, cfg);
        nn.stage_injection(7, 1, false);
        for _ in 0..nn.config().window {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count(7), 1);
    }

    #[test]
    fn or_gate_count_matches_figure3() {
        assert_eq!(NotifyNetwork::router_or_gate_count(), 5);
    }

    #[test]
    fn cmesh_lanes_share_routers_and_converge_in_the_smaller_window() {
        use scorpio_noc::{CMesh, Topology};
        // 16 cores as a 4x2 router grid x 2 tiles: diameter 4, window 7 —
        // tighter than the 4x4 mesh's 9 at the same core count.
        let topo: Topology = CMesh::with_corner_mcs(4, 2, 2);
        let cfg = NotifyConfig::for_mesh(&topo);
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.window, 7);
        let mut nn = NotifyNetwork::new(&topo, cfg.clone());
        // Cores 0 and 1 share router 0; core 15 sits at router 7.
        nn.stage_injection(0, 1, false);
        nn.stage_injection(1, 1, false);
        nn.stage_injection(15, 0, true);
        for _ in 0..cfg.window {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 0);
        assert_eq!(msg.count(0), 1);
        assert_eq!(msg.count(1), 1);
        assert_eq!(msg.total(), 2);
        assert!(msg.stop());
        // Every *router* latched the identical merged word.
        for r in 0..8u16 {
            assert_eq!(nn.latched_at(RouterId(r)).total(), 2);
        }
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
        let mesh = Mesh::new(cols, rows, &[]);
        let scheme = NotifyScheme::Quad { fanout };
        let cfg = NotifyConfig {
            cores: mesh.tile_count(),
            bits_per_core: 1,
            window: scheme.window_for(&mesh),
        };
        NotifyNetwork::with_scheme(&mesh, cfg, planes, scheme)
    }

    #[test]
    fn quad_corner_injections_converge_in_the_log_window() {
        let mut nn = quad_net(8, 8, 2, 1); // depth 3, window 9 (flat: 17)
        assert_eq!(nn.config().window, 9);
        nn.stage_injection(0, 1, false);
        nn.stage_injection(63, 1, false);
        for _ in 0..9 {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 0);
        assert_eq!(msg.count(0), 1);
        assert_eq!(msg.count(63), 1);
        assert_eq!(msg.total(), 2);
        for r in 0..64u16 {
            assert_eq!(nn.latched_at(RouterId(r)).total(), 2);
        }
    }

    #[test]
    fn quad_regions_partition_the_grid_into_leaf_quads() {
        let nn = quad_net(8, 8, 4, 1);
        // 8×8 at fanout 4 → 2×2 leaf quads of 4×4 routers.
        assert_eq!(nn.regions(), 4);
        assert_eq!(nn.region_of_router(0), 0); // (0,0)
        assert_eq!(nn.region_of_router(7), 1); // (7,0)
        assert_eq!(nn.region_of_router(8 * 7), 2); // (0,7)
        assert_eq!(nn.region_of_router(8 * 7 + 7), 3); // (7,7)
                                                       // A flat network is a single region.
        let flat = net(4);
        assert_eq!(flat.regions(), 1);
        assert_eq!(flat.region_of_router(13), 0);
    }

    /// Satellite proptest (hand-rolled off SimRng — the workspace carries
    /// no external crates): for random announcement patterns over random
    /// non-square grids, the quad window's published merge must equal the
    /// flat window's, plane for plane, stop bits included.
    #[test]
    fn quad_published_merge_equals_flat_for_random_patterns() {
        use scorpio_sim::SimRng;
        let mut rng = SimRng::seed_from(0x5c0_2b10);
        for trial in 0..60 {
            let cols = 1 + rng.gen_range_usize(9) as u16;
            let rows = 1 + rng.gen_range_usize(9) as u16;
            let fanout = if rng.chance(0.5) { 2 } else { 4 };
            let planes = if rng.chance(0.5) { 1 } else { 4 };
            let mesh = Mesh::new(cols, rows, &[]);
            let cores = mesh.tile_count();
            let scheme = NotifyScheme::Quad { fanout };
            let mut flat = NotifyNetwork::with_planes(&mesh, NotifyConfig::for_mesh(&mesh), planes);
            let mut quad = NotifyNetwork::with_scheme(
                &mesh,
                NotifyConfig {
                    cores,
                    bits_per_core: 1,
                    window: scheme.window_for(&mesh),
                },
                planes,
                scheme,
            );
            // Two windows of random announcements (the second exercises
            // latch clearing over stale tree levels).
            for _ in 0..2 {
                for core in 0..cores {
                    for plane in 0..planes {
                        if rng.chance(0.2) {
                            let stop = rng.chance(0.1);
                            flat.stage_injection_in(plane, core, 1, stop);
                            quad.stage_injection_in(plane, core, 1, stop);
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
                        nn.stage_injection(0, 1, false);
                        nn.stage_injection(5, 1, true);
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
                    assert_eq!(
                        ticked.windows_completed.get(),
                        leaped.windows_completed.get()
                    );
                    assert_eq!(ticked.nonempty_windows.get(), leaped.nonempty_windows.get());
                }
            }
        }
    }

    #[test]
    fn leap_horizon_tracks_window_state() {
        let mut nn = net(4); // window 9
        assert_eq!(nn.leap_horizon(), None, "idle network is unconstrained");
        nn.stage_injection(3, 1, false);
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
        nn.stage_injection(4, 1, false);
        assert_eq!(nn.leap_horizon(), Some(18));
        nn.advance(7); // up to the latch tick exactly
        assert_eq!(nn.cycle().as_u64(), 18);
        for _ in 0..9 {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 2);
        assert_eq!(msg.count(4), 1);
    }

    #[test]
    fn quad_multi_plane_idle_planes_skip_word_groups_exactly() {
        // 4 planes, only planes 0 and 2 live: published merge must match a
        // reference where every plane is merged unconditionally (the
        // pre-mask behavior), i.e. masking is invisible.
        let mut nn = quad_net(6, 3, 2, 4);
        nn.stage_injection_in(0, 0, 1, false);
        nn.stage_injection_in(2, 17, 1, true);
        for _ in 0..nn.config().window {
            nn.tick();
        }
        let (_, msg) = nn.latest().unwrap();
        assert_eq!(msg.count_in(0, 0), 1);
        assert_eq!(msg.count_in(2, 17), 1);
        assert!(!msg.stop_in(0) && msg.stop_in(2));
        assert_eq!(msg.total(), 2);
    }

    #[test]
    fn per_plane_words_converge_independently() {
        let mesh = Mesh::new(4, 4, &[]);
        let mut nn = NotifyNetwork::with_planes(&mesh, NotifyConfig::for_mesh(&mesh), 3);
        assert_eq!(nn.planes(), 3);
        // Same core announces on two planes; another core stops plane 2.
        nn.stage_injection_in(0, 5, 1, false);
        nn.stage_injection_in(1, 5, 1, false);
        nn.stage_injection_in(2, 9, 0, true);
        for _ in 0..9 {
            nn.tick();
        }
        let (w, msg) = nn.latest().unwrap();
        assert_eq!(w, 0);
        assert_eq!(msg.count_in(0, 5), 1);
        assert_eq!(msg.count_in(1, 5), 1);
        assert_eq!(msg.count_in(2, 5), 0);
        assert!(!msg.stop_in(0) && !msg.stop_in(1) && msg.stop_in(2));
        // Every router latched the identical merged multi-plane word.
        for r in 0..16u16 {
            assert_eq!(nn.latched_at(RouterId(r)).count_in(1, 5), 1);
        }
    }
}
