//! Topologies: routers, coordinates, ports, endpoints — and the three
//! delivery fabrics ([`Mesh`], [`Torus`], [`Ring`]) behind the
//! [`Topology`] interface.
//!
//! SCORPIO's central idea is that message *ordering* is decoupled from
//! message *delivery*, so the delivery fabric is swappable: anything that
//! can broadcast to every endpoint exactly once and unicast responses can
//! carry the ordered protocol. Each topology supplies its routing *spec*
//! — [`Topology::unicast_port`] and [`Topology::broadcast_ports`] — which
//! the network compiles into per-router lookup tables at construction
//! time (see `tables.rs`); the per-flit hot path never runs coordinate
//! arithmetic.

use std::fmt;

/// Identifies a router in the mesh by linear index (row-major).
///
/// In the 36-core SCORPIO chip this is also the tile number (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u16);

impl RouterId {
    /// The linear index as `usize` for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A mesh coordinate: `x` grows eastward, `y` grows southward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..cols`, west to east.
    pub x: u16,
    /// Row, `0..rows`, north to south.
    pub y: u16,
}

/// One of the (up to) nine ports of a SCORPIO router.
///
/// The four cardinal ports connect to neighbouring routers; the tile ports
/// connect to the network interface controllers of the tiles the router
/// hosts, and `Mc` is the extra local port present on the edge routers
/// that host a memory-controller attachment (Section 4 of the paper).
///
/// On the chip's fabrics every router hosts exactly one tile, so only
/// `Tile` (slot 0) exists. A *concentrated* mesh attaches up to
/// [`Port::MAX_TILE_SLOTS`] tiles per router through the additional
/// `Tile1`..`Tile3` ports — the radix increase that buys CMesh its halved
/// diameter. The extra tile ports are appended *after* `Mc` in index order
/// so that every single-tile fabric sees the identical six-port router it
/// always had (same indices, same arbitration order, same tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Toward the router at `y - 1`.
    North,
    /// Toward the router at `y + 1`.
    South,
    /// Toward the router at `x + 1`.
    East,
    /// Toward the router at `x - 1`.
    West,
    /// The tile-NIC local port of tile slot 0.
    Tile,
    /// The memory-controller local port (only on MC-hosting routers).
    Mc,
    /// Tile slot 1 (concentrated fabrics only).
    Tile1,
    /// Tile slot 2 (concentrated fabrics only).
    Tile2,
    /// Tile slot 3 (concentrated fabrics only).
    Tile3,
}

impl Port {
    /// Number of distinct ports.
    pub const COUNT: usize = 9;

    /// Maximum tiles one router can host (tile slots `0..4`).
    pub const MAX_TILE_SLOTS: u8 = 4;

    /// All ports, in index order. The first six entries are exactly the
    /// historical single-tile port set, in its historical order.
    pub const ALL: [Port; Port::COUNT] = [
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::Tile,
        Port::Mc,
        Port::Tile1,
        Port::Tile2,
        Port::Tile3,
    ];

    /// Dense index in `0..Port::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::South => 1,
            Port::East => 2,
            Port::West => 3,
            Port::Tile => 4,
            Port::Mc => 5,
            Port::Tile1 => 6,
            Port::Tile2 => 7,
            Port::Tile3 => 8,
        }
    }

    /// The tile port of local slot `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= Port::MAX_TILE_SLOTS`.
    #[inline]
    pub fn tile_slot(k: u8) -> Port {
        match k {
            0 => Port::Tile,
            1 => Port::Tile1,
            2 => Port::Tile2,
            3 => Port::Tile3,
            _ => panic!("tile slot {k} out of range"),
        }
    }

    /// The tile slot this port serves, if it is a tile port.
    #[inline]
    pub fn tile_index(self) -> Option<u8> {
        match self {
            Port::Tile => Some(0),
            Port::Tile1 => Some(1),
            Port::Tile2 => Some(2),
            Port::Tile3 => Some(3),
            _ => None,
        }
    }

    /// The port a neighbouring router receives this router's output on.
    ///
    /// # Panics
    ///
    /// Panics for the local ports (tiles and `Mc`), which have no opposite.
    #[inline]
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::South => Port::North,
            Port::East => Port::West,
            Port::West => Port::East,
            _ => panic!("local ports have no opposite"),
        }
    }

    /// Whether this is one of the local (non-mesh) ports.
    #[inline]
    pub fn is_local(self) -> bool {
        !matches!(self, Port::North | Port::South | Port::East | Port::West)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::South => "S",
            Port::East => "E",
            Port::West => "W",
            Port::Tile => "tile",
            Port::Mc => "mc",
            Port::Tile1 => "tile1",
            Port::Tile2 => "tile2",
            Port::Tile3 => "tile3",
        };
        f.write_str(s)
    }
}

/// A set of [`Port`]s, stored as a bitmask.
///
/// Used for multicast output sets: a broadcast flit forks through several
/// output ports in a single cycle (Section 3.2, "single-cycle broadcast
/// optimization").
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Port, PortMask};
///
/// let mut m = PortMask::EMPTY;
/// m.insert(Port::East);
/// m.insert(Port::Tile);
/// assert!(m.contains(Port::East));
/// assert_eq!(m.len(), 2);
/// m.remove(Port::East);
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![Port::Tile]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortMask(u16);

impl PortMask {
    /// The empty set.
    pub const EMPTY: PortMask = PortMask(0);

    /// The four mesh-facing ports (the ones dateline classes apply to).
    pub(crate) const CARDINAL: PortMask = PortMask(0b1111);

    /// A set containing a single port.
    #[inline]
    pub fn single(port: Port) -> PortMask {
        PortMask(1 << port.index())
    }

    /// Adds `port` to the set.
    #[inline]
    pub fn insert(&mut self, port: Port) {
        self.0 |= 1 << port.index();
    }

    /// Removes `port` from the set.
    #[inline]
    pub fn remove(&mut self, port: Port) {
        self.0 &= !(1 << port.index());
    }

    /// Whether `port` is in the set.
    #[inline]
    pub fn contains(self, port: Port) -> bool {
        self.0 & (1 << port.index()) != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of ports in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the ports in the set in index order.
    pub fn iter(self) -> impl Iterator<Item = Port> {
        crate::arbiter::set_bits(u32::from(self.0)).map(|i| Port::ALL[i])
    }

    /// Adds `port` when `member` holds, removes it otherwise.
    #[inline]
    pub(crate) fn set(&mut self, port: Port, member: bool) {
        self.remove(port);
        self.0 |= u16::from(member) << port.index();
    }

    /// The raw bit representation (bit `i` = `Port::ALL[i]`).
    #[inline]
    pub(crate) fn bits(self) -> u16 {
        self.0
    }

    /// Rebuilds a mask from its raw bits.
    #[inline]
    pub(crate) fn from_bits(bits: u16) -> PortMask {
        PortMask(bits)
    }
}

impl std::ops::BitAnd for PortMask {
    type Output = PortMask;
    /// Set intersection.
    #[inline]
    fn bitand(self, other: PortMask) -> PortMask {
        PortMask(self.0 & other.0)
    }
}

impl std::ops::BitOr for PortMask {
    type Output = PortMask;
    /// Set union.
    #[inline]
    fn bitor(self, other: PortMask) -> PortMask {
        PortMask(self.0 | other.0)
    }
}

impl std::ops::Sub for PortMask {
    type Output = PortMask;
    /// Set difference.
    #[inline]
    fn sub(self, other: PortMask) -> PortMask {
        PortMask(self.0 & !other.0)
    }
}

/// Which local attachment of a router an endpoint refers to.
///
/// Every fabric addresses its local attachments through this type; on the
/// chip's single-tile fabrics the only tile slot is `Tile(0)`, while a
/// concentrated mesh hosts `Tile(0)..Tile(c-1)` behind one router. The
/// slot is the *normal path* of endpoint indexing, not a special case:
/// tile endpoint `i` of any topology is `(router i / c, Tile(i % c))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocalSlot {
    /// Tile NIC attachment `k` of the router (core + caches).
    Tile(u8),
    /// The memory-controller NIC.
    Mc,
}

impl LocalSlot {
    /// The router output port that reaches this slot.
    #[inline]
    pub fn port(self) -> Port {
        match self {
            LocalSlot::Tile(k) => Port::tile_slot(k),
            LocalSlot::Mc => Port::Mc,
        }
    }

    /// Whether this is a tile attachment.
    #[inline]
    pub fn is_tile(self) -> bool {
        matches!(self, LocalSlot::Tile(_))
    }

    /// Whether this is the memory-controller attachment.
    #[inline]
    pub fn is_mc(self) -> bool {
        matches!(self, LocalSlot::Mc)
    }
}

/// A network endpoint: a (router, local slot) pair.
///
/// Tiles and memory-controller ports are both endpoints; coherence-request
/// broadcasts are delivered to every endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The router this endpoint attaches to.
    pub router: RouterId,
    /// Which local port of the router.
    pub slot: LocalSlot,
}

impl Endpoint {
    /// The slot-0 tile endpoint of router `r` — the only tile endpoint of
    /// an unconcentrated router.
    pub fn tile(r: RouterId) -> Endpoint {
        Endpoint {
            router: r,
            slot: LocalSlot::Tile(0),
        }
    }

    /// Tile endpoint `k` of router `r` (concentrated fabrics).
    pub fn tile_slot(r: RouterId, k: u8) -> Endpoint {
        Endpoint {
            router: r,
            slot: LocalSlot::Tile(k),
        }
    }

    /// The memory-controller endpoint of router `r`.
    pub fn mc(r: RouterId) -> Endpoint {
        Endpoint {
            router: r,
            slot: LocalSlot::Mc,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.slot {
            LocalSlot::Tile(0) => write!(f, "tile@{}", self.router),
            LocalSlot::Tile(k) => write!(f, "tile.{k}@{}", self.router),
            LocalSlot::Mc => write!(f, "mc@{}", self.router),
        }
    }
}

/// A 2-D mesh: dimensions plus the set of routers hosting MC ports.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Mesh, RouterId};
///
/// let mesh = Mesh::new(6, 6, &[RouterId(0), RouterId(5), RouterId(30), RouterId(35)]);
/// assert_eq!(mesh.router_count(), 36);
/// let c = mesh.coord(RouterId(7));
/// assert_eq!((c.x, c.y), (1, 1));
/// assert!(mesh.has_mc(RouterId(5)));
/// assert_eq!(mesh.endpoints().count(), 40); // 36 tiles + 4 MC ports
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    cols: u16,
    rows: u16,
    mc_routers: Vec<RouterId>,
}

impl Mesh {
    /// Creates a `cols × rows` mesh with MC ports on `mc_routers`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if an MC router is out of range,
    /// or if the same router is listed twice.
    pub fn new(cols: u16, rows: u16, mc_routers: &[RouterId]) -> Mesh {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        let count = cols as usize * rows as usize;
        let mut sorted = mc_routers.to_vec();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(pair[0] != pair[1], "duplicate MC router {}", pair[0]);
        }
        for r in &sorted {
            assert!(r.index() < count, "MC router {} out of range", r);
        }
        Mesh {
            cols,
            rows,
            mc_routers: sorted,
        }
    }

    /// The SCORPIO 36-core chip arrangement: 6×6 mesh, two dual-port memory
    /// controllers attached to the four corner routers.
    pub fn scorpio_chip() -> Mesh {
        Mesh::new(
            6,
            6,
            &[RouterId(0), RouterId(5), RouterId(30), RouterId(35)],
        )
    }

    /// A square `k × k` mesh with MC ports on the four corners.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn square_with_corner_mcs(k: u16) -> Mesh {
        assert!(k > 0, "mesh dimension must be non-zero");
        if k == 1 {
            return Mesh::new(1, 1, &[RouterId(0)]);
        }
        let corners = [
            RouterId(0),
            RouterId(k - 1),
            RouterId(k * (k - 1)),
            RouterId(k * k - 1),
        ];
        Mesh::new(k, k, &corners)
    }

    /// A square `k × k` mesh with memory-controller ports scaled to the
    /// core count: one MC per 16 tiles (at least the chip's 4), spread
    /// evenly along the perimeter. Four corner MCs serve 36 cores fine,
    /// but at 16×16 they would starve 256 cores of memory bandwidth and
    /// melt the corner routers; the paper's scaling argument (Section 5.3)
    /// assumes bandwidth grows with the machine. For `k ≤ 8` the placement
    /// coincides with [`Mesh::square_with_corner_mcs`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn square_with_proportional_mcs(k: u16) -> Mesh {
        assert!(k > 0, "mesh dimension must be non-zero");
        if k == 1 {
            return Mesh::new(1, 1, &[RouterId(0)]);
        }
        // Perimeter routers in clockwise order from the north-west corner;
        // evenly spaced picks land on the four corners when n == 4.
        let last = k - 1;
        let mut perimeter: Vec<RouterId> = Vec::with_capacity(4 * (k as usize - 1));
        for x in 0..last {
            perimeter.push(RouterId(x)); // north edge, west → east
        }
        for y in 0..last {
            perimeter.push(RouterId(y * k + last)); // east edge, north → south
        }
        for x in 0..last {
            perimeter.push(RouterId(k * last + (last - x))); // south edge, east → west
        }
        for y in 0..last {
            perimeter.push(RouterId((last - y) * k)); // west edge, south → north
        }
        let n = (k as usize * k as usize / 16).max(4).min(perimeter.len());
        let mcs: Vec<RouterId> = (0..n).map(|i| perimeter[i * perimeter.len() / n]).collect();
        Mesh::new(k, k, &mcs)
    }

    /// Number of columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of routers (each hosting one tile on a plain mesh).
    pub fn router_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// The routers hosting memory-controller ports, in ascending order.
    pub fn mc_routers(&self) -> &[RouterId] {
        &self.mc_routers
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        self.mc_routers.binary_search(&r).is_ok()
    }

    /// The coordinate of router `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn coord(&self, r: RouterId) -> Coord {
        assert!(r.index() < self.router_count(), "router {} out of range", r);
        Coord {
            x: r.0 % self.cols,
            y: r.0 / self.cols,
        }
    }

    /// The router at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn router_at(&self, c: Coord) -> RouterId {
        assert!(c.x < self.cols && c.y < self.rows, "coord out of range");
        RouterId(c.y * self.cols + c.x)
    }

    /// The neighbour of `r` through `port`, if that port faces into the mesh.
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        let c = self.coord(r);
        let n = match port {
            Port::North if c.y > 0 => Coord { x: c.x, y: c.y - 1 },
            Port::South if c.y + 1 < self.rows => Coord { x: c.x, y: c.y + 1 },
            Port::East if c.x + 1 < self.cols => Coord { x: c.x + 1, y: c.y },
            Port::West if c.x > 0 => Coord { x: c.x - 1, y: c.y },
            _ => return None,
        };
        Some(self.router_at(n))
    }

    /// Hop distance between two routers, *derived from the routing spec*:
    /// the length of the XY path [`Mesh::unicast_port`] actually produces
    /// (which for a mesh equals the Manhattan distance). Deriving distance
    /// and path from the same function means they can never diverge.
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        walk_hops(
            a,
            b,
            |here, dest| self.unicast_port(here, dest),
            |r, p| self.neighbor(r, p),
        )
    }

    /// Worst-case unicast hop count between any router pair.
    pub fn diameter(&self) -> u16 {
        (self.cols - 1) + (self.rows - 1)
    }

    /// Routing spec: the output port for a unicast packet at `here` bound
    /// for `dest` — XY dimension-ordered routing (correct X first, then Y,
    /// then eject through the destination's local port).
    pub fn unicast_port(&self, here: RouterId, dest: Endpoint) -> Port {
        let hc = self.coord(here);
        let dc = self.coord(dest.router);
        if dc.x > hc.x {
            Port::East
        } else if dc.x < hc.x {
            Port::West
        } else if dc.y > hc.y {
            Port::South
        } else if dc.y < hc.y {
            Port::North
        } else {
            dest.slot.port()
        }
    }

    /// Routing spec: the output set for a broadcast flit at `here`, given
    /// the port it arrived through (`None` at the source router).
    ///
    /// XY broadcast tree: the request travels east and west along the
    /// injection row, every row router forks copies north and south, and
    /// column branches continue straight. The source's own tile copy is
    /// *not* produced — the requesting NIC self-delivers through its
    /// loopback path — but the source router still feeds its MC port.
    pub fn broadcast_ports(
        &self,
        _src: RouterId,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> PortMask {
        let c = self.coord(here);
        let mut mask = PortMask::EMPTY;
        let at_source = arrived_on.is_none();

        match arrived_on {
            None => {
                // Source: spread along the row in both X directions and
                // start both column branches.
                if c.x + 1 < self.cols {
                    mask.insert(Port::East);
                }
                if c.x > 0 {
                    mask.insert(Port::West);
                }
                if c.y > 0 {
                    mask.insert(Port::North);
                }
                if c.y + 1 < self.rows {
                    mask.insert(Port::South);
                }
            }
            Some(Port::West) => {
                // Travelling east along the row: keep going east, fork
                // columns.
                if c.x + 1 < self.cols {
                    mask.insert(Port::East);
                }
                if c.y > 0 {
                    mask.insert(Port::North);
                }
                if c.y + 1 < self.rows {
                    mask.insert(Port::South);
                }
            }
            Some(Port::East) => {
                if c.x > 0 {
                    mask.insert(Port::West);
                }
                if c.y > 0 {
                    mask.insert(Port::North);
                }
                if c.y + 1 < self.rows {
                    mask.insert(Port::South);
                }
            }
            Some(Port::North) => {
                // Travelling south down a column: continue south only.
                if c.y + 1 < self.rows {
                    mask.insert(Port::South);
                }
            }
            Some(Port::South) => {
                if c.y > 0 {
                    mask.insert(Port::North);
                }
            }
            Some(local) => {
                debug_assert!(local.is_local());
                panic!("broadcast flit cannot arrive on local port {local}")
            }
        }

        // Local deliveries. The source tile self-delivers via NIC loopback.
        if !at_source {
            mask.insert(Port::Tile);
        }
        if self.has_mc(here) {
            mask.insert(Port::Mc);
        }
        mask
    }

    /// Iterates over every router id.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.router_count() as u16).map(RouterId)
    }

    /// Iterates over every endpoint: all tiles, then all MC ports.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.routers()
            .map(Endpoint::tile)
            .chain(self.mc_routers.iter().copied().map(Endpoint::mc))
    }

    /// The default notification-network time window for this mesh:
    /// worst-case X traversal + worst-case Y traversal + one merge cycle.
    ///
    /// For the 6×6 chip this is 13 cycles, matching Table 1.
    pub fn notification_window(&self) -> u64 {
        self.diameter() as u64 + 3
    }
}

/// Walks the unicast route from `a` to `b`'s tile, counting mesh hops —
/// the single distance definition every topology derives [`hops`] from,
/// so reported distance and actual path length cannot diverge.
///
/// [`hops`]: Topology::hops
fn walk_hops(
    a: RouterId,
    b: RouterId,
    mut port_of: impl FnMut(RouterId, Endpoint) -> Port,
    mut neighbor: impl FnMut(RouterId, Port) -> Option<RouterId>,
) -> u16 {
    let dest = Endpoint::tile(b);
    let mut here = a;
    let mut hops = 0u16;
    loop {
        let p = port_of(here, dest);
        if p.is_local() {
            return hops;
        }
        here = neighbor(here, p).expect("unicast route never points off-fabric");
        hops += 1;
    }
}

/// Validates an MC-router list: sorted copy, no duplicates, all in range.
fn checked_mcs(mc_routers: &[RouterId], count: usize) -> Vec<RouterId> {
    let mut sorted = mc_routers.to_vec();
    sorted.sort();
    for pair in sorted.windows(2) {
        assert!(pair[0] != pair[1], "duplicate MC router {}", pair[0]);
    }
    for r in &sorted {
        assert!(r.index() < count, "MC router {} out of range", r);
    }
    sorted
}

/// A 2-D torus: a mesh whose rows and columns wrap around.
///
/// Routing is minimal dimension-ordered XY with wraparound (ties broken
/// toward East/South); deadlock freedom over the wrap links comes from
/// *dateline* virtual-channel classes — a packet crossing a dimension's
/// wraparound link switches from the class-0 to the class-1 VC partition
/// for the rest of that dimension, which breaks the channel-dependency
/// cycle each ring would otherwise form (see DESIGN.md §10).
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Port, RouterId, Torus};
///
/// let torus = Torus::square_with_corner_mcs(4);
/// // Every router has all four neighbours; edges wrap.
/// assert_eq!(torus.neighbor(RouterId(0), Port::West), Some(RouterId(3)));
/// assert_eq!(torus.neighbor(RouterId(0), Port::North), Some(RouterId(12)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    cols: u16,
    rows: u16,
    mc_routers: Vec<RouterId>,
}

impl Torus {
    /// Creates a `cols × rows` torus with MC ports on `mc_routers`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 (a wrap link needs somewhere
    /// to wrap to), if an MC router is out of range, or on duplicates.
    pub fn new(cols: u16, rows: u16, mc_routers: &[RouterId]) -> Torus {
        assert!(
            cols >= 2 && rows >= 2,
            "torus dimensions must be at least 2"
        );
        let count = cols as usize * rows as usize;
        Torus {
            cols,
            rows,
            mc_routers: checked_mcs(mc_routers, count),
        }
    }

    /// A square `k × k` torus with MC ports on the same four routers the
    /// mesh places its corner MCs on, so mesh-vs-torus sweeps compare
    /// matched endpoint counts.
    pub fn square_with_corner_mcs(k: u16) -> Torus {
        assert!(k >= 2, "torus dimension must be at least 2");
        let corners = [
            RouterId(0),
            RouterId(k - 1),
            RouterId(k * (k - 1)),
            RouterId(k * k - 1),
        ];
        Torus::new(k, k, &corners)
    }

    /// Number of columns.
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// The routers hosting memory-controller ports, ascending.
    pub fn mc_routers(&self) -> &[RouterId] {
        &self.mc_routers
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        self.mc_routers.binary_search(&r).is_ok()
    }

    /// The coordinate of router `r`.
    pub fn coord(&self, r: RouterId) -> Coord {
        assert!(r.index() < self.router_count(), "router {} out of range", r);
        Coord {
            x: r.0 % self.cols,
            y: r.0 / self.cols,
        }
    }

    /// The neighbour of `r` through `port` — always present on a torus
    /// (wrapping at the edges); `None` only for local ports.
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        let c = self.coord(r);
        let (x, y) = match port {
            Port::North => (c.x, (c.y + self.rows - 1) % self.rows),
            Port::South => (c.x, (c.y + 1) % self.rows),
            Port::East => ((c.x + 1) % self.cols, c.y),
            Port::West => ((c.x + self.cols - 1) % self.cols, c.y),
            _ => return None,
        };
        Some(RouterId(y * self.cols + x))
    }

    /// Whether the link leaving `r` through `port` crosses its dimension's
    /// dateline (i.e. is a wraparound link). East wraps at the last
    /// column, West at column 0; South at the last row, North at row 0.
    pub fn wrap_link(&self, r: RouterId, port: Port) -> bool {
        let c = self.coord(r);
        match port {
            Port::East => c.x + 1 == self.cols,
            Port::West => c.x == 0,
            Port::South => c.y + 1 == self.rows,
            Port::North => c.y == 0,
            _ => false,
        }
    }

    /// Worst-case unicast hop count: half of each dimension.
    pub fn diameter(&self) -> u16 {
        self.cols / 2 + self.rows / 2
    }

    /// Hop distance derived from the routing spec (see [`Mesh::hops`]);
    /// equals the wraparound Manhattan distance.
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        walk_hops(
            a,
            b,
            |here, dest| self.unicast_port(here, dest),
            |r, p| self.neighbor(r, p),
        )
    }

    /// Routing spec: minimal dimension-ordered XY with wraparound; equal
    /// distances break toward East/South so routes are deterministic.
    pub fn unicast_port(&self, here: RouterId, dest: Endpoint) -> Port {
        let hc = self.coord(here);
        let dc = self.coord(dest.router);
        let de = (dc.x + self.cols - hc.x) % self.cols;
        let dw = (hc.x + self.cols - dc.x) % self.cols;
        if de != 0 {
            return if de <= dw { Port::East } else { Port::West };
        }
        let ds = (dc.y + self.rows - hc.y) % self.rows;
        let dn = (hc.y + self.rows - dc.y) % self.rows;
        if ds != 0 {
            return if ds <= dn { Port::South } else { Port::North };
        }
        dest.slot.port()
    }

    /// Routing spec: the wraparound XY broadcast tree. The source's row
    /// copies travel East for ⌈(cols−1)/2⌉ hops and West for the remaining
    /// ⌊(cols−1)/2⌋, so together they cover every other column exactly
    /// once; every row router forks column branches that likewise split
    /// the ring between South and North.
    pub fn broadcast_ports(
        &self,
        src: RouterId,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> PortMask {
        let sc = self.coord(src);
        let hc = self.coord(here);
        let e_max = self.cols / 2; // == ceil((cols-1)/2)
        let w_max = (self.cols - 1) / 2;
        let s_max = self.rows / 2;
        let n_max = (self.rows - 1) / 2;
        let de = (hc.x + self.cols - sc.x) % self.cols;
        let dw = (sc.x + self.cols - hc.x) % self.cols;
        let ds = (hc.y + self.rows - sc.y) % self.rows;
        let dn = (sc.y + self.rows - hc.y) % self.rows;

        let mut mask = PortMask::EMPTY;
        let column_forks = |mask: &mut PortMask| {
            if s_max > 0 {
                mask.insert(Port::South);
            }
            if n_max > 0 {
                mask.insert(Port::North);
            }
        };
        match arrived_on {
            None => {
                if e_max > 0 {
                    mask.insert(Port::East);
                }
                if w_max > 0 {
                    mask.insert(Port::West);
                }
                column_forks(&mut mask);
            }
            Some(Port::West) => {
                // Travelling east: `de` hops covered so far.
                if de < e_max {
                    mask.insert(Port::East);
                }
                column_forks(&mut mask);
            }
            Some(Port::East) => {
                if dw < w_max {
                    mask.insert(Port::West);
                }
                column_forks(&mut mask);
            }
            Some(Port::North) => {
                if ds < s_max {
                    mask.insert(Port::South);
                }
            }
            Some(Port::South) => {
                if dn < n_max {
                    mask.insert(Port::North);
                }
            }
            Some(local) => {
                debug_assert!(local.is_local());
                panic!("broadcast flit cannot arrive on local port {local}")
            }
        }
        if arrived_on.is_some() {
            mask.insert(Port::Tile);
        }
        if self.has_mc(here) {
            mask.insert(Port::Mc);
        }
        mask
    }

    /// Dateline VC class of the downstream input VC for the unicast hop
    /// `here → neighbor(here, port)`: `true` (class 1) once the remaining
    /// path in `port`'s dimension no longer crosses that dimension's
    /// wraparound link, `false` (class 0) while it still will. The 0 → 1
    /// switch at the dateline breaks each ring's channel-dependency cycle
    /// (DESIGN.md §10).
    pub fn unicast_class(&self, here: RouterId, dest: Endpoint, port: Port) -> bool {
        if port.is_local() {
            return false;
        }
        let next = self.neighbor(here, port).expect("torus ports always wrap");
        let nc = self.coord(next);
        let dc = self.coord(dest.router);
        match port {
            Port::East => nc.x <= dc.x,
            Port::West => nc.x >= dc.x,
            Port::South => nc.y <= dc.y,
            Port::North => nc.y >= dc.y,
            _ => unreachable!("checked above"),
        }
    }

    /// Dateline VC class for one branch hop of the broadcast from `src`
    /// leaving `here` through `port` (same convention as
    /// [`Torus::unicast_class`]): class 1 once the rest of the branch arc
    /// stays clear of the wraparound link.
    pub fn broadcast_class(&self, src: RouterId, here: RouterId, port: Port) -> bool {
        if port.is_local() {
            return false;
        }
        let sc = self.coord(src);
        let next = self.neighbor(here, port).expect("torus ports always wrap");
        let nc = self.coord(next);
        let (rem, pos, span) = match port {
            // saturating_sub: the spec is total (the table builder probes
            // off-tree points too); beyond the branch's hop budget the
            // remaining arc is simply zero.
            Port::East => {
                let de_next = (nc.x + self.cols - sc.x) % self.cols;
                ((self.cols / 2).saturating_sub(de_next), nc.x, self.cols)
            }
            Port::West => {
                let dw_next = (sc.x + self.cols - nc.x) % self.cols;
                (
                    ((self.cols - 1) / 2).saturating_sub(dw_next),
                    nc.x,
                    self.cols,
                )
            }
            Port::South => {
                let ds_next = (nc.y + self.rows - sc.y) % self.rows;
                ((self.rows / 2).saturating_sub(ds_next), nc.y, self.rows)
            }
            Port::North => {
                let dn_next = (sc.y + self.rows - nc.y) % self.rows;
                (
                    ((self.rows - 1) / 2).saturating_sub(dn_next),
                    nc.y,
                    self.rows,
                )
            }
            _ => unreachable!("checked above"),
        };
        match port {
            // Positive directions wrap leaving the last row/column.
            Port::East | Port::South => pos + rem < span,
            // Negative directions wrap leaving row/column 0.
            Port::West | Port::North => rem <= pos,
            _ => unreachable!("checked above"),
        }
    }
}

/// A bidirectional ring: every router has only East and West neighbours,
/// the radically simpler fabric of ring-router microarchitectures.
///
/// Unicast takes the shorter way around (ties toward East); broadcasts
/// split the ring between an eastbound and a westbound copy. Deadlock
/// freedom uses the same dateline VC classes as [`Torus`].
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Port, Ring, RouterId};
///
/// let ring = Ring::with_spread_mcs(16, 4);
/// assert_eq!(ring.router_count(), 16);
/// assert_eq!(ring.mc_routers().len(), 4);
/// assert_eq!(ring.neighbor(RouterId(15), Port::East), Some(RouterId(0)));
/// assert_eq!(ring.neighbor(RouterId(0), Port::North), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    len: u16,
    mc_routers: Vec<RouterId>,
}

impl Ring {
    /// Creates a ring of `len` routers with MC ports on `mc_routers`.
    ///
    /// # Panics
    ///
    /// Panics if `len < 2`, if an MC router is out of range, or on
    /// duplicates.
    pub fn new(len: u16, mc_routers: &[RouterId]) -> Ring {
        assert!(len >= 2, "ring length must be at least 2");
        Ring {
            len,
            mc_routers: checked_mcs(mc_routers, len as usize),
        }
    }

    /// A ring of `len` routers with `n_mcs` MC ports spread evenly,
    /// starting at router 0 — `Ring::with_spread_mcs(k * k, 4)` matches
    /// the endpoint count of a `k × k` mesh with corner MCs.
    ///
    /// # Panics
    ///
    /// Panics if `n_mcs` is zero or exceeds `len`.
    pub fn with_spread_mcs(len: u16, n_mcs: u16) -> Ring {
        assert!(n_mcs > 0 && n_mcs <= len, "need 1..=len MC routers");
        // u32 arithmetic: `i * len` overflows u16 for rings past ~16k
        // routers, which would silently misplace MCs in release builds.
        let mcs: Vec<RouterId> = (0..n_mcs as u32)
            .map(|i| RouterId((i * len as u32 / n_mcs as u32) as u16))
            .collect();
        Ring::new(len, &mcs)
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.len as usize
    }

    /// The routers hosting memory-controller ports, ascending.
    pub fn mc_routers(&self) -> &[RouterId] {
        &self.mc_routers
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        self.mc_routers.binary_search(&r).is_ok()
    }

    /// The neighbour of `r` through `port`: East/West wrap around, the
    /// North/South ports do not exist on a ring.
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        assert!(r.index() < self.router_count(), "router {} out of range", r);
        match port {
            Port::East => Some(RouterId((r.0 + 1) % self.len)),
            Port::West => Some(RouterId((r.0 + self.len - 1) % self.len)),
            _ => None,
        }
    }

    /// Whether the link leaving `r` through `port` is the dateline
    /// (wraparound) link of its direction.
    pub fn wrap_link(&self, r: RouterId, port: Port) -> bool {
        match port {
            Port::East => r.0 + 1 == self.len,
            Port::West => r.0 == 0,
            _ => false,
        }
    }

    /// Worst-case unicast hop count: half way around.
    pub fn diameter(&self) -> u16 {
        self.len / 2
    }

    /// Hop distance derived from the routing spec (see [`Mesh::hops`]).
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        walk_hops(
            a,
            b,
            |here, dest| self.unicast_port(here, dest),
            |r, p| self.neighbor(r, p),
        )
    }

    /// Routing spec: shortest way around, ties toward East.
    pub fn unicast_port(&self, here: RouterId, dest: Endpoint) -> Port {
        let de = (dest.router.0 + self.len - here.0) % self.len;
        let dw = (here.0 + self.len - dest.router.0) % self.len;
        if de == 0 {
            dest.slot.port()
        } else if de <= dw {
            Port::East
        } else {
            Port::West
        }
    }

    /// Routing spec: the broadcast splits into an eastbound copy covering
    /// ⌈(len−1)/2⌉ routers and a westbound copy covering the rest.
    pub fn broadcast_ports(
        &self,
        src: RouterId,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> PortMask {
        let e_max = self.len / 2;
        let w_max = (self.len - 1) / 2;
        let de = (here.0 + self.len - src.0) % self.len;
        let dw = (src.0 + self.len - here.0) % self.len;
        let mut mask = PortMask::EMPTY;
        match arrived_on {
            None => {
                if e_max > 0 {
                    mask.insert(Port::East);
                }
                if w_max > 0 {
                    mask.insert(Port::West);
                }
            }
            Some(Port::West) => {
                if de < e_max {
                    mask.insert(Port::East);
                }
            }
            Some(Port::East) => {
                if dw < w_max {
                    mask.insert(Port::West);
                }
            }
            Some(other) => panic!("ring broadcast cannot arrive on port {other}"),
        }
        if arrived_on.is_some() {
            mask.insert(Port::Tile);
        }
        if self.has_mc(here) {
            mask.insert(Port::Mc);
        }
        mask
    }

    /// Dateline VC class for the unicast hop `here → next` (see
    /// [`Torus::unicast_class`]): class 1 once the remaining arc to `dest`
    /// stays clear of the wraparound link of its direction.
    pub fn unicast_class(&self, here: RouterId, dest: Endpoint, port: Port) -> bool {
        let d = dest.router.0;
        match port {
            Port::East => (here.0 + 1) % self.len <= d,
            Port::West => (here.0 + self.len - 1) % self.len >= d,
            _ => false,
        }
    }

    /// Dateline VC class for one hop of the broadcast from `src` leaving
    /// `here` through `port` (see [`Torus::broadcast_class`]).
    pub fn broadcast_class(&self, src: RouterId, here: RouterId, port: Port) -> bool {
        match port {
            Port::East => {
                let next = (here.0 + 1) % self.len;
                let de_next = (next + self.len - src.0) % self.len;
                let rem = (self.len / 2).saturating_sub(de_next);
                next + rem < self.len
            }
            Port::West => {
                let next = (here.0 + self.len - 1) % self.len;
                let dw_next = (src.0 + self.len - next) % self.len;
                let rem = ((self.len - 1) / 2).saturating_sub(dw_next);
                rem <= next
            }
            _ => false,
        }
    }
}

/// A concentrated 2-D mesh: a mesh of routers where every router hosts
/// `concentration` tiles instead of one.
///
/// Concentration is the classic lever against mesh diameter (Slim NoC,
/// Epiphany-V): at the same core count a `c`-concentrated mesh has `1/c`
/// the routers, so the worst-case ordered-broadcast path — and with it the
/// notification window — shrinks with the router grid, paid for by a
/// higher-radix router (4 mesh ports + `c` tile ports + optional MC).
/// Routing is exactly the mesh's XY spec over the router grid; the only
/// new behavior is local delivery, where a broadcast feeds *every* tile
/// port of a router — except the source's own slot, which self-delivers
/// through its NIC loopback like every SCORPIO source does.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{CMesh, RouterId, Topology};
///
/// // 16 tiles as 8 routers x 2 tiles: diameter 4 instead of the 4x4
/// // mesh's 6.
/// let cm = CMesh::with_corner_mcs(4, 2, 2);
/// assert_eq!(cm.router_count(), 8);
/// assert_eq!(cm.tile_count(), 16);
/// let topo = Topology::from(cm);
/// assert_eq!(topo.diameter(), 4);
/// assert_eq!(topo.endpoint_count(), 20); // 16 tiles + 4 MC ports
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CMesh {
    mesh: Mesh,
    concentration: u8,
}

impl CMesh {
    /// Creates a `cols × rows` router grid hosting `concentration` tiles
    /// per router, with MC ports on `mc_routers`.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, if `concentration` is zero or
    /// exceeds [`Port::MAX_TILE_SLOTS`], or on a bad MC list.
    pub fn new(cols: u16, rows: u16, concentration: u8, mc_routers: &[RouterId]) -> CMesh {
        assert!(
            (1..=Port::MAX_TILE_SLOTS).contains(&concentration),
            "concentration must be 1..={}, got {concentration}",
            Port::MAX_TILE_SLOTS
        );
        CMesh {
            mesh: Mesh::new(cols, rows, mc_routers),
            concentration,
        }
    }

    /// A `cols × rows` router grid with MC ports on the four corners
    /// (collapsed on degenerate 1-wide grids).
    pub fn with_corner_mcs(cols: u16, rows: u16, concentration: u8) -> CMesh {
        let last = RouterId(cols * rows - 1);
        let mut corners: Vec<RouterId> = Vec::with_capacity(4);
        for c in [
            RouterId(0),
            RouterId(cols - 1),
            RouterId(cols * (rows - 1)),
            last,
        ] {
            if !corners.contains(&c) {
                corners.push(c);
            }
        }
        corners.sort();
        CMesh::new(cols, rows, concentration, &corners)
    }

    /// Number of router-grid columns.
    pub fn cols(&self) -> u16 {
        self.mesh.cols()
    }

    /// Number of router-grid rows.
    pub fn rows(&self) -> u16 {
        self.mesh.rows()
    }

    /// Tiles hosted per router.
    pub fn concentration(&self) -> u8 {
        self.concentration
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        self.mesh.router_count()
    }

    /// Total number of tiles (`routers × concentration`).
    pub fn tile_count(&self) -> usize {
        self.router_count() * self.concentration as usize
    }

    /// The routers hosting memory-controller ports, ascending.
    pub fn mc_routers(&self) -> &[RouterId] {
        self.mesh.mc_routers()
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        self.mesh.has_mc(r)
    }

    /// The coordinate of router `r` in the router grid.
    pub fn coord(&self, r: RouterId) -> Coord {
        self.mesh.coord(r)
    }

    /// The neighbour of `r` through `port` (router-grid mesh links).
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        self.mesh.neighbor(r, port)
    }

    /// Worst-case unicast hop count — the *router grid's* diameter, which
    /// is what concentration shrinks.
    pub fn diameter(&self) -> u16 {
        self.mesh.diameter()
    }

    /// Hop distance derived from the routing walk (see [`Mesh::hops`]).
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        self.mesh.hops(a, b)
    }

    /// Routing spec: XY dimension-ordered routing over the router grid;
    /// at the destination router, eject through the endpoint's slot port.
    pub fn unicast_port(&self, here: RouterId, dest: Endpoint) -> Port {
        self.mesh.unicast_port(here, dest)
    }

    /// Routing spec: the mesh XY broadcast tree over the router grid, with
    /// concentrated local delivery — every tile port of every router gets
    /// a copy, except the source endpoint's own slot (NIC loopback), and
    /// MC routers feed their MC port exactly as on the mesh.
    pub fn broadcast_ports(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> PortMask {
        let mut mask = self.mesh.broadcast_ports(src.router, here, arrived_on);
        // The mesh spec's local delivery covers exactly one tile (slot 0,
        // absent at the source router); replace it with the concentrated
        // set: all slots, minus the source's own slot at the source router.
        mask.remove(Port::Tile);
        let skip = if arrived_on.is_none() {
            match src.slot {
                LocalSlot::Tile(k) => Some(k),
                LocalSlot::Mc => None,
            }
        } else {
            None
        };
        for k in 0..self.concentration {
            if Some(k) != skip {
                mask.insert(Port::tile_slot(k));
            }
        }
        mask
    }
}

/// The delivery fabric of the main network: one of the supported
/// topologies behind a single interface.
///
/// All structural queries (`router_count`, `neighbor`, `endpoints`, …),
/// the routing spec (`unicast_port`, `broadcast_ports`) and the derived
/// quantities the rest of the system consumes (`diameter`,
/// `notification_window`, `hops`) dispatch to the concrete topology.
/// `Network` compiles the routing spec into per-router lookup tables at
/// construction; the spec itself is only evaluated per-flit under the
/// coordinate-routing reference engine.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Mesh, Ring, Topology, Torus};
///
/// let mesh: Topology = Mesh::square_with_corner_mcs(4).into();
/// let torus: Topology = Torus::square_with_corner_mcs(4).into();
/// let ring: Topology = Ring::with_spread_mcs(16, 4).into();
/// // Matched endpoint counts, shrinking diameters.
/// assert_eq!(mesh.endpoints().count(), 20);
/// assert_eq!(torus.endpoints().count(), 20);
/// assert_eq!(ring.endpoints().count(), 20);
/// assert_eq!(mesh.diameter(), 6);
/// assert_eq!(torus.diameter(), 4);
/// assert_eq!(ring.diameter(), 8);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub enum Topology {
    /// A 2-D mesh (the SCORPIO chip's fabric).
    Mesh(Mesh),
    /// A 2-D torus (wraparound mesh, dateline deadlock avoidance).
    Torus(Torus),
    /// A bidirectional ring (East/West only).
    Ring(Ring),
    /// A concentrated 2-D mesh (multiple tiles per router).
    CMesh(CMesh),
}

// Renders as the *inner* topology so a mesh still debug-prints exactly as
// the bare `Mesh` struct always has. `SystemConfig::stable_hash`
// fingerprints the Debug rendering; this transparency is what keeps every
// pre-topology-refactor mesh config hash — and the JSONL rows keyed on
// them — valid.
impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Mesh(m) => m.fmt(f),
            Topology::Torus(t) => t.fmt(f),
            Topology::Ring(r) => r.fmt(f),
            Topology::CMesh(c) => c.fmt(f),
        }
    }
}

impl From<Mesh> for Topology {
    fn from(m: Mesh) -> Topology {
        Topology::Mesh(m)
    }
}

impl From<Torus> for Topology {
    fn from(t: Torus) -> Topology {
        Topology::Torus(t)
    }
}

impl From<Ring> for Topology {
    fn from(r: Ring) -> Topology {
        Topology::Ring(r)
    }
}

// By-reference conversions (cloning) so APIs that take
// `impl Into<Topology>` keep accepting `&mesh` exactly as the mesh-only
// signatures did.
impl From<&Mesh> for Topology {
    fn from(m: &Mesh) -> Topology {
        Topology::Mesh(m.clone())
    }
}

impl From<&Torus> for Topology {
    fn from(t: &Torus) -> Topology {
        Topology::Torus(t.clone())
    }
}

impl From<&Ring> for Topology {
    fn from(r: &Ring) -> Topology {
        Topology::Ring(r.clone())
    }
}

impl From<CMesh> for Topology {
    fn from(c: CMesh) -> Topology {
        Topology::CMesh(c)
    }
}

impl From<&CMesh> for Topology {
    fn from(c: &CMesh) -> Topology {
        Topology::CMesh(c.clone())
    }
}

impl From<&Topology> for Topology {
    fn from(t: &Topology) -> Topology {
        t.clone()
    }
}

impl Topology {
    /// Short kind name: `"mesh"`, `"torus"`, `"ring"` or `"cmesh"`.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Mesh(_) => "mesh",
            Topology::Torus(_) => "torus",
            Topology::Ring(_) => "ring",
            Topology::CMesh(_) => "cmesh",
        }
    }

    /// Geometry label: `"6x6"` for a mesh (unchanged from the pre-topology
    /// labels), `"torus6x6"`, `"ring36"`, `"cmesh4x2x2"` (router grid ×
    /// concentration).
    pub fn label(&self) -> String {
        match self {
            Topology::Mesh(m) => format!("{}x{}", m.cols(), m.rows()),
            Topology::Torus(t) => format!("torus{}x{}", t.cols(), t.rows()),
            Topology::Ring(r) => format!("ring{}", r.router_count()),
            Topology::CMesh(c) => {
                format!("cmesh{}x{}x{}", c.cols(), c.rows(), c.concentration())
            }
        }
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        match self {
            Topology::Mesh(m) => m.router_count(),
            Topology::Torus(t) => t.router_count(),
            Topology::Ring(r) => r.router_count(),
            Topology::CMesh(c) => c.router_count(),
        }
    }

    /// Tiles hosted per router (`1` on every unconcentrated fabric).
    pub fn tiles_per_router(&self) -> u8 {
        match self {
            Topology::CMesh(c) => c.concentration(),
            _ => 1,
        }
    }

    /// Total number of tiles (`router_count × tiles_per_router`). This —
    /// not the router count — is the system's core count.
    pub fn tile_count(&self) -> usize {
        self.router_count() * self.tiles_per_router() as usize
    }

    /// The endpoint of tile `i`: router `i / c`, slot `i % c` — the normal
    /// path of endpoint indexing (`c == 1` collapses to router `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tile_endpoint(&self, i: usize) -> Endpoint {
        assert!(i < self.tile_count(), "tile {i} out of range");
        let c = self.tiles_per_router() as usize;
        Endpoint::tile_slot(RouterId((i / c) as u16), (i % c) as u8)
    }

    /// The routers hosting memory-controller ports, in ascending order.
    pub fn mc_routers(&self) -> &[RouterId] {
        match self {
            Topology::Mesh(m) => m.mc_routers(),
            Topology::Torus(t) => t.mc_routers(),
            Topology::Ring(r) => r.mc_routers(),
            Topology::CMesh(c) => c.mc_routers(),
        }
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        match self {
            Topology::Mesh(m) => m.has_mc(r),
            Topology::Torus(t) => t.has_mc(r),
            Topology::Ring(r_) => r_.has_mc(r),
            Topology::CMesh(c) => c.has_mc(r),
        }
    }

    /// The physical neighbour of `r` through `port`, if that link exists.
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        match self {
            Topology::Mesh(m) => m.neighbor(r, port),
            Topology::Torus(t) => t.neighbor(r, port),
            Topology::Ring(r_) => r_.neighbor(r, port),
            Topology::CMesh(c) => c.neighbor(r, port),
        }
    }

    /// Iterates over every router id.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.router_count() as u16).map(RouterId)
    }

    /// Iterates over every endpoint: all tiles in tile-index order
    /// (router-major, slot-minor), then all MC ports.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        (0..self.tile_count())
            .map(|i| self.tile_endpoint(i))
            .chain(self.mc_routers().iter().copied().map(Endpoint::mc))
    }

    /// Number of endpoints (tiles + MC ports).
    pub fn endpoint_count(&self) -> usize {
        self.tile_count() + self.mc_routers().len()
    }

    /// Worst-case unicast hop count between any router pair.
    ///
    /// This is the *single* diameter derivation in the system: the
    /// notification-network window, the OR-propagation convergence bound
    /// and the physical wire model all consume this function, and
    /// `walked_diameter` in `routing.rs` (the ground truth obtained by
    /// walking the unicast spec between every router pair) is asserted
    /// equal to it for every topology — so the declared diameter and the
    /// paths flits actually take can never disagree.
    pub fn diameter(&self) -> u16 {
        match self {
            Topology::Mesh(m) => m.diameter(),
            Topology::Torus(t) => t.diameter(),
            Topology::Ring(r) => r.diameter(),
            Topology::CMesh(c) => c.diameter(),
        }
    }

    /// The default notification-network time window: the diameter bounds
    /// worst-case OR-propagation, plus the fixed merge margin. Identical
    /// to the historical `cols + rows + 1` formula on a mesh (13 cycles on
    /// the 6×6 chip), and tighter on low-diameter fabrics.
    pub fn notification_window(&self) -> u64 {
        self.diameter() as u64 + 3
    }

    /// The router grid as `(cols, rows)` — the coordinate space quad
    /// partitioning operates over. Router `(x, y)` has index
    /// `y * cols + x` on every 2-D fabric; a ring is treated as a
    /// `router_count × 1` line (the aggregation tree is a logical overlay,
    /// not a set of physical mesh links, so wraparound is irrelevant).
    pub fn router_grid(&self) -> (u16, u16) {
        match self {
            Topology::Mesh(m) => (m.cols(), m.rows()),
            Topology::Torus(t) => (t.cols(), t.rows()),
            Topology::Ring(r) => (r.router_count() as u16, 1),
            Topology::CMesh(c) => (c.cols(), c.rows()),
        }
    }

    /// Hop distance between two routers, derived by walking the unicast
    /// routing spec — distance and path length cannot diverge.
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        match self {
            Topology::Mesh(m) => m.hops(a, b),
            Topology::Torus(t) => t.hops(a, b),
            Topology::Ring(r) => r.hops(a, b),
            Topology::CMesh(c) => c.hops(a, b),
        }
    }

    /// Whether this topology has wraparound links and therefore needs the
    /// dateline VC-class discipline (requires ≥ 2 regular VCs per vnet).
    pub fn has_datelines(&self) -> bool {
        matches!(self, Topology::Torus(_) | Topology::Ring(_))
    }

    /// Whether the link leaving `r` through `port` crosses its
    /// dimension's dateline.
    pub fn wrap_link(&self, r: RouterId, port: Port) -> bool {
        match self {
            Topology::Mesh(_) | Topology::CMesh(_) => false,
            Topology::Torus(t) => t.wrap_link(r, port),
            Topology::Ring(r_) => r_.wrap_link(r, port),
        }
    }

    /// Routing spec: the output port for a unicast packet at `here` bound
    /// for `dest` (the local port once `here` is the destination router).
    pub fn unicast_port(&self, here: RouterId, dest: Endpoint) -> Port {
        match self {
            Topology::Mesh(m) => m.unicast_port(here, dest),
            Topology::Torus(t) => t.unicast_port(here, dest),
            Topology::Ring(r) => r.unicast_port(here, dest),
            Topology::CMesh(c) => c.unicast_port(here, dest),
        }
    }

    /// Routing spec: the output set (mesh ports + local deliveries) for a
    /// broadcast from the endpoint `src` observed at `here` having arrived
    /// through `arrived_on` (`None` at the source router).
    ///
    /// The source is an *endpoint*, not a router: on a concentrated fabric
    /// the source router still feeds its sibling tile slots (only the
    /// source's own slot self-delivers through the NIC loopback), so the
    /// fork mask depends on which slot injected. Unconcentrated fabrics
    /// ignore the slot.
    pub fn broadcast_ports(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> PortMask {
        match self {
            Topology::Mesh(m) => m.broadcast_ports(src.router, here, arrived_on),
            Topology::Torus(t) => t.broadcast_ports(src.router, here, arrived_on),
            Topology::Ring(r) => r.broadcast_ports(src.router, here, arrived_on),
            Topology::CMesh(c) => c.broadcast_ports(src, here, arrived_on),
        }
    }

    /// Routing spec with dateline class: the unicast output port plus
    /// whether the downstream VC must come from the class-1 partition
    /// (always `false` on a mesh, where no link wraps).
    pub fn unicast_hop(&self, here: RouterId, dest: Endpoint) -> (Port, bool) {
        let port = self.unicast_port(here, dest);
        let class = match self {
            Topology::Mesh(_) | Topology::CMesh(_) => false,
            Topology::Torus(t) => t.unicast_class(here, dest, port),
            Topology::Ring(r) => r.unicast_class(here, dest, port),
        };
        (port, class)
    }

    /// Routing spec with dateline classes: the broadcast output set plus a
    /// bitmask (by [`Port::index`]) of outputs whose downstream VC must
    /// come from the class-1 partition (always 0 on mesh-like fabrics).
    /// Class bits only ever appear on the four cardinal ports (indices
    /// `0..4`); local ports never carry one.
    pub fn broadcast_hop(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> (PortMask, u8) {
        let mask = self.broadcast_ports(src, here, arrived_on);
        let mut classes = 0u8;
        match self {
            Topology::Mesh(_) | Topology::CMesh(_) => {}
            Topology::Torus(t) => {
                for p in mask.iter() {
                    if t.broadcast_class(src.router, here, p) {
                        classes |= 1 << p.index();
                    }
                }
            }
            Topology::Ring(r) => {
                for p in mask.iter() {
                    if r.broadcast_class(src.router, here, p) {
                        classes |= 1 << p.index();
                    }
                }
            }
        }
        (mask, classes)
    }

    /// The dense index of `ep`: tiles first (router-major, slot-minor — a
    /// tile's index *is* its core/SID number), then MC ports by MC-router
    /// rank.
    ///
    /// # Panics
    ///
    /// Panics if `ep` does not exist in this topology.
    pub fn endpoint_index(&self, ep: Endpoint) -> usize {
        let c = self.tiles_per_router();
        match ep.slot {
            LocalSlot::Tile(k) => {
                assert!(
                    ep.router.index() < self.router_count() && k < c,
                    "no tile slot {k} at {}",
                    ep.router
                );
                ep.router.index() * c as usize + k as usize
            }
            LocalSlot::Mc => {
                let pos = self
                    .mc_routers()
                    .binary_search(&ep.router)
                    .unwrap_or_else(|_| panic!("no MC port at {}", ep.router));
                self.tile_count() + pos
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_roundtrip() {
        let mesh = Mesh::new(6, 6, &[]);
        for r in mesh.routers() {
            assert_eq!(mesh.router_at(mesh.coord(r)), r);
        }
    }

    #[test]
    fn neighbors_of_center_and_corner() {
        let mesh = Mesh::new(6, 6, &[]);
        let center = mesh.router_at(Coord { x: 2, y: 2 });
        assert_eq!(
            mesh.neighbor(center, Port::North),
            Some(mesh.router_at(Coord { x: 2, y: 1 }))
        );
        assert_eq!(
            mesh.neighbor(center, Port::South),
            Some(mesh.router_at(Coord { x: 2, y: 3 }))
        );
        assert_eq!(
            mesh.neighbor(center, Port::East),
            Some(mesh.router_at(Coord { x: 3, y: 2 }))
        );
        assert_eq!(
            mesh.neighbor(center, Port::West),
            Some(mesh.router_at(Coord { x: 1, y: 2 }))
        );

        let nw_corner = RouterId(0);
        assert_eq!(mesh.neighbor(nw_corner, Port::North), None);
        assert_eq!(mesh.neighbor(nw_corner, Port::West), None);
        assert!(mesh.neighbor(nw_corner, Port::East).is_some());
        assert!(mesh.neighbor(nw_corner, Port::South).is_some());
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let mesh = Mesh::new(4, 3, &[]);
        for r in mesh.routers() {
            for port in [Port::North, Port::South, Port::East, Port::West] {
                if let Some(n) = mesh.neighbor(r, port) {
                    assert_eq!(mesh.neighbor(n, port.opposite()), Some(r));
                }
            }
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let mesh = Mesh::new(6, 6, &[]);
        assert_eq!(mesh.hops(RouterId(0), RouterId(35)), 10);
        assert_eq!(mesh.hops(RouterId(7), RouterId(7)), 0);
        assert_eq!(mesh.hops(RouterId(0), RouterId(5)), 5);
    }

    #[test]
    fn scorpio_chip_shape() {
        let mesh = Mesh::scorpio_chip();
        assert_eq!(mesh.router_count(), 36);
        assert_eq!(mesh.mc_routers().len(), 4);
        assert_eq!(mesh.notification_window(), 13);
        assert!(mesh.has_mc(RouterId(0)));
        assert!(!mesh.has_mc(RouterId(1)));
    }

    #[test]
    fn window_scales_with_mesh() {
        assert_eq!(Mesh::new(8, 8, &[]).notification_window(), 17);
        assert_eq!(Mesh::new(10, 10, &[]).notification_window(), 21);
        assert_eq!(Mesh::new(4, 4, &[]).notification_window(), 9);
    }

    #[test]
    fn endpoints_cover_tiles_and_mcs() {
        let mesh = Mesh::scorpio_chip();
        let eps: Vec<_> = mesh.endpoints().collect();
        assert_eq!(eps.len(), 40);
        assert_eq!(eps.iter().filter(|e| e.slot == LocalSlot::Mc).count(), 4);
    }

    #[test]
    fn port_mask_operations() {
        let mut m = PortMask::EMPTY;
        assert!(m.is_empty());
        m.insert(Port::North);
        m.insert(Port::Mc);
        assert_eq!(m.len(), 2);
        assert!(m.contains(Port::North));
        assert!(!m.contains(Port::South));
        m.remove(Port::North);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![Port::Mc]);
    }

    #[test]
    fn port_opposites() {
        assert_eq!(Port::North.opposite(), Port::South);
        assert_eq!(Port::East.opposite(), Port::West);
        assert!(Port::Tile.is_local());
        assert!(!Port::North.is_local());
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_port_opposite_panics() {
        let _ = Port::Tile.opposite();
    }

    #[test]
    #[should_panic(expected = "duplicate MC router")]
    fn duplicate_mc_panics() {
        let _ = Mesh::new(2, 2, &[RouterId(1), RouterId(1)]);
    }

    #[test]
    fn proportional_mcs_match_corners_on_small_meshes() {
        for k in [2u16, 4, 6, 8] {
            assert_eq!(
                Mesh::square_with_proportional_mcs(k).mc_routers(),
                Mesh::square_with_corner_mcs(k).mc_routers(),
                "k={k}"
            );
        }
        assert_eq!(Mesh::square_with_proportional_mcs(1).mc_routers().len(), 1);
    }

    #[test]
    fn proportional_mcs_scale_with_tiles() {
        // One MC per 16 tiles, on the perimeter, duplicate-free (Mesh::new
        // asserts that), and including the NW corner.
        for (k, expect) in [(12u16, 9usize), (16, 16), (20, 25)] {
            let mesh = Mesh::square_with_proportional_mcs(k);
            assert_eq!(mesh.mc_routers().len(), expect, "k={k}");
            assert!(mesh.has_mc(RouterId(0)));
            for &r in mesh.mc_routers() {
                let c = mesh.coord(r);
                assert!(
                    c.x == 0 || c.y == 0 || c.x == k - 1 || c.y == k - 1,
                    "MC {r} not on the perimeter of {k}x{k}"
                );
            }
        }
    }

    #[test]
    fn square_with_corner_mcs_small() {
        let m1 = Mesh::square_with_corner_mcs(1);
        assert_eq!(m1.mc_routers().len(), 1);
        let m4 = Mesh::square_with_corner_mcs(4);
        assert_eq!(
            m4.mc_routers(),
            &[RouterId(0), RouterId(3), RouterId(12), RouterId(15)]
        );
    }

    // Satellite regression: hops is derived from the routing walk, so on a
    // non-square mesh it must still equal the Manhattan distance (the old
    // closed form) — distance and actual path length cannot diverge.
    #[test]
    fn non_square_hops_match_manhattan() {
        let mesh = Mesh::new(7, 3, &[]);
        for a in mesh.routers() {
            for b in mesh.routers() {
                let (ca, cb) = (mesh.coord(a), mesh.coord(b));
                let manhattan = ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y);
                assert_eq!(mesh.hops(a, b), manhattan, "{a}->{b}");
            }
        }
    }

    #[test]
    fn torus_neighbors_wrap_and_are_symmetric() {
        let t = Torus::new(4, 3, &[]);
        assert_eq!(t.neighbor(RouterId(0), Port::West), Some(RouterId(3)));
        assert_eq!(t.neighbor(RouterId(0), Port::North), Some(RouterId(8)));
        assert_eq!(t.neighbor(RouterId(11), Port::East), Some(RouterId(8)));
        for r in 0..12u16 {
            for port in [Port::North, Port::South, Port::East, Port::West] {
                let n = t.neighbor(RouterId(r), port).unwrap();
                assert_eq!(t.neighbor(n, port.opposite()), Some(RouterId(r)));
            }
        }
        assert_eq!(t.neighbor(RouterId(0), Port::Tile), None);
    }

    #[test]
    fn torus_hops_is_wraparound_manhattan() {
        let t = Torus::new(5, 4, &[]);
        for a in 0..20u16 {
            for b in 0..20u16 {
                let (ca, cb) = (t.coord(RouterId(a)), t.coord(RouterId(b)));
                let dx = ca.x.abs_diff(cb.x).min(5 - ca.x.abs_diff(cb.x));
                let dy = ca.y.abs_diff(cb.y).min(4 - ca.y.abs_diff(cb.y));
                assert_eq!(t.hops(RouterId(a), RouterId(b)), dx + dy, "{a}->{b}");
            }
        }
    }

    #[test]
    fn spread_mcs_survive_large_rings() {
        // Regression: `i * len` in u16 overflowed past ~16k routers.
        let r = Ring::with_spread_mcs(30000, 4);
        assert_eq!(
            r.mc_routers(),
            &[
                RouterId(0),
                RouterId(7500),
                RouterId(15000),
                RouterId(22500)
            ]
        );
    }

    #[test]
    fn ring_hops_is_shorter_way_around() {
        let r = Ring::new(7, &[]);
        assert_eq!(r.hops(RouterId(0), RouterId(3)), 3);
        assert_eq!(r.hops(RouterId(0), RouterId(4)), 3); // west is shorter
        assert_eq!(r.hops(RouterId(6), RouterId(0)), 1);
        assert_eq!(r.hops(RouterId(2), RouterId(2)), 0);
    }

    #[test]
    fn diameters_and_windows() {
        let mesh: Topology = Mesh::square_with_corner_mcs(6).into();
        let torus: Topology = Torus::square_with_corner_mcs(6).into();
        let ring: Topology = Ring::with_spread_mcs(36, 4).into();
        assert_eq!(mesh.diameter(), 10);
        assert_eq!(torus.diameter(), 6);
        assert_eq!(ring.diameter(), 18);
        // Mesh window matches the historical cols + rows + 1 formula.
        assert_eq!(mesh.notification_window(), 13);
        assert_eq!(torus.notification_window(), 9);
        assert_eq!(ring.notification_window(), 21);
        assert!(!mesh.has_datelines());
        assert!(torus.has_datelines());
        assert!(ring.has_datelines());
    }

    #[test]
    fn wrap_links_sit_on_the_edges() {
        let t = Torus::new(4, 4, &[]);
        assert!(t.wrap_link(RouterId(3), Port::East));
        assert!(t.wrap_link(RouterId(0), Port::West));
        assert!(t.wrap_link(RouterId(12), Port::South));
        assert!(t.wrap_link(RouterId(0), Port::North));
        assert!(!t.wrap_link(RouterId(1), Port::East));
        let r = Ring::new(5, &[]);
        assert!(r.wrap_link(RouterId(4), Port::East));
        assert!(r.wrap_link(RouterId(0), Port::West));
        assert!(!r.wrap_link(RouterId(2), Port::East));
    }

    // Dateline classes along any unicast walk must be monotone 0 → 1
    // within each dimension: once a flit switches to the class-1
    // partition it never goes back, which is the acyclicity argument.
    #[test]
    fn torus_unicast_classes_are_monotone_per_dimension() {
        let topo: Topology = Torus::new(5, 4, &[]).into();
        for a in topo.routers() {
            for b in topo.routers() {
                let dest = Endpoint::tile(b);
                let mut here = a;
                let mut last: Option<(Port, bool)> = None;
                loop {
                    let (port, class) = topo.unicast_hop(here, dest);
                    if port.is_local() {
                        break;
                    }
                    if let Some((lp, lc)) = last {
                        let same_dim = matches!(
                            (lp, port),
                            (Port::East | Port::West, Port::East | Port::West)
                                | (Port::North | Port::South, Port::North | Port::South)
                        );
                        if same_dim {
                            assert!(lc <= class, "class fell back 1->0 at {here} ({a}->{b})");
                        }
                    }
                    last = Some((port, class));
                    here = topo.neighbor(here, port).unwrap();
                }
            }
        }
    }

    #[test]
    fn ring_unicast_classes_flip_exactly_at_the_dateline() {
        let topo: Topology = Ring::new(6, &[]).into();
        // 4 -> 1 goes east through the 5 -> 0 wrap: class 0 before, 1 after.
        let dest = Endpoint::tile(RouterId(1));
        let (p0, c0) = topo.unicast_hop(RouterId(4), dest);
        assert_eq!((p0, c0), (Port::East, false));
        let (p1, c1) = topo.unicast_hop(RouterId(5), dest);
        assert_eq!((p1, c1), (Port::East, true));
        let (p2, c2) = topo.unicast_hop(RouterId(0), dest);
        assert_eq!((p2, c2), (Port::East, true));
    }

    #[test]
    fn topology_names_and_labels() {
        let mesh: Topology = Mesh::square_with_corner_mcs(4).into();
        let torus: Topology = Torus::square_with_corner_mcs(4).into();
        let ring: Topology = Ring::with_spread_mcs(16, 4).into();
        assert_eq!((mesh.name(), mesh.label().as_str()), ("mesh", "4x4"));
        assert_eq!(
            (torus.name(), torus.label().as_str()),
            ("torus", "torus4x4")
        );
        assert_eq!((ring.name(), ring.label().as_str()), ("ring", "ring16"));
        // Debug transparency: the enum renders as the inner struct, which
        // is what keeps pre-topology SystemConfig hashes valid.
        assert_eq!(
            format!("{mesh:?}"),
            format!("{:?}", Mesh::square_with_corner_mcs(4))
        );
    }

    #[test]
    fn endpoint_index_is_dense_over_any_topology() {
        for topo in [
            Topology::from(Mesh::square_with_corner_mcs(4)),
            Topology::from(Torus::square_with_corner_mcs(4)),
            Topology::from(Ring::with_spread_mcs(16, 4)),
        ] {
            for (i, ep) in topo.endpoints().enumerate() {
                assert_eq!(topo.endpoint_index(ep), i, "{}", topo.label());
            }
        }
    }
}
