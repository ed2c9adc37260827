//! The delivery fabric as data: routers, coordinates, ports, endpoints and
//! one [`Topology`] description — a [`Fabric`] (which fixes whether the
//! grid wraps and the tiles per router), a router grid and the MC routers
//! — built by the one validated [`Topology::new`].
//!
//! SCORPIO's central idea is that message *ordering* is decoupled from
//! message *delivery*, so the delivery fabric is swappable: anything that
//! can broadcast to every endpoint exactly once and unicast responses can
//! carry the ordered protocol. The routing *spec* — [`Topology::neighbor`],
//! [`Topology::unicast_hop`], [`Topology::broadcast_hop`] — is one rule per
//! grid dimension, which the network compiles into per-router lookup tables
//! at construction time (see `tables.rs`); the per-flit hot path never
//! runs coordinate arithmetic.

use crate::placement;
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
/// `Port::MAX_TILE_SLOTS` tiles per router through the additional
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
    pub(crate) const COUNT: usize = 9;

    /// Maximum tiles one router can host (tile slots `0..4`).
    pub(crate) const MAX_TILE_SLOTS: u8 = 4;

    /// All ports, in index order. The first six entries are exactly the
    /// historical single-tile port set, in its historical order.
    pub(crate) const ALL: [Port; Port::COUNT] = [
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
    pub(crate) fn index(self) -> usize {
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
    pub(crate) fn tile_slot(k: u8) -> Port {
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
    pub(crate) fn tile_index(self) -> Option<u8> {
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
    pub(crate) fn opposite(self) -> Port {
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
    pub(crate) fn is_local(self) -> bool {
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
    pub(crate) fn single(port: Port) -> PortMask {
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
    pub(crate) fn port(self) -> Port {
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
    pub(crate) fn tile_slot(r: RouterId, k: u8) -> Endpoint {
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

/// Most tiles a fabric can have: a tile's index is its `Sid`, a `u16`.
const MAX_TILES: usize = 1 << 16;

/// Which fabric a [`Topology`] is: the one place the reproduction names a
/// fabric. Links, routes and tables follow from the router grid, whether
/// it wraps and its concentration; the fabric fixes the last two.
///
/// A fabric also *materializes* a mesh side `k` ([`Fabric::topology`]):
/// every fabric at the same `k` has `k²` tiles and four MC ports —
/// matched core and endpoint counts, so runtime differences are delivery
/// effects, not size effects. A concentrated mesh keeps the `k²` cores but
/// shrinks the router grid by its concentration: `CMesh(2)` at `k = 4` is
/// a 4×2 router grid of 2-tile routers.
///
/// # Examples
///
/// ```
/// use scorpio_noc::Fabric;
///
/// let mesh = Fabric::Mesh.topology(4);
/// let torus = Fabric::Torus.topology(4);
/// let ring = Fabric::Ring.topology(4);
/// let cmesh = Fabric::CMesh(2).topology(4);
/// // Matched endpoint counts, different diameters.
/// for t in [&mesh, &torus, &ring, &cmesh] {
///     assert_eq!((t.tile_count(), t.endpoint_count()), (16, 20));
/// }
/// assert_eq!(
///     [mesh.diameter(), torus.diameter(), ring.diameter(), cmesh.diameter()],
///     [6, 4, 8, 4]
/// );
/// assert_eq!(ring.label(), "ring16");
/// assert_eq!((cmesh.label(), cmesh.router_count()), ("cmesh4x2x2".into(), 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fabric {
    /// A 2-D mesh: both dimensions open, one tile per router (the chip
    /// fabric; default).
    ///
    /// # Examples
    ///
    /// ```
    /// use scorpio_noc::{Fabric, RouterId, Topology};
    ///
    /// // The SCORPIO chip: a 6×6 mesh, MC ports on the four corners.
    /// let mesh = Topology::new(Fabric::Mesh, 6, 6, [0, 5, 30, 35].map(RouterId));
    /// assert_eq!(mesh, Fabric::Mesh.topology(6));
    /// assert_eq!(mesh.router_count(), 36);
    /// let c = mesh.coord(RouterId(7));
    /// assert_eq!((c.x, c.y), (1, 1));
    /// assert!(mesh.has_mc(RouterId(5)));
    /// assert_eq!(mesh.endpoints().count(), 40); // 36 tiles + 4 MC ports
    /// ```
    #[default]
    Mesh,
    /// A 2-D torus: a mesh whose rows and columns close into rings.
    /// Routing is minimal dimension-ordered XY (ties broken toward
    /// East/South); deadlock freedom over the wrap links comes from
    /// *dateline* VC classes (see `Topology::unicast_hop`, DESIGN.md §10).
    ///
    /// # Examples
    ///
    /// ```
    /// use scorpio_noc::{Fabric, Port, RouterId};
    ///
    /// let torus = Fabric::Torus.topology(4);
    /// // Every router has all four neighbours; edges wrap.
    /// assert_eq!(torus.neighbor(RouterId(0), Port::West), Some(RouterId(3)));
    /// assert_eq!(torus.neighbor(RouterId(0), Port::North), Some(RouterId(12)));
    /// assert!(torus.wrap_link(RouterId(0), Port::West));
    /// ```
    Torus,
    /// A bidirectional ring — the wrapped `len × 1` grid, so every router
    /// has only East and West neighbours.
    ///
    /// # Examples
    ///
    /// ```
    /// use scorpio_noc::{placement, Fabric, Port, RouterId, Topology};
    ///
    /// let ring = Topology::new(Fabric::Ring, 16, 1, placement::spread(16, 4));
    /// assert_eq!(ring, Fabric::Ring.topology(4));
    /// assert_eq!(ring.router_count(), 16);
    /// assert_eq!(ring.mc_routers().len(), 4);
    /// assert_eq!(ring.neighbor(RouterId(15), Port::East), Some(RouterId(0)));
    /// assert_eq!(ring.neighbor(RouterId(0), Port::North), None);
    /// ```
    Ring,
    /// A concentrated mesh: a mesh of routers each hosting the given
    /// number of tiles (`1..=4`; the sweeps use 1, 2 and 4). At the same
    /// core count a `c`-concentrated mesh has `1/c` the routers, so the
    /// ordered-broadcast path and the notification window shrink with the
    /// router grid, paid for by a higher-radix router.
    CMesh(u8),
}

impl Fabric {
    /// Short label for result rows and tables.
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Mesh => "mesh",
            Fabric::Torus => "torus",
            Fabric::Ring => "ring",
            Fabric::CMesh(1) => "cmesh1",
            Fabric::CMesh(2) => "cmesh2",
            Fabric::CMesh(4) => "cmesh4",
            Fabric::CMesh(_) => "cmesh",
        }
    }

    /// Whether both grid dimensions close into rings.
    pub fn wraps(self) -> bool {
        match self {
            Fabric::Mesh | Fabric::CMesh(_) => false,
            Fabric::Torus | Fabric::Ring => true,
        }
    }

    /// Tiles hosted per router.
    pub fn concentration(self) -> u8 {
        match self {
            Fabric::CMesh(c) => c,
            Fabric::Mesh | Fabric::Torus | Fabric::Ring => 1,
        }
    }

    /// The router grid a `k²`-tile concentrated mesh materializes as:
    /// concentration 1 keeps `k × k`, 2 halves the rows (`k × k/2`), 4
    /// halves both dimensions (`k/2 × k/2`).
    ///
    /// # Panics
    ///
    /// Panics on an unsupported concentration, or an odd `k` above
    /// concentration 1.
    pub fn cmesh_dims(k: u16, concentration: u8) -> (u16, u16) {
        match concentration {
            1 => (k, k),
            2 | 4 => {
                assert!(
                    k.is_multiple_of(2),
                    "a {k}x{k}-tile cmesh at concentration {concentration} needs an even side"
                );
                if concentration == 2 {
                    (k, k / 2)
                } else {
                    (k / 2, k / 2)
                }
            }
            other => panic!("unsupported cmesh concentration {other} (use 1, 2 or 4)"),
        }
    }

    /// The topology a mesh side `k` materializes as: a `k × k` mesh or
    /// torus with corner MCs, a `k²`-router ring with four evenly spread
    /// MCs, or a `k²`-tile concentrated mesh with corner MCs.
    ///
    /// # Panics
    ///
    /// Panics where the fabric has no such shape (`k == 0`, a torus or
    /// ring below two routers a side, [`Fabric::cmesh_dims`]' conditions).
    pub fn topology(self, k: u16) -> Topology {
        let (cols, rows) = match self {
            Fabric::Mesh | Fabric::Torus => (k, k),
            Fabric::Ring => {
                let len = k
                    .checked_mul(k)
                    .expect("a ring of k² routers fits a RouterId");
                return Topology::new(self, len, 1, placement::spread(len, 4));
            }
            Fabric::CMesh(c) => Fabric::cmesh_dims(k, c),
        };
        Topology::new(self, cols, rows, placement::corners(cols, rows))
    }
}

/// The delivery fabric of the main network, as data: which [`Fabric`], a
/// `cols × rows` router grid (a ring is the wrapped `len × 1` grid) and the
/// routers hosting an MC port.
///
/// One routing spec covers every such description — [`Topology::neighbor`],
/// `Topology::unicast_hop` and `Topology::broadcast_hop`, X before Y
/// with East/South as each dimension's *forward* direction — and `Network`
/// compiles it into per-router lookup tables at construction (`tables.rs`),
/// so nothing evaluates it per flit.
///
/// # Examples
///
/// ```
/// use scorpio_noc::{Fabric, RouterId, Topology};
///
/// let chip = Topology::new(Fabric::Mesh, 6, 6, [0, 5, 30, 35].map(RouterId));
/// assert_eq!(chip.fabric(), Fabric::Mesh);
/// assert_eq!(chip.endpoints().count(), 40); // 36 tiles + 4 MC ports
/// // Moving the MC ports keeps the fabric and the grid.
/// let moved = chip.with_mc_routers(vec![RouterId(14), RouterId(21)]);
/// assert_eq!((moved.cols(), moved.rows()), (6, 6));
/// assert_eq!(moved.endpoints().count(), 38);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    fabric: Fabric,
    cols: u16,
    rows: u16,
    /// Sorted, duplicate-free, all in range.
    mc_routers: Vec<RouterId>,
}

// Lets APIs that take `impl Into<Topology>` accept `&topology` (cloning).
impl From<&Topology> for Topology {
    fn from(t: &Topology) -> Topology {
        t.clone()
    }
}

/// The four link directions: output port, the dimension it travels
/// (0 = X, 1 = Y) and whether it points forward (East / South).
const HEADINGS: [(Port, usize, bool); 4] = [
    (Port::East, 0, true),
    (Port::West, 0, false),
    (Port::South, 1, true),
    (Port::North, 1, false),
];

/// The dimension and direction `port` travels, if it is a link port.
fn heading(port: Port) -> Option<(usize, bool)> {
    HEADINGS
        .iter()
        .find(|h| h.0 == port)
        .map(|&(_, dim, forward)| (dim, forward))
}

/// The link port travelling `dim` in the given direction.
fn port_toward(dim: usize, forward: bool) -> Port {
    HEADINGS[2 * dim + usize::from(!forward)].0
}

impl Topology {
    /// A `cols × rows` router grid of `fabric` with MC ports on
    /// `mc_routers` (any order; see [`placement`] for the stock schemes).
    /// A ring is `len × 1`.
    ///
    /// # Panics
    ///
    /// Panics on a zero dimension, more than 65 535 routers or 65 536
    /// tiles, a torus or ring below two routers a side, a ring of more
    /// than one row, a concentration outside `1..=4`, an MC router out of
    /// range, or the same MC router listed twice.
    pub fn new(
        fabric: Fabric,
        cols: u16,
        rows: u16,
        mc_routers: impl Into<Vec<RouterId>>,
    ) -> Topology {
        let (c, r) = placement::grid(cols, rows);
        match fabric {
            Fabric::Mesh => {}
            Fabric::Torus => assert!(
                cols >= 2 && rows >= 2,
                "torus dimensions must be at least 2, got {cols}x{rows}"
            ),
            Fabric::Ring => assert!(
                cols >= 2 && rows == 1,
                "a ring is one row of at least 2 routers, got {cols}x{rows}"
            ),
            Fabric::CMesh(n) => assert!(
                (1..=Port::MAX_TILE_SLOTS).contains(&n),
                "concentration must be 1..={}, got {n}",
                Port::MAX_TILE_SLOTS
            ),
        }
        let concentration = fabric.concentration();
        let tiles = c * r * concentration as usize;
        assert!(
            tiles <= MAX_TILES,
            "{cols}x{rows}x{concentration} is {tiles} tiles, more than the {MAX_TILES} a Sid can name"
        );
        let mut mc_routers = mc_routers.into();
        mc_routers.sort_unstable();
        for pair in mc_routers.windows(2) {
            assert!(pair[0] != pair[1], "duplicate MC router {}", pair[0]);
        }
        if let Some(last) = mc_routers.last() {
            assert!(last.index() < c * r, "MC router {last} out of range");
        }
        Topology {
            fabric,
            cols,
            rows,
            mc_routers,
        }
    }

    /// The same fabric with its MC ports moved to `mc_routers`.
    ///
    /// # Panics
    ///
    /// Panics if an MC router is out of range or listed twice.
    #[must_use]
    pub fn with_mc_routers(self, mc_routers: Vec<RouterId>) -> Topology {
        Topology::new(self.fabric, self.cols, self.rows, mc_routers)
    }

    /// Which fabric this is.
    pub fn fabric(&self) -> Fabric {
        self.fabric
    }

    /// Geometry label: `"6x6"` for a mesh, `"torus6x6"`, `"ring36"`,
    /// `"cmesh4x2x2"` (router grid × concentration).
    pub fn label(&self) -> String {
        let (cols, rows) = (self.cols, self.rows);
        match self.fabric {
            Fabric::Mesh => format!("{cols}x{rows}"),
            Fabric::Torus => format!("torus{cols}x{rows}"),
            Fabric::Ring => format!("ring{cols}"),
            Fabric::CMesh(c) => format!("cmesh{cols}x{rows}x{c}"),
        }
    }

    /// Columns of the router grid (a ring's length).
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Rows of the router grid (1 on a ring). Quad notification
    /// partitioning works over `cols × rows` on every fabric: its tree is a
    /// logical overlay, so wraparound is irrelevant to it.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Tiles hosted per router (`1` on every unconcentrated fabric).
    pub fn tiles_per_router(&self) -> u8 {
        self.fabric.concentration()
    }

    /// Total number of tiles (`router_count × tiles_per_router`). This —
    /// not the router count — is the system's core count.
    pub fn tile_count(&self) -> usize {
        self.router_count() * self.fabric.concentration() as usize
    }

    /// The endpoint of tile `i`: router `i / c`, slot `i % c` — the normal
    /// path of endpoint indexing (`c == 1` collapses to router `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tile_endpoint(&self, i: usize) -> Endpoint {
        assert!(i < self.tile_count(), "tile {i} out of range");
        let c = self.fabric.concentration() as usize;
        Endpoint::tile_slot(RouterId((i / c) as u16), (i % c) as u8)
    }

    /// The routers hosting memory-controller ports, in ascending order.
    pub fn mc_routers(&self) -> &[RouterId] {
        &self.mc_routers
    }

    /// Whether `r` hosts a memory-controller port.
    pub fn has_mc(&self, r: RouterId) -> bool {
        self.mc_routers.binary_search(&r).is_ok()
    }

    /// The coordinate of router `r` (row-major: index `y * cols + x`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn coord(&self, r: RouterId) -> Coord {
        assert!(r.index() < self.router_count(), "router {r} out of range");
        Coord {
            x: r.0 % self.cols,
            y: r.0 / self.cols,
        }
    }

    /// Router `r` as a position per dimension, widened so that ring
    /// distances (`to + extent - from`) cannot overflow.
    fn position(&self, r: RouterId) -> [u32; 2] {
        let c = self.coord(r);
        [c.x.into(), c.y.into()]
    }

    /// Number of positions along dimension `dim`.
    fn extent(&self, dim: usize) -> u32 {
        [self.cols, self.rows][dim].into()
    }

    /// Follows the link leaving position `p` of dimension `dim`: the next
    /// position and whether the link wraps. Forward of `p` is `p + 1`;
    /// past the last position a wrapped dimension continues at 0 (the wrap
    /// link), an open one ends. Backward is symmetric. A dimension of
    /// extent 1 has no links at all.
    fn step(&self, dim: usize, p: u32, forward: bool) -> Option<(u32, bool)> {
        let n = self.extent(dim);
        let edge = if forward { n - 1 } else { 0 };
        if p != edge {
            Some((if forward { p + 1 } else { p - 1 }, false))
        } else if self.fabric.wraps() && n > 1 {
            Some((n - 1 - edge, true))
        } else {
            None
        }
    }

    /// The physical neighbour of `r` through `port`, if that link exists.
    pub fn neighbor(&self, r: RouterId, port: Port) -> Option<RouterId> {
        let (dim, forward) = heading(port)?;
        let mut at = self.position(r);
        at[dim] = self.step(dim, at[dim], forward)?.0;
        Some(RouterId((at[1] * self.extent(0) + at[0]) as u16))
    }

    /// Whether the link leaving `r` through `port` is a wraparound link —
    /// the *dateline* of its dimension and direction: East leaving the
    /// last column, West leaving column 0, South the last row, North row 0.
    pub fn wrap_link(&self, r: RouterId, port: Port) -> bool {
        heading(port)
            .and_then(|(dim, forward)| self.step(dim, self.position(r)[dim], forward))
            .is_some_and(|(_, wraps)| wraps)
    }

    /// Whether this topology has wraparound links and therefore needs the
    /// dateline VC-class discipline (requires ≥ 2 regular VCs per vnet).
    pub(crate) fn has_datelines(&self) -> bool {
        self.fabric.wraps()
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
            .chain(self.mc_routers.iter().copied().map(Endpoint::mc))
    }

    /// Number of endpoints (tiles + MC ports).
    pub fn endpoint_count(&self) -> usize {
        self.tile_count() + self.mc_routers.len()
    }

    /// Worst-case unicast hop count between any router pair: per
    /// dimension, half way around a ring or end to end of a line.
    ///
    /// This is the *single* diameter derivation in the system: the
    /// notification-network window, the OR-propagation convergence bound
    /// and the physical wire model all consume this function, and
    /// `walked_diameter` in `routing.rs` (the ground truth obtained by
    /// walking the unicast spec between every router pair) is asserted
    /// equal to it for every fabric — so the declared diameter and the
    /// paths flits actually take can never disagree.
    pub fn diameter(&self) -> u16 {
        let span = |n: u16| if self.fabric.wraps() { n / 2 } else { n - 1 };
        span(self.cols) + span(self.rows)
    }

    /// The default notification-network time window: the diameter bounds
    /// worst-case OR-propagation, plus the fixed merge margin — the
    /// historical `cols + rows + 1` on a mesh (13 cycles on the 6×6 chip,
    /// Table 1), and tighter on low-diameter fabrics.
    pub fn notification_window(&self) -> u64 {
        self.diameter() as u64 + 3
    }

    /// Hop distance between two routers, *derived from the routing spec*:
    /// the length of the path `Topology::unicast_hop` actually produces,
    /// so reported distance and path length cannot diverge.
    pub fn hops(&self, a: RouterId, b: RouterId) -> u16 {
        let dest = Endpoint::tile(b);
        let (mut here, mut hops) = (a, 0);
        loop {
            let (port, _) = self.unicast_hop(here, dest);
            if port.is_local() {
                return hops;
            }
            here = self
                .neighbor(here, port)
                .expect("unicast route never points off-fabric");
            hops += 1;
        }
    }

    /// Routing spec, unicast: the output port at `here` toward `dest`, and
    /// whether the downstream VC must come from the class-1 partition.
    ///
    /// In the first dimension where `here` and `dest` differ (X before Y)
    /// an open dimension heads toward the destination coordinate and a
    /// wrapped one takes the shorter way around, ties forward; once no
    /// dimension differs the packet ejects through `dest`'s local port.
    ///
    /// The dateline class breaks each ring's channel-dependency cycle
    /// (DESIGN.md §10): a hop is class 1 once the rest of its dimension's
    /// path stays clear of that direction's wrap link, class 0 while it
    /// still has the wrap ahead. Open fabrics never constrain the VC.
    pub(crate) fn unicast_hop(&self, here: RouterId, dest: Endpoint) -> (Port, bool) {
        let (at, to) = (self.position(here), self.position(dest.router));
        for dim in 0..2 {
            let (p, d, n) = (at[dim], to[dim], self.extent(dim));
            if p == d {
                continue;
            }
            let forward = if self.fabric.wraps() {
                (d + n - p) % n <= (p + n - d) % n
            } else {
                d > p
            };
            let (next, _) = self
                .step(dim, p, forward)
                .expect("a differing dimension has a link toward the destination");
            let class1 = self.fabric.wraps() && if forward { next <= d } else { next >= d };
            return (port_toward(dim, forward), class1);
        }
        (dest.slot.port(), false)
    }

    /// Routing spec, broadcast: the output set (link ports + local
    /// deliveries) at `here` for the broadcast from endpoint `src` that
    /// arrived through `arrived_on` (`None` at the source router), plus a
    /// bitmask by [`Port::index`] of the link outputs whose downstream VC
    /// must be class 1 (local ports never carry a class).
    ///
    /// *Fork shape* (the XY tree, the same on every fabric): the source
    /// starts all four directions, a row copy continues along the row and
    /// forks both column directions, a column copy continues straight.
    ///
    /// *A direction is taken iff hops remain.* Open: a neighbour exists —
    /// which does not depend on the source, the reason the compiled tables
    /// keep a single source slice when `!wraps && concentration == 1`.
    /// Wrapped: `covered < budget`, where the forward copy of a ring of
    /// `n` covers `n / 2` positions and the backward copy the other
    /// `(n − 1) / 2`, and `covered` is the ring distance from the source
    /// coordinate for a continuing copy, 0 for a fresh fork. A taken hop
    /// is class 1 iff the rest of the copy's arc stays clear of the wrap
    /// link.
    ///
    /// *Local delivery:* every tile slot of the router plus `Mc` where it
    /// hosts one — except, at the source router, the source's own slot,
    /// which self-delivers through its NIC loopback. An MC source rides
    /// the tree of its router's slot 0 (the tables key sources by tile),
    /// so that tile gets no copy; `Network::try_inject` therefore rejects
    /// MC-sourced broadcasts wherever slot 0 has siblings.
    ///
    /// # Panics
    ///
    /// Panics if `arrived_on` is a local port.
    pub(crate) fn broadcast_hop(
        &self,
        src: Endpoint,
        here: RouterId,
        arrived_on: Option<Port>,
    ) -> (PortMask, u8) {
        let travelling = arrived_on.map(|p| match heading(p) {
            Some((dim, toward_sender)) => (dim, !toward_sender),
            None => panic!("broadcast flit cannot arrive on local port {p}"),
        });
        let (from, at) = (self.position(src.router), self.position(here));
        let mut mask = PortMask::EMPTY;
        let mut classes = 0u8;
        for (port, dim, forward) in HEADINGS {
            let continues = travelling == Some((dim, forward));
            let forks = match travelling {
                None => true,
                Some((along, _)) => along == 0 && dim == 1,
            };
            if !(continues || forks) {
                continue;
            }
            let Some((next, _)) = self.step(dim, at[dim], forward) else {
                continue;
            };
            if self.fabric.wraps() {
                let n = self.extent(dim);
                let covered = |p: u32| {
                    if forward {
                        (p + n - from[dim]) % n
                    } else {
                        (from[dim] + n - p) % n
                    }
                };
                let budget = if forward { n / 2 } else { (n - 1) / 2 };
                let done = if continues { covered(at[dim]) } else { 0 };
                if done >= budget {
                    continue;
                }
                // The spec is total (the tables probe off-tree points too):
                // beyond the budget the remaining arc is simply zero.
                let rem = budget.saturating_sub(covered(next));
                let clear = if forward { next + rem < n } else { rem <= next };
                classes |= u8::from(clear) << port.index();
            }
            mask.insert(port);
        }
        let own_slot = arrived_on.is_none().then_some(match src.slot {
            LocalSlot::Tile(k) => k,
            LocalSlot::Mc => 0,
        });
        for k in 0..self.fabric.concentration() {
            if Some(k) != own_slot {
                mask.insert(Port::tile_slot(k));
            }
        }
        if self.has_mc(here) {
            mask.insert(Port::Mc);
        }
        (mask, classes)
    }
}

#[cfg(test)]
impl Topology {
    /// The router at coordinate `c`.
    pub(crate) fn router_at(&self, c: Coord) -> RouterId {
        assert!(c.x < self.cols && c.y < self.rows, "coord out of range");
        RouterId(c.y * self.cols + c.x)
    }

    /// The dense index of `ep`: tiles first (router-major, slot-minor — a
    /// tile's index *is* its core/SID number), then MC ports by MC-router
    /// rank.
    ///
    /// # Panics
    ///
    /// Panics if `ep` does not exist in this topology.
    pub(crate) fn endpoint_index(&self, ep: Endpoint) -> usize {
        let c = self.fabric.concentration();
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
                    .mc_routers
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
        let mesh = Topology::new(Fabric::Mesh, 6, 6, []);
        for r in mesh.routers() {
            assert_eq!(mesh.router_at(mesh.coord(r)), r);
        }
    }

    #[test]
    fn neighbors_of_center_and_corner() {
        let mesh = Topology::new(Fabric::Mesh, 6, 6, []);
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
        let mesh = Topology::new(Fabric::Mesh, 4, 3, []);
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
        let mesh = Topology::new(Fabric::Mesh, 6, 6, []);
        assert_eq!(mesh.hops(RouterId(0), RouterId(35)), 10);
        assert_eq!(mesh.hops(RouterId(7), RouterId(7)), 0);
        assert_eq!(mesh.hops(RouterId(0), RouterId(5)), 5);
    }

    #[test]
    fn scorpio_chip_shape() {
        let mesh = Fabric::Mesh.topology(6);
        assert_eq!(mesh.router_count(), 36);
        assert_eq!(mesh.mc_routers().len(), 4);
        assert_eq!(mesh.notification_window(), 13);
        assert!(mesh.has_mc(RouterId(0)));
        assert!(!mesh.has_mc(RouterId(1)));
    }

    #[test]
    fn window_scales_with_mesh() {
        assert_eq!(
            Topology::new(Fabric::Mesh, 8, 8, []).notification_window(),
            17
        );
        assert_eq!(
            Topology::new(Fabric::Mesh, 10, 10, []).notification_window(),
            21
        );
        assert_eq!(
            Topology::new(Fabric::Mesh, 4, 4, []).notification_window(),
            9
        );
    }

    #[test]
    fn endpoints_cover_tiles_and_mcs() {
        let mesh = Fabric::Mesh.topology(6);
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
        let _ = Topology::new(Fabric::Mesh, 2, 2, [RouterId(1), RouterId(1)]);
    }

    #[test]
    #[should_panic(expected = "MC router r4 out of range")]
    fn out_of_range_mc_panics() {
        let _ = Topology::new(Fabric::Torus, 2, 2, [RouterId(4)]);
    }

    #[test]
    #[should_panic(expected = "must be non-zero, got 3x0")]
    fn zero_dimension_panics() {
        let _ = Topology::new(Fabric::CMesh(2), 3, 0, placement::corners(3, 0));
    }

    #[test]
    #[should_panic(expected = "concentration must be 1..=4, got 5")]
    fn concentration_past_the_tile_ports_panics() {
        let _ = Topology::new(Fabric::CMesh(5), 2, 2, []);
    }

    // `RouterId` is a `u16` whose top value the tables reserve; before the
    // check `routers()` truncated the count and placement wrapped in u16.
    #[test]
    #[should_panic(expected = "300x300 is 90000 routers")]
    fn more_routers_than_a_router_id_can_name_panics() {
        let _ = Topology::new(Fabric::Mesh, 300, 300, []);
    }

    #[test]
    #[should_panic(expected = "256x256 is 65536 routers")]
    fn corner_placement_checks_the_grid_before_indexing_it() {
        let _ = Fabric::Mesh.topology(256);
    }

    #[test]
    #[should_panic(expected = "200x200x4 is 160000 tiles")]
    fn more_tiles_than_a_sid_can_name_panics() {
        let _ = Topology::new(Fabric::CMesh(4), 200, 200, []);
    }

    #[test]
    fn proportional_mcs_match_corners_on_small_meshes() {
        for k in [2u16, 4, 6, 8] {
            assert_eq!(
                Topology::new(Fabric::Mesh, k, k, placement::proportional(k, k)).mc_routers(),
                Fabric::Mesh.topology(k).mc_routers(),
                "k={k}"
            );
        }
        assert_eq!(
            Topology::new(Fabric::Mesh, 1, 1, placement::proportional(1, 1))
                .mc_routers()
                .len(),
            1
        );
    }

    #[test]
    fn proportional_mcs_scale_with_tiles() {
        // One MC per 16 tiles, on the perimeter, duplicate-free (Topology::new
        // asserts that), and including the NW corner.
        for (k, expect) in [(12u16, 9usize), (16, 16), (20, 25)] {
            let mesh = Topology::new(Fabric::Mesh, k, k, placement::proportional(k, k));
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
        let m1 = Fabric::Mesh.topology(1);
        assert_eq!(m1.mc_routers().len(), 1);
        let m4 = Fabric::Mesh.topology(4);
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
        let mesh = Topology::new(Fabric::Mesh, 7, 3, []);
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
        let t = Topology::new(Fabric::Torus, 4, 3, []);
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
        let t = Topology::new(Fabric::Torus, 5, 4, []);
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
        let r = Topology::new(Fabric::Ring, 30000, 1, placement::spread(30000, 4));
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
        let r = Topology::new(Fabric::Ring, 7, 1, []);
        assert_eq!(r.hops(RouterId(0), RouterId(3)), 3);
        assert_eq!(r.hops(RouterId(0), RouterId(4)), 3); // west is shorter
        assert_eq!(r.hops(RouterId(6), RouterId(0)), 1);
        assert_eq!(r.hops(RouterId(2), RouterId(2)), 0);
    }

    #[test]
    fn diameters_and_windows() {
        let mesh: Topology = Fabric::Mesh.topology(6);
        let torus: Topology = Fabric::Torus.topology(6);
        let ring: Topology = Fabric::Ring.topology(6);
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
        let t = Topology::new(Fabric::Torus, 4, 4, []);
        assert!(t.wrap_link(RouterId(3), Port::East));
        assert!(t.wrap_link(RouterId(0), Port::West));
        assert!(t.wrap_link(RouterId(12), Port::South));
        assert!(t.wrap_link(RouterId(0), Port::North));
        assert!(!t.wrap_link(RouterId(1), Port::East));
        let r = Topology::new(Fabric::Ring, 5, 1, []);
        assert!(r.wrap_link(RouterId(4), Port::East));
        assert!(r.wrap_link(RouterId(0), Port::West));
        assert!(!r.wrap_link(RouterId(2), Port::East));
    }

    // Dateline classes along any unicast walk must be monotone 0 → 1
    // within each dimension: once a flit switches to the class-1
    // partition it never goes back, which is the acyclicity argument.
    #[test]
    fn torus_unicast_classes_are_monotone_per_dimension() {
        let topo: Topology = Topology::new(Fabric::Torus, 5, 4, []);
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
        let topo: Topology = Topology::new(Fabric::Ring, 6, 1, []);
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
        for (fabric, label) in [
            (Fabric::Mesh, "4x4"),
            (Fabric::Torus, "torus4x4"),
            (Fabric::Ring, "ring16"),
            (Fabric::CMesh(2), "cmesh4x2x2"),
        ] {
            let topo = fabric.topology(4);
            assert_eq!((topo.fabric(), topo.label().as_str()), (fabric, label));
        }
    }

    #[test]
    fn endpoint_index_is_dense_over_any_topology() {
        for topo in [
            Fabric::Mesh.topology(4),
            Fabric::Torus.topology(4),
            Fabric::Ring.topology(4),
        ] {
            for (i, ep) in topo.endpoints().enumerate() {
                assert_eq!(topo.endpoint_index(ep), i, "{}", topo.label());
            }
        }
    }
}
