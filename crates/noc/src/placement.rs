//! Memory-controller placements: plain functions from a router grid to a
//! router list. Router `(x, y)` of a `cols × rows` grid has index
//! `y * cols + x` on every fabric, so any placement works with any of the
//! fabric names (and with [`Topology::with_mc_routers`]).
//!
//! [`Topology::with_mc_routers`]: crate::Topology::with_mc_routers

use crate::topology::RouterId;

/// Most routers a fabric can have: `RouterId` is a `u16` and `u16::MAX`
/// is the routing tables' "no link / no MC port" sentinel.
const MAX_ROUTERS: usize = u16::MAX as usize;

/// The checked dimensions of a router grid, widened for index arithmetic
/// (every index below `cols * rows` then fits a `RouterId`).
///
/// # Panics
///
/// Panics on a zero dimension or more than 65 535 routers.
pub(crate) fn grid(cols: u16, rows: u16) -> (usize, usize) {
    assert!(
        cols > 0 && rows > 0,
        "fabric dimensions must be non-zero, got {cols}x{rows}"
    );
    let (c, r) = (cols as usize, rows as usize);
    assert!(
        c * r <= MAX_ROUTERS,
        "{cols}x{rows} is {} routers, more than the {MAX_ROUTERS} a RouterId can name",
        c * r
    );
    (c, r)
}

/// The distinct corner routers in placement-priority order: NW, SE (the
/// opposite diagonal first, so two MCs sit maximally apart), then NE, SW.
/// Degenerate 1-wide grids collapse coincident corners.
pub fn corners(cols: u16, rows: u16) -> Vec<RouterId> {
    let (c, r) = grid(cols, rows);
    let mut corners = Vec::with_capacity(4);
    for index in [0, c * r - 1, c - 1, c * (r - 1)] {
        let corner = RouterId(index as u16);
        if !corners.contains(&corner) {
            corners.push(corner);
        }
    }
    corners
}

/// `n` of `routers` routers spread evenly by index, starting at router 0
/// — evenly around a ring.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds `routers`.
pub fn spread(routers: u16, n: u16) -> Vec<RouterId> {
    assert!(n > 0 && n <= routers, "need 1..=len MC routers, got {n}");
    let (routers, n) = (routers as usize, n as usize);
    (0..n).map(|i| RouterId((i * routers / n) as u16)).collect()
}

/// Memory-controller ports scaled to the machine: one per 16 routers (at
/// least the chip's 4, at most the whole perimeter), evenly spaced along
/// the perimeter clockwise from the north-west corner. Four corner MCs
/// serve 36 cores fine, but at 16×16 they would starve 256 cores of memory
/// bandwidth and melt the corner routers; the paper's scaling argument
/// (Section 5.3) assumes bandwidth grows with the machine. Up to 8×8 the
/// picks are exactly [`corners`].
pub fn proportional(cols: u16, rows: u16) -> Vec<RouterId> {
    let (c, r) = grid(cols, rows);
    let (w, h) = (c - 1, r - 1);
    // A 1-wide grid is all perimeter, walked in index order.
    let line = w == 0 || h == 0;
    let len = if line { c * r } else { 2 * (w + h) };
    let n = (c * r / 16).max(4).min(len);
    (0..n)
        .map(|i| {
            let p = i * len / n;
            let (x, y) = if line {
                (p % c, p / c)
            } else if p < w {
                (p, 0) // north edge, west → east
            } else if p < w + h {
                (w, p - w) // east edge, north → south
            } else if p < 2 * w + h {
                (2 * w + h - p, h) // south edge, east → west
            } else {
                (0, len - p) // west edge, south → north
            };
            RouterId((y * c + x) as u16)
        })
        .collect()
}
