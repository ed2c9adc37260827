//! The SCORPIO main network: a NoC with virtual-channel routers, lookahead
//! bypassing, single-cycle multicast and reserved-VC deadlock avoidance
//! (Section 3.2 of the paper), delivered over a swappable [`Topology`] —
//! one description (a [`Fabric`], a router grid, the MC routers) with one
//! constructor, [`Topology::new`]. The fabric is the chip's 2-D mesh, a
//! wraparound torus, a bidirectional ring or a concentrated mesh.
//!
//! The main network is *unordered*: it broadcasts coherence requests and
//! delivers responses with no global ordering guarantee. Global ordering is
//! established separately by the notification network (`scorpio-notify`)
//! and enforced at the network interface controllers (`scorpio-nic`);
//! this crate provides the hooks they need — per-endpoint ESID publication
//! (`Network::set_esid`) for reserved-VC policing, and VC-addressed
//! ejection by dense endpoint index and flat VC ([`Network::eject_vcs`] to
//! see which VCs hold a flit, [`Network::eject_head`] to read one,
//! [`Network::eject_take_vc`] to consume it) so the NIC can pull requests
//! out of its buffers in the globally decided order.
//! Because ordering is decoupled from delivery — the paper's central idea —
//! any fabric that broadcasts to every endpoint exactly once can carry the
//! ordered protocol; the one routing spec (`Topology::unicast_hop`,
//! `Topology::broadcast_hop`) is compiled into per-router lookup tables
//! at construction, so the per-flit hot path never runs coordinate
//! arithmetic (`tables.rs`).
//!
//! # Examples
//!
//! Broadcasting a request across a 4×4 mesh:
//!
//! ```
//! use scorpio_noc::{set_bits, Endpoint, Fabric, Network, NocConfig, Packet, RouterId, Sid};
//!
//! let mesh = Fabric::Mesh.topology(4);
//! let endpoints = mesh.endpoints().count();
//! let mut net: Network<u32> = Network::new(mesh, NocConfig::scorpio());
//! let src = Endpoint::tile(RouterId(0));
//! let uid = net.try_inject(src, Packet::request(src, Sid(0), 0, 0xBEEF))?;
//! while !net.is_drained() {
//!     // Consume one flit per occupied VC, at every endpoint.
//!     for idx in 0..endpoints {
//!         for vc in set_bits(net.eject_vcs(idx)) {
//!             net.eject_take_vc(idx, vc);
//!         }
//!     }
//!     net.step();
//! }
//! // 15 other tiles + 4 MC ports heard the broadcast.
//! assert_eq!(net.deliveries(uid), 19);
//! # Ok::<(), scorpio_sim::PushError<scorpio_noc::Packet<u32>>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod config;
mod flit;
mod network;
pub(crate) mod obs;
pub mod placement;
pub(crate) mod planes;
mod router;
mod routing;
mod tables;
mod topology;

pub use arbiter::{set_bits, RotatingArbiter};
pub use config::{NocConfig, VnetCfg};
pub use flit::{data_packet_flits, Dest, Flit, Packet, Payload, Sid, VnetId};
pub use network::{Network, NocStats};
pub use obs::{NetObs, ObsConfig, TraceEvent, TraceKind, WindowCell};
pub use planes::{MultiNetwork, PlaneSteer, SteerKey};
pub use topology::{Coord, Endpoint, Fabric, LocalSlot, Port, PortMask, RouterId, Topology};

/// Verification oracles other crates' property tests share: the spec
/// walks every fabric must satisfy and a drain loop. Not part of the
/// fabric's interface.
#[doc(hidden)]
pub mod testing {
    use crate::{Network, Payload};

    pub use crate::routing::{broadcast_deliveries, check_broadcast_exactly_once, unicast_path};

    /// Steps `net` until every injection queue, router and wire is drained
    /// or `max_cycles` pass. Returns `true` if fully drained. The caller
    /// consumes ejected flits in `consume`, which receives the network once
    /// per cycle (before the tick).
    pub fn run_until_drained<T: Payload>(
        net: &mut Network<T>,
        max_cycles: u64,
        mut consume: impl FnMut(&mut Network<T>),
    ) -> bool {
        for _ in 0..max_cycles {
            consume(net);
            net.step();
            if net.is_drained() {
                return true;
            }
        }
        false
    }
}
