//! The SCORPIO network interface controller (Section 3.4).
//!
//! A [`Nic`] connects a cache controller (or memory controller) to the main
//! network (`scorpio-noc`, a [`scorpio_noc::MultiNetwork`] of one or more
//! address-interleaved planes) and the notification network
//! (`scorpio-notify`). A NIC that orders (SCORPIO) keeps one ordering
//! record per plane: a [`NotificationTracker`] that expands each
//! completed time window into that plane's globally consistent
//! Expected-SID stream, the pending-notification budget, the loopback
//! queue and the ESID register. Ordered requests — including the NIC's
//! own, via the loopback queues — are released to the controller strictly
//! in their plane's order, while responses flow through unordered. A
//! baseline NIC ([`NicMode::Unordered`]) builds no records and passes
//! every packet through as it arrives. Every
//! per-plane accessor names its plane: [`Nic::current_esid`] takes the
//! plane whose expectation to read, and [`NotificationTracker::new`] the
//! plane whose word group the tracker expands (plane 0 on the chip's
//! single-plane network).
//!
//! # Examples
//!
//! Two tiles on a 2×2 mesh observing a request in the same global slot:
//!
//! ```
//! use scorpio_nic::{Nic, NicConfig, NicMode};
//! use scorpio_noc::{Endpoint, Fabric, MultiNetwork, NocConfig, RouterId, Sid, Topology};
//! use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
//! use std::num::NonZeroUsize;
//!
//! let mesh = Topology::new(Fabric::Mesh, 2, 2, []);
//! let one = NonZeroUsize::new(1).unwrap();
//! let mut net: MultiNetwork<u32> =
//!     MultiNetwork::new(mesh.clone(), NocConfig::scorpio(), one, 0);
//! let cfg = NotifyConfig::for_mesh(&mesh);
//! let mut notify = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
//! let mut nics: Vec<Nic<u32>> = (0..4)
//!     .map(|i| {
//!         let ep = Endpoint::tile(RouterId(i));
//!         Nic::new(ep, Some(Sid(i)), NicMode::Ordered, 4, 1, NicConfig::default())
//!     })
//!     .collect();
//!
//! // Tile 3 issues one coherence request.
//! let now = net.cycle();
//! nics[3].try_send_request(0xAB, now, &mut net).unwrap();
//!
//! for _ in 0..60 {
//!     let now = net.cycle();
//!     for nic in &mut nics {
//!         nic.tick(now, &mut net, Some(&mut notify));
//!     }
//!     net.tick();
//!     net.commit();
//!     notify.tick();
//! }
//! // Every tile (including tile 3, via loopback) delivered it.
//! for nic in &mut nics {
//!     let d = nic.pop_ordered().expect("request delivered");
//!     assert_eq!(d.sid, Sid(3));
//!     assert_eq!(d.payload, 0xAB);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nic;
mod tracker;

pub use nic::{testing, Nic, NicConfig, NicMode, NicStats, OrderedDelivery, SendError};
pub use tracker::NotificationTracker;
