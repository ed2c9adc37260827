//! The SCORPIO notification network (Section 3.3): an ultra-lightweight
//! bufferless mesh of OR gates and latches that gives every node the same
//! view of "which cores want requests ordered this window", within a fixed
//! latency bound.
//!
//! Because the network is contention-free and fixed-latency by
//! construction, the crate models its *contract*, not its gates:
//! [`NotifyNetwork`] is a window clock over three [`NotifyMsg`] registers
//! (staged → in flight → published), and [`NotifyScheme`] says how long a
//! window the fabric needs. That the gates meet the contract — every
//! router holds the published word after exactly the declared propagation
//! cycles — is checked against a gate-level oracle in the test suite, on
//! every fabric.
//!
//! Combined with a consistent ordering rule at every NIC (the rotating
//! priority arbiter in `scorpio-nic`), this yields a *distributed* global
//! order without a centralized ordering point — the paper's key idea of
//! decoupling message **ordering** (this network) from message **delivery**
//! (the main network in `scorpio-noc`).
//!
//! # Examples
//!
//! ```
//! use scorpio_noc::Fabric;
//! use scorpio_notify::{NotifyConfig, NotifyNetwork, NotifyScheme};
//!
//! let mesh = Fabric::Mesh.topology(6);
//! let cfg = NotifyConfig::for_mesh(&mesh);
//! // One main-network plane, the chip's flat OR mesh.
//! let mut nn = NotifyNetwork::with_scheme(&mesh, cfg, 1, NotifyScheme::Flat);
//! // Cores 3 and 30 announce one request each on plane 0.
//! nn.stage_injection(0, 3, 1, false);
//! nn.stage_injection(0, 30, 1, false);
//! for _ in 0..13 {
//!     nn.tick(); // one full time window
//! }
//! let (_, merged) = nn.latest().unwrap();
//! assert_eq!(merged.count(0, 3), 1);
//! assert_eq!(merged.count(0, 30), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod message;
mod network;

pub use message::NotifyMsg;
pub use network::{NotifyConfig, NotifyNetwork, NotifyScheme};
