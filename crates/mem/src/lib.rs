//! Cache hierarchy and memory substrate for the SCORPIO reproduction:
//! set-associative arrays, write-through split L1s with invalidation ports,
//! the snoopy MOSI (+O_D) L2 controller with RSHRs, FID lists and a
//! writeback buffer, the region-tracker snoop filter, and the
//! ordered-stream memory controllers (Section 4 of the paper).
//!
//! # Examples
//!
//! A miss flowing through the L2 by hand (the full system wires these
//! queues to the NIC):
//!
//! ```
//! use scorpio_mem::{CoreOp, CoreReq, L2Config, L2Out, SnoopyL2};
//! use scorpio_coherence::MsgKind;
//! use scorpio_noc::{Endpoint, RouterId};
//! use scorpio_sim::Cycle;
//!
//! let mc = vec![Endpoint::mc(RouterId(0))];
//! let mut l2 = SnoopyL2::new(0, L2Config::chip(mc));
//! l2.try_core_req(CoreReq { op: CoreOp::Load, addr: 0x80, value: 0, token: 1,
//!                           enqueued: Cycle::ZERO, admitted: Cycle::ZERO });
//! let mut now = Cycle::ZERO;
//! // Let the request reach the outbox.
//! for _ in 0..32 {
//!     l2.tick(now);
//!     now = now.next();
//! }
//! let out = l2.pop_out().expect("miss issues an ordered request");
//! let req = match out { L2Out::OrderedRequest(m) => m, _ => panic!() };
//! assert_eq!(req.kind, MsgKind::GetS);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod l1;
mod l2;
mod mc;
mod region;

pub use array::{CacheArray, Line};
pub use l1::L1Cache;
pub use l2::{
    testing, CoreOp, CoreReq, CoreResp, L2Config, L2Out, L2Stats, MissSpan, OrderedSnoop, ServedBy,
    SnoopyL2,
};
pub use mc::{McConfig, McOut, McStats, MemoryController};
pub use region::RegionTracker;
