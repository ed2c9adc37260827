//! Coherence machinery for the SCORPIO reproduction.
//!
//! * [`CohMsg`] / [`MsgKind`] — the message vocabulary shared by the snoopy
//!   SCORPIO protocol and every baseline (limited-pointer directory,
//!   HyperTransport-style broadcast directory, TokenB, INSO);
//! * [`snoop_transition`] — the MOSI + O_D stable-state table (Section 4.2);
//! * [`FidList`] — forwarding-ID lists for non-blocking snoop service;
//! * [`OwnershipStore`] / [`DirectoryCache`] — the memory-side ownership
//!   bits and the latency model of finite directory caches;
//! * [`InsoSlotAllocator`] / [`InsoReorderBuffer`] — the INSO baseline's
//!   slot ordering with expiry traffic.
//!
//! # Examples
//!
//! ```
//! use scorpio_coherence::{snoop_transition, LineState, MsgKind};
//!
//! // The paper's running example: a remote write invalidates the dirty
//! // owner, which supplies the data.
//! let action = snoop_transition(LineState::Od, MsgKind::GetX);
//! assert!(action.respond_with_data);
//! assert_eq!(action.next, LineState::I);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;
mod fid;
mod inso;
mod mosi;
mod msg;

pub use directory::{home_tile, DirectoryCache, LpdEntry, Owner, OwnershipStore};
pub use fid::{FidEntry, FidList, FidPush};
pub use inso::{InsoReorderBuffer, InsoSlotAllocator, SlotContent};
pub use mosi::{fill_state, snoop_transition, LineState, SnoopAction};
pub use msg::{CohMsg, LineAddr, MsgKind};
