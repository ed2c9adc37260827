//! Cycle-level simulation kernel for the SCORPIO reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Cycle`] — a strongly-typed cycle counter,
//! * [`SimRng`] — a deterministic, seedable random-number generator,
//! * [`stats`] — counters, latency accumulators and histograms,
//! * [`Fifo`] — bounded FIFO queues with occupancy accounting,
//! * [`Latch`] — two-phase (compute/commit) registers used to model
//!   synchronous hardware without tick-order artifacts,
//! * [`ActiveSet`] — the wake/sleep bookkeeping the skip-idle-work
//!   simulation engines are built on, and [`Wake`], a component's answer
//!   to when its next tick can first change state,
//! * [`capped`] — the one cap policy of record streams and their
//!   exact-prefix merge.
//!
//! The SCORPIO simulator is *cycle driven*: each component exposes a
//! per-cycle `tick` and all cross-component communication goes through
//! [`Latch`]es or staged queues so that every component observes the state
//! produced in the previous cycle, exactly like flip-flop based hardware.
//!
//! # Examples
//!
//! ```
//! use scorpio_sim::{Cycle, Fifo, Latch};
//!
//! let mut clock = Cycle::ZERO;
//! let mut wire: Latch<u32> = Latch::empty();
//! wire.stage(7);
//! assert!(wire.current().is_none()); // not visible until commit
//! wire.commit();
//! clock = clock.next();
//! assert_eq!(wire.current(), Some(&7));
//!
//! let mut q: Fifo<u32> = Fifo::bounded(2);
//! q.push(1).unwrap();
//! assert_eq!(q.pop(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
pub mod capped;
mod cycle;
mod fifo;
mod latch;
mod rng;
pub mod stats;
mod wake;

pub use active::ActiveSet;
pub use cycle::Cycle;
pub use fifo::{Fifo, PushError};
pub use latch::Latch;
pub use rng::SimRng;
pub use wake::{debug_digest, Wake};
