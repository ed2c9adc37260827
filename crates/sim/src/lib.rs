//! Cycle-level simulation kernel for the SCORPIO reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Cycle`] — a strongly-typed cycle counter,
//! * [`SimRng`] — a deterministic, seedable random-number generator,
//! * [`stats`] — counters, latency accumulators and histograms,
//! * [`Fifo`] — bounded FIFO queues with occupancy accounting,
//! * [`SetStore`] — set-associative LRU storage that holds only the sets
//!   it touches, behind every cache and directory array,
//! * [`ActiveSet`] — the wake/sleep bookkeeping the skip-idle-work
//!   simulation engines are built on, and [`Wake`], a component's answer
//!   to when its next tick can first change state,
//! * [`capped`] — the one cap policy of record streams and their
//!   exact-prefix merge,
//! * [`Fnv1a`] — the stable hash behind configuration and state digests.
//!
//! The SCORPIO simulator is *cycle driven*: each component exposes a
//! per-cycle `tick`, and cross-component traffic is staged during the
//! tick and made visible by a commit step after every component has
//! ticked, so that every component observes the state produced in the
//! previous cycle, exactly like flip-flop based hardware.
//!
//! # Examples
//!
//! ```
//! use scorpio_sim::{Cycle, Fifo, SimRng};
//!
//! let mut clock = Cycle::ZERO;
//! let mut q: Fifo<u64> = Fifo::bounded(2);
//! let mut rng = SimRng::seed_from(7);
//! q.push(rng.next_u64() % 10).unwrap();
//! clock = clock.next();
//! assert_eq!(clock.as_u64(), 1);
//! assert!(q.pop().is_some_and(|v| v < 10));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
pub mod capped;
mod cycle;
mod fifo;
mod fnv;
mod rng;
mod sets;
pub mod stats;
mod wake;

pub use active::ActiveSet;
pub use cycle::Cycle;
pub use fifo::{Fifo, PushError};
pub use fnv::Fnv1a;
pub use rng::SimRng;
pub use sets::SetStore;
pub use wake::Wake;
