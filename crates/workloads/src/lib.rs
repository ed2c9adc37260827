//! Workload substrate for the SCORPIO reproduction: memory-operation
//! traces, synthetic generators whose presets mimic the traffic shapes of
//! the paper's SPLASH-2 / PARSEC benchmarks (see DESIGN.md for the
//! substitution rationale), and reactive core programs (ticket locks,
//! barriers) that realise the chip's functional-verification suite
//! (Section 4.3).
//!
//! # Examples
//!
//! ```
//! use scorpio_workloads::{generate, WorkloadParams};
//!
//! let barnes = WorkloadParams::by_name("barnes").unwrap().with_ops(100);
//! let traces = generate(&barnes, 36, 7);
//! assert_eq!(traces.len(), 36);
//! assert!(traces[0].write_fraction() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod program;
mod synthetic;
mod trace;

pub use arrival::{arrival_schedule, ArrivalProcess};
pub use program::{BarrierProgram, CoreProgram, TicketLockProgram};
pub use synthetic::{generate, WorkloadParams};
pub use trace::{Trace, TraceOp, TraceRecord};
