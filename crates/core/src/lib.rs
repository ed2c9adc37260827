//! # SCORPIO
//!
//! A full-system, cycle-level reproduction of *SCORPIO: A 36-Core Research
//! Chip Demonstrating Snoopy Coherence on a Scalable Mesh NoC with
//! In-Network Ordering* (ISCA 2014).
//!
//! The crate assembles the substrates — the ordered mesh NoC
//! (`scorpio-noc`), the notification network (`scorpio-notify`), the
//! ordering NICs (`scorpio-nic`), the MOSI+O_D cache hierarchy
//! (`scorpio-mem`) and workloads (`scorpio-workloads`) — into a [`System`]
//! you configure with [`SystemConfig`] and drive to completion:
//!
//! ```
//! use scorpio::{System, SystemConfig};
//! use scorpio_workloads::{generate, WorkloadParams};
//!
//! // A 3×3 system running a shortened "barnes"-like workload.
//! let cfg = SystemConfig::square(3);
//! let params = WorkloadParams::by_name("barnes").unwrap().with_ops(30);
//! let traces = generate(&params, cfg.cores(), cfg.seed);
//! let mut sys = System::with_traces(cfg, traces);
//! let report = sys.run_to_completion();
//! assert_eq!(report.ops_completed, 30 * 9);
//! println!("{}", report.summary());
//! ```
//!
//! Baselines for the paper's comparisons (TokenB, INSO with expiry
//! windows) run on the *identical* caches and routers, differing only in
//! how the global request order is established — exactly the paper's
//! methodology for Figure 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;
mod sequencer;
mod system;
mod tile;

pub use config::{ObsLevel, OpenLoopConfig, Protocol, SystemConfig, DEFAULT_SOURCE_QUEUE_CAP};
pub use report::{
    span_json, EpWait, ObsReport, PlaneObs, SpanReport, SystemReport, WindowReport, WindowRow,
};
pub use scorpio_notify::NotifyScheme;
pub use scorpio_workloads::ArrivalProcess;
pub use system::System;
