//! # scorpio-harness
//!
//! Experiment orchestration for the SCORPIO reproduction: the paper's
//! evaluation — and every scaling study beyond it — is a grid of
//! independent simulations (protocol × mesh size × workload × seed ×
//! configuration knobs). This crate owns that grid end to end:
//!
//! * [`scenario`] — the declarative model: [`Knob`]s, [`Variant`]s,
//!   [`SweepGrid`]s and named [`Scenario`]s,
//! * [`registry`] — one entry per experiment: every figure/table of the
//!   paper (`fig6` … `table2`) and every study since, most of them also
//!   at a reduced [`registry::Size`] run as `<name>-small`,
//! * [`exec`] — a multi-threaded job executor whose results are
//!   byte-identical for any worker count,
//! * [`sink`] — deterministic JSON-lines and CSV result sinks,
//! * [`table`] — the column-list table writer every renderer prints through,
//! * [`cli`] — the `harness` command (`harness list`, `harness run fig7
//!   --threads 8 --json out.jsonl`).
//!
//! # Examples
//!
//! Run the Figure 7 protocol comparison on a tiny budget across all CPUs:
//!
//! ```
//! use scorpio_harness::exec::{run_grid, ExecOptions};
//! use scorpio_harness::registry;
//!
//! let scenario = registry::by_name("fig7").unwrap();
//! let opts = ExecOptions { threads: 0, ops_per_core: 5, ..ExecOptions::default() };
//! let results = run_grid(&scenario.grid, &opts);
//! assert_eq!(results.len(), 20); // 4 workloads x 5 protocols
//! println!("{}", (scenario.render)(&scenario, &results));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod exec;
pub mod registry;
pub mod scenario;
pub mod sink;
pub mod table;

pub use exec::{run_grid, run_spec, ExecOptions, RunResult};
pub use scenario::{Engine, Fabric, Knob, McPlacement, RunSpec, Scenario, SweepGrid, Variant};
pub use table::render_normalized;

use scorpio::{SystemConfig, SystemReport};
use scorpio_workloads::{generate, WorkloadParams};

/// Default operations per core for sweeps. Override with the `SCORPIO_OPS`
/// environment variable (or `harness run --ops N`) to trade fidelity for
/// speed.
pub fn ops_per_core() -> usize {
    std::env::var("SCORPIO_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

/// Runs `params` (scaled to [`ops_per_core`]) on `cfg` and returns the
/// report — the single-run primitive the grid executor parallelizes.
pub fn run_workload(cfg: SystemConfig, params: &WorkloadParams) -> SystemReport {
    let scaled = params.clone().with_ops(ops_per_core());
    let traces = generate(&scaled, cfg.cores(), cfg.seed);
    let mut sys = scorpio::System::with_traces(cfg, traces);
    sys.run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: the env var is process-global, so default
    // behaviour and override are checked in order. Every other test in
    // this crate passes an explicit ops count, so none can observe it.
    #[test]
    fn ops_default_and_tiny_run() {
        std::env::remove_var("SCORPIO_OPS");
        assert_eq!(ops_per_core(), 150);
        std::env::set_var("SCORPIO_OPS", "10");
        let cfg = SystemConfig::square(2);
        let params = WorkloadParams::by_name("lu").unwrap();
        let r = run_workload(cfg, &params);
        assert_eq!(r.ops_completed, 40);
        std::env::remove_var("SCORPIO_OPS");
    }
}
