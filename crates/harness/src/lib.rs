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
//!   at a reduced `registry::Size` run as `<name>-small`,
//! * [`exec`] — a multi-threaded job executor whose results are
//!   byte-identical for any worker count,
//! * [`sink`] — deterministic JSON-lines and CSV result sinks,
//! * `table` — the column-list table writer every renderer prints through,
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
pub(crate) mod table;

// The analytical area and power model of the chip (Section 5.4) and the
// paper's fact tables, read only by the registry's Figure 9, Table 1 and
// Table 2 renderers and by the network-cost columns of the sweeps. It is
// calibrated to the published tile breakdowns (Figure 9), the chip feature
// summary (Table 1) and the multicore comparison (Table 2), and encodes the
// design-exploration costs of Section 5.2 (6 VCs cost 15% more area and 12%
// more power than 4). Both files live under `physical/`, declared at the
// crate root under the short names the registry and their tests use.
#[path = "physical/breakdown.rs"]
mod breakdown;
#[path = "physical/tables.rs"]
mod tables;

pub use exec::{run_grid, run_spec, ExecOptions, RunResult};
pub use scenario::{Engine, Fabric, Knob, McPlacement, RunSpec, Scenario, SweepGrid, Variant};

/// Operations per core a run executes unless `harness run --ops N` (or
/// [`ExecOptions::ops_per_core`]) says otherwise.
pub(crate) const DEFAULT_OPS_PER_CORE: usize = 150;

#[cfg(test)]
mod tests {
    use super::*;
    use scorpio::SystemConfig;
    use scorpio_workloads::{generate, WorkloadParams};

    #[test]
    fn ops_default_and_tiny_run() {
        assert_eq!(DEFAULT_OPS_PER_CORE, 150);
        assert_eq!(ExecOptions::default().ops_per_core, DEFAULT_OPS_PER_CORE);
        let cfg = SystemConfig::square(2);
        let params = WorkloadParams::by_name("lu").unwrap().with_ops(10);
        let traces = generate(&params, cfg.cores(), cfg.seed);
        let r = scorpio::System::with_traces(cfg, traces).run_to_completion();
        assert_eq!(r.ops_completed, 40);
    }
}
