//! The parallel job executor.
//!
//! Every [`RunSpec`] in a grid is an *independent* simulation — a fresh
//! [`System`] with its own RNG streams and no shared state — so a sweep is
//! embarrassingly parallel. Workers claim the next unclaimed spec from one
//! shared cursor whenever they finish one, so stragglers (big meshes, slow
//! protocols) cannot serialize the sweep behind one worker.
//!
//! Determinism: each run's result depends only on its spec (plus the
//! ops-per-core override), and results are returned in grid-enumeration
//! order, so the output is byte-identical for any worker count and any
//! completion order. Wall-clock timings are recorded per run but kept out
//! of the deterministic sinks unless explicitly requested.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use scorpio::{
    MissSpan, ObsLevel, SpanReport, System, SystemConfig, SystemReport, WindowReport, WindowRow,
};
use scorpio_noc::TraceEvent;
use scorpio_workloads::generate;

use crate::scenario::{Engine, RunSpec, SweepGrid};

/// Executor options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads. `0` means one per available CPU.
    pub threads: usize,
    /// Operations per core for every run.
    pub ops_per_core: usize,
    /// Emit one progress line per completed run to stderr.
    pub verbose: bool,
    /// Recording forced on every run.
    pub overrides: Overrides,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            threads: 0,
            ops_per_core: crate::DEFAULT_OPS_PER_CORE,
            verbose: false,
            overrides: Overrides::default(),
        }
    }
}

/// Config-level recording overrides applied on top of a spec's own
/// configuration before a run; none of them moves the config hash. A
/// `None`/`false` field keeps the spec's own setting (usually off, or
/// whatever a [`crate::Knob::Spans`] / [`crate::Knob::Windows`] variant
/// set).
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Force an observability level (`--hist` / `--trace`).
    pub obs: Option<ObsLevel>,
    /// Caps each record stream (flit trace, spans) per run (`--trace-limit`).
    pub trace_limit: Option<usize>,
    /// Force transaction-span recording (`--spans`).
    pub spans: bool,
    /// Force windowed telemetry with this epoch length (`--windows` /
    /// `--window-cycles`).
    pub window_cycles: Option<u64>,
}

impl ExecOptions {
    /// Resolves `threads == 0` to the host's available parallelism.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The result of one grid point: spec, report and metadata.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: RunSpec,
    /// The configuration the run simulated, the executor's recording
    /// overrides applied, as it was before `System::build` adjusted it.
    /// The sinks write its label and its [`SystemConfig::stable_hash`],
    /// which the overrides never move.
    pub config: SystemConfig,
    /// The simulation report.
    pub report: SystemReport,
    /// Wall-clock nanoseconds this run took (not part of deterministic
    /// output; see the sink options).
    pub wall_nanos: u128,
    /// Setup phase: workload generation plus system construction.
    pub(crate) setup_nanos: u128,
    /// Simulation phase (`run_to_completion` only) — the denominator of
    /// the simulated-cycles-per-second throughput metric.
    pub sim_nanos: u128,
    /// Cycles the engine actually stepped. Equals `report.runtime_cycles`
    /// unless the leap engine jumped idle spans; the gap is the leap
    /// ratio the timing sinks report.
    pub stepped_cycles: u64,
    /// The flit trace (deterministic merge order) with the count of
    /// events dropped at the cap, when the run traced.
    pub trace: Option<(Vec<TraceEvent>, u64)>,
    /// The transaction spans (one per retired miss, in deterministic
    /// retire order) with the count dropped at the cap, when the run
    /// recorded spans.
    pub spans: Option<(Vec<MissSpan>, u64)>,
    /// The windowed-telemetry rows (one per epoch, in epoch order) when
    /// the run bucketed windows.
    pub windows: Option<Vec<WindowRow>>,
}

impl RunResult {
    /// The run's span breakdown, if it recorded spans.
    pub(crate) fn spans(&self) -> Option<&SpanReport> {
        self.report.obs.as_deref()?.spans.as_ref()
    }

    /// The run's windowed-telemetry summary, if it bucketed windows.
    pub(crate) fn windows(&self) -> Option<&WindowReport> {
        self.report.obs.as_deref()?.windows.as_ref()
    }
}

/// Runs one spec to completion.
pub fn run_spec(spec: &RunSpec, ops_per_core: usize) -> RunResult {
    run_spec_ov(spec, ops_per_core, &Overrides::default())
}

/// The executor core: applies every override, runs the spec on its
/// engine, and collects whichever deterministic streams the final
/// configuration enabled (flit trace, transaction spans, window rows).
pub fn run_spec_ov(spec: &RunSpec, ops_per_core: usize, ov: &Overrides) -> RunResult {
    let mut cfg = spec.config();
    if let Some(level) = ov.obs {
        cfg = cfg.with_obs(level);
    }
    if let Some(n) = ov.trace_limit {
        cfg = cfg.with_trace_limit(n);
    }
    if ov.spans {
        cfg = cfg.with_spans(true);
    }
    if let Some(w) = ov.window_cycles {
        cfg = cfg.with_windows(w);
    }
    let (tracing, spanning, epoch) = (cfg.obs == ObsLevel::Trace, cfg.spans, cfg.window_cycles);
    let config = cfg.clone();
    let params = spec.workload.clone().with_ops(ops_per_core);
    let started = Instant::now();
    let traces = generate(&params, cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    match spec.engine {
        Engine::ActiveSet => {}
        Engine::AlwaysScan => sys.set_always_scan(true),
        Engine::Leap => sys.set_leap(true),
    }
    let setup_nanos = started.elapsed().as_nanos();
    let sim_started = Instant::now();
    let report = sys.run_to_completion();
    let sim_nanos = sim_started.elapsed().as_nanos();
    let stepped_cycles = sys.stepped_cycles();
    let trace = tracing.then(|| sys.take_trace());
    let spans = spanning.then(|| sys.span_records());
    let windows = (epoch != 0).then(|| sys.window_rows());
    RunResult {
        spec: spec.clone(),
        config,
        report,
        wall_nanos: started.elapsed().as_nanos(),
        setup_nanos,
        sim_nanos,
        stepped_cycles,
        trace,
        spans,
        windows,
    }
}

/// Runs every spec of `grid` and returns results in enumeration order.
pub fn run_grid(grid: &SweepGrid, opts: &ExecOptions) -> Vec<RunResult> {
    run_specs(&grid.enumerate(), opts)
}

/// Runs an explicit spec list and returns results in the same order.
///
/// Workers claim specs in enumeration order from one shared cursor and
/// write each result into that spec's slot, so the output order never
/// depends on which worker ran what.
pub(crate) fn run_specs(specs: &[RunSpec], opts: &ExecOptions) -> Vec<RunResult> {
    let workers = opts.effective_threads().clamp(1, specs.len().max(1));
    // `Relaxed` is enough: the cursor only hands out indices; results are
    // published through the slot mutexes and the scope's join.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursor, slots) = (&cursor, &slots);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let r = run_spec_ov(spec, opts.ops_per_core, &opts.overrides);
                if opts.verbose {
                    eprintln!(
                        "[harness] {} -> {} cycles (worker {w})",
                        spec.key(),
                        r.report.runtime_cycles
                    );
                }
                *slots[i].lock().expect("no worker panics holding a slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panics holding a slot")
                .expect("the cursor hands out every spec index exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SweepGrid, Variant};
    use scorpio::Protocol;
    use scorpio_workloads::WorkloadParams;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .protocols(&[Protocol::Scorpio, Protocol::TokenB])
            .variants(vec![Variant::baseline()])
            .seeds(&[1, 2, 3])
    }

    #[test]
    fn results_come_back_in_enumeration_order() {
        let grid = tiny_grid();
        let opts = ExecOptions {
            threads: 3,
            ops_per_core: 5,
            ..ExecOptions::default()
        };
        let results = run_grid(&grid, &opts);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.spec.index, i);
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let grid = tiny_grid();
        let serial = run_grid(
            &grid,
            &ExecOptions {
                threads: 1,
                ops_per_core: 8,
                ..ExecOptions::default()
            },
        );
        for workers in [2, 4, 7] {
            let parallel = run_grid(
                &grid,
                &ExecOptions {
                    threads: workers,
                    ops_per_core: 8,
                    ..ExecOptions::default()
                },
            );
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.spec, b.spec);
                assert_eq!(a.config.stable_hash(), b.config.stable_hash());
                assert_eq!(
                    a.report.to_json(),
                    b.report.to_json(),
                    "{} must not depend on worker count",
                    a.spec.key()
                );
            }
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("fft").unwrap()]).meshes(&[2]);
        let results = run_grid(
            &grid,
            &ExecOptions {
                threads: 64,
                ops_per_core: 4,
                ..ExecOptions::default()
            },
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].report.ops_completed, 4 * 4);
    }

    #[test]
    fn empty_grid_returns_empty() {
        let grid = SweepGrid::default();
        assert!(run_grid(&grid, &ExecOptions::default()).is_empty());
    }

    // Regression test: the steal path once held the worker's own queue
    // lock across the steal attempt, so two workers going idle together
    // deadlocked on each other's locks. The race window is the sweep
    // tail, so hammer many short sweeps where workers drain their queues
    // near-simultaneously.
    #[test]
    fn executor_tail_does_not_deadlock() {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .seeds(&[1, 2, 3, 4, 5, 6]);
        let specs = grid.enumerate();
        for _ in 0..150 {
            let r = run_specs(
                &specs,
                &ExecOptions {
                    threads: 4,
                    ops_per_core: 2,
                    ..ExecOptions::default()
                },
            );
            assert_eq!(r.len(), 6);
        }
    }
}
