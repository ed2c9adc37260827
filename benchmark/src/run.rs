//! The passes every run is made of: the statistics pass, the reference
//! pass and the timed passes, plus the plain (end-to-end) run built from
//! them. The traced run in `traced.rs` reuses the same passes.

use crate::alloc::allocations;
use crate::api::{self, Cell, CellStats, Obs, SpanSample, Stop};
use crate::estimator::{self, BlockFloor};
use crate::metrics::{ratio, Outcome, Values};
use crate::tracer::{SpanId, Tracer};
use crate::workloads::{CellSpec, Workload};
use std::time::Instant;

/// Stepped cycles per timed block: 0.05–0.25 ms of host time on the four
/// workloads. Much of this host's noise comes in bursts shorter than that,
/// and a block only needs one undisturbed pass to reach its floor; with
/// blocks of 64 cycles (3 ms on `sat-8x8`) few ever did.
pub const BLOCK_CYCLES: u32 = 4;
/// Back-to-back set-ups per cell and pass, each dropped before the next is
/// made; the last one is stepped. The first follows 0.1 s of stepping and
/// finds the caches cold; eight of them put most set-up samples on warm,
/// recycled memory, whose time the neighbours on this host disturb least.
pub const BUILDS_PER_PASS: usize = 8;
/// Seed of the model run. The modelled chip's statistics are exact, so they
/// are taken on one fixed input and compare bit for bit between commits;
/// `--seed` varies the input of the timed passes, whose host time is what
/// varies from run to run.
pub const MODEL_SEED: u64 = 2014;

/// What the untimed passes saw: one entry per cell.
pub struct Stats {
    /// Each cell on the run's seed, stepped as the timed passes step it:
    /// what they must reproduce and the counts host time is set against.
    pub timed: Vec<CellStats>,
    /// Each cell on `MODEL_SEED`, run to completion with counters and spans
    /// on: the modelled-chip statistics.
    pub model: Vec<CellStats>,
    /// Miss spans of the model cells.
    pub spans: Vec<Vec<SpanSample>>,
    /// Heap allocations of one timed pass's worth of work on `MODEL_SEED`
    /// (one set-up per cell; stepping to the timed cycles), and the cycles
    /// it simulated.
    pub build_allocs: u64,
    pub step_allocs: u64,
    pub alloc_cycles: u64,
}

impl Stats {
    pub fn sum(&self, f: impl Fn(&CellStats) -> u64) -> u64 {
        self.model.iter().map(f).sum()
    }

    pub fn sum_timed(&self, f: impl Fn(&CellStats) -> u64) -> u64 {
        self.timed.iter().map(f).sum()
    }

    /// Sum over the SCORPIO model cells only.
    pub fn sum_scorpio(&self, f: impl Fn(&CellStats) -> u64) -> u64 {
        self.model.iter().filter(|c| c.scorpio).map(f).sum()
    }

    /// Miss spans of the SCORPIO model cells.
    pub fn scorpio_spans(&self) -> impl Iterator<Item = &SpanSample> {
        self.model
            .iter()
            .zip(&self.spans)
            .filter(|(c, _)| c.scorpio)
            .flat_map(|(_, s)| s)
    }

    /// `inject + flight + commit` over a cell's spans must equal the
    /// ordering delay its report accumulated, sample for sample in total.
    pub fn spans_reconcile(&self) -> bool {
        self.model
            .iter()
            .zip(&self.spans)
            .filter(|(c, _)| c.scorpio)
            .all(|(c, spans)| {
                let sum: u64 = spans.iter().map(|s| s.inject + s.flight + s.commit).sum();
                sum == c.ordering_sum && spans.len() as u64 == c.ordering_count
            })
    }

    /// Operations the model cells attempted and completed, and requests
    /// dropped at a source in any cell of either kind.
    pub fn ops(&self) -> (u64, u64, u64) {
        (
            self.sum(|c| c.ops_attempted),
            self.sum(|c| c.ops_completed),
            self.sum(|c| c.source_dropped) + self.sum_timed(|c| c.source_dropped),
        )
    }
}

/// Which engine steps a cell.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Fast,
    /// `set_always_scan(true)`: probes everything every cycle.
    Reference,
}

fn run_once(spec: &CellSpec, seed: u64, obs: Obs, stop: Stop, engine: EngineKind) -> Cell {
    let traces = api::generate_traces(spec, seed);
    let mut cell = Cell::build(spec, seed, obs, stop, traces);
    if engine == EngineKind::Reference {
        cell.use_reference_engine();
    }
    cell.run();
    cell
}

/// Untimed: the model run of every cell, the timed passes' run of every
/// cell on `seed`, and the allocation count.
pub fn stats_pass(w: &Workload, seed: u64) -> Stats {
    let mut stats = Stats {
        timed: Vec::new(),
        model: Vec::new(),
        spans: Vec::new(),
        build_allocs: 0,
        step_allocs: 0,
        alloc_cycles: 0,
    };
    for spec in &w.cells {
        let timed = run_once(
            spec,
            seed,
            Obs::Timed,
            Stop::AtTimedCycles,
            EngineKind::Fast,
        );
        stats.timed.push(timed.stats(spec));
        let model = run_once(
            spec,
            MODEL_SEED,
            Obs::Stats,
            Stop::AtCompletion,
            EngineKind::Fast,
        );
        stats.model.push(model.stats(spec));
        stats.spans.push(model.spans());
        drop((timed, model));

        let before = allocations();
        let traces = api::generate_traces(spec, MODEL_SEED);
        let mut cell = Cell::build(spec, MODEL_SEED, Obs::Timed, Stop::AtTimedCycles, traces);
        let built = allocations();
        cell.run();
        stats.step_allocs += allocations() - built;
        stats.build_allocs += built - before;
        stats.alloc_cycles += cell.stats(spec).runtime_cycles;
    }
    stats
}

/// Untimed: every cell of the statistics pass once more on the always-scan
/// reference engine. True if every report renders to the same bytes. The
/// smoke run leaves out the model cells (`with_model` false): the
/// reference engine walks their every idle cycle.
pub fn reference_pass(w: &Workload, seed: u64, stats: &Stats, with_model: bool) -> bool {
    let same = |cell: Cell, spec: &CellSpec, fast: &CellStats| {
        cell.stats(spec).report_json == fast.report_json
    };
    w.cells.iter().enumerate().all(|(c, spec)| {
        let timed = run_once(
            spec,
            seed,
            Obs::Timed,
            Stop::AtTimedCycles,
            EngineKind::Reference,
        );
        same(timed, spec, &stats.timed[c])
            && (!with_model || {
                let model = run_once(
                    spec,
                    MODEL_SEED,
                    Obs::Stats,
                    Stop::AtCompletion,
                    EngineKind::Reference,
                );
                same(model, spec, &stats.model[c])
            })
    })
}

/// Floors accumulated over timed passes of one configuration.
#[derive(Default)]
pub struct Timing {
    /// Stepping time per cell, block by block.
    pub floors: Vec<BlockFloor>,
    /// Trace generation, system build and their sum per cell, one block
    /// per set-up of a pass.
    pub generate: Vec<BlockFloor>,
    pub build: Vec<BlockFloor>,
    pub setup: Vec<BlockFloor>,
    /// Whole-pass stepping times, in seconds.
    pub pass_seconds: Vec<f64>,
    /// Every pass so far reproduced the statistics pass, block count for
    /// block count.
    pub reproduced: bool,
}

/// Floor time of one of a pass's set-ups, in seconds.
fn per_setup(floors: &[BlockFloor]) -> f64 {
    floors.iter().map(BlockFloor::floor).sum::<f64>() / BUILDS_PER_PASS as f64
}

impl Timing {
    pub fn new(cells: usize) -> Timing {
        Timing {
            floors: vec![BlockFloor::default(); cells],
            generate: vec![BlockFloor::default(); cells],
            build: vec![BlockFloor::default(); cells],
            setup: vec![BlockFloor::default(); cells],
            pass_seconds: Vec::new(),
            reproduced: true,
        }
    }

    pub fn passes(&self) -> u32 {
        self.pass_seconds.len() as u32
    }

    /// `Σ_cells Σ_k min_p t[p][k]`, in seconds.
    pub fn host_floor(&self) -> f64 {
        self.floors.iter().map(BlockFloor::floor).sum()
    }

    /// `Σ_cells Σ_j min_p t[p][j] / BUILDS_PER_PASS` over the passes' set-ups.
    pub fn setup_floor(&self) -> f64 {
        per_setup(&self.setup)
    }

    pub fn generate_floor(&self) -> f64 {
        per_setup(&self.generate)
    }

    pub fn build_floor(&self) -> f64 {
        per_setup(&self.build)
    }

    /// Median whole-pass time over the floor: how noisy the host was.
    pub fn pass_spread(&self) -> f64 {
        ratio(estimator::median(&self.pass_seconds), self.host_floor())
    }

    pub fn floor_hit_share(&self) -> f64 {
        let blocks: usize = self.floors.iter().map(BlockFloor::blocks).sum();
        let hits: f64 = self
            .floors
            .iter()
            .map(|f| f.floor_hit_share() * f.blocks() as f64)
            .sum();
        ratio(hits, blocks as f64)
    }
}

/// One timed pass: per cell, sets the system up `BUILDS_PER_PASS` times
/// back to back (each timed, the last one kept), then steps it to its timed
/// cycles in blocks of `BLOCK_CYCLES` stepped cycles, timing each block. An
/// enabled tracer also records every call as a span.
pub fn timed_pass(
    w: &Workload,
    seed: u64,
    obs: Obs,
    stats: &Stats,
    timing: &mut Timing,
    tracer: &mut Tracer,
) {
    let run = timing.passes() + 1;
    let pass = tracer.open("pass", 0, run, SpanId::ROOT);
    let mut pass_seconds = 0.0;
    for (c, spec) in w.cells.iter().enumerate() {
        for floor in [
            &mut timing.generate[c],
            &mut timing.build[c],
            &mut timing.setup[c],
        ] {
            floor.begin_pass();
        }
        let mut kept = None;
        for _ in 0..BUILDS_PER_PASS {
            drop(kept.take());
            let span = tracer.open("workloads.generate", c as u32, run, pass);
            let t0 = Instant::now();
            let traces = api::generate_traces(spec, seed);
            let t1 = Instant::now();
            tracer.close(span);
            let span = tracer.open("core.build", c as u32, run, pass);
            let cell = Cell::build(spec, seed, obs, Stop::AtTimedCycles, traces);
            let build = t1.elapsed().as_secs_f64();
            tracer.close(span);
            let generate = (t1 - t0).as_secs_f64();
            timing.generate[c].record(generate);
            timing.build[c].record(build);
            timing.setup[c].record(generate + build);
            kept = Some(cell);
        }
        for floor in [
            &mut timing.generate[c],
            &mut timing.build[c],
            &mut timing.setup[c],
        ] {
            floor.end_pass();
        }
        let mut cell = kept.expect("at least one build");

        let floor = &mut timing.floors[c];
        floor.begin_pass();
        let mut block = 0u32;
        loop {
            let span = tracer.open("core.step_block", block, run, pass);
            let t0 = Instant::now();
            let stepped = cell.step_block(BLOCK_CYCLES);
            let seconds = t0.elapsed().as_secs_f64();
            tracer.close(span);
            floor.record(seconds);
            pass_seconds += seconds;
            block += 1;
            if stepped < BLOCK_CYCLES {
                break;
            }
        }
        timing.reproduced &= floor.end_pass();

        let span = tracer.open("core.report", c as u32, run, pass);
        let seen = cell.stats(spec);
        tracer.close(span);
        let expected = &stats.timed[c];
        // With the workload's own observability the whole report must come
        // out the same; with it switched, the counts that do not depend on it.
        timing.reproduced &= if obs == Obs::Timed {
            seen.report_json == expected.report_json
        } else {
            seen.runtime_cycles == expected.runtime_cycles
                && seen.ops_completed == expected.ops_completed
                && seen.l2_misses == expected.l2_misses
        };
    }
    tracer.close(pass);
    timing.pass_seconds.push(pass_seconds);
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How long a plain run measures.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Timed passes for this many seconds.
    Seconds(f64),
    /// Two timed passes and no reference run of the model cells: the
    /// smoke test.
    Quick,
}

/// The plain run: statistics pass, reference pass, timed passes with
/// observability as the workload says, and the nine end-to-end metrics.
pub fn plain(w: &Workload, seed: u64, length: Length) -> Outcome {
    let quick = matches!(length, Length::Quick);
    let stats = stats_pass(w, seed);
    let reference_equal = reference_pass(w, seed, &stats, !quick);

    let mut timing = Timing::new(w.cells.len());
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    loop {
        timed_pass(w, seed, Obs::Timed, &stats, &mut timing, &mut tracer);
        let done = match length {
            Length::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Length::Quick => timing.passes() >= 2,
        };
        if done {
            break;
        }
    }

    let timed_cycles = stats.sum_timed(|c| c.runtime_cycles);
    let (attempted, completed, dropped) = stats.ops();
    let mut sojourn: Vec<u64> = stats.scorpio_spans().map(|s| s.total).collect();
    sojourn.sort_unstable();
    let p99 = estimator::p99(&sojourn);
    let reconciled = stats.spans_reconcile();

    let mut v = Values::default();
    v.set(
        "sim_cycles_per_s",
        ratio(timed_cycles as f64, timing.host_floor()),
    );
    v.set("setup_s", timing.setup_floor());
    v.set("peak_rss_mb", peak_rss_mb());
    v.set(
        "heap_allocs_per_kcycle",
        ratio(
            (stats.build_allocs + stats.step_allocs) as f64,
            stats.alloc_cycles as f64 / 1000.0,
        ),
    );
    v.set("runtime_cycles", stats.sum(|c| c.runtime_cycles) as f64);
    v.set(
        "l2_service_mean_cycles",
        ratio(
            stats.sum_scorpio(|c| c.l2_service_sum) as f64,
            stats.sum_scorpio(|c| c.l2_service_count) as f64,
        ),
    );
    v.set(
        "sojourn_p50_cycles",
        estimator::percentile(&sojourn, 0.50) as f64,
    );
    // Below 1100 samples the nearest rank is printed all the same, and the
    // run is not correct.
    v.set(
        "sojourn_p99_cycles",
        estimator::percentile(&sojourn, 0.99) as f64,
    );
    v.set(
        "completed_op_share",
        ratio(completed as f64, attempted as f64),
    );

    println!(
        "timed passes {}  blocks/pass {}  floor {:.4} s  median pass / floor {:.3}  floor-hit share {:.3}",
        timing.passes(),
        timing.floors.iter().map(BlockFloor::blocks).sum::<usize>(),
        timing.host_floor(),
        timing.pass_spread(),
        timing.floor_hit_share(),
    );
    for (c, spec) in w.cells.iter().enumerate() {
        let (timed, model) = (&stats.timed[c], &stats.model[c]);
        println!(
            "cell {:<8} timed (seed {seed}): {} cycles, {} stepped, {} misses, floor {:.4} s;  model \
             (seed {MODEL_SEED}): {} cycles, {} misses",
            spec.label,
            timed.runtime_cycles,
            timed.stepped_cycles,
            timed.l2_misses,
            timing.floors[c].floor(),
            model.runtime_cycles,
            model.l2_misses,
        );
    }
    println!(
        "miss spans (SCORPIO model cells) {}  ops attempted {attempted}  completed {completed}  \
         source_dropped {dropped}",
        sojourn.len(),
    );
    println!(
        "checks: reference engine reports identical {reference_equal}; timed passes reproduce the \
         statistics pass {}; span phases reconcile {reconciled}; p99 sample count {}",
        timing.reproduced,
        match &p99 {
            Ok(_) => "sufficient".to_string(),
            Err(e) => format!("INSUFFICIENT ({e})"),
        },
    );
    Outcome {
        correct: completed == attempted
            && dropped == 0
            && reference_equal
            && timing.reproduced
            && reconciled
            && p99.is_ok(),
        attempted,
        failed: attempted - completed.min(attempted),
        values: v,
    }
}
