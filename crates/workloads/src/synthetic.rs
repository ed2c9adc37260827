//! Synthetic SPLASH-2 / PARSEC-like workload generators.
//!
//! We cannot run the real benchmarks (no cores, no OS); what the paper's
//! evaluation depends on is the *memory-traffic shape* each benchmark
//! presents to the coherence system: miss rate (via working-set size and
//! locality), read/write mix, how much of the footprint is shared, and how
//! often lines migrate between writers (which drives cache-to-cache
//! transfers — ~90% of misses are served by other caches in the paper's
//! runs). Each preset below dials those knobs to qualitatively match the
//! published characterisations of its namesake. See DESIGN.md's
//! substitution table.

use crate::trace::{Trace, TraceOp, TraceRecord};
use scorpio_sim::SimRng;

/// Tunable traffic shape of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Benchmark name (for reports).
    pub name: &'static str,
    /// Memory operations per core.
    pub ops_per_core: usize,
    /// Mean compute-gap cycles between operations (geometric).
    pub mean_gap: f64,
    /// Fraction of operations that write (store/atomic).
    pub write_fraction: f64,
    /// Fraction of accesses into the *shared* region (rest is per-core
    /// private).
    pub shared_fraction: f64,
    /// Shared-region size in lines.
    pub shared_lines: usize,
    /// Per-core private working set in lines.
    pub private_lines: usize,
    /// Probability a shared access targets the hot subset (sharing
    /// intensity / contention).
    pub hot_fraction: f64,
    /// Hot-subset size in lines.
    pub hot_lines: usize,
    /// Probability a shared access follows a migratory read-modify-write
    /// pattern (drives ownership migration between caches).
    pub migratory_fraction: f64,
    /// Temporal-locality revisit probability for private accesses.
    pub locality: f64,
    /// Ops per compute/communicate phase (0 disables phasing). Barrier-
    /// style applications alternate short memory bursts with long compute
    /// phases; every `phase_ops` operations the trace inserts an extra
    /// `phase_gap`-cycle quiet period on every core, leaving the machine
    /// drained and idle between bursts.
    pub phase_ops: usize,
    /// Extra gap cycles inserted at each phase boundary. Must stay safely
    /// below 50 000: a synchronized quiet phase completes no ops anywhere,
    /// and `System::run_to_completion`'s deadlock watchdog panics after
    /// 50k op-free cycles.
    pub phase_gap: u32,
}

impl WorkloadParams {
    fn preset(
        name: &'static str,
        write_fraction: f64,
        shared_fraction: f64,
        shared_lines: usize,
        private_lines: usize,
        migratory_fraction: f64,
        mean_gap: f64,
    ) -> WorkloadParams {
        WorkloadParams {
            name,
            ops_per_core: 400,
            mean_gap,
            write_fraction,
            shared_fraction,
            shared_lines,
            private_lines,
            hot_fraction: 0.5,
            hot_lines: (shared_lines / 8).max(4),
            migratory_fraction,
            locality: 0.6,
            phase_ops: 0,
            phase_gap: 0,
        }
    }

    /// All SPLASH-2 presets the paper sweeps (Figures 6 and 8).
    pub fn splash2() -> Vec<WorkloadParams> {
        vec![
            // name, writes, shared, shared-lines, private-lines, migratory, gap
            Self::preset("barnes", 0.30, 0.55, 512, 384, 0.35, 6.0),
            Self::preset("fft", 0.25, 0.45, 1024, 768, 0.10, 5.0),
            Self::preset("fmm", 0.25, 0.50, 640, 512, 0.25, 7.0),
            Self::preset("lu", 0.30, 0.40, 768, 512, 0.15, 5.0),
            Self::preset("nlu", 0.30, 0.45, 768, 640, 0.15, 5.0),
            Self::preset("radix", 0.40, 0.50, 1280, 896, 0.10, 4.0),
            Self::preset("water-nsq", 0.25, 0.55, 448, 384, 0.40, 7.0),
            Self::preset("water-spatial", 0.25, 0.50, 512, 448, 0.30, 7.0),
        ]
    }

    /// The PARSEC presets the paper uses.
    pub(crate) fn parsec() -> Vec<WorkloadParams> {
        vec![
            Self::preset("blackscholes", 0.20, 0.25, 384, 768, 0.10, 8.0),
            Self::preset("canneal", 0.35, 0.70, 1536, 512, 0.45, 4.0),
            Self::preset("fluidanimate", 0.35, 0.60, 896, 640, 0.40, 5.0),
            Self::preset("swaptions", 0.25, 0.30, 384, 768, 0.15, 7.0),
            Self::preset("streamcluster", 0.20, 0.60, 1024, 512, 0.20, 5.0),
            Self::preset("vips", 0.30, 0.45, 768, 640, 0.25, 6.0),
        ]
    }

    /// Every benchmark in Figure 6 (SPLASH-2 then PARSEC subset).
    pub fn figure6_set() -> Vec<WorkloadParams> {
        let mut v = Self::splash2();
        v.extend(Self::parsec().into_iter().filter(|p| {
            ["blackscholes", "canneal", "fluidanimate", "swaptions"].contains(&p.name)
        }));
        v
    }

    /// The 16-core Figure 7 subset.
    pub fn figure7_set() -> Vec<WorkloadParams> {
        Self::parsec()
            .into_iter()
            .filter(|p| ["blackscholes", "streamcluster", "swaptions", "vips"].contains(&p.name))
            .collect()
    }

    /// Every named preset: SPLASH-2 then PARSEC, in registry order.
    pub fn all() -> Vec<WorkloadParams> {
        let mut v = Self::splash2();
        v.extend(Self::parsec());
        v
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<WorkloadParams> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// Same workload scaled to `ops` operations per core.
    #[must_use]
    pub fn with_ops(mut self, ops: usize) -> WorkloadParams {
        self.ops_per_core = ops;
        self
    }
}

/// Address-space layout constants for generated traces.
const LINE: u64 = 32;
const SHARED_BASE: u64 = 0x1000_0000;
const PRIVATE_BASE: u64 = 0x8000_0000;
const PRIVATE_STRIDE: u64 = 0x0100_0000;

/// Generates the per-core traces of `params` for `cores` cores.
///
/// Deterministic in (`params`, `cores`, `seed`).
///
/// # Examples
///
/// ```
/// use scorpio_workloads::{generate, WorkloadParams};
///
/// let params = WorkloadParams::by_name("barnes").unwrap().with_ops(50);
/// let traces = generate(&params, 4, 1);
/// assert_eq!(traces.len(), 4);
/// assert_eq!(traces[0].len(), 50);
/// // Deterministic:
/// assert_eq!(generate(&params, 4, 1), traces);
/// ```
pub fn generate(params: &WorkloadParams, cores: usize, seed: u64) -> Vec<Trace> {
    // Mix a crate-specific tag so seeds don't collide with other RNG users.
    let mut root = SimRng::seed_from(seed ^ 0x5C02_11A0_2014_0000);
    (0..cores)
        .map(|core| {
            let mut rng = root.split(core as u64);
            generate_core(params, core, &mut rng)
        })
        .collect()
}

fn generate_core(params: &WorkloadParams, core: usize, rng: &mut SimRng) -> Trace {
    let mut trace = Trace::new();
    let mut last_private: u64 = PRIVATE_BASE + core as u64 * PRIVATE_STRIDE;
    let mut pending_migratory: Option<u64> = None;
    for k in 0..params.ops_per_core {
        // At most 10 000: the sampler's cap.
        let mut gap = rng.geometric(params.mean_gap) as u32;
        if params.phase_ops > 0 && k > 0 && k % params.phase_ops == 0 {
            gap += params.phase_gap;
        }
        // A migratory access pattern: read then write the same line.
        if let Some(addr) = pending_migratory.take() {
            trace.push(TraceRecord {
                gap,
                op: TraceOp::Store,
                addr,
                value: (core as u64) << 32 | k as u64,
            });
            continue;
        }
        let shared = rng.chance(params.shared_fraction);
        let addr = if shared {
            let line = if rng.chance(params.hot_fraction) {
                rng.gen_range_u64(params.hot_lines as u64)
            } else {
                rng.gen_range_u64(params.shared_lines as u64)
            };
            SHARED_BASE + line * LINE
        } else if rng.chance(params.locality) {
            last_private
        } else {
            let line = rng.gen_range_u64(params.private_lines as u64);
            let a = PRIVATE_BASE + core as u64 * PRIVATE_STRIDE + line * LINE;
            last_private = a;
            a
        };
        if shared && rng.chance(params.migratory_fraction) {
            // Read now, write next op (classic migratory sharing).
            trace.push(TraceRecord {
                gap,
                op: TraceOp::Load,
                addr,
                value: 0,
            });
            pending_migratory = Some(addr);
            continue;
        }
        let op = if rng.chance(params.write_fraction) {
            TraceOp::Store
        } else {
            TraceOp::Load
        };
        trace.push(TraceRecord {
            gap,
            op,
            addr,
            value: (core as u64) << 32 | k as u64,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_paper_benchmarks() {
        let names: Vec<&str> = WorkloadParams::splash2().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "barnes",
                "fft",
                "fmm",
                "lu",
                "nlu",
                "radix",
                "water-nsq",
                "water-spatial"
            ]
        );
        assert_eq!(WorkloadParams::parsec().len(), 6);
        assert_eq!(WorkloadParams::figure6_set().len(), 12);
        assert_eq!(WorkloadParams::figure7_set().len(), 4);
        assert!(WorkloadParams::by_name("canneal").is_some());
        assert!(WorkloadParams::by_name("doom").is_none());
    }

    #[test]
    fn registry_sets_resolve() {
        // Registry order is stable: SPLASH-2 then PARSEC.
        let all = WorkloadParams::all();
        assert_eq!(all.len(), 14);
        assert_eq!(all[0].name, "barnes");
        assert_eq!(all[13].name, "vips");
        assert_eq!(WorkloadParams::by_name("lu").unwrap().name, "lu");
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let p = WorkloadParams::by_name("fft").unwrap().with_ops(100);
        let a = generate(&p, 8, 42);
        let b = generate(&p, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|t| t.len() == 100));
        let c = generate(&p, 8, 43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn write_fraction_roughly_matches_params() {
        let p = WorkloadParams::by_name("radix").unwrap().with_ops(2000);
        let traces = generate(&p, 4, 7);
        let wf = traces[0].write_fraction();
        // Migratory stores add to the write mix, so allow a band.
        assert!(
            (0.3..0.6).contains(&wf),
            "radix write fraction {wf} out of band"
        );
    }

    #[test]
    fn shared_addresses_overlap_across_cores() {
        let p = WorkloadParams::by_name("canneal").unwrap().with_ops(500);
        let traces = generate(&p, 2, 9);
        let lines = |t: &Trace| -> std::collections::HashSet<u64> {
            t.records()
                .iter()
                .map(|r| r.addr / 32)
                .filter(|&l| l < PRIVATE_BASE / 32)
                .collect()
        };
        let a = lines(&traces[0]);
        let b = lines(&traces[1]);
        assert!(
            a.intersection(&b).count() > 10,
            "canneal cores should share many lines"
        );
    }

    #[test]
    fn private_regions_are_disjoint() {
        let p = WorkloadParams::by_name("blackscholes")
            .unwrap()
            .with_ops(500);
        let traces = generate(&p, 3, 11);
        for (i, t) in traces.iter().enumerate() {
            for r in t.records() {
                if r.addr >= PRIVATE_BASE {
                    let region = (r.addr - PRIVATE_BASE) / PRIVATE_STRIDE;
                    assert_eq!(region as usize, i, "private access crossed cores");
                }
            }
        }
    }

    #[test]
    fn gaps_follow_requested_mean() {
        let p = WorkloadParams::by_name("barnes").unwrap().with_ops(4000);
        let traces = generate(&p, 1, 13);
        let mean: f64 = traces[0]
            .records()
            .iter()
            .map(|r| r.gap as f64)
            .sum::<f64>()
            / traces[0].len() as f64;
        assert!((mean - 6.0).abs() < 1.5, "mean gap {mean} far from 6");
    }
}
