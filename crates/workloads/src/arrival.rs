//! Open-loop arrival processes: when each memory request *arrives* at a
//! core's source queue, decoupled from when the previous one completed.
//!
//! Closed-loop traces release the next operation only after the previous
//! one retires, so a system under test can never be overdriven — offered
//! load self-throttles to the service rate. The generators here produce
//! absolute arrival cycles instead: the tile releases a request when its
//! arrival time passes, queueing behind a bounded source queue when the
//! core is busy. Sweeping the offered-load knob past the saturation knee
//! is what turns the latency histograms into SLO curves (latency vs
//! injection rate, the conventional NoC characterisation).
//!
//! Determinism: schedules are derived from [`SimRng`] streams seeded by
//! `(seed, core)` exactly like the synthetic workload generator, computed
//! serially at system build time — byte-identical for any worker-thread
//! count and any engine.

use crate::trace::Trace;
use scorpio_sim::SimRng;

/// Domain tag folded into the workload seed so arrival streams never
/// collide with the trace generator's streams for the same (seed, core).
const ARRIVAL_TAG: u64 = 0x5C02_11A0_2014_0001;

/// How open-loop request arrivals are distributed over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: geometric inter-arrival gaps (the discrete
    /// Poisson process) with mean `1000 / load_millis` cycles.
    Poisson,
    /// Markov-modulated on/off arrivals: dwell times in the ON and OFF
    /// states are geometric with the given mean cycle counts, and within
    /// an ON burst arrivals are Poisson at the elevated rate that makes
    /// the long-run offered load equal the configured knob. The bursts
    /// stress injection arbitration and tail latency at the same mean
    /// load a smooth Poisson stream would carry.
    Bursty {
        /// Mean ON-dwell cycles (burst length).
        on: u32,
        /// Mean OFF-dwell cycles (quiet length).
        off: u32,
    },
    /// Replay the trace's own think-time deltas as arrival times: record
    /// `i` arrives at the cumulative sum of `gap[0..=i]`. The offered
    /// load is whatever the trace encodes; the load knob is ignored.
    Replay,
}

impl ArrivalProcess {
    /// Short stable label for sink columns and variant names, e.g.
    /// `pois-300`, `burst-300`, `replay`.
    pub fn label(&self, load_millis: u32) -> String {
        match self {
            ArrivalProcess::Poisson => format!("pois-{load_millis}"),
            ArrivalProcess::Bursty { .. } => format!("burst-{load_millis}"),
            ArrivalProcess::Replay => "replay".into(),
        }
    }
}

/// Builds the absolute arrival cycle for every record of `trace`, for
/// core `core` under `(seed, process, load_millis)`.
///
/// `load_millis` is the offered load in requests per 1000 cycles per
/// core. Returns an empty schedule when the load is 0 (for Poisson and
/// bursty processes) — the degenerate case is the closed-loop trace, and
/// the caller keeps closed-loop semantics. [`ArrivalProcess::Replay`]
/// ignores the knob and is driven by the trace's own gaps.
///
/// The schedule is non-decreasing; same-cycle arrivals are legal (the
/// source queue admits them together).
pub fn arrival_schedule(
    process: ArrivalProcess,
    load_millis: u32,
    trace: &Trace,
    core: u64,
    seed: u64,
) -> Vec<u64> {
    let ops = trace.len();
    if ops == 0 {
        return Vec::new();
    }
    match process {
        ArrivalProcess::Replay => {
            let mut t = 0u64;
            trace
                .records()
                .iter()
                .map(|r| {
                    t += u64::from(r.gap);
                    t
                })
                .collect()
        }
        ArrivalProcess::Poisson => {
            if load_millis == 0 {
                return Vec::new();
            }
            let mut rng = rng_for(core, seed);
            let mean = 1000.0 / f64::from(load_millis);
            let mut t = 0u64;
            (0..ops)
                .map(|_| {
                    t += rng.geometric(mean);
                    t
                })
                .collect()
        }
        ArrivalProcess::Bursty { on, off } => {
            if load_millis == 0 {
                return Vec::new();
            }
            let mut rng = rng_for(core, seed);
            // Within an ON dwell the rate rises by (on + off) / on so the
            // long-run mean matches the knob.
            let on = f64::from(on.max(1));
            let off = f64::from(off.max(1));
            let burst_mean = (1000.0 / f64::from(load_millis)) * on / (on + off);
            let mut out = Vec::with_capacity(ops);
            let mut t = 0u64;
            while out.len() < ops {
                // Dwells are >= 1 cycle so the chain always advances.
                let on_len = 1 + rng.geometric(on - 1.0);
                let off_len = 1 + rng.geometric(off - 1.0);
                let end = t + on_len;
                let mut cursor = t;
                while out.len() < ops {
                    cursor += rng.geometric(burst_mean);
                    if cursor >= end {
                        break;
                    }
                    out.push(cursor);
                }
                t = end + off_len;
            }
            out
        }
    }
}

/// Per-core arrival stream: the workload-seed convention (root xor a
/// domain tag, then one split per core), so the schedule depends only on
/// `(seed, core, process, load)`.
fn rng_for(core: u64, seed: u64) -> SimRng {
    SimRng::seed_from(seed ^ ARRIVAL_TAG).split(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, WorkloadParams};
    use crate::trace::{TraceOp, TraceRecord};

    fn trace_of(ops: usize) -> Trace {
        (0..ops)
            .map(|k| TraceRecord {
                gap: (k % 7) as u32,
                op: TraceOp::Load,
                addr: 64 * k as u64,
                value: 0,
            })
            .collect()
    }

    #[test]
    fn poisson_gap_mean_is_within_tolerance() {
        // Property-style check over several (seed, load) points: the mean
        // inter-arrival gap must track 1000 / load within 15%.
        let trace = trace_of(4000);
        for seed in [1u64, 7, 42] {
            for load in [10u32, 50, 250] {
                let sched = arrival_schedule(ArrivalProcess::Poisson, load, &trace, 3, seed);
                assert_eq!(sched.len(), trace.len());
                let span = sched.last().unwrap() - sched[0];
                let mean = span as f64 / (sched.len() - 1) as f64;
                let want = 1000.0 / f64::from(load);
                assert!(
                    (mean - want).abs() < 0.15 * want,
                    "seed {seed} load {load}: mean gap {mean:.2}, want ~{want:.2}"
                );
            }
        }
    }

    #[test]
    fn bursty_mean_load_tracks_the_knob() {
        let trace = trace_of(4000);
        let p = ArrivalProcess::Bursty { on: 40, off: 160 };
        for seed in [2u64, 9] {
            let sched = arrival_schedule(p, 50, &trace, 0, seed);
            let span = sched.last().unwrap() - sched[0];
            let mean = span as f64 / (sched.len() - 1) as f64;
            assert!(
                (mean - 20.0).abs() < 3.0,
                "seed {seed}: bursty mean gap {mean:.2}, want ~20"
            );
        }
    }

    #[test]
    fn schedules_are_reproducible_and_seed_sensitive() {
        let trace = trace_of(200);
        for p in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { on: 30, off: 90 },
        ] {
            let a = arrival_schedule(p, 80, &trace, 5, 11);
            let b = arrival_schedule(p, 80, &trace, 5, 11);
            assert_eq!(a, b, "{p:?} must be byte-reproducible from (seed, params)");
            let c = arrival_schedule(p, 80, &trace, 5, 12);
            assert_ne!(a, c, "{p:?} must depend on the seed");
            let d = arrival_schedule(p, 80, &trace, 6, 11);
            assert_ne!(a, d, "{p:?} must depend on the core lane");
        }
    }

    #[test]
    fn schedules_are_non_decreasing() {
        let trace = trace_of(500);
        for p in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { on: 20, off: 20 },
            ArrivalProcess::Replay,
        ] {
            let sched = arrival_schedule(p, 120, &trace, 1, 3);
            assert!(sched.windows(2).all(|w| w[0] <= w[1]), "{p:?} not sorted");
        }
    }

    #[test]
    fn zero_load_degenerates_to_closed_loop() {
        let trace = trace_of(100);
        assert!(arrival_schedule(ArrivalProcess::Poisson, 0, &trace, 0, 1).is_empty());
        let bursty = ArrivalProcess::Bursty { on: 10, off: 10 };
        assert!(arrival_schedule(bursty, 0, &trace, 0, 1).is_empty());
        // Replay carries its own schedule regardless of the knob.
        assert_eq!(
            arrival_schedule(ArrivalProcess::Replay, 0, &trace, 0, 1).len(),
            100
        );
    }

    #[test]
    fn replay_round_trips_the_trace_gaps() {
        // think-time deltas -> arrival times -> first differences gives
        // back exactly the recorded gaps, for a real generated workload.
        let params = WorkloadParams::by_name("lu").unwrap().with_ops(64);
        let trace = &generate(&params, 4, 9)[2];
        let sched = arrival_schedule(ArrivalProcess::Replay, 0, trace, 2, 9);
        assert_eq!(sched.len(), trace.len());
        let mut prev = 0u64;
        for (r, &t) in trace.records().iter().zip(&sched) {
            assert_eq!(t - prev, u64::from(r.gap), "gap must round-trip");
            prev = t;
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArrivalProcess::Poisson.label(300), "pois-300");
        assert_eq!(
            ArrivalProcess::Bursty { on: 1, off: 1 }.label(40),
            "burst-40"
        );
        assert_eq!(ArrivalProcess::Replay.label(0), "replay");
    }
}
