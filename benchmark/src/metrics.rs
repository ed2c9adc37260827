//! The metric tables (names, units, directions, bounds) and their output.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median over runs that counts as a
    /// regression.
    pub bound: f64,
    /// Taken on the model seed, so the value repeats exactly from run to
    /// run whatever `--seed` says; host measurements do not.
    pub exact: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "host: simulated cycles of all cells per second of floor stepping time",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "host: floor time of one trace generation plus System::with_traces per cell",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        exact: false,
        what: "host: VmHWM of the benchmark process",
    },
    EndToEnd {
        name: "heap_allocs_per_kcycle",
        unit: "allocs/kcycle",
        better: Better::Lower,
        bound: 0.0001,
        exact: true,
        what:
            "host, exact: heap allocations of one set-up and timed pass per 1000 simulated cycles",
    },
    EndToEnd {
        name: "runtime_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.0001,
        exact: true,
        what: "sim: cycles until every core finished, summed over the model cells",
    },
    EndToEnd {
        name: "l2_service_mean_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.0001,
        exact: true,
        what: "sim: mean L2 service latency over all core requests, SCORPIO cells",
    },
    EndToEnd {
        name: "sojourn_p50_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.0001,
        exact: true,
        what: "sim: median arrival-to-retire time of L2 misses, SCORPIO cells",
    },
    EndToEnd {
        name: "sojourn_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.0001,
        exact: true,
        what: "sim: exact 99th percentile of the same",
    },
    EndToEnd {
        name: "completed_op_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.0001,
        exact: true,
        what: "sim: operations completed over operations attempted",
    },
];

/// A per-layer metric: no bound, printed by the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 59] = [
    layer("workloads.generate_s", "s", Lower),
    layer("workloads.trace_ops", "count", Lower),
    layer("core.build_s", "s", Lower),
    layer("core.build_allocs", "count", Lower),
    layer("core.step_allocs_per_kcycle", "allocs/kcycle", Lower),
    layer("core.step_ns_per_cycle", "ns", Lower),
    layer("core.host_ns_per_flit_hop", "ns", Lower),
    layer("core.stepped_share", "share", Lower),
    layer("core.residual_host_share", "share", Lower),
    layer("core.source_mean_cycles", "cycles", Lower),
    layer("core.source_dropped", "count", Lower),
    layer("noc.tick_ns_per_router_cycle", "ns", Lower),
    layer("noc.commit_ns_per_cycle", "ns", Lower),
    layer("noc.probe_flit_hops_per_s", "1/s", Higher),
    layer("noc.est_host_share", "share", Lower),
    layer("noc.flit_hops", "count", Lower),
    layer("noc.bypass_share", "share", Higher),
    layer("noc.packet_latency_mean_cycles", "cycles", Lower),
    layer("noc.flight_mean_cycles", "cycles", Lower),
    layer("noc.stall_sa_i", "count", Lower),
    layer("noc.stall_sa_o", "count", Lower),
    layer("noc.stall_vc_alloc", "count", Lower),
    layer("noc.stall_credit", "count", Lower),
    layer("noc.max_link_util", "share", Lower),
    layer("noc.buffer_occupancy_mean", "packets", Lower),
    layer("noc.plane_balance", "share", Higher),
    layer("obs.on_cost_share", "share", Lower),
    layer("notify.tick_ns", "ns", Lower),
    layer("notify.est_host_share", "share", Lower),
    layer("notify.window_cycles", "cycles", Lower),
    layer("notify.nonempty_share", "share", Lower),
    layer("notify.stop_windows", "count", Lower),
    layer("nic.tick_ns", "ns", Lower),
    layer("nic.est_host_share", "share", Lower),
    layer("nic.ordering_delay_mean_cycles", "cycles", Lower),
    layer("nic.inject_mean_cycles", "cycles", Lower),
    layer("nic.commit_mean_cycles", "cycles", Lower),
    layer("nic.inject_wait_p99_cycles", "cycles", Lower),
    layer("mem.l2_op_ns", "ns", Lower),
    layer("mem.mc_tick_ns", "ns", Lower),
    layer("mem.est_host_share", "share", Lower),
    layer("mem.l2_miss_share", "share", Lower),
    layer("mem.cache_served_share", "share", Higher),
    layer("mem.memory_served_mean_cycles", "cycles", Lower),
    layer("mem.queue_mean_cycles", "cycles", Lower),
    layer("mem.data_mean_cycles", "cycles", Lower),
    layer("mem.fill_mean_cycles", "cycles", Lower),
    layer("mem.snoops_filtered_share", "share", Higher),
    layer("coherence.lpd_cycles_per_s", "cycles/s", Higher),
    layer("coherence.norm_runtime_vs_lpd", "share", Lower),
    layer("coherence.dir_accesses", "count", Lower),
    layer("coherence.dir_miss_share", "share", Lower),
    layer("harness.run_spec_overhead_share", "share", Lower),
    layer("harness.jsonl_us_per_row", "us", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("host.passes", "count", Higher),
    layer("host.pass_spread", "share", Lower),
    layer("host.floor_hit_share", "share", Higher),
];

/// Measured values, in table order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`; a non-finite value (an empty ratio)
    /// reads as 0 so the output stays valid JSON.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The outcome of one run, as the last line of standard output reports it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// Prints every end-to-end metric by name with unit and bound.
    pub fn print_end_to_end(&self) {
        for m in &END_TO_END {
            let value = self.values.get(m.name).expect("every metric is set");
            println!(
                "{:<26} {:>16.6} {:<14} {} is better, bound {}  [{}]",
                m.name,
                value,
                m.unit,
                m.better.word(),
                m.bound,
                m.what,
            );
        }
    }

    /// Prints every per-layer metric by name with unit.
    pub fn print_per_layer(&self) {
        for m in &PER_LAYER {
            let value = self.values.get(m.name).expect("every metric is set");
            println!(
                "{:<36} {:>18.6} {:<14} {} is better",
                m.name,
                value,
                m.unit,
                m.better.word()
            );
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .0
            .iter()
            .map(|(name, value)| {
                format!(
                    r#""{name}": {{"value": {value:?}, "unit": "{}"}}"#,
                    unit_of(name)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Unit of the named metric, from either table.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Reads `"name": {"value": <number>` out of a result line this module
/// wrote (not a general JSON parser).
pub fn value_in_json_line(line: &str, name: &str) -> Option<f64> {
    let key = format!(r#""{name}": {{"value": "#);
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Reads the `correct` flag out of a result line this module wrote.
pub fn correct_in_json_line(line: &str) -> Option<bool> {
    if line.starts_with(r#"{"correct": true,"#) {
        Some(true)
    } else if line.starts_with(r#"{"correct": false,"#) {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_through_the_reader() {
        let mut values = Values::default();
        values.set("sim_cycles_per_s", 12345.678);
        values.set("completed_op_share", 1.0);
        values.set("setup_s", f64::NAN);
        let line = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            values,
        }
        .json_line();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""sim_cycles_per_s": {"value": 12345.678, "unit": "cycles/s"}"#));
        assert_eq!(
            value_in_json_line(&line, "sim_cycles_per_s"),
            Some(12345.678)
        );
        assert_eq!(value_in_json_line(&line, "completed_op_share"), Some(1.0));
        assert_eq!(value_in_json_line(&line, "setup_s"), Some(0.0));
        assert_eq!(value_in_json_line(&line, "absent"), None);
        assert_eq!(correct_in_json_line(&line), Some(true));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} is listed twice");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound <= 0.25 && m.unit.len() <= 16);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` must list the same metrics, units, directions and
    /// bounds, and the same workloads with the same reasons.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            );
            assert!(text.contains(&entry), "missing or different: {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name,
                m.unit,
                m.better.word()
            );
            assert!(text.contains(&entry), "missing or different: {entry}");
        }
        assert_eq!(
            text.matches(r#"{"name": "#).count(),
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::all().len()
        );
        for w in crate::workloads::all() {
            assert!(w.why.len() <= 200, "{} why is too long", w.name);
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why);
            assert!(text.contains(&entry), "missing or different: {entry}");
        }
    }
}
