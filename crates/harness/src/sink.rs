//! Structured result sinks: JSON lines and CSV.
//!
//! Each sink has one schema. Every JSONL row carries the same top-level
//! keys and every CSV document the same header, whatever the runs
//! recorded: the run identity is spelled the same way in both, and the
//! CSV's percentile, span and window columns are blank on rows that
//! recorded nothing. Both formats are fully deterministic by default —
//! fixed key/column order, stable float formatting, no timestamps — so
//! `harness run <s> --threads N` emits byte-identical files for every `N`.
//! Per-run wall time is available behind [`SinkOptions::include_timing`]
//! for profiling, which deliberately breaks byte-stability (and nothing
//! else).

use std::fs;
use std::io::{self, Write};

use crate::exec::RunResult;

/// Sink configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkOptions {
    /// Include per-run wall-clock nanoseconds, phase breakdown, stepped
    /// cycle count and simulated-cycles/sec. Off by default
    /// because it makes output depend on the host rather than only on
    /// (scenario, seed).
    pub include_timing: bool,
}

/// Simulated cycles per wall-clock second of the simulation phase
/// (`sim_nanos`, setup excluded) — the `--timing` rate both sinks report;
/// `0.0` when the phase took no measurable time.
fn cycles_per_sec(r: &RunResult) -> f64 {
    if r.sim_nanos == 0 {
        0.0
    } else {
        r.report.runtime_cycles as f64 * 1e9 / r.sim_nanos as f64
    }
}

/// The run-identity cells both writers share, as the CSV spells them:
/// `(fabric, planes, placement, arrival, load_millis, engine)`.
fn identity(r: &RunResult) -> (&'static str, usize, String, String, u32, &'static str) {
    let (arrival, load_millis) = match r.spec.open_load() {
        Some((p, millis)) => (p.label(millis), millis),
        None => ("closed".into(), 0),
    };
    (
        r.spec.fabric.label(),
        r.spec.planes,
        r.spec.mc_placement().unwrap_or_else(|| "default".into()),
        arrival,
        load_millis,
        r.spec.engine.label(),
    )
}

/// One result as a JSON-lines record.
pub fn json_line(scenario: &str, r: &RunResult, opts: SinkOptions) -> String {
    let (fabric, planes, placement, arrival, load_millis, engine) = identity(r);
    let timing = if opts.include_timing {
        format!(
            r#""wall_nanos":{},"setup_nanos":{},"sim_nanos":{},"stepped_cycles":{},"cycles_per_sec":{:?},"#,
            r.wall_nanos,
            r.setup_nanos,
            r.sim_nanos,
            r.stepped_cycles,
            cycles_per_sec(r),
        )
    } else {
        String::new()
    };
    format!(
        r#"{{"scenario":{scenario:?},"index":{},"workload":{:?},"mesh":{},"fabric":{fabric:?},"planes":{planes},"placement":{placement:?},"arrival":{arrival:?},"load_millis":{load_millis},"protocol":{:?},"variant":{:?},"engine":{engine:?},"seed":{},"config":{:?},"config_hash":"{:#018x}",{timing}"report":{}}}"#,
        r.spec.index,
        r.spec.workload.name,
        r.spec.mesh_side,
        r.spec.protocol.name(),
        r.spec.variant.label,
        r.spec.seed,
        r.config_label,
        r.config_hash,
        r.report.to_json(),
    )
}

/// All results as a JSON-lines document (one record per line).
pub fn jsonl(scenario: &str, results: &[RunResult], opts: SinkOptions) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&json_line(scenario, r, opts));
        out.push('\n');
    }
    out
}

/// All results as a CSV document with a header row.
pub fn csv(scenario: &str, results: &[RunResult], opts: SinkOptions) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario,index,workload,mesh,fabric,planes,placement,arrival,load_millis,variant,engine,seed,config_hash,",
    );
    out.push_str(scorpio::SystemReport::csv_header());
    out.push_str(
        ",packet_p50,packet_p95,packet_p99,packet_p999,\
         ordering_p50,ordering_p95,ordering_p99,ordering_p999\
         ,spans,span_source,span_queue,span_inject,span_flight,span_commit,span_data,span_fill\
         ,windows,warmup,steady_ops,steady_ejected,max_wait_ep,max_wait_mean,\
         min_wait_ep,min_wait_mean",
    );
    if opts.include_timing {
        out.push_str(",wall_nanos,setup_nanos,sim_nanos,stepped_cycles,cycles_per_sec");
    }
    out.push('\n');
    for r in results {
        let (fabric, planes, placement, arrival, load_millis, engine) = identity(r);
        out.push_str(&format!(
            "{scenario},{},{},{},{fabric},{planes},{placement},{arrival},{load_millis},{},{engine},{},{:#018x},{}",
            r.spec.index,
            r.spec.workload.name,
            r.spec.mesh_side,
            r.spec.variant.label,
            r.spec.seed,
            r.config_hash,
            r.report.csv_row(),
        ));
        let obs = r.report.obs.as_deref();
        let cell = |v: Option<u64>| v.map_or_else(String::new, |x| format!("{x}"));
        for f in [0.50, 0.95, 0.99, 0.999] {
            out.push_str(&format!(
                ",{}",
                cell(obs.and_then(|o| o.packet_latency.percentile(f)))
            ));
        }
        for f in [0.50, 0.95, 0.99, 0.999] {
            out.push_str(&format!(
                ",{}",
                cell(obs.and_then(|o| o.ordering_delay.percentile(f)))
            ));
        }
        // Phase means are exact integer ratios rendered as shortest
        // round-trip floats — deterministic, like every other cell.
        match obs.and_then(|o| o.spans.as_ref()) {
            Some(s) if s.count > 0 => {
                out.push_str(&format!(",{}", s.count));
                for h in [
                    &s.source, &s.queue, &s.inject, &s.flight, &s.commit, &s.data, &s.fill,
                ] {
                    out.push_str(&format!(",{:?}", h.mean()));
                }
            }
            _ => out.push_str(",,,,,,,,"),
        }
        match obs.and_then(|o| o.windows.as_ref()) {
            Some(w) => {
                out.push_str(&format!(
                    ",{},{},{},{}",
                    w.count, w.warmup, w.steady_ops, w.steady_ejected
                ));
                for cell in [&w.max_wait, &w.min_wait] {
                    match cell {
                        Some(m) => {
                            out.push_str(&format!(",{},{:?}", m.ep, m.sum as f64 / m.count as f64))
                        }
                        None => out.push_str(",,"),
                    }
                }
            }
            None => out.push_str(",,,,,,,,"),
        }
        if opts.include_timing {
            out.push_str(&format!(
                ",{},{},{},{},{:?}",
                r.wall_nanos,
                r.setup_nanos,
                r.sim_nanos,
                r.stepped_cycles,
                cycles_per_sec(r)
            ));
        }
        out.push('\n');
    }
    out
}

/// Writes `contents` to `path`, or to stdout when `path` is `-`.
///
/// A closed stdout pipe (`--json - | head`) counts as success: the
/// reader got what it asked for.
pub(crate) fn write(path: &str, contents: &str) -> io::Result<()> {
    if path == "-" {
        match io::stdout().write_all(contents.as_bytes()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            other => other,
        }
    } else {
        fs::write(path, contents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_grid, ExecOptions};
    use crate::scenario::{Engine, Fabric, Knob, McPlacement, SweepGrid, Variant};
    use scorpio::ArrivalProcess;
    use scorpio_workloads::WorkloadParams;

    fn results() -> Vec<RunResult> {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .seeds(&[1, 2]);
        run_grid(
            &grid,
            &ExecOptions {
                threads: 1,
                ops_per_core: 5,
                ..ExecOptions::default()
            },
        )
    }

    /// The `(key, value)` pairs ahead of a JSONL row's closing `"report"`
    /// object, string values unquoted: that prefix is flat and comma-free.
    fn identity_fields(line: &str) -> Vec<(&str, &str)> {
        let head = &line[1..line.find(r#","report":"#).expect("rows end in a report")];
        head.split(',')
            .map(|f| {
                let (k, v) = f.split_once(':').expect("key:value");
                (k.trim_matches('"'), v.trim_matches('"'))
            })
            .collect()
    }

    #[test]
    fn jsonl_shape_and_determinism() {
        let rs = results();
        let a = jsonl("demo", &rs, SinkOptions::default());
        let b = jsonl("demo", &rs, SinkOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        let first = a.lines().next().unwrap();
        assert!(first.starts_with(r#"{"scenario":"demo","index":0,"workload":"lu","#));
        assert!(first.contains(r#""config_hash":"0x"#));
        assert!(first.contains(r#""report":{"protocol":"#));
        assert!(!first.contains("wall_nanos"));
        // Braces balance on every line (cheap well-formedness check
        // without a JSON parser in the dependency-free build).
        for line in a.lines() {
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "unbalanced braces in {line}");
        }
    }

    #[test]
    fn timing_is_opt_in() {
        let rs = results();
        let timed = SinkOptions {
            include_timing: true,
        };
        let with = jsonl("demo", &rs, timed);
        for key in [
            "wall_nanos",
            "setup_nanos",
            "sim_nanos",
            "stepped_cycles",
            "cycles_per_sec",
        ] {
            assert!(with.contains(&format!("\"{key}\":")), "{key}");
        }
        assert!(!jsonl("demo", &rs, SinkOptions::default()).contains("cycles_per_sec"));
        let csv_with = csv("demo", &rs, timed);
        assert!(csv_with
            .lines()
            .next()
            .unwrap()
            .ends_with(",wall_nanos,setup_nanos,sim_nanos,stepped_cycles,cycles_per_sec"));
    }

    #[test]
    fn hist_columns_are_always_present_and_blank_without_observability() {
        let rs = results();
        let doc = csv("demo", &rs, SinkOptions::default());
        let header = doc.lines().next().unwrap();
        assert!(header.contains(
            ",packet_p50,packet_p95,packet_p99,packet_p999,\
             ordering_p50,ordering_p95,ordering_p99,ordering_p999,"
        ));
        // These runs recorded no histograms, so the cells are blank — and
        // every row still matches the header's arity.
        let cols: Vec<&str> = header.split(',').collect();
        let first = cols.iter().position(|&c| c == "packet_p50").unwrap();
        for line in doc.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), cols.len());
            assert!(cells[first..first + 8].iter().all(|c| c.is_empty()));
        }
    }

    #[test]
    fn span_and_window_columns_are_always_present_and_blank_without_recording() {
        let rs = results();
        let doc = csv("demo", &rs, SinkOptions::default());
        let header = doc.lines().next().unwrap();
        assert!(header.ends_with(
            ",spans,span_source,span_queue,span_inject,span_flight,span_commit,span_data,\
             span_fill,windows,warmup,steady_ops,steady_ejected,max_wait_ep,max_wait_mean,\
             min_wait_ep,min_wait_mean"
        ));
        // These runs recorded neither spans nor windows, so every cell is
        // blank — and every row still matches the header's arity.
        let cols = header.split(',').count();
        for line in doc.lines().skip(1) {
            assert_eq!(line.split(',').count(), cols);
            assert!(line.ends_with(",,,,,,,,,,,,,,,,"));
        }
    }

    #[test]
    fn csv_rows_match_header() {
        let rs = results();
        let doc = csv("demo", &rs, SinkOptions::default());
        let mut lines = doc.lines();
        let header = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), header);
        }
    }

    /// Over a grid covering every identity axis, each JSONL row has the
    /// same key sequence and spells the shared identity exactly as the
    /// CSV row of the same run does.
    #[test]
    fn jsonl_and_csv_rows_agree_on_identity() {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .fabrics(&[Fabric::Mesh, Fabric::CMesh(2)])
            .planes(&[1, 2])
            .variants(vec![
                Variant::baseline(),
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Corner,
                    mcs: 2,
                }),
                Variant::knob(Knob::OpenLoad {
                    process: ArrivalProcess::Poisson,
                    millis: 20,
                }),
            ])
            .engines(&[Engine::ActiveSet, Engine::Leap])
            .filtered(|s| s.fabric == Fabric::Mesh || s.mc_placement().is_none());
        let rs = run_grid(
            &grid,
            &ExecOptions {
                threads: 1,
                ops_per_core: 4,
                ..ExecOptions::default()
            },
        );
        assert_eq!(rs.len(), 20);
        let json = jsonl("demo", &rs, SinkOptions::default());
        let doc = csv("demo", &rs, SinkOptions::default());
        let mut lines = doc.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let keys = |row: &[(&str, &str)]| row.iter().map(|(k, _)| k.to_string()).collect();
        let first_keys: Vec<String> = keys(&identity_fields(json.lines().next().unwrap()));
        for (jline, cline) in json.lines().zip(lines) {
            let jrow = identity_fields(jline);
            assert_eq!(keys(&jrow), first_keys);
            let cells: Vec<&str> = cline.split(',').collect();
            for col in [
                "fabric",
                "planes",
                "placement",
                "arrival",
                "load_millis",
                "engine",
                "seed",
                "config_hash",
            ] {
                let j = jrow.iter().find(|(k, _)| *k == col).unwrap().1;
                let c = cells[header.iter().position(|h| *h == col).unwrap()];
                assert_eq!(j, c, "{col} in {jline}");
            }
        }
        // Every identity value the grid covers actually appears.
        for needle in [
            r#""fabric":"mesh""#,
            r#""fabric":"cmesh2""#,
            r#""planes":2"#,
            r#""placement":"corner-2""#,
            r#""placement":"default""#,
            r#""arrival":"pois-20","load_millis":20"#,
            r#""arrival":"closed","load_millis":0"#,
            r#""engine":"active""#,
            r#""engine":"leap""#,
        ] {
            assert!(json.contains(needle), "{needle}");
        }
    }
}
