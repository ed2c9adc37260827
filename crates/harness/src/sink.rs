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

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufWriter, Write};

use scorpio::{ObsReport, SpanReport};
use scorpio_sim::json::{self, Fields};
use scorpio_sim::json_fields;
use scorpio_sim::stats::LogHistogram;

use crate::exec::RunResult;
use crate::table::{render_line, Col};

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

/// The run's MC placement as both sinks spell it.
fn placement(r: &RunResult) -> String {
    r.spec.mc_placement().unwrap_or_else(|| "default".into())
}

/// The run's `(arrival, load_millis)` as both sinks spell them.
fn arrival(r: &RunResult) -> (String, u32) {
    match r.spec.open_load() {
        Some((p, millis)) => (p.label(millis), millis),
        None => ("closed".into(), 0),
    }
}

/// The run's configuration fingerprint as the sinks spell it.
fn config_hash(r: &RunResult) -> String {
    format!("{:#018x}", r.config.stable_hash())
}

/// One result as a JSON-lines record.
pub fn json_line(scenario: &str, r: &RunResult, opts: SinkOptions) -> String {
    let (arrival, load_millis) = arrival(r);
    json::record(|o| {
        let spec = &r.spec;
        json_fields!(o; scenario: scenario, index: spec.index, workload: spec.workload.name,
            mesh: spec.mesh_side, fabric: spec.fabric.label(), planes: spec.planes,
            placement: placement(r), arrival: arrival, load_millis: load_millis,
            protocol: spec.protocol.name(), variant: &spec.variant.label,
            engine: spec.engine.label(), seed: spec.seed, config: r.config.label(),
            config_hash: config_hash(r));
        if opts.include_timing {
            json_fields!(o, r; wall_nanos, setup_nanos, sim_nanos, stepped_cycles);
            o.field("cycles_per_sec", cycles_per_sec(r));
        }
        o.field("report", &r.report);
    })
}

type CsvCol<'a> = Col<'a, RunResult>;

/// A CSV column of a displayed value.
fn col<'a, T: Display>(head: &'a str, value: impl Fn(&RunResult) -> T + 'a) -> CsvCol<'a> {
    Col::num(head, 0, value)
}

/// A CSV column that is blank on rows where `value` has nothing.
fn maybe<'a, T: Display>(
    head: &'a str,
    value: impl Fn(&RunResult) -> Option<T> + 'a,
) -> CsvCol<'a> {
    Col::left(head, 0, move |r| {
        value(r).map_or_else(String::new, |v| v.to_string())
    })
}

/// The run's span breakdown, when it recorded at least one span.
fn spans(r: &RunResult) -> Option<&SpanReport> {
    r.spans().filter(|s| s.count > 0)
}

/// The run's observability annex, when it recorded one.
fn obs(r: &RunResult) -> Option<&ObsReport> {
    r.report.obs.as_deref()
}

/// A float cell: shortest round-trip, like every float the sinks write.
fn float(v: f64) -> String {
    format!("{v:?}")
}

/// A column of the mean of one of the run's histograms.
fn mean<'a>(head: &'a str, hist: fn(&RunResult) -> &LogHistogram) -> CsvCol<'a> {
    col(head, move |r| float(hist(r).mean()))
}

/// The CSV schema: every column's header and cell, in order.
fn columns(scenario: &str, opts: SinkOptions) -> Vec<CsvCol<'_>> {
    let mut cols = vec![
        col("scenario", move |_| scenario),
        col("index", |r| r.spec.index),
        col("workload", |r| r.spec.workload.name),
        col("mesh", |r| r.spec.mesh_side),
        col("fabric", |r| r.spec.fabric.label()),
        col("planes", |r| r.spec.planes),
        col("placement", placement),
        col("arrival", |r| arrival(r).0),
        col("load_millis", |r| arrival(r).1),
        col("variant", |r| r.spec.variant.label.clone()),
        col("engine", |r| r.spec.engine.label()),
        col("seed", |r| r.spec.seed),
        col("config_hash", config_hash),
        col("protocol", |r| r.report.protocol.clone()),
        col("cores", |r| r.report.cores),
        col("runtime_cycles", |r| r.report.runtime_cycles),
        col("ops_completed", |r| r.report.ops_completed),
        col("l1_hits", |r| r.report.l1_hits),
        col("l2_hits", |r| r.report.l2_hits),
        col("l2_misses", |r| r.report.l2_misses),
        mean("l2_service_mean", |r| &r.report.l2_service_latency),
        mean("cache_served_mean", |r| &r.report.cache_served),
        mean("memory_served_mean", |r| &r.report.memory_served),
        mean("ordering_mean", |r| &r.report.ordering_delay),
        mean("packet_latency_mean", |r| &r.report.packet_latency),
        col("data_forwards", |r| r.report.data_forwards),
        col("memory_responses", |r| r.report.memory_responses),
        col("snoops_filtered", |r| r.report.snoops_filtered),
        col("snoops_looked_up", |r| r.report.snoops_looked_up),
        col("writebacks", |r| r.report.writebacks),
        col("writebacks_squashed", |r| r.report.writebacks_squashed),
        col("bypassed_flits", |r| r.report.bypassed_flits),
        col("buffered_flits", |r| r.report.buffered_flits),
        col("packets_injected", |r| r.report.packets_injected),
        col("notify_windows", |r| r.report.notify_windows),
        col("notify_nonempty", |r| r.report.notify_nonempty),
        col("stop_windows", |r| r.report.stop_windows),
        col("expiry_messages", |r| r.report.expiry_messages),
        col("dir_accesses", |r| r.report.dir_accesses),
        col("dir_misses", |r| r.report.dir_misses),
        col("source_dropped", |r| r.report.source_dropped),
        maybe("packet_p50", |r| obs(r)?.packet_latency.percentile(0.50)),
        maybe("packet_p95", |r| obs(r)?.packet_latency.percentile(0.95)),
        maybe("packet_p99", |r| obs(r)?.packet_latency.percentile(0.99)),
        maybe("packet_p999", |r| obs(r)?.packet_latency.percentile(0.999)),
        maybe("ordering_p50", |r| obs(r)?.ordering_delay.percentile(0.50)),
        maybe("ordering_p95", |r| obs(r)?.ordering_delay.percentile(0.95)),
        maybe("ordering_p99", |r| obs(r)?.ordering_delay.percentile(0.99)),
        maybe("ordering_p999", |r| {
            obs(r)?.ordering_delay.percentile(0.999)
        }),
        maybe("spans", |r| spans(r).map(|s| s.count)),
        maybe("span_source", |r| spans(r).map(|s| float(s.source.mean()))),
        maybe("span_queue", |r| spans(r).map(|s| float(s.queue.mean()))),
        maybe("span_inject", |r| spans(r).map(|s| float(s.inject.mean()))),
        maybe("span_flight", |r| spans(r).map(|s| float(s.flight.mean()))),
        maybe("span_commit", |r| spans(r).map(|s| float(s.commit.mean()))),
        maybe("span_data", |r| spans(r).map(|s| float(s.data.mean()))),
        maybe("span_fill", |r| spans(r).map(|s| float(s.fill.mean()))),
        maybe("windows", |r| r.windows().map(|w| w.count)),
        maybe("warmup", |r| r.windows().map(|w| w.warmup)),
        maybe("steady_ops", |r| r.windows().map(|w| w.steady_ops)),
        maybe("steady_ejected", |r| r.windows().map(|w| w.steady_ejected)),
        maybe("max_wait_ep", |r| Some(r.windows()?.max_wait?.ep)),
        maybe("max_wait_mean", |r| {
            Some(float(r.windows()?.max_wait?.mean()))
        }),
        maybe("min_wait_ep", |r| Some(r.windows()?.min_wait?.ep)),
        maybe("min_wait_mean", |r| {
            Some(float(r.windows()?.min_wait?.mean()))
        }),
    ];
    if opts.include_timing {
        cols.extend([
            col("wall_nanos", |r| r.wall_nanos),
            col("setup_nanos", |r| r.setup_nanos),
            col("sim_nanos", |r| r.sim_nanos),
            col("stepped_cycles", |r| r.stepped_cycles),
            col("cycles_per_sec", |r| float(cycles_per_sec(r))),
        ]);
    }
    cols
}

/// All results as a CSV document with a header row.
pub fn csv(scenario: &str, results: &[RunResult], opts: SinkOptions) -> String {
    document(Doc::Csv, scenario, results, opts)
}

/// One scenario's `doc` in a `String`.
fn document(doc: Doc, scenario: &str, results: &[RunResult], opts: SinkOptions) -> String {
    let mut out = Vec::new();
    write_doc(&mut out, doc, &[(scenario, results)], opts).expect("a Vec takes every write");
    String::from_utf8(out).expect("the writers write UTF-8")
}

/// An output document of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Doc {
    /// One [`json_line`] per run (`--json`).
    Json,
    /// The CSV header, then one row per run (`--csv`).
    Csv,
    /// One line per flit-trace event (`--trace`).
    Trace,
    /// One line per transaction span (`--spans`).
    Spans,
    /// One line per telemetry window (`--windows`).
    Windows,
}

/// A document's parts: each scenario's name and results, in order.
pub type Parts<'a> = [(&'a str, &'a [RunResult])];

/// Writes `doc` over `parts` to `path`, or to stdout when `path` is `-`,
/// one line at a time through one buffer: no document is ever held
/// whole. A record-stream line leads the record's fields with its run's
/// identity (`scenario`, `index`, `seed`), so a multi-run file keeps one
/// self-describing schema.
///
/// A closed stdout pipe (`--json - | head`) counts as success: the
/// reader got what it asked for.
pub fn write(path: &str, doc: Doc, parts: &Parts, opts: SinkOptions) -> io::Result<()> {
    if path != "-" {
        return write_doc(&mut BufWriter::new(File::create(path)?), doc, parts, opts);
    }
    match write_doc(&mut BufWriter::new(io::stdout().lock()), doc, parts, opts) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn write_doc(out: &mut impl Write, doc: Doc, parts: &Parts, opts: SinkOptions) -> io::Result<()> {
    // The line being written. A record stream writes each of its lines
    // itself; a JSON or CSV line is written at the end of its run, the
    // CSV header (one for the whole file) with the line after it.
    let mut line = String::new();
    for (i, &(scenario, results)) in parts.iter().enumerate() {
        let cols = columns(scenario, opts);
        if doc == Doc::Csv && i == 0 {
            render_line(&cols, None, ",", &mut line);
        }
        for r in results {
            let mut record = |f: &dyn Fields| {
                json::object(&mut line, |o| {
                    json_fields!(o; scenario: scenario, index: r.spec.index, seed: r.spec.seed);
                    f.write_fields(o);
                });
                line.push('\n');
                out.write_all(line.as_bytes()).map(|()| line.clear())
            };
            match doc {
                Doc::Json => line = json_line(scenario, r, opts) + "\n",
                Doc::Csv => render_line(&cols, Some(r), ",", &mut line),
                Doc::Trace => r
                    .trace
                    .iter()
                    .flat_map(|t| &t.0)
                    .try_for_each(|e| record(e))?,
                Doc::Spans => r
                    .spans
                    .iter()
                    .flat_map(|s| &s.0)
                    .try_for_each(|s| record(s))?,
                Doc::Windows => r.windows.iter().flatten().try_for_each(|w| record(w))?,
            }
            out.write_all(line.as_bytes())?;
            line.clear();
        }
    }
    out.write_all(line.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_grid, ExecOptions, Overrides};
    use crate::scenario::{Engine, Fabric, Knob, McPlacement, SweepGrid, Variant};
    use scorpio::ArrivalProcess;
    use scorpio_workloads::WorkloadParams;

    /// All results as a JSON-lines document (one record per line).
    fn jsonl(scenario: &str, results: &[RunResult], opts: SinkOptions) -> String {
        document(Doc::Json, scenario, results, opts)
    }

    fn results() -> Vec<RunResult> {
        recorded(Overrides::default())
    }

    /// `results()`' runs with `overrides` recording on top.
    fn recorded(overrides: Overrides) -> Vec<RunResult> {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .seeds(&[1, 2]);
        run_grid(
            &grid,
            &ExecOptions {
                threads: 1,
                ops_per_core: 5,
                overrides,
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
        // Recording never moves the header: histograms, spans and windows
        // fill cells, they add no column.
        let all_on = Overrides {
            obs: Some(scorpio::ObsLevel::Counters),
            spans: true,
            window_cycles: Some(64),
            ..Overrides::default()
        };
        let doc = csv("demo", &recorded(all_on), SinkOptions::default());
        let mut lines = doc.lines();
        assert_eq!(lines.next(), Some(header));
        assert!(
            lines.all(|l| !l.ends_with(",,,,,,,,,,,,,,,,")),
            "no cell filled"
        );
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
