//! The `harness` command-line driver.
//!
//! ```text
//! harness list
//! harness workloads
//! harness run <scenario>... [--threads N] [--ops N] [--seeds 1,2,3]
//!                           [--json PATH] [--csv PATH] [--timing]
//!                           [--hist] [--trace PATH] [--trace-limit N]
//!                           [--spans PATH] [--windows PATH]
//!                           [--window-cycles N]
//!                           [--verbose] [--no-table]
//! ```
//!
//! `--json`/`--csv`/`--trace`/`--spans`/`--windows` accept `-` for
//! stdout. Output is deterministic for a given (scenario, seeds, ops)
//! regardless of `--threads`, unless `--timing` opts into per-run
//! wall-clock columns; `--hist` (latency histograms + NoC counters),
//! `--trace` (the flit trace), `--spans` (per-transaction lifecycle
//! records) and `--windows` (epoch-bucketed time-series telemetry) keep
//! that byte-stability.

use std::io::Write;
use std::time::Instant;

use crate::exec::{run_grid, ExecOptions, Overrides, RunResult};
use crate::registry;
use crate::scenario::Scenario;
use crate::sink::{self, SinkOptions};

/// Parsed `harness run` options.
#[derive(Debug, Default)]
struct RunOptions {
    scenarios: Vec<String>,
    threads: Option<usize>,
    ops: Option<usize>,
    seeds: Option<Vec<u64>>,
    json: Option<String>,
    csv: Option<String>,
    timing: bool,
    hist: bool,
    trace: Option<String>,
    trace_limit: Option<usize>,
    spans: Option<String>,
    windows: Option<String>,
    window_cycles: Option<u64>,
    verbose: bool,
    no_table: bool,
}

/// Epoch length `--windows` uses when `--window-cycles` is not given.
pub(crate) const DEFAULT_WINDOW_CYCLES: u64 = 1024;

const USAGE: &str = "usage:
  harness list                      show registered scenarios
  harness workloads                 show registered workload presets
  harness run <scenario>... [opts]  run one or more scenarios
run options:
  --threads N     worker threads (default: all CPUs)
  --ops N         operations per core (default: 150)
  --seeds A,B,..  replace the scenario's seed axis
  --json PATH     write JSON-lines results (- for stdout)
  --csv PATH      write CSV results (- for stdout)
  --timing        include per-run wall time in sinks (non-deterministic)
  --hist          show latency histograms + record NoC counters on every
                  run (fills the percentile columns; deterministic)
  --trace PATH    record the deterministic flit-event trace and write it
                  as JSON lines (- for stdout; implies --hist's recording)
  --trace-limit N caps each record stream (flit trace, spans) per run
                  (default 100000)
  --spans PATH    record per-transaction lifecycle spans and write them
                  as JSON lines (- for stdout; deterministic)
  --windows PATH  record epoch-bucketed time-series telemetry and write
                  one JSON line per window (- for stdout; deterministic)
  --window-cycles N  window length in cycles for --windows (default 1024)
  --verbose       per-run progress lines on stderr
  --no-table      skip the human-readable tables";

/// Writes to stdout, tolerating a closed pipe (`harness list | head`
/// must not panic). Other errors are ignored too: there is nowhere
/// better to report a failing stdout.
fn out(s: &str) {
    let _ = std::io::stdout().write_all(s.as_bytes());
}

/// Runs the CLI with `args` (without the program name); returns the exit
/// code.
pub fn run_cli<I, S>(args: I) -> i32
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            out(&render_list(&registry::experiments()));
            0
        }
        Some("workloads") => {
            out(&format!(
                "{:<16}{:>8}{:>8}{:>10}{:>10}\n\n",
                "workload", "writes", "shared", "sh-lines", "migratory"
            ));
            for w in scorpio_workloads::WorkloadParams::all() {
                out(&format!(
                    "{:<16}{:>8.2}{:>8.2}{:>10}{:>10.2}\n",
                    w.name,
                    w.write_fraction,
                    w.shared_fraction,
                    w.shared_lines,
                    w.migratory_fraction
                ));
            }
            out("\nsets: all, splash2, parsec, figure6, figure7\n");
            0
        }
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("harness: {e}\n\n{USAGE}");
                2
            }
        },
        Some("--help" | "-h" | "help") | None => {
            out(&format!("{USAGE}\n"));
            if args.is_empty() {
                2
            } else {
                0
            }
        }
        Some(other) => {
            eprintln!("harness: unknown command `{other}`\n\n{USAGE}");
            2
        }
    }
}

/// The `harness list` table: one row per experiment with the run counts
/// of its full grid and of its `-small` grid (`-` when it has none); the
/// name column fits the longest name.
fn render_list(experiments: &[(Scenario, Option<Scenario>)]) -> String {
    let w = experiments
        .iter()
        .map(|(s, _)| s.name.len())
        .max()
        .unwrap_or(0)
        + 2;
    let mut doc = format!(
        "{:<w$}{:>6}{:>7}  description\n",
        "scenario", "runs", "small"
    );
    for (s, small) in experiments {
        let small = small
            .as_ref()
            .map_or_else(|| "-".into(), |small| small.grid.len().to_string());
        doc.push_str(&format!(
            "{:<w$}{:>6}{small:>7}  {}\n",
            s.name,
            s.grid.len(),
            s.about
        ));
    }
    doc
}

/// Resolves a scenario name and applies the `--seeds` override, then
/// re-validates the grid: a duplicate seed would emit rows with identical
/// keys, which registry-time validation cannot see.
fn resolve(name: &str, seeds: Option<&[u64]>) -> Result<Scenario, String> {
    let mut scenario = registry::by_name(name)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `harness list`)"))?;
    if let Some(seeds) = seeds {
        scenario.grid.seeds = seeds.to_vec();
        scenario.grid.validate()?;
    }
    Ok(scenario)
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let positive = |flag: &str, raw: String| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{flag} must be a positive integer, got `{raw}`")),
            }
        };
        match a.as_str() {
            "--threads" => {
                let raw = value("--threads")?;
                opts.threads = Some(positive("--threads", raw)?);
            }
            "--ops" => {
                let raw = value("--ops")?;
                opts.ops = Some(positive("--ops", raw)?);
            }
            "--seeds" => {
                let raw = value("--seeds")?;
                let seeds: Result<Vec<u64>, _> =
                    raw.split(',').map(|s| s.trim().parse::<u64>()).collect();
                let seeds = seeds.map_err(|_| format!("bad --seeds list `{raw}`"))?;
                if seeds.is_empty() {
                    return Err("--seeds list is empty".into());
                }
                opts.seeds = Some(seeds);
            }
            "--json" => opts.json = Some(value("--json")?),
            "--csv" => opts.csv = Some(value("--csv")?),
            "--timing" => opts.timing = true,
            "--hist" => opts.hist = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--trace-limit" => {
                let raw = value("--trace-limit")?;
                opts.trace_limit = Some(positive("--trace-limit", raw)?);
            }
            "--spans" => opts.spans = Some(value("--spans")?),
            "--windows" => opts.windows = Some(value("--windows")?),
            "--window-cycles" => {
                let raw = value("--window-cycles")?;
                opts.window_cycles = Some(positive("--window-cycles", raw)? as u64);
            }
            "--verbose" => opts.verbose = true,
            "--no-table" => opts.no_table = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => opts.scenarios.push(name.to_string()),
        }
    }
    if opts.scenarios.is_empty() {
        return Err("no scenario given".into());
    }
    if opts.window_cycles.is_some() && opts.windows.is_none() {
        return Err("--window-cycles needs --windows".into());
    }
    if opts.trace_limit.is_some() && opts.trace.is_none() && opts.spans.is_none() {
        return Err("--trace-limit needs --trace or --spans".into());
    }
    for name in &opts.scenarios {
        resolve(name, opts.seeds.as_deref())?;
    }
    Ok(opts)
}

fn run(opts: &RunOptions) -> i32 {
    let obs = if opts.trace.is_some() {
        Some(scorpio::ObsLevel::Trace)
    } else if opts.hist {
        Some(scorpio::ObsLevel::Counters)
    } else {
        None
    };
    let exec = ExecOptions {
        threads: opts.threads.unwrap_or(0),
        ops_per_core: opts.ops.unwrap_or(crate::DEFAULT_OPS_PER_CORE),
        verbose: opts.verbose,
        overrides: Overrides {
            obs,
            trace_limit: opts.trace_limit,
            spans: opts.spans.is_some(),
            window_cycles: opts
                .windows
                .as_ref()
                .map(|_| opts.window_cycles.unwrap_or(DEFAULT_WINDOW_CYCLES)),
        },
    };
    let sink_opts = SinkOptions {
        include_timing: opts.timing,
    };
    let mut all: Vec<(String, Vec<RunResult>)> = Vec::new();
    for name in &opts.scenarios {
        let scenario = resolve(name, opts.seeds.as_deref()).expect("validated in parse_run");
        let started = Instant::now();
        let results = run_grid(&scenario.grid, &exec);
        let wall = started.elapsed();
        if !results.is_empty() {
            let run_nanos: u128 = results.iter().map(|r| r.wall_nanos).sum();
            eprintln!(
                "[harness] {name}: {} runs on {} worker(s) in {:.2}s (run time {:.2}s, speedup {:.2}x)",
                results.len(),
                exec.effective_threads().clamp(1, results.len()),
                wall.as_secs_f64(),
                run_nanos as f64 / 1e9,
                run_nanos as f64 / 1e9 / wall.as_secs_f64().max(1e-9),
            );
        }
        if !opts.no_table {
            out(&(scenario.render)(&scenario, &results));
        }
        all.push((name.clone(), results));
    }
    if let Some(path) = &opts.json {
        let doc: String = all
            .iter()
            .map(|(name, results)| sink::jsonl(name, results, sink_opts))
            .collect();
        if let Err(e) = sink::write(path, &doc) {
            eprintln!("harness: writing {path}: {e}");
            return 1;
        }
    }
    if let Some(path) = &opts.csv {
        let mut doc = String::new();
        for (i, (name, results)) in all.iter().enumerate() {
            let part = sink::csv(name, results, sink_opts);
            if i == 0 {
                doc.push_str(&part);
            } else {
                // One header for the whole file.
                doc.extend(part.split_once('\n').map(|x| x.1).map(String::from));
            }
        }
        if let Err(e) = sink::write(path, &doc) {
            eprintln!("harness: writing {path}: {e}");
            return 1;
        }
    }
    // The three record streams share one writer. Each entry: output path,
    // the run's records with the count dropped at the cap, and the
    // stream/noun of the cap warning (windows are never capped).
    type Stream = fn(&RunResult) -> (&Option<Vec<String>>, u64);
    let streams: [(&Option<String>, Stream, (&str, &str)); 3] = [
        (
            &opts.trace,
            |r| (&r.trace, r.trace_dropped),
            ("trace", "event(s)"),
        ),
        (
            &opts.spans,
            |r| (&r.spans, r.spans_dropped),
            ("spans", "span(s)"),
        ),
        (&opts.windows, |r| (&r.windows, 0), ("windows", "window(s)")),
    ];
    for (path, stream, (stream_name, noun)) in streams {
        let Some(path) = path else { continue };
        let mut doc = String::new();
        let mut dropped = 0u64;
        for (name, results) in &all {
            for r in results {
                let (records, d) = stream(r);
                dropped += d;
                for body in records.as_deref().unwrap_or_default() {
                    doc.push_str(&prefixed(name, r, body));
                    doc.push('\n');
                }
            }
        }
        if dropped > 0 {
            eprintln!(
                "[harness] {stream_name}: {dropped} {noun} beyond the cap dropped (raise --trace-limit)"
            );
        }
        if let Err(e) = sink::write(path, &doc) {
            eprintln!("harness: writing {path}: {e}");
            return 1;
        }
    }
    0
}

/// One stream line: the record body led by its run's identity, so a
/// multi-run file keeps one self-describing schema (the body starts
/// with '{').
fn prefixed(scenario: &str, r: &RunResult, body: &str) -> String {
    format!(
        "{{\"scenario\":{scenario:?},\"index\":{},\"seed\":{},{}",
        r.spec.index,
        r.spec.seed,
        &body[1..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_run_accepts_full_flag_set() {
        let args: Vec<String> = [
            "fig7",
            "--threads",
            "8",
            "--ops",
            "20",
            "--seeds",
            "1,2,3",
            "--json",
            "o.jsonl",
            "--csv",
            "-",
            "--timing",
            "--hist",
            "--trace",
            "t.jsonl",
            "--trace-limit",
            "500",
            "--spans",
            "s.jsonl",
            "--windows",
            "w.jsonl",
            "--window-cycles",
            "512",
            "--verbose",
            "--no-table",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_run(&args).unwrap();
        assert_eq!(o.scenarios, vec!["fig7"]);
        assert_eq!(o.threads, Some(8));
        assert_eq!(o.ops, Some(20));
        assert_eq!(o.seeds, Some(vec![1, 2, 3]));
        assert_eq!(o.json.as_deref(), Some("o.jsonl"));
        assert_eq!(o.csv.as_deref(), Some("-"));
        assert_eq!(o.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(o.trace_limit, Some(500));
        assert_eq!(o.spans.as_deref(), Some("s.jsonl"));
        assert_eq!(o.windows.as_deref(), Some("w.jsonl"));
        assert_eq!(o.window_cycles, Some(512));
        assert!(o.timing && o.hist && o.verbose && o.no_table);
    }

    #[test]
    fn parse_run_rejects_bad_input() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_run(&s(&[])).is_err());
        for gone in ["fig99", "fig8a-small", "throughput", "obs-overhead-small"] {
            let err = parse_run(&s(&[gone])).unwrap_err();
            assert!(err.starts_with("unknown scenario"), "{err}");
        }
        assert!(parse_run(&s(&["fig7", "--threads"])).is_err());
        assert!(parse_run(&s(&["fig7", "--seeds", "a,b"])).is_err());
        assert!(parse_run(&s(&["fig7", "--ops", "0"])).is_err());
        assert!(parse_run(&s(&["fig7", "--threads", "0"])).is_err());
        assert!(parse_run(&s(&["fig7", "--wat"])).is_err());
        assert!(parse_run(&s(&["fig7", "--trace"])).is_err());
        assert!(parse_run(&s(&["fig7", "--trace-limit", "0"])).is_err());
        assert!(parse_run(&s(&["fig7", "--spans"])).is_err());
        assert!(parse_run(&s(&["fig7", "--window-cycles", "0"])).is_err());
        // --window-cycles without --windows has nothing to apply to.
        assert!(parse_run(&s(&["fig7", "--window-cycles", "512"])).is_err());
        // Likewise a trace cap with neither stream it caps.
        let err = parse_run(&s(&["fig7", "--trace-limit", "500"])).unwrap_err();
        assert_eq!(err, "--trace-limit needs --trace or --spans");
        assert!(parse_run(&s(&["fig7", "--trace-limit", "500", "--spans", "-"])).is_ok());
        // A duplicate seed would emit rows with identical keys.
        let err = parse_run(&s(&["fig7", "--seeds", "1,1"])).unwrap_err();
        assert_eq!(err, "duplicate seed axis value 1");
        assert!(parse_run(&s(&["fig7", "--seeds", "1,2"])).is_ok());
    }

    #[test]
    fn list_columns_stay_aligned_under_the_longest_name() {
        let all = registry::experiments();
        let doc = render_list(&all);
        let mut lines = doc.lines();
        let small_end = lines.next().unwrap().find("small").unwrap() + "small".len();
        assert_eq!(lines.clone().count(), all.len());
        let mut small = std::collections::HashMap::new();
        for (line, (s, _)) in lines.zip(&all) {
            let cells: Vec<&str> = line[..small_end].split_whitespace().collect();
            assert_eq!(cells.len(), 3, "{line}");
            assert_eq!(cells[..2], [s.name, &s.grid.len().to_string()]);
            small.insert(s.name, cells[2]);
        }
        // The small size is a column, not a row of its own.
        assert_eq!(small["fig7"], "10");
        assert_eq!(small["scaling-kilocore"], "12");
        assert_eq!(small["fig8a"], "-");
        assert!(!doc.contains("-small"));
    }

    #[test]
    fn unknown_command_fails_cleanly() {
        assert_eq!(run_cli(["frobnicate"]), 2);
        assert_eq!(run_cli(Vec::<String>::new()), 2);
        assert_eq!(run_cli(["--help"]), 0);
        assert_eq!(run_cli(["list"]), 0);
        assert_eq!(run_cli(["workloads"]), 0);
    }

    #[test]
    fn static_scenarios_run_end_to_end() {
        assert_eq!(
            run_cli(["run", "table1", "table2", "fig9", "--no-table"]),
            0
        );
    }
}
