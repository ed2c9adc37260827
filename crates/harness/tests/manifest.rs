//! The output manifest: one FNV-1a digest per (grid, stream).
//!
//! `golden/manifest.txt` pins the bytes `harness run <grid> --ops 8`
//! writes for every registry name: its `--json` and `--csv` documents,
//! plus the `--trace`, `--spans` and `--windows` streams of the four
//! observability grids. A stream named `S#k` is the part of stream `S`
//! that cell `k` wrote (a CSV cell keeps its header line); every grid
//! with runs pins its cheapest cell that way, fewest cores first.
//!
//! Two tests read it:
//! - `one_cell_per_grid_matches_the_manifest` (tier-1) reruns only the
//!   pinned cell of every grid through the library, plus the zero-run
//!   grids whole;
//! - `every_grid_matches_the_manifest` (`#[ignore]`d: minutes in debug,
//!   about a minute in release) drives the CLI over every grid and
//!   checks every line.
//!
//! `SCORPIO_BLESS=1 cargo test --release -p scorpio-harness --test
//! manifest -- --ignored` rewrites the manifest from the current code;
//! only this file reads that variable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;

use scorpio::ObsLevel;
use scorpio_harness::exec::{run_spec_ov, Overrides};
use scorpio_harness::registry;
use scorpio_harness::sink::{self, SinkOptions};
use scorpio_sim::Fnv1a;

/// Operations per core of every pinned run.
const OPS: usize = 8;

/// The grids whose record streams are pinned too.
const STREAM_GRIDS: [&str; 4] = [
    "fig7-small",
    "planes-small",
    "latency-curve-small",
    "scaling-kilocore-small",
];

/// The record streams, in the order the manifest lists them.
const STREAMS: [&str; 3] = ["trace", "spans", "windows"];

/// `--windows`' epoch length when `--window-cycles` is not given.
const WINDOW_CYCLES: u64 = 1024;

/// (grid, stream) → digest.
type Manifest = BTreeMap<(String, String), u64>;

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest.txt")
}

fn blessing() -> bool {
    std::env::var_os("SCORPIO_BLESS").is_some_and(|v| v == "1")
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(text.as_bytes());
    h.finish()
}

/// Every registry name: each experiment's full grid, then its small one.
fn grid_names() -> Vec<String> {
    let mut names = Vec::new();
    for (full, small) in registry::experiments() {
        names.push(full.name.to_string());
        if small.is_some() {
            names.push(format!("{}-small", full.name));
        }
    }
    names
}

fn read_manifest() -> Manifest {
    let text = std::fs::read_to_string(manifest_path()).expect("the manifest is committed");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [grid, stream, hex] = f[..] else {
                panic!("a manifest line is `grid stream digest`: {l}")
            };
            let d = u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("hex digest");
            ((grid.to_string(), stream.to_string()), d)
        })
        .collect()
}

fn render_manifest(m: &Manifest) -> String {
    let mut out = String::from(
        "# Output digests: FNV-1a 64 over the bytes `harness run <grid> --ops 8` writes.\n\
         # `S#k` is the lines cell k wrote to stream S (CSV: with the header).\n\
         # Rewrite with SCORPIO_BLESS=1; see crates/harness/tests/manifest.rs.\n",
    );
    let order = grid_names();
    let rank = |g: &str| order.iter().position(|n| n == g).expect("a registry name");
    let mut rows: Vec<_> = m.iter().collect();
    rows.sort_by_key(|((g, s), _)| (rank(g), s.contains('#'), s.clone()));
    for ((grid, stream), d) in rows {
        writeln!(out, "{grid} {stream} {d:#018x}").expect("writing to a String");
    }
    out
}

/// The cell of `grid` the tier-1 test reruns: fewest cores, then lowest
/// index. `None` for a grid without runs.
fn pinned_cell(grid: &str) -> Option<usize> {
    let s = registry::by_name(grid).expect("a registry name");
    s.grid
        .enumerate()
        .iter()
        .min_by_key(|spec| (spec.config().cores(), spec.index))
        .map(|spec| spec.index)
}

/// The lines of `doc` cell `k` wrote: JSON records open with
/// `{"scenario":…,"index":k,`, CSV rows with `grid,k,` after the header.
fn cell_lines(grid: &str, stream: &str, doc: &str, k: usize) -> String {
    let mut out = String::new();
    let mut lines = doc.lines();
    let prefix = if stream == "csv" {
        out.push_str(lines.next().unwrap_or_default());
        out.push('\n');
        format!("{grid},{k},")
    } else {
        format!("{{\"scenario\":{grid:?},\"index\":{k},")
    };
    for l in lines.filter(|l| l.starts_with(&prefix)) {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Runs `harness run <grid> --ops 8` with `flags`, each `(flag, stream)`
/// writing to its own file, and returns the files' contents by stream.
fn run_cli(grid: &str, flags: &[(&str, &str)]) -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("manifest");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |stream: &str| dir.join(format!("{grid}.{stream}"));
    let ops = OPS.to_string();
    let mut args = vec!["run", grid, "--ops", &ops, "--threads", "2", "--no-table"];
    let paths: Vec<String> = flags
        .iter()
        .map(|(_, s)| path(s).display().to_string())
        .collect();
    for ((flag, _), p) in flags.iter().zip(&paths) {
        args.extend([*flag, p.as_str()]);
    }
    assert_eq!(scorpio_harness::cli::run_cli(args), 0, "harness run {grid}");
    flags
        .iter()
        .zip(&paths)
        .map(|((_, s), p)| {
            let text = std::fs::read_to_string(p).expect("the CLI wrote the file");
            std::fs::remove_file(p).expect("a removable file");
            (s.to_string(), text)
        })
        .collect()
}

/// Every (grid, stream) digest, whole documents and pinned cells, from
/// the CLI's own files.
fn full_manifest() -> Manifest {
    let mut m = Manifest::new();
    for grid in grid_names() {
        let mut docs = run_cli(&grid, &[("--json", "json"), ("--csv", "csv")]);
        if STREAM_GRIDS.contains(&grid.as_str()) {
            let flags = [
                ("--trace", "trace"),
                ("--spans", "spans"),
                ("--windows", "windows"),
            ];
            docs.extend(run_cli(&grid, &flags));
        }
        let cell = pinned_cell(&grid);
        for (stream, doc) in &docs {
            m.insert((grid.clone(), stream.clone()), digest(doc));
            if let Some(k) = cell {
                let part = cell_lines(&grid, stream, doc, k);
                m.insert((grid.clone(), format!("{stream}#{k}")), digest(&part));
            }
        }
    }
    m
}

/// Compares `actual` with the manifest entries it names.
fn check(actual: &Manifest) {
    let pinned = read_manifest();
    let mut failures = String::new();
    for (key, d) in actual {
        match pinned.get(key) {
            Some(p) if p == d => Ok(()),
            Some(p) => writeln!(failures, "{} {}: {d:#018x}, pinned {p:#018x}", key.0, key.1),
            None => writeln!(failures, "{} {}: {d:#018x}, not pinned", key.0, key.1),
        }
        .expect("writing to a String");
    }
    assert!(
        failures.is_empty(),
        "outputs moved (an intended change re-pins with SCORPIO_BLESS=1):\n{failures}"
    );
}

#[test]
#[ignore = "every grid at --ops 8 takes minutes in debug; CI runs it in release"]
fn every_grid_matches_the_manifest() {
    let actual = full_manifest();
    if blessing() {
        std::fs::write(manifest_path(), render_manifest(&actual)).expect("writable manifest");
        return;
    }
    let pinned = read_manifest();
    let missing: Vec<_> = pinned.keys().filter(|k| !actual.contains_key(*k)).collect();
    assert!(missing.is_empty(), "pinned but not produced: {missing:?}");
    check(&actual);
}

/// Reruns each grid's pinned cell alone (and the zero-run grids whole)
/// through the library calls the CLI writes with.
#[test]
fn one_cell_per_grid_matches_the_manifest() {
    if blessing() {
        return;
    }
    let opts = SinkOptions::default();
    let recording = Overrides {
        obs: Some(ObsLevel::Trace),
        spans: true,
        window_cycles: Some(WINDOW_CYCLES),
        ..Overrides::default()
    };
    let mut actual = Manifest::new();
    for grid in grid_names() {
        let specs = registry::by_name(&grid)
            .expect("registered")
            .grid
            .enumerate();
        let Some(k) = pinned_cell(&grid) else {
            actual.insert(
                (grid.clone(), "json".into()),
                digest(&sink::jsonl(&grid, &[], opts)),
            );
            actual.insert(
                (grid.clone(), "csv".into()),
                digest(&sink::csv(&grid, &[], opts)),
            );
            continue;
        };
        let r = run_spec_ov(&specs[k], OPS, &Overrides::default());
        let json = sink::jsonl(&grid, std::slice::from_ref(&r), opts);
        let csv = sink::csv(&grid, std::slice::from_ref(&r), opts);
        actual.insert((grid.clone(), format!("json#{k}")), digest(&json));
        actual.insert((grid.clone(), format!("csv#{k}")), digest(&csv));
        if !STREAM_GRIDS.contains(&grid.as_str()) {
            continue;
        }
        let r = run_spec_ov(&specs[k], OPS, &recording);
        let records = [&r.trace, &r.spans, &r.windows];
        for (stream, bodies) in STREAMS.iter().zip(records) {
            let mut doc = String::new();
            for body in bodies.as_deref().expect("the stream was recorded") {
                // The CLI's stream line: the run's identity, then the body.
                let (index, seed) = (r.spec.index, r.spec.seed);
                writeln!(
                    doc,
                    "{{\"scenario\":{grid:?},\"index\":{index},\"seed\":{seed},{}",
                    &body[1..]
                )
                .expect("writing to a String");
            }
            actual.insert((grid.clone(), format!("{stream}#{k}")), digest(&doc));
        }
    }
    check(&actual);
}
