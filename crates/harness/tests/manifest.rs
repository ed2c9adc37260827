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
//!   grids whole, and writes it through the CLI's writer
//!   (`sink::write`);
//! - `every_grid_matches_the_manifest` (`#[ignore]`d: minutes in debug,
//!   under a minute in release) drives the CLI over every grid and
//!   checks every line.
//!
//! Both hash the files written line by line, never holding a document.
//!
//! `SCORPIO_BLESS=1 cargo test --release -p scorpio-harness --test
//! manifest -- --ignored` rewrites the manifest from the current code;
//! only this file reads that variable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use scorpio::ObsLevel;
use scorpio_harness::exec::{run_spec_ov, Overrides, RunResult};
use scorpio_harness::registry;
use scorpio_harness::sink::{self, Doc, SinkOptions};
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

/// A pinned document: its CLI flag, its manifest name and its kind.
type Stream = (&'static str, &'static str, Doc);

/// The result documents, pinned for every grid.
const RESULTS: [Stream; 2] = [("--json", "json", Doc::Json), ("--csv", "csv", Doc::Csv)];

/// The record streams, pinned for [`STREAM_GRIDS`].
const STREAMS: [Stream; 3] = [
    ("--trace", "trace", Doc::Trace),
    ("--spans", "spans", Doc::Spans),
    ("--windows", "windows", Doc::Windows),
];

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

/// A scratch file for `grid`'s `stream`.
fn scratch(grid: &str, stream: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("manifest");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir.join(format!("{grid}.{stream}"))
}

/// Digests the file at `path` line by line, then removes it: the whole
/// file, and the lines cell `k` wrote. JSON records of cell `k` open with
/// `{"scenario":…,"index":k,`, CSV rows with `grid,k,`, and a CSV cell
/// keeps the header line.
fn digest_file(path: &Path, grid: &str, stream: &str, k: Option<usize>) -> (u64, u64) {
    let prefix = k.map(|k| match stream {
        "csv" => format!("{grid},{k},"),
        _ => format!("{{\"scenario\":{grid:?},\"index\":{k},"),
    });
    let (mut whole, mut cell) = (Fnv1a::default(), Fnv1a::default());
    let mut reader = BufReader::new(File::open(path).expect("the file was written"));
    let mut line = String::new();
    for n in 0.. {
        line.clear();
        if reader.read_line(&mut line).expect("a readable file") == 0 {
            break;
        }
        whole.write(line.as_bytes());
        if (n == 0 && stream == "csv") || prefix.as_ref().is_some_and(|p| line.starts_with(p)) {
            cell.write(line.as_bytes());
        }
    }
    std::fs::remove_file(path).expect("a removable file");
    (whole.finish(), cell.finish())
}

/// Runs `harness run <grid> --ops 8` with `streams`, each written to its
/// own file, and returns each stream's (whole file, pinned cell) digests.
fn run_cli(grid: &str, streams: &[Stream], cell: Option<usize>) -> Vec<(String, (u64, u64))> {
    let ops = OPS.to_string();
    let mut args = vec!["run", grid, "--ops", &ops, "--threads", "2", "--no-table"];
    let paths: Vec<String> = streams
        .iter()
        .map(|(_, s, _)| scratch(grid, s).display().to_string())
        .collect();
    for ((flag, _, _), p) in streams.iter().zip(&paths) {
        args.extend([*flag, p.as_str()]);
    }
    assert_eq!(scorpio_harness::cli::run_cli(args), 0, "harness run {grid}");
    streams
        .iter()
        .zip(&paths)
        .map(|((_, s, _), p)| (s.to_string(), digest_file(Path::new(p), grid, s, cell)))
        .collect()
}

/// Every (grid, stream) digest, whole documents and pinned cells, from
/// the CLI's own files.
fn full_manifest() -> Manifest {
    let mut m = Manifest::new();
    for grid in grid_names() {
        let cell = pinned_cell(&grid);
        let mut docs = run_cli(&grid, &RESULTS, cell);
        if STREAM_GRIDS.contains(&grid.as_str()) {
            docs.extend(run_cli(&grid, &STREAMS, cell));
        }
        for (stream, (whole, part)) in docs {
            if let Some(k) = cell {
                m.insert((grid.clone(), format!("{stream}#{k}")), part);
            }
            m.insert((grid.clone(), stream), whole);
        }
    }
    m
}

/// The digest of `doc` over `results` as [`sink::write`] writes it (to a
/// file of its own: the CLI test may run beside this one).
fn written(grid: &str, (_, stream, doc): Stream, results: &[RunResult]) -> u64 {
    let path = scratch(grid, &format!("{stream}.cell"));
    let path_text = path.display().to_string();
    sink::write(&path_text, doc, &[(grid, results)], SinkOptions::default())
        .expect("a writable scratch file");
    digest_file(&path, grid, stream, None).0
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
/// and writes its documents through the CLI's writer.
#[test]
fn one_cell_per_grid_matches_the_manifest() {
    if blessing() {
        return;
    }
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
            for doc in RESULTS {
                actual.insert((grid.clone(), doc.1.into()), written(&grid, doc, &[]));
            }
            continue;
        };
        let mut runs = vec![(
            &RESULTS[..],
            run_spec_ov(&specs[k], OPS, &Overrides::default()),
        )];
        if STREAM_GRIDS.contains(&grid.as_str()) {
            runs.push((&STREAMS[..], run_spec_ov(&specs[k], OPS, &recording)));
        }
        for (docs, r) in &runs {
            for &doc in *docs {
                let d = written(&grid, doc, std::slice::from_ref(r));
                actual.insert((grid.clone(), format!("{}#{k}", doc.1)), d);
            }
        }
    }
    check(&actual);
}
