//! The output manifest: every byte this repository pins across commits.
//!
//! `golden/manifest.txt` holds one FNV-1a digest per line, `key stream
//! digest`, under three kinds of key:
//! - `<grid>`: the bytes `harness run <grid> --ops 8` writes for every
//!   registry name: its `--json` and `--csv` documents, plus the
//!   `--trace`, `--spans` and `--windows` streams of the four
//!   observability grids. A stream named `S#k` is the part of stream `S`
//!   that cell `k` wrote (a CSV cell keeps its header line); every grid
//!   with runs pins its cheapest cell that way, fewest cores first.
//! - `golden:<row>` and `annex:<row>`: the cells of [`GOLDEN`] and
//!   [`ANNEX`], configurations no registry grid reaches. A golden row
//!   pins its report, full flit trace and span stream; an annex row runs
//!   with counters off and pins its report and window stream.
//! - `table:<grid>`: the table `<grid>` renders at `--ops 2` on one
//!   thread (`/seeds=1,2`: with that `--seeds` override).
//!
//! `reference ≡ fast` cannot catch a change to the router, arbiters or
//! the notification tracker, since both engines run the same code; a
//! moved arbitration decision, credit or notification expansion moves a
//! line here.
//!
//! Tier-1 checks the golden and annex rows, every table but the
//! kilocore one, one cell per grid, and one grid whole: it reruns only
//! the pinned cell of every grid through the library, plus the zero-run
//! grids whole, and writes it through the CLI's writer (`sink::write`),
//! and it drives the CLI over [`WHOLE_GRID`].
//! `every_grid_matches_the_manifest` (`#[ignore]`d: minutes in debug,
//! under a minute in release) drives the CLI over every grid and checks
//! every line. Both hash the files written line by line, never holding a
//! document.
//!
//! The manifest is blessed on one thread and checked on [`THREADS`]
//! workers (the CLI runs and the tables), so it also pins that a sweep's
//! bytes never depend on the worker count.
//!
//! `SCORPIO_BLESS=1 cargo test --release -p scorpio-harness --test
//! manifest -- --include-ignored` rewrites the whole manifest from the
//! current code; only this file reads that variable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use scorpio::{ArrivalProcess, ObsLevel, OpenLoopConfig, Protocol, System, SystemConfig};
use scorpio_harness::exec::{run_grid, run_spec_ov, ExecOptions, Overrides, RunResult};
use scorpio_harness::registry;
use scorpio_harness::sink::{self, Doc, SinkOptions};
use scorpio_noc::{placement, Fabric, Topology};
use scorpio_sim::json::{self, Fields};
use scorpio_sim::Fnv1a;
use scorpio_workloads::{generate, WorkloadParams};

/// Operations per core of every pinned grid run.
const OPS: usize = 8;

/// Operations per core of every pinned table.
const TABLE_OPS: usize = 2;

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

/// Workers of every checked grid run and table; blessing runs on one.
const THREADS: usize = 4;

/// The grid tier-1 runs whole through the CLI: every document it writes,
/// record streams included, on [`THREADS`] workers.
const WHOLE_GRID: &str = "fig7-small";

/// A trace cap no golden row reaches (asserted: nothing may be dropped).
const TRACE_CAP: usize = 50_000_000;

/// A fixed cell: its name, configuration, workload and operations per
/// core.
type Row = (
    &'static str,
    fn() -> SystemConfig,
    fn() -> WorkloadParams,
    usize,
);

/// Cells run with every event recorded; each pins its report, full flit
/// trace and span stream, recorded at the commit before the mask-native
/// router rewrite.
///
/// Covered: 6×6 mesh under SCORPIO and LPD-D (three unordered vnets),
/// 4×4 torus (dateline classes C0/C1), 8-router ring, `cmesh(2,2,4)` × 2
/// planes (9-port routers, plane steering), saturated 8×8 `bcast-heavy`
/// (rVC and SID-conflict paths), TokenB and INSO-40 on 4×4, one
/// open-loop Poisson cell with spans, one open-loop bursty cell (every
/// ON/OFF dwell and gap is a geometric draw), and the buffer squeeze
/// (one-deep injection and L2 queues, non-pipelined uncore, four
/// outstanding accesses): INSO-1, LPD-D and TokenB on 8×8 `bcast-heavy`,
/// where the baselines' held broadcasts retry (a slot-stamped request,
/// an INSO expiry, a home's rebroadcast) and tiles hold data the L2
/// cannot take, and SCORPIO on 4×4, whose tiles hold data too.
const GOLDEN: &[Row] = &[
    ("mesh6x6/SCORPIO/barnes", SystemConfig::chip, barnes, 10),
    (
        "mesh6x6/LPD-D/barnes",
        || SystemConfig::chip().with_protocol(Protocol::LpdDir),
        barnes,
        10,
    ),
    (
        "torus4x4/SCORPIO/blackscholes",
        || SystemConfig::with_topology(Fabric::Torus.topology(4)),
        || preset("blackscholes"),
        20,
    ),
    (
        "ring8/SCORPIO/barnes",
        || SystemConfig::with_topology(Topology::new(Fabric::Ring, 8, 1, placement::spread(8, 4))),
        barnes,
        20,
    ),
    (
        "cmesh2x2x4+2pl/SCORPIO/barnes",
        || SystemConfig::cmesh(2, 2, 4).with_planes(2),
        barnes,
        20,
    ),
    (
        "mesh8x8/SCORPIO/bcast-heavy",
        || SystemConfig::square(8),
        bcast_heavy,
        2,
    ),
    (
        "mesh4x4/TokenB/barnes",
        || SystemConfig::square(4).with_protocol(Protocol::TokenB),
        barnes,
        20,
    ),
    (
        "mesh4x4/INSO-40/barnes",
        || SystemConfig::square(4).with_protocol(Protocol::Inso { expiry_window: 40 }),
        barnes,
        10,
    ),
    (
        "mesh4x4/SCORPIO/open-uniform/pois-8+spans",
        || {
            SystemConfig::square(4)
                .with_open_loop(OpenLoopConfig::poisson(8))
                .with_spans(true)
        },
        open_uniform,
        20,
    ),
    (
        "mesh4x4/SCORPIO/open-uniform/burst-20",
        || {
            SystemConfig::square(4).with_open_loop(OpenLoopConfig {
                process: ArrivalProcess::Bursty { on: 50, off: 150 },
                ..OpenLoopConfig::poisson(20)
            })
        },
        open_uniform,
        20,
    ),
    (
        "mesh8x8/INSO-1/bcast-heavy/squeeze",
        || squeezed(8, Protocol::Inso { expiry_window: 1 }),
        bcast_heavy,
        25,
    ),
    (
        "mesh8x8/LPD-D/bcast-heavy/squeeze",
        || squeezed(8, Protocol::LpdDir),
        bcast_heavy,
        4,
    ),
    (
        "mesh8x8/TokenB/bcast-heavy/squeeze",
        || squeezed(8, Protocol::TokenB),
        bcast_heavy,
        4,
    ),
    (
        "mesh4x4/SCORPIO/bcast-heavy/squeeze",
        || squeezed(4, Protocol::Scorpio),
        bcast_heavy,
        12,
    ),
];

/// Cells run with the observability level off but spans or windows on:
/// their reports carry the annex with its latency histograms empty, and
/// each pins its window stream beside the report.
const ANNEX: &[Row] = &[
    (
        "mesh4x4/SCORPIO/barnes+spans",
        || SystemConfig::square(4).with_spans(true),
        barnes,
        20,
    ),
    (
        "mesh4x4/SCORPIO/barnes+windows",
        || SystemConfig::square(4).with_windows(64),
        barnes,
        20,
    ),
    (
        "cmesh2x2x4+2pl/SCORPIO/barnes+spans+windows",
        || {
            SystemConfig::cmesh(2, 2, 4)
                .with_planes(2)
                .with_spans(true)
                .with_windows(128)
        },
        barnes,
        20,
    ),
];

/// The grid whose table only the whole-manifest test renders: slow in
/// debug builds.
const KILOCORE: &str = "scaling-kilocore-small";

/// The pinned tables: every renderer on its small grid (or its only
/// grid), with a `--seeds` override where one is given.
const TABLES: [(&str, Option<&[u64]>); 20] = [
    ("fig6-small", None),
    ("fig7", None),
    ("fig7-small", None),
    ("fig8a", None),
    ("fig9", None),
    ("fig10-small", None),
    ("table1", None),
    ("table2", None),
    ("ablation-small", None),
    ("ablation-small", Some(&[1, 2])),
    ("scaling-small", None),
    ("scaling-mesh-small", None),
    ("topology-small", None),
    ("latency-breakdown-small", None),
    ("planes-small", None),
    ("planes-throughput-small", None),
    ("mc-placement-small", None),
    ("cmesh-small", None),
    ("latency-curve-small", None),
    (KILOCORE, None),
];

/// (key, stream) → digest.
type Manifest = BTreeMap<(String, String), u64>;

fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest.txt")
}

fn blessing() -> bool {
    std::env::var_os("SCORPIO_BLESS").is_some_and(|v| v == "1")
}

/// One worker when blessing, [`THREADS`] when checking.
fn workers() -> usize {
    if blessing() {
        1
    } else {
        THREADS
    }
}

/// FNV-1a 64 over `chunks` in order: the exact bytes a document is
/// written as (a report and a newline, each record body and a newline, a
/// table, a file's lines).
fn digest<B: AsRef<[u8]>>(chunks: impl IntoIterator<Item = B>) -> u64 {
    let mut h = Fnv1a::default();
    for c in chunks {
        h.write(c.as_ref());
    }
    h.finish()
}

/// Each record's standalone JSON body, written from its field list, and
/// a newline.
fn bodies<T: Fields>(records: &[T]) -> impl Iterator<Item = String> + '_ {
    records
        .iter()
        .map(|r| json::record(|o| r.write_fields(o)) + "\n")
}

fn preset(name: &str) -> WorkloadParams {
    WorkloadParams::by_name(name).expect("workload preset exists")
}

fn barnes() -> WorkloadParams {
    preset("barnes")
}

/// A workload that lives in the scenario registry rather than the presets.
fn registry_workload(scenario: &str, name: &str) -> WorkloadParams {
    registry::by_name(scenario)
        .expect("scenario registered")
        .grid
        .workloads
        .into_iter()
        .find(|w| w.name == name)
        .expect("scenario carries the workload")
}

fn bcast_heavy() -> WorkloadParams {
    registry_workload("planes-throughput", "bcast-heavy")
}

fn open_uniform() -> WorkloadParams {
    registry_workload("latency-curve-small", "open-uniform")
}

/// `side`×`side` mesh under `protocol` with the least buffering the
/// baselines' retry paths need to run: one-deep injection and L2 queues,
/// non-pipelined NIC and L2, four outstanding accesses per core.
fn squeezed(side: u16, protocol: Protocol) -> SystemConfig {
    let mut cfg = SystemConfig::square(side)
        .with_protocol(protocol)
        .with_outstanding(4)
        .with_pipelined_uncore(false);
    cfg.noc.inject_queue_depth = 1;
    cfg.l2.queue_depth = 1;
    cfg
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

fn table_key(&(name, seeds): &(&str, Option<&[u64]>)) -> String {
    match seeds {
        None => format!("table:{name}"),
        Some(s) => {
            let list: Vec<String> = s.iter().map(u64::to_string).collect();
            format!("table:{name}/seeds={}", list.join(","))
        }
    }
}

/// Every key in manifest order: the grids, the golden and annex rows,
/// the tables.
fn key_order() -> Vec<String> {
    let rows = |ns: &str, rows: &[Row]| -> Vec<String> {
        rows.iter().map(|r| format!("{ns}:{}", r.0)).collect()
    };
    let mut keys = grid_names();
    keys.extend(rows("golden", GOLDEN));
    keys.extend(rows("annex", ANNEX));
    keys.extend(TABLES.iter().map(table_key));
    keys
}

fn read_manifest() -> Manifest {
    let text = std::fs::read_to_string(manifest_path()).expect("the manifest is committed");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [key, stream, hex] = f[..] else {
                panic!("a manifest line is `key stream digest`: {l}")
            };
            let d = u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("hex digest");
            ((key.to_string(), stream.to_string()), d)
        })
        .collect()
}

fn render_manifest(m: &Manifest) -> String {
    let mut out = String::from(
        "# Output digests: FNV-1a 64 over the bytes `harness run <grid> --ops 8` writes.\n\
         # `S#k` is the lines cell k wrote to stream S (CSV: with the header).\n\
         # Rewrite with SCORPIO_BLESS=1; see crates/harness/tests/manifest.rs.\n\
         # `golden:<row>` and `annex:<row>` are manifest.rs's GOLDEN and ANNEX cells;\n\
         # `table:<grid>` is the table <grid> renders at --ops 2 (`/seeds=`: with --seeds).\n",
    );
    let order = key_order();
    let rank = |k: &str| order.iter().position(|n| n == k).expect("a known key");
    let mut rows: Vec<_> = m.iter().collect();
    rows.sort_by_key(|((k, s), _)| (rank(k), s.contains('#'), s.clone()));
    for ((key, stream), d) in rows {
        writeln!(out, "{key} {stream} {d:#018x}").expect("writing to a String");
    }
    out
}

/// Compares `actual` with the manifest and names every line that moved.
/// Under `SCORPIO_BLESS=1` there is nothing to compare:
/// [`every_grid_matches_the_manifest`] rewrites the file instead.
fn check(actual: &Manifest) {
    if blessing() {
        return;
    }
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

/// Runs golden row `row` with every event recorded and pins its report,
/// full flit trace and span stream.
fn golden(m: &mut Manifest, &(name, cfg, workload, ops): &Row) {
    let cfg = cfg().with_obs(ObsLevel::Trace).with_trace_limit(TRACE_CAP);
    let traces = generate(&workload().with_ops(ops), cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    let report = sys.run_to_completion();
    assert!(report.ops_completed > 0, "{name}: nothing completed");
    let (events, dropped) = sys.take_trace();
    assert_eq!(dropped, 0, "{name}: the trace cap truncated the run");
    assert!(!events.is_empty(), "{name}: empty trace");
    let (spans, span_dropped) = sys.span_records();
    assert_eq!(span_dropped, 0, "{name}: the span cap truncated the run");
    let key = format!("golden:{name}");
    for (stream, d) in [
        ("report", digest([report.to_json() + "\n"])),
        ("trace", digest(bodies(&events))),
        ("spans", digest(bodies(&spans))),
    ] {
        m.insert((key.clone(), stream.into()), d);
    }
}

/// Runs annex row `row` with counters off and pins its report and
/// window stream.
fn annex(m: &mut Manifest, &(name, cfg, workload, ops): &Row) {
    let cfg = cfg();
    assert_eq!(cfg.obs, ObsLevel::Off, "{name}: counters must be off");
    let traces = generate(&workload().with_ops(ops), cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    let report = sys.run_to_completion();
    assert!(report.obs.is_some(), "{name}: no annex");
    let key = format!("annex:{name}");
    for (stream, d) in [
        ("report", digest([report.to_json() + "\n"])),
        ("windows", digest(bodies(&sys.window_rows()))),
    ] {
        m.insert((key.clone(), stream.into()), d);
    }
}

/// Renders `table`'s grid at [`TABLE_OPS`] and pins it.
fn table(m: &mut Manifest, table: &(&str, Option<&[u64]>)) {
    let (name, seeds) = *table;
    let mut s = registry::by_name(name).unwrap_or_else(|| panic!("{name} is registered"));
    if let Some(seeds) = seeds {
        s.grid.seeds = seeds.to_vec();
    }
    let opts = ExecOptions {
        threads: workers(),
        ops_per_core: TABLE_OPS,
        ..ExecOptions::default()
    };
    let results = run_grid(&s.grid, &opts);
    let text = (s.render)(&s, &results);
    m.insert((table_key(table), "text".into()), digest([text]));
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

/// A scratch file for `grid`'s `stream`, in a directory of the calling
/// test's own (libtest names each test's thread after the test), since
/// two tests may write the same grid side by side.
fn scratch(grid: &str, stream: &str) -> PathBuf {
    let test = std::thread::current().name().unwrap_or("main").to_string();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("manifest")
        .join(test);
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir.join(format!("{grid}.{stream}"))
}

/// The lines of the file at `path`, each with its newline.
fn file_lines(path: &Path) -> impl Iterator<Item = String> {
    let mut reader = BufReader::new(File::open(path).expect("the file was written"));
    std::iter::from_fn(move || {
        let mut line = String::new();
        (reader.read_line(&mut line).expect("a readable file") > 0).then_some(line)
    })
}

/// The digests of the file at `path`, then removes it: the whole file,
/// and the lines cell `k` wrote. JSON records of cell `k` open with
/// `{"scenario":…,"index":k,`, CSV rows with `grid,k,`, and a CSV cell
/// keeps the header line.
fn digest_file(path: &Path, grid: &str, stream: &str, k: Option<usize>) -> (u64, Option<u64>) {
    let whole = digest(file_lines(path));
    let cell = k.map(|k| {
        let prefix = match stream {
            "csv" => format!("{grid},{k},"),
            _ => format!("{{\"scenario\":{grid:?},\"index\":{k},"),
        };
        let header = stream == "csv";
        digest(
            file_lines(path)
                .enumerate()
                .filter(|(n, l)| (*n == 0 && header) || l.starts_with(&prefix))
                .map(|(_, l)| l),
        )
    });
    std::fs::remove_file(path).expect("a removable file");
    (whole, cell)
}

/// Runs `harness run <grid> --ops 8` with `streams`, each written to its
/// own file, and pins each stream whole and its pinned cell alone.
fn run_cli(m: &mut Manifest, grid: &str, streams: &[Stream], cell: Option<usize>) {
    let (ops, threads) = (OPS.to_string(), workers().to_string());
    let mut args = vec![
        "run",
        grid,
        "--ops",
        &ops,
        "--threads",
        &threads,
        "--no-table",
    ];
    let paths: Vec<String> = streams
        .iter()
        .map(|(_, s, _)| scratch(grid, s).display().to_string())
        .collect();
    for ((flag, _, _), p) in streams.iter().zip(&paths) {
        args.extend([*flag, p.as_str()]);
    }
    assert_eq!(scorpio_harness::cli::run_cli(args), 0, "harness run {grid}");
    for ((_, stream, _), p) in streams.iter().zip(&paths) {
        let (whole, part) = digest_file(Path::new(p), grid, stream, cell);
        if let (Some(k), Some(part)) = (cell, part) {
            m.insert((grid.to_string(), format!("{stream}#{k}")), part);
        }
        m.insert((grid.to_string(), stream.to_string()), whole);
    }
}

/// The digest of `doc` over `results` as [`sink::write`] writes it.
fn written(grid: &str, (_, stream, doc): Stream, results: &[RunResult]) -> u64 {
    let path = scratch(grid, stream);
    let path_text = path.display().to_string();
    sink::write(&path_text, doc, &[(grid, results)], SinkOptions::default())
        .expect("a writable scratch file");
    digest_file(&path, grid, stream, None).0
}

/// Every line of the manifest from the current code: the CLI's own files
/// for every grid, every golden and annex row, every table.
#[test]
#[ignore = "every grid at --ops 8 takes minutes in debug; CI runs it in release"]
fn every_grid_matches_the_manifest() {
    let mut actual = Manifest::new();
    for grid in grid_names() {
        let cell = pinned_cell(&grid);
        run_cli(&mut actual, &grid, &RESULTS, cell);
        if STREAM_GRIDS.contains(&grid.as_str()) {
            run_cli(&mut actual, &grid, &STREAMS, cell);
        }
    }
    GOLDEN.iter().for_each(|r| golden(&mut actual, r));
    ANNEX.iter().for_each(|r| annex(&mut actual, r));
    TABLES.iter().for_each(|t| table(&mut actual, t));
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

/// [`WHOLE_GRID`] through the CLI, every document whole.
#[test]
fn one_grid_matches_the_manifest_on_several_workers() {
    let mut actual = Manifest::new();
    let cell = pinned_cell(WHOLE_GRID);
    run_cli(&mut actual, WHOLE_GRID, &RESULTS, cell);
    run_cli(&mut actual, WHOLE_GRID, &STREAMS, cell);
    check(&actual);
}

#[test]
fn golden_rows_match_the_manifest() {
    let mut actual = Manifest::new();
    GOLDEN.iter().for_each(|r| golden(&mut actual, r));
    check(&actual);
}

#[test]
fn annex_rows_match_the_manifest() {
    let mut actual = Manifest::new();
    ANNEX.iter().for_each(|r| annex(&mut actual, r));
    check(&actual);
}

/// Every table but the kilocore one, which the whole-manifest test
/// renders.
#[test]
fn rendered_tables_match_the_manifest() {
    let mut actual = Manifest::new();
    for t in TABLES.iter().filter(|t| t.0 != KILOCORE) {
        table(&mut actual, t);
    }
    check(&actual);
}

/// The span rows must actually carry spans, and the others must not:
/// their pinned span digest is that of the empty stream.
#[test]
fn span_digests_are_empty_exactly_where_spans_are_off() {
    let pinned = read_manifest();
    let empty = digest::<&[u8]>([]);
    for &(name, cfg, ..) in GOLDEN {
        let spans = pinned[&(format!("golden:{name}"), "spans".to_string())];
        assert_eq!(
            spans == empty,
            !cfg().spans,
            "{name}: span digest does not match the cell's span setting"
        );
    }
}
