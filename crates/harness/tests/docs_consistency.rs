//! Documentation consistency: the registry is the source of truth for
//! what can be run, and EXPERIMENTS.md is its user-facing catalogue. A
//! scenario that exists but is undocumented silently rots (nobody runs
//! it, nothing explains its columns), so CI fails the build instead.

use scorpio_harness::registry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Repo-root file contents (the harness crate lives two levels down).
fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The text of `md` from `heading` up to the next heading.
fn section<'a>(md: &'a str, heading: &str) -> &'a str {
    let start = md
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a `{heading}` section"));
    let text = &md[start..];
    &text[..text[1..].find("\n#").map_or(text.len(), |i| i + 1)]
}

/// Every key path of one JSON object line: `key` at the top level,
/// `outer.key` inside a nested object. Array contents carry no keys.
fn key_paths(line: &str) -> Vec<String> {
    let (mut paths, mut objects, mut last, mut arrays) =
        (Vec::new(), Vec::<String>::new(), None, 0);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let s: String = chars.by_ref().take_while(|&c| c != '"').collect();
                if arrays == 0 && chars.peek() == Some(&':') {
                    let path = match objects.last() {
                        Some(outer) if !outer.is_empty() => format!("{outer}.{s}"),
                        _ => s,
                    };
                    paths.push(path.clone());
                    last = Some(path);
                }
            }
            '{' => objects.push(last.take().unwrap_or_default()),
            '}' => drop(objects.pop()),
            '[' => arrays += 1,
            ']' => arrays -= 1,
            _ => {}
        }
    }
    paths
}

/// Every registered scenario name must appear — backticked, so a name
/// that is merely a substring of another (`fig6` in `fig6-small`) cannot
/// satisfy the check by accident — in EXPERIMENTS.md.
#[test]
fn every_scenario_name_is_documented_in_experiments_md() {
    let md = repo_file("EXPERIMENTS.md");
    let mut missing = Vec::new();
    for (s, _) in registry::experiments() {
        if !md.contains(&format!("`{}`", s.name)) {
            missing.push(s.name);
        }
    }
    assert!(
        missing.is_empty(),
        "scenarios missing from EXPERIMENTS.md (add a `name` entry for each): {missing:?}"
    );
}

/// The README's topology section documents the fabric axis; every fabric
/// kind the harness can sweep must be mentioned so run examples exist for
/// all of them.
#[test]
fn readme_documents_every_fabric_kind() {
    let md = repo_file("README.md");
    for fabric in ["mesh", "torus", "ring", "cmesh"] {
        assert!(
            md.contains(fabric),
            "README.md never mentions the {fabric} fabric"
        );
    }
}

/// DESIGN.md §13 is the trace schema's reference: every event kind the
/// tracer can emit must be documented there (quoted, as it appears on
/// the wire), and the README must show the `--trace` flag. The kind
/// list mirrors `scorpio_noc::TraceKind::name` — a new variant without
/// documentation fails here.
#[test]
fn design_md_documents_the_full_trace_schema() {
    let md = repo_file("DESIGN.md");
    for kind in [
        "inject",
        "vc-alloc",
        "hop",
        "bypass",
        "eject",
        "ordered-commit",
    ] {
        assert!(
            md.contains(&format!("\"{kind}\"")),
            "DESIGN.md never documents the {kind:?} trace event kind"
        );
    }
    let readme = repo_file("README.md");
    assert!(
        readme.contains("--trace"),
        "README.md lacks a --trace example"
    );
    assert!(readme.contains("--hist"), "README.md lacks the --hist flag");
}

/// EXPERIMENTS.md documents the histogram CSV columns the `--hist` flag
/// adds, so consumers of sweep CSVs can find what the columns mean.
#[test]
fn experiments_md_documents_percentile_columns() {
    let md = repo_file("EXPERIMENTS.md");
    for col in ["packet_p50", "packet_p999", "ordering_p50", "ordering_p999"] {
        assert!(
            md.contains(col),
            "EXPERIMENTS.md never mentions the {col} CSV column"
        );
    }
}

/// DESIGN.md §16 is the span schema's reference: each of the seven phase
/// names must appear quoted as it does on the wire, and the README must
/// show the `--spans`/`--windows` flags. The phase list is checked
/// against the `phases` object `MissSpan`'s field list writes — a renamed
/// phase without documentation fails here.
#[test]
fn design_md_documents_the_span_phases() {
    use scorpio_harness::exec::{run_spec_ov, Overrides};
    use scorpio_sim::json::{self, Fields};

    let phases = [
        "source", "queue", "inject", "flight", "commit", "data", "fill",
    ];
    let spec = registry::by_name("fig7-small")
        .expect("registered")
        .grid
        .enumerate()[0]
        .clone();
    let spanned = Overrides {
        spans: true,
        ..Overrides::default()
    };
    let r = run_spec_ov(&spec, 2, &spanned);
    let (spans, _) = r.spans.as_ref().expect("spans recorded");
    let body = json::record(|o| spans[0].write_fields(o));
    let written: Vec<String> = key_paths(&body)
        .iter()
        .filter_map(|p| Some(p.strip_prefix("phases.")?.to_string()))
        .collect();
    assert_eq!(written, phases, "{body}");
    let md = repo_file("DESIGN.md");
    for phase in phases {
        assert!(
            md.contains(&format!("\"{phase}\"")),
            "DESIGN.md never documents the {phase:?} span phase"
        );
    }
    let readme = repo_file("README.md");
    assert!(
        readme.contains("--spans"),
        "README.md lacks a --spans example"
    );
    assert!(
        readme.contains("--windows"),
        "README.md lacks a --windows example"
    );
}

/// EXPERIMENTS.md documents the span and window CSV columns so sweep-CSV
/// consumers can find what the opt-in columns mean.
#[test]
fn experiments_md_documents_span_and_window_columns() {
    let md = repo_file("EXPERIMENTS.md");
    for col in [
        "span_queue",
        "span_fill",
        "warmup",
        "steady_ops",
        "max_wait_ep",
    ] {
        assert!(
            md.contains(col),
            "EXPERIMENTS.md never mentions the {col} CSV column"
        );
    }
    assert!(
        md.contains("schema_version"),
        "EXPERIMENTS.md never mentions the obs annex schema_version"
    );
}

/// EXPERIMENTS.md's result-schema table is checked against the real
/// sinks: every column of the full CSV header (timing included) and every
/// top-level key of a timed JSONL row must appear backticked in it.
#[test]
fn every_sink_column_and_key_is_documented() {
    use scorpio_harness::exec::{run_grid, ExecOptions};
    use scorpio_harness::scenario::SweepGrid;
    use scorpio_harness::sink::{self, SinkOptions};
    use scorpio_workloads::WorkloadParams;

    let md = repo_file("EXPERIMENTS.md");
    let table = section(&md, "### Result schema");

    let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()]).meshes(&[2]);
    let results = run_grid(
        &grid,
        &ExecOptions {
            threads: 1,
            ops_per_core: 2,
            ..ExecOptions::default()
        },
    );
    let timed = SinkOptions {
        include_timing: true,
    };
    let csv = sink::csv("docs", &results, timed);
    let mut names: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    // Top-level JSON keys: the flat, comma-free prefix ahead of the
    // closing `"report"` object, then `report` itself.
    let line = sink::json_line("docs", &results[0], timed);
    let head = &line[1..line.find(r#","report":"#).expect("rows end in a report")];
    names.extend(
        head.split(',')
            .map(|f| f.split(':').next().unwrap().trim_matches('"')),
    );
    names.push("report");
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !table.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md's result-schema table lacks {missing:?}"
    );
    // And back: every backticked name in the table's first column is a
    // real column or key, so a row cannot outlive what it documents.
    let stale: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split(" |").next())
        .flat_map(|cell| cell.split('`').step_by(2))
        .filter(|n| !n.is_empty() && !names.contains(n))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md's result-schema table documents no such column or key: {stale:?}"
    );
}

/// EXPERIMENTS.md documents the open-loop sweep columns: the arrival
/// axis every sink row now carries, the source-queue span phase, the
/// window-fairness minimum and the drop counter. DESIGN.md §17 is the
/// arrival-process reference, so the generator names and the knee rule
/// must appear there.
#[test]
fn open_loop_columns_and_processes_are_documented() {
    let md = repo_file("EXPERIMENTS.md");
    for col in [
        "arrival",
        "load_millis",
        "span_source",
        "min_wait_ep",
        "min_wait_mean",
        "source_dropped",
    ] {
        assert!(
            md.contains(col),
            "EXPERIMENTS.md never mentions the {col} CSV column"
        );
    }
    let design = repo_file("DESIGN.md");
    for term in ["Poisson", "bursty", "offered load", "knee"] {
        assert!(
            design.contains(term),
            "DESIGN.md never documents the open-loop term {term:?}"
        );
    }
    let readme = repo_file("README.md");
    assert!(
        readme.contains("latency-curve-small"),
        "README.md lacks an open-loop run example"
    );
}

/// EXPERIMENTS.md's stream-schema table is checked against the real
/// `--trace`, `--spans` and `--windows` files of a small run: every key
/// path of every line appears backticked in the table, and each trace
/// event kind's keys appear on that kind's own row.
#[test]
fn every_stream_key_is_documented() {
    let md = repo_file("EXPERIMENTS.md");
    let table = section(&md, "### Stream schema");
    let path = |stream: &str| format!("{}/docs-{stream}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let mut args: Vec<String> = [
        "run",
        "fig7-small",
        "--ops",
        "2",
        "--threads",
        "1",
        "--no-table",
    ]
    .map(String::from)
    .to_vec();
    for stream in ["trace", "spans", "windows"] {
        args.extend([format!("--{stream}"), path(stream)]);
    }
    assert_eq!(scorpio_harness::cli::run_cli(args), 0);

    let mut missing = std::collections::BTreeSet::new();
    let mut kinds = std::collections::BTreeSet::new();
    for stream in ["trace", "spans", "windows"] {
        let doc = std::fs::read_to_string(path(stream)).expect("the run wrote the stream");
        assert!(!doc.is_empty(), "empty {stream} stream");
        for line in doc.lines() {
            let paths = key_paths(line);
            assert_eq!(paths[..3], ["scenario", "index", "seed"], "{line}");
            // A trace line's own keys must sit on its event kind's row.
            let row = line
                .split_once(r#""event":""#)
                .map(|(_, rest)| rest.split('"').next().unwrap())
                .map(|kind| {
                    kinds.insert(kind.to_string());
                    let cell = format!("`\"{kind}\"`");
                    table
                        .lines()
                        .find(|l| l.starts_with(&format!("| {cell}")))
                        .unwrap_or_else(|| panic!("no row for event kind {cell}"))
                });
            for p in &paths {
                let tick = format!("`{p}`");
                let documented = match row {
                    Some(row)
                        if !["scenario", "index", "seed", "cycle", "plane", "event"]
                            .contains(&p.as_str()) =>
                    {
                        row.contains(&tick)
                    }
                    _ => table.contains(&tick),
                };
                if !documented {
                    missing.insert(format!("{stream}: {p}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md's stream-schema table lacks {missing:?}"
    );
    let all = [
        "bypass",
        "eject",
        "hop",
        "inject",
        "ordered-commit",
        "vc-alloc",
    ];
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        all,
        "the run must emit every kind"
    );
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let entries = std::fs::read_dir(&d).unwrap_or_else(|e| panic!("cannot list {d:?}: {e}"));
        for entry in entries {
            let path = entry.expect("a readable directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The identifier tokens of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> + '_ {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The identifier tokens of `line` that may refer to a function. A word
/// right after `fn` defines one. A field declaration, struct-literal field
/// or binding (`name:` but not `name::`) and a field read (`.name` not
/// followed by `(` or `::`) name a field that merely shares its name.
fn references(line: &str) -> Vec<&str> {
    let mut refs = Vec::new();
    let (mut after_fn, mut start) = (false, None);
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (c.is_alphanumeric() || c == '_', start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                start = None;
                let (word, after) = (&line[s..i], &line[i..]);
                let call = after.starts_with('(') || after.starts_with("::");
                let field = (line[..s].ends_with('.') && !call)
                    || (after.starts_with(':') && !after.starts_with("::"));
                if !after_fn && !field {
                    refs.push(word);
                }
                after_fn = word == "fn";
            }
            _ => {}
        }
    }
    refs
}

/// Public means named elsewhere. Every non-test `pub fn`, `struct`, `enum`,
/// `const` and `trait` of a workspace crate is named outside that crate:
/// in another crate's source or tests, an integration test (`tests/`,
/// `crates/*/tests`), an example, the `harness` binary, `benchmark/src` or
/// a doc example. A type may instead appear in a signature or public field
/// of another public item of its crate, since the compiler's
/// `private_interfaces` lint forces such a type public. Items inside a
/// `testing` module count as named: their callers are other crates' tests.
/// Only [`references`] count, so a field of the same name keeps no
/// function public. `rustc`'s `dead_code` lint finds every unused
/// `pub(crate)` item; this finds the `pub` ones it cannot see. The
/// allow-list is empty.
#[test]
fn every_public_fn_is_referenced() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Name -> every place that names it: the library crate whose source
    // holds the line, `""` for a line outside every library crate, and
    // `"doc"` for a line of a doc example.
    let mut named: HashMap<String, HashSet<String>> = HashMap::new();
    // (crate, type name) pairs a public signature or field mentions.
    let mut interface: HashSet<(String, String)> = HashSet::new();
    let mut defs = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        for path in rust_files(&root.join(dir)) {
            let rel = path.strip_prefix(&root).expect("under the root").to_owned();
            let parts: Vec<&str> = rel
                .iter()
                .map(|p| p.to_str().expect("a UTF-8 path"))
                .collect();
            let lib = match parts.as_slice() {
                ["crates", name, "src", rest @ ..] if rest.first() != Some(&"bin") => *name,
                _ => "",
            };
            let text = std::fs::read_to_string(&path).expect("a readable source file");
            let (mut in_test, mut in_doc_code) = (false, false);
            let (mut testing_end, mut pub_enum) = (None::<String>, false);
            for line in text.lines() {
                in_test |= line.starts_with("#[cfg(test)]");
                let trimmed = line.trim_start();
                if let Some(doc) = trimmed.strip_prefix("///").or(trimmed.strip_prefix("//!")) {
                    if doc.trim_start().starts_with("```") {
                        in_doc_code = !in_doc_code;
                    } else if in_doc_code {
                        for w in references(doc) {
                            named.entry(w.to_owned()).or_default().insert("doc".into());
                        }
                    }
                    continue;
                }
                for w in references(line) {
                    named
                        .entry(w.to_owned())
                        .or_default()
                        .insert(lib.to_owned());
                }
                if lib.is_empty() || in_test {
                    continue;
                }
                let indent = &line[..line.len() - trimmed.len()];
                if testing_end.as_deref() == Some(line) {
                    testing_end = None;
                } else if trimmed.starts_with("pub mod testing {")
                    || trimmed.starts_with("mod testing {")
                {
                    testing_end = Some(format!("{indent}}}"));
                }
                pub_enum = (pub_enum || line.starts_with("pub enum ")) && line != "}";
                let def = ["fn", "struct", "enum", "const", "trait"]
                    .iter()
                    .find_map(|kind| trimmed.strip_prefix(&format!("pub {kind} ")[..]))
                    .and_then(|rest| words(rest).find(|w| *w != "fn"));
                let signature = (trimmed.starts_with("pub ") && !trimmed.starts_with("pub use "))
                    || trimmed.starts_with(") ->")
                    || (pub_enum && line.starts_with("        ") && trimmed.contains(": "));
                if signature {
                    for w in references(line).into_iter().filter(|w| Some(*w) != def) {
                        interface.insert((lib.to_owned(), w.to_owned()));
                    }
                }
                if let (Some(name), None) = (def, &testing_end) {
                    let is_type =
                        !trimmed.starts_with("pub fn ") && !trimmed.starts_with("pub const ");
                    defs.push((
                        lib.to_owned(),
                        name.to_owned(),
                        is_type,
                        rel.display().to_string(),
                    ));
                }
            }
        }
    }
    let unnamed: Vec<String> = defs
        .iter()
        .filter(|(lib, name, is_type, _)| {
            let outside = named
                .get(name)
                .is_some_and(|at| at.iter().any(|place| place.as_str() != lib.as_str()));
            let exposed = *is_type && interface.contains(&(lib.clone(), name.clone()));
            !(outside || exposed)
        })
        .map(|(_, name, _, file)| format!("{file}: {name}"))
        .collect();
    assert!(
        unnamed.is_empty(),
        "public items nothing outside their crate names (make them pub(crate)): {unnamed:#?}"
    );
}

/// Whether `after`, the text following a `.field` mention, makes the
/// mention an update of the field rather than a read: an assignment
/// (`=`, `+=`, `-=`) or a call of a recording method on it.
fn is_update(after: &str) -> bool {
    let after = after.trim_start();
    let assigns = after.starts_with("+=")
        || after.starts_with("-=")
        || (after.starts_with('=') && !after.starts_with("=="));
    let records = [".record(", ".merge(", ".incr(", ".add(", ".as_deref_mut("]
        .iter()
        .any(|call| after.starts_with(call));
    assigns || records
}

/// A statistic pays rent only if something reads it. Every field of a
/// `struct *Stats` under `crates/*/src` (before the file's tests) must be
/// read somewhere: a `.field` mention that is neither a method call nor an
/// update ([`is_update`]), in any crate's source or tests, `tests/`,
/// `examples/` or `benchmark/src`. A stats type's own `impl` blocks (its
/// merge) do not count as readers. Matching is by name, as in
/// [`every_public_fn_is_referenced`], so a field that shares its name with
/// a read field of another type passes; the allow-list is empty.
#[test]
fn every_stats_field_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // (struct, field, file) for every statistics field.
    let mut fields = Vec::new();
    for path in rust_files(&root.join("crates")) {
        let rel = path.strip_prefix(&root).expect("under the root").to_owned();
        if !rel.iter().any(|p| p == "src") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        let mut owner = None::<String>;
        for line in text.lines() {
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            let trimmed = line.trim_start();
            let decl = trimmed
                .strip_prefix("pub ")
                .or(trimmed.strip_prefix("pub(crate) "))
                .unwrap_or(trimmed);
            if line == "}" {
                owner = None;
            } else if let Some(name) = decl.strip_prefix("struct ").and_then(|r| words(r).next()) {
                owner = (name.ends_with("Stats") && line.ends_with('{')).then(|| name.to_owned());
            } else if let (Some(o), Some((field, _))) = (&owner, decl.split_once(": ")) {
                if words(field).count() == 1 && !trimmed.starts_with("//") {
                    fields.push((o.clone(), field.to_owned(), rel.display().to_string()));
                }
            }
        }
    }
    assert!(
        fields.len() > 10,
        "the stats structs were found: {fields:?}"
    );
    let owners: HashSet<&str> = fields.iter().map(|(o, _, _)| o.as_str()).collect();
    let mut read: HashSet<String> = HashSet::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        for path in rust_files(&root.join(dir)) {
            let text = std::fs::read_to_string(&path).expect("a readable source file");
            let mut in_own_impl = false;
            for line in text.lines() {
                if line.starts_with("impl") {
                    in_own_impl = words(line).any(|w| owners.contains(w));
                } else if line == "}" {
                    in_own_impl = false;
                }
                if in_own_impl || line.trim_start().starts_with("//") {
                    continue;
                }
                for (dot, _) in line.match_indices('.') {
                    let rest = &line[dot + 1..];
                    let end = rest
                        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .unwrap_or(rest.len());
                    let (name, after) = rest.split_at(end);
                    if !name.is_empty() && !after.starts_with('(') && !is_update(after) {
                        read.insert(name.to_owned());
                    }
                }
            }
        }
    }
    let unread: Vec<String> = fields
        .iter()
        .filter(|(_, field, _)| !read.contains(field))
        .map(|(owner, field, file)| format!("{file}: {owner}::{field}"))
        .collect();
    assert!(
        unread.is_empty(),
        "statistics nothing reads (delete them): {unread:#?}"
    );
}
