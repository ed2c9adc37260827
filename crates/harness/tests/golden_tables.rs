//! Golden rendered tables.
//!
//! The JSONL and CSV sinks are pinned by the engine-equivalence and
//! golden-digest suites; the *tables* a scenario prints are not. This
//! suite pins the FNV-1a digest of every renderer's output on its small
//! grid (or its only grid) at `--ops 2` on one thread, so a refactor of
//! the table code that moves a single byte — a width, a separator, a
//! footnote — fails here. The failure message prints every mismatching
//! table and the whole digest list, so an *intended* change re-pins in
//! one paste.

use scorpio_harness::exec::{run_grid, ExecOptions};
use scorpio_harness::registry;

/// Operations per core for every golden run.
const OPS: usize = 2;

/// (registry name, `--seeds` override, digest of the rendered table).
type Golden = (&'static str, Option<&'static [u64]>, u64);

const TABLE: &[Golden] = &[
    ("fig6-small", None, 0xa8bb26673f6eac23),
    ("fig7", None, 0x479c9e41eae7a040),
    ("fig7-small", None, 0x74d309f4cab81c4e),
    ("fig8a", None, 0x5e8ce7e185218c22),
    ("fig9", None, 0xa64f26d8db571010),
    ("fig10-small", None, 0x14feb4ebdc1ce9b3),
    ("table1", None, 0xc925150dbdbf2db2),
    ("table2", None, 0x06f4319b775a505d),
    ("ablation-small", None, 0x97b97a8912d9afc8),
    ("ablation-small", Some(&[1, 2]), 0xfe1fb12dadcffa56),
    ("scaling-small", None, 0x0f2bf0a312344407),
    ("scaling-mesh-small", None, 0x388b10f272e9de64),
    ("topology-small", None, 0x2570830e2d39e8c8),
    ("latency-breakdown-small", None, 0xe3b67a2e20e6e50f),
    ("planes-small", None, 0x125dbd72cc2634d0),
    ("planes-throughput-small", None, 0xa8f6a83cba458bdb),
    ("mc-placement-small", None, 0xee41eb2a8c354dd7),
    ("cmesh-small", None, 0x5ecfb289d6f3711c),
    ("latency-curve-small", None, 0x13b90f4d0263e8f5),
];

/// The kilocore sweep is slow in debug builds, so it runs in its own
/// ignored test. Re-pinned once, when the table lost its `r-leap` column
/// and footnote clause with the per-region leap ledger; every other cell
/// is unchanged.
const KILOCORE: Golden = ("scaling-kilocore-small", None, 0xa551d2e598bead74);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders one golden scenario at [`OPS`] on one thread.
fn render(&(name, seeds, _): &Golden) -> String {
    let mut s = registry::by_name(name).unwrap_or_else(|| panic!("{name} is registered"));
    if let Some(seeds) = seeds {
        s.grid.seeds = seeds.to_vec();
    }
    let opts = ExecOptions {
        threads: 1,
        ops_per_core: OPS,
        ..ExecOptions::default()
    };
    let results = run_grid(&s.grid, &opts);
    (s.render)(&s, &results)
}

fn check(goldens: &[Golden]) {
    let mut failures = String::new();
    let mut pins = String::new();
    for g in goldens {
        let table = render(g);
        let actual = fnv1a(table.as_bytes());
        let (name, seeds, expected) = *g;
        let seeds_src = seeds.map_or("None".into(), |s| format!("Some(&{s:?})"));
        pins.push_str(&format!("    ({name:?}, {seeds_src}, {actual:#018x}),\n"));
        if actual != expected {
            failures.push_str(&format!(
                "--- {name} (seeds {seeds:?}): {actual:#018x}, pinned {expected:#018x}\n{table}\n"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "rendered tables moved:\n{failures}\nactual digests:\n{pins}"
    );
}

#[test]
fn rendered_tables_match_the_recorded_digests() {
    check(TABLE);
}

#[test]
#[ignore = "scaling-kilocore-small takes ~13 s in debug; CI runs it in release"]
fn kilocore_table_matches_the_recorded_digest() {
    check(&[KILOCORE]);
}
