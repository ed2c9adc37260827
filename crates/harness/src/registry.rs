//! The named-scenario registry.
//!
//! Every figure and table of the paper's evaluation, and every study added
//! since, is registered here once, as a builder for its [`Scenario`]: a
//! declarative sweep grid plus a render function that prints its table.
//! Most builders take a `Size`: `harness run X` runs experiment X's full
//! grid and `harness run X-small` its reduced one through the same
//! renderer. `harness list` shows one row per experiment.

use crate::breakdown::Share;
use scorpio::{ArrivalProcess, EpWait, Protocol, SpanReport, WindowReport};
use scorpio_workloads::WorkloadParams;

use crate::exec::RunResult;
use crate::scenario::{
    Engine, Fabric, GridFilter, Knob, McPlacement, RunSpec, Scenario, SweepGrid, Variant,
};
use crate::table::{render_normalized, render_table, Col};

/// Which grid a sized experiment lays out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Size {
    /// The full grid: `harness run <name>`.
    Full,
    /// The reduced grid — smaller meshes or fewer cells, same renderer:
    /// `harness run <name>-small`.
    Small,
}

impl Size {
    /// `full` at [`Size::Full`], `small` at [`Size::Small`].
    fn pick<T>(self, full: T, small: T) -> T {
        match self {
            Size::Full => full,
            Size::Small => small,
        }
    }
}

/// One registered experiment: a single grid, or a builder that also lays
/// out a `-small` grid.
#[derive(Clone, Copy)]
enum Entry {
    Fixed(fn() -> Scenario),
    Sized(fn(Size) -> Scenario),
}

/// Every experiment, in presentation order.
const REGISTRY: [Entry; 22] = [
    Entry::Sized(fig6),
    Entry::Fixed(fig6_64),
    Entry::Sized(fig7),
    Entry::Fixed(fig8a),
    Entry::Fixed(fig8b),
    Entry::Fixed(fig8c),
    Entry::Fixed(fig8d),
    Entry::Fixed(fig9),
    Entry::Sized(fig10),
    Entry::Fixed(table1),
    Entry::Fixed(table2),
    Entry::Sized(ablation),
    Entry::Sized(scaling),
    Entry::Sized(scaling_mesh),
    Entry::Sized(topology),
    Entry::Sized(latency_breakdown),
    Entry::Sized(planes_scenario),
    Entry::Sized(planes_throughput),
    Entry::Sized(mc_placement),
    Entry::Sized(cmesh),
    Entry::Sized(scaling_kilocore),
    Entry::Sized(latency_curve),
];

impl Entry {
    /// The experiment's scenario at `size`; `None` for the small size of
    /// a single-grid experiment.
    ///
    /// # Panics
    ///
    /// Panics if the grid fails [`SweepGrid::validate`] — a zero/duplicate
    /// axis value would silently emit duplicate (or no) JSONL rows, so it
    /// is rejected here, when the registry builds it.
    fn build(self, size: Size) -> Option<Scenario> {
        let s = match (self, size) {
            (Entry::Sized(build), _) => build(size),
            (Entry::Fixed(build), Size::Full) => build(),
            (Entry::Fixed(_), Size::Small) => return None,
        };
        s.grid
            .validate()
            .unwrap_or_else(|e| panic!("scenario {}: {e}", s.name));
        Some(s)
    }
}

/// Every experiment in presentation order: its full grid, and its small
/// grid when it has one.
///
/// # Panics
///
/// Panics if a grid fails `SweepGrid::validate`.
pub fn experiments() -> Vec<(Scenario, Option<Scenario>)> {
    REGISTRY
        .iter()
        .filter_map(|e| Some((e.build(Size::Full)?, e.build(Size::Small))))
        .collect()
}

/// Resolves a registry name: `X` is experiment X's full grid, `X-small`
/// its small grid. `None` for an unknown X, and for `X-small` when X has
/// one grid only.
///
/// # Panics
///
/// Panics if the grid fails `SweepGrid::validate`.
pub fn by_name(name: &str) -> Option<Scenario> {
    let (base, size) = match name.strip_suffix("-small") {
        Some(base) => (base, Size::Small),
        None => (name, Size::Full),
    };
    REGISTRY
        .iter()
        .find(|e| e.build(Size::Full).is_some_and(|s| s.name == base))?
        .build(size)
}

/// The five ordering protocols: SCORPIO, TokenB, INSO (expiry 40) and
/// both directory baselines.
const ALL_PROTOCOLS: [Protocol; 5] = [
    Protocol::Scorpio,
    Protocol::TokenB,
    Protocol::Inso { expiry_window: 40 },
    Protocol::LpdDir,
    Protocol::HtDir,
];

/// The named workload presets, in the order given.
fn presets(names: &[&str]) -> Vec<WorkloadParams> {
    names
        .iter()
        .map(|n| WorkloadParams::by_name(n).expect("registered workload"))
        .collect()
}

/// Display label for a protocol column (the paper's figure legends).
fn protocol_label(p: Protocol) -> String {
    match p {
        Protocol::Inso { expiry_window } => format!("INSO-{expiry_window}"),
        other => other.name(),
    }
}

/// First result matching `pred`, if any.
fn find(results: &[RunResult], pred: impl Fn(&RunSpec) -> bool) -> Option<&RunResult> {
    results.iter().find(|r| pred(&r.spec))
}

/// The normalized-runtime table of a grid: a row per grid workload, a
/// column per `cols` entry (headed by `labels`, holding the runs `in_col`
/// accepts). A cell averages runtime over the matching runs — the seed
/// replicates, as the sinks record them; none gives 0, a guarded cell.
fn normalized<C>(
    s: &Scenario,
    results: &[RunResult],
    cols: &[C],
    labels: &[&str],
    in_col: impl Fn(&RunSpec, &C) -> bool,
) -> String {
    let mean = |w: &str, c: &C| {
        let runs = results
            .iter()
            .filter(|r| r.spec.workload.name == w && in_col(&r.spec, c));
        let runtimes: Vec<u64> = runs.map(|r| r.report.runtime_cycles).collect();
        let n = runtimes.len() as u64;
        runtimes.iter().sum::<u64>().checked_div(n).unwrap_or(0)
    };
    let names: Vec<&str> = s.grid.workloads.iter().map(|w| w.name).collect();
    let rows: Vec<Vec<u64>> = names
        .iter()
        .map(|w| cols.iter().map(|c| mean(w, c)).collect())
        .collect();
    render_normalized(&s.title, &names, labels, &rows)
}

/// A table column over run results; the shared ones follow.
type RunCol<'a> = Col<'a, RunResult>;

/// A `k×k` geometry cell centred on the `x`: `k` right-aligned in `left`,
/// then `x`, then `k` left-aligned in `right`.
fn kxk(k: u16, left: usize, right: usize) -> String {
    format!("{k:>left$}x{k:<right$}")
}

fn workload<'a>(width: usize) -> RunCol<'a> {
    RunCol::left("workload", width, |r| r.spec.workload.name.into())
}

/// The report's protocol name.
fn protocol<'a>() -> RunCol<'a> {
    RunCol::left("protocol", 12, |r| r.report.protocol.clone())
}

/// The spec's protocol in figure-legend form ([`protocol_label`]).
fn legend<'a>() -> RunCol<'a> {
    RunCol::right("protocol", 9, |r| protocol_label(r.spec.protocol))
}

fn fabric<'a>() -> RunCol<'a> {
    RunCol::left("fabric", 10, |r| r.spec.fabric.label().into())
}

fn planes<'a>() -> RunCol<'a> {
    RunCol::num("planes", 7, |r| r.spec.planes)
}

fn diam<'a>() -> RunCol<'a> {
    RunCol::num("diam", 6, |r| r.config.mesh.diameter())
}

fn cores<'a>() -> RunCol<'a> {
    RunCol::num("cores", 6, |r| usize::from(r.spec.mesh_side).pow(2))
}

fn mcs<'a>() -> RunCol<'a> {
    RunCol::num("MCs", 5, |r| r.config.mesh.mc_routers().len())
}

fn runtime<'a>(width: usize) -> RunCol<'a> {
    RunCol::num("runtime", width, |r| r.report.runtime_cycles)
}

fn l2_svc<'a>(width: usize) -> RunCol<'a> {
    RunCol::fixed("L2 svc", width, 1, |r| r.report.l2_service_latency.mean())
}

fn ordering<'a>(width: usize) -> RunCol<'a> {
    RunCol::fixed("ordering", width, 1, |r| r.report.ordering_delay.mean())
}

fn pkt_lat<'a>() -> RunCol<'a> {
    RunCol::fixed("pkt lat", 12, 1, |r| r.report.packet_latency.mean())
}

fn bypass<'a>() -> RunCol<'a> {
    RunCol::right("bypass", 10, |r| {
        format!("{:.1}%", 100.0 * r.report.bypass_rate())
    })
}

/// What the physical model prices for a run: GO-REQ VCs, the fabric its
/// topology was built from and planes, so the net columns match its
/// routers.
fn net_shape(r: &RunResult) -> (u8, Fabric, usize) {
    (goreq_vcs(&r.spec), r.spec.fabric, r.spec.planes)
}

/// The physical model's network power relative to the chip's network.
fn net_power<'a>() -> RunCol<'a> {
    RunCol::right("net-power", 12, |r| {
        let (vcs, fabric, planes) = net_shape(r);
        let power = crate::breakdown::network_power_scale(vcs, fabric, planes);
        format!("{power:.2}x")
    })
}

/// Relative network energy per completed request: the network power
/// integrated over the runtime, per op. Only ratios between rows are
/// meaningful.
fn net_energy<'a>() -> RunCol<'a> {
    RunCol::fixed("net-E/op", 12, 1, |r| {
        let (vcs, fabric, planes) = net_shape(r);
        let (runtime, ops) = (r.report.runtime_cycles, r.report.ops_completed);
        crate::breakdown::energy_per_message_scale(vcs, fabric, planes, runtime, ops)
    })
}

// ---------------------------------------------------------------- Figure 6

fn fig6(size: Size) -> Scenario {
    fig6_at("fig6", size.pick(6, 4))
}

/// Figure 6 at 64 cores.
fn fig6_64() -> Scenario {
    fig6_at("fig6-64", 8)
}

fn fig6_at(name: &'static str, k: u16) -> Scenario {
    let cores = usize::from(k).pow(2);
    Scenario {
        name,
        title: format!("Figure 6a — normalized runtime, {cores} cores"),
        about: "LPD-D vs HT-D vs SCORPIO-D across SPLASH-2 + PARSEC",
        grid: SweepGrid::over(WorkloadParams::figure6_set())
            .meshes(&[k])
            .protocols(&[Protocol::LpdDir, Protocol::HtDir, Protocol::Scorpio])
            // The paper's 256 KB directory serves real benchmarks with
            // gigabyte working sets; our synthetic footprints are ~1000x
            // smaller, so the budget is scaled to preserve the capacity
            // pressure that differentiates LPD's wide entries from HT's
            // 2-bit entries (see EXPERIMENTS.md).
            .with_base(vec![Knob::DirTotalBytes(8 * 1024)]),
        render: fig6_render,
    }
}

fn fig6_render(s: &Scenario, results: &[RunResult]) -> String {
    let labels = ["LPD-D", "HT-D", "SCORPIO-D"];
    let normalized = normalized(s, results, &s.grid.protocols, &labels, |spec, &p| {
        spec.protocol == p
    });
    let cols = [
        RunCol::left("benchmark", 16, |r| r.spec.workload.name.into()),
        protocol(),
        l2_svc(10),
        RunCol::fixed("c2c-served", 12, 1, |r| r.report.cache_served.mean()),
        RunCol::fixed("mem-served", 12, 1, |r| r.report.memory_served.mean()),
        ordering(12),
        RunCol::right("%cache", 12, |r| {
            format!("{:.1}%", 100.0 * r.report.cache_served_fraction())
        }),
    ];
    let title = "Figure 6b/6c — latency breakdown (cycles)";
    format!("{normalized}\n{}", render_table(title, &cols, results, ""))
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7 on the PARSEC subset. The small grid is the all-protocol grid
/// behind the engine-equivalence golden test: every ordering scheme —
/// SCORPIO, TokenB, INSO and both directory baselines — on two workloads.
fn fig7(size: Size) -> Scenario {
    let (title, workloads, protocols) = match size {
        Size::Full => (
            "Figure 7 — normalized runtime, 16 cores",
            WorkloadParams::figure7_set(),
            [
                Protocol::Scorpio,
                Protocol::TokenB,
                Protocol::Inso { expiry_window: 20 },
                Protocol::Inso { expiry_window: 40 },
                Protocol::Inso { expiry_window: 80 },
            ],
        ),
        Size::Small => (
            "Figure 7 (reduced) — all ordering protocols, 16 cores",
            presets(&["blackscholes", "swaptions"]),
            ALL_PROTOCOLS,
        ),
    };
    Scenario {
        name: "fig7",
        title: title.into(),
        about: "SCORPIO vs TokenB vs INSO-20/40/80 on PARSEC (small: all five protocols)",
        grid: SweepGrid::over(workloads)
            .meshes(&[4])
            .protocols(&protocols),
        render: fig7_render,
    }
}

fn fig7_render(s: &Scenario, results: &[RunResult]) -> String {
    let protocols = &s.grid.protocols;
    let labels: Vec<String> = protocols.iter().map(|&p| protocol_label(p)).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    normalized(s, results, &s.grid.protocols, &labels, |spec, &p| {
        spec.protocol == p
    })
}

// ---------------------------------------------------------------- Figure 8

fn fig8a() -> Scenario {
    let widths = [8, 16, 32].map(|b| Variant::knob(Knob::ChannelBytes(b)));
    Scenario {
        name: "fig8a",
        title: "Figure 8a — channel width".into(),
        about: "NoC exploration: channel width 8/16/32 bytes",
        grid: SweepGrid::over(WorkloadParams::splash2()).variants(widths.into()),
        render: fig8_render,
    }
}

fn fig8b() -> Scenario {
    Scenario {
        name: "fig8b",
        title: "Figure 8b — GO-REQ VCs".into(),
        about: "NoC exploration: GO-REQ virtual channels 2/4/6",
        grid: SweepGrid::over(WorkloadParams::splash2())
            .variants([2, 4, 6].map(|v| Variant::knob(Knob::GoreqVcs(v))).into()),
        render: fig8_render,
    }
}

fn fig8c() -> Scenario {
    Scenario {
        name: "fig8c",
        title: "Figure 8c — UO-RESP VCs × channel width".into(),
        about: "NoC exploration: UO-RESP VC count against channel width",
        grid: SweepGrid::over(WorkloadParams::splash2()).variants(vec![
            Variant::new("8B/2VC", vec![Knob::ChannelBytes(8), Knob::UoRespVcs(2)]),
            Variant::new("8B/4VC", vec![Knob::ChannelBytes(8), Knob::UoRespVcs(4)]),
            Variant::new("16B/2VC", vec![Knob::ChannelBytes(16), Knob::UoRespVcs(2)]),
            Variant::new("16B/4VC", vec![Knob::ChannelBytes(16), Knob::UoRespVcs(4)]),
        ]),
        render: fig8_render,
    }
}

fn fig8d() -> Scenario {
    Scenario {
        name: "fig8d",
        title: "Figure 8d — notification bits per core (4 outstanding)".into(),
        about: "NoC exploration: notification-network width 1/2/3 bits",
        grid: SweepGrid::over(WorkloadParams::splash2())
            .with_base(vec![Knob::Outstanding(4)])
            .variants(
                [1, 2, 3]
                    .map(|b| Variant::knob(Knob::NotificationBits(b)))
                    .into(),
            ),
        render: fig8_render,
    }
}

fn fig8_render(s: &Scenario, results: &[RunResult]) -> String {
    let labels: Vec<&str> = s.grid.variants.iter().map(|v| v.label.as_str()).collect();
    normalized(s, results, &s.grid.variants, &labels, |spec, v| {
        spec.variant.label == v.label
    })
}

// ---------------------------------------------------------------- Figure 9

fn fig9() -> Scenario {
    Scenario {
        name: "fig9",
        title: "Figure 9 — tile power and area breakdowns".into(),
        about: "Analytical power/area model (no simulation)",
        grid: SweepGrid::default(), // static: no workloads, zero runs
        render: fig9_render,
    }
}

fn fig9_render(_s: &Scenario, _results: &[RunResult]) -> String {
    let cols = [
        Col::left("", 16, |s: &Share| format!("{:?}", s.component)),
        Col::right("", 7, |s: &Share| format!("{:.1}%", s.percent)),
    ];
    let power = crate::breakdown::tile_power_breakdown();
    let area = crate::breakdown::tile_area_breakdown();
    let chip = format!(
        "Chip power (36 tiles): {:.1} W\n\
         Notification network width: 36×1b = {} bits (<1% tile area/power)\n",
        crate::breakdown::chip_power_watts(36),
        crate::breakdown::notification_width_bits(36, 1, 1)
    );
    format!(
        "{}\n{}",
        render_table("Figure 9a — tile power breakdown", &cols, &power, ""),
        render_table("Figure 9b — tile area breakdown", &cols, &area, &chip)
    )
}

// --------------------------------------------------------------- Figure 10

fn fig10(size: Size) -> Scenario {
    Scenario {
        name: "fig10",
        title: "Figure 10 — avg L2 service latency (cycles)".into(),
        about: "Pipelined vs non-pipelined uncore across mesh sizes",
        grid: SweepGrid::over(presets(&[
            "barnes",
            "blackscholes",
            "canneal",
            "fft",
            "fluidanimate",
            "lu",
        ]))
        .meshes(size.pick::<&[u16]>(&[6, 8, 10], &[3, 4]))
        .variants(
            [false, true]
                .map(|pl| Variant::knob(Knob::PipelinedUncore(pl)))
                .into(),
        ),
        render: fig10_render,
    }
}

/// One Figure 10 row — a workload at one mesh side, or the side's `AVG`:
/// name, side, non-pipelined and pipelined mean L2 service latency, the
/// pipelining gain in percent, and a trailing note.
struct PipelineRow(&'static str, u16, [f64; 2], f64, &'static str);

fn fig10_render(s: &Scenario, results: &[RunResult]) -> String {
    let gain = |[base, pl]: [f64; 2]| {
        if base > 0.0 {
            100.0 * (base - pl) / base
        } else {
            0.0
        }
    };
    let mut rows = Vec::new();
    for &k in &s.grid.mesh_sides {
        let mut sums = [0.0; 2];
        for w in &s.grid.workloads {
            let lat = ["non-PL", "PL"].map(|label| {
                let cell = (w.name, k, label);
                let run = find(results, |spec| {
                    (spec.workload.name, spec.mesh_side, &*spec.variant.label) == cell
                });
                run.map_or(0.0, |r| r.report.l2_service_latency.mean())
            });
            sums = [sums[0] + lat[0], sums[1] + lat[1]];
            rows.push(PipelineRow(w.name, k, lat, gain(lat), ""));
        }
        let mean = sums.map(|sum| sum / s.grid.workloads.len() as f64);
        rows.push(PipelineRow("AVG", k, mean, gain(sums), "  <- average"));
    }
    let cols = [
        Col::left("benchmark", 16, |r: &PipelineRow| r.0.into()),
        Col::right("mesh", 8, |r: &PipelineRow| kxk(r.1, 5, 2)),
        Col::fixed("non-PL", 12, 1, |r: &PipelineRow| r.2[0]),
        Col::fixed("PL", 12, 1, |r: &PipelineRow| r.2[1]),
        Col::right("gain", 10, |r: &PipelineRow| format!("{:.1}%", r.3)),
        Col::left("", 0, |r: &PipelineRow| r.4.into()),
    ];
    render_table(&s.title, &cols, &rows, "")
}

// ------------------------------------------------------------ Tables 1 & 2

fn table1() -> Scenario {
    Scenario {
        name: "table1",
        title: "Table 1 — SCORPIO chip features".into(),
        about: "Chip feature summary (no simulation)",
        grid: SweepGrid::default(),
        render: table1_render,
    }
}

fn table1_render(s: &Scenario, _results: &[RunResult]) -> String {
    let cols = [
        Col::left("", 24, |(feature, _): &(&str, String)| feature.to_string()),
        Col::left("", 0, |(_, value): &(&str, String)| value.clone()),
    ];
    render_table(&s.title, &cols, &crate::tables::chip_feature_table(), "")
}

fn table2() -> Scenario {
    Scenario {
        name: "table2",
        title: "Table 2 — multicore processor comparison".into(),
        about: "Processor comparison table (no simulation)",
        grid: SweepGrid::default(),
        render: table2_render,
    }
}

fn table2_render(s: &Scenario, _results: &[RunResult]) -> String {
    let rows: Vec<[&str; 5]> = crate::tables::processor_comparison_table()
        .into_iter()
        .map(|c| [c.name, c.cores, c.consistency, c.coherence, c.interconnect])
        .collect();
    let col = |head, width, i: usize| Col::left(head, width, move |c: &[&str; 5]| c[i].into());
    let cols = [
        col("processor", 16, 0),
        col("cores", 8, 1),
        col("consistency", 26, 2),
        col("coherence", 32, 3),
        col("interconnect", 0, 4),
    ];
    render_table(&s.title, &cols, &rows, "")
}

// ---------------------------------------------------------------- Ablation

fn ablation(size: Size) -> Scenario {
    let k = size.pick(6, 4);
    let slack = |label, slack| Variant::new(label, vec![Knob::NotificationWindowSlack(slack)]);
    Scenario {
        name: "ablation",
        title: format!("Ablation — {k}x{k}, fluidanimate"),
        about: "Design-choice ablation: bypass, region tracker, FIDs, window slack",
        grid: SweepGrid::over(presets(&["fluidanimate"]))
            .meshes(&[k])
            .variants(vec![
                Variant::new("baseline (chip)", vec![]),
                Variant::new("no lookahead bypass", vec![Knob::Bypass(false)]),
                Variant::new("no region tracker", vec![Knob::RegionTracker(false)]),
                Variant::new("FID capacity 1", vec![Knob::FidCapacity(1)]),
                slack("2x notification window", 13),
                slack("4x notification window", 39),
            ]),
        render: ablation_render,
    }
}

fn ablation_render(s: &Scenario, results: &[RunResult]) -> String {
    // Each seed is its own replicate block, normalized against *its own*
    // baseline run, so a `--seeds` override never mixes seeds in the
    // normalized column.
    let multi_seed = s.grid.seeds.len() > 1;
    let base =
        |seed| find(results, |spec| spec.seed == seed).map_or(0, |b| b.report.runtime_cycles);
    let cols = [
        RunCol::left("configuration", 26, |r| match multi_seed {
            true => format!("{} [seed {}]", r.spec.variant.label, r.spec.seed),
            false => r.spec.variant.label.clone(),
        }),
        runtime(10),
        l2_svc(12),
        ordering(14),
        RunCol::right("normalized", 12, |r| match base(r.spec.seed) {
            0 => "-".into(),
            b => format!("{:.3}", r.report.runtime_cycles as f64 / b as f64),
        }),
    ];
    let seeds = s.grid.seeds.iter();
    let rows = seeds.flat_map(|&seed| results.iter().filter(move |r| r.spec.seed == seed));
    render_table(&s.title, &cols, rows, "")
}

// ----------------------------------------------------------- Section 5.3

fn scaling(size: Size) -> Scenario {
    Scenario {
        name: "scaling",
        title: "Section 5.3 — GO-REQ VC scaling at high core counts".into(),
        about: "GO-REQ VC scaling (4/8/15) on growing meshes vs the 1/k^2 bound",
        grid: SweepGrid::over(presets(&["fluidanimate"]))
            .meshes(size.pick::<&[u16]>(&[6, 8, 10], &[3, 4]))
            .variants([4, 8, 15].map(|v| Variant::knob(Knob::GoreqVcs(v))).into())
            .filtered(scaling_filter),
        render: scaling_render,
    }
}

/// The GO-REQ VC count a spec's variant sets (the chip default, 4, when
/// the variant leaves the knob alone) — shared by the scaling filter and
/// render so they can never disagree.
fn goreq_vcs(spec: &RunSpec) -> u8 {
    spec.knob(|&k| match k {
        Knob::GoreqVcs(v) => Some(v),
        _ => None,
    })
    .unwrap_or(4)
}

/// The paper's non-rectangular sweep: more VCs run only where they matter
/// (6×6 → 4; 8×8 → 4/8; larger → 4/8/15). The paper's 4/16/50 does not
/// fit: 15 plus the reserved VC fill a 16-bit per-vnet VC mask
/// ([`scorpio_noc::NocConfig::MAX_VCS_PER_VNET`]).
fn scaling_filter(spec: &RunSpec) -> bool {
    let vcs = goreq_vcs(spec);
    match spec.mesh_side {
        6 => vcs == 4,
        8 => vcs <= 8,
        _ => true,
    }
}

fn scaling_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        RunCol::right("mesh  ", 8, |r| kxk(r.spec.mesh_side, 4, 3)),
        cores(),
        RunCol::num("GO-VCs", 10, |r| goreq_vcs(&r.spec)),
        runtime(12),
        RunCol::fixed("L2 svc (cyc)", 14, 1, |r| {
            r.report.l2_service_latency.mean()
        }),
        RunCol::fixed("1/k^2 bound", 16, 4, |r| {
            1.0 / (r.spec.mesh_side as f64 * r.spec.mesh_side as f64)
        }),
    ];
    render_table(&s.title, &cols, results, SCALING_NOTE)
}

const SCALING_NOTE: &str = "Per the paper: more GO-REQ VCs push throughput toward the
topology bound, but a k x k mesh broadcast cannot exceed 1/k^2
flits/node/cycle — multiple main networks are the cheaper fix.
";

// ------------------------------------------------- Scaling-mesh scenarios

/// Synthetic traffic shapes for the large-mesh sweeps. Not named after any
/// benchmark: these are uniform-random traffic generators whose knobs are
/// chosen to exercise the mesh, not to mimic an application, so they live
/// here rather than in the workload registry.
///
/// `uniform-low` is the low-injection point: barrier-style phasing — short
/// memory bursts over a cache-resident, mostly private footprint, then a
/// long synchronized compute phase during which the network drains and the
/// whole machine is quiescent. That burst/drain-tail shape is exactly the
/// regime the active-set engine exists for. `uniform-med` keeps the mesh
/// under continuous broadcast load for contrast.
fn uniform_low() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-low",
        ops_per_core: 400,
        mean_gap: 4.0,
        write_fraction: 0.1,
        shared_fraction: 0.004,
        shared_lines: 64,
        private_lines: 4,
        hot_fraction: 0.2,
        hot_lines: 8,
        migratory_fraction: 0.02,
        locality: 0.95,
        phase_ops: 12,
        phase_gap: 40_000,
    }
}

/// Moderate-injection uniform traffic.
fn uniform_med() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-med",
        ops_per_core: 400,
        mean_gap: 10.0,
        write_fraction: 0.35,
        shared_fraction: 0.5,
        shared_lines: 4096,
        private_lines: 1024,
        hot_fraction: 0.1,
        hot_lines: 64,
        migratory_fraction: 0.1,
        locality: 0.6,
        phase_ops: 0,
        phase_gap: 0,
    }
}

/// Large-mesh SCORPIO sweeps (8×8 → 16×16) with MC bandwidth scaled to the
/// core count.
fn scaling_mesh(size: Size) -> Scenario {
    Scenario {
        name: "scaling-mesh",
        title: "Scaling-mesh — SCORPIO beyond the chip (proportional MCs)".into(),
        about: "Large-mesh synthetic-traffic sweeps, one MC per 16 tiles",
        grid: SweepGrid::over(vec![uniform_low(), uniform_med()])
            .meshes(size.pick::<&[u16]>(&[8, 12, 16], &[4, 8]))
            .with_base(vec![Knob::ProportionalMcs]),
        render: scaling_mesh_render,
    }
}

fn scaling_mesh_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        workload(14),
        RunCol::right("mesh ", 9, |r| kxk(r.spec.mesh_side, 6, 2)),
        cores(),
        mcs(),
        runtime(12),
        l2_svc(12),
        pkt_lat(),
        bypass(),
    ];
    render_table(&s.title, &cols, results, "")
}

// ------------------------------------------------- Kilocore scale-out

/// One cell of the kilocore sweep, for a grid whose larger mesh side is
/// `BIG`: the big side runs single-plane (the 1024-core flat mesh and its
/// concentrated twin), the small side runs the 4-plane concentrated
/// composition. The proportional-MC variant pairs with the flat mesh only
/// (the placement is undefined elsewhere); concentrated cells keep their
/// corner MCs.
fn kilocore_cell<const BIG: u16>(spec: &RunSpec) -> bool {
    let prop = spec.variant.knobs.contains(&Knob::ProportionalMcs);
    prop == McPlacement::Proportional.supports(spec.fabric)
        && if spec.mesh_side == BIG {
            spec.planes == 1
        } else {
            spec.fabric == Fabric::CMesh(4) && spec.planes == 4
        }
}

/// Kilocore scale-out: the low-injection barrier workload on a 32×32 mesh
/// (1024 cores, proportional MCs), its concentrated twin `cmesh16x16x4`,
/// and a 4-plane `cmesh8x8x4` composition — each under the plain
/// active-set engine and the event-leaping clock, and each with the flat
/// notification scheme and the hierarchical quad tree (`quad-f2`, which
/// shrinks the notification window from O(grid diameter) to O(2·tree
/// depth)). Both engines produce
/// byte-identical reports (equivalence suite); the table counts the cycles
/// the leap and the quad window save at this scale. The small grid is the
/// same shape at 256 cores.
fn scaling_kilocore(size: Size) -> Scenario {
    let (meshes, filter): (&[u16], GridFilter) = match size {
        Size::Full => (&[16, 32], kilocore_cell::<32>),
        Size::Small => (&[8, 16], kilocore_cell::<16>),
    };
    let cores = meshes.last().map_or(0, |&k| usize::from(k).pow(2));
    let (prop, quad) = (Knob::ProportionalMcs, Knob::QuadNotify(2));
    Scenario {
        name: "scaling-kilocore",
        title: format!(
            "Scaling-kilocore — engine scale-out at {cores} cores (event-leaping clock)"
        ),
        about: "Kilocore scale-out: cycles stepped by active-set vs leap, flat vs quad notify",
        grid: SweepGrid::over(vec![uniform_low()])
            .meshes(meshes)
            .fabrics(&[Fabric::Mesh, Fabric::CMesh(4)])
            .planes(&[1, 4])
            .engines(&[Engine::ActiveSet, Engine::Leap])
            .variants(vec![
                Variant::new("prop-MCs", vec![prop]),
                Variant::new("prop-MCs+quad-f2", vec![prop, quad]),
                Variant::baseline(),
                Variant::new("quad-f2", vec![quad]),
            ])
            .filtered(filter),
        render: scaling_kilocore_render,
    }
}

fn scaling_kilocore_render(s: &Scenario, results: &[RunResult]) -> String {
    // The leap ratio: simulated over stepped cycles, `-` when none were
    // stepped.
    let leap = |r: &RunResult| match r.stepped_cycles {
        0 => "-".into(),
        n => format!("{:.2}x", r.report.runtime_cycles as f64 / n as f64),
    };
    let cols = [
        RunCol::left("geometry", 16, |r| r.config.mesh.label()),
        planes(),
        RunCol::right("notify", 9, |r| {
            let quad = r
                .spec
                .knob(|&k| matches!(k, Knob::QuadNotify(_)).then(|| k.label()));
            quad.unwrap_or_else(|| "flat".into())
        }),
        RunCol::right("engine", 8, |r| r.spec.engine.label().into()),
        runtime(12),
        RunCol::num("stepped", 12, |r| r.stepped_cycles),
        RunCol::right("leap", 10, leap),
    ];
    render_table(&s.title, &cols, results, KILOCORE_NOTE)
}

const KILOCORE_NOTE: &str = "Both engines produce byte-identical reports and traces (the
equivalence suite asserts this); leap is simulated/stepped
cycles.
";

// ------------------------------------------------- Topology comparisons

/// All five ordering protocols over all three delivery fabrics at matched
/// endpoint counts (`k²` tiles + 4 MC ports each): the ordered-broadcast
/// machinery does not care how delivery happens, so every cell of this
/// grid must complete — and the runtime differences isolate pure delivery
/// effects (diameter, wrap links, router radix).
fn topology(size: Size) -> Scenario {
    let k: u16 = size.pick(6, 4);
    let cores = usize::from(k).pow(2);
    Scenario {
        name: "topology",
        title: format!("Topology — mesh vs torus vs ring at {cores} cores, all ordering protocols"),
        about: "Delivery-fabric sweep: mesh/torus/ring under all five protocols",
        grid: SweepGrid::over(presets(&["blackscholes", "swaptions"]))
            .meshes(&[k])
            .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
            .protocols(&ALL_PROTOCOLS),
        render: topology_render,
    }
}

fn topology_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        workload(14),
        fabric(),
        protocol(),
        diam(),
        runtime(12),
        l2_svc(12),
        pkt_lat(),
        bypass(),
    ];
    render_table(&s.title, &cols, results, TOPOLOGY_NOTE)
}

const TOPOLOGY_NOTE: &str = "Matched endpoint counts per row block; ordering is decoupled
from delivery, so every fabric carries every protocol.
";

// ------------------------------------------------------ Latency breakdown

/// The paper's latency-decomposition story, measured from transaction
/// spans: every ordering protocol on the chip mesh and on a concentrated
/// mesh with half the routers (smaller diameter). The span phases show
/// queueing, injection wait, traversal, ordering commit, data wait and
/// fill separately — for SCORPIO the ordering-commit share stays flat
/// while traversal tracks the fabric diameter, the decoupling thesis.
fn latency_breakdown(size: Size) -> Scenario {
    let mesh: u16 = size.pick(8, 4);
    Scenario {
        name: "latency-breakdown",
        title: format!("Latency breakdown — span phases per protocol ({mesh}x{mesh} tiles)"),
        about: "Per-phase miss-latency decomposition from transaction spans",
        grid: SweepGrid::over(presets(&["blackscholes"]))
            .meshes(&[mesh])
            .fabrics(&[Fabric::Mesh, Fabric::CMesh(2)])
            .protocols(&ALL_PROTOCOLS)
            .variants(vec![Variant::knob(Knob::Spans)]),
        render: latency_breakdown_render,
    }
}

/// A span phase's mean, as `mean` reads it from the span annex.
fn phase<'a>(head: &'a str, width: usize, mean: fn(&SpanReport) -> f64) -> RunCol<'a> {
    RunCol::fixed(head, width, 1, move |r| r.spans().map_or(0.0, mean))
}

fn latency_breakdown_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        RunCol::left("fabric", 12, |r| r.spec.fabric.label().into()),
        legend(),
        phase("queue", 8, |sp| sp.queue.mean()),
        phase("inject", 8, |sp| sp.inject.mean()),
        phase("flight", 8, |sp| sp.flight.mean()),
        phase("commit", 8, |sp| sp.commit.mean()),
        phase("data", 8, |sp| sp.data.mean()),
        phase("fill", 8, |sp| sp.fill.mean()),
        phase("total", 9, |sp| sp.total.mean()),
        // Exact reconciliation against the scalar report: inject + flight
        // + commit is the ordering delay, and the span totals plus the
        // hit latencies rebuild the full L2 service distribution.
        RunCol::right("reconcile", 11, |r| {
            let sp = r.spans().expect("rows carry spans");
            let (order, svc) = (&r.report.ordering_delay, &r.report.l2_service_latency);
            let exact = sp.inject.sum() + sp.flight.sum() + sp.commit.sum() == order.sum()
                && sp.inject.count() == order.count()
                && sp.total.sum() + sp.hit.sum() == svc.sum()
                && sp.total.count() + sp.hit.count() == svc.count();
            if exact { "exact" } else { "MISMATCH" }.into()
        }),
    ];
    let rows = results.iter().filter(|r| r.spans().is_some());
    render_table(&s.title, &cols, rows, BREAKDOWN_NOTE)
}

const BREAKDOWN_NOTE: &str = "Per-phase means over every recorded miss span (cycles).
reconcile=exact: inject+flight+commit sums equal the ordering-
delay scalars and span totals + hits rebuild l2_service_latency.
";

// ----------------------------------------------- Multi-plane main networks

/// Saturating broadcast-heavy traffic: every access misses (the shared
/// footprint dwarfs the L2), so the ordered-request rate is bounded by the
/// network, not the cores. The regime where Section 5.3's 1/k² broadcast
/// bound binds — and the one the plane replication exists to lift.
fn bcast_heavy() -> WorkloadParams {
    WorkloadParams {
        name: "bcast-heavy",
        ops_per_core: 400,
        mean_gap: 0.5,
        write_fraction: 0.5,
        shared_fraction: 1.0,
        shared_lines: 16384,
        private_lines: 1,
        hot_fraction: 0.0,
        hot_lines: 1,
        migratory_fraction: 0.0,
        locality: 0.0,
        phase_ops: 0,
        phase_gap: 0,
    }
}

/// Multi-plane main networks (Section 5.3's "cheaper fix"): every fabric ×
/// 1/2/4 address-interleaved planes × all five ordering protocols at
/// matched endpoint counts. Ordering is per plane (hence per address), so
/// every cell must complete; the runtime and energy columns quantify what
/// replication buys and costs.
fn planes_scenario(size: Size) -> Scenario {
    let k: u16 = size.pick(6, 4);
    let cores = usize::from(k).pow(2);
    Scenario {
        name: "planes",
        title: format!("Planes — 1/2/4 main networks at {cores} cores, all fabrics and protocols"),
        about: "Multi-plane sweep: address-interleaved parallel fabrics, per-plane ordering",
        grid: SweepGrid::over(presets(&["blackscholes"]))
            .meshes(&[k])
            .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
            .planes(&[1, 2, 4])
            .protocols(&ALL_PROTOCOLS),
        render: planes_render,
    }
}

fn planes_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        workload(14),
        fabric(),
        planes(),
        RunCol::left("", 3, |_| String::new()),
        protocol(),
        runtime(12),
        pkt_lat(),
        net_power(),
        net_energy(),
    ];
    render_table(&s.title, &cols, results, PLANES_NOTE)
}

const PLANES_NOTE: &str = "Per-address order is preserved across planes (steering assigns
each line to exactly one plane); net-power and net-E/op come from
the physical model, so bandwidth gains are priced, not free.
";

// ----------------------------------- Plane-throughput self-benchmark

/// Delivered-request throughput on a saturated mesh as planes replicate:
/// the acceptance benchmark for the "multiple main networks" subsystem.
/// Every run retires the same ops, so requests/kcycle — and the speedup
/// column — reduce to runtime ratios of *simulated* cycles, so the table
/// is fully deterministic.
fn planes_throughput(size: Size) -> Scenario {
    let mesh: u16 = size.pick(8, 6);
    Scenario {
        name: "planes-throughput",
        title: format!(
            "Planes-throughput — delivered requests/kcycle, 1/2/4 planes ({mesh}x{mesh} saturated)"
        ),
        about: "Plane self-benchmark: broadcast-saturated mesh, throughput and energy vs planes",
        grid: SweepGrid::over(vec![bcast_heavy()])
            .meshes(&[mesh])
            .planes(&[1, 2, 4])
            .with_base(vec![Knob::Outstanding(4)]),
        render: planes_throughput_render,
    }
}

fn planes_throughput_render(s: &Scenario, results: &[RunResult]) -> String {
    // Speedup is the runtime ratio against the same workload's
    // single-plane run.
    let base = |r: &RunResult| {
        let single =
            |spec: &RunSpec| spec.workload.name == r.spec.workload.name && spec.planes == 1;
        find(results, single).map_or(0, |b| b.report.runtime_cycles)
    };
    let cols = [
        workload(14),
        planes(),
        runtime(12),
        RunCol::fixed("req/kcyc", 12, 1, |r| match r.report.runtime_cycles {
            0 => 0.0,
            rt => 1000.0 * r.report.ops_completed as f64 / rt as f64,
        }),
        RunCol::right("speedup", 12, |r| {
            match (base(r), r.report.runtime_cycles) {
                (0, _) | (_, 0) => "-".into(),
                (b, rt) => format!("{:.2}x", b as f64 / rt as f64),
            }
        }),
        net_power(),
        net_energy(),
    ];
    render_table(&s.title, &cols, results, THROUGHPUT_NOTE)
}

const THROUGHPUT_NOTE: &str = "Every run retires the identical op count, so speedup is the
runtime ratio vs the single-plane network on the same traffic.
";

// ------------------------------------------- MC placement sweeps

/// Keeps only the (fabric, placement) cells [`McPlacement::supports`]
/// defines.
fn mc_placement_filter(spec: &RunSpec) -> bool {
    spec.knob(|&k| match k {
        Knob::McPlacement { placement, .. } => Some(placement),
        _ => None,
    })
    .is_some_and(|p| p.supports(spec.fabric))
}

/// Topology-aware MC placement: MC count × placement scheme × fabric, at
/// matched core counts. Exposes each fabric's memory-bandwidth
/// sensitivity — corner MCs melt under traffic a spread placement
/// balances, and the effect differs per topology.
fn mc_placement(size: Size) -> Scenario {
    let k: u16 = size.pick(6, 4);
    let cores = usize::from(k).pow(2);
    Scenario {
        name: "mc-placement",
        title: format!("MC placement — count x placement x fabric at {cores} cores"),
        about: "MC count/placement sweep: corner vs spread vs proportional per fabric",
        grid: SweepGrid::over(vec![uniform_med()])
            .meshes(&[k])
            .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
            .variants(
                [
                    (McPlacement::Corner, 2),
                    (McPlacement::Corner, 4),
                    (McPlacement::Spread, 2),
                    (McPlacement::Spread, 4),
                    (McPlacement::Proportional, 0),
                ]
                .map(|(placement, mcs)| Variant::knob(Knob::McPlacement { placement, mcs }))
                .into(),
            )
            .filtered(mc_placement_filter),
        render: mc_placement_render,
    }
}

fn mc_placement_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        workload(14),
        fabric(),
        RunCol::left("placement", 12, |r| {
            r.spec.mc_placement().unwrap_or_default()
        }),
        mcs(),
        runtime(12),
        RunCol::fixed("mem-served", 14, 1, |r| r.report.memory_served.mean()),
        pkt_lat(),
    ];
    render_table(&s.title, &cols, results, PLACEMENT_NOTE)
}

const PLACEMENT_NOTE: &str = "Each fabric runs only the placements defined for it (corner on
mesh/torus, spreading on rings, proportional on meshes).
";

// --------------------------------------------- Concentrated-mesh sweeps

/// Concentrated mesh (CMesh): `k²` cores at concentration 1, 2 and 4 —
/// the same tile count on ever-smaller router grids — under every
/// ordering protocol, plus a 2-plane SCORPIO column to show the fabric
/// axis composes with plane replication. Concentration halves the
/// diameter (and with it the notification window) at each step; the
/// table's hop/window columns make the trade visible and the pkt-lat
/// column shows it landing: on the uncongested workload, c=2/4 deliver
/// ordered broadcasts in strictly fewer cycles than c=1.
fn cmesh(size: Size) -> Scenario {
    let k: u16 = size.pick(8, 4);
    let cores = usize::from(k).pow(2);
    Scenario {
        name: "cmesh",
        title: format!("CMesh — concentration 1/2/4 at {cores} cores, all ordering protocols"),
        about: "Concentrated-mesh sweep: 1/2/4 tiles per router at matched core counts",
        grid: SweepGrid::over(presets(&["blackscholes"]))
            .meshes(&[k])
            .fabrics(&[Fabric::CMesh(1), Fabric::CMesh(2), Fabric::CMesh(4)])
            .planes(&[1, 2])
            .protocols(&ALL_PROTOCOLS)
            // Ragged: every protocol on the single-plane network, SCORPIO
            // alone on the 2-plane composition column.
            .filtered(|s| s.planes == 1 || s.protocol == Protocol::Scorpio),
        render: cmesh_render,
    }
}

fn cmesh_render(s: &Scenario, results: &[RunResult]) -> String {
    let cols = [
        workload(14),
        RunCol::left("geometry", 14, |r| r.config.mesh.label()),
        RunCol::num("conc", 5, |r| r.config.mesh.tiles_per_router()),
        planes(),
        diam(),
        RunCol::num("window", 8, |r| r.config.notification_window()),
        RunCol::left(" protocol", 14, |r| format!(" {}", r.report.protocol)),
        runtime(12),
        pkt_lat(),
        net_power(),
        net_energy(),
    ];
    // Per-protocol latency deltas vs the unconcentrated column — the
    // hop-count win in one line each.
    let mut deltas = String::new();
    for &p in &s.grid.protocols {
        let lat = |c| {
            let cell = (p, Fabric::CMesh(c), 1);
            let run = find(results, |spec| {
                (spec.protocol, spec.fabric, spec.planes) == cell
            });
            run.map(|r| r.report.packet_latency.mean())
        };
        if let (Some(c1), Some(c2), Some(c4)) = (lat(1), lat(2), lat(4)) {
            deltas.push_str(&format!(
                "{:<12} pkt lat c1 {c1:>7.1}  c2 {c2:>7.1} ({:>+6.1}%)  c4 {c4:>7.1} ({:>+6.1}%)\n",
                protocol_label(p),
                100.0 * (c2 - c1) / c1,
                100.0 * (c4 - c1) / c1,
            ));
        }
    }
    render_table(&s.title, &cols, results, &(deltas + CMESH_NOTE))
}

const CMESH_NOTE: &str = "
Same cores, 1/c the routers: concentration shrinks the diameter
and the notification window together; the higher-radix router's
area/power cost is priced by the physical model's net columns.
";

// ------------------------------------------------ Open-loop latency curves

/// The `latency-curve` offered-load steps, in requests per 1000 cycles
/// per core. With one outstanding access per core the service rate knees
/// in the low tens, so the ladder brackets it from far below.
const CURVE_LOADS_SMALL: [u32; 5] = [2, 6, 12, 20, 30];
const CURVE_LOADS_FULL: [u32; 6] = [2, 6, 12, 20, 30, 45];

/// The knee multiple: the first load step whose p99 sojourn exceeds
/// `KNEE_FACTOR ×` the lowest-load baseline p99 is reported as the knee.
const KNEE_FACTOR: u64 = 3;

/// The bursty contrast point's Markov-modulated dwell means: 50-cycle ON
/// bursts separated by 150-cycle quiets (25% duty), at the same long-run
/// offered load as the mid-ladder Poisson step.
const CURVE_BURST: ArrivalProcess = ArrivalProcess::Bursty { on: 50, off: 150 };

/// Shared-heavy uniform traffic for the open-loop sweeps: half the
/// accesses touch a large shared pool, so most offered load turns into
/// coherence transactions on the fabric rather than L1 hits. The trace's
/// own think-time gaps are ignored by the Poisson/bursty release (they
/// only time the Replay process).
fn open_uniform() -> WorkloadParams {
    WorkloadParams {
        name: "open-uniform",
        ..uniform_med()
    }
}

/// Open-loop latency-vs-offered-load curves (the conventional NoC
/// characterisation): sweep the injection ladder past the saturation
/// knee per fabric × planes × protocol, with a bursty contrast point at
/// the mid ladder. Spans give the p99 sojourn (source wait included) the
/// knee detector runs on; windows give the per-endpoint injection-wait
/// extremes the CMesh fairness columns surface per concentration slot.
fn latency_curve(size: Size) -> Scenario {
    let loads: &[u32] = size.pick(&CURVE_LOADS_FULL, &CURVE_LOADS_SMALL);
    let steps = loads
        .iter()
        .map(|&millis| (ArrivalProcess::Poisson, millis));
    let variants = steps
        .chain([(CURVE_BURST, 20)])
        .map(|(process, millis)| Variant::knob(Knob::OpenLoad { process, millis }))
        .collect();
    let fabrics: &[Fabric] = size.pick(
        &[Fabric::Mesh, Fabric::CMesh(2), Fabric::CMesh(4)],
        &[Fabric::Mesh, Fabric::CMesh(2)],
    );
    let planes: &[usize] = size.pick(&[1, 2], &[1]);
    Scenario {
        name: "latency-curve",
        title: "Latency curve — open-loop offered load to the saturation knee".into(),
        about: "Open-loop injection sweeps: latency vs offered load, knee + fairness",
        grid: SweepGrid::over(vec![open_uniform()])
            .meshes(&[8])
            .fabrics(fabrics)
            .planes(planes)
            .protocols(&[Protocol::Scorpio, Protocol::LpdDir])
            .variants(variants)
            .with_base(vec![Knob::Spans, Knob::Windows(512)]),
        render: latency_curve_render,
    }
}

/// The arrival-process family tag grouping a curve's load steps: knee
/// detection compares p99s *within* one (fabric, planes, protocol,
/// process) curve, never across processes.
fn curve_group(spec: &RunSpec) -> Option<(&'static str, usize, String, &'static str)> {
    let (process, _) = spec.open_load()?;
    let kind = match process {
        ArrivalProcess::Poisson => "pois",
        ArrivalProcess::Bursty { .. } => "burst",
        ArrivalProcess::Replay => "replay",
    };
    Some((spec.fabric.label(), spec.planes, spec.protocol.name(), kind))
}

/// Per-slot injection-wait means on a concentrated mesh, as (max, min):
/// all `c` tiles of a router share its local injection bandwidth, so the
/// spread between the best- and worst-served slot is the
/// arbitration-fairness signal (it diverges past the knee). `None` off a
/// concentrated mesh.
fn slot_extremes(r: &RunResult) -> Option<(f64, f64)> {
    let Fabric::CMesh(c @ 2..) = r.spec.fabric else {
        return None;
    };
    let slots = &r.report.obs.as_ref()?.inject_wait_slots;
    let means: Vec<f64> = slots.iter().take(c as usize).map(|h| h.mean()).collect();
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    let min = means.iter().cloned().fold(f64::MAX, f64::min);
    (!means.is_empty()).then_some((max, min))
}

/// A windowed per-endpoint extreme, `pick`ed from the window annex, as
/// `slot:mean` — the endpoint mapped to its concentration slot (endpoint
/// index modulo c; MC ports render as "mc").
fn wait_cell(r: &RunResult, pick: fn(&WindowReport) -> Option<EpWait>) -> String {
    let Some(m) = r.windows().and_then(pick) else {
        return "-".into();
    };
    let slot = match r.spec.fabric {
        _ if m.ep >= r.config.cores() as u32 => "mc".into(),
        Fabric::CMesh(c) if c > 1 => format!("s{}", m.ep % c as u32),
        _ => format!("e{}", m.ep),
    };
    format!("{slot}:{:.1}", m.mean())
}

fn latency_curve_render(s: &Scenario, results: &[RunResult]) -> String {
    use std::collections::BTreeMap;
    // The knee per curve: the first load step whose p99 exceeds
    // KNEE_FACTOR x the lowest step's p99.
    let mut curves: BTreeMap<_, Vec<(u32, u64)>> = BTreeMap::new();
    for r in results {
        let p99 = r.spans().and_then(|sp| sp.total.percentile(0.99));
        if let (Some(g), Some((_, load)), Some(p99)) =
            (curve_group(&r.spec), r.spec.open_load(), p99)
        {
            curves.entry(g).or_default().push((load, p99));
        }
    }
    let first_knee = |mut steps: Vec<(u32, u64)>| {
        steps.sort();
        let &(_, base) = steps.first()?;
        let &(load, _) = steps.iter().find(|&&(_, p99)| p99 > KNEE_FACTOR * base)?;
        Some(load)
    };
    let knees: BTreeMap<_, u32> = curves
        .into_iter()
        .filter_map(|(g, steps)| Some((g, first_knee(steps)?)))
        .collect();
    let sojourn = |f| {
        move |r: &RunResult| {
            let p = r.spans().and_then(|sp| sp.total.percentile(f));
            p.map_or_else(|| "-".into(), |v| v.to_string())
        }
    };
    let slot = |pick: fn((f64, f64)) -> f64| {
        move |r: &RunResult| {
            slot_extremes(r).map_or_else(|| "-".into(), |m| format!("{:.1}", pick(m)))
        }
    };
    let cols = [
        RunCol::left("fabric", 10, |r| r.spec.fabric.label().into()),
        RunCol::num("pl", 3, |r| r.spec.planes),
        legend(),
        // An open-load variant is labelled with its arrival process.
        RunCol::right("arrival", 10, |r| r.spec.variant.label.clone()),
        RunCol::right("p50", 8, sojourn(0.50)),
        RunCol::right("p99", 9, sojourn(0.99)),
        RunCol::num("drops", 8, |r| r.report.source_dropped),
        RunCol::right("slot-max", 10, slot(|(max, _)| max)),
        RunCol::right("slot-min", 10, slot(|(_, min)| min)),
        RunCol::right("wmax", 11, |r| wait_cell(r, |w| w.max_wait)),
        RunCol::right("wmin", 11, |r| wait_cell(r, |w| w.min_wait)),
        RunCol::left("  knee", 0, |r| {
            let knee = curve_group(&r.spec).and_then(|g| knees.get(&g).copied());
            let at_knee = knee.is_some() && knee == r.spec.open_load().map(|(_, load)| load);
            String::from(if at_knee { "  <-- knee" } else { "" })
        }),
    ];
    let note = format!(
        "p50/p99: full request sojourn (arrival -> retire, source wait\n\
         included) from the span annex. knee: first load step whose p99\n\
         exceeds {KNEE_FACTOR}x the lowest step's. slot-max/slot-min: per-slot mean\n\
         injection wait on concentrated meshes (c tiles share one router\n\
         port). wmax/wmin: worst/best windowed per-endpoint mean wait.\n"
    );
    let rows = results.iter().filter(|r| r.spec.open_load().is_some());
    render_table(&s.title, &cols, rows, &note)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let all = experiments();
        assert_eq!(all.len(), 22);
        let names: HashSet<&str> = all.iter().map(|(s, _)| s.name).collect();
        assert_eq!(names.len(), all.len());
        for (s, _) in &all {
            assert!(by_name(s.name).is_some(), "{} must resolve", s.name);
        }
        // Every `-small` name the registry once spelled out resolves.
        for name in [
            "fig6",
            "fig7",
            "fig10",
            "ablation",
            "scaling",
            "scaling-mesh",
            "topology",
            "latency-breakdown",
            "planes",
            "planes-throughput",
            "mc-placement",
            "cmesh",
            "scaling-kilocore",
            "latency-curve",
        ] {
            let small = format!("{name}-small");
            assert!(by_name(&small).is_some(), "{small} must resolve");
        }
        // Single-grid experiments have no small size, and the host-timed
        // self-benchmarks are gone.
        for name in [
            "fig99",
            "fig8a-small",
            "fig6-64-small",
            "throughput",
            "throughput-small",
            "obs-overhead",
            "obs-overhead-small",
        ] {
            assert!(by_name(name).is_none(), "{name} must not resolve");
        }
    }

    #[test]
    fn small_sizes_are_never_larger_than_full() {
        let cores = |s: &Scenario| -> usize {
            s.grid
                .enumerate()
                .iter()
                .map(|spec| spec.config().cores())
                .sum()
        };
        let mut sized = 0;
        for (full, small) in experiments() {
            let Some(small) = small else { continue };
            sized += 1;
            assert_eq!(small.name, full.name);
            assert!(cores(&small) <= cores(&full), "{} grows", full.name);
            assert!(
                std::ptr::fn_addr_eq(small.render, full.render),
                "{} renders its sizes differently",
                full.name
            );
        }
        assert_eq!(sized, 14);
    }

    #[test]
    fn registry_covers_all_nine_bench_binaries() {
        for required in [
            "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig8d", "fig9", "fig10", "table1",
            "table2", "ablation", "scaling",
        ] {
            assert!(by_name(required).is_some(), "missing scenario {required}");
        }
    }

    #[test]
    fn new_scenarios_are_registered() {
        // The kilocore sweep runs every cell on both fast engines: six
        // cells, each an active-set row then a leap row of the exact same
        // configuration (same hash).
        let k = by_name("scaling-kilocore-small").unwrap();
        let specs = k.grid.enumerate();
        assert_eq!(specs.len(), 6 * 2);
        for pair in specs.chunks(2) {
            assert_eq!(pair[0].engine, Engine::ActiveSet);
            assert_eq!(pair[1].engine, Engine::Leap);
            assert_eq!(
                pair[0].config().stable_hash(),
                pair[1].config().stable_hash()
            );
            assert!(pair[1].key().ends_with("/leap"));
        }
        // Scaling-mesh: 2 workloads x 3 meshes, proportional MCs applied.
        let sm = by_name("scaling-mesh").unwrap();
        assert_eq!(sm.grid.len(), 2 * 3);
        let spec16 = sm
            .grid
            .enumerate()
            .into_iter()
            .find(|s| s.mesh_side == 16)
            .unwrap();
        assert_eq!(spec16.config().mesh.mc_routers().len(), 16);
        // fig7-small covers every ordering protocol for the golden test.
        assert_eq!(by_name("fig7-small").unwrap().grid.len(), 2 * 5);
        // Topology: 2 workloads x 3 fabrics x 5 protocols.
        let topo = by_name("topology-small").unwrap();
        assert_eq!(topo.grid.len(), 2 * 3 * 5);
        let fabrics: HashSet<&str> = topo
            .grid
            .enumerate()
            .iter()
            .map(|s| s.config().mesh.fabric().label())
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        assert_eq!(fabrics.len(), 3);
        // Every fabric at matched endpoint counts.
        for spec in topo.grid.enumerate() {
            assert_eq!(spec.config().mesh.endpoint_count(), 4 * 4 + 4);
        }
    }

    #[test]
    fn plane_and_placement_scenarios_are_registered() {
        // Planes: 1 workload x 3 fabrics x 3 plane counts x 5 protocols.
        let p = by_name("planes-small").unwrap();
        assert_eq!(p.grid.len(), 3 * 3 * 5);
        let specs = p.grid.enumerate();
        let plane_counts: HashSet<usize> = specs.iter().map(|s| s.planes).collect();
        assert_eq!(plane_counts, HashSet::from([1, 2, 4]));
        // Single-plane cells hash exactly like the axis-free config; every
        // (fabric, planes) pair fingerprints uniquely.
        let hashes: HashSet<u64> = specs.iter().map(|s| s.config().stable_hash()).collect();
        assert_eq!(hashes.len(), 3 * 3 * 5);
        // Plane-throughput: saturated workload, 1/2/4 planes, higher
        // outstanding budget folded in as a base knob.
        let t = by_name("planes-throughput").unwrap();
        assert_eq!(t.grid.len(), 3);
        for spec in t.grid.enumerate() {
            assert_eq!(spec.mesh_side, 8);
            assert_eq!(spec.config().core_outstanding, 4);
        }
        // MC placement: the ragged (fabric x placement) product — mesh
        // gets corner-2/corner-4/prop, torus corner-2/corner-4, ring
        // spread-2/spread-4.
        let m = by_name("mc-placement-small").unwrap();
        let specs = m.grid.enumerate();
        assert_eq!(specs.len(), 3 + 2 + 2);
        for spec in &specs {
            let placement = spec.mc_placement().expect("every cell has a placement");
            assert!(
                mc_placement_filter(spec),
                "unsupported cell {placement} on {:?}",
                spec.fabric
            );
        }
        // Placement keys flow into the config (MC counts really change).
        let corner2 = specs
            .iter()
            .find(|s| s.fabric == Fabric::Mesh && s.mc_placement().as_deref() == Some("corner-2"))
            .unwrap();
        assert_eq!(corner2.config().mesh.mc_routers().len(), 2);
    }

    #[test]
    fn cmesh_scenarios_are_registered() {
        // Ragged grid: 3 concentrations x (5 single-plane protocols + the
        // SCORPIO 2-plane composition column).
        let s = by_name("cmesh-small").unwrap();
        assert_eq!(s.grid.len(), 3 * (5 + 1));
        let specs = s.grid.enumerate();
        // Matched core counts on shrinking router grids, distinct hashes.
        let mut geoms = HashSet::new();
        let mut hashes = HashSet::new();
        for spec in &specs {
            let cfg = spec.config();
            assert_eq!(cfg.cores(), 16, "{}", spec.key());
            geoms.insert(cfg.mesh.label());
            hashes.insert(cfg.stable_hash());
        }
        assert_eq!(
            geoms,
            HashSet::from([
                "cmesh4x4x1".to_string(),
                "cmesh4x2x2".to_string(),
                "cmesh2x2x4".to_string()
            ])
        );
        // Every cell carries a distinct configuration fingerprint
        // (geometry x protocol x plane count all enter the hash).
        assert_eq!(hashes.len(), specs.len());
        // Keys carry the cmesh geometry and the plane suffix.
        assert!(specs
            .iter()
            .any(|s| s.key() == "blackscholes/cmesh4x2x2/SCORPIO/baseline/seed1"));
        assert!(specs
            .iter()
            .any(|s| s.key() == "blackscholes/cmesh2x2x4+2pl/SCORPIO/baseline/seed1"));
        // The diameter really shrinks with concentration.
        let diam = |c: u8| {
            specs
                .iter()
                .find(|s| s.fabric == Fabric::CMesh(c))
                .unwrap()
                .config()
                .mesh
                .diameter()
        };
        assert_eq!((diam(1), diam(2), diam(4)), (6, 4, 2));
        // The full variant runs 64 cores.
        let full = by_name("cmesh").unwrap();
        assert!(full
            .grid
            .enumerate()
            .iter()
            .all(|s| s.config().cores() == 64));
    }

    /// Every grid validates, and so does the NoC of every run it holds: a
    /// config the network would refuse at build fails here, not mid-sweep.
    #[test]
    fn every_registered_grid_validates() {
        for s in experiments()
            .into_iter()
            .flat_map(|(full, small)| std::iter::once(full).chain(small))
        {
            assert!(s.grid.validate().is_ok(), "{} failed validation", s.name);
            for spec in s.grid.enumerate() {
                if let Err(e) = spec.config().noc.validate() {
                    panic!("{} / {}: {e}", s.name, spec.key());
                }
            }
        }
    }

    #[test]
    fn grid_sizes_match_the_original_binaries() {
        assert_eq!(by_name("fig6").unwrap().grid.len(), 12 * 3);
        assert_eq!(by_name("fig7").unwrap().grid.len(), 4 * 5);
        assert_eq!(by_name("fig8a").unwrap().grid.len(), 8 * 3);
        assert_eq!(by_name("fig8c").unwrap().grid.len(), 8 * 4);
        assert_eq!(by_name("fig10").unwrap().grid.len(), 6 * 3 * 2);
        assert_eq!(by_name("ablation").unwrap().grid.len(), 6);
        // Section 5.3's ragged sweep: 6x6 -> 1, 8x8 -> 2, 10x10 -> 3.
        assert_eq!(by_name("scaling").unwrap().grid.len(), 1 + 2 + 3);
        // Static table scenarios run zero simulations.
        assert_eq!(by_name("fig9").unwrap().grid.len(), 0);
        assert_eq!(by_name("table1").unwrap().grid.len(), 0);
        assert_eq!(by_name("table2").unwrap().grid.len(), 0);
    }

    #[test]
    fn static_renders_produce_tables_without_results() {
        for name in ["fig9", "table1", "table2"] {
            let s = by_name(name).unwrap();
            let out = (s.render)(&s, &[]);
            assert!(out.contains("==="), "{name} render looks empty: {out}");
        }
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(protocol_label(Protocol::Scorpio), "SCORPIO");
        assert_eq!(
            protocol_label(Protocol::Inso { expiry_window: 40 }),
            "INSO-40"
        );
    }

    #[test]
    fn latency_curve_scenarios_are_registered() {
        // Small: 2 fabrics x 1 plane x 2 protocols x (5 loads + 1 burst).
        let s = by_name("latency-curve-small").unwrap();
        assert_eq!(s.grid.len(), 2 * 2 * 6);
        let specs = s.grid.enumerate();
        // Every cell is open-loop, and the variant label carries the
        // arrival process and the offered-load knob.
        for spec in &specs {
            let (_, load) = spec.open_load().expect("open-loop cell");
            assert!(spec.config().open_loop.is_some(), "{}", spec.key());
            assert!(load > 0);
        }
        assert!(specs
            .iter()
            .any(|s| s.key() == "open-uniform/8x8/SCORPIO/pois-2/seed1"));
        assert!(specs
            .iter()
            .any(|s| s.key() == "open-uniform/cmesh8x4x2/LPD-D/burst-20/seed1"));
        // Full: 3 fabrics x 2 planes x 2 protocols x (6 loads + 1 burst),
        // and the load ladder extends past the small sweep's top step.
        let f = by_name("latency-curve").unwrap();
        assert_eq!(f.grid.len(), 3 * 2 * 2 * 7);
        assert!(f
            .grid
            .enumerate()
            .iter()
            .any(|s| s.key().contains("/pois-45/")));
    }
}
