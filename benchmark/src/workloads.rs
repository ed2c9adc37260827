//! The four benchmark workloads, as plain data.
//!
//! Every traffic shape is a literal here, not a lookup in the program's
//! workload or scenario registries, so editing those cannot move the
//! benchmark. `api.rs` turns these into the program's own types.

/// Traffic shape of one synthetic trace set (mirrors the fields of the
/// program's `WorkloadParams`).
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub name: &'static str,
    pub ops_per_core: usize,
    pub mean_gap: f64,
    pub write_fraction: f64,
    pub shared_fraction: f64,
    pub shared_lines: usize,
    pub private_lines: usize,
    pub hot_fraction: f64,
    pub hot_lines: usize,
    pub migratory_fraction: f64,
    pub locality: f64,
    pub phase_ops: usize,
    pub phase_gap: u32,
}

/// Delivery fabric of a cell.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// The paper's Table-1 chip: 6×6 mesh, four corner MCs.
    Chip,
    /// `k × k` mesh, four corner MCs.
    Mesh(u16),
    /// `k × k` mesh, one MC per 16 tiles on the perimeter.
    MeshProportionalMcs(u16),
    /// Concentrated mesh of `k × k` tiles, `concentration` tiles per router.
    CMesh { tile_side: u16, concentration: u8 },
}

/// Ordering protocol of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Scorpio,
    LpdDir,
}

/// One simulated system of a workload.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub label: &'static str,
    pub fabric: Fabric,
    pub protocol: Protocol,
    pub planes: usize,
    /// Sized so that a run to completion retires at least 1100 L2 misses.
    pub traffic: Traffic,
    /// A timed pass steps the cell until its clock reaches this cycle, well
    /// before any core runs out of operations. The floor estimator needs
    /// many short passes, and a fixed stretch of simulated time holds much
    /// the same work whatever the seed, which a run to completion, ending
    /// with whichever core happens to finish last, does not.
    pub timed_cycles: u64,
    /// Only every `active_tile_stride`-th core runs its trace; the others
    /// get an empty one and idle from cycle 0 (1 = every core runs).
    pub active_tile_stride: usize,
    /// Run with the event-leaping clock (`set_leap(true)`).
    pub leap: bool,
    /// Open-loop Poisson arrivals at this many requests per 1000 cycles per
    /// core; `None` is closed loop.
    pub open_poisson_millis: Option<u32>,
    /// Timed passes keep counters, spans and 512-cycle windows on, as the
    /// `latency-curve` scenario does; otherwise observability is off.
    pub timed_with_obs: bool,
    /// Cap on a run to completion: a cell that has not finished by this
    /// cycle counts its remaining operations as failed instead of hanging
    /// the run.
    pub max_cycles: u64,
}

/// Window length of the telemetry a `timed_with_obs` cell records.
pub const WINDOW_CYCLES: u64 = 512;

/// A named workload: one or more cells built and stepped in every pass.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cells: Vec<CellSpec>,
}

/// SPLASH-2 `barnes`-like sharing: the preset the paper's figures lead with.
const BARNES: Traffic = Traffic {
    name: "barnes",
    ops_per_core: 100,
    mean_gap: 6.0,
    write_fraction: 0.30,
    shared_fraction: 0.55,
    shared_lines: 512,
    private_lines: 384,
    hot_fraction: 0.5,
    hot_lines: 64,
    migratory_fraction: 0.35,
    locality: 0.6,
    phase_ops: 0,
    phase_gap: 0,
};

/// Every access misses (shared footprint dwarfs the L2) with almost no
/// think time, so every core always has a miss waiting on the global order.
const BCAST_HEAVY: Traffic = Traffic {
    name: "bcast-heavy",
    ops_per_core: 20,
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
};

/// Rare private accesses in step: every running tile makes one access,
/// nearly all of them cold misses, then all of them idle for thousands of
/// cycles. Each burst is a broadcast storm that wakes the whole machine;
/// each gap is one the event-leaping clock jumps.
const SPARSE_BURSTS: Traffic = Traffic {
    name: "sparse-bursts",
    ops_per_core: 38,
    mean_gap: 5.0,
    write_fraction: 0.1,
    shared_fraction: 0.004,
    shared_lines: 64,
    private_lines: 4096,
    hot_fraction: 0.2,
    hot_lines: 8,
    migratory_fraction: 0.02,
    locality: 0.0,
    phase_ops: 1,
    phase_gap: 2_000,
};

/// The `latency-curve` trace: half the accesses touch a large shared pool,
/// so most offered load becomes coherence transactions. Its own think
/// times are ignored by the Poisson release.
const OPEN_UNIFORM: Traffic = Traffic {
    name: "open-uniform",
    ops_per_core: 80,
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
};

fn cell(
    label: &'static str,
    fabric: Fabric,
    traffic: Traffic,
    timed_cycles: u64,
    max_cycles: u64,
) -> CellSpec {
    CellSpec {
        label,
        fabric,
        protocol: Protocol::Scorpio,
        planes: 1,
        traffic,
        timed_cycles,
        active_tile_stride: 1,
        leap: false,
        open_poisson_millis: None,
        timed_with_obs: false,
        max_cycles,
    }
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "chip-6x6",
            why: "paper's 36-core chip on barnes, SCORPIO and LPD-D on the same traces: work spread over tile/L1/L2, NIC, notify, a lightly loaded mesh and the directory path",
            cells: vec![
                cell("scorpio", Fabric::Chip, BARNES, 8_000, 200_000),
                CellSpec {
                    protocol: Protocol::LpdDir,
                    ..cell("lpd-d", Fabric::Chip, BARNES, 8_000, 200_000)
                },
            ],
        },
        Workload {
            name: "sat-8x8",
            why: "8x8 mesh where every access misses with no think time: all 64 tiles awake every cycle, each waiting on the global order while broadcast copies queue for VCs; links stay under 15% used",
            cells: vec![cell("scorpio", Fabric::Mesh(8), BCAST_HEAVY, 4_000, 400_000)],
        },
        Workload {
            name: "sparse-16x16",
            why: "256 tiles, leap clock on: every eighth tile misses once per burst, then all idle 2000 cycles: wake/sleep bookkeeping, notify over 256 nodes, 272 polling NICs, try_leap and set-up dominate",
            cells: vec![CellSpec {
                active_tile_stride: 8,
                leap: true,
                ..cell(
                    "scorpio",
                    Fabric::MeshProportionalMcs(16),
                    SPARSE_BURSTS,
                    6_500,
                    600_000,
                )
            }],
        },
        Workload {
            name: "open-cmesh-2pl",
            why: "64 cores on a 4x4x4 cmesh, 2 planes, open-loop Poisson below the knee, spans and windows on: plane steering, multi-tile routers, source queue, obs hot path",
            cells: vec![CellSpec {
                planes: 2,
                open_poisson_millis: Some(2),
                timed_with_obs: true,
                ..cell(
                    "scorpio",
                    Fabric::CMesh {
                        tile_side: 8,
                        concentration: 4,
                    },
                    OPEN_UNIFORM,
                    12_000,
                    400_000,
                )
            }],
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
