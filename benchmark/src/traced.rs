//! The traced run: the same passes with spans recorded, passes with
//! observability switched the other way, and the per-layer probes.
//!
//! Host shares are estimates from outside the program: each probe drives
//! one layer's public functions standalone, at the rates the timed cell
//! measured, several times over; its floor is set against the timed
//! passes' floor.

use crate::api::{self, HarnessProbe, InterconnectFloors, InterconnectProbe, MemProbe, Obs};
use crate::metrics::{ratio, Outcome, Values};
use crate::run::{reference_pass, stats_pass, timed_pass, Stats, Timing};
use crate::tracer::{SpanId, Tracer};
use crate::workloads::Workload;
use std::path::Path;
use std::time::Instant;

fn mean(sum: u64, count: u64) -> f64 {
    ratio(sum as f64, count as f64)
}

/// Probe results summed over the workload's cells.
#[derive(Default)]
struct Probes {
    /// Floor seconds of the interconnect probe's calls, which it makes for
    /// exactly the cells' stepped cycles.
    nic_s: f64,
    tick_s: f64,
    commit_s: f64,
    notify_s: f64,
    net_cycles: u64,
    nic_ticks: u64,
    net_flit_hops: u64,
    /// Σ probe cycles × routers × planes.
    router_cycles: f64,
    mem: MemProbe,
    /// The memory probe's cost scaled to the cells' work, in seconds.
    mem_estimate_s: f64,
    harness: Option<HarnessProbe>,
}

/// Runs every probe, each several times over (they are deterministic) for
/// about `seconds` in all, keeping floors.
fn run_probes(w: &Workload, stats: &Stats, seed: u64, seconds: f64, tracer: &mut Tracer) -> Probes {
    let timer = api::timer_overhead();
    let budget = seconds / (3 * w.cells.len()) as f64;
    // At least three runs of a probe, then as many as its budget holds.
    let more = |runs: u32, started: Instant| runs < 3 || started.elapsed().as_secs_f64() < budget;
    let mut p = Probes::default();
    for (c, spec) in w.cells.iter().enumerate() {
        // Probes mirror the timed passes, whose host time they explain.
        let cell = &stats.timed[c];

        let span = tracer.open("probe.interconnect", c as u32, 0, SpanId::ROOT);
        let mut floors = InterconnectFloors::default();
        let mut net = InterconnectProbe::default();
        let (mut runs, started) = (0, Instant::now());
        while more(runs, started) {
            net = api::probe_interconnect(spec, cell, seed, timer, &mut floors);
            runs += 1;
        }
        tracer.close(span);
        p.nic_s += floors.nic.floor();
        p.tick_s += floors.tick.floor();
        p.commit_s += floors.commit.floor();
        p.notify_s += floors.notify.floor();
        p.net_cycles += net.cycles;
        p.nic_ticks += net.nic_ticks;
        p.net_flit_hops += net.flit_hops;
        p.router_cycles += (net.cycles * cell.routers * cell.planes) as f64;
        println!(
            "probe.interconnect cell {}: {runs} runs of {} cycles, {:.2} NIC ticks per cycle, {:.3} flit hops per cycle (cell: {:.3})",
            spec.label,
            net.cycles,
            ratio(net.nic_ticks as f64, net.cycles as f64),
            ratio(net.flit_hops as f64, net.cycles as f64),
            ratio(cell.flit_hops() as f64, cell.stepped_cycles as f64),
        );

        let span = tracer.open("probe.mem", c as u32, 0, SpanId::ROOT);
        let mut mem = api::probe_mem(spec, seed, timer);
        let (mut runs, started) = (1, Instant::now());
        while more(runs, started) {
            let again = api::probe_mem(spec, seed, timer);
            mem.l2_seconds = mem.l2_seconds.min(again.l2_seconds);
            mem.mc_seconds = mem.mc_seconds.min(again.mc_seconds);
            runs += 1;
        }
        tracer.close(span);
        // L2 work scales with requests and snoops handled, MC work with the
        // transactions that reach memory's ordering point.
        let l2_ops = cell.l2_hits + cell.l2_misses + cell.snoops_looked_up + cell.snoops_filtered;
        p.mem_estimate_s += ratio(mem.l2_seconds, mem.l2_ops as f64) * l2_ops as f64
            + ratio(mem.mc_seconds, mem.ordered_requests as f64)
                * (cell.l2_misses + cell.writebacks) as f64;
        p.mem += mem;
    }

    // The first cell run to completion through the harness and driven
    // directly, turn and turn about.
    let span = tracer.open("probe.harness", 0, 0, SpanId::ROOT);
    let (mut runs, started) = (0, Instant::now());
    while more(runs, started) {
        let Some(run) = api::probe_harness(&w.cells[0], seed) else {
            break;
        };
        let best = p.harness.get_or_insert(run);
        best.run_spec_s = best.run_spec_s.min(run.run_spec_s);
        best.direct_s = best.direct_s.min(run.direct_s);
        best.jsonl_row_s = best.jsonl_row_s.min(run.jsonl_row_s);
        best.same_run &= run.same_run;
        runs += 1;
    }
    tracer.close(span);
    p
}

pub fn traced(w: &Workload, seed: u64, seconds: f64, trace_file: &Path) -> Outcome {
    let stats = stats_pass(w, seed);
    let reference_equal = reference_pass(w, seed, &stats, true);
    let cells = w.cells.len();
    let mut tracer = Tracer::new(false);

    // Three kinds of pass take turns, so that every floor below samples the
    // same stretches of host time: timed passes with spans recorded, the
    // same without (the gap is the tracing overhead), and passes with
    // observability the other way round than the workload times.
    let timed_with_obs = w.cells.iter().any(|c| c.timed_with_obs);
    let flipped_obs = if timed_with_obs { Obs::Off } else { Obs::Stats };
    let mut untraced = Timing::new(cells);
    let mut with_spans = Timing::new(cells);
    let mut flipped = Timing::new(cells);
    let started = Instant::now();
    let mut turn = 0u32;
    while turn < 6 || started.elapsed().as_secs_f64() < 0.6 * seconds {
        match turn % 3 {
            0 => {
                tracer.set_enabled(true);
                timed_pass(w, seed, Obs::Timed, &stats, &mut with_spans, &mut tracer);
                tracer.set_enabled(false);
            }
            1 => timed_pass(w, seed, Obs::Timed, &stats, &mut untraced, &mut tracer),
            _ => timed_pass(w, seed, flipped_obs, &stats, &mut flipped, &mut tracer),
        }
        turn += 1;
    }
    let (obs_on, obs_off) = if timed_with_obs {
        (&untraced, &flipped)
    } else {
        (&flipped, &untraced)
    };

    tracer.set_enabled(true);
    let probes = run_probes(w, &stats, seed, 0.3 * seconds, &mut tracer);

    let host_floor = untraced.host_floor();
    // Host time is set against the timed cells' counts; modelled-chip
    // statistics come from the model cells.
    let stepped = stats.sum_timed(|c| c.stepped_cycles) as f64;
    let runtime = stats.sum_timed(|c| c.runtime_cycles) as f64;
    let flit_hops = stats.sum_timed(|c| c.flit_hops()) as f64;
    let spans: Vec<_> = stats.scorpio_spans().collect();
    let span_mean =
        |f: fn(&api::SpanSample) -> u64| mean(spans.iter().map(|s| f(s)).sum(), spans.len() as u64);
    let scorpio = |f: fn(&api::CellStats) -> u64| stats.sum_scorpio(f);
    // Floor against floor: a probe's smallest readings over the timed
    // passes' smallest readings.
    let noc_share = ratio(probes.tick_s + probes.commit_s, host_floor);
    let nic_share = ratio(probes.nic_s, host_floor);
    let notify_share = ratio(probes.notify_s, host_floor);
    let mem_share = ratio(probes.mem_estimate_s, host_floor);
    let lpd = stats.model.iter().position(|c| !c.scorpio);

    let mut v = Values::default();
    v.set("workloads.generate_s", untraced.generate_floor());
    v.set(
        "workloads.trace_ops",
        w.cells
            .iter()
            .map(|c| api::generate_traces(c, seed).ops())
            .sum::<u64>() as f64,
    );
    v.set("core.build_s", untraced.build_floor());
    v.set("core.build_allocs", stats.build_allocs as f64);
    v.set(
        "core.step_allocs_per_kcycle",
        ratio(stats.step_allocs as f64, stats.alloc_cycles as f64 / 1000.0),
    );
    v.set("core.step_ns_per_cycle", ratio(host_floor * 1e9, stepped));
    v.set(
        "core.host_ns_per_flit_hop",
        ratio(host_floor * 1e9, flit_hops),
    );
    v.set("core.stepped_share", ratio(stepped, runtime));
    v.set(
        "core.residual_host_share",
        1.0 - noc_share - nic_share - notify_share - mem_share,
    );
    v.set("core.source_mean_cycles", span_mean(|s| s.source));
    v.set(
        "core.source_dropped",
        stats.sum(|c| c.source_dropped) as f64,
    );
    v.set(
        "noc.tick_ns_per_router_cycle",
        ratio(probes.tick_s * 1e9, probes.router_cycles),
    );
    v.set(
        "noc.commit_ns_per_cycle",
        ratio(probes.commit_s * 1e9, probes.net_cycles as f64),
    );
    v.set(
        "noc.probe_flit_hops_per_s",
        ratio(probes.net_flit_hops as f64, probes.tick_s + probes.commit_s),
    );
    v.set("noc.est_host_share", noc_share);
    v.set("noc.flit_hops", flit_hops);
    v.set(
        "noc.bypass_share",
        ratio(
            scorpio(|c| c.bypassed_flits) as f64,
            scorpio(|c| c.flit_hops()) as f64,
        ),
    );
    v.set(
        "noc.packet_latency_mean_cycles",
        mean(
            scorpio(|c| c.packet_latency_sum),
            scorpio(|c| c.packet_latency_count),
        ),
    );
    v.set("noc.flight_mean_cycles", span_mean(|s| s.flight));
    v.set("noc.stall_sa_i", scorpio(|c| c.stall_sa_i) as f64);
    v.set("noc.stall_sa_o", scorpio(|c| c.stall_sa_o) as f64);
    v.set("noc.stall_vc_alloc", scorpio(|c| c.stall_vc_alloc) as f64);
    v.set("noc.stall_credit", scorpio(|c| c.stall_credit) as f64);
    v.set(
        "noc.max_link_util",
        stats
            .model
            .iter()
            .filter(|c| c.scorpio)
            .map(|c| mean(c.max_link_flits, c.runtime_cycles))
            .fold(0.0, f64::max),
    );
    v.set(
        "noc.buffer_occupancy_mean",
        mean(
            scorpio(|c| c.buffer_integral),
            scorpio(|c| c.runtime_cycles),
        ),
    );
    v.set(
        "noc.plane_balance",
        stats
            .model
            .iter()
            .filter(|c| c.scorpio)
            .map(|c| {
                let most = c.plane_link_flits.iter().copied().max().unwrap_or(0);
                let least = c.plane_link_flits.iter().copied().min().unwrap_or(0);
                mean(least, most)
            })
            .fold(1.0, f64::min),
    );
    v.set(
        "obs.on_cost_share",
        ratio(obs_on.host_floor(), obs_off.host_floor()) - 1.0,
    );
    v.set(
        "notify.tick_ns",
        ratio(probes.notify_s * 1e9, probes.net_cycles as f64),
    );
    v.set("notify.est_host_share", notify_share);
    v.set(
        "notify.window_cycles",
        stats
            .model
            .iter()
            .map(|c| c.notify_window_cycles)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set(
        "notify.nonempty_share",
        mean(
            scorpio(|c| c.notify_nonempty),
            scorpio(|c| c.notify_windows),
        ),
    );
    v.set("notify.stop_windows", scorpio(|c| c.stop_windows) as f64);
    v.set(
        "nic.ordering_delay_mean_cycles",
        mean(scorpio(|c| c.ordering_sum), scorpio(|c| c.ordering_count)),
    );
    v.set(
        "nic.tick_ns",
        ratio(probes.nic_s * 1e9, probes.nic_ticks as f64),
    );
    v.set("nic.est_host_share", nic_share);
    v.set("nic.inject_mean_cycles", span_mean(|s| s.inject));
    v.set("nic.commit_mean_cycles", span_mean(|s| s.commit));
    v.set(
        "nic.inject_wait_p99_cycles",
        stats
            .model
            .iter()
            .filter(|c| c.scorpio)
            .map(|c| c.inject_wait_p99)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set(
        "mem.l2_op_ns",
        ratio(probes.mem.l2_seconds * 1e9, probes.mem.l2_ops as f64),
    );
    v.set(
        "mem.mc_tick_ns",
        ratio(probes.mem.mc_seconds * 1e9, probes.mem.mc_ticks as f64),
    );
    v.set("mem.est_host_share", mem_share);
    v.set(
        "mem.l2_miss_share",
        mean(
            scorpio(|c| c.l2_misses),
            scorpio(|c| c.l2_hits + c.l2_misses),
        ),
    );
    v.set(
        "mem.cache_served_share",
        mean(
            scorpio(|c| c.cache_served),
            scorpio(|c| c.cache_served + c.memory_served),
        ),
    );
    v.set(
        "mem.memory_served_mean_cycles",
        mean(
            scorpio(|c| c.memory_served_sum),
            scorpio(|c| c.memory_served),
        ),
    );
    v.set("mem.queue_mean_cycles", span_mean(|s| s.queue));
    v.set("mem.data_mean_cycles", span_mean(|s| s.data));
    v.set("mem.fill_mean_cycles", span_mean(|s| s.fill));
    v.set(
        "mem.snoops_filtered_share",
        mean(
            scorpio(|c| c.snoops_filtered),
            scorpio(|c| c.snoops_filtered + c.snoops_looked_up),
        ),
    );
    // The coherence layer's own metrics need the directory cell; they read
    // 0 on workloads without one.
    v.set(
        "coherence.lpd_cycles_per_s",
        lpd.map_or(0.0, |i| {
            ratio(
                stats.timed[i].runtime_cycles as f64,
                untraced.floors[i].floor(),
            )
        }),
    );
    v.set(
        "coherence.norm_runtime_vs_lpd",
        lpd.map_or(0.0, |i| {
            mean(scorpio(|c| c.runtime_cycles), stats.model[i].runtime_cycles)
        }),
    );
    v.set(
        "coherence.dir_accesses",
        stats.sum(|c| c.dir_accesses) as f64,
    );
    v.set(
        "coherence.dir_miss_share",
        mean(stats.sum(|c| c.dir_misses), stats.sum(|c| c.dir_accesses)),
    );
    // Both read 0 when the harness cannot express the cell.
    v.set(
        "harness.run_spec_overhead_share",
        probes
            .harness
            .map_or(0.0, |h| ratio(h.run_spec_s, h.direct_s) - 1.0),
    );
    v.set(
        "harness.jsonl_us_per_row",
        probes.harness.map_or(0.0, |h| h.jsonl_row_s * 1e6),
    );
    v.set("trace.spans", tracer.len() as f64);
    v.set(
        "trace.overhead_share",
        ratio(with_spans.host_floor(), host_floor) - 1.0,
    );
    v.set("host.passes", untraced.passes() as f64);
    v.set("host.pass_spread", untraced.pass_spread());
    v.set("host.floor_hit_share", untraced.floor_hit_share());

    let written = tracer.write_json(trace_file, w.name, seed);
    match &written {
        Ok(()) => println!("{} spans written to {}", tracer.len(), trace_file.display()),
        Err(e) => println!("could not write {}: {e}", trace_file.display()),
    }
    println!(
        "traced passes {}  untraced passes {}  passes with observability flipped {}",
        with_spans.passes(),
        untraced.passes(),
        flipped.passes()
    );
    println!(
        "span self-times (s): pass {:.4}  core.step_block {:.4}  core.build {:.4}  workloads.generate {:.4}  core.report {:.4}",
        tracer.total_seconds("pass")
            - tracer.total_seconds("core.step_block")
            - tracer.total_seconds("core.build")
            - tracer.total_seconds("workloads.generate")
            - tracer.total_seconds("core.report"),
        tracer.total_seconds("core.step_block"),
        tracer.total_seconds("core.build"),
        tracer.total_seconds("workloads.generate"),
        tracer.total_seconds("core.report"),
    );
    let reproduced = untraced.reproduced && with_spans.reproduced && flipped.reproduced;
    let same_harness_run = probes.harness.is_none_or(|h| h.same_run);
    println!(
        "checks: reference engine reports identical {reference_equal}; every pass reproduces the \
         statistics pass {reproduced}; harness ran the same configuration to the same report \
         {same_harness_run}"
    );
    let (attempted, completed, dropped) = stats.ops();
    Outcome {
        correct: completed == attempted
            && dropped == 0
            && reference_equal
            && reproduced
            && same_harness_run
            && written.is_ok(),
        attempted,
        failed: attempted - completed.min(attempted),
        values: v,
    }
}
