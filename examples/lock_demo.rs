//! Section 4.3 regression, live: N cores run ticket-lock protected
//! increments through the full SCORPIO machine; the final counter must be
//! exactly cores × iterations.
//!
//! ```text
//! cargo run --release --example lock_demo [k] [iters]
//! ```

use scorpio::{System, SystemConfig};
use scorpio_coherence::LineAddr;
use scorpio_workloads::{CoreProgram, TicketLockProgram};

fn main() {
    let k: u16 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let iters: u64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let cfg = SystemConfig::square(k);
    let cores = cfg.cores() as u64;
    let (ticket, serving, counter) = (0x1_0000u64, 0x1_0040, 0x1_0080);
    let programs: Vec<Box<dyn CoreProgram + Send>> = (0..cores)
        .map(|_| {
            Box::new(TicketLockProgram::new(ticket, serving, counter, iters))
                as Box<dyn CoreProgram + Send>
        })
        .collect();
    let mut sys = System::with_programs(cfg, programs);
    let report = sys.run_to_completion();

    let value = sys
        .coherent_value(LineAddr(counter))
        .expect("counter line vanished");
    println!(
        "{} cores x {} iterations under a ticket lock -> counter = {} (expected {})",
        cores,
        iters,
        value,
        cores * iters
    );
    assert_eq!(value, cores * iters, "coherence lost an update!");
    println!(
        "runtime {} cycles, {} ops, {} cache-to-cache transfers, ordering {:.1} cyc avg",
        report.runtime_cycles,
        report.ops_completed,
        report.data_forwards,
        report.ordering_delay.mean()
    );
}
