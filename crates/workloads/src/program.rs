//! Programmatic cores: small reactive programs whose next operation depends
//! on loaded values. These realise the paper's functional-verification
//! suite (Section 4.3): lock and barrier regressions that exercise
//! coherence between L1s, L2s and memory.

use crate::trace::{TraceOp, TraceRecord};

/// A reactive core program: fed the result of its previous operation,
/// yields the next one ( `None` = finished). A record's `gap` is charged
/// exactly as a trace's is: the core computes that many cycles first.
pub trait CoreProgram {
    /// The next operation, given the value returned by the previous one
    /// (`None` on the first call).
    fn next(&mut self, last_value: Option<u64>) -> Option<TraceRecord>;
}

/// `op` on `addr` with operand `value`, issued without a compute gap.
fn access(op: TraceOp, addr: u64, value: u64) -> Option<TraceRecord> {
    Some(TraceRecord {
        gap: 0,
        op,
        addr,
        value,
    })
}

/// A ticket-lock counter increment program.
///
/// Each core performs `iterations` critical sections: take a ticket with
/// fetch-and-add, spin on `now_serving`, increment the shared counter,
/// release. If coherence is correct, the final counter equals
/// `cores × iterations` exactly — lost updates or stale reads show up as a
/// wrong count.
#[derive(Debug, Clone)]
pub struct TicketLockProgram {
    ticket_addr: u64,
    serving_addr: u64,
    counter_addr: u64,
    iterations: u64,
    state: LockState,
    done: u64,
    my_ticket: u64,
    counter_seen: u64,
}

/// What the previously issued operation was — the incoming `last_value`
/// is interpreted against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    /// Nothing issued yet.
    Start,
    /// Issued `AtomicAdd(ticket)`: `last_value` is our ticket.
    TookTicket,
    /// Issued `Load(now_serving)`: `last_value` is the serving number.
    SpinRead,
    /// Issued `Load(counter)`: `last_value` is the counter.
    ReadCounter,
    /// Issued `Store(counter)`.
    WroteCounter,
    /// Issued `AtomicAdd(now_serving)` (the release).
    Released,
    /// All iterations done.
    Finished,
}

impl TicketLockProgram {
    /// A program for `iterations` lock-protected increments. All cores must
    /// share the same three addresses.
    pub fn new(ticket_addr: u64, serving_addr: u64, counter_addr: u64, iterations: u64) -> Self {
        TicketLockProgram {
            ticket_addr,
            serving_addr,
            counter_addr,
            iterations,
            state: LockState::Start,
            done: 0,
            my_ticket: 0,
            counter_seen: 0,
        }
    }

    fn take_ticket(&mut self) -> Option<TraceRecord> {
        self.state = LockState::TookTicket;
        access(TraceOp::AtomicAdd, self.ticket_addr, 1)
    }

    fn spin(&mut self) -> Option<TraceRecord> {
        self.state = LockState::SpinRead;
        access(TraceOp::Load, self.serving_addr, 0)
    }
}

impl CoreProgram for TicketLockProgram {
    fn next(&mut self, last_value: Option<u64>) -> Option<TraceRecord> {
        match self.state {
            LockState::Start => self.take_ticket(),
            LockState::TookTicket => {
                self.my_ticket = last_value.expect("atomic returns the old ticket");
                self.spin()
            }
            LockState::SpinRead => {
                let serving = last_value.expect("load returns a value");
                if serving == self.my_ticket {
                    // Lock acquired: read the protected counter.
                    self.state = LockState::ReadCounter;
                    access(TraceOp::Load, self.counter_addr, 0)
                } else {
                    self.spin()
                }
            }
            LockState::ReadCounter => {
                self.counter_seen = last_value.expect("load returns a value");
                self.state = LockState::WroteCounter;
                access(TraceOp::Store, self.counter_addr, self.counter_seen + 1)
            }
            LockState::WroteCounter => {
                self.state = LockState::Released;
                access(TraceOp::AtomicAdd, self.serving_addr, 1)
            }
            LockState::Released => {
                self.done += 1;
                if self.done == self.iterations {
                    self.state = LockState::Finished;
                    None
                } else {
                    self.take_ticket()
                }
            }
            LockState::Finished => None,
        }
    }
}

/// A sense-reversing barrier program: each core joins `rounds` barriers by
/// fetch-adding the arrival counter and spinning until all `cores` arrive.
/// Validates that every core observes every arrival.
#[derive(Debug, Clone)]
pub struct BarrierProgram {
    counter_addr: u64,
    cores: u64,
    rounds: u64,
    round: u64,
    spinning: bool,
}

impl BarrierProgram {
    /// A barrier over `cores` cores at `counter_addr`, run `rounds` times.
    pub fn new(counter_addr: u64, cores: u64, rounds: u64) -> Self {
        BarrierProgram {
            counter_addr,
            cores,
            rounds,
            round: 0,
            spinning: false,
        }
    }
}

impl CoreProgram for BarrierProgram {
    fn next(&mut self, last_value: Option<u64>) -> Option<TraceRecord> {
        if self.round == self.rounds {
            return None;
        }
        if !self.spinning {
            self.spinning = true;
            return access(TraceOp::AtomicAdd, self.counter_addr, 1);
        }
        let v = last_value.expect("spin load returns a value");
        let target = (self.round + 1) * self.cores;
        if v >= target {
            self.round += 1;
            self.spinning = false;
            return self.next(None);
        }
        access(TraceOp::Load, self.counter_addr, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sequentially consistent single-threaded interpreter: the weakest
    /// machine a correct program must terminate on.
    fn run_single(prog: &mut dyn CoreProgram, mem: &mut std::collections::HashMap<u64, u64>) {
        let mut last = None;
        let mut steps = 0;
        while let Some(op) = prog.next(last) {
            steps += 1;
            assert!(steps < 100_000, "program diverged");
            let cell = mem.entry(op.addr).or_insert(0);
            last = Some(match op.op {
                TraceOp::Load => *cell,
                TraceOp::Store => {
                    *cell = op.value;
                    op.value
                }
                TraceOp::AtomicAdd => {
                    let old = *cell;
                    *cell = old + op.value;
                    old
                }
            });
        }
    }

    #[test]
    fn single_core_lock_program_counts() {
        let mut mem = std::collections::HashMap::new();
        let mut p = TicketLockProgram::new(0x100, 0x140, 0x180, 5);
        run_single(&mut p, &mut mem);
        assert_eq!(mem[&0x180], 5, "counter");
        assert_eq!(mem[&0x100], 5, "tickets taken");
        assert_eq!(mem[&0x140], 5, "locks released");
    }

    #[test]
    fn interleaved_lock_programs_count_exactly() {
        // Round-robin interpretation of 3 programs over one memory is a
        // legal SC execution; the count must be exact.
        let mut mem = std::collections::HashMap::new();
        let mut progs: Vec<TicketLockProgram> = (0..3)
            .map(|_| TicketLockProgram::new(0x100, 0x140, 0x180, 4))
            .collect();
        let mut last: Vec<Option<u64>> = vec![None; 3];
        let mut live = [true; 3];
        let mut steps = 0;
        while live.iter().any(|&l| l) {
            for i in 0..3 {
                if !live[i] {
                    continue;
                }
                steps += 1;
                assert!(steps < 1_000_000, "diverged");
                match progs[i].next(last[i]) {
                    None => live[i] = false,
                    Some(op) => {
                        let cell = mem.entry(op.addr).or_insert(0);
                        last[i] = Some(match op.op {
                            TraceOp::Load => *cell,
                            TraceOp::Store => {
                                *cell = op.value;
                                op.value
                            }
                            TraceOp::AtomicAdd => {
                                let old = *cell;
                                *cell = old + op.value;
                                old
                            }
                        });
                    }
                }
            }
        }
        assert_eq!(mem[&0x180], 12, "3 cores × 4 iterations");
    }

    #[test]
    fn barrier_program_completes_rounds() {
        let mut mem = std::collections::HashMap::new();
        let mut progs: Vec<BarrierProgram> =
            (0..4).map(|_| BarrierProgram::new(0x200, 4, 3)).collect();
        let mut last: Vec<Option<u64>> = vec![None; 4];
        let mut live = [true; 4];
        let mut steps = 0;
        while live.iter().any(|&l| l) {
            for i in 0..4 {
                if !live[i] {
                    continue;
                }
                steps += 1;
                assert!(steps < 1_000_000, "diverged");
                match progs[i].next(last[i]) {
                    None => live[i] = false,
                    Some(op) => {
                        let cell = mem.entry(op.addr).or_insert(0);
                        last[i] = Some(match op.op {
                            TraceOp::Load => *cell,
                            TraceOp::Store => {
                                *cell = op.value;
                                op.value
                            }
                            TraceOp::AtomicAdd => {
                                let old = *cell;
                                *cell = old + op.value;
                                old
                            }
                        });
                    }
                }
            }
        }
        assert_eq!(mem[&0x200], 12, "4 cores × 3 rounds of arrivals");
    }
}
