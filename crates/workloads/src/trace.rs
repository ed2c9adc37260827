//! Memory-operation traces: the unit of work a core model executes.

/// A memory operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Read a word.
    Load,
    /// Write a word.
    Store,
    /// Atomic fetch-and-add (returns the old value).
    AtomicAdd,
}

/// One trace record: wait `gap` cycles of "compute", then issue `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Compute cycles before this access issues.
    pub gap: u32,
    /// The operation.
    pub op: TraceOp,
    /// Byte address.
    pub addr: u64,
    /// Store/add operand.
    pub value: u64,
}

/// A per-core sequence of memory operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The records in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of write operations (stores + atomics).
    pub fn write_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let writes = self
            .records
            .iter()
            .filter(|r| !matches!(r.op, TraceOp::Load))
            .count();
        writes as f64 / self.records.len() as f64
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: TraceOp, addr: u64) -> TraceRecord {
        TraceRecord {
            gap: 1,
            op,
            addr,
            value: 0,
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(rec(TraceOp::Load, 0x40));
        t.push(rec(TraceOp::Store, 0x80));
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].op, TraceOp::Store);
    }

    #[test]
    fn write_fraction_counts_atomics() {
        let t: Trace = [
            rec(TraceOp::Load, 0),
            rec(TraceOp::Store, 32),
            rec(TraceOp::AtomicAdd, 64),
            rec(TraceOp::Load, 96),
        ]
        .into_iter()
        .collect();
        assert!((t.write_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(Trace::new().write_fraction(), 0.0);
    }
}
