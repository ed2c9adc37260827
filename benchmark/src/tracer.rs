//! In-memory spans around the calls the benchmark makes into each layer,
//! written out as one JSON file when the traced run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(None);
}

struct Span {
    name: &'static str,
    /// Which of several like-named siblings (block number, cell number).
    index: u32,
    /// Spans of one pass share a run id; probes use 0.
    run: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans while enabled; a disabled tracer ignores every call, so
/// the timed passes are written once for both kinds of run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, index: u32, run: u32, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            run,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            r#"{{"workload": "{workload}", "seed": {seed}, "time_unit": "ns", "spans": ["#
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "index": {}, "run": {}, "parent": {parent}, "start": {}, "end": {}}}{}"#,
                s.name,
                s.index,
                s.run,
                s.start_ns,
                s.end_ns,
                if id + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let pass = t.open("pass", 0, 1, SpanId::ROOT);
        let block = t.open("core.step_block", 7, 1, pass);
        t.close(block);
        t.close(pass);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].index, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.total_seconds("pass") >= t.total_seconds("core.step_block"));

        t.set_enabled(false);
        let ignored = t.open("pass", 0, 2, SpanId::ROOT);
        t.close(ignored);
        assert_eq!(t.len(), 2);
    }
}
