//! In-memory span recording for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions (nothing inside the program is instrumented). Each span has
//! a name, a start and end relative to the run's epoch, the span that
//! caused it, and the identifier of the operation (cell or round trip)
//! it belongs to. Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The operation (cell index or round-trip number) it belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer; a disabled buffer records nothing and costs one branch
/// per call, so the untraced run pays no tracing overhead.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recording buffer timed against `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Spans { epoch, enabled: true, spans: Vec::new() }
    }

    /// A buffer that records nothing.
    pub fn off(epoch: Instant) -> Self {
        Spans { epoch, enabled: false, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index (meaningless when disabled).
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn exit(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Moves every span of `other` (recorded on another thread against
    /// the same epoch) into this buffer, re-indexing parents.
    pub fn absorb(&mut self, other: &Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.iter().map(|&s| {
            let mut s = s;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path` (parent directories are
    /// created).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_reindexes_parents_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut main = Spans::on(epoch);
        let root = main.enter("a", None, 0);
        main.exit(root);
        let mut worker = Spans::on(epoch);
        let cell = worker.enter("cell", None, 1);
        worker.time("child", Some(cell), 1, || ());
        worker.exit(cell);
        main.absorb(&worker);
        assert_eq!(main.len(), 3);
        assert_eq!(main.spans[2].parent, Some(1));

        let mut off = Spans::off(epoch);
        let id = off.enter("x", None, 0);
        off.exit(id);
        assert_eq!(off.len(), 0);
    }
}
