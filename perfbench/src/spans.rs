//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end relative to one
//! shared epoch, the id of the span that caused it, and a work count
//! (samples, batches, records...). Spans stay in memory while the
//! benchmark runs and are written out as JSON lines when it ends. A
//! disabled tracer runs the same code and records nothing, so traced
//! and untraced runs differ only by the recording itself.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across threads; 0 means "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Clone-free: worker threads make their own with
/// [`Tracer::child`] and hand the spans back with [`Tracer::absorb`].
#[derive(Debug)]
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

    /// An empty tracer sharing this one's epoch and on/off state.
    pub fn child(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh span id (0 when disabled), for a span whose children are
    /// recorded before it ends.
    pub fn next_id(&self) -> u64 {
        if self.enabled {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span that ran from `start` to now; returns its id (0
    /// when disabled).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, count: u64) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, parent, start, count);
        id
    }

    /// [`Tracer::record`] under an id from [`Tracer::next_id`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            count,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(name, parent, start, count);
        r
    }

    /// Moves a worker tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).sum()
    }

    /// Summed work count of every span called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Durations of every span called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Mean ns per unit of work over spans called `name` (0 when the
    /// spans did no work).
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ns(name) as f64 / n as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}
