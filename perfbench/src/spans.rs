//! Tracing from outside the program: spans the benchmark records around
//! its own calls into each layer's public functions, plus an in-memory
//! sink for the service's public `TraceSink` hook. Both are kept in memory
//! and written out once, when the run ends.

use solver_service::{TraceEvent, TraceSink};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// At most this many spans and service events are written to the trace
/// file; metrics are always computed from the full in-memory record.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The client call this span belongs to; spans of one call share it.
    pub call: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, call: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, call });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Share of the time of spans called `parent` that their child spans
    /// cover: 1 minus the parents' summed self time over their summed
    /// duration. 0 when no such parent has a child.
    pub fn child_coverage(&self, parent: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut total, mut child) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent && covered[i] > 0 {
                total += s.end_ns - s.start_ns;
                child += covered[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            child as f64 / total as f64
        }
    }

    /// Writes the spans, and the service events when given, as a Chrome
    /// trace-event JSON file (loadable in Perfetto or chrome://tracing).
    /// Service event ticks are on the service clock, not the span clock.
    pub fn write(&self, path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut first = true;
        for s in self.spans.iter().take(MAX_WRITTEN) {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"call\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.call
            )?;
        }
        for e in events.iter().take(MAX_WRITTEN) {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":2,\"tid\":1,\"ts\":{:.3}}}",
                e.kind(),
                e.at() as f64 / 1e3
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// The service's decision events, kept in memory.
#[derive(Default)]
pub struct MemorySink(Mutex<Vec<TraceEvent>>);

impl MemorySink {
    /// Takes every event recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.0.lock().expect("trace sink lock poisoned"))
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: TraceEvent) {
        self.0.lock().expect("trace sink lock poisoned").push(event);
    }
}
