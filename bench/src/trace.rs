//! Bench-side span recorder. Spans are taken around calls into the
//! repository (never inside it), kept in memory, and written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span, `round`
/// the identifier every span of one training round shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u64,
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    /// Spans beyond this many are dropped (the log is written to disk).
    limit: usize,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u64,
}

/// A cloneable handle on one span log. Disabled (the default state) every
/// call is a flag test, so the same wrapped trainer can be timed with and
/// without tracing — the difference is `driver.tracing_overhead_ratio`.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Inner {
            enabled: false,
            limit: usize::MAX,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        })))
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("no tracer user panics while holding the lock")
    }

    pub fn set_enabled(&self, on: bool) {
        self.lock().enabled = on;
    }

    /// Lets `more` further spans be recorded, then drops the rest.
    pub fn allow(&self, more: usize) {
        let mut t = self.lock();
        t.limit = t.spans.len().saturating_add(more);
    }

    /// Sets the round identifier stamped on the spans that follow.
    pub fn set_round(&self, round: u64) {
        self.lock().round = round;
    }

    /// Opens a span under the innermost open one; `None` while disabled.
    pub fn enter(&self, name: &'static str) -> Option<u32> {
        let mut t = self.lock();
        if !t.enabled || t.spans.len() >= t.limit {
            return None;
        }
        let id = t.spans.len() as u32;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let (parent, round) = (t.stack.last().copied(), t.round);
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        t.stack.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned.
    pub fn exit(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let mut t = self.lock();
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans[id as usize].end_ns = now;
        t.stack.retain(|&open| open != id);
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let child = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(child);
        }
    }
    own
}

/// Total self time and call count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}",
            s.name, s.start_ns, s.end_ns, s.round
        )?;
    }
    f.flush()
}
