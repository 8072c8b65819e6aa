//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from outside it: name, start,
//! end, the span that caused it, and the job it belongs to. Spans are
//! kept in memory while the run executes and written out once at exit.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u64 = 0;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: u64,
    /// Layer-qualified name, e.g. `record` or `replay.sampler`.
    pub name: String,
    /// Job the span belongs to (benchmark index, serve job number, ...).
    pub job: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A shared span sink. Cloning shares the sink.
#[derive(Clone, Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `f` as span `name` under `parent`; `f` receives the new
    /// span's id so it can parent its own calls.
    pub fn span<T>(&self, name: &str, parent: u64, job: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_owned(),
            job,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Number of spans recorded so far (a mark for [`spans_since`]).
    ///
    /// [`spans_since`]: Tracer::spans_since
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Spans recorded after `mark` was taken with [`len`](Tracer::len).
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned")[mark..].to_vec()
    }

    /// Runs `f` under a new root span `name`; returns its result, the
    /// root span, and every span recorded while it ran.
    pub fn root<T>(&self, name: &str, f: impl FnOnce(Scope<'_>) -> T) -> (T, Span, Vec<Span>) {
        let mark = self.len();
        let out = self.span(name, NO_PARENT, 0, |id| f(Scope::root(self, 0).under(id)));
        let spans = self.spans_since(mark);
        let root = spans
            .last()
            .expect("the root span is recorded last")
            .clone();
        (out, root, spans)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a span is recorded: the sink, the parent span and the job.
#[derive(Clone, Copy, Debug)]
pub struct Scope<'a> {
    /// The sink.
    pub tracer: &'a Tracer,
    /// Parent of every span opened in this scope.
    pub parent: u64,
    /// Job of every span opened in this scope.
    pub job: u64,
}

impl<'a> Scope<'a> {
    /// A root scope for `job`.
    pub fn root(tracer: &'a Tracer, job: u64) -> Self {
        Scope {
            tracer,
            parent: NO_PARENT,
            job,
        }
    }

    /// The same scope with spans parented to `parent`.
    pub fn under(self, parent: u64) -> Self {
        Scope { parent, ..self }
    }

    /// The same scope with spans attributed to `job`.
    pub fn job(self, job: u64) -> Self {
        Scope { job, ..self }
    }

    /// Times `f` as span `name`; `f` receives the new span's id.
    pub fn span<T>(self, name: &str, f: impl FnOnce(u64) -> T) -> T {
        self.tracer.span(name, self.parent, self.job, f)
    }
}

/// Runs `f`, as span `name` when a scope is given.
pub fn maybe<T>(at: Option<Scope<'_>>, name: &str, f: impl FnOnce() -> T) -> T {
    match at {
        Some(at) => at.span(name, |_| f()),
        None => f(),
    }
}

/// Sum of the durations of spans named `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Seconds of `[start, end)` covered by the union of the children of
/// `parent` — the part of a span its child layers account for.
pub fn covered_secs(spans: &[Span], parent: u64) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    covered as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x".to_owned(),
            job: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 60, 70),
            span(5, 2, 0, 1000),
        ];
        assert!((covered_secs(&spans, 1) - 50e-9).abs() < 1e-15);
    }
}
