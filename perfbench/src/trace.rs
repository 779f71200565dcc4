//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends, and the self-time
//! arithmetic that turns them into per-layer busy times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span whose call caused this one.
    pub parent: Option<u64>,
    /// Layer name, e.g. `store.write` or `sim.MP`.
    pub name: String,
    /// The job (or request) this span belongs to.
    pub job: Option<String>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// A thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so the calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        name: &str,
        job: Option<&str>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            job: job.map(str::to_string),
            start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("no span recorder panics while holding the lock").push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics while holding the lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let job = s.job.as_deref().map_or("null".to_string(), |j| format!("\"{j}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":{job},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns,
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.clamp(cursor, hi);
        let end = end.clamp(start, hi);
        total += end - start;
        cursor = end;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children running in parallel count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Per span name: `(span count, total self time in seconds)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, (u64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id] as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.into(), job: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, "job", 0, 100),
            span(2, Some(1), "sim", 10, 40),
            span(3, Some(1), "write", 50, 60),
            // Overlaps span 2 (parallel child): the overlap counts once.
            span(4, Some(1), "sim", 30, 45),
            // A grandchild reduces its parent's self time, not the job's.
            span(5, Some(3), "fsync", 52, 58),
            // A child running past its parent is clipped to the parent.
            span(6, Some(2), "tail", 35, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (35 + 10));
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 10 - 6);
        assert_eq!(selfs[&4], 15);
        assert_eq!(selfs[&5], 6);
        assert_eq!(selfs[&6], 35);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["sim"].0, 2);
        assert!((by_name["sim"].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::default();
        let got = t.span(None, "outer", Some("j"), |outer| {
            t.span(Some(outer), "inner", Some("j"), |_| 7) + 1
        });
        assert_eq!(got, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
