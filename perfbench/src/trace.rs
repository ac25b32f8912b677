//! In-memory span recording for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer: its name, the
//! span that caused it, the op (request) it belongs to, and its start and
//! end relative to the trace's epoch. Spans stay in memory while the
//! benchmark runs and are written out once at the end, so recording costs
//! one clock read and one short critical section per span.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover; overlapping children count once.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One finished span. Times are nanoseconds since the trace's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store shared by the benchmark's threads.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }
}

impl Trace {
    /// Nanoseconds since the epoch for an instant taken by the caller.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span id before the span's interval is known, so children
    /// recorded during the call can name it as their parent.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Record a finished span whose id came from [`Trace::reserve`].
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span { id, parent, op, name, start_ns: self.at(start), end_ns: self.at(end) };
        self.spans.lock().expect("span store lock poisoned by a panicking recorder").push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock poisoned by a panicking recorder").clone()
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let by_parent = children_by_parent(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let kids = by_parent.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(s, kids)
            )?;
        }
        out.flush()
    }
}

/// Time `f` as a span named `name` under `parent` when tracing; `f`
/// receives the span's own id to hand to its children (`ROOT` when not
/// tracing, where children record nothing either).
pub fn timed<T>(
    trace: Option<&Trace>,
    name: &'static str,
    parent: u64,
    op: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match trace {
        None => f(ROOT),
        Some(t) => {
            let id = t.reserve();
            let start = Instant::now();
            let out = f(id);
            t.record(id, parent, op, name, start, Instant::now());
            out
        }
    }
}

/// Children of each span, keyed by parent id.
pub fn children_by_parent(spans: &[Span]) -> std::collections::BTreeMap<u64, Vec<Span>> {
    let mut map: std::collections::BTreeMap<u64, Vec<Span>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        map.entry(s.parent).or_default().push(s.clone());
    }
    map
}

/// `span`'s duration minus the union of its children's intervals, each
/// clipped to `span`'s own interval.
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.duration_ns() - covered
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(&span(1, ROOT, 10, 110), &[]), 100);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let parent = span(1, ROOT, 0, 100);
        let kids = [span(2, 1, 10, 20), span(3, 1, 50, 80)];
        assert_eq!(self_time_ns(&parent, &kids), 100 - 10 - 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        let parent = span(1, ROOT, 0, 100);
        // Two concurrent children covering [10, 60) together, plus a nested one.
        let kids = [span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 35, 45)];
        assert_eq!(self_time_ns(&parent, &kids), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = span(1, ROOT, 100, 200);
        let kids = [span(2, 1, 50, 120), span(3, 1, 190, 260), span(4, 1, 300, 400)];
        assert_eq!(self_time_ns(&parent, &kids), 100 - 20 - 10);
    }

    #[test]
    fn fully_covered_parent_has_no_self_time() {
        let parent = span(1, ROOT, 0, 100);
        assert_eq!(self_time_ns(&parent, &[span(2, 1, 0, 100)]), 0);
    }

    #[test]
    fn timed_records_parent_links() {
        let trace = Trace::default();
        let inner = timed(Some(&trace), "outer", ROOT, 7, |outer| {
            timed(Some(&trace), "inner", outer, 7, |_| outer)
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, inner);
        assert_eq!(spans[1].id, inner);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let by_parent = children_by_parent(&spans);
        assert_eq!(by_parent[&inner].len(), 1);
        // Untraced: nothing recorded, children see ROOT.
        assert_eq!(timed(None, "x", ROOT, 0, |id| id), ROOT);
    }
}
