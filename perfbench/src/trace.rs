//! In-memory spans recorded from the benchmark's own code around its calls
//! into each layer. Spans are kept in memory during the traced pass and
//! folded into per-layer figures when it ends; nothing is written while
//! the workload runs.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent link of its children.
pub type SpanId = usize;

/// One timed call: a name, its interval in nanoseconds since the tracer's
/// origin, and the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.step` or `apps.evaluate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. A span is reserved when it opens (so
/// children can name it as their parent) and completed when it closes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Closes span `id` at the current time.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (work
/// measured on several threads); overlapping cover is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            // Clip to the parent: only cover inside its interval counts.
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut cover)| {
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (start, end) in cover {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("session", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("eval", 15, 20, Some(1)),
            span("step", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 5, 5, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span("batch", 100, 200, None),
            span("worker", 90, 150, Some(0)),
            span("worker", 120, 170, Some(0)),
            span("worker", 190, 260, Some(0)),
        ];
        // Cover: [100, 170) and [190, 200) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorded_spans_nest_through_parent_links() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None);
        let child = tracer.span("child", Some(root), || {
            let id = tracer.open("leaf", None);
            tracer.close(id);
            id
        });
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].name, spans[1].parent), ("child", Some(root)));
        assert_eq!((spans[child].name, spans[child].parent), ("leaf", None));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert!(own.iter().zip(&spans).all(|(&t, s)| t <= s.duration_ns()));
    }
}
