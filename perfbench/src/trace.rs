//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a static name, monotonic start and end (nanoseconds since the
//! tracer was created), the span that caused it and the op it belongs to.
//! Spans stay in memory until [`Tracer::write_jsonl`] writes them out at
//! exit.  A disabled tracer records nothing, so the untraced run pays one
//! branch per call site.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of an open or closed span (its index in the tracer).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `server.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The op (request, plan, sparsification) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; see the [module docs](self).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when the tracer is disabled.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`] (no-op for `None`).
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span buffer poisoned")[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` receives the span id to parent its own
    /// child spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = String::new();
        for (id, (span, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, largest first (the trace summary the
/// traced run prints).
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let self_ns = self_times(spans);
    let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, ns) in spans.iter().zip(self_ns) {
        match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += ns;
                entry.2 += 1;
            }
            None => totals.push((span.name, ns, 1)),
        }
    }
    totals.sort_by_key(|&(_, self_ns, _)| std::cmp::Reverse(self_ns));
    totals
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),         // 0
            span("a", 10, 30, Some(0)),       // 1
            span("b", 20, 50, Some(0)),       // 2: overlaps a by 10
            span("c", 90, 120, Some(0)),      // 3: overruns its parent
            span("a.child", 12, 18, Some(1)), // 4
            span("unrelated", 0, 1000, None), // 5
        ];
        // op: 100 - |[10,50) ∪ [90,100)| = 100 - 50.
        // a: 20 - 6; b, c, a.child, unrelated: no children.
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 1000]);
    }

    #[test]
    fn self_time_by_name_sums_and_counts() {
        let spans = vec![
            span("op", 0, 10, None),
            span("poll", 2, 4, Some(0)),
            span("op", 20, 30, None),
            span("poll", 21, 22, Some(2)),
            span("poll", 23, 24, Some(2)),
        ];
        let totals = self_time_by_name(&spans);
        assert_eq!(totals, vec![("op", 16, 2), ("poll", 4, 3)]);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", outer, 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
