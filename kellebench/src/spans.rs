//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A disabled [`Tracer`] records nothing and reads no clock, so the
//! untraced runs that give the end-to-end numbers pay one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded call: times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or benchmark phase the span wraps.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Benchmark request index the call served, if any.
    pub request: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.  Spans nest strictly (one thread), so the innermost open
/// span is the parent of the next one entered.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, request);
        let result = f();
        self.exit(id);
        result
    }

    /// Every span recorded so far, in the order they were entered.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let child = &spans[k];
                    (
                        child.start_ns.max(span.start_ns),
                        child.end_ns.min(span.end_ns),
                    )
                })
                .filter(|(start, end)| end > start)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: how many spans, and their total self time in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// The root span (no parent) that `index` descends from.
pub fn root_of(spans: &[Span], mut index: usize) -> usize {
    while let Some(parent) = spans[index].parent {
        index = parent;
    }
    index
}

/// Writes `spans` as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_children_only() {
        // serve [0, 100) holds pump [10, 40) and pump [50, 90); the first
        // pump holds sink [20, 25).
        let spans = vec![
            span("serve", 0, 100, None),
            span("pump", 10, 40, Some(0)),
            span("sink", 20, 25, Some(1)),
            span("pump", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["pump"], (2, 65));
        assert_eq!(by_name["serve"], (1, 30));
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(root_of(&spans, 2), 0);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("round", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
        ];
        // Children cover [100, 160) of the parent.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.scope("pump", Some(3), || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_spans_under_the_open_one() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("serve", None);
        tracer.scope("submit", Some(4), || ());
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(4));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_json(spans).starts_with("[{\"name\":\"serve\""));
    }
}
