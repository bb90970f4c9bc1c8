//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span's name is `<layer>.<what>`: `bench` for the benchmark's phases,
//! `serve`, `feather` and `layoutloop` for calls into those crates. Spans
//! stay in memory and are written out once, when the run ends. A disabled
//! tracer records nothing; the timings the metrics need are taken either
//! way.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle of a recorded span: its index in the tracer.
pub type SpanId = usize;

/// One span: `[start, end)` relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, in nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// The request this span belongs to, shared by all of its spans.
    pub request: Option<u64>,
}

/// An in-memory span recorder with a stack of open phases.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
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

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a phase; spans recorded until [`Tracer::close`] nest inside.
    pub fn open(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.ns(Instant::now());
            let id = self.push(name, now, now, None);
            self.open.push(id);
        }
    }

    /// Closes the innermost open phase.
    pub fn close(&mut self) {
        if self.enabled {
            let id = self.open.pop().expect("close matches an open");
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` as a leaf span inside the innermost open phase and returns
    /// its result with its wall time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(name, start, end, None);
        (result, end - start)
    }

    /// Records a span measured elsewhere, inside the innermost open phase.
    /// Returns its id, for children added with [`Tracer::record_in`].
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> Option<SpanId> {
        self.enabled.then(|| {
            let (start, end) = (self.ns(start), self.ns(end));
            self.push(name, start, end, request)
        })
    }

    /// Records a child of `parent` (a span from [`Tracer::record`]).
    pub fn record_in(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if let Some(parent) = parent {
            let request = self.spans[parent].request;
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent: Some(parent),
                request,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, request: Option<u64>) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: self.open.last().copied(),
            request,
        });
        self.spans.len() - 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Self time per layer, in milliseconds: each span's duration minus the
    /// part of it its children cover, summed over the layer's spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *by_layer.entry(layer(span.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 120)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 30 + 10 + 10);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let mut tr = Tracer::new(true);
        let t0 = tr.origin;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let parent = tr.record("serve.request", ms(0), ms(10), Some(7));
        tr.record_in(parent, "serve.queue", ms(0), ms(4));
        tr.record_in(parent, "bench.gen_lag", ms(4), ms(5));
        let layers = tr.self_ms_by_layer();
        assert!((layers["serve"] - (5.0 + 4.0)).abs() < 1e-9);
        assert!((layers["bench"] - 1.0).abs() < 1e-9);
        assert!(tr.spans().iter().all(|s| s.request == Some(7)));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.open("bench.phase");
        let (v, _) = tr.time("feather.replay", || 3);
        tr.close();
        assert_eq!(v, 3);
        assert!(tr.spans().is_empty());
    }
}
