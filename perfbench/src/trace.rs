//! In-memory spans recorded by the benchmark around its calls into each
//! layer (nothing inside the program is instrumented). A disabled tracer
//! records nothing, so the untraced phases pay one branch per call site.

use eraser_json::Value;
use std::time::Instant;

/// Spans beyond this many are timed and counted but not kept, bounding
/// the memory and output size of traces over millions of calls.
const MAX_SPANS: usize = 20_000;

/// Handle of an open span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

/// The handle of a span timed but not kept (the tracer was full).
const DROPPED: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after the layer call it wraps.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        if self.spans.len() >= MAX_SPANS {
            // Pay the same clock reads as a kept span, so a traced phase
            // costs the same throughout and its overhead is measured.
            std::hint::black_box(start_ns);
            self.dropped += 1;
            return Some(DROPPED);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            if let Some(span) = self.spans.get_mut(i) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Every span as `{name, start_ns, end_ns, parent, workload}`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut v = Value::object();
                v.set("name", s.name);
                v.set("start_ns", s.start_ns);
                v.set("end_ns", s.end_ns);
                v.set("parent", s.parent.map_or(Value::Null, Value::from));
                v.set("workload", self.workload);
                v
            })
            .collect();
        let mut v = Value::object();
        v.set("spans", Value::Array(spans));
        v.set("dropped", self.dropped);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_spans_keep_their_parent() {
        let mut t = Tracer::new("w");
        assert_eq!(t.begin("x", None), None);
        t.set_on(true);
        let root = t.begin("root", None);
        let a = t.begin("a", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        assert!(t.spans[1].end_ns - t.spans[1].start_ns >= 2_000_000);
        let json = t.to_json().to_string();
        assert!(json.contains(r#""name":"a""#) && json.contains(r#""parent":0"#));
        assert!(json.contains(r#""workload":"w""#));
    }

    #[test]
    fn a_full_tracer_still_times_and_counts() {
        let mut t = Tracer::new("w");
        t.set_on(true);
        for _ in 0..MAX_SPANS + 5 {
            let id = t.begin("s", None);
            t.end(id);
        }
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert_eq!(t.dropped, 5);
        assert_eq!(t.begin("s", None), Some(DROPPED));
    }
}
