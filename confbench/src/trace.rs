//! The benchmark's span recorder. Spans are taken only in the benchmark's
//! own code, around each public call into a layer, and kept in memory
//! until the run ends. Times are the benchmark thread's CPU time, like every
//! other time the benchmark reports. With tracing off, `enter`/`exit` do
//! nothing.

use crate::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The client op this span belongs to (shared by every span of it).
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next client op: spans entered from here on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: clock::now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        if let SpanId(Some(idx)) = id {
            self.spans[idx].end_ns = clock::now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }
}

/// Per span name: (count, total ns).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
    }
    out
}

/// A layer's self time: each span's duration minus the part its direct
/// children cover, summed over the spans of that layer (the name up to
/// the first '.'). Returns layer → (spans, total ns, self ns).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(layer).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// The self-time table as text, one row per layer.
pub fn layer_table(spans: &[Span]) -> String {
    let rows = self_time_by_layer(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12} {:>7}",
        "layer", "spans", "total_ms", "self_ms", "self_%"
    );
    for (layer, (n, total, own)) in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
            layer,
            n,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / root_ns.max(1) as f64
        );
    }
    out
}

/// The spans as JSON lines: name, start, end, parent, op id.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        );
    }
    out
}
