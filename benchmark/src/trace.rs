//! In-memory spans around the calls the bench makes into each crate's public
//! API.  A span is a name, a start, an end, the span that caused it and the
//! op it belongs to; nothing is written until the run ends.  Self time is a
//! span's duration minus what its direct children cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; [`ROOT`] for "no parent".
pub type SpanId = u32;

/// Parent of top-level spans.
pub const ROOT: SpanId = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one op (one deploy, one burst, one probe repetition) share it.
    pub op: u32,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one run.  A disabled tracer records nothing, so the
/// workloads call it unconditionally and an untraced block pays one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.  The store is sized up front
    /// so recording inside a measured op does not reallocate.
    pub fn new() -> Tracer {
        Tracer { enabled: true, origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    /// A tracer that ignores every call.
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span.
    pub fn end(&mut self, id: SpanId) {
        if id == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Give a span another name, once the call it covers has shown what it was.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != ROOT {
            self.spans[id as usize].name = name;
        }
    }

    /// Record `f` as one span and hand back its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in microseconds of the spans called `name`, grouped by op.
    pub fn durations_us(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            by_op.entry(span.op).or_default().push(span.dur_ns() as f64 / 1e3);
        }
        by_op
    }

    /// Self times in microseconds of the spans called `name`, grouped by op:
    /// a span's duration minus the durations of its direct children.
    pub fn self_times_us(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != ROOT {
                *child_ns.entry(span.parent).or_default() += span.dur_ns();
            }
        }
        let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let children = child_ns.get(&(i as SpanId)).copied().unwrap_or(0);
            by_op
                .entry(span.op)
                .or_default()
                .push(span.dur_ns().saturating_sub(children) as f64 / 1e3);
        }
        by_op
    }

    /// The spans as a JSON array, written next to the result file.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut m = BTreeMap::new();
                    m.insert("name".to_string(), Value::Str(s.name.to_string()));
                    m.insert("start_ns".to_string(), Value::Num(s.start_ns as f64));
                    m.insert("end_ns".to_string(), Value::Num(s.end_ns as f64));
                    let parent = if s.parent == ROOT { -1.0 } else { f64::from(s.parent) };
                    m.insert("parent".to_string(), Value::Num(parent));
                    m.insert("op".to_string(), Value::Num(f64::from(s.op)));
                    Value::Obj(m)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", ROOT, 0);
        let inner = t.begin("inner", outer, 0);
        let leaf = t.begin("leaf", inner, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(leaf);
        t.end(inner);
        t.end(outer);
        let outer_self = t.self_times_us("outer")[&0][0];
        let outer_dur = t.durations_us("outer")[&0][0];
        let inner_dur = t.durations_us("inner")[&0][0];
        assert!(inner_dur >= 2000.0);
        assert!((outer_self - (outer_dur - inner_dur)).abs() < 1e-6);
        // the grandchild is charged to `inner`, not subtracted from `outer` twice
        assert!(t.self_times_us("inner")[&0][0] < inner_dur);
    }
}
