//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as `trace.json` when a traced run ends.
//!
//! A span has a name, a start and an end (ns since the recorder was
//! made), the span that caused it, and the request it belongs to. A
//! span's *self time* is its duration minus the part of that interval
//! its child spans cover; children may overlap each other.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one request (frame, simulate call, probe) share this.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans while switched on; a switched-off recorder drops
/// them, which is how the end-to-end runs measure with spans off.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was made.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent,
    /// or `None` while the recorder is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` and records it as a root span of `request`.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, self.ns(t0), self.ns(t1), None, request);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: how many, their summed duration and summed self time.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    out
}

/// Renders the trace document: run metadata plus every span.
pub fn trace_json(meta: &[(&str, String)], spans: &[Span]) -> String {
    let mut out = String::from("{\"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json::string(k), json::string(v)));
    }
    out.push_str("},\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}\n",
            json::string(s.name),
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            // Overlaps the previous child: 20..30 is counted once.
            span(20, 50, Some(0)),
            // Sticks out of the parent: clipped to 90..100.
            span(90, 120, Some(0)),
            // A grandchild does not count against the root.
            span(12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn children_that_tile_the_parent_leave_no_self_time() {
        let spans = vec![
            span(5, 45, None),
            span(5, 15, Some(0)),
            span(15, 40, Some(0)),
            span(40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_drops_spans_while_off() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.record("a", 0, 1, None, 0), None);
        rec.set_on(true);
        assert_eq!(rec.record("b", 0, 1, None, 7), Some(0));
        assert_eq!(rec.time("c", 8, || 3), 3);
        assert_eq!(rec.spans().len(), 2);
        assert!(rec.spans()[1].end_ns >= rec.spans()[1].start_ns);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut spans = vec![span(0, 10, None), span(2, 6, Some(0)), span(20, 25, None)];
        spans[1].name = "kid";
        let s = summarize(&spans);
        assert_eq!(s["t"], (2, 15, 11));
        assert_eq!(s["kid"], (1, 4, 4));
    }

    #[test]
    fn trace_document_is_well_formed_json() {
        let spans = vec![span(0, 10, None), span(2, 6, Some(0))];
        let doc = trace_json(&[("workload", "a \"quoted\"\nname".to_string())], &spans);
        json::validate(&doc).expect("trace.json parses");
        json::validate(&trace_json(&[], &[])).expect("empty trace parses");
    }
}
