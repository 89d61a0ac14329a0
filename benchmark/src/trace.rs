//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory during the traced round and flushed as one
//! JSON object per line when the benchmark ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The op this span belongs to: all spans of one op share it.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit its name implies
    /// (calls, candidate pairs, command lists).
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open. `f` returns its result and the span's work count.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Self) -> (R, u64),
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        let (result, count) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.id, parent, s.name, s.op, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

/// Per span name: how many spans, their summed self time and work count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    pub self_ns: u64,
    pub count: u64,
}

impl NameTotals {
    /// Self time per unit of counted work, in microseconds.
    pub fn us_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps merged).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        t.count += s.count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_and_nested_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            // Two adjacent children, one with a grandchild.
            span(1, Some(0), "call", 10, 40),
            span(2, Some(0), "replay", 40, 90),
            span(3, Some(2), "inner", 50, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].self_ns, 100 - 30 - 50);
        assert_eq!(t["call"].self_ns, 30);
        assert_eq!(t["replay"].self_ns, 50 - 20);
        assert_eq!(t["inner"].self_ns, 20);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = [
            span(0, None, "op", 10, 50),
            span(1, Some(0), "a", 0, 30),
            span(2, Some(0), "b", 20, 60),
        ];
        // Children cover all of [10, 50] once merged and clipped.
        assert_eq!(self_times(&spans)["op"].self_ns, 0);
    }

    #[test]
    fn tracer_nests_spans_and_serializes_one_per_line() {
        let mut tr = Tracer::new();
        tr.span("op", 7, |tr| {
            tr.span("call", 7, |_| ((), 1));
            tr.span("replay", 7, |_| ((), 64));
            ((), 1)
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(s[2].count, 64);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
        assert!(text.lines().all(|l| l.contains("\"op\": 7")));
    }
}
