//! Spans recorded from outside the program, around the calls into each
//! layer. A repetition opens a handful of them, so they are always kept;
//! what a traced repetition adds is the counting allocator and the file.

use crate::json::Json;
use std::time::Instant;

/// One timed interval: a call into a layer, or a phase that groups calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created (process start).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Allocator calls and bytes requested while the span was open; 0
    /// unless the repetition is traced.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of whichever span is open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let (allocs, alloc_bytes) = crate::alloc::totals();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs,
            alloc_bytes,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = crate::alloc::totals();
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus what its direct children cover.
pub fn self_time_s(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::duration_s)
        .sum();
    (spans[idx].duration_s() - children).max(0.0)
}

/// Total self time of every span called `name` (0 when the workload never
/// entered that layer).
pub fn self_time_of(spans: &[Span], name: &str) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_time_s(spans, i))
        .sum::<f64>()
        // An empty sum is -0.0, which prints as "-0".
        + 0.0
}

/// Duration of the first span called `name` (0 when there is none).
pub fn duration_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, Span::duration_s)
}

pub fn spans_to_json(spans: &[Span], workload: &str) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("allocs", Json::Num(s.allocs as f64)),
                    ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
                    ("workload", Json::str(workload)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(v: &Json) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: s.get("start_ns")?.as_u64()?,
                end_ns: s.get("end_ns")?.as_u64()?,
                parent: match s.get("parent")? {
                    Json::Null => None,
                    p => Some(p.as_u64()? as usize),
                },
                allocs: s.get("allocs")?.as_u64()?,
                alloc_bytes: s.get("alloc_bytes")?.as_u64()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0, 10 s) > await [1, 7 s) > inner [2, 3 s); run > collect [7, 9 s)
        let spans = vec![
            span("run", 0, 10_000_000_000, None),
            span("await", 1_000_000_000, 7_000_000_000, Some(0)),
            span("inner", 2_000_000_000, 3_000_000_000, Some(1)),
            span("collect", 7_000_000_000, 9_000_000_000, Some(0)),
        ];
        assert_eq!(self_time_s(&spans, 0), 2.0);
        assert_eq!(self_time_s(&spans, 1), 5.0);
        assert_eq!(self_time_s(&spans, 2), 1.0);
        assert_eq!(self_time_of(&spans, "collect"), 2.0);
        assert_eq!(self_time_of(&spans, "absent"), 0.0);
        assert_eq!(duration_of(&spans, "await"), 6.0);
        assert_eq!(duration_of(&spans, "absent"), 0.0);
        let total: f64 = (0..spans.len()).map(|i| self_time_s(&spans, i)).sum();
        assert_eq!(total, 10.0, "self times of a tree add up to the root");
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new(Instant::now());
        let got = rec.span("outer", |rec| {
            rec.span("a", |_| ());
            rec.span("b", |rec| rec.span("c", |_| 5))
        });
        assert_eq!(got, 5);
        let spans = rec.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "a", "b", "c"]);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn spans_survive_the_trip_through_json() {
        let spans = vec![
            span("run", 5, 50, None),
            span("core.metro.await", 6, 40, Some(0)),
        ];
        let text = spans_to_json(&spans, "metro-s1").render();
        let back = spans_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spans);
    }
}
