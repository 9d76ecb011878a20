//! In-memory spans for the traced pass. A span is recorded at every
//! boundary the benchmark itself calls across; spans inside the product
//! crates are a later change. Written out as Chrome trace-event JSON when
//! the run ends (`--trace-out`).

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one traced iteration share this id.
    pub iter: u32,
    /// A sampled span stands for this many like it (1 = recorded in full).
    pub weight: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    iter: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            iter: 0,
            spans: Vec::new(),
        }
    }

    /// Starts the next iteration: later spans carry a fresh shared id.
    pub fn next_iter(&mut self) {
        self.iter += 1;
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.add_ns(name, self.at(start), self.at(end), parent, 1)
    }

    pub fn add_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        weight: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: self.iter,
            weight,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(name, t0, Instant::now(), parent);
        r
    }

    /// Per span, the (weighted) time its children cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns() * s.weight;
            }
        }
        covered
    }

    /// Self time of span `i`: its duration minus what its children cover
    /// (a sampled child counts `weight` times). Never negative.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns().saturating_sub(self.covered()[i])
    }

    /// Total (weighted) nanoseconds of the children of `parent` named `name`.
    pub fn child_ns(&self, parent: usize, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.dur_ns() * s.weight)
            .sum()
    }

    /// The spans as a Chrome trace-event document (complete events, µs).
    pub fn to_chrome_json(&self) -> Json {
        let covered = self.covered();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.iter as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("weight", Json::Num(s.weight as f64)),
                            (
                                "self_us",
                                Json::Num(s.dur_ns().saturating_sub(covered[i]) as f64 / 1e3),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_weighted_children() {
        let mut t = Tracer::new();
        let root = t.add_ns("root", 0, 1000, None, 1);
        let a = t.add_ns("a", 100, 400, Some(root), 1);
        t.add_ns("b", 500, 510, Some(root), 20); // sampled: stands for 200 ns
        t.add_ns("leaf", 150, 250, Some(a), 1);
        assert_eq!(t.self_ns(root), 1000 - 300 - 200);
        assert_eq!(t.self_ns(a), 200);
        assert_eq!(t.child_ns(root, "b"), 200);
        // Over-covering children clamp at zero instead of wrapping.
        t.add_ns("c", 0, 900, Some(root), 1);
        assert_eq!(t.self_ns(root), 0);
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent_and_iteration() {
        let mut t = Tracer::new();
        let root = t.span("outer", None, || 7);
        assert_eq!(root, 7);
        t.next_iter();
        t.add_ns("inner", 10_000, 12_500, Some(0), 1);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").unwrap().num(), Some(2.5));
        assert_eq!(events[1].get("tid").unwrap().num(), Some(1.0));
        assert_eq!(
            events[1].get("args").unwrap().get("parent").unwrap().num(),
            Some(0.0)
        );
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
