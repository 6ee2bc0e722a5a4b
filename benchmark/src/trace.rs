//! Spans recorded from the benchmark's side of each call into the
//! engine: name, start, end, the span that caused it, and the request
//! (round or client request) it belongs to. Kept in memory, written to
//! `trace-<workload>.json` when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use uload::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same workload code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// An empty tracer on the same clock, for another thread; its spans
    /// come back through [`Tracer::absorb`].
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans (a traced run leaves
    /// every other round unrecorded to measure what recording costs).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "no span may be open");
        self.enabled = on;
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span called `name`, child of the innermost open span.
    /// Pair with [`Tracer::close`].
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::open`] returned (the innermost open one).
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span called `name` and return its wall time in
    /// milliseconds beside its result. The time is taken whether or not
    /// the tracer records, so one call site serves both kinds of run.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name);
        let t = Instant::now();
        let out = f();
        let ms = crate::engine::ms_since(t);
        self.close(span);
        (out, ms)
    }

    /// Take in the spans of another tracer that shares this one's origin
    /// (a client thread's), keeping their parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
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
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Share of the self time under the spans called `root` that each layer
/// accounts for. A span's layer is its name up to the first
/// `.`; names without one (rounds, phases, kinds) count as `harness`.
pub fn layer_shares(spans: &[Span], root: &str) -> Vec<(String, f64)> {
    let selfs = self_times(spans);
    let mut under_root = vec![false; spans.len()];
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // parents always precede their children
        under_root[i] = s.name == root || s.parent.is_some_and(|p| under_root[p]);
        if under_root[i] {
            let layer = s.name.split_once('.').map_or("harness", |(l, _)| l);
            *by_layer.entry(layer.to_string()).or_default() += selfs[i];
        }
    }
    let total: u64 = by_layer.values().sum();
    by_layer
        .into_iter()
        .map(|(l, ns)| (l, ns as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        // root 0..100
        //   a 10..40          (self 30 - 10 = 20)
        //     a1 15..25
        //   b 30..60          overlaps a on 30..40: union of a,b = 10..60
        //   c 90..120         runs past the root: clipped to 90..100
        // leaf 200..250       no parent, no children
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("leaf", 200, 250, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 20, 10, 30, 30, 50]);
        // everything under `root` is harness time: shares sum to one
        let shares = layer_shares(&spans, "root");
        assert_eq!(shares, vec![("harness".to_string(), 1.0)]);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_request(7);
        let outer = t.open("outer");
        let (v, ms) = t.timed("inner", || 5);
        t.close(outer);
        assert_eq!(v, 5);
        assert!(ms >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut other = t.sibling();
        let x = other.open("x");
        other.timed("y", || ());
        other.close(x);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.timed("outer", || 1).0, 1);
        assert!(off.spans().is_empty());
    }
}
