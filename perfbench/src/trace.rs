//! Span recording around the benchmark's calls into each crate.
//!
//! A span carries a name (`<layer>.<what>`, the layer being the crate
//! the call enters), its start and end relative to the run's origin, its
//! parent span, and the id of the job or query it belongs to. Spans are
//! kept in memory and written out when the run ends. A disabled tracer
//! records nothing, so untraced runs pay only a branch per call.
//!
//! The engine runs on the service's worker thread, out of the
//! benchmark's reach. Its spans are *synthetic*: they are placed inside
//! the client's wait span with the durations `ChaseStats` reports
//! (`wall_us`, `match_time_us`, `core_time_us`), not timestamps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the span's call enters: the name's part before `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-thread span recorder. Ids embed the thread's tag, so the spans
/// of several threads merge without collisions.
pub struct Tracer {
    on: bool,
    origin: Instant,
    tag: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, tag: u64) -> Tracer {
        Tracer {
            on,
            origin,
            tag,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The instant span times count from; tracers of one run share it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn id_of(&self, index: usize) -> u64 {
        (self.tag << 40) | index as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn begin(&mut self, op: u64, name: &'static str) -> Option<u64> {
        if !self.on {
            return None;
        }
        let parent = self.stack.last().map(|&i| self.id_of(i));
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.id_of(index),
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
            synthetic: false,
        });
        self.stack.push(index);
        Some(self.id_of(index))
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = now;
        }
    }

    /// Start time of an already recorded span.
    pub fn start_of(&self, id: u64) -> Option<u64> {
        let index = (id & ((1 << 40) - 1)) as usize;
        self.spans.get(index).map(|s| s.start_ns)
    }

    /// Records a span of known duration under `parent`, starting at
    /// `start_ns`; returns its id.
    pub fn synthetic(
        &mut self,
        op: u64,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.id_of(self.spans.len());
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            synthetic: true,
        });
        id
    }

    /// Hands over the spans recorded so far.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time per layer, summed over every span whose root is an
/// operation span (`bench.job` / `bench.query`): a span's duration
/// minus the part of its interval its children cover.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        if !matches!(root_of(&by_id, s), "bench.job" | "bench.query") {
            continue;
        }
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|k| {
                k.iter()
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

fn root_of<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> &'static str {
    while let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
        s = parent;
    }
    s.name
}

/// Renders spans as JSON Lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"synthetic\":{}}}",
            s.id,
            parent,
            s.op,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.synthetic
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(1, None, "bench.job", 0, 100),
            span(2, Some(1), "service.wait", 10, 90),
            span(3, Some(2), "engine.chase", 10, 70),
            span(4, Some(3), "engine.match", 10, 20),
            span(5, Some(3), "engine.core", 20, 50),
            span(6, None, "bench.replay", 0, 1000),
            span(7, Some(6), "analysis.report", 0, 1000),
        ];
        let selfs = layer_self_ns(&spans);
        assert_eq!(selfs["bench"], 20);
        assert_eq!(selfs["service"], 20);
        // engine: chase self 20 + match 10 + core 30; replay ignored.
        assert_eq!(selfs["engine"], 60);
        assert!(!selfs.contains_key("analysis"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.begin(1, "bench.job"), None);
        t.end();
        assert!(t.take_spans().is_empty());
    }
}
