//! Client-side spans around the calls into each layer (spans inside the
//! library are a later change). Kept in memory per thread, merged and
//! written to `bench_out/trace-<workload>.json` when the run ends. A
//! disabled tracer takes no timestamps, so the gated runs pay nothing.

use crate::json::Json;
use std::time::Instant;

/// One closed interval. `req` is the request (window, read group, restart)
/// the span belongs to; `parent` indexes the causing span in the same
/// thread's list.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// A per-thread span recorder; all tracers of a run share one `origin`.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer stamping spans relative to `origin`; disabled with `None`.
    pub fn new(origin: Option<Instant>) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> Option<u64> {
        self.origin.map(|o| o.elapsed().as_nanos() as u64)
    }

    /// Opens a span; a no-op returning a dummy id when disabled.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let Some(start_ns) = self.now_ns() else { return SpanId(0) };
        self.spans.push(Span {
            name,
            req,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(end_ns) = self.now_ns() {
            self.spans[id.0].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f(self, id);
        self.close(id);
        out
    }
}

/// Total and self time of every span name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTimes {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the part child spans cover.
    pub self_s: f64,
}

/// The merged spans of one run.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        if !tracer.spans.is_empty() {
            self.threads.push(tracer.spans);
        }
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Per-name totals, in first-seen order.
    pub fn by_name(&self) -> Vec<NameTimes> {
        let mut out: Vec<NameTimes> = Vec::new();
        for spans in &self.threads {
            let mut covered = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    covered[p] += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in spans.iter().zip(covered) {
                let dur = s.end_ns - s.start_ns;
                let entry = match out.iter_mut().find(|e| e.name == s.name) {
                    Some(e) => e,
                    None => {
                        out.push(NameTimes { name: s.name, count: 0, total_s: 0.0, self_s: 0.0 });
                        out.last_mut().expect("just pushed")
                    }
                };
                entry.count += 1;
                entry.total_s += dur as f64 / 1e9;
                entry.self_s += dur.saturating_sub(covered) as f64 / 1e9;
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let summary = self
            .by_name()
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("name", Json::str(e.name)),
                    ("count", e.count.into()),
                    ("total_s", e.total_s.into()),
                    ("self_s", e.self_s.into()),
                ])
            })
            .collect();
        let spans = self
            .threads
            .iter()
            .enumerate()
            .flat_map(|(t, spans)| {
                spans.iter().enumerate().map(move |(i, s)| {
                    Json::obj([
                        ("thread", t.into()),
                        ("id", i.into()),
                        ("parent", s.parent.map_or(Json::Null, Into::into)),
                        ("req", Json::Num(s.req as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
            })
            .collect();
        Json::obj([("summary", Json::Arr(summary)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Some(Instant::now()));
        // hand-set times: window 0..100, build 0..30, await 40..90
        let w = t.open("window", 7, None);
        let b = t.open("window.build", 7, Some(w));
        let a = t.open("window.await", 7, Some(w));
        for (id, start, end) in [(w, 0, 100), (b, 0, 30), (a, 40, 90)] {
            t.spans[id.0].start_ns = start;
            t.spans[id.0].end_ns = end;
        }
        let mut trace = Trace::default();
        trace.absorb(t);
        trace.absorb(Tracer::new(None));
        assert_eq!(trace.span_count(), 3);
        let times = trace.by_name();
        assert_eq!(times[0].name, "window");
        assert!(
            (times[0].self_s - 20e-9).abs() < 1e-15 && (times[0].total_s - 100e-9).abs() < 1e-15
        );
        assert!((times[2].self_s - 50e-9).abs() < 1e-15 && times[2].name == "window.await");
        let json = trace.to_json();
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(Json::parse(&json.pretty()).unwrap(), json);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(None);
        let got = t.within("x", 0, None, |t, id| t.within("y", 0, Some(id), |_, _| 5));
        assert_eq!(got, 5);
        assert!(t.spans.is_empty());
    }
}
