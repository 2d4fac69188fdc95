//! Outside-in tracing: spans the benchmark records around its own calls
//! into each layer's public functions. Spans stay in memory and are
//! written when the run ends, as a Perfetto (Chrome JSON) trace and as
//! a per-span-name summary of self time.

use hierbus::campaign::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on a track (a thread of the
/// benchmark or of a worker pool), nested under `parent`, tagged with
/// the operation (`req`) it served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder with one time origin, shared by the benchmark's
/// threads and the pool workers. It takes a lock once per span, which
/// is cheap because spans wrap calls of microseconds or more, never
/// per-cycle work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (the handle
    /// children name as their parent).
    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserves a span index before its children run; [`Tracer::finish`]
    /// sets its end.
    pub fn open(&self, name: &'static str, track: u32, parent: Option<usize>, req: u64) -> usize {
        let now = self.now_ns();
        self.push(Span {
            name,
            track,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        })
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn finish(&self, id: usize) {
        let now = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id].end_ns = now;
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        track: u32,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            track,
            start_ns,
            end_ns,
            parent,
            req,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span buffer poisoned")
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that the union of its children covers. Overlapping
/// children (parallel workers) are counted once; children reaching
/// outside the parent are clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(name, count, total_ns, self_ns)`, largest self
/// time first.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_ns(), own)),
        }
    }
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// The Perfetto-loadable Chrome trace-event document: one complete
/// (`"ph":"X"`) event per span, in µs, plus a name per track. Written
/// line by line rather than as a JSON tree, since a traced serve run
/// holds ~10^5 spans. Span and track names are identifiers and need no
/// escaping.
pub fn perfetto(spans: &[Span], tracks: &[(u32, &str)]) -> String {
    use std::fmt::Write;
    let mut doc = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |doc: &mut String| {
        if !std::mem::take(&mut first) {
            doc.push_str(",\n");
        }
    };
    for (tid, name) in tracks {
        sep(&mut doc);
        let _ = write!(
            doc,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (i, sp) in spans.iter().enumerate() {
        sep(&mut doc);
        let parent = sp
            .parent
            .map_or(String::new(), |p| format!(",\"parent\":{p}"));
        let _ = write!(
            doc,
            "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"req\":{}{parent}}}}}",
            sp.name,
            Json::Num(sp.start_ns as f64 / 1e3).to_string_compact(),
            Json::Num(sp.dur_ns() as f64 / 1e3).to_string_compact(),
            sp.track,
            sp.req,
        );
    }
    doc.push_str("\n]}\n");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            track: 0,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,30) > b [12,20); root > c [50,60).
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(12, 20, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
        // Self times on one track add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel workers under one root: [10,60) and [40,90)
        // cover [10,90), so the root keeps 20 of its 100 ns.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
        // A child reaching past its parent is clipped to it.
        let spans = vec![span(0, 50, None), span(40, 80, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in an earlier sibling adds nothing.
        let spans = vec![
            span(0, 100, None),
            span(10, 80, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn by_name_groups_and_ranks_by_self_time() {
        let mut spans = vec![span(0, 100, None), span(0, 90, Some(0))];
        spans[1].name = "child";
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("child", 1, 90, 90));
        assert_eq!(rows[1], ("s", 1, 100, 10));
    }

    #[test]
    fn tracer_records_parent_links() {
        let t = Tracer::new();
        let root = t.open("root", 0, None, 7);
        let v = t.time("child", 0, Some(root), 7, || 41 + 1);
        t.finish(root);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let doc = Json::parse(&perfetto(&spans, &[(0, "client")])).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(0.0))
        );
    }
}
