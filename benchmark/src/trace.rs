//! An in-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its calls into each layer (none are inside the
//! library), kept in memory, and written out as chrome-trace JSON when
//! the run ends.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// One recorded interval. Times are nanoseconds since the recorder's
/// epoch; `end_ns` is `None` while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span belongs to; spans of one op share it.
    pub op: u64,
    /// Display lane: 0 = the caller, `1 + r` = rank `r`, `100 + c` = client `c`.
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// Thread-safe recorder; rank threads inside a job closure and client
/// threads record into the same list.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Pushing and patching one field leave the list valid at every
        // step, so a panic on another thread cannot corrupt it.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span now; returns its id for [`Recorder::end`] and for
    /// children's `parent`.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, op: u64, lane: u32) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            op,
            lane,
        });
        spans.len() - 1
    }

    /// Close span `id` now.
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = Some(end_ns);
    }

    /// Record a span whose interval was measured elsewhere (e.g. by the
    /// service's own `JobStats`).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: Some(end_ns),
            parent,
            op,
            lane,
        });
        spans.len() - 1
    }

    /// `t` as nanoseconds since the epoch, for [`Recorder::record`].
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// All spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap (one span per
/// rank inside a job), so the covered part is the *union* of their
/// intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            children[p].push((s.start_ns, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let Some(end) = s.end_ns else { return 0 };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations (ms) of every closed span called `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end_ns.is_some())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// For each op, the longest closed span called `name` (ms) — the rank
/// that the job waited for.
pub fn max_per_op_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == name && s.end_ns.is_some())
    {
        let d = s.dur_ns() as f64 / 1e6;
        let e = by_op.entry(s.op).or_insert(0.0);
        *e = e.max(d);
    }
    by_op.into_values().collect()
}

/// The spans as a chrome-trace document (`chrome://tracing`, Perfetto):
/// complete events, microsecond timestamps, one `tid` per lane, with
/// the op id, parent and self time in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .filter(|(_, (s, _))| s.end_ns.is_some())
        .map(|(id, (s, self_ns))| {
            Value::obj([
                ("name", Value::str(s.name)),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(s.lane))),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("op", Value::Num(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_us", Value::Num(*self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("displayTimeUnit", Value::str("ms")),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: Some(end),
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: rank 0
            span(20, 60, Some(0)),  // 2: rank 1, overlaps rank 0
            span(80, 120, Some(0)), // 3: child overrunning its parent
            span(25, 30, Some(2)),  // 4: grandchild, no effect on the root
        ];
        let selfs = self_times_ns(&spans);
        // Root: 100 − |[10,60) ∪ [80,100)| = 100 − 70.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 35);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn open_spans_have_no_self_time_and_cover_nothing() {
        let mut spans = vec![span(0, 50, None), span(10, 20, Some(0))];
        spans[1].end_ns = None;
        assert_eq!(self_times_ns(&spans), vec![50, 0]);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let rec = Recorder::new();
        let job = rec.begin("job", None, 7, 0);
        let child = rec.begin("rank", Some(job), 7, 1);
        rec.end(child);
        rec.end(job);
        let spans = rec.snapshot();
        assert_eq!(spans[child].parent, Some(job));
        assert_eq!(spans[child].op, 7);
        assert!(spans[job].end_ns.unwrap() >= spans[child].end_ns.unwrap());
        let doc = chrome_trace(&spans);
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn max_per_op_takes_the_slowest_rank() {
        let mut a = span(0, 3_000_000, None);
        let mut b = span(0, 5_000_000, None);
        let mut c = span(0, 1_000_000, None);
        (a.op, b.op, c.op) = (1, 1, 2);
        assert_eq!(max_per_op_ms(&[a, b, c], "s"), vec![5.0, 1.0]);
    }
}
