//! Spans recorded by the replay, from outside the program: one per call into
//! a layer, held in memory and written out when the benchmark ends.
//!
//! The replay is single-threaded, so spans nest strictly: a span's parent is
//! the span that was open when it began, and its self time is its duration
//! minus the time its direct children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The mega-batch cycle (or request chunk) this call belongs to.
    pub cycle: u32,
    /// A probe re-runs, at the same shapes, a kernel the program ran inside
    /// one of its own calls: it names that time but is not part of the
    /// re-enacted run.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    pub self_s: f64,
    pub calls: u64,
    pub probe: bool,
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub cycle: u32,
}

impl Recorder {
    /// With `enabled` false every `span` call just runs its closure: the
    /// untraced replay that the tracing overhead is measured against.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through the
    /// recorder it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.record(name, false, f)
    }

    /// [`Recorder::span`] for a kernel probe (see [`Span::probe`]).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        probe: bool,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cycle: self.cycle,
            probe,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host seconds since the recorder was made.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// Self time of every span: duration minus what its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time and calls summed by span name.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, Busy> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let b = out.entry(s.name).or_default();
        b.self_s += ns as f64 * 1e-9;
        b.calls += 1;
        b.probe = s.probe;
    }
    out
}

/// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(if s.probe { "probe" } else { "run" })),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("cycle", Json::Num(s.cycle as f64)),
                        ("layer", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("otherData", Json::obj([("workload", Json::str(workload))])),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cycle: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 holds a 10..40 (which holds a1 15..25) and, right
        // after it, b 40..70; c 100..130 is a sibling of root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 40, 70, Some(0)),
            span("c", 100, 130, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 30]);
        // Self times partition the covered wall: nothing is counted twice.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 130);
    }

    #[test]
    fn busy_sums_self_time_and_calls_per_name() {
        let spans = vec![
            span("step", 0, 50, None),
            span("gemm", 10, 30, Some(0)),
            span("step", 50, 90, None),
            span("gemm", 60, 70, Some(2)),
        ];
        let busy = busy_by_name(&spans);
        assert_eq!(busy["step"].calls, 2);
        assert!((busy["step"].self_s - 60e-9).abs() < 1e-15);
        assert!((busy["gemm"].self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        r.cycle = 3;
        let v = r.span("outer", |r| r.probe("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].probe), ("outer", None, false));
        assert_eq!((s[1].name, s[1].parent, s[1].cycle), ("inner", Some(0), 3));
        assert!(s[1].probe && busy_by_name(s)["inner"].probe);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_carries_parent_and_cycle() {
        let spans = vec![span("core.merge", 1_000, 3_000, None)];
        let t = chrome_trace(&spans, "w").to_line();
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ts\":1,\"dur\":2"));
        assert!(t.contains("\"cat\":\"run\""));
        assert!(t.contains("\"layer\":\"core\""));
        assert!(t.contains("\"parent\":null"));
    }
}
