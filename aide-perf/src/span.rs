//! Bench-side spans: one record per call into a layer, held in memory and
//! written out as a Chrome trace-event file when the run ends.
//!
//! The spans are taken around public calls from the benchmark's own code
//! (the program itself is not instrumented by this change), so they show
//! the structure of a pass — which call, for how long, under which parent —
//! while the differential ladder of each workload supplies the splits that
//! cannot be seen from outside a single `run()`.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span on the same lane, if any.
    pub parent: Option<usize>,
    /// Which measured pass the span belongs to.
    pub pass: u32,
    /// Thread lane (0 for the main thread, client index + 1 otherwise).
    pub lane: u32,
}

/// Collects spans for one thread lane. A disabled tracer records nothing,
/// so the untraced passes run the same code path minus the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u32,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            lane: 0,
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread sharing this one's clock origin.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            lane,
            pass: self.pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a forked tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            pass: self.pass,
            lane: self.lane,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Microseconds of each span that its direct children cover.
    fn child_us(&self) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        child_us
    }

    /// Self time per span name, in seconds: a span's duration minus the part
    /// its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(self.child_us()) {
            *by_name.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us - covered) / 1e6;
        }
        by_name
    }

    /// Share of the root spans' time that no child span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let (mut total, mut bare) = (0.0, 0.0);
        for (s, covered) in self.spans.iter().zip(self.child_us()) {
            if s.parent.is_none() {
                total += s.end_us - s.start_us;
                bare += s.end_us - s.start_us - covered;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            100.0 * bare / total
        }
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, one thread lane per tracer lane.
    pub fn chrome_trace(&self) -> serde_json::Value {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": 1,
                    "tid": s.lane,
                    "args": {"id": i, "parent": s.parent, "pass": s.pass},
                })
            })
            .collect();
        serde_json::json!({"displayTimeUnit": "ms", "traceEvents": events})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        t.span("pass", |t| {
            t.span("app", |_| std::thread::sleep(Duration::from_millis(4)));
            t.span("app", |_| std::thread::sleep(Duration::from_millis(4)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_us >= s.start_us));
        let own = t.self_seconds();
        assert!(own["app"] >= 0.008, "{own:?}");
        assert!(own["pass"] < own["app"], "{own:?}");
        assert!(t.unattributed_pct() < 50.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_body() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.unattributed_pct(), 0.0);
    }

    #[test]
    fn forked_lanes_merge_with_rebased_parents() {
        let mut main = Tracer::new(true);
        main.span("setup", |_| ());
        let mut lane = main.fork(2);
        lane.span("session", |t| t.span("run", |_| ()));
        main.absorb(lane);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].lane, spans[1].parent), (2, None));
        assert_eq!(spans[2].parent, Some(1));
        let doc = main.chrome_trace();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 3);
        assert_eq!(doc["traceEvents"][2]["args"]["parent"], 1u64);
        assert_eq!(doc["traceEvents"][1]["tid"], 2u64);
    }
}
