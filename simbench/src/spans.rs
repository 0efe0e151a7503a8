//! In-memory span log for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer (generate,
//! `Engine::new`, `Engine::run`, `oracle::verify`, replay, summarise) and
//! the passes and cells around them. They are held in memory and written
//! once, after the run, so writing costs nothing while timing.

use std::collections::BTreeMap;
use std::time::Instant;

use lotec_obs::Json;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or grouping name (`core.engine.run`, `cell`, `pass`, ...).
    pub name: &'static str,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// Cell index the span belongs to, if it belongs to one.
    pub cell: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span storage with one shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<usize>,
    ) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already-finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover, summed over the spans of that name. Children of one
    /// parent run one after another, so their durations do not overlap.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// JSON Lines rendering: one object per span with its id, name,
    /// parent, cell, start and end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::U64(v as u64));
            let line = Json::obj(vec![
                ("id", Json::U64(id as u64)),
                ("name", Json::str(span.name)),
                ("parent", opt(span.parent)),
                ("cell", opt(span.cell)),
                ("start_ns", Json::U64(span.start_ns)),
                ("end_ns", Json::U64(span.end_ns)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = log.record("pass", None, None, at(0), at(100));
        log.record("core.engine.run", Some(root), Some(0), at(10), at(40));
        log.record("core.engine.run", Some(root), Some(1), at(50), at(70));
        let selfs = log.self_ns_by_name();
        assert_eq!(selfs["pass"], 50_000_000);
        assert_eq!(selfs["core.engine.run"], 50_000_000);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
