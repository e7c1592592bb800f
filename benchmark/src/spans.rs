//! The traced pass's span log: one span per call into a layer, kept in
//! memory and written as JSON lines when the run ends.
//!
//! Spans are recorded here, around the calls the benchmark makes (and from
//! the events the crates' existing sinks hand back); nothing inside `crates/`
//! is instrumented by this package.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval on the run's clock, in microseconds since the log
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one request / inference / simulation run.
    pub request: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the log was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// `instant` on the log's clock.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a closed span and returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<u64>,
        request: Option<u64>,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.into(),
            start_us,
            end_us,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by span index: its duration minus the part
    /// of that interval its children cover (overlapping children are counted
    /// once, and a child is clipped to its parent).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .map(|span| {
                let covered = children
                    .get_mut(&span.id)
                    .map_or(0.0, |kids| covered_us(kids, span.start_us, span.end_us));
                span.duration_us() - covered
            })
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            // Span names are layer names and kernel labels from this
            // workspace: ASCII without quotes or backslashes.
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.id,
                opt(span.parent),
                opt(span.request),
                span.name,
                span.start_us,
                span.end_us
            )
            .expect("writing to a String");
        }
        out
    }
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span times"));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.push("request", None, Some(7), 0.0, 100.0);
        // Two overlapping children cover [10, 50]; one sticks out past the
        // parent and is clipped to [90, 100].
        let a = log.push("a", Some(root), Some(7), 10.0, 40.0);
        log.push("b", Some(root), Some(7), 30.0, 50.0);
        log.push("c", Some(root), Some(7), 90.0, 120.0);
        // A grandchild only reduces its own parent's self time.
        log.push("a1", Some(a), Some(7), 10.0, 25.0);
        let own = log.self_times_us();
        assert_eq!(own[root as usize], 100.0 - 40.0 - 10.0);
        assert_eq!(own[a as usize], 15.0);
        assert_eq!(own[2], 20.0);
        assert_eq!(own[4], 15.0);
    }

    #[test]
    fn children_that_tile_leave_no_self_time() {
        let mut log = SpanLog::new();
        let root = log.push("request", None, Some(1), 5.0, 35.0);
        let mut at = 5.0;
        for (name, len) in [
            ("lag", 1.0),
            ("queue", 20.0),
            ("service", 6.0),
            ("wire", 3.0),
        ] {
            log.push(name, Some(root), Some(1), at, at + len);
            at += len;
        }
        assert!(log.self_times_us()[root as usize].abs() < 1e-9);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut log = SpanLog::new();
        let root = log.push("nn.infer", None, Some(3), 1.0, 9.5);
        log.push("conv2[packed-avx2]", Some(root), Some(3), 2.0, 4.25);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = serde_json::from_str_value(lines[1]).expect("valid JSON");
        assert_eq!(child.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(child.get("end_us").and_then(|v| v.as_f64()), Some(4.25));
    }
}
