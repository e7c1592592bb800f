//! Trace identity and trace-forest reconstruction.
//!
//! A *trace* is the causal record of one request's journey through the
//! serving stack; a *span* is one stage of that journey with a parent link.
//! Spans travel as ordinary [`EventKind::TraceSpan`] telemetry events (flat
//! ids and numbers, like every other event), and this module rebuilds the
//! tree structure — a [`TraceForest`] — from a recorded event stream and
//! checks it is well-formed.
//!
//! Everything is stamped with the simulation clock, so a forest rebuilt
//! from a run with the same seed is bit-identical.

use crate::event::{Event, EventKind};
use crate::span::SpanRecord;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one trace (one request). Equal to the request id assigned at
/// workload-generation time, which is unique within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. Span ids are the stage ordinals of
/// [`crate::span::Stage`], so they are deterministic and unique per trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace#{}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// Interval-containment slack when checking that child spans nest inside
/// their parent: generous relative to the sub-nanosecond noise of summing
/// a handful of `f64` stage durations.
pub const NEST_EPS_S: f64 = 1e-6;

/// One reconstructed trace: the spans of a single request, sorted by span
/// id (i.e. by stage ordinal).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    /// The trace id (request id).
    pub id: TraceId,
    /// All spans of this trace, sorted by span id.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The root span (the one without a parent), if the trace has exactly
    /// the expected shape.
    #[must_use]
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// End-to-end duration: the root span's length (0 if malformed).
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.root().map_or(0.0, SpanRecord::duration_s)
    }

    /// Checks this trace is well-formed: exactly one root, every parent
    /// link resolves to a span of the same trace, no duplicate span ids,
    /// no negative durations, and every child interval nests inside its
    /// parent (within [`NEST_EPS_S`]).
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut roots = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[..i].iter().any(|p| p.span == s.span) {
                return Err(TraceError::DuplicateSpan {
                    trace: self.id,
                    span: s.span,
                });
            }
            if s.end_s < s.begin_s - NEST_EPS_S {
                return Err(TraceError::NegativeDuration {
                    trace: self.id,
                    span: s.span,
                });
            }
            match s.parent {
                None => roots += 1,
                Some(p) => {
                    let Some(parent) = self.spans.iter().find(|c| c.span == p) else {
                        return Err(TraceError::OrphanSpan {
                            trace: self.id,
                            span: s.span,
                        });
                    };
                    if s.begin_s < parent.begin_s - NEST_EPS_S
                        || s.end_s > parent.end_s + NEST_EPS_S
                    {
                        return Err(TraceError::EscapesParent {
                            trace: self.id,
                            span: s.span,
                        });
                    }
                }
            }
        }
        match roots {
            1 => Ok(()),
            0 => Err(TraceError::NoRoot { trace: self.id }),
            _ => Err(TraceError::MultipleRoots { trace: self.id }),
        }
    }
}

/// All traces reconstructed from an event stream, sorted by trace id.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TraceForest {
    /// The traces, sorted by [`TraceId`].
    pub traces: Vec<Trace>,
}

impl TraceForest {
    /// Collects every [`EventKind::TraceSpan`] event into per-trace span
    /// lists. Spans arrive in completion order; the result is sorted by
    /// trace id and, within a trace, by span id, so the forest depends only
    /// on the set of spans, not their arrival order.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut traces: Vec<Trace> = Vec::new();
        for e in events {
            if let EventKind::TraceSpan {
                trace,
                span,
                parent,
                stage,
                begin_s,
                device_idx,
            } = &e.kind
            {
                let record = SpanRecord {
                    trace: TraceId(*trace),
                    span: SpanId(*span),
                    parent: parent.map(SpanId),
                    stage: stage.clone(),
                    begin_s: *begin_s,
                    end_s: e.t_s,
                    device_idx: *device_idx,
                };
                match traces.binary_search_by_key(&record.trace, |t| t.id) {
                    Ok(i) => traces[i].spans.push(record),
                    Err(i) => traces.insert(
                        i,
                        Trace {
                            id: record.trace,
                            spans: vec![record],
                        },
                    ),
                }
            }
        }
        for t in &mut traces {
            t.spans.sort_by_key(|s| s.span);
        }
        TraceForest { traces }
    }

    /// Number of traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the forest holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Looks up a trace by id.
    #[must_use]
    pub fn get(&self, id: TraceId) -> Option<&Trace> {
        self.traces
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| &self.traces[i])
    }

    /// Validates every trace; the first malformed trace wins.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.traces.iter().try_for_each(Trace::validate)
    }
}

/// Why a trace is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// No span with `parent: None`.
    NoRoot { trace: TraceId },
    /// More than one span with `parent: None`.
    MultipleRoots { trace: TraceId },
    /// A span's parent id resolves to no span of the same trace.
    OrphanSpan { trace: TraceId, span: SpanId },
    /// Two spans share an id.
    DuplicateSpan { trace: TraceId, span: SpanId },
    /// A span ends before it begins.
    NegativeDuration { trace: TraceId, span: SpanId },
    /// A child interval is not contained in its parent's interval.
    EscapesParent { trace: TraceId, span: SpanId },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NoRoot { trace } => write!(f, "{trace}: no root span"),
            TraceError::MultipleRoots { trace } => write!(f, "{trace}: multiple root spans"),
            TraceError::OrphanSpan { trace, span } => {
                write!(f, "{trace}: {span} references a missing parent")
            }
            TraceError::DuplicateSpan { trace, span } => {
                write!(f, "{trace}: duplicate {span}")
            }
            TraceError::NegativeDuration { trace, span } => {
                write!(f, "{trace}: {span} ends before it begins")
            }
            TraceError::EscapesParent { trace, span } => {
                write!(f, "{trace}: {span} escapes its parent interval")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SinkHandle;
    use crate::span::{Stage, TraceBuilder};

    fn well_formed_events() -> Vec<Event> {
        let (sink, recorder) = SinkHandle::recorder(64);
        TraceBuilder::new(TraceId(7), 2)
            .root(1.0, 1.5)
            .child(Stage::QueueWait, 1.0, 1.2)
            .child(Stage::Compute, 1.2, 1.5)
            .emit(&sink);
        TraceBuilder::new(TraceId(3), 0)
            .root(0.5, 0.9)
            .child(Stage::Compute, 0.5, 0.9)
            .emit(&sink);
        recorder.drain()
    }

    #[test]
    fn forest_rebuilds_sorted_and_validates() {
        let forest = TraceForest::from_events(&well_formed_events());
        assert_eq!(forest.len(), 2);
        assert_eq!(forest.traces[0].id, TraceId(3));
        assert_eq!(forest.traces[1].id, TraceId(7));
        forest.validate().expect("well-formed");
        let t7 = forest.get(TraceId(7)).expect("trace 7");
        assert!((t7.duration_s() - 0.5).abs() < 1e-12);
        assert_eq!(t7.root().expect("root").stage, Stage::Request.label());
        let root = Some(Stage::Request.span_id());
        assert_eq!(t7.spans.iter().filter(|s| s.parent == root).count(), 2);
    }

    #[test]
    fn forest_is_arrival_order_invariant() {
        let mut events = well_formed_events();
        let forward = TraceForest::from_events(&events);
        events.reverse();
        let reversed = TraceForest::from_events(&events);
        assert_eq!(forward, reversed);
    }

    #[test]
    fn orphan_and_duplicate_spans_are_rejected() {
        let span = |span, parent, begin_s, end_s| SpanRecord {
            trace: TraceId(1),
            span: SpanId(span),
            parent,
            stage: "x".into(),
            begin_s,
            end_s,
            device_idx: 0,
        };
        let orphan = Trace {
            id: TraceId(1),
            spans: vec![span(0, None, 0.0, 1.0), span(2, Some(SpanId(9)), 0.0, 0.5)],
        };
        assert!(matches!(
            orphan.validate(),
            Err(TraceError::OrphanSpan { .. })
        ));
        let duplicate = Trace {
            id: TraceId(1),
            spans: vec![span(0, None, 0.0, 1.0), span(0, None, 0.0, 1.0)],
        };
        assert!(matches!(
            duplicate.validate(),
            Err(TraceError::DuplicateSpan { .. })
        ));
        let escaping = Trace {
            id: TraceId(1),
            spans: vec![span(0, None, 0.0, 1.0), span(2, Some(SpanId(0)), 0.0, 1.5)],
        };
        assert!(matches!(
            escaping.validate(),
            Err(TraceError::EscapesParent { .. })
        ));
        let rootless = Trace {
            id: TraceId(1),
            spans: vec![span(2, Some(SpanId(2)), 0.0, 1.0)],
        };
        assert!(matches!(
            rootless.validate(),
            Err(TraceError::NoRoot { .. })
        ));
    }
}
