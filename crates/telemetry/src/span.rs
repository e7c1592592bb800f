//! The span taxonomy and the builder that emits span trees.
//!
//! Every request trace is built from the same fixed stage vocabulary, so
//! span ids can simply *be* the stage ordinals: deterministic, unique
//! within a trace, and free of any id-allocator state that could differ
//! between runs. The engines measure all stage boundaries first and emit
//! the whole tree at request completion, which keeps shed requests from
//! leaving orphan spans behind.

use crate::event::EventKind;
use crate::sink::SinkHandle;
use crate::trace::{SpanId, TraceId};
use serde::{Deserialize, Serialize};

/// The causal stages of a request's lifecycle.
///
/// The discriminants are the wire span ids. `Request` is the root; every
/// other stage is its direct child, and the child intervals tile the root:
/// `queue_wait + batch_form + reconfig_stall + compute` equals the
/// end-to-end latency exactly (`route` is a zero-width decision marker at
/// the arrival instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Root span: arrival to completion.
    Request = 0,
    /// Fleet routing decision (zero-width, at the arrival instant).
    Route = 1,
    /// Arrival to batch close: time spent queued for admission to a batch.
    QueueWait = 2,
    /// Batch close to drain start: coordinator deferral while the batch
    /// waits for a reconfiguration slot (zero when no fabric switch).
    BatchForm = 3,
    /// Drain start to service start: the fabric reconfiguration stall.
    ReconfigStall = 4,
    /// Service start to completion: accelerator compute.
    Compute = 5,
}

impl Stage {
    /// Every stage, in span-id order.
    pub const ALL: [Stage; 6] = [
        Stage::Request,
        Stage::Route,
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::ReconfigStall,
        Stage::Compute,
    ];

    /// The stages that tile the root interval (everything but the root
    /// and the zero-width route marker).
    pub const LEAVES: [Stage; 4] = [
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::ReconfigStall,
        Stage::Compute,
    ];

    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Route => "route",
            Stage::QueueWait => "queue_wait",
            Stage::BatchForm => "batch_form",
            Stage::ReconfigStall => "reconfig_stall",
            Stage::Compute => "compute",
        }
    }

    /// The wire span id (the discriminant).
    #[must_use]
    pub fn span_id(self) -> SpanId {
        SpanId(self as u64)
    }

    /// Parses a wire label back into a stage.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.label() == label)
    }
}

/// One closed span, as reconstructed from a [`EventKind::TraceSpan`] event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace: TraceId,
    /// This span's id (a [`Stage`] ordinal).
    pub span: SpanId,
    /// Parent span id; `None` marks the root.
    pub parent: Option<SpanId>,
    /// Stage label (see [`Stage::label`]).
    pub stage: String,
    /// Span begin, simulation seconds.
    pub begin_s: f64,
    /// Span end, simulation seconds.
    pub end_s: f64,
    /// Fleet device index that served the request (0 in single-device mode).
    pub device_idx: u32,
}

impl SpanRecord {
    /// The span's length in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.begin_s
    }
}

/// Builds one request's span tree and emits it as telemetry events.
///
/// Spans are emitted in span-id order (root first), each as a single
/// [`EventKind::TraceSpan`] event stamped at the span's *end* time, so a
/// recorded stream stays causally readable and replays bit-identically.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: TraceId,
    device_idx: u32,
    spans: Vec<(Stage, Option<Stage>, f64, f64)>,
}

impl TraceBuilder {
    /// Starts a tree for `trace` served by fleet device `device_idx`.
    #[must_use]
    pub fn new(trace: TraceId, device_idx: u32) -> Self {
        TraceBuilder {
            trace,
            device_idx,
            spans: Vec::with_capacity(Stage::ALL.len()),
        }
    }

    /// Adds the root `request` span covering `[begin_s, end_s]`.
    #[must_use]
    pub fn root(mut self, begin_s: f64, end_s: f64) -> Self {
        self.spans.push((Stage::Request, None, begin_s, end_s));
        self
    }

    /// Adds `stage` as a direct child of the root.
    #[must_use]
    pub fn child(mut self, stage: Stage, begin_s: f64, end_s: f64) -> Self {
        self.spans
            .push((stage, Some(Stage::Request), begin_s, end_s));
        self
    }

    /// Emits the tree (no-op when the sink is disabled).
    pub fn emit(mut self, sink: &SinkHandle) {
        if !sink.enabled() {
            return;
        }
        self.spans.sort_by_key(|(stage, ..)| stage.span_id());
        for (stage, parent, begin_s, end_s) in self.spans {
            sink.emit(
                end_s,
                EventKind::TraceSpan {
                    trace: self.trace.0,
                    span: stage.span_id().0,
                    parent: parent.map(|p| p.span_id().0),
                    stage: stage.label().to_string(),
                    begin_s,
                    device_idx: self.device_idx,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn labels_round_trip_and_ids_are_ordinals() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_label(stage.label()), Some(stage));
        }
        assert_eq!(Stage::Request.span_id(), SpanId(0));
        assert_eq!(Stage::Compute.span_id(), SpanId(5));
        assert_eq!(Stage::from_label("nope"), None);
    }

    #[test]
    fn builder_emits_root_first_at_end_times() {
        let (sink, recorder) = SinkHandle::recorder(16);
        TraceBuilder::new(TraceId(42), 3)
            .child(Stage::Compute, 1.2, 1.5)
            .root(1.0, 1.5)
            .child(Stage::QueueWait, 1.0, 1.2)
            .emit(&sink);
        let events: Vec<Event> = recorder.drain();
        assert_eq!(events.len(), 3);
        let stages: Vec<&str> = events
            .iter()
            .map(|e| match &e.kind {
                EventKind::TraceSpan { stage, .. } => stage.as_str(),
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(stages, ["request", "queue_wait", "compute"]);
        // Events are stamped at span end.
        assert_eq!(events[0].t_s, 1.5);
        assert_eq!(events[1].t_s, 1.2);
        match &events[2].kind {
            EventKind::TraceSpan {
                trace,
                span,
                parent,
                begin_s,
                device_idx,
                ..
            } => {
                assert_eq!(*trace, 42);
                assert_eq!(*span, 5);
                assert_eq!(*parent, Some(0));
                assert_eq!(*begin_s, 1.2);
                assert_eq!(*device_idx, 3);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn builder_is_free_on_disabled_sinks() {
        let sink = SinkHandle::null();
        TraceBuilder::new(TraceId(1), 0).root(0.0, 1.0).emit(&sink);
    }
}
