//! The typed event model.
//!
//! Events carry plain strings and numbers rather than crate types so that
//! `adaflow-telemetry` sits at the bottom of the workspace dependency graph:
//! every other crate can emit events without cycles.

use serde::{Deserialize, Serialize};

/// One telemetry event, stamped with the simulation clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation time in seconds (or a stage-local ordinal for design-time
    /// events such as retraining epochs).
    pub t_s: f64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    #[must_use]
    pub fn new(t_s: f64, kind: EventKind) -> Self {
        Event { t_s, kind }
    }
}

/// Everything the stack reports.
///
/// The derived serde payload is the one description of each kind: JSONL is
/// that encoding, and the Chrome-trace `args` are its fields. A new kind is
/// the variant here, at most one row in `export`'s Chrome-trace table and at
/// most one arm in `MetricsRegistry::observe`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Frames offered by the workload during one simulation step. `count`
    /// is fractional: the fluid model offers `rate × dt` frames per step.
    FrameArrived { count: f64 },
    /// Frames lost to buffer overflow during one simulation step.
    FrameDropped { count: f64, queue_frames: f64 },
    /// Periodic queue-occupancy sample.
    QueueDepth { frames: f64 },
    /// The Runtime Manager chose a serving configuration.
    DecisionMade {
        model: String,
        accelerator: String,
        /// `"none"`, `"flexible-switch"` or `"reconfiguration"`.
        switch: String,
        /// Serving stall charged to this decision, seconds.
        stall_s: f64,
        /// Incoming workload that triggered the decision, FPS.
        incoming_fps: f64,
    },
    /// An FPGA reconfiguration began (serving stalls until `ReconfigEnd`).
    ReconfigStart { model: String },
    /// The matching end of a reconfiguration stall.
    ReconfigEnd { model: String, stall_s: f64 },
    /// A CNN model switch (flexible switches don't stall the fabric).
    ModelSwitch {
        from: String,
        to: String,
        flexible: bool,
    },
    /// One epoch of a retraining run (design time; `t_s` is the epoch
    /// ordinal).
    RetrainEpoch {
        model: String,
        epoch: u64,
        loss: f64,
    },
    /// Outcome of synthesizing one accelerator (design time).
    SynthReport {
        accelerator: String,
        fmax_mhz: f64,
        lut: u64,
        bram36: u64,
        fits: bool,
    },
    /// Start of a named interval (pairs with `SpanEnd` of the same name).
    SpanBegin { name: String },
    /// End of a named interval.
    SpanEnd { name: String },
    /// A request was admitted into the serving queue (request-level mode).
    RequestEnqueued {
        /// Monotonic request id, unique within one serving run.
        id: u64,
        /// Originating IoT device index.
        device: u32,
        /// Queue occupancy after admission, requests.
        queue_depth: u64,
    },
    /// The dynamic batcher closed a batch and handed it to the accelerator.
    BatchClosed {
        /// Number of requests in the batch.
        size: u64,
        /// How long the oldest request of the batch waited in the queue,
        /// seconds.
        oldest_wait_s: f64,
        /// Model serving the batch.
        model: String,
    },
    /// A request finished service (request-level mode).
    RequestCompleted {
        /// The request id assigned at generation time.
        id: u64,
        /// End-to-end sojourn (arrival to completion), seconds.
        latency_s: f64,
        /// Whether the request completed within its deadline budget.
        deadline_met: bool,
    },
    /// A request was shed by admission control (request-level mode).
    RequestShed {
        /// The request id assigned at generation time.
        id: u64,
        /// Why it was shed (`"queue-full"`, `"shed-oldest"`,
        /// `"shed-newest"`).
        reason: String,
        /// Queue occupancy at the shed decision, requests.
        queue_depth: u64,
    },
    /// The fleet router dispatched a request to a device (fleet mode).
    RequestRouted {
        /// The request id assigned at generation time.
        id: u64,
        /// Index of the chosen fleet device.
        device_idx: u32,
        /// The chosen device's queue occupancy at dispatch, requests.
        queue_depth: u64,
    },
    /// A fleet device began draining for a fabric switch (fleet mode;
    /// pairs with `DeviceReconfigEnd` on the same device).
    DeviceReconfigStart {
        /// Index of the reconfiguring fleet device.
        device_idx: u32,
        /// Model the fabric is switching to.
        model: String,
    },
    /// The matching end of a fleet device's fabric switch.
    DeviceReconfigEnd {
        /// Index of the reconfiguring fleet device.
        device_idx: u32,
        /// Model the fabric switched to.
        model: String,
        /// Serving stall charged to this switch, seconds.
        stall_s: f64,
    },
    /// One closed causal span of a request's lifecycle. `t_s` is the span
    /// *end*; the interval is `[begin_s, t_s]`. The whole tree of a request
    /// is emitted at its completion, so shed requests leave no orphans.
    TraceSpan {
        /// Owning trace: the request id assigned at generation time.
        trace: u64,
        /// Span id, unique within the trace (a stage ordinal, see
        /// `span::Stage`).
        span: u64,
        /// Parent span id; `None` marks the trace root.
        parent: Option<u64>,
        /// Stage label (`"request"`, `"route"`, `"queue_wait"`,
        /// `"batch_form"`, `"reconfig_stall"`, `"compute"`).
        stage: String,
        /// Span begin, simulation seconds.
        begin_s: f64,
        /// Fleet device index that served the request (0 single-device).
        device_idx: u32,
    },
    /// The SLO engine detected sustained error-budget burn over both of
    /// its alert windows.
    SloBurnAlert {
        /// Objective name (`"deadline"`).
        objective: String,
        /// Short alert window, seconds.
        short_window_s: f64,
        /// Long alert window, seconds.
        long_window_s: f64,
        /// Burn rate over the short window (1 = burning exactly the
        /// budget).
        short_burn: f64,
        /// Burn rate over the long window.
        long_burn: f64,
        /// Cumulative error budget consumed at the alert, percent.
        budget_consumed_pct: f64,
    },
    /// The gateway ejected a live backend from its healthy rotation
    /// (gateway mode; pairs with `BackendReadmitted` on the same backend).
    BackendEjected {
        /// Index of the ejected backend.
        backend: u32,
        /// Why it was ejected (`"probe-timeout"`, `"connection-lost"`).
        reason: String,
    },
    /// The gateway readmitted a previously ejected backend after
    /// consecutive probe successes (gateway mode).
    BackendReadmitted {
        /// Index of the readmitted backend.
        backend: u32,
        /// How long the backend was out of rotation, seconds.
        downtime_s: f64,
    },
    /// Periodic fleet load-balance sample (fleet mode).
    FleetImbalanceSample {
        /// Coefficient of variation of per-device queue depths
        /// (0 = perfectly balanced).
        cv: f64,
        /// Deepest per-device queue at the sample, requests.
        max_queue: u64,
        /// Shallowest per-device queue at the sample, requests.
        min_queue: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::new(0.25, EventKind::FrameArrived { count: 6.0 }),
            Event::new(
                0.5,
                EventKind::DecisionMade {
                    model: "cnv_p25".into(),
                    accelerator: "flexible".into(),
                    switch: "flexible-switch".into(),
                    stall_s: 0.0,
                    incoming_fps: 612.5,
                },
            ),
            Event::new(
                1.0,
                EventKind::ReconfigStart {
                    model: "cnv".into(),
                },
            ),
            Event::new(
                1.145,
                EventKind::ReconfigEnd {
                    model: "cnv".into(),
                    stall_s: 0.145,
                },
            ),
        ];
        for e in &events {
            let text = serde_json::to_string(e).expect("serializes");
            let back: Event = serde_json::from_str(&text).expect("parses");
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn request_lifecycle_events_round_trip() {
        let events = vec![
            Event::new(
                0.1,
                EventKind::RequestEnqueued {
                    id: 17,
                    device: 3,
                    queue_depth: 5,
                },
            ),
            Event::new(
                0.2,
                EventKind::BatchClosed {
                    size: 16,
                    oldest_wait_s: 0.012,
                    model: "cnv_p25".into(),
                },
            ),
            Event::new(
                0.25,
                EventKind::RequestCompleted {
                    id: 17,
                    latency_s: 0.15,
                    deadline_met: true,
                },
            ),
            Event::new(
                0.3,
                EventKind::RequestShed {
                    id: 18,
                    reason: "shed-oldest".into(),
                    queue_depth: 256,
                },
            ),
        ];
        for e in &events {
            let text = serde_json::to_string(e).expect("serializes");
            let back: Event = serde_json::from_str(&text).expect("parses");
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn fleet_events_round_trip_and_label() {
        let events = vec![
            Event::new(
                0.1,
                EventKind::RequestRouted {
                    id: 42,
                    device_idx: 2,
                    queue_depth: 7,
                },
            ),
            Event::new(
                0.2,
                EventKind::DeviceReconfigStart {
                    device_idx: 2,
                    model: "cnv_p25".into(),
                },
            ),
            Event::new(
                0.345,
                EventKind::DeviceReconfigEnd {
                    device_idx: 2,
                    model: "cnv_p25".into(),
                    stall_s: 0.145,
                },
            ),
            Event::new(
                0.5,
                EventKind::FleetImbalanceSample {
                    cv: 0.33,
                    max_queue: 12,
                    min_queue: 3,
                },
            ),
        ];
        for e in &events {
            let text = serde_json::to_string(e).expect("serializes");
            let back: Event = serde_json::from_str(&text).expect("parses");
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn gateway_health_events_round_trip_and_label() {
        let events = vec![
            Event::new(
                2.0,
                EventKind::BackendEjected {
                    backend: 1,
                    reason: "probe-timeout".into(),
                },
            ),
            Event::new(
                4.5,
                EventKind::BackendReadmitted {
                    backend: 1,
                    downtime_s: 2.5,
                },
            ),
        ];
        for e in &events {
            let text = serde_json::to_string(e).expect("serializes");
            let back: Event = serde_json::from_str(&text).expect("parses");
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn tracing_events_round_trip_and_label() {
        let events = vec![
            Event::new(
                0.25,
                EventKind::TraceSpan {
                    trace: 17,
                    span: 0,
                    parent: None,
                    stage: "request".into(),
                    begin_s: 0.1,
                    device_idx: 2,
                },
            ),
            Event::new(
                0.25,
                EventKind::TraceSpan {
                    trace: 17,
                    span: 5,
                    parent: Some(0),
                    stage: "compute".into(),
                    begin_s: 0.2,
                    device_idx: 2,
                },
            ),
            Event::new(
                5.0,
                EventKind::SloBurnAlert {
                    objective: "deadline".into(),
                    short_window_s: 5.0,
                    long_window_s: 25.0,
                    short_burn: 3.5,
                    long_burn: 2.1,
                    budget_consumed_pct: 40.0,
                },
            ),
        ];
        for e in &events {
            let text = serde_json::to_string(e).expect("serializes");
            let back: Event = serde_json::from_str(&text).expect("parses");
            assert_eq!(*e, back);
        }
    }
}
