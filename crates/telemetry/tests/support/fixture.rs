//! One event of every [`EventKind`] variant, for the exporter goldens and
//! the exposition check.

use adaflow_telemetry::{Event, EventKind};

/// A stream holding every `EventKind` variant at least once: fractional
/// frame counts, a non-zero `device_idx`, and `TraceSpan` with `parent`
/// both `None` and `Some`.
pub fn every_kind() -> Vec<Event> {
    let events = vec![
        Event::new(0.0, EventKind::SpanBegin { name: "run".into() }),
        Event::new(0.01, EventKind::FrameArrived { count: 6.25 }),
        Event::new(
            0.02,
            EventKind::FrameDropped {
                count: 2.5,
                queue_frames: 64.0,
            },
        ),
        Event::new(0.03, EventKind::QueueDepth { frames: 3.75 }),
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
            0.5,
            EventKind::ModelSwitch {
                from: "cnv".into(),
                to: "cnv_p25".into(),
                flexible: true,
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
        Event::new(
            2.0,
            EventKind::RetrainEpoch {
                model: "cnv_p50".into(),
                epoch: 2,
                loss: 0.4375,
            },
        ),
        Event::new(
            3.0,
            EventKind::SynthReport {
                accelerator: "finn-cnv".into(),
                fmax_mhz: 187.5,
                lut: 41_234,
                bram36: 120,
                fits: false,
            },
        ),
        Event::new(
            4.0,
            EventKind::RequestRouted {
                id: 17,
                device_idx: 2,
                queue_depth: 3,
            },
        ),
        Event::new(
            4.0,
            EventKind::RequestEnqueued {
                id: 17,
                device: 5,
                queue_depth: 4,
            },
        ),
        Event::new(
            4.02,
            EventKind::BatchClosed {
                size: 4,
                oldest_wait_s: 0.0125,
                model: "cnv".into(),
            },
        ),
        Event::new(
            4.1,
            EventKind::RequestCompleted {
                id: 17,
                latency_s: 0.1,
                deadline_met: false,
            },
        ),
        Event::new(
            4.1,
            EventKind::TraceSpan {
                trace: 17,
                span: 0,
                parent: None,
                stage: "request".into(),
                begin_s: 4.0,
                device_idx: 2,
            },
        ),
        Event::new(
            4.1,
            EventKind::TraceSpan {
                trace: 17,
                span: 5,
                parent: Some(0),
                stage: "compute".into(),
                begin_s: 4.02,
                device_idx: 2,
            },
        ),
        Event::new(
            4.2,
            EventKind::RequestShed {
                id: 18,
                reason: "queue-full".into(),
                queue_depth: 64,
            },
        ),
        Event::new(
            5.0,
            EventKind::DeviceReconfigStart {
                device_idx: 3,
                model: "cnv_p25".into(),
            },
        ),
        Event::new(
            5.145,
            EventKind::DeviceReconfigEnd {
                device_idx: 3,
                model: "cnv_p25".into(),
                stall_s: 0.145,
            },
        ),
        Event::new(
            6.0,
            EventKind::FleetImbalanceSample {
                cv: 0.75,
                max_queue: 20,
                min_queue: 1,
            },
        ),
        Event::new(
            7.0,
            EventKind::BackendEjected {
                backend: 1,
                reason: "probe-timeout".into(),
            },
        ),
        Event::new(
            9.5,
            EventKind::BackendReadmitted {
                backend: 1,
                downtime_s: 2.5,
            },
        ),
        Event::new(
            10.0,
            EventKind::SloBurnAlert {
                objective: "deadline".into(),
                short_window_s: 5.0,
                long_window_s: 25.0,
                short_burn: 4.0,
                long_burn: 2.5,
                budget_consumed_pct: 55.0,
            },
        ),
        Event::new(11.0, EventKind::SpanEnd { name: "run".into() }),
    ];
    // Wildcard-free on purpose: a new variant does not compile until it
    // has an arm here, and the assertion below fails until the list above
    // holds an event of it (and the goldens are regenerated).
    let mut seen = [false; 23];
    for e in &events {
        let slot = match &e.kind {
            EventKind::FrameArrived { .. } => 0,
            EventKind::FrameDropped { .. } => 1,
            EventKind::QueueDepth { .. } => 2,
            EventKind::DecisionMade { .. } => 3,
            EventKind::ReconfigStart { .. } => 4,
            EventKind::ReconfigEnd { .. } => 5,
            EventKind::ModelSwitch { .. } => 6,
            EventKind::RetrainEpoch { .. } => 7,
            EventKind::SynthReport { .. } => 8,
            EventKind::SpanBegin { .. } => 9,
            EventKind::SpanEnd { .. } => 10,
            EventKind::RequestEnqueued { .. } => 11,
            EventKind::BatchClosed { .. } => 12,
            EventKind::RequestCompleted { .. } => 13,
            EventKind::RequestShed { .. } => 14,
            EventKind::RequestRouted { .. } => 15,
            EventKind::DeviceReconfigStart { .. } => 16,
            EventKind::DeviceReconfigEnd { .. } => 17,
            EventKind::TraceSpan { .. } => 18,
            EventKind::SloBurnAlert { .. } => 19,
            EventKind::BackendEjected { .. } => 20,
            EventKind::BackendReadmitted { .. } => 21,
            EventKind::FleetImbalanceSample { .. } => 22,
        };
        seen[slot] = true;
    }
    assert!(
        seen.iter().all(|s| *s),
        "fixture misses a variant: {seen:?}"
    );
    events
}
