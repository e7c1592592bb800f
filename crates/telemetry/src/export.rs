//! Trace exporters: JSONL and Chrome trace-event JSON. (Prometheus text is
//! rendered by [`crate::metrics::MetricsRegistry::to_prometheus`].)

use crate::event::Event;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

/// Serializes events as JSON Lines: one compact object per line.
#[must_use]
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("event serializes"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into events. Blank lines are skipped.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, serde_json::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome trace-event format
// ---------------------------------------------------------------------------

/// One Chrome trace event, per the Trace Event Format spec. Loadable in
/// Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` when exported
/// as a JSON array.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTraceEvent {
    /// Event name shown on the timeline.
    pub name: String,
    /// Category (comma-separated tags).
    pub cat: String,
    /// Phase: `"i"` instant, `"B"`/`"E"` span begin/end, `"b"`/`"e"` async
    /// begin/end, `"C"` counter.
    pub ph: String,
    /// Timestamp in **microseconds** (simulation clock × 10⁶).
    pub ts: f64,
    /// Process id; the whole simulation is process 1.
    pub pid: u64,
    /// Thread id, used to group lanes (1 = serving, 2 = control, 3 =
    /// design-time).
    pub tid: u64,
    /// Async-event correlation id (the trace id for request spans).
    /// Required for `"b"`/`"e"` phases; absent elsewhere.
    pub id: Option<u64>,
    /// Free-form payload.
    pub args: BTreeMap<String, Value>,
}

// Hand-written so `id` is *omitted* (not `null`) when absent: trace viewers
// only accept an `id` key on async phases.
impl Serialize for ChromeTraceEvent {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("cat".to_string(), self.cat.to_value()),
            ("ph".to_string(), self.ph.to_value()),
            ("ts".to_string(), Value::F64(self.ts)),
            ("pid".to_string(), Value::U64(self.pid)),
            ("tid".to_string(), Value::U64(self.tid)),
        ];
        if let Some(id) = self.id {
            fields.push(("id".to_string(), Value::U64(id)));
        }
        fields.push(("args".to_string(), self.args.to_value()));
        Value::Object(fields)
    }
}

impl Deserialize for ChromeTraceEvent {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, serde::Error> {
            T::from_value(v.get(key).unwrap_or(&Value::Null))
                .map_err(|e| serde::Error::custom(format!("ChromeTraceEvent.{key}: {e}")))
        }
        Ok(ChromeTraceEvent {
            name: field(v, "name")?,
            cat: field(v, "cat")?,
            ph: field(v, "ph")?,
            ts: field(v, "ts")?,
            pid: field(v, "pid")?,
            tid: field(v, "tid")?,
            id: field(v, "id")?,
            args: field(v, "args")?,
        })
    }
}

const LANE_SERVING: u64 = 1;
const LANE_CONTROL: u64 = 2;
const LANE_DESIGN: u64 = 3;
const LANE_FLEET: u64 = 4;
/// Request span trees ride one async lane; async events correlate by `id`
/// (the trace id), so overlapping requests don't have to nest per-thread.
const LANE_TRACE: u64 = 5;
/// Fleet device reconfiguration spans get one lane per device so that
/// concurrent drains on different devices don't nest on the timeline.
const LANE_FLEET_DEVICE0: u64 = 10;

/// Where a Chrome event's name comes from.
enum Name {
    /// The same name for every event of the kind.
    Fixed(&'static str),
    /// The payload field (a string) that supplies it.
    Field(&'static str),
}
use Name::{Field, Fixed};

/// How one [`crate::event::EventKind`] variant is drawn on the timeline. Payload fields
/// a row names (`name`, `lane_field`, `span`) are lifted into the Chrome
/// envelope; every other field becomes an `args` entry as serde encodes it.
struct ChromeRow {
    /// The variant's serde tag.
    kind: &'static str,
    name: Name,
    cat: &'static str,
    /// `"i"` instant, `"B"`/`"E"` span begin/end, `"C"` counter, `"b"` the
    /// begin of an async pair (see `span`).
    ph: &'static str,
    lane: u64,
    /// An integer payload field added to `lane` (one lane per device).
    lane_field: Option<&'static str>,
    /// `(id field, begin-time field)` of a kind that is a closed interval:
    /// `ph` is stamped at the begin time and an `"e"` follows at the event
    /// time, both carrying the id.
    span: Option<(&'static str, &'static str)>,
}

const fn row(
    kind: &'static str,
    name: Name,
    cat: &'static str,
    ph: &'static str,
    lane: u64,
) -> ChromeRow {
    ChromeRow {
        kind,
        name,
        cat,
        ph,
        lane,
        lane_field: None,
        span: None,
    }
}

/// One row per rendered kind. `FrameArrived`, `RequestEnqueued`,
/// `RequestCompleted` and `RequestRouted` have none: one instant per frame
/// step or request would flood the timeline, and they stay visible through
/// the `queue_depth` / `fleet_imbalance` counters, the `batch_closed` and
/// `request_shed` instants and the per-device reconfiguration spans.
#[rustfmt::skip]
const CHROME_ROWS: &[ChromeRow] = &[
    row("FrameDropped", Fixed("frame_dropped"), "serving", "i", LANE_SERVING),
    row("QueueDepth", Fixed("queue_depth"), "serving", "C", LANE_SERVING),
    row("DecisionMade", Fixed("decision_made"), "control", "i", LANE_CONTROL),
    row("ReconfigStart", Fixed("reconfiguration"), "control", "B", LANE_CONTROL),
    row("ReconfigEnd", Fixed("reconfiguration"), "control", "E", LANE_CONTROL),
    row("ModelSwitch", Fixed("model_switch"), "control", "i", LANE_CONTROL),
    row("RetrainEpoch", Fixed("retrain_epoch"), "design", "i", LANE_DESIGN),
    row("SynthReport", Fixed("synth_report"), "design", "i", LANE_DESIGN),
    row("SpanBegin", Field("name"), "span", "B", LANE_SERVING),
    row("SpanEnd", Field("name"), "span", "E", LANE_SERVING),
    row("BatchClosed", Fixed("batch_closed"), "serving", "i", LANE_SERVING),
    row("RequestShed", Fixed("request_shed"), "serving", "i", LANE_SERVING),
    ChromeRow {
        lane_field: Some("device_idx"),
        ..row("DeviceReconfigStart", Fixed("device_reconfig"), "fleet", "B", LANE_FLEET_DEVICE0)
    },
    ChromeRow {
        lane_field: Some("device_idx"),
        ..row("DeviceReconfigEnd", Fixed("device_reconfig"), "fleet", "E", LANE_FLEET_DEVICE0)
    },
    // Correlated by the trace id, so every request's span tree nests under
    // one timeline row without fighting the per-thread rules of `B`/`E`.
    ChromeRow {
        span: Some(("trace", "begin_s")),
        ..row("TraceSpan", Field("stage"), "request", "b", LANE_TRACE)
    },
    row("SloBurnAlert", Fixed("slo_burn_alert"), "control", "i", LANE_CONTROL),
    row("BackendEjected", Fixed("backend_ejected"), "fleet", "i", LANE_FLEET),
    row("BackendReadmitted", Fixed("backend_readmitted"), "fleet", "i", LANE_FLEET),
    row("FleetImbalanceSample", Fixed("fleet_imbalance"), "fleet", "C", LANE_FLEET),
];

fn micros(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Lowers typed events to Chrome trace events through [`CHROME_ROWS`]:
/// kinds without a row are dropped, the rest map one-to-one (a closed
/// interval to its `b`/`e` pair). `args` is the variant's serde object
/// minus the fields lifted into the envelope and minus `null`s.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> Vec<ChromeTraceEvent> {
    let mut out = Vec::new();
    for e in events {
        // Externally tagged: `{"<Variant>": {<fields>}}`.
        let Value::Object(tagged) = e.kind.to_value() else {
            continue;
        };
        let Some((tag, Value::Object(mut fields))) = tagged.into_iter().next() else {
            continue;
        };
        let Some(row) = CHROME_ROWS.iter().find(|r| r.kind == tag) else {
            continue;
        };
        let mut lift = |key: &str| {
            let at = fields.iter().position(|(k, _)| k == key);
            fields.remove(at.expect("row names a payload field")).1
        };
        let name = match row.name {
            Fixed(name) => name.to_string(),
            Field(key) => String::from_value(&lift(key)).expect("name field is a string"),
        };
        let offset = row.lane_field.map_or(0, |key| {
            lift(key).as_u64().expect("lane field is an integer")
        });
        let span = row.span.map(|(id, begin)| {
            let id = lift(id).as_u64().expect("id field is an integer");
            (id, lift(begin).as_f64().expect("begin field is a number"))
        });
        let event = |ph: &str, t_s: f64, args| ChromeTraceEvent {
            name: name.clone(),
            cat: row.cat.to_string(),
            ph: ph.to_string(),
            ts: micros(t_s),
            pid: 1,
            tid: row.lane + offset,
            id: span.map(|(id, _)| id),
            args,
        };
        let args: BTreeMap<String, Value> = fields
            .into_iter()
            .filter(|(_, v)| *v != Value::Null)
            .collect();
        match span {
            None => out.push(event(row.ph, e.t_s, args)),
            Some((_, begin_s)) => {
                out.push(event(row.ph, begin_s, args.clone()));
                out.push(event("e", e.t_s, args));
            }
        }
    }
    out
}

/// Renders events as a Chrome trace JSON array (the file Perfetto loads).
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> String {
    serde_json::to_string_pretty(&to_chrome_trace(events)).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::metrics::{MetricsRegistry, RegistryConfig};

    /// The one fold: what `.prom` and `/metrics` are rendered from.
    fn folded(events: &[Event]) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new(RegistryConfig::default());
        registry.observe_all(events);
        registry
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(0.01, EventKind::FrameArrived { count: 6.0 }),
            Event::new(0.02, EventKind::QueueDepth { frames: 3.0 }),
            Event::new(
                0.5,
                EventKind::DecisionMade {
                    model: "cnv_p25".into(),
                    accelerator: "flexible".into(),
                    switch: "flexible-switch".into(),
                    stall_s: 0.0,
                    incoming_fps: 612.0,
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
                1.2,
                EventKind::FrameDropped {
                    count: 2.5,
                    queue_frames: 64.0,
                },
            ),
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = events_from_jsonl(&text).expect("parses");
        assert_eq!(events, back);
    }

    #[test]
    fn chrome_trace_round_trips_through_serde() {
        let trace = to_chrome_trace(&sample_events());
        let json = serde_json::to_string_pretty(&trace).expect("serializes");
        let back: Vec<ChromeTraceEvent> = serde_json::from_str(&json).expect("parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn chrome_trace_has_spans_and_instants() {
        let trace = to_chrome_trace(&sample_events());
        // FrameArrived is aggregated away.
        assert!(!trace.iter().any(|e| e.name == "frame_arrived"));
        let begins = trace.iter().filter(|e| e.ph == "B").count();
        let ends = trace.iter().filter(|e| e.ph == "E").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        assert!(trace
            .iter()
            .any(|e| e.name == "decision_made" && e.ph == "i"));
        let counter = trace
            .iter()
            .find(|e| e.ph == "C")
            .expect("queue counter present");
        assert_eq!(counter.ts, 0.02 * 1e6);
    }

    #[test]
    fn summary_counts_everything() {
        let r = folded(&sample_events());
        assert_eq!(r.counter("frames_arrived"), 6.0);
        assert_eq!(r.counter("frames_dropped"), 2.5);
        assert_eq!(r.counter("decisions"), 1.0);
        assert_eq!(r.counter("reconfigurations"), 1.0);
        assert_eq!(r.counter("model_switches"), 1.0);
        assert_eq!(r.counter("flexible_switches"), 1.0);
        assert!(!r.histogram("queue_depth").expect("sampled").is_empty());
    }

    #[test]
    fn summary_folds_request_lifecycle() {
        let events = vec![
            Event::new(
                0.1,
                EventKind::RequestEnqueued {
                    id: 0,
                    device: 0,
                    queue_depth: 1,
                },
            ),
            Event::new(
                0.1,
                EventKind::RequestEnqueued {
                    id: 1,
                    device: 1,
                    queue_depth: 2,
                },
            ),
            Event::new(
                0.12,
                EventKind::BatchClosed {
                    size: 2,
                    oldest_wait_s: 0.02,
                    model: "cnv".into(),
                },
            ),
            Event::new(
                0.15,
                EventKind::RequestCompleted {
                    id: 0,
                    latency_s: 0.05,
                    deadline_met: true,
                },
            ),
            Event::new(
                0.15,
                EventKind::RequestCompleted {
                    id: 1,
                    latency_s: 0.5,
                    deadline_met: false,
                },
            ),
            Event::new(
                0.2,
                EventKind::RequestShed {
                    id: 2,
                    reason: "queue-full".into(),
                    queue_depth: 2,
                },
            ),
        ];
        let r = folded(&events);
        assert_eq!(r.counter("requests_enqueued"), 2.0);
        assert_eq!(r.counter("requests_completed"), 2.0);
        assert_eq!(r.counter("deadline_misses"), 1.0);
        assert_eq!(r.counter("requests_shed"), 1.0);
        assert_eq!(r.counter("batches_closed"), 1.0);
        let latency = r.histogram("request_latency_s").expect("completions");
        assert_eq!(latency.count(), 2.0);
        let text = r.to_prometheus();
        assert!(text.contains("adaflow_requests_completed_total 2"));
        assert!(text.contains("adaflow_deadline_misses_total 1"));
        assert!(text.contains("adaflow_request_latency_s{quantile=\"0.95\"}"));
        // The chrome trace keeps the batch/shed instants but aggregates the
        // per-request enqueue/complete flood away.
        let trace = to_chrome_trace(&events);
        assert!(trace.iter().any(|e| e.name == "batch_closed"));
        assert!(trace.iter().any(|e| e.name == "request_shed"));
        assert!(!trace.iter().any(|e| e.name == "request_enqueued"));
        assert!(!trace.iter().any(|e| e.name == "request_completed"));
    }

    #[test]
    fn fleet_events_flow_through_all_three_exporters() {
        let events = vec![
            Event::new(
                0.1,
                EventKind::RequestRouted {
                    id: 1,
                    device_idx: 0,
                    queue_depth: 3,
                },
            ),
            Event::new(
                0.2,
                EventKind::DeviceReconfigStart {
                    device_idx: 1,
                    model: "cnv".into(),
                },
            ),
            Event::new(
                0.3,
                EventKind::DeviceReconfigEnd {
                    device_idx: 1,
                    model: "cnv".into(),
                    stall_s: 0.1,
                },
            ),
            Event::new(
                0.4,
                EventKind::FleetImbalanceSample {
                    cv: 0.25,
                    max_queue: 9,
                    min_queue: 4,
                },
            ),
            Event::new(
                0.5,
                EventKind::FleetImbalanceSample {
                    cv: 0.75,
                    max_queue: 20,
                    min_queue: 1,
                },
            ),
        ];
        // JSONL round-trips the typed events.
        let back = events_from_jsonl(&events_to_jsonl(&events)).expect("parses");
        assert_eq!(events, back);
        // Chrome trace: per-device span pair on its own lane, imbalance as
        // a counter, routing aggregated away.
        let trace = to_chrome_trace(&events);
        assert!(!trace.iter().any(|e| e.name == "request_routed"));
        let begin = trace
            .iter()
            .find(|e| e.name == "device_reconfig" && e.ph == "B")
            .expect("reconfig span begins");
        let end = trace
            .iter()
            .find(|e| e.name == "device_reconfig" && e.ph == "E")
            .expect("reconfig span ends");
        assert_eq!(begin.tid, end.tid);
        assert_eq!(begin.tid, 11, "device 1 gets its own lane");
        assert_eq!(
            trace
                .iter()
                .filter(|e| e.name == "fleet_imbalance" && e.ph == "C")
                .count(),
            2
        );
        // Prometheus: routed/reconfig counters and the worst-sample gauge.
        let r = folded(&events);
        assert_eq!(r.counter("requests_routed"), 1.0);
        assert_eq!(r.counter("device_reconfigs"), 1.0);
        assert_eq!(r.counter("imbalance_samples"), 2.0);
        assert_eq!(r.gauge("fleet_imbalance_cv_max"), Some(0.75));
        let text = r.to_prometheus();
        assert!(text.contains("adaflow_requests_routed_total 1"));
        assert!(text.contains("adaflow_device_reconfigs_total 1"));
        assert!(text.contains("adaflow_fleet_imbalance_cv_max 0.75"));
    }

    #[test]
    fn prometheus_text_exposition_shape() {
        let text = folded(&sample_events()).to_prometheus();
        assert!(text.contains("# TYPE adaflow_frames_dropped_total counter"));
        assert!(text.contains("adaflow_frames_dropped_total 2.5"));
        assert!(text.contains("adaflow_queue_depth{quantile=\"0.95\"}"));
        // Every non-comment line is `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "line: {line}");
        }
    }

    #[test]
    fn prometheus_families_are_sorted() {
        let text = folded(&sample_events()).to_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted);
    }

    #[test]
    fn trace_spans_lower_to_async_pairs_with_ids() {
        let events = vec![
            Event::new(
                0.3,
                EventKind::TraceSpan {
                    trace: 9,
                    span: 0,
                    parent: None,
                    stage: "request".into(),
                    begin_s: 0.1,
                    device_idx: 1,
                },
            ),
            Event::new(
                0.3,
                EventKind::TraceSpan {
                    trace: 9,
                    span: 5,
                    parent: Some(0),
                    stage: "compute".into(),
                    begin_s: 0.2,
                    device_idx: 1,
                },
            ),
            Event::new(
                6.0,
                EventKind::SloBurnAlert {
                    objective: "deadline".into(),
                    short_window_s: 5.0,
                    long_window_s: 25.0,
                    short_burn: 4.0,
                    long_burn: 2.5,
                    budget_consumed_pct: 55.0,
                },
            ),
        ];
        let trace = to_chrome_trace(&events);
        let asyncs: Vec<&ChromeTraceEvent> = trace
            .iter()
            .filter(|e| e.ph == "b" || e.ph == "e")
            .collect();
        assert_eq!(asyncs.len(), 4, "each span becomes a b/e pair");
        assert!(asyncs.iter().all(|e| e.id == Some(9) && e.cat == "request"));
        let root_begin = asyncs
            .iter()
            .find(|e| e.name == "request" && e.ph == "b")
            .expect("root begin");
        assert_eq!(root_begin.ts, 0.1 * 1e6);
        let compute_end = asyncs
            .iter()
            .find(|e| e.name == "compute" && e.ph == "e")
            .expect("compute end");
        assert_eq!(compute_end.ts, 0.3 * 1e6);
        assert_eq!(compute_end.args.get("parent"), Some(&Value::U64(0)));
        let alert = trace
            .iter()
            .find(|e| e.name == "slo_burn_alert")
            .expect("alert instant");
        assert_eq!(alert.ph, "i");
        assert_eq!(alert.id, None);
        // The JSON carries an `id` key only on async phases.
        let json = chrome_trace_json(&events);
        let back: Vec<ChromeTraceEvent> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, trace);
        let value = serde_json::from_str_value(&json).expect("parses as value");
        let Value::Array(objects) = value else {
            panic!("trace json is an array");
        };
        for obj in &objects {
            let is_async = matches!(obj.get("ph"), Some(Value::Str(ph)) if ph == "b" || ph == "e");
            assert_eq!(obj.get("id").is_some(), is_async, "id iff async: {obj:?}");
        }
        // And the registry counts the new kinds.
        let r = folded(&events);
        assert_eq!(r.counter("trace_spans"), 2.0);
        assert_eq!(r.counter("slo_burn_alerts"), 1.0);
        let text = r.to_prometheus();
        assert!(text.contains("adaflow_trace_spans_total 2"));
        assert!(text.contains("adaflow_slo_burn_alerts_total 1"));
    }
}
