//! End-to-end telemetry acceptance: a fully traced AdaFlow run of the
//! paper's Scenario 2 (unpredictable workload) must produce a Chrome
//! trace that round-trips through serde, contains the control-plane
//! events, and stays numerically consistent with the run's metrics.

use adaflow::{Library, LibraryGenerator, RuntimeConfig};
use adaflow_edge::prelude::*;
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;
use adaflow_telemetry::{
    chrome_trace_json, events_from_jsonl, events_to_jsonl, ChromeTraceEvent, EventKind,
    MetricsRegistry, RegistryConfig, SinkHandle,
};

fn library() -> Library {
    LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates")
}

/// Runs one traced AdaFlow Scenario-2 simulation and returns the metrics
/// plus the recorded events.
fn traced_scenario2_run(lib: &Library) -> (RunMetrics, Vec<adaflow_telemetry::Event>) {
    let (sink, recorder) = SinkHandle::recorder(1 << 16);
    let mut policy = AdaFlowServePolicy::new(lib, RuntimeConfig::default()).with_sink(sink.clone());
    let segments = WorkloadSpec::paper_edge(Scenario::Unpredictable).generate(1);
    let sim = EdgeSim::default().with_sink(sink);
    let (metrics, _) = sim.run(&mut policy, &segments);
    assert_eq!(recorder.overwritten(), 0, "ring must hold the whole run");
    (metrics, recorder.drain())
}

#[test]
fn chrome_trace_round_trips_with_decisions_and_reconfig_spans() {
    let lib = library();
    let (_, events) = traced_scenario2_run(&lib);

    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DecisionMade { .. })),
        "at least one DecisionMade event"
    );

    let json = chrome_trace_json(&events);
    let back: Vec<ChromeTraceEvent> = serde_json::from_str(&json).expect("trace parses back");
    assert!(back
        .iter()
        .any(|e| e.name == "decision_made" && e.ph == "i"));
    assert!(
        back.iter()
            .any(|e| e.name == "reconfiguration" && e.ph == "B"),
        "a reconfiguration span begins"
    );
    assert!(
        back.iter()
            .any(|e| e.name == "reconfiguration" && e.ph == "E"),
        "a reconfiguration span ends"
    );
    // Every span begin has a matching end at a later-or-equal timestamp.
    let begins: Vec<&ChromeTraceEvent> = back.iter().filter(|e| e.ph == "B").collect();
    let ends: Vec<&ChromeTraceEvent> = back.iter().filter(|e| e.ph == "E").collect();
    assert_eq!(begins.len(), ends.len(), "spans are balanced");
}

#[test]
fn frame_events_balance_against_run_metrics() {
    let lib = library();
    let (metrics, events) = traced_scenario2_run(&lib);

    let arrived: f64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::FrameArrived { count } => Some(*count),
            _ => None,
        })
        .sum();
    let dropped: f64 = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::FrameDropped { count, .. } => Some(*count),
            _ => None,
        })
        .sum();
    let final_queue = events
        .iter()
        .rev()
        .find_map(|e| match &e.kind {
            EventKind::QueueDepth { frames } => Some(*frames),
            _ => None,
        })
        .expect("queue depth sampled");

    assert!(
        (arrived - metrics.offered).abs() < 1e-6,
        "arrival events ({arrived}) must equal offered frames ({})",
        metrics.offered
    );
    assert!(
        (dropped + final_queue - metrics.lost).abs() < 1e-6,
        "drop events ({dropped}) plus final queue ({final_queue}) must equal \
         lost frames ({})",
        metrics.lost
    );

    let mut registry = MetricsRegistry::new(RegistryConfig::default());
    registry.observe_all(&events);
    assert!(registry.counter("decisions") >= 1.0);
    assert!((registry.counter("frames_dropped") - dropped).abs() < 1e-9);
    assert!((registry.counter("frames_arrived") - arrived).abs() < 1e-9);
}

#[test]
fn jsonl_export_round_trips_a_real_run() {
    let lib = library();
    let (_, events) = traced_scenario2_run(&lib);
    let text = events_to_jsonl(&events);
    let back = events_from_jsonl(&text).expect("jsonl parses back");
    assert_eq!(events, back);
}

#[test]
fn null_sink_run_matches_traced_run_metrics() {
    // Telemetry must observe, never perturb: the same seeded run with and
    // without a recording sink yields identical metrics.
    let lib = library();
    let (traced, _) = traced_scenario2_run(&lib);
    let mut policy = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
    let segments = WorkloadSpec::paper_edge(Scenario::Unpredictable).generate(1);
    let (silent, _) = EdgeSim::default().run(&mut policy, &segments);
    assert_eq!(traced, silent);
}
