//! Exporter acceptance over a stream holding every `EventKind`: the JSONL
//! and Chrome-trace bytes are pinned by goldens, and the registry's
//! Prometheus exposition obeys the text-format rules.

mod support;

use adaflow_telemetry::{
    chrome_trace_json, events_from_jsonl, events_to_jsonl, MetricsRegistry, RegistryConfig,
};
use support::exposition::check_exposition;
use support::fixture::every_kind;

/// Goldens were written by the exporters as they stood before the
/// Chrome-trace lowering became table-driven; regenerate them only for a
/// deliberate format change.
#[test]
fn chrome_trace_matches_golden() {
    assert_eq!(
        chrome_trace_json(&every_kind()),
        include_str!("golden/every_kind.trace.json")
    );
}

#[test]
fn jsonl_matches_golden_and_round_trips() {
    let events = every_kind();
    let text = events_to_jsonl(&events);
    assert_eq!(text, include_str!("golden/every_kind.jsonl"));
    assert_eq!(events_from_jsonl(&text).expect("parses"), events);
}

#[test]
fn registry_exposition_of_every_kind_is_valid() {
    let mut registry = MetricsRegistry::new(RegistryConfig::default());
    registry.observe_all(&every_kind());
    let text = registry.to_prometheus();
    check_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for family in [
        "adaflow_slo_burn_alerts_total",
        "adaflow_request_latency_s",
        "adaflow_queue_depth",
        "adaflow_fleet_imbalance_cv_max",
    ] {
        assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
    }
    // Decision stalls and fleet device stalls are one counter.
    assert!(
        text.contains("adaflow_stall_seconds_total 0.145\n"),
        "{text}"
    );
}

#[test]
fn checker_rejects_what_the_old_exporter_wrote() {
    let labelled_type = "# TYPE adaflow_queue_depth_frames{quantile=\"0.5\"} gauge\n\
                         adaflow_queue_depth_frames{quantile=\"0.5\"} 2\n";
    assert!(check_exposition(labelled_type).is_err());
    let twice = "# TYPE a gauge\na{q=\"1\"} 1\n# TYPE a gauge\na{q=\"2\"} 2\n";
    assert!(check_exposition(twice).is_err());
    let unsorted = "# TYPE b counter\nb 1\n# TYPE a counter\na 1\n";
    assert!(check_exposition(unsorted).is_err());
    let undeclared = "# TYPE a counter\na 1\nb 2\n";
    assert!(check_exposition(undeclared).is_err());
    let not_a_float = "# TYPE a counter\na one\n";
    assert!(check_exposition(not_a_float).is_err());
    let fine = "# HELP a Things.\n# TYPE a summary\na{quantile=\"0.5\"} 1.5\na_count 3\n";
    assert_eq!(check_exposition(fine), Ok(()));
}
