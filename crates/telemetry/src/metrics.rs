//! A streaming metrics registry fed from telemetry events.
//!
//! [`MetricsRegistry`] folds the event stream into named counters, gauges
//! and log-bucketed histograms (reusing [`LogHistogram`]), plus tumbling
//! sim-time windows of request outcomes that the SLO engine consumes. It
//! can be filled offline from a recorded trace ([`MetricsRegistry::observe_all`])
//! or attached live to an engine via the [`RegistrySink`] adapter. It is the
//! only fold of the stream: [`MetricsRegistry::observe`] alone says what an
//! event kind counts as, and [`MetricsRegistry::to_prometheus`] alone renders
//! exposition text — for `/metrics` and for every `.prom` export.
//!
//! All storage is `BTreeMap`-keyed, so iteration — and therefore the
//! Prometheus exposition — is deterministically ordered.

use crate::event::{Event, EventKind};
use crate::histogram::LogHistogram;
use crate::sink::TelemetrySink;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Tumbling window length, simulation seconds.
pub(crate) const WINDOW_S: f64 = 1.0;

/// Registry parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryConfig {
    /// Latency objective used to classify completions as good/bad in the
    /// per-window counts (alongside the deadline verdict carried by the
    /// event itself).
    pub latency_objective_s: f64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            latency_objective_s: 0.25,
        }
    }
}

/// Request outcomes inside one tumbling window `[index·w, (index+1)·w)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window ordinal (`floor(t / 1 s)`).
    pub index: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Completions that missed their deadline budget.
    pub deadline_misses: u64,
    /// Completions slower than the configured latency objective.
    pub latency_over_objective: u64,
    /// Requests shed in the window.
    pub shed: u64,
}

/// Counters, gauges, histograms and tumbling windows distilled from a
/// telemetry stream.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    config: RegistryConfig,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
    /// Sorted by window index.
    windows: Vec<WindowStats>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Self {
        assert!(
            config.latency_objective_s > 0.0,
            "latency objective must be positive"
        );
        MetricsRegistry {
            config,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// The registry's configuration.
    #[must_use]
    pub fn config(&self) -> RegistryConfig {
        self.config
    }

    fn add(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    fn record(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(LogHistogram::latency_s)
            .record(value);
    }

    fn record_depth(&mut self, value: f64) {
        self.histograms
            .entry("queue_depth".to_string())
            .or_insert_with(LogHistogram::queue_frames)
            .record(value);
    }

    fn window_mut(&mut self, t_s: f64) -> &mut WindowStats {
        let index = if t_s <= 0.0 {
            0
        } else {
            (t_s / WINDOW_S).floor() as u64
        };
        let pos = match self.windows.binary_search_by_key(&index, |w| w.index) {
            Ok(pos) => pos,
            Err(pos) => {
                self.windows.insert(
                    pos,
                    WindowStats {
                        index,
                        ..WindowStats::default()
                    },
                );
                pos
            }
        };
        &mut self.windows[pos]
    }

    /// Folds one event into the registry.
    pub fn observe(&mut self, e: &Event) {
        self.add("events", 1.0);
        match &e.kind {
            EventKind::FrameArrived { count } => self.add("frames_arrived", *count),
            EventKind::FrameDropped { count, .. } => self.add("frames_dropped", *count),
            EventKind::QueueDepth { frames } => {
                self.set_gauge("queue_depth_last", *frames);
                self.record_depth(*frames);
            }
            EventKind::DecisionMade { stall_s, .. } => {
                self.add("decisions", 1.0);
                self.add("stall_seconds", *stall_s);
            }
            EventKind::ReconfigStart { .. } => self.add("reconfigurations", 1.0),
            EventKind::ReconfigEnd { .. } => {}
            EventKind::ModelSwitch { flexible, .. } => {
                self.add("model_switches", 1.0);
                if *flexible {
                    self.add("flexible_switches", 1.0);
                }
            }
            EventKind::RetrainEpoch { .. } => self.add("retrain_epochs", 1.0),
            EventKind::SynthReport { .. } => self.add("synth_reports", 1.0),
            EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. } => {}
            EventKind::RequestEnqueued { queue_depth, .. } => {
                self.add("requests_enqueued", 1.0);
                self.set_gauge("queue_depth_last", *queue_depth as f64);
                self.record_depth(*queue_depth as f64);
            }
            EventKind::BatchClosed {
                size,
                oldest_wait_s,
                ..
            } => {
                self.add("batches_closed", 1.0);
                self.add("batched_requests", *size as f64);
                self.record("batch_oldest_wait_s", *oldest_wait_s);
            }
            EventKind::RequestCompleted {
                latency_s,
                deadline_met,
                ..
            } => {
                self.add("requests_completed", 1.0);
                if !deadline_met {
                    self.add("deadline_misses", 1.0);
                }
                self.record("request_latency_s", *latency_s);
                let objective = self.config.latency_objective_s;
                let w = self.window_mut(e.t_s);
                w.completed += 1;
                if !deadline_met {
                    w.deadline_misses += 1;
                }
                if *latency_s > objective {
                    w.latency_over_objective += 1;
                }
            }
            EventKind::RequestShed { .. } => {
                self.add("requests_shed", 1.0);
                self.window_mut(e.t_s).shed += 1;
            }
            EventKind::RequestRouted { .. } => self.add("requests_routed", 1.0),
            EventKind::DeviceReconfigStart { .. } => self.add("device_reconfigs", 1.0),
            EventKind::DeviceReconfigEnd { stall_s, .. } => self.add("stall_seconds", *stall_s),
            EventKind::TraceSpan { stage, begin_s, .. } => {
                self.add("trace_spans", 1.0);
                self.record(&format!("stage_{stage}_s"), e.t_s - begin_s);
            }
            EventKind::SloBurnAlert { .. } => self.add("slo_burn_alerts", 1.0),
            EventKind::BackendEjected { .. } => self.add("backend_ejections", 1.0),
            EventKind::BackendReadmitted { downtime_s, .. } => {
                self.add("backend_readmissions", 1.0);
                self.record("backend_downtime_s", *downtime_s);
            }
            EventKind::FleetImbalanceSample { cv, .. } => {
                self.add("imbalance_samples", 1.0);
                self.set_gauge("fleet_imbalance_cv_last", *cv);
                let worst = self
                    .gauges
                    .get("fleet_imbalance_cv_max")
                    .copied()
                    .unwrap_or(0.0)
                    .max(*cv);
                self.set_gauge("fleet_imbalance_cv_max", worst);
            }
        }
    }

    /// Folds a whole trace.
    pub fn observe_all(&mut self, events: &[Event]) {
        for e in events {
            self.observe(e);
        }
    }

    /// A counter's value (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every counter, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
    }

    /// A gauge's last value, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if anything was recorded under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// The tumbling windows, sorted by index. Windows with no completions
    /// and no sheds are absent.
    #[must_use]
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Renders the registry in the Prometheus text exposition format with
    /// fully deterministic metric ordering (sorted by metric name).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut blocks: Vec<(String, String)> = Vec::new();
        for (name, value) in &self.counters {
            let full = format!("adaflow_{name}_total");
            blocks.push((
                full.clone(),
                format!("# TYPE {full} counter\n{full} {value}\n"),
            ));
        }
        for (name, value) in &self.gauges {
            let full = format!("adaflow_{name}");
            blocks.push((
                full.clone(),
                format!("# TYPE {full} gauge\n{full} {value}\n"),
            ));
        }
        for (name, hist) in &self.histograms {
            let full = format!("adaflow_{name}");
            let mut body = format!("# TYPE {full} summary\n");
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                body.push_str(&format!(
                    "{full}{{quantile=\"{label}\"}} {}\n",
                    hist.quantile(q)
                ));
            }
            body.push_str(&format!("{full}_count {}\n", hist.count()));
            blocks.push((full, body));
        }
        blocks.sort_by(|a, b| a.0.cmp(&b.0));
        blocks.into_iter().map(|(_, body)| body).collect()
    }
}

/// A [`TelemetrySink`] that streams events straight into a registry.
///
/// The engines' single-writer loop makes the mutex effectively
/// uncontended; [`RegistrySink::snapshot`] clones the registry for
/// analysis while a run is still attached.
#[derive(Debug)]
pub struct RegistrySink {
    registry: Mutex<MetricsRegistry>,
}

impl RegistrySink {
    /// A fresh sink around an empty registry.
    #[must_use]
    pub fn new(config: RegistryConfig) -> Arc<RegistrySink> {
        Arc::new(RegistrySink {
            registry: Mutex::new(MetricsRegistry::new(config)),
        })
    }

    /// A copy of the current registry state.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        self.registry.lock().expect("registry poisoned").clone()
    }
}

impl TelemetrySink for RegistrySink {
    fn record(&self, event: Event) {
        self.registry
            .lock()
            .expect("registry poisoned")
            .observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SinkHandle;

    fn completed(t_s: f64, latency_s: f64, deadline_met: bool) -> Event {
        Event::new(
            t_s,
            EventKind::RequestCompleted {
                id: 0,
                latency_s,
                deadline_met,
            },
        )
    }

    #[test]
    fn registry_folds_counters_windows_and_histograms() {
        let mut r = MetricsRegistry::new(RegistryConfig {
            latency_objective_s: 0.1,
        });
        r.observe_all(&[
            completed(0.5, 0.05, true),
            completed(0.6, 0.25, false),
            completed(1.5, 0.05, true),
            Event::new(
                1.7,
                EventKind::RequestShed {
                    id: 9,
                    reason: "queue-full".into(),
                    queue_depth: 3,
                },
            ),
        ]);
        assert_eq!(r.counter("requests_completed"), 3.0);
        assert_eq!(r.counter("deadline_misses"), 1.0);
        assert_eq!(r.counter("requests_shed"), 1.0);
        assert_eq!(r.counter("events"), 4.0);
        let w = r.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].index, w[0].completed, w[0].deadline_misses),
            (0, 2, 1)
        );
        assert_eq!(w[0].latency_over_objective, 1);
        assert_eq!((w[1].index, w[1].completed, w[1].shed), (1, 1, 1));
        let latency = r.histogram("request_latency_s").expect("histogram");
        assert_eq!(latency.count(), 3.0);
    }

    #[test]
    fn registry_tracks_spans_and_gauges() {
        let mut r = MetricsRegistry::new(RegistryConfig::default());
        r.observe(&Event::new(
            1.0,
            EventKind::TraceSpan {
                trace: 1,
                span: 5,
                parent: Some(0),
                stage: "compute".into(),
                begin_s: 0.9,
                device_idx: 0,
            },
        ));
        r.observe(&Event::new(
            2.0,
            EventKind::FleetImbalanceSample {
                cv: 0.5,
                max_queue: 9,
                min_queue: 1,
            },
        ));
        r.observe(&Event::new(
            3.0,
            EventKind::FleetImbalanceSample {
                cv: 0.2,
                max_queue: 4,
                min_queue: 2,
            },
        ));
        let stage = r.histogram("stage_compute_s").expect("stage histogram");
        assert!((stage.mean() - 0.1).abs() < 1e-9);
        assert_eq!(r.gauge("fleet_imbalance_cv_last"), Some(0.2));
        assert_eq!(r.gauge("fleet_imbalance_cv_max"), Some(0.5));
        assert_eq!(r.counter("trace_spans"), 1.0);
    }

    #[test]
    fn prometheus_output_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new(RegistryConfig::default());
        r.observe_all(&[
            completed(0.5, 0.05, true),
            Event::new(0.6, EventKind::QueueDepth { frames: 4.0 }),
        ]);
        let text = r.to_prometheus();
        assert_eq!(text, r.to_prometheus(), "deterministic");
        let families: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE"))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted, "families sorted by name");
        assert!(text.contains("adaflow_requests_completed_total 1"));
        assert!(text.contains("adaflow_request_latency_s{quantile=\"0.99\"}"));
    }

    #[test]
    fn registry_sink_streams_events() {
        let sink = RegistrySink::new(RegistryConfig::default());
        let handle = SinkHandle::new(sink.clone());
        handle.emit(
            0.2,
            EventKind::RequestCompleted {
                id: 1,
                latency_s: 0.01,
                deadline_met: true,
            },
        );
        let snap = sink.snapshot();
        assert_eq!(snap.counter("requests_completed"), 1.0);
        assert_eq!(snap.windows().len(), 1);
    }
}
