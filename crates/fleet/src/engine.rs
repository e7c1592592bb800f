//! The deterministic fleet discrete-event engine.
//!
//! Runs N [`DeviceCore`]s on one global simulation clock behind a fleet
//! router. Event sources per step: every device's batch completion,
//! every device's batch close, the global arrival stream, and the
//! periodic load-imbalance sampler — processed in global time order by
//! [`Devices::next_event`], which owns the tie discipline and reads an
//! index instead of the devices; the router likewise reads one maintained
//! [`DeviceSnapshot`] row per device, and an event rewrites only the key
//! and the row of the device it touched. The ordering is a pure function
//! of `(config, library, spec, seed)`, so a fleet run is bit-reproducible;
//! nothing about it depends on host threads (a seeded sweep shards
//! *runs*, never the event loop).
//!
//! Arrivals are the same per-IoT-device trace the single-device engine
//! consumes ([`adaflow_serve::generate_requests`]); the router decides
//! which accelerator each request joins, the chosen device's own
//! admission queue/batcher/deadline accounting take over from there, and
//! fabric switches go through the [`ReconfigCoordinator`] so at most K
//! devices drain at once.

use crate::config::FleetConfig;
use crate::coordinator::{max_overlap, ReconfigCoordinator};
use crate::router::DeviceSnapshot;
use crate::summary::{DeviceSummary, FleetSummary};
use adaflow::Library;
use adaflow_edge::WorkloadSpec;
use adaflow_serve::{
    generate_requests, CompletedRequest, DeviceCore, DeviceStats, Devices, Pick, ServePolicy,
    ServeSummary,
};
use adaflow_telemetry::{EventKind, LogHistogram, SinkHandle};

/// Period of the fleet load-imbalance sampler, seconds.
const IMBALANCE_PERIOD_S: f64 = 1.0;

/// Coefficient of variation (σ/μ) of a sample; zero when the mean is not
/// positive.
fn coefficient_of_variation(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// The fleet engine: composition and an optional telemetry sink. The
/// adaptive device policies run under the default runtime-manager
/// configuration.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    config: FleetConfig,
    sink: SinkHandle,
}

impl FleetEngine {
    /// Creates an engine over a fleet configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            sink: SinkHandle::default(),
        }
    }

    /// Attaches a telemetry sink receiving the full fleet lifecycle:
    /// per-request routing/enqueue/completion/shed, batch closes,
    /// per-device reconfiguration spans and imbalance samples.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Runs one seeded fleet simulation to completion (trace exhausted,
    /// every queue drained) and returns the fleet summary.
    ///
    /// # Panics
    ///
    /// Panics if the fleet shape is degenerate (no devices, zero drain
    /// budget) — conditions FL001 reports ahead of time.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, library: &Library, spec: &WorkloadSpec, seed: u64) -> FleetSummary {
        let cfg = &self.config;
        let n = cfg.devices.len();
        assert!(n > 0, "fleet needs at least one device (FL001)");
        // Each device's EWMA starts at its even share of the nominal load.
        let share_rate = spec.nominal_fps() / n as f64;

        let cores = (0..n)
            .map(|_| DeviceCore::new(cfg.serve.clone(), share_rate))
            .collect();
        let mut devices: Devices = Devices::new(cores, 0.0);
        // Cold devices are routed on their even share as throughput prior.
        let row = |d: &DeviceCore| {
            DeviceSnapshot::new(
                d.queue_len(),
                d.in_flight(),
                d.next_completion_s(),
                d.serving_fps(),
                share_rate,
            )
        };
        let mut rows: Vec<DeviceSnapshot> = devices.cores().iter().map(row).collect();
        let null = SinkHandle::null();
        let mut policies: Vec<Box<dyn ServePolicy + '_>> = cfg
            .devices
            .iter()
            .map(|kind| kind.build(library, cfg.serve.deadline_s, &null))
            .collect();
        let mut router = cfg.router.build(seed);
        let mut coordinator = ReconfigCoordinator::new(cfg.max_concurrent_drains);

        let requests = generate_requests(spec, seed);
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;
        let mut next_sample = IMBALANCE_PERIOD_S;

        let mut request_stall_sum_s = 0.0f64;
        let mut scratch: Vec<CompletedRequest> = Vec::new();
        let mut drains: Vec<(f64, f64)> = Vec::new();
        let mut cv_sum = 0.0f64;
        let mut cv_max = 0.0f64;
        let mut cv_count = 0u64;

        // Until the trace is exhausted, every queue drained, the fleet idle.
        let arrival_s = |next: usize| requests.get(next).map(|r| r.arrival_s);
        while let Some((t, pick)) =
            devices.next_event(now, arrival_s(next_arrival), Some(next_sample))
        {
            now = t;
            // The one device this event touches; its row is rewritten below.
            let touched = match pick {
                Pick::Completion(i) => {
                    devices.update(i, now, |d| d.complete(now, &self.sink, &mut scratch));
                    for d in &scratch {
                        request_stall_sum_s += d.stall_s;
                    }
                    adaflow_serve::emit_request_traces(&self.sink, &scratch, i as u32, true);
                    scratch.clear();
                    i
                }
                Pick::Close(i) => {
                    let close = devices.update(i, now, |d| {
                        d.close_batch(
                            now,
                            policies[i].as_mut(),
                            &self.sink,
                            &mut |drain_now, stall_s| coordinator.acquire(drain_now, stall_s),
                        )
                    });
                    if close.stall_s > 0.0 {
                        // Every granted stall window counts against the
                        // stagger budget — full fabric reconfigurations
                        // and flexible weight reloads alike drain the
                        // device through the coordinator gate.
                        drains.push((close.drain_start_s, close.start_s));
                    }
                    if close.reconfigured && close.stall_s > 0.0 && self.sink.enabled() {
                        let model = devices.cores()[i].serving_model();
                        let model = model.expect("a closed batch has a serving state");
                        self.sink.emit(
                            close.drain_start_s,
                            EventKind::DeviceReconfigStart {
                                device_idx: i as u32,
                                model: model.to_string(),
                            },
                        );
                        self.sink.emit(
                            close.start_s,
                            EventKind::DeviceReconfigEnd {
                                device_idx: i as u32,
                                model: model.to_string(),
                                stall_s: close.stall_s,
                            },
                        );
                    }
                    i
                }
                Pick::Arrival => {
                    let request = requests[next_arrival];
                    next_arrival += 1;
                    let idx = router.route(now, &rows);
                    assert!(idx < n, "router returned device {idx} of {n}");
                    if self.sink.enabled() {
                        self.sink.emit(
                            now,
                            EventKind::RequestRouted {
                                id: request.id,
                                device_idx: idx as u32,
                                queue_depth: devices.cores()[idx].queue_len() as u64,
                            },
                        );
                    }
                    devices.update(idx, now, |d| d.offer(request, now, &self.sink));
                    idx
                }
                Pick::Sample => {
                    let devices = devices.cores();
                    let depths: Vec<f64> = devices.iter().map(|d| d.queue_len() as f64).collect();
                    let cv = coefficient_of_variation(&depths);
                    cv_sum += cv;
                    cv_max = cv_max.max(cv);
                    cv_count += 1;
                    if self.sink.enabled() {
                        let max_queue =
                            devices.iter().map(DeviceCore::queue_len).max().unwrap_or(0);
                        let min_queue =
                            devices.iter().map(DeviceCore::queue_len).min().unwrap_or(0);
                        self.sink.emit(
                            now,
                            EventKind::FleetImbalanceSample {
                                cv,
                                max_queue: max_queue as u64,
                                min_queue: min_queue as u64,
                            },
                        );
                    }
                    next_sample += IMBALANCE_PERIOD_S;
                    continue;
                }
            };
            rows[touched] = row(&devices.cores()[touched]);
        }

        let horizon_s = now;
        let finished: Vec<_> = devices
            .into_cores()
            .into_iter()
            .map(DeviceCore::finish)
            .collect();
        // The fleet is its devices taken as one, merged in index order:
        // quantiles read bucket counts and the extremes, exact under merge.
        let mut stats = DeviceStats::default();
        let mut latency = LogHistogram::latency_s();
        for (device_stats, device_latency) in &finished {
            stats.merge(device_stats);
            latency.merge(device_latency);
        }
        debug_assert_eq!(
            stats.arrived,
            requests.len() as u64,
            "every generated request was routed"
        );
        let total = ServeSummary::from_device(router.name(), &stats, &latency);
        debug_assert!(total.conservation_holds(), "fleet conservation");

        let per_device: Vec<DeviceSummary> = finished
            .iter()
            .zip(&cfg.devices)
            .map(|((stats, latency), kind)| {
                let d = ServeSummary::from_device(&kind.name(), stats, latency);
                DeviceSummary {
                    kind: d.policy,
                    arrived: d.arrived,
                    completed: d.completed,
                    shed: d.shed,
                    deadline_hit_pct: d.deadline_hit_pct,
                    utilization_pct: 100.0 * stats.busy_service_s / horizon_s.max(1e-9),
                    reconfigurations: d.reconfigurations,
                    stall_total_s: d.stall_total_s,
                }
            })
            .collect();
        let shares: Vec<f64> = per_device.iter().map(|d| d.arrived).collect();

        FleetSummary {
            router: total.policy,
            devices: n as f64,
            arrived: total.arrived,
            completed: total.completed,
            shed: total.shed,
            deadline_hits: total.deadline_hits,
            deadline_hit_pct: total.deadline_hit_pct,
            shed_pct: total.shed_pct,
            latency_mean_s: total.latency_mean_s,
            latency_p50_s: total.latency_p50_s,
            latency_p95_s: total.latency_p95_s,
            latency_p99_s: total.latency_p99_s,
            queue_wait_mean_s: total.queue_wait_mean_s,
            batch_wait_mean_s: total.batch_wait_mean_s,
            stall_mean_s: request_stall_sum_s / total.completed.max(1.0),
            service_mean_s: total.service_mean_s,
            batches: total.batches,
            mean_batch_size: total.mean_batch_size,
            model_switches: total.model_switches,
            flexible_switches: total.flexible_switches,
            reconfigurations: total.reconfigurations,
            stall_total_s: total.stall_total_s,
            imbalance_cv_mean: cv_sum / (cv_count as f64).max(1.0),
            imbalance_cv_max: cv_max,
            routed_share_cv: coefficient_of_variation(&shares),
            observed_max_drains: max_overlap(&drains) as f64,
            horizon_s,
            per_device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterKind;
    use adaflow::{LibraryGenerator, RuntimeConfig};
    use adaflow_edge::{AdaFlowServePolicy, PolicyKind, Scenario, Seeds};
    use adaflow_model::prelude::*;
    use adaflow_nn::DatasetKind;
    use serde::Serialize;

    fn library() -> Library {
        LibraryGenerator::default_edge_setup()
            .generate(
                &topology::cnv_w2a2_cifar10().expect("builds"),
                DatasetKind::Cifar10,
            )
            .expect("generates")
    }

    fn small_spec(scale: usize) -> WorkloadSpec {
        WorkloadSpec {
            devices: 4 * scale,
            fps_per_device: 30.0,
            duration_s: 4.0,
            scenario: Scenario::Unpredictable,
        }
    }

    #[test]
    fn fleet_run_conserves_and_is_deterministic() {
        let lib = library();
        let engine = FleetEngine::new(FleetConfig::default());
        let a = engine.run(&lib, &small_spec(4), 3);
        let b = engine.run(&lib, &small_spec(4), 3);
        assert!(a.arrived > 0.0);
        assert!(a.conservation_holds());
        assert_eq!(a, b, "same seed, bit-identical summary");
        let c = engine.run(&lib, &small_spec(4), 4);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn mean_is_identical_for_any_thread_count() {
        let lib = library();
        let engine = FleetEngine::new(FleetConfig::default());
        let mean = |threads| {
            let seeds = Seeds {
                threads,
                ..Seeds::new(1, 4)
            };
            let runs = seeds.map(|seed| engine.run(&lib, &small_spec(2), seed));
            FleetSummary::mean(&runs).expect("four runs")
        };
        let serial = mean(1);
        let two = mean(2);
        let auto = mean(0);
        assert_eq!(serial, two);
        assert_eq!(serial, auto);
    }

    #[test]
    fn traced_run_matches_untraced_summary() {
        let lib = library();
        let spec = small_spec(2);
        let engine = FleetEngine::new(FleetConfig::default());
        let runs = Seeds::new(9, 1).map(|seed| engine.run(&lib, &spec, seed));
        let untraced = FleetSummary::mean(&runs).expect("one run");
        let (sink, recorder) = SinkHandle::recorder(1 << 16);
        let traced = FleetEngine::new(FleetConfig::default())
            .with_sink(sink)
            .run(&lib, &spec, 9);
        assert_eq!(untraced, traced, "sink must not perturb the simulation");
        assert!(!recorder.is_empty(), "traced run emits events");
    }

    #[test]
    fn every_router_conserves_on_a_heterogeneous_fleet() {
        let lib = library();
        for router in RouterKind::ALL {
            let config = FleetConfig {
                router,
                ..FleetConfig::default()
            };
            let s = FleetEngine::new(config).run(&lib, &small_spec(4), 1);
            assert!(s.conservation_holds(), "{}", router.name());
            assert_eq!(s.router, router.name());
            assert_eq!(s.per_device.len(), 4);
            // Every device must see traffic under every router at this
            // load (4× nominal spread over 4 devices).
            for d in &s.per_device {
                assert!(d.arrived > 0.0, "{}: silent device", router.name());
            }
        }
    }

    #[test]
    fn single_device_fleet_matches_serve_engine_totals() {
        // A 1-device adaflow fleet is the single-device serving problem;
        // totals must line up with ServeEngine on the same trace.
        let lib = library();
        let spec = small_spec(1);
        let config = FleetConfig {
            devices: vec![PolicyKind::AdaFlow],
            router: RouterKind::RoundRobin,
            ..FleetConfig::default()
        };
        let fleet = FleetEngine::new(config.clone()).run(&lib, &spec, 5);
        let engine = adaflow_serve::ServeEngine::new(config.serve.clone());
        let mut policy = AdaFlowServePolicy::new(&lib, RuntimeConfig::default())
            .with_deadline(config.serve.deadline_s);
        let serve = engine.run(&spec, 5, &mut policy);
        // Every field the two summaries share, found by name.
        let (fleet_fields, serve_fields) = (fleet.to_value(), serve.to_value());
        let shared: Vec<&str> = serve_fields
            .as_object()
            .expect("a summary is an object")
            .iter()
            .filter_map(|(key, want)| {
                let got = fleet_fields.get(key)?;
                assert_eq!(got.as_f64(), want.as_f64(), "{key}");
                Some(key.as_str())
            })
            .collect();
        assert_eq!(shared.len(), 19, "{shared:?}");
        assert!(fleet.arrived > 0.0 && fleet.batches > 0.0);
    }

    #[test]
    fn fleet_span_forest_is_routed_well_formed_and_tiles_latency() {
        use adaflow_telemetry::{SpanRecord, Stage, TraceForest};
        let lib = library();
        let (sink, recorder) = SinkHandle::recorder(1 << 18);
        let s = FleetEngine::new(FleetConfig::default())
            .with_sink(sink)
            .run(&lib, &small_spec(4), 3);
        let forest = TraceForest::from_events(&recorder.drain());
        forest.validate().expect("span trees well-formed");
        assert_eq!(forest.len() as f64, s.completed, "one trace per completion");
        let n = s.per_device.len() as u32;
        for trace in &forest.traces {
            let root = trace.root().expect("root span");
            assert!(root.device_idx < n, "root carries the serving device");
            assert!(
                trace.spans.iter().any(|r| r.span == Stage::Route.span_id()),
                "fleet traces carry the route marker"
            );
            let leaf_sum: f64 = Stage::LEAVES
                .iter()
                .map(|stage| {
                    trace
                        .spans
                        .iter()
                        .find(|r| r.span == stage.span_id())
                        .map_or(0.0, SpanRecord::duration_s)
                })
                .sum();
            assert!(
                (leaf_sum - root.duration_s()).abs() < 1e-9,
                "stage sums tile the root"
            );
        }
        // The summary's stage means decompose its latency mean.
        let total = s.queue_wait_mean_s + s.batch_wait_mean_s + s.service_mean_s;
        assert!((total - s.latency_mean_s).abs() < 1e-9);
        assert!(s.stall_mean_s <= s.batch_wait_mean_s + 1e-12);
    }

    #[test]
    fn imbalance_sampler_reports_round_robin_balance() {
        let lib = library();
        let config = FleetConfig {
            devices: vec![PolicyKind::FlexibleOnly; 4],
            router: RouterKind::RoundRobin,
            ..FleetConfig::default()
        };
        let s = FleetEngine::new(config).run(&lib, &small_spec(4), 2);
        // Round-robin over identical devices spreads arrivals almost
        // exactly evenly.
        assert!(s.routed_share_cv < 0.02, "share cv {}", s.routed_share_cv);
        assert!(s.imbalance_cv_max >= s.imbalance_cv_mean);
    }
}
