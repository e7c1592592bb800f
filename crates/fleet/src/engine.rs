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
//! nothing about it depends on host threads (the multi-seed experiment
//! shards *runs*, never the event loop).
//!
//! Arrivals are the same per-IoT-device trace the single-device engine
//! consumes ([`adaflow_serve::generate_requests`]); the router decides
//! which accelerator each request joins, the chosen device's own
//! admission queue/batcher/deadline accounting take over from there, and
//! fabric switches go through the [`ReconfigCoordinator`] so at most K
//! devices drain at once.

use crate::config::{DeviceKind, FleetConfig};
use crate::coordinator::{max_overlap, ReconfigCoordinator};
use crate::router::DeviceSnapshot;
use crate::summary::{DeviceSummary, FleetSummary};
use adaflow::{Library, RuntimeConfig};
use adaflow_edge::WorkloadSpec;
use adaflow_serve::{
    generate_requests, AdaFlowServePolicy, CompletedRequest, DeviceCore, Devices, FixedMaxPolicy,
    FlexibleOnlyPolicy, Pick, ServePolicy,
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

/// The fleet engine: composition, runtime configuration and an optional
/// telemetry sink.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    config: FleetConfig,
    runtime: RuntimeConfig,
    sink: SinkHandle,
}

impl FleetEngine {
    /// Creates an engine over a fleet configuration with the default
    /// runtime-manager configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            runtime: RuntimeConfig::default(),
            sink: SinkHandle::default(),
        }
    }

    /// Overrides the runtime-manager configuration the adaptive device
    /// policies run under.
    #[must_use]
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Attaches a telemetry sink receiving the full fleet lifecycle:
    /// per-request routing/enqueue/completion/shed, batch closes,
    /// per-device reconfiguration spans and imbalance samples.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// The engine's fleet configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
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
        let mut policies: Vec<Box<dyn ServePolicy + '_>> = cfg
            .devices
            .iter()
            .map(|kind| -> Box<dyn ServePolicy> {
                match kind {
                    DeviceKind::AdaFlow => Box::new(
                        AdaFlowServePolicy::new(library, self.runtime.clone())
                            .with_deadline(cfg.serve.deadline_s),
                    ),
                    DeviceKind::FixedMax => Box::new(FixedMaxPolicy::new(library)),
                    DeviceKind::FlexibleOnly => {
                        Box::new(FlexibleOnlyPolicy::new(library, self.runtime.clone()))
                    }
                }
            })
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
        // Quantiles read bucket counts and the extremes, all exact under
        // merge: the fleet distribution is the union of the devices'.
        let mut fleet_latency = LogHistogram::latency_s();
        for (_, latency) in &finished {
            fleet_latency.merge(latency);
        }

        let sum = |f: fn(&adaflow_serve::DeviceStats) -> f64| -> f64 {
            finished.iter().map(|(s, _)| f(s)).sum()
        };
        let arrived = sum(|s| s.arrived as f64);
        let completed = sum(|s| s.completed as f64);
        let shed = sum(|s| s.shed as f64);
        let deadline_hits = sum(|s| s.deadline_hits as f64);
        let batches = sum(|s| s.batches as f64);
        let batched = sum(|s| s.batched_requests as f64);
        let latency_sum = sum(|s| s.latency_sum_s);
        debug_assert_eq!(
            arrived as u64,
            requests.len() as u64,
            "every generated request was routed"
        );
        debug_assert_eq!(
            arrived as u64,
            (completed + shed) as u64,
            "fleet conservation"
        );

        let per_device: Vec<DeviceSummary> = finished
            .iter()
            .zip(&cfg.devices)
            .map(|((stats, _), kind)| DeviceSummary {
                kind: kind.name().to_string(),
                arrived: stats.arrived as f64,
                completed: stats.completed as f64,
                shed: stats.shed as f64,
                deadline_hit_pct: 100.0 * stats.deadline_hits as f64
                    / (stats.arrived as f64).max(1.0),
                utilization_pct: 100.0 * stats.busy_service_s / horizon_s.max(1e-9),
                reconfigurations: stats.reconfigurations as f64,
                stall_total_s: stats.stall_total_s,
            })
            .collect();
        let shares: Vec<f64> = per_device.iter().map(|d| d.arrived).collect();

        FleetSummary {
            router: router.name().to_string(),
            devices: n as f64,
            arrived,
            completed,
            shed,
            deadline_hits,
            deadline_hit_pct: 100.0 * deadline_hits / arrived.max(1.0),
            shed_pct: 100.0 * shed / arrived.max(1.0),
            latency_mean_s: latency_sum / completed.max(1.0),
            latency_p50_s: fleet_latency.p50(),
            latency_p95_s: fleet_latency.p95(),
            latency_p99_s: fleet_latency.p99(),
            queue_wait_mean_s: sum(|s| s.queue_wait_sum_s) / completed.max(1.0),
            batch_wait_mean_s: sum(|s| s.batch_wait_sum_s) / completed.max(1.0),
            stall_mean_s: request_stall_sum_s / completed.max(1.0),
            service_mean_s: sum(|s| s.service_sum_s) / completed.max(1.0),
            batches,
            mean_batch_size: batched / batches.max(1.0),
            model_switches: sum(|s| s.model_switches as f64),
            flexible_switches: sum(|s| s.flexible_switches as f64),
            reconfigurations: sum(|s| s.reconfigurations as f64),
            stall_total_s: sum(|s| s.stall_total_s),
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
    use adaflow::LibraryGenerator;
    use adaflow_edge::Scenario;
    use adaflow_model::prelude::*;
    use adaflow_nn::DatasetKind;

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
            devices: vec![DeviceKind::AdaFlow],
            router: RouterKind::RoundRobin,
            ..FleetConfig::default()
        };
        let fleet = FleetEngine::new(config.clone()).run(&lib, &spec, 5);
        let engine = adaflow_serve::ServeEngine::new(config.serve.clone());
        let mut policy = AdaFlowServePolicy::new(&lib, RuntimeConfig::default())
            .with_deadline(config.serve.deadline_s);
        let serve = engine.run(&spec, 5, &mut policy);
        assert_eq!(fleet.arrived, serve.arrived);
        assert_eq!(fleet.completed, serve.completed);
        assert_eq!(fleet.shed, serve.shed);
        assert_eq!(fleet.deadline_hits, serve.deadline_hits);
        assert_eq!(fleet.reconfigurations, serve.reconfigurations);
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
            devices: vec![DeviceKind::FlexibleOnly; 4],
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
