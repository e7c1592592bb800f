//! The deterministic discrete-event serving engine.
//!
//! A single-server queueing system on a pure simulation clock: requests
//! arrive per the generated trace, pass admission control into the bounded
//! FIFO queue, get grouped by the dynamic batcher and served at the
//! currently-loaded accelerator's throughput. Three event sources drive the
//! loop — batch completions, batch closes and arrivals — processed in
//! global time order by [`Devices::next_event`], the one candidate picker
//! this engine and the fleet engine share.
//!
//! The per-device mechanics (queue, batcher, pressure EWMA, deadline
//! accounting) live in [`DeviceCore`](crate::device::DeviceCore); this
//! module is the single-device event loop over one core. The fleet layer
//! (`adaflow-fleet`) interleaves many cores on one clock through the same
//! picker, which reads the root of an index over the cores' pending events
//! instead of visiting them.
//!
//! ## Batching
//!
//! A batch closes when the server is idle and either the queue holds
//! `max_batch` requests or the oldest queued request has waited
//! `max_wait_s`. The whole batch is served as one unit for
//! `size / throughput_fps` seconds and completes at once — the granularity
//! at which `adaflow_nn::BatchRunner` consumes work.
//!
//! ## Pressure-driven control
//!
//! At batch close (rate-limited to one consultation per
//! `control_period_s`), the policy sees a [`PressureSignal`]: the EWMA of
//! observed inter-arrival rates plus the backlog spread over the drain
//! horizon. No oracle workload knowledge enters the loop.
//!
//! ## Drain, not drop
//!
//! Switch and reconfiguration stalls delay the *start* of the next batch;
//! queued requests persist through them (they may shed later only by
//! overflow, never by the switch itself), and an in-flight batch always
//! completes under the state it started with — switches happen strictly
//! between batches. At the end of the trace the engine keeps closing
//! batches until the queue is empty, so every arrival is accounted for:
//! `arrived == completed + shed` with nothing in flight.

use crate::arrivals::generate_requests;
use crate::config::ServeConfig;
use crate::device::DeviceCore;
use crate::policy::ServePolicy;
use crate::queue::Arriving;
use crate::request::{CompletedRequest, Request};
use crate::summary::ServeSummary;
use adaflow_edge::WorkloadSpec;
use adaflow_telemetry::SinkHandle;

#[cfg(test)]
use adaflow::PressureSignal;

/// The event [`Devices::next_event`] picked: a device's batch completion
/// or batch close (by device index), the next arrival, or the caller's
/// periodic sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Device `i` completes its in-flight batch.
    Completion(usize),
    /// Device `i` closes a batch.
    Close(usize),
    /// The next request of the arrival stream arrives.
    Arrival,
    /// The periodic sampler fires.
    Sample,
}

/// Keeps `chosen` unless `t` is strictly earlier.
fn consider(chosen: &mut Option<(f64, Pick)>, t: Option<f64>, pick: Pick) {
    if let Some(t) = t {
        if chosen.is_none_or(|(best, _)| t.total_cmp(&best).is_lt()) {
            *chosen = Some((t, pick));
        }
    }
}

/// The device cores of one simulation plus the index of their pending
/// events, so picking the next one does not visit every device.
///
/// The index is a winner tree over `2n` leaves, padded to a power of two:
/// leaf `i < n` is device `i`'s `next_completion_s()`, leaf `n + i` its
/// `next_close_s(now)`, `INFINITY` where there is no candidate. Every
/// inner node names the earlier of its two children's leaves under
/// `total_cmp`, the left one on a tie, so the root is the earliest leaf
/// and, among equals, the leftmost — leaf order *is* the tie order
/// (completion before close, then lowest device index).
///
/// The cores are only mutable through [`update`](Self::update), which
/// re-keys the device it touched before returning: a stale key cannot be
/// written. A stored close key is exact although `next_close_s` takes
/// `now`: that instant enters only as `.max(now)` (or as `now` itself for
/// a full queue), so a key `k` stored at `t0` is `>= t0` and a fresh call
/// returns the same `k` for every `now` in `[t0, k]`; and every pick is
/// the minimum over all stored keys, so while `k` is pending the clock
/// never passes it.
pub struct Devices<T: Arriving = Request> {
    cores: Vec<DeviceCore<T>>,
    /// Leaf keys, a power of two of them.
    keys: Vec<f64>,
    /// `winner[k]` is the leaf winning the subtree under heap node `k`
    /// (root 1, children `2k` and `2k + 1`, leaf `j` at `keys.len() + j`).
    winner: Vec<usize>,
}

impl<T: Arriving> Devices<T> {
    /// Indexes `cores` as they stand at `now`.
    #[must_use]
    pub fn new(cores: Vec<DeviceCore<T>>, now: f64) -> Self {
        let leaves = (2 * cores.len()).next_power_of_two();
        // All keys tie at `INFINITY`: every node's winner is its leftmost leaf.
        let mut winner: Vec<usize> = (0..2 * leaves).map(|k| k.saturating_sub(leaves)).collect();
        for k in (1..leaves).rev() {
            winner[k] = winner[2 * k];
        }
        let mut devices = Self {
            cores,
            keys: vec![f64::INFINITY; leaves],
            winner,
        };
        for i in 0..devices.cores.len() {
            devices.update(i, now, |_| ());
        }
        devices
    }

    /// The cores, read-only.
    #[must_use]
    pub fn cores(&self) -> &[DeviceCore<T>] {
        &self.cores
    }

    /// Gives the cores back once the run is over.
    #[must_use]
    pub fn into_cores(self) -> Vec<DeviceCore<T>> {
        self.cores
    }

    /// Runs `f` on device `i` at `now` and re-keys that device's two
    /// leaves — the only mutable access to a core.
    pub fn update<R>(&mut self, i: usize, now: f64, f: impl FnOnce(&mut DeviceCore<T>) -> R) -> R {
        let out = f(&mut self.cores[i]);
        let core = &self.cores[i];
        let completion_s = core.next_completion_s().unwrap_or(f64::INFINITY);
        let close_s = core.next_close_s(now).unwrap_or(f64::INFINITY);
        self.set_key(i, completion_s);
        self.set_key(self.cores.len() + i, close_s);
        out
    }

    /// Stores `key` at `leaf` and replays its matches up to the root.
    fn set_key(&mut self, leaf: usize, key: f64) {
        self.keys[leaf] = key;
        let mut k = (self.keys.len() + leaf) / 2;
        while k > 0 {
            let (left, right) = (self.winner[2 * k], self.winner[2 * k + 1]);
            let left_wins = self.keys[left].total_cmp(&self.keys[right]).is_le();
            self.winner[k] = if left_wins { left } else { right };
            k /= 2;
        }
    }

    /// The earliest candidate event at `now`, with its instant.
    ///
    /// Ties go to the earlier class in *completion < close < arrival <
    /// sample* (finish work before starting more, start work before
    /// accepting more, observe last) and, within a class, to the lowest
    /// device index: the device candidate is the tree's root, and the
    /// arrival and then the sampler replace it only when strictly
    /// earlier. The sampler never keeps an otherwise-finished simulation
    /// alive: it is a candidate only while some other event is pending.
    /// `None` means the run is over. Debug builds check every pick against
    /// [`scan_next_event`].
    #[must_use]
    pub fn next_event(
        &self,
        now: f64,
        arrival_s: Option<f64>,
        sample_s: Option<f64>,
    ) -> Option<(f64, Pick)> {
        let (n, leaf) = (self.cores.len(), self.winner[1]);
        let pick = if leaf < n {
            Pick::Completion(leaf)
        } else {
            Pick::Close(leaf - n)
        };
        let t = self.keys[leaf];
        let mut chosen = (t < f64::INFINITY).then_some((t, pick));
        consider(&mut chosen, arrival_s, Pick::Arrival);
        if chosen.is_some() {
            consider(&mut chosen, sample_s, Pick::Sample);
        }
        debug_assert_eq!(
            chosen,
            scan_next_event(&self.cores, now, arrival_s, sample_s),
            "event index out of step with the cores"
        );
        chosen
    }
}

/// The oracle [`Devices::next_event`] is checked against: the same pick
/// by a strict-less linear scan over fresh candidates of every device,
/// completions first, then closes. Debug builds run it on every pick and
/// tests call it; no simulation loop does.
#[must_use]
pub fn scan_next_event<T: Arriving>(
    devices: &[DeviceCore<T>],
    now: f64,
    arrival_s: Option<f64>,
    sample_s: Option<f64>,
) -> Option<(f64, Pick)> {
    let mut chosen = None;
    for (i, d) in devices.iter().enumerate() {
        consider(&mut chosen, d.next_completion_s(), Pick::Completion(i));
    }
    for (i, d) in devices.iter().enumerate() {
        consider(&mut chosen, d.next_close_s(now), Pick::Close(i));
    }
    consider(&mut chosen, arrival_s, Pick::Arrival);
    if chosen.is_some() {
        consider(&mut chosen, sample_s, Pick::Sample);
    }
    chosen
}

/// The serving engine: configuration plus an optional telemetry sink.
#[derive(Debug, Clone, Default)]
pub struct ServeEngine {
    config: ServeConfig,
    sink: SinkHandle,
}

impl ServeEngine {
    /// Creates an engine over a serving configuration.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            sink: SinkHandle::default(),
        }
    }

    /// Attaches a telemetry sink receiving the full request lifecycle
    /// (`RequestEnqueued`, `BatchClosed`, `RequestCompleted`,
    /// `RequestShed`).
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs one seeded serving simulation to completion (trace exhausted
    /// and queue drained) and returns the run summary.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`max_batch == 0`).
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        policy: &mut dyn ServePolicy,
    ) -> ServeSummary {
        let requests = generate_requests(spec, seed);
        self.serve_trace(spec, &requests, policy)
    }

    /// Like [`run`](Self::run), but also returns the per-request latency
    /// decomposition of every completed request (completion order).
    pub fn run_detailed(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        policy: &mut dyn ServePolicy,
    ) -> (ServeSummary, Vec<CompletedRequest>) {
        let requests = generate_requests(spec, seed);
        let mut details = Vec::new();
        let summary = self.serve_loop(spec, &requests, policy, &mut details);
        (summary, details)
    }

    fn serve_trace(
        &self,
        spec: &WorkloadSpec,
        requests: &[Request],
        policy: &mut dyn ServePolicy,
    ) -> ServeSummary {
        let mut sink_details = Vec::new();
        self.serve_loop(spec, requests, policy, &mut sink_details)
    }

    fn serve_loop(
        &self,
        spec: &WorkloadSpec,
        requests: &[Request],
        policy: &mut dyn ServePolicy,
        details: &mut Vec<CompletedRequest>,
    ) -> ServeSummary {
        // Observed arrival-rate EWMA seed: the operator's nominal estimate
        // (fleet size × per-device rate) until arrivals teach it.
        let core = DeviceCore::new(self.config.clone(), spec.nominal_fps());
        let mut device = Devices::new(vec![core], 0.0);
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;

        // Until the trace is exhausted, the queue drained, the server idle.
        let arrival_s = |next: usize| requests.get(next).map(|r| r.arrival_s);
        while let Some((t, pick)) = device.next_event(now, arrival_s(next_arrival), None) {
            now = t;
            match pick {
                Pick::Completion(_) => {
                    let before = details.len();
                    device.update(0, now, |d| d.complete(now, &self.sink, details));
                    crate::tracing::emit_request_traces(&self.sink, &details[before..], 0, false);
                }
                Pick::Close(_) => {
                    // Single device: the drain (if any) starts immediately.
                    device.update(0, now, |d| {
                        d.close_batch(now, policy, &self.sink, &mut |close_now, _| close_now)
                    });
                }
                Pick::Arrival => {
                    device.update(0, now, |d| d.offer(requests[next_arrival], now, &self.sink));
                    next_arrival += 1;
                }
                Pick::Sample => unreachable!("no sampler was offered"),
            }
        }

        let core = device.into_cores().pop().expect("the one core");
        let (stats, latency) = core.finish();
        debug_assert_eq!(stats.arrived, stats.completed + stats.shed, "conservation");
        debug_assert_eq!(
            stats.batched_requests, stats.completed,
            "every batched request completes"
        );

        ServeSummary::from_device(policy.name(), &stats, &latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::OverflowPolicy;
    use adaflow_dataflow::AcceleratorKind;
    use adaflow_edge::{Scenario, ServingState};
    use adaflow_hls::{PowerModel, ResourceEstimate};
    use adaflow_telemetry::EventKind;

    /// A constant-throughput scripted policy.
    struct ConstPolicy {
        fps: f64,
        stall_every: usize,
        stall_s: f64,
        calls: usize,
    }

    impl ConstPolicy {
        fn new(fps: f64) -> Self {
            Self {
                fps,
                stall_every: 0,
                stall_s: 0.0,
                calls: 0,
            }
        }
    }

    impl ServePolicy for ConstPolicy {
        fn name(&self) -> &str {
            "const"
        }

        fn on_pressure(&mut self, _now: f64, _signal: &PressureSignal) -> ServingState {
            self.calls += 1;
            let switch = self.stall_every > 0 && self.calls.is_multiple_of(self.stall_every);
            ServingState {
                throughput_fps: self.fps,
                stall_s: if switch { self.stall_s } else { 0.0 },
                accuracy: 80.0,
                power: PowerModel::new(ResourceEstimate {
                    lut: 50_000,
                    ff: 50_000,
                    bram36: 100,
                    dsp: 0,
                }),
                activity: 1.0,
                model: "const".into(),
                accelerator: AcceleratorKind::Finn,
                model_switched: switch,
                reconfigured: switch,
            }
        }
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            devices: 4,
            fps_per_device: 25.0,
            duration_s: 5.0,
            scenario: Scenario::Stable,
        }
    }

    #[test]
    fn conservation_and_drain_hold() {
        let engine = ServeEngine::new(ServeConfig::default());
        let mut policy = ConstPolicy::new(500.0);
        let s = engine.run(&small_spec(), 1, &mut policy);
        assert!(s.arrived > 0.0);
        assert!(s.conservation_holds());
        assert_eq!(s.shed, 0.0, "ample capacity sheds nothing");
        assert_eq!(s.completed, s.arrived);
    }

    #[test]
    fn overload_sheds_and_misses() {
        let engine = ServeEngine::new(ServeConfig {
            queue_capacity: 8,
            ..ServeConfig::default()
        });
        // 100 FPS offered, 20 FPS served: the queue must overflow.
        let mut policy = ConstPolicy::new(20.0);
        let s = engine.run(&small_spec(), 1, &mut policy);
        assert!(s.conservation_holds());
        assert!(s.shed > 0.0, "overload must shed");
        assert!(s.deadline_hit_pct < 100.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let engine = ServeEngine::new(ServeConfig::default());
        let a = engine.run(&small_spec(), 9, &mut ConstPolicy::new(300.0));
        let b = engine.run(&small_spec(), 9, &mut ConstPolicy::new(300.0));
        assert_eq!(a, b);
        let c = engine.run(&small_spec(), 10, &mut ConstPolicy::new(300.0));
        assert_ne!(a, c);
    }

    #[test]
    fn stalls_count_into_batch_wait() {
        let engine = ServeEngine::new(ServeConfig {
            control_period_s: 0.0, // consult at every close
            ..ServeConfig::default()
        });
        let mut policy = ConstPolicy::new(500.0);
        policy.stall_every = 3;
        policy.stall_s = 0.05;
        let (s, details) = engine.run_detailed(&small_spec(), 2, &mut policy);
        assert!(s.reconfigurations > 0.0);
        assert!(s.stall_total_s > 0.0);
        assert!(
            details.iter().any(|d| d.batch_wait_s > 0.04),
            "stalled batches must surface in batch_wait"
        );
        // Decomposition adds up.
        for d in &details {
            let total = d.queue_wait_s + d.batch_wait_s + d.service_s;
            assert!((total - d.latency_s).abs() < 1e-9);
        }
    }

    #[test]
    fn batches_respect_max_size_and_wait() {
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait_s: 0.01,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(cfg);
        let (s, details) = engine.run_detailed(&small_spec(), 3, &mut ConstPolicy::new(400.0));
        assert!(s.mean_batch_size <= 4.0 + 1e-9);
        // No request waits in the queue much past max_wait when the server
        // keeps up (service of a full batch is 10 ms at 400 FPS).
        let worst_wait = details.iter().map(|d| d.queue_wait_s).fold(0.0, f64::max);
        assert!(worst_wait < 0.05, "worst queue wait {worst_wait}");
    }

    #[test]
    fn telemetry_lifecycle_is_complete() {
        let (sink, recorder) = SinkHandle::recorder(1 << 16);
        let engine = ServeEngine::new(ServeConfig::default()).with_sink(sink);
        let s = engine.run(&small_spec(), 4, &mut ConstPolicy::new(500.0));
        let events = recorder.drain();
        let enq = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RequestEnqueued { .. }))
            .count() as f64;
        let done = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RequestCompleted { .. }))
            .count() as f64;
        assert_eq!(enq, s.arrived - s.shed);
        assert_eq!(done, s.completed);
    }

    #[test]
    fn emitted_span_forest_is_well_formed_and_tiles_latency() {
        use adaflow_telemetry::{SpanRecord, Stage, TraceForest};
        let (sink, recorder) = SinkHandle::recorder(1 << 16);
        let engine = ServeEngine::new(ServeConfig {
            control_period_s: 0.0,
            ..ServeConfig::default()
        })
        .with_sink(sink);
        let mut policy = ConstPolicy::new(400.0);
        policy.stall_every = 3;
        policy.stall_s = 0.05;
        let s = engine.run(&small_spec(), 5, &mut policy);
        let forest = TraceForest::from_events(&recorder.drain());
        forest.validate().expect("span trees well-formed");
        assert_eq!(forest.len() as f64, s.completed, "one trace per completion");
        for trace in &forest.traces {
            let root = trace.root().expect("root span");
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
            assert!(
                trace.spans.iter().all(|r| r.span != Stage::Route.span_id()),
                "single-device traces carry no route span"
            );
        }
    }

    #[test]
    fn empty_workload_yields_zero_summary() {
        let spec = WorkloadSpec {
            devices: 2,
            fps_per_device: 0.0,
            duration_s: 5.0,
            scenario: Scenario::Stable,
        };
        let engine = ServeEngine::new(ServeConfig::default());
        let s = engine.run(&spec, 1, &mut ConstPolicy::new(100.0));
        assert_eq!(s.arrived, 0.0);
        assert_eq!(s.completed, 0.0);
        assert!(s.conservation_holds());
    }

    #[test]
    fn shed_oldest_keeps_newest_work() {
        let engine = ServeEngine::new(ServeConfig {
            queue_capacity: 8,
            overflow: OverflowPolicy::ShedOldest,
            ..ServeConfig::default()
        });
        let mut policy = ConstPolicy::new(20.0);
        let s = engine.run(&small_spec(), 1, &mut policy);
        assert!(s.conservation_holds());
        assert!(s.shed > 0.0);
    }
}
