//! The per-device serving core: one bounded queue, one dynamic batcher,
//! one policy-controlled accelerator.
//!
//! [`DeviceCore`] is the single-server state machine that
//! [`ServeEngine`](crate::engine::ServeEngine) runs one of, the fleet
//! layer (`adaflow-fleet`) runs N of, and the live TCP server
//! (`adaflow-net`) drives from real sockets. It owns everything local to a
//! device — admission queue, in-flight batch, observed-pressure EWMA,
//! control-period rate limiting, per-request deadline accounting — and
//! exposes *event candidates* (`next_completion_s`, `next_close_s`)
//! instead of a run loop, so a caller can interleave any number of cores
//! on one global simulation clock in deterministic time order.
//!
//! The semantics are exactly the single-device engine's (see
//! `crate::engine` for the event model): batches close only while the
//! server is idle, switch stalls delay the start of the next batch
//! without dropping queued work, and an in-flight batch always completes
//! under the state it started with. The only extension is the pluggable
//! *drain gate* on [`DeviceCore::close_batch`]: a fleet-level
//! reconfiguration coordinator can postpone the start of a stall window
//! (staggering fabric switches across devices); the single-device engine
//! passes the identity gate (drain starts immediately).

use crate::config::ServeConfig;
use crate::policy::ServePolicy;
use crate::queue::{Admission, AdmissionQueue, Arriving};
use crate::request::{CompletedRequest, Request};
use adaflow::PressureSignal;
use adaflow_edge::ServingState;
use adaflow_telemetry::{EventKind, LogHistogram, SinkHandle};

/// Absolute slack for deadline and timer comparisons, seconds.
pub(crate) const TIME_EPS: f64 = 1e-9;
/// Time constant of the arrival-rate EWMA feeding the pressure signal,
/// seconds.
const EWMA_TAU_S: f64 = 1.0;
/// Horizon within which the control loop aims to drain the backlog,
/// seconds (the `T` of `μ ≥ λ + Q/T`).
const DRAIN_TARGET_S: f64 = 0.5;

/// A batch in service.
struct InFlight<T> {
    members: Vec<T>,
    close_s: f64,
    drain_start_s: f64,
    start_s: f64,
    service_s: f64,
    done_s: f64,
    accuracy: f64,
}

/// Running counters of one device core (integral during a run; exposed as
/// plain integers/sums so callers can build whatever summary they need).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Requests offered to this device.
    pub arrived: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completed requests that met the deadline.
    pub deadline_hits: u64,
    /// Batches closed.
    pub batches: u64,
    /// Requests across all closed batches.
    pub batched_requests: u64,
    /// Model switches performed by the policy.
    pub model_switches: u64,
    /// Model switches served by the flexible fabric (weight reloads).
    pub flexible_switches: u64,
    /// Full FPGA reconfigurations.
    pub reconfigurations: u64,
    /// Total service suspension charged by switches, seconds.
    pub stall_total_s: f64,
    /// Sum of per-request queue waits (arrival → batch close), seconds.
    pub queue_wait_sum_s: f64,
    /// Sum of per-request batch waits (close → service start), seconds.
    pub batch_wait_sum_s: f64,
    /// Sum of per-request service times, seconds.
    pub service_sum_s: f64,
    /// Sum of per-request end-to-end latencies, seconds.
    pub latency_sum_s: f64,
    /// Sum of per-request serving-model accuracies, percent.
    pub accuracy_sum_pct: f64,
    /// Accumulated *batch-level* service time — the device's busy time,
    /// for utilisation (unlike `service_sum_s`, counted once per batch).
    pub busy_service_s: f64,
}

/// What one [`DeviceCore::close_batch`] call did — the fleet layer turns
/// this into per-device reconfiguration telemetry and stagger accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchClose {
    /// Requests in the closed batch.
    pub size: usize,
    /// Stall charged by the policy at this close (zero when the policy was
    /// not consulted or did not switch).
    pub stall_s: f64,
    /// When the stall window begins (equals the close instant under the
    /// identity gate; later when a coordinator deferred the drain).
    pub drain_start_s: f64,
    /// When service starts (`drain_start_s + stall_s`).
    pub start_s: f64,
    /// When the batch completes.
    pub done_s: f64,
    /// Whether this close switched the CNN model.
    pub model_switched: bool,
    /// Whether this close reconfigured the FPGA fabric.
    pub reconfigured: bool,
}

/// One policy-controlled single-server device: queue, batcher, pressure
/// observation and deadline accounting — over the DES's [`Request`]s or
/// the live server's decoded wire requests alike.
pub struct DeviceCore<T: Arriving = Request> {
    config: ServeConfig,
    queue: AdmissionQueue<T>,
    busy: Option<InFlight<T>>,
    state: Option<ServingState>,
    last_control: f64,
    /// Observed arrival-rate EWMA, seeded with the operator's nominal
    /// estimate until arrivals teach it.
    ewma: f64,
    last_arrival_s: Option<f64>,
    stats: DeviceStats,
    latency: LogHistogram,
}

impl<T: Arriving> DeviceCore<T> {
    /// Creates a device core. `initial_rate_fps` seeds the arrival-rate
    /// EWMA (the operator's nominal estimate of this device's share of the
    /// offered load).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`max_batch == 0`, which
    /// SV001 reports ahead of time).
    #[must_use]
    pub fn new(config: ServeConfig, initial_rate_fps: f64) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        let queue = AdmissionQueue::new(config.queue_capacity, config.overflow);
        Self {
            config,
            queue,
            busy: None,
            state: None,
            last_control: f64::NEG_INFINITY,
            ewma: initial_rate_fps,
            last_arrival_s: None,
            stats: DeviceStats::default(),
            latency: LogHistogram::latency_s(),
        }
    }

    /// Current admission-queue occupancy.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests in the in-flight batch (zero while idle).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.busy.as_ref().map_or(0, |b| b.members.len())
    }

    /// Throughput of the currently-applied serving state, if established.
    #[must_use]
    pub fn serving_fps(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.throughput_fps)
    }

    /// Model of the currently-applied serving state, if established — the
    /// one serving the batch in flight.
    #[must_use]
    pub fn serving_model(&self) -> Option<&str> {
        self.state.as_ref().map(|s| s.model.as_str())
    }

    /// The device's observed arrival-rate EWMA, FPS.
    #[must_use]
    pub fn ewma_fps(&self) -> f64 {
        self.ewma
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// The completed-request latency distribution so far.
    #[must_use]
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Whether the device holds no work (queue empty, server idle).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.busy.is_none()
    }

    /// Consumes the core, returning final counters and the completed-
    /// request latency distribution.
    #[must_use]
    pub fn finish(self) -> (DeviceStats, LogHistogram) {
        (self.stats, self.latency)
    }

    /// Next batch-completion instant, if a batch is in flight — the
    /// earliest time the server can accept new work.
    #[must_use]
    pub fn next_completion_s(&self) -> Option<f64> {
        self.busy.as_ref().map(|b| b.done_s)
    }

    /// Next batch-close instant: only while the server is idle with queued
    /// work — `now` when the queue already holds a full batch, otherwise
    /// when the oldest queued request exhausts its batching wait.
    #[must_use]
    pub fn next_close_s(&self, now: f64) -> Option<f64> {
        if self.busy.is_some() {
            return None;
        }
        self.queue.oldest_arrival_s().map(|oldest| {
            if self.queue.len() >= self.config.max_batch {
                now
            } else {
                (oldest + self.config.max_wait_s).max(now)
            }
        })
    }

    /// Counts one request shed at `now` and reports it to `sink`.
    fn record_shed(&mut self, id: u64, now: f64, reason: &str, depth: u64, sink: &SinkHandle) {
        self.stats.shed += 1;
        if sink.enabled() {
            let kind = EventKind::RequestShed {
                id,
                reason: reason.to_string(),
                queue_depth: depth,
            };
            sink.emit(now, kind);
        }
    }

    /// Counts an arrival refused before it could queue (the live tier's
    /// deadline-infeasible and shutting-down rejects) as arrived and shed.
    pub fn shed(&mut self, id: u64, now: f64, reason: &str, sink: &SinkHandle) {
        self.stats.arrived += 1;
        self.record_shed(id, now, reason, self.queue.len() as u64, sink);
    }

    /// Counts admitted requests that will never be served (a batch the
    /// live engine failed) as shed.
    pub fn abandon(&mut self, members: &[T], now: f64, reason: &str, sink: &SinkHandle) {
        for (i, member) in members.iter().enumerate() {
            let depth = (self.queue.len() + members.len() - 1 - i) as u64;
            self.record_shed(member.id(), now, reason, depth, sink);
        }
    }

    /// Empties the queue, counting everything still waiting as shed (the
    /// live tier's shutdown drain).
    pub fn drain(&mut self, now: f64, reason: &str, sink: &SinkHandle) -> Vec<T> {
        let leftovers = self.queue.take_batch(usize::MAX);
        self.abandon(&leftovers, now, reason, sink);
        leftovers
    }

    /// Offers one request at `now`, teaching the arrival EWMA and
    /// resolving admission per the overflow policy. Telemetry
    /// (`RequestEnqueued` / `RequestShed`) goes to `sink`.
    pub fn offer(&mut self, request: T, now: f64, sink: &SinkHandle) -> Admission<T> {
        self.stats.arrived += 1;
        // Teach the EWMA the instantaneous rate implied by the observed
        // inter-arrival gap.
        if let Some(prev) = self.last_arrival_s {
            let dt = now - prev;
            if dt > 0.0 {
                let alpha = 1.0 - (-dt / EWMA_TAU_S).exp();
                self.ewma += alpha * (1.0 / dt - self.ewma);
            }
        }
        self.last_arrival_s = Some(now);

        let depth_before = self.queue.len() as u64;
        let (id, device) = (request.id(), request.device());
        let admission = self.queue.offer(request);
        // Who was shed (newcomer or displaced victim) and the depth the
        // newcomer joined at, if it did.
        let (shed_id, queue_depth) = match &admission {
            Admission::Enqueued { depth } => (None, Some(*depth)),
            Admission::Rejected => (Some(id), None),
            Admission::Displaced { victim, depth } => (Some(victim.id()), Some(*depth)),
        };
        if let Some(shed_id) = shed_id {
            let reason = self.config.overflow.shed_reason();
            self.record_shed(shed_id, now, reason, depth_before, sink);
        }
        if let (Some(queue_depth), true) = (queue_depth, sink.enabled()) {
            let kind = EventKind::RequestEnqueued {
                id,
                device,
                queue_depth,
            };
            sink.emit(now, kind);
        }
        admission
    }

    /// Closes a batch at `now` for whoever serves it: takes up to
    /// `max_batch` requests, counts the batch, emits `BatchClosed`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty — callers drive closes off
    /// [`DeviceCore::next_close_s`].
    pub fn begin_batch(&mut self, now: f64, model: &str, sink: &SinkHandle) -> Vec<T> {
        let members = self.queue.take_batch(self.config.max_batch);
        assert!(!members.is_empty(), "close event with an empty queue");
        if sink.enabled() {
            let kind = EventKind::BatchClosed {
                size: members.len() as u64,
                oldest_wait_s: now - members[0].arrival_s(),
                model: model.to_string(),
            };
            sink.emit(now, kind);
        }
        self.stats.batches += 1;
        self.stats.batched_requests += members.len() as u64;
        members
    }

    /// Settles a served batch: accounts every member's latency
    /// decomposition and deadline outcome against the batch's instants —
    /// predicted by the DES, measured by the live tier — onto `details`.
    #[allow(clippy::too_many_arguments)]
    pub fn settle_batch(
        &mut self,
        members: &[T],
        close_s: f64,
        drain_start_s: f64,
        start_s: f64,
        service_s: f64,
        done_s: f64,
        accuracy: f64,
        sink: &SinkHandle,
        details: &mut Vec<CompletedRequest>,
    ) {
        self.stats.busy_service_s += service_s;
        for member in members {
            let latency_s = done_s - member.arrival_s();
            let budget_s = member.deadline_s().unwrap_or(self.config.deadline_s);
            let done = CompletedRequest {
                id: member.id(),
                device: member.device(),
                arrival_s: member.arrival_s(),
                queue_wait_s: close_s - member.arrival_s(),
                batch_wait_s: start_s - close_s,
                stall_s: start_s - drain_start_s,
                service_s,
                latency_s,
                deadline_met: latency_s <= budget_s + TIME_EPS,
            };
            self.stats.completed += 1;
            self.stats.deadline_hits += u64::from(done.deadline_met);
            self.stats.latency_sum_s += latency_s;
            self.stats.queue_wait_sum_s += done.queue_wait_s;
            self.stats.batch_wait_sum_s += done.batch_wait_s;
            self.stats.service_sum_s += service_s;
            self.stats.accuracy_sum_pct += accuracy;
            self.latency.record(latency_s);
            if sink.enabled() {
                let kind = EventKind::RequestCompleted {
                    id: done.id,
                    latency_s,
                    deadline_met: done.deadline_met,
                };
                sink.emit(done_s, kind);
            }
            details.push(done);
        }
    }

    /// Completes the in-flight batch at `now`, settling every member
    /// (completion order) onto `details`.
    ///
    /// # Panics
    ///
    /// Panics if no batch is in flight — callers drive completions off
    /// [`DeviceCore::next_completion_s`].
    pub fn complete(&mut self, now: f64, sink: &SinkHandle, details: &mut Vec<CompletedRequest>) {
        let b = self
            .busy
            .take()
            .expect("completion implies an in-flight batch");
        self.settle_batch(
            &b.members,
            b.close_s,
            b.drain_start_s,
            b.start_s,
            b.service_s,
            now,
            b.accuracy,
            sink,
            details,
        );
    }

    /// Closes a batch at `now`: consults the policy (rate-limited to one
    /// consultation per control period; the very first close must
    /// establish a state), takes up to `max_batch` requests and puts them
    /// in flight for the service time the policy's throughput predicts.
    ///
    /// `drain_gate` maps `(now, stall_s)` to the instant the stall window
    /// may begin (`>= now`); service then starts at `drain_start +
    /// stall_s`. The single-device engine passes the identity gate; a
    /// fleet coordinator returns a later slot to stagger concurrent
    /// drains. The gate is consulted only when a switch actually stalls.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or a batch is already in flight —
    /// callers drive closes off [`DeviceCore::next_close_s`].
    pub fn close_batch(
        &mut self,
        now: f64,
        policy: &mut dyn ServePolicy,
        sink: &SinkHandle,
        drain_gate: &mut dyn FnMut(f64, f64) -> f64,
    ) -> BatchClose {
        assert!(self.busy.is_none(), "close with a batch in flight");
        // Consult the policy at most once per control period; the very
        // first close must establish a state.
        let mut stall_s = 0.0;
        let mut model_switched = false;
        let mut reconfigured = false;
        if self.state.is_none()
            || now - self.last_control >= self.config.control_period_s - TIME_EPS
        {
            let signal = PressureSignal {
                arrival_fps_ewma: self.ewma,
                queue_depth: self.queue.len() as f64,
                drain_target_s: DRAIN_TARGET_S,
            };
            let new_state = policy.on_pressure(now, &signal);
            if new_state.model_switched {
                self.stats.model_switches += 1;
                if new_state.reconfigured {
                    self.stats.reconfigurations += 1;
                } else {
                    self.stats.flexible_switches += 1;
                }
            }
            stall_s = new_state.stall_s;
            model_switched = new_state.model_switched;
            reconfigured = new_state.reconfigured;
            self.stats.stall_total_s += stall_s;
            self.state = Some(new_state);
            self.last_control = now;
        }
        // Lent out of `self` for the call, so the model name is borrowed,
        // not cloned per close.
        let st = self.state.take().expect("state established at first close");
        let members = self.begin_batch(now, &st.model, sink);
        let (fps, accuracy) = (st.throughput_fps, st.accuracy);
        self.state = Some(st);
        let drain_start_s = if stall_s > 0.0 {
            drain_gate(now, stall_s).max(now)
        } else {
            now
        };
        let start_s = drain_start_s + stall_s;
        let service_s = members.len() as f64 / fps.max(1e-9);
        let close = BatchClose {
            size: members.len(),
            stall_s,
            drain_start_s,
            start_s,
            done_s: start_s + service_s,
            model_switched,
            reconfigured,
        };
        self.busy = Some(InFlight {
            close_s: now,
            drain_start_s,
            start_s,
            service_s,
            done_s: close.done_s,
            accuracy,
            members,
        });
        close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::OverflowPolicy;
    use adaflow_dataflow::AcceleratorKind;
    use adaflow_hls::{PowerModel, ResourceEstimate};

    struct Fixed(f64);

    impl ServePolicy for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn on_pressure(&mut self, _now: f64, _signal: &PressureSignal) -> ServingState {
            ServingState {
                throughput_fps: self.0,
                stall_s: 0.0,
                accuracy: 80.0,
                power: PowerModel::new(ResourceEstimate {
                    lut: 1,
                    ff: 1,
                    bram36: 1,
                    dsp: 0,
                }),
                activity: 1.0,
                model: "fixed".into(),
                accelerator: AcceleratorKind::Finn,
                model_switched: false,
                reconfigured: false,
            }
        }
    }

    fn req(id: u64, arrival_s: f64) -> Request {
        Request {
            id,
            device: 0,
            arrival_s,
        }
    }

    #[test]
    fn close_candidate_respects_batch_and_wait() {
        let mut core = DeviceCore::new(
            ServeConfig {
                max_batch: 2,
                max_wait_s: 0.5,
                ..ServeConfig::default()
            },
            100.0,
        );
        let sink = SinkHandle::default();
        assert_eq!(core.next_close_s(0.0), None, "empty queue never closes");
        core.offer(req(0, 0.0), 0.0, &sink);
        assert_eq!(core.next_close_s(0.1), Some(0.5), "timer from oldest");
        core.offer(req(1, 0.1), 0.1, &sink);
        assert_eq!(core.next_close_s(0.1), Some(0.1), "full batch closes now");
    }

    /// A policy that stalls on its very first consult.
    struct Stall;
    impl ServePolicy for Stall {
        fn name(&self) -> &str {
            "stall"
        }
        fn on_pressure(&mut self, now: f64, signal: &PressureSignal) -> ServingState {
            let mut s = Fixed(100.0).on_pressure(now, signal);
            s.stall_s = 0.1;
            s.model_switched = true;
            s.reconfigured = true;
            s
        }
    }

    #[test]
    fn drain_gate_shifts_service_start() {
        let mut core = DeviceCore::new(ServeConfig::default(), 100.0);
        let sink = SinkHandle::default();
        core.offer(req(0, 0.0), 0.0, &sink);
        let close = core.close_batch(0.02, &mut Stall, &sink, &mut |_, _| 0.25);
        assert_eq!(close.drain_start_s, 0.25, "gate defers the drain");
        assert!((close.start_s - 0.35).abs() < 1e-12, "service after stall");
        assert!(close.reconfigured);
        assert_eq!(core.next_completion_s(), Some(close.done_s));
    }

    #[test]
    fn stats_track_batch_level_busy_time() {
        let mut core = DeviceCore::new(ServeConfig::default(), 100.0);
        let sink = SinkHandle::default();
        let mut details = Vec::new();
        for id in 0..4 {
            core.offer(req(id, 0.0), 0.0, &sink);
        }
        let close = core.close_batch(0.0, &mut Fixed(100.0), &sink, &mut |now, _| now);
        core.complete(close.done_s, &sink, &mut details);
        let stats = core.stats();
        assert_eq!(stats.completed, 4);
        // Per-member service sums 4×, batch-level busy time once.
        assert!((stats.service_sum_s - 4.0 * close.done_s).abs() < 1e-9);
        assert!((stats.busy_service_s - (close.done_s - close.start_s)).abs() < 1e-12);
        assert!(core.is_drained());
        assert_eq!(details.len(), 4);
    }

    #[test]
    fn shed_and_drain_keep_conservation() {
        let mut core = DeviceCore::new(ServeConfig::default(), 100.0);
        let (sink, recorder) = SinkHandle::recorder(64);
        let mut details = Vec::new();
        // Two queue, one is refused before it can (a live-tier reject).
        core.offer(req(0, 0.0), 0.0, &sink);
        core.offer(req(1, 0.01), 0.01, &sink);
        core.shed(2, 0.02, "deadline-infeasible", &sink);
        let conserved = |c: &DeviceCore| {
            let s = c.stats();
            s.arrived == s.completed + s.shed + (c.queue_len() + c.in_flight()) as u64
        };
        assert_eq!((core.stats().arrived, core.stats().shed), (3, 1));
        assert!(conserved(&core));
        // One is served, then the rest is drained at shutdown.
        let close = core.close_batch(0.03, &mut Fixed(100.0), &sink, &mut |now, _| now);
        core.offer(req(3, 0.04), 0.04, &sink);
        core.complete(close.done_s, &sink, &mut details);
        assert!(conserved(&core));
        let leftovers = core.drain(0.06, "shutting-down", &sink);
        assert_eq!(leftovers.iter().map(|r| r.id).collect::<Vec<_>>(), [3]);
        let stats = core.stats();
        assert_eq!((stats.arrived, stats.completed, stats.shed), (4, 2, 2));
        assert_eq!(stats.arrived, stats.completed + stats.shed);
        assert!(core.is_drained());
        let reasons: Vec<String> = recorder
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::RequestShed { id, reason, .. } => Some(format!("{id}:{reason}")),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, ["2:deadline-infeasible", "3:shutting-down"]);
    }

    #[test]
    fn a_request_with_its_own_budget_is_judged_against_it() {
        /// A request carrying a deadline budget, like a live wire request.
        struct Budgeted(Request, f64);
        impl Arriving for Budgeted {
            fn arrival_s(&self) -> f64 {
                self.0.arrival_s
            }
            fn id(&self) -> u64 {
                self.0.id
            }
            fn device(&self) -> u32 {
                self.0.device
            }
            fn deadline_s(&self) -> Option<f64> {
                Some(self.1)
            }
        }
        // Both complete 10 ms after arriving, inside the 250 ms default.
        let mut core = DeviceCore::new(ServeConfig::default(), 100.0);
        let sink = SinkHandle::default();
        let mut details = Vec::new();
        core.offer(Budgeted(req(0, 0.0), 0.005), 0.0, &sink);
        core.offer(Budgeted(req(1, 0.0), 0.5), 0.0, &sink);
        let members = core.begin_batch(0.0, "m", &sink);
        core.settle_batch(
            &members,
            0.0,
            0.0,
            0.0,
            0.01,
            0.01,
            0.0,
            &sink,
            &mut details,
        );
        let met: Vec<bool> = details.iter().map(|d| d.deadline_met).collect();
        assert_eq!(met, [false, true]);
        assert_eq!(core.stats().deadline_hits, 1);
    }

    #[test]
    fn zero_capacity_core_sheds_everything() {
        let mut core = DeviceCore::new(
            ServeConfig {
                queue_capacity: 0,
                overflow: OverflowPolicy::ShedOldest,
                ..ServeConfig::default()
            },
            100.0,
        );
        let sink = SinkHandle::default();
        for id in 0..5 {
            assert_eq!(
                core.offer(req(id, id as f64 * 0.01), id as f64 * 0.01, &sink),
                Admission::Rejected
            );
        }
        assert_eq!(core.stats().arrived, 5);
        assert_eq!(core.stats().shed, 5);
        assert_eq!(core.next_close_s(1.0), None, "nothing ever queues");
        assert!(core.is_drained());
    }
}
