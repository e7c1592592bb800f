//! The live TCP server: admission for every decoded request, and one
//! engine thread that batches and executes requests on the real inference
//! engine.
//!
//! ## Threading model
//!
//! * **accept loop and reader threads** — the connection skeleton,
//!   [`adaflow_proto::server::serve_requests`], on the thread that called
//!   [`LiveServer::run`]: it owns accepting, reading, decoding, dropping
//!   connections on protocol violations, the write half and the wire
//!   counters. This module only gives it a handler: every decoded request
//!   goes through `admit` under the shared core lock;
//! * **engine thread** (exactly one) — drives batch closes and execution.
//!   *When* a batch closes and *how* a request is admitted, shed and
//!   settled is not decided here: both threads call the same
//!   [`DeviceCore`] the DES runs (`offer`, `next_close_s`, `begin_batch`,
//!   `settle_batch`), on wall-clock seconds, and this tier only supplies
//!   what the DES predicts — the measured service interval around
//!   `BatchRunner::run_full_by`. Within a batch, `BatchRunner` fans work
//!   across workers with one scratch each, kept from batch to batch.
//!
//! Nothing on the request path waits for a clock. [`LiveConfig::default`]
//! closes a batch the moment the engine is idle and a request is queued
//! (`max_wait_s = 0`: batches still fill, while the engine is busy), the
//! engine thread sleeps on the condition variable until an admission or the
//! shutdown wakes it, and accept loop and readers block in their system
//! calls until [`Stop::raise`] returns them. Only an explicitly non-zero
//! `max_wait_s` arms a timer, for exactly that wait.
//!
//! All threads live inside one `std::thread::scope`, so [`LiveServer::run`]
//! returning *proves* every worker joined — the no-leak half of the
//! graceful-shutdown contract. The other half: in-flight batches complete
//! and answer `Ok`, queued-but-unserved requests are drained with
//! `ShuttingDown` responses, and post-shutdown arrivals are rejected with
//! the same code.

use crate::clock::WallClock;
use adaflow_model::CnnGraph;
use adaflow_nn::{Activations, BatchRunner, Engine, NnError};
use adaflow_proto::server::{serve_requests, Conn, Stop, WireStats};
use adaflow_proto::{RequestFrame, ResponseFrame, Status};
use adaflow_serve::{
    emit_request_traces, Admission, Arriving, DeviceCore, ServeConfig, ServeSummary,
};
use adaflow_telemetry::SinkHandle;
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};
use thiserror::Error;

/// Errors surfaced by the live server.
#[derive(Debug, Error)]
pub enum NetError {
    /// Socket-level failure (bind, accept, warmup I/O).
    #[error("network error: {0}")]
    Io(#[from] std::io::Error),
    /// The inference engine could not be built or warmed up.
    #[error("engine error: {0}")]
    Engine(#[from] NnError),
}

/// Warmup inferences that measure the single-inference service floor for
/// deadline-infeasibility rejection.
const WARMUP_ITERS: usize = 3;

/// Configuration of one live server.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The shared serving knobs (deadline, queue capacity, batch shape,
    /// overflow policy) — the *same* struct the DES runs, so a simulated
    /// configuration transfers verbatim.
    pub serve: ServeConfig,
    /// Model id clients must name; empty accepts any id.
    pub model_id: String,
    /// Worker threads for `BatchRunner` (0 = auto).
    pub threads: usize,
}

impl Default for LiveConfig {
    /// [`ServeConfig::default`] with a work-conserving batcher:
    /// `max_wait_s = 0`, so an idle engine takes whatever is queued at once
    /// and a batch grows only while the engine is busy. The engine is a
    /// streaming dataflow that is at full speed at batch 1 — a 64-image
    /// batch costs 1.21 ms per image against 1.32 ms alone — so holding an
    /// idle engine for company buys at most 8 % capacity, which a loaded
    /// engine gets anyway (its queue fills while it works), and costs an
    /// unloaded one ten times its latency. The DES keeps the 20 ms of
    /// [`ServeConfig::default`]; a non-zero wait set here is honoured as
    /// written.
    fn default() -> Self {
        Self {
            serve: ServeConfig {
                max_wait_s: 0.0,
                ..ServeConfig::default()
            },
            model_id: String::new(),
            threads: 0,
        }
    }
}

/// Machine-readable reject tallies, by reason code.
///
/// `queue_full`, `deadline_infeasible` and `shutting_down` are load sheds
/// and also counted in the summary's `shed` (conservation holds over
/// them); `unknown_model` and `bad_request` are client errors rejected
/// before admission and tallied only here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCounts {
    /// Queue at capacity (includes displaced victims under shed policies).
    pub queue_full: u64,
    /// Deadline budget below the measured single-inference floor.
    pub deadline_infeasible: u64,
    /// Arrived or still queued while the server was draining.
    pub shutting_down: u64,
    /// Named a model this server is not serving.
    pub unknown_model: u64,
    /// Structurally valid frame with unusable semantics (shape mismatch).
    pub bad_request: u64,
}

impl RejectCounts {
    /// The tally of `status` (which must be a reject).
    fn of(&mut self, status: Status) -> &mut u64 {
        match status {
            Status::Ok => unreachable!("Ok is not a reject"),
            Status::QueueFull => &mut self.queue_full,
            Status::DeadlineInfeasible => &mut self.deadline_infeasible,
            Status::ShuttingDown => &mut self.shutting_down,
            Status::UnknownModel => &mut self.unknown_model,
            Status::BadRequest => &mut self.bad_request,
        }
    }

    /// Total rejects across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.deadline_infeasible
            + self.shutting_down
            + self.unknown_model
            + self.bad_request
    }
}

/// What one live run did, in DES-comparable terms plus wall-clock facts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveReport {
    /// The same summary type the DES produces — field-for-field
    /// comparable with simulated runs in EXPERIMENTS.md.
    pub summary: ServeSummary,
    /// Reject tallies by machine-readable reason.
    pub rejects: RejectCounts,
    /// Wall-clock duration of the run, bind to joined, seconds.
    pub duration_s: f64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Responses that could not be written (client gone).
    pub send_errors: u64,
    /// Fatal (non-`WouldBlock`) accept failures on the listener; the first
    /// one ends the run through the normal graceful drain.
    pub accept_errors: u64,
    /// Measured single-inference service floor, seconds.
    pub min_service_s: f64,
    /// Requests served per wall-clock second.
    pub throughput_rps: f64,
}

/// One admitted request waiting for a batch slot.
struct Pending {
    /// Server-assigned monotonic id — doubles as the telemetry trace id.
    trace_id: u64,
    /// Client-chosen id echoed in the response.
    client_id: u64,
    arrival_s: f64,
    /// The request's own latency budget, seconds from arrival, if it
    /// carried one.
    budget_s: Option<f64>,
    input: Activations,
    conn: Arc<Conn>,
}

impl Arriving for Pending {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }
    fn id(&self) -> u64 {
        self.trace_id
    }
    fn device(&self) -> u32 {
        0
    }
    fn deadline_s(&self) -> Option<f64> {
        self.budget_s
    }
}

fn to_us(seconds: f64) -> u32 {
    let us = seconds * 1e6;
    if us >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        us.max(0.0) as u32
    }
}

/// Mutable serving state shared by readers and the engine thread.
struct Core {
    /// The same state machine the DES runs, queueing wire requests.
    device: DeviceCore<Pending>,
    rejects: RejectCounts,
    next_trace_id: u64,
    draining: bool,
}

struct SharedState {
    core: Mutex<Core>,
    /// Signalled on enqueue and on shutdown; the engine waits on it.
    work: Condvar,
    stop: Stop,
    wire: Arc<WireStats>,
    clock: WallClock,
    sink: SinkHandle,
    config: LiveConfig,
    /// Measured single-inference floor; set once by warmup, before any
    /// reader thread exists.
    min_service_s: OnceLock<f64>,
}

impl SharedState {
    /// Wakes the engine thread for a stop that is already raised. The
    /// engine checks the stop and parks under the core lock, so notifying
    /// under it cannot fall between the two: the engine either has not
    /// checked yet, or is parked and hears this.
    fn wake_engine_for_stop(&self) {
        let _core = self.core.lock().expect("core lock poisoned");
        self.work.notify_all();
    }
}

/// A cloneable remote control for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<SharedState>,
}

impl ServerHandle {
    /// Initiates graceful shutdown: stop accepting, finish the in-flight
    /// batch, drain the queue with `ShuttingDown` responses, join all
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.raise();
        self.shared.wake_engine_for_stop();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.is_raised()
    }
}

/// A bound-but-not-yet-serving live server.
pub struct LiveServer<'g> {
    listener: TcpListener,
    graph: &'g CnnGraph,
    shared: Arc<SharedState>,
}

impl<'g> LiveServer<'g> {
    /// Binds the listener (use port 0 for an ephemeral port) and prepares
    /// shared state. No thread is spawned until [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate serving configuration (`max_batch == 0`),
    /// like the DES; `preflight` reports it first.
    pub fn bind(
        addr: impl ToSocketAddrs,
        graph: &'g CnnGraph,
        config: LiveConfig,
        sink: SinkHandle,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let core = Core {
            // No nominal-rate estimate: arrivals teach the EWMA from zero.
            device: DeviceCore::new(config.serve.clone(), 0.0),
            rejects: RejectCounts::default(),
            next_trace_id: 0,
            draining: false,
        };
        let shared = Arc::new(SharedState {
            core: Mutex::new(core),
            work: Condvar::new(),
            stop: Stop::new(),
            wire: Arc::default(),
            clock: WallClock::start(),
            sink,
            config,
            min_service_s: OnceLock::new(),
        });
        Ok(Self {
            listener,
            graph,
            shared,
        })
    }

    /// The bound address (interesting when binding port 0).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket query.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// A remote control usable from other threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called, then drains and
    /// returns the run report. Consumes the server; when this returns,
    /// every worker thread has joined and the listener is closed.
    ///
    /// # Errors
    ///
    /// Engine construction/warmup failures. Per-connection I/O problems
    /// are not errors — they are counted in the report.
    pub fn run(self) -> Result<LiveReport, NetError> {
        let engine = Engine::new(self.graph)?;
        let shape = self.graph.input_shape();

        // Warmup: measure the single-inference floor used for
        // deadline-infeasibility rejection (and to prime lazy init paths).
        let mut floor = f64::INFINITY;
        let mut scratch = engine.scratch();
        let zero = Activations::from_vec(shape, vec![0; shape.elements()]);
        for _ in 0..WARMUP_ITERS {
            let t0 = Instant::now();
            engine.run_with_scratch(&zero, &mut scratch)?;
            floor = floor.min(t0.elapsed().as_secs_f64());
        }
        self.shared
            .min_service_s
            .set(floor)
            .expect("run consumes the server, so warmup runs once");

        let runner = BatchRunner::new(engine).with_threads(self.shared.config.threads);
        let model_name = self.graph.name().to_string();
        let shared = &self.shared;
        let admit_request =
            |conn: &Arc<Conn>, request| admit(shared, conn, request, shape.elements());

        std::thread::scope(|scope| {
            scope.spawn(|| engine_loop(shared, &runner, &model_name));
            serve_requests(
                scope,
                &self.listener,
                &shared.stop,
                &shared.wire,
                &admit_request,
            );
            // The stop is up — by the handle, or by a dead listener, which
            // raises it without the handle's wake-up.
            shared.wake_engine_for_stop();
            // Scope exit joins the engine thread (which drains the queue
            // once the stop is up) and every reader (the stop shut their
            // read halves) — no worker can outlive this function.
        });
        drop(self.listener);

        let duration_s = self.shared.clock.now_s();
        let core = self.shared.core.lock().expect("core lock poisoned");
        let stats = core.device.stats();
        debug_assert_eq!(
            stats.arrived,
            stats.completed + stats.shed,
            "live conservation"
        );
        let summary = ServeSummary::from_device("live", stats, core.device.latency());
        Ok(LiveReport {
            rejects: core.rejects,
            duration_s,
            connections: self.shared.wire.connections.load(Ordering::Relaxed),
            protocol_errors: self.shared.wire.protocol_errors.load(Ordering::Relaxed),
            send_errors: self.shared.wire.send_errors.load(Ordering::Relaxed),
            accept_errors: self.shared.wire.accept_errors.load(Ordering::Relaxed),
            min_service_s: floor,
            throughput_rps: summary.completed / duration_s.max(1e-9),
            summary,
        })
    }
}

/// Answers `id` on `conn` with a reject that never reached admission.
fn refuse(shared: &SharedState, conn: &Conn, id: u64, status: Status) {
    let mut core = shared.core.lock().expect("core lock poisoned");
    *core.rejects.of(status) += 1;
    drop(core);
    conn.send(&ResponseFrame::reject(id, status));
}

/// Validates one decoded request and offers it to the device core.
fn admit(shared: &SharedState, conn: &Arc<Conn>, request: RequestFrame, expected_elements: usize) {
    let config = &shared.config;
    if !config.model_id.is_empty() && request.model != config.model_id {
        return refuse(shared, conn, request.id, Status::UnknownModel);
    }
    let (channels, height, width) = (
        usize::from(request.channels),
        usize::from(request.height),
        usize::from(request.width),
    );
    if channels * height * width != expected_elements {
        return refuse(shared, conn, request.id, Status::BadRequest);
    }
    let budget_s = (request.deadline_us != 0).then(|| request.deadline_us as f64 / 1e6);
    let now = shared.clock.now_s();
    let floor = *shared
        .min_service_s
        .get()
        .expect("warmup precedes the first reader");

    let mut core = shared.core.lock().expect("core lock poisoned");
    let trace_id = core.next_trace_id;
    core.next_trace_id += 1;
    // An arrival the queue never sees: it cannot make its deadline even on
    // an idle engine, or the server is going away.
    let refusal = if budget_s.unwrap_or(config.serve.deadline_s) < floor {
        Some((Status::DeadlineInfeasible, "deadline-infeasible"))
    } else if core.draining || shared.stop.is_raised() {
        Some((Status::ShuttingDown, "shutting-down"))
    } else {
        None
    };
    if let Some((status, reason)) = refusal {
        core.device.shed(trace_id, now, reason, &shared.sink);
        *core.rejects.of(status) += 1;
        drop(core);
        conn.send(&ResponseFrame::reject(request.id, status));
        return;
    }
    let pending = Pending {
        trace_id,
        client_id: request.id,
        arrival_s: now,
        budget_s,
        input: Activations::from_vec(
            adaflow_model::TensorShape::new(channels, height, width),
            request.data,
        ),
        conn: conn.clone(),
    };
    // Whoever the overflow policy shed — the newcomer or a queued victim —
    // is owed a `QueueFull`, sent once the lock is released.
    let admission = core.device.offer(pending, now, &shared.sink);
    let queued = !matches!(admission, Admission::Rejected);
    let shed = match admission {
        Admission::Enqueued { .. } => None,
        Admission::Rejected => Some((conn.clone(), request.id)),
        Admission::Displaced { victim, .. } => Some((victim.conn, victim.client_id)),
    };
    core.rejects.queue_full += u64::from(shed.is_some());
    drop(core);
    if queued {
        shared.work.notify_all();
    }
    if let Some((target, id)) = shed {
        target.send(&ResponseFrame::reject(id, Status::QueueFull));
    }
}

/// What the engine thread decided to do with the lock held.
enum EngineStep {
    /// Nothing due yet; the wait already happened inside the lock.
    Idle,
    /// Execute this batch, closed at `close_s`.
    Execute { batch: Vec<Pending>, close_s: f64 },
    /// Shutdown: these queued requests will never be served (none left:
    /// exit).
    Drain(Vec<Pending>),
}

fn engine_loop(shared: &SharedState, runner: &BatchRunner<'_>, model_name: &str) {
    loop {
        let step = {
            let mut core = shared.core.lock().expect("core lock poisoned");
            let now = shared.clock.now_s();
            if shared.stop.is_raised() {
                core.draining = true;
                let leftovers = core.device.drain(now, "shutting-down", &shared.sink);
                core.rejects.shutting_down += leftovers.len() as u64;
                EngineStep::Drain(leftovers)
            } else {
                // The engine thread is the server, so the core is never
                // busy here: a close is due, pending (only under a non-zero
                // `max_wait_s`), or — empty queue — not in sight until an
                // admission or the shutdown says so.
                match core.device.next_close_s(now) {
                    Some(due_s) if due_s <= now => EngineStep::Execute {
                        batch: core.device.begin_batch(now, model_name, &shared.sink),
                        close_s: now,
                    },
                    Some(due_s) => {
                        let wait = Duration::try_from_secs_f64(due_s - now);
                        let wait = wait.unwrap_or(Duration::MAX);
                        let woken = shared.work.wait_timeout(core, wait); // timer-ok: max_wait_s
                        drop(woken.expect("core lock poisoned"));
                        EngineStep::Idle
                    }
                    None => {
                        drop(shared.work.wait(core).expect("core lock poisoned"));
                        EngineStep::Idle
                    }
                }
            }
        };
        match step {
            EngineStep::Idle => {}
            // Loop again after a drain: new arrivals racing it get rejected
            // at admission; exit once the queue stays empty.
            EngineStep::Drain(leftovers) if leftovers.is_empty() => break,
            EngineStep::Drain(leftovers) => {
                for pending in &leftovers {
                    pending.conn.send(&ResponseFrame::reject(
                        pending.client_id,
                        Status::ShuttingDown,
                    ));
                }
            }
            EngineStep::Execute { batch, close_s } => {
                execute_batch(shared, runner, &batch, close_s);
            }
        }
    }
}

/// Runs one closed batch on the engine and settles every member.
fn execute_batch(shared: &SharedState, runner: &BatchRunner<'_>, batch: &[Pending], close_s: f64) {
    let start_s = shared.clock.now_s();
    let results = runner.run_full_by(batch, |pending| &pending.input);
    let done_s = shared.clock.now_s();
    let Ok(results) = results else {
        // Inputs were shape-validated at admission, so an engine error
        // here is exceptional; answer the whole batch as BadRequest so no
        // client hangs, and keep conservation (count as shed).
        let mut core = shared.core.lock().expect("core lock poisoned");
        core.device
            .abandon(batch, done_s, "bad-request", &shared.sink);
        core.rejects.bad_request += batch.len() as u64;
        drop(core);
        for pending in batch {
            pending.conn.send(&ResponseFrame::reject(
                pending.client_id,
                Status::BadRequest,
            ));
        }
        return;
    };
    // No switch stalls live (the drain starts at the close), and the
    // served model's accuracy is not known to this tier.
    let mut settled = Vec::with_capacity(batch.len());
    let mut core = shared.core.lock().expect("core lock poisoned");
    core.device.settle_batch(
        batch,
        close_s,
        close_s,
        start_s,
        done_s - start_s,
        done_s,
        0.0,
        &shared.sink,
        &mut settled,
    );
    drop(core);
    emit_request_traces(&shared.sink, &settled, 0, false);
    for ((pending, result), done) in batch.iter().zip(&results).zip(&settled) {
        pending.conn.send(&ResponseFrame {
            id: pending.client_id,
            status: Status::Ok,
            label: result.label.min(usize::from(u16::MAX)) as u16,
            queue_us: to_us(done.queue_wait_s),
            service_us: to_us(done.service_s),
            latency_us: to_us(done.latency_s),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_us_saturates_and_clamps() {
        assert_eq!(to_us(-1.0), 0);
        assert_eq!(to_us(0.5), 500_000);
        assert_eq!(to_us(1e9), u32::MAX);
    }

    #[test]
    fn reject_counts_total() {
        let r = RejectCounts {
            queue_full: 1,
            deadline_infeasible: 2,
            shutting_down: 3,
            unknown_model: 4,
            bad_request: 5,
        };
        assert_eq!(r.total(), 15);
    }

    /// The engine thread checks the stop and parks under the core lock, so
    /// a shutdown that notified without it could fall between the two and
    /// be lost — a hang, now that the engine's wait is untimed. The window
    /// is nanoseconds wide; holding the lock here stands in for an engine
    /// thread inside it: the shutdown must not finish until the lock is
    /// released (the engine has parked).
    #[test]
    fn shutdown_wakes_the_engine_under_the_core_lock() {
        use adaflow_model::{topology, QuantSpec};
        use std::sync::mpsc;

        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let server = LiveServer::bind(
            "127.0.0.1:0",
            &graph,
            LiveConfig::default(),
            SinkHandle::null(),
        )
        .expect("binds");
        let handle = server.handle();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let core = server.shared.core.lock().expect("core lock");
            scope.spawn(|| {
                handle.shutdown();
                tx.send(()).ok();
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "shutdown notified while the engine could be between its check and its park"
            );
            drop(core);
            rx.recv_timeout(Duration::from_secs(30))
                .expect("shutdown finishes once the lock is free");
        });
    }

    /// A fatal accept error must end the run through the graceful drain,
    /// not wedge it: the engine thread exits only on the shutdown flag.
    /// The listener is swapped for a UDP socket, on which `accept` fails
    /// at once with a non-`WouldBlock` error.
    #[cfg(unix)]
    #[test]
    fn fatal_accept_error_ends_the_run_gracefully() {
        use adaflow_model::{topology, QuantSpec};
        use std::os::fd::OwnedFd;
        use std::sync::mpsc;

        let graph: &'static CnnGraph = Box::leak(Box::new(
            topology::tiny(QuantSpec::w2a2(), 4).expect("builds"),
        ));
        let mut server = LiveServer::bind(
            "127.0.0.1:0",
            graph,
            LiveConfig::default(),
            SinkHandle::null(),
        )
        .expect("binds");
        let udp = std::net::UdpSocket::bind("127.0.0.1:0").expect("udp socket");
        server.listener = TcpListener::from(OwnedFd::from(udp));

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.run()).ok());
        let report = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run() wedged on the accept error")
            .expect("run succeeds");
        assert_eq!(report.accept_errors, 1);
        assert_eq!(report.connections, 0);
    }
}
