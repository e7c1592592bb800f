//! The gateway front-end: routing, retry, and the end-of-run report.
//!
//! ## Threading model
//!
//! Everything runs inside one `std::thread::scope`, so a returning
//! [`Gateway::run`] structurally proves every worker joined:
//!
//! * **accept loop and client readers** — the connection skeleton,
//!   [`adaflow_proto::server::serve_requests`], on the thread that called
//!   `run`: it owns accepting, reading, decoding, the write half and the
//!   wire counters. This module only gives it a handler: `handle_request`
//!   re-keys each decoded request and dispatches it to a backend chosen
//!   by the routing policy;
//! * **backend workers** — one per backend, each owning its multiplexed
//!   [`adaflow_proto::ProtoClient`] connection plus the health-probe
//!   state machine (see [`crate::backend`]).
//!
//! ## Request lifecycle
//!
//! A client request gets a gateway-wide id, is recorded in the pending
//! registry, and is forwarded with that id to the chosen backend. The
//! backend's response is correlated by id, the original client id is
//! restored, and the response is written back on the client's connection.
//! A retryable reject (`queue-full`, `shutting-down`) or a backend death
//! re-dispatches the request to a different healthy backend while the
//! retry budget and the client's deadline allow; otherwise the reject is
//! forwarded as-is. Every received request is answered exactly once —
//! [`GatewayReport::conservation_holds`] checks the ledger.

use crate::backend;
use crate::config::GatewayConfig;
use adaflow_fleet::router::{DeviceSnapshot, RoutePolicy};
use adaflow_proto::server::{serve_requests, Conn, Stop, WireStats};
use adaflow_proto::{RequestFrame, ResponseFrame, Status};
use adaflow_telemetry::{EventKind, LogHistogram, SinkHandle};
use serde::Serialize;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use thiserror::Error;

/// Ids at or above this bit are gateway-internal (health probes, warmup);
/// real client requests are re-keyed to a monotone counter far below it.
pub(crate) const PROBE_BASE: u64 = 1 << 63;

/// Throughput prior (FPS) the deadline-aware policy uses for a backend
/// that has no warmup floor and no live calibration yet.
const PRIOR_FPS: f64 = 100.0;

/// Why the gateway refused to start or died.
#[derive(Debug, Error)]
pub enum GatewayError {
    /// Socket-level failure (bind, accept).
    #[error("socket error: {0}")]
    Io(#[from] std::io::Error),
    /// No backend addresses were configured.
    #[error("gateway needs at least one backend address")]
    NoBackends,
    /// Every configured backend failed to connect (or failed warmup).
    #[error("no backend of {total} passed warmup; refusing to serve")]
    NoHealthyBackends {
        /// Backends configured.
        total: usize,
    },
}

/// One routed request awaiting its backend response.
pub(crate) struct InFlight {
    /// The client connection to answer on.
    pub(crate) client: Arc<Conn>,
    /// The id the client used (restored before answering).
    pub(crate) client_id: u64,
    /// The forwarded frame, re-keyed to the gateway id — kept whole so a
    /// retry can resend it to another backend.
    pub(crate) frame: RequestFrame,
    /// Dispatch attempts so far (0 = first dispatch in progress).
    pub(crate) attempts: u32,
    /// Backend currently holding the request.
    pub(crate) backend: usize,
    /// When the gateway accepted the request.
    pub(crate) enqueued: Instant,
    /// When the current attempt was dispatched (RTT base).
    pub(crate) sent_at: Instant,
    /// Absolute client deadline, when the request carried a budget.
    pub(crate) deadline: Option<Instant>,
}

/// Shared per-backend routing and accounting state.
pub(crate) struct BackendState {
    pub(crate) addr: SocketAddr,
    /// Dispatch channel into the backend worker (senders are `!Sync`).
    /// Messages carry `(gid, attempts)` so the worker can recognize a
    /// stale message whose request was re-dispatched while queued.
    pub(crate) tx: Mutex<mpsc::Sender<(u64, u32)>>,
    /// Whether the backend is in the healthy rotation.
    pub(crate) healthy: AtomicBool,
    /// Requests dispatched and not yet answered — the load signal the
    /// routing policies see.
    pub(crate) in_flight: AtomicUsize,
    pub(crate) routed: AtomicU64,
    pub(crate) ok: AtomicU64,
    pub(crate) retryable: AtomicU64,
    pub(crate) ejections: AtomicU64,
    pub(crate) readmissions: AtomicU64,
    /// Warmup-measured single-inference service floor, µs (0 = unknown).
    pub(crate) floor_us: AtomicU64,
    /// Live EWMA of observed `service_us` (0 = not yet calibrated).
    pub(crate) ewma_service_us: AtomicU64,
    pub(crate) rtts: Mutex<LogHistogram>,
}

impl BackendState {
    /// Estimated serving throughput, FPS: live calibration when present,
    /// else the warmup floor, else `None` (policy falls back to its prior).
    fn service_fps(&self) -> Option<f64> {
        let us = match self.ewma_service_us.load(Ordering::Relaxed) {
            0 => self.floor_us.load(Ordering::Relaxed),
            v => v,
        };
        (us > 0).then(|| 1e6 / us as f64)
    }
}

/// State shared by the accept loop, client readers, and backend workers.
pub(crate) struct Shared {
    pub(crate) config: GatewayConfig,
    pub(crate) sink: SinkHandle,
    epoch: Instant,
    pub(crate) stop: Stop,
    /// Set after the drain window: workers exit even with work pending.
    pub(crate) abort: AtomicBool,
    pub(crate) pending: Mutex<HashMap<u64, InFlight>>,
    /// Signalled by the last answer of a stopping gateway; the shutdown
    /// drain waits on it.
    drained: Condvar,
    next_id: AtomicU64,
    pub(crate) backends: Vec<BackendState>,
    policy: Mutex<Box<dyn RoutePolicy + Send>>,
    received: AtomicU64,
    answered_ok: AtomicU64,
    /// Reject tallies indexed by `Status::code() - 1`.
    reject_counts: [AtomicU64; 5],
    no_backend: AtomicU64,
    retries: AtomicU64,
    wire: Arc<WireStats>,
}

fn to_us(d: Duration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}

impl Shared {
    /// Telemetry seconds since the gateway's epoch.
    pub(crate) fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Picks a healthy backend (optionally excluding the one that just
    /// failed) through the configured routing policy. `None` when the
    /// rotation is empty.
    pub(crate) fn route(&self, exclude: Option<usize>) -> Option<usize> {
        let healthy: Vec<usize> = (0..self.backends.len())
            .filter(|&i| Some(i) != exclude && self.backends[i].healthy.load(Ordering::Relaxed))
            .collect();
        if healthy.is_empty() {
            return None;
        }
        let snaps: Vec<DeviceSnapshot> = healthy
            .iter()
            .map(|&i| {
                let backend = &self.backends[i];
                let in_flight = backend.in_flight.load(Ordering::Relaxed);
                DeviceSnapshot::new(0, in_flight, None, backend.service_fps(), PRIOR_FPS)
            })
            .collect();
        let now_s = self.now_s();
        let pick = self
            .policy
            .lock()
            .expect("policy lock")
            .route(now_s, &snaps);
        Some(healthy[pick.min(healthy.len() - 1)])
    }

    /// Records the dispatch and hands the request to `backend`'s worker.
    pub(crate) fn dispatch(&self, gid: u64, mut entry: InFlight, backend: usize) {
        entry.backend = backend;
        entry.sent_at = Instant::now();
        // The backend's admission budgets from the frame's arrival time,
        // so forward the *remaining* deadline, not the client's original
        // budget — after gateway queueing or a retry the original would
        // let the backend admit work that can no longer finish in time.
        // Clamped to ≥ 1: on the wire `deadline_us == 0` means no
        // deadline, and callers only dispatch while the deadline is live.
        if let Some(d) = entry.deadline {
            let left = d.saturating_duration_since(entry.sent_at);
            entry.frame.deadline_us = u64::try_from(left.as_micros()).unwrap_or(u64::MAX).max(1);
        }
        let b = &self.backends[backend];
        let depth = b.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        b.routed.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(
            self.now_s(),
            EventKind::RequestRouted {
                id: gid,
                device_idx: backend as u32,
                queue_depth: depth as u64,
            },
        );
        let attempt = entry.attempts;
        self.pending
            .lock()
            .expect("pending lock")
            .insert(gid, entry);
        let delivered = b.tx.lock().expect("tx lock").send((gid, attempt)).is_ok();
        if !delivered {
            // Worker already gone (shutdown race): the request cannot be
            // served here; answer rather than leak it.
            b.in_flight.fetch_sub(1, Ordering::Relaxed);
            let removed = self.pending.lock().expect("pending lock").remove(&gid);
            if let Some(entry) = removed {
                self.answer_reject(&entry, Status::ShuttingDown);
            }
        }
    }

    /// Forwards a backend response (any status) back to the client,
    /// restoring the client's request id and settling the ledger.
    pub(crate) fn forward_response(&self, entry: &InFlight, mut response: ResponseFrame) {
        response.id = entry.client_id;
        let latency_s = entry.enqueued.elapsed().as_secs_f64();
        match response.status {
            Status::Ok => {
                self.answered_ok.fetch_add(1, Ordering::Relaxed);
                let deadline_met = entry.deadline.is_none_or(|d| Instant::now() <= d);
                self.sink.emit(
                    self.now_s(),
                    EventKind::RequestCompleted {
                        id: entry.frame.id,
                        latency_s,
                        deadline_met,
                    },
                );
            }
            status => {
                let slot = usize::from(status.code()) - 1;
                self.reject_counts[slot].fetch_add(1, Ordering::Relaxed);
                self.sink.emit(
                    self.now_s(),
                    EventKind::RequestShed {
                        id: entry.frame.id,
                        reason: status.label().to_string(),
                        queue_depth: 0,
                    },
                );
            }
        }
        entry.client.send(&response);
        // Every request's one answer passes here, after its entry left the
        // registry. The drain first looks at the registry after the stop
        // went up, so an entry it saw is answered by a call that sees the
        // stop too — and an answer before the stop has no drain to wake.
        if self.stop.is_raised() && self.pending.lock().expect("pending lock").is_empty() {
            self.drained.notify_all();
        }
    }

    /// Answers the client with a gateway-synthesized reject.
    pub(crate) fn answer_reject(&self, entry: &InFlight, status: Status) {
        let response = ResponseFrame {
            latency_us: to_us(entry.enqueued.elapsed()),
            ..ResponseFrame::reject(entry.client_id, status)
        };
        self.forward_response(entry, response);
    }

    /// Re-dispatches a failed attempt to another healthy backend, or
    /// forwards `status` to the client when the budget, the deadline, or
    /// the rotation says no.
    ///
    /// The deadline re-check is two-tier: a passed deadline always gives
    /// up, and when the retry target has a known service floor the
    /// remaining budget must still cover it — retrying a request that
    /// cannot finish in time just burns backend capacity.
    pub(crate) fn retry_or_reject(&self, gid: u64, mut entry: InFlight, status: Status) {
        entry.attempts += 1;
        let within_budget = entry.attempts <= self.config.retry_budget;
        let deadline_live = entry.deadline.is_none_or(|d| Instant::now() < d);
        if within_budget && deadline_live && !self.abort.load(Ordering::Relaxed) {
            if let Some(next) = self.route(Some(entry.backend)) {
                let floor_us = self.backends[next].floor_us.load(Ordering::Relaxed);
                let floor_fits = match (entry.deadline, floor_us) {
                    (Some(d), us) if us > 0 => Instant::now() + Duration::from_micros(us) < d,
                    _ => true,
                };
                if floor_fits {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.dispatch(gid, entry, next);
                    return;
                }
            }
        }
        self.answer_reject(&entry, status);
    }
}

/// A cloneable remote control for a running gateway.
#[derive(Clone)]
pub struct GatewayHandle {
    shared: Arc<Shared>,
}

impl GatewayHandle {
    /// Initiates graceful shutdown: stop accepting, wait (bounded by the
    /// drain timeout) for in-flight requests, answer stragglers with
    /// `ShuttingDown`, join all workers.
    pub fn shutdown(&self) {
        self.shared.stop.raise();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shared.stop.is_raised()
    }

    /// Whether backend `idx` is currently in the healthy rotation.
    #[must_use]
    pub fn backend_healthy(&self, idx: usize) -> bool {
        self.shared
            .backends
            .get(idx)
            .is_some_and(|b| b.healthy.load(Ordering::Relaxed))
    }

    /// How many backends are currently in the healthy rotation.
    #[must_use]
    pub fn healthy_backends(&self) -> usize {
        self.shared
            .backends
            .iter()
            .filter(|b| b.healthy.load(Ordering::Relaxed))
            .count()
    }
}

/// Reject tallies by the machine-readable status answered to the client
/// (forwarded backend rejects and gateway-synthesized ones alike).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct GatewayRejects {
    /// `QueueFull` answers (retry budget exhausted or no alternative).
    pub queue_full: u64,
    /// `DeadlineInfeasible` answers (terminal, forwarded as-is).
    pub deadline_infeasible: u64,
    /// `ShuttingDown` answers (backend drain, backend death past the
    /// budget, empty rotation, or gateway drain).
    pub shutting_down: u64,
    /// `UnknownModel` answers.
    pub unknown_model: u64,
    /// `BadRequest` answers.
    pub bad_request: u64,
}

impl GatewayRejects {
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

/// Per-backend accounting at gateway exit.
#[derive(Debug, Clone, Serialize)]
pub struct BackendReport {
    /// Backend address.
    pub addr: String,
    /// Dispatch attempts routed here (retries included).
    pub routed: u64,
    /// `Ok` responses received from this backend.
    pub ok: u64,
    /// Retryable rejects received from this backend.
    pub retryable: u64,
    /// Times this backend was ejected from the rotation.
    pub ejections: u64,
    /// Times this backend was readmitted after recovery.
    pub readmissions: u64,
    /// Warmup-measured single-inference service floor, seconds (0 when
    /// warmup was skipped or failed).
    pub floor_s: f64,
    /// Median gateway→backend round-trip over answered attempts, seconds.
    pub rtt_p50_s: f64,
    /// 95th percentile round-trip, seconds.
    pub rtt_p95_s: f64,
    /// 99th percentile round-trip, seconds.
    pub rtt_p99_s: f64,
    /// Whether the backend was in the healthy rotation at exit.
    pub healthy_at_exit: bool,
}

/// What one gateway run did, with the request-conservation ledger.
#[derive(Debug, Clone, Serialize)]
pub struct GatewayReport {
    /// Requests decoded on the front socket.
    pub received: u64,
    /// `Ok` responses answered to clients.
    pub answered_ok: u64,
    /// Reject answers by reason.
    pub rejects: GatewayRejects,
    /// Requests that found no healthy backend at dispatch (answered
    /// `ShuttingDown`; also counted in `rejects.shutting_down`).
    pub no_backend: u64,
    /// Re-dispatches after a retryable reject or a backend death.
    pub retries: u64,
    /// Client connections accepted.
    pub connections: u64,
    /// Undecodable or out-of-contract frames from clients.
    pub protocol_errors: u64,
    /// Response writes that failed (client hung up early).
    pub send_errors: u64,
    /// Fatal accept errors on the front socket (each one initiates
    /// shutdown, so this is 0 or 1; nonzero means the run ended early).
    pub accept_errors: u64,
    /// Wall-clock duration of the run, seconds.
    pub duration_s: f64,
    /// Routing policy display name.
    pub router: String,
    /// Per-backend accounting, in configuration order.
    pub backends: Vec<BackendReport>,
}

impl GatewayReport {
    /// Every received request was answered exactly once: received equals
    /// `Ok` answers plus rejects across every reason.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.received == self.answered_ok + self.rejects.total()
    }
}

/// The live routing tier: accepts `adaflow-proto` connections and fans
/// requests out to N live backends. See the [module docs](self).
pub struct Gateway {
    listener: TcpListener,
    shared: Arc<Shared>,
    receivers: Vec<mpsc::Receiver<(u64, u32)>>,
}

impl Gateway {
    /// Binds the front socket and prepares one dispatch channel per
    /// backend. Backends are contacted by [`run`](Self::run), not here.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NoBackends`] for an empty backend list, or the
    /// bind error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[SocketAddr],
        config: GatewayConfig,
        sink: SinkHandle,
    ) -> Result<Self, GatewayError> {
        if backends.is_empty() {
            return Err(GatewayError::NoBackends);
        }
        let listener = TcpListener::bind(addr)?;
        let mut states = Vec::with_capacity(backends.len());
        let mut receivers = Vec::with_capacity(backends.len());
        for &addr in backends {
            let (tx, rx) = mpsc::channel();
            receivers.push(rx);
            states.push(BackendState {
                addr,
                tx: Mutex::new(tx),
                healthy: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
                routed: AtomicU64::new(0),
                ok: AtomicU64::new(0),
                retryable: AtomicU64::new(0),
                ejections: AtomicU64::new(0),
                readmissions: AtomicU64::new(0),
                floor_us: AtomicU64::new(0),
                ewma_service_us: AtomicU64::new(0),
                rtts: Mutex::new(LogHistogram::latency_s()),
            });
        }
        let policy = config.router.build(config.seed);
        let shared = Arc::new(Shared {
            config,
            sink,
            epoch: Instant::now(),
            stop: Stop::new(),
            abort: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            drained: Condvar::new(),
            next_id: AtomicU64::new(1),
            backends: states,
            policy: Mutex::new(policy),
            received: AtomicU64::new(0),
            answered_ok: AtomicU64::new(0),
            reject_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            no_backend: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            wire: Arc::default(),
        });
        Ok(Self {
            listener,
            shared,
            receivers,
        })
    }

    /// The front socket's bound address.
    ///
    /// # Errors
    ///
    /// The socket's address lookup error.
    pub fn local_addr(&self) -> Result<SocketAddr, GatewayError> {
        Ok(self.listener.local_addr()?)
    }

    /// A remote control usable from other threads.
    #[must_use]
    pub fn handle(&self) -> GatewayHandle {
        GatewayHandle {
            shared: self.shared.clone(),
        }
    }

    /// Warms up the backends, serves until [`GatewayHandle::shutdown`],
    /// drains, and returns the accounting.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NoHealthyBackends`] when not a single backend
    /// passes warmup — a gateway with nowhere to route is an outage, not
    /// a server.
    pub fn run(mut self) -> Result<GatewayReport, GatewayError> {
        let start = Instant::now();
        // Warmup, sequential and deterministic: connect every backend and
        // (when configured) measure its service floor with real requests.
        let mut clients = Vec::with_capacity(self.shared.backends.len());
        for idx in 0..self.shared.backends.len() {
            match backend::warm_connect(&self.shared, idx) {
                Ok(client) => {
                    self.shared.backends[idx]
                        .healthy
                        .store(true, Ordering::SeqCst);
                    clients.push(Some(client));
                }
                Err(_) => clients.push(None),
            }
        }
        let healthy = self
            .shared
            .backends
            .iter()
            .filter(|b| b.healthy.load(Ordering::SeqCst))
            .count();
        if healthy == 0 {
            return Err(GatewayError::NoHealthyBackends {
                total: self.shared.backends.len(),
            });
        }

        let shared = &self.shared;
        let receivers = std::mem::take(&mut self.receivers);
        let route_request = |conn: &Arc<Conn>, request| handle_request(shared, conn, request);
        std::thread::scope(|scope| {
            for (idx, (rx, client)) in receivers.into_iter().zip(clients).enumerate() {
                scope.spawn(move || backend::worker(shared, idx, &rx, client));
            }
            serve_requests(
                scope,
                &self.listener,
                &shared.stop,
                &shared.wire,
                &route_request,
            );
            // Graceful drain: in-flight requests get the drain window to
            // settle, then the workers are aborted. The stop already ended
            // the client readers; their write halves carry the answers.
            let pending = shared.pending.lock().expect("pending lock");
            let window = shared.config.drain_timeout;
            let drained = shared
                .drained
                .wait_timeout_while(pending, window, |p| !p.is_empty()); // timer-ok: a deadline
            drop(drained.expect("pending lock"));
            shared.abort.store(true, Ordering::SeqCst);
        });

        // Stragglers that outlived the drain window get an answer — no
        // silently dropped requests.
        let leftovers: Vec<InFlight> = {
            let mut pending = shared.pending.lock().expect("pending lock");
            pending.drain().map(|(_, entry)| entry).collect()
        };
        for entry in leftovers {
            shared.answer_reject(&entry, Status::ShuttingDown);
        }

        let duration_s = start.elapsed().as_secs_f64();
        let reject_at = |status: Status| {
            shared.reject_counts[usize::from(status.code()) - 1].load(Ordering::SeqCst)
        };
        Ok(GatewayReport {
            received: shared.received.load(Ordering::SeqCst),
            answered_ok: shared.answered_ok.load(Ordering::SeqCst),
            rejects: GatewayRejects {
                queue_full: reject_at(Status::QueueFull),
                deadline_infeasible: reject_at(Status::DeadlineInfeasible),
                shutting_down: reject_at(Status::ShuttingDown),
                unknown_model: reject_at(Status::UnknownModel),
                bad_request: reject_at(Status::BadRequest),
            },
            no_backend: shared.no_backend.load(Ordering::SeqCst),
            retries: shared.retries.load(Ordering::SeqCst),
            connections: shared.wire.connections.load(Ordering::Relaxed),
            protocol_errors: shared.wire.protocol_errors.load(Ordering::Relaxed),
            send_errors: shared.wire.send_errors.load(Ordering::Relaxed),
            accept_errors: shared.wire.accept_errors.load(Ordering::Relaxed),
            duration_s,
            router: shared.config.router.name().to_string(),
            backends: shared
                .backends
                .iter()
                .map(|b| {
                    let rtts = b.rtts.lock().expect("rtt lock");
                    BackendReport {
                        addr: b.addr.to_string(),
                        routed: b.routed.load(Ordering::SeqCst),
                        ok: b.ok.load(Ordering::SeqCst),
                        retryable: b.retryable.load(Ordering::SeqCst),
                        ejections: b.ejections.load(Ordering::SeqCst),
                        readmissions: b.readmissions.load(Ordering::SeqCst),
                        floor_s: b.floor_us.load(Ordering::SeqCst) as f64 / 1e6,
                        rtt_p50_s: rtts.p50(),
                        rtt_p95_s: rtts.quantile(0.95),
                        rtt_p99_s: rtts.quantile(0.99),
                        healthy_at_exit: b.healthy.load(Ordering::SeqCst),
                    }
                })
                .collect(),
        })
    }
}

/// Re-keys one decoded client request to a gateway id and dispatches it.
fn handle_request(shared: &Shared, conn: &Arc<Conn>, request: RequestFrame) {
    shared.received.fetch_add(1, Ordering::Relaxed);
    let client_id = request.id;
    let deadline = (request.deadline_us > 0)
        .then(|| Instant::now() + Duration::from_micros(request.deadline_us));
    let mut frame = request;
    let gid = shared.next_id.fetch_add(1, Ordering::Relaxed);
    frame.id = gid;
    let entry = InFlight {
        client: conn.clone(),
        client_id,
        frame,
        attempts: 0,
        backend: 0,
        enqueued: Instant::now(),
        sent_at: Instant::now(),
        deadline,
    };
    if !shared.config.model_id.is_empty() && entry.frame.model != shared.config.model_id {
        shared.answer_reject(&entry, Status::UnknownModel);
        return;
    }
    match shared.route(None) {
        Some(backend) => shared.dispatch(gid, entry, backend),
        None => {
            shared.no_backend.fetch_add(1, Ordering::Relaxed);
            shared.answer_reject(&entry, Status::ShuttingDown);
        }
    }
}
