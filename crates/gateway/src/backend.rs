//! Backend legs: one worker thread per backend owning its multiplexed
//! connection, plus the health-probe state machine.
//!
//! ## Health model
//!
//! A backend is **healthy** (in the routing rotation) or **ejected**.
//! Two signals move it between the states:
//!
//! * **connection loss** — a failed send, a socket error, EOF, or
//!   protocol garbage ejects the backend immediately and fails its
//!   in-flight requests over to the retry path;
//! * **probes** — every `probe_interval` the worker sends a
//!   [`RequestFrame::probe`] (zero shape, empty payload) with a reserved
//!   id. The backend answers it instantly from admission (`bad-request`,
//!   tallied as no reject: it never enters the serving pipeline or the
//!   backend's ledger), so *any* reply proves the whole stack is
//!   responsive. [`EJECT_AFTER`] consecutive probe timeouts
//!   eject a healthy backend; [`READMIT_AFTER`] consecutive successes
//!   readmit an ejected one. Both transitions emit telemetry events.
//!
//! Ejection is advisory for requests already dispatched: if the socket is
//! still alive, outstanding responses are still accepted and forwarded.

use crate::config::WarmupSpec;
use crate::server::{Shared, PROBE_BASE};
use adaflow_proto::server::WRITE_TIMEOUT;
use adaflow_proto::{ProtoClient, RequestFrame, ResponseFrame, Status};
use adaflow_telemetry::EventKind;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Read-timeout window pacing the worker's receive poll.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);

/// Consecutive probe failures before a healthy backend is ejected.
const EJECT_AFTER: u32 = 2;

/// Consecutive probe successes before an ejected backend is readmitted.
const READMIT_AFTER: u32 = 2;

/// EWMA weight of history when folding in a new `service_us` sample
/// (new estimate = (7·old + sample) / 8).
const EWMA_OLD_WEIGHT: u64 = 7;

/// Opens one backend leg: reads paced by [`POLL_TIMEOUT`], writes bounded by
/// the skeleton's [`WRITE_TIMEOUT`]. Without the write bound a backend that
/// stops reading wedges its worker inside `send` once the socket buffers
/// fill — which also stops that backend's probes, so the probe timeout
/// that should eject it never fires.
fn connect_leg(addr: SocketAddr) -> std::io::Result<ProtoClient> {
    let client = ProtoClient::connect(addr)?;
    client.set_read_timeout(Some(POLL_TIMEOUT))?;
    client.set_write_timeout(Some(WRITE_TIMEOUT))?;
    Ok(client)
}

/// Connects to backend `idx` and, when warmup is configured, measures its
/// single-inference service floor with real requests. Any failure —
/// connect refused, warmup request lost, non-`Ok` warmup status — leaves
/// the backend out of the initial rotation.
pub(crate) fn warm_connect(shared: &Shared, idx: usize) -> Result<ProtoClient, ()> {
    let state = &shared.backends[idx];
    let mut client = connect_leg(state.addr).map_err(|_| ())?;
    if let Some(spec) = &shared.config.warmup {
        // First inference may compile/populate caches: give it real time.
        let wait = shared.config.probe_timeout.max(Duration::from_secs(5));
        let mut floor = u64::MAX;
        for i in 0..spec.iters {
            let id = PROBE_BASE | u64::from(i);
            client.send(&warmup_frame(spec, id)).map_err(|_| ())?;
            match client.recv_id(id, wait) {
                Ok(Some(r)) if r.status.is_ok() => {
                    floor = floor.min(u64::from(r.service_us).max(1));
                }
                _ => return Err(()),
            }
        }
        if floor != u64::MAX {
            state.floor_us.store(floor, Ordering::SeqCst);
        }
    }
    Ok(client)
}

fn warmup_frame(spec: &WarmupSpec, id: u64) -> RequestFrame {
    RequestFrame {
        id,
        deadline_us: 0,
        model: spec.model.clone(),
        channels: spec.channels,
        height: spec.height,
        width: spec.width,
        data: vec![0; spec.elements()],
    }
}

/// The probe state machine for one backend (see the [module docs](self)).
struct Probes {
    next_send: Instant,
    /// The probe on the wire, if any: `(id, sent_at)`.
    outstanding: Option<(u64, Instant)>,
    consecutive_failures: u32,
    consecutive_successes: u32,
    /// When the backend left the rotation (for the readmission event's
    /// downtime measurement).
    down_since: Option<Instant>,
    next_id: u64,
}

impl Probes {
    fn new() -> Self {
        Self {
            next_send: Instant::now(),
            outstanding: None,
            consecutive_failures: 0,
            consecutive_successes: 0,
            down_since: None,
            next_id: 1 << 20,
        }
    }

    /// Expires a timed-out probe and sends the next one when due.
    /// Returns `false` when the probe send failed (connection is dead).
    fn tick(&mut self, shared: &Shared, idx: usize, conn: &mut Option<ProtoClient>) -> bool {
        if let Some((_, sent_at)) = self.outstanding {
            if sent_at.elapsed() > shared.config.probe_timeout {
                self.outstanding = None;
                self.consecutive_successes = 0;
                self.consecutive_failures += 1;
                if self.consecutive_failures >= EJECT_AFTER {
                    self.mark_down(shared, idx, "probe-timeout");
                }
            }
        }
        if self.outstanding.is_none() && Instant::now() >= self.next_send {
            if let Some(client) = conn.as_mut() {
                let id = PROBE_BASE | self.next_id;
                self.next_id += 1;
                let model = shared
                    .config
                    .warmup
                    .as_ref()
                    .map_or(shared.config.model_id.as_str(), |w| w.model.as_str());
                if client.send(&RequestFrame::probe(model, id)).is_err() {
                    return false;
                }
                self.outstanding = Some((id, Instant::now()));
                self.next_send = Instant::now() + shared.config.probe_interval;
            }
        }
        true
    }

    /// Any response carrying the probe bit is a success — a reject from
    /// admission proves responsiveness exactly as well as an `Ok` would.
    fn on_probe_response(&mut self, shared: &Shared, idx: usize) {
        self.outstanding = None;
        self.consecutive_failures = 0;
        self.consecutive_successes += 1;
        let state = &shared.backends[idx];
        if !state.healthy.load(Ordering::SeqCst)
            && self.consecutive_successes >= READMIT_AFTER
            && !state.healthy.swap(true, Ordering::SeqCst)
        {
            state.readmissions.fetch_add(1, Ordering::Relaxed);
            let downtime_s = self
                .down_since
                .take()
                .map_or(0.0, |t| t.elapsed().as_secs_f64());
            shared.sink.emit(
                shared.now_s(),
                EventKind::BackendReadmitted {
                    backend: idx as u32,
                    downtime_s,
                },
            );
        }
    }

    /// Ejects the backend from the rotation (idempotent).
    fn mark_down(&mut self, shared: &Shared, idx: usize, reason: &str) {
        let state = &shared.backends[idx];
        if state.healthy.swap(false, Ordering::SeqCst) {
            state.ejections.fetch_add(1, Ordering::Relaxed);
            self.down_since = Some(Instant::now());
            self.consecutive_successes = 0;
            shared.sink.emit(
                shared.now_s(),
                EventKind::BackendEjected {
                    backend: idx as u32,
                    reason: reason.to_string(),
                },
            );
        } else if self.down_since.is_none() {
            self.down_since = Some(Instant::now());
        }
    }
}

/// The per-backend worker: drains the dispatch channel onto the
/// connection, polls responses, reconnects after loss, and runs the probe
/// state machine. Exits when the gateway aborts, or on graceful shutdown
/// once this backend has nothing in flight.
pub(crate) fn worker(
    shared: &Shared,
    idx: usize,
    rx: &Receiver<(u64, u32)>,
    initial: Option<ProtoClient>,
) {
    let state = &shared.backends[idx];
    let mut conn = initial;
    let mut probes = Probes::new();
    if conn.is_none() {
        // Warmup failed: start ejected, with the downtime clock running.
        probes.mark_down(shared, idx, "warmup-failed");
    }
    let mut next_reconnect = Instant::now();
    loop {
        if shared.abort.load(Ordering::SeqCst) {
            break;
        }
        // Drain dispatches. `in_flight` is raised before the channel send,
        // so `in_flight == 0` under shutdown implies the channel is empty.
        //
        // A channel message is only a hint: the connection-loss sweep may
        // have re-dispatched the gid to another backend (or a later retry
        // re-dispatched it back here) while it was still queued. The
        // pending entry's (backend, attempts) pair is the ownership
        // record — a message that does not match it is stale and must be
        // dropped, or this worker would settle (and double-decrement the
        // in-flight of) a request now owned by someone else, or send a
        // duplicate frame.
        loop {
            match rx.try_recv() {
                Ok((gid, attempt)) => {
                    let frame = {
                        let pending = shared.pending.lock().expect("pending lock");
                        match pending.get(&gid) {
                            Some(e) if e.backend == idx && e.attempts == attempt => {
                                Some(e.frame.clone())
                            }
                            _ => None, // settled or re-owned: stale message
                        }
                    };
                    let Some(frame) = frame else { continue };
                    match conn.as_mut() {
                        Some(client) => {
                            if client.send(&frame).is_err() {
                                conn = None;
                                // The failed request is still pending on
                                // this backend; the sweep retries it.
                                on_connection_lost(shared, idx, &mut probes, "send-failed");
                            }
                        }
                        None => fail_one(shared, idx, gid, attempt),
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        // Poll responses (the read timeout paces the loop).
        match conn.as_mut() {
            Some(client) => loop {
                match client.try_recv() {
                    Ok(Some(response)) => handle_response(shared, idx, &mut probes, response),
                    Ok(None) => break,
                    Err(_) => {
                        conn = None;
                        on_connection_lost(shared, idx, &mut probes, "connection-lost");
                        break;
                    }
                }
            },
            None => {
                if Instant::now() >= next_reconnect {
                    next_reconnect = Instant::now() + shared.config.probe_interval;
                    if let Ok(client) = connect_leg(state.addr) {
                        // Reconnected, but not yet readmitted: probes
                        // must succeed `READMIT_AFTER` times first.
                        conn = Some(client);
                    }
                }
                std::thread::sleep(POLL_TIMEOUT);
            }
        }
        if !probes.tick(shared, idx, &mut conn) {
            conn = None;
            on_connection_lost(shared, idx, &mut probes, "probe-send-failed");
        }
        if shared.stop.is_raised() && state.in_flight.load(Ordering::SeqCst) == 0 {
            break;
        }
    }
}

/// Settles one response from backend `idx`: probe bookkeeping, live
/// service-time calibration, then forward or retry by status.
fn handle_response(shared: &Shared, idx: usize, probes: &mut Probes, response: ResponseFrame) {
    if response.id & PROBE_BASE != 0 {
        probes.on_probe_response(shared, idx);
        return;
    }
    let entry = shared
        .pending
        .lock()
        .expect("pending lock")
        .remove(&response.id);
    // A missing entry means the request was already settled (e.g. the
    // drain answered it); drop the late response.
    let Some(entry) = entry else { return };
    let state = &shared.backends[idx];
    state.in_flight.fetch_sub(1, Ordering::Relaxed);
    state
        .rtts
        .lock()
        .expect("rtt lock")
        .record(entry.sent_at.elapsed().as_secs_f64());
    match response.status {
        Status::Ok => {
            state.ok.fetch_add(1, Ordering::Relaxed);
            let sample = u64::from(response.service_us).max(1);
            let old = state.ewma_service_us.load(Ordering::Relaxed);
            let next = if old == 0 {
                sample
            } else {
                (EWMA_OLD_WEIGHT * old + sample) / (EWMA_OLD_WEIGHT + 1)
            };
            state.ewma_service_us.store(next.max(1), Ordering::Relaxed);
            shared.forward_response(&entry, response);
        }
        status if status.is_retryable() => {
            state.retryable.fetch_add(1, Ordering::Relaxed);
            shared.retry_or_reject(response.id, entry, status);
        }
        _ => shared.forward_response(&entry, response),
    }
}

/// Fails one dispatched request over to the retry path (used when the
/// backend has no live connection to even attempt the send on). Removes
/// the pending entry only when this worker still owns that exact attempt
/// — the connection-loss sweep may have re-owned the gid meanwhile.
fn fail_one(shared: &Shared, idx: usize, gid: u64, attempt: u32) {
    let entry = {
        let mut pending = shared.pending.lock().expect("pending lock");
        match pending.get(&gid) {
            Some(e) if e.backend == idx && e.attempts == attempt => pending.remove(&gid),
            _ => None,
        }
    };
    let Some(entry) = entry else { return };
    shared.backends[idx]
        .in_flight
        .fetch_sub(1, Ordering::Relaxed);
    shared.retry_or_reject(gid, entry, Status::ShuttingDown);
}

/// Handles a dead connection: eject the backend, then fail every request
/// it was holding over to the retry path. Entries are collected under the
/// pending lock but retried after releasing it — `retry_or_reject`
/// re-enters the pending registry on re-dispatch.
fn on_connection_lost(shared: &Shared, idx: usize, probes: &mut Probes, reason: &str) {
    probes.mark_down(shared, idx, reason);
    probes.outstanding = None;
    let orphans: Vec<(u64, crate::server::InFlight)> = {
        let mut pending = shared.pending.lock().expect("pending lock");
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, e)| e.backend == idx)
            .map(|(&gid, _)| gid)
            .collect();
        ids.into_iter()
            .filter_map(|gid| pending.remove(&gid).map(|e| (gid, e)))
            .collect()
    };
    let state = &shared.backends[idx];
    for (gid, entry) in orphans {
        state.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.retry_or_reject(gid, entry, Status::ShuttingDown);
    }
}
