//! Seeded closed/open-loop load generator over the wire protocol.
//!
//! The client-side twin of the DES arrival generator: the same
//! seeded-jitter idiom produces the open-loop schedule, so a live run and
//! a simulated run can be driven by statistically matched load. Every
//! response is classified by its machine-readable [`Status`], so the
//! summary separates queue-full, deadline-infeasible and shutting-down
//! rejects instead of lumping everything into "failed". Socket handling
//! lives in [`ProtoClient`] — the same pipelined, id-correlated transport
//! the gateway uses for its backend connections.

use adaflow_model::TensorShape;
use adaflow_proto::{ClientError, ProtoClient, RejectCounts, RequestFrame, Status};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// ±20% uniform jitter on open-loop inter-arrival gaps — the same
/// constant the DES arrival generator applies.
const GAP_JITTER: f64 = 0.2;

/// How the generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoadMode {
    /// Closed loop: each connection sends, waits for the response, then
    /// sends again — `requests` times. Measures server capacity at
    /// concurrency = connections.
    Closed {
        /// Requests per connection.
        requests: u64,
    },
    /// Open loop: each connection sends on a seeded jittered schedule at
    /// `rate_fps / connections` regardless of responses, for
    /// `duration_s`. Measures behavior under offered (not admitted) load.
    Open {
        /// Aggregate target rate across all connections, requests/s.
        rate_fps: f64,
        /// How long to keep offering load, seconds.
        duration_s: f64,
    },
}

/// How long to wait for straggler responses after the last send.
const RECV_GRACE: Duration = Duration::from_secs(5);

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Model id to request.
    pub model: String,
    /// Input tensor shape (must match the served model to be admitted).
    pub shape: TensorShape,
    /// Parallel connections.
    pub connections: usize,
    /// Pacing mode.
    pub mode: LoadMode,
    /// Per-request deadline budget in microseconds (0 = server default).
    pub deadline_us: u64,
    /// RNG seed; same seed + same config = same schedule and payloads.
    pub seed: u64,
}

impl LoadConfig {
    /// A closed-loop config with sane defaults.
    #[must_use]
    pub fn closed(addr: SocketAddr, model: &str, shape: TensorShape, requests: u64) -> Self {
        Self {
            addr,
            model: model.to_string(),
            shape,
            connections: 1,
            mode: LoadMode::Closed { requests },
            deadline_us: 0,
            seed: 7,
        }
    }
}

/// What one load run observed, classified by machine-readable reason.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadSummary {
    /// Requests written to the wire.
    pub sent: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// Rejects, one tally per reason.
    pub rejects: RejectCounts,
    /// Sent requests that never got a response (connection died or the
    /// grace window expired).
    pub missing: u64,
    /// Undecodable or out-of-contract frames from the server.
    pub protocol_errors: u64,
    /// Socket-level failures (connect, send, read).
    pub io_errors: u64,
    /// `Ok` responses whose server-side latency met the requested budget
    /// (equals `ok` when no explicit deadline was sent).
    pub deadline_hits: u64,
    /// Client-observed round-trip percentiles over `Ok` responses, seconds.
    pub rtt_p50_s: f64,
    /// 95th percentile RTT, seconds.
    pub rtt_p95_s: f64,
    /// 99th percentile RTT, seconds.
    pub rtt_p99_s: f64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// `Ok` responses per wall-clock second.
    pub throughput_rps: f64,
}

impl LoadSummary {
    /// Deadline hits as a percentage of *sent* requests — a reject or a
    /// missing response is a miss, matching the server summary's
    /// convention that a shed request is a miss.
    #[must_use]
    pub fn hit_pct(&self) -> f64 {
        100.0 * self.deadline_hits as f64 / (self.sent as f64).max(1.0)
    }
}

/// Per-connection raw observations, merged into the final summary.
#[derive(Default)]
struct ConnOutcome {
    summary: LoadSummary,
    rtts_s: Vec<f64>,
}

/// Runs the configured load and returns the merged summary.
///
/// Deterministic given (config, server behavior): connection `i` derives
/// its RNG from `seed` and `i`, so schedules and payloads replay exactly.
#[must_use]
pub fn run_load(config: &LoadConfig) -> LoadSummary {
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections.max(1))
            .map(|i| scope.spawn(move || run_connection(config, i as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut merged = LoadSummary::default();
    let mut rtts: Vec<f64> = Vec::new();
    for outcome in outcomes {
        let s = outcome.summary;
        merged.sent += s.sent;
        merged.ok += s.ok;
        merged.rejects.merge(&s.rejects);
        merged.missing += s.missing;
        merged.protocol_errors += s.protocol_errors;
        merged.io_errors += s.io_errors;
        merged.deadline_hits += s.deadline_hits;
        rtts.extend(outcome.rtts_s);
    }
    rtts.sort_by(|a, b| a.partial_cmp(b).expect("finite RTTs"));
    let pct = |q: f64| -> f64 {
        if rtts.is_empty() {
            0.0
        } else {
            rtts[((rtts.len() as f64 - 1.0) * q).round() as usize]
        }
    };
    merged.rtt_p50_s = pct(0.50);
    merged.rtt_p95_s = pct(0.95);
    merged.rtt_p99_s = pct(0.99);
    merged.elapsed_s = start.elapsed().as_secs_f64();
    merged.throughput_rps = merged.ok as f64 / merged.elapsed_s.max(1e-9);
    merged
}

fn build_request(config: &LoadConfig, id: u64, rng: &mut ChaCha8Rng) -> RequestFrame {
    let elements = config.shape.elements();
    let data: Vec<u8> = (0..elements)
        .map(|_| rng.gen_range(0..=255u16) as u8)
        .collect();
    RequestFrame {
        id,
        deadline_us: config.deadline_us,
        model: config.model.clone(),
        channels: config.shape.channels as u16,
        height: config.shape.height as u16,
        width: config.shape.width as u16,
        data,
    }
}

/// Derives connection `conn`'s RNG from the run seed — the same
/// index-mixing idiom the DES arrival generator uses per device.
fn conn_rng(seed: u64, conn: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE_F00D ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run_connection(config: &LoadConfig, conn_idx: u64) -> ConnOutcome {
    let mut outcome = ConnOutcome::default();
    let Ok(client) = ProtoClient::connect(config.addr) else {
        outcome.summary.io_errors += 1;
        return outcome;
    };
    match config.mode {
        LoadMode::Closed { requests } => {
            closed_loop(config, conn_idx, client, requests, &mut outcome);
        }
        LoadMode::Open {
            rate_fps,
            duration_s,
        } => open_loop(config, conn_idx, client, rate_fps, duration_s, &mut outcome),
    }
    outcome
}

fn closed_loop(
    config: &LoadConfig,
    conn_idx: u64,
    mut client: ProtoClient,
    requests: u64,
    outcome: &mut ConnOutcome,
) {
    let mut rng = conn_rng(config.seed, conn_idx);
    client.set_read_timeout(Some(RECV_GRACE)).ok();
    for seq in 0..requests {
        let id = conn_idx << 32 | seq;
        let request = build_request(config, id, &mut rng);
        let sent_at = Instant::now();
        if client.send(&request).is_err() {
            outcome.summary.io_errors += 1;
            return;
        }
        outcome.summary.sent += 1;
        // Block until this request's response arrives or the grace window
        // expires; a timeout is a missing response, not an error.
        match client.recv_id(id, RECV_GRACE) {
            Ok(Some(response)) => {
                settle(config, outcome, &response, sent_at.elapsed().as_secs_f64());
            }
            Ok(None) => outcome.summary.missing += 1,
            Err(ClientError::Closed) => {
                outcome.summary.missing += 1;
                return;
            }
            Err(e) if e.is_protocol() => {
                outcome.summary.protocol_errors += 1;
                outcome.summary.missing += 1;
                return;
            }
            Err(_) => {
                outcome.summary.io_errors += 1;
                outcome.summary.missing += 1;
                return;
            }
        }
    }
}

fn open_loop(
    config: &LoadConfig,
    conn_idx: u64,
    mut client: ProtoClient,
    rate_fps: f64,
    duration_s: f64,
    outcome: &mut ConnOutcome,
) {
    let mut rng = conn_rng(config.seed, conn_idx);
    client.set_read_timeout(Some(Duration::from_millis(2))).ok();
    let per_conn_fps = (rate_fps / config.connections.max(1) as f64).max(1e-3);
    let gap_s = 1.0 / per_conn_fps;
    let started = Instant::now();
    let mut next_send_s = 0.0f64;
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut seq = 0u64;
    let mut dead = false;

    // One thread per connection: interleave timed sends with short
    // read-polls; after the send window, linger for the grace period to
    // collect stragglers.
    loop {
        let now_s = started.elapsed().as_secs_f64();
        let sending = now_s < duration_s && !dead;
        if sending && now_s >= next_send_s {
            let id = conn_idx << 32 | seq;
            seq += 1;
            let request = build_request(config, id, &mut rng);
            let sent_at = Instant::now();
            if client.send(&request).is_err() {
                outcome.summary.io_errors += 1;
                dead = true;
            } else {
                outcome.summary.sent += 1;
                in_flight.insert(id, sent_at);
                next_send_s += gap_s * rng.gen_range(1.0 - GAP_JITTER..=1.0 + GAP_JITTER);
            }
            continue;
        }
        if !sending && (in_flight.is_empty() || now_s > duration_s + RECV_GRACE.as_secs_f64()) {
            break;
        }
        match client.try_recv() {
            Ok(Some(response)) => {
                let rtt = in_flight
                    .remove(&response.id)
                    .map_or(0.0, |t| t.elapsed().as_secs_f64());
                settle(config, outcome, &response, rtt);
            }
            Ok(None) => {}
            Err(ClientError::Closed) => break,
            Err(e) if e.is_protocol() => {
                // The stream is unsynchronized; nothing further can be
                // correlated, so drop the connection.
                outcome.summary.protocol_errors += 1;
                break;
            }
            Err(_) => {
                outcome.summary.io_errors += 1;
                break;
            }
        }
    }
    outcome.summary.missing += in_flight.len() as u64;
}

fn settle(
    config: &LoadConfig,
    outcome: &mut ConnOutcome,
    response: &adaflow_proto::ResponseFrame,
    rtt_s: f64,
) {
    let summary = &mut outcome.summary;
    if response.status != Status::Ok {
        *summary.rejects.of(response.status) += 1;
        return;
    }
    summary.ok += 1;
    outcome.rtts_s.push(rtt_s);
    let within = config.deadline_us == 0 || u64::from(response.latency_us) <= config.deadline_us;
    summary.deadline_hits += u64::from(within);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_every_status() {
        let config = LoadConfig::closed(
            "127.0.0.1:0".parse().expect("addr"),
            "m",
            TensorShape::new(1, 1, 1),
            1,
        );
        let mut outcome = ConnOutcome::default();
        for status in Status::ALL {
            let response = adaflow_proto::ResponseFrame::reject(0, status);
            settle(&config, &mut outcome, &response, 0.0);
        }
        assert_eq!(outcome.summary.ok, 1);
        assert_eq!(outcome.summary.rejects.total(), 5);
        assert_eq!(
            outcome.rtts_s.len(),
            1,
            "only the Ok answer has a round trip"
        );
    }

    #[test]
    fn retryable_accounting_matches_status_contract() {
        let mut rejects = RejectCounts {
            queue_full: 3,
            shutting_down: 2,
            deadline_infeasible: 7,
            bad_request: 1,
            ..RejectCounts::default()
        };
        // Exactly the `Status::is_retryable` subset counts.
        let retryable: u64 = Status::ALL
            .into_iter()
            .filter(|status| status.is_retryable())
            .map(|status| *rejects.of(status))
            .sum();
        assert_eq!(retryable, 5);
        assert_eq!(rejects.total(), 13);
    }

    #[test]
    fn hit_pct_counts_sheds_as_misses() {
        let s = LoadSummary {
            sent: 10,
            ok: 6,
            deadline_hits: 5,
            rejects: RejectCounts {
                queue_full: 4,
                ..RejectCounts::default()
            },
            ..LoadSummary::default()
        };
        assert!((s.hit_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_payloads_replay() {
        let mut a = conn_rng(42, 3);
        let mut b = conn_rng(42, 3);
        let xs: Vec<u16> = (0..32).map(|_| a.gen_range(0..=255u16)).collect();
        let ys: Vec<u16> = (0..32).map(|_| b.gen_range(0..=255u16)).collect();
        assert_eq!(xs, ys);
        let mut c = conn_rng(42, 4);
        let zs: Vec<u16> = (0..32).map(|_| c.gen_range(0..=255u16)).collect();
        assert_ne!(xs, zs, "different connections see different payloads");
    }
}
