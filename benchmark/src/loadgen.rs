//! The benchmark's own load generator over `ProtoClient`.
//!
//! `adaflow_net::run_load` times an open-loop request from the moment it was
//! actually written and sends random payloads, so a generator that runs late
//! hides the wait it imposed and no label can be checked. This one fixes the
//! schedule from the seed before the run, times every request from its *due*
//! time, reports how late each send was, and draws payloads from the oracle
//! pool. Never more connections than cores.
//!
//! An open-loop connection is two threads that both sleep almost always: a
//! sender that sleeps on the high-resolution clock until the next due time,
//! and a receiver blocked in `read` that stamps each answer as it lands.
//! One thread doing both has to poll: socket read timeouts on this kernel
//! round up to whole 4 ms ticks (a 50 us timeout blocks for 8 ms), so a
//! timed read makes sends up to 8 ms late, and polling a nonblocking socket
//! every 200 us instead woke 8000 times a second beside the server under
//! test and cost as much CPU as the inference it was measuring.

use crate::pool::Pool;
use adaflow_model::TensorShape;
use adaflow_proto::{ClientError, ProtoClient, RequestFrame, ResponseFrame, Status};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// ±20 % uniform jitter on open-loop gaps: the repo's camera idiom
/// (`adaflow-serve` arrivals, `adaflow-net` loadgen).
const GAP_JITTER: f64 = 0.2;

/// How long to wait for answers after the last send.
const RECV_GRACE: Duration = Duration::from_secs(5);

/// One connection's open-loop schedule: when each request is due (seconds
/// from the start of the load) and which pool image it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub due_s: Vec<f64>,
    pub image: Vec<usize>,
}

fn conn_rng(seed: u64, conn: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed ^ 0xBE9C_4A11 ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// The schedule of connection `conn` of `conns`, which together offer
/// `rate_per_s` for `duration_s`. A pure function of its arguments.
pub fn open_plan(
    seed: u64,
    conn: usize,
    conns: usize,
    rate_per_s: f64,
    duration_s: f64,
    pool_len: usize,
) -> Plan {
    let mut rng = conn_rng(seed, conn);
    let gap_s = conns as f64 / rate_per_s;
    // A seeded phase inside the first gap keeps connections from sending
    // in lockstep.
    let mut t = gap_s * rng.gen_range(0.0..1.0);
    let mut plan = Plan {
        due_s: Vec::new(),
        image: Vec::new(),
    };
    while t < duration_s {
        plan.due_s.push(t);
        plan.image.push(rng.gen_range(0..pool_len));
        t += gap_s * rng.gen_range(1.0 - GAP_JITTER..=1.0 + GAP_JITTER);
    }
    plan
}

/// One request as the client saw it. Times are microseconds from the start
/// of the load.
#[derive(Debug, Clone)]
pub struct Shot {
    pub id: u64,
    pub image: usize,
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_us: f64,
    pub sent_us: f64,
    pub recv_us: Option<f64>,
    pub response: Option<ResponseFrame>,
}

impl Shot {
    /// Round trip from the due time, if an answer came.
    pub fn rtt_us(&self) -> Option<f64> {
        self.recv_us.map(|recv| recv - self.due_us)
    }

    pub fn lag_us(&self) -> f64 {
        self.sent_us - self.due_us
    }

    fn status(&self) -> Option<Status> {
        self.response.as_ref().map(|r| r.status)
    }

    /// Answered `Ok` with the label the oracle gave this shot's image.
    pub fn is_correct(&self, pool: &Pool) -> bool {
        self.response.as_ref().is_some_and(|r| {
            r.status == Status::Ok && usize::from(r.label) == pool.labels[self.image]
        })
    }
}

/// Everything one load phase observed.
#[derive(Debug)]
pub struct LoadResult {
    pub start: Instant,
    pub shots: Vec<Shot>,
    pub io_errors: u64,
    pub protocol_errors: u64,
}

/// Tallies over a [`LoadResult`], checked against the pool's labels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    /// `Ok` answers with the oracle's label.
    pub correct: u64,
    /// `Ok` answers with another label.
    pub wrong_label: u64,
    /// Reason-coded rejects.
    pub rejected: u64,
    /// Sent and never answered.
    pub missing: u64,
}

impl LoadResult {
    pub fn tally(&self, pool: &Pool) -> Tally {
        let mut t = Tally::default();
        for shot in &self.shots {
            t.sent += 1;
            match shot.status() {
                None => t.missing += 1,
                Some(Status::Ok) if shot.is_correct(pool) => t.correct += 1,
                Some(Status::Ok) => t.wrong_label += 1,
                Some(_) => t.rejected += 1,
            }
        }
        t
    }

    /// Shots answered `Ok`.
    pub fn ok_shots(&self) -> impl Iterator<Item = &Shot> {
        self.shots.iter().filter(|s| s.status() == Some(Status::Ok))
    }

    /// Round trips of the `Ok` answers, from the due time, in milliseconds.
    pub fn rtt_ms(&self) -> Vec<f64> {
        self.ok_shots()
            .filter_map(Shot::rtt_us)
            .map(|us| us / 1e3)
            .collect()
    }

    /// Seconds from the first due time to the last answer.
    pub fn span_s(&self) -> f64 {
        let first = self
            .shots
            .iter()
            .map(|s| s.due_us)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .shots
            .iter()
            .filter_map(|s| s.recv_us)
            .fold(f64::NEG_INFINITY, f64::max);
        ((last - first) / 1e6).max(1e-9)
    }
}

fn request(id: u64, model: &str, shape: TensorShape, pool: &Pool, image: usize) -> RequestFrame {
    RequestFrame {
        id,
        deadline_us: 0,
        model: model.to_string(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        data: pool.images[image].as_slice().to_vec(),
    }
}

/// Where the load goes.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub model: &'a str,
    pub shape: TensorShape,
}

#[derive(Default)]
struct ConnOutcome {
    shots: Vec<Shot>,
    io_errors: u64,
    protocol_errors: u64,
}

impl ConnOutcome {
    /// Files `response` under the shot it answers; an answer to nothing this
    /// connection sent is a protocol error.
    fn settle(&mut self, conn: usize, response: ResponseFrame, at_us: f64) {
        let seq = (response.id & 0xFFFF_FFFF) as usize;
        match self.shots.get_mut(seq) {
            Some(shot) if response.id >> 32 == conn as u64 && shot.response.is_none() => {
                shot.recv_us = Some(at_us);
                shot.response = Some(response);
            }
            _ => self.protocol_errors += 1,
        }
    }

    fn count_error(&mut self, error: &ClientError) {
        if error.is_protocol() {
            self.protocol_errors += 1;
        } else {
            self.io_errors += 1;
        }
    }
}

/// Runs one thread per entry of `work` and merges what they saw.
fn fan_out<W: Sync>(
    work: &[W],
    run: impl Fn(usize, &W, Instant) -> ConnOutcome + Sync,
) -> LoadResult {
    assert!(
        work.len() <= crate::host::nproc(),
        "never more load connections than cores"
    );
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .enumerate()
            .map(|(conn, w)| {
                let run = &run;
                scope.spawn(move || run(conn, w, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut result = LoadResult {
        start,
        shots: Vec::new(),
        io_errors: 0,
        protocol_errors: 0,
    };
    for outcome in outcomes {
        result.shots.extend(outcome.shots);
        result.io_errors += outcome.io_errors;
        result.protocol_errors += outcome.protocol_errors;
    }
    result
}

/// Open loop: sends every request of every plan at its due time whatever
/// the server does, then waits for stragglers.
pub fn run_open(target: Target<'_>, pool: &Pool, plans: &[Plan]) -> LoadResult {
    fan_out(plans, |conn, plan, start| {
        open_conn(target, pool, plan, conn, start)
    })
}

fn open_conn(
    target: Target<'_>,
    pool: &Pool,
    plan: &Plan,
    conn: usize,
    start: Instant,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let halves = TcpStream::connect(target.addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        Ok((stream.try_clone()?, stream.try_clone()?, stream))
    });
    let Ok((read_half, control, write_half)) = halves else {
        out.io_errors += 1;
        return out;
    };
    let now_us = || start.elapsed().as_secs_f64() * 1e6;
    let total = plan.due_s.len();
    let answered = AtomicUsize::new(0);
    let closing = AtomicBool::new(false);

    let (answers, receive_error) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut client = ProtoClient::from_stream(read_half);
            let mut answers: Vec<(ResponseFrame, f64)> = Vec::with_capacity(total);
            while answers.len() < total {
                match client.try_recv() {
                    Ok(Some(response)) => {
                        answers.push((response, now_us()));
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(None) => {}
                    // The sender closes the socket to end a receiver that
                    // is still waiting when the grace period runs out.
                    Err(_) if closing.load(Ordering::SeqCst) => break,
                    Err(error) => return (answers, Some(error)),
                }
            }
            (answers, None)
        });

        let mut client = ProtoClient::from_stream(write_half);
        for (next, (&due_s, &image)) in plan.due_s.iter().zip(&plan.image).enumerate() {
            let wait_us = due_s * 1e6 - now_us();
            if wait_us > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait_us / 1e6));
            }
            let id = (conn as u64) << 32 | next as u64;
            if client
                .send(&request(id, target.model, target.shape, pool, image))
                .is_err()
            {
                out.io_errors += 1;
                break;
            }
            out.shots.push(Shot {
                id,
                image,
                due_us: due_s * 1e6,
                sent_us: now_us(),
                recv_us: None,
                response: None,
            });
        }
        let give_up = Instant::now() + RECV_GRACE;
        while answered.load(Ordering::SeqCst) < out.shots.len() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        closing.store(true, Ordering::SeqCst);
        control.shutdown(Shutdown::Both).ok();
        receiver.join().expect("receiver thread")
    });

    for (response, at_us) in answers {
        out.settle(conn, response, at_us);
    }
    if let Some(error) = receive_error {
        out.count_error(&error);
    }
    out
}

/// Closed loop: each of `conns` connections sends, waits for the answer,
/// and sends again until `duration` has passed.
pub fn run_closed(
    target: Target<'_>,
    pool: &Pool,
    seed: u64,
    conns: usize,
    duration: Duration,
) -> LoadResult {
    let conn_ids: Vec<usize> = (0..conns).collect();
    fan_out(&conn_ids, |conn, _, start| {
        closed_conn(target, pool, seed, conn, start, duration)
    })
}

fn closed_conn(
    target: Target<'_>,
    pool: &Pool,
    seed: u64,
    conn: usize,
    start: Instant,
    duration: Duration,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let Ok(mut client) = ProtoClient::connect(target.addr) else {
        out.io_errors += 1;
        return out;
    };
    // A blocking read wakes the moment the answer lands; the timeout only
    // bounds a lost one.
    client.set_read_timeout(Some(RECV_GRACE)).ok();
    let mut rng = conn_rng(seed, conn);
    let now_us = || start.elapsed().as_secs_f64() * 1e6;
    while start.elapsed() < duration {
        let seq = out.shots.len() as u64;
        let id = (conn as u64) << 32 | seq;
        let image = rng.gen_range(0..pool.images.len());
        let frame = request(id, target.model, target.shape, pool, image);
        let sent_us = now_us();
        if client.send(&frame).is_err() {
            out.io_errors += 1;
            return out;
        }
        out.shots.push(Shot {
            id,
            image,
            due_us: sent_us,
            sent_us,
            recv_us: None,
            response: None,
        });
        match client.recv_id(id, RECV_GRACE) {
            Ok(Some(response)) => out.settle(conn, response, now_us()),
            Ok(None) => return out,
            Err(error) => {
                out.count_error(&error);
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let a = open_plan(11, 0, 2, 120.0, 4.0, 64);
        assert_eq!(a, open_plan(11, 0, 2, 120.0, 4.0, 64));
        assert_ne!(a, open_plan(12, 0, 2, 120.0, 4.0, 64));
        assert_ne!(a, open_plan(11, 1, 2, 120.0, 4.0, 64), "connections differ");
    }

    #[test]
    fn plan_offers_the_rate_inside_the_window() {
        let plans: Vec<Plan> = (0..2)
            .map(|c| open_plan(5, c, 2, 120.0, 10.0, 64))
            .collect();
        let sent: usize = plans.iter().map(|p| p.due_s.len()).sum();
        assert!(
            (1150..=1250).contains(&sent),
            "{sent} requests for 120/s x 10 s"
        );
        for plan in &plans {
            assert_eq!(plan.due_s.len(), plan.image.len());
            assert!(plan.due_s.windows(2).all(|w| w[1] > w[0]));
            assert!(plan.due_s.iter().all(|&t| (0.0..10.0).contains(&t)));
            assert!(plan.image.iter().all(|&i| i < 64));
            // Gaps stay inside the +-20 % jitter band around 2/120 s.
            let gap = 2.0 / 120.0;
            assert!(plan
                .due_s
                .windows(2)
                .all(|w| (0.8 * gap - 1e-9..=1.2 * gap + 1e-9).contains(&(w[1] - w[0]))));
        }
    }
}
