//! State one benchmark run carries through its passes.

use crate::metrics::MetricSet;
use crate::spans::SpanLog;
use crate::stats;

/// Operations attempted and failed, and the ledgers that broke.
///
/// An operation fails when it goes unanswered, errors at the socket or
/// protocol level, carries a wrong label, or (simulation) diverges on a
/// same-seed replay. A reason-coded reject is not a failure: the throughput
/// metric already charges for it.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A hard check: `what` is recorded when `ok` is false.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One run of one workload.
pub struct Run {
    pub seed: u64,
    /// `--quick`: tiny model and small simulations, every check still on.
    pub quick: bool,
    pub metrics: MetricSet,
    /// Present in the traced pass only: sinks are attached and spans kept
    /// exactly when this is `Some`.
    pub spans: Option<SpanLog>,
    pub checks: Checks,
}

impl Run {
    pub fn new(seed: u64, quick: bool, traced: bool) -> Self {
        Self {
            seed,
            quick,
            metrics: MetricSet::default(),
            spans: traced.then(SpanLog::new),
            checks: Checks::default(),
        }
    }

    /// A run with the same inputs whose metrics and checks are thrown away
    /// (the untraced reference inside a traced run).
    pub fn scratch(&self) -> Self {
        Self::new(self.seed, self.quick, false)
    }
}

/// One completed operation of a measured phase: a batch, an inference
/// round, a simulation run, an answered request.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it completed, in seconds from the start of the phase.
    pub end_s: f64,
    pub ms: f64,
    /// Items it delivered: images, correct answers, simulated requests.
    pub items: f64,
}

/// Share of a measured phase that is warm-up and never reported: a server's
/// queue fills and its round trips lengthen until it has, and a loop's first
/// operations run on cold caches.
const WARM_UP_SHARE: f64 = 1.0 / 6.0;

/// The rest of the phase is cut into windows this long. The host's loud
/// stretches last two to five seconds and come every ten to thirty, so a
/// fifteen-second phase nearly always holds a quiet second.
const WINDOW_S: f64 = 1.0;

/// A window with fewer operations than this is not reported.
const MIN_WINDOW_OPS: usize = 2;

/// Answers that land within this long of each other left the server in one
/// write burst (one batch).
const SAME_INSTANT_S: f64 = 1e-3;

/// One window of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub throughput_per_s: f64,
    pub latency_ms_p50: f64,
    pub ops: usize,
}

/// What a pass measured of the workload's end-to-end behaviour.
#[derive(Debug)]
pub struct Primary {
    pub ops: Vec<Op>,
    /// Length of the measured phase: the loop's time budget or, for a load,
    /// the window requests were sent in.
    pub secs: f64,
    /// Requests in flight together (a load) rather than operations back to
    /// back: items are then counted per second between completions, not per
    /// second of operation time.
    pub overlapped: bool,
    /// Operations attempted (requests sent, for a live workload).
    pub attempted: u64,
    /// Process CPU seconds spent during the measured phase.
    pub cpu_s: f64,
}

impl Primary {
    fn window(&self, from_s: f64, to_s: f64) -> Option<Window> {
        let inside = || {
            self.ops
                .iter()
                .filter(move |op| (from_s..to_s).contains(&op.end_s))
        };
        let ops = inside().count();
        if ops < MIN_WINDOW_OPS {
            return None;
        }
        let throughput_per_s = if self.overlapped {
            // Items delivered after the window's first completion, per
            // second up to its last: answers of one batch land together, so
            // a count between two fixed edges would move by a whole batch
            // with where the edges happen to fall.
            let ends = || inside().map(|op| op.end_s);
            let first_s = ends().fold(f64::INFINITY, f64::min);
            let last_s = ends().fold(f64::NEG_INFINITY, f64::max);
            let after: f64 = inside()
                .filter(|op| op.end_s > first_s + SAME_INSTANT_S)
                .map(|op| op.items)
                .sum();
            after / (last_s - first_s).max(SAME_INSTANT_S)
        } else {
            let items: f64 = inside().map(|op| op.items).sum();
            items * 1e3 / inside().map(|op| op.ms).sum::<f64>()
        };
        Some(Window {
            throughput_per_s,
            latency_ms_p50: stats::median(inside().map(|op| op.ms).collect()),
            ops,
        })
    }

    /// The phase after its warm-up, cut by completion time into windows of
    /// [`WINDOW_S`]; a phase too short to fill any window is one window.
    /// Operations that complete after `secs` (a queue draining once the
    /// sends stop) belong to none.
    pub fn windows(&self) -> Vec<Window> {
        let warm_s = self.secs * WARM_UP_SHARE;
        let count = ((self.secs - warm_s) / WINDOW_S).floor() as usize;
        let steady: Vec<Window> = (0..count)
            .filter_map(|k| {
                let from_s = warm_s + k as f64 * WINDOW_S;
                self.window(from_s, from_s + WINDOW_S)
            })
            .collect();
        if steady.is_empty() {
            let last = self.ops.iter().map(|op| op.end_s).fold(self.secs, f64::max);
            return self.window(0.0, last + 1.0).into_iter().collect();
        }
        steady
    }

    /// The best window's items per second. The host this runs on only ever
    /// takes time away (a neighbour on the core, a vCPU descheduled), for
    /// seconds at a stretch, so the fastest window is the steadiest reading
    /// of what the code costs; a median over the whole phase moved by a
    /// quarter between runs of one build.
    pub fn throughput_per_s(&self) -> f64 {
        self.windows()
            .iter()
            .map(|w| w.throughput_per_s)
            .fold(0.0, f64::max)
    }

    /// The best window's median operation time.
    pub fn latency_ms_p50(&self) -> f64 {
        let best = self
            .windows()
            .iter()
            .map(|w| w.latency_ms_p50)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// Median operation time over the whole phase.
    pub fn whole_latency_ms_p50(&self) -> f64 {
        stats::median(self.ops.iter().map(|op| op.ms).collect())
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / (self.attempted as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Back-to-back operations of `ms` each over `secs`, `slow` times as long
    /// between `slow_from_s` and `slow_to_s`.
    fn phase(secs: f64, ms: f64, slow: f64, slow_from_s: f64, slow_to_s: f64) -> Primary {
        let mut ops = Vec::new();
        let mut t = 0.0;
        while t < secs {
            let ms = if (slow_from_s..slow_to_s).contains(&t) {
                ms * slow
            } else {
                ms
            };
            t += ms / 1e3;
            ops.push(Op {
                end_s: t,
                ms,
                items: 10.0,
            });
        }
        Primary {
            attempted: ops.len() as u64,
            ops,
            secs,
            overlapped: false,
            cpu_s: 0.0,
        }
    }

    #[test]
    fn a_loud_stretch_does_not_move_the_reported_window() {
        let quiet = phase(12.0, 50.0, 1.0, 0.0, 0.0);
        assert_eq!(quiet.windows().len(), 10, "two seconds of warm-up dropped");
        assert!((quiet.latency_ms_p50() - 50.0).abs() < 1e-9);
        assert!((quiet.throughput_per_s() - 200.0).abs() < 1e-6);
        // Nine of twelve seconds at half speed: the whole-phase median
        // doubles, the best window does not move.
        let loud = phase(12.0, 50.0, 2.0, 0.0, 9.0);
        assert!((loud.whole_latency_ms_p50() - 100.0).abs() < 1e-9);
        assert!((loud.latency_ms_p50() - 50.0).abs() < 1e-9);
        assert!((loud.throughput_per_s() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn overlapped_operations_count_per_second_of_wall_time() {
        // 100 answers a second, each 500 ms old, for 6 s and a 1 s drain.
        let ops: Vec<Op> = (0..700)
            .map(|i| Op {
                end_s: 0.005 + f64::from(i) * 0.01,
                ms: 500.0,
                items: 1.0,
            })
            .collect();
        let load = Primary {
            attempted: 700,
            ops,
            secs: 6.0,
            overlapped: true,
            cpu_s: 1.4,
        };
        let windows = load.windows();
        assert_eq!(windows.len(), 5, "a second of warm-up dropped");
        assert!(
            windows.iter().all(|w| w.ops == 100),
            "the drain is in no window"
        );
        assert!((load.throughput_per_s() - 100.0).abs() < 1e-6);

        // Batches of 16 every 80 ms: 200 answers a second wherever the
        // window edges fall among the bursts.
        let ops: Vec<Op> = (0..16 * 100)
            .map(|i| Op {
                end_s: 0.033 + f64::from(i / 16) * 0.08 + f64::from(i % 16) * 1e-5,
                ms: 900.0,
                items: 1.0,
            })
            .collect();
        let bursts = Primary {
            attempted: 1600,
            ops,
            secs: 7.0,
            overlapped: true,
            cpu_s: 0.0,
        };
        for w in bursts.windows() {
            assert!((w.throughput_per_s - 200.0).abs() < 0.1, "{w:?}");
        }
        assert!((load.cpu_ms_per_op() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_phase_too_short_for_windows_is_one_window() {
        let short = phase(0.3, 100.0, 1.0, 0.0, 0.0);
        let windows = short.windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].ops, short.ops.len());
        let empty = Primary {
            ops: Vec::new(),
            secs: 1.0,
            overlapped: false,
            attempted: 0,
            cpu_s: 0.0,
        };
        assert_eq!((empty.throughput_per_s(), empty.latency_ms_p50()), (0.0, 0.0));
    }
}
