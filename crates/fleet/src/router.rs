//! Fleet routing policies.
//!
//! A router sees an immutable [`DeviceSnapshot`] per device — queue
//! occupancy, in-flight batch, busy horizon and backlog drain time — and
//! picks the device index to dispatch the arrival to. All four policies
//! are deterministic: power-of-two-choices draws from a seeded ChaCha8
//! stream owned by the router, so a `(config, seed)` pair pins every
//! routing decision bit-for-bit.
//!
//! These policies serve two callers: the fleet DES dispatches simulated
//! arrivals through them, and `adaflow-gateway` drives the *same*
//! `RoutePolicy` objects over live TCP backends (mapping each backend's
//! in-flight count and measured service floor into a snapshot). Sharing
//! the implementation is what makes the sim-vs-real hit-rate comparison
//! in EXPERIMENTS.md an apples-to-apples check.

use crate::config::RouterKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What a router may observe about one device at dispatch time: a row
/// its owner rewrites when that device changes, laid out so that routing
/// reads it without branching or dividing.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSnapshot {
    /// Queued plus in-flight requests.
    load: usize,
    /// When the in-flight batch completes (stall included);
    /// `NEG_INFINITY` while idle, so `.max(now)` is `now`.
    busy_until_s: f64,
    /// Time the queued backlog plus one more request take to drain at the
    /// live throughput, seconds.
    backlog_s: f64,
}

impl DeviceSnapshot {
    /// The row of a device holding `queue_len` queued and `in_flight`
    /// in-service requests, busy until `busy_until_s` (if a batch is in
    /// flight) and serving at `serving_fps` — or, before its first batch
    /// establishes that, at the prior `prior_fps`.
    #[must_use]
    pub fn new(
        queue_len: usize,
        in_flight: usize,
        busy_until_s: Option<f64>,
        serving_fps: Option<f64>,
        prior_fps: f64,
    ) -> Self {
        let fps = serving_fps.unwrap_or(prior_fps.max(1.0)).max(1e-9);
        Self {
            load: queue_len + in_flight,
            busy_until_s: busy_until_s.unwrap_or(f64::NEG_INFINITY),
            backlog_s: (queue_len as f64 + 1.0) / fps,
        }
    }

    /// Queued plus in-flight work — the join-shortest-queue load metric.
    #[must_use]
    pub fn load(&self) -> usize {
        self.load
    }

    /// The estimated completion instant of a request dispatched to this
    /// device at `now_s`: free once the in-flight batch is done, then the
    /// backlog and the request itself drain.
    #[must_use]
    pub fn estimate_done_s(&self, now_s: f64) -> f64 {
        self.busy_until_s.max(now_s) + self.backlog_s
    }
}

/// A fleet dispatch policy.
pub trait RoutePolicy {
    /// Policy display name (stable; used in summaries and the CLI).
    fn name(&self) -> &'static str;

    /// Picks the device index for the arrival at `now_s`.
    /// `devices` is non-empty; the result must index into it.
    fn route(&mut self, now_s: f64, devices: &[DeviceSnapshot]) -> usize;
}

/// Cycle through devices in index order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl RoutePolicy for RoundRobinRouter {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _now_s: f64, devices: &[DeviceSnapshot]) -> usize {
        let idx = self.next % devices.len();
        self.next = (self.next + 1) % devices.len();
        idx
    }
}

/// Join the shortest queue (queued + in-flight), ties to the lowest index.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedRouter;

impl RoutePolicy for LeastLoadedRouter {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _now_s: f64, devices: &[DeviceSnapshot]) -> usize {
        let mut best = 0;
        for (idx, d) in devices.iter().enumerate().skip(1) {
            if d.load() < devices[best].load() {
                best = idx;
            }
        }
        best
    }
}

/// Power of two choices: sample two distinct devices from a seeded
/// stream, join the less loaded (ties to the lower index).
#[derive(Debug, Clone)]
pub struct PowerOfTwoRouter {
    rng: ChaCha8Rng,
}

impl PowerOfTwoRouter {
    /// Creates the router over its private sampling stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xF1EE_7B02),
        }
    }
}

impl RoutePolicy for PowerOfTwoRouter {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _now_s: f64, devices: &[DeviceSnapshot]) -> usize {
        let n = devices.len();
        if n == 1 {
            return 0;
        }
        let first = self.rng.gen_range(0..n);
        let mut second = self.rng.gen_range(0..n - 1);
        if second >= first {
            second += 1;
        }
        let (lo, hi) = (first.min(second), first.max(second));
        if devices[hi].load() < devices[lo].load() {
            hi
        } else {
            lo
        }
    }
}

/// Rank devices by the estimated completion instant of the new request:
/// the device is free when its in-flight batch (stall included) is done,
/// then the queued backlog plus this request drain at the live
/// throughput. Picks the earliest estimate, ties to the lowest index —
/// so a device mid-reconfiguration (large busy horizon) naturally loses
/// to its peers until the drain is over.
#[derive(Debug, Clone, Default)]
pub struct DeadlineAwareRouter;

impl RoutePolicy for DeadlineAwareRouter {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn route(&mut self, now_s: f64, devices: &[DeviceSnapshot]) -> usize {
        let mut best = 0;
        let mut best_done = devices[0].estimate_done_s(now_s);
        for (idx, d) in devices.iter().enumerate().skip(1) {
            let done = d.estimate_done_s(now_s);
            if done.total_cmp(&best_done).is_lt() {
                best = idx;
                best_done = done;
            }
        }
        best
    }
}

impl RouterKind {
    /// Builds the routing policy. `seed` feeds the power-of-two sampling
    /// stream. The box is `Send` so the live gateway can drive one policy
    /// from its connection threads (behind a mutex); the DES uses it
    /// single-threaded.
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn RoutePolicy + Send> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobinRouter::default()),
            RouterKind::LeastLoaded => Box::new(LeastLoadedRouter),
            RouterKind::PowerOfTwo => Box::new(PowerOfTwoRouter::new(seed)),
            RouterKind::DeadlineAware => Box::new(DeadlineAwareRouter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(queue_len: usize, in_flight: usize) -> DeviceSnapshot {
        let busy_until_s = (in_flight > 0).then_some(1.0);
        DeviceSnapshot::new(queue_len, in_flight, busy_until_s, Some(100.0), 100.0)
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let mut r = RoundRobinRouter::default();
        let devs = [snap(9, 9), snap(0, 0), snap(5, 0)];
        let picks: Vec<usize> = (0..7).map(|_| r.route(0.0, &devs)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_joins_shortest_with_low_index_ties() {
        let mut r = LeastLoadedRouter;
        assert_eq!(r.route(0.0, &[snap(3, 1), snap(0, 1), snap(2, 0)]), 1);
        assert_eq!(r.route(0.0, &[snap(2, 0), snap(1, 1), snap(4, 0)]), 0);
    }

    #[test]
    fn power_of_two_is_deterministic_and_never_picks_heavier() {
        let devs = [snap(0, 0), snap(10, 1), snap(3, 0), snap(7, 0)];
        let picks_a: Vec<usize> = {
            let mut r = PowerOfTwoRouter::new(11);
            (0..64).map(|_| r.route(0.0, &devs)).collect()
        };
        let picks_b: Vec<usize> = {
            let mut r = PowerOfTwoRouter::new(11);
            (0..64).map(|_| r.route(0.0, &devs)).collect()
        };
        assert_eq!(picks_a, picks_b, "seeded stream is deterministic");
        // Device 1 (load 11) can only win a pairing it is lighter in —
        // there is none, so it is never picked.
        assert!(picks_a.iter().all(|&p| p != 1));
        // More than one device gets traffic.
        assert!(picks_a.contains(&0));
    }

    #[test]
    fn deadline_aware_avoids_draining_device() {
        let devs = [
            // Mid-reconfiguration: free only at t=2.0.
            DeviceSnapshot::new(0, 4, Some(2.0), Some(400.0), 100.0),
            // Busy but quick, short queue.
            DeviceSnapshot::new(2, 4, Some(0.12), Some(400.0), 100.0),
        ];
        assert_eq!(
            DeadlineAwareRouter.route(0.1, &devs),
            1,
            "route around the drain"
        );
    }

    #[test]
    fn deadline_aware_prefers_faster_device_at_equal_depth() {
        let devs = [
            DeviceSnapshot::new(6, 0, None, Some(100.0), 100.0),
            DeviceSnapshot::new(6, 0, None, Some(500.0), 100.0),
        ];
        assert_eq!(DeadlineAwareRouter.route(0.0, &devs), 1);
    }

    /// What a router observed before the row was maintained, and the
    /// estimate the deadline-aware router computed from it per request —
    /// kept as the reference the row-based route must agree with.
    #[derive(Clone, Copy)]
    struct Observed {
        queue_len: usize,
        in_flight: usize,
        busy_until_s: Option<f64>,
        serving_fps: Option<f64>,
    }

    impl Observed {
        fn estimate_done_s(&self, now_s: f64, prior_fps: f64) -> f64 {
            let fps = self.serving_fps.unwrap_or(prior_fps.max(1.0)).max(1e-9);
            let free_s = self.busy_until_s.map_or(now_s, |b| b.max(now_s));
            free_s + (self.queue_len as f64 + 1.0) / fps
        }

        fn row(&self, prior_fps: f64) -> DeviceSnapshot {
            DeviceSnapshot::new(
                self.queue_len,
                self.in_flight,
                self.busy_until_s,
                self.serving_fps,
                prior_fps,
            )
        }
    }

    /// The lowest index with the earliest reference estimate.
    fn reference_route(now_s: f64, devices: &[Observed], prior_fps: f64) -> usize {
        let mut best = 0;
        for idx in 1..devices.len() {
            let done = devices[idx].estimate_done_s(now_s, prior_fps);
            let best_done = devices[best].estimate_done_s(now_s, prior_fps);
            if done.total_cmp(&best_done).is_lt() {
                best = idx;
            }
        }
        best
    }

    #[test]
    fn rows_route_like_the_option_based_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for case in 0..2_000 {
            let n = rng.gen_range(1..=32usize);
            // Few distinct values per field, so whole rows repeat and
            // estimates tie exactly; a prior below 1 exercises its clamp.
            let prior_fps = [0.25, 93.75, 600.0][case % 3];
            let now_s = f64::from(rng.gen_range(0..64u32)) / 64.0;
            let devices: Vec<Observed> = (0..n)
                .map(|_| {
                    let busy = rng.gen_bool(0.5);
                    Observed {
                        queue_len: rng.gen_range(0..4),
                        in_flight: if busy { rng.gen_range(1..=4) } else { 0 },
                        // Before, at and after `now_s`.
                        busy_until_s: busy.then(|| f64::from(rng.gen_range(0..96u32)) / 64.0),
                        serving_fps: rng
                            .gen_bool(0.7)
                            .then(|| [64.0, 128.0, 0.0][rng.gen_range(0..3usize)]),
                    }
                })
                .collect();
            let rows: Vec<DeviceSnapshot> = devices.iter().map(|d| d.row(prior_fps)).collect();
            for (d, row) in devices.iter().zip(&rows) {
                assert_eq!(
                    row.estimate_done_s(now_s).to_bits(),
                    d.estimate_done_s(now_s, prior_fps).to_bits(),
                    "case {case}: same estimate, bit for bit"
                );
            }
            assert_eq!(
                DeadlineAwareRouter.route(now_s, &rows),
                reference_route(now_s, &devices, prior_fps),
                "case {case}"
            );
        }
    }

    #[test]
    fn exact_ties_go_to_the_lowest_index() {
        let idle = DeviceSnapshot::new(2, 0, None, None, 80.0);
        let busy_past = DeviceSnapshot::new(2, 3, Some(0.25), Some(80.0), 80.0);
        // An idle uncalibrated device and a calibrated one whose batch is
        // already over estimate the same instant at `now = 0.5`.
        assert_eq!(DeadlineAwareRouter.route(0.5, &[idle, busy_past, idle]), 0);
        assert_eq!(DeadlineAwareRouter.route(0.5, &[busy_past, idle]), 0);
    }

    #[test]
    fn load_based_routers_read_only_queue_and_in_flight() {
        // Same loads, opposite busy horizons and throughputs: the three
        // load-based policies must not notice.
        let plain = [snap(3, 1), snap(0, 1), snap(2, 0), snap(0, 1)];
        let skewed = [
            DeviceSnapshot::new(3, 1, Some(0.0), Some(1e6), 1.0),
            DeviceSnapshot::new(0, 1, Some(9e9), None, 1e-3),
            DeviceSnapshot::new(2, 0, None, Some(1e-12), 1.0),
            DeviceSnapshot::new(0, 1, Some(5.0), Some(1.0), 1.0),
        ];
        for kind in [
            RouterKind::RoundRobin,
            RouterKind::LeastLoaded,
            RouterKind::PowerOfTwo,
        ] {
            let (mut a, mut b) = (kind.build(5), kind.build(5));
            for step in 0..64 {
                assert_eq!(
                    a.route(0.0, &plain),
                    b.route(0.0, &skewed),
                    "{} step {step}",
                    kind.name()
                );
            }
        }
        assert_eq!(LeastLoadedRouter.route(0.0, &plain), 1, "ties stay low");
    }

    #[test]
    fn builder_matches_kind_names() {
        for kind in RouterKind::ALL {
            assert_eq!(kind.build(1).name(), kind.name());
        }
    }
}
