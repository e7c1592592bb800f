//! Incoming-rate performance monitoring.
//!
//! The paper's Runtime Manager acts on workload changes "flagged by
//! performance monitors added to the software in charge of the incoming
//! inferences" (§IV-B2). The fluid simulator hands the serving policies in
//! [`crate::policy`] oracle per-segment rates; this module provides the
//! realistic counterpart: a sliding-window FPS estimator with
//! hysteresis-based change detection, plus a policy adapter that feeds
//! *estimated* rates to any inner policy.
//!
//! Comparing oracle vs monitored serving quantifies the cost of estimation
//! lag (see the `monitoring` bench binary).

use crate::policy::{ServePolicy, ServingState};
use adaflow::PressureSignal;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sliding-window estimator of the incoming frame rate with change
/// flagging.
///
/// Feed it arrival counts with [`FpsMonitor::observe`]; it maintains a
/// windowed rate estimate and reports a *change event* when the estimate
/// departs from the last flagged level by more than the relative
/// hysteresis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpsMonitor {
    window_s: f64,
    hysteresis: f64,
    /// `(timestamp, frames)` observations inside the window.
    samples: VecDeque<(f64, f64)>,
    last_flagged: Option<f64>,
}

impl FpsMonitor {
    /// Creates a monitor with an averaging window (seconds) and a relative
    /// change-detection hysteresis (e.g. `0.1` = flag on ±10 % moves).
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive or the hysteresis is negative.
    #[must_use]
    pub fn new(window_s: f64, hysteresis: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        assert!(hysteresis >= 0.0, "hysteresis must be nonnegative");
        Self {
            window_s,
            hysteresis,
            samples: VecDeque::new(),
            last_flagged: None,
        }
    }

    /// The paper-flavoured default: 250 ms window, 10 % hysteresis —
    /// responsive enough for Scenario 2's 500 ms deviations.
    #[must_use]
    pub fn default_edge() -> Self {
        Self::new(0.25, 0.1)
    }

    /// Records `frames` arrivals at time `now_s` and returns the flagged
    /// rate if this observation constitutes a change event.
    pub fn observe(&mut self, now_s: f64, frames: f64) -> Option<f64> {
        self.samples.push_back((now_s, frames));
        while let Some(&(t, _)) = self.samples.front() {
            if now_s - t > self.window_s {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        let estimate = self.estimate(now_s);
        let changed = match self.last_flagged {
            None => true,
            Some(level) => {
                let rel = if level.abs() < 1e-9 {
                    if estimate.abs() < 1e-9 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (estimate - level).abs() / level
                };
                rel > self.hysteresis
            }
        };
        if changed {
            self.last_flagged = Some(estimate);
            Some(estimate)
        } else {
            None
        }
    }

    /// Current windowed rate estimate at `now_s` (frames per second).
    ///
    /// Each observation represents the arrivals of the interval *ending* at
    /// its timestamp, so the rate is the frames observed **after** the
    /// oldest in-window timestamp divided by the elapsed span (the oldest
    /// sample only anchors the span — counting it too would overestimate by
    /// `n/(n-1)`).
    #[must_use]
    pub fn estimate(&self, now_s: f64) -> f64 {
        match self.samples.front() {
            None => 0.0,
            Some(&(t0, f0)) if self.samples.len() > 1 => {
                let total: f64 = self.samples.iter().map(|&(_, f)| f).sum();
                let span = (now_s - t0).max(1e-3);
                (total - f0) / span
            }
            Some(&(_, f0)) => f0 / self.window_s,
        }
    }

    /// The level of the last flagged change, if any.
    #[must_use]
    pub fn last_flagged(&self) -> Option<f64> {
        self.last_flagged
    }
}

/// Rate-level monitor for sparse observations: smooths direct rate readings
/// with a time-constant EWMA (estimation lag) and flags hysteresis-crossing
/// changes. This is the form the [`MonitoredPolicy`] adapter uses, since the
/// serving simulator reports rates at segment boundaries rather than
/// individual arrivals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateMonitor {
    /// Smoothing time constant in seconds.
    pub time_constant_s: f64,
    /// Relative change-detection hysteresis.
    pub hysteresis: f64,
    estimate: Option<(f64, f64)>, // (timestamp, level)
    last_flagged: Option<f64>,
}

impl RateMonitor {
    /// Creates a rate monitor.
    ///
    /// # Panics
    ///
    /// Panics if the time constant is not positive or the hysteresis is
    /// negative.
    #[must_use]
    pub fn new(time_constant_s: f64, hysteresis: f64) -> Self {
        assert!(time_constant_s > 0.0, "time constant must be positive");
        assert!(hysteresis >= 0.0, "hysteresis must be nonnegative");
        Self {
            time_constant_s,
            hysteresis,
            estimate: None,
            last_flagged: None,
        }
    }

    /// The paper-flavoured default: 250 ms time constant, 10 % hysteresis.
    #[must_use]
    pub fn default_edge() -> Self {
        Self::new(0.25, 0.1)
    }

    /// Feeds a rate reading; returns the new estimate if it constitutes a
    /// flagged change.
    pub fn observe_rate(&mut self, now_s: f64, fps: f64) -> Option<f64> {
        let estimate = match self.estimate {
            None => fps,
            Some((t, level)) => {
                let alpha = 1.0 - (-(now_s - t).max(0.0) / self.time_constant_s).exp();
                level + alpha * (fps - level)
            }
        };
        self.estimate = Some((now_s, estimate));
        let changed = match self.last_flagged {
            None => true,
            Some(level) if level.abs() < 1e-9 => estimate.abs() > 1e-9,
            Some(level) => (estimate - level).abs() / level > self.hysteresis,
        };
        if changed {
            self.last_flagged = Some(estimate);
            Some(estimate)
        } else {
            None
        }
    }

    /// Current smoothed estimate, if any reading arrived yet.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        self.estimate.map(|(_, e)| e)
    }
}

/// Wraps a policy so it sees *monitored* rates: the inner policy is only
/// re-invoked when the monitor flags a change in the demanded rate, and then
/// receives the smoothed estimate as a nominal signal instead of the
/// observed one.
pub struct MonitoredPolicy<P> {
    inner: P,
    monitor: RateMonitor,
    held: Option<ServingState>,
}

impl<P: ServePolicy> MonitoredPolicy<P> {
    /// Wraps `inner` behind `monitor`.
    #[must_use]
    pub fn new(inner: P, monitor: RateMonitor) -> Self {
        Self {
            inner,
            monitor,
            held: None,
        }
    }
}

impl<P: ServePolicy> ServePolicy for MonitoredPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_pressure(&mut self, now_s: f64, signal: &PressureSignal) -> ServingState {
        let flagged = self.monitor.observe_rate(now_s, signal.demand_fps());
        if let (None, Some(held)) = (flagged, &self.held) {
            // No flagged change: hold the previous serving state with the
            // switch costs already paid.
            return held.clone();
        }
        let signal = flagged.map_or(*signal, PressureSignal::nominal);
        let state = self.inner.on_pressure(now_s, &signal);
        self.held = Some(state.held());
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_flags() {
        let mut m = FpsMonitor::default_edge();
        assert!(m.observe(0.0, 60.0).is_some());
    }

    #[test]
    fn steady_rate_flags_once() {
        let mut m = FpsMonitor::new(0.5, 0.1);
        let mut flags = 0;
        for i in 0..50 {
            let t = i as f64 * 0.1;
            if m.observe(t, 60.0).is_some() {
                flags += 1;
            }
        }
        assert!(flags <= 2, "steady input flagged {flags} times");
    }

    #[test]
    fn rate_jump_is_flagged() {
        let mut m = FpsMonitor::new(0.3, 0.1);
        for i in 0..10 {
            m.observe(i as f64 * 0.1, 60.0);
        }
        let before = m.last_flagged().expect("flagged");
        let mut flagged_after = None;
        for i in 10..20 {
            if let Some(level) = m.observe(i as f64 * 0.1, 120.0) {
                flagged_after = Some(level);
                break;
            }
        }
        let after = flagged_after.expect("jump must be flagged");
        assert!(after > before * 1.3, "estimate {after} vs {before}");
    }

    #[test]
    fn estimate_tracks_rate() {
        let mut m = FpsMonitor::new(0.5, 0.05);
        for i in 0..20 {
            m.observe(i as f64 * 0.1, 60.0); // 600 FPS
        }
        let est = m.estimate(1.9);
        assert!((est - 600.0).abs() < 120.0, "estimate {est}");
    }

    #[test]
    fn small_wiggle_not_flagged() {
        let mut m = FpsMonitor::new(0.5, 0.2);
        m.observe(0.0, 60.0);
        for i in 1..30 {
            let t = i as f64 * 0.1;
            let wiggle = 60.0 + (i % 3) as f64; // < 5% variation
            assert!(
                m.observe(t, wiggle).is_none() || i < 6,
                "wiggle flagged at {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = FpsMonitor::new(0.0, 0.1);
    }

    #[test]
    fn window_eviction_boundary_is_exclusive() {
        let mut m = FpsMonitor::new(1.0, 0.1);
        m.observe(0.0, 999.0);
        m.observe(1.0, 1.0);
        // The t=0 sample is exactly window_s old: eviction is strict `>`,
        // so it stays to anchor the span and its frames are excluded.
        assert!((m.estimate(1.0) - 1.0).abs() < 1e-9, "{}", m.estimate(1.0));
        // One step past the window it is gone; the estimate now spans only
        // the newer samples: (1 + 1 - 1) frames over 0.5 s.
        m.observe(1.5, 1.0);
        assert!((m.estimate(1.5) - 2.0).abs() < 1e-9, "{}", m.estimate(1.5));
    }

    #[test]
    fn hysteresis_boundary_is_exclusive() {
        // Window long enough that nothing is evicted; the estimate is then
        // exactly controllable through the observed frame counts.
        let mut m = FpsMonitor::new(10.0, 0.1);
        // Single sample: estimate = 50 / 10 s = 5.0, first observation flags.
        assert_eq!(m.observe(0.0, 50.0), Some(5.0));
        // Estimate moves to exactly 5.5 = +10.0 %: NOT flagged (strict `>`).
        assert_eq!(m.observe(1.0, 5.5), None);
        assert_eq!(m.last_flagged(), Some(5.0));
        // Estimate moves to ~5.6 = +12 % over the flagged level: flagged.
        let flagged = m.observe(2.0, 5.7).expect("12 % move flags");
        assert!((flagged - 5.6).abs() < 1e-9, "{flagged}");
    }

    #[test]
    fn idle_gap_flags_zero_rate_once() {
        let mut m = FpsMonitor::new(0.5, 0.1);
        for i in 0..5 {
            m.observe(i as f64 * 0.1, 60.0);
        }
        assert!(m.estimate(0.4) > 0.0);
        // A long idle gap evicts the whole window; the zero observation
        // flags the collapse to 0 FPS exactly once.
        assert_eq!(m.observe(10.0, 0.0), Some(0.0));
        assert_eq!(m.estimate(10.0), 0.0);
        assert!(m.observe(10.1, 0.0).is_none(), "steady zero re-flagged");
        // Recovery from zero is flagged again (relative move from 0 is
        // treated as infinite).
        assert!(m.observe(10.2, 60.0).is_some());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Feeding a constant offered rate in fixed steps converges the
            /// windowed estimate to that rate (equally-spaced samples make
            /// the span arithmetic exact, so only float error remains).
            #[test]
            fn estimate_converges_to_constant_rate(
                rate in 10.0f64..2000.0,
                dt in 0.01f64..0.2,
            ) {
                let mut m = FpsMonitor::new(0.5, 0.1);
                let steps = (2.0 / dt).ceil() as usize;
                let mut t = 0.0;
                for _ in 0..steps {
                    t += dt;
                    m.observe(t, rate * dt);
                }
                let est = m.estimate(t);
                prop_assert!(
                    (est - rate).abs() <= rate * 0.05 + 1e-6,
                    "estimate {} for offered rate {}", est, rate
                );
            }

            /// The monitor never flags while successive estimates stay
            /// within the hysteresis band of the last flagged level.
            #[test]
            fn no_flags_inside_hysteresis_band(
                rate in 50.0f64..1000.0,
                wiggle in 0.0f64..0.05,
            ) {
                let mut m = FpsMonitor::new(0.5, 0.2);
                let dt = 0.05;
                let mut flags = 0;
                for i in 0..60u32 {
                    let t = f64::from(i) * dt;
                    let f = rate * dt * (1.0 + if i % 2 == 0 { wiggle } else { -wiggle });
                    if m.observe(t, f).is_some() {
                        flags += 1;
                    }
                }
                // The first observation always flags; the ±5 % wiggle stays
                // inside the 20 % band thereafter (allow one settling flag).
                prop_assert!(flags <= 2, "flagged {} times", flags);
            }
        }
    }

    #[test]
    fn rate_monitor_converges_to_level() {
        let mut m = RateMonitor::new(0.25, 0.1);
        m.observe_rate(0.0, 600.0);
        for i in 1..10 {
            m.observe_rate(i as f64 * 0.5, 900.0);
        }
        let est = m.estimate().expect("has estimate");
        assert!((est - 900.0).abs() < 10.0, "estimate {est}");
    }

    #[test]
    fn rate_monitor_flags_jumps_not_wiggles() {
        let mut m = RateMonitor::new(0.1, 0.1);
        assert!(m.observe_rate(0.0, 600.0).is_some(), "first reading flags");
        assert!(m.observe_rate(1.0, 615.0).is_none(), "2.5% wiggle ignored");
        assert!(m.observe_rate(2.0, 900.0).is_some(), "50% jump flags");
    }

    #[test]
    fn rate_monitor_lags_with_large_time_constant() {
        let mut slow = RateMonitor::new(10.0, 0.0);
        slow.observe_rate(0.0, 600.0);
        slow.observe_rate(0.5, 1200.0);
        let est = slow.estimate().expect("has estimate");
        assert!(est < 700.0, "slow monitor moved too fast: {est}");
    }
}
