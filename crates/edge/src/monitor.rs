//! Incoming-rate performance monitoring.
//!
//! The paper's Runtime Manager acts on workload changes "flagged by
//! performance monitors added to the software in charge of the incoming
//! inferences" (§IV-B2). The fluid simulator hands the serving policies in
//! [`crate::policy`] oracle per-segment rates; this module provides the
//! realistic counterpart: an EWMA rate estimator with hysteresis-based
//! change detection, plus a policy adapter that feeds *estimated* rates to
//! any inner policy.
//!
//! Comparing oracle vs monitored serving quantifies the cost of estimation
//! lag (see the `monitoring` bench binary).

use crate::policy::{ServePolicy, ServingState};
use adaflow::PressureSignal;
use serde::{Deserialize, Serialize};

/// Rate monitor for sparse observations: smooths direct rate readings with
/// a time-constant EWMA (estimation lag) and flags hysteresis-crossing
/// changes. The [`MonitoredPolicy`] adapter uses it, since the serving
/// simulator reports rates at segment boundaries rather than individual
/// arrivals.
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
        let mut m = RateMonitor::default_edge();
        assert!(m.observe_rate(0.0, 600.0).is_some());
    }

    #[test]
    fn steady_rate_flags_once() {
        let mut m = RateMonitor::new(0.5, 0.1);
        let flags = (0..50)
            .filter(|&i| m.observe_rate(f64::from(i) * 0.1, 600.0).is_some())
            .count();
        assert_eq!(flags, 1, "steady input flagged {flags} times");
    }

    #[test]
    fn rate_jump_is_flagged() {
        let mut m = RateMonitor::new(0.3, 0.1);
        for i in 0..10 {
            m.observe_rate(f64::from(i) * 0.1, 600.0);
        }
        let before = m.estimate().expect("has estimate");
        let after = (10..20)
            .find_map(|i| m.observe_rate(f64::from(i) * 0.1, 1200.0))
            .expect("jump must be flagged");
        // Past the hysteresis, but still lagging the new level.
        assert!(
            after > before * 1.1 && after < 1200.0,
            "{after} vs {before}"
        );
    }

    #[test]
    fn estimate_tracks_rate() {
        let mut m = RateMonitor::new(0.5, 0.05);
        m.observe_rate(0.0, 300.0);
        for i in 1..=20 {
            m.observe_rate(f64::from(i) * 0.1, 600.0);
        }
        // Four time constants after the step: within 2 % of its height.
        let est = m.estimate().expect("has estimate");
        assert!((est - 600.0).abs() < 12.0, "estimate {est}");
    }

    #[test]
    fn small_wiggle_not_flagged() {
        let mut m = RateMonitor::new(0.5, 0.2);
        m.observe_rate(0.0, 600.0);
        for i in 1..30 {
            let t = f64::from(i) * 0.1;
            let wiggle = 600.0 + f64::from(i % 3) * 10.0; // < 5 % variation
            assert!(m.observe_rate(t, wiggle).is_none(), "wiggle flagged at {t}");
        }
    }

    /// The EWMA time constant is the monitor's averaging window.
    #[test]
    #[should_panic(expected = "time constant must be positive")]
    fn zero_window_rejected() {
        let _ = RateMonitor::new(0.0, 0.1);
    }

    #[test]
    fn hysteresis_boundary_is_exclusive() {
        // Readings 1 s apart under a 1 ms time constant: the smoothing
        // factor rounds to exactly 1, so the estimate is the reading.
        let mut m = RateMonitor::new(1e-3, 0.1);
        assert_eq!(m.observe_rate(0.0, 5.0), Some(5.0));
        // Exactly +10.0 % over the flagged level: NOT flagged (strict `>`).
        assert_eq!(m.observe_rate(1.0, 5.5), None);
        // +12 % over the flagged level (not over the last reading): flagged.
        let flagged = m.observe_rate(2.0, 5.6).expect("12 % move flags");
        assert!((flagged - 5.6).abs() < 1e-9, "{flagged}");
    }

    #[test]
    fn idle_gap_flags_zero_rate_once() {
        let mut m = RateMonitor::new(0.1, 0.1);
        for i in 0..5 {
            m.observe_rate(f64::from(i) * 0.1, 600.0);
        }
        // A long idle gap decays the estimate fully; the collapse to 0 FPS
        // flags exactly once.
        assert_eq!(m.observe_rate(10.0, 0.0), Some(0.0));
        assert!(
            m.observe_rate(10.1, 0.0).is_none(),
            "steady zero re-flagged"
        );
        // Recovery from zero is flagged again (relative move from 0 is
        // treated as infinite).
        assert!(m.observe_rate(10.2, 600.0).is_some());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Feeding a constant rate after a start from zero converges the
            /// estimate to that rate (eight time constants: within 0.04 %).
            #[test]
            fn estimate_converges_to_constant_rate(
                rate in 10.0f64..2000.0,
                dt in 0.01f64..0.2,
            ) {
                let mut m = RateMonitor::new(0.25, 0.1);
                m.observe_rate(0.0, 0.0);
                let steps = (2.0 / dt).ceil() as usize;
                let mut t = 0.0;
                for _ in 0..steps {
                    t += dt;
                    m.observe_rate(t, rate);
                }
                let est = m.estimate().expect("has estimate");
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
                let mut m = RateMonitor::new(0.25, 0.2);
                let mut flags = 0;
                for i in 0..60u32 {
                    let t = f64::from(i) * 0.05;
                    let f = rate * (1.0 + if i % 2 == 0 { wiggle } else { -wiggle });
                    if m.observe_rate(t, f).is_some() {
                        flags += 1;
                    }
                }
                // Only the first reading flags: a ±5 % wiggle stays inside
                // the 20 % band.
                prop_assert!(flags == 1, "flagged {} times", flags);
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
