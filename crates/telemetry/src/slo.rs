//! SLO error-budget accounting and multi-window burn-rate alerting.
//!
//! An SLO says "at least `target` of completed requests must be good".
//! The *error budget* over a run is `(1 − target) × completed`; the *burn
//! rate* over a window is the observed bad fraction divided by the allowed
//! bad fraction, so a burn rate of 1 spends the budget exactly at the
//! sustainable pace and a burn rate of 2 exhausts it twice as fast. The
//! engine evaluates the classic two-window alert: fire when **both** a
//! short window (fast, catches regressions quickly) and a long window
//! (slow, suppresses blips) burn above the threshold. Evaluation walks the
//! registry's tumbling windows on the simulation clock, so alerts are
//! bit-identical per seed.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use serde::Serialize;

/// What counts as "bad" for an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Bad = completed past the request's deadline budget.
    Deadline,
    /// Bad = completed slower than the registry's latency objective.
    Latency,
}

impl Objective {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Objective::Deadline => "deadline",
            Objective::Latency => "latency",
        }
    }

    /// Parses a wire label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Objective> {
        match label {
            "deadline" => Some(Objective::Deadline),
            "latency" => Some(Objective::Latency),
            _ => None,
        }
    }
}

/// Short alert window, seconds.
const SHORT_WINDOW_S: f64 = 5.0;
/// Long alert window, seconds.
const LONG_WINDOW_S: f64 = 25.0;
/// Fire when both windows burn at or above this rate.
const ALERT_BURN_RATE: f64 = 2.0;

/// SLO parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Which completions count as bad.
    pub objective: Objective,
    /// Required good fraction, strictly inside `(0, 1)`.
    pub target: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objective: Objective::Deadline,
            target: 0.97,
        }
    }
}

/// The evaluated SLO state of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    /// Objective label (`"deadline"` or `"latency"`).
    pub objective: String,
    /// Required good fraction.
    pub target: f64,
    /// Completions observed.
    pub total_completed: u64,
    /// Bad completions observed.
    pub bad: u64,
    /// Achieved good fraction (1 when idle).
    pub good_fraction: f64,
    /// Allowed bad completions over the run: `(1 − target) × total`.
    pub error_budget: f64,
    /// `bad / error_budget`, percent (0 when idle).
    pub budget_consumed_pct: f64,
    /// Whole-run burn rate.
    pub overall_burn_rate: f64,
    /// Short alert window, seconds.
    pub short_window_s: f64,
    /// Long alert window, seconds.
    pub long_window_s: f64,
    /// Alert threshold on both windows.
    pub alert_burn_rate: f64,
    /// Worst trailing short-window burn observed.
    pub worst_short_burn: f64,
    /// Worst trailing long-window burn observed.
    pub worst_long_burn: f64,
    /// Edge-triggered [`EventKind::SloBurnAlert`] events, in time order.
    pub alerts: Vec<Event>,
}

/// Evaluates an [`SloConfig`] against a filled registry.
#[derive(Debug, Clone)]
pub struct SloEngine {
    config: SloConfig,
}

impl SloEngine {
    /// Builds the engine, validating the configuration.
    #[must_use]
    pub fn new(config: SloConfig) -> Self {
        assert!(
            config.target > 0.0 && config.target < 1.0,
            "SLO target must be strictly inside (0, 1)"
        );
        SloEngine { config }
    }

    fn bad_in(&self, w: &crate::metrics::WindowStats) -> u64 {
        match self.config.objective {
            Objective::Deadline => w.deadline_misses,
            Objective::Latency => w.latency_over_objective,
        }
    }

    /// Walks the registry's tumbling windows and produces the report.
    #[must_use]
    pub fn evaluate(&self, registry: &MetricsRegistry) -> SloReport {
        let cfg = &self.config;
        let allowed_frac = 1.0 - cfg.target;
        let base_s = crate::metrics::WINDOW_S;
        // Densify the sparse window list so trailing sums see idle gaps.
        let last_index = registry.windows().last().map_or(0, |w| w.index);
        let mut completed = vec![0u64; last_index as usize + 1];
        let mut bad = vec![0u64; last_index as usize + 1];
        for w in registry.windows() {
            completed[w.index as usize] = w.completed;
            bad[w.index as usize] = self.bad_in(w);
        }
        let burn = |c: u64, b: u64| {
            if c == 0 {
                0.0
            } else {
                (b as f64 / c as f64) / allowed_frac
            }
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let span_windows = |len_s: f64| ((len_s / base_s).ceil() as usize).max(1);
        let short_n = span_windows(SHORT_WINDOW_S);
        let long_n = span_windows(LONG_WINDOW_S);
        let trailing = |sums: &[u64], i: usize, n: usize| -> u64 {
            sums[i.saturating_sub(n - 1)..=i].iter().sum()
        };
        let mut alerts = Vec::new();
        let mut worst_short: f64 = 0.0;
        let mut worst_long: f64 = 0.0;
        let mut cumulative_bad = 0u64;
        let mut cumulative_completed = 0u64;
        let mut firing = false;
        for i in 0..completed.len() {
            cumulative_bad += bad[i];
            cumulative_completed += completed[i];
            let short_burn = burn(trailing(&completed, i, short_n), trailing(&bad, i, short_n));
            let long_burn = burn(trailing(&completed, i, long_n), trailing(&bad, i, long_n));
            worst_short = worst_short.max(short_burn);
            worst_long = worst_long.max(long_burn);
            let over = short_burn >= ALERT_BURN_RATE && long_burn >= ALERT_BURN_RATE;
            if over && !firing {
                let budget = allowed_frac * cumulative_completed as f64;
                alerts.push(Event::new(
                    (i as f64 + 1.0) * base_s,
                    EventKind::SloBurnAlert {
                        objective: cfg.objective.label().to_string(),
                        short_window_s: SHORT_WINDOW_S,
                        long_window_s: LONG_WINDOW_S,
                        short_burn,
                        long_burn,
                        budget_consumed_pct: if budget > 0.0 {
                            cumulative_bad as f64 / budget * 100.0
                        } else {
                            0.0
                        },
                    },
                ));
            }
            firing = over;
        }
        let total = cumulative_completed;
        let total_bad = cumulative_bad;
        let error_budget = allowed_frac * total as f64;
        SloReport {
            objective: cfg.objective.label().to_string(),
            target: cfg.target,
            total_completed: total,
            bad: total_bad,
            good_fraction: if total > 0 {
                1.0 - total_bad as f64 / total as f64
            } else {
                1.0
            },
            error_budget,
            budget_consumed_pct: if error_budget > 0.0 {
                total_bad as f64 / error_budget * 100.0
            } else {
                0.0
            },
            overall_burn_rate: burn(total, total_bad),
            short_window_s: SHORT_WINDOW_S,
            long_window_s: LONG_WINDOW_S,
            alert_burn_rate: ALERT_BURN_RATE,
            worst_short_burn: worst_short,
            worst_long_burn: worst_long,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, RegistryConfig};

    fn registry_with(misses: &[(f64, bool)]) -> MetricsRegistry {
        let mut r = MetricsRegistry::new(RegistryConfig {
            latency_objective_s: 0.1,
        });
        for (i, &(latency_s, deadline_met)) in misses.iter().enumerate() {
            r.observe(&Event::new(
                i as f64 * 0.5,
                EventKind::RequestCompleted {
                    id: i as u64,
                    latency_s,
                    deadline_met,
                },
            ));
        }
        r
    }

    #[test]
    fn healthy_run_has_no_alerts_and_low_burn() {
        let r = registry_with(&[(0.01, true); 40]);
        let report = SloEngine::new(SloConfig::default()).evaluate(&r);
        assert_eq!(report.total_completed, 40);
        assert_eq!(report.bad, 0);
        assert_eq!(report.overall_burn_rate, 0.0);
        assert!(report.alerts.is_empty());
        assert_eq!(report.good_fraction, 1.0);
    }

    #[test]
    fn sustained_misses_fire_one_edge_triggered_alert() {
        // Every completion misses: burn = 1 / 0.03 ≈ 33 on both windows.
        let r = registry_with(&[(0.5, false); 40]);
        let report = SloEngine::new(SloConfig::default()).evaluate(&r);
        assert_eq!(report.bad, 40);
        assert!(report.overall_burn_rate > 30.0);
        assert!(report.budget_consumed_pct > 100.0);
        assert_eq!(report.alerts.len(), 1, "edge-triggered, not re-fired");
        match &report.alerts[0].kind {
            EventKind::SloBurnAlert {
                short_burn,
                long_burn,
                ..
            } => {
                assert!(*short_burn >= 2.0);
                assert!(*long_burn >= 2.0);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn latency_objective_counts_slow_completions() {
        // Deadlines met, but half the completions exceed the 0.1 s latency
        // objective.
        let outcomes: Vec<(f64, bool)> = (0..20)
            .map(|i| (if i % 2 == 0 { 0.2 } else { 0.01 }, true))
            .collect();
        let r = registry_with(&outcomes);
        let cfg = SloConfig {
            objective: Objective::Latency,
            ..SloConfig::default()
        };
        let report = SloEngine::new(cfg).evaluate(&r);
        assert_eq!(report.objective, "latency");
        assert_eq!(report.bad, 10);
        let deadline_view = SloEngine::new(SloConfig::default()).evaluate(&r);
        assert_eq!(deadline_view.bad, 0);
    }

    #[test]
    fn objective_labels_round_trip() {
        for o in [Objective::Deadline, Objective::Latency] {
            assert_eq!(Objective::from_label(o.label()), Some(o));
        }
        assert_eq!(Objective::from_label("nope"), None);
    }
}
