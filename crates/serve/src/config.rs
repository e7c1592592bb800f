//! Serving configuration and its static validation rules.
//!
//! [`ServeConfig`] bundles every knob of the serving layer. Its
//! [`validate`](ServeConfig::validate) method reuses the
//! `adaflow-verify` diagnostics engine, contributing two serving-level
//! rules to the workspace lint catalog:
//!
//! | code | checks |
//! |-------|--------|
//! | SV001 | the batcher can close a batch, and its max-wait fits inside the deadline budget |
//! | SV002 | queue capacity covers the worst-case reconfiguration backlog |
//!
//! Like the graph rules, both run through [`LintConfig`] allow/deny policy,
//! so `--deny SV002` escalates an under-provisioned queue to a hard error
//! in CI.

use crate::queue::OverflowPolicy;
use adaflow_verify::{Diagnostics, LintConfig, Report, Severity};
use serde::{Deserialize, Serialize};

/// Full configuration of the request-level serving layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Per-request end-to-end deadline budget, seconds.
    pub deadline_s: f64,
    /// Admission queue capacity, requests.
    pub queue_capacity: usize,
    /// Dynamic batcher: close the batch at this size.
    pub max_batch: usize,
    /// Dynamic batcher: close the batch once the oldest member has waited
    /// this long, seconds.
    pub max_wait_s: f64,
    /// What to do with arrivals when the queue is full.
    pub overflow: OverflowPolicy,
    /// Minimum interval between Runtime Manager consultations, seconds.
    pub control_period_s: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            deadline_s: 0.25,
            queue_capacity: 256,
            max_batch: 16,
            max_wait_s: 0.02,
            overflow: OverflowPolicy::Block,
            control_period_s: 0.25,
        }
    }
}

impl ServeConfig {
    /// Statically validates the configuration against the serving context:
    /// `nominal_fps` is the workload's nominal offered rate and
    /// `worst_stall_s` the longest service suspension a policy can cause
    /// (full reconfiguration for AdaFlow, weight reload for
    /// flexible-only, zero for the static baseline).
    ///
    /// Findings are reported through the workspace diagnostics engine under
    /// the `SV` rule family.
    #[must_use]
    pub fn validate(&self, nominal_fps: f64, worst_stall_s: f64, lint: LintConfig) -> Report {
        let mut diags = Diagnostics::with_config(lint);
        self.check_sv001(&mut diags);
        self.check_sv002(nominal_fps, worst_stall_s, &mut diags);
        diags.into_report("serve-config")
    }

    /// SV001: the batcher must be able to close a batch (`max_batch ≥ 1`),
    /// and the batch max-wait must leave service time inside the
    /// deadline. A max-wait above the whole budget guarantees misses for
    /// any batch closed by the timer; above half the budget it crowds out
    /// stall and service time.
    fn check_sv001(&self, diags: &mut Diagnostics) {
        if self.max_batch == 0 {
            diags.report(
                "SV001",
                Severity::Error,
                None,
                "batch size 0: the batcher can never close a batch, so no request is ever served",
                Some("set --batch to at least 1".into()),
            );
        }
        let budget = self.deadline_s;
        if self.max_wait_s > budget {
            diags.report(
                "SV001",
                Severity::Error,
                None,
                format!(
                    "batch max-wait {:.0} ms exceeds the {:.0} ms deadline budget: \
                     every timer-closed batch misses before service starts",
                    self.max_wait_s * 1e3,
                    budget * 1e3
                ),
                Some(format!(
                    "lower --batch-wait-ms below {:.0} or raise --deadline-ms",
                    budget * 1e3
                )),
            );
        } else if self.max_wait_s > 0.5 * budget {
            diags.report(
                "SV001",
                Severity::Warn,
                None,
                format!(
                    "batch max-wait {:.0} ms consumes over half the {:.0} ms deadline budget, \
                     leaving little room for stalls and service",
                    self.max_wait_s * 1e3,
                    budget * 1e3
                ),
                Some("aim for max-wait ≤ 20 % of the deadline".into()),
            );
        } else {
            diags.report(
                "SV001",
                Severity::Info,
                None,
                format!(
                    "batch max-wait {:.0} ms leaves {:.0} ms of the deadline for service",
                    self.max_wait_s * 1e3,
                    (budget - self.max_wait_s) * 1e3
                ),
                None,
            );
        }
    }

    /// SV002: during the worst-case reconfiguration stall the queue absorbs
    /// `nominal_fps × stall` requests; a smaller capacity sheds on every
    /// switch.
    fn check_sv002(&self, nominal_fps: f64, worst_stall_s: f64, diags: &mut Diagnostics) {
        let backlog = nominal_fps * worst_stall_s;
        let capacity = self.queue_capacity as f64;
        if capacity < backlog {
            diags.report(
                "SV002",
                Severity::Warn,
                None,
                format!(
                    "queue capacity {} cannot absorb the worst-case reconfiguration backlog \
                     of {backlog:.0} requests ({nominal_fps:.0} FPS × {:.0} ms stall): \
                     every switch will shed",
                    self.queue_capacity,
                    worst_stall_s * 1e3
                ),
                Some(format!("raise --queue-cap to at least {}", backlog.ceil())),
            );
        } else {
            diags.report(
                "SV002",
                Severity::Info,
                None,
                format!(
                    "queue capacity {} covers the worst-case reconfiguration backlog \
                     of {backlog:.0} requests with {:.0} to spare",
                    self.queue_capacity,
                    capacity - backlog
                ),
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_clean() {
        let report = ServeConfig::default().validate(600.0, 0.145, LintConfig::default());
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warn), 0);
        assert!(report.fired("SV001"));
        assert!(report.fired("SV002"));
    }

    #[test]
    fn sv001_fires_when_wait_exceeds_deadline() {
        let config = ServeConfig {
            max_wait_s: 0.3,
            deadline_s: 0.25,
            ..ServeConfig::default()
        };
        let report = config.validate(600.0, 0.145, LintConfig::default());
        assert!(report.has_errors());
        assert!(report.fired("SV001"));
    }

    #[test]
    fn sv001_refuses_a_zero_batch() {
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let report = config.validate(600.0, 0.145, LintConfig::default());
        assert!(report.has_errors());
        assert!(report.to_string().contains("batch size 0"), "{report}");
    }

    #[test]
    fn sv001_suggestion_names_the_real_flag() {
        let config = ServeConfig {
            max_wait_s: 0.3,
            ..ServeConfig::default()
        };
        let text = config
            .validate(600.0, 0.145, LintConfig::default())
            .to_string();
        assert!(text.contains("--batch-wait-ms"), "{text}");
    }

    #[test]
    fn sv001_warns_when_wait_crowds_budget() {
        let config = ServeConfig {
            max_wait_s: 0.15,
            deadline_s: 0.25,
            ..ServeConfig::default()
        };
        let report = config.validate(600.0, 0.145, LintConfig::default());
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warn), 1);
    }

    #[test]
    fn sv002_warns_on_undersized_queue() {
        let config = ServeConfig {
            queue_capacity: 32,
            ..ServeConfig::default()
        };
        let report = config.validate(600.0, 0.145, LintConfig::default());
        // 600 × 0.145 = 87 > 32.
        assert_eq!(report.count(Severity::Warn), 1);
        assert!(report.fired("SV002"));
    }

    #[test]
    fn deny_escalates_sv002_to_error() {
        let config = ServeConfig {
            queue_capacity: 32,
            ..ServeConfig::default()
        };
        let lint = LintConfig {
            deny: LintConfig::parse_codes("SV002"),
            ..LintConfig::default()
        };
        let report = config.validate(600.0, 0.145, lint);
        assert!(report.has_errors());
    }
}
