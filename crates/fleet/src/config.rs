//! Fleet composition, router selection and the FL lint rules.
//!
//! [`FleetConfig`] declares a heterogeneous fleet — how many simulated
//! accelerator devices, which serving policy each runs, which router
//! dispatches requests and how many devices the reconfiguration
//! coordinator lets drain at once. Its [`validate`](FleetConfig::validate)
//! method contributes two fleet-level rules to the workspace lint catalog:
//!
//! | code | checks |
//! |-------|--------|
//! | FL001 | the fleet has at least one device (and a usable drain budget) |
//! | FL002 | the router matches the deadline discipline it is asked to serve |
//!
//! Both run through the `adaflow-verify` [`LintConfig`] allow/deny policy,
//! like the graph (`AF`/`DF`/`HL`) and serving (`SV`) families.

use adaflow_serve::ServeConfig;
use adaflow_verify::{Diagnostics, LintConfig, Report, Severity};
use serde::{Deserialize, Serialize};

/// The serving policy one fleet device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceKind {
    /// The full AdaFlow Runtime Manager (fixed + flexible fabrics,
    /// deadline-aware reconfiguration guard).
    AdaFlow,
    /// The static FINN baseline: max-accuracy model, never switches.
    FixedMax,
    /// Pinned to the flexible fabric: switches are weight reloads.
    FlexibleOnly,
}

impl DeviceKind {
    /// Parses the CLI spelling (`adaflow`, `fixed`, `flexible`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "adaflow" => Some(DeviceKind::AdaFlow),
            "fixed" | "fixed-max" => Some(DeviceKind::FixedMax),
            "flexible" | "flexible-only" => Some(DeviceKind::FlexibleOnly),
            _ => None,
        }
    }

    /// Parses a comma-separated fleet spelling (`adaflow,adaflow,fixed`).
    /// Returns `None` on the first unknown kind.
    #[must_use]
    pub fn parse_fleet(list: &str) -> Option<Vec<Self>> {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect()
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::AdaFlow => "adaflow",
            DeviceKind::FixedMax => "fixed-max",
            DeviceKind::FlexibleOnly => "flexible-only",
        }
    }
}

/// Which routing policy dispatches arrivals across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// Cycle through devices in index order, load-blind.
    RoundRobin,
    /// Join the shortest queue (queued + in-flight), ties to the lowest
    /// index.
    LeastLoaded,
    /// Power of two choices: sample two distinct devices uniformly, join
    /// the less loaded.
    PowerOfTwo,
    /// Rank devices by estimated completion time of the new request —
    /// accounting the in-flight batch (including any reconfiguration
    /// stall it absorbed) plus the queued backlog drained at the device's
    /// live throughput.
    DeadlineAware,
}

impl RouterKind {
    /// Parses the CLI spelling (`rr`, `jsq`, `p2c`, `deadline`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "rr" | "round-robin" => Some(RouterKind::RoundRobin),
            "jsq" | "least-loaded" => Some(RouterKind::LeastLoaded),
            "p2c" | "power-of-two" => Some(RouterKind::PowerOfTwo),
            "deadline" | "deadline-aware" => Some(RouterKind::DeadlineAware),
            _ => None,
        }
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastLoaded => "least-loaded",
            RouterKind::PowerOfTwo => "power-of-two",
            RouterKind::DeadlineAware => "deadline-aware",
        }
    }

    /// Every router, in CLI presentation order.
    pub const ALL: [RouterKind; 4] = [
        RouterKind::RoundRobin,
        RouterKind::LeastLoaded,
        RouterKind::PowerOfTwo,
        RouterKind::DeadlineAware,
    ];
}

/// Full configuration of a fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The fleet composition: one serving policy per device, in index
    /// order.
    pub devices: Vec<DeviceKind>,
    /// The dispatch policy in front of the fleet.
    pub router: RouterKind,
    /// Per-device serving configuration (queue, batcher, deadline).
    pub serve: ServeConfig,
    /// Stagger budget: at most this many devices may be draining for a
    /// switch at the same time.
    pub max_concurrent_drains: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: vec![
                DeviceKind::AdaFlow,
                DeviceKind::AdaFlow,
                DeviceKind::FlexibleOnly,
                DeviceKind::FixedMax,
            ],
            router: RouterKind::DeadlineAware,
            serve: ServeConfig::default(),
            max_concurrent_drains: 1,
        }
    }
}

impl FleetConfig {
    /// A homogeneous fleet of `n` devices of one kind.
    #[must_use]
    pub fn homogeneous(n: usize, kind: DeviceKind) -> Self {
        Self {
            devices: vec![kind; n],
            ..Self::default()
        }
    }

    /// Statically validates the fleet shape under the workspace
    /// diagnostics engine (`FL` rule family).
    #[must_use]
    pub fn validate(&self, lint: LintConfig) -> Report {
        let mut diags = Diagnostics::with_config(lint);
        self.check_fl001(&mut diags);
        self.check_fl002(&mut diags);
        diags.into_report("fleet-config")
    }

    /// FL001: a fleet must contain at least one device, and the stagger
    /// budget must allow at least one drain (a zero budget deadlocks every
    /// fabric switch forever).
    fn check_fl001(&self, diags: &mut Diagnostics) {
        if self.devices.is_empty() {
            diags.report(
                "FL001",
                Severity::Error,
                None,
                "fleet has zero devices: no request can ever be routed",
                Some("declare at least one device, e.g. --fleet adaflow".into()),
            );
        } else if self.max_concurrent_drains == 0 {
            diags.report(
                "FL001",
                Severity::Error,
                None,
                "stagger budget is zero: no device could ever drain for a switch, \
                 deadlocking every reconfiguration",
                Some("set --max-drains to at least 1".into()),
            );
        } else {
            diags.report(
                "FL001",
                Severity::Info,
                None,
                format!(
                    "fleet of {} device(s) with a stagger budget of {}",
                    self.devices.len(),
                    self.max_concurrent_drains
                ),
                None,
            );
        }
    }

    /// FL002: router/deadline mismatch. The deadline-aware router ranks
    /// devices by deadline slack, which does not exist without a positive
    /// deadline budget; conversely a deadline SLO dispatched round-robin
    /// ignores exactly the per-device drain/stall state that decides
    /// whether the SLO is met.
    fn check_fl002(&self, diags: &mut Diagnostics) {
        match self.router {
            RouterKind::DeadlineAware if self.serve.deadline_s <= 0.0 => {
                diags.report(
                    "FL002",
                    Severity::Error,
                    None,
                    "deadline-aware router configured without a positive deadline budget: \
                     there is no slack to rank devices by",
                    Some("set a deadline (e.g. --deadline-ms 250) or pick another router".into()),
                );
            }
            RouterKind::RoundRobin if self.serve.deadline_s > 0.0 => {
                diags.report(
                    "FL002",
                    Severity::Warn,
                    None,
                    format!(
                        "a {:.0} ms deadline SLO is dispatched round-robin, blind to \
                         per-device backlog and reconfiguration drains",
                        self.serve.deadline_s * 1e3
                    ),
                    Some("use --router deadline (or jsq/p2c) for deadline traffic".into()),
                );
            }
            _ => {
                diags.report(
                    "FL002",
                    Severity::Info,
                    None,
                    format!(
                        "router {} is consistent with a {:.0} ms deadline budget",
                        self.router.name(),
                        self.serve.deadline_s * 1e3
                    ),
                    None,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_clean() {
        let report = FleetConfig::default().validate(LintConfig::default());
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warn), 0);
        assert!(report.fired("FL001"));
        assert!(report.fired("FL002"));
    }

    #[test]
    fn fl001_rejects_zero_device_fleet() {
        let config = FleetConfig {
            devices: vec![],
            ..FleetConfig::default()
        };
        let report = config.validate(LintConfig::default());
        assert!(report.has_errors());
        assert!(report.fired("FL001"));
    }

    #[test]
    fn fl001_rejects_zero_drain_budget() {
        let config = FleetConfig {
            max_concurrent_drains: 0,
            ..FleetConfig::default()
        };
        assert!(config.validate(LintConfig::default()).has_errors());
    }

    #[test]
    fn fl002_rejects_deadline_router_without_budget() {
        let mut config = FleetConfig::default();
        config.serve.deadline_s = 0.0;
        let report = config.validate(LintConfig::default());
        assert!(report.has_errors());
        assert!(report.fired("FL002"));
    }

    #[test]
    fn fl002_warns_on_deadline_blind_round_robin() {
        let config = FleetConfig {
            router: RouterKind::RoundRobin,
            ..FleetConfig::default()
        };
        let report = config.validate(LintConfig::default());
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warn), 1);
    }

    #[test]
    fn allow_and_deny_policies_apply() {
        let config = FleetConfig {
            devices: vec![],
            ..FleetConfig::default()
        };
        let lint = LintConfig {
            allow: LintConfig::parse_codes("FL001"),
            ..LintConfig::default()
        };
        assert!(!config.validate(lint).has_errors(), "allowed code drops");

        let rr = FleetConfig {
            router: RouterKind::RoundRobin,
            ..FleetConfig::default()
        };
        let lint = LintConfig {
            deny: LintConfig::parse_codes("FL002"),
            ..LintConfig::default()
        };
        assert!(rr.validate(lint).has_errors(), "denied warn escalates");
    }

    #[test]
    fn spellings_round_trip() {
        for kind in [
            DeviceKind::AdaFlow,
            DeviceKind::FixedMax,
            DeviceKind::FlexibleOnly,
        ] {
            assert_eq!(DeviceKind::parse(kind.name()), Some(kind));
        }
        for router in RouterKind::ALL {
            assert_eq!(RouterKind::parse(router.name()), Some(router));
        }
        assert_eq!(
            DeviceKind::parse_fleet("adaflow, fixed,flexible"),
            Some(vec![
                DeviceKind::AdaFlow,
                DeviceKind::FixedMax,
                DeviceKind::FlexibleOnly
            ])
        );
        assert_eq!(DeviceKind::parse_fleet("adaflow,gpu"), None);
    }
}
