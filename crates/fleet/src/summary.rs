//! Fleet run summaries.

use serde::{Deserialize, Serialize};

/// Per-device slice of a fleet run. Counts are `f64` so multi-seed means
/// stay exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// Serving-policy kind of the device, as `PolicyKind::name` spells it
    /// (`adaflow`, `fixed-max`, `flexible-only`, `reconf:<ms>`).
    pub kind: String,
    /// Requests routed to this device.
    pub arrived: f64,
    /// Requests served to completion.
    pub completed: f64,
    /// Requests shed by this device's admission control.
    pub shed: f64,
    /// Deadline hits as a percentage of requests routed here.
    pub deadline_hit_pct: f64,
    /// Busy time over the fleet horizon, percent.
    pub utilization_pct: f64,
    /// Full FPGA reconfigurations on this device.
    pub reconfigurations: f64,
    /// Total switch stall charged on this device, seconds.
    pub stall_total_s: f64,
}

/// Aggregate outcome of one fleet run (or a multi-seed mean).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Router display name.
    pub router: String,
    /// Fleet size, devices.
    pub devices: f64,
    /// Requests offered to the fleet.
    pub arrived: f64,
    /// Requests served to completion.
    pub completed: f64,
    /// Requests shed across all devices.
    pub shed: f64,
    /// Completed requests that met the deadline.
    pub deadline_hits: f64,
    /// Deadline hits as a percentage of *arrived* (sheds count as
    /// misses).
    pub deadline_hit_pct: f64,
    /// Sheds as a percentage of arrived.
    pub shed_pct: f64,
    /// Mean end-to-end latency of completed requests, seconds.
    pub latency_mean_s: f64,
    /// Latency percentiles over the whole fleet, seconds.
    pub latency_p50_s: f64,
    /// 95th percentile fleet latency, seconds.
    pub latency_p95_s: f64,
    /// 99th percentile fleet latency, seconds.
    pub latency_p99_s: f64,
    /// Mean time completed requests spent in an admission queue, seconds.
    pub queue_wait_mean_s: f64,
    /// Mean time between batch close and service start (stall plus
    /// coordinator deferral), seconds.
    pub batch_wait_mean_s: f64,
    /// Mean reconfiguration-stall share of `batch_wait_mean_s`, seconds.
    pub stall_mean_s: f64,
    /// Mean in-batch service time, seconds.
    pub service_mean_s: f64,
    /// Batches closed across the fleet.
    pub batches: f64,
    /// Mean closed-batch size, requests.
    pub mean_batch_size: f64,
    /// CNN model switches across the fleet (any kind).
    pub model_switches: f64,
    /// Weight-reload switches on flexible fabrics.
    pub flexible_switches: f64,
    /// Full FPGA reconfigurations across the fleet.
    pub reconfigurations: f64,
    /// Total switch stall across the fleet, seconds.
    pub stall_total_s: f64,
    /// Mean of the sampled queue-depth imbalance coefficient (coefficient
    /// of variation; 0 = perfectly balanced).
    pub imbalance_cv_mean: f64,
    /// Worst sampled queue-depth imbalance coefficient.
    pub imbalance_cv_max: f64,
    /// Coefficient of variation of the per-device routed-request shares —
    /// the end-of-run answer to "did the router spread the traffic".
    pub routed_share_cv: f64,
    /// Most devices observed draining for a switch stall (full
    /// reconfiguration or weight reload) at the same instant.
    pub observed_max_drains: f64,
    /// Simulation horizon (last event), seconds.
    pub horizon_s: f64,
    /// Per-device breakdown, fleet index order.
    pub per_device: Vec<DeviceSummary>,
}

impl FleetSummary {
    /// Whether fleet-level request conservation holds: everything offered
    /// was either completed or shed, and the per-device slices tile the
    /// totals exactly.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        let per_arrived: f64 = self.per_device.iter().map(|d| d.arrived).sum();
        let per_completed: f64 = self.per_device.iter().map(|d| d.completed).sum();
        let per_shed: f64 = self.per_device.iter().map(|d| d.shed).sum();
        (self.arrived - (self.completed + self.shed)).abs() < 1e-6
            && (per_arrived - self.arrived).abs() < 1e-6
            && (per_completed - self.completed).abs() < 1e-6
            && (per_shed - self.shed).abs() < 1e-6
    }

    /// Element-wise mean over runs of the same fleet shape. Returns
    /// `None` on an empty slice; panics if shapes differ (different
    /// device counts cannot be averaged).
    #[must_use]
    pub fn mean(runs: &[FleetSummary]) -> Option<FleetSummary> {
        let first = runs.first()?;
        let n = runs.len() as f64;
        for r in runs {
            assert_eq!(
                r.per_device.len(),
                first.per_device.len(),
                "cannot average different fleet shapes"
            );
        }
        let avg = |f: fn(&FleetSummary) -> f64| runs.iter().map(f).sum::<f64>() / n;
        let avg_dev = |i: usize, f: fn(&DeviceSummary) -> f64| {
            runs.iter().map(|r| f(&r.per_device[i])).sum::<f64>() / n
        };
        Some(FleetSummary {
            router: first.router.clone(),
            devices: first.devices,
            arrived: avg(|s| s.arrived),
            completed: avg(|s| s.completed),
            shed: avg(|s| s.shed),
            deadline_hits: avg(|s| s.deadline_hits),
            deadline_hit_pct: avg(|s| s.deadline_hit_pct),
            shed_pct: avg(|s| s.shed_pct),
            latency_mean_s: avg(|s| s.latency_mean_s),
            latency_p50_s: avg(|s| s.latency_p50_s),
            latency_p95_s: avg(|s| s.latency_p95_s),
            latency_p99_s: avg(|s| s.latency_p99_s),
            queue_wait_mean_s: avg(|s| s.queue_wait_mean_s),
            batch_wait_mean_s: avg(|s| s.batch_wait_mean_s),
            stall_mean_s: avg(|s| s.stall_mean_s),
            service_mean_s: avg(|s| s.service_mean_s),
            batches: avg(|s| s.batches),
            mean_batch_size: avg(|s| s.mean_batch_size),
            model_switches: avg(|s| s.model_switches),
            flexible_switches: avg(|s| s.flexible_switches),
            reconfigurations: avg(|s| s.reconfigurations),
            stall_total_s: avg(|s| s.stall_total_s),
            imbalance_cv_mean: avg(|s| s.imbalance_cv_mean),
            imbalance_cv_max: avg(|s| s.imbalance_cv_max),
            routed_share_cv: avg(|s| s.routed_share_cv),
            observed_max_drains: avg(|s| s.observed_max_drains),
            horizon_s: avg(|s| s.horizon_s),
            per_device: (0..first.per_device.len())
                .map(|i| DeviceSummary {
                    kind: first.per_device[i].kind.clone(),
                    arrived: avg_dev(i, |d| d.arrived),
                    completed: avg_dev(i, |d| d.completed),
                    shed: avg_dev(i, |d| d.shed),
                    deadline_hit_pct: avg_dev(i, |d| d.deadline_hit_pct),
                    utilization_pct: avg_dev(i, |d| d.utilization_pct),
                    reconfigurations: avg_dev(i, |d| d.reconfigurations),
                    stall_total_s: avg_dev(i, |d| d.stall_total_s),
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(hit_pct: f64) -> FleetSummary {
        FleetSummary {
            router: "deadline-aware".into(),
            devices: 2.0,
            arrived: 100.0,
            completed: 90.0,
            shed: 10.0,
            deadline_hits: 80.0,
            deadline_hit_pct: hit_pct,
            shed_pct: 10.0,
            latency_mean_s: 0.05,
            latency_p50_s: 0.04,
            latency_p95_s: 0.1,
            latency_p99_s: 0.2,
            queue_wait_mean_s: 0.02,
            batch_wait_mean_s: 0.01,
            stall_mean_s: 0.004,
            service_mean_s: 0.02,
            batches: 20.0,
            mean_batch_size: 4.5,
            model_switches: 3.0,
            flexible_switches: 2.0,
            reconfigurations: 1.0,
            stall_total_s: 0.145,
            imbalance_cv_mean: 0.2,
            imbalance_cv_max: 0.5,
            routed_share_cv: 0.1,
            observed_max_drains: 1.0,
            horizon_s: 25.0,
            per_device: vec![
                DeviceSummary {
                    kind: "adaflow".into(),
                    arrived: 60.0,
                    completed: 55.0,
                    shed: 5.0,
                    deadline_hit_pct: 85.0,
                    utilization_pct: 40.0,
                    reconfigurations: 1.0,
                    stall_total_s: 0.145,
                },
                DeviceSummary {
                    kind: "fixed-max".into(),
                    arrived: 40.0,
                    completed: 35.0,
                    shed: 5.0,
                    deadline_hit_pct: 75.0,
                    utilization_pct: 30.0,
                    reconfigurations: 0.0,
                    stall_total_s: 0.0,
                },
            ],
        }
    }

    #[test]
    fn conservation_checks_per_device_tiling() {
        let mut s = sample(80.0);
        assert!(s.conservation_holds());
        s.per_device[0].arrived += 1.0;
        assert!(!s.conservation_holds(), "tiling violation detected");
    }

    #[test]
    fn mean_averages_fleet_and_devices() {
        let m = FleetSummary::mean(&[sample(80.0), sample(90.0)]).expect("non-empty");
        assert!((m.deadline_hit_pct - 85.0).abs() < 1e-12);
        assert_eq!(m.per_device.len(), 2);
        assert_eq!(m.per_device[0].kind, "adaflow");
        assert!(m.conservation_holds());
        assert!(FleetSummary::mean(&[]).is_none());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = sample(80.0);
        let text = serde_json::to_string(&s).expect("serializes");
        let back: FleetSummary = serde_json::from_str(&text).expect("parses");
        assert_eq!(s, back);
    }
}
