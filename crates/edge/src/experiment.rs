//! Multi-run experiment driver.
//!
//! The paper executes every evaluation 100 times and reports the average.
//! [`Experiment`] runs seeded workload realizations in parallel (one thread
//! per core via `std::thread::scope`) and averages the metrics.

use crate::metrics::{RunMetrics, TracePoint};
use crate::policy::{AdaFlowServePolicy, FixedMaxPolicy, PruningReconfPolicy, ServePolicy};
use crate::sim::{EdgeSim, SimConfig};
use crate::workload::WorkloadSpec;
use adaflow::{Library, RuntimeConfig};
use std::time::Duration;

/// A repeated, seeded serving experiment over one library and workload.
#[derive(Debug, Clone)]
pub struct Experiment<'l> {
    library: &'l Library,
    workload: WorkloadSpec,
    runs: usize,
    base_seed: u64,
    sim: SimConfig,
}

impl<'l> Experiment<'l> {
    /// Creates an experiment with the paper's defaults: 100 runs, seed 1.
    #[must_use]
    pub fn new(library: &'l Library, workload: WorkloadSpec) -> Self {
        Self {
            library,
            workload,
            runs: 100,
            base_seed: 1,
            sim: SimConfig::default(),
        }
    }

    /// Sets the number of seeded repetitions.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Sets the base seed (run `i` uses `base_seed + i`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Runs the experiment with a policy factory (one fresh policy per run)
    /// and returns the averaged metrics.
    ///
    /// Runs are sharded over scoped worker threads (one per available core)
    /// through the order-preserving [`adaflow_nn::parallel`] helper, so the
    /// averaged metrics are identical to a serial sweep over the seeds.
    pub fn run_with<F>(&self, make_policy: F) -> RunMetrics
    where
        F: Fn() -> Box<dyn ServePolicy + 'l> + Sync,
    {
        let seeds: Vec<u64> = (0..self.runs as u64).map(|i| self.base_seed + i).collect();
        let all = adaflow_nn::parallel::par_map(&seeds, 0, |&seed| {
            let segments = self.workload.generate(seed);
            let mut policy = make_policy();
            let sim = EdgeSim::new(self.sim.clone());
            sim.run(policy.as_mut(), &segments).0
        });
        RunMetrics::mean(&all).expect("at least one run")
    }

    /// Averaged metrics of the AdaFlow policy (no deadline guard: every
    /// manager decision applies at once).
    #[must_use]
    pub fn run_adaflow(&self, config: RuntimeConfig) -> RunMetrics {
        let library = self.library;
        self.run_with(move || Box::new(AdaFlowServePolicy::new(library, config.clone())))
    }

    /// Averaged metrics of the original FINN baseline ([`FixedMaxPolicy`]).
    #[must_use]
    pub fn run_original_finn(&self) -> RunMetrics {
        let library = self.library;
        self.run_with(move || Box::new(FixedMaxPolicy::new(library)))
    }

    /// Averaged metrics of the Pruning-Reconf policy at a reconfiguration
    /// time (the Fig. 1(b) sweep).
    #[must_use]
    pub fn run_pruning_reconf(&self, reconfiguration_time: Duration) -> RunMetrics {
        let library = self.library;
        self.run_with(move || Box::new(PruningReconfPolicy::new(library, reconfiguration_time)))
    }

    /// A single traced run (for the Fig. 1(b)/Fig. 6 time-series curves).
    pub fn trace_with<F>(&self, seed: u64, make_policy: F) -> (RunMetrics, Vec<TracePoint>)
    where
        F: FnOnce() -> Box<dyn ServePolicy + 'l>,
    {
        let segments = self.workload.generate(seed);
        let mut policy = make_policy();
        let sim = EdgeSim::new(SimConfig {
            record_trace: true,
            ..self.sim.clone()
        });
        sim.run(policy.as_mut(), &segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scenario;
    use adaflow::LibraryGenerator;
    use adaflow_model::prelude::*;
    use adaflow_nn::DatasetKind;

    fn library() -> Library {
        LibraryGenerator::default_edge_setup()
            .generate(
                &topology::cnv_w2a2_cifar10().expect("builds"),
                DatasetKind::Cifar10,
            )
            .expect("generates")
    }

    #[test]
    fn adaflow_beats_finn_in_scenario_1() {
        let lib = library();
        let exp = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Stable)).runs(10);
        let ada = exp.run_adaflow(RuntimeConfig::default());
        let finn = exp.run_original_finn();
        // Table I shape: lower frame loss, higher QoE, better efficiency.
        assert!(ada.frame_loss_pct < finn.frame_loss_pct - 5.0);
        assert!(ada.qoe_pct > finn.qoe_pct);
        assert!(ada.inferences_per_joule > finn.inferences_per_joule);
        // FINN around its analytic loss: (600 - 443)/600 with deviations.
        assert!(
            (15.0..35.0).contains(&finn.frame_loss_pct),
            "finn loss {}",
            finn.frame_loss_pct
        );
        // AdaFlow scenario 1: near-zero loss (paper reports 0).
        assert!(
            ada.frame_loss_pct < 3.0,
            "adaflow loss {}",
            ada.frame_loss_pct
        );
    }

    #[test]
    fn adaflow_uses_flexible_in_scenario_2() {
        let lib = library();
        let exp = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Unpredictable)).runs(10);
        let ada = exp.run_adaflow(RuntimeConfig::default());
        // Rapid switching: flexible fast switches dominate reconfigurations.
        assert!(ada.flexible_switches > ada.reconfigurations);
        assert!(ada.model_switches > 5.0);
    }

    #[test]
    fn results_are_deterministic_in_seed() {
        let lib = library();
        let exp = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Stable)).runs(4);
        let a = exp.run_adaflow(RuntimeConfig::default());
        let b = exp.run_adaflow(RuntimeConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_base_seeds_change_results() {
        let lib = library();
        let exp = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Unpredictable));
        let a = exp.clone().runs(3).seed(1).run_original_finn();
        let b = exp.runs(3).seed(1000).run_original_finn();
        assert_ne!(a.frame_loss_pct, b.frame_loss_pct);
    }

    #[test]
    #[should_panic(expected = "need at least one run")]
    fn zero_runs_rejected() {
        let lib = library();
        let _ = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Stable)).runs(0);
    }

    #[test]
    fn trace_covers_whole_run() {
        let lib = library();
        let exp = Experiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Shifting));
        let config = RuntimeConfig::default();
        let lib_ref = &lib;
        let (_, trace) = exp.trace_with(1, move || {
            Box::new(AdaFlowServePolicy::new(lib_ref, config))
        });
        assert!(!trace.is_empty());
        let last_t = trace.last().expect("nonempty").t_s;
        assert!((last_t - 25.0).abs() < 0.02, "trace ends at {last_t}");
    }
}
