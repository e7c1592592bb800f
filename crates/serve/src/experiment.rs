//! Multi-run serving experiments.
//!
//! The request-level counterpart of `adaflow_edge::Experiment`: runs seeded
//! serving simulations in parallel (order-preserving sharding, so the mean
//! is bit-identical for any worker count) and averages the summaries.

use crate::config::ServeConfig;
use crate::engine::ServeEngine;
use crate::summary::ServeSummary;
use adaflow::{Library, RuntimeConfig};
use adaflow_edge::{
    AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, ServePolicy, WorkloadSpec,
};
use adaflow_telemetry::SinkHandle;

/// A repeated, seeded serving experiment over one library and workload.
#[derive(Debug, Clone)]
pub struct ServeExperiment<'l> {
    library: &'l Library,
    workload: WorkloadSpec,
    config: ServeConfig,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl<'l> ServeExperiment<'l> {
    /// Creates an experiment with the paper's defaults: 100 runs, seed 1,
    /// default serving configuration, one worker per core.
    #[must_use]
    pub fn new(library: &'l Library, workload: WorkloadSpec) -> Self {
        Self {
            library,
            workload,
            config: ServeConfig::default(),
            runs: 100,
            base_seed: 1,
            threads: 0,
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

    /// Sets the worker-thread count for sharding runs (`0` = one per
    /// core). Results are identical for any value — sharding preserves
    /// order.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the serving configuration.
    #[must_use]
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the experiment with a policy factory (one fresh policy per
    /// run) and returns the averaged summary.
    pub fn run_with<F>(&self, make_policy: F) -> ServeSummary
    where
        F: Fn() -> Box<dyn ServePolicy + 'l> + Sync,
    {
        let seeds: Vec<u64> = (0..self.runs as u64).map(|i| self.base_seed + i).collect();
        let engine = ServeEngine::new(self.config.clone());
        let all = adaflow_nn::parallel::par_map(&seeds, self.threads, |&seed| {
            let mut policy = make_policy();
            engine.run(&self.workload, seed, policy.as_mut())
        });
        ServeSummary::mean(&all).expect("at least one run")
    }

    /// Averaged summary of the request-level AdaFlow policy (deadline-aware
    /// reconfiguration guard enabled with the experiment's deadline).
    #[must_use]
    pub fn run_adaflow(&self, config: RuntimeConfig) -> ServeSummary {
        let library = self.library;
        let deadline_s = self.config.deadline_s;
        self.run_with(move || {
            Box::new(AdaFlowServePolicy::new(library, config.clone()).with_deadline(deadline_s))
        })
    }

    /// Averaged summary of the static fixed-max baseline.
    #[must_use]
    pub fn run_fixed_max(&self) -> ServeSummary {
        let library = self.library;
        self.run_with(move || Box::new(FixedMaxPolicy::new(library)))
    }

    /// Averaged summary of the flexible-only policy.
    #[must_use]
    pub fn run_flexible_only(&self, config: RuntimeConfig) -> ServeSummary {
        let library = self.library;
        self.run_with(move || Box::new(FlexibleOnlyPolicy::new(library, config.clone())))
    }

    /// One traced run: a single seed with a telemetry sink attached, for
    /// the CLI's trace exports.
    pub fn run_traced<F>(&self, seed: u64, sink: SinkHandle, make_policy: F) -> ServeSummary
    where
        F: FnOnce() -> Box<dyn ServePolicy + 'l>,
    {
        let engine = ServeEngine::new(self.config.clone()).with_sink(sink);
        let mut policy = make_policy();
        engine.run(&self.workload, seed, policy.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow::LibraryGenerator;
    use adaflow_edge::{Experiment, Scenario};
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
    fn mean_is_identical_for_any_thread_count() {
        let lib = library();
        let exp = ServeExperiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Stable)).runs(4);
        let serial = exp.clone().threads(1).run_fixed_max();
        let two = exp.clone().threads(2).run_fixed_max();
        let auto = exp.threads(0).run_fixed_max();
        assert_eq!(serial, two);
        assert_eq!(serial, auto);
    }

    #[test]
    fn adaflow_serves_scenario_1_well() {
        let lib = library();
        let exp = ServeExperiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Stable)).runs(3);
        let s = exp.run_adaflow(RuntimeConfig::default());
        assert!(s.conservation_holds());
        assert!(
            s.deadline_hit_pct > 90.0,
            "scenario 1 hit {}",
            s.deadline_hit_pct
        );
    }

    /// The DES and the fluid simulator count flexible switches by one
    /// rule: a fixed-accelerator switch that costs no reconfiguration
    /// (Pruning-Reconf at 0 ms) is a switch, but not a flexible one.
    #[test]
    fn zero_ms_reconf_switches_are_not_flexible() {
        use adaflow_edge::PruningReconfPolicy;
        use std::time::Duration;

        let lib = library();
        let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
        let s = ServeExperiment::new(&lib, spec.clone())
            .runs(1)
            .run_with(|| Box::new(PruningReconfPolicy::new(&lib, Duration::ZERO)));
        assert!(s.conservation_holds());
        assert!(s.model_switches > 0.0, "scenario 2 must switch");
        assert_eq!(s.reconfigurations, 0.0);
        assert_eq!(s.flexible_switches, 0.0);
        let fluid = Experiment::new(&lib, spec)
            .runs(1)
            .run_pruning_reconf(Duration::ZERO);
        assert!(fluid.model_switches > 0.0);
        assert_eq!(fluid.flexible_switches, 0.0);
    }
}
