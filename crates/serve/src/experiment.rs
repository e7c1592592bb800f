//! Multi-run serving experiments.
//!
//! The request-level counterpart of `adaflow_edge::Experiment`: sweeps the
//! serving engine over [`Seeds`] (order-preserving sharding, so the mean is
//! bit-identical for any worker count) and averages the summaries.

use crate::config::ServeConfig;
use crate::engine::ServeEngine;
use crate::summary::ServeSummary;
use adaflow::{Library, RuntimeConfig};
use adaflow_edge::{
    AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, Seeds, ServePolicy, WorkloadSpec,
};

/// A repeated, seeded serving experiment over one library and workload.
#[derive(Debug, Clone)]
pub struct ServeExperiment<'l> {
    library: &'l Library,
    workload: WorkloadSpec,
    config: ServeConfig,
    seeds: Seeds,
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
            seeds: Seeds::new(1, 100),
        }
    }

    /// Sets the number of seeded repetitions.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.seeds = Seeds {
            threads: self.seeds.threads,
            ..Seeds::new(self.seeds.first, runs)
        };
        self
    }

    /// Sets the base seed (run `i` uses `seed + i`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.first = seed;
        self
    }

    /// Sets the worker-thread count for sharding runs (`0` = one per
    /// core). Results are identical for any value — sharding preserves
    /// order.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.seeds.threads = threads;
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
        let engine = ServeEngine::new(self.config.clone());
        let all = self.seeds.map(|seed| {
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
        let spec = WorkloadSpec::paper_edge(Scenario::Stable);
        let engine = ServeEngine::new(ServeConfig::default());
        let mean = |threads| {
            let seeds = Seeds {
                threads,
                ..Seeds::new(1, 4)
            };
            let all = seeds.map(|seed| engine.run(&spec, seed, &mut FixedMaxPolicy::new(&lib)));
            ServeSummary::mean(&all).expect("four runs")
        };
        let serial = mean(1);
        let two = mean(2);
        // The experiment's own sweep, on one worker per core.
        let auto = ServeExperiment::new(&lib, spec.clone())
            .runs(4)
            .run_fixed_max();
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
