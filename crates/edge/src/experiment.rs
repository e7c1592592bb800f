//! Multi-run experiment driver.
//!
//! The paper executes every evaluation 100 times and reports the average.
//! [`Seeds`] is that method for every simulator: it runs one seeded
//! realization per seed, in parallel and in seed order. [`Experiment`]
//! sweeps the fluid edge server through it and averages the metrics;
//! `adaflow-serve` and `adaflow-fleet` sweep their engines the same way.

use crate::metrics::{RunMetrics, TracePoint};
use crate::policy::{AdaFlowServePolicy, FixedMaxPolicy, PruningReconfPolicy, ServePolicy};
use crate::sim::{EdgeSim, SimConfig};
use crate::workload::WorkloadSpec;
use adaflow::{Library, RuntimeConfig};
use std::time::Duration;

/// The seeds of a repeated experiment: run `i` uses seed `first + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The seed of the first run.
    pub first: u64,
    /// How many runs, at least one.
    pub runs: usize,
    /// Worker threads (`0` = one per core). Results are identical for any
    /// value: sharding preserves seed order.
    pub threads: usize,
}

impl Seeds {
    /// `runs` seeds from `first`, on one worker per core.
    ///
    /// # Panics
    ///
    /// When `runs` is 0.
    #[must_use]
    pub fn new(first: u64, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        Self {
            first,
            runs,
            threads: 0,
        }
    }

    /// Runs `run` once per seed and returns the results in seed order.
    ///
    /// Runs are sharded over scoped worker threads through the
    /// order-preserving [`adaflow_nn::parallel`] helper, so a mean over
    /// them is identical to a serial sweep; a single seed runs on the
    /// calling thread.
    pub fn map<S: Send>(&self, run: impl Fn(u64) -> S + Sync) -> Vec<S> {
        let seeds: Vec<u64> = (self.first..).take(self.runs).collect();
        adaflow_nn::parallel::par_map(&seeds, self.threads, |&seed| run(seed))
    }
}

/// A repeated, seeded serving experiment over one library and workload.
#[derive(Debug, Clone)]
pub struct Experiment<'l> {
    library: &'l Library,
    workload: WorkloadSpec,
    seeds: Seeds,
    sim: SimConfig,
}

impl<'l> Experiment<'l> {
    /// Creates an experiment with the paper's defaults: 100 runs, seed 1.
    #[must_use]
    pub fn new(library: &'l Library, workload: WorkloadSpec) -> Self {
        Self {
            library,
            workload,
            seeds: Seeds::new(1, 100),
            sim: SimConfig::default(),
        }
    }

    /// Sets the number of seeded repetitions.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.seeds = Seeds::new(self.seeds.first, runs);
        self
    }

    /// Sets the base seed (run `i` uses `seed + i`).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.first = seed;
        self
    }

    /// Overrides the simulator configuration.
    #[must_use]
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Runs the experiment with a policy factory (one fresh policy per run)
    /// over its [`Seeds`] and returns the averaged metrics.
    pub fn run_with<F>(&self, make_policy: F) -> RunMetrics
    where
        F: Fn() -> Box<dyn ServePolicy + 'l> + Sync,
    {
        let all = self.seeds.map(|seed| {
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

    /// The one sweep of every simulator: seeds `first..first + runs` in
    /// order for any worker count, and the one refusal of zero runs.
    #[test]
    #[should_panic(expected = "need at least one run")]
    fn seeds_run_in_order_and_need_at_least_one() {
        for threads in [0, 1, 2, 3] {
            let seeds = Seeds {
                threads,
                ..Seeds::new(7, 5)
            };
            assert_eq!(
                seeds.map(|seed| seed),
                [7, 8, 9, 10, 11],
                "{threads} workers"
            );
        }
        let caller = std::thread::current().id();
        assert_eq!(
            Seeds::new(3, 1).map(|_| std::thread::current().id()),
            [caller]
        );
        let _ = Seeds::new(1, 0);
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
