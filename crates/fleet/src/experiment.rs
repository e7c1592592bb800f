//! Multi-run fleet experiments.
//!
//! The fleet counterpart of `adaflow_serve::ServeExperiment`: runs seeded
//! fleet simulations in parallel with order-preserving sharding (the mean
//! is bit-identical for any worker count — the property the fleet
//! determinism suite pins) and averages the summaries element-wise.

use crate::config::FleetConfig;
use crate::engine::FleetEngine;
use crate::summary::FleetSummary;
use adaflow::Library;
use adaflow_edge::WorkloadSpec;
use adaflow_telemetry::SinkHandle;

/// A repeated, seeded fleet experiment over one library and workload.
#[derive(Debug, Clone)]
pub struct FleetExperiment<'l> {
    library: &'l Library,
    workload: WorkloadSpec,
    config: FleetConfig,
    runs: usize,
    base_seed: u64,
    threads: usize,
}

impl<'l> FleetExperiment<'l> {
    /// Creates an experiment with 20 seeded runs, seed 1, the default
    /// fleet shape and one worker per core.
    #[must_use]
    pub fn new(library: &'l Library, workload: WorkloadSpec) -> Self {
        Self {
            library,
            workload,
            config: FleetConfig::default(),
            runs: 20,
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
    /// order and each run owns its whole event loop.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the fleet configuration.
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the experiment and returns the averaged fleet summary.
    #[must_use]
    pub fn run(&self) -> FleetSummary {
        let seeds: Vec<u64> = (0..self.runs as u64).map(|i| self.base_seed + i).collect();
        let engine = FleetEngine::new(self.config.clone());
        let all = adaflow_nn::parallel::par_map(&seeds, self.threads, |&seed| {
            engine.run(self.library, &self.workload, seed)
        });
        FleetSummary::mean(&all).expect("at least one run")
    }

    /// One traced run: a single seed with a telemetry sink attached, for
    /// the CLI's trace exports and the `--check` replay.
    #[must_use]
    pub fn run_traced(&self, seed: u64, sink: SinkHandle) -> FleetSummary {
        FleetEngine::new(self.config.clone()).with_sink(sink).run(
            self.library,
            &self.workload,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow::LibraryGenerator;
    use adaflow_edge::Scenario;
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

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            devices: 8,
            fps_per_device: 30.0,
            duration_s: 3.0,
            scenario: Scenario::Unpredictable,
        }
    }

    #[test]
    fn mean_is_identical_for_any_thread_count() {
        let lib = library();
        let exp = FleetExperiment::new(&lib, spec()).runs(4);
        let serial = exp.clone().threads(1).run();
        let two = exp.clone().threads(2).run();
        let auto = exp.threads(0).run();
        assert_eq!(serial, two);
        assert_eq!(serial, auto);
    }

    #[test]
    fn traced_run_matches_untraced_summary() {
        let lib = library();
        let exp = FleetExperiment::new(&lib, spec()).runs(1).seed(9);
        let untraced = exp.run();
        let (sink, recorder) = SinkHandle::recorder(1 << 16);
        let traced = exp.run_traced(9, sink);
        assert_eq!(untraced, traced, "sink must not perturb the simulation");
        assert!(!recorder.is_empty(), "traced run emits events");
    }
}
