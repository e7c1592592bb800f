//! Seeded inputs and their oracle labels.

use adaflow_model::CnnGraph;
use adaflow_nn::{Activations, BatchRunner, ConvStrategy, DatasetSpec, Engine, SyntheticDataset};

/// Images per pool: one `engine_batch64` batch, and the payload set every
/// live request draws from.
pub const POOL_IMAGES: usize = 64;

/// A set of input images with the label each must classify to.
pub struct Pool {
    pub images: Vec<Activations>,
    pub labels: Vec<usize>,
}

impl Pool {
    /// `len` images of `spec` drawn from `seed`, labelled by an engine that
    /// never touches the packed kernels or the planner's crossover rules
    /// (`ConvStrategy::Im2col`). This is benchmark cost, outside every timed
    /// phase.
    pub fn build(graph: &CnnGraph, spec: DatasetSpec, seed: u64, len: usize) -> Self {
        let images: Vec<Activations> = SyntheticDataset::new(spec, seed)
            .batch(0, len)
            .into_iter()
            .map(|sample| sample.image)
            .collect();
        let oracle = Engine::new(graph)
            .expect("oracle engine builds")
            .with_strategy(ConvStrategy::Im2col);
        let labels = BatchRunner::new(oracle)
            .run(&images)
            .expect("oracle classifies the pool");
        Self { images, labels }
    }
}
