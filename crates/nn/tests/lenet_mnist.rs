//! LeNet on the MNIST-like dataset: engine smoke coverage for the second
//! topology family.

use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;

#[test]
fn lenet_runs_on_mnist_like_samples() {
    let graph = topology::lenet(QuantSpec::w2a2(), 10).expect("builds");
    let data = SyntheticDataset::new(DatasetSpec::mnist_like(), 7);
    let images: Vec<_> = data.batch(0, 8).into_iter().map(|s| s.image).collect();
    let labels = BatchRunner::new(Engine::new(&graph).expect("engine"))
        .with_threads(1)
        .run(&images)
        .expect("batch");
    assert_eq!(labels.len(), 8);
    assert!(labels.iter().all(|&l| l < 10));
}

#[test]
fn lenet_strategies_agree_on_dataset_samples() {
    let graph = topology::lenet(QuantSpec::w1a2(), 10).expect("builds");
    let data = SyntheticDataset::new(DatasetSpec::mnist_like(), 11);
    let auto = Engine::new(&graph).expect("engine");
    let direct = auto.clone().with_strategy(ConvStrategy::Direct);
    let im2col = auto.clone().with_strategy(ConvStrategy::Im2col);
    for sample in data.batch(0, 6) {
        let oracle = direct.run(&sample.image).expect("direct");
        assert_eq!(auto.run(&sample.image).expect("auto"), oracle);
        assert_eq!(im2col.run(&sample.image).expect("im2col"), oracle);
    }
}
