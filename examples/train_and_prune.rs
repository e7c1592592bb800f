//! End-to-end small-scale flow on real tensors: train a tiny quantized CNN
//! on a synthetic dataset, prune it dataflow-aware, retrain, load the
//! retrained model on the worst-case flexible fabric, and verify that the
//! fixed accelerator of the pruned model gets faster and smaller.
//!
//! This exercises the *real* training/retraining path (STE SGD + threshold
//! calibration) that stands in for the paper's 40-epoch Brevitas runs.
//!
//! ```text
//! cargo run --release -p adaflow-bench --example train_and_prune
//! ```

use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
use adaflow_hls::{synthesize, FpgaDevice};
use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;
use adaflow_pruning::{retrain, DataflowAwarePruner, FinnConfig, RetrainPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the tiny CNN on a 4-class synthetic dataset.
    let graph = topology::tiny(QuantSpec::w2a2(), 4)?;
    let data = SyntheticDataset::new(DatasetSpec::tiny(4), 3);
    let config = TrainingConfig::default();
    let (trained, report) = Trainer::new(&graph, 11)?.train(&data, &config)?;
    println!(
        "trained {}: float acc {:.1}%, quantized acc {:.1}% (chance 25%)",
        trained.name(),
        report.float_accuracy * 100.0,
        report.quantized_accuracy * 100.0
    );

    // 2. Prune it under the dataflow constraints and retrain.
    let folding = FinnConfig::auto(&trained)?;
    let pruner = DataflowAwarePruner::new(folding.clone());
    let pruned = pruner.prune(&trained, 0.5)?;
    println!(
        "pruned at 50% -> achieved {:.1}% (channels {:?} -> {:?})",
        pruned.achieved_rate() * 100.0,
        trained.conv_channels(),
        pruned.conv_channels()
    );
    let outcome = retrain(
        pruned,
        &RetrainPolicy::Sgd {
            dataset: data.clone(),
            config: config.clone(),
        },
    )?;
    println!(
        "retrained pruned model: quantized acc {:.1}%",
        outcome.accuracy
    );

    // 3. The flexible fabric, synthesized once for the unpruned worst
    //    case, takes the retrained model's channel counts at run time.
    let fabric =
        DataflowAccelerator::compile(&trained, &folding, AcceleratorKind::FlexiblePruning)?;
    let on_fabric = fabric.performance_for(&outcome.model.graph, &folding)?;
    println!(
        "flexible fabric (worst case {:?}) runs the retrained model at {:.0} FPS",
        trained.conv_channels(),
        on_fabric.throughput_fps
    );

    // 4. Hardware effect on a small device (Zynq-7020 class).
    let device = FpgaDevice::z7020();
    let base = synthesize(
        &DataflowAccelerator::compile(&trained, &folding, AcceleratorKind::Finn)?,
        &device,
    )?;
    let fast = synthesize(
        &DataflowAccelerator::compile(
            &outcome.model.graph,
            &folding,
            AcceleratorKind::FixedPruning,
        )?,
        &device,
    )?;
    println!(
        "accelerators on {}: baseline {:.0} FPS / {} LUT, pruned-fixed {:.0} FPS / {} LUT",
        device.name,
        base.throughput_fps,
        base.resources.lut,
        fast.throughput_fps,
        fast.resources.lut
    );
    assert!(fast.throughput_fps >= base.throughput_fps);
    assert!(fast.resources.lut <= base.resources.lut);
    Ok(())
}
