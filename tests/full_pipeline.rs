//! Cross-crate integration: the full AdaFlow pipeline from CNN definition
//! through pruning, synthesis, library generation and runtime serving.

use adaflow::prelude::*;
use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator, StreamSimulator};
use adaflow_edge::prelude::*;
use adaflow_hls::{synthesize, FpgaDevice};
use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;
use adaflow_nn::DatasetKind;
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};

fn cifar_library() -> Library {
    LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates")
}

#[test]
fn cnn_to_accelerator_to_serving() {
    // Design time.
    let library = cifar_library();
    assert_eq!(library.entries().len(), 18);

    // Run time: one full scenario-2 serving run end to end.
    let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
    let segments = spec.generate(42);
    let mut policy = AdaFlowServePolicy::new(&library, RuntimeConfig::default());
    let (metrics, trace) = EdgeSim::new(SimConfig {
        record_trace: true,
        ..SimConfig::default()
    })
    .run(&mut policy, &segments);

    // Conservation and sanity across the whole stack.
    assert!((metrics.processed + metrics.lost - metrics.offered).abs() < 1e-6);
    assert!(metrics.qoe_pct > 0.0 && metrics.qoe_pct <= 100.0);
    assert!(metrics.avg_power_w > 0.5 && metrics.avg_power_w < 3.0);
    assert!(!trace.is_empty());
}

#[test]
fn library_json_survives_full_round_trip_and_serves() {
    let library = cifar_library();
    let json = library.to_json().expect("export");
    let reloaded = Library::from_json(&json).expect("import");

    // A manager over the reloaded library makes identical decisions.
    let mut a = RuntimeManager::new(&library, RuntimeConfig::default());
    let mut b = RuntimeManager::new(&reloaded, RuntimeConfig::default());
    for (t, fps) in [(0.0, 500.0), (1.0, 900.0), (1.5, 200.0), (4.0, 700.0)] {
        let da = a.decide(t, fps);
        let db = b.decide(t, fps);
        assert_eq!(da, db);
    }
}

#[test]
fn stream_simulation_agrees_with_synthesized_throughput() {
    // The Verilator stand-in must agree with the analytical model that the
    // library's FPS figures are built from.
    let graph = topology::cnv_w2a2_cifar10().expect("builds");
    let folding = FinnConfig::cnv_reference(&graph).expect("valid");
    let accel =
        DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::Finn).expect("compiles");
    let synth = synthesize(&accel, &FpgaDevice::zcu104()).expect("synthesizes");
    let stats = StreamSimulator::new(&accel, 2).run(32);
    let analytic_ii = accel.initiation_interval();
    assert_eq!(stats.observed_ii, analytic_ii);
    assert!(synth.throughput_fps > 0.9 * stats.throughput_fps);
}

#[test]
fn all_four_paper_combos_generate_and_serve() {
    for (graph, dataset) in [
        (
            topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        ),
        (
            topology::cnv_w2a2_gtsrb().expect("builds"),
            DatasetKind::Gtsrb,
        ),
        (
            topology::cnv_w1a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        ),
        (
            topology::cnv_w1a2_gtsrb().expect("builds"),
            DatasetKind::Gtsrb,
        ),
    ] {
        let library = LibraryGenerator::default_edge_setup()
            .generate(&graph, dataset)
            .expect("generates");
        let experiment =
            Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Stable)).runs(3);
        let ada = experiment.run_adaflow(RuntimeConfig::default());
        let finn = experiment.run_original_finn();
        assert!(
            ada.frame_loss_pct <= finn.frame_loss_pct,
            "AdaFlow must not lose more frames than FINN ({dataset:?})"
        );
    }
}

#[test]
fn lenet_family_flows_through_the_whole_stack() {
    // Generality: a different topology family (5x5 kernels, pool->flatten
    // boundary with spatial extent) must pass pruning (exercising the
    // generalized SIMD constraint), synthesis, library generation and
    // serving.
    let graph = topology::lenet(QuantSpec::w2a2(), 10).expect("builds");
    let folding = FinnConfig::auto(&graph).expect("auto folding");
    let pruner = DataflowAwarePruner::new(folding);
    let pruned = pruner.prune(&graph, 0.5).expect("prunes");
    assert!(pruned.achieved_rate() > 0.0, "lenet must be prunable");
    assert!(Engine::new(&pruned.graph).is_ok());

    // Library + serving on a small device workload.
    let generator = LibraryGenerator {
        pruning_rates: vec![0.0, 0.25, 0.5],
        device: adaflow_hls::FpgaDevice::zcu104(),
        folding: None,
    };
    let library = generator
        .generate(&graph, DatasetKind::Cifar10)
        .expect("generates");
    assert_eq!(library.entries().len(), 3);
    let base_fps = library.unpruned().fixed.throughput_fps;
    let mut manager = RuntimeManager::new(&library, RuntimeConfig::default());
    let d = manager.decide(0.0, base_fps * 1.5);
    assert!(
        d.throughput_fps >= base_fps,
        "manager should reach for a faster model"
    );
}

#[test]
fn runtime_manager_respects_threshold_change_mid_run() {
    let library = cifar_library();
    let mut manager = RuntimeManager::new(&library, RuntimeConfig::default());
    // Impossible workload: manager picks the fastest model within threshold.
    let before = manager.decide(0.0, 1e9);
    manager.set_accuracy_threshold(40.0);
    let after = manager.decide(10.0, 1e9);
    assert!(
        after.throughput_fps > before.throughput_fps,
        "a looser threshold must unlock faster models"
    );
    assert!(after.accuracy < before.accuracy);
}
