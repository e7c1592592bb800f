//! Cross-crate property-based tests (proptest) on the framework's core
//! invariants.

use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
use adaflow_hls::estimate_accelerator;
use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
use proptest::prelude::*;

/// A small randomized quantized CNN: conv → thresh → pool → conv → thresh →
/// dense → top1, with randomized channel widths.
fn arb_graph() -> impl Strategy<Value = CnnGraph> {
    (2usize..=6, 2usize..=8, 2usize..=6, proptest::bool::ANY).prop_map(
        |(c1_half, c2_half, classes, w1)| {
            let (c1, c2) = (c1_half * 2, c2_half * 2);
            let quant = if w1 {
                QuantSpec::w1a2()
            } else {
                QuantSpec::w2a2()
            };
            let levels = quant.threshold_levels();
            GraphBuilder::new("prop", TensorShape::new(1, 12, 12))
                .conv2d(Conv2d::new(1, c1, 3, 1, 0, quant))
                .threshold(MultiThreshold::uniform(c1, levels, -64, 64))
                .max_pool(MaxPool2d::new(2, 2))
                .conv2d(Conv2d::new(c1, c2, 3, 1, 0, quant))
                .threshold(MultiThreshold::uniform(c2, levels, -64, 64))
                .dense(Dense::new(c2 * 9, classes, quant))
                .label_select(classes)
                .build()
                .expect("structurally valid by construction")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruning at any rate yields a valid, executable graph whose channel
    /// counts satisfy every PE/SIMD divisibility constraint.
    #[test]
    fn pruning_preserves_dataflow_constraints(
        graph in arb_graph(),
        rate in 0.0f64..0.95,
    ) {
        let folding = FinnConfig::auto(&graph).expect("auto folding");
        let pruner = DataflowAwarePruner::new(folding.clone());
        let pruned = pruner.prune(&graph, rate).expect("prunes");

        // Constraints: PE divides the kept filters; the next MVTU's SIMD
        // divides the kept input width (channels for a conv successor,
        // flattened features for a dense successor).
        for rec in &pruned.layers {
            let f = folding.folding(rec.layer).expect("folding entry");
            prop_assert_eq!(rec.kept % f.pe, 0);
        }
        for node in pruned.graph.iter() {
            let in_width = match &node.layer {
                Layer::Conv2d(c) => c.in_channels,
                Layer::Dense(d) => d.in_features,
                _ => continue,
            };
            let f = folding.folding(node.id).expect("folding entry");
            prop_assert_eq!(in_width % f.simd, 0, "SIMD violated at {}", node.name);
        }
        // Executability.
        prop_assert!(Engine::new(&pruned.graph).is_ok());
        // Monotone effect on work.
        prop_assert!(pruned.graph.total_macs() <= graph.total_macs());
        // Same folding still legal on the pruned model.
        let foldings: Vec<_> = folding.entries().iter().map(|&(_, f)| f).collect();
        prop_assert!(FinnConfig::new(&pruned.graph, foldings).is_ok());
    }

    /// Every pruned model is a legal runtime configuration of the flexible
    /// fabric synthesized for its unpruned worst case: the fabric accepts
    /// it and reports its throughput.
    #[test]
    fn every_pruned_model_is_a_legal_flexible_configuration(
        graph in arb_graph(),
        rate in 0.0f64..0.9,
    ) {
        let folding = FinnConfig::auto(&graph).expect("auto folding");
        let pruned = DataflowAwarePruner::new(folding.clone())
            .prune(&graph, rate)
            .expect("prunes");
        let fabric = DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::FlexiblePruning)
            .expect("compiles");
        let loaded = fabric.performance_for(&pruned.graph, &folding);
        prop_assert!(loaded.is_ok(), "fabric rejected a pruned model: {:?}", loaded.err());
    }

    /// More pruning never increases resources or decreases throughput of
    /// the fixed accelerator.
    #[test]
    fn pruning_is_monotone_on_hardware(
        graph in arb_graph(),
        lo in 0.0f64..0.4,
        delta in 0.1f64..0.5,
    ) {
        let folding = FinnConfig::auto(&graph).expect("auto folding");
        let pruner = DataflowAwarePruner::new(folding.clone());
        let small = pruner.prune(&graph, lo).expect("prunes");
        let large = pruner.prune(&graph, lo + delta).expect("prunes");
        prop_assume!(large.achieved_rate() > small.achieved_rate());

        let a = DataflowAccelerator::compile(&small.graph, &folding, AcceleratorKind::FixedPruning)
            .expect("compiles");
        let b = DataflowAccelerator::compile(&large.graph, &folding, AcceleratorKind::FixedPruning)
            .expect("compiles");
        prop_assert!(b.throughput_fps() >= a.throughput_fps());

        let ra = estimate_accelerator(&a).expect("estimates");
        let rb = estimate_accelerator(&b).expect("estimates");
        prop_assert!(rb.lut <= ra.lut);
        prop_assert!(rb.bram36 <= ra.bram36);
    }

    /// The flexible fabric always costs more LUTs than FINN but never
    /// changes BRAM, for any graph.
    #[test]
    fn flexible_overhead_invariants(graph in arb_graph()) {
        let folding = FinnConfig::auto(&graph).expect("auto folding");
        let finn = DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::Finn)
            .expect("compiles");
        let flex =
            DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::FlexiblePruning)
                .expect("compiles");
        let rf = estimate_accelerator(&finn).expect("estimates");
        let rx = estimate_accelerator(&flex).expect("estimates");
        prop_assert!(rx.lut > rf.lut);
        prop_assert_eq!(rx.bram36, rf.bram36);
        // Latency overhead stays within the paper's 3.7% bound.
        let rel = flex.latency_cycles() as f64 / finn.latency_cycles() as f64 - 1.0;
        prop_assert!((0.0..=0.037 + 1e-9).contains(&rel), "overhead {}", rel);
    }

    /// Threshold tables stay monotone through pruning.
    #[test]
    fn thresholds_stay_monotone_after_pruning(
        graph in arb_graph(),
        rate in 0.0f64..0.9,
    ) {
        let folding = FinnConfig::auto(&graph).expect("auto folding");
        let pruned = DataflowAwarePruner::new(folding).prune(&graph, rate).expect("prunes");
        for node in pruned.graph.iter() {
            if let Layer::MultiThreshold(t) = &node.layer {
                for c in 0..t.table.channels() {
                    let row = t.table.row(c);
                    prop_assert!(row.windows(2).all(|w| w[0] <= w[1]));
                }
            }
        }
    }
}
