//! The engine's default kernel plan is a pure function of the graph.
//!
//! Under `ConvStrategy::Auto` every MVTU whose verifier-established domains
//! fit the packed contract and that has at least `packed_min_rows` weight
//! rows runs the popcount kernel, every other conv/dense layer runs the
//! im2col + i32 GEMM, and direct convolution is never planned. Nothing
//! measured at startup and no environment variable can change that.

use adaflow_model::prelude::*;
use adaflow_nn::{kernel_thresholds, Engine};
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};

fn models() -> Vec<(&'static str, CnnGraph)> {
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let pruner = DataflowAwarePruner::new(FinnConfig::cnv_reference(&cnv).expect("folding"));
    let pruned = |rate: f64| pruner.prune(&cnv, rate).expect("prunes").graph;
    vec![
        ("cnv-w2a2-p25", pruned(0.25)),
        ("cnv-w2a2-p50", pruned(0.50)),
        ("cnv-w2a2", cnv),
        ("cnv-w1a2-43", topology::cnv_w1a2_gtsrb().expect("builds")),
        (
            "lenet-w2a2",
            topology::lenet(QuantSpec::w2a2(), 10).expect("builds"),
        ),
        (
            "lenet-w1a2",
            topology::lenet(QuantSpec::w1a2(), 10).expect("builds"),
        ),
        (
            "tiny-w2a2",
            topology::tiny(QuantSpec::w2a2(), 10).expect("builds"),
        ),
    ]
}

/// Asserts the golden plan of `graph` and returns its MVTU kernel labels.
fn assert_golden_plan(name: &str, graph: &CnnGraph) -> Vec<&'static str> {
    let engine = Engine::new(graph).expect("engine");
    let packed = format!("packed-{}", engine.packed_backend().label());
    let domains = mvtu_domains(graph);
    let kernels = engine.kernels();
    let plan: Vec<&'static str> = domains.iter().map(|d| kernels[d.layer].kernel).collect();
    for (d, kernel) in domains.iter().zip(&plan) {
        let packs = d.packed_eligible() && d.rows >= kernel_thresholds().packed_min_rows;
        let expected = if packs { packed.as_str() } else { "gemm" };
        assert_eq!(*kernel, expected, "{name}: layer {}", d.name);
    }
    // Every shipped model is ≤2-bit past its 8-bit first layer: conv1 runs
    // the GEMM and everything after it packs.
    assert_eq!(plan[0], "gemm", "{name}: {plan:?}");
    assert!(plan[1..].iter().all(|k| *k == packed), "{name}: {plan:?}");
    assert!(
        kernels.iter().all(|k| k.kernel != "direct"),
        "{name}: Auto planned a direct convolution"
    );
    plan
}

#[test]
fn auto_plan_is_golden_on_every_shipped_model() {
    for (name, graph) in models() {
        assert_golden_plan(name, &graph);
    }
}

#[test]
fn auto_plan_ignores_the_retired_env_knobs_and_repeats() {
    // The values the startup probes used to read (and that sent conv1 to
    // direct convolution); the variables are dead now.
    std::env::set_var("ADAFLOW_GEMM_MIN_K", "64");
    std::env::set_var("ADAFLOW_PACKED_MIN_ROWS", "32");
    for (name, graph) in models() {
        let first = assert_golden_plan(name, &graph);
        let second = assert_golden_plan(name, &graph);
        assert_eq!(first, second, "{name}: plan differs between engines");
    }
}
