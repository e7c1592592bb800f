//! The engine's default kernel plan is a pure function of the graph.
//!
//! Under `ConvStrategy::Auto` every MVTU whose verifier-established domains
//! fit the packed contract and that has at least `packed_min_rows` weight
//! rows runs the popcount kernel on packed feature maps, a convolution that
//! cannot pack but has ≤2-bit weights runs by tap rows, every other
//! conv/dense layer runs the im2col + i32 GEMM, and the reference direct
//! convolution is never planned. A threshold is packed iff a packed MVTU
//! consumes it, and fused iff a packed MVTU also produces its input.
//! Nothing measured at startup and no environment variable can change that.

use adaflow_model::prelude::*;
use adaflow_nn::{kernel_thresholds, Activations, ConvStrategy, Engine};
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
use adaflow_telemetry::{EventKind, SinkHandle};

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
        let conv = matches!(
            graph.iter().nth(d.layer).expect("node").layer,
            Layer::Conv2d(_)
        );
        let expected = match (packs, conv && d.weight_bits <= 2) {
            (true, _) => packed.as_str(),
            (false, true) => "taps",
            (false, false) => "gemm",
        };
        assert_eq!(*kernel, expected, "{name}: layer {}", d.name);
    }
    // Every shipped model is ≤2-bit past its 8-bit first layer: conv1 runs
    // by tap rows and everything after it packs, so the first threshold
    // packs the accumulators and every later one is its producer's epilogue.
    assert_eq!(plan[0], "taps", "{name}: {plan:?}");
    assert!(plan[1..].iter().all(|k| *k == packed), "{name}: {plan:?}");
    let thresholds: Vec<&str> = graph
        .iter()
        .zip(kernels)
        .filter(|(node, _)| matches!(node.layer, Layer::MultiThreshold(_)))
        .map(|(_, k)| k.kernel)
        .collect();
    assert_eq!(thresholds[0], "threshold-pack", "{name}: {thresholds:?}");
    assert!(
        thresholds[1..].iter().all(|k| *k == "fused"),
        "{name}: {thresholds:?}"
    );
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

/// Bit-identity cannot see a probe that silently falls back (a misspelled
/// feature string computes correctly on the next backend down), so on a
/// CPU whose kernel-reported flags name the AVX-512 popcount the default
/// must be the AVX-512 kernel, conv2 through fc3.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn avx512_cpus_plan_the_avx512_kernel() {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("readable /proc/cpuinfo");
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags").and_then(|l| l.split_once(':')))
        .map(|(_, flags)| flags.split_whitespace().collect())
        .unwrap_or_default();
    let listed = ["avx2", "avx512f", "avx512vl", "avx512_vpopcntdq"]
        .iter()
        .all(|f| flags.contains(f));
    if !listed || adaflow_nn::packed::force_scalar() {
        eprintln!("skipping: no AVX-512 VPOPCNTDQ here, or scalar forced");
        return;
    }
    assert_eq!(
        adaflow_nn::default_backend(),
        adaflow_nn::PackedBackend::Avx512
    );
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let plan = assert_golden_plan("cnv-w2a2", &cnv);
    assert_eq!(plan.len(), 9, "{plan:?}");
    assert!(plan[1..].iter().all(|k| *k == "packed-avx512"), "{plan:?}");
}

#[test]
fn unpackable_weights_keep_the_gemm_everywhere() {
    // 4-bit weights fit neither the popcount kernel nor the tap rows: the
    // whole plan stays on the GEMM and every threshold on `u8`.
    let graph = topology::lenet(QuantSpec::new(4, 2), 10).expect("builds");
    let engine = Engine::new(&graph).expect("engine");
    for (node, k) in graph.iter().zip(engine.kernels()) {
        let expected = match node.layer {
            Layer::Conv2d(_) | Layer::Dense(_) => "gemm",
            Layer::MultiThreshold(_) => "threshold",
            Layer::MaxPool2d(_) => "maxpool",
            Layer::LabelSelect(_) => "argmax",
        };
        assert_eq!(k.kernel, expected, "layer {}", k.layer);
    }
    let image = Activations::zeroed(graph.input_shape());
    let oracle = engine.clone().with_strategy(ConvStrategy::Direct);
    assert_eq!(
        engine.run(&image).expect("auto"),
        oracle.run(&image).expect("direct")
    );
}

#[test]
fn cnv_scratch_holds_no_window_matrix() {
    // 910 080 bytes while conv2's 784 x 576 window matrix, its bitplanes and
    // the u8 maps were in it; what is left is conv1's channel-major
    // accumulators (230 400 bytes) and two packed maps.
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let bytes = Engine::new(&cnv).expect("engine").scratch().bytes();
    assert!(bytes < 300_000, "CNV scratch grew to {bytes} bytes");
}

#[test]
fn every_cnv_layer_reports_one_span_under_its_own_name() {
    // The benchmark's traced pass fails on any `nn.layer_us.<layer>` it
    // cannot find, fused thresholds included.
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let (sink, recorder) = SinkHandle::recorder(256);
    let engine = Engine::new(&cnv).expect("engine").with_sink(sink);
    engine
        .run(&Activations::zeroed(cnv.input_shape()))
        .expect("runs");
    let spans: Vec<String> = recorder
        .drain()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::SpanEnd { name } => Some(name),
            _ => None,
        })
        .collect();
    let layers: Vec<&str> = spans
        .iter()
        .map(|s| s.split('[').next().expect("nonempty"))
        .collect();
    let names: Vec<&str> = cnv.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(layers, names);
    assert!(spans.contains(&"conv1[taps]".to_string()), "{spans:?}");
}
