//! The engine's kernel plan is a pure function of the graph and the
//! backend.
//!
//! Under `ConvStrategy::Auto` on a popcount backend every MVTU whose
//! verifier-established domains fit the packed contract and that has at
//! least `packed_min_rows` weight rows runs the popcount kernel on packed
//! feature maps, every other conv/dense layer runs the byte-window MVTU over
//! a byte map, and the reference direct convolution is never planned. A
//! threshold is packed iff a packed MVTU consumes it, and then it is fused
//! into the windowed MVTU (packed or byte) that produces its input. On the
//! AMX backend every MVTU is an `amx` step with the threshold after it in
//! its epilogue. `Direct` and `Im2col` never plan an `amx` step.
//! Nothing measured at startup and no environment variable can change that.

use adaflow_model::prelude::*;
use adaflow_nn::{kernel_thresholds, Activations, ConvStrategy, Engine, PackedBackend};
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

/// Asserts the golden popcount plan of `graph` (the AVX-512 backend, or
/// the next one down this CPU runs) and returns its MVTU kernel labels.
fn assert_golden_plan(name: &str, graph: &CnnGraph) -> Vec<&'static str> {
    let engine = Engine::new(graph)
        .expect("engine")
        .with_packed_backend(PackedBackend::Avx512);
    let packed = format!("packed-{}", engine.packed_backend().label());
    let bytes = bytes_label(engine.packed_backend());
    let domains = mvtu_domains(graph);
    let kernels = engine.kernels();
    let plan: Vec<&'static str> = domains.iter().map(|d| kernels[d.layer].kernel).collect();
    for (d, kernel) in domains.iter().zip(&plan) {
        let packs = d.packed_eligible() && d.rows >= kernel_thresholds().packed_min_rows;
        let expected = if packs { packed.as_str() } else { bytes };
        assert_eq!(*kernel, expected, "{name}: layer {}", d.name);
    }
    // Every shipped model is ≤2-bit past its 8-bit first layer: conv1 runs
    // the byte window and everything after it packs, so every threshold is
    // its producer's epilogue.
    assert_eq!(plan[0], bytes, "{name}: {plan:?}");
    assert!(plan[1..].iter().all(|k| *k == packed), "{name}: {plan:?}");
    let thresholds: Vec<&str> = graph
        .iter()
        .zip(kernels)
        .filter(|(node, _)| matches!(node.layer, Layer::MultiThreshold(_)))
        .map(|(_, k)| k.kernel)
        .collect();
    assert!(
        thresholds.iter().all(|k| *k == "fused"),
        "{name}: {thresholds:?}"
    );
    assert!(
        kernels.iter().all(|k| k.kernel != "direct"),
        "{name}: Auto planned a direct convolution"
    );
    plan
}

/// The byte-window label under `backend`: every SIMD backend runs the AVX2
/// byte kernel.
fn bytes_label(backend: PackedBackend) -> &'static str {
    match backend {
        PackedBackend::Scalar => "bytes-scalar",
        PackedBackend::Avx2 | PackedBackend::Avx512 | PackedBackend::Amx => "bytes-avx2",
    }
}

/// The flags `/proc/cpuinfo` lists for the first CPU.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn cpu_flags() -> Vec<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("readable /proc/cpuinfo");
    cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags").and_then(|l| l.split_once(':')))
        .map(|(_, flags)| flags.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default()
}

#[test]
fn auto_plan_is_golden_on_every_shipped_model() {
    for (name, graph) in models() {
        assert_golden_plan(name, &graph);
    }
}

#[test]
fn auto_plan_matches_the_oracles_on_every_shipped_model() {
    // Labels and logits of the byte window and the packed kernels, on every
    // backend this CPU runs, against both oracles on a full-range image.
    for (name, graph) in models() {
        let mut image = Activations::zeroed(graph.input_shape());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for v in image.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state >> 56) as u8;
        }
        let engine = Engine::new(&graph).expect("engine");
        let oracle = engine
            .clone()
            .with_strategy(ConvStrategy::Direct)
            .run(&image)
            .expect("direct");
        let im2col = engine.clone().with_strategy(ConvStrategy::Im2col);
        assert_eq!(im2col.run(&image).expect("im2col"), oracle, "{name}");
        for backend in PackedBackend::runnable() {
            let auto = engine.clone().with_packed_backend(backend);
            assert_eq!(
                auto.run(&image).expect("auto"),
                oracle,
                "{name} on {backend:?}"
            );
        }
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
/// CPU whose kernel-reported flags name the AVX-512 popcount the Avx512
/// backend must be in effect and plan the AVX-512 kernel, conv2 through
/// fc3, and conv1 the AVX2 byte kernel; the default may be the AMX rung
/// above it (`amx_cpus_plan_the_amx_kernel`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn avx512_cpus_plan_the_avx512_kernel() {
    let flags = cpu_flags();
    let listed = ["avx2", "avx512f", "avx512vl", "avx512_vpopcntdq"]
        .iter()
        .all(|f| flags.iter().any(|g| g == f));
    if !listed || adaflow_nn::packed::force_scalar() {
        eprintln!("skipping: no AVX-512 VPOPCNTDQ here, or scalar forced");
        return;
    }
    // The AMX rung sits above it where the CPU and the kernel grant it.
    assert!(adaflow_nn::default_backend() >= PackedBackend::Avx512);
    assert_eq!(
        PackedBackend::Avx512.effective(),
        adaflow_nn::PackedBackend::Avx512
    );
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let plan = assert_golden_plan("cnv-w2a2", &cnv);
    assert_eq!(plan.len(), 9, "{plan:?}");
    assert_eq!(plan[0], "bytes-avx2", "{plan:?}");
    assert!(plan[1..].iter().all(|k| *k == "packed-avx512"), "{plan:?}");
}

/// The AMX twin of the test above: where the kernel-reported flags name
/// AMX-INT8 (and the AVX-512 the rung also needs), the default is the AMX
/// backend, every MVTU of every shipped model plans `amx`, and every
/// threshold is still its own node, fused into the step before it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn amx_cpus_plan_the_amx_kernel() {
    let flags = cpu_flags();
    let listed = ["amx_tile", "amx_int8", "avx512bw", "avx512vbmi"]
        .iter()
        .all(|f| flags.iter().any(|g| g == f));
    if !listed || adaflow_nn::packed::force_scalar() {
        eprintln!("skipping: no AMX-INT8 here, or scalar forced");
        return;
    }
    assert_eq!(adaflow_nn::default_backend(), PackedBackend::Amx);
    for (name, graph) in models() {
        let engine = Engine::new(&graph).expect("engine");
        for (node, k) in graph.iter().zip(engine.kernels()) {
            let expected = match node.layer {
                Layer::Conv2d(_) | Layer::Dense(_) => "amx",
                Layer::MultiThreshold(_) => "fused",
                Layer::MaxPool2d(_) => "maxpool",
                Layer::LabelSelect(_) => "argmax",
            };
            assert_eq!(k.kernel, expected, "{name}: layer {}", k.layer);
        }
    }
}

#[test]
fn im2col_and_direct_plans_name_no_amx_step() {
    // The benchmark labels its image pools with `Im2col`: an AMX step in
    // that plan would let an AMX bug agree with its own oracle.
    for (name, graph) in models() {
        for backend in PackedBackend::ALL {
            for strategy in [ConvStrategy::Im2col, ConvStrategy::Direct] {
                let engine = Engine::new(&graph)
                    .expect("engine")
                    .with_strategy(strategy)
                    .with_packed_backend(backend);
                assert!(
                    engine.kernels().iter().all(|k| k.kernel != "amx"),
                    "{name}: {strategy:?} on {backend:?} plans {:?}",
                    engine.kernels()
                );
            }
        }
    }
}

#[test]
fn unpackable_weights_run_the_byte_window_everywhere() {
    // 4-bit weights fit no pair of sign planes: every conv and dense layer
    // is the byte-window MVTU, on the AVX2 kernel wherever the CPU has it
    // (2 · 255 · 7 fits i16), and every threshold goes to `u8`.
    let graph = topology::lenet(QuantSpec::new(4, 2), 10).expect("builds");
    let engine = Engine::new(&graph)
        .expect("engine")
        .with_packed_backend(PackedBackend::Avx512);
    let bytes = bytes_label(engine.packed_backend());
    for (node, k) in graph.iter().zip(engine.kernels()) {
        let expected = match node.layer {
            Layer::Conv2d(_) | Layer::Dense(_) => bytes,
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
    // the u8 maps were in it, 283 584 while conv1 stored 230 400 bytes of
    // channel-major accumulators; what is left is the image, its byte map
    // and two packed maps.
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let engine = Engine::new(&cnv)
        .expect("engine")
        .with_packed_backend(PackedBackend::Avx512);
    let bytes = engine.scratch().bytes();
    assert!(bytes < 100_000, "CNV scratch grew to {bytes} bytes");
    // The AMX plan holds two `u8` maps, the tile panels of two passes and
    // their C tiles, but no window matrix either.
    let amx = engine.with_packed_backend(PackedBackend::Amx);
    let bytes = amx.scratch().bytes();
    assert!(bytes < 200_000, "CNV AMX scratch grew to {bytes} bytes");
}

#[test]
fn every_cnv_layer_reports_one_span_under_its_own_name() {
    // The benchmark's traced pass fails on any `nn.layer_us.<layer>` it
    // cannot find, fused thresholds included.
    let cnv = topology::cnv_w2a2_cifar10().expect("builds");
    let names: Vec<&str> = cnv.iter().map(|n| n.name.as_str()).collect();
    let spans_of = |backend: PackedBackend| {
        let (sink, recorder) = SinkHandle::recorder(256);
        let engine = Engine::new(&cnv)
            .expect("engine")
            .with_packed_backend(backend)
            .with_sink(sink);
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
        assert_eq!(layers, names, "{backend:?}");
        (engine.packed_backend(), spans)
    };
    let (backend, spans) = spans_of(PackedBackend::Avx512);
    let conv1 = format!("conv1[{}]", bytes_label(backend));
    assert!(spans.contains(&conv1), "{spans:?}");
    // The AMX plan, where it runs: every threshold still its own span.
    let (backend, spans) = spans_of(PackedBackend::Amx);
    if backend == PackedBackend::Amx {
        assert!(spans.contains(&"conv1[amx]".to_string()), "{spans:?}");
        assert!(spans.contains(&"thresh1".to_string()), "{spans:?}");
    }
}
