//! Soundness of the AF010 interval analysis against the real engine.
//!
//! The abstract interpretation claims its per-channel intervals contain
//! every concretely reachable accumulator value. These tests drive the
//! *actual* inference engine — scalar GEMM, direct conv and the packed
//! popcount kernels — over random graphs, random weights, random inputs
//! and a pruning sweep, and check the claim two ways:
//!
//! 1. externally, the classifier logits (the last MVTU's raw accumulators)
//!    must lie inside that layer's AF010 intervals;
//! 2. internally, debug builds of `Engine::run_with_scratch` assert every
//!    intermediate accumulator against its layer's interval after each
//!    MVTU, so simply completing a run under `cargo test` (debug profile)
//!    re-proves the property at every layer.
//!
//! A regression guard also pins the AF006 relationship: the exact interval
//! is never looser than the conservative domain bound.

use adaflow_model::prelude::*;
use adaflow_nn::{Activations, ConvStrategy, Engine, PackedBackend};
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
use adaflow_verify::interval_analysis;
use proptest::prelude::*;

/// Deterministic xorshift for weight/input fills (keeps the proptest cases
/// reproducible from their seed alone).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A value from the layer's quantized weight domain (ternary for W2,
/// ±1 for W1).
fn ternary(r: u64, excludes_zero: bool) -> i8 {
    match r % 3 {
        0 => -1,
        1 if !excludes_zero => 0,
        _ => 1,
    }
}

fn filled_conv(
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    quant: QuantSpec,
    rng: &mut Rng,
) -> Conv2d {
    let excludes_zero = quant.weight_domain().excludes_zero;
    let mut c = Conv2d::new(in_ch, out_ch, kernel, 1, 0, quant);
    for w in c.weights.as_mut_slice() {
        *w = ternary(rng.next(), excludes_zero);
    }
    c
}

fn filled_dense(inf: usize, outf: usize, quant: QuantSpec, rng: &mut Rng) -> Dense {
    let excludes_zero = quant.weight_domain().excludes_zero;
    let mut d = Dense::new(inf, outf, quant);
    for w in d.weights.as_mut_slice() {
        *w = ternary(rng.next(), excludes_zero);
    }
    d
}

fn random_input(shape: TensorShape, seed: u64) -> Activations {
    let mut rng = Rng::new(seed);
    let data: Vec<u8> = (0..shape.elements())
        .map(|_| (rng.next() & 0xff) as u8)
        .collect();
    Activations::from_vec(shape, data)
}

/// A small random well-formed CNN with randomized in-domain weights.
fn arb_graph() -> impl Strategy<Value = CnnGraph> {
    (
        2usize..=4,
        2usize..=6,
        2usize..=5,
        proptest::bool::ANY,
        0u64..=u64::MAX,
    )
        .prop_map(|(c1_half, c2_half, classes, w1, seed)| {
            let (c1, c2) = (c1_half * 2, c2_half * 2);
            let quant = if w1 {
                QuantSpec::w1a2()
            } else {
                QuantSpec::w2a2()
            };
            let levels = quant.threshold_levels();
            let mut rng = Rng::new(seed);
            GraphBuilder::new("soundness", TensorShape::new(1, 12, 12))
                .conv2d(filled_conv(1, c1, 3, quant, &mut rng))
                .threshold(MultiThreshold::uniform(c1, levels, -64, 64))
                .max_pool(MaxPool2d::new(2, 2))
                .conv2d(filled_conv(c1, c2, 3, quant, &mut rng))
                .threshold(MultiThreshold::uniform(c2, levels, -64, 64))
                .dense(filled_dense(c2 * 9, classes, quant, &mut rng))
                .label_select(classes)
                .build()
                .expect("structurally valid")
        })
}

/// Runs `graph` on `inputs` under every kernel configuration and checks the
/// logits against the classifier's AF010 intervals. The in-engine debug
/// asserts cover every intermediate layer on the same runs.
fn assert_sound(graph: &CnnGraph, input_seeds: &[u64]) {
    let analysis = interval_analysis(graph);
    assert!(analysis.stats.converged);
    let classifier = analysis.mvtus.last().expect("graph has MVTUs");
    let configs = std::iter::once((ConvStrategy::Im2col, PackedBackend::Scalar)).chain(
        PackedBackend::runnable()
            .into_iter()
            .map(|b| (ConvStrategy::Auto, b)),
    );
    for (strategy, backend) in configs {
        let engine = Engine::new(graph)
            .expect("verified graph runs")
            .with_strategy(strategy)
            .with_packed_backend(backend);
        let mut scratch = engine.scratch();
        for &seed in input_seeds {
            let input = random_input(graph.input_shape(), seed);
            let result = engine
                .run_with_scratch(&input, &mut scratch)
                .expect("inference succeeds");
            for (ch, &logit) in result.logits.iter().enumerate() {
                let iv = &classifier.per_channel[ch];
                assert!(
                    iv.contains(i128::from(logit)),
                    "logit {logit} of channel {ch} escapes [{}, {}] \
                     (strategy {strategy:?}, backend {backend:?})",
                    iv.lo,
                    iv.hi,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every observed accumulator lies inside its AF010 interval, for both
    /// the GEMM and packed kernels, across random graphs and inputs.
    #[test]
    fn observed_accumulators_stay_inside_intervals(graph in arb_graph(), s in 0u64..=u64::MAX) {
        assert_sound(&graph, &[s, s ^ 0x9e37_79b9_7f4a_7c15]);
    }

    /// The exact interval is never looser than the AF006 domain bound —
    /// on random graphs and through the pruning transform.
    #[test]
    fn af006_is_never_tighter_than_af010(graph in arb_graph(), rate in 0.0f64..0.6) {
        let check = |g: &CnnGraph| {
            for m in interval_analysis(g).mvtus {
                prop_assert!(
                    m.acc.abs_max() <= m.domain_worst_abs,
                    "{}: exact |acc| {} exceeds domain bound {}",
                    m.name, m.acc.abs_max(), m.domain_worst_abs,
                );
            }
            Ok(())
        };
        check(&graph)?;
        let cfg = FinnConfig::auto(&graph).expect("auto folding");
        let pruned = DataflowAwarePruner::new(cfg).prune(&graph, rate).expect("prunes");
        check(&pruned.graph)?;
    }
}

/// The pruning sweep keeps the engine sound too: intervals are recomputed
/// per pruned graph and the runtime asserts hold on every variant.
#[test]
fn pruned_builtins_stay_sound() {
    let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
    let cfg = FinnConfig::auto(&graph).expect("auto folding");
    let pruner = DataflowAwarePruner::new(cfg);
    for rate in [0.0, 0.25, 0.5] {
        let g = if rate == 0.0 {
            graph.clone()
        } else {
            pruner.prune(&graph, rate).expect("prunes").graph
        };
        assert_sound(&g, &[7, 1312]);
    }
}

/// CI wall-clock budget: all three fixed-point analyses over every builtin
/// model × pruning sweep must stay under 5 s per model (they run inside
/// every debug engine construction and lint pass, so they have to be
/// cheap).
#[test]
fn fixpoint_analyses_fit_wall_clock_budget() {
    let builtins = [
        topology::cnv_w2a2_cifar10().expect("builds"),
        topology::cnv_w1a2_cifar10().expect("builds"),
        topology::lenet(QuantSpec::w2a2(), 10).expect("builds"),
        topology::lenet(QuantSpec::w1a2(), 10).expect("builds"),
        topology::tiny(QuantSpec::w2a2(), 4).expect("builds"),
    ];
    for graph in &builtins {
        let cfg = FinnConfig::cnv_reference(graph).expect("reference folding");
        let pruner = DataflowAwarePruner::new(cfg.clone());
        let start = std::time::Instant::now();
        for rate in [0.0, 0.25, 0.5] {
            let g = if rate == 0.0 {
                graph.clone()
            } else {
                pruner.prune(graph, rate).expect("prunes").graph
            };
            let analysis = interval_analysis(&g);
            assert!(analysis.stats.converged, "{}", g.name());
            let accel = adaflow_dataflow::DataflowAccelerator::compile(
                &g,
                &FinnConfig::cnv_reference(&g).expect("folding"),
                adaflow_dataflow::AcceleratorKind::Finn,
            )
            .expect("compiles");
            let mut diag = adaflow_verify::Diagnostics::new();
            adaflow_dataflow::check_accelerator(&accel, &mut diag);
            let report = diag.into_report(accel.name());
            assert!(!report.has_errors(), "{report}");
            assert!(report.fired("DF004") && report.fired("DF005"), "{report}");
        }
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "{}: fixed-point sweep took {:.2} s (budget 5 s)",
            graph.name(),
            start.elapsed().as_secs_f64(),
        );
    }
}
