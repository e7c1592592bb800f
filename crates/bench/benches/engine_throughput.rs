//! Criterion bench: batched inference throughput of the integer engine.
//!
//! Compares the execution paths over the same image batch:
//!
//! 1. `baseline` — the pre-optimization default: direct convolution with a
//!    fresh allocation set per image (`Engine::run` on `ConvStrategy::Direct`);
//! 2. `scratch` — im2col + blocked integer GEMM with one reusable
//!    [`EngineScratch`] arena (`run_with_scratch`, zero per-image allocation);
//! 3. `auto` — the default plan (`ConvStrategy::Auto`): activations stay
//!    bit-packed between popcount MVTU kernels (runtime-dispatched backend)
//!    wherever the domains allow, tap rows or GEMM elsewhere, same reused
//!    scratch arena;
//! 4. `batch_runner` — the default plan sharded across scoped worker
//!    threads ([`BatchRunner`] with one scratch per worker).
//!
//! All paths are asserted bit-identical before any timing starts.
//!
//! Set `ADAFLOW_BENCH_SMOKE=1` to run a fast configuration (tiny topology,
//! batch 8, short measurement window) — used as the CI smoke check. The
//! default full mode measures CNV-W2A2 on a CIFAR-10-like batch of 64.
//! `ADAFLOW_FORCE_SCALAR=1` pins the packed variants to the portable SWAR
//! kernels for an apples-to-apples SIMD ablation.

use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn smoke_mode() -> bool {
    std::env::var("ADAFLOW_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

struct Setup {
    graph: CnnGraph,
    images: Vec<Activations>,
    tag: &'static str,
}

fn setup() -> Setup {
    if smoke_mode() {
        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let data = SyntheticDataset::new(DatasetSpec::tiny(4), 42);
        let images = data.batch(0, 8).into_iter().map(|s| s.image).collect();
        Setup {
            graph,
            images,
            tag: "tiny_batch8",
        }
    } else {
        let graph = topology::cnv_w2a2_cifar10().expect("builds");
        let data = SyntheticDataset::new(DatasetSpec::cifar10_like(), 42);
        let images = data.batch(0, 64).into_iter().map(|s| s.image).collect();
        Setup {
            graph,
            images,
            tag: "cnv_batch64",
        }
    }
}

fn engine(graph: &CnnGraph, strategy: ConvStrategy) -> Engine<'_> {
    Engine::new(graph).expect("engine").with_strategy(strategy)
}

/// Labels via one engine with a reused scratch arena.
fn scratch_labels(engine: &Engine, images: &[Activations]) -> Vec<usize> {
    let mut scratch = engine.scratch();
    images
        .iter()
        .map(|img| {
            engine
                .run_with_scratch(img, &mut scratch)
                .expect("runs")
                .label
        })
        .collect()
}

/// The pre-optimization path: direct convolution, fresh allocations per run.
fn baseline_labels(graph: &CnnGraph, images: &[Activations]) -> Vec<usize> {
    let engine = engine(graph, ConvStrategy::Direct);
    images
        .iter()
        .map(|img| engine.run(img).expect("runs").label)
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let Setup { graph, images, tag } = setup();
    let backend = Engine::new(&graph).expect("engine").packed_backend();

    // Bit-exactness gate: every path must agree before timing means
    // anything. The direct path is the oracle.
    let baseline = baseline_labels(&graph, &images);
    for strategy in [ConvStrategy::Im2col, ConvStrategy::Auto] {
        let labels = scratch_labels(&engine(&graph, strategy), &images);
        assert_eq!(baseline, labels, "{strategy:?} diverged from baseline");
    }
    for threads in [1, 2, 0] {
        let runner = BatchRunner::new(engine(&graph, ConvStrategy::Auto)).with_threads(threads);
        let labels = runner.run(&images).expect("batch");
        assert_eq!(
            baseline, labels,
            "batch runner with {threads} threads diverged from baseline"
        );
    }

    c.bench_function(&format!("engine_baseline_direct_{tag}"), |b| {
        b.iter(|| baseline_labels(black_box(&graph), black_box(&images)));
    });

    c.bench_function(&format!("engine_scratch_im2col_{tag}"), |b| {
        let engine = engine(&graph, ConvStrategy::Im2col);
        let mut scratch = engine.scratch();
        b.iter(|| {
            black_box(&images)
                .iter()
                .map(|img| {
                    engine
                        .run_with_scratch(img, &mut scratch)
                        .expect("runs")
                        .label
                })
                .collect::<Vec<_>>()
        });
    });

    c.bench_function(
        &format!("engine_scratch_auto_{}_{tag}", backend.label()),
        |b| {
            let engine = engine(&graph, ConvStrategy::Auto);
            let mut scratch = engine.scratch();
            b.iter(|| {
                black_box(&images)
                    .iter()
                    .map(|img| {
                        engine
                            .run_with_scratch(img, &mut scratch)
                            .expect("runs")
                            .label
                    })
                    .collect::<Vec<_>>()
            });
        },
    );

    c.bench_function(
        &format!("engine_batch_runner_auto_{}_{tag}", backend.label()),
        |b| {
            let runner = BatchRunner::new(engine(&graph, ConvStrategy::Auto));
            b.iter(|| runner.run(black_box(&images)).expect("batch"));
        },
    );
}

fn config() -> Criterion {
    if smoke_mode() {
        Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(20))
            .measurement_time(Duration::from_millis(200))
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(8))
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine_throughput
}
criterion_main!(benches);
