//! Criterion bench: telemetry overhead on the serving hot path.
//!
//! Compares a full 25-second `EdgeSim::run` of the AdaFlow policy under
//! Scenario 2 with (a) the default `NullSink` (instrumentation compiled in
//! but disabled — must stay within noise of the pre-telemetry simulator)
//! and (b) a live ring-buffer `Recorder` capturing every event.

use adaflow::{LibraryGenerator, RuntimeConfig};
use adaflow_edge::{AdaFlowServePolicy, EdgeSim, Scenario, SimConfig, WorkloadSpec};
use adaflow_model::topology;
use adaflow_nn::DatasetKind;
use adaflow_telemetry::SinkHandle;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_telemetry(c: &mut Criterion) {
    let library = LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates");
    let segments = WorkloadSpec::paper_edge(Scenario::Unpredictable).generate(1);

    c.bench_function("edge_run_null_sink", |b| {
        b.iter(|| {
            let mut policy = AdaFlowServePolicy::new(&library, RuntimeConfig::default());
            EdgeSim::new(SimConfig::default())
                .run(&mut policy, black_box(&segments))
                .0
        });
    });

    c.bench_function("edge_run_recording_sink", |b| {
        b.iter(|| {
            let (sink, recorder) = SinkHandle::recorder(1 << 16);
            let mut policy =
                AdaFlowServePolicy::new(&library, RuntimeConfig::default()).with_sink(sink.clone());
            let metrics = EdgeSim::new(SimConfig::default())
                .with_sink(sink)
                .run(&mut policy, black_box(&segments))
                .0;
            black_box(recorder.len());
            metrics
        });
    });
}

criterion_group! {
    name = benches;
    // Each iteration is a full 25 s serving simulation; keep samples low.
    config = Criterion::default().sample_size(20);
    targets = bench_telemetry
}
criterion_main!(benches);
