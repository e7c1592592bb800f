//! Criterion bench: the run-time side behind Table I and Fig. 6 — one full
//! 25-second Edge serving simulation per policy and scenario, plus the
//! Runtime Manager's decision path in isolation.

use adaflow::{LibraryGenerator, RuntimeConfig, RuntimeManager};
use adaflow_dataflow::AcceleratorKind;
use adaflow_edge::{
    AdaFlowServePolicy, EdgeSim, FixedMaxPolicy, Scenario, SimConfig, WorkloadSpec,
};
use adaflow_model::topology;
use adaflow_nn::DatasetKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_edge(c: &mut Criterion) {
    let library = LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates");

    for scenario in [
        Scenario::Stable,
        Scenario::Unpredictable,
        Scenario::Shifting,
    ] {
        let spec = WorkloadSpec::paper_edge(scenario);
        let segments = spec.generate(1);
        c.bench_function(&format!("serve_adaflow_{}", scenario.name()), |b| {
            b.iter(|| {
                let mut policy = AdaFlowServePolicy::new(&library, RuntimeConfig::default());
                EdgeSim::new(SimConfig::default())
                    .run(&mut policy, black_box(&segments))
                    .0
            });
        });
    }

    let spec = WorkloadSpec::paper_edge(Scenario::Stable);
    let segments = spec.generate(1);
    c.bench_function("serve_original_finn_scenario-1", |b| {
        b.iter(|| {
            let mut policy = FixedMaxPolicy::new(&library);
            EdgeSim::new(SimConfig::default())
                .run(&mut policy, black_box(&segments))
                .0
        });
    });

    c.bench_function("runtime_manager_decide", |b| {
        let mut manager = RuntimeManager::new(&library, RuntimeConfig::default());
        let mut t = 0.0;
        b.iter(|| {
            t += 0.5;
            manager.decide(black_box(t), black_box(600.0 + (t * 73.0) % 400.0));
        });
    });

    c.bench_function("runtime_manager_select_model", |b| {
        let manager = RuntimeManager::new(&library, RuntimeConfig::default());
        b.iter(|| manager.select_model(black_box(750.0), AcceleratorKind::FixedPruning));
    });

    c.bench_function("generate_library_cnv_cifar10", |b| {
        b.iter(|| {
            LibraryGenerator::default_edge_setup()
                .generate(
                    &topology::cnv_w2a2_cifar10().expect("builds"),
                    DatasetKind::Cifar10,
                )
                .expect("generates");
        });
    });
}

criterion_group! {
    name = benches;
    // Full serving runs and library generation are macro-benchmarks; keep
    // the sample count low so `cargo bench` stays in CI-friendly time.
    config = Criterion::default().sample_size(10);
    targets = bench_edge
}
criterion_main!(benches);
