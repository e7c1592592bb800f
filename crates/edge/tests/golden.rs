//! Cross-commit pin: averaged `RunMetrics` JSON written before the fluid
//! simulator's policies became `ServePolicy` users, compared byte for
//! byte. Regenerate only for a deliberate change of the simulation, and
//! say so in CHANGES.md.

use adaflow::{LibraryGenerator, RuntimeConfig};
use adaflow_edge::prelude::*;
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;
use std::time::Duration;

/// Scenarios 1, 2 and 1+2, ten runs from seed 7, each of the three paper
/// policies: AdaFlow, original FINN and Pruning-Reconf at 145 ms.
#[test]
fn three_policies_match_parent_metrics() {
    let lib = LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates");
    let mut text = String::new();
    for scenario in [
        Scenario::Stable,
        Scenario::Unpredictable,
        Scenario::Shifting,
    ] {
        let experiment = Experiment::new(&lib, WorkloadSpec::paper_edge(scenario))
            .runs(10)
            .seed(7);
        for metrics in [
            experiment.run_adaflow(RuntimeConfig::default()),
            experiment.run_original_finn(),
            experiment.run_pruning_reconf(Duration::from_millis(145)),
        ] {
            text += &serde_json::to_string(&metrics).expect("metrics serialise");
            text.push('\n');
        }
    }
    assert_eq!(text, include_str!("golden/edge_seed7.jsonl"));
}
