//! Cross-commit pin: `ServeSummary` JSON written by commit 4700752 (the
//! last one whose `next_event` was a linear scan), compared byte for
//! byte. Regenerate only for a deliberate change of the simulation, and
//! say so in CHANGES.md.

use adaflow::{LibraryGenerator, RuntimeConfig};
use adaflow_edge::{Scenario, WorkloadSpec};
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;
use adaflow_serve::prelude::*;

/// Scenario 1+2, seed 7, one run of each of the three policies.
#[test]
fn three_policies_match_parent_summaries() {
    let lib = LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates");
    let serve = ServeExperiment::new(&lib, WorkloadSpec::paper_edge(Scenario::Shifting))
        .runs(1)
        .threads(1)
        .seed(7);
    let text: String = [
        serve.run_adaflow(RuntimeConfig::default()),
        serve.run_fixed_max(),
        serve.run_flexible_only(RuntimeConfig::default()),
    ]
    .iter()
    .map(|summary| serde_json::to_string(summary).expect("summaries serialise") + "\n")
    .collect();
    assert_eq!(text, include_str!("golden/serve_scenario1+2_seed7.jsonl"));
}
