//! Cross-commit pin: `FleetSummary` JSON written by commit 4700752 (the
//! last one whose `next_event` scanned every device per event and whose
//! router read `Option`-carrying snapshots), compared byte for byte. The
//! benchmark prints digests of the same runs but compares them with
//! nothing; these files are the comparison. Regenerate one only for a
//! deliberate change of the simulation, and say so in CHANGES.md.

use adaflow::{Library, LibraryGenerator};
use adaflow_edge::{Scenario, WorkloadSpec};
use adaflow_fleet::prelude::*;
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;

fn library() -> Library {
    LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates")
}

/// `adaflow,adaflow,flexible,fixed`, `groups` times over.
fn fleet(groups: usize, router: RouterKind) -> FleetEngine {
    let group = [
        DeviceKind::AdaFlow,
        DeviceKind::AdaFlow,
        DeviceKind::FlexibleOnly,
        DeviceKind::FixedMax,
    ];
    FleetEngine::new(FleetConfig {
        devices: group.repeat(groups),
        router,
        ..FleetConfig::default()
    })
}

fn line(summary: &FleetSummary) -> String {
    serde_json::to_string(summary).expect("summaries serialise") + "\n"
}

/// The paper's scenario 2, seed 7, on one group under each router.
#[test]
fn four_device_fleet_matches_parent_summaries() {
    let lib = library();
    let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
    let text: String = RouterKind::ALL
        .into_iter()
        .map(|router| line(&fleet(1, router).run(&lib, &spec, 7)))
        .collect();
    assert_eq!(
        text,
        include_str!("golden/fleet_4dev_scenario2_seed7.jsonl")
    );
}

/// The benchmark's `des_fleet_wide` shape: eight groups under 160 cameras
/// at 30 FPS for 25 s, deadline-aware, the two seeds its digest absorbs.
#[test]
fn wide_fleet_matches_parent_summaries() {
    let lib = library();
    let spec = WorkloadSpec {
        devices: 160,
        ..WorkloadSpec::paper_edge(Scenario::Unpredictable)
    };
    let engine = fleet(8, RouterKind::DeadlineAware);
    let text: String = [7, 8]
        .into_iter()
        .map(|seed| line(&engine.run(&lib, &spec, seed)))
        .collect();
    assert_eq!(text, include_str!("golden/fleet_wide_seed7_8.jsonl"));
}
