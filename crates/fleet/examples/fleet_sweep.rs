//! Reproduces the fleet-scaling table in `EXPERIMENTS.md`: deadline-hit
//! rate versus fleet size (1/2/4/8 AdaFlow devices) for every routing
//! policy, averaged over 20 seeded Scenario-2 runs at a fixed total
//! offered load.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p adaflow-fleet --example fleet_sweep
//! ```

use adaflow::{Library, LibraryGenerator};
use adaflow_edge::{Scenario, Seeds, WorkloadSpec};
use adaflow_fleet::{FleetConfig, FleetEngine, FleetSummary, PolicyKind, RouterKind};
use adaflow_nn::DatasetKind;

const SEEDS: usize = 20;
const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The fleet's summary averaged over `SEEDS` seeded runs from seed 1.
fn mean_summary(library: &Library, spec: &WorkloadSpec, config: FleetConfig) -> FleetSummary {
    let engine = FleetEngine::new(config);
    let runs = Seeds::new(1, SEEDS).map(|seed| engine.run(library, spec, seed));
    FleetSummary::mean(&runs).expect("at least one run")
}

fn main() {
    let library = LibraryGenerator::default_edge_setup()
        .generate(
            &adaflow_model::topology::cnv_w2a2_cifar10().expect("topology builds"),
            DatasetKind::Cifar10,
        )
        .expect("library generates");

    // Fixed total offered load: 80 IoT devices at 30 FPS for 5 s
    // (2400 FPS aggregate) under the unpredictable paper scenario. The
    // load does NOT scale with fleet size, so the table shows how added
    // devices absorb the same demand.
    let spec = WorkloadSpec {
        devices: 80,
        fps_per_device: 30.0,
        duration_s: 5.0,
        scenario: Scenario::Unpredictable,
    };

    println!(
        "Scenario 2, {} FPS aggregate, deadline {} ms, {SEEDS} seeds",
        spec.nominal_fps(),
        250
    );
    println!();
    print!("| router |");
    for n in FLEET_SIZES {
        print!(" {n} dev |");
    }
    println!();
    print!("|---|");
    for _ in FLEET_SIZES {
        print!("---|");
    }
    println!();

    for router in RouterKind::ALL {
        print!("| {} |", router.name());
        for n in FLEET_SIZES {
            let config = FleetConfig {
                devices: vec![PolicyKind::AdaFlow; n],
                router,
                ..FleetConfig::default()
            };
            let summary = mean_summary(&library, &spec, config);
            assert!(summary.conservation_holds(), "conservation");
            print!(
                " {:.1}% hit / {:.1}% shed |",
                summary.deadline_hit_pct, summary.shed_pct
            );
        }
        println!();
    }

    // Heterogeneous mix (the acceptance fleet): two adaptive devices, one
    // flexible-only, one fixed-max. Routing policy matters here because
    // the fixed-max device saturates first and must be routed around.
    println!();
    println!("Heterogeneous 4-device fleet (adaflow,adaflow,flexible,fixed), same load:");
    println!();
    println!("| router | hit | shed | imbalance cv |");
    println!("|---|---|---|---|");
    for router in RouterKind::ALL {
        let config = FleetConfig {
            router,
            ..FleetConfig::default()
        };
        let summary = mean_summary(&library, &spec, config);
        assert!(summary.conservation_holds(), "conservation");
        println!(
            "| {} | {:.1}% | {:.1}% | {:.3} |",
            router.name(),
            summary.deadline_hit_pct,
            summary.shed_pct,
            summary.routed_share_cv
        );
    }
}
