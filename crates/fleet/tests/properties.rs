//! Property-based tests of the fleet invariants: bit determinism across
//! worker-thread counts, request conservation on the observable event
//! record, and the stagger budget.

use adaflow::{Library, LibraryGenerator};
use adaflow_edge::{Scenario, Seeds, WorkloadSpec};
use adaflow_fleet::prelude::*;
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;
use adaflow_telemetry::{EventKind, SinkHandle};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        LibraryGenerator::default_edge_setup()
            .generate(
                &topology::cnv_w2a2_cifar10().expect("builds"),
                DatasetKind::Cifar10,
            )
            .expect("generates")
    })
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        devices: 6,
        fps_per_device: 30.0,
        duration_s: 2.5,
        scenario: Scenario::Unpredictable,
    }
}

fn kind(choice: u8) -> PolicyKind {
    match choice % 3 {
        0 => PolicyKind::AdaFlow,
        1 => PolicyKind::FixedMax,
        _ => PolicyKind::FlexibleOnly,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The multi-seed fleet mean is bit-identical for 1, 2 and N worker
    /// threads: sharding runs across workers must never change a single
    /// bit of the averaged summary.
    #[test]
    fn fleet_mean_identical_across_thread_counts(
        seed in 0u64..1_000,
        router_idx in 0usize..4,
        n in 1usize..5,
    ) {
        let config = FleetConfig {
            devices: vec![PolicyKind::AdaFlow; n],
            router: RouterKind::ALL[router_idx],
            ..FleetConfig::default()
        };
        let engine = FleetEngine::new(config);
        let mean = |threads| {
            let seeds = Seeds { threads, ..Seeds::new(seed, 3) };
            let runs = seeds.map(|seed| engine.run(library(), &spec(), seed));
            FleetSummary::mean(&runs).expect("three runs")
        };
        let serial = mean(1);
        let two = mean(2);
        let auto = mean(0);
        prop_assert_eq!(&serial, &two, "2 workers diverged from serial");
        prop_assert_eq!(&serial, &auto, "auto workers diverged from serial");
        prop_assert!(serial.conservation_holds());
    }

    /// Conservation on the observable record: every generated request is
    /// routed exactly once to a valid device, and every routed request is
    /// either completed or shed exactly once — nothing lost, duplicated,
    /// or left in flight.
    #[test]
    fn every_request_routed_once_and_resolved_once(
        seed in 0u64..1_000,
        router_idx in 0usize..4,
        kinds in proptest::collection::vec(0u8..3, 1..5),
    ) {
        let devices: Vec<PolicyKind> = kinds.iter().copied().map(kind).collect();
        let n = devices.len();
        let config = FleetConfig {
            devices,
            router: RouterKind::ALL[router_idx],
            ..FleetConfig::default()
        };
        let (sink, recorder) = SinkHandle::recorder(1 << 18);
        let summary = FleetEngine::new(config).with_sink(sink).run(library(), &spec(), seed);
        let mut routed = BTreeSet::new();
        let mut completed = BTreeSet::new();
        let mut shed = BTreeSet::new();
        for e in recorder.drain() {
            match e.kind {
                EventKind::RequestRouted { id, device_idx, .. } => {
                    prop_assert!((device_idx as usize) < n, "routed to device {device_idx} of {n}");
                    prop_assert!(routed.insert(id), "id {id} routed twice");
                }
                EventKind::RequestCompleted { id, .. } => {
                    prop_assert!(completed.insert(id), "id {id} completed twice");
                    prop_assert!(routed.contains(&id), "id {id} completed unrouted");
                }
                EventKind::RequestShed { id, .. } => {
                    prop_assert!(shed.insert(id), "id {id} shed twice");
                }
                _ => {}
            }
        }
        prop_assert!(completed.is_disjoint(&shed), "id both completed and shed");
        prop_assert_eq!(routed.len() as f64, summary.arrived);
        prop_assert_eq!(completed.len() as f64, summary.completed);
        prop_assert_eq!(shed.len() as f64, summary.shed);
        prop_assert!(summary.conservation_holds());
        let resolved: BTreeSet<_> = completed.union(&shed).copied().collect();
        prop_assert_eq!(routed, resolved, "request neither completed nor shed");
    }

    /// Fleet span trees are well-formed for every random fleet shape ×
    /// router × seed: one tree per completion, every tree carries the
    /// route marker and a valid serving-device index, and the waterfall's
    /// stage durations tile the end-to-end latency.
    #[test]
    fn fleet_span_forest_well_formed_and_tiles(
        seed in 0u64..1_000,
        router_idx in 0usize..4,
        kinds in proptest::collection::vec(0u8..3, 1..5),
    ) {
        use adaflow_telemetry::{SpanRecord, Stage, TraceForest, Waterfall};
        let devices: Vec<PolicyKind> = kinds.iter().copied().map(kind).collect();
        let n = devices.len() as u32;
        let config = FleetConfig {
            devices,
            router: RouterKind::ALL[router_idx],
            ..FleetConfig::default()
        };
        let (sink, recorder) = SinkHandle::recorder(1 << 18);
        let summary = FleetEngine::new(config).with_sink(sink).run(library(), &spec(), seed);
        let forest = TraceForest::from_events(&recorder.drain());
        prop_assert!(forest.validate().is_ok(), "invalid forest: {:?}", forest.validate());
        prop_assert_eq!(forest.len() as f64, summary.completed, "one trace per completion");
        for trace in &forest.traces {
            let root = trace.root().expect("validated");
            prop_assert!(root.device_idx < n, "device {} of {n}", root.device_idx);
            prop_assert!(
                trace.spans.iter().any(|r| r.span == Stage::Route.span_id()),
                "fleet trace {} lacks the route marker", trace.id.0
            );
            let leaf_sum: f64 = Stage::LEAVES
                .iter()
                .map(|stage| {
                    trace
                        .spans
                        .iter()
                        .find(|r| r.span == stage.span_id())
                        .map_or(0.0, SpanRecord::duration_s)
                })
                .sum();
            prop_assert!((leaf_sum - root.duration_s()).abs() < 1e-9,
                "trace {}: stages must tile end-to-end", trace.id.0);
        }
        let waterfall = Waterfall::from_forest(&forest, 3);
        prop_assert!(waterfall.attribution_residual_s < 1e-9);
        prop_assert!(waterfall.per_device.len() <= n as usize);
    }

    /// The stagger budget holds for every K: no interleaving of device
    /// reconfigurations ever has more than `max_concurrent_drains` drain
    /// windows overlapping.
    #[test]
    fn stagger_budget_never_exceeded(
        seed in 0u64..1_000,
        k in 1usize..4,
        n in 2usize..6,
    ) {
        let config = FleetConfig {
            devices: vec![PolicyKind::AdaFlow; n],
            max_concurrent_drains: k,
            ..FleetConfig::default()
        };
        let summary = FleetEngine::new(config).run(library(), &spec(), seed);
        prop_assert!(
            summary.observed_max_drains <= k as f64,
            "budget {k} exceeded: {} concurrent drains",
            summary.observed_max_drains
        );
        prop_assert!(summary.conservation_holds());
    }
}
