//! Shape assertions for every table and figure of the paper's evaluation:
//! we do not chase the authors' absolute testbed numbers, but who wins, by
//! roughly what factor, and where the crossovers fall must match.

use adaflow::prelude::*;
use adaflow_edge::prelude::*;
use adaflow_model::prelude::*;
use adaflow_nn::DatasetKind;
use std::time::Duration;

fn cifar_library() -> Library {
    LibraryGenerator::default_edge_setup()
        .generate(
            &topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        )
        .expect("generates")
}

/// Fig. 1(a): accuracy falls and FPS rises monotonically over the sweep,
/// with a large end-to-end throughput gain.
#[test]
fn fig1a_accuracy_fps_tradeoff() {
    let library = cifar_library();
    let entries = library.entries();
    for pair in entries.windows(2) {
        assert!(pair[1].accuracy <= pair[0].accuracy + 1e-9);
        assert!(pair[1].fixed.throughput_fps >= pair[0].fixed.throughput_fps - 1e-9);
    }
    let gain =
        entries.last().expect("nonempty").fixed.throughput_fps / entries[0].fixed.throughput_fps;
    assert!(gain > 5.0, "end-to-end FPS gain only {gain}");
}

/// Fig. 1(b): frame loss grows with reconfiguration time; slow
/// reconfiguration (>= ~300 ms) is no better than never switching; the
/// ideal 0 ms switch approaches zero loss.
#[test]
fn fig1b_reconfiguration_time_crossover() {
    let library = cifar_library();
    let mut spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
    spec.scenario = Scenario::Custom {
        deviation: 0.7,
        period_s: 0.35,
    };
    let experiment = Experiment::new(&library, spec).runs(10);

    let finn = experiment.run_original_finn();
    let sweep: Vec<f64> = [0u64, 72, 145, 290, 362]
        .into_iter()
        .map(|ms| {
            experiment
                .run_pruning_reconf(Duration::from_millis(ms))
                .frame_loss_pct
        })
        .collect();
    // Monotone in reconfiguration time.
    for pair in sweep.windows(2) {
        assert!(pair[1] >= pair[0] - 0.5, "loss not monotone: {sweep:?}");
    }
    // Ideal switching nearly eliminates loss; fast real switching wins big.
    assert!(sweep[0] < 3.0, "0 ms loss {}", sweep[0]);
    assert!(
        sweep[2] < finn.frame_loss_pct * 0.6,
        "145 ms should clearly win"
    );
    // The slow end loses (almost) the whole benefit.
    assert!(
        sweep[4] > finn.frame_loss_pct * 0.85,
        "362 ms loss {} vs FINN {}",
        sweep[4],
        finn.frame_loss_pct
    );
}

/// Fig. 5(a): flexible ≈ 2x FINN LUTs with unchanged BRAM; fixed sheds up
/// to ~half the LUTs; BRAM is the dominant resource for FINN.
#[test]
fn fig5a_resource_shapes() {
    let library = cifar_library();
    let finn = &library.baseline.resources;
    let flex = &library.flexible.resources;
    let ratio = flex.lut as f64 / finn.lut as f64;
    assert!((1.7..=2.1).contains(&ratio), "flexible LUT ratio {ratio}");
    assert_eq!(flex.bram36, finn.bram36);
    let p85 = &library.entries()[17].fixed.resources;
    let reduction = 1.0 - p85.lut as f64 / finn.lut as f64;
    assert!(
        (0.35..=0.55).contains(&reduction),
        "85% LUT reduction {reduction}"
    );
}

/// Fig. 5(b,c): energy per inference falls with pruning on both fabric
/// types; fixed is always at least as efficient as flexible; the 25%
/// operating point saves energy by a paper-like factor.
#[test]
fn fig5bc_energy_accuracy_shapes() {
    for (graph, dataset) in [
        (
            topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        ),
        (
            topology::cnv_w2a2_gtsrb().expect("builds"),
            DatasetKind::Gtsrb,
        ),
    ] {
        let library = LibraryGenerator::default_edge_setup()
            .generate(&graph, dataset)
            .expect("generates");
        let base = &library.baseline;
        let base_energy = base.power.energy_per_inference_j(base.throughput_fps, 1.0);
        let mut prev_fixed = f64::INFINITY;
        for e in library.entries() {
            let fixed = e
                .fixed
                .power
                .energy_per_inference_j(e.fixed.throughput_fps, 1.0);
            let flex = library
                .flexible
                .power
                .energy_per_inference_j(e.flexible_fps, e.flexible_activity);
            assert!(
                fixed <= flex,
                "fixed must be at least as efficient at {}",
                e.name
            );
            assert!(
                fixed <= prev_fixed + 1e-12,
                "fixed energy not monotone at {}",
                e.name
            );
            prev_fixed = fixed;
        }
        let p25 = &library.entries()[5];
        let fixed25 = p25
            .fixed
            .power
            .energy_per_inference_j(p25.fixed.throughput_fps, 1.0);
        let saving = base_energy / fixed25;
        assert!(
            (1.3..=2.5).contains(&saving),
            "25% fixed energy saving {saving}"
        );
    }
}

/// Table I: AdaFlow beats original FINN on frame loss, QoE and power
/// efficiency for every dataset/model pair and both scenarios; scenario 1
/// reaches near-zero loss; power efficiency gains land in the paper's band.
#[test]
fn table1_adaflow_dominates_finn() {
    for (graph, dataset) in [
        (
            topology::cnv_w2a2_cifar10().expect("builds"),
            DatasetKind::Cifar10,
        ),
        (
            topology::cnv_w1a2_gtsrb().expect("builds"),
            DatasetKind::Gtsrb,
        ),
    ] {
        let library = LibraryGenerator::default_edge_setup()
            .generate(&graph, dataset)
            .expect("generates");
        for scenario in [Scenario::Stable, Scenario::Unpredictable] {
            let experiment = Experiment::new(&library, WorkloadSpec::paper_edge(scenario)).runs(8);
            let ada = experiment.run_adaflow(RuntimeConfig::default());
            let finn = experiment.run_original_finn();
            assert!(ada.frame_loss_pct < finn.frame_loss_pct);
            assert!(ada.qoe_pct > finn.qoe_pct);
            let eff = ada.inferences_per_joule / finn.inferences_per_joule;
            assert!(
                (1.0..=2.0).contains(&eff),
                "{dataset:?}/{scenario:?} eff {eff}"
            );
            if scenario == Scenario::Stable {
                assert!(
                    ada.frame_loss_pct < 2.0,
                    "scenario 1 loss {}",
                    ada.frame_loss_pct
                );
            }
        }
    }
}

/// Fig. 6: the shifting scenario starts on fixed accelerators and changes
/// dataflow to the flexible fabric after the 15 s regime shift, after which
/// switches are fast (no reconfiguration).
#[test]
fn fig6_change_of_dataflow_after_regime_shift() {
    let library = cifar_library();
    let experiment = Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Shifting));
    let lib = &library;
    let config = RuntimeConfig::default();
    let (metrics, trace) =
        experiment.trace_with(1, move || Box::new(AdaFlowServePolicy::new(lib, config)));

    // Early phase on fixed, late phase on flexible.
    let early: Vec<&str> = trace
        .iter()
        .filter(|p| p.t_s < 14.0)
        .map(|p| p.accelerator.as_str())
        .collect();
    assert!(
        early.iter().all(|&a| a == "fixed"),
        "early phase must stay fixed"
    );
    let late_flexible = trace
        .iter()
        .filter(|p| p.t_s > 20.0 && p.accelerator == "flexible")
        .count();
    assert!(
        late_flexible > 0,
        "late phase must reach the flexible fabric"
    );
    assert!(metrics.flexible_switches >= 1.0);
    // Quality shape: better than FINN in the same run.
    let (finn_metrics, _) = experiment.trace_with(1, move || Box::new(FixedMaxPolicy::new(lib)));
    assert!(metrics.frame_loss_pct < finn_metrics.frame_loss_pct);
    assert!(metrics.qoe_pct > finn_metrics.qoe_pct);
}

/// Scenario 2 switching profile: many model switches, dominated by fast
/// flexible switches rather than reconfigurations.
#[test]
fn scenario2_switching_profile() {
    let library = cifar_library();
    let experiment =
        Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Unpredictable)).runs(10);
    let ada = experiment.run_adaflow(RuntimeConfig::default());
    assert!(ada.model_switches >= 5.0, "switches {}", ada.model_switches);
    assert!(
        ada.flexible_switches > ada.reconfigurations,
        "flexible {} vs reconf {}",
        ada.flexible_switches,
        ada.reconfigurations
    );
}
