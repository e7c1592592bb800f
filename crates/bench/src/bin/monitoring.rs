//! Oracle vs. monitored workload knowledge.
//!
//! The paper's Runtime Manager is driven by "performance monitors" that
//! estimate the incoming FPS; the headline experiments (like most such
//! evaluations) give the manager oracle knowledge of each workload segment.
//! This study quantifies the estimation gap: the same AdaFlow policy driven
//! by a sliding-window FPS monitor with change-detection hysteresis.
//!
//! ```text
//! cargo run --release -p adaflow-bench --bin monitoring [--runs N]
//! ```

use adaflow::RuntimeConfig;
use adaflow_bench::{header, row, runs_arg, Combo};
use adaflow_edge::{
    AdaFlowServePolicy, Experiment, MonitoredPolicy, RateMonitor, Scenario, WorkloadSpec,
};
use adaflow_model::QuantSpec;
use adaflow_nn::DatasetKind;

fn main() {
    let runs = runs_arg().min(50);
    let combo = Combo {
        dataset: DatasetKind::Cifar10,
        quant: QuantSpec::w2a2(),
    };
    let library = combo.build_library();
    println!(
        "Oracle vs monitored workload estimation ({}, {runs} runs)\n",
        combo.label()
    );
    println!(
        "{}",
        header(&[
            "scenario",
            "estimator",
            "loss (%)",
            "QoE (%)",
            "switches",
            "eff (inf/J)"
        ])
    );

    for scenario in [
        Scenario::Stable,
        Scenario::Unpredictable,
        Scenario::Shifting,
    ] {
        let experiment = Experiment::new(&library, WorkloadSpec::paper_edge(scenario)).runs(runs);
        let oracle = experiment.run_adaflow(RuntimeConfig::default());
        let lib = &library;
        let monitored = experiment.run_with(|| {
            Box::new(MonitoredPolicy::new(
                AdaFlowServePolicy::new(lib, RuntimeConfig::default()),
                RateMonitor::default_edge(),
            ))
        });
        for (name, m) in [("oracle", &oracle), ("monitored", &monitored)] {
            println!(
                "{}",
                row(&[
                    scenario.name().to_string(),
                    name.to_string(),
                    format!("{:.2}", m.frame_loss_pct),
                    format!("{:.2}", m.qoe_pct),
                    format!("{:.1}", m.model_switches),
                    format!("{:.0}", m.inferences_per_joule),
                ])
            );
        }
    }
    println!();
    println!(
        "Reading: the monitored manager reacts with one estimation window of lag and \
         filters small fluctuations through its hysteresis, trading a little frame loss \
         for fewer switches."
    );
}
