//! Table I: frame loss, QoE, power and power efficiency for AdaFlow and
//! Original FINN over the full 25-second run, for all four dataset/CNN
//! combinations under Scenarios 1 and 2 (averaged over seeded runs).
//!
//! ```text
//! cargo run --release -p adaflow-bench --bin table1 [--runs N]
//! ```

use adaflow::RuntimeConfig;
use adaflow_bench::{header, row, runs_arg, Combo};
use adaflow_edge::{Experiment, Scenario, WorkloadSpec};

fn main() {
    let runs = runs_arg();
    println!("Table I — frame loss, QoE, power, power efficiency ({runs} runs per cell)");
    println!();
    println!(
        "{}",
        header(&[
            "Dataset / Model",
            "Scen.",
            "AdaFlow loss (%)",
            "FINN loss (%)",
            "AdaFlow QoE (%)",
            "FINN QoE (%)",
            "AdaFlow P (W)",
            "FINN P (W)",
            "Power eff. w.r.t. FINN",
        ])
    );

    let mut eff_ratios = Vec::new();
    let mut processed_ratios = Vec::new();
    let mut max_drop = 0.0f64;
    for combo in Combo::all() {
        let library = combo.build_library();
        for (scenario, label) in [(Scenario::Stable, "1"), (Scenario::Unpredictable, "2")] {
            let experiment =
                Experiment::new(&library, WorkloadSpec::paper_edge(scenario)).runs(runs);
            let ada = experiment.run_adaflow(RuntimeConfig::default());
            let finn = experiment.run_original_finn();
            let eff = ada.inferences_per_joule / finn.inferences_per_joule;
            eff_ratios.push(eff);
            processed_ratios.push(ada.processed / finn.processed);
            max_drop = max_drop.max(ada.max_accuracy_drop);
            println!(
                "{}",
                row(&[
                    combo.label(),
                    label.to_string(),
                    format!("{:.2}", ada.frame_loss_pct),
                    format!("{:.2}", finn.frame_loss_pct),
                    format!("{:.2}", ada.qoe_pct),
                    format!("{:.2}", finn.qoe_pct),
                    format!("{:.2}", ada.avg_power_w),
                    format!("{:.2}", finn.avg_power_w),
                    format!("{eff:.2}x"),
                ])
            );
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "Headline checks: mean power efficiency {:.2}x (paper: 1.27-1.4x avg); \
         mean processed-inference ratio {:.2}x (paper: ~1.3x); \
         max accuracy drop {:.1} pts (paper: 7.07 max / 4.6 avg)",
        mean(&eff_ratios),
        mean(&processed_ratios),
        max_drop
    );
}
