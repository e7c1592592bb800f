//! Fig. 6(a,b): frame-loss and QoE traces over the 25-second run for
//! CNVW2A2/CIFAR-10 under Scenarios 1, 2 and 1+2, with AdaFlow's model
//! switches and the change of dataflow (fabric) annotated.
//!
//! ```text
//! cargo run --release -p adaflow-bench --bin fig6
//! ```

use adaflow::RuntimeConfig;
use adaflow_bench::Combo;
use adaflow_edge::{
    trace_to_csv, AdaFlowServePolicy, Experiment, FixedMaxPolicy, Scenario, WorkloadSpec,
};
use adaflow_model::QuantSpec;
use adaflow_nn::DatasetKind;

fn main() {
    let combo = Combo {
        dataset: DatasetKind::Cifar10,
        quant: QuantSpec::w2a2(),
    };
    println!(
        "Figure 6 — frame loss (a) and QoE (b) traces ({})",
        combo.label()
    );
    let library = combo.build_library();

    for scenario in [
        Scenario::Stable,
        Scenario::Unpredictable,
        Scenario::Shifting,
    ] {
        println!();
        println!("=== {} ===", scenario.name());
        let experiment = Experiment::new(&library, WorkloadSpec::paper_edge(scenario));
        let lib = &library;
        let config = RuntimeConfig::default();
        let (ada_metrics, ada_trace) =
            experiment.trace_with(1, move || Box::new(AdaFlowServePolicy::new(lib, config)));
        let (finn_metrics, finn_trace) =
            experiment.trace_with(1, move || Box::new(FixedMaxPolicy::new(lib)));

        // Model-switch annotations: points where the serving model changes.
        println!("AdaFlow events:");
        let mut prev_model = String::new();
        let mut prev_accel = String::new();
        for p in &ada_trace {
            if p.model != prev_model || p.accelerator != prev_accel {
                if !prev_accel.is_empty() && p.accelerator != prev_accel {
                    println!(
                        "  t={:5.2}s  CHANGE OF DATAFLOW -> {}",
                        p.t_s, p.accelerator
                    );
                }
                if p.model != prev_model {
                    println!(
                        "  t={:5.2}s  switch -> {} ({})",
                        p.t_s, p.model, p.accelerator
                    );
                }
                prev_model.clone_from(&p.model);
                prev_accel.clone_from(&p.accelerator);
            }
        }

        println!();
        println!("t(s)   loss% AdaFlow  loss% FINN   QoE AdaFlow  QoE FINN");
        for i in (0..ada_trace.len()).step_by(100) {
            let a = &ada_trace[i];
            let f = &finn_trace[i];
            println!(
                "{:5.1}  {:12.2}  {:10.2}  {:11.2}  {:8.2}",
                a.t_s,
                a.cumulative_loss_pct,
                f.cumulative_loss_pct,
                a.cumulative_qoe_pct,
                f.cumulative_qoe_pct
            );
        }
        // Persist the curves for external plotting.
        let dir = std::path::Path::new("artifacts");
        if dir.is_dir() {
            let stem = scenario.name().replace('+', "-");
            let _ = std::fs::write(
                dir.join(format!("fig6_{stem}_adaflow.csv")),
                trace_to_csv(&ada_trace),
            );
            let _ = std::fs::write(
                dir.join(format!("fig6_{stem}_finn.csv")),
                trace_to_csv(&finn_trace),
            );
        }
        println!();
        println!(
            "Run summary: AdaFlow loss {:.2}% / QoE {:.2} / switches {:.0} \
             (reconf {:.0}, flexible {:.0}); FINN loss {:.2}% / QoE {:.2}",
            ada_metrics.frame_loss_pct,
            ada_metrics.qoe_pct,
            ada_metrics.model_switches,
            ada_metrics.reconfigurations,
            ada_metrics.flexible_switches,
            finn_metrics.frame_loss_pct,
            finn_metrics.qoe_pct
        );
    }
}
