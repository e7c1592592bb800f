//! Ablation studies on AdaFlow's user-tunable design parameters, beyond the
//! paper's fixed evaluation point (threshold 10 %, criterion 10×, full
//! reconfiguration):
//!
//! 1. **Accuracy threshold** — the paper notes "for applications that
//!    tolerate accuracy thresholds larger than the one in use (10%), larger
//!    performance and efficiency gains are expected". Verified here.
//! 2. **Switch-interval criterion** — the fixed-vs-flexible rule's knob
//!    ("can be fine-tuned depending on the application and FPGA at hand").
//! 3. **Frame buffer size** — serving-stack parameter of the Edge server.
//! 4. **Partial reconfiguration** — an extension (paper ref. 16): shrink
//!    the reconfigurable region and watch fixed-accelerator switching get
//!    competitive with the flexible fabric.
//!
//! ```text
//! cargo run --release -p adaflow-bench --bin ablations [--runs N]
//! ```

use adaflow::{RuntimeConfig, RuntimeManager};
use adaflow_bench::{header, row, runs_arg, Combo};
use adaflow_edge::{Experiment, Scenario, SimConfig, WorkloadSpec};
use adaflow_hls::ReconfigurationModel;
use adaflow_model::QuantSpec;
use adaflow_nn::DatasetKind;

fn main() {
    let runs = runs_arg().min(50);
    let combo = Combo {
        dataset: DatasetKind::Cifar10,
        quant: QuantSpec::w2a2(),
    };
    let library = combo.build_library();
    println!("Ablations on {} ({runs} runs per point)\n", combo.label());

    // 1. Accuracy threshold sweep (Scenario 2: adaptation matters most).
    println!("## Accuracy threshold (Scenario 2)");
    println!(
        "{}",
        header(&[
            "threshold (pts)",
            "frame loss (%)",
            "QoE (%)",
            "mean acc (%)",
            "eff (inf/J)"
        ])
    );
    let experiment =
        Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Unpredictable)).runs(runs);
    for threshold in [0.0, 2.0, 5.0, 10.0, 15.0, 25.0, 40.0] {
        let config = RuntimeConfig {
            accuracy_threshold_points: threshold,
            ..RuntimeConfig::default()
        };
        let m = experiment.run_adaflow(config);
        println!(
            "{}",
            row(&[
                format!("{threshold:.0}"),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.2}", m.qoe_pct),
                format!("{:.2}", m.mean_accuracy_pct),
                format!("{:.0}", m.inferences_per_joule),
            ])
        );
    }
    println!();

    // 2. Switch-interval criterion sweep (Scenario 1+2: governs the fabric
    //    transition).
    println!("## Switch-interval criterion (Scenario 1+2)");
    println!(
        "{}",
        header(&[
            "criterion (x reconf)",
            "loss (%)",
            "reconfigs",
            "flexible switches",
            "power (W)"
        ])
    );
    let shifting =
        Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Shifting)).runs(runs);
    for multiple in [1.0, 3.0, 10.0, 30.0, 100.0] {
        let config = RuntimeConfig {
            switch_interval_multiple: multiple,
            ..RuntimeConfig::default()
        };
        let m = shifting.run_adaflow(config);
        println!(
            "{}",
            row(&[
                format!("{multiple:.0}x"),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.1}", m.reconfigurations),
                format!("{:.1}", m.flexible_switches),
                format!("{:.2}", m.avg_power_w),
            ])
        );
    }
    println!();

    // 3. Frame buffer size (Scenario 2).
    println!("## Frame buffer capacity (Scenario 2)");
    println!("{}", header(&["buffer (frames)", "loss (%)", "QoE (%)"]));
    for buffer in [8.0, 32.0, 64.0, 256.0, 1024.0] {
        let m = Experiment::new(&library, WorkloadSpec::paper_edge(Scenario::Unpredictable))
            .runs(runs)
            .sim_config(SimConfig {
                buffer_frames: buffer,
                ..SimConfig::default()
            })
            .run_adaflow(RuntimeConfig::default());
        println!(
            "{}",
            row(&[
                format!("{buffer:.0}"),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.2}", m.qoe_pct),
            ])
        );
    }
    println!();

    // 3b. Bursty on/off traffic (cameras waking on motion events): the
    //     hardest adaptation case — full-surge to near-idle transitions.
    println!("## Bursty traffic (surge +50%, idle 20%, 2.5 s phases)");
    println!(
        "{}",
        header(&["policy", "loss (%)", "QoE (%)", "switches", "power (W)"])
    );
    let bursty = Experiment::new(
        &library,
        WorkloadSpec {
            scenario: Scenario::Bursty {
                surge: 0.5,
                idle: 0.2,
                period_s: 2.5,
            },
            ..WorkloadSpec::paper_edge(Scenario::Stable)
        },
    )
    .runs(runs);
    let ada = bursty.run_adaflow(RuntimeConfig::default());
    let finn = bursty.run_original_finn();
    for (name, m) in [("adaflow", &ada), ("original-finn", &finn)] {
        println!(
            "{}",
            row(&[
                name.to_string(),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.2}", m.qoe_pct),
                format!("{:.1}", m.model_switches),
                format!("{:.2}", m.avg_power_w),
            ])
        );
    }
    println!();

    // 4. Partial reconfiguration (Scenario 2): smaller regions shrink the
    //    criterion (10 x reconfig time) and the per-switch stall, shifting
    //    the fixed/flexible balance.
    println!("## Partial reconfiguration region (Scenario 2)");
    println!(
        "{}",
        header(&[
            "region",
            "reconf time (ms)",
            "criterion (s)",
            "loss (%)",
            "reconfigs",
            "flex switches"
        ])
    );
    for fraction in [1.0, 0.5, 0.25, 0.1] {
        let reconfig = ReconfigurationModel::partial(fraction);
        let config = RuntimeConfig {
            reconfig,
            ..RuntimeConfig::default()
        };
        let manager = RuntimeManager::new(&library, config.clone());
        let criterion = manager.switch_criterion_s();
        let t_ms = reconfig
            .reconfiguration_time(&library.baseline.bitstream)
            .as_secs_f64()
            * 1e3;
        let m = experiment.run_adaflow(config);
        println!(
            "{}",
            row(&[
                format!("{:.0}%", fraction * 100.0),
                format!("{t_ms:.0}"),
                format!("{criterion:.2}"),
                format!("{:.2}", m.frame_loss_pct),
                format!("{:.1}", m.reconfigurations),
                format!("{:.1}", m.flexible_switches),
            ])
        );
    }
}
