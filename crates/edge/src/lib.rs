//! # adaflow-edge — Edge inference-serving simulation
//!
//! Reproduces the paper's evaluation environment (§V): an FPGA-equipped
//! Edge server receiving camera frames from 20 IoT devices at a nominal
//! 30 FPS each, under fluctuating workload scenarios, serving CNN
//! inferences through one of the paper's policies:
//!
//! * **Original FINN** — the static baseline, synthesized once
//!   ([`FixedMaxPolicy`]);
//! * **Pruning-Reconf** — model switching with fixed accelerators only,
//!   paying a configurable FPGA reconfiguration time per switch (the
//!   Fig. 1(b) motivation experiment; [`PruningReconfPolicy`]);
//! * **AdaFlow** — the full Runtime Manager with fixed *and* flexible
//!   accelerators ([`AdaFlowServePolicy`]).
//!
//! [`policy`] holds these, [`FlexibleOnlyPolicy`], their one table
//! [`PolicyKind`] and the one [`ServePolicy`] trait they share with the
//! request-level simulators (`adaflow-serve`, `adaflow-fleet`) and the live
//! server; this crate consults them with each segment's nominal rate.
//!
//! The server is modelled as a fluid queue with a finite frame buffer:
//! frames arrive at the workload rate, are served at the loaded
//! accelerator's throughput, queue while the buffer has room and are lost
//! beyond it; reconfiguration/switch stalls suspend service. Power is
//! integrated from the synthesized accelerators' power models with
//! duty-cycle and fabric-activity scaling, yielding the paper's metrics:
//! frame loss, QoE (accuracy × fraction of processed frames), average
//! power and power efficiency (inferences per joule).
//!
//! ## Quickstart
//!
//! ```no_run
//! use adaflow::prelude::*;
//! use adaflow_edge::prelude::*;
//! use adaflow_model::prelude::*;
//! use adaflow_nn::DatasetKind;
//!
//! let library = LibraryGenerator::default_edge_setup()
//!     .generate(&topology::cnv_w2a2_cifar10()?, DatasetKind::Cifar10)?;
//! let spec = WorkloadSpec::paper_edge(Scenario::Stable);
//! let metrics = Experiment::new(&library, spec)
//!     .runs(100)
//!     .run_adaflow(RuntimeConfig::default());
//! println!("frame loss: {:.2}%", metrics.frame_loss_pct);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod metrics;
pub mod monitor;
pub mod policy;
pub mod sim;
pub mod workload;

pub use experiment::{Experiment, Seeds};
pub use metrics::{trace_to_csv, RunMetrics, TracePoint};
pub use monitor::{MonitoredPolicy, RateMonitor};
pub use policy::{
    AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, PolicyKind, PruningReconfPolicy,
    ServePolicy, ServingState,
};
pub use sim::{EdgeSim, SimConfig};
pub use workload::{Scenario, WorkloadSegment, WorkloadSpec};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::experiment::{Experiment, Seeds};
    pub use crate::metrics::{trace_to_csv, RunMetrics, TracePoint};
    pub use crate::monitor::{MonitoredPolicy, RateMonitor};
    pub use crate::policy::{
        AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, PolicyKind, PruningReconfPolicy,
        ServePolicy, ServingState,
    };
    pub use crate::sim::{EdgeSim, SimConfig};
    pub use crate::workload::{Scenario, WorkloadSegment, WorkloadSpec};
}
