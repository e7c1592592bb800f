//! # adaflow-serve — request-level serving
//!
//! Turns the fluid frame-mass model of `adaflow-edge` into a
//! request-granular serving layer: every frame from the paper's 20 IoT
//! devices becomes a timestamped [`Request`] that passes through a bounded
//! admission queue, a dynamic batcher sized for `adaflow_nn::BatchRunner`,
//! and a policy-controlled accelerator — with per-request deadline
//! accounting rather than aggregate loss percentages.
//!
//! The layer answers the question the fluid model cannot: *which* requests
//! miss their deadline, by how much, and what admission control does about
//! it. The Runtime Manager is driven from *observed* pressure — an EWMA of
//! inter-arrival rates plus queue backlog (`adaflow::PressureSignal`) — not
//! from the workload oracle the fluid simulator uses.
//!
//! ## Structure
//!
//! * [`arrivals`] — deterministic per-device request generation;
//! * [`queue`] — bounded FIFO admission with block / shed-oldest /
//!   shed-newest overflow;
//! * [`config`] — [`ServeConfig`] plus the SV001/SV002 lint rules;
//! * [`policy`] — pressure-driven policies (AdaFlow, fixed-max,
//!   flexible-only);
//! * [`device`] — the reusable per-device core (admission, batch close,
//!   completion accounting) that the single-device engine, the
//!   `adaflow-fleet` simulator and the live server (`adaflow-net`) all
//!   drive;
//! * [`engine`] — the discrete-event serving loop with telemetry, and the
//!   earliest-event picker the fleet engine shares;
//! * [`experiment`] — seeded multi-run driver mirroring
//!   `adaflow_edge::Experiment`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use adaflow::prelude::*;
//! use adaflow_edge::prelude::*;
//! use adaflow_model::prelude::*;
//! use adaflow_nn::DatasetKind;
//! use adaflow_serve::prelude::*;
//!
//! let library = LibraryGenerator::default_edge_setup()
//!     .generate(&topology::cnv_w2a2_cifar10()?, DatasetKind::Cifar10)?;
//! let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
//! let summary = ServeExperiment::new(&library, spec)
//!     .runs(100)
//!     .run_adaflow(RuntimeConfig::default());
//! println!("deadline hits: {:.2}%", summary.deadline_hit_pct);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod config;
pub mod device;
pub mod engine;
pub mod experiment;
pub mod policy;
pub mod queue;
pub mod request;
pub mod summary;
pub mod tracing;

pub use arrivals::generate_requests;
pub use config::ServeConfig;
pub use device::{BatchClose, DeviceCore, DeviceStats};
pub use engine::{scan_next_event, Devices, Pick, ServeEngine};
pub use experiment::ServeExperiment;
pub use policy::{AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, ServePolicy};
pub use queue::{Admission, AdmissionQueue, Arriving, OverflowPolicy};
pub use request::{CompletedRequest, Request};
pub use summary::ServeSummary;
pub use tracing::{emit_request_trace, emit_request_traces};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::arrivals::generate_requests;
    pub use crate::config::ServeConfig;
    pub use crate::device::{BatchClose, DeviceCore, DeviceStats};
    pub use crate::engine::{scan_next_event, Devices, Pick, ServeEngine};
    pub use crate::experiment::ServeExperiment;
    pub use crate::policy::{AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy, ServePolicy};
    pub use crate::queue::{Admission, AdmissionQueue, Arriving, OverflowPolicy};
    pub use crate::request::{CompletedRequest, Request};
    pub use crate::summary::ServeSummary;
    pub use crate::tracing::{emit_request_trace, emit_request_traces};
}
