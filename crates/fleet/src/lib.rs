//! # adaflow-fleet — deterministic fleet-scale serving simulation
//!
//! The serving layer (`adaflow-serve`) answers "what does one adaptive
//! accelerator do under a request stream?". This crate scales the
//! question out: a *fleet* of N simulated accelerator devices — possibly
//! heterogeneous (any mix of the `PolicyKind` policies of `adaflow-edge`)
//! — sits behind a fleet router, and a reconfiguration coordinator
//! staggers fabric switches so the fleet never loses more than K devices
//! to drains at once.
//!
//! The simulation is a single deterministic discrete-event loop
//! ([`FleetEngine`]): every device contributes its batch-completion and
//! batch-close candidates, the shared arrival trace contributes the next
//! request, and a periodic sampler measures queue-depth imbalance. Events
//! fire in global time order with a fixed tie discipline, so a
//! `(config, library, workload, seed)` tuple reproduces bit-for-bit —
//! the property the CLI `fleet --check` replay and the determinism
//! property suite verify.
//!
//! Module map:
//!
//! - [`config`] — [`FleetConfig`] (composition, router, stagger budget)
//!   and the `FL001`/`FL002` lint rules.
//! - [`router`] — the [`RoutePolicy`] trait and the four dispatch
//!   policies: round-robin, least-loaded (join-shortest-queue),
//!   power-of-two-choices, deadline-aware.
//! - [`coordinator`] — the [`ReconfigCoordinator`] stagger gate and the
//!   [`max_overlap`] witness.
//! - [`engine`] — the fleet discrete-event loop.
//! - [`summary`] — [`FleetSummary`] / [`DeviceSummary`] with
//!   conservation checks and multi-seed means: a seeded sweep runs
//!   [`FleetEngine::run`] over `adaflow_edge::Seeds`, the one sweep every
//!   simulator shares, and averages with [`FleetSummary::mean`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod engine;
pub mod router;
pub mod summary;

// `DeviceKind` names the policy table for callers that still spell it so.
pub use adaflow_edge::{PolicyKind, PolicyKind as DeviceKind};
pub use config::{FleetConfig, RouterKind};
pub use coordinator::{max_overlap, ReconfigCoordinator};
pub use engine::FleetEngine;
pub use router::{
    DeadlineAwareRouter, DeviceSnapshot, LeastLoadedRouter, PowerOfTwoRouter, RoundRobinRouter,
    RoutePolicy,
};
pub use summary::{DeviceSummary, FleetSummary};

/// Everything needed to run a fleet simulation.
pub mod prelude {
    pub use crate::config::{FleetConfig, RouterKind};
    pub use crate::coordinator::{max_overlap, ReconfigCoordinator};
    pub use crate::engine::FleetEngine;
    pub use crate::router::{DeviceSnapshot, RoutePolicy};
    pub use crate::summary::{DeviceSummary, FleetSummary};
    pub use adaflow_edge::{PolicyKind, PolicyKind as DeviceKind};
}
