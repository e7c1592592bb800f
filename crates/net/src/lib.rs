//! # adaflow-net — the live TCP serving front-end
//!
//! A std-only threaded TCP server that graduates the serving stack from
//! discrete-event simulation to real sockets. The wire layer
//! ([`adaflow_proto`]) is new; the brains are the simulation band's own
//! code, driven from sockets instead of a simulated clock:
//!
//! * admission, batching and accounting — one `adaflow_serve::DeviceCore`,
//!   the same state machine the DES runs, queueing decoded wire requests
//!   instead of synthetic ones: reader threads `offer` to it, one engine
//!   thread closes batches when its `next_close_s` says so and settles
//!   them through its `settle_batch`, so overflow shedding, the close rule
//!   (`max_batch`, or the oldest request waited `max_wait_s`, never while
//!   the accelerator is busy) and every `DeviceStats` sum are the DES's
//!   lines on wall-clock seconds, and live and simulated numbers land in
//!   identical `ServeSummary` fields;
//! * execution — real `adaflow-nn` packed kernels through `BatchRunner`,
//!   one scratch per worker;
//! * telemetry — per-request span trees and serving events flow into the
//!   existing trace/metrics/SLO pipeline unchanged.
//!
//! The module split mirrors the serving crate: [`server`] is admission
//! plus the engine thread (the sockets themselves are
//! [`adaflow_proto::server`], shared with the gateway), [`loadgen`] the
//! seeded closed/open-loop client, [`preflight`] the verifier gate run
//! before the socket opens, and [`http`] a minimal Prometheus `/metrics`
//! endpoint.
//!
//! Graceful shutdown is a first-class contract: in-flight batches complete
//! and answer `Ok`, queued-but-unserved requests are drained with
//! `ShuttingDown` responses (no silently closed connections), the listener
//! closes, and every worker joins before [`server::LiveServer::run`]
//! returns — enforced structurally with scoped threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod http;
pub mod loadgen;
pub mod preflight;
pub mod server;

pub use adaflow_proto::RejectCounts;
pub use clock::WallClock;
pub use http::MetricsEndpoint;
pub use loadgen::{run_load, LoadConfig, LoadMode, LoadSummary};
pub use preflight::{preflight, PreflightError};
pub use server::{LiveConfig, LiveReport, LiveServer, NetError, ServerHandle};
