//! # adaflow-net — the live TCP serving front-end
//!
//! A std-only threaded TCP server that graduates the serving stack from
//! discrete-event simulation to real sockets. The wire layer
//! ([`adaflow_proto`]) is new; the brains are reused wholesale from the
//! simulation band:
//!
//! * admission — the same generic `AdmissionQueue` + `OverflowPolicy` the
//!   DES runs, queueing decoded wire requests instead of synthetic ones;
//! * batching — one engine thread closes dynamic batches under the DES
//!   rules (close at `max_batch`, or when the oldest request has waited
//!   `max_wait_s`, never while the accelerator is busy);
//! * execution — real `adaflow-nn` packed kernels through `BatchRunner`,
//!   one scratch per worker;
//! * accounting — wall-clock seconds feed the same `DeviceStats`,
//!   `CompletedRequest` and `ServeSummary` types the DES produces, so live
//!   and simulated numbers land in identical fields;
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

pub use clock::WallClock;
pub use http::MetricsEndpoint;
pub use loadgen::{run_load, LoadConfig, LoadMode, LoadSummary};
pub use preflight::{preflight, PreflightError};
pub use server::{LiveConfig, LiveReport, LiveServer, NetError, RejectCounts, ServerHandle};
