//! `adaflow-gateway` — a live L7 routing tier over multiple AdaFlow
//! serving backends.
//!
//! The gateway accepts `adaflow-proto` connections on one front socket
//! and fans requests out to N live `adaflow-net` backends over
//! persistent, multiplexed connections (the protocol's request ids make
//! pipelining and out-of-order completion safe). It reuses the fleet
//! simulator's routing policies verbatim — round-robin, least-loaded,
//! power-of-two-choices, and deadline-aware over warmup-measured service
//! floors — so the DES's predicted hit-rates and the live gateway's
//! measured ones are directly comparable.
//!
//! Beyond routing, the gateway owns the operational loop the paper's
//! multi-FPGA deployments need: per-backend health probes with ejection
//! and readmission, bounded retry of retryable rejects onto a different
//! backend, graceful drain on shutdown, and per-backend telemetry
//! (routed counts, RTT histograms, ejection events) through the standard
//! trace/metrics pipeline.
//!
//! The crate is std-only and model-free: it moves opaque tensors and
//! understands only the wire protocol, never the graph being served.
//!
//! ```no_run
//! use adaflow_gateway::{Gateway, GatewayConfig};
//! use adaflow_telemetry::SinkHandle;
//!
//! let backends = ["127.0.0.1:7000".parse().unwrap(), "127.0.0.1:7001".parse().unwrap()];
//! let gateway = Gateway::bind(
//!     "127.0.0.1:0",
//!     &backends,
//!     GatewayConfig::default(),
//!     SinkHandle::null(),
//! ).unwrap();
//! let handle = gateway.handle();
//! std::thread::spawn(move || { /* ... later: */ handle.shutdown(); });
//! let report = gateway.run().unwrap();
//! assert!(report.conservation_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod server;

pub use config::{GatewayConfig, WarmupSpec};
pub use server::{BackendReport, Gateway, GatewayError, GatewayHandle, GatewayReport};
