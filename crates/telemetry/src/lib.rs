//! Structured telemetry for the AdaFlow serving stack.
//!
//! The paper's Runtime Manager is driven by "performance monitors added to
//! the software in charge of the incoming inferences" (§IV-B2); this crate
//! is the reproduction's equivalent. It provides:
//!
//! * a typed [`Event`] model stamped with the **simulation clock** (seconds
//!   since run start), never wall time, so traces are deterministic in the
//!   workload seed;
//! * recording behind the [`TelemetrySink`] trait — [`NullSink`] is a
//!   statically-known no-op whose `enabled()` lets hot paths skip building
//!   event payloads entirely, [`Recorder`] is a bounded ring buffer;
//! * log-bucketed [`LogHistogram`]s with p50/p95/p99 extraction for latency
//!   and queue-depth distributions;
//! * exporters in [`export`]: JSONL and Chrome trace-event JSON (loadable
//!   in Perfetto / `chrome://tracing`), both driven by the payload
//!   `#[derive(Serialize)]` produces for [`EventKind`];
//! * causal request tracing: [`trace`] / [`span`] give every request a
//!   deterministic span tree (admit → queue-wait → batch-form →
//!   reconfig-stall → compute), [`analysis`] decomposes end-to-end latency
//!   into a per-stage waterfall, and [`metrics`] / [`slo`] fold the event
//!   stream into a windowed registry with error-budget burn-rate alerting.
//!   [`MetricsRegistry`] is the only fold of the stream and the only
//!   Prometheus renderer: `/metrics` and every `.prom` export are its
//!   exposition.
//!
//! Adding an event kind takes the [`EventKind`] variant (JSONL follows from
//! the derive), at most one row in `export`'s Chrome-trace table (none if
//! the kind would flood the timeline) and at most one arm in
//! [`MetricsRegistry::observe`] (none if it counts nothing).
//!
//! Design-time stages (retraining, synthesis) have no simulation clock; they
//! stamp events with a stage-local ordinal clock (e.g. the epoch index),
//! which keeps traces ordered without inventing a fake wall time.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod event;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod sink;
pub mod slo;
pub mod span;
pub mod trace;

pub use analysis::{DeviceBreakdown, SlowTrace, StageAttribution, Waterfall};
pub use event::{Event, EventKind};
pub use export::{chrome_trace_json, events_from_jsonl, events_to_jsonl, ChromeTraceEvent};
pub use histogram::LogHistogram;
pub use metrics::{MetricsRegistry, RegistryConfig, RegistrySink, WindowStats};
pub use sink::{Fanout, NullSink, Recorder, SinkHandle, TelemetrySink};
pub use slo::{Objective, SloConfig, SloEngine, SloReport};
pub use span::{SpanRecord, Stage, TraceBuilder};
pub use trace::{SpanId, Trace, TraceError, TraceForest, TraceId};
