//! # adaflow-dataflow — FINN-style dataflow accelerator model
//!
//! Models the hardware side of the reproduction: the mapping of a CNN graph
//! onto a feed-forward pipeline of hardware modules (paper Fig. 2), the
//! PE/SIMD folding arithmetic that governs throughput, and a finite-buffer
//! streaming simulation standing in for the original flow's Verilator runs.
//!
//! * [`module`] — per-module descriptors (SWU, MVTU, MaxPool, LabelSelect)
//!   and their cycle models;
//! * [`accel`] — compiling a graph + folding config into a
//!   [`DataflowAccelerator`] of one of the three kinds the paper studies
//!   (original FINN, Fixed-Pruning, Flexible-Pruning), with throughput and
//!   latency estimation;
//! * [`stream`] — a synchronous-dataflow pipeline simulator with finite
//!   FIFOs and back-pressure, validating the analytical initiation-interval
//!   model the way FINN validates against RTL simulation.
//!
//! ## Quickstart
//!
//! ```
//! use adaflow_model::prelude::*;
//! use adaflow_pruning::FinnConfig;
//! use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
//!
//! let graph = topology::cnv_w2a2_cifar10()?;
//! let folding = FinnConfig::cnv_reference(&graph)?;
//! let accel = DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::Finn)?;
//! let fps = accel.throughput_fps();
//! assert!(fps > 100.0); // CNV at 100 MHz serves a few hundred FPS
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod error;
pub mod fifo;
pub mod module;
pub mod stream;
pub mod verify;

pub use accel::{AcceleratorKind, DataflowAccelerator, PerfReport};
pub use error::DataflowError;
pub use fifo::{size_fifos, FifoSizing};
pub use module::{ModuleKind, ModuleSpec};
pub use stream::{StreamSimulator, StreamStats};
pub use verify::{
    check_accelerator, check_fifo_liveness, check_folding, check_rate_balance, verify_dataflow,
};

/// Default accelerator clock: 100 MHz, the paper's synthesis target on the
/// ZCU104.
pub const DEFAULT_CLOCK_HZ: u64 = 100_000_000;
