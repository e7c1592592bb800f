//! # adaflow-hls — synthesis, resource, power and reconfiguration models
//!
//! Stands in for the Vivado/Vitis HLS leg of the original toolflow. Given a
//! compiled [`adaflow_dataflow::DataflowAccelerator`], this crate estimates:
//!
//! * **resources** (LUT / FF / BRAM36 / DSP) per module and in aggregate,
//!   calibrated to the paper's reported deltas (Flexible ≈ 1.92× the LUTs of
//!   original FINN with unchanged BRAM; Fixed-Pruning −1.5 %…−46.2 % LUT
//!   across the 5–85 % pruning sweep) — [`resources`];
//! * **timing**: a simple Fmax model validating 100 MHz closure — [`synth`];
//! * **power**: static + activity-scaled dynamic power and energy per
//!   inference, calibrated to the ~1 W operating points of Table I —
//!   [`power`];
//! * **device fit**: a ZCU104 (XCZU7EV) capacity model — [`device`];
//! * **bitstreams & reconfiguration**: full-device reconfiguration timing
//!   (~145 ms on the ZCU104, matching the paper's "five reconfigurations ≈
//!   725 ms") — [`reconfig`].
//!
//! ## Quickstart
//!
//! ```
//! use adaflow_model::prelude::*;
//! use adaflow_pruning::FinnConfig;
//! use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
//! use adaflow_hls::{synthesize, FpgaDevice};
//!
//! let graph = topology::cnv_w2a2_cifar10()?;
//! let folding = FinnConfig::cnv_reference(&graph)?;
//! let accel = DataflowAccelerator::compile(&graph, &folding, AcceleratorKind::Finn)?;
//! let synth = synthesize(&accel, &FpgaDevice::zcu104())?;
//! assert!(synth.resources.bram36 > 0);
//! assert!(synth.fmax_mhz >= 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod power;
pub mod reconfig;
pub mod resources;
pub mod synth;

pub use device::FpgaDevice;
pub use error::HlsError;
pub use power::{PowerModel, PowerReport};
pub use reconfig::{Bitstream, ReconfigurationModel};
pub use resources::{estimate_accelerator, estimate_module, ResourceEstimate};
pub use synth::{synthesize, synthesize_traced, SynthesizedAccelerator};
