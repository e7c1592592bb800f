//! # adaflow-nn — quantized inference, datasets and (re)training
//!
//! The execution layer of the AdaFlow reproduction. Where the original flow
//! relied on PyTorch/Brevitas for quantization-aware training and on FINN's
//! Verilator simulation for functional verification, this crate provides:
//!
//! * a bit-accurate integer inference engine over
//!   [`adaflow_model::CnnGraph`] (convolution, max-pool, FINN-style
//!   multi-threshold activations, label select), in which every conv and
//!   dense layer is one windowed MVTU — packed popcount or byte window, or
//!   an AMX tile step where the CPU has AMX-INT8 ([`packed`]) — with a
//!   reusable scratch arena, a direct-convolution
//!   reference and a multi-threaded [`BatchRunner`] — [`engine`];
//! * order-preserving scoped-thread helpers shared by the batch runner, the
//!   trainer and the edge experiment driver — [`parallel`];
//! * seeded synthetic datasets standing in for CIFAR-10 and GTSRB (see
//!   DESIGN.md for the substitution rationale) — [`dataset`];
//! * a small straight-through-estimator SGD trainer used to exercise the
//!   "retrain after pruning" path on real tensors — [`train`];
//! * the calibrated accuracy-vs-pruning model anchored to the paper's
//!   published operating points — [`accuracy`].
//!
//! ## Quickstart
//!
//! ```
//! use adaflow_model::prelude::*;
//! use adaflow_nn::prelude::*;
//!
//! let graph = topology::tiny(QuantSpec::w2a2(), 4)?;
//! let data = SyntheticDataset::new(DatasetSpec::tiny(4), 42);
//! let sample = data.sample(0);
//! let result = Engine::new(&graph)?.run(&sample.image)?;
//! assert!(result.label < 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the three cfg-gated kernel modules
// ([`packed::avx2`], [`packed::avx512`] and [`packed::amx`]) re-allow
// `unsafe` locally under a documented safety contract; everything else in
// the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod dataset;
pub mod engine;
pub mod error;
pub mod packed;
pub mod parallel;
pub mod tensor;
pub mod train;

pub use accuracy::{AccuracyModel, DatasetKind};
pub use dataset::{DatasetSpec, Sample, SyntheticDataset};
pub use engine::{
    BatchRunner, ConvStrategy, Engine, EngineScratch, InferenceResult, KernelAttribution,
};
pub use error::NnError;
pub use packed::{default_backend, kernel_thresholds, KernelThresholds, PackedBackend};
pub use tensor::Activations;
pub use train::{Trainer, TrainingConfig, TrainingReport};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::accuracy::{AccuracyModel, DatasetKind};
    pub use crate::dataset::{DatasetSpec, Sample, SyntheticDataset};
    pub use crate::engine::{
        BatchRunner, ConvStrategy, Engine, EngineScratch, InferenceResult, KernelAttribution,
    };
    pub use crate::error::NnError;
    pub use crate::packed::{default_backend, PackedBackend};
    pub use crate::tensor::Activations;
    pub use crate::train::{Trainer, TrainingConfig, TrainingReport};
}
