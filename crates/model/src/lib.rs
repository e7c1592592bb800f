//! # adaflow-model — CNN graph intermediate representation
//!
//! This crate provides the model layer of the AdaFlow reproduction: a
//! feed-forward CNN graph IR with quantization metadata, weight storage and
//! shape inference. It is the common substrate shared by the inference engine
//! (`adaflow-nn`), the pruning transform (`adaflow-pruning`) and the
//! dataflow mapper (`adaflow-dataflow`).
//!
//! The IR deliberately mirrors what the FINN compiler consumes: a linear
//! sequence of layers (convolution, max-pooling, fully-connected,
//! multi-threshold activation, label-select) annotated with integer weight
//! tensors and per-tensor quantization specs. FINN maps such graphs onto a
//! pipeline of hardware modules, one per layer (see the paper's Fig. 2).
//!
//! ## Quickstart
//!
//! ```
//! use adaflow_model::prelude::*;
//!
//! // Build the CNV-W2A2 topology used throughout the AdaFlow paper,
//! // adapted to a 10-class dataset (CIFAR-10 resolution, 3x32x32).
//! let graph = topology::cnv(QuantSpec::w2a2(), 10).build()?;
//! assert_eq!(graph.input_shape(), TensorShape::new(3, 32, 32));
//! assert_eq!(graph.conv_layers().count(), 6);
//! # Ok::<(), adaflow_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub mod error;
pub mod graph;
pub mod layer;
pub mod quant;
pub mod shape;
pub mod summary;
pub mod topology;
pub mod weights;

pub use domains::{mvtu_domains, MvtuDomain, PackedFallback, PACKED_MAX_ACT, PACKED_MAX_WEIGHT};
pub use error::ModelError;
pub use graph::{CnnGraph, GraphBuilder, LayerId, Node};
pub use layer::{Conv2d, Dense, LabelSelect, Layer, MaxPool2d, MultiThreshold};
pub use quant::{QuantSpec, QuantizedDomain};
pub use shape::TensorShape;
pub use summary::{GraphSummary, LayerSummary};
pub use weights::{ConvWeights, DenseWeights, ThresholdTable};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::domains::{mvtu_domains, MvtuDomain, PackedFallback};
    pub use crate::error::ModelError;
    pub use crate::graph::{CnnGraph, GraphBuilder, LayerId, Node};
    pub use crate::layer::{Conv2d, Dense, LabelSelect, Layer, MaxPool2d, MultiThreshold};
    pub use crate::quant::{QuantSpec, QuantizedDomain};
    pub use crate::shape::TensorShape;
    pub use crate::summary::{GraphSummary, LayerSummary};
    pub use crate::topology;
    pub use crate::weights::{ConvWeights, DenseWeights, ThresholdTable};
}
