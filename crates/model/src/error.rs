//! Error types for graph construction and validation.

use crate::shape::TensorShape;
use thiserror::Error;

/// Errors produced while building, validating or transforming a CNN graph.
///
/// Every fallible public function in this crate returns
/// `Result<_, ModelError>`. The variants carry enough context to pinpoint the
/// offending layer.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum ModelError {
    /// Two adjacent layers disagree on the tensor shape flowing between them.
    #[error("shape mismatch at layer {layer} ({name}): expected {expected}, found {found}")]
    ShapeMismatch {
        /// Index of the consumer layer.
        layer: usize,
        /// Human-readable layer name.
        name: String,
        /// Shape the consumer expects.
        expected: TensorShape,
        /// Shape the producer emits.
        found: TensorShape,
    },

    /// A layer parameter is structurally invalid (zero channels, zero kernel, ...).
    #[error("invalid parameter for layer {layer} ({name}): {reason}")]
    InvalidParameter {
        /// Index of the offending layer.
        layer: usize,
        /// Human-readable layer name.
        name: String,
        /// Why the parameter is rejected.
        reason: String,
    },

    /// A weight tensor does not match the layer geometry it is attached to.
    #[error("weight geometry mismatch at layer {layer}: {reason}")]
    WeightMismatch {
        /// Index of the offending layer.
        layer: usize,
        /// Why the weights are rejected.
        reason: String,
    },

    /// The graph is empty or lacks mandatory structure (e.g. no output layer).
    #[error("malformed graph: {0}")]
    MalformedGraph(String),

    /// A quantized value falls outside the representable range of its domain.
    #[error("value {value} outside quantized domain [{min}, {max}]")]
    QuantRange {
        /// The out-of-range value.
        value: i64,
        /// Domain minimum.
        min: i64,
        /// Domain maximum.
        max: i64,
    },

    /// A layer id does not exist in the graph.
    #[error("unknown layer id {0}")]
    UnknownLayer(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = ModelError::MalformedGraph("graph has no layers".into());
        let text = err.to_string();
        assert!(text.starts_with("malformed graph"));
        assert!(!text.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }

    #[test]
    fn shape_mismatch_mentions_both_shapes() {
        let err = ModelError::ShapeMismatch {
            layer: 3,
            name: "conv2".into(),
            expected: TensorShape::new(64, 16, 16),
            found: TensorShape::new(32, 16, 16),
        };
        let text = err.to_string();
        assert!(text.contains("64x16x16"));
        assert!(text.contains("32x16x16"));
        assert!(text.contains("conv2"));
    }
}
