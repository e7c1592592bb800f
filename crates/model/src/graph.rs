//! The feed-forward CNN graph.
//!
//! FINN dataflow accelerators implement a pipeline: each layer becomes one
//! hardware module and data streams through them in order. The graph is
//! therefore a validated linear chain of [`Layer`]s with per-edge tensor
//! shapes computed by shape inference.

use crate::error::ModelError;
use crate::layer::{Conv2d, Layer};
use crate::quant::QuantSpec;
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable identifier of a layer within its graph (its position in the chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(pub usize);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A layer together with its resolved input/output shapes and name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Position in the chain.
    pub id: LayerId,
    /// Human-readable name (e.g. `"conv1"`).
    pub name: String,
    /// The layer itself.
    pub layer: Layer,
    /// Shape entering the layer.
    pub input_shape: TensorShape,
    /// Shape leaving the layer.
    pub output_shape: TensorShape,
}

impl Node {
    /// MAC operations this node performs per inference.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.layer.macs(self.input_shape)
    }
}

/// A validated feed-forward CNN.
///
/// Construct via [`GraphBuilder`] (or [`CnnGraph::from_layers`]); both run
/// full validation and shape inference, so every `CnnGraph` value is
/// internally consistent.
///
/// ```
/// use adaflow_model::prelude::*;
///
/// let graph = GraphBuilder::new("tiny", TensorShape::new(1, 8, 8))
///     .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
///     .max_pool(MaxPool2d::new(2, 2))
///     .dense(Dense::new(4 * 3 * 3, 10, QuantSpec::w2a2()))
///     .label_select(10)
///     .build()?;
/// assert_eq!(graph.len(), 4);
/// assert_eq!(graph.output_shape(), TensorShape::flat(1));
/// # Ok::<(), ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnGraph {
    name: String,
    input_shape: TensorShape,
    nodes: Vec<Node>,
}

impl CnnGraph {
    /// Builds a graph from a layer chain, running validation + shape
    /// inference.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MalformedGraph`] for an empty chain, or the
    /// first validation/shape error annotated with the offending position.
    pub fn from_layers(
        name: impl Into<String>,
        input_shape: TensorShape,
        layers: Vec<(String, Layer)>,
    ) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::MalformedGraph("graph has no layers".into()));
        }
        if input_shape.elements() == 0 {
            return Err(ModelError::MalformedGraph(
                "input shape has zero elements".into(),
            ));
        }
        let mut nodes = Vec::with_capacity(layers.len());
        let mut shape = input_shape;
        for (idx, (layer_name, layer)) in layers.into_iter().enumerate() {
            layer
                .validate()
                .map_err(|e| at_position(e, idx, &layer_name))?;
            let out = layer
                .output_shape(shape)
                .map_err(|e| at_position(e, idx, &layer_name))?;
            nodes.push(Node {
                id: LayerId(idx),
                name: layer_name,
                layer,
                input_shape: shape,
                output_shape: out,
            });
            shape = out;
        }
        Ok(Self {
            name: name.into(),
            input_shape,
            nodes,
        })
    }

    /// Model name (e.g. `"cnv-w2a2-cifar10"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns this graph under a different name.
    #[must_use]
    pub fn renamed(self, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..self
        }
    }

    /// Shape of the network input.
    #[must_use]
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// Shape of the network output.
    #[must_use]
    pub fn output_shape(&self) -> TensorShape {
        self.nodes
            .last()
            .map(|n| n.output_shape)
            .unwrap_or(self.input_shape)
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no layers (never true for a built graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in dataflow order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over nodes in dataflow order.
    pub fn iter(&self) -> std::slice::Iter<'_, Node> {
        self.nodes.iter()
    }

    /// Node by id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] if no such layer exists.
    pub fn node(&self, id: LayerId) -> Result<&Node, ModelError> {
        self.nodes.get(id.0).ok_or(ModelError::UnknownLayer(id.0))
    }

    /// Iterates over the convolution nodes only, in dataflow order.
    pub fn conv_layers(&self) -> impl Iterator<Item = (&Node, &Conv2d)> {
        self.nodes.iter().filter_map(|n| match &n.layer {
            Layer::Conv2d(c) => Some((n, c)),
            _ => None,
        })
    }

    /// Ids of the convolution layers, the targets of filter pruning.
    #[must_use]
    pub fn conv_ids(&self) -> Vec<LayerId> {
        self.conv_layers().map(|(n, _)| n.id).collect()
    }

    /// Total MAC operations per inference across the network.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(Node::macs).sum()
    }

    /// Total weight storage in bits (conv + dense).
    #[must_use]
    pub fn total_weight_bits(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.layer {
                Layer::Conv2d(c) => c.weight_bits(),
                Layer::Dense(d) => d.weight_bits(),
                _ => 0,
            })
            .sum()
    }

    /// The quantization spec of the first MVTU layer (graphs built by
    /// [`crate::topology`] are homogeneous).
    #[must_use]
    pub fn quant(&self) -> Option<QuantSpec> {
        self.nodes.iter().find_map(|n| match &n.layer {
            Layer::Conv2d(c) => Some(c.quant),
            Layer::Dense(d) => Some(d.quant),
            _ => None,
        })
    }

    /// Per-conv-layer output channel counts, in dataflow order. This is the
    /// "channels" vector the flexible accelerator receives at model-switch
    /// time (paper §IV-A2: the channel counts are "attached to the model
    /// description when AdaFlow prunes a CNN model").
    #[must_use]
    pub fn conv_channels(&self) -> Vec<usize> {
        self.conv_layers().map(|(_, c)| c.out_channels).collect()
    }

    /// Rebuilds the graph from a transformed layer chain, keeping the name
    /// and input shape. Used by graph transforms (pruning).
    ///
    /// # Errors
    ///
    /// Propagates validation/shape-inference errors from the new chain.
    pub fn with_layers(&self, layers: Vec<(String, Layer)>) -> Result<Self, ModelError> {
        Self::from_layers(self.name.clone(), self.input_shape, layers)
    }

    /// Deconstructs into the `(name, layer)` chain for transformation.
    #[must_use]
    pub fn to_layer_chain(&self) -> Vec<(String, Layer)> {
        self.nodes
            .iter()
            .map(|n| (n.name.clone(), n.layer.clone()))
            .collect()
    }
}

impl fmt::Display for CnnGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} -> {})",
            self.name,
            self.input_shape,
            self.output_shape()
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  {} {}: {} -> {}",
                n.id, n.layer, n.input_shape, n.output_shape
            )?;
        }
        Ok(())
    }
}

fn at_position(err: ModelError, idx: usize, name: &str) -> ModelError {
    match err {
        ModelError::ShapeMismatch {
            expected, found, ..
        } => ModelError::ShapeMismatch {
            layer: idx,
            name: name.to_string(),
            expected,
            found,
        },
        ModelError::InvalidParameter { reason, .. } => ModelError::InvalidParameter {
            layer: idx,
            name: name.to_string(),
            reason,
        },
        ModelError::WeightMismatch { reason, .. } => {
            ModelError::WeightMismatch { layer: idx, reason }
        }
        other => other,
    }
}

/// Incremental builder for [`CnnGraph`].
///
/// Layer names are auto-generated (`conv1`, `pool1`, `fc1`, ...) unless set
/// explicitly with [`GraphBuilder::named_layer`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    input_shape: TensorShape,
    layers: Vec<(String, Layer)>,
    conv_count: usize,
    pool_count: usize,
    dense_count: usize,
    thresh_count: usize,
}

impl GraphBuilder {
    /// Starts a builder for a network named `name` with the given input.
    #[must_use]
    pub fn new(name: impl Into<String>, input_shape: TensorShape) -> Self {
        Self {
            name: name.into(),
            input_shape,
            layers: Vec::new(),
            conv_count: 0,
            pool_count: 0,
            dense_count: 0,
            thresh_count: 0,
        }
    }

    /// Appends a convolution layer.
    #[must_use]
    pub fn conv2d(mut self, conv: Conv2d) -> Self {
        self.conv_count += 1;
        let n = format!("conv{}", self.conv_count);
        self.layers.push((n, Layer::Conv2d(conv)));
        self
    }

    /// Appends a max-pool layer.
    #[must_use]
    pub fn max_pool(mut self, pool: crate::layer::MaxPool2d) -> Self {
        self.pool_count += 1;
        let n = format!("pool{}", self.pool_count);
        self.layers.push((n, Layer::MaxPool2d(pool)));
        self
    }

    /// Appends a dense layer.
    #[must_use]
    pub fn dense(mut self, dense: crate::layer::Dense) -> Self {
        self.dense_count += 1;
        let n = format!("fc{}", self.dense_count);
        self.layers.push((n, Layer::Dense(dense)));
        self
    }

    /// Appends a multi-threshold activation.
    #[must_use]
    pub fn threshold(mut self, t: crate::layer::MultiThreshold) -> Self {
        self.thresh_count += 1;
        let n = format!("thresh{}", self.thresh_count);
        self.layers.push((n, Layer::MultiThreshold(t)));
        self
    }

    /// Appends a label-select output over `classes` classes.
    #[must_use]
    pub fn label_select(mut self, classes: usize) -> Self {
        self.layers.push((
            "top1".into(),
            Layer::LabelSelect(crate::layer::LabelSelect { classes }),
        ));
        self
    }

    /// Appends an arbitrary layer under an explicit name.
    #[must_use]
    pub fn named_layer(mut self, name: impl Into<String>, layer: Layer) -> Self {
        self.layers.push((name.into(), layer));
        self
    }

    /// Finalizes the graph, running validation and shape inference.
    ///
    /// # Errors
    ///
    /// Returns the first validation or shape-inference error, annotated with
    /// the offending layer position and name.
    pub fn build(self) -> Result<CnnGraph, ModelError> {
        CnnGraph::from_layers(self.name, self.input_shape, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, MaxPool2d, MultiThreshold};

    fn tiny() -> CnnGraph {
        GraphBuilder::new("tiny", TensorShape::new(1, 8, 8))
            .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
            .threshold(MultiThreshold::uniform(4, 3, -5, 5))
            .max_pool(MaxPool2d::new(2, 2))
            .dense(Dense::new(4 * 3 * 3, 10, QuantSpec::w2a2()))
            .label_select(10)
            .build()
            .expect("tiny graph builds")
    }

    #[test]
    fn builder_names_layers() {
        let g = tiny();
        let names: Vec<_> = g.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["conv1", "thresh1", "pool1", "fc1", "top1"]);
    }

    #[test]
    fn shape_inference_chains() {
        let g = tiny();
        assert_eq!(
            g.node(LayerId(0))
                .expect("tiny fixture has a layer 0")
                .output_shape,
            TensorShape::new(4, 6, 6)
        );
        assert_eq!(
            g.node(LayerId(2))
                .expect("tiny fixture has a layer 2")
                .output_shape,
            TensorShape::new(4, 3, 3)
        );
        assert_eq!(g.output_shape(), TensorShape::flat(1));
    }

    #[test]
    fn empty_graph_rejected() {
        let err = CnnGraph::from_layers("empty", TensorShape::new(1, 8, 8), vec![]).unwrap_err();
        assert!(matches!(err, ModelError::MalformedGraph(_)));
    }

    #[test]
    fn mismatched_chain_reports_position() {
        let err = GraphBuilder::new("bad", TensorShape::new(1, 8, 8))
            .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
            .conv2d(Conv2d::new(8, 4, 3, 1, 0, QuantSpec::w2a2())) // expects 8 ch, gets 4
            .build()
            .unwrap_err();
        match err {
            ModelError::ShapeMismatch { layer, name, .. } => {
                assert_eq!(layer, 1);
                assert_eq!(name, "conv2");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn conv_ids_and_channels() {
        let g = tiny();
        assert_eq!(g.conv_ids(), vec![LayerId(0)]);
        assert_eq!(g.conv_channels(), vec![4]);
    }

    #[test]
    fn total_macs_sums_layers() {
        let g = tiny();
        // conv: 6x6 out, 1*3*3 per filter, 4 filters = 1296; fc: 36*10 = 360.
        assert_eq!(g.total_macs(), 1296 + 360);
    }

    #[test]
    fn quant_found_from_first_mvtu() {
        assert_eq!(tiny().quant(), Some(QuantSpec::w2a2()));
    }

    #[test]
    fn node_lookup_unknown_id() {
        assert!(matches!(
            tiny().node(LayerId(99)),
            Err(ModelError::UnknownLayer(99))
        ));
    }

    #[test]
    fn round_trip_through_layer_chain() {
        let g = tiny();
        let rebuilt = g.with_layers(g.to_layer_chain()).expect("rebuild");
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn renamed_keeps_structure() {
        let g = tiny().renamed("tiny-pruned-10");
        assert_eq!(g.name(), "tiny-pruned-10");
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn display_lists_all_layers() {
        let text = tiny().to_string();
        assert!(text.contains("conv2d"));
        assert!(text.contains("labelselect"));
        assert_eq!(text.lines().count(), 6); // header + 5 layers
    }

    #[test]
    fn serde_round_trip() {
        let g = tiny();
        let json = serde_json::to_string(&g).expect("serialize");
        let back: CnnGraph = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(g, back);
    }
}
