//! Per-layer graph statistics.
//!
//! A compact, renderable breakdown of a CNN graph: shapes, parameters, MACs
//! and arithmetic intensity per layer — the "model card" the Library
//! Generator logs for every pruned variant.

use crate::graph::CnnGraph;
use crate::layer::Layer;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Statistics of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// Layer kind (`conv2d`, `dense`, ...).
    pub kind: String,
    /// Input shape, rendered `CxHxW`.
    pub input: String,
    /// Output shape, rendered `CxHxW`.
    pub output: String,
    /// Stored parameters (weights).
    pub params: u64,
    /// MAC operations per inference.
    pub macs: u64,
}

/// Whole-graph statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSummary {
    /// Model name.
    pub model: String,
    /// Per-layer rows, in dataflow order.
    pub layers: Vec<LayerSummary>,
    /// Total parameters.
    pub total_params: u64,
    /// Total MACs per inference.
    pub total_macs: u64,
    /// Total stored weight bits.
    pub total_weight_bits: u64,
}

impl GraphSummary {
    /// Builds the summary of a graph.
    #[must_use]
    pub fn of(graph: &CnnGraph) -> Self {
        let layers: Vec<LayerSummary> = graph
            .iter()
            .map(|node| {
                let params = match &node.layer {
                    Layer::Conv2d(c) => c.weights.len() as u64,
                    Layer::Dense(d) => (d.in_features * d.out_features) as u64,
                    Layer::MultiThreshold(t) => (t.channels * t.table.levels()) as u64,
                    _ => 0,
                };
                LayerSummary {
                    name: node.name.clone(),
                    kind: node.layer.kind().to_string(),
                    input: node.input_shape.to_string(),
                    output: node.output_shape.to_string(),
                    params,
                    macs: node.macs(),
                }
            })
            .collect();
        Self {
            model: graph.name().to_string(),
            total_params: layers.iter().map(|l| l.params).sum(),
            total_macs: graph.total_macs(),
            total_weight_bits: graph.total_weight_bits(),
            layers,
        }
    }
}

impl fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} — {} params, {:.1}M MACs, {:.1} KiB weights",
            self.model,
            self.total_params,
            self.total_macs as f64 / 1e6,
            self.total_weight_bits as f64 / 8.0 / 1024.0
        )?;
        writeln!(
            f,
            "{:<10} {:<14} {:>11} {:>11} {:>10} {:>12}",
            "layer", "kind", "input", "output", "params", "MACs"
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "{:<10} {:<14} {:>11} {:>11} {:>10} {:>12}",
                l.name, l.kind, l.input, l.output, l.params, l.macs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantSpec;
    use crate::topology;

    #[test]
    fn cnv_summary_totals_match_graph() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let s = GraphSummary::of(&g);
        assert_eq!(s.total_macs, g.total_macs());
        assert_eq!(s.total_weight_bits, g.total_weight_bits());
        assert_eq!(s.layers.len(), g.len());
        // CNV parameter count: ~1.54M weights (conv + fc).
        let weight_params: u64 = s
            .layers
            .iter()
            .filter(|l| l.kind == "conv2d" || l.kind == "dense")
            .map(|l| l.params)
            .sum();
        assert!(
            (1_400_000..1_700_000).contains(&weight_params),
            "{weight_params}"
        );
    }

    #[test]
    fn heaviest_layer_is_conv2_for_cnv() {
        // conv2 (64->64 over 28x28) carries the most MACs in CNV.
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let s = GraphSummary::of(&g);
        let heaviest = s.layers.iter().max_by_key(|l| l.macs).expect("nonempty");
        assert_eq!(heaviest.name, "conv2");
    }

    #[test]
    fn summary_serde_round_trip() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let s = GraphSummary::of(&g);
        let json = serde_json::to_string(&s).expect("serialize");
        let back: GraphSummary = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(s, back);
    }

    #[test]
    fn display_renders_all_layers() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let text = GraphSummary::of(&g).to_string();
        assert!(text.contains("conv1"));
        assert!(text.contains("top1"));
        assert!(text.lines().count() >= g.len() + 2);
    }
}
