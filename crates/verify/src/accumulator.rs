//! Worst-case accumulator bounds analysis.
//!
//! FINN sizes each MVTU's accumulator from the layer's fan-in and the
//! quantized weight/activation domains before HLS generation; an undersized
//! accumulator silently wraps and corrupts every downstream activation. The
//! inference engine in `adaflow-nn` commits to `i32` accumulators, so this
//! module proves, per MVTU layer, that
//!
//! ```text
//! fan_in · max|w| · max|a|  ≤  i32::MAX
//! ```
//!
//! and reports the exact margin. Two bounds are computed:
//!
//! * the **domain bound** uses the quantized weight domain's largest
//!   magnitude — it holds for *any* weight assignment the spec admits
//!   (retraining cannot break it), and is the bound the overflow rule
//!   judges;
//! * the **tight bound** uses the actual weights (`max_row Σ|w| · max|a|`),
//!   the margin a calibrated deployment really has.
//!
//! The activation maximum and fan-in come from [`adaflow_model::mvtu_domains`],
//! the one walk of the graph's threshold structure the engine's kernel
//! dispatch also reads: the network input is an 8-bit pixel stream
//! (`max = 255`), and every `MultiThreshold` re-quantizes to `0..=levels`,
//! so inner layers see far smaller inputs.

use adaflow_model::{CnnGraph, Layer, MvtuDomain};

pub use adaflow_model::domains::INPUT_ACT_MAX;

/// Worst-case accumulator analysis of one MVTU layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumulatorBound {
    /// Layer index in the graph.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Dot-product length: `k²·ch_in` for conv, `in_features` for dense.
    pub fan_in: usize,
    /// Largest weight magnitude the quantized domain admits.
    pub max_weight: i64,
    /// Largest activation value reaching this layer.
    pub max_activation: i64,
    /// Domain bound: `fan_in · max|w| · max|a|`.
    pub worst_abs: i128,
    /// Tight bound from the actual weights: `max over outputs of
    /// Σ|w| · max|a|`.
    pub tight_abs: i128,
}

impl AccumulatorBound {
    /// Whether the domain bound provably fits an `i32` accumulator.
    #[must_use]
    pub fn fits_i32(&self) -> bool {
        self.worst_abs <= i128::from(i32::MAX)
    }

    /// Spare accumulator bits under the domain bound: `31 - bits(worst)`.
    /// Negative when the bound overflows.
    #[must_use]
    pub fn margin_bits(&self) -> i32 {
        31 - significant_bits(self.worst_abs)
    }

    /// Headroom factor `i32::MAX / worst` under the domain bound.
    #[must_use]
    pub fn headroom(&self) -> f64 {
        i32::MAX as f64 / self.worst_abs as f64
    }
}

/// Number of bits needed to represent `v ≥ 0` (0 for v = 0).
fn significant_bits(v: i128) -> i32 {
    (128 - v.leading_zeros()) as i32
}

/// Computes the worst-case accumulator bound of every MVTU layer, in
/// dataflow order: fan-in and incoming activation maximum from
/// [`adaflow_model::mvtu_domains`], weight domain and stored weights from
/// the layer itself.
#[must_use]
pub fn accumulator_bounds(graph: &CnnGraph) -> Vec<AccumulatorBound> {
    bounds_from(graph, &adaflow_model::mvtu_domains(graph))
}

/// [`accumulator_bounds`] over the graph's already computed MVTU domains.
pub(crate) fn bounds_from(graph: &CnnGraph, domains: &[MvtuDomain]) -> Vec<AccumulatorBound> {
    let mvtus = graph.iter().filter(|n| n.layer.is_mvtu());
    domains
        .iter()
        .zip(mvtus)
        .map(|(domain, node)| {
            let row_abs_sum = |row: &[i8]| row.iter().map(|&w| u128::from(w.unsigned_abs())).sum();
            let (quant, tight): (_, u128) = match &node.layer {
                Layer::Conv2d(c) => (
                    c.quant,
                    (0..c.weights.out_channels())
                        .map(|o| row_abs_sum(c.weights.filter(o)))
                        .max()
                        .unwrap_or(0),
                ),
                Layer::Dense(d) => (
                    d.quant,
                    (0..d.weights.out_features())
                        .map(|o| row_abs_sum(d.weights.row(o)))
                        .max()
                        .unwrap_or(0),
                ),
                _ => unreachable!("mvtu_domains yields exactly the MVTU layers"),
            };
            let max_w = domain_abs_max(quant.weight_domain());
            let act_max = domain.act_in_max;
            AccumulatorBound {
                layer: domain.layer,
                name: domain.name.clone(),
                fan_in: domain.fan_in,
                max_weight: max_w,
                max_activation: act_max,
                worst_abs: domain.fan_in as i128 * i128::from(max_w) * i128::from(act_max),
                tight_abs: tight as i128 * i128::from(act_max),
            }
        })
        .collect()
}

fn domain_abs_max(d: adaflow_model::QuantizedDomain) -> i64 {
    d.min.unsigned_abs().max(d.max.unsigned_abs()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;

    #[test]
    fn tiny_bounds_track_activation_domain() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let bounds = accumulator_bounds(&g);
        // conv1, conv2, fc1.
        assert_eq!(bounds.len(), 3);
        // conv1 sees raw 8-bit pixels: 3·3·1 fan-in, |w| ≤ 1, act ≤ 255.
        assert_eq!(bounds[0].fan_in, 9);
        assert_eq!(bounds[0].max_activation, INPUT_ACT_MAX);
        assert_eq!(bounds[0].worst_abs, 9 * 255);
        // conv2 sees thresholded activations 0..=3.
        assert_eq!(bounds[1].max_activation, 3);
        assert_eq!(bounds[1].worst_abs, (3 * 3 * 8) as i128 * 3);
        assert!(bounds.iter().all(AccumulatorBound::fits_i32));
    }

    #[test]
    fn tight_bound_never_exceeds_domain_bound() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        for b in accumulator_bounds(&g) {
            assert!(b.tight_abs <= b.worst_abs, "{}: tight > worst", b.name);
            assert!(b.fits_i32());
            assert!(b.margin_bits() > 0);
        }
    }

    #[test]
    fn margin_bits_matches_manual_log() {
        let b = AccumulatorBound {
            layer: 0,
            name: "x".into(),
            fan_in: 1,
            max_weight: 1,
            max_activation: 1,
            worst_abs: 1 << 20,
            tight_abs: 1,
        };
        assert_eq!(b.margin_bits(), 31 - 21);
        assert!(b.headroom() > 2000.0);
    }

    #[test]
    fn oversized_dense_overflows() {
        let g = GraphBuilder::new("overflow", TensorShape::flat(1 << 22))
            .dense(Dense::new(1 << 22, 1, QuantSpec::new(8, 8)))
            .label_select(1)
            .build()
            .expect("builds");
        let bounds = accumulator_bounds(&g);
        assert_eq!(bounds.len(), 1);
        // 2^22 · 127 · 255 ≈ 1.36e11 > i32::MAX.
        assert!(!bounds[0].fits_i32());
        assert!(bounds[0].margin_bits() < 0);
    }
}
