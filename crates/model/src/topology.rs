//! Reference topologies.
//!
//! The AdaFlow paper evaluates the FINN/BNN-PYNQ "CNV" network in two
//! quantized variants (CNVW2A2, CNVW1A2), adapted to CIFAR-10 (10 classes)
//! and GTSRB (43 classes), always at CIFAR-10 resolution (3x32x32). This
//! module builds those graphs, plus small topologies used in tests.
//!
//! Weights are initialized with a deterministic xorshift generator so that
//! per-filter ℓ1-norms differ (filter selection needs an ordering) while
//! builds stay reproducible. Real value assignments come from the training
//! loop in `adaflow-nn`.

use crate::graph::{CnnGraph, GraphBuilder};
use crate::layer::{Conv2d, Dense, MaxPool2d, MultiThreshold};
use crate::quant::QuantSpec;
use crate::shape::TensorShape;

/// Deterministic weight filler (xorshift64*), independent of external crates
/// so `adaflow-model` stays dependency-light.
#[derive(Debug, Clone)]
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fills `weights` uniformly from the quantized weight domain, one draw
    /// each: `next_u64() % card` indexes the domain's values in ascending
    /// order, zero skipped where the domain excludes it.
    fn fill(&mut self, weights: &mut [i8], quant: QuantSpec) {
        let d = quant.weight_domain();
        let values: Vec<i8> = (d.min..=d.max)
            .filter(|&v| d.contains(v))
            .map(|v| v as i8)
            .collect();
        // A constant divisor compiles to a multiply: the 1- and 2-bit
        // domains every CNV draws from take it, wider ones divide.
        match values.len() as u64 {
            2 => self.draw(weights, &values, |x| x % 2),
            3 => self.draw(weights, &values, |x| x % 3),
            card => self.draw(weights, &values, |x| x % card),
        }
    }

    fn draw(&mut self, weights: &mut [i8], values: &[i8], modulo: impl Fn(u64) -> u64) {
        for w in weights {
            *w = values[modulo(self.next_u64()) as usize];
        }
    }
}

fn filled_conv(
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    quant: QuantSpec,
    rng: &mut Xorshift,
) -> Conv2d {
    let mut c = Conv2d::new(in_ch, out_ch, kernel, stride, padding, quant);
    rng.fill(c.weights.as_mut_slice(), quant);
    c
}

fn filled_dense(inf: usize, outf: usize, quant: QuantSpec, rng: &mut Xorshift) -> Dense {
    let mut d = Dense::new(inf, outf, quant);
    rng.fill(d.weights.as_mut_slice(), quant);
    d
}

/// The per-stage channel widths of the CNV network.
pub const CNV_STAGE_CHANNELS: [usize; 3] = [64, 128, 256];

/// Hidden width of the CNV fully-connected head.
pub const CNV_FC_WIDTH: usize = 512;

/// Builds the FINN CNV topology (6 conv + 3 FC) for `classes` output
/// classes at CIFAR-10 resolution, returning a [`GraphBuilder`] so callers
/// can append further layers before building.
///
/// Structure (matching BNN-PYNQ CNV):
///
/// ```text
/// 3x32x32 → conv 3→64 → conv 64→64 → pool → conv 64→128 → conv 128→128 → pool
///         → conv 128→256 → conv 256→256 → fc 256→512 → fc 512→512 → fc 512→C → top1
/// ```
///
/// Every convolution uses 3x3 kernels, stride 1, no padding; pools are 2x2.
/// A [`MultiThreshold`] activation follows each conv/dense layer except the
/// classifier, exactly as FINN folds batch-norm + quantized activation.
#[must_use]
pub fn cnv(quant: QuantSpec, classes: usize) -> GraphBuilder {
    cnv_scaled(quant, classes, 1.0)
}

/// Like [`cnv`], but with all channel widths scaled by `width_scale`
/// (used to model hypothetical narrower deployments and in tests).
///
/// # Panics
///
/// Panics if `width_scale` would reduce any stage below 8 channels or if
/// `classes` is zero.
#[must_use]
pub fn cnv_scaled(quant: QuantSpec, classes: usize, width_scale: f64) -> GraphBuilder {
    assert!(classes > 0, "class count must be nonzero");
    let scale = |c: usize| -> usize {
        let s = ((c as f64) * width_scale).round() as usize;
        assert!(
            s >= 8,
            "width scale too small: stage of {c} channels shrank to {s}"
        );
        s
    };
    let [c1, c2, c3] = [
        scale(CNV_STAGE_CHANNELS[0]),
        scale(CNV_STAGE_CHANNELS[1]),
        scale(CNV_STAGE_CHANNELS[2]),
    ];
    let fc = scale(CNV_FC_WIDTH);
    let levels = quant.threshold_levels();
    let mut rng = Xorshift::new(0xADAF_1001 ^ (classes as u64) << 8 ^ quant.weight_bits as u64);

    let name = format!("cnv-{}-c{classes}", quant.to_string().to_lowercase());
    GraphBuilder::new(name, TensorShape::new(3, 32, 32))
        // Stage 1: 32x32 -> 30x30 -> 28x28 -> pool -> 14x14
        .conv2d(filled_conv(3, c1, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c1, levels, -2048, 2048))
        .conv2d(filled_conv(c1, c1, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c1, levels, -32, 32))
        .max_pool(MaxPool2d::new(2, 2))
        // Stage 2: 14x14 -> 12x12 -> 10x10 -> pool -> 5x5
        .conv2d(filled_conv(c1, c2, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c2, levels, -48, 48))
        .conv2d(filled_conv(c2, c2, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c2, levels, -64, 64))
        .max_pool(MaxPool2d::new(2, 2))
        // Stage 3: 5x5 -> 3x3 -> 1x1
        .conv2d(filled_conv(c2, c3, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c3, levels, -64, 64))
        .conv2d(filled_conv(c3, c3, 3, 1, 0, quant, &mut rng))
        .threshold(MultiThreshold::uniform(c3, levels, -72, 72))
        // FC head
        .dense(filled_dense(c3, fc, quant, &mut rng))
        .threshold(MultiThreshold::uniform(fc, levels, -64, 64))
        .dense(filled_dense(fc, fc, quant, &mut rng))
        .threshold(MultiThreshold::uniform(fc, levels, -64, 64))
        .dense(filled_dense(fc, classes, quant, &mut rng))
        .label_select(classes)
}

/// CNVW2A2 adapted to CIFAR-10 (10 classes), the paper's primary model.
///
/// # Errors
///
/// Never fails for the fixed reference parameters; the `Result` mirrors the
/// fallible builder API.
pub fn cnv_w2a2_cifar10() -> Result<CnnGraph, crate::error::ModelError> {
    cnv(QuantSpec::w2a2(), 10)
        .build()
        .map(|g| g.renamed("cnv-w2a2-cifar10"))
}

/// CNVW2A2 adapted to GTSRB (43 classes).
///
/// # Errors
///
/// Never fails for the fixed reference parameters.
pub fn cnv_w2a2_gtsrb() -> Result<CnnGraph, crate::error::ModelError> {
    cnv(QuantSpec::w2a2(), 43)
        .build()
        .map(|g| g.renamed("cnv-w2a2-gtsrb"))
}

/// CNVW1A2 adapted to CIFAR-10 (10 classes).
///
/// # Errors
///
/// Never fails for the fixed reference parameters.
pub fn cnv_w1a2_cifar10() -> Result<CnnGraph, crate::error::ModelError> {
    cnv(QuantSpec::w1a2(), 10)
        .build()
        .map(|g| g.renamed("cnv-w1a2-cifar10"))
}

/// CNVW1A2 adapted to GTSRB (43 classes).
///
/// # Errors
///
/// Never fails for the fixed reference parameters.
pub fn cnv_w1a2_gtsrb() -> Result<CnnGraph, crate::error::ModelError> {
    cnv(QuantSpec::w1a2(), 43)
        .build()
        .map(|g| g.renamed("cnv-w1a2-gtsrb"))
}

/// A quantized LeNet-style network for 28x28 single-channel inputs
/// (MNIST-class geometry): two 5x5 convolutions with 2x2 pools and a
/// two-layer FC head. A second topology family exercising the dataflow
/// mapper with larger kernels than CNV.
///
/// ```text
/// 1x28x28 → conv5x5 1→8 → pool → conv5x5 8→16 → pool → fc 256→64 → fc 64→C → top1
/// ```
///
/// # Errors
///
/// Never fails for the fixed reference parameters.
pub fn lenet(quant: QuantSpec, classes: usize) -> Result<CnnGraph, crate::error::ModelError> {
    assert!(classes > 0, "class count must be nonzero");
    let mut rng = Xorshift::new(0x1E4E_7500 ^ classes as u64);
    let levels = quant.threshold_levels();
    GraphBuilder::new(
        format!("lenet-{}", quant.to_string().to_lowercase()),
        TensorShape::new(1, 28, 28),
    )
    // 28x28 -> 24x24 -> pool -> 12x12
    .conv2d(filled_conv(1, 8, 5, 1, 0, quant, &mut rng))
    .threshold(MultiThreshold::uniform(8, levels, -2048, 2048))
    .max_pool(MaxPool2d::new(2, 2))
    // 12x12 -> 8x8 -> pool -> 4x4
    .conv2d(filled_conv(8, 16, 5, 1, 0, quant, &mut rng))
    .threshold(MultiThreshold::uniform(16, levels, -96, 96))
    .max_pool(MaxPool2d::new(2, 2))
    // FC head
    .dense(filled_dense(16 * 4 * 4, 64, quant, &mut rng))
    .threshold(MultiThreshold::uniform(64, levels, -64, 64))
    .dense(filled_dense(64, classes, quant, &mut rng))
    .label_select(classes)
    .build()
}

/// A small two-conv network for fast tests: `1x12x12 → conv 1→8 → thresh →
/// pool → conv 8→16 → thresh → fc → top1`.
///
/// # Errors
///
/// Never fails for the fixed reference parameters.
pub fn tiny(quant: QuantSpec, classes: usize) -> Result<CnnGraph, crate::error::ModelError> {
    let mut rng = Xorshift::new(0x7E57_CA5E);
    let levels = quant.threshold_levels();
    GraphBuilder::new(
        format!("tiny-{}", quant.to_string().to_lowercase()),
        TensorShape::new(1, 12, 12),
    )
    .conv2d(filled_conv(1, 8, 3, 1, 0, quant, &mut rng))
    .threshold(MultiThreshold::uniform(8, levels, -768, 768))
    .max_pool(MaxPool2d::new(2, 2))
    .conv2d(filled_conv(8, 16, 3, 1, 0, quant, &mut rng))
    .threshold(MultiThreshold::uniform(16, levels, -24, 24))
    .dense(filled_dense(16 * 3 * 3, classes, quant, &mut rng))
    .label_select(classes)
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    #[test]
    fn cnv_w2a2_structure() {
        let g = cnv_w2a2_cifar10().expect("builds");
        assert_eq!(g.input_shape(), TensorShape::new(3, 32, 32));
        assert_eq!(g.conv_layers().count(), 6);
        let dense_count = g
            .iter()
            .filter(|n| matches!(n.layer, Layer::Dense(_)))
            .count();
        assert_eq!(dense_count, 3);
        assert_eq!(g.conv_channels(), vec![64, 64, 128, 128, 256, 256]);
        assert_eq!(g.output_shape(), TensorShape::flat(1));
    }

    #[test]
    fn cnv_shapes_match_finn_reference() {
        let g = cnv_w2a2_cifar10().expect("builds");
        // After the last conv the feature map must be 256x1x1 so the FC head
        // consumes 256 features — the canonical CNV flattening point.
        let last_conv = g.conv_layers().last().expect("has convs").0;
        assert_eq!(last_conv.output_shape, TensorShape::new(256, 1, 1));
    }

    #[test]
    fn gtsrb_variant_has_43_classes() {
        let g = cnv_w2a2_gtsrb().expect("builds");
        let top = g.nodes().last().expect("nonempty");
        match &top.layer {
            Layer::LabelSelect(l) => assert_eq!(l.classes, 43),
            other => panic!("expected labelselect, got {other}"),
        }
    }

    #[test]
    fn w1a2_weights_are_binary() {
        let g = cnv_w1a2_cifar10().expect("builds");
        for (_, conv) in g.conv_layers() {
            assert!(conv.weights.as_slice().iter().all(|&w| w == -1 || w == 1));
        }
    }

    #[test]
    fn w2a2_weights_in_domain() {
        let g = cnv_w2a2_cifar10().expect("builds");
        for (_, conv) in g.conv_layers() {
            assert!(conv
                .weights
                .as_slice()
                .iter()
                .all(|&w| (-1..=1).contains(&w)));
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = cnv_w2a2_cifar10().expect("builds");
        let b = cnv_w2a2_cifar10().expect("builds");
        assert_eq!(a, b);
    }

    #[test]
    fn filter_norms_are_not_all_equal() {
        // Filter selection needs an ordering; the xorshift fill must produce
        // distinguishable filters.
        let g = cnv_w2a2_cifar10().expect("builds");
        let (_, conv) = g.conv_layers().next().expect("has convs");
        let norms = conv.weights.filter_l1_norms();
        assert!(norms.iter().any(|&n| n != norms[0]));
    }

    #[test]
    fn scaled_width_changes_channels() {
        let g = cnv_scaled(QuantSpec::w2a2(), 10, 0.5)
            .build()
            .expect("builds");
        assert_eq!(g.conv_channels(), vec![32, 32, 64, 64, 128, 128]);
    }

    #[test]
    #[should_panic(expected = "width scale too small")]
    fn absurd_scale_rejected() {
        let _ = cnv_scaled(QuantSpec::w2a2(), 10, 0.01);
    }

    #[test]
    fn tiny_builds_for_both_quants() {
        assert!(tiny(QuantSpec::w2a2(), 10).is_ok());
        assert!(tiny(QuantSpec::w1a2(), 4).is_ok());
    }

    #[test]
    fn lenet_builds_with_expected_shapes() {
        let g = lenet(QuantSpec::w2a2(), 10).expect("builds");
        assert_eq!(g.input_shape(), TensorShape::new(1, 28, 28));
        assert_eq!(g.conv_channels(), vec![8, 16]);
        // Flatten point: 16x4x4 = 256 features into the FC head.
        let last_conv_out = g.conv_layers().last().expect("convs").0.output_shape;
        assert_eq!(last_conv_out, TensorShape::new(16, 8, 8));
        assert_eq!(g.output_shape(), TensorShape::flat(1));
    }

    #[test]
    fn lenet_kernel_is_five() {
        let g = lenet(QuantSpec::w1a2(), 10).expect("builds");
        for (_, conv) in g.conv_layers() {
            assert_eq!(conv.kernel, 5);
        }
    }

    /// FNV-1a-64 over every Conv2d/Dense weight byte (`w as u8`), in node
    /// order.
    fn weight_digest(g: &CnnGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for node in g.iter() {
            let weights = match &node.layer {
                Layer::Conv2d(c) => c.weights.as_slice(),
                Layer::Dense(d) => d.weights.as_slice(),
                _ => continue,
            };
            for &w in weights {
                h = (h ^ u64::from(w as u8)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn every_builder_draws_the_pinned_weights() {
        // Pinned FNV-1a digests of every builder's weights: a change to
        // the fill or its stream must not move a single weight.
        let w2a2 = QuantSpec::w2a2();
        for (graph, digest) in [
            (cnv_w2a2_cifar10(), 0xf708_a059_7691_1f8e_u64),
            (cnv_w2a2_gtsrb(), 0xb2bb_e42d_a0ef_8d37),
            (cnv_w1a2_cifar10(), 0xf2cd_8427_e2d8_2933),
            (cnv_w1a2_gtsrb(), 0x1b04_3e64_65ff_c845),
            (tiny(w2a2, 10), 0x65aa_bf48_48ba_c5af),
            (lenet(w2a2, 10), 0xf4bc_2500_de68_0ddd),
            (lenet(QuantSpec::new(4, 2), 10), 0x9cb5_05f3_8dd5_b70f),
        ] {
            let graph = graph.expect("builds");
            assert_eq!(
                weight_digest(&graph),
                digest,
                "{}: weights differ from the pinned draw",
                graph.name()
            );
        }
    }

    #[test]
    fn cnv_total_macs_in_expected_range() {
        // Reference CNV on 32x32 is ~58M MACs; allow a broad sanity band.
        let g = cnv_w2a2_cifar10().expect("builds");
        let macs = g.total_macs();
        assert!(macs > 30_000_000 && macs < 100_000_000, "got {macs}");
    }
}
