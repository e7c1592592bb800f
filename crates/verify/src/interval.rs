//! Exact value-interval / accumulator-bitwidth analysis (`AF010`/`AF011`).
//!
//! [`accumulator_bounds`](crate::accumulator) answers "can any weight
//! assignment the quantized domain admits overflow the i32 accumulator?"
//! That domain bound is retraining-proof but deliberately loose: it
//! multiplies the full fan-in by the largest weight magnitude, as if every
//! tap pulled in the same direction at the activation maximum. This module
//! runs the precise counterpart on the *actual* stored weights: an abstract
//! interpretation over per-channel value intervals, propagated through the
//! whole graph in one forward pass. A CNN graph is a chain, so each layer's
//! output is its transfer function applied to the previous layer's output;
//! no layer is ever revisited, and there is nothing to join or widen.
//!
//! The abstract domain is a vector of integer intervals, one per channel of
//! the tensor flowing along the edge (per feature once flattened). Transfer
//! functions:
//!
//! * **input** — every pixel channel starts at `[0, 255]` (u8 stream);
//! * **conv/dense** — per output channel, the interval of the dot product:
//!   each tap contributes `[w·lo, w·hi]` for `w ≥ 0` and `[w·hi, w·lo]`
//!   for `w < 0`, summed exactly in `i128`; zero padding extends a tap's
//!   interval to include 0;
//! * **multi-threshold** — the activation is a count of met thresholds,
//!   monotone in the accumulator, so the output interval is exactly
//!   `[apply(lo), apply(hi)]` per channel;
//! * **max-pool** — `max` over values drawn from `[lo, hi]` stays in
//!   `[lo, hi]`, and both endpoints remain attainable: identity;
//! * **label-select** — an argmax index in `[0, classes-1]`.
//!
//! Every transfer is exact (the result interval is the tightest one
//! containing all concretely reachable values under the per-channel
//! abstraction), so the analysis is sound by construction and never looser
//! than the AF006 domain bound — a fact the test suite pins down per
//! builtin model.

use crate::accumulator::AccumulatorBound;
use adaflow_model::{CnnGraph, Layer};

/// A closed integer interval `[lo, hi]`, kept in `i128` so that even the
/// pathological AF006 overflow fixtures (≈ 1.4e11) stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest reachable value.
    pub lo: i128,
    /// Largest reachable value.
    pub hi: i128,
}

impl Interval {
    /// The interval containing exactly `v`.
    #[must_use]
    pub const fn point(v: i128) -> Self {
        Self { lo: v, hi: v }
    }

    /// `[lo, hi]`; panics in debug builds when `lo > hi`.
    #[must_use]
    pub fn new(lo: i128, hi: i128) -> Self {
        debug_assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Self { lo, hi }
    }

    /// Whether `v` lies in the interval.
    #[must_use]
    pub fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Convex hull of two intervals.
    #[must_use]
    pub fn hull(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Largest absolute value in the interval.
    #[must_use]
    pub fn abs_max(&self) -> i128 {
        self.lo.unsigned_abs().max(self.hi.unsigned_abs()) as i128
    }

    /// Whether every value fits the engine's `i32` accumulator.
    #[must_use]
    pub fn fits_i32(&self) -> bool {
        self.lo >= i128::from(i32::MIN) && self.hi <= i128::from(i32::MAX)
    }

    /// Minimal signed two's-complement width representing every value:
    /// the smallest `b ≥ 1` with `-2^(b-1) ≤ lo` and `hi ≤ 2^(b-1) - 1`.
    #[must_use]
    pub fn required_bits(&self) -> u32 {
        (1..=127)
            .find(|&b| {
                let half = 1i128 << (b - 1);
                self.lo >= -half && self.hi < half
            })
            .unwrap_or(128)
    }
}

/// Abstract value of one graph edge: unreachable, or one interval per
/// channel of the flowing tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbsVal {
    /// Nothing reaches this edge: a malformed layer upstream stopped the
    /// analysis.
    Bottom,
    /// Per-channel reachable-value intervals.
    Channels(Vec<Interval>),
}

/// Exact accumulator analysis of one MVTU (conv or dense) layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvtuInterval {
    /// Layer index in the graph.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Reachable accumulator interval per output channel (feature for
    /// dense), under the actual stored weights.
    pub per_channel: Vec<Interval>,
    /// Hull over all output channels.
    pub acc: Interval,
    /// Minimal signed accumulator width for `acc`.
    pub required_bits: u32,
    /// Spare bits in the engine's 32-bit accumulator (negative when the
    /// interval overflows i32).
    pub spare_bits: i32,
    /// The AF006 domain bound `fan_in · max|w| · max|a|`, for tightness
    /// comparison.
    pub domain_worst_abs: i128,
}

impl MvtuInterval {
    /// Whether every reachable accumulator value fits `i32`.
    #[must_use]
    pub fn fits_i32(&self) -> bool {
        self.acc.fits_i32()
    }
}

/// Reachability findings for one `MultiThreshold` layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdLiveness {
    /// Layer index in the graph.
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// Threshold levels per channel.
    pub levels: usize,
    /// Total inert thresholds across all channels: levels that never
    /// discriminate because the incoming accumulator interval never
    /// crosses them (always met, or never met).
    pub inert_thresholds: usize,
    /// Channels with at least one inert threshold.
    pub channels_with_inert: usize,
    /// Channels whose output is constant over the whole reachable input
    /// range (`apply(lo) == apply(hi)`): the channel carries no
    /// information downstream.
    pub dead_channels: usize,
    /// First dead channel index, for the diagnostic message.
    pub first_dead: Option<usize>,
}

/// Result of the whole-graph interval analysis.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    /// Per-MVTU exact accumulator intervals, in dataflow order.
    pub mvtus: Vec<MvtuInterval>,
    /// Per-threshold-layer liveness findings, in dataflow order.
    pub thresholds: Vec<ThresholdLiveness>,
    /// Per-node *output* abstract values (one entry per layer).
    pub node_out: Vec<AbsVal>,
}

impl IntervalAnalysis {
    /// The MVTU result for a given layer index, if that layer is an MVTU.
    #[must_use]
    pub fn mvtu(&self, layer: usize) -> Option<&MvtuInterval> {
        self.mvtus.iter().find(|m| m.layer == layer)
    }
}

/// Interval of the value stream entering the network: u8 pixels.
fn input_val(channels: usize) -> AbsVal {
    AbsVal::Channels(vec![
        Interval::new(
            0,
            i128::from(crate::accumulator::INPUT_ACT_MAX)
        );
        channels
    ])
}

/// Dot-product interval of one weight row against per-channel input
/// intervals: `inputs[c]` feeds the `taps` consecutive weights
/// `c·taps..(c + 1)·taps`. Each channel's weights are summed by sign
/// first, so the channel adds `[pos·lo + neg·hi, pos·hi + neg·lo]` with
/// `pos ≥ 0 ≥ neg`, the exact sum of the per-tap products.
fn row_interval(weights: &[i8], taps: usize, inputs: &[Interval]) -> Interval {
    let mut lo = 0i128;
    let mut hi = 0i128;
    // `max(1)`: a malformed zero-tap kernel has no weights to chunk.
    for (channel, x) in weights.chunks(taps.max(1)).zip(inputs) {
        let (mut pos, mut neg) = (0i64, 0i64);
        for &w in channel {
            if w > 0 {
                pos += i64::from(w);
            } else {
                neg += i64::from(w);
            }
        }
        let (pos, neg) = (i128::from(pos), i128::from(neg));
        lo += pos * x.lo + neg * x.hi;
        hi += pos * x.hi + neg * x.lo;
    }
    Interval::new(lo, hi)
}

/// Whether `node`'s declared geometry, stored weights and the incoming
/// channel count are mutually consistent. Graphs reach the verifier through
/// the serde backdoor with no constructor validation, and the *structural*
/// rules (AF001/AF002/AF007) own those defects — the precise analysis must
/// degrade to "no result" on them, never index out of bounds.
fn well_formed(node: &adaflow_model::Node, input: &[Interval]) -> bool {
    match &node.layer {
        Layer::Conv2d(c) => {
            c.weights.out_channels() == c.out_channels
                && c.weights.in_channels() == c.in_channels
                && c.weights.kernel() == c.kernel
                && input.len() == c.in_channels
        }
        Layer::Dense(d) => {
            let spatial = node.input_shape.spatial().max(1);
            d.weights.out_features() == d.out_features
                && d.weights.in_features() == d.in_features
                && d.in_features <= input.len() * spatial
        }
        Layer::MultiThreshold(t) => input.len() <= t.table.channels(),
        Layer::MaxPool2d(_) | Layer::LabelSelect(_) => true,
    }
}

/// Transfer function of one layer: input abstract value → output abstract
/// value. Returns [`AbsVal::Bottom`] when the input is unreachable or the
/// node is structurally malformed (see [`well_formed`]).
fn transfer(node: &adaflow_model::Node, input: &AbsVal) -> AbsVal {
    let AbsVal::Channels(input) = input else {
        return AbsVal::Bottom;
    };
    if !well_formed(node, input) {
        return AbsVal::Bottom;
    }
    match &node.layer {
        Layer::Conv2d(c) => {
            let k2 = c.kernel * c.kernel;
            // With zero padding, some window taps read the constant 0
            // instead of a pixel; the per-channel interval over all output
            // positions must cover both.
            let padded: Vec<Interval> = if c.padding > 0 {
                input.iter().map(|x| x.hull(&Interval::point(0))).collect()
            } else {
                input.clone()
            };
            let out = (0..c.out_channels)
                .map(|o| row_interval(c.weights.filter(o), k2, &padded))
                .collect();
            AbsVal::Channels(out)
        }
        Layer::Dense(d) => {
            // Channel-major flatten: feature f comes from channel
            // f / spatial of the (possibly spatial) input tensor.
            let spatial = node.input_shape.spatial().max(1);
            let out = (0..d.out_features)
                .map(|o| row_interval(d.weights.row(o), spatial, input))
                .collect();
            AbsVal::Channels(out)
        }
        Layer::MultiThreshold(t) => {
            let out = input
                .iter()
                .enumerate()
                .map(|(c, x)| {
                    // apply() is monotone in the accumulator, so the image
                    // of [lo, hi] is exactly [apply(lo), apply(hi)].
                    // Saturating to i32 is sound: thresholds are i32, so
                    // apply() is constant beyond the i32 range.
                    let lo = t.table.apply(c, clamp_i32(x.lo));
                    let hi = t.table.apply(c, clamp_i32(x.hi));
                    Interval::new(i128::from(lo), i128::from(hi))
                })
                .collect();
            AbsVal::Channels(out)
        }
        Layer::MaxPool2d(_) => AbsVal::Channels(input.clone()),
        Layer::LabelSelect(l) => {
            AbsVal::Channels(vec![Interval::new(0, l.classes.saturating_sub(1) as i128)])
        }
    }
}

fn clamp_i32(v: i128) -> i32 {
    v.clamp(i128::from(i32::MIN), i128::from(i32::MAX)) as i32
}

/// Runs the whole-graph interval analysis.
#[must_use]
pub fn interval_analysis(graph: &CnnGraph) -> IntervalAnalysis {
    analyse(graph, &crate::accumulator::accumulator_bounds(graph))
}

/// The interval analysis of `graph`, given its AF006 domain bounds (for
/// each MVTU's tightness comparison).
pub(crate) fn analyse(graph: &CnnGraph, bounds: &[AccumulatorBound]) -> IntervalAnalysis {
    let mut node_out: Vec<AbsVal> = Vec::with_capacity(graph.len());
    for node in graph.iter() {
        let out = match node_out.last() {
            Some(input) => transfer(node, input),
            None => transfer(node, &input_val(graph.input_shape().channels)),
        };
        node_out.push(out);
    }
    let mut mvtus = Vec::new();
    let mut thresholds = Vec::new();
    for (i, node) in graph.iter().enumerate() {
        match &node.layer {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                let AbsVal::Channels(per_channel) = &node_out[i] else {
                    continue;
                };
                let acc = per_channel
                    .iter()
                    .copied()
                    .reduce(|a, b| a.hull(&b))
                    .unwrap_or(Interval::point(0));
                let required_bits = acc.required_bits();
                mvtus.push(MvtuInterval {
                    layer: node.id.0,
                    name: node.name.clone(),
                    per_channel: per_channel.clone(),
                    acc,
                    required_bits,
                    spare_bits: 32 - required_bits as i32,
                    domain_worst_abs: bounds
                        .iter()
                        .find(|b| b.layer == node.id.0)
                        .map_or(0, |b| b.worst_abs),
                });
            }
            Layer::MultiThreshold(t) => {
                let input = if i == 0 {
                    input_val(graph.input_shape().channels)
                } else {
                    node_out[i - 1].clone()
                };
                let AbsVal::Channels(input) = input else {
                    continue;
                };
                if input.len() > t.table.channels() {
                    continue; // malformed: AF007's finding, not ours
                }
                let mut inert = 0usize;
                let mut chans_with_inert = 0usize;
                let mut dead = 0usize;
                let mut first_dead = None;
                for (c, x) in input.iter().enumerate() {
                    let row = t.table.row(c);
                    // A threshold discriminates iff it lies in (lo, hi]:
                    // below that it is always met, above it never.
                    let live = row
                        .iter()
                        .filter(|&&th| i128::from(th) > x.lo && i128::from(th) <= x.hi)
                        .count();
                    let inert_here = row.len() - live;
                    if inert_here > 0 {
                        inert += inert_here;
                        chans_with_inert += 1;
                    }
                    if live == 0 {
                        dead += 1;
                        first_dead.get_or_insert(c);
                    }
                }
                thresholds.push(ThresholdLiveness {
                    layer: node.id.0,
                    name: node.name.clone(),
                    levels: t.table.levels(),
                    inert_thresholds: inert,
                    channels_with_inert: chans_with_inert,
                    dead_channels: dead,
                    first_dead,
                });
            }
            _ => {}
        }
    }
    IntervalAnalysis {
        mvtus,
        thresholds,
        node_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;

    fn small() -> CnnGraph {
        GraphBuilder::new("small", TensorShape::new(1, 6, 6))
            .conv2d(Conv2d::new(1, 2, 3, 1, 0, QuantSpec::w2a2()))
            .threshold(MultiThreshold::uniform(2, 3, -200, 200))
            .dense(Dense::new(2 * 4 * 4, 3, QuantSpec::w2a2()))
            .label_select(3)
            .build()
            .expect("builds")
    }

    #[test]
    fn zero_weights_give_point_intervals() {
        let analysis = interval_analysis(&small());
        assert_eq!(analysis.mvtus.len(), 2);
        for m in &analysis.mvtus {
            assert_eq!(m.acc, Interval::point(0), "{}", m.name);
            assert_eq!(m.required_bits, 1);
        }
    }

    #[test]
    fn conv_interval_matches_hand_computation() {
        // One filter: [+1, -1, +1, 0, ...] against pixels in [0, 255]:
        // lo = -255 (negative tap at max), hi = 2·255 (positive taps at max).
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, QuantSpec::w2a2());
        conv.weights.set(0, 0, 0, 0, 1);
        conv.weights.set(0, 0, 0, 1, -1);
        conv.weights.set(0, 0, 0, 2, 1);
        let g = GraphBuilder::new("hand", TensorShape::new(1, 5, 5))
            .conv2d(conv)
            .threshold(MultiThreshold::uniform(1, 3, -100, 100))
            .dense(Dense::new(9, 2, QuantSpec::w2a2()))
            .label_select(2)
            .build()
            .expect("builds");
        let analysis = interval_analysis(&g);
        assert_eq!(analysis.mvtus[0].acc, Interval::new(-255, 510));
        // Signed 10-bit covers [-512, 511] ⊇ [-255, 510].
        assert_eq!(analysis.mvtus[0].required_bits, 10);
    }

    #[test]
    fn padding_extends_taps_to_zero() {
        // All-positive filter with padding: lo must stay 0-reachable but,
        // more to the point, an all-negative filter's hi must include 0.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, QuantSpec::w2a2());
        for kh in 0..3 {
            for kw in 0..3 {
                conv.weights.set(0, 0, kh, kw, -1);
            }
        }
        let g = GraphBuilder::new("pad", TensorShape::new(1, 5, 5))
            .conv2d(conv)
            .threshold(MultiThreshold::uniform(1, 3, -100, 100))
            .dense(Dense::new(25, 2, QuantSpec::w2a2()))
            .label_select(2)
            .build()
            .expect("builds");
        let analysis = interval_analysis(&g);
        // Padding taps contribute 0, so hi = 0 stays; without padding the
        // same bound holds here (pixels can be 0) — the load-bearing check
        // is lo: nine taps at -255.
        assert_eq!(analysis.mvtus[0].acc, Interval::new(-9 * 255, 0));
    }

    #[test]
    fn threshold_transfer_uses_monotone_apply() {
        // Accumulator range [-255, 510] against thresholds {-50, 0, 50}:
        // apply(-255) = 0, apply(510) = 3 → full 2-bit range.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, QuantSpec::w2a2());
        conv.weights.set(0, 0, 0, 0, 1);
        conv.weights.set(0, 0, 0, 1, -1);
        conv.weights.set(0, 0, 0, 2, 1);
        let g = GraphBuilder::new("thresh", TensorShape::new(1, 5, 5))
            .conv2d(conv)
            .threshold(MultiThreshold::uniform(1, 3, -100, 100))
            .dense(Dense::new(9, 2, QuantSpec::w2a2()))
            .label_select(2)
            .build()
            .expect("builds");
        let analysis = interval_analysis(&g);
        match &analysis.node_out[1] {
            AbsVal::Channels(ch) => assert_eq!(ch[0], Interval::new(0, 3)),
            AbsVal::Bottom => panic!("threshold output unreachable"),
        }
    }

    #[test]
    fn builtin_intervals_never_looser_than_domain_bound() {
        for g in [
            topology::cnv_w2a2_cifar10().expect("builds"),
            topology::cnv_w1a2_cifar10().expect("builds"),
            topology::lenet(QuantSpec::w2a2(), 10).expect("builds"),
            topology::lenet(QuantSpec::w1a2(), 10).expect("builds"),
            topology::tiny(QuantSpec::w2a2(), 4).expect("builds"),
        ] {
            let analysis = interval_analysis(&g);
            for m in &analysis.mvtus {
                assert!(
                    m.acc.abs_max() <= m.domain_worst_abs,
                    "{}/{}: exact interval [{}, {}] looser than domain bound ±{}",
                    g.name(),
                    m.name,
                    m.acc.lo,
                    m.acc.hi,
                    m.domain_worst_abs,
                );
                assert!(m.fits_i32(), "{}/{}", g.name(), m.name);
            }
        }
    }

    #[test]
    fn interval_act_bounds_agree_with_domain_walk() {
        // The per-MVTU incoming activation maxima derived by
        // adaflow_model::mvtu_domains must dominate the exact intervals.
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let analysis = interval_analysis(&g);
        let domains = adaflow_model::mvtu_domains(&g);
        for d in &domains {
            let input = if d.layer == 0 {
                input_val(g.input_shape().channels)
            } else {
                analysis.node_out[d.layer - 1].clone()
            };
            let AbsVal::Channels(ch) = input else {
                panic!("unreachable MVTU input");
            };
            for x in &ch {
                assert!(x.hi <= i128::from(d.act_in_max), "{}", d.name);
                assert!(x.lo >= 0, "{}: activations are unsigned", d.name);
            }
        }
    }

    #[test]
    fn dead_channels_detected_when_thresholds_unreachable() {
        // Thresholds far above anything the conv can produce: every
        // channel's activation is constantly 0.
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, QuantSpec::w2a2());
        for o in 0..2 {
            conv.weights.set(o, 0, 0, 0, 1);
        }
        let g = GraphBuilder::new("dead", TensorShape::new(1, 6, 6))
            .conv2d(conv)
            .threshold(MultiThreshold::uniform(2, 3, 100_000, 100_300))
            .dense(Dense::new(2 * 4 * 4, 2, QuantSpec::w2a2()))
            .label_select(2)
            .build()
            .expect("builds");
        let analysis = interval_analysis(&g);
        assert_eq!(analysis.thresholds[0].dead_channels, 2);
        assert_eq!(analysis.thresholds[0].first_dead, Some(0));
    }

    /// The oracle of [`row_interval`]: one signed product pair per weight.
    fn per_tap_interval(weights: &[i8], taps: usize, inputs: &[Interval]) -> Interval {
        let (mut lo, mut hi) = (0i128, 0i128);
        for (t, &w) in weights.iter().enumerate() {
            let (x, w) = (inputs[t / taps], i128::from(w));
            if w >= 0 {
                lo += w * x.lo;
                hi += w * x.hi;
            } else {
                lo += w * x.hi;
                hi += w * x.lo;
            }
        }
        Interval::new(lo, hi)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn signed_channel_sums_equal_the_per_tap_transfer(
            taps in 1usize..26,
            channels in 1usize..40,
            wide in proptest::bool::ANY,
            seed in 1u64..u64::MAX,
        ) {
            let mut s = seed;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            // 8-bit weights; intervals of codes, or of i64-scale accumulators
            // that only the i128 combine holds.
            let weights: Vec<i8> = (0..channels * taps).map(|_| next() as i8).collect();
            let scale = if wide { i128::from(i64::MAX) } else { 4 };
            let inputs: Vec<Interval> = (0..channels)
                .map(|_| {
                    let a = i128::from(next() as i64) % scale;
                    let b = i128::from(next() as i64) % scale;
                    Interval::new(a.min(b), a.max(b))
                })
                .collect();
            proptest::prop_assert_eq!(
                row_interval(&weights, taps, &inputs),
                per_tap_interval(&weights, taps, &inputs)
            );
        }
    }

    #[test]
    fn required_bits_edge_cases() {
        assert_eq!(Interval::point(0).required_bits(), 1);
        assert_eq!(Interval::new(-1, 0).required_bits(), 1);
        assert_eq!(Interval::new(0, 1).required_bits(), 2);
        assert_eq!(Interval::new(-128, 127).required_bits(), 8);
        assert_eq!(Interval::new(-129, 127).required_bits(), 9);
        assert_eq!(
            Interval::new(i128::from(i32::MIN), i128::from(i32::MAX)).required_bits(),
            32
        );
    }
}
