//! Bit-accurate integer inference engine.
//!
//! Executes a [`CnnGraph`] the way the FINN dataflow hardware does:
//! convolutions and dense layers accumulate signed integer dot products
//! (the MVTU's PE accumulators), multi-threshold activations re-quantize
//! accumulators to low-precision unsigned activations, max-pooling operates
//! directly on quantized activations, and the final label-select picks the
//! arg-max class. There is no floating point anywhere on the datapath.
//!
//! ## Throughput layers
//!
//! The engine is the hot path under accuracy evaluation, threshold
//! calibration and the pruning retrain loop, so it is built in three
//! performance levels, each bit-identical to the plain path:
//!
//! 1. **Scratch-arena reuse** — [`EngineScratch`] holds every intermediate
//!    buffer, sized once from the engine's kernel plan.
//!    [`Engine::run_with_scratch`] allocates nothing per call beyond the
//!    returned logits.
//! 2. **One windowed MVTU** — under [`ConvStrategy::Auto`] every convolution
//!    and dense layer is the same windowed MVTU (a dense layer is the
//!    convolution whose kernel covers its whole input map), reading its
//!    windows in place: a popcount kernel over bit-packed maps where the
//!    domains allow, with the threshold in its epilogue and max-pooling on
//!    bitplanes, so activations stay packed from the first threshold to the
//!    classifier ([`crate::packed`]); a byte kernel over a pixel-major byte
//!    map everywhere else (the 8-bit input layer, wider weights), with the
//!    same epilogue. On the AMX backend every such layer is instead one
//!    AMX tile step over `u8` maps, its weights read in place, its windows
//!    gathered per 16-pixel tile and its threshold in its epilogue. No
//!    window matrix is built.
//! 3. **Parallel batch evaluation** — [`BatchRunner`] shards an image set
//!    across scoped worker threads, one scratch arena per worker, preserving
//!    input order.

use crate::error::NnError;
#[cfg(target_arch = "x86_64")]
use crate::packed::amx;
use crate::packed::{self, ByteWeights, PackedBackend, PackedThresholds, PackedWeights, Run};
use crate::parallel;
use crate::tensor::Activations;
use adaflow_model::{CnnGraph, Conv2d, Layer, MaxPool2d, MvtuDomain, Node, TensorShape};
use adaflow_telemetry::SinkHandle;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Result of one inference: what the engine computed, nothing about how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceResult {
    /// Selected (top-1) class index.
    pub label: usize,
    /// Raw class accumulators from the classifier layer.
    pub logits: Vec<i32>,
}

/// Which kernel the engine planner chose for one layer, exposed through
/// [`Engine::kernels`] and suffixed onto telemetry span names
/// (`conv2[packed-avx2]`) so `report` can attribute time per kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAttribution {
    /// Layer name.
    pub layer: String,
    /// Kernel label: `direct`, `bytes-scalar`, `bytes-avx2`,
    /// `packed-scalar`, `packed-avx2`, `packed-avx512` or `amx` for MVTU
    /// layers; `threshold` (to `u8`) or `fused` (applied by the MVTU before
    /// it) for thresholds; `maxpool` or `argmax` otherwise.
    pub kernel: &'static str,
}

/// Convolution lowering strategy.
///
/// Every strategy is bit-identical to every other; they differ only in
/// speed:
///
/// * [`ConvStrategy::Auto`] (the default) is a pure function of the graph:
///   every conv and dense layer is one windowed MVTU. One whose
///   verifier-established domains fit the packed contract (≤2-bit weights
///   and activations) and that has at least
///   [`packed_min_rows`](crate::KernelThresholds::packed_min_rows) weight
///   rows runs the packed popcount kernel on packed feature maps, with the
///   threshold that follows in its epilogue; every other one (the 8-bit
///   input layer, wider weights) runs the byte-window MVTU over a
///   pixel-major byte map, with the same epilogue. The byte kernel runs on
///   SIMD only where its domains prove the `i16` pair sums exact, else on
///   its `i32` scalar twin. On the [`PackedBackend::Amx`] backend every
///   conv and dense layer is instead one AMX tile step (`amx`) over `u8`
///   maps, with the threshold that follows in its epilogue;
/// * [`ConvStrategy::Direct`] walks the input in place, one plain dot
///   product per output — the reference every other plan is tested
///   against;
/// * [`ConvStrategy::Im2col`] is the implicit im2col: the byte-window MVTU
///   on every conv and dense layer, its windows read in place, with no
///   packed map and every threshold to `u8`.
///
/// `Direct` and `Im2col` never touch the packed popcount kernels or the
/// AMX tiles, so they double as the equivalence oracles the packed
/// proptests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvStrategy {
    /// Packed popcount kernels where the domains allow, the byte window
    /// elsewhere.
    #[default]
    Auto,
    /// In-place direct convolution and plain row dots.
    Direct,
    /// The byte-window MVTU on every layer: im2col without a window matrix.
    Im2col,
}

/// Reusable scratch memory for [`Engine::run_with_scratch`].
///
/// Sized once from an engine's kernel plan ([`Engine::scratch`]); repeated
/// inferences through the same scratch allocate nothing. A scratch built
/// for another graph or strategy is grown on first use instead. One scratch
/// serves exactly one in-flight inference — use one per worker thread (see
/// [`BatchRunner`]).
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    /// Channel-major MVTU accumulators of the widest layer that stores them:
    /// a direct layer, or a windowed one whose threshold is not fused (the
    /// classifier).
    accum: Vec<i32>,
    /// Ping-pong `u8` activation buffers; `act_a` starts as the input image.
    act_a: Vec<u8>,
    act_b: Vec<u8>,
    /// Ping-pong packed feature maps (pixel-major bitplanes).
    map_a: Vec<u64>,
    map_b: Vec<u64>,
    /// Pixel-major byte map of the widest byte-window MVTU's input, the
    /// `u8` activations transposed once per inference.
    byte_map: Vec<u32>,
    /// One tile's accumulators, up to [`packed::TILE`] output pixels of
    /// them, between a windowed micro-kernel and its threshold epilogue.
    pixel: Vec<i32>,
    /// The runs of one window (one per kernel row at most).
    runs: Vec<Run>,
    /// One 16-pixel tile of an AMX convolution's windows, gathered in the
    /// layout its tile product reads.
    gather: Vec<u8>,
}

/// Element counts of every [`EngineScratch`] buffer one kernel plan needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScratchSizes {
    accum: usize,
    act: usize,
    map: usize,
    byte_map: usize,
    pixel: usize,
    runs: usize,
    gather: usize,
}

impl EngineScratch {
    /// The scratch of `graph`'s default plan: [`ConvStrategy::Auto`] on the
    /// [`packed::default_backend`].
    #[must_use]
    pub fn for_graph(graph: &CnnGraph) -> Self {
        let (_, _, sizes) = build_plan(graph, ConvStrategy::Auto, packed::default_backend());
        Self::sized(&sizes)
    }

    fn sized(sizes: &ScratchSizes) -> Self {
        let mut scratch = Self::default();
        scratch.grow(sizes);
        scratch
    }

    /// Grows every buffer that is shorter than `sizes` asks; a no-op on a
    /// scratch the same plan sized.
    fn grow(&mut self, sizes: &ScratchSizes) {
        fn at_least<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
            if buf.len() < len {
                buf.resize(len, T::default());
            }
        }
        at_least(&mut self.accum, sizes.accum);
        at_least(&mut self.act_a, sizes.act);
        at_least(&mut self.act_b, sizes.act);
        at_least(&mut self.map_a, sizes.map);
        at_least(&mut self.map_b, sizes.map);
        at_least(&mut self.byte_map, sizes.byte_map);
        at_least(&mut self.pixel, sizes.pixel);
        at_least(&mut self.runs, sizes.runs);
        at_least(&mut self.gather, sizes.gather);
    }

    /// Total scratch bytes held (diagnostics / capacity planning).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.act_a.len()
            + self.act_b.len()
            + self.gather.len()
            + 4 * (self.accum.len() + self.byte_map.len() + self.pixel.len())
            + 8 * (self.map_a.len() + self.map_b.len())
            + std::mem::size_of::<Run>() * self.runs.len()
    }
}

/// The inference engine, borrowing the graph it executes.
///
/// ```
/// use adaflow_model::prelude::*;
/// use adaflow_nn::{Activations, Engine};
///
/// let graph = topology::tiny(QuantSpec::w2a2(), 4)?;
/// let engine = Engine::new(&graph)?;
/// let image = Activations::zeroed(graph.input_shape());
/// let result = engine.run(&image)?;
/// assert_eq!(result.logits.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    graph: &'g CnnGraph,
    strategy: ConvStrategy,
    backend: PackedBackend,
    sink: SinkHandle,
    plan: Arc<Vec<NodePlan<'g>>>,
    kernels: Arc<[KernelAttribution]>,
    scratch: ScratchSizes,
    /// Debug builds carry the AF010 per-channel accumulator intervals
    /// (one `Some` entry per MVTU node) and assert every computed
    /// accumulator lands inside them — a live cross-check of the abstract
    /// interpretation against the real kernels. Release builds pay nothing.
    #[cfg(debug_assertions)]
    intervals: Arc<LayerIntervals>,
}

/// Per-node accumulator bounds: one `Some(per-channel (lo, hi))` entry per
/// MVTU layer, `None` for non-MVTU nodes.
#[cfg(debug_assertions)]
type LayerIntervals = Vec<Option<Vec<(i64, i64)>>>;

/// Value state machine of [`Engine::run_with_scratch`]: the current value
/// is quantized activations — `u8` in one of the two ping-pong buffers, or
/// a packed map of so many planes in one of the two map buffers — or raw
/// accumulators living in the scratch accumulator.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Bytes(Buf),
    Planes(Buf, usize),
    Accum,
}

/// One half of a ping-pong buffer pair.
#[derive(Clone, Copy, PartialEq)]
enum Buf {
    A,
    B,
}

impl Buf {
    fn other(self) -> Self {
        match self {
            Self::A => Self::B,
            Self::B => Self::A,
        }
    }
}

/// One MVTU: `rows` weight rows against `n` windows. A convolution's
/// windows are its output pixels; a dense layer is the `n = 1` case whose
/// single window is the whole input.
#[derive(Debug, Clone, Copy)]
struct Mvtu<'g> {
    /// The convolution to lower, `None` for dense.
    conv: Option<&'g Conv2d>,
    weights: &'g [i8],
    rows: usize,
    n: usize,
}

/// The one walk that pairs every node with its MVTU geometry and
/// verifier-established domain (`None` for non-MVTU nodes).
fn mvtu_walk(graph: &CnnGraph) -> impl Iterator<Item = (&Node, Option<(Mvtu<'_>, MvtuDomain)>)> {
    let mut domains = adaflow_model::mvtu_domains(graph).into_iter();
    graph.iter().map(move |node| {
        let mvtu = match &node.layer {
            Layer::Conv2d(c) => Some(Mvtu {
                conv: Some(c),
                weights: c.weights.as_slice(),
                rows: c.out_channels,
                n: node.output_shape.spatial(),
            }),
            Layer::Dense(d) => Some(Mvtu {
                conv: None,
                weights: d.weights.as_slice(),
                rows: d.out_features,
                n: 1,
            }),
            Layer::MultiThreshold(_) | Layer::MaxPool2d(_) | Layer::LabelSelect(_) => None,
        };
        let mvtu = mvtu.map(|m| (m, domains.next().expect("one domain per MVTU")));
        (node, mvtu)
    })
}

/// Whether [`ConvStrategy::Auto`] runs this MVTU on the packed kernels.
fn packs(domain: &MvtuDomain) -> bool {
    domain.packed_eligible() && domain.rows >= PACKED_MIN_ROWS
}

/// The largest weight magnitude of `domain`'s declared narrow-range weight
/// domain: `2^(b−1) − 1` for `b`-bit weights, 1 for binary ones.
fn weight_max(domain: &MvtuDomain) -> i8 {
    let max = adaflow_model::QuantizedDomain::signed(domain.weight_bits).max;
    i8::try_from(max).expect("weight domains are at most 8-bit")
}

/// Whether the AVX2 byte kernel computes this MVTU exactly: its
/// `vpmaddubsw` saturates each sum of two `u8 × i8` products to `i16`, and
/// the domains bound such a pair sum by `2 · act_in_max · w_max`. Otherwise
/// the `i32` scalar twin, which cannot saturate, runs it.
fn byte_simd_exact(domain: &MvtuDomain) -> bool {
    2 * domain.act_in_max * i64::from(weight_max(domain)) <= i64::from(i16::MAX)
}

/// A windowed MVTU: the convolution (or the dense layer, as the convolution
/// whose kernel covers its whole input map) over a pixel-major map — packed
/// bitplanes for [`PackedWeights`], a byte map for [`ByteWeights`].
#[derive(Debug, Clone)]
struct PackedMvtu<W> {
    weights: W,
    rows: usize,
    /// Accumulators the micro-kernel writes per pixel, padding rows
    /// included: the pitch of a tile's pixels in the accumulator scratch.
    acc_len: usize,
    /// Words (bitplanes) or dwords (bytes) per input pixel.
    cw: usize,
    in_hw: (usize, usize),
    kernel_hw: (usize, usize),
    stride: usize,
    padding: usize,
    /// The threshold node that follows, when it emits planes: thresholded
    /// in the kernel's epilogue, tile pixel by tile pixel.
    fused: Option<PackedThresholds>,
}

impl<W> PackedMvtu<W> {
    /// The MVTU `m` over an input of `shape`, `cw` words per pixel, whose
    /// micro-kernel writes `acc_len` accumulators per pixel.
    fn new(
        (weights, acc_len): (W, usize),
        m: &Mvtu,
        shape: TensorShape,
        cw: usize,
        fused: Option<PackedThresholds>,
    ) -> Self {
        let (kernel_hw, stride, padding) = match m.conv {
            Some(c) => ((c.kernel, c.kernel), c.stride, c.padding),
            None => ((shape.height, shape.width), 1, 0),
        };
        Self {
            weights,
            rows: m.rows,
            acc_len,
            cw,
            in_hw: (shape.height, shape.width),
            kernel_hw,
            stride,
            padding,
            fused,
        }
    }

    /// Writes the window of output pixel `(oy, ox)` as runs — the in-bounds
    /// part of each kernel row, joined to the previous run where both
    /// operands continue (a kernel as wide as the map) — and returns how
    /// many. Padding taps are simply absent: they would add zero.
    fn window_runs(&self, oy: usize, ox: usize, runs: &mut [Run]) -> usize {
        let ((ih, iw), (kh, kw)) = (self.in_hw, self.kernel_hw);
        let base_y = (oy * self.stride) as isize - self.padding as isize;
        let base_x = (ox * self.stride) as isize - self.padding as isize;
        let kx_lo = (-base_x).max(0);
        let kx_hi = (iw as isize - base_x).min(kw as isize);
        let mut used = 0;
        for ky in 0..kh {
            let sy = base_y + ky as isize;
            if sy < 0 || sy >= ih as isize || kx_lo >= kx_hi {
                continue;
            }
            let run = Run {
                act: (sy * iw as isize + base_x + kx_lo) as usize * self.cw,
                tap: (ky * kw + kx_lo as usize) * self.cw,
                len: (kx_hi - kx_lo) as usize * self.cw,
            };
            match runs[..used].last_mut() {
                Some(last) if last.act + last.len == run.act && last.tap + last.len == run.tap => {
                    last.len += run.len;
                }
                _ => {
                    runs[used] = run;
                    used += 1;
                }
            }
        }
        used
    }

    /// Whether the window of output pixel `(oy, ox)` lies wholly inside the
    /// input map, no tap of it in the padding.
    fn unclipped(&self, oy: usize, ox: usize) -> bool {
        let ((ih, iw), (kh, kw)) = (self.in_hw, self.kernel_hw);
        let (sy, sx) = (oy * self.stride, ox * self.stride);
        sy >= self.padding
            && sx >= self.padding
            && sy - self.padding + kh <= ih
            && sx - self.padding + kw <= iw
    }

    /// The tile of output pixels of `out` that starts at pixel `first`
    /// (raster order): writes each member's window offset from the first
    /// member's into `offsets` and returns how many there are. Members run
    /// on while they are unclipped, up to [`packed::TILE`], so every window
    /// of a tile is the first one's runs shifted by its offset; a clipped
    /// pixel is a tile of one.
    fn tile(&self, first: usize, out: TensorShape, offsets: &mut [usize; packed::TILE]) -> usize {
        let at = |i: usize| (i / out.width, i % out.width);
        // The word an unclipped window starts at: ((oy·s − pad)·iw + ox·s − pad)·cw.
        let base = |(oy, ox): (usize, usize)| {
            let (sy, sx) = (oy * self.stride, ox * self.stride);
            ((sy - self.padding) * self.in_hw.1 + sx - self.padding) * self.cw
        };
        offsets[0] = 0;
        let (oy, ox) = at(first);
        if !self.unclipped(oy, ox) {
            return 1;
        }
        let (origin, mut len) = (base((oy, ox)), 1);
        while len < packed::TILE && first + len < out.spatial() {
            let (y, x) = at(first + len);
            if !self.unclipped(y, x) {
                break;
            }
            // Raster order walks unclipped windows forward through the map.
            offsets[len] = base((y, x)) - origin;
            len += 1;
        }
        len
    }
}

/// `(current, other)` of a ping-pong pair whose current value lives in
/// `buf`.
fn ping_pong<'a, T>(buf: Buf, a: &'a mut [T], b: &'a mut [T]) -> (&'a [T], &'a mut [T]) {
    match buf {
        Buf::A => (a, b),
        Buf::B => (b, a),
    }
}

/// What one node does at run time.
#[derive(Debug, Clone)]
enum Step<'g> {
    /// `u8` activations → channel-major accumulators, in place
    /// ([`ConvStrategy::Direct`]).
    Direct(Mvtu<'g>),
    /// Packed map → packed map (fused threshold) or accumulators.
    Packed(PackedMvtu<PackedWeights>),
    /// `u8` activations → byte map → packed map (fused threshold) or
    /// accumulators, on the byte kernel of the backend it carries.
    ByteWindow(PackedMvtu<ByteWeights>, PackedBackend),
    /// `u8` activations → `u8` codes (fused threshold) or accumulators, on
    /// the AMX tiles.
    #[cfg(target_arch = "x86_64")]
    Amx(AmxMvtu<'g>),
    /// The 2×2/stride-2 max-pool of an AMX plan, on AVX-512 over `u8`.
    #[cfg(target_arch = "x86_64")]
    AmxPool,
    /// A threshold the preceding packed or byte-window MVTU already applied
    /// to its packed map.
    Fused,
    /// A threshold the preceding AMX MVTU already applied to its `u8` codes.
    AmxFused,
    /// Threshold to `u8`, max-pool in the current representation, or
    /// label-select: run from the node's own layer.
    Plain,
}

/// An MVTU on the AMX tiles, with the threshold that follows it when its
/// epilogue applies one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone)]
struct AmxMvtu<'g> {
    layer: amx::Layer<'g>,
    fused: Option<amx::Thresholds>,
}

/// Per-node execution plan: the step and the precomputed telemetry span
/// name.
#[derive(Debug, Clone)]
struct NodePlan<'g> {
    step: Step<'g>,
    span: String,
}

/// Builds the per-node plan (kernel choices, packed weights and thresholds,
/// span names), the shared attribution table and the scratch the plan needs
/// — a pure function of its arguments.
///
/// Representation is a property of each edge: a threshold emits planes iff
/// the MVTU that consumes it, through any pools, is planned packed (pools
/// keep the representation they are given). Every MVTU but a `Direct` one
/// is windowed and applies such a threshold itself, as its next node.
///
/// `Auto` on the AMX backend is one plan of its own: every MVTU is an AMX
/// step that applies the threshold after it, and activations stay `u8`
/// maps from the image to the logits, so nothing packs.
fn build_plan(
    graph: &CnnGraph,
    strategy: ConvStrategy,
    backend: PackedBackend,
) -> (Vec<NodePlan<'_>>, Arc<[KernelAttribution]>, ScratchSizes) {
    let nodes: Vec<_> = mvtu_walk(graph).collect();
    let amx = strategy == ConvStrategy::Auto && backend == PackedBackend::Amx;
    let is_packed = |i: usize| {
        strategy == ConvStrategy::Auto && !amx && nodes[i].1.as_ref().is_some_and(|(_, d)| packs(d))
    };
    // The thresholds of node `i` in packed form, when it is a threshold
    // whose value reaches a packed MVTU.
    let packed_thresholds = |i: usize| match nodes.get(i).map(|(node, _)| &node.layer) {
        Some(Layer::MultiThreshold(t)) => (i + 1..nodes.len())
            .find(|&j| !matches!(nodes[j].0.layer, Layer::MaxPool2d(_)))
            .is_some_and(is_packed)
            .then(|| PackedThresholds::pack(&t.table)),
        _ => None,
    };

    let mut plan = Vec::with_capacity(nodes.len());
    let mut attributions = Vec::with_capacity(nodes.len());
    let mut sizes = ScratchSizes {
        act: graph.input_shape().elements(),
        ..ScratchSizes::default()
    };
    let mut shape = graph.input_shape();
    // Planes of the current value when it is a packed map, and of the map
    // the windowed MVTU just planned writes in place of the next threshold.
    let mut planes = None;
    let mut fused_planes = None;
    // Whether the AMX MVTU just planned applies the next threshold.
    let mut amx_fused = false;
    for (i, (node, mvtu)) in nodes.iter().enumerate() {
        let out = node.output_shape;
        let map_words = |planes: usize| planes * out.spatial() * packed::plane_words(out.channels);
        let (step, label) = match (mvtu, &node.layer) {
            #[cfg(target_arch = "x86_64")]
            (Some((m, _)), _) if amx => {
                let fused = match nodes.get(i + 1).map(|(node, _)| &node.layer) {
                    Some(Layer::MultiThreshold(t)) => Some(amx::Thresholds::new(&t.table)),
                    _ => None,
                };
                amx_fused = fused.is_some();
                if !amx_fused {
                    sizes.accum = sizes.accum.max(m.rows * m.n);
                }
                let layer = match m.conv {
                    Some(c) => amx::Layer::conv(
                        m.weights,
                        m.rows,
                        shape.channels,
                        (shape.height, shape.width),
                        (c.kernel, c.stride, c.padding),
                        (out.height, out.width),
                    ),
                    None => amx::Layer::dense(m.weights, m.rows, shape.elements()),
                };
                sizes.gather = sizes.gather.max(layer.gather_scratch());
                sizes.pixel = sizes.pixel.max(amx::Layer::tile_scratch());
                (Step::Amx(AmxMvtu { layer, fused }), "amx")
            }
            (Some((m, _)), _) if strategy == ConvStrategy::Direct => {
                sizes.accum = sizes.accum.max(m.rows * m.n);
                (Step::Direct(*m), "direct")
            }
            (Some((m, d)), _) => {
                let fused = packed_thresholds(i + 1);
                fused_planes = fused.as_ref().map(PackedThresholds::planes);
                if fused.is_none() {
                    sizes.accum = sizes.accum.max(m.rows * m.n);
                }
                let taps = m.conv.map_or(shape.spatial(), |c| c.kernel * c.kernel);
                sizes.runs = sizes.runs.max(m.conv.map_or(shape.height, |c| c.kernel));
                let tile = m.n.min(packed::TILE);
                if is_packed(i) {
                    let weights = PackedWeights::pack_taps(m.weights, m.rows, shape.channels, taps);
                    let acc_len = weights.acc_len();
                    sizes.pixel = sizes.pixel.max(tile * acc_len);
                    let cw = packed::plane_words(shape.channels);
                    let label = match backend {
                        PackedBackend::Scalar => "packed-scalar",
                        PackedBackend::Avx2 => "packed-avx2",
                        PackedBackend::Avx512 | PackedBackend::Amx => "packed-avx512",
                    };
                    (
                        Step::Packed(PackedMvtu::new((weights, acc_len), m, shape, cw, fused)),
                        label,
                    )
                } else {
                    let w_max = weight_max(d);
                    let weights =
                        ByteWeights::pack_taps(m.weights, m.rows, shape.channels, taps, w_max);
                    let acc_len = weights.acc_len();
                    sizes.pixel = sizes.pixel.max(tile * acc_len);
                    let cw = packed::byte_words(shape.channels);
                    sizes.byte_map = sizes.byte_map.max(shape.spatial() * cw);
                    let kernel = if byte_simd_exact(d) {
                        backend
                    } else {
                        PackedBackend::Scalar
                    };
                    // Every SIMD backend runs the AVX2 byte kernel.
                    let label = match kernel {
                        PackedBackend::Scalar => "bytes-scalar",
                        PackedBackend::Avx2 | PackedBackend::Avx512 | PackedBackend::Amx => {
                            "bytes-avx2"
                        }
                    };
                    let p = PackedMvtu::new((weights, acc_len), m, shape, cw, fused);
                    (Step::ByteWindow(p, kernel), label)
                }
            }
            (None, Layer::MultiThreshold(_)) => {
                // Only a `Direct` MVTU is not windowed, and under `Direct`
                // nothing packs: a threshold that feeds a packed MVTU is
                // always its producer's epilogue.
                planes = fused_planes.take();
                match planes {
                    Some(p) => {
                        sizes.map = sizes.map.max(map_words(p));
                        (Step::Fused, "fused")
                    }
                    None if std::mem::take(&mut amx_fused) => {
                        sizes.act = sizes.act.max(out.elements());
                        (Step::AmxFused, "fused")
                    }
                    None => {
                        sizes.act = sizes.act.max(out.elements());
                        (Step::Plain, "threshold")
                    }
                }
            }
            (None, Layer::MaxPool2d(p)) => {
                match planes {
                    Some(p) => sizes.map = sizes.map.max(map_words(p)),
                    None => sizes.act = sizes.act.max(out.elements()),
                }
                (pool_step(amx && planes.is_none(), p, shape, out), "maxpool")
            }
            (None, _) => (Step::Plain, "argmax"),
        };
        let span = if mvtu.is_some() {
            format!("{}[{label}]", node.name)
        } else {
            node.name.clone()
        };
        attributions.push(KernelAttribution {
            layer: node.name.clone(),
            kernel: label,
        });
        plan.push(NodePlan { step, span });
        shape = out;
    }
    #[cfg(target_arch = "x86_64")]
    if amx {
        // The fast gather's second load, and a dense layer's last dword,
        // may run past the widest map.
        sizes.act += amx::SLACK;
    }
    (plan, attributions.into(), sizes)
}

/// The step of a max-pool: on AVX-512 over `u8` maps in an AMX plan, where
/// [`amx::pools`] takes its shape, else by the node's own layer.
fn pool_step<'g>(amx: bool, p: &MaxPool2d, from: TensorShape, to: TensorShape) -> Step<'g> {
    #[cfg(target_arch = "x86_64")]
    if amx
        && amx::pools(
            p.kernel,
            p.stride,
            (from.height, from.width),
            (to.height, to.width),
        )
    {
        return Step::AmxPool;
    }
    let _ = (amx, p, from, to);
    Step::Plain
}

/// Per-node AF010 accumulator intervals for the runtime debug asserts:
/// `Some((lo, hi) per output channel)` for MVTU nodes, `None` elsewhere.
/// Saturated to `i64` — far beyond anything an `i32` accumulator can hold.
#[cfg(debug_assertions)]
fn layer_intervals(graph: &CnnGraph) -> LayerIntervals {
    let clamp = |v: i128| v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
    let analysis = adaflow_verify::interval_analysis(graph);
    (0..graph.len())
        .map(|i| {
            analysis.mvtu(i).map(|m| {
                m.per_channel
                    .iter()
                    .map(|iv| (clamp(iv.lo), clamp(iv.hi)))
                    .collect()
            })
        })
        .collect()
}

impl<'g> Engine<'g> {
    /// Asserts every freshly computed accumulator lies inside the layer's
    /// statically derived AF010 interval. `spatial` is the number of output
    /// positions sharing one channel in `accums` (channel-major): 1 for a
    /// dense layer, and for the one output pixel a packed MVTU holds before
    /// its epilogue thresholds it.
    #[cfg(debug_assertions)]
    fn assert_accum_intervals(&self, node_idx: usize, name: &str, accums: &[i32], spatial: usize) {
        for (channel, accums) in accums.chunks(spatial.max(1)).enumerate() {
            self.assert_channel_interval((node_idx, name), channel, accums);
        }
    }

    /// Asserts accumulators of one output channel of `node` (index, name)
    /// lie inside its AF010 interval.
    #[cfg(debug_assertions)]
    fn assert_channel_interval(
        &self,
        (node_idx, name): (usize, &str),
        channel: usize,
        accums: &[i32],
    ) {
        let Some(Some(per_channel)) = self.intervals.get(node_idx) else {
            return;
        };
        let Some(&(lo, hi)) = per_channel.get(channel) else {
            return;
        };
        for &v in accums {
            let v = i64::from(v);
            assert!(
                lo <= v && v <= hi,
                "{name}: accumulator {v} escapes the AF010 interval [{lo}, {hi}] of \
                 channel {channel} — interval analysis or kernel is unsound",
            );
        }
    }

    /// The pixel loop of a windowed MVTU, one tile of output pixels at a
    /// time ([`PackedMvtu::tile`]): `dots` computes the tile's accumulators
    /// from the first pixel's window runs and every pixel's offset; per
    /// tile pixel, debug builds check them against the AF010 interval of
    /// `node` (index, name), and the fused threshold emits them as the
    /// pixel's code words in `dst` — or they are scattered channel-major
    /// into `accum`. Returns the planes emitted, `None` when scattered.
    fn run_windows<W>(
        &self,
        _node: (usize, &str),
        p: &PackedMvtu<W>,
        out: TensorShape,
        (runs, tile): (&mut [Run], &mut [i32]),
        (dst, accum): (&mut [u64], &mut [i32]),
        dots: impl Fn((&[Run], &[usize]), &mut [i32]),
    ) -> Option<usize> {
        let n = out.spatial();
        let out_cw = packed::plane_words(p.rows);
        let mut offsets = [0; packed::TILE];
        let mut first = 0;
        while first < n {
            let used = p.window_runs(first / out.width, first % out.width, runs);
            let len = p.tile(first, out, &mut offsets);
            dots((&runs[..used], &offsets[..len]), tile);
            for (at, acc) in (first..first + len).zip(tile.chunks_exact(p.acc_len)) {
                #[cfg(debug_assertions)]
                self.assert_accum_intervals(_node.0, _node.1, &acc[..p.rows], 1);
                match &p.fused {
                    Some(t) => t.emit(acc, &mut dst[at * out_cw..], n * out_cw, self.backend),
                    None => {
                        for (c, &v) in acc[..p.rows].iter().enumerate() {
                            accum[c * n + at] = v;
                        }
                    }
                }
            }
            first += len;
        }
        p.fused.as_ref().map(PackedThresholds::planes)
    }

    /// Prepares an engine for `graph`, checking that the layer arrangement
    /// is executable (thresholds follow MVTUs, the graph ends in a
    /// label-select fed by accumulators).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unsupported`] when the chain cannot be executed
    /// (e.g. a max-pool directly on raw accumulators).
    pub fn new(graph: &'g CnnGraph) -> Result<Self, NnError> {
        // Debug builds run the full static verifier once per engine (not
        // per inference — construction is the entry to the hot path).
        #[cfg(debug_assertions)]
        {
            let report = adaflow_verify::verify_graph(graph);
            if report.has_errors() {
                return Err(NnError::Unsupported(format!(
                    "graph failed static verification:\n{report}"
                )));
            }
        }
        // Static walk over the quant/accum state machine.
        let mut accum = false; // true when the current value is accumulators
        for node in graph.iter() {
            match &node.layer {
                Layer::Conv2d(_) | Layer::Dense(_) => {
                    if accum {
                        return Err(NnError::Unsupported(format!(
                            "{} ({}) consumes raw accumulators; insert a threshold first",
                            node.id, node.name
                        )));
                    }
                    accum = true;
                }
                Layer::MultiThreshold(_) => {
                    if !accum {
                        return Err(NnError::Unsupported(format!(
                            "{} ({}) thresholds already-quantized activations",
                            node.id, node.name
                        )));
                    }
                    accum = false;
                }
                Layer::MaxPool2d(_) => {
                    if accum {
                        return Err(NnError::Unsupported(format!(
                            "{} ({}) pools raw accumulators; insert a threshold first",
                            node.id, node.name
                        )));
                    }
                }
                Layer::LabelSelect(_) => {
                    if !accum {
                        return Err(NnError::Unsupported(format!(
                            "{} ({}) needs classifier accumulators",
                            node.id, node.name
                        )));
                    }
                    accum = false;
                }
            }
        }
        let strategy = ConvStrategy::default();
        let backend = packed::default_backend();
        let (plan, kernels, scratch) = build_plan(graph, strategy, backend);
        Ok(Self {
            graph,
            strategy,
            backend,
            sink: SinkHandle::null(),
            plan: Arc::new(plan),
            kernels,
            scratch,
            #[cfg(debug_assertions)]
            intervals: Arc::new(layer_intervals(graph)),
        })
    }

    /// Returns this engine with a different convolution strategy,
    /// re-planning every layer's kernel.
    #[must_use]
    pub fn with_strategy(mut self, strategy: ConvStrategy) -> Self {
        self.strategy = strategy;
        self.replan();
        self
    }

    /// Returns this engine with an explicit packed-kernel backend,
    /// re-planning so span names and attributions stay honest. A backend
    /// the CPU cannot run steps down to the next one it can
    /// ([`PackedBackend::effective`]), so the label always names the kernel
    /// that runs.
    #[must_use]
    pub fn with_packed_backend(mut self, backend: PackedBackend) -> Self {
        self.backend = backend.effective();
        self.replan();
        self
    }

    fn replan(&mut self) {
        let (plan, kernels, scratch) = build_plan(self.graph, self.strategy, self.backend);
        self.plan = Arc::new(plan);
        self.kernels = kernels;
        self.scratch = scratch;
    }

    /// The per-layer kernel attribution of the current plan (one entry per
    /// graph node, in dataflow order).
    #[must_use]
    pub fn kernels(&self) -> &[KernelAttribution] {
        &self.kernels
    }

    /// The packed-kernel backend in effect for this engine.
    #[must_use]
    pub fn packed_backend(&self) -> PackedBackend {
        self.backend
    }

    /// Returns this engine with a telemetry sink. When the sink is enabled,
    /// every inference emits one `SpanBegin`/`SpanEnd` pair per layer, with
    /// timestamps in wall-clock seconds relative to the inference start.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// The graph this engine executes.
    #[must_use]
    pub fn graph(&self) -> &'g CnnGraph {
        self.graph
    }

    /// A scratch arena sized for this engine's kernel plan.
    #[must_use]
    pub fn scratch(&self) -> EngineScratch {
        EngineScratch::sized(&self.scratch)
    }

    /// Runs one inference, allocating fresh intermediate buffers.
    ///
    /// Convenience wrapper over [`Engine::run_with_scratch`]; hot loops
    /// should hold a scratch arena (or use [`BatchRunner`]) instead.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `input` does not match the graph's
    /// input shape, or [`NnError::Unsupported`] if the graph does not end in
    /// a label-select.
    pub fn run(&self, input: &Activations) -> Result<InferenceResult, NnError> {
        self.run_with_scratch(input, &mut self.scratch())
    }

    /// Runs one inference through a reusable scratch arena. Apart from the
    /// returned logits vector, no memory is allocated.
    ///
    /// Bit-identical to [`Engine::run`] for every input and strategy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if `input` does not match the graph's
    /// input shape, or [`NnError::Unsupported`] if the graph does not end in
    /// a label-select.
    pub fn run_with_scratch(
        &self,
        input: &Activations,
        scratch: &mut EngineScratch,
    ) -> Result<InferenceResult, NnError> {
        if input.shape() != self.graph.input_shape() {
            return Err(NnError::InputShape {
                expected: self.graph.input_shape(),
                found: input.shape(),
            });
        }
        let timing = self.sink.enabled();
        let started = Instant::now();
        scratch.grow(&self.scratch);
        let EngineScratch {
            accum,
            act_a,
            act_b,
            map_a,
            map_b,
            byte_map,
            pixel,
            runs,
            gather,
        } = scratch;
        act_a[..input.shape().elements()].copy_from_slice(input.as_slice());
        let mut kind = Kind::Bytes(Buf::A);
        let mut shape = input.shape();
        let mut result = None;

        for (_node_idx, (node, plan)) in self.graph.iter().zip(self.plan.iter()).enumerate() {
            let t_begin = if timing {
                started.elapsed().as_secs_f64()
            } else {
                0.0
            };
            let out_shape = node.output_shape;
            match (&plan.step, &node.layer, kind) {
                (Step::Direct(m), _, Kind::Bytes(buf)) => {
                    let (src, _) = ping_pong(buf, act_a, act_b);
                    let src = &src[..shape.elements()];
                    let out = &mut accum[..m.rows * m.n];
                    match m.conv {
                        Some(c) => conv_direct_into(c, src, shape, out_shape, out),
                        None => dense_direct_into(m.weights, src, out),
                    }
                    #[cfg(debug_assertions)]
                    self.assert_accum_intervals(_node_idx, &node.name, out, m.n);
                    kind = Kind::Accum;
                }
                (Step::Packed(p), _, Kind::Planes(buf, planes)) => {
                    let (src, dst) = ping_pong(buf, map_a, map_b);
                    let in_stride = shape.spatial() * p.cw;
                    let emitted = self.run_windows(
                        (_node_idx, &node.name),
                        p,
                        out_shape,
                        (runs, pixel),
                        (dst, accum),
                        |tile, acc| {
                            let backend = self.backend;
                            p.weights
                                .window_dots(src, in_stride, planes, tile, acc, backend);
                        },
                    );
                    kind = emitted.map_or(Kind::Accum, |planes| Kind::Planes(buf.other(), planes));
                }
                (Step::ByteWindow(p, kernel), _, Kind::Bytes(buf)) => {
                    let (src, _) = ping_pong(buf, act_a, act_b);
                    packed::byte_map(&src[..shape.elements()], shape.channels, byte_map);
                    let emitted = self.run_windows(
                        (_node_idx, &node.name),
                        p,
                        out_shape,
                        (runs, pixel),
                        (map_a, accum),
                        |tile, acc| p.weights.window_dots(byte_map, tile, acc, *kernel),
                    );
                    kind = emitted.map_or(Kind::Accum, |planes| Kind::Planes(Buf::A, planes));
                }
                #[cfg(target_arch = "x86_64")]
                (Step::Amx(p), _, Kind::Bytes(buf)) => {
                    let (src, dst) = ping_pong(buf, act_a, act_b);
                    let out = match &p.fused {
                        Some(t) => amx::Output::Codes(t, dst),
                        None => amx::Output::Accum(accum),
                    };
                    #[cfg(debug_assertions)]
                    let check = &mut |channel: usize, accums: &[i32]| {
                        self.assert_channel_interval((_node_idx, &node.name), channel, accums);
                    };
                    #[cfg(debug_assertions)]
                    let check: amx::Check = Some(check);
                    #[cfg(not(debug_assertions))]
                    let check = None;
                    amx::run(&p.layer, src, out, (gather, pixel), check);
                    kind = match p.fused {
                        Some(_) => Kind::Bytes(buf.other()),
                        None => Kind::Accum,
                    };
                }
                #[cfg(target_arch = "x86_64")]
                (Step::AmxPool, _, Kind::Bytes(buf)) => {
                    let (src, dst) = ping_pong(buf, act_a, act_b);
                    amx::pool2x2(
                        src,
                        shape.channels,
                        (shape.height, shape.width),
                        (out_shape.height, out_shape.width),
                        dst,
                    );
                    kind = Kind::Bytes(buf.other());
                }
                (Step::Fused, _, Kind::Planes(..)) => {}
                (Step::AmxFused, _, Kind::Bytes(_)) => {}
                (Step::Plain, Layer::MultiThreshold(t), Kind::Accum) => {
                    let accums = &accum[..out_shape.elements()];
                    let out = &mut act_a[..out_shape.elements()];
                    threshold_into(t, out_shape, accums, out);
                    kind = Kind::Bytes(Buf::A);
                }
                (Step::Plain, Layer::MaxPool2d(p), Kind::Bytes(buf)) => {
                    let (src, dst) = ping_pong(buf, act_a, act_b);
                    let out = &mut dst[..out_shape.elements()];
                    pool_into(
                        p.kernel,
                        p.stride,
                        &src[..shape.elements()],
                        shape,
                        out_shape,
                        out,
                    );
                    kind = Kind::Bytes(buf.other());
                }
                (Step::Plain, Layer::MaxPool2d(p), Kind::Planes(buf, planes)) => {
                    let (src, dst) = ping_pong(buf, map_a, map_b);
                    packed::pool_planes(
                        (p.kernel, p.stride),
                        src,
                        (shape.height, shape.width),
                        (out_shape.height, out_shape.width),
                        (packed::plane_words(shape.channels), planes),
                        dst,
                    );
                    kind = Kind::Planes(buf.other(), planes);
                }
                (Step::Plain, Layer::LabelSelect(_), Kind::Accum) => {
                    let logits = accum[..shape.elements()].to_vec();
                    let label = argmax(&logits);
                    result = Some(InferenceResult { label, logits });
                }
                (_, layer, _) => {
                    // `new` validated the chain; reaching here means the graph
                    // was mutated behind our back.
                    return Err(NnError::Unsupported(format!(
                        "layer {} cannot consume the current value kind",
                        layer.kind()
                    )));
                }
            }
            shape = out_shape;
            if timing {
                self.sink
                    .emit_span(t_begin, started.elapsed().as_secs_f64(), &plan.span);
            }
        }
        result.ok_or_else(|| NnError::Unsupported("graph has no label-select output".into()))
    }
}

/// Parallel batch evaluator: shards an image set across scoped worker
/// threads, one [`EngineScratch`] per worker.
///
/// Labels (and full results) are returned in input order and are bit-exactly
/// those of the serial path, independent of the thread count — integer
/// inference is a pure per-image function and the sharding preserves order.
///
/// The runner owns its scratch arenas: a worker leases one for its share of
/// a batch and hands it back when done — also on an error — so a runner
/// that has seen its widest batch allocates nothing per batch, whatever
/// the batch size. A server that closes batches of one pays per request
/// whatever a batch costs.
///
/// ```
/// use adaflow_model::prelude::*;
/// use adaflow_nn::{Activations, BatchRunner, Engine};
///
/// let graph = topology::tiny(QuantSpec::w2a2(), 4)?;
/// let runner = BatchRunner::new(Engine::new(&graph)?);
/// let images = vec![Activations::zeroed(graph.input_shape()); 8];
/// let labels = runner.run(&images)?;
/// assert_eq!(labels.len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BatchRunner<'g> {
    engine: Engine<'g>,
    threads: usize,
    /// Arenas no worker holds right now; never more than the widest batch
    /// had workers.
    idle: Mutex<Vec<EngineScratch>>,
}

/// One worker's hold on a scratch arena, returned to the runner on drop —
/// so on every way out of a batch.
struct ScratchLease<'r> {
    scratch: EngineScratch,
    idle: &'r Mutex<Vec<EngineScratch>>,
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        // A poisoned pool means a worker panicked and the batch is lost
        // anyway; never panic in drop.
        if let Ok(mut idle) = self.idle.lock() {
            idle.push(std::mem::take(&mut self.scratch));
        }
    }
}

impl<'g> BatchRunner<'g> {
    /// Wraps an engine; uses one thread per available core by default.
    #[must_use]
    pub fn new(engine: Engine<'g>) -> Self {
        Self {
            engine,
            threads: 0,
            idle: Mutex::default(),
        }
    }

    /// Sets the worker-thread count (`0` = one per available core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Engine<'g> {
        &self.engine
    }

    /// Classifies `images`, returning one label per image in input order.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error (e.g. a shape mismatch).
    pub fn run(&self, images: &[Activations]) -> Result<Vec<usize>, NnError> {
        self.map_batch(images, |image| image, |r| r.label)
    }

    /// Runs full inference on `images`, returning logits and labels in input
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error (e.g. a shape mismatch).
    pub fn run_full(&self, images: &[Activations]) -> Result<Vec<InferenceResult>, NnError> {
        self.run_full_by(images, |image| image)
    }

    /// [`run_full`](Self::run_full) over a batch whose images sit inside
    /// larger items (a server's queued requests): `image` borrows each
    /// item's input where it is, so assembling a batch copies no image.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error (e.g. a shape mismatch).
    pub fn run_full_by<T: Sync>(
        &self,
        items: &[T],
        image: impl Fn(&T) -> &Activations + Sync,
    ) -> Result<Vec<InferenceResult>, NnError> {
        self.map_batch(items, image, |r| r)
    }

    fn map_batch<T: Sync, R: Send>(
        &self,
        items: &[T],
        image: impl Fn(&T) -> &Activations + Sync,
        project: impl Fn(InferenceResult) -> R + Sync,
    ) -> Result<Vec<R>, NnError> {
        let lease = || ScratchLease {
            scratch: {
                let mut idle = self.idle.lock().expect("a batch worker panicked");
                idle.pop().unwrap_or_else(|| self.engine.scratch())
            },
            idle: &self.idle,
        };
        parallel::par_map_init(items, self.threads, lease, |lease, item| {
            self.engine
                .run_with_scratch(image(item), &mut lease.scratch)
                .map(&project)
        })
        .into_iter()
        .collect()
    }
}

// ---------------------------------------------------------------------------
// Integer kernels. All kernels are pure functions of their integer inputs;
// accumulation order never changes the result, so every windowed lowering is
// bit-identical to the direct loops below.
// ---------------------------------------------------------------------------

/// Fewest weight rows sharing one activation pack for which
/// [`ConvStrategy::Auto`] takes the packed kernel: a single row cannot
/// amortise packing its activations.
pub(crate) const PACKED_MIN_ROWS: usize = 2;

/// Direct convolution writing MVTU accumulators into `out`.
pub(crate) fn conv_direct_into(
    c: &Conv2d,
    input: &[u8],
    in_shape: TensorShape,
    out_shape: TensorShape,
    out: &mut [i32],
) {
    let k = c.kernel;
    let stride = c.stride as isize;
    let pad = c.padding as isize;
    let (ih, iw) = (in_shape.height as isize, in_shape.width as isize);
    let (oh, ow) = (out_shape.height, out_shape.width);
    for o in 0..c.out_channels {
        let filter = c.weights.filter(o);
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i32;
                let base_y = y as isize * stride - pad;
                let base_x = x as isize * stride - pad;
                for i in 0..c.in_channels {
                    let fplane = &filter[i * k * k..(i + 1) * k * k];
                    for ky in 0..k {
                        let sy = base_y + ky as isize;
                        if sy < 0 || sy >= ih {
                            continue;
                        }
                        let in_row = (i as isize * ih + sy) * iw;
                        for kx in 0..k {
                            let sx = base_x + kx as isize;
                            if sx < 0 || sx >= iw {
                                continue;
                            }
                            let v = input[(in_row + sx) as usize];
                            acc += i32::from(fplane[ky * k + kx]) * i32::from(v);
                        }
                    }
                }
                out[(o * oh + y) * ow + x] = acc;
            }
        }
    }
}

/// A dense layer's MVTU accumulators into `out`: one plain dot product of
/// each `input.len()`-long weight row with the input.
pub(crate) fn dense_direct_into(weights: &[i8], input: &[u8], out: &mut [i32]) {
    for (acc, row) in out.iter_mut().zip(weights.chunks_exact(input.len())) {
        *acc = row
            .iter()
            .zip(input)
            .map(|(&w, &x)| i32::from(w) * i32::from(x))
            .sum();
    }
}

/// Multi-threshold re-quantization into `out` (per-channel threshold rows).
fn threshold_into(
    t: &adaflow_model::MultiThreshold,
    shape: TensorShape,
    accums: &[i32],
    out: &mut [u8],
) {
    let spatial = shape.spatial();
    for ch in 0..shape.channels {
        let row = &accums[ch * spatial..(ch + 1) * spatial];
        let dst = &mut out[ch * spatial..(ch + 1) * spatial];
        for (d, &acc) in dst.iter_mut().zip(row) {
            *d = t.table.apply(ch, acc);
        }
    }
}

/// Max-pooling over quantized activations into `out`.
///
/// Windows are clamped to the input extent, so non-divisible spatial
/// dimensions (an overhanging last window) pool over the in-bounds taps
/// only. A window must still *start* in bounds.
fn pool_into(
    kernel: usize,
    stride: usize,
    input: &[u8],
    in_shape: TensorShape,
    out_shape: TensorShape,
    out: &mut [u8],
) {
    let (ih, iw) = (in_shape.height, in_shape.width);
    let (oh, ow) = (out_shape.height, out_shape.width);
    for c in 0..out_shape.channels {
        let plane = &input[c * ih * iw..(c + 1) * ih * iw];
        for y in 0..oh {
            for x in 0..ow {
                let (sy, sx) = (y * stride, x * stride);
                debug_assert!(
                    sy < ih && sx < iw,
                    "pool window ({y},{x}) starts outside the {ih}x{iw} input"
                );
                let mut best = 0u8;
                for ky in 0..kernel.min(ih - sy) {
                    let row = &plane[(sy + ky) * iw..];
                    for kx in 0..kernel.min(iw - sx) {
                        best = best.max(row[sx + kx]);
                    }
                }
                out[(c * oh + y) * ow + x] = best;
            }
        }
    }
}

// Vec-returning wrapper shared with the trainer's calibration pass and the
// unit tests.

/// Max-pooling over quantized activations.
pub(crate) fn pool_forward(
    kernel: usize,
    stride: usize,
    input: &Activations,
    out_shape: TensorShape,
) -> Activations {
    let mut out = Activations::zeroed(out_shape);
    pool_into(
        kernel,
        stride,
        input.as_slice(),
        input.shape(),
        out_shape,
        out.as_mut_slice(),
    );
    out
}

/// Arg-max with deterministic lowest-index tie-breaking (matches FINN's
/// LabelSelect behaviour).
fn argmax(values: &[i32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;

    fn tiny_graph() -> CnnGraph {
        topology::tiny(QuantSpec::w2a2(), 4).expect("builds")
    }

    /// `graph`'s engine on the AMX rung, or `None`, with a message, where
    /// this CPU or its kernel cannot run it.
    fn amx_engine(graph: &CnnGraph) -> Option<Engine<'_>> {
        if !PackedBackend::Amx.is_runnable() {
            eprintln!("skipping: AMX-INT8 is not runnable here");
            return None;
        }
        Some(
            Engine::new(graph)
                .expect("engine")
                .with_packed_backend(PackedBackend::Amx),
        )
    }

    fn random_image(shape: TensorShape, seed: u64) -> Activations {
        let mut img = Activations::zeroed(shape);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in img.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % 256) as u8;
        }
        img
    }

    #[test]
    fn engine_accepts_tiny_and_cnv() {
        let g = tiny_graph();
        assert!(Engine::new(&g).is_ok());
        let cnv = topology::cnv_w2a2_cifar10().expect("builds");
        assert!(Engine::new(&cnv).is_ok());
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let bad = Activations::zeroed(TensorShape::new(3, 12, 12));
        assert!(matches!(engine.run(&bad), Err(NnError::InputShape { .. })));
    }

    #[test]
    fn rejects_pool_on_accumulators() {
        let g = GraphBuilder::new("bad", TensorShape::new(1, 8, 8))
            .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
            .max_pool(MaxPool2d::new(2, 2)) // no threshold in between
            .dense(Dense::new(4 * 3 * 3, 4, QuantSpec::w2a2()))
            .label_select(4)
            .build()
            .expect("builds structurally");
        assert!(matches!(Engine::new(&g), Err(NnError::Unsupported(_))));
    }

    #[test]
    fn zero_input_gives_zero_logits_for_zero_free_weights() {
        // With a zero input, conv accumulators are zero; thresholds at
        // negative values may still fire, so just check determinism and
        // logits length.
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let zero = Activations::zeroed(g.input_shape());
        let a = engine.run(&zero).expect("run");
        let b = engine.run(&zero).expect("run");
        assert_eq!(a, b);
        assert_eq!(a.logits.len(), 4);
    }

    #[test]
    fn hand_computed_single_conv() {
        // 1x3x3 input, single 3x3 filter of all ones -> accumulator equals
        // the sum of the input; threshold at >= 5 fires once.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, QuantSpec::w2a2());
        for i in 0..9 {
            conv.weights.as_mut_slice()[i] = 1;
        }
        let g = GraphBuilder::new("hand", TensorShape::new(1, 3, 3))
            .conv2d(conv)
            .named_layer(
                "t",
                Layer::MultiThreshold(MultiThreshold {
                    channels: 1,
                    table: ThresholdTable::from_rows(&[vec![5, 100, 200]]).expect("table"),
                }),
            )
            .dense(Dense::new(1, 2, QuantSpec::w2a2()))
            .label_select(2)
            .build()
            .expect("builds");
        // Set dense weights: class0 = +activation, class1 = -activation.
        let engine = Engine::new(&g).expect("engine");
        let mut img = Activations::zeroed(TensorShape::new(1, 3, 3));
        for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
            *v = i as u8; // sum = 36 -> exceeds threshold 5, below 100
        }
        let r = engine.run(&img).expect("run");
        // Dense weights are zero -> logits [0, 0]; argmax tie-breaks low.
        assert_eq!(r.logits, vec![0, 0]);
        assert_eq!(r.label, 0);
    }

    #[test]
    fn conv_padding_matches_manual() {
        // 1x2x2 input, 3x3 all-ones filter, padding 1, stride 1:
        // each output position sums the in-bounds window.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, QuantSpec::w2a2());
        for w in conv.weights.as_mut_slice() {
            *w = 1;
        }
        let input = [1, 2, 3, 4];
        let shape = TensorShape::new(1, 2, 2);
        let mut out = vec![0i32; 4];
        conv_direct_into(&conv, &input, shape, shape, &mut out);
        // All four windows cover the entire 2x2 input.
        assert_eq!(out, vec![10, 10, 10, 10]);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Activations::from_vec(
            TensorShape::new(1, 4, 4),
            vec![1, 2, 0, 0, 3, 4, 0, 0, 0, 0, 9, 1, 0, 0, 1, 8],
        );
        let out = pool_forward(2, 2, &input, TensorShape::new(1, 2, 2));
        assert_eq!(out.as_slice(), &[4, 0, 0, 9]);
    }

    #[test]
    fn maxpool_clamps_overhanging_windows() {
        // 1x3x3 input pooled 2x2/stride-2 into 1x2x2: the right/bottom
        // windows overhang the input and must pool the in-bounds taps only.
        let input =
            Activations::from_vec(TensorShape::new(1, 3, 3), vec![1, 2, 7, 3, 4, 0, 5, 0, 6]);
        let out = pool_forward(2, 2, &input, TensorShape::new(1, 2, 2));
        // Windows: {1,2,3,4}, {7,0}, {5,0}, {6}.
        assert_eq!(out.as_slice(), &[4, 7, 5, 6]);
    }

    #[test]
    fn maxpool_handles_odd_input_with_floor_output() {
        // 1x5x5, kernel 2, stride 2, floor output 1x2x2: windows all fit.
        let mut data = vec![0u8; 25];
        data[0] = 9; // (0,0)
        data[3] = 8; // (0,3) -> window (0,1)
        data[12] = 7; // (2,2) -> window (1,1)
        let input = Activations::from_vec(TensorShape::new(1, 5, 5), data);
        let out = pool_forward(2, 2, &input, TensorShape::new(1, 2, 2));
        assert_eq!(out.as_slice(), &[9, 8, 0, 7]);
    }

    #[test]
    fn argmax_tie_breaks_to_lowest_index() {
        assert_eq!(argmax(&[3, 7, 7, 1]), 1);
        assert_eq!(argmax(&[-5, -5]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn batch_runs_all_samples() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let imgs: Vec<Activations> = (0..3)
            .map(|_| Activations::zeroed(g.input_shape()))
            .collect();
        let labels = BatchRunner::new(engine)
            .with_threads(1)
            .run(&imgs)
            .expect("batch");
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn im2col_matches_direct_on_tiny() {
        let g = tiny_graph();
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        let im2col = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Im2col);
        for seed in 0..8u64 {
            let img = random_image(g.input_shape(), seed);
            assert_eq!(
                direct.run(&img).expect("direct"),
                im2col.run(&img).expect("im2col"),
                "strategies diverged on seed {seed}"
            );
        }
    }

    /// `conv` alone on `input`, its channel-major accumulators read as the
    /// logits: the byte window under `Im2col` against the direct convolution.
    fn assert_im2col_matches_direct(conv: Conv2d, input: &Activations) {
        let out_shape = input
            .shape()
            .windowed(conv.kernel, conv.stride, conv.padding)
            .expect("fits")
            .with_channels(conv.out_channels);
        let mut direct = vec![0i32; out_shape.elements()];
        conv_direct_into(
            &conv,
            input.as_slice(),
            input.shape(),
            out_shape,
            &mut direct,
        );
        let g = GraphBuilder::new("conv", input.shape())
            .conv2d(conv)
            .label_select(out_shape.elements())
            .build()
            .expect("builds");
        let im2col = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Im2col);
        assert!(im2col.kernels()[0].kernel.starts_with("bytes-"));
        assert_eq!(direct, im2col.run(input).expect("runs").logits);
    }

    #[test]
    fn im2col_matches_direct_with_padding() {
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, QuantSpec::w2a2());
        for (i, w) in conv.weights.as_mut_slice().iter_mut().enumerate() {
            *w = ((i % 3) as i8) - 1;
        }
        let input = Activations::from_vec(
            TensorShape::new(2, 5, 5),
            (0..50).map(|i| (i * 7 % 256) as u8).collect(),
        );
        assert_im2col_matches_direct(conv, &input);
    }

    #[test]
    fn im2col_matches_direct_on_wide_layer() {
        // Eight channels (two dwords per pixel) and 36 output pixels: tiles
        // of four, and padded border windows of one.
        let mut conv = Conv2d::new(8, 8, 3, 1, 1, QuantSpec::w2a2());
        for (i, w) in conv.weights.as_mut_slice().iter_mut().enumerate() {
            *w = ((i % 3) as i8) - 1;
        }
        assert_im2col_matches_direct(conv, &random_image(TensorShape::new(8, 6, 6), 5));
    }

    /// A 3×3 convolution of `bits`-bit weights over an all-255 3×3 image of
    /// eight channels: one output pixel of ten rows, row `r`'s 72 weights all
    /// `weight(r)`. Returns its plan label and accumulators on every
    /// backend this CPU runs, after checking them against `Direct`.
    fn saturated_conv(
        bits: u8,
        weight: impl Fn(usize) -> i8,
    ) -> Vec<(PackedBackend, &'static str, Vec<i32>)> {
        let mut conv = Conv2d::new(8, 10, 3, 1, 0, QuantSpec::new(bits, 2));
        for (i, w) in conv.weights.as_mut_slice().iter_mut().enumerate() {
            *w = weight(i / 72);
        }
        let g = GraphBuilder::new("saturated", TensorShape::new(8, 3, 3))
            .conv2d(conv)
            .label_select(10)
            .build()
            .expect("builds");
        let image = Activations::from_vec(g.input_shape(), vec![255; 72]);
        let engine = Engine::new(&g).expect("engine");
        let direct = engine.clone().with_strategy(ConvStrategy::Direct);
        let oracle = direct.run(&image).expect("direct");
        PackedBackend::runnable()
            .into_iter()
            .map(|backend| {
                let engine = engine.clone().with_packed_backend(backend);
                let result = engine.run(&image).expect("runs");
                let label = engine.kernels()[0].kernel;
                assert_eq!(result, oracle, "{label} on {backend:?}");
                (backend, label, result.logits)
            })
            .collect()
    }

    #[test]
    fn w7_on_8_bit_input_plans_the_simd_byte_kernel_and_is_exact() {
        // Every pair sum is 2 · 255 · (−63) = −32 130, inside i16. The AMX
        // rung takes every MVTU of an `Auto` plan.
        for (backend, label, logits) in saturated_conv(7, |_| -63) {
            let simd = match backend {
                PackedBackend::Scalar => "bytes-scalar",
                PackedBackend::Avx2 | PackedBackend::Avx512 => "bytes-avx2",
                PackedBackend::Amx => "amx",
            };
            assert_eq!(label, simd, "{backend:?}");
            assert_eq!(logits, [-63 * 255 * 72; 10], "{backend:?}");
        }
    }

    #[test]
    fn w8_on_8_bit_input_plans_the_scalar_byte_kernel_everywhere() {
        // A pair sum reaches ±2 · 255 · 127 = ±64 770, past i16: the AVX2
        // kernel would saturate, so every byte-window backend plans the i32
        // twin. The AMX rung multiplies into exact `i32` dwords and takes
        // the layer itself (`w8_on_8_bit_input_is_exact_on_amx`).
        let sign = |r: usize| if r.is_multiple_of(2) { 1 } else { -1 };
        for (backend, label, logits) in saturated_conv(8, |r| 127 * sign(r) as i8) {
            let expected = match backend {
                PackedBackend::Amx => "amx",
                _ => "bytes-scalar",
            };
            assert_eq!(label, expected);
            let expect: Vec<i32> = (0..10).map(|r| sign(r) * 127 * 255 * 72).collect();
            assert_eq!(logits, expect);
        }
    }

    #[test]
    fn w8_on_8_bit_input_is_exact_on_amx() {
        // ±127 weights on an all-255 image: every `i16` pair sum of the
        // AVX2 byte kernel would saturate, every AMX dword product is exact.
        let sign = |r: usize| if r.is_multiple_of(2) { 1 } else { -1 };
        let Some((_, label, logits)) = saturated_conv(8, |r| 127 * sign(r) as i8)
            .into_iter()
            .find(|(backend, ..)| *backend == PackedBackend::Amx)
        else {
            eprintln!("skipping: AMX-INT8 is not runnable here");
            return;
        };
        assert_eq!(label, "amx");
        let expect: Vec<i32> = (0..10).map(|r| sign(r) * 127 * 255 * 72).collect();
        assert_eq!(logits, expect);
    }

    /// A conv (or, with `window` `None`, a dense layer) of `rows` rows of
    /// `bits`-bit weights over `shape` → threshold → dense of `classes` →
    /// label-select, every weight drawn from its whole domain.
    fn amx_case(
        shape: TensorShape,
        rows: usize,
        window: Option<(usize, usize, usize)>,
        (bits, classes): (u8, usize),
        seed: u64,
    ) -> CnnGraph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let quant = QuantSpec::new(bits, 2);
        let w_max = quant.weight_domain().max;
        let mut fill = |w: &mut [i8]| {
            for w in w {
                *w = (next() % (2 * w_max as u64 + 1)) as i64 as i8 - w_max as i8;
            }
        };
        let builder = GraphBuilder::new("amx", shape);
        let (builder, out, fan_in) = match window {
            Some((kernel, stride, padding)) => {
                let mut conv = Conv2d::new(shape.channels, rows, kernel, stride, padding, quant);
                fill(conv.weights.as_mut_slice());
                let out = shape
                    .windowed(kernel, stride, padding)
                    .expect("fits")
                    .with_channels(rows);
                (builder.conv2d(conv), out, shape.channels * kernel * kernel)
            }
            None => {
                let mut dense = Dense::new(shape.elements(), rows, quant);
                fill(dense.weights.as_mut_slice());
                (
                    builder.dense(dense),
                    TensorShape::flat(rows),
                    shape.elements(),
                )
            }
        };
        let mut dense = Dense::new(out.elements(), classes, QuantSpec::w2a2());
        for w in dense.weights.as_mut_slice() {
            *w = (next() % 3) as i8 - 1;
        }
        let span = (fan_in as i32 * 255 * w_max as i32 / 8).max(3);
        builder
            .threshold(MultiThreshold {
                channels: rows,
                table: ThresholdTable::uniform(rows, 3, -span, span),
            })
            .dense(dense)
            .label_select(classes)
            .build()
            .expect("builds")
    }

    /// The AMX plan of `graph` answers what `Direct` does on a few random
    /// images; `false` (after a message) where AMX cannot run.
    fn amx_matches_direct(graph: &CnnGraph) -> bool {
        let Some(amx) = amx_engine(graph) else {
            return false;
        };
        assert!(amx.kernels().iter().any(|k| k.kernel == "amx"));
        let direct = Engine::new(graph)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        for seed in 0..3u64 {
            let img = random_image(graph.input_shape(), seed);
            assert_eq!(
                amx.run(&img).expect("amx"),
                direct.run(&img).expect("direct"),
                "{} on seed {seed}",
                graph.name()
            );
        }
        true
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn amx_fan_ins_off_the_chunk_and_the_dword_match_direct() {
        // Fan-ins 27 and 45 (conv1's, and one past a 64-byte chunk) are not
        // whole dwords: only such rows get a zero-padded copy. 72 and 180
        // end in a partial chunk, 576 in whole ones; dense fan-ins 100 and
        // 75 likewise.
        for (shape, window, fan_in) in [
            (TensorShape::new(3, 8, 8), Some((3, 1, 0)), 27),
            (TensorShape::new(5, 7, 7), Some((3, 1, 0)), 45),
            (TensorShape::new(8, 6, 6), Some((3, 1, 0)), 72),
            (TensorShape::new(20, 6, 6), Some((3, 1, 0)), 180),
            (TensorShape::new(64, 5, 5), Some((3, 1, 0)), 576),
            (TensorShape::new(4, 5, 5), None, 100),
            (TensorShape::new(3, 5, 5), None, 75),
        ] {
            let graph = amx_case(shape, 24, window, (2, 10), fan_in as u64);
            if !amx_matches_direct(&graph) {
                return;
            }
            let engine = amx_engine(&graph).expect("runnable");
            let Step::Amx(first) = &engine.plan[0].step else {
                panic!("the first MVTU is not an AMX step");
            };
            assert_eq!(
                first.layer.copies_weights(),
                fan_in % 4 != 0,
                "fan-in {fan_in}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn amx_ragged_row_tiles_match_direct() {
        // 43 classes: two whole 16-row tiles and a ragged one; 40 and 10
        // conv rows: a ragged last tile, and a layer narrower than a tile.
        let shape = TensorShape::new(4, 6, 6);
        for (rows, classes) in [(16, 43), (40, 43), (10, 7), (1, 2)] {
            let graph = amx_case(shape, rows, Some((3, 1, 0)), (2, classes), rows as u64);
            if !amx_matches_direct(&graph) {
                return;
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn amx_narrow_maps_and_wrapping_tiles_match_direct() {
        // Output maps 3, 5 and 10 wide: every 16-pixel tile wraps rows, and
        // the last tile of each is partial. Stride 2, padding, a 40-wide map
        // (its tiles span the fast gather's 128 bytes) and the 1×1 and 5×5
        // kernels take the byte-by-byte gather.
        for (shape, window) in [
            (TensorShape::new(4, 5, 5), (3, 1, 0)),
            (TensorShape::new(8, 7, 7), (3, 1, 0)),
            (TensorShape::new(2, 12, 12), (3, 1, 0)),
            (TensorShape::new(3, 9, 9), (3, 2, 1)),
            (TensorShape::new(5, 6, 6), (3, 1, 1)),
            (TensorShape::new(2, 42, 42), (3, 1, 0)),
            (TensorShape::new(6, 7, 7), (1, 1, 0)),
            (TensorShape::new(3, 9, 9), (5, 1, 0)),
        ] {
            let graph = amx_case(shape, 20, Some(window), (3, 5), shape.elements() as u64);
            if !amx_matches_direct(&graph) {
                return;
            }
        }
    }

    #[test]
    fn amx_batch_runner_two_workers_equal_one() {
        // Each fresh worker thread takes its own first use of tile state.
        let g = topology::cnv_scaled(QuantSpec::w2a2(), 6, 0.25)
            .build()
            .expect("builds");
        let Some(engine) = amx_engine(&g) else {
            return;
        };
        let images: Vec<Activations> = (0..6).map(|s| random_image(g.input_shape(), s)).collect();
        let one = BatchRunner::new(engine.clone()).with_threads(1);
        let two = BatchRunner::new(engine).with_threads(2);
        let serial = one.run_full(&images).expect("one worker");
        assert_eq!(two.run_full(&images).expect("two workers"), serial);
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        for (img, result) in images.iter().zip(&serial) {
            assert_eq!(&direct.run(img).expect("direct"), result);
        }
    }

    #[test]
    fn scratch_run_matches_fresh_run() {
        let g = tiny_graph();
        for strategy in [ConvStrategy::Direct, ConvStrategy::Im2col] {
            let engine = Engine::new(&g).expect("engine").with_strategy(strategy);
            let mut scratch = engine.scratch();
            for seed in 0..12u64 {
                let img = random_image(g.input_shape(), seed);
                let fresh = engine.run(&img).expect("fresh");
                let reused = engine
                    .run_with_scratch(&img, &mut scratch)
                    .expect("scratch");
                assert_eq!(fresh, reused, "scratch diverged on seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_is_sized_for_the_graph() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let scratch = EngineScratch::for_graph(&g);
        // Must cover the input image itself.
        assert!(scratch.act_a.len() >= g.input_shape().elements());
        assert_eq!(scratch.act_a.len(), scratch.act_b.len());
        assert_eq!(scratch.map_a.len(), scratch.map_b.len());
        // The default plan is the engine's.
        assert_eq!(
            scratch.bytes(),
            Engine::new(&g).expect("engine").scratch().bytes()
        );
        // The popcount plan.
        let engine = Engine::new(&g)
            .expect("engine")
            .with_packed_backend(PackedBackend::Avx512);
        let scratch = engine.scratch();
        assert_eq!(scratch.act_a.len(), scratch.act_b.len());
        assert_eq!(scratch.map_a.len(), scratch.map_b.len());
        // conv1 fuses thresh1, so no layer stores a map of accumulators: the
        // byte map of the image and two packed maps are most of what is left.
        assert_eq!(scratch.byte_map.len(), 32 * 32);
        // One tile of accumulators, `min(TILE, output pixels)` pixels: the
        // widest is conv5's four pixels × 256 rows; fc1 has one pixel, so
        // its 512 rows are not taken four times over.
        assert_eq!(scratch.pixel.len(), packed::TILE * 256);
        assert!(scratch.bytes() < 100_000, "{} bytes", scratch.bytes());
        // The implicit im2col reads every layer's windows from a byte map:
        // the widest is conv2's input, 30 × 30 pixels of 64 channels.
        let im2col = engine.clone().with_strategy(ConvStrategy::Im2col).scratch();
        assert_eq!(im2col.byte_map.len(), 30 * 30 * 64 / 4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn amx_scratch_holds_two_maps_and_the_tile_panels() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let Some(engine) = amx_engine(&g) else {
            return;
        };
        let scratch = engine.scratch();
        // Two `u8` maps as wide as conv1's output, 64 × 30 × 30, and the
        // bytes the fast gather may read past one.
        assert_eq!(scratch.act_a.len(), 64 * 30 * 30 + amx::SLACK);
        assert_eq!(scratch.act_a.len(), scratch.act_b.len());
        // The panels of two passes of two 16-pixel tiles, at conv4's depth
        // (128 channels: 32 groups of 9 rows of 64 bytes), plus the bytes
        // skipped to start them on a cache line; no window matrix, no
        // packed map, no byte map.
        assert_eq!(scratch.gather.len(), 4 * 32 * 9 * 64 + 63);
        assert!(scratch.map_a.is_empty() && scratch.byte_map.is_empty());
        // Four C tiles of 16 × 16 accumulators per pass, for two passes.
        assert_eq!(scratch.pixel.len(), amx::Layer::tile_scratch());
        // Only the classifier stores accumulators: fc3's ten logits.
        assert_eq!(scratch.accum.len(), 10);
        assert!(scratch.bytes() < 200_000, "{} bytes", scratch.bytes());
    }

    /// Walks `p`'s tiles over `out` and checks the tiler's contract;
    /// returns the tile lengths in order.
    fn tile_walk<W>(p: &PackedMvtu<W>, out: TensorShape) -> Vec<usize> {
        let (mut offsets, mut lens, mut next) = ([usize::MAX; packed::TILE], Vec::new(), 0);
        let mut first_runs = vec![Run::default(); p.kernel_hw.0];
        let mut runs = first_runs.clone();
        let at = |i: usize| (i / out.width, i % out.width);
        while next < out.spatial() {
            let len = p.tile(next, out, &mut offsets);
            assert!((1..=packed::TILE).contains(&len) && next + len <= out.spatial());
            let (y, x) = at(next);
            let used = p.window_runs(y, x, &mut first_runs);
            for (t, &offset) in offsets[..len].iter().enumerate() {
                let (y, x) = at(next + t);
                assert!(
                    len == 1 || p.unclipped(y, x),
                    "clipped pixel ({y}, {x}) in a tile"
                );
                assert_eq!(p.window_runs(y, x, &mut runs), used, "pixel ({y}, {x})");
                for (run, first) in runs[..used].iter().zip(&first_runs[..used]) {
                    assert_eq!(run.act - first.act, offset, "pixel ({y}, {x})");
                    assert_eq!((run.tap, run.len), (first.tap, first.len));
                }
            }
            lens.push(len);
            next += len;
        }
        lens
    }

    #[test]
    fn tiles_cover_every_pixel_once_and_shift_the_first_window() {
        // Padding 1, stride 2: a 9×7 map gives a 5×4 output whose border
        // windows are clipped, so only (1..=3, 1..=2) may share a tile.
        let padded = PackedMvtu {
            weights: (),
            rows: 8,
            acc_len: 8,
            cw: 2,
            in_hw: (9, 7),
            kernel_hw: (3, 3),
            stride: 2,
            padding: 1,
            fused: None,
        };
        let lens = tile_walk(&padded, TensorShape::new(8, 5, 4));
        assert_eq!(lens.iter().sum::<usize>(), 20);
        assert_eq!(lens.iter().filter(|&&l| l == 2).count(), 3, "{lens:?}");
        // CNV conv5: a 3×3 output with no padding, so tiles cross rows.
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let (plan, _, _) = build_plan(&g, ConvStrategy::Auto, PackedBackend::Scalar);
        let (node, conv5) = g
            .iter()
            .zip(&plan)
            .find(|(node, _)| node.name == "conv5")
            .expect("CNV has conv5");
        let Step::Packed(conv5) = &conv5.step else {
            panic!("conv5 is not packed");
        };
        assert_eq!(tile_walk(conv5, node.output_shape), [4, 4, 1]);
    }

    #[test]
    fn foreign_scratch_is_grown_not_indexed_out_of_bounds() {
        let tiny = tiny_graph();
        let cnv = topology::cnv_scaled(QuantSpec::w2a2(), 6, 0.25)
            .build()
            .expect("builds");
        let tiny_auto = Engine::new(&tiny).expect("engine");
        let tiny_im2col = tiny_auto.clone().with_strategy(ConvStrategy::Im2col);
        let tiny_direct = tiny_auto.clone().with_strategy(ConvStrategy::Direct);
        let cnv_auto = Engine::new(&cnv).expect("engine");
        let cnv_direct = cnv_auto.clone().with_strategy(ConvStrategy::Direct);
        let (tiny_img, cnv_img) = (
            random_image(tiny.input_shape(), 1),
            random_image(cnv.input_shape(), 2),
        );
        // An Im2col engine through an Auto-sized scratch, then a CNV engine
        // through what began as a tiny scratch — and back again.
        let mut scratch = tiny_auto.scratch();
        let tiny_oracle = tiny_direct.run(&tiny_img).expect("oracle");
        let cnv_oracle = cnv_direct.run(&cnv_img).expect("oracle");
        for _ in 0..2 {
            assert_eq!(
                tiny_im2col
                    .run_with_scratch(&tiny_img, &mut scratch)
                    .expect("im2col through an auto scratch"),
                tiny_oracle
            );
            assert_eq!(
                cnv_auto
                    .run_with_scratch(&cnv_img, &mut scratch)
                    .expect("cnv through a tiny scratch"),
                cnv_oracle
            );
            assert_eq!(
                tiny_auto
                    .run_with_scratch(&tiny_img, &mut scratch)
                    .expect("tiny through the grown scratch"),
                tiny_oracle
            );
        }
        // Growing happens once: the second round found every buffer sized.
        let grown = scratch.bytes();
        cnv_auto
            .run_with_scratch(&cnv_img, &mut scratch)
            .expect("runs");
        assert_eq!(scratch.bytes(), grown);
    }

    #[test]
    fn batch_runner_matches_serial_for_any_thread_count() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let images: Vec<Activations> = (0..17).map(|s| random_image(g.input_shape(), s)).collect();
        let serial: Vec<usize> = images
            .iter()
            .map(|img| engine.run(img).expect("serial").label)
            .collect();
        for threads in [0usize, 1, 2, 3, 8, 32] {
            let runner = BatchRunner::new(Engine::new(&g).expect("engine")).with_threads(threads);
            assert_eq!(
                runner.run(&images).expect("batch"),
                serial,
                "labels diverged with {threads} threads"
            );
        }
    }

    #[test]
    fn batch_runner_full_results_match_serial() {
        let g = tiny_graph();
        let engine = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Im2col);
        let images: Vec<Activations> = (0..9)
            .map(|s| random_image(g.input_shape(), 100 + s))
            .collect();
        let serial: Vec<InferenceResult> = images
            .iter()
            .map(|img| engine.run(img).expect("serial"))
            .collect();
        let runner = BatchRunner::new(engine).with_threads(3);
        assert_eq!(runner.run_full(&images).expect("batch"), serial);
    }

    #[test]
    fn batch_runner_propagates_shape_errors() {
        let g = tiny_graph();
        let runner = BatchRunner::new(Engine::new(&g).expect("engine"));
        let bad = vec![Activations::zeroed(TensorShape::new(3, 12, 12))];
        assert!(matches!(runner.run(&bad), Err(NnError::InputShape { .. })));
    }

    /// One runner across batches of every size a server closes — with a
    /// failing batch in between — answers what a fresh scratch answers and
    /// gets every arena back: the idle pool never shrinks, and never holds
    /// more than one arena per worker.
    #[test]
    fn batch_runner_reuses_its_scratches_across_batches_and_errors() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let images: Vec<Activations> = (0..64)
            .map(|s| random_image(g.input_shape(), 300 + s))
            .collect();
        let fresh: Vec<InferenceResult> = images
            .iter()
            .map(|img| engine.run(img).expect("fresh scratch"))
            .collect();
        let mut bad = images[..5].to_vec();
        bad[3] = Activations::zeroed(TensorShape::new(3, 12, 12));

        for threads in [1usize, 2, 3] {
            let runner = BatchRunner::new(engine.clone()).with_threads(threads);
            let mut held = 0;
            let mut check_pool = |what: &str| {
                let idle = runner.idle.lock().expect("pool").len();
                assert!(
                    idle >= held.max(1) && idle <= threads,
                    "{what} on {threads} thread(s) left {idle} arenas of {held}"
                );
                held = idle;
            };
            for n in [1, 3, 64, 1] {
                assert_eq!(
                    runner.run_full(&images[..n]).expect("batch"),
                    fresh[..n],
                    "{n} images on {threads} thread(s)"
                );
                check_pool("a batch");
                assert!(matches!(
                    runner.run_full(&bad),
                    Err(NnError::InputShape { .. })
                ));
                check_pool("a failed batch");
            }
            // Borrowing images out of larger items is the same batch.
            let items: Vec<(u64, Activations)> = (0u64..).zip(images.iter().cloned()).collect();
            assert_eq!(
                runner.run_full_by(&items, |item| &item.1).expect("by"),
                fresh
            );
        }
    }

    #[test]
    fn engine_emits_per_layer_spans_when_sinked() {
        use adaflow_telemetry::EventKind;
        let g = tiny_graph();
        let (sink, recorder) = SinkHandle::recorder(256);
        let engine = Engine::new(&g).expect("engine").with_sink(sink);
        engine
            .run(&Activations::zeroed(g.input_shape()))
            .expect("run");
        let events = recorder.drain();
        let begins = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanBegin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(begins, g.len());
        assert_eq!(ends, g.len());
    }

    #[test]
    fn different_inputs_can_change_accumulators() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let zero = Activations::zeroed(g.input_shape());
        let mut bright = Activations::zeroed(g.input_shape());
        for v in bright.as_mut_slice() {
            *v = 200;
        }
        let a = engine.run(&zero).expect("run");
        let b = engine.run(&bright).expect("run");
        // A saturated input must flow through to different logits than zero.
        assert_ne!(a.logits, b.logits);
    }

    #[test]
    fn packed_strategy_matches_direct_and_im2col() {
        // The direct convolution is the bit-identity oracle for the byte
        // window (every layer under `Im2col`) and the packed popcount
        // kernels, across every backend this CPU runs.
        let g = topology::cnv_scaled(QuantSpec::w2a2(), 6, 0.25)
            .build()
            .expect("builds");
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        let im2col = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Im2col);
        let mut engines: Vec<_> = PackedBackend::runnable()
            .into_iter()
            .map(|b| Engine::new(&g).expect("engine").with_packed_backend(b))
            .collect();
        engines.push(Engine::new(&g).expect("engine")); // default backend
        for seed in 0..4u64 {
            let img = random_image(g.input_shape(), seed);
            let oracle = direct.run(&img).expect("direct");
            assert_eq!(oracle, im2col.run(&img).expect("im2col"));
            for e in &engines {
                assert_eq!(
                    oracle,
                    e.run(&img).expect("packed"),
                    "packed diverged on seed {seed} (backend {:?})",
                    e.packed_backend()
                );
            }
        }
    }

    #[test]
    fn packed_strategy_skips_the_input_layer_only() {
        // The first MVTU sees 8-bit pixels, so the packed contract cannot
        // hold there and it runs the byte window; every later W2A2 MVTU
        // packs, and every threshold before a packed MVTU is applied by the
        // windowed MVTU that produces it.
        let g = tiny_graph();
        let engine = Engine::new(&g)
            .expect("engine")
            .with_packed_backend(PackedBackend::Avx512);
        let label = format!("packed-{}", engine.packed_backend().label());
        let bytes = match engine.packed_backend() {
            PackedBackend::Scalar => "bytes-scalar",
            PackedBackend::Avx2 | PackedBackend::Avx512 | PackedBackend::Amx => "bytes-avx2",
        };
        let kernels: Vec<&str> = engine.kernels().iter().map(|k| k.kernel).collect();
        assert_eq!(
            kernels,
            [
                bytes,
                "fused",
                "maxpool",
                label.as_str(),
                "fused",
                label.as_str(),
                "argmax"
            ]
        );
    }

    #[test]
    fn requested_backend_steps_down_to_one_the_cpu_runs() {
        let g = tiny_graph();
        let runnable = PackedBackend::runnable();
        for requested in PackedBackend::ALL {
            let engine = Engine::new(&g)
                .expect("engine")
                .with_packed_backend(requested);
            let got = engine.packed_backend();
            // The fastest runnable backend no faster than the request.
            let expect = *runnable.iter().rfind(|&&b| b <= requested).expect("scalar");
            assert_eq!(got, expect, "requested {requested:?}");
            if got == PackedBackend::Amx {
                // The AMX rung is its own plan: every MVTU on the tiles.
                let mvtus = g
                    .iter()
                    .zip(engine.kernels())
                    .filter(|(node, _)| matches!(node.layer, Layer::Conv2d(_) | Layer::Dense(_)));
                assert!(mvtus.map(|(_, k)| k.kernel).all(|k| k == "amx"));
                continue;
            }
            let label = format!("packed-{}", got.label());
            let packed: Vec<&str> = engine
                .kernels()
                .iter()
                .map(|k| k.kernel)
                .filter(|k| k.starts_with("packed-"))
                .collect();
            assert!(
                !packed.is_empty() && packed.iter().all(|k| *k == label),
                "requested {requested:?}, {label} runs, the plan names {packed:?}"
            );
        }
    }

    #[test]
    fn kernel_attribution_covers_every_layer() {
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let kernels = engine.kernels();
        assert_eq!(kernels.len(), g.len());
        for (node, k) in g.iter().zip(kernels) {
            assert_eq!(node.name, k.layer);
        }
    }

    #[test]
    fn packed_spans_carry_kernel_suffix() {
        use adaflow_telemetry::EventKind;
        let g = tiny_graph();
        let (sink, recorder) = SinkHandle::recorder(256);
        let engine = Engine::new(&g)
            .expect("engine")
            .with_packed_backend(PackedBackend::Avx512)
            .with_sink(sink);
        engine
            .run(&Activations::zeroed(g.input_shape()))
            .expect("run");
        let label = format!("packed-{}", engine.packed_backend().label());
        let spans: Vec<String> = recorder
            .drain()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanBegin { name } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), g.len());
        assert!(
            spans.iter().any(|s| s.contains(&format!("[{label}]"))),
            "no packed span in {spans:?}"
        );
    }

    /// Shrinks the AF010 interval of the first node `pick` selects, in the
    /// plan of `backend`, to one no input satisfies, then runs tiny: the
    /// per-pixel check must trip.
    #[cfg(debug_assertions)]
    fn run_with_an_unsatisfiable_interval(backend: PackedBackend, pick: impl Fn(&Step) -> bool) {
        let g = tiny_graph();
        let mut engine = Engine::new(&g)
            .expect("engine")
            .with_packed_backend(backend);
        let node = engine
            .plan
            .iter()
            .position(|p| pick(&p.step))
            .expect("a planned node");
        let mut intervals = (*engine.intervals).clone();
        for bound in intervals[node].as_mut().expect("MVTU interval") {
            *bound = (i64::MAX, i64::MAX);
        }
        engine.intervals = Arc::new(intervals);
        let _ = engine.run(&random_image(g.input_shape(), 1));
    }

    #[test]
    fn a_threshold_marked_applied_runs_only_on_its_producers_value() {
        // A packed MVTU's fused threshold leaves a packed map, an AMX one's a
        // `u8` code map: each marker meets only its own producer's value.
        let g = tiny_graph();
        let image = random_image(g.input_shape(), 3);
        let refused = |mut engine: Engine<'_>, node: usize, step: Step<'static>| {
            let mut plan = (*engine.plan).clone();
            plan[node].step = step;
            engine.plan = Arc::new(plan);
            let result = engine.run(&image);
            assert!(
                matches!(result, Err(NnError::Unsupported(_))),
                "node {node}: {result:?}"
            );
        };
        // The `Direct` plan pools a `u8` map after thresh1.
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        let pool = g
            .iter()
            .position(|n| matches!(n.layer, Layer::MaxPool2d(_)))
            .expect("tiny pools");
        refused(direct, pool, Step::Fused);
        // The popcount plan's thresh2 follows conv2, which leaves planes.
        let packed = Engine::new(&g)
            .expect("engine")
            .with_packed_backend(PackedBackend::Avx512);
        let fused = packed
            .plan
            .iter()
            .rposition(|p| matches!(p.step, Step::Fused))
            .expect("a fused threshold");
        refused(packed, fused, Step::AmxFused);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "escapes the AF010 interval")]
    fn fused_kernel_checks_accumulators_before_thresholding() {
        // conv2 of tiny is packed with its threshold fused: nothing but the
        // per-pixel check sees its accumulators.
        run_with_an_unsatisfiable_interval(
            PackedBackend::Avx512,
            |s| matches!(s, Step::Packed(m) if m.fused.is_some()),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "escapes the AF010 interval")]
    fn byte_window_checks_accumulators_before_thresholding() {
        // conv1 of tiny is the byte window with thresh1 fused.
        run_with_an_unsatisfiable_interval(
            PackedBackend::Avx512,
            |s| matches!(s, Step::ByteWindow(m, _) if m.fused.is_some()),
        );
    }

    #[cfg(all(debug_assertions, target_arch = "x86_64"))]
    #[test]
    fn amx_kernel_checks_accumulators_before_thresholding() {
        // conv1 of tiny is an AMX step with thresh1 in its epilogue.
        let Some(_) = amx_engine(&tiny_graph()) else {
            return;
        };
        let trip = std::panic::catch_unwind(|| {
            run_with_an_unsatisfiable_interval(
                PackedBackend::Amx,
                |s| matches!(s, Step::Amx(m) if m.fused.is_some()),
            );
        });
        let message = trip.expect_err("the interval check must trip");
        let message = message
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("escapes the AF010 interval"), "{message}");
    }

    #[test]
    fn scratch_run_matches_fresh_run_for_packed_strategies() {
        let g = tiny_graph();
        for backend in PackedBackend::runnable() {
            let engine = Engine::new(&g)
                .expect("engine")
                .with_packed_backend(backend);
            let mut scratch = engine.scratch();
            for seed in 0..8u64 {
                let img = random_image(g.input_shape(), seed);
                let fresh = engine.run(&img).expect("fresh");
                let reused = engine
                    .run_with_scratch(&img, &mut scratch)
                    .expect("scratch");
                assert_eq!(fresh, reused, "scratch diverged on seed {seed}");
            }
        }
    }
}
