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
//! calibration and the pruning retrain loop, so it is built in four
//! performance levels, each bit-identical to the plain path:
//!
//! 1. **Scratch-arena reuse** — [`EngineScratch`] holds every intermediate
//!    buffer, sized once from the engine's kernel plan.
//!    [`Engine::run_with_scratch`] allocates nothing per call beyond the
//!    returned logits.
//! 2. **Blocked integer GEMM** — im2col convolution and dense layers share
//!    one cache-blocked `i8 × u8 → i32` micro-kernel (4×4 register tile,
//!    inner loop unrolled over the window dimension), used whenever the
//!    problem fills one tile. Integer accumulation is order-independent, so
//!    tiling cannot change a single bit of the result.
//! 3. **Packed dataflow** — under [`ConvStrategy::Auto`] activations stay
//!    bit-packed from the first threshold to the classifier: implicit-GEMM
//!    popcount convolutions with the threshold in their epilogue and
//!    max-pooling on bitplanes ([`crate::packed`]); the 8-bit input layer
//!    runs a tap-row direct convolution. No window matrix is built.
//! 4. **Parallel batch evaluation** — [`BatchRunner`] shards an image set
//!    across scoped worker threads, one scratch arena per worker, preserving
//!    input order.

use crate::error::NnError;
use crate::packed::{self, PackedBackend, PackedThresholds, Run};
use crate::parallel;
use crate::tensor::Activations;
use adaflow_model::{CnnGraph, Conv2d, Layer, MvtuDomain, Node, TensorShape};
use adaflow_telemetry::SinkHandle;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Result of one inference.
///
/// Equality compares `label` and `logits` only: [`InferenceResult::kernels`]
/// is execution metadata, and two engines running different (bit-identical)
/// kernel plans must still compare equal on the same input.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Selected (top-1) class index.
    pub label: usize,
    /// Raw class accumulators from the classifier layer.
    pub logits: Vec<i32>,
    /// Per-layer kernel attribution of the engine plan that produced this
    /// result (shared, not per-inference — cloning is one refcount).
    pub kernels: Arc<[KernelAttribution]>,
}

impl PartialEq for InferenceResult {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.logits == other.logits
    }
}

impl Eq for InferenceResult {}

/// Which kernel the engine planner chose for one layer, exposed through
/// [`InferenceResult::kernels`] and suffixed onto telemetry span names
/// (`conv2[packed-avx2]`) so `report` can attribute time per kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAttribution {
    /// Layer name.
    pub layer: String,
    /// Kernel label: `direct`, `gemm`, `taps`, `packed-scalar`,
    /// `packed-avx2` or `packed-avx512` for MVTU layers; `threshold` (to `u8`),
    /// `threshold-pack` (to planes) or `fused` (applied by the packed MVTU
    /// before it) for thresholds; `maxpool` or `argmax` otherwise.
    pub kernel: &'static str,
}

/// Convolution lowering strategy.
///
/// Every strategy is bit-identical to every other; they differ only in
/// memory/speed trade-off:
///
/// * [`ConvStrategy::Auto`] (the default) is a pure function of the graph:
///   an MVTU whose verifier-established domains fit the packed contract
///   (≤2-bit weights and activations) and that has at least
///   [`packed_min_rows`](crate::KernelThresholds::packed_min_rows) weight
///   rows runs the packed popcount kernel on packed feature maps, with the
///   threshold that follows in its epilogue; a convolution that cannot pack
///   but has ≤2-bit weights (the 8-bit input layer) runs by tap rows; every
///   other conv/dense layer runs the im2col + i32 GEMM lowering;
/// * [`ConvStrategy::Direct`] walks the input in place (no scratch memory)
///   — the reference the other lowerings are tested against;
/// * [`ConvStrategy::Im2col`] lowers each convolution to a dense
///   matrix-matrix product over an explicit window matrix — the classic GEMM
///   lowering, at the cost of `out_pixels x k^2 x ch_in` scratch bytes.
///
/// `Direct` and `Im2col` never touch the packed kernels or the tap-row
/// convolution, so they double as the equivalence oracles the packed
/// proptests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvStrategy {
    /// Packed popcount kernels where the domains allow, GEMM elsewhere.
    #[default]
    Auto,
    /// In-place direct convolution.
    Direct,
    /// GEMM lowering via an explicit im2col window matrix.
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
    /// im2col window matrix of the widest GEMM-planned convolution.
    cols: Vec<u8>,
    /// Channel-major MVTU accumulators of the widest layer that stores them.
    accum: Vec<i32>,
    /// Ping-pong `u8` activation buffers.
    act_a: Vec<u8>,
    act_b: Vec<u8>,
    /// Ping-pong packed feature maps (pixel-major bitplanes).
    map_a: Vec<u64>,
    map_b: Vec<u64>,
    /// One pixel's accumulators, between the packed micro-kernel and its
    /// threshold epilogue.
    pixel: Vec<i32>,
    /// The runs of one window (one per kernel row at most).
    runs: Vec<Run>,
    /// Working set of the widest tap-row convolution (`conv_taps_work`).
    taps: Vec<i32>,
}

/// Element counts of every [`EngineScratch`] buffer one kernel plan needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScratchSizes {
    cols: usize,
    accum: usize,
    act: usize,
    map: usize,
    pixel: usize,
    runs: usize,
    taps: usize,
}

impl EngineScratch {
    /// The scratch of `graph`'s default ([`ConvStrategy::Auto`]) plan.
    #[must_use]
    pub fn for_graph(graph: &CnnGraph) -> Self {
        let (_, _, sizes) = build_plan(graph, ConvStrategy::Auto, PackedBackend::Scalar);
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
        at_least(&mut self.cols, sizes.cols);
        at_least(&mut self.accum, sizes.accum);
        at_least(&mut self.act_a, sizes.act);
        at_least(&mut self.act_b, sizes.act);
        at_least(&mut self.map_a, sizes.map);
        at_least(&mut self.map_b, sizes.map);
        at_least(&mut self.pixel, sizes.pixel);
        at_least(&mut self.runs, sizes.runs);
        at_least(&mut self.taps, sizes.taps);
    }

    /// Total scratch bytes held (diagnostics / capacity planning).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.cols.len()
            + self.act_a.len()
            + self.act_b.len()
            + 4 * (self.accum.len() + self.pixel.len() + self.taps.len())
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

/// One MVTU step: `rows × k` weights against `n` activation columns of
/// length `k`. A convolution's columns are its windows (`n` output pixels);
/// a dense layer is the `n = 1` case whose single column is the input
/// vector itself.
#[derive(Debug, Clone, Copy)]
struct Mvtu<'g> {
    /// The convolution to lower, `None` for dense.
    conv: Option<&'g Conv2d>,
    weights: &'g [i8],
    rows: usize,
    n: usize,
    k: usize,
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
                k: c.kernel * c.kernel * c.in_channels,
            }),
            Layer::Dense(d) => Some(Mvtu {
                conv: None,
                weights: d.weights.as_slice(),
                rows: d.out_features,
                n: 1,
                k: d.in_features,
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

/// Which kernel turns `u8` activations into channel-major accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ByteKernel {
    /// Reference direct convolution — [`ConvStrategy::Direct`] on a conv.
    Direct,
    /// im2col (convolutions) + the blocked `i32` GEMM.
    Gemm,
    /// Direct convolution by tap rows — [`ConvStrategy::Auto`] on a
    /// convolution that cannot pack but whose weights are ≤ 2-bit.
    Taps,
}

/// A packed MVTU: the convolution (or the dense layer, as the convolution
/// whose kernel covers its whole input map) over a pixel-major packed map.
#[derive(Debug, Clone)]
struct PackedMvtu {
    weights: packed::PackedWeights,
    /// Words per input pixel in each plane.
    cw: usize,
    in_hw: (usize, usize),
    kernel_hw: (usize, usize),
    stride: usize,
    padding: usize,
    /// The threshold node that follows, when it emits planes: thresholded
    /// in the kernel's epilogue, pixel by pixel.
    fused: Option<PackedThresholds>,
}

impl PackedMvtu {
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
    /// `u8` activations → channel-major accumulators.
    Bytes(Mvtu<'g>, ByteKernel),
    /// Packed map → packed map (fused threshold) or accumulators.
    Packed(PackedMvtu),
    /// Accumulators → packed map: a threshold whose consumer packs.
    ThresholdPack(PackedThresholds),
    /// A threshold the preceding packed MVTU already applied.
    Fused,
    /// Threshold to `u8`, max-pool in the current representation, or
    /// label-select: run from the node's own layer.
    Plain,
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
/// keep the representation they are given), and a packed MVTU applies such
/// a threshold itself when it is the next node.
fn build_plan(
    graph: &CnnGraph,
    strategy: ConvStrategy,
    backend: PackedBackend,
) -> (Vec<NodePlan<'_>>, Arc<[KernelAttribution]>, ScratchSizes) {
    let nodes: Vec<_> = mvtu_walk(graph).collect();
    let is_packed = |i: usize| {
        strategy == ConvStrategy::Auto && nodes[i].1.as_ref().is_some_and(|(_, d)| packs(d))
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
    // the packed MVTU just planned writes in place of the next threshold.
    let mut planes = None;
    let mut fused_planes = None;
    for (i, (node, mvtu)) in nodes.iter().enumerate() {
        let out = node.output_shape;
        let map_words = |planes: usize| planes * out.spatial() * packed::plane_words(out.channels);
        let (step, label) = match (mvtu, &node.layer) {
            (Some((m, _)), _) if is_packed(i) => {
                let (kernel_hw, stride, padding) = match m.conv {
                    Some(c) => ((c.kernel, c.kernel), c.stride, c.padding),
                    None => ((shape.height, shape.width), 1, 0),
                };
                let taps = kernel_hw.0 * kernel_hw.1;
                let weights =
                    packed::PackedWeights::pack_taps(m.weights, m.rows, shape.channels, taps);
                let fused = packed_thresholds(i + 1);
                fused_planes = fused.as_ref().map(PackedThresholds::planes);
                if fused.is_none() {
                    sizes.accum = sizes.accum.max(m.rows * m.n);
                }
                sizes.pixel = sizes.pixel.max(weights.acc_len());
                sizes.runs = sizes.runs.max(kernel_hw.0);
                let step = Step::Packed(PackedMvtu {
                    weights,
                    cw: packed::plane_words(shape.channels),
                    in_hw: (shape.height, shape.width),
                    kernel_hw,
                    stride,
                    padding,
                    fused,
                });
                let label = match backend {
                    PackedBackend::Scalar => "packed-scalar",
                    PackedBackend::Avx2 => "packed-avx2",
                    PackedBackend::Avx512 => "packed-avx512",
                };
                (step, label)
            }
            (Some((m, d)), _) => {
                let (kernel, label) = match (strategy, m.conv) {
                    (ConvStrategy::Direct, Some(_)) => (ByteKernel::Direct, "direct"),
                    (ConvStrategy::Auto, Some(_)) if d.weight_bits <= 2 => {
                        (ByteKernel::Taps, "taps")
                    }
                    _ => (ByteKernel::Gemm, "gemm"),
                };
                sizes.accum = sizes.accum.max(m.rows * m.n);
                match (kernel, m.conv) {
                    (ByteKernel::Gemm, Some(_)) => sizes.cols = sizes.cols.max(m.n * m.k),
                    (ByteKernel::Taps, Some(c)) => {
                        sizes.taps = sizes.taps.max(conv_taps_work(c, shape, out));
                    }
                    _ => {}
                }
                (Step::Bytes(*m, kernel), label)
            }
            (None, Layer::MultiThreshold(_)) => {
                let (step, label) = if let Some(p) = fused_planes.take() {
                    planes = Some(p);
                    (Step::Fused, "fused")
                } else if let Some(t) = packed_thresholds(i) {
                    planes = Some(t.planes());
                    sizes.pixel = sizes.pixel.max(t.acc_len());
                    (Step::ThresholdPack(t), "threshold-pack")
                } else {
                    planes = None;
                    sizes.act = sizes.act.max(out.elements());
                    (Step::Plain, "threshold")
                };
                if let Some(p) = planes {
                    sizes.map = sizes.map.max(map_words(p));
                }
                (step, label)
            }
            (None, Layer::MaxPool2d(_)) => {
                match planes {
                    Some(p) => sizes.map = sizes.map.max(map_words(p)),
                    None => sizes.act = sizes.act.max(out.elements()),
                }
                (Step::Plain, "maxpool")
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
    (plan, attributions.into(), sizes)
}

/// Per-node AF010 accumulator intervals for the runtime debug asserts:
/// `Some((lo, hi) per output channel)` for MVTU nodes, `None` elsewhere.
/// Saturated to `i64` — far beyond anything an `i32` accumulator can hold.
#[cfg(debug_assertions)]
fn layer_intervals(graph: &CnnGraph) -> LayerIntervals {
    let clamp = |v: i128| v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
    let analysis = adaflow_verify::interval_analysis(graph);
    if !analysis.stats.converged {
        return vec![None; graph.len()];
    }
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
        let Some(Some(per_channel)) = self.intervals.get(node_idx) else {
            return;
        };
        let spatial = spatial.max(1);
        for (i, &v) in accums.iter().enumerate() {
            let Some(&(lo, hi)) = per_channel.get(i / spatial) else {
                return;
            };
            let v = i64::from(v);
            assert!(
                lo <= v && v <= hi,
                "{name}: accumulator {v} at index {i} escapes the AF010 interval \
                 [{lo}, {hi}] of channel {} — interval analysis or kernel is unsound",
                i / spatial,
            );
        }
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
            cols,
            accum,
            act_a,
            act_b,
            map_a,
            map_b,
            pixel,
            runs,
            taps,
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
                (Step::Bytes(m, kernel), _, Kind::Bytes(buf)) => {
                    let (src, _) = ping_pong(buf, act_a, act_b);
                    let src = &src[..shape.elements()];
                    let out = &mut accum[..m.rows * m.n];
                    match (kernel, m.conv) {
                        (ByteKernel::Direct, Some(c)) => {
                            conv_direct_into(c, src, shape, out_shape, out);
                        }
                        (ByteKernel::Taps, Some(c)) => {
                            conv_taps_into(c, src, shape, out_shape, taps, out);
                        }
                        (_, Some(c)) => {
                            let cols = &mut cols[..m.n * m.k];
                            im2col_into(c, src, shape, out_shape, cols);
                            gemm_i32(m.weights, cols, m.rows, m.n, m.k, out);
                        }
                        (_, None) => gemm_i32(m.weights, src, m.rows, m.n, m.k, out),
                    }
                    #[cfg(debug_assertions)]
                    self.assert_accum_intervals(_node_idx, &node.name, out, m.n);
                    kind = Kind::Accum;
                }
                (Step::Packed(p), _, Kind::Planes(buf, planes)) => {
                    let (src, dst) = ping_pong(buf, map_a, map_b);
                    let n = out_shape.spatial();
                    let rows = p.weights.rows();
                    let in_stride = shape.spatial() * p.cw;
                    let out_cw = packed::plane_words(rows);
                    for at in 0..n {
                        let used = p.window_runs(at / out_shape.width, at % out_shape.width, runs);
                        let window = &runs[..used];
                        p.weights
                            .window_dots(src, in_stride, planes, window, pixel, self.backend);
                        #[cfg(debug_assertions)]
                        self.assert_accum_intervals(_node_idx, &node.name, &pixel[..rows], 1);
                        match &p.fused {
                            Some(t) => {
                                t.emit(pixel, &mut dst[at * out_cw..], n * out_cw, self.backend);
                            }
                            None => {
                                for (c, &v) in pixel[..rows].iter().enumerate() {
                                    accum[c * n + at] = v;
                                }
                            }
                        }
                    }
                    kind = match &p.fused {
                        Some(t) => Kind::Planes(buf.other(), t.planes()),
                        None => Kind::Accum,
                    };
                }
                (Step::ThresholdPack(t), _, Kind::Accum) => {
                    // The pixel-major epilogue over channel-major
                    // accumulators: gather one pixel's row, then emit it.
                    let n = out_shape.spatial();
                    let out_cw = packed::plane_words(t.rows());
                    for at in 0..n {
                        for (c, v) in pixel[..t.rows()].iter_mut().enumerate() {
                            *v = accum[c * n + at];
                        }
                        t.emit(pixel, &mut map_a[at * out_cw..], n * out_cw, self.backend);
                    }
                    kind = Kind::Planes(Buf::A, t.planes());
                }
                (Step::Fused, _, Kind::Planes(..)) => {}
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
                    result = Some(InferenceResult {
                        label,
                        logits,
                        kernels: self.kernels.clone(),
                    });
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

    /// Classifies a batch serially through one shared scratch arena,
    /// returning the predicted label per sample. For multi-core batch
    /// evaluation use [`BatchRunner`].
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Engine::run_with_scratch`].
    pub fn run_batch<'a, I>(&self, inputs: I) -> Result<Vec<usize>, NnError>
    where
        I: IntoIterator<Item = &'a Activations>,
    {
        let mut scratch = self.scratch();
        inputs
            .into_iter()
            .map(|x| self.run_with_scratch(x, &mut scratch).map(|r| r.label))
            .collect()
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

    /// The batch size this runner prefers to be fed: enough images to keep
    /// every worker busy (see [`parallel::preferred_batch`]) without
    /// inflating batch-assembly latency. Dynamic batchers upstream (the
    /// serving layer) use this as their max-size hint.
    #[must_use]
    pub fn batch_size_hint(&self) -> usize {
        parallel::preferred_batch(self.threads)
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
// accumulation order never changes the result, so every lowering below is
// bit-identical to the naive triple loop.
// ---------------------------------------------------------------------------

/// Register tile height (output channels) of the blocked GEMM.
const GEMM_MR: usize = 4;
/// Register tile width (output pixels) of the blocked GEMM.
const GEMM_NR: usize = 4;
/// Inner-loop unroll of the blocked GEMM: below it the tile has no full
/// unrolled step and the row-dot loop runs instead.
pub(crate) const GEMM_MIN_K: usize = 4;
/// Fewest weight rows sharing one activation pack for which
/// [`ConvStrategy::Auto`] takes the packed kernel: a single row cannot
/// amortise packing its activations.
pub(crate) const PACKED_MIN_ROWS: usize = 2;

/// `out[i][j] = Σ_k a[i*k..][k'] · b[j*k..][k']` — both operands row-major
/// over the shared inner dimension (filters × im2col windows, or dense
/// weight rows × the input vector when `n == 1`).
///
/// Dispatches to the 4×4 register-blocked kernel when the problem fills one
/// tile and one unrolled step, else to the plain row-dot loop. Both paths
/// produce identical bits.
pub(crate) fn gemm_i32(a: &[i8], b: &[u8], m: usize, n: usize, k: usize, out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m >= GEMM_MR && n >= GEMM_NR && k >= GEMM_MIN_K {
        gemm_i32_blocked(a, b, m, n, k, out);
    } else {
        gemm_i32_naive(a, b, m, n, k, out);
    }
}

/// Plain row-by-row dot products (fast for narrow layers; the compiler
/// vectorizes the inner zip).
fn gemm_i32_naive(a: &[i8], b: &[u8], m: usize, n: usize, k: usize, out: &mut [i32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            out[i * n + j] = dot_i32(arow, brow);
        }
    }
}

#[inline]
fn dot_i32(w: &[i8], x: &[u8]) -> i32 {
    w.iter()
        .zip(x)
        .map(|(&w, &x)| i32::from(w) * i32::from(x))
        .sum()
}

/// Cache-blocked GEMM: 4×4 register tile, inner loop unrolled by 4 over the
/// window dimension. Each loaded `a`/`b` value is reused across the whole
/// tile, cutting memory traffic ~4× versus the naive row dots.
fn gemm_i32_blocked(a: &[i8], b: &[u8], m: usize, n: usize, k: usize, out: &mut [i32]) {
    let mut mb = 0;
    while mb < m {
        let mh = (m - mb).min(GEMM_MR);
        let mut nb = 0;
        while nb < n {
            let nh = (n - nb).min(GEMM_NR);
            let mut acc = [[0i32; GEMM_NR]; GEMM_MR];
            let mut kk = 0;
            while kk + 4 <= k {
                // Widen the b-tile once, reuse it for every a-row.
                let mut btile = [[0i32; 4]; GEMM_NR];
                for (j, bt) in btile.iter_mut().enumerate().take(nh) {
                    let br = &b[(nb + j) * k + kk..(nb + j) * k + kk + 4];
                    *bt = [
                        i32::from(br[0]),
                        i32::from(br[1]),
                        i32::from(br[2]),
                        i32::from(br[3]),
                    ];
                }
                for (i, accrow) in acc.iter_mut().enumerate().take(mh) {
                    let ar = &a[(mb + i) * k + kk..(mb + i) * k + kk + 4];
                    let (a0, a1, a2, a3) = (
                        i32::from(ar[0]),
                        i32::from(ar[1]),
                        i32::from(ar[2]),
                        i32::from(ar[3]),
                    );
                    for (j, cell) in accrow.iter_mut().enumerate().take(nh) {
                        let bt = &btile[j];
                        *cell += a0 * bt[0] + a1 * bt[1] + a2 * bt[2] + a3 * bt[3];
                    }
                }
                kk += 4;
            }
            while kk < k {
                for (i, accrow) in acc.iter_mut().enumerate().take(mh) {
                    let av = i32::from(a[(mb + i) * k + kk]);
                    for (j, cell) in accrow.iter_mut().enumerate().take(nh) {
                        *cell += av * i32::from(b[(nb + j) * k + kk]);
                    }
                }
                kk += 1;
            }
            for i in 0..mh {
                for j in 0..nh {
                    out[(mb + i) * n + nb + j] = acc[i][j];
                }
            }
            nb += GEMM_NR;
        }
        mb += GEMM_MR;
    }
}

/// Direct convolution writing MVTU accumulators into `out`.
fn conv_direct_into(
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

/// `i32` words [`conv_taps_into`] needs for `c` over `in_shape`: the widened,
/// zero-padded input and one output channel's accumulator strip.
fn conv_taps_work(c: &Conv2d, in_shape: TensorShape, out_shape: TensorShape) -> usize {
    let pitch = in_shape.width + 2 * c.padding;
    let padded = c.in_channels * (in_shape.height + 2 * c.padding) * pitch;
    padded + (out_shape.height - 1) * pitch + out_shape.width
}

/// Direct convolution by tap rows. The input is widened to `i32` and
/// zero-padded once; an output channel then accumulates in a strip with the
/// padded input's row pitch, where output `(y, x)` is strip element
/// `j = y·pitch + x` and every filter tap reads input element
/// `stride·j + offset` — so one tap is one contiguous
/// `strip[j] ±= input[j + offset]` over the whole map that the compiler
/// vectorises (taps outside `{-1, +1}` multiply), with no window matrix.
/// The strip's columns past the output width hold sums nobody reads.
/// Accumulators are channel-major, as every other `u8` kernel writes them.
fn conv_taps_into(
    c: &Conv2d,
    input: &[u8],
    in_shape: TensorShape,
    out_shape: TensorShape,
    work: &mut [i32],
    out: &mut [i32],
) {
    let (k, stride, pad) = (c.kernel, c.stride, c.padding);
    let (ih, iw) = (in_shape.height, in_shape.width);
    let (oh, ow) = (out_shape.height, out_shape.width);
    let pitch = iw + 2 * pad;
    let plane = (ih + 2 * pad) * pitch;
    let (padded, strip) = work.split_at_mut(c.in_channels * plane);
    let strip = &mut strip[..(oh - 1) * pitch + ow];
    if pad > 0 {
        padded.fill(0);
    }
    for (i, rows) in input.chunks_exact(ih * iw).enumerate() {
        for (y, row) in rows.chunks_exact(iw).enumerate() {
            let at = i * plane + (y + pad) * pitch + pad;
            for (d, &v) in padded[at..at + iw].iter_mut().zip(row) {
                *d = i32::from(v);
            }
        }
    }
    for (o, out_map) in out.chunks_exact_mut(oh * ow).enumerate() {
        strip.fill(0);
        for (tap, &w) in c.weights.filter(o).iter().enumerate() {
            let (i, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
            let taps = &padded[i * plane + ky * pitch + kx..];
            match (w, stride) {
                (0, _) => {}
                (1, 1) => strip.iter_mut().zip(taps).for_each(|(a, &v)| *a += v),
                (-1, 1) => strip.iter_mut().zip(taps).for_each(|(a, &v)| *a -= v),
                _ => strip
                    .iter_mut()
                    .zip(taps.iter().step_by(stride))
                    .for_each(|(a, &v)| *a += i32::from(w) * v),
            }
        }
        for (out_row, strip_row) in out_map.chunks_exact_mut(ow).zip(strip.chunks(pitch)) {
            out_row.copy_from_slice(&strip_row[..ow]);
        }
    }
}

/// Materializes the im2col window matrix (`[out_pixels][k^2 * ch_in]`, the
/// exact stream the SWU produces in hardware), channel-major within each row
/// to match the filter layout `[in][kh][kw]`. In-bounds kernel rows are
/// copied as contiguous runs; padding bytes are zero-filled.
fn im2col_into(
    c: &Conv2d,
    input: &[u8],
    in_shape: TensorShape,
    out_shape: TensorShape,
    cols: &mut [u8],
) {
    let k = c.kernel;
    let window = k * k * c.in_channels;
    let (ih, iw) = (in_shape.height as isize, in_shape.width as isize);
    let (oh, ow) = (out_shape.height, out_shape.width);
    for y in 0..oh {
        for x in 0..ow {
            let base_y = (y * c.stride) as isize - c.padding as isize;
            let base_x = (x * c.stride) as isize - c.padding as isize;
            let row = &mut cols[(y * ow + x) * window..(y * ow + x + 1) * window];
            // Clip the kernel's x-extent against the input once per pixel.
            let x_lo = base_x.max(0);
            let x_hi = (base_x + k as isize).min(iw);
            for i in 0..c.in_channels {
                for ky in 0..k {
                    let sy = base_y + ky as isize;
                    let dst = &mut row[(i * k + ky) * k..(i * k + ky + 1) * k];
                    if sy < 0 || sy >= ih || x_lo >= x_hi {
                        dst.fill(0);
                        continue;
                    }
                    let src_base = ((i as isize * ih + sy) * iw) as usize;
                    let lead = (x_lo - base_x) as usize;
                    let run = (x_hi - x_lo) as usize;
                    dst[..lead].fill(0);
                    dst[lead..lead + run].copy_from_slice(
                        &input[src_base + x_lo as usize..src_base + x_hi as usize],
                    );
                    dst[lead + run..].fill(0);
                }
            }
        }
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

// Vec-returning wrappers shared with the trainer's calibration pass and the
// unit tests.

/// GEMM-lowered convolution via im2col (`ConvStrategy::Im2col`). Every
/// kernel inference plans is bit-identical to it, so calibration through it
/// sees exactly the production accumulators.
pub(crate) fn conv_forward_im2col(
    c: &Conv2d,
    input: &Activations,
    out_shape: TensorShape,
) -> Vec<i32> {
    let window = c.kernel * c.kernel * c.in_channels;
    let mut cols = vec![0u8; out_shape.spatial() * window];
    im2col_into(c, input.as_slice(), input.shape(), out_shape, &mut cols);
    let mut out = vec![0i32; c.out_channels * out_shape.spatial()];
    gemm_i32(
        c.weights.as_slice(),
        &cols,
        c.out_channels,
        out_shape.spatial(),
        window,
        &mut out,
    );
    out
}

/// Dense matrix-vector product producing MVTU accumulators.
pub(crate) fn dense_forward(d: &adaflow_model::Dense, input: &[u8]) -> Vec<i32> {
    let mut out = vec![0i32; d.out_features];
    gemm_i32(
        d.weights.as_slice(),
        input,
        d.out_features,
        1,
        d.in_features,
        &mut out,
    );
    out
}

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
        let labels = engine.run_batch(imgs.iter()).expect("batch");
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn im2col_matches_direct_on_tiny() {
        let g = tiny_graph();
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        let gemm = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Im2col);
        for seed in 0..8u64 {
            let img = random_image(g.input_shape(), seed);
            assert_eq!(
                direct.run(&img).expect("direct"),
                gemm.run(&img).expect("im2col"),
                "strategies diverged on seed {seed}"
            );
        }
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
        let out_shape = TensorShape::new(3, 3, 3);
        let mut direct = vec![0i32; out_shape.elements()];
        conv_direct_into(
            &conv,
            input.as_slice(),
            input.shape(),
            out_shape,
            &mut direct,
        );
        assert_eq!(direct, conv_forward_im2col(&conv, &input, out_shape));
    }

    #[test]
    fn im2col_matches_direct_on_wide_layer() {
        // Wide enough (window 72 >= 16, 36 pixels, 8 filters) to engage the
        // blocked GEMM path.
        let mut conv = Conv2d::new(8, 8, 3, 1, 1, QuantSpec::w2a2());
        for (i, w) in conv.weights.as_mut_slice().iter_mut().enumerate() {
            *w = ((i % 3) as i8) - 1;
        }
        let input = random_image(TensorShape::new(8, 6, 6), 5);
        let out_shape = TensorShape::new(8, 6, 6);
        let mut direct = vec![0i32; out_shape.elements()];
        conv_direct_into(
            &conv,
            input.as_slice(),
            input.shape(),
            out_shape,
            &mut direct,
        );
        assert_eq!(direct, conv_forward_im2col(&conv, &input, out_shape));
    }

    #[test]
    fn blocked_gemm_matches_naive_on_all_remainders() {
        // Exercise every m/n remainder against the 4x4 tile and odd k
        // against the 4-way unroll, then the shapes on the row-dot side of
        // the dispatch rule (k < 4, n = 1, m < 4) and its boundary.
        for &(m, n, k) in &[
            (4, 4, 16),
            (5, 7, 17),
            (6, 9, 19),
            (9, 5, 31),
            (4, 5, 16),
            (4, 4, 4),
            (8, 8, 3),
            (5, 6, 1),
            (64, 1, 256),
            (10, 1, 3),
            (3, 9, 27),
        ] {
            let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 % 7) as i8) - 3).collect();
            let b: Vec<u8> = (0..n * k).map(|i| (i * 101 % 251) as u8).collect();
            let mut blocked = vec![0i32; m * n];
            let mut naive = vec![0i32; m * n];
            let mut dispatched = vec![0i32; m * n];
            gemm_i32_blocked(&a, &b, m, n, k, &mut blocked);
            gemm_i32_naive(&a, &b, m, n, k, &mut naive);
            gemm_i32(&a, &b, m, n, k, &mut dispatched);
            assert_eq!(blocked, naive, "diverged at m={m} n={n} k={k}");
            assert_eq!(dispatched, naive, "dispatch diverged at m={m} n={n} k={k}");
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
        // The default plan is the engine's, and it builds no window matrix.
        let engine = Engine::new(&g).expect("engine");
        assert_eq!(scratch.bytes(), engine.scratch().bytes());
        assert!(scratch.cols.is_empty(), "Auto planned an im2col layer");
        // The oracle strategies still get their window matrix.
        let im2col = engine.clone().with_strategy(ConvStrategy::Im2col).scratch();
        assert_eq!(im2col.cols.len(), 28 * 28 * 576);
    }

    #[test]
    fn foreign_scratch_is_grown_not_indexed_out_of_bounds() {
        let tiny = tiny_graph();
        let cnv = topology::cnv_scaled(QuantSpec::w2a2(), 6, 0.25)
            .build()
            .expect("builds");
        let tiny_auto = Engine::new(&tiny).expect("engine");
        let tiny_im2col = tiny_auto.clone().with_strategy(ConvStrategy::Im2col);
        let cnv_auto = Engine::new(&cnv).expect("engine");
        let cnv_direct = cnv_auto.clone().with_strategy(ConvStrategy::Direct);
        let (tiny_img, cnv_img) = (
            random_image(tiny.input_shape(), 1),
            random_image(cnv.input_shape(), 2),
        );
        // An Im2col engine through an Auto-sized scratch, then a CNV engine
        // through what began as a tiny scratch — and back again.
        let mut scratch = tiny_auto.scratch();
        let tiny_oracle = tiny_im2col.run(&tiny_img).expect("oracle");
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
    fn batch_runner_hints_batch_size_from_threads() {
        let g = tiny_graph();
        let runner = BatchRunner::new(Engine::new(&g).expect("engine")).with_threads(2);
        assert_eq!(
            runner.batch_size_hint(),
            2 * crate::parallel::ITEMS_PER_WORKER_HINT
        );
        let auto = BatchRunner::new(Engine::new(&g).expect("engine"));
        assert!(auto.batch_size_hint() >= crate::parallel::ITEMS_PER_WORKER_HINT);
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
        // The blocked i32 GEMM is the bit-identity oracle for the packed
        // popcount kernels, across every backend this CPU runs.
        let g = topology::cnv_scaled(QuantSpec::w2a2(), 6, 0.25)
            .build()
            .expect("builds");
        let direct = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct);
        let gemm = Engine::new(&g)
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
            assert_eq!(oracle, gemm.run(&img).expect("im2col"));
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
        // hold there; every later W2A2 MVTU packs, and every threshold
        // between two packed MVTUs is applied by the first one.
        let g = tiny_graph();
        let engine = Engine::new(&g).expect("engine");
        let label = format!("packed-{}", engine.packed_backend().label());
        let kernels: Vec<&str> = engine.kernels().iter().map(|k| k.kernel).collect();
        assert_eq!(
            kernels,
            [
                "taps",
                "threshold-pack",
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
        // The result carries the same attribution for offline reporting.
        let result = engine
            .run(&Activations::zeroed(g.input_shape()))
            .expect("run");
        assert_eq!(result.kernels.as_ref(), kernels);
    }

    #[test]
    fn inference_result_equality_ignores_kernel_metadata() {
        let g = tiny_graph();
        let img = random_image(g.input_shape(), 3);
        let a = Engine::new(&g)
            .expect("engine")
            .with_strategy(ConvStrategy::Direct)
            .run(&img)
            .expect("runs");
        let b = Engine::new(&g).expect("engine").run(&img).expect("runs");
        assert_eq!(a, b, "numerics agree across strategies");
        assert_ne!(
            a.kernels.as_ref(),
            b.kernels.as_ref(),
            "attribution reflects the strategy"
        );
    }

    #[test]
    fn packed_spans_carry_kernel_suffix() {
        use adaflow_telemetry::EventKind;
        let g = tiny_graph();
        let (sink, recorder) = SinkHandle::recorder(256);
        let engine = Engine::new(&g).expect("engine").with_sink(sink);
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "escapes the AF010 interval")]
    fn fused_kernel_checks_accumulators_before_thresholding() {
        // conv2 of tiny is packed with its threshold fused: nothing but the
        // per-pixel check sees its accumulators. Shrink its interval to one
        // no input satisfies and the run must trip the assertion.
        let g = tiny_graph();
        let mut engine = Engine::new(&g).expect("engine");
        let conv2 = engine
            .plan
            .iter()
            .position(|p| matches!(&p.step, Step::Packed(m) if m.fused.is_some()))
            .expect("a fused packed MVTU");
        let mut intervals = (*engine.intervals).clone();
        for bound in intervals[conv2].as_mut().expect("MVTU interval") {
            *bound = (i64::MAX, i64::MAX);
        }
        engine.intervals = Arc::new(intervals);
        let _ = engine.run(&random_image(g.input_shape(), 1));
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
