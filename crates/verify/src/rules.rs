//! The graph rule table (`AF001`–`AF011`).
//!
//! Each rule checks one structural invariant FINN's compiler takes for
//! granted before HLS generation (see DESIGN.md §8 for the full catalog
//! with paper provenance; each code's summary lives in [`crate::explain`]).
//! Rules receive the whole graph and emit every violation they find — they
//! never stop at the first one.
//!
//! The table deliberately re-derives facts that `CnnGraph::from_layers`
//! validates at construction: graphs also enter the system through serde
//! deserialization, where no validation runs, and the verifier is the
//! backstop that keeps pruning/perf transforms honest.

use crate::accumulator::AccumulatorBound;
use crate::diag::{Diagnostics, Severity};
use crate::interval::{IntervalAnalysis, MvtuInterval};
use adaflow_model::{CnnGraph, Layer, MvtuDomain, PackedFallback};

/// The graph facts every rule reads, computed once per verification pass.
pub(crate) struct Facts<'g> {
    pub graph: &'g CnnGraph,
    pub domains: Vec<MvtuDomain>,
    pub bounds: Vec<AccumulatorBound>,
    pub intervals: IntervalAnalysis,
}

/// One rule: scans the facts, emitting findings under `code` into `diag`.
type Check = fn(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics);

/// The full graph rule table, in code order.
pub(crate) static RULES: &[(&str, Check)] = &[
    ("AF001", shape_chain),
    ("AF002", weight_geometry),
    ("AF003", weight_domain),
    ("AF004", threshold_monotone),
    ("AF005", threshold_coverage),
    ("AF006", accumulator_overflow),
    ("AF007", channel_consistency),
    ("AF008", dataflow_structure),
    ("AF009", packed_eligibility),
    ("AF010", exact_accumulator_intervals),
    ("AF011", threshold_reachability),
];

/// `AF001` — declared per-node shapes must equal re-derived shape
/// inference, and adjacent nodes must agree on the tensor flowing between
/// them.
fn shape_chain(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    let mut upstream = graph.input_shape();
    for node in graph.iter() {
        let at = Some((node.id.0, node.name.as_str()));
        if node.input_shape != upstream {
            diag.report(
                code,
                Severity::Error,
                at,
                format!(
                    "declared input shape {} disagrees with upstream output {}",
                    node.input_shape, upstream
                ),
                Some("rebuild the graph through GraphBuilder to re-run shape inference".into()),
            );
        }
        match node.layer.output_shape(node.input_shape) {
            Ok(derived) if derived == node.output_shape => {}
            Ok(derived) => diag.report(
                code,
                Severity::Error,
                at,
                format!(
                    "declared output shape {} but shape inference derives {}",
                    node.output_shape, derived
                ),
                Some("rebuild the graph through GraphBuilder to re-run shape inference".into()),
            ),
            Err(e) => diag.report(
                code,
                Severity::Error,
                at,
                format!("shape inference fails on declared input: {e}"),
                None,
            ),
        }
        upstream = node.output_shape;
    }
}

/// `AF002` — layer parameters and attached weight tensors must agree
/// (nonzero dims, weight geometry matching declared geometry).
fn weight_geometry(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    for node in graph.iter() {
        if let Err(e) = node.layer.validate() {
            diag.report(
                code,
                Severity::Error,
                Some((node.id.0, node.name.as_str())),
                e.to_string(),
                Some("resize the weight tensor or fix the declared dimensions".into()),
            );
        }
    }
}

/// `AF003` — every stored weight must lie in the layer's quantized weight
/// domain (±1 for binary with zero excluded, narrow-range signed
/// otherwise).
fn weight_domain(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    for node in graph.iter() {
        let (weights, quant): (&[i8], _) = match &node.layer {
            Layer::Conv2d(c) => (c.weights.as_slice(), c.quant),
            Layer::Dense(d) => (d.weights.as_slice(), d.quant),
            _ => continue,
        };
        let domain = quant.weight_domain();
        let at = Some((node.id.0, node.name.as_str()));
        // Magnitude violations corrupt the arithmetic: Error. A zero in
        // a zero-excluding (binary) domain still executes exactly — it
        // just cannot be lowered to true binary hardware — so: Warn.
        let mut out_of_range = 0usize;
        let mut zeros = 0usize;
        let mut first = None;
        for &w in weights {
            let w = i64::from(w);
            if w < domain.min || w > domain.max {
                out_of_range += 1;
                first.get_or_insert(w);
            } else if w == 0 && domain.excludes_zero {
                zeros += 1;
            }
        }
        if out_of_range > 0 {
            diag.report(
                code,
                Severity::Error,
                at,
                format!(
                    "{out_of_range} of {} weights outside the {} domain [{}, {}] (first: {})",
                    weights.len(),
                    quant,
                    domain.min,
                    domain.max,
                    first.unwrap_or(0),
                ),
                Some("re-quantize the weights (QuantizedDomain::clamp) or widen the spec".into()),
            );
        }
        if zeros > 0 {
            diag.report(
                code,
                Severity::Warn,
                at,
                format!(
                    "{zeros} of {} weights are 0 but the {} domain excludes zero; \
                     they cannot be lowered to binary hardware",
                    weights.len(),
                    quant,
                ),
                Some("re-quantize zeros to ±1 or use a 2-bit weight spec".into()),
            );
        }
    }
}

/// `AF004` — every per-channel threshold row must be monotonically
/// ascending; the MVTU's thresholding unit counts a prefix of met
/// thresholds and silently mis-activates on unsorted rows.
fn threshold_monotone(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    for node in graph.iter() {
        let Layer::MultiThreshold(t) = &node.layer else {
            continue;
        };
        let mut bad_rows = 0usize;
        let mut first = None;
        for c in 0..t.table.channels() {
            let row = t.table.row(c);
            if let Some(pos) = row.windows(2).position(|w| w[0] > w[1]) {
                bad_rows += 1;
                first.get_or_insert((c, pos, row[pos], row[pos + 1]));
            }
        }
        if let Some((c, pos, a, b)) = first {
            diag.report(
                code,
                Severity::Error,
                Some((node.id.0, node.name.as_str())),
                format!(
                    "{bad_rows} of {} threshold rows not ascending \
                     (channel {c}: level {pos} is {a} > level {} is {b})",
                    t.table.channels(),
                    pos + 1,
                ),
                Some("sort each channel's thresholds ascending (ThresholdTable::from_rows enforces this)".into()),
            );
        }
    }
}

/// `AF005` — a MultiThreshold must cover its producer MVTU's quantized
/// activation domain: exactly `2^act_bits - 1` levels, all reachable by
/// the producer's worst-case accumulator range.
fn threshold_coverage(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let nodes = facts.graph.nodes();
    for (idx, node) in nodes.iter().enumerate() {
        let Layer::MultiThreshold(t) = &node.layer else {
            continue;
        };
        // FINN folds the threshold into the immediately preceding MVTU.
        let Some(prev) = idx.checked_sub(1).map(|i| &nodes[i]) else {
            continue;
        };
        let quant = match &prev.layer {
            Layer::Conv2d(c) => c.quant,
            Layer::Dense(d) => d.quant,
            _ => continue,
        };
        let at = Some((node.id.0, node.name.as_str()));
        let expected = quant.threshold_levels();
        if t.table.levels() != expected {
            diag.report(
                code,
                Severity::Error,
                at,
                format!(
                    "table has {} levels but the {} activation domain needs {expected} \
                     (2^act_bits - 1)",
                    t.table.levels(),
                    quant,
                ),
                Some(format!(
                    "rebuild the table with {expected} levels per channel"
                )),
            );
            continue;
        }
        // Reachability: thresholds beyond the producer's worst-case
        // accumulator range are dead levels — the activation can never
        // reach those counts.
        let Some(bound) = facts.bounds.iter().find(|b| b.layer == prev.id.0) else {
            continue;
        };
        let worst = bound.worst_abs;
        let mut dead = 0usize;
        for c in 0..t.table.channels() {
            let row = t.table.row(c);
            if row
                .iter()
                .any(|&th| i128::from(th) > worst || i128::from(th) < -worst)
            {
                dead += 1;
            }
        }
        if dead > 0 {
            diag.report(
                code,
                Severity::Warn,
                at,
                format!(
                    "{dead} of {} channels have thresholds outside the producer's \
                     reachable accumulator range ±{worst}; those levels can never fire",
                    t.table.channels(),
                ),
                Some("re-calibrate the thresholds against the accumulator range".into()),
            );
        }
    }
}

/// `AF006` — the `i32` MVTU accumulator must provably not overflow:
/// `fan_in · max|w| · max|a| ≤ i32::MAX`. Emits the computed margin for
/// every MVTU layer as an Info finding, and an Error where the bound fails.
///
/// The domain bound is retraining-proof but loose, so it errs on graphs
/// whose *actual* weights are safe: where the exact interval (AF010) proves
/// every reachable accumulator value fits `i32`, the finding is a Warn that
/// says so (the domain-level concern stays on record). A policy that denies
/// AF006 keeps the conservative Error.
fn accumulator_overflow(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    for b in &facts.bounds {
        let at = Some((b.layer, b.name.as_str()));
        let describe = format!(
            "worst-case accumulator ±{} (fan-in {} × max|w| {} × max|a| {}), \
             actual weights reach ±{}",
            b.worst_abs, b.fan_in, b.max_weight, b.max_activation, b.tight_abs,
        );
        if b.fits_i32() {
            diag.report(
                code,
                Severity::Info,
                at,
                format!(
                    "{describe}: {} spare bits, {:.0}x headroom below i32::MAX",
                    b.margin_bits(),
                    b.headroom(),
                ),
                None,
            );
            continue;
        }
        let mut message = format!(
            "{describe}: exceeds i32::MAX by {:.1}x",
            b.worst_abs as f64 / f64::from(i32::MAX),
        );
        let proven = !diag.denies(code)
            && facts
                .intervals
                .mvtu(b.layer)
                .is_some_and(MvtuInterval::fits_i32);
        if proven {
            message.push_str(
                " — demoted: AF010 interval analysis proves the current weights cannot \
                 overflow i32 (retraining under this spec may still overflow)",
            );
        }
        diag.report(
            code,
            if proven {
                Severity::Warn
            } else {
                Severity::Error
            },
            at,
            message,
            Some("reduce fan-in or quantization bit widths, or widen the accumulator type".into()),
        );
    }
}

/// `AF007` — pruning consistency: filter removal at one layer must be
/// propagated to every consumer — the following threshold's rows, the next
/// convolution's input channels, and the flattened dense layer's input
/// features.
fn channel_consistency(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    let nodes = graph.nodes();
    // Channel count produced by the most recent conv (or the input),
    // tracked at the layer-parameter level — independent of the
    // declared node shapes AF001 checks.
    let mut channels = graph.input_shape().channels;
    // Spatial extent at the producing conv, for the flatten into dense.
    let mut spatial = graph.input_shape().spatial();
    let mut features: Option<usize> = None; // Some(n) once flattened
    for node in nodes {
        let at = Some((node.id.0, node.name.as_str()));
        match &node.layer {
            Layer::Conv2d(c) => {
                if c.in_channels != channels {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        format!(
                            "consumes {} input channels but the upstream producer emits \
                             {channels}",
                            c.in_channels,
                        ),
                        Some(
                            "propagate the upstream filter removal with \
                             ConvWeights::without_input_channels"
                                .into(),
                        ),
                    );
                }
                channels = c.out_channels;
                spatial = node.output_shape.spatial();
                features = None;
            }
            Layer::MultiThreshold(t) => {
                let expect = features.unwrap_or(channels);
                if t.channels != expect {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        format!(
                            "thresholds {} channels but the producer emits {expect}",
                            t.channels,
                        ),
                        Some(
                            "remove the pruned channels' rows with \
                             ThresholdTable::without_channels"
                                .into(),
                        ),
                    );
                }
            }
            Layer::Dense(d) => {
                let expect = features.unwrap_or(channels * spatial);
                if d.in_features != expect {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        format!(
                            "consumes {} input features but the upstream producer emits \
                             {expect}",
                            d.in_features,
                        ),
                        Some(
                            "propagate the upstream removal with \
                             DenseWeights::without_input_features"
                                .into(),
                        ),
                    );
                }
                features = Some(d.out_features);
            }
            Layer::MaxPool2d(_) => {
                spatial = node.output_shape.spatial();
            }
            Layer::LabelSelect(_) => {}
        }
    }
}

/// `AF008` — dataflow executability: MVTU outputs (raw accumulators) must
/// be re-quantized by a MultiThreshold before pooling or the next MVTU,
/// thresholds must not re-quantize already-quantized activations, and the
/// graph should terminate in a LabelSelect fed by classifier accumulators.
fn dataflow_structure(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    let graph = facts.graph;
    let mut accum = false; // true while the value is raw accumulators
    for node in graph.iter() {
        let at = Some((node.id.0, node.name.as_str()));
        match &node.layer {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                if accum {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        "consumes raw accumulators from the previous MVTU",
                        Some("insert a MultiThreshold between the two MVTU layers".into()),
                    );
                }
                accum = true;
            }
            Layer::MultiThreshold(_) => {
                if !accum {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        "re-thresholds already-quantized activations",
                        Some("remove the redundant MultiThreshold".into()),
                    );
                }
                accum = false;
            }
            Layer::MaxPool2d(_) => {
                if accum {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        "pools raw accumulators",
                        Some("insert a MultiThreshold before the pooling layer".into()),
                    );
                }
            }
            Layer::LabelSelect(_) => {
                if !accum {
                    diag.report(
                        code,
                        Severity::Error,
                        at,
                        "label-select needs classifier accumulators, not quantized \
                         activations",
                        Some("feed the classifier MVTU's accumulators directly".into()),
                    );
                }
                accum = false;
            }
        }
    }
    match graph.nodes().last().map(|n| &n.layer) {
        Some(Layer::LabelSelect(_)) | None => {}
        Some(other) => diag.report(
            code,
            Severity::Warn,
            graph.nodes().last().map(|n| (n.id.0, n.name.as_str())),
            format!(
                "graph ends in {} instead of a LabelSelect classifier",
                other.kind()
            ),
            Some("append a label_select over the class logits".into()),
        ),
    }
}

/// `AF009` — packed-kernel eligibility: the inference engine's bitplane
/// popcount kernels (and the FINN XNOR/AND-popcount MVTU they model) are
/// only faithful when a layer's effective domains stay within ≤2-bit
/// weights (`{-1, 0, +1}`) and ≤2-bit incoming activations (`0..=3`).
/// Reports each MVTU's eligibility as an Info finding; warns when a layer
/// *declares* packed-friendly ≤2-bit quantization but the upstream
/// threshold table implies wider activations (or its stored weights stray
/// outside `±1`) — those layers silently run the slower byte-window MVTU.
fn packed_eligibility(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    for d in &facts.domains {
        let at = Some((d.layer, d.name.as_str()));
        match &d.fallback {
            None => diag.report(
                code,
                Severity::Info,
                at,
                format!(
                    "packed-eligible: W{} weights, {}-plane activations ≤{} over fan-in {}",
                    d.weight_bits, d.act_in_planes, d.act_in_max, d.fan_in
                ),
                None,
            ),
            Some(fb @ PackedFallback::ActivationsTooWide(_)) if d.act_from_input => {
                diag.report(
                    code,
                    Severity::Info,
                    at,
                    format!("byte-window MVTU (expected for the input layer): {fb}"),
                    None,
                );
            }
            Some(fb @ PackedFallback::WeightBitsTooWide(_)) => diag.report(
                code,
                Severity::Info,
                at,
                format!("byte-window MVTU: {fb}"),
                None,
            ),
            // A declared >2-bit activation domain is legitimately
            // ineligible — nothing to fix.
            Some(fb @ PackedFallback::ActivationsTooWide(_)) if d.act_bits > 2 => diag.report(
                code,
                Severity::Info,
                at,
                format!("byte-window MVTU: {fb}"),
                None,
            ),
            // An inner layer declaring ≤2-bit quantization that still
            // misses the contract is a calibration/model bug worth
            // flagging: the engine quietly loses the packed speedup.
            Some(fb) => diag.report(
                code,
                Severity::Warn,
                at,
                format!(
                    "declares W{}A{} but misses the packed contract: {fb}",
                    d.weight_bits, d.act_bits
                ),
                Some(
                    "recalibrate the upstream threshold table (or fix the stored weights) \
                     so the packed kernels can engage"
                        .into(),
                ),
            ),
        }
    }
}

/// `AF010` — exact accumulator intervals: the reachable interval of every
/// MVTU accumulator under the actual weights must fit `i32`; the minimal
/// accumulator width and spare-bit margin are surfaced per layer.
fn exact_accumulator_intervals(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    for m in &facts.intervals.mvtus {
        let at = Some((m.layer, m.name.as_str()));
        if m.fits_i32() {
            diag.report(
                code,
                Severity::Info,
                at,
                format!(
                    "exact accumulator interval [{}, {}] needs a {}-bit accumulator; \
                     {} spare bits in i32 (AF006 domain bound ±{})",
                    m.acc.lo, m.acc.hi, m.required_bits, m.spare_bits, m.domain_worst_abs,
                ),
                None,
            );
        } else {
            diag.report(
                code,
                Severity::Error,
                at,
                format!(
                    "exact accumulator interval [{}, {}] needs a {}-bit accumulator \
                     and overflows i32 under the current weights",
                    m.acc.lo, m.acc.hi, m.required_bits,
                ),
                Some(
                    "reduce fan-in or re-quantize the weights; the overflow is reachable, \
                     not a domain-bound artifact"
                        .into(),
                ),
            );
        }
    }
}

/// `AF011` — threshold liveness: flags threshold levels the reachable
/// accumulator interval can never cross (inert levels waste comparator
/// hardware and quantization codes) and channels whose thresholded output
/// is constant (dead channels — prime pruning candidates).
fn threshold_reachability(code: &str, facts: &Facts<'_>, diag: &mut Diagnostics) {
    for t in &facts.intervals.thresholds {
        let at = Some((t.layer, t.name.as_str()));
        if t.dead_channels > 0 {
            diag.report(
                code,
                Severity::Warn,
                at,
                format!(
                    "{} channel(s) produce a constant activation over the whole \
                     reachable accumulator range (first: channel {}); they carry \
                     no information downstream",
                    t.dead_channels,
                    t.first_dead.unwrap_or(0),
                ),
                Some(
                    "prune the dead channels or re-calibrate the thresholds into the \
                     reachable range"
                        .into(),
                ),
            );
        } else if t.inert_thresholds > 0 {
            let channels = facts
                .graph
                .nodes()
                .get(t.layer)
                .map_or(0, |n| match &n.layer {
                    Layer::MultiThreshold(m) => m.channels,
                    _ => 0,
                });
            diag.report(
                code,
                Severity::Info,
                at,
                format!(
                    "{} of {} threshold level slots never discriminate \
                     ({} of {} channels affected); the implied quantization codes \
                     are unused",
                    t.inert_thresholds,
                    t.levels * channels,
                    t.channels_with_inert,
                    channels,
                ),
                None,
            );
        }
    }
}
