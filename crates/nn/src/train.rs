//! Quantization-aware (re)training.
//!
//! The original flow retrains each pruned model for 40 epochs in Brevitas.
//! We reproduce the mechanism at laptop scale: a straight-through-estimator
//! (STE) SGD trainer that keeps a float shadow of every weight tensor,
//! trains with softmax cross-entropy on a [`SyntheticDataset`], then writes
//! quantized weights back into the graph and recalibrates every
//! multi-threshold table from observed accumulator quantiles (what real QAT
//! exporters do when folding batch-norm into thresholds).
//!
//! The trainer handles any graph built from this crate's layer set; it is
//! exercised on the `tiny` topology in tests and by the pruning crate's
//! retrain step. CNV-scale accuracy numbers come from the calibrated
//! [`crate::accuracy`] model instead (see DESIGN.md §1).

use crate::dataset::SyntheticDataset;
use crate::engine::{self, BatchRunner, Engine};
use crate::error::NnError;
use crate::parallel;
use crate::tensor::Activations;
use adaflow_model::{CnnGraph, Layer, QuantSpec, TensorShape, ThresholdTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes over the training range.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (the paper uses 0.001 with decay 0.1; we default to
    /// a larger rate suited to the small synthetic problems).
    pub learning_rate: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Number of training samples (dataset indices `0..train_samples`).
    pub train_samples: usize,
    /// Number of held-out evaluation samples (indices starting at
    /// `train_samples + 10_000` to stay disjoint).
    pub eval_samples: usize,
    /// Samples used for threshold calibration.
    pub calibration_samples: usize,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 16,
            learning_rate: 0.05,
            lr_decay: 0.7,
            train_samples: 256,
            eval_samples: 128,
            calibration_samples: 64,
            seed: 42,
        }
    }
}

impl TrainingConfig {
    /// Validates hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when a parameter is degenerate
    /// (zero epochs/batch/samples, non-positive learning rate).
    pub fn validate(&self) -> Result<(), NnError> {
        if self.epochs == 0 {
            return Err(NnError::InvalidConfig("epochs must be nonzero".into()));
        }
        if self.batch_size == 0 || self.train_samples == 0 {
            return Err(NnError::InvalidConfig(
                "batch and train sizes must be nonzero".into(),
            ));
        }
        if self.learning_rate <= 0.0
            || self.lr_decay <= 0.0
            || !self.learning_rate.is_finite()
            || !self.lr_decay.is_finite()
        {
            return Err(NnError::InvalidConfig(
                "learning rate and decay must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Mean cross-entropy loss of the final epoch.
    pub final_loss: f64,
    /// Top-1 accuracy of the float shadow network on the held-out range.
    pub float_accuracy: f64,
    /// Top-1 accuracy of the quantized graph (integer engine) on the
    /// held-out range, after weight write-back and threshold calibration.
    pub quantized_accuracy: f64,
}

/// Float shadow of one layer.
#[derive(Debug, Clone)]
enum Shadow {
    Conv {
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        quant: QuantSpec,
        w: Vec<f32>,
    },
    Dense {
        inf: usize,
        outf: usize,
        quant: QuantSpec,
        w: Vec<f32>,
    },
    /// Clipped-linear stand-in for the multi-threshold activation:
    /// `a = clamp(acc / scale, 0, levels)` with STE gradient.
    Act {
        levels: f32,
        scale: f32,
    },
    Pool {
        kernel: usize,
        stride: usize,
    },
    Label,
}

/// Cached forward values of one layer (inputs needed by backward).
#[derive(Debug, Clone)]
struct Cache {
    input: Vec<f32>,
    in_shape: TensorShape,
    out_shape: TensorShape,
    /// Pool: argmax index per output element; Act: in-range mask.
    aux: Vec<usize>,
}

/// The STE SGD trainer.
///
/// Owns a float shadow of the graph; [`Trainer::train`] consumes dataset
/// samples and [`Trainer::into_quantized_graph`] writes trained weights back
/// into a (threshold-recalibrated) quantized graph.
#[derive(Debug, Clone)]
pub struct Trainer {
    graph: CnnGraph,
    shadow: Vec<Shadow>,
}

impl Trainer {
    /// Builds a trainer for `graph`, initializing shadow weights with seeded
    /// He-style random values.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unsupported`] if the graph is not executable (see
    /// [`Engine::new`]).
    pub fn new(graph: &CnnGraph, seed: u64) -> Result<Self, NnError> {
        Engine::new(graph)?; // structural validation
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7124_1AB5);
        let shadow = graph
            .iter()
            .map(|node| match &node.layer {
                Layer::Conv2d(c) => {
                    let fan_in = (c.in_channels * c.kernel * c.kernel) as f32;
                    let std = (2.0 / fan_in).sqrt();
                    let w = (0..c.weights.len())
                        .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * std)
                        .collect();
                    Shadow::Conv {
                        in_ch: c.in_channels,
                        out_ch: c.out_channels,
                        kernel: c.kernel,
                        stride: c.stride,
                        padding: c.padding,
                        quant: c.quant,
                        w,
                    }
                }
                Layer::Dense(d) => {
                    let std = (2.0 / d.in_features as f32).sqrt();
                    let w = (0..d.in_features * d.out_features)
                        .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * std)
                        .collect();
                    Shadow::Dense {
                        inf: d.in_features,
                        outf: d.out_features,
                        quant: d.quant,
                        w,
                    }
                }
                Layer::MultiThreshold(t) => Shadow::Act {
                    levels: t.table.levels() as f32,
                    // One activation step per unit of accumulator by default;
                    // the float net learns around this scale.
                    scale: 1.0,
                },
                Layer::MaxPool2d(p) => Shadow::Pool {
                    kernel: p.kernel,
                    stride: p.stride,
                },
                Layer::LabelSelect(_) => Shadow::Label,
            })
            .collect();
        Ok(Self {
            graph: graph.clone(),
            shadow,
        })
    }

    /// Float forward pass; returns logits and per-layer caches.
    fn forward(&self, image: &Activations) -> (Vec<f32>, Vec<Cache>) {
        let mut x: Vec<f32> = image
            .as_slice()
            .iter()
            .map(|&v| f32::from(v) / 255.0)
            .collect();
        let mut caches = Vec::with_capacity(self.shadow.len());
        let mut shape = image.shape();
        for (layer, node) in self.shadow.iter().zip(self.graph.iter()) {
            let out_shape = node.output_shape;
            let (out, aux) = match layer {
                Shadow::Conv {
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    padding,
                    w,
                    ..
                } => (
                    conv_f32(
                        &x, shape, out_shape, *in_ch, *out_ch, *kernel, *stride, *padding, w,
                    ),
                    Vec::new(),
                ),
                Shadow::Dense { inf, outf, w, .. } => {
                    let mut out = vec![0f32; *outf];
                    for o in 0..*outf {
                        let row = &w[o * inf..(o + 1) * inf];
                        out[o] = row.iter().zip(&x).map(|(a, b)| a * b).sum();
                    }
                    (out, Vec::new())
                }
                Shadow::Act { levels, scale } => {
                    let mut aux = vec![0usize; x.len()];
                    let out = x
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            let a = v / scale;
                            if a > 0.0 && a < *levels {
                                aux[i] = 1;
                            }
                            a.clamp(0.0, *levels)
                        })
                        .collect();
                    (out, aux)
                }
                Shadow::Pool { kernel, stride } => pool_f32(&x, shape, out_shape, *kernel, *stride),
                Shadow::Label => (x.clone(), Vec::new()),
            };
            caches.push(Cache {
                input: std::mem::take(&mut x),
                in_shape: shape,
                out_shape,
                aux,
            });
            x = out;
            shape = out_shape;
        }
        // Logits are the input of the label-select layer.
        let logits = caches.last().map(|c| c.input.clone()).unwrap_or_default();
        (logits, caches)
    }

    /// One SGD step on a batch; returns the mean cross-entropy loss.
    fn step(&mut self, batch: &[(Activations, usize)], lr: f32) -> f64 {
        let mut total_loss = 0.0;
        let scale = lr / batch.len() as f32;
        // Accumulate gradients per layer.
        let mut grads: Vec<Vec<f32>> = self
            .shadow
            .iter()
            .map(|l| match l {
                Shadow::Conv { w, .. } | Shadow::Dense { w, .. } => vec![0f32; w.len()],
                _ => Vec::new(),
            })
            .collect();
        for (image, label) in batch {
            let (logits, caches) = self.forward(image);
            let probs = softmax(&logits);
            total_loss += -f64::from(probs[*label].max(1e-12).ln());
            // dL/dlogits
            let mut g: Vec<f32> = probs;
            g[*label] -= 1.0;
            // Backward in reverse layer order (skip the label layer, whose
            // input gradient is g itself).
            for (idx, layer) in self.shadow.iter().enumerate().rev() {
                let cache = &caches[idx];
                g = match layer {
                    Shadow::Label => g,
                    Shadow::Act { levels: _, scale } => g
                        .iter()
                        .zip(&cache.aux)
                        .map(|(&gi, &m)| if m == 1 { gi / scale } else { 0.0 })
                        .collect(),
                    Shadow::Pool { .. } => {
                        let mut gin = vec![0f32; cache.input.len()];
                        for (o, &src) in cache.aux.iter().enumerate() {
                            gin[src] += g[o];
                        }
                        gin
                    }
                    Shadow::Dense { inf, outf, .. } => {
                        let gw = &mut grads[idx];
                        let x = &cache.input;
                        let Shadow::Dense { w, .. } = &self.shadow[idx] else {
                            unreachable!()
                        };
                        let mut gin = vec![0f32; *inf];
                        for o in 0..*outf {
                            let go = g[o];
                            let row = &w[o * inf..(o + 1) * inf];
                            let grow = &mut gw[o * inf..(o + 1) * inf];
                            for i in 0..*inf {
                                grow[i] += go * x[i];
                                gin[i] += go * row[i];
                            }
                        }
                        gin
                    }
                    Shadow::Conv {
                        in_ch,
                        out_ch,
                        kernel,
                        stride,
                        padding,
                        w,
                        ..
                    } => conv_backward_f32(
                        &g,
                        cache,
                        *in_ch,
                        *out_ch,
                        *kernel,
                        *stride,
                        *padding,
                        w,
                        &mut grads[idx],
                    ),
                };
            }
        }
        // Apply accumulated gradients.
        for (layer, gw) in self.shadow.iter_mut().zip(&grads) {
            match layer {
                Shadow::Conv { w, .. } | Shadow::Dense { w, .. } => {
                    for (wi, gi) in w.iter_mut().zip(gw) {
                        *wi -= scale * gi;
                    }
                }
                _ => {}
            }
        }
        total_loss / batch.len() as f64
    }

    /// Trains on `data` and returns the trained quantized graph plus a
    /// report. The returned graph has trained quantized weights and
    /// recalibrated thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate hyper-parameters,
    /// or engine errors from evaluation.
    pub fn train(
        self,
        data: &SyntheticDataset,
        config: &TrainingConfig,
    ) -> Result<(CnnGraph, TrainingReport), NnError> {
        self.train_observed(data, config, |_, _| {})
    }

    /// Like [`Trainer::train`], invoking `observer(epoch, mean_loss)` after
    /// every epoch. The trainer stays sink-agnostic: callers adapt the
    /// callback to their own event sink.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate hyper-parameters,
    /// or engine errors from evaluation.
    pub fn train_observed(
        mut self,
        data: &SyntheticDataset,
        config: &TrainingConfig,
        mut observer: impl FnMut(usize, f64),
    ) -> Result<(CnnGraph, TrainingReport), NnError> {
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5EED);
        let mut lr = config.learning_rate;
        let mut final_loss = 0.0;
        for epoch in 0..config.epochs {
            let mut order: Vec<u64> = (0..config.train_samples as u64).collect();
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let batch: Vec<(Activations, usize)> = chunk
                    .iter()
                    .map(|&i| {
                        let s = data.sample(i);
                        (s.image, s.label)
                    })
                    .collect();
                epoch_loss += self.step(&batch, lr);
                batches += 1;
            }
            final_loss = epoch_loss / batches.max(1) as f64;
            observer(epoch, final_loss);
            lr *= config.lr_decay;
        }
        let eval_start = config.train_samples as u64 + 10_000;
        // Held-out evaluation runs batched: samples are materialized once,
        // the float net is mapped over worker threads, and the integer
        // engine goes through the BatchRunner (one scratch arena per
        // worker). Results are order-preserving, hence bit-identical to the
        // serial per-image loop.
        let eval_set = data.batch(eval_start, config.eval_samples);
        let (images, labels): (Vec<Activations>, Vec<usize>) =
            eval_set.into_iter().map(|s| (s.image, s.label)).unzip();
        let float_preds = parallel::par_map(&images, 0, |img| {
            let (logits, _) = self.forward(img);
            argmax_f32(&logits)
        });
        let float_accuracy = fraction_correct(&float_preds, &labels);
        let quantized = self.into_quantized_graph(data, config)?;
        let engine = Engine::new(&quantized)?;
        let quantized_preds = BatchRunner::new(engine).run(&images)?;
        let quantized_accuracy = fraction_correct(&quantized_preds, &labels);
        Ok((
            quantized,
            TrainingReport {
                final_loss,
                float_accuracy,
                quantized_accuracy,
            },
        ))
    }

    /// Writes trained shadow weights back into a quantized graph and
    /// recalibrates every threshold table from accumulator quantiles
    /// observed on a calibration batch.
    ///
    /// # Errors
    ///
    /// Propagates graph reconstruction errors.
    pub fn into_quantized_graph(
        &self,
        data: &SyntheticDataset,
        config: &TrainingConfig,
    ) -> Result<CnnGraph, NnError> {
        // 1. Quantize weights.
        let mut chain = self.graph.to_layer_chain();
        for ((_, layer), shadow) in chain.iter_mut().zip(&self.shadow) {
            match (layer, shadow) {
                (Layer::Conv2d(c), Shadow::Conv { w, quant, .. }) => {
                    quantize_into(w, *quant, c.weights.as_mut_slice());
                }
                (Layer::Dense(d), Shadow::Dense { w, quant, .. }) => {
                    quantize_into(w, *quant, d.weights.as_mut_slice());
                }
                _ => {}
            }
        }
        let graph = self.graph.with_layers(chain)?;

        // 2. Calibrate thresholds layer by layer on integer accumulators.
        let calib: Vec<Activations> = (0..config.calibration_samples as u64)
            .map(|i| data.sample(i).image)
            .collect();
        let graph = calibrate_thresholds(&graph, &calib)?;
        Ok(graph)
    }
}

/// Top-1 accuracy of `preds` against `labels` (0.0 when empty, matching
/// [`SyntheticDataset::evaluate`]).
fn fraction_correct(preds: &[usize], labels: &[usize]) -> f64 {
    if preds.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / preds.len() as f64
}

/// Quantizes float weights into the integer domain by max-abs scaling.
fn quantize_into(w: &[f32], quant: QuantSpec, out: &mut [i8]) {
    let domain = quant.weight_domain();
    let max_abs = w.iter().fold(0f32, |m, &v| m.max(v.abs())).max(1e-12);
    let scale = domain.max as f32 / max_abs;
    for (o, &v) in out.iter_mut().zip(w) {
        let q = (v * scale).round() as i64;
        *o = domain.clamp(q) as i8;
    }
}

/// Re-derives every threshold table from per-channel accumulator quantiles
/// on a calibration batch, walking the graph layer by layer with the
/// integer engine semantics.
fn calibrate_thresholds(graph: &CnnGraph, calib: &[Activations]) -> Result<CnnGraph, NnError> {
    if calib.is_empty() {
        return Ok(graph.clone());
    }
    let mut chain = graph.to_layer_chain();
    // Current quantized activations per calibration sample.
    let mut state: Vec<Activations> = calib.to_vec();
    let mut pending: Vec<Vec<i32>> = Vec::new(); // accumulators per sample
    for (idx, node) in graph.iter().enumerate() {
        match &node.layer {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                // Run the MVTU on each sample (sharded over worker threads;
                // the map preserves sample order); stash accumulators.
                let layer = &chain[idx].1;
                pending = parallel::par_map(&state, 0, |acts| {
                    mvtu_accumulate(layer, acts, node.output_shape)
                });
            }
            Layer::MultiThreshold(t) => {
                let shape = node.input_shape;
                let levels = t.table.levels();
                let spatial = shape.spatial();
                let mut rows = Vec::with_capacity(shape.channels);
                for ch in 0..shape.channels {
                    let mut vals: Vec<i32> = pending
                        .iter()
                        .flat_map(|acc| acc[ch * spatial..(ch + 1) * spatial].iter().copied())
                        .collect();
                    vals.sort_unstable();
                    let row: Vec<i32> = (1..=levels)
                        .map(|l| {
                            let q = l as f64 / (levels + 1) as f64;
                            let pos = ((vals.len() - 1) as f64 * q).round() as usize;
                            vals[pos]
                        })
                        .collect();
                    // Enforce monotonicity (duplicate quantiles are fine).
                    let mut mono = row;
                    for i in 1..mono.len() {
                        if mono[i] < mono[i - 1] {
                            mono[i] = mono[i - 1];
                        }
                    }
                    rows.push(mono);
                }
                let table = ThresholdTable::from_rows(&rows).map_err(NnError::Model)?;
                // Apply the new table to advance the calibration state.
                state = pending
                    .iter()
                    .map(|acc| {
                        let mut out = Activations::zeroed(shape);
                        let data = out.as_mut_slice();
                        for ch in 0..shape.channels {
                            for s in 0..spatial {
                                let i = ch * spatial + s;
                                data[i] = table.apply(ch, acc[i]);
                            }
                        }
                        out
                    })
                    .collect();
                pending = Vec::new();
                if let Layer::MultiThreshold(mt) = &mut chain[idx].1 {
                    mt.table = table;
                }
            }
            Layer::MaxPool2d(p) => {
                state = state
                    .iter()
                    .map(|acts| engine::pool_forward(p.kernel, p.stride, acts, node.output_shape))
                    .collect();
            }
            Layer::LabelSelect(_) => {}
        }
    }
    graph.with_layers(chain).map_err(NnError::Model)
}

/// Integer MVTU accumulation for calibration — delegates to the engine's
/// integer kernels, so calibration sees bit-exactly what inference will.
fn mvtu_accumulate(layer: &Layer, input: &Activations, out_shape: TensorShape) -> Vec<i32> {
    match layer {
        Layer::Conv2d(c) => engine::conv_forward_im2col(c, input, out_shape),
        Layer::Dense(d) => engine::dense_forward(d, input.as_slice()),
        _ => Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_f32(
    x: &[f32],
    in_shape: TensorShape,
    out_shape: TensorShape,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    w: &[f32],
) -> Vec<f32> {
    let (ih, iw) = (in_shape.height as isize, in_shape.width as isize);
    let (oh, ow) = (out_shape.height, out_shape.width);
    let mut out = vec![0f32; out_ch * oh * ow];
    for o in 0..out_ch {
        let fbase = o * in_ch * kernel * kernel;
        for y in 0..oh {
            for xo in 0..ow {
                let mut acc = 0f32;
                let by = (y * stride) as isize - padding as isize;
                let bx = (xo * stride) as isize - padding as isize;
                for i in 0..in_ch {
                    for ky in 0..kernel {
                        let sy = by + ky as isize;
                        if sy < 0 || sy >= ih {
                            continue;
                        }
                        for kx in 0..kernel {
                            let sx = bx + kx as isize;
                            if sx < 0 || sx >= iw {
                                continue;
                            }
                            let xi = (i as isize * ih + sy) * iw + sx;
                            acc += w[fbase + (i * kernel + ky) * kernel + kx] * x[xi as usize];
                        }
                    }
                }
                out[(o * oh + y) * ow + xo] = acc;
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn conv_backward_f32(
    g: &[f32],
    cache: &Cache,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    w: &[f32],
    gw: &mut [f32],
) -> Vec<f32> {
    let (ih, iw) = (
        cache.in_shape.height as isize,
        cache.in_shape.width as isize,
    );
    let (oh, ow) = (cache.out_shape.height, cache.out_shape.width);
    let x = &cache.input;
    let mut gin = vec![0f32; x.len()];
    for o in 0..out_ch {
        let fbase = o * in_ch * kernel * kernel;
        for y in 0..oh {
            for xo in 0..ow {
                let go = g[(o * oh + y) * ow + xo];
                if go == 0.0 {
                    continue;
                }
                let by = (y * stride) as isize - padding as isize;
                let bx = (xo * stride) as isize - padding as isize;
                for i in 0..in_ch {
                    for ky in 0..kernel {
                        let sy = by + ky as isize;
                        if sy < 0 || sy >= ih {
                            continue;
                        }
                        for kx in 0..kernel {
                            let sx = bx + kx as isize;
                            if sx < 0 || sx >= iw {
                                continue;
                            }
                            let xi = ((i as isize * ih + sy) * iw + sx) as usize;
                            let fi = fbase + (i * kernel + ky) * kernel + kx;
                            gw[fi] += go * x[xi];
                            gin[xi] += go * w[fi];
                        }
                    }
                }
            }
        }
    }
    gin
}

fn pool_f32(
    x: &[f32],
    in_shape: TensorShape,
    out_shape: TensorShape,
    kernel: usize,
    stride: usize,
) -> (Vec<f32>, Vec<usize>) {
    let (ih, iw) = (in_shape.height, in_shape.width);
    let (oh, ow) = (out_shape.height, out_shape.width);
    let mut out = vec![0f32; out_shape.elements()];
    let mut aux = vec![0usize; out_shape.elements()];
    for c in 0..out_shape.channels {
        for y in 0..oh {
            for xo in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let i = (c * ih + y * stride + ky) * iw + xo * stride + kx;
                        if x[i] > best {
                            best = x[i];
                            best_i = i;
                        }
                    }
                }
                let oi = (c * oh + y) * ow + xo;
                out[oi] = best;
                aux[oi] = best_i;
            }
        }
    }
    (out, aux)
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum.max(1e-12)).collect()
}

fn argmax_f32(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SyntheticDataset};
    use adaflow_model::prelude::*;

    fn quick_config() -> TrainingConfig {
        TrainingConfig {
            epochs: 6,
            batch_size: 16,
            learning_rate: 0.08,
            lr_decay: 0.75,
            train_samples: 192,
            eval_samples: 96,
            calibration_samples: 48,
            seed: 7,
        }
    }

    #[test]
    fn config_validation() {
        assert!(TrainingConfig::default().validate().is_ok());
        let zero_epochs = TrainingConfig {
            epochs: 0,
            ..TrainingConfig::default()
        };
        assert!(zero_epochs.validate().is_err());
        let bad_lr = TrainingConfig {
            learning_rate: -1.0,
            ..TrainingConfig::default()
        };
        assert!(bad_lr.validate().is_err());
        let nan_lr = TrainingConfig {
            learning_rate: f32::NAN,
            ..TrainingConfig::default()
        };
        assert!(nan_lr.validate().is_err());
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let data = SyntheticDataset::new(DatasetSpec::tiny(4), 3);
        let trainer = Trainer::new(&graph, 11).expect("trainer");
        let (trained, report) = trainer.train(&data, &quick_config()).expect("train");
        // Chance on 4 classes is 0.25; the float net must do clearly better.
        assert!(
            report.float_accuracy > 0.5,
            "float accuracy only {}",
            report.float_accuracy
        );
        // The quantized graph must remain a valid, executable model...
        assert!(Engine::new(&trained).is_ok());
        // ...and retain a useful share of the float accuracy.
        assert!(
            report.quantized_accuracy > 0.4,
            "quantized accuracy only {}",
            report.quantized_accuracy
        );
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn training_is_deterministic() {
        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let data = SyntheticDataset::new(DatasetSpec::tiny(4), 3);
        let cfg = quick_config();
        let r1 = Trainer::new(&graph, 11)
            .expect("t")
            .train(&data, &cfg)
            .expect("train");
        let r2 = Trainer::new(&graph, 11)
            .expect("t")
            .train(&data, &cfg)
            .expect("train");
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
    }

    #[test]
    fn quantize_into_respects_domain() {
        let w = vec![-0.9f32, -0.3, 0.0, 0.4, 1.2];
        let mut out = vec![0i8; 5];
        quantize_into(&w, QuantSpec::w2a2(), &mut out);
        assert!(out.iter().all(|&v| (-1..=1).contains(&v)));
        assert_eq!(out[4], 1); // largest magnitude maps to domain max
        assert_eq!(out[0], -1);
    }

    #[test]
    fn quantize_into_binary_never_zero() {
        let w = vec![-0.5f32, 0.0, 0.0001, 0.5];
        let mut out = vec![0i8; 4];
        quantize_into(&w, QuantSpec::w1a2(), &mut out);
        assert!(out.iter().all(|&v| v == -1 || v == 1));
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn calibration_produces_monotone_tables() {
        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let data = SyntheticDataset::new(DatasetSpec::tiny(4), 3);
        let calib: Vec<Activations> = (0..16).map(|i| data.sample(i).image).collect();
        let g = calibrate_thresholds(&graph, &calib).expect("calibrates");
        for node in g.iter() {
            if let Layer::MultiThreshold(t) = &node.layer {
                for c in 0..t.table.channels() {
                    let row = t.table.row(c);
                    assert!(row.windows(2).all(|w| w[0] <= w[1]));
                }
            }
        }
    }

    #[test]
    fn trainer_rejects_invalid_graph() {
        let g = GraphBuilder::new("bad", TensorShape::new(1, 8, 8))
            .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
            .max_pool(MaxPool2d::new(2, 2))
            .dense(Dense::new(36, 4, QuantSpec::w2a2()))
            .label_select(4)
            .build()
            .expect("structurally ok");
        assert!(Trainer::new(&g, 1).is_err());
    }
}
