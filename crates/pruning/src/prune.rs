//! The dataflow-aware pruning transform.

use crate::config::FinnConfig;
use crate::error::PruneError;
use crate::selection::select_filters_l1;
use adaflow_model::{CnnGraph, Layer, LayerId};
use serde::{Deserialize, Serialize};

/// Record of what was pruned in one convolution layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPrune {
    /// The convolution layer.
    pub layer: LayerId,
    /// Its name in the graph.
    pub name: String,
    /// Filter count before pruning.
    pub original: usize,
    /// Filter count after pruning.
    pub kept: usize,
    /// Indices of removed filters (in the original numbering).
    pub removed: Vec<usize>,
}

impl LayerPrune {
    /// Fraction of this layer's filters that were removed.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.removed.len() as f64 / self.original as f64
    }
}

/// A pruned CNN model with its pruning metadata.
///
/// The metadata (per-layer channel counts) is exactly what the paper
/// "attaches to the model description" for the flexible accelerator's
/// runtime-controllable parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrunedModel {
    /// The pruned graph (validated, executable).
    pub graph: CnnGraph,
    /// The rate requested from the pruner (`0.05`, `0.10`, ...).
    pub requested_rate: f64,
    /// Per-conv-layer pruning records.
    pub layers: Vec<LayerPrune>,
    /// MACs of the original (unpruned) model.
    pub original_macs: u64,
}

impl PrunedModel {
    /// Overall achieved pruning rate: removed filters over original filters.
    /// May be lower than [`PrunedModel::requested_rate`] because the
    /// divisibility constraints round each layer's removal down.
    #[must_use]
    pub fn achieved_rate(&self) -> f64 {
        let original: usize = self.layers.iter().map(|l| l.original).sum();
        let removed: usize = self.layers.iter().map(|l| l.removed.len()).sum();
        if original == 0 {
            0.0
        } else {
            removed as f64 / original as f64
        }
    }

    /// Per-conv-layer channel counts of the pruned model — the runtime
    /// `channels` vector shipped to flexible accelerators.
    #[must_use]
    pub fn conv_channels(&self) -> Vec<usize> {
        self.graph.conv_channels()
    }
}

/// The pruner of paper §IV-A1.
///
/// Holds the FINN folding configuration whose PE/SIMD values constrain every
/// removal; see the crate docs for the constraint statement.
#[derive(Debug, Clone)]
pub struct DataflowAwarePruner {
    config: FinnConfig,
}

impl DataflowAwarePruner {
    /// Creates a pruner for a given folding configuration.
    #[must_use]
    pub fn new(config: FinnConfig) -> Self {
        Self { config }
    }

    /// The folding configuration in use.
    #[must_use]
    pub fn config(&self) -> &FinnConfig {
        &self.config
    }

    /// Prunes `graph` at `rate` (fraction of filters to remove per conv
    /// layer, in `[0, 1)`), honoring the dataflow constraints.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::RateOutOfRange`] for an illegal rate,
    /// [`PruneError::ConfigMismatch`] if the folding config does not match
    /// the graph, or a [`PruneError::Model`] if the transformed graph fails
    /// validation (indicates an internal bug; surfaced rather than
    /// panicking).
    pub fn prune(&self, graph: &CnnGraph, rate: f64) -> Result<PrunedModel, PruneError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(PruneError::RateOutOfRange(rate));
        }
        self.config.validate(graph)?;

        let original_macs = graph.total_macs();
        let mut chain = graph.to_layer_chain();
        let mut records = Vec::new();

        for idx in 0..chain.len() {
            let id = LayerId(idx);
            let (ch_out, name) = match &chain[idx].1 {
                Layer::Conv2d(c) => (c.out_channels, chain[idx].0.clone()),
                _ => continue,
            };
            let folding = self.config.folding(id).ok_or_else(|| {
                PruneError::ConfigMismatch(format!("no folding for conv layer {id}"))
            })?;
            // SIMD constraint of the next MVTU, expressed at channel
            // granularity. When the next MVTU is a dense layer fed through a
            // flatten, each removed channel removes `spatial` consecutive
            // features, so the channel modulus is `simd / gcd(simd, spatial)`
            // (the paper's `(ch_out - r) mod SIMD_{i+1}` with spatial = 1).
            let simd_modulus = next_mvtu_channel_modulus(&chain, idx, ch_out, &self.config)?;

            // Requested removal, decreased until the constraints hold.
            let mut r = (rate * ch_out as f64).round() as usize;
            r = r.min(ch_out - 1);
            while r > 0
                && !((ch_out - r).is_multiple_of(folding.pe)
                    && (ch_out - r).is_multiple_of(simd_modulus))
            {
                r -= 1;
            }

            let removed = if r == 0 {
                Vec::new()
            } else {
                match &chain[idx].1 {
                    Layer::Conv2d(c) => select_filters_l1(&c.weights, r),
                    _ => unreachable!("checked above"),
                }
            };

            if !removed.is_empty() {
                apply_removal(&mut chain, idx, &removed, ch_out)?;
            }

            records.push(LayerPrune {
                layer: id,
                name,
                original: ch_out,
                kept: ch_out - removed.len(),
                removed,
            });
        }

        let percent = (rate * 100.0).round() as u32;
        let pruned = graph
            .with_layers(chain)
            .map_err(PruneError::Model)?
            .renamed(format!("{}-p{percent:02}", graph.name()));
        // Debug builds re-verify the transformed graph: any error here is a
        // propagation bug in the pruner itself, so panicking is correct.
        #[cfg(debug_assertions)]
        adaflow_verify::debug_assert_verified(&pruned, "DataflowAwarePruner::prune");
        Ok(PrunedModel {
            graph: pruned,
            requested_rate: rate,
            layers: records,
            original_macs,
        })
    }
}

/// Channel-granularity modulus imposed by the next MVTU's SIMD lanes on the
/// conv at `idx` (see the call site for the derivation).
fn next_mvtu_channel_modulus(
    chain: &[(String, Layer)],
    idx: usize,
    ch_out: usize,
    config: &FinnConfig,
) -> Result<usize, PruneError> {
    for (j, item) in chain.iter().enumerate().skip(idx + 1) {
        let simd = match &item.1 {
            Layer::Conv2d(_) | Layer::Dense(_) => {
                config.folding(LayerId(j)).map(|f| f.simd).ok_or_else(|| {
                    PruneError::ConfigMismatch(format!("no folding for MVTU layer L{j}"))
                })?
            }
            _ => continue,
        };
        return Ok(match &item.1 {
            Layer::Dense(d) => {
                let spatial = d.in_features / ch_out;
                simd / gcd(simd, spatial.max(1))
            }
            _ => simd,
        });
    }
    Ok(1) // no downstream MVTU constrains the removal
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Removes `removed` output channels from the conv at `idx` and propagates
/// the removal downstream to the next MVTU.
fn apply_removal(
    chain: &mut [(String, Layer)],
    idx: usize,
    removed: &[usize],
    ch_out: usize,
) -> Result<(), PruneError> {
    // 1. The convolution itself loses filters.
    if let Layer::Conv2d(c) = &mut chain[idx].1 {
        c.weights = c
            .weights
            .without_filters(removed)
            .map_err(PruneError::Model)?;
        c.out_channels -= removed.len();
    }

    // 2. Propagate to downstream layers until (and including) the next MVTU.
    for item in chain.iter_mut().skip(idx + 1) {
        match &mut item.1 {
            Layer::MultiThreshold(t) => {
                t.table = t
                    .table
                    .without_channels(removed)
                    .map_err(PruneError::Model)?;
                t.channels -= removed.len();
            }
            Layer::MaxPool2d(_) => {} // channel-agnostic; keep walking
            Layer::Conv2d(next) => {
                next.weights = next
                    .weights
                    .without_input_channels(removed)
                    .map_err(PruneError::Model)?;
                next.in_channels -= removed.len();
                return Ok(());
            }
            Layer::Dense(next) => {
                // Flattened features: each channel owns `spatial` consecutive
                // features (CHW layout).
                let spatial = next.in_features / ch_out;
                debug_assert_eq!(next.in_features % ch_out, 0, "flatten misalignment");
                let features: Vec<usize> = removed
                    .iter()
                    .flat_map(|&c| (0..spatial).map(move |s| c * spatial + s))
                    .collect();
                next.weights = next
                    .weights
                    .without_input_features(&features)
                    .map_err(PruneError::Model)?;
                next.in_features -= features.len();
                return Ok(());
            }
            Layer::LabelSelect(_) => {
                return Err(PruneError::ConfigMismatch(
                    "convolution feeds label-select directly; cannot propagate pruning".into(),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;
    use adaflow_nn::{Activations, Engine};

    fn cnv_pruner() -> (CnnGraph, DataflowAwarePruner) {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let cfg = FinnConfig::cnv_reference(&g).expect("valid");
        (g, DataflowAwarePruner::new(cfg))
    }

    #[test]
    fn zero_rate_changes_nothing() {
        let (g, pruner) = cnv_pruner();
        let p = pruner.prune(&g, 0.0).expect("prunes");
        assert_eq!(p.achieved_rate(), 0.0);
        assert_eq!(p.conv_channels(), g.conv_channels());
        assert_eq!(p.graph.total_macs(), g.total_macs());
    }

    #[test]
    fn rate_out_of_range_rejected() {
        let (g, pruner) = cnv_pruner();
        assert!(matches!(
            pruner.prune(&g, 1.0),
            Err(PruneError::RateOutOfRange(_))
        ));
        assert!(matches!(
            pruner.prune(&g, -0.1),
            Err(PruneError::RateOutOfRange(_))
        ));
    }

    #[test]
    fn constraints_hold_across_sweep() {
        let (g, pruner) = cnv_pruner();
        let cfg = pruner.config().clone();
        for step in 0..=17 {
            let rate = step as f64 * 0.05;
            let p = pruner.prune(&g, rate).expect("prunes");
            for rec in &p.layers {
                let folding = cfg.folding(rec.layer).expect("folding");
                assert_eq!(rec.kept % folding.pe, 0, "PE constraint at {}", rec.name);
                if let Some(next) = cfg.next_folding_after(rec.layer) {
                    assert_eq!(rec.kept % next.simd, 0, "SIMD constraint at {}", rec.name);
                }
            }
            // Folding config must stay valid for the pruned model too.
            let pruned_cfg =
                FinnConfig::new(&p.graph, cfg.entries().iter().map(|&(_, f)| f).collect());
            assert!(
                pruned_cfg.is_ok(),
                "folding invalid after pruning at rate {rate}"
            );
        }
    }

    #[test]
    fn achieved_rate_never_exceeds_requested_per_layer() {
        let (g, pruner) = cnv_pruner();
        for step in 1..=17 {
            let rate = step as f64 * 0.05;
            let p = pruner.prune(&g, rate).expect("prunes");
            for rec in &p.layers {
                // round(rate*ch) can exceed rate*ch by < 1 filter; allow it.
                assert!(
                    rec.removed.len() as f64 <= rate * rec.original as f64 + 1.0,
                    "layer {} removed {} of {} at rate {rate}",
                    rec.name,
                    rec.removed.len(),
                    rec.original
                );
            }
        }
    }

    #[test]
    fn macs_decrease_monotonically() {
        let (g, pruner) = cnv_pruner();
        let mut prev = u64::MAX;
        for step in 0..=17 {
            let p = pruner.prune(&g, step as f64 * 0.05).expect("prunes");
            let macs = p.graph.total_macs();
            assert!(macs <= prev, "MACs increased at step {step}");
            prev = macs;
        }
    }

    #[test]
    fn mac_reduction_is_roughly_quadratic() {
        // Paper §II: filter pruning has a roughly quadratic effect because
        // both ch_out of layer i and ch_in of layer i+1 shrink.
        let (g, pruner) = cnv_pruner();
        let p = pruner.prune(&g, 0.5).expect("prunes");
        let achieved = p.achieved_rate();
        let keep = 1.0 - achieved;
        let reduction = g.total_macs() as f64 / p.graph.total_macs() as f64;
        // Pure quadratic would give 1/keep^2; first layer (fixed 3 input
        // channels) and FC tail dilute it. Expect clearly superlinear.
        assert!(
            reduction > 1.0 / keep * 1.2,
            "reduction {reduction} not superlinear for keep {keep}"
        );
    }

    #[test]
    fn pruned_cnv_remains_executable() {
        let (g, pruner) = cnv_pruner();
        let p = pruner.prune(&g, 0.25).expect("prunes");
        assert!(Engine::new(&p.graph).is_ok());
    }

    #[test]
    fn pruned_tiny_runs_inference() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let cfg = FinnConfig::auto(&g).expect("auto");
        let pruner = DataflowAwarePruner::new(cfg);
        let p = pruner.prune(&g, 0.4).expect("prunes");
        assert!(p.achieved_rate() > 0.0);
        let engine = Engine::new(&p.graph).expect("engine");
        let mut img = Activations::zeroed(p.graph.input_shape());
        for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 256) as u8;
        }
        let r = engine.run(&img).expect("runs");
        assert!(r.label < 4);
    }

    #[test]
    fn pruned_name_encodes_rate() {
        let (g, pruner) = cnv_pruner();
        let p = pruner.prune(&g, 0.25).expect("prunes");
        assert_eq!(p.graph.name(), "cnv-w2a2-cifar10-p25");
    }

    #[test]
    fn sweep_generates_all_rates() {
        let (g, pruner) = cnv_pruner();
        let models: Vec<_> = (0..18)
            .map(|s| pruner.prune(&g, s as f64 * 0.05).expect("prunes"))
            .collect();
        assert_eq!(models.len(), 18);
        // The paper's library: models get strictly smaller at the top end.
        assert!(models[17].graph.total_macs() < models[0].graph.total_macs() / 4);
    }

    #[test]
    fn layer_records_are_consistent() {
        let (g, pruner) = cnv_pruner();
        let p = pruner.prune(&g, 0.3).expect("prunes");
        assert_eq!(p.layers.len(), 6);
        for rec in &p.layers {
            assert_eq!(rec.original - rec.removed.len(), rec.kept);
            assert!(rec.removed.windows(2).all(|w| w[0] < w[1]));
        }
        // Graph channels match the records.
        let kept: Vec<usize> = p.layers.iter().map(|l| l.kept).collect();
        assert_eq!(kept, p.conv_channels());
    }

    #[test]
    fn pruning_keeps_high_l1_filters() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let original_norms = {
            let (_, conv) = g.conv_layers().next().expect("conv");
            conv.weights.filter_l1_norms()
        };
        let cfg = FinnConfig::auto(&g).expect("auto");
        let p = DataflowAwarePruner::new(cfg)
            .prune(&g, 0.5)
            .expect("prunes");
        let rec = &p.layers[0];
        if rec.removed.is_empty() {
            return; // constraints may forbid pruning this layer entirely
        }
        let max_removed = rec
            .removed
            .iter()
            .map(|&i| original_norms[i])
            .max()
            .expect("removed set checked non-empty above");
        let kept: Vec<u64> = (0..rec.original)
            .filter(|i| !rec.removed.contains(i))
            .map(|i| original_norms[i])
            .collect();
        let min_kept = kept
            .iter()
            .min()
            .copied()
            .expect("pruner always keeps at least one filter");
        assert!(
            max_removed <= min_kept,
            "kept a weaker filter than one removed"
        );
    }
}
