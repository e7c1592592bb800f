//! Inter-module FIFO sizing.
//!
//! FINN inserts stream FIFOs between dataflow layers and sizes them so the
//! pipeline sustains its bottleneck-limited initiation interval. This module
//! reproduces that design step analytically: the steady-state II of a chain
//! is `max(max_i c_i, max_i ⌈(c_i + c_{i+1}) / d_i⌉)` (the maximum cycle
//! mean of the pipeline's max-plus recurrence), so inverting the pair-cycle
//! bound yields the provably minimal capacity per edge —
//! [`adaflow_verify::required_edge_capacity`], the same bound the `DF005`
//! deadlock-freedom rule certifies. The uniform allocation the stream model
//! uses is the maximum of those per-edge bounds. It never exceeds 2, since
//! `c_i + c_{i+1} ≤ 2·max_i c_i`. The cycle-accurate [`StreamSimulator`]
//! is the reference the test suite checks these closed forms against.
//!
//! [`StreamSimulator`]: crate::stream::StreamSimulator

use crate::accel::DataflowAccelerator;
use crate::verify::module_stages;
use adaflow_verify::{rate_balance_uniform, required_edge_capacity};
use serde::{Deserialize, Serialize};

/// Result of the FIFO sizing analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FifoSizing {
    /// Minimal uniform FIFO depth (frames of slack per edge) sustaining the
    /// bottleneck II.
    pub depth: usize,
    /// The bottleneck (analytical) initiation interval in cycles.
    pub target_ii: u64,
    /// Steady-state II at the chosen depth (equals `target_ii`).
    pub achieved_ii: u64,
    /// Steady-state II at depth 1, for comparison (the cost of
    /// under-buffering).
    pub depth1_ii: u64,
    /// Pipeline fill latency, cycles: the first frame meets no
    /// back-pressure, so it is the sum of the module cycles.
    pub fill_latency: u64,
    /// Number of buffered frames across the pipeline at the chosen depth
    /// (edges × depth) — proportional to FIFO memory cost.
    pub buffered_frames: usize,
    /// Provably minimal capacity per inter-module edge (pipeline order):
    /// the inverted pair-cycle bound `⌈(c_up + c_down) / target_ii⌉`.
    pub per_edge_depths: Vec<usize>,
    /// Total frames the per-edge bounds allocate (`Σ per_edge_depths`) —
    /// the proven-safe floor the uniform allocation is compared against.
    pub proven_frames: usize,
}

/// Sizes the inter-module FIFOs of `accel` from the per-edge pair-cycle
/// bounds: the uniform depth is their maximum (at most 2).
#[must_use]
pub fn size_fifos(accel: &DataflowAccelerator) -> FifoSizing {
    let target_ii = accel.initiation_interval();
    let stages = module_stages(accel);
    let per_edge_depths: Vec<usize> = stages
        .windows(2)
        .map(|pair| required_edge_capacity(pair[0].cycles, pair[1].cycles, target_ii))
        .collect();
    let proven_frames = per_edge_depths.iter().sum();
    let depth = per_edge_depths.iter().copied().max().unwrap_or(1);
    FifoSizing {
        depth,
        target_ii,
        achieved_ii: rate_balance_uniform(&stages, depth).steady_ii,
        depth1_ii: rate_balance_uniform(&stages, 1).steady_ii,
        fill_latency: accel.latency_cycles(),
        buffered_frames: per_edge_depths.len() * depth,
        per_edge_depths,
        proven_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AcceleratorKind;
    use adaflow_model::prelude::*;
    use adaflow_pruning::FinnConfig;

    fn cnv_accel() -> DataflowAccelerator {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let cfg = FinnConfig::cnv_reference(&g).expect("valid");
        DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles")
    }

    #[test]
    fn cnv_needs_depth_two() {
        let sizing = size_fifos(&cnv_accel());
        assert_eq!(sizing.depth, 2);
        assert_eq!(sizing.achieved_ii, sizing.target_ii);
        assert!(
            sizing.depth1_ii > sizing.target_ii,
            "depth 1 must under-perform"
        );
    }

    #[test]
    fn fill_latency_at_least_sum_of_modules() {
        let accel = cnv_accel();
        let sizing = size_fifos(&accel);
        assert!(sizing.fill_latency >= accel.latency_cycles());
    }

    #[test]
    fn buffered_frames_counts_edges() {
        let accel = cnv_accel();
        let sizing = size_fifos(&accel);
        assert_eq!(
            sizing.buffered_frames,
            (accel.modules().len() - 1) * sizing.depth
        );
    }

    #[test]
    fn analytic_depth_matches_simulated_minimum() {
        // The uniform depth is the max per-edge pair-cycle bound, and the
        // simulator reaches the bottleneck II there but not one frame
        // shallower: for the CNV reference the worst pair is swu2+mvtu2
        // over mvtu2's own II, giving exactly 2.
        let accel = cnv_accel();
        let sizing = size_fifos(&accel);
        let analytic = sizing.per_edge_depths.iter().copied().max().unwrap();
        assert_eq!(sizing.depth, analytic);
        let simulated = |depth| {
            crate::StreamSimulator::new(&accel, depth)
                .run(48)
                .observed_ii
        };
        assert_eq!(simulated(sizing.depth), sizing.target_ii);
        assert!(simulated(sizing.depth - 1) > sizing.target_ii);
        assert!(sizing.per_edge_depths.iter().all(|&d| d >= 1));
        assert_eq!(
            sizing.proven_frames,
            sizing.per_edge_depths.iter().sum::<usize>()
        );
        // The proven floor never exceeds the uniform allocation.
        assert!(sizing.proven_frames <= sizing.buffered_frames);
    }

    #[test]
    fn balanced_pipeline_is_fine_at_depth_one() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let cfg = FinnConfig::auto(&g).expect("auto");
        let accel =
            DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles");
        let sizing = size_fifos(&accel);
        assert!(sizing.depth <= 2);
        assert_eq!(sizing.achieved_ii, accel.initiation_interval());
    }
}
