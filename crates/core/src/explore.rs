//! Folding design-space exploration.
//!
//! The FINN configuration file (PE/SIMD per MVTU) is a user input in the
//! paper; in practice it is itself the product of a design-space search.
//! [`FoldingExplorer`] automates that step: starting from minimal folding
//! (PE = SIMD = 1 everywhere), it greedily parallelizes the current
//! bottleneck MVTU — the move with the best throughput return — until the
//! throughput target is met or the device budget is exhausted, exactly the
//! balance-the-pipeline heuristic FINN's folding guides describe.
//!
//! The result is a [`FinnConfig`] ready for the Library Generator, plus the
//! explored accelerator's synthesis report.

use crate::error::AdaFlowError;
use adaflow_dataflow::{AcceleratorKind, DataflowAccelerator};
use adaflow_hls::{estimate_accelerator, FpgaDevice, ResourceEstimate};
use adaflow_model::{CnnGraph, Layer, LayerId};
use adaflow_pruning::{FinnConfig, Folding};
use serde::{Deserialize, Serialize};

/// Exploration goal and budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationGoal {
    /// Stop once steady-state throughput reaches this (frames per second).
    pub target_fps: f64,
    /// Resource budget; folding moves that would exceed this fraction of
    /// the device are rejected.
    pub device: FpgaDevice,
    /// Maximum fraction of each device resource to spend (e.g. `0.7`).
    pub utilization_cap: f64,
}

impl ExplorationGoal {
    fn fits(&self, res: &ResourceEstimate) -> bool {
        let cap = |used: u64, avail: u64| used as f64 <= avail as f64 * self.utilization_cap;
        cap(res.lut, self.device.lut)
            && cap(res.ff, self.device.ff)
            && cap(res.bram36, self.device.bram36)
            && cap(res.dsp, self.device.dsp.max(1))
    }
}

/// Result of a folding exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorationResult {
    /// The chosen folding.
    pub folding: FinnConfig,
    /// Steady-state throughput of the explored accelerator.
    pub throughput_fps: f64,
    /// Resources of the explored accelerator.
    pub resources: ResourceEstimate,
    /// Whether the throughput target was reached within budget.
    pub target_met: bool,
    /// Number of folding moves taken.
    pub moves: usize,
}

/// Greedy bottleneck-driven folding search.
#[derive(Debug, Clone)]
pub struct FoldingExplorer {
    goal: ExplorationGoal,
}

impl FoldingExplorer {
    /// Creates an explorer for a goal.
    #[must_use]
    pub fn new(goal: ExplorationGoal) -> Self {
        Self { goal }
    }

    /// Explores a folding for `graph`.
    ///
    /// # Errors
    ///
    /// Propagates compilation/estimation failures; returns
    /// [`AdaFlowError::Library`] when even minimal folding exceeds budget.
    pub fn explore(&self, graph: &CnnGraph) -> Result<ExplorationResult, AdaFlowError> {
        // Per-MVTU capability: (layer id, max PE, max SIMD).
        let mvtus: Vec<(LayerId, usize, usize)> = graph
            .iter()
            .filter_map(|n| match &n.layer {
                Layer::Conv2d(c) => Some((n.id, c.out_channels, c.in_channels)),
                Layer::Dense(d) => Some((n.id, d.out_features, d.in_features)),
                _ => None,
            })
            .collect();
        // Start minimal.
        let mut folds: Vec<Folding> = mvtus.iter().map(|_| Folding::new(1, 1)).collect();

        let evaluate = |folds: &[Folding]| -> Result<(f64, ResourceEstimate), AdaFlowError> {
            let config = FinnConfig::new(graph, folds.to_vec())?;
            let accel = DataflowAccelerator::compile(graph, &config, AcceleratorKind::Finn)?;
            let res = estimate_accelerator(&accel)?;
            Ok((accel.throughput_fps(), res))
        };

        let (mut fps, mut res) = evaluate(&folds)?;
        if !self.goal.fits(&res) {
            return Err(AdaFlowError::Library(
                "minimal folding already exceeds the device budget".into(),
            ));
        }

        let mut moves = 0usize;
        // Bounded by the total log-space of folding factors.
        for _ in 0..256 {
            if fps >= self.goal.target_fps {
                break;
            }
            // Find the bottleneck MVTU and try to double its PE or SIMD
            // (whichever divides evenly and survives the budget).
            let config = FinnConfig::new(graph, folds.clone())?;
            let accel = DataflowAccelerator::compile(graph, &config, AcceleratorKind::Finn)?;
            let bottleneck = accel
                .modules()
                .iter()
                .max_by_key(|m| m.cycles_per_frame())
                .expect("accelerators have modules")
                .name
                .clone();
            // Map the bottleneck module back to its MVTU index.
            let Some(idx) = mvtus.iter().position(|(id, _, _)| {
                let name = &graph.nodes()[id.0].name;
                bottleneck.starts_with(name.as_str())
            }) else {
                break; // bottleneck is a pool/SWU stage: folding cannot help
            };

            let (_, max_pe, max_simd) = mvtus[idx];
            let mut improved = false;
            // SIMD first: widening the input lanes is BRAM-neutral, while
            // raising PE multiplies the weight-memory partition count.
            for grow_pe in [false, true] {
                let mut candidate = folds.clone();
                let f = &mut candidate[idx];
                let next = if grow_pe {
                    next_divisor(f.pe, max_pe)
                } else {
                    next_divisor(f.simd, max_simd)
                };
                let Some(next) = next else { continue };
                if grow_pe {
                    f.pe = next;
                } else {
                    f.simd = next;
                }
                let (new_fps, new_res) = evaluate(&candidate)?;
                if self.goal.fits(&new_res) && new_fps >= fps {
                    folds = candidate;
                    fps = new_fps;
                    res = new_res;
                    moves += 1;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break; // bottleneck cannot be parallelized further
            }
        }

        Ok(ExplorationResult {
            folding: FinnConfig::new(graph, folds)?,
            throughput_fps: fps,
            resources: res,
            target_met: fps >= self.goal.target_fps,
            moves,
        })
    }
}

/// Smallest divisor of `max` strictly greater than `current`, if any.
fn next_divisor(current: usize, max: usize) -> Option<usize> {
    (current + 1..=max).find(|&d| max.is_multiple_of(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;

    /// The Edge setting: `target_fps` on a ZCU104 using at most 70 % of the
    /// fabric.
    fn edge_goal(target_fps: f64) -> ExplorationGoal {
        ExplorationGoal {
            target_fps,
            device: FpgaDevice::zcu104(),
            utilization_cap: 0.7,
        }
    }

    #[test]
    fn next_divisor_steps_through_divisors() {
        assert_eq!(next_divisor(1, 3), Some(3));
        assert_eq!(next_divisor(3, 3), None);
        assert_eq!(next_divisor(4, 64), Some(8));
        assert_eq!(next_divisor(1, 27), Some(3));
    }

    #[test]
    fn explorer_reaches_edge_target_on_cnv() {
        let graph = topology::cnv_w2a2_cifar10().expect("builds");
        let result = FoldingExplorer::new(edge_goal(600.0))
            .explore(&graph)
            .expect("explores");
        assert!(
            result.target_met,
            "reached only {:.0} FPS",
            result.throughput_fps
        );
        assert!(result.throughput_fps >= 600.0);
        assert!(result.moves > 0);
        // Budget respected.
        let dev = FpgaDevice::zcu104();
        assert!(result.resources.lut as f64 <= dev.lut as f64 * 0.7);
        assert!(result.resources.bram36 as f64 <= dev.bram36 as f64 * 0.7);
    }

    #[test]
    fn explored_folding_is_valid_and_usable() {
        let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let goal = ExplorationGoal {
            target_fps: 10_000.0,
            device: FpgaDevice::z7020(),
            utilization_cap: 0.8,
        };
        let result = FoldingExplorer::new(goal)
            .explore(&graph)
            .expect("explores");
        assert!(result.folding.validate(&graph).is_ok());
        // The folding compiles into every accelerator family.
        for kind in [
            AcceleratorKind::Finn,
            AcceleratorKind::FixedPruning,
            AcceleratorKind::FlexiblePruning,
        ] {
            assert!(DataflowAccelerator::compile(&graph, &result.folding, kind).is_ok());
        }
    }

    #[test]
    fn unreachable_target_reported_honestly() {
        let graph = topology::cnv_w2a2_cifar10().expect("builds");
        let goal = ExplorationGoal {
            target_fps: 1e9, // absurd
            device: FpgaDevice::zcu104(),
            utilization_cap: 0.7,
        };
        let result = FoldingExplorer::new(goal)
            .explore(&graph)
            .expect("explores");
        assert!(!result.target_met);
        assert!(result.throughput_fps < 1e9);
    }

    #[test]
    fn higher_target_spends_more_resources() {
        let graph = topology::cnv_w2a2_cifar10().expect("builds");
        let explore_at = |fps: f64| {
            FoldingExplorer::new(edge_goal(fps))
                .explore(&graph)
                .expect("explores")
        };
        let low = explore_at(50.0);
        let high = explore_at(600.0);
        assert!(high.resources.lut >= low.resources.lut);
        assert!(high.throughput_fps >= low.throughput_fps);
    }
}
