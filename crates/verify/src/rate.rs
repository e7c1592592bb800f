//! Steady-state rate-balance analysis (`DF004`).
//!
//! A dataflow accelerator is a chain of stages (SWU, MVTU, pool, ...) that
//! each need `c_i` cycles per frame, coupled by FIFOs of finite capacity.
//! The pipeline's steady-state initiation interval is governed by the
//! max-plus recurrence the cycle-accurate stream simulator executes:
//!
//! ```text
//! t[i][f] = max(t[i-1][f],          // previous frame through this stage
//!               t[i][f-1]  + ...,   // data from upstream   (0 tokens)
//!               t[i+1][f-d]) + c_i  // space from downstream (d tokens)
//! ```
//!
//! Such a system's asymptotic growth rate is its **maximum cycle mean**:
//! self-loops contribute `c_i`, and each FIFO edge of capacity `d` closes a
//! producer/consumer cycle of weight `c_i + c_{i+1}` over `d` tokens. Any
//! longer cycle through `k` consecutive stages carries `Σc` weight over
//! `Σd` tokens, a mean dominated by its worst adjacent pair — so the exact
//! steady-state II of a chain is
//!
//! ```text
//! II = max( max_i c_i,  max_i ⌈(c_i + c_{i+1}) / d_i⌉ )
//! ```
//!
//! This module evaluates that formula in one pass over the stages and
//! edges (a depth of 0 counts as 1 here; `DF005` owns zero capacities).
//! The stream simulator in `adaflow-dataflow` is the reference it is
//! tested against.
//!
//! The dataflow crate builds [`Stage`] lists from compiled module specs
//! and feeds the verdict to rule `DF004`; `fifo.rs` inverts the pair-cycle
//! bound to size each FIFO (`required_edge_capacity` in
//! [`crate::liveness`]).

/// One pipeline stage, abstractly: a name and its cycles-per-frame cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name (module name in the accelerator).
    pub name: String,
    /// Cycles this stage needs per frame.
    pub cycles: u64,
}

impl Stage {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, cycles: u64) -> Self {
        Self {
            name: name.into(),
            cycles,
        }
    }
}

/// Per-stage verdict of the rate analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRate {
    /// Stage name.
    pub name: String,
    /// Cycles per frame.
    pub cycles: u64,
    /// Fraction of the steady-state interval this stage is busy
    /// (`cycles / steady_ii`).
    pub utilization: f64,
    /// Idle cycles per frame at steady state (`steady_ii - cycles`).
    pub slack_cycles: u64,
}

/// How unbalanced the pipeline is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchSeverity {
    /// The runner-up stage is within 2× of the bottleneck.
    Balanced,
    /// The bottleneck dominates the runner-up by 2–10×.
    Moderate,
    /// The bottleneck dominates by more than 10×: most of the pipeline
    /// idles, and re-folding should shift resources toward it.
    Severe,
}

impl std::fmt::Display for MismatchSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Balanced => "balanced",
            Self::Moderate => "moderate",
            Self::Severe => "severe",
        })
    }
}

/// Result of the steady-state rate-balance analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RateReport {
    /// Steady-state initiation interval (cycles per frame) of the chain.
    pub steady_ii: u64,
    /// Index of the bottleneck stage.
    pub bottleneck: usize,
    /// Name of the bottleneck stage.
    pub bottleneck_name: String,
    /// Whether the II is set by a FIFO pair-cycle (back-pressure) rather
    /// than a single stage's compute cost — deeper FIFOs would help.
    pub fifo_bound: bool,
    /// Per-stage utilization/slack, in pipeline order.
    pub stages: Vec<StageRate>,
    /// Bottleneck cycles over runner-up cycles (1.0 for a perfectly
    /// balanced pipeline; ∞ degenerates to the bottleneck cycles when
    /// there is a single stage).
    pub mismatch_ratio: f64,
}

impl RateReport {
    /// Classifies the mismatch ratio.
    #[must_use]
    pub fn severity(&self) -> MismatchSeverity {
        if self.mismatch_ratio < 2.0 {
            MismatchSeverity::Balanced
        } else if self.mismatch_ratio <= 10.0 {
            MismatchSeverity::Moderate
        } else {
            MismatchSeverity::Severe
        }
    }

    /// Frames per second at `clock_hz` under the steady-state II.
    #[must_use]
    pub fn throughput_fps(&self, clock_hz: f64) -> f64 {
        if self.steady_ii == 0 {
            0.0
        } else {
            clock_hz / self.steady_ii as f64
        }
    }
}

fn pair_bound(a: u64, b: u64, depth: usize) -> u64 {
    let d = depth.max(1) as u64;
    (a + b).div_ceil(d)
}

/// The steady-state II of a chain of `stages` coupled by FIFOs of per-edge
/// capacity `depths` (`depths.len() == stages.len() - 1`; an empty chain or
/// single stage needs no FIFOs):
/// `max(max_i c_i, max_i ⌈(c_i + c_{i+1}) / d_i⌉)`.
///
/// # Panics
///
/// Panics if `depths.len() + 1 != stages.len()` for a non-empty chain.
#[must_use]
pub fn rate_balance(stages: &[Stage], depths: &[usize]) -> RateReport {
    assert!(
        stages.is_empty() || depths.len() + 1 == stages.len(),
        "need exactly one FIFO depth per adjacent stage pair ({} stages, {} depths)",
        stages.len(),
        depths.len(),
    );
    let pairs = stages
        .windows(2)
        .zip(depths)
        .map(|(pair, &d)| pair_bound(pair[0].cycles, pair[1].cycles, d));
    let steady_ii = stages
        .iter()
        .map(|s| s.cycles)
        .chain(pairs)
        .max()
        .unwrap_or(0);
    let bottleneck = stages
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.cycles)
        .map_or(0, |(i, _)| i);
    let runner_up = stages
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != bottleneck)
        .map(|(_, s)| s.cycles)
        .max();
    let bottleneck_cycles = stages.get(bottleneck).map_or(0, |s| s.cycles);
    let mismatch_ratio = match runner_up {
        Some(r) if r > 0 => bottleneck_cycles as f64 / r as f64,
        _ => bottleneck_cycles as f64,
    };
    RateReport {
        steady_ii,
        bottleneck,
        bottleneck_name: stages
            .get(bottleneck)
            .map_or_else(String::new, |s| s.name.clone()),
        fifo_bound: steady_ii > bottleneck_cycles,
        stages: stages
            .iter()
            .map(|s| StageRate {
                name: s.name.clone(),
                cycles: s.cycles,
                utilization: if steady_ii == 0 {
                    0.0
                } else {
                    s.cycles as f64 / steady_ii as f64
                },
                slack_cycles: steady_ii.saturating_sub(s.cycles),
            })
            .collect(),
        mismatch_ratio,
    }
}

/// [`rate_balance`] with one uniform FIFO depth on every edge.
#[must_use]
pub fn rate_balance_uniform(stages: &[Stage], depth: usize) -> RateReport {
    let edges = stages.len().saturating_sub(1);
    rate_balance(stages, &vec![depth; edges])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(cycles: &[u64]) -> Vec<Stage> {
        cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| Stage::new(format!("s{i}"), c))
            .collect()
    }

    // The closed form must reproduce the stream simulator's measured
    // steady-state IIs (see adaflow-dataflow stream.rs tests): [5,40,5] at
    // depth 1 → 45, at depth 2 → 40; [1,1,100] at depth 1 → 101;
    // [10,10,10] at depth 1 → 20.
    #[test]
    fn matches_simulator_reference_points() {
        assert_eq!(rate_balance_uniform(&stages(&[5, 40, 5]), 1).steady_ii, 45);
        assert_eq!(rate_balance_uniform(&stages(&[5, 40, 5]), 2).steady_ii, 40);
        assert_eq!(
            rate_balance_uniform(&stages(&[1, 1, 100]), 1).steady_ii,
            101
        );
        assert_eq!(
            rate_balance_uniform(&stages(&[10, 10, 10]), 1).steady_ii,
            20
        );
    }

    #[test]
    fn deep_fifos_recover_the_compute_bound() {
        let s = stages(&[10, 10, 10]);
        let r = rate_balance_uniform(&s, 4);
        assert_eq!(r.steady_ii, 10, "depth 4 kills every pair cycle");
        assert!(!r.fifo_bound);
    }

    #[test]
    fn fifo_bound_flag_set_when_backpressure_dominates() {
        let r = rate_balance_uniform(&stages(&[10, 10, 10]), 1);
        assert_eq!(r.steady_ii, 20);
        assert!(r.fifo_bound);
    }

    #[test]
    fn bottleneck_and_utilization() {
        let r = rate_balance_uniform(&stages(&[5, 40, 5]), 2);
        assert_eq!(r.bottleneck, 1);
        assert_eq!(r.bottleneck_name, "s1");
        assert!((r.stages[1].utilization - 1.0).abs() < 1e-12);
        assert!((r.stages[0].utilization - 0.125).abs() < 1e-12);
        assert_eq!(r.stages[0].slack_cycles, 35);
        assert!((r.mismatch_ratio - 8.0).abs() < 1e-12);
        assert_eq!(r.severity(), MismatchSeverity::Moderate);
    }

    #[test]
    fn severity_classification_boundaries() {
        let balanced = rate_balance_uniform(&stages(&[10, 11, 10]), 4);
        assert_eq!(balanced.severity(), MismatchSeverity::Balanced);
        let severe = rate_balance_uniform(&stages(&[1, 100]), 4);
        assert_eq!(severe.severity(), MismatchSeverity::Severe);
    }

    #[test]
    fn per_edge_depths_bind_individually() {
        // Edge 0 deep, edge 1 shallow: only the second pair cycle binds.
        let r = rate_balance(&stages(&[10, 10, 10]), &[4, 1]);
        assert_eq!(r.steady_ii, 20);
        let r = rate_balance(&stages(&[10, 10, 10]), &[1, 4]);
        assert_eq!(r.steady_ii, 20);
        let r = rate_balance(&stages(&[10, 10, 10]), &[2, 2]);
        assert_eq!(r.steady_ii, 10);
    }

    #[test]
    fn single_stage_and_empty_chains() {
        let r = rate_balance(&stages(&[7]), &[]);
        assert_eq!(r.steady_ii, 7);
        assert_eq!(r.mismatch_ratio, 7.0);
        let r = rate_balance(&[], &[]);
        assert_eq!(r.steady_ii, 0);
        assert!(r.stages.is_empty());
    }

    #[test]
    fn throughput_follows_ii() {
        let r = rate_balance_uniform(&stages(&[100]), 1);
        assert!((r.throughput_fps(1.0e8) - 1.0e6).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one FIFO depth per adjacent stage pair")]
    fn mismatched_depths_rejected() {
        let _ = rate_balance(&stages(&[1, 2, 3]), &[1]);
    }
}
