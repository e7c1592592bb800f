//! FIFO deadlock-freedom analysis (`DF005`).
//!
//! A streaming accelerator with bounded FIFOs is a **timed marked graph**:
//! modules are transitions, FIFOs are places, and a FIFO of capacity `d`
//! from producer `p` to consumer `c` contributes two edges — a *data* edge
//! `p → c` carrying 0 initial tokens (nothing buffered at reset) and a
//! *space* edge `c → p` carrying `d` tokens (all slots free at reset).
//!
//! The classic liveness theorem for marked graphs (Commoner/Murata): the
//! system is deadlock-free **iff every directed cycle carries at least one
//! initial token**. Token counts on a cycle are invariant under firing, so
//! a zero-token cycle can never fire any of its transitions.
//!
//! On a chain the data edges all point downstream, so every directed cycle
//! must use a space edge, and the shortest ones are the producer/consumer
//! pairs `i → i+1 → i`. Such a pair carries exactly `d_i` tokens, and any
//! longer cycle contains one. Hence a chain deadlocks **iff some capacity is
//! 0**; [`chain_liveness`] reports the lowest such edge as the blocked pair,
//! with a token trace at `t = 0` showing each module waiting on the other.
//! `DF003`'s FIFO sizing consumes [`required_edge_capacity`], the inverse of
//! the rate analysis' pair-cycle bound, so "the sizing heuristic" and "the
//! proof obligation" are the same arithmetic.

use crate::rate::Stage;

/// Outcome of the deadlock-freedom analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Liveness {
    /// Every directed cycle carries at least one token: no reachable
    /// marking deadlocks.
    Live {
        /// Smallest token count over any FIFO (the tightest margin).
        min_capacity: usize,
        /// Number of zero-token edges at reset: the chain's data edges.
        zero_token_edges: usize,
    },
    /// A zero-token cycle exists: the modules on it block each other
    /// forever from reset.
    Deadlock {
        /// Node indices around the unmarked cycle, in blocking order.
        cycle: Vec<usize>,
        /// Concrete counterexample: one line per blocked module at `t = 0`.
        trace: Vec<String>,
    },
}

/// Checks deadlock-freedom of a linear pipeline: `stages[i]` feeds
/// `stages[i+1]` through a FIFO of capacity `capacities[i]`.
///
/// # Panics
///
/// Panics if `capacities.len() + 1 != stages.len()` for a non-empty chain.
#[must_use]
pub fn chain_liveness(stages: &[Stage], capacities: &[usize]) -> Liveness {
    assert!(
        stages.is_empty() || capacities.len() + 1 == stages.len(),
        "need exactly one capacity per adjacent stage pair"
    );
    let Some(i) = capacities.iter().position(|&c| c == 0) else {
        return Liveness::Live {
            min_capacity: capacities.iter().copied().min().unwrap_or(usize::MAX),
            zero_token_edges: capacities.len(),
        };
    };
    let (up, down) = (&stages[i].name, &stages[i + 1].name);
    let trace = vec![
        "t=0: no module on the cycle can ever fire — every edge below holds 0 tokens \
         and firing preserves cycle token counts (2 modules involved)"
            .to_string(),
        format!(
            "t=0: '{down}' is blocked: its input FIFO from '{up}' is empty \
             (0 tokens buffered) and '{up}' never produces"
        ),
        format!(
            "t=0: '{up}' is blocked: its output FIFO toward '{down}' has capacity 0 \
             (no free slot) and '{down}' never consumes"
        ),
    ];
    Liveness::Deadlock {
        cycle: vec![i, i + 1],
        trace,
    }
}

/// Minimal FIFO capacity on the edge between two adjacent stages that keeps
/// the pair cycle's mean at or below `target_ii`:
/// `d = max(1, ⌈(c_up + c_down) / target_ii⌉)`. The inverse of the rate
/// analysis' pair-cycle bound — with this capacity on every edge, the
/// steady-state II is exactly `max_i c_i`.
#[must_use]
pub fn required_edge_capacity(c_up: u64, c_down: u64, target_ii: u64) -> usize {
    if target_ii == 0 {
        return 1;
    }
    ((c_up + c_down).div_ceil(target_ii) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(cycles: &[u64], caps: &[usize]) -> Liveness {
        let stages: Vec<Stage> = cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| Stage::new(format!("m{i}"), c))
            .collect();
        chain_liveness(&stages, caps)
    }

    #[test]
    fn positive_capacities_are_live() {
        match chain(&[5, 40, 5], &[1, 1]) {
            Liveness::Live {
                min_capacity,
                zero_token_edges,
            } => {
                assert_eq!(min_capacity, 1);
                assert_eq!(zero_token_edges, 2, "only the data edges are unmarked");
            }
            Liveness::Deadlock { trace, .. } => panic!("spurious deadlock: {trace:?}"),
        }
    }

    #[test]
    fn zero_capacity_fifo_deadlocks_with_trace() {
        match chain(&[5, 40, 5], &[1, 0]) {
            Liveness::Deadlock { cycle, trace } => {
                assert_eq!(cycle.len(), 2, "producer/consumer two-cycle");
                assert!(cycle.contains(&1) && cycle.contains(&2));
                // The trace names both directions of the block.
                let joined = trace.join("\n");
                assert!(joined.contains("m1"), "{joined}");
                assert!(joined.contains("m2"), "{joined}");
                assert!(joined.contains("capacity 0"), "{joined}");
                assert!(joined.contains("empty"), "{joined}");
            }
            Liveness::Live { .. } => panic!("capacity-0 FIFO must deadlock"),
        }
    }

    #[test]
    fn single_module_has_no_cycles() {
        assert!(matches!(chain(&[7], &[]), Liveness::Live { .. }));
    }

    #[test]
    fn required_capacity_inverts_pair_bound() {
        // CNV's worst adjacent pair: swu2 (56448) + mvtu2 (225792) against
        // the 225792-cycle bottleneck → depth 2.
        assert_eq!(required_edge_capacity(56_448, 225_792, 225_792), 2);
        // Balanced tiny pairs need the minimum useful depth... which still
        // costs II = 2·c at depth 1 (pair bound), proven by rate analysis.
        assert_eq!(required_edge_capacity(10, 10, 20), 1);
        assert_eq!(required_edge_capacity(10, 10, 10), 2);
        assert_eq!(required_edge_capacity(5, 40, 40), 2);
        assert_eq!(required_edge_capacity(0, 0, 7), 1);
        assert_eq!(required_edge_capacity(3, 4, 0), 1);
    }
}
