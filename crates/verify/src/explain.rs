//! The rule-documentation registry behind `lint --explain <CODE>`.
//!
//! Every diagnostic code any validator in the workspace can emit — the
//! graph rules (`AF…`) in this crate, the dataflow rules (`DF…`) in
//! `adaflow-dataflow`, the serving rules (`SV…`) in `adaflow-serve` and the
//! fleet rules (`FL…`) in `adaflow-fleet` — has one [`RuleDoc`] entry here:
//! a summary, the severity range it emits, the paper provenance that
//! motivates it, and a worked example fix. The registry lives in this crate
//! (the bottom of the verification dependency order) so the CLI can resolve
//! any code without linking rule implementations; the higher crates' rules
//! are registered by code string, and each owning crate carries a test that
//! its emitted codes resolve here.

/// Catalog entry of one diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleDoc {
    /// Stable code (`"AF006"`).
    pub code: &'static str,
    /// One-line invariant statement.
    pub summary: &'static str,
    /// The severities the rule emits, worst first (`"Error | Info"`).
    pub severities: &'static str,
    /// Where the invariant comes from in the literature.
    pub provenance: &'static str,
    /// A concrete example of fixing a violation.
    pub example_fix: &'static str,
}

/// All registered rule docs, in code order.
#[must_use]
pub fn rule_docs() -> &'static [RuleDoc] {
    DOCS
}

/// Looks up one code (case-insensitive).
#[must_use]
pub fn explain(code: &str) -> Option<&'static RuleDoc> {
    DOCS.iter().find(|d| d.code.eq_ignore_ascii_case(code))
}

static DOCS: &[RuleDoc] = &[
    RuleDoc {
        code: "AF001",
        summary: "declared layer shapes match whole-graph shape re-inference",
        severities: "Error",
        provenance: "FINN's compiler re-derives every inter-layer tensor shape before HLS \
                     generation (Umuroglu et al., FPGA'17); a stale declared shape desyncs \
                     folding and stream widths downstream",
        example_fix: "rebuild the graph through GraphBuilder (CnnGraph::from_layers) instead \
                      of editing node shapes in place",
    },
    RuleDoc {
        code: "AF002",
        summary: "weight tensor geometry matches declared layer parameters",
        severities: "Error",
        provenance: "pruning transforms must shrink weights and declared dims together \
                     (Li et al., ICLR'17); a mismatch silently mis-indexes the MVTU weight \
                     memory",
        example_fix: "after ConvWeights::without_filters, update Conv2d::out_channels to the \
                      surviving filter count",
    },
    RuleDoc {
        code: "AF003",
        summary: "all weights lie in the layer's quantized weight domain",
        severities: "Error | Warn",
        provenance: "Brevitas narrow-range signed quantizers (W1 = {-1,+1} excluding zero); \
                     out-of-domain magnitudes break the bitplane decomposition the packed \
                     MVTU kernels rely on",
        example_fix: "re-quantize with QuantizedDomain::clamp, or widen the declared \
                      weight_bits to cover the stored values",
    },
    RuleDoc {
        code: "AF004",
        summary: "per-channel threshold rows are monotonically ascending",
        severities: "Error",
        provenance: "FINN folds batch-norm + activation into a monotone threshold list; the \
                     MVTU counts a met-threshold prefix, so an unsorted row mis-activates \
                     silently",
        example_fix: "construct tables via ThresholdTable::from_rows, which rejects unsorted \
                      rows; sort each channel's thresholds ascending",
    },
    RuleDoc {
        code: "AF005",
        summary: "threshold tables cover the producer MVTU's activation domain",
        severities: "Error | Warn",
        provenance: "a 2-bit activation needs exactly 2^bits - 1 = 3 levels (FINN \
                     MultiThreshold semantics); missing levels truncate the activation \
                     domain, dead levels waste comparators",
        example_fix: "rebuild the table with quant.threshold_levels() levels per channel, \
                      calibrated inside the producer's accumulator range",
    },
    RuleDoc {
        code: "AF006",
        summary: "i32 accumulators provably cannot overflow (fan-in × max|w| × max|a|)",
        severities: "Error | Warn | Info",
        provenance: "FINN sizes MVTU accumulators from fan-in and quantized domains before \
                     synthesis ('On the RTL Implementation of FINN Matrix Vector Compute \
                     Unit'); the bound holds for any retraining under the spec",
        example_fix: "reduce fan-in (prune input channels) or narrow weight/activation bit \
                      widths; an Error demoted to Warn means AF010 proved the current \
                      weights safe",
    },
    RuleDoc {
        code: "AF007",
        summary: "pruned channel counts propagate to thresholds and downstream layers",
        severities: "Error",
        provenance: "AdaFlow attaches per-layer channel counts to the model description at \
                     prune time (paper §IV-A2); a missed consumer update corrupts every \
                     downstream activation",
        example_fix: "propagate filter removal with ConvWeights::without_input_channels, \
                      ThresholdTable::without_channels and \
                      DenseWeights::without_input_features",
    },
    RuleDoc {
        code: "AF008",
        summary: "accumulator/activation alternation is executable by the MVTU dataflow",
        severities: "Error | Warn",
        provenance: "the FINN dataflow streams quantized activations between MVTUs; raw \
                     accumulators must be re-quantized by a MultiThreshold before pooling \
                     or the next MVTU",
        example_fix: "insert a MultiThreshold after each non-classifier MVTU; end the graph \
                      in a LabelSelect over classifier accumulators",
    },
    RuleDoc {
        code: "AF009",
        summary: "MVTU domains fit the packed popcount-kernel contract (≤2-bit weights and \
                  activations)",
        severities: "Warn | Info",
        provenance: "XNOR/AND-popcount MVTU datapaths (FINN, Umuroglu et al., FPGA'17) only \
                     represent {-1,0,+1} weights and ≤2 activation bitplanes; ineligible \
                     layers silently run the byte-window MVTU",
        example_fix: "recalibrate the upstream threshold table to ≤3 levels (or fix stored \
                      weights to ±1) so the packed kernels engage",
    },
    RuleDoc {
        code: "AF010",
        summary: "exact fixed-point accumulator intervals fit i32 (minimal width + spare \
                  bits)",
        severities: "Error | Warn | Info",
        provenance: "abstract interpretation over per-channel value intervals — the precise \
                     counterpart of AF006's domain bound, mirroring the accumulator-width \
                     minimization hardware toolflows run before synthesis (Venieris et al., \
                     'Toolflows for Mapping CNNs on FPGAs')",
        example_fix: "an Error here is a reachable overflow: re-quantize or prune the \
                      offending layer's fan-in; Info findings report spare bits available \
                      for narrower accumulators",
    },
    RuleDoc {
        code: "AF011",
        summary: "threshold levels are reachable and no channel's activation is constant",
        severities: "Warn | Info",
        provenance: "interval analysis of the incoming accumulator range: levels outside it \
                     never discriminate (wasted comparators/codes), and a channel whose \
                     whole range sits between two levels emits a constant — dead hardware \
                     (cf. dead-code elimination via abstract interpretation)",
        example_fix: "re-calibrate thresholds into the reachable accumulator range, or prune \
                      dead channels before synthesis",
    },
    RuleDoc {
        code: "DF001",
        summary: "folding PE/SIMD divide each MVTU's neuron/channel counts",
        severities: "Error",
        provenance: "FINN's no-idle-lanes folding constraint: PE must divide rows, SIMD must \
                     divide columns, or lanes idle every cycle (FINN §IV)",
        example_fix: "pick PE from the divisors of the filter count and SIMD from the \
                      divisors of k²·ch_in (FinnConfig::auto does this)",
    },
    RuleDoc {
        code: "DF002",
        summary: "SWU stream widths match their consumer MVTU's SIMD and column geometry",
        severities: "Error | Warn",
        provenance: "the sliding-window unit feeds the MVTU a k²·ch_in-column window at SIMD \
                     lanes per cycle; any width mismatch stalls or corrupts the stream \
                     (FINN dataflow architecture)",
        example_fix: "compile SWUs from the consumer MVTU's folding (SWU simd = MVTU simd) \
                      rather than configuring them independently",
    },
    RuleDoc {
        code: "DF003",
        summary: "FIFO capacities sustain the bottleneck initiation interval",
        severities: "Error | Warn | Info",
        provenance: "inter-module FIFOs absorb rate mismatch; the required capacity per edge \
                     is the pair-cycle bound ⌈(c_up + c_down)/II⌉ from max-plus analysis of \
                     the stream graph (cf. FINN's FIFO sizing pass)",
        example_fix: "use the DF005-proven per-edge capacities; a Warn means the uniform \
                      heuristic over-allocates >2× the proven-safe total",
    },
    RuleDoc {
        code: "DF004",
        summary: "steady-state stage rates balance; the bottleneck and mismatch severity \
                  are reported",
        severities: "Info",
        provenance: "dataflow pipelines run at the maximum cycle mean of their event graph \
                     (max-plus spectral theory); AdaFlow's folding search targets balanced \
                     stage IIs (paper §IV-B)",
        example_fix: "re-fold toward the bottleneck: raise its PE·SIMD product (or lower \
                      everyone else's) until utilizations converge",
    },
    RuleDoc {
        code: "DF005",
        summary: "FIFO capacities admit a deadlock-free schedule (no zero-token cycle)",
        severities: "Error | Info",
        provenance: "marked-graph liveness (Commoner/Murata): a streaming pipeline \
                     deadlocks iff some directed cycle of its data/space edges carries no \
                     initial token; the counterexample is the blocked cycle's token trace",
        example_fix: "give every FIFO capacity ≥ 1; for throughput, use the pair-cycle \
                      bound ⌈(c_up + c_down)/II⌉ per edge",
    },
    RuleDoc {
        code: "FL001",
        summary: "the fleet has at least one device and a usable drain budget",
        severities: "Error",
        provenance: "staggered fleet reconfiguration (AdaFlow multi-device serving) drains \
                     one device at a time; zero devices or a zero drain budget makes the \
                     rollout vacuous or unbounded",
        example_fix: "register at least one device and set a positive drain budget before \
                      starting a rollout",
    },
    RuleDoc {
        code: "FL002",
        summary: "the router matches the deadline discipline it is asked to serve",
        severities: "Error | Warn",
        provenance: "deadline-aware routing needs a deadline budget to rank by; conversely \
                     round-robin under deadlines ignores slack and misses SLOs under skew",
        example_fix: "pair the deadline-aware router with a deadline budget, or switch to \
                      round-robin when no deadline is configured",
    },
    RuleDoc {
        code: "SV001",
        summary: "the batcher can close a batch (max-batch ≥ 1) and its max-wait fits inside \
                  the deadline budget",
        severities: "Error | Warn",
        provenance: "a request queued for up to max-wait still needs service time before \
                     its deadline; SLO-aware serving requires wait + service ≤ deadline \
                     (cf. clockwork-style serving budgets)",
        example_fix: "lower batch max-wait below deadline − p99 service time, or relax the \
                      deadline; set max-batch to at least 1",
    },
    RuleDoc {
        code: "SV002",
        summary: "queue capacity covers the worst-case reconfiguration backlog",
        severities: "Error | Warn",
        provenance: "during an FPGA reconfiguration stall (AdaFlow model switch, paper \
                     §IV-C) arrivals keep queuing; the queue must absorb \
                     arrival_rate × stall without dropping",
        example_fix: "raise queue capacity above arrival_rate × worst reconfiguration time, \
                      or shorten reconfigurations (partial bitstreams)",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_graph_rule_code_has_a_doc() {
        for &(code, _) in crate::rules::RULES {
            assert!(explain(code).is_some(), "no doc for {code}");
        }
    }

    #[test]
    fn docs_are_sorted_and_unique() {
        let codes: Vec<&str> = rule_docs().iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "docs must be unique and in code order");
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(explain("af006").is_some());
        assert!(explain("Df005").is_some());
        assert!(explain("ZZ999").is_none());
    }

    #[test]
    fn all_doc_fields_are_filled() {
        for d in rule_docs() {
            assert!(!d.summary.is_empty(), "{}", d.code);
            assert!(!d.severities.is_empty(), "{}", d.code);
            assert!(!d.provenance.is_empty(), "{}", d.code);
            assert!(!d.example_fix.is_empty(), "{}", d.code);
        }
    }
}
