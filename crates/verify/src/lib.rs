//! # adaflow-verify
//!
//! Whole-graph static verifier for AdaFlow CNN graphs: a rule-based
//! analyzer that re-derives and cross-checks the structural invariants the
//! rest of the stack depends on — shape inference, quantization
//! consistency, worst-case accumulator bounds, pruning propagation and
//! dataflow executability — and reports findings through a structured
//! diagnostics engine.
//!
//! FINN performs exactly this kind of analysis before HLS generation
//! (accumulator sizing from fan-in and quantized domains, threshold-domain
//! coverage); here it is packaged as a lint pass so that every pruning or
//! performance transform in the workspace can be checked, and so the CLI
//! can lint any topology:
//!
//! ```text
//! adaflow_cli lint --model cnv-w2a2 --rates 0,0.25,0.5
//! ```
//!
//! The graph rules are `AF001`–`AF011`: one code-ordered table of private
//! functions that [`Verifier::verify`] runs in a single pass over facts it
//! computes once per graph (MVTU domains, AF006 domain bounds, the exact
//! interval analysis); each code's summary lives in [`explain`]. The
//! dataflow-level rules `DF001`–`DF005` live in `adaflow-dataflow::verify`
//! because they need the folding configuration and compiled accelerator,
//! which sit above this crate in the dependency order. Both share the
//! [`Diagnostics`] engine defined here.
//!
//! Beyond the structural rules, the crate carries three deeper analyses
//! (DESIGN.md §13). Every graph and every accelerator pipeline here is a
//! linear chain, so each is one straight pass in closed form: exact
//! per-channel value intervals and minimal accumulator widths
//! ([`interval`], rules `AF010`/`AF011`; one forward fold of the layer
//! transfer functions), the steady-state initiation interval of a module
//! chain ([`rate`], consumed by `DF004`; `max(max c_i, max ⌈(c_i +
//! c_{i+1}) / d_i⌉)`), and FIFO deadlock-freedom ([`liveness`], consumed by
//! `DF005`; a chain deadlocks iff some FIFO capacity is 0). The
//! [`explain`] module documents every code any workspace validator emits,
//! backing the CLI's `lint --explain`.
//!
//! ```
//! use adaflow_model::prelude::*;
//! use adaflow_verify::verify_graph;
//!
//! let graph = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
//! let report = verify_graph(&graph);
//! assert!(!report.has_errors());
//! // AF006 reports the accumulator margin of every MVTU layer.
//! assert!(report.fired("AF006"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod diag;
pub mod explain;
pub mod interval;
pub mod liveness;
pub mod rate;
mod rules;

pub use accumulator::{accumulator_bounds, AccumulatorBound, INPUT_ACT_MAX};
pub use diag::{Diagnostic, Diagnostics, LintConfig, Report, Severity};
pub use explain::{explain, rule_docs, RuleDoc};
pub use interval::{interval_analysis, Interval, IntervalAnalysis, MvtuInterval};
pub use liveness::{chain_liveness, required_edge_capacity, Liveness};
pub use rate::{rate_balance, rate_balance_uniform, MismatchSeverity, RateReport, Stage};

use adaflow_model::CnnGraph;

/// A configured verification pass: the graph rule table under a lint
/// policy.
#[derive(Default)]
pub struct Verifier {
    config: LintConfig,
}

impl Verifier {
    /// A verifier with the full rule table and a neutral policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the allow/deny policy applied while collecting diagnostics.
    #[must_use]
    pub fn with_config(mut self, config: LintConfig) -> Self {
        self.config = config;
        self
    }

    /// `(code, invariant)` pairs of the graph rules, in code order, for
    /// `--explain` output and documentation. The summaries are the
    /// [`explain`] registry's.
    #[must_use]
    pub fn catalog(&self) -> Vec<(&'static str, &'static str)> {
        rules::RULES
            .iter()
            .map(|&(code, _)| (code, explain(code).map_or("", |d| d.summary)))
            .collect()
    }

    /// Runs every rule over `graph` and returns the combined report.
    ///
    /// The graph's facts — MVTU domains, AF006 domain bounds and the exact
    /// interval analysis built on them — are computed here, once, and every
    /// rule reads the same copy.
    #[must_use]
    pub fn verify(&self, graph: &CnnGraph) -> Report {
        let domains = adaflow_model::mvtu_domains(graph);
        let bounds = accumulator::bounds_from(graph, &domains);
        let intervals = interval::analyse(graph, &bounds);
        let facts = rules::Facts {
            graph,
            domains,
            bounds,
            intervals,
        };
        let mut diag = Diagnostics::with_config(self.config.clone());
        for &(code, check) in rules::RULES {
            check(code, &facts, &mut diag);
        }
        diag.into_report(graph.name())
    }
}

/// Verifies `graph` with the default catalog and neutral policy.
#[must_use]
pub fn verify_graph(graph: &CnnGraph) -> Report {
    Verifier::new().verify(graph)
}

/// Debug-build guard: panics if `graph` fails verification. Call sites in
/// `adaflow-nn` and `adaflow-pruning` invoke this behind
/// `cfg(debug_assertions)` so release binaries pay nothing.
///
/// # Panics
///
/// Panics with the full report when the graph has any error-severity
/// finding.
pub fn debug_assert_verified(graph: &CnnGraph, context: &str) {
    let report = verify_graph(graph);
    assert!(
        !report.has_errors(),
        "graph verification failed at {context}:\n{report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::prelude::*;

    #[test]
    fn builtin_topologies_lint_clean() {
        let graphs = [
            topology::cnv_w2a2_cifar10().expect("builds"),
            topology::cnv_w1a2_cifar10().expect("builds"),
            topology::lenet(QuantSpec::w2a2(), 10).expect("builds"),
            topology::tiny(QuantSpec::w2a2(), 4).expect("builds"),
        ];
        for g in &graphs {
            let report = verify_graph(g);
            assert!(!report.has_errors(), "{}:\n{report}", g.name());
            // Margin reporting fires for every topology with MVTUs.
            assert!(report.fired("AF006"));
        }
    }

    #[test]
    fn accumulator_margin_reported_per_mvtu_layer() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let report = verify_graph(&g);
        let mvtus = g.iter().filter(|n| n.layer.is_mvtu()).count();
        let infos = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "AF006" && d.severity == Severity::Info)
            .count();
        assert_eq!(infos, mvtus, "one margin line per MVTU layer");
    }

    #[test]
    fn catalog_has_eleven_distinct_codes() {
        let v = Verifier::new();
        let codes: std::collections::BTreeSet<_> =
            v.catalog().into_iter().map(|(c, _)| c).collect();
        assert_eq!(codes.len(), 11);
        assert!(codes.contains("AF001"));
        assert!(codes.contains("AF009"));
        assert!(codes.contains("AF010"));
        assert!(codes.contains("AF011"));
    }

    #[test]
    fn packed_eligibility_reported_per_mvtu_layer() {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let report = verify_graph(&g);
        let mvtus = g.iter().filter(|n| n.layer.is_mvtu()).count();
        let infos = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "AF009" && d.severity == Severity::Info)
            .count();
        // Every MVTU reports Info (the first layer's byte-window MVTU on the
        // 8-bit input is expected, not a defect), none warns.
        assert_eq!(infos, mvtus, "one eligibility line per MVTU layer");
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF009" && d.severity != Severity::Info));
    }

    #[test]
    fn af009_warns_when_thresholds_imply_wide_activations() {
        // A 7-level (3-bit) threshold feeding a conv that declares W2A2:
        // the packed contract silently breaks, which AF009 must flag.
        let g = GraphBuilder::new("wide-acts", TensorShape::new(1, 8, 8))
            .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
            .threshold(MultiThreshold::uniform(4, 7, -4, 4))
            .conv2d(Conv2d::new(4, 4, 3, 1, 0, QuantSpec::w2a2()))
            .threshold(MultiThreshold::uniform(4, 3, -4, 4))
            .dense(Dense::new(4 * 4 * 4, 4, QuantSpec::w2a2()))
            .label_select(4)
            .build()
            .expect("builds");
        let report = verify_graph(&g);
        let warns: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "AF009" && d.severity == Severity::Warn)
            .collect();
        assert_eq!(warns.len(), 1, "exactly the second conv warns:\n{report}");
        assert!(warns[0].message.contains("incoming activations reach 7"));
    }

    #[test]
    fn af009_stays_quiet_info_for_declared_wide_quant() {
        // LeNet at W4A4 legitimately runs the byte-window MVTU: Info only, no warns.
        let g = topology::lenet(QuantSpec::new(4, 4), 10).expect("builds");
        let report = verify_graph(&g);
        assert!(report.fired("AF009"));
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF009" && d.severity == Severity::Warn));
    }

    #[test]
    fn allow_policy_suppresses_margin_reports() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        let v = Verifier::new().with_config(LintConfig {
            allow: LintConfig::parse_codes("AF006"),
            deny: Default::default(),
        });
        assert!(!v.verify(&g).fired("AF006"));
    }

    /// A W8A8 dense layer whose fan-in and stored weights make the i32
    /// accumulator genuinely overflowable: both the domain bound (AF006)
    /// and the exact interval (AF010) reject it, so no demotion applies.
    fn reachable_overflow_graph() -> CnnGraph {
        let mut d = Dense::new(1 << 22, 1, QuantSpec::new(8, 8));
        d.weights.as_mut_slice().fill(127);
        GraphBuilder::new("overflow", TensorShape::flat(1 << 22))
            .dense(d)
            .label_select(1)
            .build()
            .expect("builds")
    }

    #[test]
    fn overflow_graph_fails_af006() {
        let report = verify_graph(&reachable_overflow_graph());
        assert!(report.has_errors());
        assert!(report.fired("AF006"));
        // The exact analysis agrees: the overflow is reachable.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF010" && d.severity == Severity::Error));
    }

    #[test]
    fn af006_error_demoted_when_interval_proves_safety() {
        // Same huge fan-in, but all-zero weights: the domain bound still
        // trips AF006, while the exact interval is [0, 0] — the error must
        // come back demoted to a Warn that mentions the proof.
        let g = GraphBuilder::new("overflow-demoted", TensorShape::flat(1 << 22))
            .dense(Dense::new(1 << 22, 1, QuantSpec::new(8, 8)))
            .label_select(1)
            .build()
            .expect("builds");
        let report = verify_graph(&g);
        assert!(
            !report.has_errors(),
            "demotion should clear errors:\n{report}"
        );
        let demoted: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "AF006" && d.severity == Severity::Warn)
            .collect();
        assert_eq!(demoted.len(), 1);
        assert!(demoted[0].message.contains("demoted"));
    }

    #[test]
    fn deny_af006_disables_demotion() {
        let g = GraphBuilder::new("overflow-denied", TensorShape::flat(1 << 22))
            .dense(Dense::new(1 << 22, 1, QuantSpec::new(8, 8)))
            .label_select(1)
            .build()
            .expect("builds");
        let v = Verifier::new().with_config(LintConfig {
            allow: Default::default(),
            deny: LintConfig::parse_codes("AF006"),
        });
        let report = v.verify(&g);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF006" && d.severity == Severity::Error));
    }

    /// The whole report of the demotion fixture under four policies: the
    /// Warn carries the demotion suffix; `deny AF006` keeps the plain Error;
    /// `allow AF006` drops it; `allow AF010` still demotes (the proof does
    /// not depend on AF010's own findings being kept).
    #[test]
    fn af006_demotion_bytes_pinned_under_each_policy() {
        let g = GraphBuilder::new("overflow-demoted", TensorShape::flat(1 << 22))
            .dense(Dense::new(1 << 22, 1, QuantSpec::new(8, 8)))
            .label_select(1)
            .build()
            .expect("builds");
        let cases = [
            (
                "",
                "",
                concat!(
                    "overflow-demoted: 0 error(s), 1 warning(s), 2 info\n",
                    "  warn[AF006] L0 (fc1): worst-case accumulator ±135832535040 (fan-in 4194304 × ",
                    "max|w| 127 × max|a| 255), actual weights reach ±0: exceeds i32::MAX by 63.3x — ",
                    "demoted: AF010 interval analysis proves the current weights cannot overflow i32 ",
                    "(retraining under this spec may still overflow) — reduce fan-in or quantization ",
                    "bit widths, or widen the accumulator type\n",
                    "  info[AF009] L0 (fc1): byte-window MVTU: declared 8-bit weights exceed the ≤2-bit ",
                    "packed contract\n",
                    "  info[AF010] L0 (fc1): exact accumulator interval [0, 0] needs a 1-bit ",
                    "accumulator; 31 spare bits in i32 (AF006 domain bound ±135832535040)\n",
                ),
            ),
            (
                "",
                "AF006",
                concat!(
                    "overflow-demoted: 1 error(s), 0 warning(s), 2 info\n",
                    "  error[AF006] L0 (fc1): worst-case accumulator ±135832535040 (fan-in 4194304 × ",
                    "max|w| 127 × max|a| 255), actual weights reach ±0: exceeds i32::MAX by 63.3x — ",
                    "reduce fan-in or quantization bit widths, or widen the accumulator type\n",
                    "  info[AF009] L0 (fc1): byte-window MVTU: declared 8-bit weights exceed the ≤2-bit ",
                    "packed contract\n",
                    "  info[AF010] L0 (fc1): exact accumulator interval [0, 0] needs a 1-bit ",
                    "accumulator; 31 spare bits in i32 (AF006 domain bound ±135832535040)\n",
                ),
            ),
            (
                "AF006",
                "",
                concat!(
                    "overflow-demoted: 0 error(s), 0 warning(s), 2 info\n",
                    "  info[AF009] L0 (fc1): byte-window MVTU: declared 8-bit weights exceed the ≤2-bit ",
                    "packed contract\n",
                    "  info[AF010] L0 (fc1): exact accumulator interval [0, 0] needs a 1-bit ",
                    "accumulator; 31 spare bits in i32 (AF006 domain bound ±135832535040)\n",
                ),
            ),
            (
                "AF010",
                "",
                concat!(
                    "overflow-demoted: 0 error(s), 1 warning(s), 1 info\n",
                    "  warn[AF006] L0 (fc1): worst-case accumulator ±135832535040 (fan-in 4194304 × ",
                    "max|w| 127 × max|a| 255), actual weights reach ±0: exceeds i32::MAX by 63.3x — ",
                    "demoted: AF010 interval analysis proves the current weights cannot overflow i32 ",
                    "(retraining under this spec may still overflow) — reduce fan-in or quantization ",
                    "bit widths, or widen the accumulator type\n",
                    "  info[AF009] L0 (fc1): byte-window MVTU: declared 8-bit weights exceed the ≤2-bit ",
                    "packed contract\n",
                ),
            ),
        ];
        for (allow, deny, expected) in cases {
            let v = Verifier::new().with_config(LintConfig {
                allow: LintConfig::parse_codes(allow),
                deny: LintConfig::parse_codes(deny),
            });
            assert_eq!(
                v.verify(&g).to_string(),
                expected,
                "allow={allow} deny={deny}"
            );
        }
    }

    #[test]
    fn debug_guard_panics_on_bad_graph() {
        let g = reachable_overflow_graph();
        let caught = std::panic::catch_unwind(|| debug_assert_verified(&g, "test"));
        assert!(caught.is_err());
    }
}
