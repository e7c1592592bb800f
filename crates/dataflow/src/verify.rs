//! Dataflow-level verification rules (`DF001`–`DF005`).
//!
//! These extend the graph rule catalog in `adaflow-verify` with checks that
//! need the folding configuration and the compiled module pipeline, which
//! sit above that crate in the dependency order:
//!
//! * `DF001` — folding divisibility: every MVTU layer has a folding entry
//!   whose `PE` divides the filter/neuron count and whose `SIMD` divides
//!   the input channel count (FINN's no-idle-lanes constraint);
//! * `DF002` — stream-width consistency: each SWU emits windows at exactly
//!   the width its consumer MVTU ingests (`SIMD` lanes, `k²·ch_in`
//!   columns), and MVTU folding never exceeds the matrix geometry;
//! * `DF003` — FIFO sizing: the uniform FIFO depth that sustains the
//!   analytical bottleneck initiation interval (the largest per-edge
//!   pair-cycle bound, at most 2), reported with its buffering cost; warns
//!   when the uniform allocation exceeds twice the proven-safe per-edge
//!   total;
//! * `DF004` — steady-state rate balance: the closed-form II of the
//!   SWU↔MVTU↔pool chain under the compiled folding, reporting the
//!   bottleneck stage, its utilization and the mismatch severity;
//! * `DF005` — FIFO deadlock-freedom: a chain is live iff every FIFO has a
//!   nonzero capacity; otherwise the lowest zero-capacity edge is reported
//!   as a blocked producer/consumer pair with a token-trace counterexample.
//!
//! All five share the diagnostics engine, severity policy and report
//! format of `adaflow-verify`, so the CLI can merge graph and dataflow
//! passes into one lint report. The `DF004`/`DF005` analyses themselves
//! (`rate_balance`, `chain_liveness`) live in `adaflow-verify` and are fed
//! module cycle counts from here.

use crate::accel::DataflowAccelerator;
use crate::fifo::size_fifos;
use crate::module::ModuleKind;
use adaflow_model::{CnnGraph, Layer};
use adaflow_pruning::FinnConfig;
use adaflow_verify::{
    chain_liveness, rate_balance_uniform, Diagnostics, LintConfig, Liveness, MismatchSeverity,
    Report, Severity, Stage,
};

/// `DF001`: checks folding divisibility of `config` against `graph`,
/// emitting into `diag`. Unlike `FinnConfig::validate`, this scans every
/// MVTU and reports all violations instead of failing on the first.
pub fn check_folding(graph: &CnnGraph, config: &FinnConfig, diag: &mut Diagnostics) {
    for node in graph.iter() {
        let (out, inp) = match &node.layer {
            Layer::Conv2d(c) => (c.out_channels, c.in_channels),
            Layer::Dense(d) => (d.out_features, d.in_features),
            _ => continue,
        };
        let at = Some((node.id.0, node.name.as_str()));
        let Some(folding) = config.folding(node.id) else {
            diag.report(
                "DF001",
                Severity::Error,
                at,
                "MVTU layer has no folding entry",
                Some("add a (PE, SIMD) entry for this layer to the FinnConfig".into()),
            );
            continue;
        };
        if folding.pe == 0 || folding.simd == 0 {
            diag.report(
                "DF001",
                Severity::Error,
                at,
                format!(
                    "folding PE {} × SIMD {} must be nonzero",
                    folding.pe, folding.simd
                ),
                None,
            );
            continue;
        }
        if out % folding.pe != 0 {
            diag.report(
                "DF001",
                Severity::Error,
                at,
                format!(
                    "PE {} does not divide {out} filters/neurons — idle processing elements",
                    folding.pe,
                ),
                Some(format!("choose a PE from the divisors of {out}")),
            );
        }
        if inp % folding.simd != 0 {
            diag.report(
                "DF001",
                Severity::Error,
                at,
                format!(
                    "SIMD {} does not divide {inp} input channels — idle lanes",
                    folding.simd,
                ),
                Some(format!("choose a SIMD from the divisors of {inp}")),
            );
        }
    }
}

/// `DF002`–`DF005`: checks the compiled module pipeline — stream widths
/// between producers and consumers, folding-vs-geometry sanity, FIFO
/// sizing, and at the sized depth the rate balance and liveness.
pub fn check_accelerator(accel: &DataflowAccelerator, diag: &mut Diagnostics) {
    let modules = accel.modules();
    for (idx, module) in modules.iter().enumerate() {
        let at = Some((idx, module.name.as_str()));
        match &module.kind {
            ModuleKind::Swu {
                in_channels,
                kernel,
                simd,
                ..
            } => {
                let window = kernel * kernel * in_channels;
                match modules.get(idx + 1).map(|m| &m.kind) {
                    Some(ModuleKind::Mvtu {
                        cols,
                        simd: consumer_simd,
                        ..
                    }) => {
                        if simd != consumer_simd {
                            diag.report(
                                "DF002",
                                Severity::Error,
                                at,
                                format!(
                                    "SWU emits {simd}-wide slices but the consumer MVTU ingests \
                                     {consumer_simd} SIMD lanes",
                                ),
                                Some("use the consumer MVTU's SIMD as the SWU stream width".into()),
                            );
                        }
                        if window != *cols {
                            diag.report(
                                "DF002",
                                Severity::Error,
                                at,
                                format!(
                                    "SWU window is {window} elements (k²·ch_in) but the consumer \
                                     MVTU expects {cols} columns",
                                ),
                                None,
                            );
                        }
                    }
                    _ => diag.report(
                        "DF002",
                        Severity::Error,
                        at,
                        "SWU is not followed by an MVTU consumer",
                        Some("pair every sliding-window unit with its matrix-vector unit".into()),
                    ),
                }
            }
            ModuleKind::Mvtu {
                rows,
                cols,
                pe,
                simd,
                ..
            } => {
                if *pe == 0 || *simd == 0 {
                    diag.report(
                        "DF002",
                        Severity::Error,
                        at,
                        format!("MVTU folded on PE {pe} × SIMD {simd}; both must be nonzero"),
                        None,
                    );
                } else if pe > rows || simd > cols {
                    diag.report(
                        "DF002",
                        Severity::Warn,
                        at,
                        format!(
                            "folding PE {pe} × SIMD {simd} exceeds the {rows}×{cols} weight \
                             matrix — over-provisioned parallelism",
                        ),
                        Some("cap PE at the row count and SIMD at the column count".into()),
                    );
                }
            }
            ModuleKind::MaxPool { .. } | ModuleKind::LabelSelect { .. } => {}
        }
    }
    let sizing = size_fifos(accel);
    diag.report(
        "DF003",
        Severity::Info,
        None,
        format!(
            "FIFO depth {} sustains the bottleneck II of {} cycles \
             ({} buffered frames across the pipeline; per-edge analysis \
             proves {} suffice)",
            sizing.depth, sizing.target_ii, sizing.buffered_frames, sizing.proven_frames,
        ),
        None,
    );
    if sizing.buffered_frames > 2 * sizing.proven_frames.max(1) {
        diag.report(
            "DF003",
            Severity::Warn,
            None,
            format!(
                "uniform FIFO depth {} allocates {} buffered frames, more than \
                 twice the {} the per-edge pair-cycle bound proves safe",
                sizing.depth, sizing.buffered_frames, sizing.proven_frames,
            ),
            Some(
                "size each FIFO from its own pair-cycle bound \
                 (FifoSizing::per_edge_depths) instead of the uniform maximum"
                    .into(),
            ),
        );
    }
    check_rate_balance(accel, sizing.depth, &mut *diag);
    check_fifo_liveness(
        accel,
        &vec![sizing.depth; sizing.per_edge_depths.len()],
        diag,
    );
}

/// The stage list (module name, cycles per frame) of a compiled pipeline.
pub(crate) fn module_stages(accel: &DataflowAccelerator) -> Vec<Stage> {
    accel
        .modules()
        .iter()
        .map(|m| Stage::new(m.name.clone(), m.cycles_per_frame()))
        .collect()
}

/// `DF004`: evaluates the steady-state II of the module chain at a uniform
/// FIFO depth and reports the bottleneck stage plus mismatch severity. The
/// II is cross-checked against the accelerator's analytic initiation
/// interval — a disagreement is a Warn, since it means the performance
/// model and the rate analysis have diverged.
pub fn check_rate_balance(accel: &DataflowAccelerator, depth: usize, diag: &mut Diagnostics) {
    let stages = module_stages(accel);
    if stages.is_empty() {
        return;
    }
    let rate = rate_balance_uniform(&stages, depth);
    let utilization = rate
        .stages
        .get(rate.bottleneck)
        .map_or(1.0, |s| s.utilization);
    let suggestion = match rate.severity() {
        MismatchSeverity::Balanced => None,
        MismatchSeverity::Moderate | MismatchSeverity::Severe => Some(format!(
            "re-fold toward `{}`: raise its PE·SIMD product (or lower the others') \
             until stage utilizations converge",
            rate.bottleneck_name,
        )),
    };
    diag.report(
        "DF004",
        Severity::Info,
        None,
        format!(
            "steady-state II {} cycles; bottleneck `{}` at {:.0}% utilization; \
             stage mismatch {:.1}× ({})",
            rate.steady_ii,
            rate.bottleneck_name,
            utilization * 100.0,
            rate.mismatch_ratio,
            rate.severity(),
        ),
        suggestion,
    );
    let analytic = accel.initiation_interval();
    if !rate.fifo_bound && rate.steady_ii != analytic {
        diag.report(
            "DF004",
            Severity::Warn,
            None,
            format!(
                "rate fixpoint II {} disagrees with the performance model's {} — \
                 the stage cycle model and rate analysis have diverged",
                rate.steady_ii, analytic,
            ),
            None,
        );
    }
}

/// `DF005`: proves the given per-edge FIFO `capacities` admit a
/// deadlock-free schedule (every capacity nonzero), or reports the lowest
/// zero-capacity edge's blocked pair with a token-trace counterexample.
///
/// `check_accelerator` calls this with the uniform allocation chosen by
/// `size_fifos`; callers probing hypothetical allocations (the CLI, the
/// under-sizing tests) can pass any capacity vector with one entry per
/// adjacent module pair.
///
/// # Panics
///
/// Panics if `capacities` does not hold exactly one entry per adjacent
/// module pair.
pub fn check_fifo_liveness(
    accel: &DataflowAccelerator,
    capacities: &[usize],
    diag: &mut Diagnostics,
) {
    let stages = module_stages(accel);
    if stages.len() < 2 {
        return;
    }
    match chain_liveness(&stages, capacities) {
        Liveness::Live {
            min_capacity,
            zero_token_edges,
        } => diag.report(
            "DF005",
            Severity::Info,
            None,
            format!(
                "FIFO allocation is deadlock-free: no zero-token cycle in the \
                 marked graph ({} modules, min capacity {}, {} empty data edges \
                 at start)",
                stages.len(),
                min_capacity,
                zero_token_edges,
            ),
            None,
        ),
        Liveness::Deadlock { cycle, trace } => diag.report(
            "DF005",
            Severity::Error,
            None,
            format!(
                "FIFO allocation deadlocks — {} modules are wedged in a zero-token \
                 cycle; counterexample: {}",
                cycle.len(),
                trace.join(" "),
            ),
            Some(
                "give every FIFO a capacity of at least 1 (pair-cycle bound for throughput)".into(),
            ),
        ),
    }
}

/// Runs the full dataflow rule set — `DF001` over `(graph, config)` and,
/// when an accelerator is supplied, `DF002`/`DF003` over its pipeline —
/// under the given lint policy.
#[must_use]
pub fn verify_dataflow(
    graph: &CnnGraph,
    config: &FinnConfig,
    accel: Option<&DataflowAccelerator>,
    lint: LintConfig,
) -> Report {
    let mut diag = Diagnostics::with_config(lint);
    check_folding(graph, config, &mut diag);
    if let Some(accel) = accel {
        check_accelerator(accel, &mut diag);
    }
    diag.into_report(accel.map_or_else(|| graph.name().to_string(), |a| a.name().to_string()))
}

/// Debug-build guard used by the HLS synthesis entry point: panics when the
/// compiled pipeline violates `DF002`/`DF003`.
///
/// # Panics
///
/// Panics with the full report when any error-severity finding is present.
pub fn debug_assert_accelerator(accel: &DataflowAccelerator, context: &str) {
    let mut diag = Diagnostics::new();
    check_accelerator(accel, &mut diag);
    let report = diag.into_report(accel.name());
    assert!(
        !report.has_errors(),
        "accelerator verification failed at {context}:\n{report}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AcceleratorKind;
    use adaflow_model::prelude::*;

    fn cnv_setup() -> (CnnGraph, FinnConfig, DataflowAccelerator) {
        let g = topology::cnv_w2a2_cifar10().expect("builds");
        let cfg = FinnConfig::cnv_reference(&g).expect("valid");
        let accel =
            DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles");
        (g, cfg, accel)
    }

    #[test]
    fn cnv_pipeline_lints_clean() {
        let (g, cfg, accel) = cnv_setup();
        let report = verify_dataflow(&g, &cfg, Some(&accel), LintConfig::default());
        assert!(!report.has_errors(), "{report}");
        // DF003 reports the FIFO sizing, DF004 the rate balance, DF005 the
        // liveness proof — all as info on the clean reference pipeline.
        assert!(report.fired("DF003"));
        assert!(report.fired("DF004"));
        assert!(report.fired("DF005"));
        assert_eq!(report.count(Severity::Warn), 0, "{report}");
    }

    #[test]
    fn rate_fixpoint_agrees_with_stream_simulation() {
        // The DF004 closed form and the cycle-accurate stream simulator must
        // land on the same steady-state II at the sized FIFO depth.
        let (_, _, accel) = cnv_setup();
        let sizing = crate::fifo::size_fifos(&accel);
        let stages = module_stages(&accel);
        let simulated = |depth| {
            crate::StreamSimulator::new(&accel, depth)
                .run(48)
                .observed_ii
        };
        let rate = rate_balance_uniform(&stages, sizing.depth);
        assert_eq!(rate.steady_ii, simulated(sizing.depth));
        // And at depth 1 both models agree on the degraded II too.
        let rate1 = rate_balance_uniform(&stages, 1);
        assert_eq!(rate1.steady_ii, simulated(1));
    }

    #[test]
    fn undersized_fifo_fires_df005_with_counterexample() {
        let (_, _, accel) = cnv_setup();
        let edges = accel.modules().len() - 1;
        // A crafted under-sized allocation: one FIFO with zero capacity
        // wedges the whole chain.
        let mut capacities = vec![2usize; edges];
        capacities[1] = 0;
        let mut diag = Diagnostics::new();
        check_fifo_liveness(&accel, &capacities, &mut diag);
        let report = diag.into_report(accel.name());
        assert!(report.has_errors());
        let finding = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DF005" && d.severity == Severity::Error)
            .expect("DF005 error");
        assert!(finding.message.contains("counterexample"), "{finding}");
        assert!(finding.message.contains("capacity 0"), "{finding}");
    }

    #[test]
    fn severe_mismatch_reported_by_df004() {
        // The CNV reference folding is intentionally unbalanced (mvtu2
        // dominates), so DF004's Info must carry a bottleneck name and a
        // non-balanced severity with a re-folding suggestion.
        let (_, _, accel) = cnv_setup();
        let mut diag = Diagnostics::new();
        check_accelerator(&accel, &mut diag);
        let report = diag.into_report(accel.name());
        let df004 = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DF004")
            .expect("DF004 fired");
        assert!(df004.message.contains("bottleneck"), "{df004}");
        assert!(df004.message.contains("steady-state II"), "{df004}");
    }

    #[test]
    fn missing_folding_entry_fires_df001() {
        let g = topology::tiny(QuantSpec::w2a2(), 4).expect("builds");
        // A config built for a different graph misses this graph's layer ids.
        let other = topology::lenet(QuantSpec::w2a2(), 10).expect("builds");
        let cfg = FinnConfig::auto(&other).expect("auto");
        let report = verify_dataflow(&g, &cfg, None, LintConfig::default());
        assert!(report.has_errors());
        assert!(report.fired("DF001"));
    }

    use serde::Value;

    /// JSON round-trip mutation: the serde derives skip constructor
    /// validation, so corrupting the tree builds otherwise-unbuildable
    /// structures for negative tests.
    fn mutate<T, F>(value: &T, f: F) -> T
    where
        T: serde::Serialize + serde::Deserialize,
        F: FnOnce(&mut Value),
    {
        let text = serde_json::to_string(value).expect("serializes");
        let mut tree = serde_json::from_str_value(&text).expect("parses");
        f(&mut tree);
        let text = serde_json::to_string(&tree).expect("re-serializes");
        serde_json::from_str(&text).expect("deserializes")
    }

    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Object(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .expect("object key present"),
            _ => panic!("not an object"),
        }
    }

    fn item(v: &mut Value, idx: usize) -> &mut Value {
        match v {
            Value::Array(items) => &mut items[idx],
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn corrupted_folding_fires_df001() {
        let (g, cfg, _) = cnv_setup();
        // Corrupt conv1's PE to a non-divisor of its 64 filters.
        let bad = mutate(&cfg, |v| {
            let pe = field(item(item(field(v, "entries"), 0), 1), "pe");
            *pe = Value::U64(5);
        });
        let report = verify_dataflow(&g, &bad, None, LintConfig::default());
        assert!(report.has_errors());
        assert!(report.fired("DF001"));
    }

    #[test]
    fn stream_width_mismatch_fires_df002() {
        let (_, _, accel) = cnv_setup();
        // Corrupt the first SWU's stream width out from under its consumer.
        let bad = mutate(&accel, |v| {
            let simd = field(
                field(field(item(field(v, "modules"), 0), "kind"), "Swu"),
                "simd",
            );
            assert_eq!(simd.as_u64(), Some(3));
            *simd = Value::U64(4);
        });
        let mut diag = Diagnostics::new();
        check_accelerator(&bad, &mut diag);
        let report = diag.into_report(bad.name());
        assert!(report.has_errors());
        assert!(report.fired("DF002"));
    }

    #[test]
    fn debug_guard_accepts_clean_accelerator() {
        let (_, _, accel) = cnv_setup();
        debug_assert_accelerator(&accel, "test");
    }
}
