//! Startup verification gate — the live counterpart of the debug-build
//! engine gates.
//!
//! Before `serve-live` opens a socket it runs the full `adaflow-verify`
//! graph lint **and** the serving-config lint, merges the reports, and
//! refuses to serve when any Error-level diagnostic fired. The DES will
//! happily simulate a broken model; a live endpoint answering real
//! traffic with it is an outage, so the gate is hard.

use adaflow_model::CnnGraph;
use adaflow_serve::ServeConfig;
use adaflow_verify::{LintConfig, Report, Verifier};
use std::fmt;

/// The gate refused to serve.
#[derive(Debug)]
pub struct PreflightError {
    /// Error-level diagnostics fired.
    pub errors: usize,
    /// The full merged report (graph + serving config), for printing.
    pub report: Report,
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preflight failed: {} error-level diagnostic(s); refusing to serve\n{}",
            self.errors, self.report
        )
    }
}

impl std::error::Error for PreflightError {}

/// Lints `graph` and `serve` under `lint`, returning the merged report if
/// it is serve-clean.
///
/// `nominal_fps` is the expected arrival rate and `worst_stall_s` the
/// worst switch stall — both feed the serving-config rules (SV001/SV002)
/// exactly as the simulation's config validation does.
///
/// # Errors
///
/// [`PreflightError`] carrying the merged report when any Error-level
/// diagnostic fired.
pub fn preflight(
    graph: &CnnGraph,
    serve: &ServeConfig,
    nominal_fps: f64,
    worst_stall_s: f64,
    lint: &LintConfig,
) -> Result<Report, PreflightError> {
    let mut report = Verifier::new().with_config(lint.clone()).verify(graph);
    report.merge(serve.validate(nominal_fps, worst_stall_s, lint.clone()));
    if report.has_errors() {
        Err(PreflightError {
            errors: report.count(adaflow_verify::Severity::Error),
            report,
        })
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_model::{topology, QuantSpec};

    fn graph() -> CnnGraph {
        topology::tiny(QuantSpec::w2a2(), 10).expect("builds")
    }

    #[test]
    fn clean_model_passes() {
        let report = preflight(
            &graph(),
            &ServeConfig::default(),
            100.0,
            0.0,
            &LintConfig::default(),
        )
        .expect("clean");
        assert!(!report.has_errors());
    }

    #[test]
    fn denied_code_blocks_serving() {
        // Max-wait over half the budget fires SV001 at Warn; denying the
        // code escalates it to Error and the gate must refuse.
        let config = ServeConfig {
            deadline_s: 0.25,
            max_wait_s: 0.15,
            ..ServeConfig::default()
        };
        assert!(
            preflight(&graph(), &config, 100.0, 0.0, &LintConfig::default()).is_ok(),
            "warn alone does not block"
        );
        let lint = LintConfig {
            allow: Default::default(),
            deny: LintConfig::parse_codes("SV001"),
        };
        let err =
            preflight(&graph(), &config, 100.0, 0.0, &lint).expect_err("denied code must block");
        assert!(err.errors > 0);
        assert!(err.report.fired("SV001"));
        let text = err.to_string();
        assert!(text.contains("refusing to serve"), "{text}");
    }

    #[test]
    fn zero_batch_blocks() {
        // `--batch 0` used to reach the engine thread and spin it; the
        // gate every live entry point runs now names it.
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let err = preflight(&graph(), &config, 100.0, 0.0, &LintConfig::default())
            .expect_err("a batcher that can never close must not serve");
        assert!(err.report.fired("SV001"));
        assert!(err.to_string().contains("batch size 0"), "{err}");
    }

    #[test]
    fn infeasible_serve_config_blocks() {
        // Max-wait above the whole deadline budget guarantees misses:
        // SV001 fires at Error severity without any deny needed.
        let config = ServeConfig {
            deadline_s: 0.01,
            max_wait_s: 0.5,
            ..ServeConfig::default()
        };
        assert!(preflight(&graph(), &config, 100.0, 0.0, &LintConfig::default()).is_err());
    }
}
