//! The diagnostics engine: structured findings, severity policy and reports.
//!
//! Rules never abort on the first problem the way `Result`-returning
//! validators do; they emit [`Diagnostic`]s into a [`Diagnostics`] collector
//! and keep scanning, so one lint pass surfaces every violation in a graph.
//! A [`LintConfig`] applies the usual compiler-style policy knobs: `allow`
//! suppresses a rule code entirely, `deny` escalates its findings to
//! [`Severity::Error`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// How bad a finding is.
///
/// Ordering is by increasing severity (`Info < Warn < Error`), so
/// `max`-folding over a report yields its worst finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: the invariant holds; the diagnostic reports the
    /// computed margin (e.g. accumulator headroom).
    Info,
    /// Suspicious but not provably wrong (e.g. unreachable threshold
    /// levels).
    Warn,
    /// The invariant is violated; executing or synthesizing the graph is
    /// unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// One structured finding emitted by a rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule code (e.g. `"AF006"`). The catalog lives in
    /// [`crate::explain`] and DESIGN.md.
    pub code: String,
    /// Severity after the [`LintConfig`] policy has been applied.
    pub severity: Severity,
    /// Index of the layer the finding anchors to, if layer-specific.
    pub layer: Option<usize>,
    /// Human-readable layer name (e.g. `"conv2"`), if layer-specific.
    pub layer_name: Option<String>,
    /// What was found.
    pub message: String,
    /// How to fix it, when the rule can tell.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        match (&self.layer, &self.layer_name) {
            (Some(idx), Some(name)) => write!(f, " L{idx} ({name})")?,
            (Some(idx), None) => write!(f, " L{idx}")?,
            _ => {}
        }
        write!(f, ": {}", self.message)?;
        if let Some(fix) = &self.suggestion {
            write!(f, " — {fix}")?;
        }
        Ok(())
    }
}

/// Allow/deny policy applied as diagnostics are collected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Codes whose findings are dropped entirely.
    pub allow: BTreeSet<String>,
    /// Codes whose findings are escalated to [`Severity::Error`].
    pub deny: BTreeSet<String>,
}

impl LintConfig {
    /// Parses a comma-separated code list (`"AF003,DF001"`) into a set.
    #[must_use]
    pub fn parse_codes(list: &str) -> BTreeSet<String> {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_uppercase)
            .collect()
    }
}

/// Collects diagnostics from rules, applying the [`LintConfig`] policy.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    config: LintConfig,
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collector with the default (neutral) policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector with an allow/deny policy.
    #[must_use]
    pub fn with_config(config: LintConfig) -> Self {
        Self {
            config,
            items: Vec::new(),
        }
    }

    /// Emits one diagnostic, applying the policy: allowed codes are dropped,
    /// denied codes are escalated to [`Severity::Error`]. Info findings are
    /// never escalated — they report margins, not violations.
    pub fn emit(&mut self, mut d: Diagnostic) {
        if self.config.allow.contains(&d.code) {
            return;
        }
        if d.severity == Severity::Warn && self.config.deny.contains(&d.code) {
            d.severity = Severity::Error;
        }
        self.items.push(d);
    }

    /// Whether the policy denies `code`.
    pub(crate) fn denies(&self, code: &str) -> bool {
        self.config.deny.contains(code)
    }

    /// Shorthand for emitting a finding against a specific layer.
    pub fn report(
        &mut self,
        code: &str,
        severity: Severity,
        layer: Option<(usize, &str)>,
        message: impl Into<String>,
        suggestion: Option<String>,
    ) {
        self.emit(Diagnostic {
            code: code.to_string(),
            severity,
            layer: layer.map(|(i, _)| i),
            layer_name: layer.map(|(_, n)| n.to_string()),
            message: message.into(),
            suggestion,
        });
    }

    /// Finalizes into a report for `subject` (typically the graph name).
    #[must_use]
    pub fn into_report(self, subject: impl Into<String>) -> Report {
        Report {
            subject: subject.into(),
            diagnostics: self.items,
        }
    }
}

/// The outcome of one verification pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// What was verified (graph or accelerator name).
    pub subject: String,
    /// Findings in rule-then-layer order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The distinct rule codes that fired, sorted.
    #[must_use]
    pub fn codes(&self) -> BTreeSet<&str> {
        self.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    /// Whether a finding with `code` is present.
    #[must_use]
    pub fn fired(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merges another report's findings into this one (used to combine the
    /// graph pass with dataflow/accelerator passes over the same model).
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// JSON form for machine consumption (`lint --format json`).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` mirrors `serde_json`.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} error(s), {} warning(s), {} info",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &str, severity: Severity) -> Diagnostic {
        Diagnostic {
            code: code.into(),
            severity,
            layer: Some(2),
            layer_name: Some("conv2".into()),
            message: "message".into(),
            suggestion: Some("fix it".into()),
        }
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn allow_drops_findings() {
        let mut diag = Diagnostics::with_config(LintConfig {
            allow: ["AF004".to_string()].into(),
            deny: BTreeSet::new(),
        });
        diag.emit(finding("AF004", Severity::Error));
        diag.emit(finding("AF001", Severity::Error));
        let report = diag.into_report("g");
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.fired("AF001"));
        assert!(!report.fired("AF004"));
    }

    #[test]
    fn deny_escalates_warnings_only() {
        let mut diag = Diagnostics::with_config(LintConfig {
            allow: BTreeSet::new(),
            deny: ["AF005".to_string()].into(),
        });
        diag.emit(finding("AF005", Severity::Warn));
        diag.emit(finding("AF005", Severity::Info));
        let report = diag.into_report("g");
        assert_eq!(report.count(Severity::Error), 1);
        assert_eq!(report.count(Severity::Info), 1);
    }

    #[test]
    fn report_counting_and_codes() {
        let mut diag = Diagnostics::new();
        diag.emit(finding("AF001", Severity::Error));
        diag.emit(finding("AF006", Severity::Info));
        let report = diag.into_report("tiny");
        assert!(report.has_errors());
        assert_eq!(
            report.codes().into_iter().collect::<Vec<_>>(),
            ["AF001", "AF006"]
        );
    }

    #[test]
    fn display_names_layer_and_suggestion() {
        let text = finding("AF002", Severity::Warn).to_string();
        assert!(text.contains("warn[AF002]"));
        assert!(text.contains("L2 (conv2)"));
        assert!(text.contains("fix it"));
    }

    #[test]
    fn parse_codes_normalizes() {
        let set = LintConfig::parse_codes(" af003 , DF001,");
        assert!(set.contains("AF003"));
        assert!(set.contains("DF001"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn report_json_round_trip() {
        let mut diag = Diagnostics::new();
        diag.emit(finding("AF001", Severity::Error));
        let report = diag.into_report("g");
        let json = report.to_json().expect("serializes");
        let back: Report = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(report, back);
    }
}
