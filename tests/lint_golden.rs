//! Byte-identity of the verifier's lint output across refactors.
//!
//! The files under `tests/golden/` were written by the commit before the
//! verifier's chain analyses became closed forms, from the release CLI:
//!
//! * `lint_all_rates.{txt,json}` — `lint --model all --rates 0,0.25,0.5`
//!   (text and `--format json`): every builtin model and pruned variant
//!   through `verify_graph` merged with `verify_dataflow`;
//! * `lint_explain_all.txt` — `lint --explain all`;
//! * `df005_cnv_zero_edge.txt` — the DF005 report for the CNV reference
//!   pipeline with FIFO capacities `[2, 0, 2, …]`.
//!
//! Any change to a lint byte fails here. Regenerate a file only when the
//! output is meant to change, and say why in the commit.

use adaflow_dataflow::{check_fifo_liveness, AcceleratorKind, DataflowAccelerator};
use adaflow_model::prelude::*;
use adaflow_pruning::FinnConfig;
use adaflow_verify::Diagnostics;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

fn golden(name: &str) -> String {
    let path = format!("{GOLDEN}/{name}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Runs the CLI and returns its stdout, asserting a zero exit status.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_adaflow_cli"))
        .args(args)
        .output()
        .expect("runs adaflow_cli");
    assert!(
        out.status.success(),
        "adaflow_cli {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Compares line by line first so a mismatch names the first differing
/// line instead of dumping two 40 KB strings.
fn assert_same(actual: &str, name: &str) {
    let expected = golden(name);
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{name}: line {} differs", i + 1);
    }
    assert_eq!(actual, expected, "{name}: length or trailing bytes differ");
}

#[test]
fn lint_all_models_and_rates_matches_golden_text() {
    let out = cli(&["lint", "--model", "all", "--rates", "0,0.25,0.5"]);
    assert_same(&out, "lint_all_rates.txt");
}

#[test]
fn lint_all_models_and_rates_matches_golden_json() {
    let out = cli(&[
        "lint",
        "--model",
        "all",
        "--rates",
        "0,0.25,0.5",
        "--format",
        "json",
    ]);
    assert_same(&out, "lint_all_rates.json");
}

#[test]
fn lint_explain_all_matches_golden() {
    assert_same(&cli(&["lint", "--explain", "all"]), "lint_explain_all.txt");
}

#[test]
fn df005_deadlock_report_matches_golden() {
    let g = topology::cnv_w2a2_cifar10().expect("builds");
    let cfg = FinnConfig::cnv_reference(&g).expect("valid");
    let accel = DataflowAccelerator::compile(&g, &cfg, AcceleratorKind::Finn).expect("compiles");
    let mut capacities = vec![2usize; accel.modules().len() - 1];
    capacities[1] = 0;
    let mut diag = Diagnostics::new();
    check_fifo_liveness(&accel, &capacities, &mut diag);
    let report = diag.into_report(accel.name()).to_string();
    assert_same(&report, "df005_cnv_zero_edge.txt");
}
