//! The simulator commands and `report` at the process boundary: exit
//! status, stdout and the files an invocation leaves behind.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adaflow_cli"))
        .args(args)
        .output()
        .expect("runs adaflow_cli")
}

/// The stdout of a run that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = cli(args);
    assert!(
        out.status.success(),
        "adaflow_cli {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A directory shared by this file's tests, holding a CNV library (0 and
/// 50 % pruned) as `library.json`.
fn scratch() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("adaflow_sim_cli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let library = dir.join("library.json");
        let library = library.to_str().expect("utf-8 path");
        let args = ["generate", "--model", "cnv-w2a2", "--dataset", "cifar10"];
        stdout_of(&[&args[..], &["--rates", "0,0.5", "--out", library]].concat());
        dir
    })
}

fn path(name: &str) -> String {
    scratch().join(name).to_string_lossy().to_string()
}

/// Asserts `args` exit 1 with nothing on stdout and an error naming
/// `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn zero_runs_are_refused_by_every_simulator() {
    let library = path("library.json");
    for command in ["simulate", "serve", "fleet"] {
        assert_refused(&[command, "--library", &library, "--runs", "0"], "--runs");
    }
}

#[test]
fn out_over_several_runs_is_refused_before_the_library_is_read() {
    let prefix = path("sweep");
    for command in ["simulate", "serve", "fleet"] {
        let missing = path("missing.json");
        let args = [
            command,
            "--library",
            &missing,
            "--runs",
            "100",
            "--out",
            &prefix,
        ];
        assert_refused(&args, "--out requires a single run");
    }
    assert!(!PathBuf::from(format!("{prefix}.jsonl")).exists());
}

#[test]
fn report_over_a_fluid_log_shows_no_request_sections() {
    let (library, log) = (path("library.json"), path("fluid"));
    let run = [
        "simulate",
        "--library",
        &library,
        "--scenario",
        "2",
        "--seed",
        "1",
    ];
    stdout_of(&[&run[..], &["--runs", "1", "--out", &log]].concat());
    let events = format!("{log}.jsonl");
    let text = stdout_of(&["report", "--events", &events]);
    assert!(text.contains("  decisions "), "the counters stay: {text}");
    assert!(text.contains("no request events"), "{text}");
    assert!(
        !text.contains("traces:") && !text.contains("slo ("),
        "{text}"
    );
    let json = stdout_of(&["report", "--events", &events, "--format", "json"]);
    assert!(
        json.ends_with(",\"waterfall\":null,\"slo\":null}\n"),
        "{json}"
    );
    // The views are still drawn: the Perfetto trace and the exposition.
    let view = path("fluid_view");
    stdout_of(&["report", "--events", &events, "--out", &view]);
    let prom = std::fs::read_to_string(format!("{view}.prom")).expect("prom");
    assert!(prom.contains("adaflow_decisions_total"), "{prom}");
    assert!(PathBuf::from(format!("{view}.trace.json")).exists());
}
