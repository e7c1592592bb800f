//! The repo benchmark: seven workloads over the engine, the live tier, the
//! gateway and the simulators; end-to-end metrics from an untraced pass and
//! per-layer metrics from a traced one. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! adaflow-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! adaflow-benchmark --print-contract      # the text of BENCHMARK.json
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). Without it every workload runs in a child process
//! of its own, so CPU time and peak memory are per workload.

mod des;
mod engine;
mod gateway;
mod host;
mod live;
mod loadgen;
mod metrics;
mod micro;
mod pool;
mod run;
mod spans;
mod stats;

use metrics::{END_TO_END, WORKLOADS};
use run::{Primary, Run};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Set-up cycles are timed in two rounds, one before the measured phase and
/// one after it, each of at least this many cycles ...
const MIN_SETUP_CYCLES: usize = 3;

/// ... and of as many more as fit in this many seconds, up to
/// [`MAX_SETUP_CYCLES`]. `setup_s` is the lower quartile of them all: most
/// set-ups take 20-90 ms, the host's loud stretches last seconds, and two
/// rounds a measured phase apart rarely both fall into one.
const SETUP_ROUND_S: f64 = 0.5;
const MAX_SETUP_CYCLES: usize = 12;

/// Where the traced pass writes `<workload>.spans.jsonl`, relative to the
/// directory the command is run from (the repository root).
const OUT_DIR: &str = "benchmark/out";

/// The seven workloads, in `metrics::WORKLOADS` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EngineBatch64,
    EngineSingleMix,
    LiveOpen25,
    LiveOverload640,
    GatewayHopTiny,
    DesFleetWide,
    DesPaper,
}

use Workload::*;

const ALL: [Workload; 7] = [
    EngineBatch64,
    EngineSingleMix,
    LiveOpen25,
    LiveOverload640,
    GatewayHopTiny,
    DesFleetWide,
    DesPaper,
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS[ALL.iter().position(|w| *w == self).expect("listed")].name
    }

    fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One timed set-up cycle through the program's public set-up calls, in
    /// seconds. Oracle labels are benchmark cost and never part of it.
    fn setup_cycle(self, quick: bool) -> f64 {
        let timed = |f: fn(bool)| {
            let started = Instant::now();
            f(quick);
            started.elapsed().as_secs_f64()
        };
        match self {
            EngineBatch64 => timed(engine::batch_setup_cycle),
            EngineSingleMix => timed(engine::mix_setup_cycle),
            LiveOpen25 | LiveOverload640 => live::setup_cycle(quick),
            GatewayHopTiny => gateway::setup_cycle(),
            DesFleetWide | DesPaper => des::setup_cycle(),
        }
    }

    /// The measured phase, `secs` long. Only the traced pass of
    /// `gateway_hop_tiny` adds the direct reference leg, a sixth as long.
    fn pass(self, run: &mut Run, secs: f64) -> Primary {
        match self {
            EngineBatch64 => engine::batch_pass(run, secs),
            EngineSingleMix => engine::mix_pass(run, secs),
            LiveOpen25 => live::pass(run, 25.0, 1, secs),
            LiveOverload640 => live::pass(run, 640.0, live::connections(), secs),
            GatewayHopTiny => {
                let direct = if run.spans.is_some() { secs / 6.0 } else { 0.0 };
                gateway::pass(run, secs, direct)
            }
            DesFleetWide => des::fleet_pass(run, secs),
            DesPaper => des::paper_pass(run, secs),
        }
    }

    /// Share of `--seconds` the traced pass (and its untraced reference)
    /// measures: live workloads need more requests for their percentiles.
    fn traced_share(self) -> f64 {
        match self {
            LiveOpen25 | LiveOverload640 | GatewayHopTiny => 0.3,
            _ => 0.2,
        }
    }

    /// Both live workloads exercise the same layers.
    fn same_layers(self, other: Workload) -> bool {
        let live = |w| matches!(w, LiveOpen25 | LiveOverload640);
        self == other || (live(self) && live(other))
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (all-workload mode only).
    trace: Option<bool>,
    quick: bool,
    /// Print the text of `BENCHMARK.json` and exit.
    print_contract: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: None,
        quick: false,
        print_contract: false,
    };
    let mut seconds_given = false;
    while let Some(flag) = argv.next() {
        if flag == "--print-contract" {
            args.print_contract = true;
            continue;
        }
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// The engine planner's two crossover points, pinned for every run unless
/// the caller's environment already sets them. Left alone, `adaflow-nn`
/// measures them with a sub-millisecond microbenchmark at first use, and on
/// a busy 2-vCPU host that reading flips between process starts (8 of 30
/// starts measured `gemm_min_k = 64`, which sends CNV's conv1 to the direct
/// kernel and makes an inference 9 ms instead of 5 ms). A benchmark whose
/// kernel plan is a coin toss cannot compare two commits, so it runs the
/// plan the calibration picks most often here; the knobs are the crate's own
/// ("pinned via environment variables for reproducible runs").
const PINNED_CROSSOVERS: [(&str, &str); 2] = [
    ("ADAFLOW_GEMM_MIN_K", "4"),
    ("ADAFLOW_PACKED_MIN_ROWS", "2"),
];

fn main() -> ExitCode {
    // Before any thread exists and before the first engine is planned.
    for (name, value) in PINNED_CROSSOVERS {
        if std::env::var_os(name).is_none() {
            std::env::set_var(name, value);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: adaflow-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", metrics::contract_json());
        return ExitCode::SUCCESS;
    }
    let ok = match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: Workload, args: &Args) -> bool {
    let traced = args.trace.unwrap_or(false);
    let plan = adaflow_nn::kernel_thresholds();
    println!(
        "workload {} seed={} seconds={} trace={} quick={} nproc={} gemm_min_k={} packed_min_rows={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced),
        args.quick,
        host::nproc(),
        plan.gemm_min_k,
        plan.packed_min_rows
    );
    let run = if traced {
        traced_run(workload, args)
    } else {
        untraced_run(workload, args)
    };
    print!("{}", run.metrics.render());
    for problem in &run.checks.problems {
        println!("FAILED CHECK: {problem}");
    }

    let wanted: Vec<String> = if traced {
        metrics::per_layer().into_iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_string()).collect()
    };
    match run.metrics.to_json(wanted.iter().map(String::as_str)) {
        Ok(metrics) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                run.checks.correct(),
                run.checks.attempted.max(1),
                run.checks.failed
            );
            run.checks.correct()
        }
        Err(missing) => {
            println!("FAILED CHECK: no finite value for {}", missing.join(", "));
            false
        }
    }
}

/// The untraced pass: set-up cycles around the measured phase, which runs
/// with no sink attached. Every end-to-end metric comes from here.
fn untraced_run(workload: Workload, args: &Args) -> Run {
    let mut run = Run::new(args.seed, args.quick, false);
    let setup_round = || {
        let started = Instant::now();
        let mut cycles = Vec::new();
        while cycles.len() < MIN_SETUP_CYCLES
            || (cycles.len() < MAX_SETUP_CYCLES
                && started.elapsed().as_secs_f64() < SETUP_ROUND_S)
        {
            cycles.push(workload.setup_cycle(args.quick));
        }
        cycles
    };
    let mut cycles = setup_round();
    let primary = workload.pass(&mut run, args.seconds);
    cycles.extend(setup_round());
    let listed: Vec<String> = cycles.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-up cycles (ms): {}", listed.join(" "));
    for (k, w) in primary.windows().iter().enumerate() {
        println!(
            "window {} ops={} throughput_per_s={:.4} latency_ms_p50={:.4}",
            k + 1,
            w.ops,
            w.throughput_per_s,
            w.latency_ms_p50
        );
    }

    let m = &mut run.metrics;
    let n = cycles.len();
    stats::sort(&mut cycles);
    m.set("setup_s", stats::quantile(&cycles, 0.25), n);
    m.set(
        "throughput_per_s",
        primary.throughput_per_s(),
        primary.ops.len(),
    );
    m.set(
        "latency_ms_p50",
        primary.latency_ms_p50(),
        primary.ops.len(),
    );
    m.set("peak_rss_mb", host::peak_rss_mb(), 1);
    for def in &END_TO_END {
        let value = m.get(def.name).map_or(0.0, |v| v.value);
        run.checks
            .require(value > 0.0, || format!("{} read {value}", def.name));
    }
    run
}

/// The traced pass: the workload once untraced as the reference and once
/// with the crates' sinks attached and spans kept, both shorter than the
/// untraced pass. Layers the workload does not exercise are read by short
/// default probes first, so every per-layer name is measured in every run;
/// where the workload measures a name itself, its value wins.
fn traced_run(workload: Workload, args: &Args) -> Run {
    let s = args.seconds;
    let mut probes = Run::new(args.seed, args.quick, true);
    engine::micro(&mut probes);
    micro::all(&mut probes);
    des::micro(&mut probes);
    for (other, secs) in [
        (EngineSingleMix, 0.03 * s),
        // The gateway probe reads `client.*` and `net.*` off its tiny
        // backends; the live probe after it replaces them with a CNV
        // server's.
        (GatewayHopTiny, 0.1 * s),
        (LiveOpen25, 0.1 * s),
        (DesFleetWide, 0.05 * s),
        (DesPaper, 0.05 * s),
    ] {
        if !workload.same_layers(other) {
            other.pass(&mut probes, secs);
        }
    }

    let mut run = Run::new(args.seed, args.quick, true);
    let secs = workload.traced_share() * s;
    let reference = workload.pass(&mut run.scratch(), secs);
    let traced = workload.pass(&mut run, secs);
    run.metrics.set(
        "telemetry.trace_overhead_ratio",
        traced.whole_latency_ms_p50() / reference.whole_latency_ms_p50(),
        traced.ops.len(),
    );
    run.metrics.set(
        "cpu_ms_per_op",
        reference.cpu_ms_per_op(),
        reference.attempted as usize,
    );

    let residual_us = live::tile_residual_us(&run);
    println!("span tiling residual {residual_us:.3} us (largest over all request spans)");
    run.checks.require(residual_us < 1.0, || {
        format!("children leave {residual_us:.3} us of a request span uncovered")
    });
    let lag = run
        .metrics
        .get("client.send_lag_ms_p99")
        .map_or(0.0, |m| m.value);
    if lag > 2.0 {
        println!("FLAG generator-bound: client.send_lag_ms_p99 = {lag:.3} ms > 2 ms");
    }

    run.metrics.fill_from(probes.metrics);
    run.checks.problems.extend(
        probes
            .checks
            .problems
            .into_iter()
            .map(|p| format!("default probe: {p}")),
    );
    if let Some(log) = &run.spans {
        let path = PathBuf::from(OUT_DIR).join(format!("{}.spans.jsonl", workload.name()));
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, log.to_jsonl()));
        match written {
            Ok(()) => println!("wrote {} spans to {}", log.spans().len(), path.display()),
            Err(e) => run
                .checks
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    run
}

/// Runs every workload as a child process of its own: the untraced pass,
/// the traced pass, or (no `--trace`) both. Prints what each child printed
/// and a `result <workload> <pass> <json>` line per child.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut results = Vec::new();
    let mut all_ok = true;
    for &traced in passes {
        for workload in ALL {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                command.arg("--quick");
            }
            // `output` waits for the child to end.
            let output = command.output().expect("child process starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_ok &= output.status.success();
            let pass = if traced { "traced" } else { "untraced" };
            match stdout.lines().last().filter(|l| l.starts_with('{')) {
                Some(json) => results.push(format!("result {} {pass} {json}", workload.name())),
                None => println!(
                    "FAILED CHECK: {} ({pass}) printed no result",
                    workload.name()
                ),
            }
            println!();
        }
    }
    for line in &results {
        println!("{line}");
    }
    println!(
        "{}",
        if all_ok {
            "all workloads ran and every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse(&[
            "--workload",
            "des_paper",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(args.workload, Some(DesPaper));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, Some(true)));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        let quick = parse(&["--quick"]).expect("parses");
        assert_eq!((quick.seconds, quick.trace), (1.0, None));
    }

    #[test]
    fn every_listed_workload_is_runnable() {
        assert_eq!(WORKLOADS.len(), ALL.len());
        for (def, workload) in WORKLOADS.iter().zip(ALL) {
            assert_eq!(Workload::parse(def.name), Some(workload));
        }
    }
}
