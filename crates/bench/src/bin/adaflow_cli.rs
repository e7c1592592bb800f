//! `adaflow_cli` — command-line front end to the framework.
//!
//! `adaflow_cli help` prints every subcommand's usage, generated from
//! [`COMMANDS`]; a subcommand given a flag it does not read says so.

use adaflow::prelude::*;
use adaflow_bench::parse_runs;
use adaflow_edge::prelude::*;
use adaflow_fleet::{FleetConfig, FleetEngine, FleetSummary, RouterKind};
use adaflow_hls::FpgaDevice;
use adaflow_model::prelude::*;
use adaflow_model::GraphSummary;
use adaflow_net::{LiveConfig, LoadConfig, LoadMode, LoadSummary, RejectCounts};
use adaflow_nn::{DatasetKind, Engine};
use adaflow_serve::{ServeConfig, ServeEngine, ServeSummary};
use adaflow_telemetry::{
    chrome_trace_json, events_to_jsonl, Event, MetricsRegistry, Recorder, RegistryConfig,
    SinkHandle,
};
use adaflow_verify::{LintConfig, Report, Severity};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Display;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

type Handler = fn(&Flags) -> Result<(), String>;

/// Every model `build_model` knows, which `lint --model all` expands to.
const MODELS: &str = "cnv-w2a2 cnv-w1a2 lenet-w2a2 lenet-w1a2 tiny-w2a2";

/// Usage lines of the flag groups several subcommands share, each group
/// parsed in one place: [`parse_serve_knobs`], [`parse_lint_flags`],
/// [`parse_fleet_config`], [`SimRun`], [`LiveTier`] and [`Soak`].
const SERVE_KNOBS: &str =
    "[--deadline-ms N] [--queue-cap N] [--batch N] [--batch-wait-ms N] [--shed block|oldest|newest]";
const LINT_FLAGS: &str = "[--allow codes] [--deny codes]";
const FLEET_FLAGS: &str = "[--fleet adaflow,fixed-max,flexible-only,reconf:<ms>,..] \
     [--router rr|jsq|p2c|deadline] [--max-drains K]";
const SIM_RUN: &str = "[--seed N] [--runs N] [--format text|json] [--out prefix] [--check 1]";
const LIVE_TIER: &str = "[--nominal-fps F] [--duration-s N] [--format text|json] [--out prefix]";
const SOAK: &str = "[--rate-fps F] [--duration-s N] [--connections N] [--min-hit-pct P] [--seed N]";
/// The policy names [`PolicyKind::parse`] resolves, for every simulator
/// command; `--fleet` takes a comma-separated list of the same names.
const POLICY: &str = "[--policy adaflow|fixed-max|flexible-only|reconf:<ms>]";

/// Every subcommand: its name, its handler and its usage lines, which
/// [`usage`] prints. A subcommand accepts exactly the `--name` tokens of its
/// own lines; any other flag is an error, not a silently stored no-op.
#[rustfmt::skip]
const COMMANDS: &[(&str, Handler, &[&str])] = &[
    ("summary", cmd_summary, &["--model <name>   print the per-layer model card"]),
    ("generate", cmd_generate, &["--model <name> --dataset <d> [--rates a,b,..] [--out file]"]),
    ("inspect", cmd_inspect, &["--library <file>   print a generated library table"]),
    ("simulate", cmd_simulate,
     &["--library <file> [--scenario 1|2|1+2]", POLICY, SIM_RUN,
       "fluid edge-server run, the paper's frame-level model (Table I, Fig. 6)"]),
    ("serve", cmd_serve,
     &["--library <file> [--scenario 1|2|1+2]", POLICY, SERVE_KNOBS, SIM_RUN, LINT_FLAGS,
       "request-level serving run (--batch-wait-ms defaults to 20 in the simulators)"]),
    ("fleet", cmd_fleet,
     &["--library <file> [--scenario 1|2|1+2]", FLEET_FLAGS, SERVE_KNOBS, SIM_RUN, LINT_FLAGS,
       "multi-device fleet simulation behind a load-balancing router"]),
    ("report", cmd_report,
     &["--events <prefix>.jsonl [--top K] [--slo-target 0.97] [--slo-objective deadline|latency]",
       "[--deadline-ms N] [--format text|json] [--out prefix]",
       "per-stage latency waterfall and SLO error-budget burn of the event log a run wrote",
       "with --out; --out writes the log plus its SLO alerts as <prefix>.trace.json",
       "(Perfetto) and <prefix>.prom (the registry exposition /metrics serves)"]),
    ("explore", cmd_explore, &["--model <name> [--target-fps F] [--cap 0.7]"]),
    ("lint", cmd_lint,
     &["[--model <name>|all] [--rates a,b,..] [--library <file>] [--format text|json]",
       FLEET_FLAGS, SERVE_KNOBS, LINT_FLAGS,
       "[--explain CODE|all]   static verification of graphs (AF/DF) and, given any fleet",
       "or serving flag, of fleet/serving configs (FL/SV); --explain prints a rule's catalog entry"]),
    ("serve-live", cmd_serve_live,
     &["--model <name> [--addr host:port] [--threads N] [--metrics-port P]", LIVE_TIER,
       SERVE_KNOBS, LINT_FLAGS, "real TCP serving over the live engine (verify-gated at startup);",
       "--batch-wait-ms defaults to 0 on the live commands: an idle engine serves at once"]),
    ("load", cmd_load,
     &["--addr host:port --model <name> [--requests N | --rate-fps F --duration-s N]",
       "[--connections N] [--deadline-ms N] [--seed N] [--format text|json]",
       "seeded closed/open-loop load generator with reason-coded summary"]),
    ("soak", cmd_soak,
     &["[--model <name>]", SOAK, SERVE_KNOBS, LINT_FLAGS,
       "in-process server + load soak with hard floors (protocol, hit rate, shutdown)"]),
    ("gateway", cmd_gateway,
     &["--model <name> --backends h:p,h:p,.. [--addr host:port] [--router rr|jsq|p2c|deadline]",
       "[--retry-budget N] [--warmup-iters N] [--seed N]", LIVE_TIER, SERVE_KNOBS, LINT_FLAGS,
       "live routing tier over running serve-live backends (verify-gated at startup)"]),
    ("gateway-soak", cmd_gateway_soak,
     &["[--model <name>] [--backends N] [--router rr|jsq|p2c|deadline] [--failover 1] [--hetero 1]",
       "[--load-deadline-ms N]", SOAK, SERVE_KNOBS, LINT_FLAGS,
       "in-process backends + gateway + open-loop load with hard floors; --failover 1",
       "kills backend 0 at t/3, restarts it at 2t/3, and requires ejection+readmission"]),
];

/// The `--name` tokens of `lines`, sorted, each once: the flags a usage
/// entry (or a flag group) names.
fn flag_names<'a>(lines: &[&'a str]) -> Vec<&'a str> {
    let mut names: Vec<&str> = lines
        .iter()
        .flat_map(|line| line.split(|c: char| !c.is_ascii_alphanumeric() && c != '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Looks `args` up in [`COMMANDS`]: the handler to call and its parsed
/// flags, every one of which the subcommand's usage entry names.
fn resolve(args: &[String]) -> Result<(Handler, Flags), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage());
    };
    let Some((name, handler, lines)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    };
    let flags = parse_flags(rest)?;
    let accepted = flag_names(lines);
    if let Some(stray) = flags
        .0
        .keys()
        .filter(|k| !accepted.contains(&k.as_str()))
        .min()
    {
        return Err(format!(
            "unknown flag `--{stray}` for `{name}` (accepted: --{})",
            accepted.join(" --")
        ));
    }
    Ok((*handler, flags))
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some("help" | "--help" | "-h") = args.first().map(String::as_str) {
        println!("{}", usage());
        return Ok(());
    }
    let (handler, flags) = resolve(args)?;
    handler(&flags)
}

/// The usage text, printed from [`COMMANDS`].
fn usage() -> String {
    let mut text = "usage: adaflow_cli <command> [flags]\ncommands:\n".to_string();
    for (name, _, lines) in COMMANDS {
        for (i, line) in lines.iter().enumerate() {
            let head = if i == 0 { name } else { "" };
            text += &format!("  {head:<8} {line}\n");
        }
    }
    let models = MODELS.replace(' ', ", ");
    text + &format!("models: {models}; datasets: cifar10, gtsrb")
}

/// One invocation's `--name value` pairs.
#[derive(Debug)]
struct Flags(HashMap<String, String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// `--name`, else `default`.
    fn or<'f>(&'f self, name: &str, default: &'f str) -> &'f str {
        self.get(name).unwrap_or(default)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing --{name}\n{}", usage()))
    }

    /// A numeric `--name`, if given.
    fn opt_num<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|e| format!("bad --{name}: {e}"));
        self.get(name).map(parse).transpose()
    }

    /// A numeric `--name`, else `default`.
    fn num<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// Whether the switch `--name 1` is on.
    fn on(&self, name: &str) -> bool {
        self.get(name) == Some("1")
    }
}

/// Parses `--key value` pairs; a flag given twice is an error.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{key}`"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        if flags.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(Flags(flags))
}

/// `--format text|json` (default `text`).
fn parse_format(flags: &Flags) -> Result<&str, String> {
    match flags.or("format", "text") {
        format @ ("text" | "json") => Ok(format),
        other => Err(format!("unknown --format `{other}` (text | json)")),
    }
}

fn to_json(value: &impl Serialize) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// Prints `value` as one line of JSON under `--format json`, else runs
/// `text`.
fn print_as(format: &str, value: &impl Serialize, text: impl FnOnce()) -> Result<(), String> {
    if format == "json" {
        println!("{}", to_json(value)?);
    } else {
        text();
    }
    Ok(())
}

/// Prints `report` under `--format text` when it holds a warning or an
/// error.
fn print_findings(report: &Report, format: &str) {
    if format == "text" && report.count(Severity::Warn) + report.count(Severity::Error) > 0 {
        print!("{report}");
    }
}

/// What to tell the operator when `overwritten` events fell off a ring that
/// was full with `kept`.
fn overflow_warning(overwritten: u64, kept: usize) -> Option<String> {
    (overwritten > 0).then(|| {
        format!(
            "warning: the trace ring (capacity {kept}) overwrote its {overwritten} oldest \
             event(s); exports and summaries of this run cover only the newest {kept}"
        )
    })
}

/// Capacity of the trace ring every recording command records into.
const TRACE_RING: usize = 1 << 18;

/// Drains `recorder`, warning on stderr when the ring overflowed — every
/// export, waterfall and summary downstream would under-count silently.
fn drain_events(recorder: &Recorder) -> Vec<Event> {
    let events = recorder.drain();
    // An overflowed ring is full, so what it kept is its capacity.
    if let Some(warning) = overflow_warning(recorder.overwritten(), events.len()) {
        eprintln!("{warning}");
    }
    events
}

/// Writes each `(suffix, contents)` of `files` as `<prefix>.<suffix>`,
/// naming every file on stdout under `--format text`. A run writes only its
/// event log, `<prefix>.jsonl`; `report` writes the views derived from one.
fn write_exports(prefix: &str, format: &str, files: &[(&str, String)]) -> Result<(), String> {
    for (suffix, contents) in files {
        let path = format!("{prefix}.{suffix}");
        std::fs::write(&path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        if format == "text" {
            println!("  wrote {path} ({} bytes)", contents.len());
        }
    }
    Ok(())
}

fn build_model(name: &str, dataset: Option<DatasetKind>) -> Result<CnnGraph, String> {
    let classes = dataset.map_or(10, |d| d.classes());
    let graph = match name {
        "cnv-w2a2" => topology::cnv(QuantSpec::w2a2(), classes).build(),
        "cnv-w1a2" => topology::cnv(QuantSpec::w1a2(), classes).build(),
        "lenet-w2a2" => topology::lenet(QuantSpec::w2a2(), classes),
        "lenet-w1a2" => topology::lenet(QuantSpec::w1a2(), classes),
        "tiny-w2a2" => topology::tiny(QuantSpec::w2a2(), classes.min(10)),
        other => return Err(format!("unknown model `{other}`")),
    };
    graph.map_err(|e| e.to_string())
}

fn parse_dataset(name: &str) -> Result<DatasetKind, String> {
    match name {
        "cifar10" => Ok(DatasetKind::Cifar10),
        "gtsrb" => Ok(DatasetKind::Gtsrb),
        other => Err(format!("unknown dataset `{other}` (cifar10 | gtsrb)")),
    }
}

fn parse_scenario(name: &str) -> Result<Scenario, String> {
    match name {
        "1" => Ok(Scenario::Stable),
        "2" => Ok(Scenario::Unpredictable),
        "1+2" => Ok(Scenario::Shifting),
        other => Err(format!("unknown scenario `{other}` (1 | 2 | 1+2)")),
    }
}

/// `--rates a,b,..`: pruning rates.
fn parse_rates(rates: &str) -> Result<Vec<f64>, String> {
    rates
        .split(',')
        .map(|r| {
            r.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad rate `{r}`: {e}"))
        })
        .collect()
}

fn cmd_summary(flags: &Flags) -> Result<(), String> {
    let graph = build_model(flags.required("model")?, None)?;
    print!("{}", GraphSummary::of(&graph));
    println!();
    println!("engine kernel plan (`lint` rule AF009 explains why a layer does not pack):");
    let engine = Engine::new(&graph).map_err(|e| e.to_string())?;
    for k in engine.kernels() {
        println!("  {:<10} {}", k.layer, k.kernel);
    }
    Ok(())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let dataset = parse_dataset(flags.required("dataset")?)?;
    let graph = build_model(flags.required("model")?, Some(dataset))?;
    let mut generator = LibraryGenerator::default_edge_setup();
    if let Some(rates) = flags.get("rates") {
        generator.pruning_rates = parse_rates(rates)?;
    }
    let library = generator
        .generate(&graph, dataset)
        .map_err(|e| e.to_string())?;
    let models = library.entries().len();
    println!(
        "generated {models} models for {} on {} (baseline {:.0} FPS)",
        library.initial_model, library.device, library.baseline.throughput_fps
    );
    if let Some(path) = flags.get("out") {
        let json = library.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("library table written to {path} ({} bytes)", json.len());
    }
    Ok(())
}

fn load_library(flags: &Flags) -> Result<Library, String> {
    let path = flags.required("library")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Library::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let library = load_library(flags)?;
    let (models, fabric) = (library.entries().len(), &library.flexible.resources);
    println!(
        "{} on {} — {models} models, flexible fabric {} LUT / {} BRAM36",
        library.initial_model, library.device, fabric.lut, fabric.bram36
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "rate%", "achieved%", "accuracy", "FPS", "LUT", "BRAM"
    );
    for e in library.entries() {
        let (rate, achieved) = (e.requested_rate * 100.0, e.achieved_rate * 100.0);
        println!(
            "{rate:>6.0} {achieved:>9.1} {:>9.2} {:>9.0} {:>10} {:>8}",
            e.accuracy, e.fixed.throughput_fps, e.fixed.resources.lut, e.fixed.resources.bram36
        );
    }
    Ok(())
}

/// The paper's frame-level model: the fluid edge server under a policy,
/// one recorded run or the mean of `--runs` seeded ones.
fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let sim = SimRun::parse(flags)?;
    let library = load_library(flags)?;
    let policy = flags.or("policy", "adaflow");
    let kind = parse_policy(policy)?;

    let spec = sim.spec();
    let (metrics, events) = sim.execute(
        |seed, sink| {
            // The policy records its decisions on the run's sink.
            let mut policy = kind.build(&library, 0.0, &sink);
            let edge = EdgeSim::new(SimConfig::default()).with_sink(sink);
            edge.run(policy.as_mut(), &spec.generate(seed)).0
        },
        RunMetrics::mean,
        "frame",
        |m| {
            let holds = (m.offered - m.processed - m.lost).abs() <= 1e-9 * m.offered;
            (holds, m.offered, m.processed, m.lost)
        },
    )?;
    let json = || sim.json(&metrics, events.len());
    let text = || {
        let (m, name, runs) = (&metrics, sim.scenario.name(), sim.runs_label());
        println!(
            "{policy} under {name} ({runs}): loss {:.2}%  QoE {:.2}  power {:.2} W  \
             {:.0} inf/J  switches {:.1} (reconf {:.1}, flexible {:.1})  latency {:.1} ms",
            m.frame_loss_pct,
            m.qoe_pct,
            m.avg_power_w,
            m.inferences_per_joule,
            m.model_switches,
            m.reconfigurations,
            m.flexible_switches,
            m.mean_latency_ms
        );
        if !events.is_empty() {
            println!("  events: {} recorded", events.len());
        }
    };
    sim.finish(json, text, &events)
}

/// One name of the policy table: `--policy`, or one entry of `--fleet`.
/// An unknown name's error lists the table ([`POLICY`]).
fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(name).ok_or_else(|| format!("unknown policy `{name}`; expected {POLICY}"))
}

/// The simulator run ([`SIM_RUN`] and `--scenario`), parsed once for
/// `simulate`, `serve` and `fleet`, and the skeleton they share: the seeded
/// sweep, conservation check, `--check 1` replay, output and event log,
/// plus the config-lint gate of the request-level two.
struct SimRun<'f> {
    scenario: Scenario,
    seeds: Seeds,
    format: &'f str,
    check: bool,
    out: Option<&'f str>,
}

impl<'f> SimRun<'f> {
    /// Parses the run, refusing `--out` over several runs (only a single
    /// run records) before any library is read or any run starts.
    fn parse(flags: &'f Flags) -> Result<Self, String> {
        let sim = SimRun {
            scenario: parse_scenario(flags.or("scenario", "2"))?,
            seeds: Seeds::new(
                flags.num("seed", 1)?,
                flags.get("runs").map_or(Ok(1), parse_runs)?,
            ),
            format: parse_format(flags)?,
            check: flags.on("check"),
            out: flags.get("out"),
        };
        if sim.out.is_some() && sim.seeds.runs > 1 {
            return Err("--out requires a single run (--runs 1) to record events".to_string());
        }
        Ok(sim)
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::paper_edge(self.scenario)
    }

    /// The config-lint gate: refuses an Error-level finding with `refusal`
    /// and the findings, else prints those worth reading.
    fn gate(&self, report: &Report, refusal: &str) -> Result<(), String> {
        if report.has_errors() {
            return Err(format!("{refusal}\n{}", report.to_string().trim_end()));
        }
        print_findings(report, self.format);
        Ok(())
    }

    /// Runs `run(seed, sink)` once per seed — a single run on a recording
    /// sink, each run of a sweep on the null sink, averaged by `mean` —
    /// holds its `what` ledger `(holds, arrived, completed, shed)` and,
    /// under `--check 1`, replays it to the same summary and the same
    /// events.
    fn execute<S: PartialEq + Send>(
        &self,
        run: impl Fn(u64, SinkHandle) -> S + Sync,
        mean: fn(&[S]) -> Option<S>,
        what: &str,
        ledger: impl Fn(&S) -> (bool, f64, f64, f64),
    ) -> Result<(S, Vec<Event>), String> {
        let once = || {
            if self.seeds.runs == 1 {
                let (sink, recorder) = SinkHandle::recorder(TRACE_RING);
                (run(self.seeds.first, sink), drain_events(&recorder))
            } else {
                let all = self.seeds.map(|seed| run(seed, SinkHandle::null()));
                (mean(&all).expect("at least one run"), Vec::new())
            }
        };
        let first = once();
        let (holds, arrived, completed, shed) = ledger(&first.0);
        if !holds {
            return Err(format!(
                "{what} conservation violated: arrived {arrived} != completed {completed} + shed {shed}"
            ));
        }
        if self.check && once() != first {
            return Err("determinism check failed: repeated run diverged".to_string());
        }
        Ok(first)
    }

    /// `seed N, K run(s)` for a headline.
    fn runs_label(&self) -> String {
        let Seeds { first, runs, .. } = self.seeds;
        let plural = if runs == 1 { "" } else { "s" };
        format!("seed {first}, {runs} run{plural}")
    }

    /// The `--format json` document of a run.
    fn json(&self, summary: &impl Serialize, events: usize) -> Result<String, String> {
        let (s, runs) = (to_json(summary)?, self.seeds.runs);
        let json = format!("{{\"summary\":{s},\"runs\":{runs},\"events\":{events}}}");
        Ok(json)
    }

    /// Prints the outcome — `json()` under `--format json`, else `text()`
    /// and the replay's verdict — then writes `events` as the `--out
    /// <prefix>` event log.
    fn finish(
        &self,
        json: impl FnOnce() -> Result<String, String>,
        text: impl FnOnce(),
        events: &[Event],
    ) -> Result<(), String> {
        if self.format == "json" {
            println!("{}", json()?);
        } else {
            text();
            if self.check {
                println!("  determinism: repeated run identical");
            }
        }
        let Some(prefix) = self.out else {
            return Ok(());
        };
        write_exports(prefix, self.format, &[("jsonl", events_to_jsonl(events))])
    }
}

/// Request-level serving: deadline accounting, admission control and
/// dynamic batching over the paper's workload scenarios.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let sim = SimRun::parse(flags)?;
    let library = load_library(flags)?;
    let policy = flags.or("policy", "adaflow");
    let kind = parse_policy(policy)?;
    let config = sim_serve_knobs(flags)?;

    // Static SV001/SV002 validation through the shared lint machinery.
    let lint = parse_lint_flags(flags);
    let report = config.validate(sim.spec().nominal_fps(), kind.worst_stall_s(&library), lint);
    sim.gate(&report, "serve configuration failed SV lint")?;

    let spec = sim.spec();
    let (summary, events) = sim.execute(
        |seed, sink| {
            // The engine records the requests; the policy records nothing.
            let mut policy = kind.build(&library, config.deadline_s, &SinkHandle::null());
            let engine = ServeEngine::new(config.clone()).with_sink(sink);
            engine.run(&spec, seed, policy.as_mut())
        },
        ServeSummary::mean,
        "request",
        |s| (s.conservation_holds(), s.arrived, s.completed, s.shed),
    )?;
    let json = || sim.json(&summary, events.len());
    let text = || {
        let (s, name, runs) = (&summary, sim.scenario.name(), sim.runs_label());
        println!("{policy} under {name} ({runs}): {:.0} requests", s.arrived);
        let (p50, p95) = (s.latency_p50_s * 1e3, s.latency_p95_s * 1e3);
        let (p99, mean) = (s.latency_p99_s * 1e3, s.latency_mean_s * 1e3);
        println!(
            "  deadline: {:.2}% hits within {:.0} ms (latency p50 {p50:.1} ms, p95 {p95:.1} ms, \
             p99 {p99:.1} ms, mean {mean:.1} ms)",
            s.deadline_hit_pct,
            config.deadline_s * 1e3
        );
        let overflow = flags.or("shed", "block");
        println!(
            "  shed: {:.2}% ({:.0} requests, overflow {overflow})",
            s.shed_pct, s.shed
        );
        let (wait, service) = (s.queue_wait_mean_s * 1e3, s.service_mean_s * 1e3);
        println!(
            "  batches: {:.0} closed, mean size {:.1}, queue wait {wait:.1} ms, service {service:.1} ms",
            s.batches, s.mean_batch_size
        );
        println!(
            "  control: {:.1} switches ({:.1} reconf, {:.1} flexible), stall {:.3} s, \
             accuracy {:.2}%",
            s.model_switches,
            s.reconfigurations,
            s.flexible_switches,
            s.stall_total_s,
            s.mean_accuracy_pct
        );
        if !events.is_empty() {
            println!("  events: {} recorded", events.len());
        }
    };
    sim.finish(json, text, &events)
}

/// Applies the serving knobs ([`SERVE_KNOBS`]) to `base`, which supplies
/// every knob left out: see [`sim_serve_knobs`] and [`LiveStack`].
fn parse_serve_knobs(flags: &Flags, mut base: ServeConfig) -> Result<ServeConfig, String> {
    let seconds = |name: &str, base_s: f64| {
        Ok::<f64, String>(flags.opt_num::<f64>(name)?.map_or(base_s, |ms| ms / 1e3))
    };
    base.deadline_s = seconds("deadline-ms", base.deadline_s)?;
    base.queue_capacity = flags.num("queue-cap", base.queue_capacity)?;
    base.max_batch = flags.num("batch", base.max_batch)?;
    base.max_wait_s = seconds("batch-wait-ms", base.max_wait_s)?;
    if let Some(name) = flags.get("shed") {
        base.overflow = adaflow_serve::OverflowPolicy::parse(name)
            .ok_or_else(|| format!("unknown --shed `{name}` (block | oldest | newest)"))?;
    }
    Ok(base)
}

/// The serving knobs of the simulator commands (`serve`, `fleet`, `lint`),
/// over `ServeConfig::default()`: `--batch-wait-ms` defaults to 20.
fn sim_serve_knobs(flags: &Flags) -> Result<ServeConfig, String> {
    parse_serve_knobs(flags, ServeConfig::default())
}

/// The `--allow` / `--deny` lint policy ([`LINT_FLAGS`]).
fn parse_lint_flags(flags: &Flags) -> LintConfig {
    let codes = |name| {
        flags
            .get(name)
            .map(LintConfig::parse_codes)
            .unwrap_or_default()
    };
    LintConfig {
        allow: codes("allow"),
        deny: codes("deny"),
    }
}

fn parse_router(flags: &Flags) -> Result<RouterKind, String> {
    let name = flags.or("router", "deadline");
    RouterKind::parse(name)
        .ok_or_else(|| format!("unknown --router `{name}` (rr | jsq | p2c | deadline)"))
}

/// The fleet ([`FLEET_FLAGS`]) over the simulators' serving knobs.
fn parse_fleet_config(flags: &Flags) -> Result<FleetConfig, String> {
    let devices = flags
        .or("fleet", "adaflow,adaflow,flexible,fixed")
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(parse_policy)
        .collect::<Result<_, _>>()?;
    Ok(FleetConfig {
        devices,
        router: parse_router(flags)?,
        serve: sim_serve_knobs(flags)?,
        max_concurrent_drains: flags.num("max-drains", 1)?,
    })
}

/// The FL fleet rules, then the SV serving rules of one device, which sees
/// its share of `nominal_fps` and can stall as long as the worst of the
/// fleet's policies over `library` (without one, SV002 sees no stall).
fn lint_fleet(
    config: &FleetConfig,
    nominal_fps: f64,
    library: Option<&Library>,
    lint: &LintConfig,
) -> [Report; 2] {
    let share_fps = nominal_fps / config.devices.len().max(1) as f64;
    let worst_stall_s = library.map_or(0.0, |library| {
        let stall_s = |kind: &PolicyKind| kind.worst_stall_s(library);
        config.devices.iter().map(stall_s).fold(0.0, f64::max)
    });
    let serving = config
        .serve
        .validate(share_fps, worst_stall_s, lint.clone());
    [config.validate(lint.clone()), serving]
}

/// Fleet-level serving: N simulated accelerator devices behind a
/// load-balancing router, with staggered reconfiguration drains.
fn cmd_fleet(flags: &Flags) -> Result<(), String> {
    let sim = SimRun::parse(flags)?;
    let library = load_library(flags)?;
    let config = parse_fleet_config(flags)?;

    // Static validation; a device can stall as long as its policy's worst
    // switch.
    let lint = parse_lint_flags(flags);
    let fps = sim.spec().nominal_fps();
    let [mut report, serving] = lint_fleet(&config, fps, Some(&library), &lint);
    report.merge(serving);
    sim.gate(&report, "fleet configuration failed FL/SV lint")?;

    let spec = sim.spec();
    let (summary, events) = sim.execute(
        |seed, sink| {
            let engine = FleetEngine::new(config.clone()).with_sink(sink);
            engine.run(&library, &spec, seed)
        },
        FleetSummary::mean,
        "fleet",
        |s| (s.conservation_holds(), s.arrived, s.completed, s.shed),
    )?;
    let json = || sim.json(&summary, events.len());
    let text = || {
        let s = &summary;
        let kinds: Vec<String> = config.devices.iter().map(|k| k.name()).collect();
        let (devices, kinds) = (kinds.len(), kinds.join(","));
        let (name, runs) = (sim.scenario.name(), sim.runs_label());
        println!(
            "fleet of {devices} [{kinds}] under {name} via {} ({runs}): {:.0} requests",
            s.router, s.arrived
        );
        let (p50, p95) = (s.latency_p50_s * 1e3, s.latency_p95_s * 1e3);
        let (p99, mean) = (s.latency_p99_s * 1e3, s.latency_mean_s * 1e3);
        println!(
            "  deadline: {:.2}% hits within {:.0} ms (latency p50 {p50:.1} ms, p95 {p95:.1} ms, \
             p99 {p99:.1} ms, mean {mean:.1} ms)",
            s.deadline_hit_pct,
            config.serve.deadline_s * 1e3
        );
        println!(
            "  shed: {:.2}% ({:.0} requests); batches {:.0}, mean size {:.1}",
            s.shed_pct, s.shed, s.batches, s.mean_batch_size
        );
        println!(
            "  balance: imbalance cv mean {:.3} / max {:.3}, routed-share cv {:.3}",
            s.imbalance_cv_mean, s.imbalance_cv_max, s.routed_share_cv
        );
        println!(
            "  stagger: max {:.0} concurrent drain(s) under a budget of {}; \
             {:.1} switches ({:.1} reconf, {:.1} flexible), stall {:.3} s",
            s.observed_max_drains,
            config.max_concurrent_drains,
            s.model_switches,
            s.reconfigurations,
            s.flexible_switches,
            s.stall_total_s
        );
        for (idx, d) in s.per_device.iter().enumerate() {
            let (hit, util) = (d.deadline_hit_pct, d.utilization_pct);
            println!(
                "  device {idx} {:>13}: {:>6.0} routed, hit {hit:>6.2}%, util {util:>5.1}%, \
                 shed {:.0}, reconf {:.1}",
                d.kind, d.arrived, d.shed, d.reconfigurations
            );
        }
    };
    sim.finish(json, text, &events)
}

/// Causal latency attribution over a run's exported event log: rebuilds the
/// span forest and reports the counters, the per-stage waterfall and the SLO
/// error-budget burn. It runs nothing — the log any run command wrote with
/// `--out` is its whole input — and is the one writer of the views derived
/// from a log.
fn cmd_report(flags: &Flags) -> Result<(), String> {
    use adaflow_telemetry::{
        events_from_jsonl, Objective, SloConfig, SloEngine, TraceForest, Waterfall,
    };

    let path = flags.required("events")?;
    let top: usize = flags.num("top", 3)?;
    let target: f64 = flags.num("slo-target", 0.97)?;
    if !(target > 0.0 && target < 1.0) {
        return Err("--slo-target must lie strictly inside (0, 1)".to_string());
    }
    let objective_name = flags.or("slo-objective", "deadline");
    let objective = Objective::from_label(objective_name).ok_or_else(|| {
        format!("unknown --slo-objective `{objective_name}` (deadline | latency)")
    })?;
    // The latency objective: `--deadline-ms`, else the simulators' budget.
    let latency_objective_s = flags
        .opt_num::<f64>("deadline-ms")?
        .map_or(ServeConfig::default().deadline_s, |ms| ms / 1e3);
    if !(latency_objective_s > 0.0 && latency_objective_s.is_finite()) {
        return Err("--deadline-ms must be a positive number".to_string());
    }
    let format = parse_format(flags)?;

    let log = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = events_from_jsonl(&log).map_err(|e| format!("parsing {path}: {e}"))?;
    let forest = TraceForest::from_events(&events);
    forest
        .validate()
        .map_err(|e| format!("invalid span forest: {e}"))?;
    let waterfall = Waterfall::from_forest(&forest, top);
    let mut registry = MetricsRegistry::new(RegistryConfig {
        latency_objective_s,
    });
    registry.observe_all(&events);
    let slo = SloEngine::new(SloConfig { objective, target }).evaluate(&registry);
    // A fluid log holds frames, not requests: no latency to split and no
    // request to hold to an objective. Serving logs enqueue their requests;
    // gateway logs only route them.
    let requests =
        registry.counter("requests_enqueued") + registry.counter("requests_routed") > 0.0;

    if format == "json" {
        println!(
            "{{\"events\":{},\"waterfall\":{},\"slo\":{}}}",
            events.len(),
            to_json(&requests.then_some(&waterfall))?,
            to_json(&requests.then_some(&slo))?
        );
    } else {
        println!("{path}: {} events; counters by name:", events.len());
        for (name, value) in registry.counters() {
            let digits = if value.fract() == 0.0 { 0 } else { 3 };
            println!("  {name:<22} {value:.digits$}");
        }
        if requests {
            print!("{}", waterfall.render_text());
            let (target, good) = (slo.target * 100.0, slo.good_fraction * 100.0);
            println!(
                "slo ({}, target {target:.2}%): good {good:.2}%, error budget {:.1} requests, \
                 consumed {:.1}%",
                slo.objective, slo.error_budget, slo.budget_consumed_pct
            );
            println!(
                "  burn: overall {:.2}x, worst short({:.0}s) {:.2}x, worst long({:.0}s) {:.2}x, \
                 alert threshold {:.1}x, alerts {}",
                slo.overall_burn_rate,
                slo.short_window_s,
                slo.worst_short_burn,
                slo.long_window_s,
                slo.worst_long_burn,
                slo.alert_burn_rate,
                slo.alerts.len()
            );
        } else {
            println!("no request events: the log has no latency waterfall and no SLO");
        }
    }
    let Some(prefix) = flags.get("out") else {
        return Ok(());
    };
    // The views are the log plus its SLO alerts, which carry the log's own
    // timestamps: the Perfetto view shows each burn in place and `.prom`
    // counts them.
    registry.observe_all(&slo.alerts);
    let mut exported = events;
    exported.extend(slo.alerts);
    let views = [
        ("trace.json", chrome_trace_json(&exported)),
        ("prom", registry.to_prometheus()),
    ];
    write_exports(prefix, format, &views)
}

/// Lints one graph end to end: the `AF` graph rules, the `DF` folding rule
/// against the model's reference folding, and — when the accelerator
/// compiles — the `DF` pipeline rules. Returns one merged report.
fn lint_graph(graph: &CnnGraph, lint: &LintConfig) -> Result<Report, String> {
    use adaflow_dataflow::{verify_dataflow, AcceleratorKind, DataflowAccelerator};
    use adaflow_pruning::FinnConfig;

    let verifier = adaflow_verify::Verifier::new().with_config(lint.clone());
    let mut report = verifier.verify(graph);
    let config = FinnConfig::cnv_reference(graph).map_err(|e| e.to_string())?;
    let accel = DataflowAccelerator::compile(graph, &config, AcceleratorKind::Finn)
        .map_err(|e| format!("{}: compiling accelerator: {e}", graph.name()))?;
    report.merge(verify_dataflow(graph, &config, Some(&accel), lint.clone()));
    Ok(report)
}

/// `lint --explain <CODE|all>`: prints the rule-catalog entry (summary,
/// severity range, paper provenance, example fix) for one diagnostic code,
/// or for every registered code.
fn cmd_explain(code: &str) -> Result<(), String> {
    let docs: Vec<&adaflow_verify::RuleDoc> = if code.eq_ignore_ascii_case("all") {
        adaflow_verify::rule_docs().iter().collect()
    } else {
        vec![adaflow_verify::explain(code).ok_or_else(|| {
            format!("unknown rule code `{code}` — `--explain all` lists every code")
        })?]
    };
    for (i, doc) in docs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{} — {}", doc.code, doc.summary);
        println!("  severity:   {}", doc.severities);
        println!("  provenance: {}", doc.provenance);
        println!("  fix:        {}", doc.example_fix);
    }
    Ok(())
}

/// The reports `lint` prints: the fleet/serving config rules (FL + SV)
/// when any flag of [`FLEET_FLAGS`] or [`SERVE_KNOBS`] asks for them, then
/// each `--model` graph at each `--rates` pruning rate.
fn lint_reports(flags: &Flags) -> Result<Vec<Report>, String> {
    use adaflow_pruning::{DataflowAwarePruner, FinnConfig};

    // The config rules ride on the same allow/deny policy and error exit as
    // the graph rules; when they are asked for, `--model` is optional.
    let config_requested = flag_names(&[FLEET_FLAGS, SERVE_KNOBS])
        .iter()
        .any(|f| flags.get(f).is_some());
    let models: Vec<&str> = match flags.get("model") {
        Some("all") => MODELS.split(' ').collect(),
        Some(name) => vec![name],
        None if config_requested => Vec::new(),
        None => return Err(format!("missing --model\n{}", usage())),
    };
    let rates = flags.get("rates").map_or(Ok(vec![0.0]), parse_rates)?;
    let lint = parse_lint_flags(flags);

    let mut reports = Vec::new();
    if config_requested {
        // On the paper's edge load. The worst-case stall needs a concrete
        // library; without `--library` SV002 sees no stall.
        let library = flags
            .get("library")
            .map(|_| load_library(flags))
            .transpose()?;
        let fps = WorkloadSpec::paper_edge(Scenario::Unpredictable).nominal_fps();
        let config = parse_fleet_config(flags)?;
        reports.extend(lint_fleet(&config, fps, library.as_ref(), &lint));
    }
    for name in models {
        let graph = build_model(name, None)?;
        reports.push(lint_graph(&graph, &lint)?);
        let pruner =
            DataflowAwarePruner::new(FinnConfig::cnv_reference(&graph).map_err(|e| e.to_string())?);
        for &rate in rates.iter().filter(|&&rate| rate != 0.0) {
            let pruned = pruner.prune(&graph, rate).map_err(|e| e.to_string())?;
            reports.push(lint_graph(&pruned.graph, &lint)?);
        }
    }
    Ok(reports)
}

fn cmd_lint(flags: &Flags) -> Result<(), String> {
    if let Some(code) = flags.get("explain") {
        return cmd_explain(code);
    }
    let format = parse_format(flags)?;
    let reports = lint_reports(flags)?;
    let errors: usize = reports.iter().map(|r| r.count(Severity::Error)).sum();
    if format == "json" {
        let docs: Result<Vec<String>, _> = reports.iter().map(Report::to_json).collect();
        println!("[{}]", docs.map_err(|e| e.to_string())?.join(",\n"));
    } else {
        for report in &reports {
            print!("{report}");
        }
        let warnings: usize = reports.iter().map(|r| r.count(Severity::Warn)).sum();
        println!(
            "lint: {} subject(s), {errors} error(s), {warnings} warning(s)",
            reports.len()
        );
    }
    if errors > 0 {
        return Err(format!("lint found {errors} error(s)"));
    }
    Ok(())
}

fn cmd_explore(flags: &Flags) -> Result<(), String> {
    let graph = build_model(flags.required("model")?, None)?;
    let goal = ExplorationGoal {
        target_fps: flags.num("target-fps", 600.0)?,
        device: FpgaDevice::zcu104(),
        utilization_cap: flags.num("cap", 0.7)?,
    };
    let result = FoldingExplorer::new(goal)
        .explore(&graph)
        .map_err(|e| e.to_string())?;
    let met = if result.target_met { "met" } else { "NOT met" };
    println!(
        "explored folding in {} moves: {:.0} FPS (target {met}) — {} LUT, {} BRAM36",
        result.moves, result.throughput_fps, result.resources.lut, result.resources.bram36
    );
    for (id, f) in result.folding.entries() {
        let name = &graph.nodes()[id.0].name;
        println!("  {name}: PE {}, SIMD {}", f.pe, f.simd);
    }
    Ok(())
}

/// The live stack of `serve-live`, `soak`, `gateway` and `gateway-soak`:
/// `--model` and its graph, the serving knobs over `LiveConfig::default()`
/// (`--batch-wait-ms` 0) and the lint policy of the start-up verify gate.
struct LiveStack {
    model: String,
    graph: CnnGraph,
    serve: ServeConfig,
    lint: LintConfig,
}

impl LiveStack {
    /// `default_model` is `None` where `--model` is required.
    fn parse(flags: &Flags, default_model: Option<&str>) -> Result<Self, String> {
        let model = match default_model {
            Some(default) => flags.or("model", default),
            None => flags.required("model")?,
        };
        Ok(LiveStack {
            model: model.to_string(),
            graph: build_model(model, None)?,
            serve: parse_serve_knobs(flags, LiveConfig::default().serve)?,
            lint: parse_lint_flags(flags),
        })
    }

    /// The verify gate at `nominal_fps`: an Error-level finding refuses to
    /// start. Worst stall is zero — a live tier serves a single model.
    fn preflight(&self, nominal_fps: f64) -> Result<Report, String> {
        adaflow_net::preflight(&self.graph, &self.serve, nominal_fps, 0.0, &self.lint)
            .map_err(|e| e.to_string())
    }

    fn config(&self) -> LiveConfig {
        LiveConfig {
            serve: self.serve.clone(),
            model_id: self.model.clone(),
            ..LiveConfig::default()
        }
    }

    /// The gateway's warm-up of each backend: `iters` requests (0 = none).
    fn warmup(&self, iters: u32) -> Option<adaflow_gateway::WarmupSpec> {
        let shape = self.graph.input_shape();
        (iters > 0).then(|| adaflow_gateway::WarmupSpec {
            model: self.model.clone(),
            channels: shape.channels as u16,
            height: shape.height as u16,
            width: shape.width as u16,
            iters,
        })
    }
}

/// What `serve-live` and `gateway` share around their listener
/// ([`LIVE_TIER`]): the preflight at `--nominal-fps`, the `--duration-s`
/// stop timer (0 = run until killed) and the `--out` event log.
struct LiveTier<'f> {
    nominal_fps: f64,
    duration_s: f64,
    format: &'f str,
    out: Option<&'f str>,
}

impl<'f> LiveTier<'f> {
    fn parse(flags: &'f Flags) -> Result<Self, String> {
        Ok(LiveTier {
            nominal_fps: flags.num("nominal-fps", 100.0)?,
            duration_s: flags.num("duration-s", 0.0)?,
            format: parse_format(flags)?,
            out: flags.get("out"),
        })
    }

    /// Calls `stop` on a timer thread after `--duration-s`, if set, and
    /// returns the `, for N s` the start-up line then ends with.
    fn stop_after(&self, stop: impl FnOnce() + Send + 'static) -> String {
        if self.duration_s <= 0.0 {
            return String::new();
        }
        let duration = Duration::from_secs_f64(self.duration_s);
        std::thread::spawn(move || {
            std::thread::sleep(duration);
            stop();
        });
        format!(", for {:.0} s", self.duration_s)
    }

    /// The `--out` event log of the run's `events`.
    fn export(&self, events: impl FnOnce() -> Vec<Event>) -> Result<(), String> {
        let Some(prefix) = self.out else {
            return Ok(());
        };
        write_exports(
            prefix,
            self.format,
            &[("jsonl", events_to_jsonl(&events()))],
        )
    }
}

/// Serves a model over real TCP sockets on the live inference engine,
/// verify-gated at start-up like `serve`.
fn cmd_serve_live(flags: &Flags) -> Result<(), String> {
    use adaflow_net::{LiveServer, MetricsEndpoint};
    use adaflow_telemetry::RegistrySink;
    use std::sync::Arc;

    let stack = LiveStack::parse(flags, None)?;
    let tier = LiveTier::parse(flags)?;
    let threads: usize = flags.num("threads", 0)?;
    let metrics_port: Option<u16> = flags.opt_num("metrics-port")?;
    let addr = flags.or("addr", "127.0.0.1:7878");
    print_findings(&stack.preflight(tier.nominal_fps)?, tier.format);

    let (trace_sink, recorder) = SinkHandle::recorder(TRACE_RING);
    let registry = RegistrySink::new(RegistryConfig::default());
    let sink = SinkHandle::fanout(vec![trace_sink, SinkHandle::new(registry.clone())]);
    let config = LiveConfig {
        threads,
        ..stack.config()
    };
    let server = LiveServer::bind(addr, &stack.graph, config, sink).map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;

    // Optional Prometheus scrape endpoint, on its own thread.
    let metrics_stop = Arc::new(adaflow_proto::server::Stop::new());
    let metrics_thread = match metrics_port {
        Some(port) => {
            let endpoint =
                MetricsEndpoint::bind(("127.0.0.1", port), registry, metrics_stop.clone())
                    .map_err(|e| format!("binding metrics endpoint: {e}"))?;
            let metrics_addr = endpoint.local_addr().map_err(|e| e.to_string())?;
            if tier.format == "text" {
                println!("metrics: http://{metrics_addr}/metrics");
            }
            Some(std::thread::spawn(move || endpoint.serve()))
        }
        None => None,
    };

    let handle = server.handle();
    let timed = tier.stop_after(move || handle.shutdown());
    if tier.format == "text" {
        let serve = &stack.serve;
        let (deadline, wait) = (serve.deadline_s * 1e3, serve.max_wait_s * 1e3);
        println!(
            "serving {} on {bound}: deadline {deadline:.0} ms, queue {}, batch {} / {wait:.0} ms{timed}",
            stack.model, serve.queue_capacity, serve.max_batch
        );
    }

    let report = server.run().map_err(|e| e.to_string())?;
    metrics_stop.raise();
    if let Some(t) = metrics_thread {
        let _ = t.join();
    }
    let events = drain_events(&recorder);

    print_as(tier.format, &report, || {
        let s = &report.summary;
        println!(
            "live: {:.0} arrived over {:.1} s — {:.0} served ({:.1} req/s), {:.0} shed",
            s.arrived, report.duration_s, s.completed, report.throughput_rps, s.shed
        );
        println!(
            "  deadline: {:.2}% hits (latency p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms)",
            s.deadline_hit_pct,
            s.latency_p50_s * 1e3,
            s.latency_p95_s * 1e3,
            s.latency_p99_s * 1e3
        );
        let (wait, service) = (s.queue_wait_mean_s * 1e3, s.service_mean_s * 1e3);
        let floor = report.min_service_s * 1e3;
        println!(
            "  batches: {:.0} closed, mean size {:.1}, queue wait {wait:.1} ms, \
             service {service:.1} ms (floor {floor:.2} ms)",
            s.batches, s.mean_batch_size
        );
        println!("{}", rejects_line(&report.rejects));
        let recorded = events.len();
        println!(
            "  wire: {} connection(s), {} protocol error(s), {} send error(s), \
             {} accept error(s), {recorded} event(s) recorded",
            report.connections, report.protocol_errors, report.send_errors, report.accept_errors
        );
    })?;
    tier.export(|| events)
}

/// The seeded load `load`, `soak` and `gateway-soak` offer: `--requests`
/// round trips per connection (`load` only), else `--rate-fps` for
/// `--duration-s`; over `--connections`, seeded by `--seed`.
struct LoadPlan {
    requests: Option<u64>,
    rate_fps: f64,
    duration_s: f64,
    connections: usize,
    seed: u64,
}

impl LoadPlan {
    /// Parses the plan over the command's `(rate_fps, duration_s,
    /// connections)` defaults.
    fn parse(flags: &Flags, defaults: (f64, f64, usize)) -> Result<Self, String> {
        Ok(LoadPlan {
            requests: flags.opt_num("requests")?,
            rate_fps: flags.num("rate-fps", defaults.0)?,
            duration_s: flags.num("duration-s", defaults.1)?,
            connections: flags.num("connections", defaults.2)?,
            seed: flags.num("seed", 7)?,
        })
    }

    /// The load generator's config: `model` requests of `shape` against
    /// `addr`, each with a `deadline_ms` budget (0 = the server's default).
    fn config(
        &self,
        addr: SocketAddr,
        model: &str,
        shape: TensorShape,
        deadline_ms: f64,
    ) -> LoadConfig {
        let (rate_fps, duration_s) = (self.rate_fps, self.duration_s);
        let mode = match self.requests {
            Some(requests) => LoadMode::Closed { requests },
            None => LoadMode::Open {
                rate_fps,
                duration_s,
            },
        };
        LoadConfig {
            connections: self.connections,
            mode,
            deadline_us: (deadline_ms * 1e3).max(0.0) as u64,
            seed: self.seed,
            ..LoadConfig::closed(addr, model, shape, 0)
        }
    }
}

impl Display for LoadPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} req/s x {:.0} s over {} connection(s), seed {}",
            self.rate_fps, self.duration_s, self.connections, self.seed
        )
    }
}

/// Drives seeded load against a live endpoint and prints the
/// reason-coded summary.
fn cmd_load(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad --addr `{addr}`: {e}"))?;
    let model = flags.required("model")?;
    let shape = build_model(model, None)?.input_shape();
    let plan = LoadPlan::parse(flags, (100.0, 5.0, 1))?;
    let deadline_ms: f64 = flags.num("deadline-ms", 0.0)?;
    let format = parse_format(flags)?;
    let summary = adaflow_net::run_load(&plan.config(addr, model, shape, deadline_ms));
    print_as(format, &summary, || print_load_summary(&summary))
}

/// The `rejects:` line every live report prints: one tally per reason, in
/// wire-code order.
fn rejects_line(r: &RejectCounts) -> String {
    format!(
        "  rejects: queue-full {}, deadline-infeasible {}, shutting-down {}, unknown-model {}, \
         bad-request {}",
        r.queue_full, r.deadline_infeasible, r.shutting_down, r.unknown_model, r.bad_request
    )
}

fn print_load_summary(summary: &LoadSummary) {
    let (rejected, hit_pct) = (summary.rejects.total(), summary.hit_pct());
    println!(
        "load: {} sent — {} ok, {rejected} rejected, {} missing ({hit_pct:.2}% hit within budget)",
        summary.sent, summary.ok, summary.missing
    );
    println!("{}", rejects_line(&summary.rejects));
    println!(
        "  errors: protocol {}, io {}",
        summary.protocol_errors, summary.io_errors
    );
    let (p50, p95) = (summary.rtt_p50_s * 1e3, summary.rtt_p95_s * 1e3);
    let p99 = summary.rtt_p99_s * 1e3;
    println!(
        "  rtt: p50 {p50:.1} ms, p95 {p95:.1} ms, p99 {p99:.1} ms — {:.1} req/s over {:.1} s",
        summary.throughput_rps, summary.elapsed_s
    );
}

/// The client-side floors `soak` and `gateway-soak` share: what the load
/// generator itself saw go wrong, whatever tier answered it.
fn client_floor_failures(s: &LoadSummary, min_hit_pct: f64) -> Vec<String> {
    [
        (s.protocol_errors > 0)
            .then(|| format!("client decoded {} malformed frame(s)", s.protocol_errors)),
        (s.io_errors > 0).then(|| format!("{} socket error(s) on the client", s.io_errors)),
        (s.missing > 0).then(|| format!("{} request(s) never got a response", s.missing)),
        (s.hit_pct() < min_hit_pct).then(|| {
            format!(
                "hit rate {:.2}% below the {min_hit_pct:.2}% floor",
                s.hit_pct()
            )
        }),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// What `soak` and `gateway-soak` share ([`SOAK`]): the live stack
/// (`tiny-w2a2` by default), the load offered to it and its hit-rate floor.
struct Soak {
    stack: LiveStack,
    load: LoadPlan,
    min_hit_pct: f64,
}

impl Soak {
    /// Parses the shared flags over the command's default offered rate.
    fn parse(flags: &Flags, rate_fps: f64) -> Result<Self, String> {
        Ok(Soak {
            stack: LiveStack::parse(flags, Some("tiny-w2a2"))?,
            load: LoadPlan::parse(flags, (rate_fps, 3.0, 2))?,
            min_hit_pct: flags.num("min-hit-pct", 50.0)?,
        })
    }

    /// The floors, any violation a red CI: the client's, no connection the
    /// `tier` dropped on `protocol_errors`, then the tier's own `failures`.
    fn verdict(
        &self,
        command: &str,
        summary: &LoadSummary,
        (tier, protocol_errors): (&str, u64),
        failures: impl IntoIterator<Item = Option<String>>,
        pass: &str,
    ) -> Result<(), String> {
        let mut failed = client_floor_failures(summary, self.min_hit_pct);
        failed.extend(
            (protocol_errors > 0).then(|| {
                format!("{tier} dropped {protocol_errors} connection(s) on protocol errors")
            }),
        );
        failed.extend(failures.into_iter().flatten());
        if !failed.is_empty() {
            return Err(format!("{command} FAILED: {}", failed.join("; ")));
        }
        println!(
            "{command}: PASS ({:.2}% hits >= {:.2}% floor, zero protocol errors, {pass})",
            summary.hit_pct(),
            self.min_hit_pct
        );
        Ok(())
    }
}

/// In-process server + seeded load with hard pass/fail floors — the CI
/// gate for the live serving path.
fn cmd_soak(flags: &Flags) -> Result<(), String> {
    use adaflow_net::{run_load, LiveServer};

    let soak = Soak::parse(flags, 200.0)?;
    let Soak { stack, load, .. } = &soak;
    stack.preflight(load.rate_fps)?;

    let (sink, recorder) = SinkHandle::recorder(TRACE_RING);
    let server = LiveServer::bind("127.0.0.1:0", &stack.graph, stack.config(), sink)
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();

    println!("soak: {} on {addr}, {load}", stack.model);
    let (server_result, summary) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || server.run());
        let summary = run_load(&load.config(addr, &stack.model, stack.graph.input_shape(), 0.0));
        handle.shutdown();
        (server_thread.join().expect("server thread"), summary)
    });
    let report = server_result.map_err(|e| format!("server failed: {e}"))?;
    let recorded = drain_events(&recorder).len();

    print_load_summary(&summary);
    let s = &report.summary;
    println!(
        "  server: {:.0} arrived, {:.0} served, {:.0} shed, {recorded} event(s) recorded",
        s.arrived, s.completed, s.shed
    );
    let conservation = (!s.conservation_holds()).then(|| {
        format!(
            "request conservation violated: arrived {:.0} != completed {:.0} + shed {:.0}",
            s.arrived, s.completed, s.shed
        )
    });
    let tier = ("server", report.protocol_errors);
    soak.verdict("soak", &summary, tier, [conservation], "clean shutdown")
}

fn print_gateway_report(report: &adaflow_gateway::GatewayReport) {
    let rejected = report.rejects.total();
    println!(
        "gateway: {} received over {:.1} s — {} ok, {rejected} rejected, {} retries ({} router)",
        report.received, report.duration_s, report.answered_ok, report.retries, report.router
    );
    println!(
        "{} ({} shutting-down with no backend)",
        rejects_line(&report.rejects),
        report.no_backend
    );
    println!(
        "  wire: {} connection(s), {} protocol error(s), {} send error(s), {} accept error(s)",
        report.connections, report.protocol_errors, report.send_errors, report.accept_errors
    );
    for (idx, b) in report.backends.iter().enumerate() {
        let (floor, p50) = (b.floor_s * 1e3, b.rtt_p50_s * 1e3);
        let (p95, p99) = (b.rtt_p95_s * 1e3, b.rtt_p99_s * 1e3);
        let ejected = if b.healthy_at_exit { "" } else { " [ejected]" };
        println!(
            "  backend[{idx}] {}: {} routed, {} ok, {} retryable, {} ejection(s), \
             {} readmission(s), floor {floor:.2} ms, rtt p50 {p50:.1} ms / p95 {p95:.1} ms \
             / p99 {p99:.1} ms{ejected}",
            b.addr, b.routed, b.ok, b.retryable, b.ejections, b.readmissions
        );
    }
}

/// Live routing tier over already-running `serve-live` backends.
fn cmd_gateway(flags: &Flags) -> Result<(), String> {
    use adaflow_gateway::{Gateway, GatewayConfig};

    let stack = LiveStack::parse(flags, None)?;
    let tier = LiveTier::parse(flags)?;
    let retry_budget: u32 = flags.num("retry-budget", 1)?;
    let config = GatewayConfig {
        model_id: stack.model.clone(),
        router: parse_router(flags)?,
        seed: flags.num("seed", 7)?,
        retry_budget,
        warmup: stack.warmup(flags.num("warmup-iters", 3)?),
        ..GatewayConfig::default()
    };
    let addr = flags.or("addr", "127.0.0.1:7979");
    let parse = |s: &str| {
        s.parse()
            .map_err(|e| format!("bad backend address `{s}`: {e}"))
    };
    let backends: Vec<SocketAddr> = flags
        .required("backends")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect::<Result<_, _>>()?;
    print_findings(&stack.preflight(tier.nominal_fps)?, tier.format);

    let (sink, recorder) = SinkHandle::recorder(TRACE_RING);
    let gateway = Gateway::bind(addr, &backends, config, sink).map_err(|e| e.to_string())?;
    let bound = gateway.local_addr().map_err(|e| e.to_string())?;
    let handle = gateway.handle();
    let timed = tier.stop_after(move || handle.shutdown());
    if tier.format == "text" {
        println!(
            "gateway for {} on {bound}: {} backend(s), retry budget {retry_budget}{timed}",
            stack.model,
            backends.len()
        );
    }

    let report = gateway.run().map_err(|e| e.to_string())?;
    print_as(tier.format, &report, || print_gateway_report(&report))?;
    tier.export(|| drain_events(&recorder))
}

/// In-process backends + gateway + seeded open-loop load with hard
/// pass/fail floors — the CI gate for the routing tier. With
/// `--failover 1`, backend 0 is killed a third of the way in and
/// restarted at two thirds; the run then also requires at least one
/// ejection and one readmission.
fn cmd_gateway_soak(flags: &Flags) -> Result<(), String> {
    use adaflow_gateway::{Gateway, GatewayConfig};
    use adaflow_net::{run_load, LiveServer};
    use std::time::Instant;

    let soak = Soak::parse(flags, 300.0)?;
    let Soak { stack, load, .. } = &soak;
    let backends_n: usize = flags.num("backends", 2)?;
    // Per-request wire deadline for the generated load (0 = none): with a
    // budget set, the client's hit rate measures RTT against it, so the
    // floor becomes a latency gate rather than an answered-ok gate.
    let load_deadline_ms: f64 = flags.num("load-deadline-ms", 0.0)?;
    let failover = flags.on("failover");
    let hetero = flags.on("hetero");
    let router = parse_router(flags)?;
    if backends_n == 0 {
        return Err("--backends must be at least 1".to_string());
    }
    if failover && backends_n < 2 {
        return Err("--failover 1 needs at least 2 backends".to_string());
    }
    stack.preflight(load.rate_fps)?;

    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for idx in 0..backends_n {
        // With --hetero 1, backends past index 0 serve unbatched — a slower
        // tier the router has to notice and route around.
        let mut cfg = stack.config();
        if hetero && idx > 0 {
            cfg.serve.max_batch = 1;
        }
        let server = LiveServer::bind("127.0.0.1:0", &stack.graph, cfg, SinkHandle::null())
            .map_err(|e| e.to_string())?;
        addrs.push(server.local_addr().map_err(|e| e.to_string())?);
        servers.push(server);
    }

    let config = GatewayConfig {
        model_id: stack.model.clone(),
        router,
        seed: load.seed,
        retry_budget: 1,
        warmup: stack.warmup(3),
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        ..GatewayConfig::default()
    };
    let (sink, recorder) = SinkHandle::recorder(TRACE_RING);
    let gateway = Gateway::bind("127.0.0.1:0", &addrs, config, sink).map_err(|e| e.to_string())?;
    let front = gateway.local_addr().map_err(|e| e.to_string())?;
    let gh = gateway.handle();

    let drill = if failover { ", failover drill" } else { "" };
    let mixed = if hetero { ", heterogeneous" } else { "" };
    println!(
        "gateway-soak: {} x {backends_n} backend(s) behind {front} ({} router), {load}{drill}{mixed}",
        stack.model,
        router.name()
    );

    let third = Duration::from_secs_f64(load.duration_s / 3.0);
    let (gateway_result, summary, backend_reports) = std::thread::scope(|scope| {
        // A path call, so `server` keeps the bound servers' lifetime.
        let serve = |server| {
            let handle = LiveServer::handle(&server);
            (
                handle,
                scope.spawn(move || server.run().expect("backend serves")),
            )
        };
        let mut backends: Vec<_> = servers.into_iter().map(serve).collect();
        let gateway_thread = scope.spawn(move || gateway.run());

        // The failover drill runs on its own thread so the load below is
        // uninterrupted: kill backend 0 at t/3, restart it at 2t/3.
        let drill = failover.then(|| {
            let (handle, thread) = backends.remove(0);
            let (addr, cfg, graph) = (addrs[0], stack.config(), &stack.graph);
            scope.spawn(move || {
                std::thread::sleep(third);
                handle.shutdown();
                let killed = thread.join().expect("backend 0 thread");
                std::thread::sleep(third);
                let server = LiveServer::bind(addr, graph, cfg, SinkHandle::null())
                    .expect("rebinding backend 0's address");
                (killed, serve(server))
            })
        });

        let shape = stack.graph.input_shape();
        let summary = run_load(&load.config(front, &stack.model, shape, load_deadline_ms));

        // Under the drill, give the probes a chance to readmit the
        // restarted backend before the books close.
        if failover {
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline && !gh.backend_healthy(0) {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        gh.shutdown();
        let gateway_result = gateway_thread.join().expect("gateway thread");
        let mut reports = Vec::new();
        if let Some(drill) = drill {
            let (killed, restarted) = drill.join().expect("failover drill thread");
            reports.push(killed);
            backends.push(restarted);
        }
        for (handle, thread) in backends {
            handle.shutdown();
            reports.push(thread.join().expect("backend thread"));
        }
        (gateway_result, summary, reports)
    });
    let report = gateway_result.map_err(|e| format!("gateway failed: {e}"))?;
    let recorded = drain_events(&recorder).len();

    print_load_summary(&summary);
    print_gateway_report(&report);
    println!("  {recorded} event(s) recorded");

    let (drilled, rejected) = (&report.backends[0], report.rejects.total());
    let bad_requests: u64 = backend_reports.iter().map(|r| r.rejects.bad_request).sum();
    let failures = [
        (!report.conservation_holds()).then(|| {
            format!(
                "request conservation violated: received {} != ok {} + rejected {rejected}",
                report.received, report.answered_ok
            )
        }),
        (failover && drilled.ejections == 0).then(|| "killed backend was never ejected".into()),
        (failover && drilled.readmissions == 0)
            .then(|| "restarted backend was never readmitted".into()),
        (failover && !drilled.healthy_at_exit)
            .then(|| "restarted backend not healthy at exit".into()),
        // The load sends only well-formed frames and a health probe is no
        // client's request, so no backend may count a malformed one.
        (bad_requests > 0)
            .then(|| format!("backends counted {bad_requests} bad-request reject(s)")),
    ];
    let pass = format!(
        "conservation holds, no backend bad-request{}",
        if failover {
            ", failover drill survived"
        } else {
            ""
        }
    );
    let tier = ("gateway", report.protocol_errors);
    soak.verdict("gateway-soak", &summary, tier, failures, &pass)
}

#[cfg(test)]
#[path = "../../../telemetry/tests/support/exposition.rs"]
mod exposition;

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `<prefix>.prom` and holds it to the text-format rules.
    fn read_prom(prefix: &str) -> String {
        let prom = std::fs::read_to_string(format!("{prefix}.prom")).expect("prom");
        exposition::check_exposition(&prom).unwrap_or_else(|e| panic!("{prefix}.prom: {e}"));
        prom
    }

    #[test]
    fn draining_an_overflowed_ring_warns_with_count_and_capacity() {
        let (sink, recorder) = SinkHandle::recorder(4);
        for i in 0..6 {
            sink.emit(
                f64::from(i),
                adaflow_telemetry::EventKind::QueueDepth { frames: 1.0 },
            );
        }
        let events = drain_events(&recorder);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].t_s, 2.0, "the two oldest were overwritten");
        let warning = overflow_warning(recorder.overwritten(), events.len()).expect("overflowed");
        assert!(warning.contains("capacity 4"), "{warning}");
        assert!(warning.contains("overwrote its 2 oldest"), "{warning}");
        assert_eq!(overflow_warning(0, 4), None);
    }

    #[test]
    fn rejects_line_is_one_text_for_every_live_report() {
        let r = RejectCounts {
            queue_full: 1,
            deadline_infeasible: 2,
            shutting_down: 3,
            unknown_model: 4,
            bad_request: 5,
        };
        assert_eq!(
            rejects_line(&r),
            "  rejects: queue-full 1, deadline-infeasible 2, shutting-down 3, unknown-model 4, \
             bad-request 5"
        );
    }

    #[test]
    fn client_floors_name_every_violation() {
        let clean = adaflow_net::LoadSummary {
            sent: 10,
            ok: 10,
            deadline_hits: 10,
            ..adaflow_net::LoadSummary::default()
        };
        assert!(client_floor_failures(&clean, 90.0).is_empty());
        let broken = adaflow_net::LoadSummary {
            protocol_errors: 1,
            io_errors: 2,
            missing: 3,
            deadline_hits: 5,
            ..clean
        };
        let failures = client_floor_failures(&broken, 90.0);
        assert_eq!(
            failures,
            [
                "client decoded 1 malformed frame(s)",
                "2 socket error(s) on the client",
                "3 request(s) never got a response",
                "hit rate 50.00% below the 90.00% floor",
            ]
        );
    }

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        Flags(
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flag_parsing() {
        let parsed = parse_flags(&args("--model cnv-w2a2 --runs 5")).expect("parses");
        assert_eq!(parsed.get("model"), Some("cnv-w2a2"));
        assert_eq!(parsed.num("runs", 1), Ok(5));
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(parse_flags(&["--dangling".to_string()]).is_err());
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        // Was last-one-wins: `serve --seed 1 --seed 2` ran seed 2 silently.
        let err = parse_flags(&args("--seed 1 --runs 3 --seed 2")).expect_err("refused");
        assert_eq!(err, "flag --seed given twice");
        let err = run(&args("serve --library lib.json --seed 1 --seed 2")).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_an_error() {
        // The typo SV001's old suggestion text invited.
        let err = resolve(&args("serve --library lib.json --batch-wait 5"))
            .expect_err("typo must be refused");
        assert!(
            err.contains("unknown flag `--batch-wait` for `serve`"),
            "{err}"
        );
        assert!(
            err.contains("--batch-wait-ms"),
            "names the real flag: {err}"
        );
        // A real flag of another subcommand is just as unknown here.
        assert!(resolve(&args("summary --model tiny-w2a2 --seed 7")).is_err());
        assert!(resolve(&args("teleport --model tiny-w2a2")).is_err());
    }

    /// Every `adaflow_cli` invocation in `text` — its subcommand and flags,
    /// across `\` line continuations and `#` comment markers. Values are
    /// kept verbatim (`"$wide"` too): `resolve` reads only flag names.
    fn invocations(text: &str) -> Vec<Vec<String>> {
        let commands: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        text.split("adaflow_cli")
            .skip(1)
            .filter_map(|rest| {
                let mut tokens = rest
                    .split_whitespace()
                    .filter(|t| !matches!(*t, "\\" | "#"))
                    .peekable();
                tokens.next_if_eq(&"--"); // cargo's separator
                let command = tokens.next().filter(|t| commands.contains(t))?;
                let mut line = vec![command.to_string()];
                while let Some(flag) = tokens.next_if(|t| t.starts_with("--")) {
                    line.push(flag.to_string());
                    line.extend(tokens.next().map(str::to_string));
                }
                Some(line)
            })
            .collect()
    }

    #[test]
    fn every_ci_invocation_resolves() {
        // What CI, the verify skill and the README run, read from the files.
        for (file, text) in [
            (
                "ci.yml",
                include_str!("../../../../.github/workflows/ci.yml"),
            ),
            (
                "SKILL.md",
                include_str!("../../../../.claude/skills/verify/SKILL.md"),
            ),
            ("README.md", include_str!("../../../../README.md")),
        ] {
            let found = invocations(text);
            assert!(
                found.len() >= 10,
                "{file}: only {} invocations",
                found.len()
            );
            for line in found {
                if let Err(e) = resolve(&line) {
                    panic!("{file}: `{}` no longer resolves: {e}", line.join(" "));
                }
            }
        }
        // The extraction itself: continuation lines, the cargo separator,
        // shell values and the pipe that ends an invocation.
        let step = "cargo run --bin adaflow_cli -- \\\n  fleet --fleet \"$wide\" \\\n  \
                    --check 1 | tee f.json\n# adaflow_cli.rs is the source";
        assert_eq!(
            invocations(step),
            [args("fleet --fleet \"$wide\" --check 1")]
        );
    }

    #[test]
    fn command_table_and_usage_name_the_same_subcommands() {
        // A usage entry starts at column two; continuation lines indent on.
        let text = usage();
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in text.lines().filter(|l| l.starts_with("  ")) {
            match line.strip_prefix("   ") {
                Some(_) => entries.last_mut().expect("entry first").1.push(line),
                None => entries.push((line.split_whitespace().next().unwrap(), vec![line])),
            }
        }
        let listed: Vec<&str> = entries.iter().map(|(name, _)| *name).collect();
        let table: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, table, "usage() and COMMANDS drifted apart");
        // Each printed entry names exactly the flags `resolve` accepts for
        // its command: every flag of the table and the text is tried on each.
        let usage_lines: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|(.., lines)| *lines)
            .copied()
            .collect();
        let mut every_flag = flag_names(&usage_lines);
        every_flag.extend(flag_names(&[text.as_str()]));
        for (name, lines) in &entries {
            let named = flag_names(lines);
            assert!(!named.is_empty(), "{name} lists no flag");
            for flag in &every_flag {
                let accepted = resolve(&args(&format!("{name} --{flag} x"))).is_ok();
                assert_eq!(accepted, named.contains(flag), "{name} --{flag}");
            }
        }
    }

    #[test]
    fn live_and_simulator_commands_default_the_batch_wait_differently() {
        // One flag table under both families ...
        let reads_knobs = |command: &str| {
            let (_, _, lines) = COMMANDS.iter().find(|(name, ..)| *name == command).unwrap();
            lines.contains(&SERVE_KNOBS)
        };
        let simulators = ["serve", "fleet", "lint"];
        let live = ["serve-live", "soak", "gateway", "gateway-soak"];
        assert!(simulators.iter().chain(&live).all(|c| reads_knobs(c)));
        // ... two defaults: each family's own config type, which differ in
        // the batching wait and in nothing else.
        let live_serve_knobs =
            |flags: &Flags| LiveStack::parse(flags, Some("tiny-w2a2")).map(|stack| stack.serve);
        let none = flags(&[]);
        let sim = sim_serve_knobs(&none).expect("defaults");
        let served = live_serve_knobs(&none).expect("defaults");
        assert_eq!(sim, ServeConfig::default());
        assert_eq!(served, adaflow_net::LiveConfig::default().serve);
        assert_eq!((sim.max_wait_s, served.max_wait_s), (0.02, 0.0));
        assert_eq!(
            served,
            ServeConfig {
                max_wait_s: 0.0,
                ..sim
            }
        );
        // A wait that is asked for is the wait, in both.
        let asked = flags(&[("batch-wait-ms", "150")]);
        assert_eq!(sim_serve_knobs(&asked).expect("parses").max_wait_s, 0.15);
        assert_eq!(live_serve_knobs(&asked).expect("parses").max_wait_s, 0.15);
        assert!(usage().contains("--batch-wait-ms defaults to 20"));
        assert!(usage().contains("--batch-wait-ms defaults to 0"));
    }

    #[test]
    fn serve_live_refuses_a_zero_batch() {
        // Was a silent livelock: the engine thread closed empty batches
        // forever. Now the SV001 gate refuses before the socket opens.
        let err = run(&args(
            "serve-live --model tiny-w2a2 --addr 127.0.0.1:0 --batch 0",
        ))
        .expect_err("batch 0 must be refused");
        assert!(err.contains("SV001"), "{err}");
        assert!(err.contains("batch size 0"), "{err}");
    }

    #[test]
    fn model_and_dataset_lookup() {
        assert!(build_model("cnv-w2a2", Some(DatasetKind::Gtsrb)).is_ok());
        assert!(build_model("lenet-w1a2", None).is_ok());
        assert!(build_model("resnet", None).is_err());
        assert!(parse_dataset("cifar10").is_ok());
        assert!(parse_dataset("imagenet").is_err());
        assert!(parse_scenario("1+2").is_ok());
        assert!(parse_scenario("3").is_err());
    }

    #[test]
    fn summary_command_runs() {
        assert!(cmd_summary(&flags(&[("model", "tiny-w2a2")])).is_ok());
        assert!(cmd_summary(&flags(&[])).is_err());
    }

    #[test]
    fn generate_inspect_simulate_round_trip() {
        let out = std::env::temp_dir().join("adaflow_cli_test_library.json");
        let out_str = out.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.25"),
            ("out", &out_str),
        ]))
        .expect("generate");
        cmd_inspect(&flags(&[("library", &out_str)])).expect("inspect");
        cmd_simulate(&flags(&[
            ("library", &out_str),
            ("scenario", "1"),
            ("policy", "adaflow"),
            ("runs", "2"),
        ]))
        .expect("simulate");
        cmd_simulate(&flags(&[
            ("library", &out_str),
            ("policy", "reconf:145"),
            ("runs", "2"),
        ]))
        .expect("simulate reconf");
        let _ = std::fs::remove_file(out);
    }

    /// Every name of the one policy table ([`POLICY`], plus the `finn`
    /// spelling) runs under the fluid `simulate`; an unknown name's error
    /// lists the table. `serve_command_runs_all_policies` is the
    /// request-level half.
    #[test]
    fn fluid_commands_resolve_every_policy_name() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_policy_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.25,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        for policy in POLICY_NAMES {
            cmd_simulate(&flags(&[("library", &lib_str), ("policy", policy)]))
                .unwrap_or_else(|e| panic!("simulate {policy}: {e}"));
        }
        let err = cmd_simulate(&flags(&[("library", &lib_str), ("policy", "turbo")]));
        assert_unknown_policy(err);
        let _ = std::fs::remove_file(lib_path);
    }

    /// Every spelling [`PolicyKind::parse`] accepts.
    const POLICY_NAMES: [&str; 7] = [
        "adaflow",
        "fixed-max",
        "flexible-only",
        "reconf:145",
        "finn",
        "fixed",
        "flexible",
    ];

    fn assert_unknown_policy(result: Result<(), String>) {
        let err = result.expect_err("unknown policy");
        assert!(err.contains("`turbo`") && err.contains(POLICY), "{err}");
    }

    #[test]
    fn serve_command_runs_all_policies() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_serve_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.25,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        // `--check 1` holds each run to `arrived == completed + shed` and
        // replays it.
        for policy in POLICY_NAMES {
            cmd_serve(&flags(&[
                ("library", &lib_str),
                ("scenario", "2"),
                ("policy", policy),
                ("seed", "7"),
                ("check", "1"),
            ]))
            .unwrap_or_else(|e| panic!("serve {policy}: {e}"));
        }
        // Multi-run mean in JSON, custom knobs, shed policies.
        cmd_serve(&flags(&[
            ("library", &lib_str),
            ("scenario", "1+2"),
            ("runs", "2"),
            ("deadline-ms", "200"),
            ("queue-cap", "128"),
            ("shed", "oldest"),
            ("format", "json"),
        ]))
        .expect("serve json");
        assert_unknown_policy(cmd_serve(&flags(&[
            ("library", &lib_str),
            ("policy", "turbo"),
        ])));
        assert!(cmd_serve(&flags(&[("library", &lib_str), ("shed", "lifo")])).is_err());
        // SV001 hard failure: max-wait beyond the deadline budget.
        assert!(cmd_serve(&flags(&[
            ("library", &lib_str),
            ("deadline-ms", "10"),
            ("batch-wait-ms", "20"),
        ]))
        .is_err());
        let _ = std::fs::remove_file(lib_path);
    }

    #[test]
    fn fleet_command_runs_routers_and_replays() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_fleet_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.25,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        // Heterogeneous fleet, deadline-aware router, bit-determinism
        // replay (`--check`).
        cmd_fleet(&flags(&[
            ("library", &lib_str),
            ("scenario", "2"),
            ("fleet", "adaflow,adaflow,flexible,fixed"),
            ("router", "deadline"),
            ("seed", "7"),
            ("check", "1"),
        ]))
        .expect("fleet deadline-aware with replay");
        // Remaining routers, JSON output, multi-run mean. Round-robin
        // with a deadline warns under FL002, so allow it explicitly.
        for router in ["rr", "jsq", "p2c"] {
            cmd_fleet(&flags(&[
                ("library", &lib_str),
                ("router", router),
                ("runs", "2"),
                ("format", "json"),
                ("allow", "FL002"),
            ]))
            .unwrap_or_else(|e| panic!("fleet {router}: {e}"));
        }
        assert!(cmd_fleet(&flags(&[("library", &lib_str), ("router", "hash")])).is_err());
        assert!(cmd_fleet(&flags(&[("library", &lib_str), ("fleet", "gpu")])).is_err());
        // FL001 hard failure: a zero-device fleet.
        assert!(cmd_fleet(&flags(&[("library", &lib_str), ("fleet", ",")])).is_err());
        let _ = std::fs::remove_file(lib_path);
    }

    #[test]
    fn report_command_covers_serve_and_fleet_modes() {
        let tmp = |name: &str| {
            std::env::temp_dir()
                .join(name)
                .to_string_lossy()
                .to_string()
        };
        let lib_str = tmp("adaflow_cli_report_test_library.json");
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        // A serve log with the determinism replay, reported against a target
        // tight enough to burn: the alerts join the views, so `.prom` (the
        // only Prometheus file) counts exactly the ones `.trace.json` shows.
        let serve_log = tmp("adaflow_cli_report_test_serve_log");
        let run = [
            ("library", lib_str.as_str()),
            ("scenario", "2"),
            ("seed", "7"),
        ];
        cmd_serve(&flags(
            &[&run[..], &[("check", "1"), ("out", &serve_log)]].concat(),
        ))
        .expect("serve log with replay");
        let serve_events = format!("{serve_log}.jsonl");
        let serve_prefix = tmp("adaflow_cli_report_test_serve_run");
        cmd_report(&flags(&[
            ("events", &serve_events),
            ("slo-target", "0.9999"),
            ("out", &serve_prefix),
        ]))
        .expect("serve report");
        let chrome = std::fs::read_to_string(format!("{serve_prefix}.trace.json")).expect("chrome");
        let alerts = chrome.matches("\"slo_burn_alert\"").count();
        assert!(alerts > 0, "the tight target fires at least one alert");
        let prom = read_prom(&serve_prefix);
        assert!(prom.contains(&format!("adaflow_slo_burn_alerts_total {alerts}\n")));
        // A fleet log, reported in JSON with both views.
        let fleet_log = tmp("adaflow_cli_report_test_fleet_log");
        cmd_fleet(&flags(&[&run[..], &[("out", &fleet_log)]].concat())).expect("fleet log");
        let fleet_events = format!("{fleet_log}.jsonl");
        let jsonl = std::fs::read_to_string(&fleet_events).expect("jsonl");
        assert!(jsonl.contains("TraceSpan"));
        let prefix_str = tmp("adaflow_cli_report_test_run");
        cmd_report(&flags(&[
            ("events", &fleet_events),
            ("format", "json"),
            ("out", &prefix_str),
        ]))
        .expect("fleet report with exports");
        let chrome = std::fs::read_to_string(format!("{prefix_str}.trace.json")).expect("chrome");
        assert!(chrome.contains("\"b\""), "async span begins exported");
        assert!(chrome.contains("\"e\""), "async span ends exported");
        assert!(chrome.contains("queue_wait"), "stage spans exported");
        let prom = read_prom(&prefix_str);
        assert!(prom.contains("adaflow_requests_completed_total"));
        assert!(prom.contains("quantile"));
        assert!(
            !std::path::Path::new(&format!("{prefix_str}.metrics.prom")).exists(),
            "one Prometheus file per run"
        );
        // Flag validation: `report` reads a log and runs nothing.
        let log = ("events", fleet_events.as_str());
        assert!(cmd_report(&flags(&[log, ("slo-target", "1.5")])).is_err());
        assert!(cmd_report(&flags(&[log, ("slo-objective", "uptime")])).is_err());
        assert!(cmd_report(&flags(&[log, ("deadline-ms", "0")])).is_err());
        assert!(cmd_report(&flags(&[])).is_err(), "--events is required");
        let missing = tmp("adaflow_cli_report_test_missing.jsonl");
        assert!(cmd_report(&flags(&[("events", &missing)])).is_err());
        for stray in [
            "--mode serve",
            "--library x",
            "--seed 7",
            "--check 1",
            "--batch 4",
        ] {
            let line = format!("report --events {fleet_events} {stray}");
            assert!(resolve(&args(&line)).is_err(), "{line}");
        }
        let _ = std::fs::remove_file(lib_str);
        for prefix in [&serve_log, &serve_prefix, &fleet_log, &prefix_str] {
            for suffix in ["trace.json", "jsonl", "prom"] {
                let _ = std::fs::remove_file(format!("{prefix}.{suffix}"));
            }
        }
    }

    /// A fresh directory under the system temp dir, and a CNV library
    /// (0 and 50 % pruned) written into it as `library.json`.
    fn scratch_with_library(name: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let library = dir.join("library.json").to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &library),
        ]))
        .expect("generate");
        (dir, library)
    }

    /// The suffixes of the `<stem>.*` files in `dir`, sorted.
    fn written(dir: &std::path::Path, stem: &str) -> Vec<String> {
        let mut suffixes: Vec<String> = std::fs::read_dir(dir)
            .expect("lists")
            .filter_map(|entry| {
                let name = entry.expect("entry").file_name().into_string().ok()?;
                Some(name.strip_prefix(&format!("{stem}."))?.to_string())
            })
            .collect();
        suffixes.sort();
        suffixes
    }

    /// Runs `command` with `--out` and checks that each file has one writer:
    /// the run writes only its event log, holding `logged`, and `report`
    /// alone derives the Perfetto view, drawing `drawn`, and the exposition,
    /// counting `counted`, from it, and writes no log.
    fn assert_one_writer(name: &str, command: Handler, [logged, drawn, counted]: [&str; 3]) {
        let (dir, library) = scratch_with_library(&format!("adaflow_cli_one_writer_{name}"));
        let path = |stem: &str| dir.join(stem).to_string_lossy().to_string();
        let (log, view) = (path("run"), path("view"));
        let run = [("library", library.as_str()), ("seed", "3"), ("out", &log)];
        command(&flags(&run)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(written(&dir, "run"), ["jsonl"], "{name} --out");
        let events = format!("{log}.jsonl");
        let jsonl = std::fs::read_to_string(&events).expect("jsonl");
        assert!(jsonl.contains(logged), "{name} logs {logged}");
        cmd_report(&flags(&[("events", &events), ("out", &view)]))
            .unwrap_or_else(|e| panic!("report over {name}: {e}"));
        assert_eq!(written(&dir, "view"), ["prom", "trace.json"], "{name}");
        let chrome = std::fs::read_to_string(format!("{view}.trace.json")).expect("chrome");
        assert!(chrome.trim_start().starts_with('['), "{name}");
        assert!(chrome.contains(drawn), "{name}: {drawn}");
        assert!(read_prom(&view).contains(counted), "{name}: {counted}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_command_writes_exports() {
        // The fluid trace is `simulate --out`; `report` writes its views.
        let checks = ["DecisionMade", "decision_made", "adaflow_decisions_total"];
        assert_one_writer("simulate", cmd_simulate, checks);
    }

    #[test]
    fn serve_command_writes_trace_exports() {
        let checks = [
            "RequestCompleted",
            "queue_wait",
            "adaflow_batches_closed_total",
        ];
        assert_one_writer("serve", cmd_serve, checks);
    }

    #[test]
    fn fleet_command_writes_trace_exports() {
        let checks = ["RequestRouted", "\"b\"", "adaflow_requests_routed_total"];
        assert_one_writer("fleet", cmd_fleet, checks);
    }

    #[test]
    fn report_out_never_rewrites_the_log_it_reads() {
        // `report --out` once re-exported the log beside its views, so a
        // report under the log's own prefix appended one more copy of each
        // SLO alert to the log on every pass.
        let (dir, library) = scratch_with_library("adaflow_cli_report_twice");
        let prefix = dir.join("u").to_string_lossy().to_string();
        let run = [
            ("library", library.as_str()),
            ("seed", "7"),
            ("out", &prefix),
        ];
        cmd_serve(&flags(&run)).expect("serve log");
        let log_path = format!("{prefix}.jsonl");
        let log = std::fs::read(&log_path).expect("log");
        let mut views = Vec::new();
        for _ in 0..2 {
            let report = [("events", log_path.as_str()), ("slo-target", "0.9999")];
            cmd_report(&flags(&[&report[..], &[("out", &prefix)]].concat())).expect("report");
            assert!(
                std::fs::read(&log_path).expect("log") == log,
                "the log changed"
            );
            views.push(std::fs::read_to_string(format!("{prefix}.trace.json")).expect("chrome"));
        }
        assert!(views[0] == views[1], "the two passes drew different views");
        assert!(views[0].contains("\"slo_burn_alert\""), "an alert fired");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn simulate_runs_on_the_shared_skeleton() {
        let (dir, library) = scratch_with_library("adaflow_cli_simulate");
        let lib = ("library", library.as_str());
        // One recorded run, replayed to the same metrics and events.
        cmd_simulate(&flags(&[lib, ("scenario", "1+2"), ("check", "1")])).expect("replay");
        cmd_simulate(&flags(&[lib, ("runs", "2"), ("format", "json")])).expect("json mean");
        // Only a single run records, so `--out` over two is refused.
        let prefix = dir.join("two").to_string_lossy().to_string();
        let err = cmd_simulate(&flags(&[lib, ("runs", "2"), ("out", &prefix)]))
            .expect_err("two runs record no log");
        assert!(err.contains("--runs 1"), "{err}");
        assert!(written(&dir, "two").is_empty());
        // The refusal comes first: before the library is read, before any
        // run starts or prints.
        let missing = dir.join("missing.json").to_string_lossy().to_string();
        let prefix = dir.join("x").to_string_lossy().to_string();
        let sweep = [
            ("library", missing.as_str()),
            ("runs", "100"),
            ("out", &prefix),
        ];
        let err = cmd_simulate(&flags(&sweep)).expect_err("refused");
        assert!(
            err.contains("--runs 1") && !err.contains("reading"),
            "{err}"
        );
        assert!(written(&dir, "x").is_empty());
        assert!(cmd_simulate(&flags(&[lib, ("format", "yaml")])).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lint_covers_fleet_config_rules() {
        // FL002 error: deadline-aware router without a deadline budget.
        assert!(cmd_lint(&flags(&[("router", "deadline"), ("deadline-ms", "0")])).is_err());
        // ... which --allow suppresses (SV001 also fires on a zero
        // budget: the 20 ms batch wait cannot fit inside it).
        assert!(cmd_lint(&flags(&[
            ("router", "deadline"),
            ("deadline-ms", "0"),
            ("allow", "FL002,SV001"),
        ]))
        .is_ok());
        // FL002 warn (round-robin + deadline) stays green by default and
        // escalates under --deny.
        assert!(cmd_lint(&flags(&[("router", "rr")])).is_ok());
        assert!(cmd_lint(&flags(&[("router", "rr"), ("deny", "FL002")])).is_err());
        // FL001 error: empty fleet.
        assert!(cmd_lint(&flags(&[("fleet", ",")])).is_err());
        // Fleet and graph rules combine into one run.
        assert!(cmd_lint(&flags(&[("model", "tiny-w2a2"), ("router", "jsq")])).is_ok());
        // Without fleet flags, --model stays mandatory.
        assert!(cmd_lint(&flags(&[])).is_err());
    }

    /// `--fleet` reads the `--policy` table: the same spellings, the same
    /// error.
    #[test]
    fn fleet_and_policy_share_one_spelling_list() {
        let every = POLICY_NAMES.join(", ");
        let fleet = parse_fleet_config(&flags(&[("fleet", &every)])).expect("every spelling");
        let kinds: Result<Vec<PolicyKind>, String> =
            POLICY_NAMES.iter().map(|name| parse_policy(name)).collect();
        assert_eq!(fleet.devices, kinds.expect("every spelling"));
        assert_unknown_policy(parse_fleet_config(&flags(&[("fleet", "adaflow,turbo")])).map(drop));
    }

    /// SV002 bounds a fleet device's backlog by the worst stall among the
    /// fleet's own policies: an all-fixed fleet never stalls, the default
    /// fleet stalls for AdaFlow's full 145 ms reconfiguration.
    #[test]
    fn fleet_lint_takes_the_stall_of_its_own_policies() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_fleet_stall_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        let sv002 = |fleet: &str| {
            let run = [
                ("library", lib_str.as_str()),
                ("fleet", fleet),
                ("queue-cap", "10"),
            ];
            let reports = lint_reports(&flags(&run)).expect("lints");
            let found = reports.iter().flat_map(|r| &r.diagnostics);
            let sv002 = found.filter(|d| d.code == "SV002").map(ToString::to_string);
            sv002.collect::<Vec<_>>().concat()
        };
        let fixed = sv002("fixed,fixed");
        assert!(
            fixed.contains("backlog of 0 requests with 10 to spare"),
            "{fixed}"
        );
        let mixed = sv002("adaflow,adaflow,flexible,fixed");
        assert!(mixed.contains("× 145 ms stall"), "{mixed}");
        let _ = std::fs::remove_file(lib_path);
    }

    #[test]
    fn a_serving_knob_alone_requests_the_config_rules() {
        // Was: only --fleet/--router/--deadline-ms/--max-drains did, so a
        // zero batch passed `lint` silently, or failed on a missing --model.
        let fired = |line: &str| -> Vec<String> {
            let (_, flags) = resolve(&args(line)).expect("resolves");
            let reports = lint_reports(&flags).expect("lints");
            reports
                .iter()
                .flat_map(Report::codes)
                .map(ToString::to_string)
                .collect()
        };
        for line in ["lint --model tiny-w2a2 --batch 0", "lint --batch 0"] {
            assert!(fired(line).contains(&"SV001".to_string()), "{line}");
            let err = run(&args(line)).expect_err("batch 0 is an SV001 error");
            assert!(err.starts_with("lint found"), "{line}: {err}");
        }
    }

    #[test]
    fn serve_and_fleet_gates_refuse_what_their_engines_cannot_run() {
        // The engines assert against each of these configs (a panic, exit
        // 101), so the gates of `serve` and `fleet`, the only commands that
        // run a simulation, must refuse them first and name the finding.
        let lib_path = std::env::temp_dir().join("adaflow_cli_gate_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        for (config, finding) in [
            ("serve --batch 0", "SV001"),
            ("fleet --batch 0", "SV001"),
            ("fleet --fleet ,", "FL001"),
            ("fleet --max-drains 0", "FL001"),
        ] {
            let line = format!("{config} --library {lib_str} --scenario 2");
            let err = run(&args(&line)).expect_err("refused");
            // The Error-level finding itself, not just the code's Info line.
            assert!(err.contains(&format!("error[{finding}]")), "{line}: {err}");
        }
        let _ = std::fs::remove_file(lib_path);
    }

    #[test]
    fn lint_explain_resolves_every_code() {
        // Single code, case-insensitive, and the full catalog.
        assert!(cmd_lint(&flags(&[("explain", "AF006")])).is_ok());
        assert!(cmd_lint(&flags(&[("explain", "df005")])).is_ok());
        assert!(cmd_lint(&flags(&[("explain", "all")])).is_ok());
        // Unknown codes fail with a pointer to `--explain all`.
        let err = cmd_lint(&flags(&[("explain", "ZZ999")])).unwrap_err();
        assert!(err.contains("unknown rule code"), "{err}");
    }

    #[test]
    fn every_registered_code_has_an_explanation() {
        // Graph rules: straight from the loaded catalog.
        for (code, _) in adaflow_verify::Verifier::new().catalog() {
            assert!(adaflow_verify::explain(code).is_some(), "no doc for {code}");
        }
        // Dataflow, serving and fleet rules emit by code string; lint a
        // model plus a deliberately broken fleet/serving config and check
        // every fired code resolves (covers DF001–DF005, FL and SV codes).
        let graph = build_model("cnv-w2a2", None).expect("builds");
        let report = lint_graph(&graph, &adaflow_verify::LintConfig::default()).expect("lints");
        let fleet = parse_fleet_config(&flags(&[("router", "deadline"), ("deadline-ms", "0")]))
            .expect("parses");
        let mut fired: std::collections::BTreeSet<String> =
            report.codes().iter().map(ToString::to_string).collect();
        let fleet_report = fleet.validate(adaflow_verify::LintConfig::default());
        let serve_report = fleet
            .serve
            .validate(1000.0, 1.0, adaflow_verify::LintConfig::default());
        fired.extend(fleet_report.codes().iter().map(ToString::to_string));
        fired.extend(serve_report.codes().iter().map(ToString::to_string));
        assert!(fired.iter().any(|c| c.starts_with("DF")));
        assert!(fired.iter().any(|c| c.starts_with("FL")));
        for code in &fired {
            assert!(
                adaflow_verify::explain(code).is_some(),
                "emitted code {code} has no --explain entry"
            );
        }
    }

    #[test]
    fn lint_passes_builtin_models() {
        assert!(cmd_lint(&flags(&[("model", "tiny-w2a2")])).is_ok());
        assert!(cmd_lint(&flags(&[
            ("model", "cnv-w2a2"),
            ("rates", "0,0.25"),
            ("format", "json"),
        ]))
        .is_ok());
        assert!(cmd_lint(&flags(&[("model", "resnet")])).is_err());
        assert!(cmd_lint(&flags(&[("model", "tiny-w2a2"), ("format", "yaml")])).is_err());
    }

    #[test]
    fn lint_policy_flags_are_plumbed_through() {
        // Built-in models carry no warnings, so deny cannot fail them; the
        // flags must still parse and the lint stay clean either way.
        assert!(cmd_lint(&flags(&[("model", "cnv-w1a2"), ("deny", "AF003,DF001")])).is_ok());
        assert!(cmd_lint(&flags(&[("model", "cnv-w1a2"), ("allow", "af006,df003")])).is_ok());
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("usage:"));
    }

    #[test]
    fn serve_live_gate_refuses_denied_config() {
        // Batch wait over half the deadline fires SV001 at Warn; denying
        // the code must refuse to open the socket at all.
        let err = cmd_serve_live(&flags(&[
            ("model", "tiny-w2a2"),
            ("addr", "127.0.0.1:0"),
            ("deadline-ms", "250"),
            ("batch-wait-ms", "150"),
            ("deny", "SV001"),
        ]))
        .expect_err("denied SV001 must block startup");
        assert!(err.contains("refusing to serve"), "{err}");
    }

    #[test]
    fn load_command_validates_flags() {
        assert!(
            cmd_load(&flags(&[("model", "tiny-w2a2")])).is_err(),
            "addr required"
        );
        let err = cmd_load(&flags(&[("addr", "not-an-addr"), ("model", "tiny-w2a2")]))
            .expect_err("bad addr");
        assert!(err.contains("bad --addr"), "{err}");
        assert!(cmd_load(&flags(&[
            ("addr", "127.0.0.1:1"),
            ("model", "tiny-w2a2"),
            ("format", "yaml"),
        ]))
        .is_err());
    }

    #[test]
    fn soak_command_passes_its_floors_on_tiny() {
        // A short real soak: in-process server, open-loop load, floors on.
        cmd_soak(&flags(&[
            ("model", "tiny-w2a2"),
            ("rate-fps", "60"),
            ("duration-s", "1"),
            ("connections", "2"),
            ("min-hit-pct", "50"),
            ("seed", "11"),
        ]))
        .expect("soak floors hold");
    }
}
