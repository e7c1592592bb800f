//! `adaflow_cli` — command-line front end to the framework.
//!
//! ```text
//! adaflow_cli summary  --model cnv-w2a2                     # per-layer model card
//! adaflow_cli generate --model cnv-w2a2 --dataset cifar10 \
//!                      --out library.json                   # design-time library
//! adaflow_cli inspect  --library library.json               # print the library table
//! adaflow_cli simulate --library library.json --scenario 2 \
//!                      --policy adaflow --runs 100          # serving experiment
//! adaflow_cli trace    --library library.json --scenario 2 \
//!                      --out run                            # traced single run
//! adaflow_cli explore  --model cnv-w2a2 --target-fps 600    # folding search
//! ```
//!
//! Run any subcommand with wrong/missing flags to get its usage line.

use adaflow::prelude::*;
use adaflow_edge::prelude::*;
use adaflow_hls::FpgaDevice;
use adaflow_model::prelude::*;
use adaflow_model::GraphSummary;
use adaflow_nn::{DatasetKind, Engine};
use adaflow_telemetry::{
    chrome_trace_json, events_to_jsonl, Event, MetricsRegistry, Recorder, RegistryConfig,
    SinkHandle,
};
use std::collections::HashMap;
use std::process::ExitCode;
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

type Flags = HashMap<String, String>;
type Handler = fn(&Flags) -> Result<(), String>;

/// Flag groups shared between subcommands: what `parse_serve_knobs`,
/// `parse_lint_flags` and `parse_fleet_config` (beyond the serving knobs)
/// read.
const SERVE_KNOBS: &str = "deadline-ms queue-cap batch batch-wait-ms shed";
const LINT_FLAGS: &str = "allow deny";
const FLEET_FLAGS: &str = "fleet router max-drains";

/// Every subcommand: its name, its handler and the flags it reads, as
/// space-separated groups. A flag outside its command's groups is an
/// error, not a silently stored no-op.
#[rustfmt::skip]
const COMMANDS: &[(&str, Handler, &[&str])] = &[
    ("summary", cmd_summary, &["model"]),
    ("generate", cmd_generate, &["model dataset rates out"]),
    ("inspect", cmd_inspect, &["library"]),
    ("simulate", cmd_simulate, &["library scenario policy runs"]),
    ("serve", cmd_serve,
     &["library scenario policy seed runs format out check", SERVE_KNOBS, LINT_FLAGS]),
    ("fleet", cmd_fleet,
     &["library scenario seed runs format out check", FLEET_FLAGS, SERVE_KNOBS, LINT_FLAGS]),
    ("report", cmd_report,
     &["mode library scenario seed policy top slo-target slo-objective format out check",
       FLEET_FLAGS, SERVE_KNOBS]),
    ("trace", cmd_trace, &["library scenario policy seed out"]),
    ("explore", cmd_explore, &["model target-fps cap"]),
    ("lint", cmd_lint,
     &["model rates library format explain", FLEET_FLAGS, SERVE_KNOBS, LINT_FLAGS]),
    ("serve-live", cmd_serve_live,
     &["model addr duration-s threads metrics-port nominal-fps format out",
       SERVE_KNOBS, LINT_FLAGS]),
    ("load", cmd_load,
     &["addr model requests rate-fps duration-s connections deadline-ms seed format"]),
    ("soak", cmd_soak,
     &["model rate-fps duration-s connections min-hit-pct seed", SERVE_KNOBS, LINT_FLAGS]),
    ("gateway", cmd_gateway,
     &["model backends addr router retry-budget warmup-iters nominal-fps duration-s seed",
       "format out", SERVE_KNOBS, LINT_FLAGS]),
    ("gateway-soak", cmd_gateway_soak,
     &["model backends router rate-fps duration-s connections min-hit-pct failover hetero",
       "load-deadline-ms seed", SERVE_KNOBS, LINT_FLAGS]),
];

/// Looks `args` up in [`COMMANDS`]: the handler to call and its parsed
/// flags, every one of which the subcommand reads.
fn resolve(args: &[String]) -> Result<(Handler, Flags), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage());
    };
    let Some((name, handler, groups)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(format!("unknown command `{command}`\n{}", usage()));
    };
    let flags = parse_flags(rest)?;
    let accepted: Vec<&str> = groups.iter().flat_map(|g| g.split_whitespace()).collect();
    if let Some(stray) = flags
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
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        println!("{}", usage());
        return Ok(());
    }
    let (handler, flags) = resolve(args)?;
    handler(&flags)
}

fn usage() -> String {
    "usage: adaflow_cli <command> [flags]\n\
     commands:\n\
     \x20 summary  --model <name>                  print the per-layer model card\n\
     \x20 generate --model <name> --dataset <d> [--rates a,b,..] [--out file]\n\
     \x20 inspect  --library <file>                print a generated library table\n\
     \x20 simulate --library <file> [--scenario 1|2|1+2] [--policy adaflow|finn|reconf:<ms>] [--runs N]\n\
     \x20 serve    --library <file> [--scenario 1|2|1+2] [--policy adaflow|fixed-max|flexible-only]\n\
     \x20          [--deadline-ms N] [--queue-cap N] [--shed block|oldest|newest] [--batch N]\n\
     \x20          [--batch-wait-ms N] [--seed N] [--runs N] [--format text|json] [--out prefix]\n\
     \x20          [--allow codes] [--deny codes] [--check 1]   request-level serving run\n\
     \x20          (--batch-wait-ms defaults to 20 in the simulators: serve, fleet, report, lint)\n\
     \x20 fleet    --library <file> [--scenario 1|2|1+2] [--fleet adaflow,fixed,flexible,..]\n\
     \x20          [--router rr|jsq|p2c|deadline] [--max-drains K] [--deadline-ms N] [--queue-cap N]\n\
     \x20          [--shed block|oldest|newest] [--batch N] [--batch-wait-ms N] [--seed N] [--runs N]\n\
     \x20          [--format text|json] [--out prefix] [--allow codes] [--deny codes] [--check 1]\n\
     \x20          multi-device fleet simulation behind a load-balancing router\n\
     \x20 report   [--mode serve|fleet] [--library <file>] [--scenario 1|2|1+2] [--seed N]\n\
     \x20          [--policy ...] [--fleet kinds] [--router r] [--top K] [--slo-target 0.97]\n\
     \x20          [--slo-objective deadline|latency] [--format text|json] [--out prefix] [--check 1]\n\
     \x20          per-stage latency waterfall, SLO error-budget burn and span-tree exports\n\
     \x20 trace    --library <file> [--scenario 1|2|1+2] [--policy ...] [--seed N] [--out prefix]\n\
     \x20          writes <prefix>.trace.json (Perfetto), <prefix>.jsonl, <prefix>.prom\n\
     \x20 explore  --model <name> [--target-fps F] [--cap 0.7]\n\
     \x20 lint     [--model <name>|all] [--rates a,b,..] [--fleet kinds] [--router r] [--deadline-ms N]\n\
     \x20          [--max-drains K] [--format text|json] [--allow codes] [--deny codes]\n\
     \x20          [--explain CODE|all]   static verification of graphs (AF/DF) and\n\
     \x20          fleet/serving configs (FL/SV); --explain prints a rule's catalog entry\n\
     \x20 serve-live --model <name> [--addr host:port] [--duration-s N] [--threads N]\n\
     \x20          [--metrics-port P] [--nominal-fps F] [--deadline-ms N] [--queue-cap N]\n\
     \x20          [--batch N] [--batch-wait-ms N] [--shed block|oldest|newest]\n\
     \x20          [--allow codes] [--deny codes] [--format text|json] [--out prefix]\n\
     \x20          real TCP serving over the live engine (verify-gated at startup);\n\
     \x20          --batch-wait-ms defaults to 0 on the live commands (serve-live, soak, gateway,\n\
     \x20          gateway-soak): an idle engine serves at once, batches fill while it is busy\n\
     \x20 load     --addr host:port --model <name> [--requests N | --rate-fps F --duration-s N]\n\
     \x20          [--connections N] [--deadline-ms N] [--seed N] [--format text|json]\n\
     \x20          seeded closed/open-loop load generator with reason-coded summary\n\
     \x20 soak     [--model <name>] [--rate-fps F] [--duration-s N] [--connections N]\n\
     \x20          [--min-hit-pct P] [--seed N]     in-process server + load soak with\n\
     \x20          hard floors (zero protocol errors, hit-rate, clean shutdown) — CI gate\n\
     \x20 gateway  --model <name> --backends h:p,h:p,.. [--addr host:port] [--router rr|jsq|p2c|deadline]\n\
     \x20          [--retry-budget N] [--warmup-iters N] [--duration-s N] [--seed N]\n\
     \x20          [--format text|json] [--out prefix]  live routing tier over running\n\
     \x20          serve-live backends (verify-gated at startup)\n\
     \x20 gateway-soak [--model <name>] [--backends N] [--router r] [--rate-fps F] [--duration-s N]\n\
     \x20          [--connections N] [--min-hit-pct P] [--failover 1] [--hetero 1]\n\
     \x20          [--load-deadline-ms N] [--seed N]\n\
     \x20          in-process backends + gateway + open-loop load with hard floors; --failover 1\n\
     \x20          kills backend 0 at t/3, restarts it at 2t/3, and requires ejection+readmission\n\
     models: cnv-w2a2, cnv-w1a2, lenet-w2a2, lenet-w1a2, tiny-w2a2; datasets: cifar10, gtsrb"
        .to_string()
}

/// Parses `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{key}`"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'f>(flags: &'f HashMap<String, String>, name: &str) -> Result<&'f str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}\n{}", usage()))
}

/// `--format text|json` (default `text`).
fn parse_format(flags: &Flags) -> Result<&str, String> {
    let format = flags.get("format").map_or("text", String::as_str);
    if matches!(format, "text" | "json") {
        Ok(format)
    } else {
        Err(format!("unknown --format `{format}` (text | json)"))
    }
}

/// Folds `events` into a fresh registry: the one fold `.prom`, `trace`'s
/// summary and `/metrics` all read.
fn fold_events(events: &[Event]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new(RegistryConfig::default());
    registry.observe_all(events);
    registry
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

/// Writes the `--out <prefix>` exports of `events` — `<prefix>.trace.json`
/// (Chrome/Perfetto), `.jsonl`, `.prom` (the registry exposition `/metrics`
/// serves, folded from these events) — then each `(suffix, contents)` of
/// `extra`, naming every file on stdout under `--format text`.
fn write_exports(
    prefix: &str,
    format: &str,
    events: &[Event],
    extra: &[(&str, String)],
) -> Result<(), String> {
    let standard = [
        ("trace.json", chrome_trace_json(events)),
        ("jsonl", events_to_jsonl(events)),
        ("prom", fold_events(events).to_prometheus()),
    ];
    for (suffix, contents) in standard.iter().chain(extra) {
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

fn cmd_summary(flags: &Flags) -> Result<(), String> {
    let graph = build_model(required(flags, "model")?, None)?;
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
    let dataset = parse_dataset(required(flags, "dataset")?)?;
    let graph = build_model(required(flags, "model")?, Some(dataset))?;
    let mut generator = LibraryGenerator::default_edge_setup();
    if let Some(rates) = flags.get("rates") {
        generator.pruning_rates = rates
            .split(',')
            .map(|r| {
                r.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad rate `{r}`: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    let library = generator
        .generate(&graph, dataset)
        .map_err(|e| e.to_string())?;
    println!(
        "generated {} models for {} on {} (baseline {:.0} FPS)",
        library.entries().len(),
        library.initial_model,
        library.device,
        library.baseline.throughput_fps
    );
    if let Some(path) = flags.get("out") {
        let json = library.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("library table written to {path} ({} bytes)", json.len());
    }
    Ok(())
}

fn load_library(flags: &Flags) -> Result<Library, String> {
    let path = required(flags, "library")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Library::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let library = load_library(flags)?;
    println!(
        "{} on {} — {} models, flexible fabric {} LUT / {} BRAM36",
        library.initial_model,
        library.device,
        library.entries().len(),
        library.flexible.resources.lut,
        library.flexible.resources.bram36
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "rate%", "achieved%", "accuracy", "FPS", "LUT", "BRAM"
    );
    for e in library.entries() {
        println!(
            "{:>6.0} {:>9.1} {:>9.2} {:>9.0} {:>10} {:>8}",
            e.requested_rate * 100.0,
            e.achieved_rate * 100.0,
            e.accuracy,
            e.fixed.throughput_fps,
            e.fixed.resources.lut,
            e.fixed.resources.bram36
        );
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let library = load_library(flags)?;
    let scenario = parse_scenario(flags.get("scenario").map_or("2", String::as_str))?;
    let runs: usize = parse_num(flags, "runs", 100)?;
    let policy = flags.get("policy").map_or("adaflow", String::as_str);
    let experiment = Experiment::new(&library, WorkloadSpec::paper_edge(scenario)).runs(runs);
    let metrics = match policy {
        "adaflow" => experiment.run_adaflow(RuntimeConfig::default()),
        "finn" => experiment.run_original_finn(),
        other => match other.strip_prefix("reconf:") {
            Some(ms) => {
                let ms: u64 = ms.parse().map_err(|e| format!("bad reconf time: {e}"))?;
                experiment.run_pruning_reconf(Duration::from_millis(ms))
            }
            None => return Err(format!("unknown policy `{other}`")),
        },
    };
    println!(
        "{policy} under {} ({runs} runs): loss {:.2}%  QoE {:.2}  power {:.2} W  \
         {:.0} inf/J  switches {:.1} (reconf {:.1}, flexible {:.1})  latency {:.1} ms",
        scenario.name(),
        metrics.frame_loss_pct,
        metrics.qoe_pct,
        metrics.avg_power_w,
        metrics.inferences_per_joule,
        metrics.model_switches,
        metrics.reconfigurations,
        metrics.flexible_switches,
        metrics.mean_latency_ms
    );
    Ok(())
}

/// Builds a pressure-driven request-level policy by name. `deadline_s`
/// arms the AdaFlow policy's deadline-aware reconfiguration guard.
fn build_serve_policy<'l>(
    name: &str,
    library: &'l Library,
    deadline_s: f64,
) -> Result<Box<dyn adaflow_serve::ServePolicy + 'l>, String> {
    use adaflow_serve::{AdaFlowServePolicy, FixedMaxPolicy, FlexibleOnlyPolicy};
    match name {
        "adaflow" => Ok(Box::new(
            AdaFlowServePolicy::new(library, RuntimeConfig::default()).with_deadline(deadline_s),
        )),
        "fixed-max" => Ok(Box::new(FixedMaxPolicy::new(library))),
        "flexible-only" => Ok(Box::new(FlexibleOnlyPolicy::new(
            library,
            RuntimeConfig::default(),
        ))),
        other => Err(format!(
            "unknown serve policy `{other}` (adaflow | fixed-max | flexible-only)"
        )),
    }
}

/// Worst-case service stall the named policy can cause — the backlog bound
/// fed to the SV002 queue-capacity rule.
fn worst_policy_stall_s(policy: &str, library: &Library) -> f64 {
    match policy {
        "fixed-max" => 0.0,
        "flexible-only" => {
            adaflow_serve::FlexibleOnlyPolicy::new(library, RuntimeConfig::default())
                .worst_stall_s()
        }
        _ => RuntimeConfig::default()
            .reconfig
            .reconfiguration_time(&library.baseline.bitstream)
            .as_secs_f64(),
    }
}

/// Request-level serving: deadline accounting, admission control and
/// dynamic batching over the paper's workload scenarios.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use adaflow_serve::ServeExperiment;
    use adaflow_telemetry::Event;
    use adaflow_verify::Severity;

    let library = load_library(flags)?;
    let scenario = parse_scenario(flags.get("scenario").map_or("2", String::as_str))?;
    let policy_name = flags.get("policy").map_or("adaflow", String::as_str);
    build_serve_policy(policy_name, &library, 0.25)?; // validate the name early
    let seed: u64 = parse_num(flags, "seed", 1)?;
    let runs: usize = parse_num(flags, "runs", 1)?;
    let shed_name = flags.get("shed").map_or("block", String::as_str);
    let format = parse_format(flags)?;
    let check = flags.get("check").is_some_and(|v| v == "1");

    let config = sim_serve_knobs(flags)?;
    let deadline_ms = config.deadline_s * 1e3;
    let spec = WorkloadSpec::paper_edge(scenario);

    // Static SV001/SV002 validation through the shared lint machinery.
    let lint = parse_lint_flags(flags);
    let report = config.validate(
        spec.nominal_fps(),
        worst_policy_stall_s(policy_name, &library),
        lint,
    );
    if format == "text" && report.count(Severity::Warn) + report.count(Severity::Error) > 0 {
        print!("{report}");
    }
    if report.has_errors() {
        return Err("serve configuration failed SV lint (see findings above)".to_string());
    }

    let experiment = ServeExperiment::new(&library, spec)
        .runs(runs.max(1))
        .seed(seed)
        .config(config.clone());
    let execute = || -> (adaflow_serve::ServeSummary, Vec<Event>) {
        if runs <= 1 {
            let (sink, recorder) = SinkHandle::recorder(1 << 18);
            let summary = experiment.run_traced(seed, sink, || {
                build_serve_policy(policy_name, &library, config.deadline_s)
                    .expect("name validated above")
            });
            (summary, drain_events(&recorder))
        } else {
            let summary = experiment.run_with(|| {
                build_serve_policy(policy_name, &library, config.deadline_s)
                    .expect("name validated")
            });
            (summary, Vec::new())
        }
    };
    let (summary, events) = execute();
    if !summary.conservation_holds() {
        return Err(format!(
            "request conservation violated: arrived {} != completed {} + shed {}",
            summary.arrived, summary.completed, summary.shed
        ));
    }
    if check {
        let (summary2, events2) = execute();
        if summary != summary2 || events != events2 {
            return Err("determinism check failed: repeated run diverged".to_string());
        }
    }

    if format == "json" {
        let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
        println!(
            "{{\"summary\":{json},\"runs\":{},\"events\":{}}}",
            runs.max(1),
            events.len()
        );
    } else {
        println!(
            "{policy_name} under {} (seed {seed}, {} run{}): {:.0} requests",
            scenario.name(),
            runs.max(1),
            if runs.max(1) == 1 { "" } else { "s" },
            summary.arrived
        );
        println!(
            "  deadline: {:.2}% hits within {deadline_ms:.0} ms \
             (latency p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms, mean {:.1} ms)",
            summary.deadline_hit_pct,
            summary.latency_p50_s * 1e3,
            summary.latency_p95_s * 1e3,
            summary.latency_p99_s * 1e3,
            summary.latency_mean_s * 1e3
        );
        println!(
            "  shed: {:.2}% ({:.0} requests, overflow {shed_name})",
            summary.shed_pct, summary.shed
        );
        println!(
            "  batches: {:.0} closed, mean size {:.1}, queue wait {:.1} ms, service {:.1} ms",
            summary.batches,
            summary.mean_batch_size,
            summary.queue_wait_mean_s * 1e3,
            summary.service_mean_s * 1e3
        );
        println!(
            "  control: {:.1} switches ({:.1} reconf, {:.1} flexible), stall {:.3} s, \
             accuracy {:.2}%",
            summary.model_switches,
            summary.reconfigurations,
            summary.flexible_switches,
            summary.stall_total_s,
            summary.mean_accuracy_pct
        );
        if !events.is_empty() {
            println!("  events: {} recorded", events.len());
        }
        if check {
            println!("  determinism: repeated run identical");
        }
    }

    if let Some(prefix) = flags.get("out") {
        if events.is_empty() {
            return Err("--out requires a single run (--runs 1) to record events".to_string());
        }
        write_exports(prefix, format, &events, &[])?;
    }
    Ok(())
}

/// Applies the shared serving knobs (`--deadline-ms`, `--queue-cap`,
/// `--batch`, `--batch-wait-ms`, `--shed`) to `base`, which supplies every
/// knob the flags leave out — see [`sim_serve_knobs`] and
/// [`live_serve_knobs`], the two families of commands that share the flags.
fn parse_serve_knobs(
    flags: &Flags,
    mut base: adaflow_serve::ServeConfig,
) -> Result<adaflow_serve::ServeConfig, String> {
    let seconds = |name: &str, base_s: f64| {
        flags.get(name).map_or(Ok(base_s), |v| {
            let ms: Result<f64, _> = v.parse();
            ms.map(|ms| ms / 1e3)
                .map_err(|e| format!("bad --{name}: {e}"))
        })
    };
    base.deadline_s = seconds("deadline-ms", base.deadline_s)?;
    base.queue_capacity = parse_num(flags, "queue-cap", base.queue_capacity)?;
    base.max_batch = parse_num(flags, "batch", base.max_batch)?;
    base.max_wait_s = seconds("batch-wait-ms", base.max_wait_s)?;
    if let Some(name) = flags.get("shed") {
        base.overflow = adaflow_serve::OverflowPolicy::parse(name)
            .ok_or_else(|| format!("unknown --shed `{name}` (block | oldest | newest)"))?;
    }
    Ok(base)
}

/// The serving knobs of the simulator commands (`serve`, `fleet`, `report`,
/// `lint`), over `ServeConfig::default()`: `--batch-wait-ms` defaults to 20.
fn sim_serve_knobs(flags: &Flags) -> Result<adaflow_serve::ServeConfig, String> {
    parse_serve_knobs(flags, adaflow_serve::ServeConfig::default())
}

/// The serving knobs of the live commands (`serve-live`, `soak`, `gateway`,
/// `gateway-soak`), over `LiveConfig::default()`: the same flags as the
/// simulators, but `--batch-wait-ms` defaults to 0 — an idle engine serves
/// at once.
fn live_serve_knobs(flags: &Flags) -> Result<adaflow_serve::ServeConfig, String> {
    parse_serve_knobs(flags, adaflow_net::LiveConfig::default().serve)
}

/// Parses the `--allow` / `--deny` lint policy flags.
fn parse_lint_flags(flags: &Flags) -> adaflow_verify::LintConfig {
    use adaflow_verify::LintConfig;
    LintConfig {
        allow: flags
            .get("allow")
            .map(|codes| LintConfig::parse_codes(codes))
            .unwrap_or_default(),
        deny: flags
            .get("deny")
            .map(|codes| LintConfig::parse_codes(codes))
            .unwrap_or_default(),
    }
}

/// Builds a [`adaflow_fleet::FleetConfig`] from the fleet CLI flags
/// (`--fleet`, `--router`, `--max-drains` plus the shared serving knobs).
fn parse_fleet_config(flags: &Flags) -> Result<adaflow_fleet::FleetConfig, String> {
    use adaflow_fleet::{DeviceKind, FleetConfig, RouterKind};
    let fleet_list = flags
        .get("fleet")
        .map_or("adaflow,adaflow,flexible,fixed", String::as_str);
    let devices = DeviceKind::parse_fleet(fleet_list).ok_or_else(|| {
        format!("bad --fleet `{fleet_list}` (comma-separated adaflow | fixed | flexible)")
    })?;
    let router_name = flags.get("router").map_or("deadline", String::as_str);
    let router = RouterKind::parse(router_name)
        .ok_or_else(|| format!("unknown --router `{router_name}` (rr | jsq | p2c | deadline)"))?;
    let max_drains: usize = parse_num(flags, "max-drains", 1)?;
    Ok(FleetConfig {
        devices,
        router,
        serve: sim_serve_knobs(flags)?,
        max_concurrent_drains: max_drains,
    })
}

/// Fleet-level serving: N simulated accelerator devices behind a
/// load-balancing router, with staggered reconfiguration drains.
fn cmd_fleet(flags: &Flags) -> Result<(), String> {
    use adaflow_fleet::{FleetExperiment, FleetSummary};
    use adaflow_telemetry::Event;
    use adaflow_verify::Severity;

    let library = load_library(flags)?;
    let scenario = parse_scenario(flags.get("scenario").map_or("2", String::as_str))?;
    let seed: u64 = parse_num(flags, "seed", 1)?;
    let runs: usize = parse_num(flags, "runs", 1)?;
    let format = parse_format(flags)?;
    let check = flags.get("check").is_some_and(|v| v == "1");
    let config = parse_fleet_config(flags)?;
    let spec = WorkloadSpec::paper_edge(scenario);

    // Static validation: the FL fleet rules plus the per-device SV serving
    // rules (each device sees its share of the offered load and can stall
    // as long as a full reconfiguration).
    let lint = parse_lint_flags(flags);
    let mut report = config.validate(lint.clone());
    let share_fps = spec.nominal_fps() / config.devices.len().max(1) as f64;
    report.merge(
        config
            .serve
            .validate(share_fps, worst_policy_stall_s("adaflow", &library), lint),
    );
    if format == "text" && report.count(Severity::Warn) + report.count(Severity::Error) > 0 {
        print!("{report}");
    }
    if report.has_errors() {
        return Err("fleet configuration failed FL/SV lint (see findings above)".to_string());
    }

    let experiment = FleetExperiment::new(&library, spec)
        .config(config.clone())
        .runs(runs.max(1))
        .seed(seed);
    let execute = || -> (FleetSummary, Vec<Event>) {
        if runs <= 1 {
            let (sink, recorder) = SinkHandle::recorder(1 << 18);
            (experiment.run_traced(seed, sink), drain_events(&recorder))
        } else {
            (experiment.run(), Vec::new())
        }
    };
    let (summary, events) = execute();
    if !summary.conservation_holds() {
        return Err(format!(
            "fleet conservation violated: arrived {} != completed {} + shed {}",
            summary.arrived, summary.completed, summary.shed
        ));
    }
    if check {
        let (summary2, events2) = execute();
        if summary != summary2 || events != events2 {
            return Err("determinism check failed: repeated fleet run diverged".to_string());
        }
    }

    if format == "json" {
        let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
        println!(
            "{{\"summary\":{json},\"runs\":{},\"events\":{}}}",
            runs.max(1),
            events.len()
        );
    } else {
        let kinds: Vec<&str> = config.devices.iter().map(|k| k.name()).collect();
        println!(
            "fleet of {} [{}] under {} via {} (seed {seed}, {} run{}): {:.0} requests",
            config.devices.len(),
            kinds.join(","),
            scenario.name(),
            summary.router,
            runs.max(1),
            if runs.max(1) == 1 { "" } else { "s" },
            summary.arrived
        );
        println!(
            "  deadline: {:.2}% hits within {:.0} ms (latency p50 {:.1} ms, p95 {:.1} ms, \
             p99 {:.1} ms, mean {:.1} ms)",
            summary.deadline_hit_pct,
            config.serve.deadline_s * 1e3,
            summary.latency_p50_s * 1e3,
            summary.latency_p95_s * 1e3,
            summary.latency_p99_s * 1e3,
            summary.latency_mean_s * 1e3
        );
        println!(
            "  shed: {:.2}% ({:.0} requests); batches {:.0}, mean size {:.1}",
            summary.shed_pct, summary.shed, summary.batches, summary.mean_batch_size
        );
        println!(
            "  balance: imbalance cv mean {:.3} / max {:.3}, routed-share cv {:.3}",
            summary.imbalance_cv_mean, summary.imbalance_cv_max, summary.routed_share_cv
        );
        println!(
            "  stagger: max {:.0} concurrent drain(s) under a budget of {}; \
             {:.1} switches ({:.1} reconf, {:.1} flexible), stall {:.3} s",
            summary.observed_max_drains,
            config.max_concurrent_drains,
            summary.model_switches,
            summary.reconfigurations,
            summary.flexible_switches,
            summary.stall_total_s
        );
        for (idx, d) in summary.per_device.iter().enumerate() {
            println!(
                "  device {idx} {:>13}: {:>6.0} routed, hit {:>6.2}%, util {:>5.1}%, \
                 shed {:.0}, reconf {:.1}",
                d.kind,
                d.arrived,
                d.deadline_hit_pct,
                d.utilization_pct,
                d.shed,
                d.reconfigurations
            );
        }
        if check {
            println!("  determinism: repeated run identical");
        }
    }

    if let Some(prefix) = flags.get("out") {
        if events.is_empty() {
            return Err("--out requires a single run (--runs 1) to record events".to_string());
        }
        write_exports(prefix, format, &events, &[])?;
    }
    Ok(())
}

/// Causal latency attribution: runs one traced serve or fleet simulation,
/// reconstructs the span forest, and reports the per-stage waterfall plus
/// the SLO error-budget burn — bit-identical per seed.
#[allow(clippy::too_many_lines)]
fn cmd_report(flags: &Flags) -> Result<(), String> {
    use adaflow_telemetry::{Objective, SloConfig, SloEngine, TraceForest, Waterfall};

    let mode = flags.get("mode").map_or("serve", String::as_str);
    if !matches!(mode, "serve" | "fleet") {
        return Err(format!("unknown --mode `{mode}` (serve | fleet)"));
    }
    let scenario_name = flags.get("scenario").map_or("2", String::as_str);
    let scenario = parse_scenario(scenario_name)?;
    let seed: u64 = parse_num(flags, "seed", 7)?;
    let top: usize = parse_num(flags, "top", 3)?;
    let format = parse_format(flags)?;
    let check = flags.get("check").is_some_and(|v| v == "1");
    let target: f64 = parse_num(flags, "slo-target", 0.97)?;
    if !(target > 0.0 && target < 1.0) {
        return Err("--slo-target must lie strictly inside (0, 1)".to_string());
    }
    let objective_name = flags
        .get("slo-objective")
        .map_or("deadline", String::as_str);
    let objective = Objective::from_label(objective_name).ok_or_else(|| {
        format!("unknown --slo-objective `{objective_name}` (deadline | latency)")
    })?;

    // An explicit library wins; otherwise generate the default edge setup
    // in process so `report` works standalone.
    let library = match flags.get("library") {
        Some(_) => load_library(flags)?,
        None => LibraryGenerator::default_edge_setup()
            .generate(
                &build_model("cnv-w2a2", Some(DatasetKind::Cifar10))?,
                DatasetKind::Cifar10,
            )
            .map_err(|e| e.to_string())?,
    };
    let spec = WorkloadSpec::paper_edge(scenario);
    let config = sim_serve_knobs(flags)?;

    // One traced run; returns (summary JSON, headline, events).
    let run_once = || -> Result<(String, String, Vec<Event>), String> {
        let (sink, recorder) = SinkHandle::recorder(1 << 20);
        if mode == "serve" {
            let policy_name = flags.get("policy").map_or("adaflow", String::as_str);
            build_serve_policy(policy_name, &library, config.deadline_s)?;
            let experiment = adaflow_serve::ServeExperiment::new(&library, spec.clone())
                .runs(1)
                .seed(seed)
                .config(config.clone());
            let summary = experiment.run_traced(seed, sink, || {
                build_serve_policy(policy_name, &library, config.deadline_s)
                    .expect("name validated above")
            });
            if !summary.conservation_holds() {
                return Err("request conservation violated in traced run".to_string());
            }
            let headline = format!(
                "serve/{policy_name} under {} (seed {seed}): {:.0} arrived, {:.0} completed \
                 ({:.2}% deadline hits), {:.0} shed",
                scenario.name(),
                summary.arrived,
                summary.completed,
                summary.deadline_hit_pct,
                summary.shed
            );
            let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
            Ok((json, headline, drain_events(&recorder)))
        } else {
            let fleet_config = parse_fleet_config(flags)?;
            let experiment = adaflow_fleet::FleetExperiment::new(&library, spec.clone())
                .config(fleet_config.clone())
                .runs(1)
                .seed(seed);
            let summary = experiment.run_traced(seed, sink);
            if !summary.conservation_holds() {
                return Err("fleet conservation violated in traced run".to_string());
            }
            let headline = format!(
                "fleet of {} via {} under {} (seed {seed}): {:.0} arrived, {:.0} completed \
                 ({:.2}% deadline hits), {:.0} shed; stage means queue {:.2} ms / \
                 batch-wait {:.2} ms (stall {:.2} ms) / service {:.2} ms",
                fleet_config.devices.len(),
                summary.router,
                scenario.name(),
                summary.arrived,
                summary.completed,
                summary.deadline_hit_pct,
                summary.shed,
                summary.queue_wait_mean_s * 1e3,
                summary.batch_wait_mean_s * 1e3,
                summary.stall_mean_s * 1e3,
                summary.service_mean_s * 1e3
            );
            let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
            Ok((json, headline, drain_events(&recorder)))
        }
    };

    let (summary_json, headline, events) = run_once()?;
    let forest = TraceForest::from_events(&events);
    forest
        .validate()
        .map_err(|e| format!("invalid span forest: {e}"))?;
    let waterfall = Waterfall::from_forest(&forest, top);
    let mut registry = MetricsRegistry::new(RegistryConfig {
        latency_objective_s: config.deadline_s,
        ..RegistryConfig::default()
    });
    registry.observe_all(&events);
    let slo = SloEngine::new(SloConfig {
        objective,
        target,
        ..SloConfig::default()
    })
    .evaluate(&registry);
    let waterfall_json = serde_json::to_string(&waterfall).map_err(|e| e.to_string())?;
    let slo_json = serde_json::to_string(&slo).map_err(|e| e.to_string())?;

    if check {
        let (summary2, _, events2) = run_once()?;
        if summary_json != summary2 || events != events2 {
            return Err("determinism check failed: repeated traced run diverged".to_string());
        }
    }

    if format == "json" {
        println!(
            "{{\"mode\":\"{mode}\",\"scenario\":\"{scenario_name}\",\"seed\":{seed},\
             \"summary\":{summary_json},\"waterfall\":{waterfall_json},\"slo\":{slo_json}}}"
        );
    } else {
        println!("{headline}");
        print!("{}", waterfall.render_text());
        println!(
            "slo ({}, target {:.2}%): good {:.2}%, error budget {:.1} requests, consumed {:.1}%",
            slo.objective,
            slo.target * 100.0,
            slo.good_fraction * 100.0,
            slo.error_budget,
            slo.budget_consumed_pct
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
        if check {
            println!("  determinism: repeated run identical");
        }
    }

    if let Some(prefix) = flags.get("out") {
        // Fold the SLO alerts into the exported stream (they carry their
        // own sim timestamps), so the Perfetto view shows burns in place.
        let mut exported = events.clone();
        exported.extend(slo.alerts.iter().cloned());
        write_exports(prefix, format, &exported, &[])?;
    }
    Ok(())
}

/// Builds a serving policy by name, attaching a telemetry sink.
fn build_policy<'l>(
    name: &str,
    library: &'l Library,
    sink: &SinkHandle,
) -> Result<Box<dyn ServerPolicy + 'l>, String> {
    match name {
        "adaflow" => Ok(Box::new(
            AdaFlowPolicy::new(library, RuntimeConfig::default()).with_sink(sink.clone()),
        )),
        "finn" => Ok(Box::new(
            OriginalFinnPolicy::new(library).with_sink(sink.clone()),
        )),
        other => match other.strip_prefix("reconf:") {
            Some(ms) => {
                let ms: u64 = ms.parse().map_err(|e| format!("bad reconf time: {e}"))?;
                Ok(Box::new(
                    PruningReconfPolicy::new(library, Duration::from_millis(ms))
                        .with_sink(sink.clone()),
                ))
            }
            None => Err(format!("unknown policy `{other}`")),
        },
    }
}

/// One fully-traced serving run: records every telemetry event, prints a
/// summary and (with `--out prefix`) writes the Chrome trace, JSONL and
/// Prometheus exports.
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let library = load_library(flags)?;
    let scenario = parse_scenario(flags.get("scenario").map_or("2", String::as_str))?;
    let seed: u64 = parse_num(flags, "seed", 1)?;
    let policy_name = flags.get("policy").map_or("adaflow", String::as_str);

    let (sink, recorder) = SinkHandle::recorder(1 << 18);
    let mut policy = build_policy(policy_name, &library, &sink)?;
    let segments = WorkloadSpec::paper_edge(scenario).generate(seed);
    let sim = EdgeSim::new(SimConfig::default()).with_sink(sink);
    let (metrics, _) = sim.run(policy.as_mut(), &segments);

    let events = drain_events(&recorder);
    let registry = fold_events(&events);
    println!(
        "{policy_name} under {} (seed {seed}): {} events over {:.1} s",
        scenario.name(),
        events.len(),
        events.iter().fold(0.0_f64, |end, e| end.max(e.t_s))
    );
    println!(
        "  frames: {:.0} arrived, {:.1} dropped (run lost {:.1}, {:.2}%)",
        registry.counter("frames_arrived"),
        registry.counter("frames_dropped"),
        metrics.lost,
        metrics.frame_loss_pct
    );
    println!(
        "  control: {} decisions, {} reconfigurations, {} model switches ({} flexible), stall {:.3} s",
        registry.counter("decisions"),
        registry.counter("reconfigurations"),
        registry.counter("model_switches"),
        registry.counter("flexible_switches"),
        registry.counter("stall_seconds")
    );
    println!(
        "  latency: mean {:.1} ms, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        metrics.mean_latency_ms,
        metrics.latency_p50_ms,
        metrics.latency_p95_ms,
        metrics.latency_p99_ms
    );
    // A run that sampled no depth prints the zeros an empty histogram reads.
    let depth = |q| {
        registry
            .histogram("queue_depth")
            .map_or(0.0, |h| h.quantile(q))
    };
    println!(
        "  queue depth: p50 {:.1}, p95 {:.1}, p99 {:.1} frames",
        depth(0.5),
        depth(0.95),
        depth(0.99)
    );

    if let Some(prefix) = flags.get("out") {
        write_exports(prefix, "text", &events, &[])?;
    }
    Ok(())
}

/// All model names `lint --model all` expands to.
const LINT_MODELS: [&str; 5] = [
    "cnv-w2a2",
    "cnv-w1a2",
    "lenet-w2a2",
    "lenet-w1a2",
    "tiny-w2a2",
];

/// Lints one graph end to end: the `AF` graph rules, the `DF` folding rule
/// against the model's reference folding, and — when the accelerator
/// compiles — the `DF` pipeline rules. Returns one merged report.
fn lint_graph(
    graph: &adaflow_model::CnnGraph,
    lint: &adaflow_verify::LintConfig,
) -> Result<adaflow_verify::Report, String> {
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

fn cmd_lint(flags: &Flags) -> Result<(), String> {
    use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
    use adaflow_verify::Severity;

    if let Some(code) = flags.get("explain") {
        return cmd_explain(code);
    }

    // Fleet/serving config linting (FL + SV rule families) rides on the
    // same allow/deny policy and error exit as the graph rules. It is
    // requested by any fleet-shaped flag; `--model` is then optional.
    let fleet_requested = ["fleet", "router", "deadline-ms", "max-drains"]
        .iter()
        .any(|f| flags.contains_key(*f));
    let models: Vec<&str> = match flags.get("model").map(String::as_str) {
        Some("all") => LINT_MODELS.to_vec(),
        Some(name) => vec![name],
        None if fleet_requested => Vec::new(),
        None => return Err(format!("missing --model\n{}", usage())),
    };
    let rates: Vec<f64> = flags.get("rates").map_or(Ok(vec![0.0]), |rates| {
        rates
            .split(',')
            .map(|r| {
                r.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad rate `{r}`: {e}"))
            })
            .collect()
    })?;
    let format = parse_format(flags)?;
    let lint = parse_lint_flags(flags);

    let mut reports = Vec::new();
    if fleet_requested {
        let config = parse_fleet_config(flags)?;
        reports.push(config.validate(lint.clone()));
        // SV serving rules on the per-device share of the paper's edge
        // load. The worst-case stall needs a concrete library; without
        // `--library` only the deadline-local SV001 can fire.
        let worst_stall_s = match flags.get("library") {
            Some(_) => worst_policy_stall_s("adaflow", &load_library(flags)?),
            None => 0.0,
        };
        let share_fps = WorkloadSpec::paper_edge(Scenario::Unpredictable).nominal_fps()
            / config.devices.len().max(1) as f64;
        reports.push(
            config
                .serve
                .validate(share_fps, worst_stall_s, lint.clone()),
        );
    }
    for name in models {
        let graph = build_model(name, None)?;
        reports.push(lint_graph(&graph, &lint)?);
        let config = FinnConfig::cnv_reference(&graph).map_err(|e| e.to_string())?;
        let pruner = DataflowAwarePruner::new(config);
        for &rate in &rates {
            if rate == 0.0 {
                continue;
            }
            let pruned = pruner.prune(&graph, rate).map_err(|e| e.to_string())?;
            reports.push(lint_graph(&pruned.graph, &lint)?);
        }
    }

    let errors: usize = reports.iter().map(|r| r.count(Severity::Error)).sum();
    if format == "json" {
        let docs: Result<Vec<String>, _> = reports
            .iter()
            .map(adaflow_verify::Report::to_json)
            .collect();
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
    let graph = build_model(required(flags, "model")?, None)?;
    let target_fps: f64 = parse_num(flags, "target-fps", 600.0)?;
    let cap: f64 = parse_num(flags, "cap", 0.7)?;
    let goal = ExplorationGoal {
        target_fps,
        device: FpgaDevice::zcu104(),
        utilization_cap: cap,
    };
    let result = FoldingExplorer::new(goal)
        .explore(&graph)
        .map_err(|e| e.to_string())?;
    println!(
        "explored folding in {} moves: {:.0} FPS (target {}) — {} LUT, {} BRAM36",
        result.moves,
        result.throughput_fps,
        if result.target_met { "met" } else { "NOT met" },
        result.resources.lut,
        result.resources.bram36
    );
    for (id, f) in result.folding.entries() {
        println!(
            "  {}: PE {}, SIMD {}",
            graph.nodes()[id.0].name,
            f.pe,
            f.simd
        );
    }
    Ok(())
}

/// Parses an optional numeric flag, falling back to `default`.
fn parse_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flags.get(name).map_or(Ok(default), |v| {
        v.parse().map_err(|e| format!("bad --{name}: {e}"))
    })
}

/// Serves a model over real TCP sockets on the live inference engine.
///
/// The startup path is verify-gated: the full graph lint plus the serving
/// config lint run first, and any Error-level diagnostic refuses to open
/// the socket (nonzero exit) — the live counterpart of `serve`'s SV gate.
fn cmd_serve_live(flags: &Flags) -> Result<(), String> {
    use adaflow_net::{preflight, LiveConfig, LiveServer, MetricsEndpoint};
    use adaflow_telemetry::RegistrySink;
    use adaflow_verify::Severity;
    use std::sync::Arc;

    let model_name = required(flags, "model")?.to_string();
    let graph = build_model(&model_name, None)?;
    let serve = live_serve_knobs(flags)?;
    let lint = parse_lint_flags(flags);
    let nominal_fps: f64 = parse_num(flags, "nominal-fps", 100.0)?;
    let duration_s: f64 = parse_num(flags, "duration-s", 0.0)?;
    let threads: usize = parse_num(flags, "threads", 0)?;
    let addr = flags.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let format = parse_format(flags)?;

    // Hard gate: a live endpoint must not come up on a config the verifier
    // rejects. Worst stall is zero — live serving runs a single model.
    let report = preflight(&graph, &serve, nominal_fps, 0.0, &lint).map_err(|e| e.to_string())?;
    if format == "text" && report.count(Severity::Warn) > 0 {
        print!("{report}");
    }

    let (trace_sink, recorder) = SinkHandle::recorder(1 << 18);
    let registry = RegistrySink::new(RegistryConfig::default());
    let sink = SinkHandle::fanout(vec![trace_sink, SinkHandle::new(registry.clone())]);
    let config = LiveConfig {
        serve: serve.clone(),
        model_id: model_name.clone(),
        threads,
    };
    let server = LiveServer::bind(addr, &graph, config, sink).map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();

    // Optional Prometheus scrape endpoint, on its own thread.
    let metrics_stop = Arc::new(adaflow_proto::server::Stop::new());
    let metrics_thread = match flags.get("metrics-port") {
        Some(port) => {
            let port: u16 = port
                .parse()
                .map_err(|e| format!("bad --metrics-port: {e}"))?;
            let endpoint =
                MetricsEndpoint::bind(("127.0.0.1", port), registry, metrics_stop.clone())
                    .map_err(|e| format!("binding metrics endpoint: {e}"))?;
            let metrics_addr = endpoint.local_addr().map_err(|e| e.to_string())?;
            if format == "text" {
                println!("metrics: http://{metrics_addr}/metrics");
            }
            Some(std::thread::spawn(move || endpoint.serve()))
        }
        None => None,
    };

    if format == "text" {
        println!(
            "serving {model_name} on {bound}: deadline {:.0} ms, queue {}, batch {} / {:.0} ms{}",
            serve.deadline_s * 1e3,
            serve.queue_capacity,
            serve.max_batch,
            serve.max_wait_s * 1e3,
            if duration_s > 0.0 {
                format!(", for {duration_s:.0} s")
            } else {
                String::new()
            }
        );
    }
    if duration_s > 0.0 {
        let timer = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(duration_s));
            timer.shutdown();
        });
    }

    let report = server.run().map_err(|e| e.to_string())?;
    metrics_stop.raise();
    if let Some(t) = metrics_thread {
        let _ = t.join();
    }
    let events = drain_events(&recorder);

    if format == "json" {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        );
    } else {
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
        println!(
            "  batches: {:.0} closed, mean size {:.1}, queue wait {:.1} ms, service {:.1} ms \
             (floor {:.2} ms)",
            s.batches,
            s.mean_batch_size,
            s.queue_wait_mean_s * 1e3,
            s.service_mean_s * 1e3,
            report.min_service_s * 1e3
        );
        let r = &report.rejects;
        println!(
            "  rejects: queue-full {}, deadline-infeasible {}, shutting-down {}, \
             unknown-model {}, bad-request {}",
            r.queue_full, r.deadline_infeasible, r.shutting_down, r.unknown_model, r.bad_request
        );
        println!(
            "  wire: {} connection(s), {} protocol error(s), {} send error(s), \
             {} accept error(s), {} event(s) recorded",
            report.connections,
            report.protocol_errors,
            report.send_errors,
            report.accept_errors,
            events.len()
        );
    }

    if let Some(prefix) = flags.get("out") {
        let report_json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        write_exports(prefix, format, &events, &[("report.json", report_json)])?;
    }
    Ok(())
}

/// Drives seeded load against a live endpoint and prints the
/// reason-coded summary.
fn cmd_load(flags: &Flags) -> Result<(), String> {
    use adaflow_net::{run_load, LoadConfig, LoadMode};

    let addr_str = required(flags, "addr")?;
    let addr: std::net::SocketAddr = addr_str
        .parse()
        .map_err(|e| format!("bad --addr `{addr_str}`: {e}"))?;
    let model_name = required(flags, "model")?.to_string();
    let graph = build_model(&model_name, None)?;
    let connections: usize = parse_num(flags, "connections", 1)?;
    let seed: u64 = parse_num(flags, "seed", 7)?;
    let deadline_ms: f64 = parse_num(flags, "deadline-ms", 0.0)?;
    let format = parse_format(flags)?;
    let mode = if let Some(requests) = flags.get("requests") {
        LoadMode::Closed {
            requests: requests
                .parse()
                .map_err(|e| format!("bad --requests: {e}"))?,
        }
    } else {
        LoadMode::Open {
            rate_fps: parse_num(flags, "rate-fps", 100.0)?,
            duration_s: parse_num(flags, "duration-s", 5.0)?,
        }
    };
    let config = LoadConfig {
        addr,
        model: model_name,
        shape: graph.input_shape(),
        connections,
        mode,
        deadline_us: (deadline_ms * 1e3).max(0.0) as u64,
        seed,
        recv_grace: Duration::from_secs(5),
    };
    let summary = run_load(&config);
    print_load_summary(&summary, format)
}

fn print_load_summary(summary: &adaflow_net::LoadSummary, format: &str) -> Result<(), String> {
    if format == "json" {
        println!(
            "{}",
            serde_json::to_string(summary).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "load: {} sent — {} ok, {} rejected, {} missing ({:.2}% hit within budget)",
        summary.sent,
        summary.ok,
        summary.rejected(),
        summary.missing,
        summary.hit_pct()
    );
    println!(
        "  rejects: queue-full {}, deadline-infeasible {}, shutting-down {}, \
         unknown-model {}, bad-request {}",
        summary.rejected_queue_full,
        summary.rejected_deadline_infeasible,
        summary.rejected_shutting_down,
        summary.rejected_unknown_model,
        summary.rejected_bad_request
    );
    println!(
        "  errors: protocol {}, io {}",
        summary.protocol_errors, summary.io_errors
    );
    println!(
        "  rtt: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms — {:.1} req/s over {:.1} s",
        summary.rtt_p50_s * 1e3,
        summary.rtt_p95_s * 1e3,
        summary.rtt_p99_s * 1e3,
        summary.throughput_rps,
        summary.elapsed_s
    );
    Ok(())
}

/// The client-side floors `soak` and `gateway-soak` share: what the load
/// generator itself saw go wrong, whatever tier answered it.
fn client_floor_failures(summary: &adaflow_net::LoadSummary, min_hit_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if summary.protocol_errors > 0 {
        failures.push(format!(
            "client decoded {} malformed frame(s)",
            summary.protocol_errors
        ));
    }
    if summary.io_errors > 0 {
        failures.push(format!(
            "{} socket error(s) on the client",
            summary.io_errors
        ));
    }
    if summary.missing > 0 {
        failures.push(format!(
            "{} request(s) never got a response",
            summary.missing
        ));
    }
    if summary.hit_pct() < min_hit_pct {
        failures.push(format!(
            "hit rate {:.2}% below the {min_hit_pct:.2}% floor",
            summary.hit_pct()
        ));
    }
    failures
}

/// In-process server + seeded load with hard pass/fail floors — the CI
/// gate for the live serving path.
fn cmd_soak(flags: &Flags) -> Result<(), String> {
    use adaflow_net::{preflight, run_load, LiveConfig, LiveServer, LoadConfig, LoadMode};

    let model_name = flags
        .get("model")
        .map_or("tiny-w2a2", String::as_str)
        .to_string();
    let graph = build_model(&model_name, None)?;
    let serve = live_serve_knobs(flags)?;
    let lint = parse_lint_flags(flags);
    let rate_fps: f64 = parse_num(flags, "rate-fps", 200.0)?;
    let duration_s: f64 = parse_num(flags, "duration-s", 3.0)?;
    let connections: usize = parse_num(flags, "connections", 2)?;
    let min_hit_pct: f64 = parse_num(flags, "min-hit-pct", 50.0)?;
    let seed: u64 = parse_num(flags, "seed", 7)?;

    preflight(&graph, &serve, rate_fps, 0.0, &lint).map_err(|e| e.to_string())?;

    let (sink, recorder) = SinkHandle::recorder(1 << 18);
    let config = LiveConfig {
        serve,
        model_id: model_name.clone(),
        ..LiveConfig::default()
    };
    let server =
        LiveServer::bind("127.0.0.1:0", &graph, config, sink).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let shape = graph.input_shape();

    println!(
        "soak: {model_name} on {addr}, {rate_fps:.0} req/s x {duration_s:.0} s \
         over {connections} connection(s), seed {seed}"
    );
    let (server_result, summary) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || server.run());
        let load = LoadConfig {
            addr,
            model: model_name,
            shape,
            connections,
            mode: LoadMode::Open {
                rate_fps,
                duration_s,
            },
            deadline_us: 0,
            seed,
            recv_grace: Duration::from_secs(5),
        };
        let summary = run_load(&load);
        handle.shutdown();
        (server_thread.join().expect("server thread"), summary)
    });
    let report = server_result.map_err(|e| format!("server failed: {e}"))?;
    let events = drain_events(&recorder);

    print_load_summary(&summary, "text")?;
    println!(
        "  server: {:.0} arrived, {:.0} served, {:.0} shed, {} event(s) recorded",
        report.summary.arrived,
        report.summary.completed,
        report.summary.shed,
        events.len()
    );

    // The floors. Any violation is a red CI.
    let mut failures = client_floor_failures(&summary, min_hit_pct);
    if report.protocol_errors > 0 {
        failures.push(format!(
            "server dropped {} connection(s) on protocol errors",
            report.protocol_errors
        ));
    }
    if !report.summary.conservation_holds() {
        failures.push(format!(
            "request conservation violated: arrived {:.0} != completed {:.0} + shed {:.0}",
            report.summary.arrived, report.summary.completed, report.summary.shed
        ));
    }
    if failures.is_empty() {
        println!(
            "soak: PASS ({:.2}% hits >= {min_hit_pct:.2}% floor, zero protocol errors, \
             clean shutdown)",
            summary.hit_pct()
        );
        Ok(())
    } else {
        Err(format!("soak FAILED: {}", failures.join("; ")))
    }
}

fn parse_router_flag(flags: &Flags) -> Result<adaflow_fleet::RouterKind, String> {
    let name = flags.get("router").map_or("deadline", String::as_str);
    adaflow_fleet::RouterKind::parse(name)
        .ok_or_else(|| format!("unknown --router `{name}` (rr | jsq | p2c | deadline)"))
}

fn gateway_warmup(
    model: &str,
    shape: adaflow_model::TensorShape,
    iters: u32,
) -> Option<adaflow_gateway::WarmupSpec> {
    (iters > 0).then(|| adaflow_gateway::WarmupSpec {
        model: model.to_string(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        iters,
    })
}

fn print_gateway_report(
    report: &adaflow_gateway::GatewayReport,
    format: &str,
) -> Result<(), String> {
    if format == "json" {
        println!(
            "{}",
            serde_json::to_string(report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "gateway: {} received over {:.1} s — {} ok, {} rejected, {} retries ({} router)",
        report.received,
        report.duration_s,
        report.answered_ok,
        report.rejects.total(),
        report.retries,
        report.router
    );
    let r = &report.rejects;
    println!(
        "  rejects: queue-full {}, deadline-infeasible {}, shutting-down {} ({} with no backend), \
         unknown-model {}, bad-request {}",
        r.queue_full,
        r.deadline_infeasible,
        r.shutting_down,
        report.no_backend,
        r.unknown_model,
        r.bad_request
    );
    println!(
        "  wire: {} connection(s), {} protocol error(s), {} send error(s), {} accept error(s)",
        report.connections, report.protocol_errors, report.send_errors, report.accept_errors
    );
    for (idx, b) in report.backends.iter().enumerate() {
        println!(
            "  backend[{idx}] {}: {} routed, {} ok, {} retryable, {} ejection(s), \
             {} readmission(s), floor {:.2} ms, rtt p50 {:.1} ms / p95 {:.1} ms / p99 {:.1} ms{}",
            b.addr,
            b.routed,
            b.ok,
            b.retryable,
            b.ejections,
            b.readmissions,
            b.floor_s * 1e3,
            b.rtt_p50_s * 1e3,
            b.rtt_p95_s * 1e3,
            b.rtt_p99_s * 1e3,
            if b.healthy_at_exit { "" } else { " [ejected]" }
        );
    }
    Ok(())
}

/// Live routing tier over already-running `serve-live` backends.
fn cmd_gateway(flags: &Flags) -> Result<(), String> {
    use adaflow_gateway::{Gateway, GatewayConfig};
    use adaflow_net::preflight;
    use adaflow_verify::Severity;

    let model_name = required(flags, "model")?.to_string();
    let graph = build_model(&model_name, None)?;
    let serve = live_serve_knobs(flags)?;
    let lint = parse_lint_flags(flags);
    let nominal_fps: f64 = parse_num(flags, "nominal-fps", 100.0)?;
    let duration_s: f64 = parse_num(flags, "duration-s", 0.0)?;
    let retry_budget: u32 = parse_num(flags, "retry-budget", 1)?;
    let warmup_iters: u32 = parse_num(flags, "warmup-iters", 3)?;
    let seed: u64 = parse_num(flags, "seed", 7)?;
    let addr = flags.get("addr").map_or("127.0.0.1:7979", String::as_str);
    let format = parse_format(flags)?;
    let backends_flag = required(flags, "backends")?;
    let backends: Vec<std::net::SocketAddr> = backends_flag
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|e| format!("bad backend address `{s}`: {e}"))
        })
        .collect::<Result<_, _>>()?;

    // Same hard gate as serve-live: the routing tier refuses to front a
    // model/serve configuration the verifier rejects.
    let report = preflight(&graph, &serve, nominal_fps, 0.0, &lint).map_err(|e| e.to_string())?;
    if format == "text" && report.count(Severity::Warn) > 0 {
        print!("{report}");
    }

    let config = GatewayConfig {
        model_id: model_name.clone(),
        router: parse_router_flag(flags)?,
        seed,
        retry_budget,
        warmup: gateway_warmup(&model_name, graph.input_shape(), warmup_iters),
        ..GatewayConfig::default()
    };
    let (sink, recorder) = SinkHandle::recorder(1 << 18);
    let gateway = Gateway::bind(addr, &backends, config, sink).map_err(|e| e.to_string())?;
    let bound = gateway.local_addr().map_err(|e| e.to_string())?;
    let handle = gateway.handle();

    if format == "text" {
        println!(
            "gateway for {model_name} on {bound}: {} backend(s), retry budget {retry_budget}{}",
            backends.len(),
            if duration_s > 0.0 {
                format!(", for {duration_s:.0} s")
            } else {
                String::new()
            }
        );
    }
    if duration_s > 0.0 {
        let timer = handle.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(duration_s));
            timer.shutdown();
        });
    }

    let report = gateway.run().map_err(|e| e.to_string())?;
    print_gateway_report(&report, format)?;

    if let Some(prefix) = flags.get("out") {
        let events = drain_events(&recorder);
        let report_json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        write_exports(prefix, format, &events, &[("report.json", report_json)])?;
    }
    Ok(())
}

/// In-process backends + gateway + seeded open-loop load with hard
/// pass/fail floors — the CI gate for the routing tier. With
/// `--failover 1`, backend 0 is killed a third of the way in and
/// restarted at two thirds; the run then also requires at least one
/// ejection and one readmission.
fn cmd_gateway_soak(flags: &Flags) -> Result<(), String> {
    use adaflow_gateway::{Gateway, GatewayConfig};
    use adaflow_net::{preflight, run_load, LiveConfig, LiveServer, LoadConfig, LoadMode};
    use std::time::Instant;

    let model_name = flags
        .get("model")
        .map_or("tiny-w2a2", String::as_str)
        .to_string();
    let graph = build_model(&model_name, None)?;
    let serve = live_serve_knobs(flags)?;
    let lint = parse_lint_flags(flags);
    let rate_fps: f64 = parse_num(flags, "rate-fps", 300.0)?;
    let duration_s: f64 = parse_num(flags, "duration-s", 3.0)?;
    let connections: usize = parse_num(flags, "connections", 2)?;
    let min_hit_pct: f64 = parse_num(flags, "min-hit-pct", 50.0)?;
    let seed: u64 = parse_num(flags, "seed", 7)?;
    let backends_n: usize = parse_num(flags, "backends", 2)?;
    // Per-request wire deadline for the generated load (0 = none): with a
    // budget set, the client's hit rate measures RTT against it, so the
    // floor becomes a latency gate rather than an answered-ok gate.
    let load_deadline_ms: f64 = parse_num(flags, "load-deadline-ms", 0.0)?;
    let failover = flags.get("failover").map(String::as_str) == Some("1");
    let hetero = flags.get("hetero").map(String::as_str) == Some("1");
    let router = parse_router_flag(flags)?;
    if backends_n == 0 {
        return Err("--backends must be at least 1".to_string());
    }
    if failover && backends_n < 2 {
        return Err("--failover 1 needs at least 2 backends".to_string());
    }

    preflight(&graph, &serve, rate_fps, 0.0, &lint).map_err(|e| e.to_string())?;

    // With --hetero 1, backends past index 0 serve unbatched — a slower
    // tier the router has to notice and route around.
    let backend_cfg = |idx: usize| {
        let mut cfg = LiveConfig {
            serve: serve.clone(),
            model_id: model_name.clone(),
            ..LiveConfig::default()
        };
        if hetero && idx > 0 {
            cfg.serve.max_batch = 1;
        }
        cfg
    };
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for idx in 0..backends_n {
        let server = LiveServer::bind("127.0.0.1:0", &graph, backend_cfg(idx), SinkHandle::null())
            .map_err(|e| e.to_string())?;
        addrs.push(server.local_addr().map_err(|e| e.to_string())?);
        handles.push(server.handle());
        servers.push(server);
    }

    let config = GatewayConfig {
        model_id: model_name.clone(),
        router,
        seed,
        retry_budget: 1,
        warmup: gateway_warmup(&model_name, graph.input_shape(), 3),
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        ..GatewayConfig::default()
    };
    let (sink, recorder) = SinkHandle::recorder(1 << 18);
    let gateway = Gateway::bind("127.0.0.1:0", &addrs, config, sink).map_err(|e| e.to_string())?;
    let front = gateway.local_addr().map_err(|e| e.to_string())?;
    let gh = gateway.handle();

    println!(
        "gateway-soak: {model_name} x {backends_n} backend(s) behind {front} ({} router), \
         {rate_fps:.0} req/s x {duration_s:.0} s over {connections} connection(s), seed {seed}{}{}",
        router.name(),
        if failover { ", failover drill" } else { "" },
        if hetero { ", heterogeneous" } else { "" },
    );

    let shape = graph.input_shape();
    let (gateway_result, summary) = std::thread::scope(|scope| {
        let mut backend_threads: Vec<Option<std::thread::ScopedJoinHandle<'_, _>>> = servers
            .into_iter()
            .map(|server| Some(scope.spawn(move || server.run())))
            .collect();
        let gateway_thread = scope.spawn(move || gateway.run());

        // The failover drill runs on its own thread so the load below is
        // uninterrupted: kill backend 0 at t/3, restart it at 2t/3.
        let drill = failover.then(|| {
            let bt0 = backend_threads[0].take().expect("backend 0 thread");
            let h0 = handles[0].clone();
            let addr0 = addrs[0];
            let cfg0 = backend_cfg(0);
            let graph = &graph;
            scope.spawn(move || {
                std::thread::sleep(Duration::from_secs_f64(duration_s / 3.0));
                h0.shutdown();
                bt0.join()
                    .expect("backend 0 thread")
                    .expect("backend 0 serves");
                std::thread::sleep(Duration::from_secs_f64(duration_s / 3.0));
                let server = LiveServer::bind(addr0, graph, cfg0, SinkHandle::null())
                    .expect("rebinding backend 0's address");
                let handle = server.handle();
                let thread = scope.spawn(move || server.run());
                (handle, thread)
            })
        });

        let summary = run_load(&LoadConfig {
            addr: front,
            model: model_name.clone(),
            shape,
            connections,
            mode: LoadMode::Open {
                rate_fps,
                duration_s,
            },
            deadline_us: (load_deadline_ms * 1e3).max(0.0) as u64,
            seed,
            recv_grace: Duration::from_secs(5),
        });

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

        if let Some(drill) = drill {
            let (handle, thread) = drill.join().expect("failover drill thread");
            handle.shutdown();
            thread
                .join()
                .expect("restarted backend thread")
                .expect("restarted backend serves");
        }
        for (handle, thread) in handles.iter().zip(backend_threads) {
            if let Some(thread) = thread {
                handle.shutdown();
                thread
                    .join()
                    .expect("backend thread")
                    .expect("backend serves");
            }
        }
        (gateway_result, summary)
    });
    let report = gateway_result.map_err(|e| format!("gateway failed: {e}"))?;
    let events = drain_events(&recorder);

    print_load_summary(&summary, "text")?;
    print_gateway_report(&report, "text")?;
    println!("  {} event(s) recorded", events.len());

    // The floors. Any violation is a red CI.
    let mut failures = client_floor_failures(&summary, min_hit_pct);
    if report.protocol_errors > 0 {
        failures.push(format!(
            "gateway dropped {} connection(s) on protocol errors",
            report.protocol_errors
        ));
    }
    if !report.conservation_holds() {
        failures.push(format!(
            "request conservation violated: received {} != ok {} + rejected {}",
            report.received,
            report.answered_ok,
            report.rejects.total()
        ));
    }
    if failover {
        if report.backends[0].ejections == 0 {
            failures.push("killed backend was never ejected".to_string());
        }
        if report.backends[0].readmissions == 0 {
            failures.push("restarted backend was never readmitted".to_string());
        }
        if !report.backends[0].healthy_at_exit {
            failures.push("restarted backend not healthy at exit".to_string());
        }
    }
    if failures.is_empty() {
        println!(
            "gateway-soak: PASS ({:.2}% hits >= {min_hit_pct:.2}% floor, zero protocol errors, \
             conservation holds{})",
            summary.hit_pct(),
            if failover {
                ", failover drill survived"
            } else {
                ""
            }
        );
        Ok(())
    } else {
        Err(format!("gateway-soak FAILED: {}", failures.join("; ")))
    }
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

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--model", "cnv-w2a2", "--runs", "5"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let parsed = parse_flags(&args).expect("parses");
        assert_eq!(parsed.get("model").map(String::as_str), Some("cnv-w2a2"));
        assert_eq!(parsed.get("runs").map(String::as_str), Some("5"));
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(parse_flags(&["--dangling".to_string()]).is_err());
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
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

    #[test]
    fn every_ci_invocation_resolves() {
        // The flag sets .github/workflows/ci.yml and the verify skill run.
        for line in [
            "generate --model cnv-w2a2 --dataset cifar10 --out library.json",
            "summary --model cnv-w2a2",
            "inspect --library library.json",
            "simulate --library library.json --scenario 2 --policy adaflow --runs 10",
            "trace --library library.json --scenario 2 --seed 1 --out run",
            "explore --model cnv-w2a2 --target-fps 600 --cap 0.7",
            "serve --library library.json --scenario 1+2 --seed 7 --check 1 --format json",
            "serve --library library.json --policy fixed-max --runs 20 --shed oldest --batch 8 \
             --batch-wait-ms 10 --queue-cap 64 --deadline-ms 100 --out run --deny SV002",
            "fleet --library library.json --scenario 2 --seed 7 --fleet adaflow,adaflow,flexible,fixed \
             --router deadline --check 1 --format json",
            "lint --library library.json --router deadline --deadline-ms 250 \
             --fleet adaflow,adaflow,flexible,fixed --deny FL001,FL002",
            "lint --model all --rates 0,0.25,0.5",
            "lint --explain all",
            "report --library library.json --mode serve --scenario 2 --seed 7 --check 1 --format json",
            "report --library library.json --mode fleet --scenario 2 --seed 7 --check 1 --format json \
             --out fleet_run",
            "soak --model cnv-w2a2 --rate-fps 120 --duration-s 10 --connections 4 --min-hit-pct 90 \
             --seed 7",
            "serve-live --model cnv-w2a2 --addr 127.0.0.1:0 --batch-wait-ms 150 --deny SV001",
            "serve-live --model cnv-w2a2 --addr 127.0.0.1:7878 --duration-s 10 --metrics-port 7880 \
             --out live",
            "load --addr 127.0.0.1:7878 --model cnv-w2a2 --requests 40",
            "load --addr 127.0.0.1:7878 --model cnv-w2a2 --rate-fps 120 --duration-s 10 \
             --connections 4 --seed 7",
            "gateway-soak --model cnv-w2a2 --backends 2 --router deadline --rate-fps 120 \
             --duration-s 10 --connections 4 --min-hit-pct 90 --seed 7",
            "gateway-soak --model cnv-w2a2 --backends 2 --router rr --rate-fps 100 --duration-s 12 \
             --connections 4 --min-hit-pct 90 --failover 1 --seed 7",
            "gateway-soak --model cnv-w2a2 --backends 2 --hetero 1 --router deadline \
             --load-deadline-ms 50",
            "gateway --model cnv-w2a2 --backends 127.0.0.1:9 --addr 127.0.0.1:0 --batch-wait-ms 150 \
             --deny SV001",
        ] {
            if let Err(e) = resolve(&args(line)) {
                panic!("`{line}` no longer resolves: {e}");
            }
        }
    }

    #[test]
    fn command_table_and_usage_name_the_same_subcommands() {
        // A usage entry starts at column two; continuation lines indent on.
        let text = usage();
        let listed: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let table: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(listed, table, "usage() and COMMANDS drifted apart");
        // Every accepted flag is spelled somewhere in the usage text.
        for (name, _, groups) in COMMANDS {
            for flag in groups.iter().flat_map(|g| g.split_whitespace()) {
                assert!(text.contains(&format!("--{flag} ")), "{name}: --{flag}");
            }
        }
    }

    #[test]
    fn live_and_simulator_commands_default_the_batch_wait_differently() {
        use adaflow_serve::ServeConfig;
        // One flag table under both families ...
        let reads_knobs = |command: &str| {
            let (_, _, groups) = COMMANDS.iter().find(|(name, ..)| *name == command).unwrap();
            groups.contains(&SERVE_KNOBS)
        };
        let simulators = ["serve", "fleet", "report", "lint"];
        let live = ["serve-live", "soak", "gateway", "gateway-soak"];
        assert!(simulators.iter().chain(&live).all(|c| reads_knobs(c)));
        // ... two defaults: each family's own config type, which differ in
        // the batching wait and in nothing else.
        let none = Flags::new();
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

    #[test]
    fn trace_command_writes_exports() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_trace_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.25,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        let prefix = std::env::temp_dir().join("adaflow_cli_trace_test_run");
        let prefix_str = prefix.to_string_lossy().to_string();
        cmd_trace(&flags(&[
            ("library", &lib_str),
            ("scenario", "2"),
            ("out", &prefix_str),
        ]))
        .expect("trace");
        let chrome = std::fs::read_to_string(format!("{prefix_str}.trace.json")).expect("chrome");
        assert!(chrome.trim_start().starts_with('['));
        assert!(chrome.contains("decision_made"));
        let prom = read_prom(&prefix_str);
        assert!(prom.contains("adaflow_decisions_total"));
        let jsonl = std::fs::read_to_string(format!("{prefix_str}.jsonl")).expect("jsonl");
        assert!(jsonl.lines().count() > 10);
        let _ = std::fs::remove_file(lib_path);
        for suffix in ["trace.json", "jsonl", "prom"] {
            let _ = std::fs::remove_file(format!("{prefix_str}.{suffix}"));
        }
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
        for policy in ["adaflow", "fixed-max", "flexible-only"] {
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
        assert!(cmd_serve(&flags(&[("library", &lib_str), ("policy", "turbo")])).is_err());
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
    fn serve_command_writes_trace_exports() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_serve_trace_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        let prefix = std::env::temp_dir().join("adaflow_cli_serve_trace_run");
        let prefix_str = prefix.to_string_lossy().to_string();
        cmd_serve(&flags(&[
            ("library", &lib_str),
            ("scenario", "2"),
            ("seed", "3"),
            ("out", &prefix_str),
        ]))
        .expect("serve with exports");
        let prom = read_prom(&prefix_str);
        assert!(prom.contains("adaflow_requests_enqueued_total"));
        assert!(prom.contains("adaflow_batches_closed_total"));
        let jsonl = std::fs::read_to_string(format!("{prefix_str}.jsonl")).expect("jsonl");
        assert!(jsonl.contains("RequestCompleted"));
        let _ = std::fs::remove_file(lib_path);
        for suffix in ["trace.json", "jsonl", "prom"] {
            let _ = std::fs::remove_file(format!("{prefix_str}.{suffix}"));
        }
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
    fn fleet_command_writes_trace_exports() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_fleet_trace_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        let prefix = std::env::temp_dir().join("adaflow_cli_fleet_trace_run");
        let prefix_str = prefix.to_string_lossy().to_string();
        cmd_fleet(&flags(&[
            ("library", &lib_str),
            ("scenario", "2"),
            ("seed", "3"),
            ("out", &prefix_str),
        ]))
        .expect("fleet with exports");
        let prom = read_prom(&prefix_str);
        assert!(prom.contains("adaflow_requests_routed_total"));
        let jsonl = std::fs::read_to_string(format!("{prefix_str}.jsonl")).expect("jsonl");
        assert!(jsonl.contains("RequestRouted"));
        let chrome = std::fs::read_to_string(format!("{prefix_str}.trace.json")).expect("chrome");
        assert!(chrome.trim_start().starts_with('['));
        let _ = std::fs::remove_file(lib_path);
        for suffix in ["trace.json", "jsonl", "prom"] {
            let _ = std::fs::remove_file(format!("{prefix_str}.{suffix}"));
        }
    }

    #[test]
    fn report_command_covers_serve_and_fleet_modes() {
        let lib_path = std::env::temp_dir().join("adaflow_cli_report_test_library.json");
        let lib_str = lib_path.to_string_lossy().to_string();
        cmd_generate(&flags(&[
            ("model", "cnv-w2a2"),
            ("dataset", "cifar10"),
            ("rates", "0,0.5"),
            ("out", &lib_str),
        ]))
        .expect("generate");
        // Serve mode with the determinism replay, against a target tight
        // enough to burn: the alerts ride the exported stream, so `.prom`
        // (the only Prometheus file) counts exactly the ones `.jsonl` holds.
        let prefix = std::env::temp_dir().join("adaflow_cli_report_test_serve_run");
        let serve_prefix = prefix.to_string_lossy().to_string();
        cmd_report(&flags(&[
            ("library", &lib_str),
            ("mode", "serve"),
            ("scenario", "2"),
            ("seed", "7"),
            ("check", "1"),
            ("slo-target", "0.9999"),
            ("out", &serve_prefix),
        ]))
        .expect("serve report with replay");
        let jsonl = std::fs::read_to_string(format!("{serve_prefix}.jsonl")).expect("jsonl");
        let alerts = jsonl.matches("SloBurnAlert").count();
        assert!(alerts > 0, "the tight target fires at least one alert");
        let prom = read_prom(&serve_prefix);
        assert!(prom.contains(&format!("adaflow_slo_burn_alerts_total {alerts}\n")));
        // Fleet mode in JSON with full exports.
        let prefix = std::env::temp_dir().join("adaflow_cli_report_test_run");
        let prefix_str = prefix.to_string_lossy().to_string();
        cmd_report(&flags(&[
            ("library", &lib_str),
            ("mode", "fleet"),
            ("scenario", "2"),
            ("seed", "7"),
            ("format", "json"),
            ("out", &prefix_str),
        ]))
        .expect("fleet report with exports");
        let chrome = std::fs::read_to_string(format!("{prefix_str}.trace.json")).expect("chrome");
        assert!(chrome.contains("\"b\""), "async span begins exported");
        assert!(chrome.contains("\"e\""), "async span ends exported");
        assert!(chrome.contains("queue_wait"), "stage spans exported");
        let jsonl = std::fs::read_to_string(format!("{prefix_str}.jsonl")).expect("jsonl");
        assert!(jsonl.contains("TraceSpan"));
        let prom = read_prom(&prefix_str);
        assert!(prom.contains("adaflow_requests_completed_total"));
        assert!(prom.contains("quantile"));
        assert!(
            !std::path::Path::new(&format!("{prefix_str}.metrics.prom")).exists(),
            "one Prometheus file per run"
        );
        // Flag validation.
        assert!(cmd_report(&flags(&[("library", &lib_str), ("mode", "edge")])).is_err());
        assert!(cmd_report(&flags(&[("library", &lib_str), ("slo-target", "1.5")])).is_err());
        assert!(cmd_report(&flags(&[
            ("library", &lib_str),
            ("slo-objective", "uptime")
        ]))
        .is_err());
        let _ = std::fs::remove_file(lib_path);
        for suffix in ["trace.json", "jsonl", "prom"] {
            let _ = std::fs::remove_file(format!("{prefix_str}.{suffix}"));
            let _ = std::fs::remove_file(format!("{serve_prefix}.{suffix}"));
        }
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
