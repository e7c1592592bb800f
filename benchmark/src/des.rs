//! The simulation layers (`fleet`, `serve`, `edge`) and `core` beneath them.
//!
//! Host time here is what the simulators take to run; the simulated
//! statistics themselves repeat exactly for a seed, which the replay check
//! and the printed digest hold them to.

use crate::engine::sink_for;
use crate::host;
use crate::run::{Op, Primary, Run};
use crate::spans::SpanLog;
use crate::stats;
use adaflow::{Library, LibraryGenerator, PressureSignal, RuntimeConfig, RuntimeManager};
use adaflow_edge::{Experiment, RunMetrics, Scenario, WorkloadSpec};
use adaflow_fleet::{DeviceKind, FleetConfig, FleetEngine, RouterKind};
use adaflow_model::topology;
use adaflow_nn::DatasetKind;
use adaflow_serve::{generate_requests, ServeExperiment, ServeSummary};
use adaflow_telemetry::SinkHandle;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's evaluation library: CNV-W2A2 on CIFAR-10, 18 pruning rates.
pub fn library() -> Library {
    let graph = topology::cnv_w2a2_cifar10().expect("CNV builds");
    LibraryGenerator::default_edge_setup()
        .generate(&graph, DatasetKind::Cifar10)
        .expect("library generates")
}

/// One simulation set-up cycle, in seconds: graph build and
/// `LibraryGenerator::generate` (prune sweep, scoring, synthesis).
pub fn setup_cycle() -> f64 {
    let started = Instant::now();
    black_box(library());
    started.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a over the serialised summaries of a fixed set of runs: two
/// commits that simulate the same thing print the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn absorb(&mut self, summary: &impl serde::Serialize) {
        let text = serde_json::to_string(summary).expect("summaries serialise");
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Shape of the wide-fleet workload.
struct FleetShape {
    /// `adaflow,adaflow,flexible,fixed` repeated this many times.
    groups: usize,
    spec: WorkloadSpec,
}

impl FleetShape {
    fn of(quick: bool) -> Self {
        let (groups, duration_s) = if quick { (2, 4.0) } else { (8, 25.0) };
        Self {
            groups,
            spec: WorkloadSpec {
                devices: 20 * groups,
                fps_per_device: 30.0,
                duration_s,
                scenario: Scenario::Unpredictable,
            },
        }
    }

    fn engine(&self, groups: usize, sink: SinkHandle) -> FleetEngine {
        let devices = [
            DeviceKind::AdaFlow,
            DeviceKind::AdaFlow,
            DeviceKind::FlexibleOnly,
            DeviceKind::FixedMax,
        ]
        .repeat(groups);
        FleetEngine::new(FleetConfig {
            devices,
            router: RouterKind::DeadlineAware,
            ..FleetConfig::default()
        })
        .with_sink(sink)
    }

    /// The same per-device load on a single group of four.
    fn narrow_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            devices: self.spec.devices / self.groups,
            ..self.spec.clone()
        }
    }
}

/// Seeds whose summaries feed the fleet digest (and are replayed).
const FLEET_DIGEST_RUNS: u64 = 2;

/// `des_fleet_wide`: `FleetEngine::run` over 32 accelerators under 160
/// cameras (deadline-aware router, scenario 2), seeds `seed..`, for `secs`.
/// One operation is one simulation run.
pub fn fleet_pass(run: &mut Run, secs: f64) -> Primary {
    let lib = library();
    let shape = FleetShape::of(run.quick);
    let (sink, recorder) = sink_for(run, 1 << 12);
    let engine = shape.engine(shape.groups, sink);

    // Same seed, same summary, field for field; these runs also warm up.
    let mut digest = Digest::new();
    let mut diverged = 0u64;
    for seed in run.seed..run.seed + FLEET_DIGEST_RUNS {
        let first = engine.run(&lib, &shape.spec, seed);
        diverged += u64::from(engine.run(&lib, &shape.spec, seed) != first);
        digest.absorb(&first);
    }
    println!("digest fleet seed={} {digest}", run.seed);
    run.checks.ops(FLEET_DIGEST_RUNS, diverged);
    let overwritten0 = recorder.as_ref().map_or(0, |r| {
        r.drain();
        r.overwritten()
    });

    let mut ops: Vec<Op> = Vec::new();
    let mut run_ms = Vec::new();
    let mut ns_per_request = Vec::new();
    let mut events = 0u64;
    let mut broken = 0u64;
    let cpu0 = host::cpu_time_s();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let seed = run.seed + run_ms.len() as u64;
        let start_us = run.spans.as_ref().map(SpanLog::now_us);
        let t0 = Instant::now();
        let summary = engine.run(&lib, &shape.spec, seed);
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(log), Some(start_us)) = (run.spans.as_mut(), start_us) {
            let end_us = log.now_us();
            log.push("fleet.run", None, Some(seed), start_us, end_us);
        }
        if let Some(r) = &recorder {
            events += r.drain().len() as u64;
        }
        broken += u64::from(!summary.conservation_holds());
        ops.push(Op {
            end_s: started.elapsed().as_secs_f64(),
            ms: wall_s * 1e3,
            items: summary.arrived,
        });
        run_ms.push(wall_s * 1e3);
        ns_per_request.push(wall_s * 1e9 / summary.arrived.max(1.0));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_time_s() - cpu0;
    run.checks.ops(run_ms.len() as u64, broken);
    // The ring keeps the newest events and counts the ones it overwrote.
    if let Some(r) = &recorder {
        events += r.overwritten() - overwritten0;
    }

    // Cost per request on one group of four at the same per-device load.
    let narrow = shape.engine(1, SinkHandle::null());
    let narrow_spec = shape.narrow_spec();
    let narrow_ns: Vec<f64> = (0..5)
        .map(|i| {
            let t0 = Instant::now();
            let summary = narrow.run(&lib, &narrow_spec, run.seed + i);
            t0.elapsed().as_secs_f64() * 1e9 / summary.arrived.max(1.0)
        })
        .collect();

    let n = run_ms.len();
    let per_request = stats::median(ns_per_request);
    let m = &mut run.metrics;
    m.set("fleet.run_ms", stats::median(run_ms), n);
    m.set("fleet.ns_per_request", per_request, n);
    m.set(
        "fleet.width_scaling",
        per_request / stats::median(narrow_ns),
        5,
    );
    if recorder.is_some() {
        m.set("fleet.events_per_s", events as f64 / wall_s, n);
    }

    Primary {
        attempted: n as u64,
        ops,
        secs,
        overlapped: false,
        cpu_s,
    }
}

/// Edge runs per experiment cell and serve runs per policy in one paper
/// batch.
fn paper_runs(quick: bool) -> (usize, usize) {
    if quick {
        (8, 2)
    } else {
        (100, 20)
    }
}

/// One timed call into a simulation layer.
struct Call {
    layer: &'static str,
    start: Instant,
    end: Instant,
}

impl Call {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What one paper batch produced.
struct PaperBatch {
    digest: Digest,
    /// Simulated frames and requests, completed or lost.
    simulated: f64,
    /// Summaries whose ledger does not balance.
    broken: u64,
    calls: Vec<Call>,
}

impl PaperBatch {
    fn timed<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.calls.push(Call {
            layer,
            start,
            end: Instant::now(),
        });
        result
    }

    fn ms_of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.calls
            .iter()
            .filter(move |c| c.layer == layer)
            .map(Call::ms)
    }
}

fn edge_conserves(m: &RunMetrics) -> bool {
    (m.offered - m.processed - m.lost).abs() <= 1e-6 * m.offered.max(1.0)
}

/// One paper batch from `seed`, on this thread alone: the edge experiment
/// (AdaFlow, original FINN, pruning + reconfiguration) on scenarios 1, 2 and
/// 1+2; the serve experiment's three policies on scenario 1+2; a 4-device
/// fleet on scenario 2 under all four routers.
fn paper_batch(lib: &Library, seed: u64, quick: bool, fleet_sink: &SinkHandle) -> PaperBatch {
    let (edge_runs, serve_runs) = paper_runs(quick);
    let mut batch = PaperBatch {
        digest: Digest::new(),
        simulated: 0.0,
        broken: 0,
        calls: Vec::new(),
    };

    for scenario in [
        Scenario::Stable,
        Scenario::Unpredictable,
        Scenario::Shifting,
    ] {
        // One run per experiment, seeds `seed..`: an `Experiment` of several
        // runs shards them over a thread per core, and how much of a second
        // core this host grants changes from minute to minute.
        let experiments: Vec<Experiment<'_>> = (0..edge_runs as u64)
            .map(|i| {
                Experiment::new(lib, WorkloadSpec::paper_edge(scenario))
                    .runs(1)
                    .seed(seed + i)
            })
            .collect();
        let policies: [&dyn Fn(&Experiment<'_>) -> RunMetrics; 3] = [
            &|e| e.run_adaflow(RuntimeConfig::default()),
            &|e| e.run_original_finn(),
            &|e| e.run_pruning_reconf(Duration::from_millis(145)),
        ];
        for policy in policies {
            let runs: Vec<RunMetrics> =
                batch.timed("edge.run", || experiments.iter().map(policy).collect());
            batch.broken += runs.iter().filter(|m| !edge_conserves(m)).count() as u64;
            let mean = RunMetrics::mean(&runs).expect("at least one run");
            batch.simulated += mean.offered * edge_runs as f64;
            batch.digest.absorb(&mean);
        }
    }

    let serve = ServeExperiment::new(lib, WorkloadSpec::paper_edge(Scenario::Shifting))
        .runs(serve_runs)
        .threads(1)
        .seed(seed);
    let policies: [&dyn Fn() -> ServeSummary; 3] = [
        &|| serve.run_adaflow(RuntimeConfig::default()),
        &|| serve.run_fixed_max(),
        &|| serve.run_flexible_only(RuntimeConfig::default()),
    ];
    for policy in policies {
        let summary = batch.timed("serve.run", policy);
        batch.simulated += summary.arrived * serve_runs as f64;
        batch.broken += u64::from(!summary.conservation_holds());
        batch.digest.absorb(&summary);
    }

    let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
    for router in RouterKind::ALL {
        let engine = FleetEngine::new(FleetConfig {
            router,
            ..FleetConfig::default()
        })
        .with_sink(fleet_sink.clone());
        let summary = batch.timed("fleet.run", || engine.run(lib, &spec, seed));
        batch.simulated += summary.arrived;
        batch.broken += u64::from(!summary.conservation_holds());
        batch.digest.absorb(&summary);
    }
    batch
}

/// Seeds of consecutive batches are this far apart, so the runs of one
/// batch (`seed..seed + runs`) never overlap the next's.
const BATCH_SEED_STRIDE: u64 = 1000;

/// `des_paper`: paper batches back to back for `secs`. One operation is one
/// batch.
pub fn paper_pass(run: &mut Run, secs: f64) -> Primary {
    let lib = library();
    let (sink, recorder) = sink_for(run, 1 << 12);

    // Batch 0 twice: the replay check, the digest, and the warm-up.
    let first = paper_batch(&lib, run.seed, run.quick, &sink);
    let again = paper_batch(&lib, run.seed, run.quick, &sink);
    println!("digest paper seed={} {}", run.seed, first.digest);
    run.checks.ops(1, u64::from(first.digest != again.digest));
    if let Some(r) = &recorder {
        r.drain();
    }

    let mut ops: Vec<Op> = Vec::new();
    let (mut edge_ms, mut serve_ms) = (Vec::new(), Vec::new());
    let mut broken = 0u64;
    let cpu0 = host::cpu_time_s();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let seed = run.seed + BATCH_SEED_STRIDE * ops.len() as u64;
        let t0 = Instant::now();
        let batch = paper_batch(&lib, seed, run.quick, &sink);
        let done = Instant::now();
        if let Some(r) = &recorder {
            r.drain();
        }
        if let Some(log) = run.spans.as_mut() {
            let (start_us, end_us) = (log.at_us(t0), log.at_us(done));
            let parent = log.push("paper.batch", None, Some(seed), start_us, end_us);
            for call in &batch.calls {
                let (start_us, end_us) = (log.at_us(call.start), log.at_us(call.end));
                log.push(call.layer, Some(parent), Some(seed), start_us, end_us);
            }
        }
        ops.push(Op {
            end_s: (done - started).as_secs_f64(),
            ms: (done - t0).as_secs_f64() * 1e3,
            items: batch.simulated,
        });
        broken += batch.broken;
        edge_ms.extend(batch.ms_of("edge.run"));
        serve_ms.extend(batch.ms_of("serve.run"));
    }
    let cpu_s = host::cpu_time_s() - cpu0;
    run.checks.ops(ops.len() as u64, broken);

    let m = &mut run.metrics;
    let (edge_n, serve_n) = (edge_ms.len(), serve_ms.len());
    m.set("edge.run_ms", stats::median(edge_ms), edge_n);
    m.set("serve.run_ms", stats::median(serve_ms), serve_n);
    let spec = WorkloadSpec::paper_edge(Scenario::Shifting);
    let gen_ns = host::median_ns(5, || {
        black_box(generate_requests(black_box(&spec), run.seed));
    });
    m.set("serve.arrivals_gen_ms", gen_ns / 1e6, 5);

    Primary {
        attempted: ops.len() as u64,
        ops,
        secs,
        overlapped: false,
        cpu_s,
    }
}

/// Fixed probes of the `core` layer.
pub fn micro(run: &mut Run) {
    let graph = topology::cnv_w2a2_cifar10().expect("CNV builds");
    let generate_ns = host::median_ns(5, || {
        black_box(
            LibraryGenerator::default_edge_setup()
                .generate(black_box(&graph), DatasetKind::Cifar10)
                .expect("library generates"),
        );
    });
    run.metrics
        .set("core.library_generate_ms", generate_ns / 1e6, 5);

    let lib = library();
    let roundtrip_ns = host::median_ns(9, || {
        let json = lib.to_json().expect("library serialises");
        black_box(Library::from_json(&json).expect("library parses"));
    });
    run.metrics
        .set("core.library_json_roundtrip_ms", roundtrip_ns / 1e6, 9);

    // The manager is consulted with a demand that sweeps 200-1000 FPS, so
    // decisions alternate between holding and switching models.
    const DECISIONS: usize = 256;
    let decide_ns = host::median_ns(21, || {
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        for i in 0..DECISIONS {
            let signal = PressureSignal {
                arrival_fps_ewma: 200.0 + ((i * 137) % 800) as f64,
                queue_depth: (i % 32) as f64,
                drain_target_s: 0.5,
            };
            black_box(manager.decide_from_pressure(i as f64 * 0.25, &signal));
        }
    });
    run.metrics.set(
        "core.decide_ns",
        decide_ns / DECISIONS as f64,
        21 * DECISIONS,
    );
}
