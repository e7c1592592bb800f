//! The `nn` layer: the two engine workloads and the kernel micro-probes.

use crate::host;
use crate::metrics::{CNV_LAYERS, MIX_MODELS};
use crate::pool::{Pool, POOL_IMAGES};
use crate::run::{Op, Primary, Run};
use crate::spans::SpanLog;
use crate::stats;
use adaflow_model::{topology, CnnGraph, QuantSpec};
use adaflow_nn::packed::{self, PackedWeights};
use adaflow_nn::{BatchRunner, DatasetSpec, Engine, EngineScratch};
use adaflow_pruning::{DataflowAwarePruner, FinnConfig};
use adaflow_telemetry::{Event, EventKind, Recorder, SinkHandle};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The graph the engine and live workloads serve, and the data that fits it:
/// CNV-W2A2 on CIFAR-10-like images, or the tiny model under `--quick`.
pub fn base_model(quick: bool) -> (CnnGraph, DatasetSpec) {
    if quick {
        (
            topology::tiny(QuantSpec::w2a2(), 10).expect("tiny builds"),
            DatasetSpec::tiny(10),
        )
    } else {
        (
            topology::cnv_w2a2_cifar10().expect("CNV builds"),
            DatasetSpec::cifar10_like(),
        )
    }
}

/// The four graphs of `engine_single_mix`, in [`MIX_MODELS`] order: the base
/// model, two dataflow-aware prunings of it whose channel counts leave the
/// 64-bit lane, and a 1-bit-weight, 43-class variant.
fn mix_models(quick: bool) -> Vec<(CnnGraph, DatasetSpec)> {
    let (base, spec) = base_model(quick);
    let pruner = DataflowAwarePruner::new(FinnConfig::cnv_reference(&base).expect("folding"));
    let pruned = |rate: f64| pruner.prune(&base, rate).expect("prunes").graph;
    let (p25, p50) = (pruned(0.25), pruned(0.50));
    let w1a2 = if quick {
        (
            topology::tiny(QuantSpec::w1a2(), 43).expect("tiny builds"),
            DatasetSpec::tiny(43),
        )
    } else {
        (
            topology::cnv_w1a2_gtsrb().expect("CNV builds"),
            DatasetSpec::gtsrb_like(),
        )
    };
    vec![(base, spec.clone()), (p25, spec.clone()), (p50, spec), w1a2]
}

/// One `engine_batch64` set-up cycle through the public calls a user makes
/// before the first batch: graph build, engine plan, first inference.
pub fn batch_setup_cycle(quick: bool) {
    let (graph, _) = base_model(quick);
    let engine = Engine::new(&graph).expect("engine builds");
    let image = adaflow_nn::Activations::zeroed(graph.input_shape());
    black_box(engine.run(&image).expect("first inference"));
}

/// One `engine_single_mix` set-up cycle: the four graphs (two prunings
/// included), their engines, a first inference each.
pub fn mix_setup_cycle(quick: bool) {
    for (graph, _) in mix_models(quick) {
        let engine = Engine::new(&graph).expect("engine builds");
        let image = adaflow_nn::Activations::zeroed(graph.input_shape());
        black_box(engine.run(&image).expect("first inference"));
    }
}

/// A recorder sink when the run is traced, the null sink otherwise.
pub fn sink_for(run: &Run, capacity: usize) -> (SinkHandle, Option<Arc<Recorder>>) {
    if run.spans.is_some() {
        let (sink, recorder) = SinkHandle::recorder(capacity);
        (sink, Some(recorder))
    } else {
        (SinkHandle::null(), None)
    }
}

/// Per-layer span durations gathered from engine sink events.
#[derive(Default)]
struct LayerTimes {
    /// Microseconds per span, keyed by the engine's span name
    /// (`conv2[packed-avx2]`).
    by_span: BTreeMap<String, Vec<f64>>,
}

impl LayerTimes {
    /// Pairs the engine's `SpanBegin`/`SpanEnd` events (times are seconds
    /// from the start of their inference), files each as a child of `parent`
    /// and remembers its duration. Two workers can interleave their pairs;
    /// matching an end to the latest open begin of the same name keeps the
    /// pairs of one worker together in all but that rare interleaving, and
    /// the reported median ignores the stragglers.
    fn absorb(&mut self, events: Vec<Event>, log: &mut SpanLog, parent: u64, request: u64) {
        let parent_start = log.spans()[parent as usize].start_us;
        let mut open: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for event in events {
            match event.kind {
                EventKind::SpanBegin { name } => open.entry(name).or_default().push(event.t_s),
                EventKind::SpanEnd { name } => {
                    let Some(begin_s) = open.get_mut(&name).and_then(Vec::pop) else {
                        continue;
                    };
                    log.push(
                        name.as_str(),
                        Some(parent),
                        Some(request),
                        parent_start + begin_s * 1e6,
                        parent_start + event.t_s * 1e6,
                    );
                    self.by_span
                        .entry(name)
                        .or_default()
                        .push((event.t_s - begin_s) * 1e6);
                }
                _ => {}
            }
        }
    }

    /// Reports `nn.layer_us.<layer>` for spans of a CNV engine: the median
    /// span of each layer, with the kernel label the planner chose kept as
    /// the annotation.
    fn report(self, run: &mut Run) {
        for (span, samples) in self.by_span {
            let (layer, kernel) = match span.split_once('[') {
                Some((layer, rest)) => (layer, rest.trim_end_matches(']')),
                None => (span.as_str(), ""),
            };
            if CNV_LAYERS.contains(&layer) {
                let n = samples.len();
                run.metrics.set_noted(
                    &format!("nn.layer_us.{layer}"),
                    stats::median(samples),
                    n,
                    kernel,
                );
            }
        }
    }
}

/// `engine_batch64`: `BatchRunner::run` (one worker, the default
/// `ConvStrategy::Auto`) over the 64-image pool, back to back for `secs`.
/// One operation is one batch. One worker, not one per core: how much of a
/// second core this host grants changes from minute to minute, and the same
/// build read 209 and 374 images a second on two workers within an hour;
/// what a second worker buys is the per-layer `nn.batch_runner_scaling`.
pub fn batch_pass(run: &mut Run, secs: f64) -> Primary {
    let (graph, spec) = base_model(run.quick);
    let pool = Pool::build(&graph, spec, run.seed, POOL_IMAGES);
    let (sink, recorder) = sink_for(run, 1 << 14);
    let engine = Engine::new(&graph).expect("engine builds").with_sink(sink);
    let runner = BatchRunner::new(engine).with_threads(1);

    // Caches fill and the workers' scratch arenas are touched once before
    // any timing.
    black_box(runner.run(&pool.images).expect("warm-up batch"));
    if let Some(r) = &recorder {
        r.drain();
    }

    let mut layers = LayerTimes::default();
    let mut ops: Vec<Op> = Vec::new();
    let mut wrong = 0u64;
    let cpu0 = host::cpu_time_s();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let start_us = run.spans.as_ref().map(SpanLog::now_us);
        let t0 = Instant::now();
        let labels = runner.run(black_box(&pool.images)).expect("batch runs");
        ops.push(Op {
            end_s: started.elapsed().as_secs_f64(),
            ms: t0.elapsed().as_secs_f64() * 1e3,
            items: pool.images.len() as f64,
        });
        wrong += mismatches(&labels, &pool.labels);
        if let (Some(log), Some(r), Some(start_us)) = (run.spans.as_mut(), &recorder, start_us) {
            let request = ops.len() as u64;
            let end_us = log.now_us();
            let parent = log.push("nn.batch", None, Some(request), start_us, end_us);
            layers.absorb(r.drain(), log, parent, request);
        }
    }
    let cpu_s = host::cpu_time_s() - cpu0;
    let images = (ops.len() * pool.images.len()) as u64;
    run.checks.ops(images, wrong);
    // Under `--quick` this ran the tiny model, whose layers are not CNV's.
    if !run.quick {
        layers.report(run);
    }

    Primary {
        attempted: ops.len() as u64,
        ops,
        secs,
        overlapped: false,
        cpu_s,
    }
}

fn mismatches(got: &[usize], want: &[usize]) -> u64 {
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// `engine_single_mix`: batch-1 `Engine::run_with_scratch` on one thread,
/// round-robin over the four graphs. One operation is one round (one
/// inference per graph).
pub fn mix_pass(run: &mut Run, secs: f64) -> Primary {
    let models = mix_models(run.quick);
    let per_model = POOL_IMAGES / models.len();
    let pools: Vec<Pool> = models
        .iter()
        .map(|(graph, spec)| Pool::build(graph, spec.clone(), run.seed, per_model))
        .collect();
    // The span names of the first (unpruned) engine are the ones
    // `nn.layer_us.*` reports; the others share its recorder only to carry
    // the same tracing cost.
    let (sink, recorder) = sink_for(run, 1 << 10);
    let engines: Vec<Engine<'_>> = models
        .iter()
        .map(|(graph, _)| {
            Engine::new(graph)
                .expect("engine builds")
                .with_sink(sink.clone())
        })
        .collect();
    let mut scratch: Vec<EngineScratch> = engines.iter().map(Engine::scratch).collect();
    for (m, engine) in engines.iter().enumerate() {
        black_box(
            engine
                .run_with_scratch(&pools[m].images[0], &mut scratch[m])
                .expect("warm-up"),
        );
    }
    if let Some(r) = &recorder {
        r.drain();
    }

    let mut layers = LayerTimes::default();
    let mut infer_us: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let mut ops: Vec<Op> = Vec::new();
    let mut wrong = 0u64;
    let cpu0 = host::cpu_time_s();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        let image = ops.len() % per_model;
        let round0 = Instant::now();
        for (m, engine) in engines.iter().enumerate() {
            let start_us = run.spans.as_ref().map(SpanLog::now_us);
            let t0 = Instant::now();
            let result = engine
                .run_with_scratch(black_box(&pools[m].images[image]), &mut scratch[m])
                .expect("inference runs");
            infer_us[m].push(t0.elapsed().as_secs_f64() * 1e6);
            wrong += u64::from(result.label != pools[m].labels[image]);
            if let (Some(log), Some(r), Some(start_us)) = (run.spans.as_mut(), &recorder, start_us)
            {
                let request = (ops.len() * models.len() + m) as u64;
                let end_us = log.now_us();
                let name = format!("nn.infer.{}", MIX_MODELS[m]);
                let parent = log.push(name, None, Some(request), start_us, end_us);
                let events = r.drain();
                if m == 0 {
                    layers.absorb(events, log, parent, request);
                }
            }
        }
        ops.push(Op {
            end_s: started.elapsed().as_secs_f64(),
            ms: round0.elapsed().as_secs_f64() * 1e3,
            items: models.len() as f64,
        });
    }
    let cpu_s = host::cpu_time_s() - cpu0;
    run.checks.ops((ops.len() * models.len()) as u64, wrong);
    if !run.quick {
        layers.report(run);
    }
    for (name, samples) in MIX_MODELS.iter().zip(infer_us) {
        let n = samples.len();
        run.metrics.set(
            &format!("nn.infer_us_p50.{name}"),
            stats::median(samples),
            n,
        );
    }

    Primary {
        attempted: ops.len() as u64,
        ops,
        secs,
        overlapped: false,
        cpu_s,
    }
}

/// Fixed-shape probes of the `nn` and `verify` layers for the traced pass,
/// always on CNV-W2A2 so the names and shapes never depend on `--quick`.
pub fn micro(run: &mut Run) {
    let graph = topology::cnv_w2a2_cifar10().expect("CNV builds");
    let build_ns = host::median_ns(5, || {
        black_box(Engine::new(black_box(&graph)).expect("engine builds"));
    });
    run.metrics.set("nn.engine_build_ms", build_ns / 1e6, 5);
    let lint_ns = host::median_ns(3, || {
        black_box(adaflow_verify::verify_graph(black_box(&graph)));
    });
    run.metrics.set("verify.graph_lint_ms", lint_ns / 1e6, 3);
    run.metrics
        .set("nn.macs_per_image", graph.total_macs() as f64, 1);
    run.metrics.set(
        "nn.scratch_bytes",
        EngineScratch::for_graph(&graph).bytes() as f64,
        1,
    );

    // Per-layer spans of single-thread CNV inference through the engine's
    // own sink: the default reading of `nn.layer_us.*`, which the traced
    // engine workloads replace with spans taken under their own load.
    let (sink, recorder) = SinkHandle::recorder(1 << 10);
    let engine = Engine::new(&graph).expect("engine builds").with_sink(sink);
    let image = adaflow_nn::Activations::zeroed(graph.input_shape());
    let mut scratch = engine.scratch();
    let mut log = SpanLog::new();
    let mut layers = LayerTimes::default();
    for request in 0..24 {
        let start_us = log.now_us();
        black_box(
            engine
                .run_with_scratch(&image, &mut scratch)
                .expect("inference runs"),
        );
        let end_us = log.now_us();
        let parent = log.push("nn.infer", None, Some(request), start_us, end_us);
        layers.absorb(recorder.drain(), &mut log, parent, request);
    }
    layers.report(run);

    // CNV conv3 as the packed kernels see it: 128 filters over 12x12 output
    // pixels, a 3x3x64 window, 2-bit activations.
    const ROWS: usize = 128;
    const PIXELS: usize = 144;
    const WINDOW: usize = 576;
    const PLANES: usize = 2;
    let weights: Vec<i8> = (0..ROWS * WINDOW).map(|i| (i % 3) as i8 - 1).collect();
    let acts: Vec<u8> = (0..PIXELS * WINDOW).map(|i| (i % 4) as u8).collect();
    let packed_w = PackedWeights::pack(&weights, ROWS, WINDOW);
    let mut packed_acts = vec![0u64; packed::act_pack_words(PIXELS, WINDOW, PLANES)];
    let mut out = vec![0i32; ROWS * PIXELS];
    let pack_ns = host::median_ns(200, || {
        packed::pack_act_rows(black_box(&acts), PIXELS, WINDOW, PLANES, &mut packed_acts);
        black_box(&packed_acts);
    });
    run.metrics
        .set("nn.pack_act_rows_gbps", acts.len() as f64 / pack_ns, 200);
    let backend = packed::default_backend();
    let gemm_ns = host::median_ns(200, || {
        packed::packed_gemm(
            black_box(&packed_w),
            black_box(&packed_acts),
            PIXELS,
            PLANES,
            &mut out,
            backend,
        );
        black_box(&out);
    });
    run.metrics.set_noted(
        "nn.packed_gemm_gops",
        (2 * ROWS * PIXELS * WINDOW) as f64 / gemm_ns,
        200,
        backend.label(),
    );

    // Thread scaling of the batch runner on a 16-image batch.
    let images = vec![adaflow_nn::Activations::zeroed(graph.input_shape()); 16];
    let batch_ns = |threads: usize| {
        let runner =
            BatchRunner::new(Engine::new(&graph).expect("engine builds")).with_threads(threads);
        host::median_ns(3, || {
            black_box(runner.run(black_box(&images)).expect("batch runs"));
        })
    };
    run.metrics.set(
        "nn.batch_runner_scaling",
        batch_ns(1) / batch_ns(host::nproc()),
        3,
    );
}
