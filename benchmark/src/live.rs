//! The `net` layer: one `LiveServer` under the benchmark's open-loop
//! generator, and what client and server each saw of every request.

use crate::engine::{base_model, sink_for};
use crate::host;
use crate::loadgen::{self, LoadResult, Shot, Target};
use crate::pool::{Pool, POOL_IMAGES};
use crate::run::{Op, Primary, Run};
use crate::stats;
use adaflow_model::{CnnGraph, TensorShape};
use adaflow_net::{LiveConfig, LiveReport, LiveServer, ServerHandle};
use adaflow_proto::{ProtoClient, RequestFrame, Status};
use adaflow_telemetry::SinkHandle;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Model id the benchmark's servers register and its clients name.
pub const MODEL_ID: &str = "bench";

/// A request answered `Ok` with the right label within this long of its due
/// time is "within limit".
const LATENCY_LIMIT_MS: f64 = 100.0;

/// Workers the server's engine runs a batch on. One, not one per core: how
/// much of a second core this host grants changes from minute to minute, and
/// with two workers a two-request batch took 5 or 10 ms by that alone.
const ENGINE_THREADS: usize = 1;

/// The server's admission queue: two full batches, so a saturated engine
/// never waits for work, and no more. Under overload a request waits for the
/// whole queue ahead of it; behind the default 256 that is 1.4 s, so a
/// round trip answers for the host's last 1.4 s and no one-second window of
/// a run is quiet for the latency even when it is for the throughput.
const QUEUE_CAPACITY: usize = 32;

/// Connections (and load threads) of a saturating load.
pub fn connections() -> usize {
    host::nproc().min(2)
}

/// Asks a server to stop when dropped, so a panicking check cannot leave
/// `thread::scope` waiting on a server nobody will stop.
pub struct StopOnDrop(pub Vec<ServerHandle>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        for handle in &self.0 {
            handle.shutdown();
        }
    }
}

/// Sends one all-zero request and waits for its answer: the moment a fresh
/// server (or gateway) has served its first request. Returns the connection,
/// which callers keep open until the server has shut down: a server with no
/// client attached stops at once, while one with an idle connection has to
/// wait out its reader's poll, and that bound is what `*.shutdown_ms` is
/// there to show.
pub fn first_answer(addr: SocketAddr, shape: TensorShape) -> Option<ProtoClient> {
    let mut client = ProtoClient::connect(addr).ok()?;
    client.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let probe = RequestFrame {
        id: u64::MAX,
        deadline_us: 0,
        model: MODEL_ID.to_string(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        data: vec![0; shape.elements()],
    };
    client.send(&probe).ok()?;
    match client.recv_id(probe.id, Duration::from_secs(5)) {
        Ok(Some(r)) if r.status == Status::Ok => Some(client),
        _ => None,
    }
}

/// What serving `body` cost around it.
pub struct Served<R> {
    pub body: R,
    pub report: LiveReport,
    /// `LiveServer::bind` to the first answered request.
    pub ready_ms: f64,
    /// `shutdown()` to `run()` returning.
    pub shutdown_ms: f64,
}

/// Binds a default-configured `LiveServer` over `graph`, waits for its first
/// answer, runs `body` against it, and shuts it down.
pub fn serve<R>(
    graph: &CnnGraph,
    sink: SinkHandle,
    body: impl FnOnce(SocketAddr) -> R,
) -> Served<R> {
    let bound = Instant::now();
    let mut config = LiveConfig {
        model_id: MODEL_ID.to_string(),
        threads: ENGINE_THREADS,
        ..LiveConfig::default()
    };
    config.serve.queue_capacity = QUEUE_CAPACITY;
    let server = LiveServer::bind("127.0.0.1:0", graph, config, sink).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let stop = StopOnDrop(vec![handle]);
        let idle = first_answer(addr, graph.input_shape()).expect("server answers");
        let ready_ms = bound.elapsed().as_secs_f64() * 1e3;
        let body = body(addr);
        let stopping = Instant::now();
        drop(stop);
        let report = serving.join().expect("server thread").expect("server runs");
        let shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
        drop(idle);
        Served {
            body,
            report,
            ready_ms,
            shutdown_ms,
        }
    })
}

/// One live set-up cycle, in seconds: graph build, bind, first answered
/// request. The shutdown that follows is not part of set-up.
pub fn setup_cycle(quick: bool) -> f64 {
    let started = Instant::now();
    let (graph, _) = base_model(quick);
    let built_s = started.elapsed().as_secs_f64();
    built_s + serve(&graph, SinkHandle::null(), |_| ()).ready_ms / 1e3
}

/// Client-side metrics of a load phase, its hard checks, and (traced) one
/// span tree per answered request. `far_span` names the part of the round
/// trip the server's own latency does not cover.
pub fn report_client(run: &mut Run, load: &LoadResult, pool: &Pool, far_span: &str) {
    let tally = load.tally(pool);
    let mut rtt_ms = load.rtt_ms();
    stats::sort(&mut rtt_ms);
    let mut lag_ms: Vec<f64> = load.shots.iter().map(|s| s.lag_us() / 1e3).collect();
    stats::sort(&mut lag_ms);
    let within = load
        .shots
        .iter()
        .filter(|s| s.is_correct(pool) && s.rtt_us().is_some_and(|us| us / 1e3 <= LATENCY_LIMIT_MS))
        .count();

    let m = &mut run.metrics;
    m.set(
        "client.rtt_ms_p95",
        stats::tail(&rtt_ms, 0.95),
        rtt_ms.len(),
    );
    m.set(
        "client.rtt_ms_p99",
        stats::tail(&rtt_ms, 0.99),
        rtt_ms.len(),
    );
    m.set(
        "client.send_lag_ms_p99",
        stats::tail(&lag_ms, 0.99),
        lag_ms.len(),
    );
    m.set(
        "client.within_limit_ratio",
        within as f64 / (tally.sent as f64).max(1.0),
        tally.sent as usize,
    );
    m.set("client.sent", tally.sent as f64, 1);
    m.set("client.ok", (tally.correct + tally.wrong_label) as f64, 1);
    m.set("client.rejected", tally.rejected as f64, 1);
    m.set("client.missing", tally.missing as f64, 1);

    let errors = load.io_errors + load.protocol_errors;
    run.checks
        .ops(tally.sent, tally.missing + tally.wrong_label + errors);
    run.checks.require(errors == 0, || {
        format!(
            "client saw {} socket and {} protocol error(s)",
            load.io_errors, load.protocol_errors
        )
    });
    run.checks.require(tally.missing == 0, || {
        format!("{} request(s) never answered", tally.missing)
    });
    run.checks.require(tally.wrong_label == 0, || {
        format!(
            "{} answer(s) carry a label the oracle rejects",
            tally.wrong_label
        )
    });

    if let Some(log) = run.spans.as_mut() {
        let base = log.at_us(load.start);
        for shot in &load.shots {
            let (Some(recv_us), Some(response)) = (shot.recv_us, &shot.response) else {
                continue;
            };
            let id = Some(shot.id);
            let root = log.push("request", None, id, base + shot.due_us, base + recv_us);
            let mut at = base + shot.due_us;
            let mut child = |name: &str, len_us: f64| {
                let len_us = len_us.max(0.0);
                log.push(name, Some(root), id, at, at + len_us);
                at += len_us;
            };
            child("client.send_lag", shot.lag_us());
            let flight_us = recv_us - shot.sent_us;
            if response.status == Status::Ok {
                let (queue, service, latency) = (
                    f64::from(response.queue_us),
                    f64::from(response.service_us),
                    f64::from(response.latency_us),
                );
                child("net.queue", queue);
                child("net.other", latency - queue - service);
                child("net.service", service);
                child(far_span, flight_us - latency);
            } else {
                child("net.reject", flight_us);
            }
        }
    }
}

/// Largest part of any `request` span its children leave uncovered, in
/// microseconds: 0 when the stage subtraction is right.
pub fn tile_residual_us(run: &Run) -> f64 {
    let Some(log) = &run.spans else {
        return 0.0;
    };
    log.spans()
        .iter()
        .zip(log.self_times_us())
        .filter(|(span, _)| span.name == "request")
        .map(|(_, own)| own.abs())
        .fold(0.0, f64::max)
}

/// Microseconds the engines spent executing the batches that answered
/// `load`. Every member of a batch carries the batch's `service_us`, and a
/// server answers the members of one batch back to back, so with answers in
/// arrival order each run of equal values is one batch. Unbatched servers
/// (`max_batch == 1`) answer one batch per request.
fn busy_us(load: &LoadResult, max_batch: usize) -> f64 {
    let mut answers: Vec<(f64, u32)> = load
        .ok_shots()
        .filter_map(|s| Some((s.recv_us?, s.response.as_ref()?.service_us)))
        .collect();
    answers.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut services: Vec<u32> = answers.into_iter().map(|(_, service)| service).collect();
    if max_batch > 1 {
        services.dedup();
    }
    services.into_iter().map(f64::from).sum()
}

/// Server-side metrics: stage times from the response frames of `load`, and
/// batch, shed and reject counts from the reports of the servers (each
/// closing batches at `max_batch`).
pub fn report_net(run: &mut Run, load: &LoadResult, reports: &[&LiveReport], max_batch: usize) {
    let stage = |pick: fn(&Shot) -> Option<f64>| -> (f64, usize) {
        let samples: Vec<f64> = load.ok_shots().filter_map(pick).collect();
        let n = samples.len();
        (stats::median(samples) / 1e3, n)
    };
    let (queue, n) = stage(|s| s.response.as_ref().map(|r| f64::from(r.queue_us)));
    let (service, _) = stage(|s| s.response.as_ref().map(|r| f64::from(r.service_us)));
    let (latency, _) = stage(|s| s.response.as_ref().map(|r| f64::from(r.latency_us)));
    let (wire, _) = stage(|s| {
        let latency = f64::from(s.response.as_ref()?.latency_us);
        Some(s.recv_us? - s.sent_us - latency)
    });
    let m = &mut run.metrics;
    m.set("net.queue_ms_p50", queue, n);
    m.set("net.service_ms_p50", service, n);
    m.set("net.server_latency_ms_p50", latency, n);
    m.set("net.wire_ms_p50", wire, n);

    let sum = |pick: fn(&LiveReport) -> f64| reports.iter().map(|r| pick(r)).sum::<f64>();
    let batches = sum(|r| r.summary.batches);
    let completed = sum(|r| r.summary.completed);
    let arrived = sum(|r| r.summary.arrived);
    m.set("net.batches", batches, 1);
    m.set(
        "net.mean_batch_size",
        completed / batches.max(1.0),
        batches as usize,
    );
    m.set(
        "net.shed_ratio",
        sum(|r| r.summary.shed) / arrived.max(1.0),
        arrived as usize,
    );
    m.set(
        "net.rejects_queue_full",
        reports.iter().map(|r| r.rejects.queue_full).sum::<u64>() as f64,
        1,
    );
    m.set(
        "net.engine_busy_ratio",
        busy_us(load, max_batch) / 1e6 / (load.span_s() * reports.len() as f64),
        batches as usize,
    );

    for report in reports {
        run.checks.require(report.summary.conservation_holds(), || {
            format!(
                "server ledger broke: arrived {} != completed {} + shed {}",
                report.summary.arrived, report.summary.completed, report.summary.shed
            )
        });
        run.checks.require(report.protocol_errors == 0, || {
            format!(
                "server dropped {} connection(s) on protocol errors",
                report.protocol_errors
            )
        });
    }
}

/// `live_open_25` / `live_overload_640`: one `LiveServer` (batch 16 / 20 ms,
/// queue 256, reject when full, [`ENGINE_THREADS`] engine worker) under an
/// open loop of `rate_per_s` over `conns` connections for `secs`. One
/// operation is one request.
pub fn pass(run: &mut Run, rate_per_s: f64, conns: usize, secs: f64) -> Primary {
    let (graph, spec) = base_model(run.quick);
    let pool = Pool::build(&graph, spec, run.seed, POOL_IMAGES);
    let plans: Vec<_> = (0..conns)
        .map(|c| loadgen::open_plan(run.seed, c, conns, rate_per_s, secs, pool.images.len()))
        .collect();
    let (sink, _recorder) = sink_for(run, 1 << 16);

    let served = serve(&graph, sink, |addr| {
        let target = Target {
            addr,
            model: MODEL_ID,
            shape: graph.input_shape(),
        };
        let cpu0 = host::cpu_time_s();
        let load = loadgen::run_open(target, &pool, &plans);
        (load, host::cpu_time_s() - cpu0)
    });
    let (load, cpu_s) = served.body;

    report_client(run, &load, &pool, "net.wire");
    report_net(
        run,
        &load,
        &[&served.report],
        LiveConfig::default().serve.max_batch,
    );
    run.metrics.set("net.ready_ms", served.ready_ms, 1);
    run.metrics.set("net.shutdown_ms", served.shutdown_ms, 1);

    primary(&load, &pool, secs, cpu_s)
}

/// What a load of `secs` measured end to end: one operation per `Ok` answer,
/// timed from its due time and filed by when it arrived, worth one item when
/// its label is the oracle's.
pub fn primary(load: &LoadResult, pool: &Pool, secs: f64, cpu_s: f64) -> Primary {
    let ops = load
        .ok_shots()
        .filter_map(|shot| {
            Some(Op {
                end_s: shot.recv_us? / 1e6,
                ms: shot.rtt_us()? / 1e3,
                items: f64::from(u8::from(shot.is_correct(pool))),
            })
        })
        .collect();
    Primary {
        ops,
        secs,
        overlapped: true,
        attempted: load.shots.len() as u64,
        cpu_s,
    }
}
