//! The `gateway` layer: the routing tier in front of two `LiveServer`
//! backends that do almost no work, so the hop is what a client waits for.

use crate::engine::sink_for;
use crate::host;
use crate::live::{self, first_answer, StopOnDrop, MODEL_ID};
use crate::loadgen::{self, Target};
use crate::pool::{Pool, POOL_IMAGES};
use crate::run::{Primary, Run};
use crate::stats;
use adaflow_fleet::RouterKind;
use adaflow_gateway::{Gateway, GatewayConfig, GatewayHandle, GatewayReport, WarmupSpec};
use adaflow_model::{topology, CnnGraph, QuantSpec};
use adaflow_net::{LiveConfig, LiveReport, LiveServer};
use adaflow_nn::DatasetSpec;
use adaflow_telemetry::SinkHandle;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const CLASSES: usize = 10;

fn tiny_model() -> CnnGraph {
    topology::tiny(QuantSpec::w2a2(), CLASSES).expect("tiny builds")
}

struct StopGateway(GatewayHandle);

impl Drop for StopGateway {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// What the tier cost around `body`.
struct Tier<R> {
    body: R,
    gateway: GatewayReport,
    backends: Vec<LiveReport>,
    /// First `bind` to the first request answered through the gateway.
    ready_ms: f64,
    /// Gateway `shutdown()` to its `run()` returning.
    shutdown_ms: f64,
}

/// Brings up two unbatched single-thread backends and a round-robin gateway
/// (warm-up 2) over them, waits for the first answer through the front
/// socket, runs `body(front, backend 0)`, and drains gateway then backends.
fn tier<R>(
    graph: &CnnGraph,
    sink: SinkHandle,
    body: impl FnOnce(SocketAddr, SocketAddr) -> R,
) -> Tier<R> {
    let bound = Instant::now();
    let shape = graph.input_shape();
    let mut backend_config = LiveConfig {
        model_id: MODEL_ID.to_string(),
        threads: 1,
        ..LiveConfig::default()
    };
    backend_config.serve.max_batch = 1;
    let servers: Vec<LiveServer<'_>> = (0..BACKENDS)
        .map(|_| {
            LiveServer::bind(
                "127.0.0.1:0",
                graph,
                backend_config.clone(),
                SinkHandle::null(),
            )
            .expect("backend binds")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers
        .iter()
        .map(|s| s.local_addr().expect("bound address"))
        .collect();
    let handles = servers.iter().map(LiveServer::handle).collect();
    let config = GatewayConfig {
        model_id: MODEL_ID.to_string(),
        router: RouterKind::RoundRobin,
        warmup: Some(WarmupSpec {
            model: MODEL_ID.to_string(),
            channels: shape.channels as u16,
            height: shape.height as u16,
            width: shape.width as u16,
            iters: 2,
        }),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", &addrs, config, sink).expect("gateway binds");
    let front = gateway.local_addr().expect("bound address");
    let gateway_handle = gateway.handle();

    std::thread::scope(|scope| {
        let backend_threads: Vec<_> = servers
            .into_iter()
            .map(|server| scope.spawn(move || server.run()))
            .collect();
        let stop_backends = StopOnDrop(handles);
        let routing = scope.spawn(move || gateway.run());
        let stop_gateway = StopGateway(gateway_handle);
        let idle = first_answer(front, shape).expect("gateway answers");
        let ready_ms = bound.elapsed().as_secs_f64() * 1e3;

        let body = body(front, addrs[0]);

        // The gateway drains before its backends go away, or its workers
        // would record the closing connections as ejections.
        let stopping = Instant::now();
        drop(stop_gateway);
        let gateway = routing
            .join()
            .expect("gateway thread")
            .expect("gateway runs");
        let shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
        drop(idle);
        drop(stop_backends);
        let backends = backend_threads
            .into_iter()
            .map(|t| t.join().expect("backend thread").expect("backend runs"))
            .collect();
        Tier {
            body,
            gateway,
            backends,
            ready_ms,
            shutdown_ms,
        }
    })
}

/// One gateway set-up cycle, in seconds: graph build, both backends and the
/// gateway bound and warmed, first request answered through the front.
pub fn setup_cycle() -> f64 {
    let started = Instant::now();
    let graph = tiny_model();
    let built_s = started.elapsed().as_secs_f64();
    built_s + tier(&graph, SinkHandle::null(), |_, _| ()).ready_ms / 1e3
}

/// `gateway_hop_tiny`: a closed loop of two connections through the gateway
/// for `secs`, then (when `direct_secs > 0`) the same loop straight at
/// backend 0 as the reference leg. One operation is one request.
pub fn pass(run: &mut Run, secs: f64, direct_secs: f64) -> Primary {
    let graph = tiny_model();
    let pool = Pool::build(&graph, DatasetSpec::tiny(CLASSES), run.seed, POOL_IMAGES);
    let conns = live::connections();
    let (sink, _recorder) = sink_for(run, 1 << 16);
    let seed = run.seed;

    let tier = tier(&graph, sink, |front, backend0| {
        let target = |addr| Target {
            addr,
            model: MODEL_ID,
            shape: graph.input_shape(),
        };
        let cpu0 = host::cpu_time_s();
        let through = loadgen::run_closed(
            target(front),
            &pool,
            seed,
            conns,
            Duration::from_secs_f64(secs),
        );
        let cpu_s = host::cpu_time_s() - cpu0;
        let direct = (direct_secs > 0.0).then(|| {
            loadgen::run_closed(
                target(backend0),
                &pool,
                seed,
                conns,
                Duration::from_secs_f64(direct_secs),
            )
        });
        (through, cpu_s, direct)
    });
    let (through, cpu_s, direct) = tier.body;

    live::report_client(run, &through, &pool, "gateway.hop_and_wire");
    let backend_reports: Vec<&LiveReport> = tier.backends.iter().collect();
    live::report_net(run, &through, &backend_reports, 1);

    let client_p50 = stats::median(through.rtt_ms());
    let report = &tier.gateway;
    let backend_p50 = report
        .backends
        .iter()
        .map(|b| b.rtt_p50_s * 1e3)
        .sum::<f64>()
        / BACKENDS as f64;
    let routed: Vec<f64> = report.backends.iter().map(|b| b.routed as f64).collect();
    let m = &mut run.metrics;
    let answered = through.ok_shots().count();
    m.set("gateway.backend_rtt_ms_p50", backend_p50, answered);
    m.set("gateway.retries", report.retries as f64, 1);
    m.set("gateway.routed_share_cv", stats::cv(&routed), BACKENDS);
    m.set("gateway.ready_ms", tier.ready_ms, 1);
    m.set("gateway.shutdown_ms", tier.shutdown_ms, 1);
    if let Some(direct) = &direct {
        // What the tier adds: the round trip through it minus the same
        // round trip without it. (The gateway's own backend-leg histogram
        // is no substitute: a backend worker notices an answer only at its
        // next socket poll, so that wait, most of the hop, sits inside it.)
        let samples = direct.rtt_ms();
        let n = samples.len();
        let direct_p50 = stats::median(samples);
        m.set("gateway.direct_rtt_ms_p50", direct_p50, n);
        m.set("gateway.hop_ms_p50", client_p50 - direct_p50, answered);
        let errors = direct.io_errors + direct.protocol_errors;
        run.checks
            .require(errors == 0 && direct.tally(&pool).missing == 0, || {
                "the direct reference leg lost requests".to_string()
            });
    }

    run.checks.require(report.conservation_holds(), || {
        format!(
            "gateway ledger broke: received {} != ok {} + rejects {}",
            report.received,
            report.answered_ok,
            report.rejects.total()
        )
    });
    run.checks.require(report.protocol_errors == 0, || {
        format!(
            "gateway dropped {} connection(s) on protocol errors",
            report.protocol_errors
        )
    });
    run.checks
        .require(report.backends.iter().all(|b| b.healthy_at_exit), || {
            "a backend was out of the healthy rotation at exit".to_string()
        });

    live::primary(&through, &pool, secs, cpu_s)
}
