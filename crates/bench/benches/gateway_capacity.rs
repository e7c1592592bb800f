//! Closed-loop capacity through the `adaflow-gateway` routing tier over
//! two live backends, against a direct single-backend baseline — the
//! measured cost (and win) of the extra hop.
//!
//! Each sweep point is one `run_load`; the line it prints is that run's
//! own `LoadSummary` (throughput, p50 and p99 round trip). Set
//! `ADAFLOW_BENCH_SMOKE=1` for a fast configuration (tiny model, few
//! requests, 1/2 connections) — used as the CI smoke check. The default
//! full mode serves CNV-W2A2 shapes and sweeps 1/2/4/8 connections.

use adaflow_gateway::{Gateway, GatewayConfig, GatewayHandle, WarmupSpec};
use adaflow_model::{topology, QuantSpec};
use adaflow_net::{run_load, LiveConfig, LiveServer, LoadConfig, ServerHandle};
use adaflow_telemetry::SinkHandle;
use std::hint::black_box;

/// Shuts the gateway and backends down even when a bench assertion
/// panics — otherwise `thread::scope` would wait forever on server
/// threads that nobody asked to stop.
struct ShutdownGuard {
    gateway: GatewayHandle,
    backends: Vec<ServerHandle>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.gateway.shutdown();
        for handle in &self.backends {
            handle.shutdown();
        }
    }
}

/// Runs one closed loop of `requests` per connection and prints its summary.
fn sweep_point(name: &str, load: &LoadConfig, expected: u64) {
    let summary = run_load(black_box(load));
    assert_eq!(summary.ok, expected, "every request served: {summary:?}");
    println!(
        "{name:<40} {:>9.1} req/s  rtt p50 {:.3} ms  p99 {:.3} ms",
        summary.throughput_rps,
        summary.rtt_p50_s * 1e3,
        summary.rtt_p99_s * 1e3,
    );
}

fn main() {
    let smoke = std::env::var("ADAFLOW_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let tag = if smoke { "smoke" } else { "paper" };
    let graph = if smoke {
        topology::tiny(QuantSpec::w2a2(), 10).expect("builds")
    } else {
        topology::cnv(QuantSpec::w2a2(), 10)
            .build()
            .expect("builds")
    };
    let requests: u64 = if smoke { 8 } else { 64 };
    // Closed-loop concurrency sweep: each point drives K parallel
    // connections through the gateway.
    let sweep: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let shape = graph.input_shape();

    let backend_config = || LiveConfig {
        model_id: "bench".to_string(),
        ..LiveConfig::default()
    };
    let b0 = LiveServer::bind("127.0.0.1:0", &graph, backend_config(), SinkHandle::null())
        .expect("binds");
    let b1 = LiveServer::bind("127.0.0.1:0", &graph, backend_config(), SinkHandle::null())
        .expect("binds");
    let backends = [
        b0.local_addr().expect("addr"),
        b1.local_addr().expect("addr"),
    ];
    let (h0, h1) = (b0.handle(), b1.handle());

    let gateway = Gateway::bind(
        "127.0.0.1:0",
        &backends,
        GatewayConfig {
            model_id: "bench".to_string(),
            warmup: Some(WarmupSpec {
                model: "bench".to_string(),
                channels: shape.channels as u16,
                height: shape.height as u16,
                width: shape.width as u16,
                iters: 2,
            }),
            ..GatewayConfig::default()
        },
        SinkHandle::null(),
    )
    .expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    std::thread::scope(|scope| {
        let bt0 = scope.spawn(move || b0.run());
        let bt1 = scope.spawn(move || b1.run());
        let gt = scope.spawn(move || gateway.run());
        let guard = ShutdownGuard {
            gateway: gh,
            backends: vec![h0, h1],
        };

        // Baseline: the same closed loop straight at one backend.
        sweep_point(
            &format!("direct_1backend_{requests}req_{tag}"),
            &LoadConfig::closed(backends[0], "bench", shape, requests),
            requests,
        );
        for &conns in sweep {
            // Closed-loop `requests` is per connection: K connections
            // each drive their own request chain.
            let mut load = LoadConfig::closed(front, "bench", shape, requests);
            load.connections = conns;
            sweep_point(
                &format!("gateway_2backends_{conns}conn_{requests}req_{tag}"),
                &load,
                requests * conns as u64,
            );
        }

        // Ordering matters on the happy path: drain the gateway fully
        // before the backends go away, or its workers would see the
        // connection drop and record a spurious ejection.
        guard.gateway.shutdown();
        let report = gt.join().expect("gateway thread").expect("clean shutdown");
        assert!(report.conservation_holds());
        assert_eq!(report.protocol_errors, 0);
        assert!(report.backends.iter().all(|b| b.healthy_at_exit));

        drop(guard);
        bt0.join().expect("backend thread").expect("clean shutdown");
        bt1.join().expect("backend thread").expect("clean shutdown");
    });
}
