//! End-to-end gateway tests over real localhost sockets: closed-loop
//! serving through the routing tier, deterministic kill-one-backend
//! failover with ejection and readmission, retryable-reject failover,
//! a backend that stops reading, the no-healthy-backend degraded mode, and
//! typed startup errors.
//!
//! Backends and the gateway run inside `std::thread::scope`, so a
//! returning test proves every worker joined.

use adaflow_gateway::{Gateway, GatewayConfig, GatewayReport, WarmupSpec};
use adaflow_model::{topology, QuantSpec, TensorShape};
use adaflow_net::{LiveConfig, LiveServer, LoadConfig};
use adaflow_proto::server::{serve_requests, Conn, Stop};
use adaflow_proto::{
    encode_frame, Frame, FrameReader, ProtoClient, RequestFrame, ResponseFrame, Status,
};
use adaflow_serve::ServeConfig;
use adaflow_telemetry::{EventKind, SinkHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tiny_graph() -> adaflow_model::CnnGraph {
    topology::tiny(QuantSpec::w2a2(), 10).expect("builds")
}

fn backend_config(queue_capacity: usize) -> LiveConfig {
    LiveConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_wait_s: 0.001,
            queue_capacity,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    }
}

/// Gateway timings tuned for tests: probes every 25 ms, eject after two
/// missed 200 ms windows, readmit after two successes.
fn fast_gateway(router: &str) -> GatewayConfig {
    GatewayConfig {
        router: adaflow_fleet::config::RouterKind::parse(router).expect("router kind"),
        probe_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(200),
        drain_timeout: Duration::from_secs(2),
        ..GatewayConfig::default()
    }
}

fn warmup_spec(shape: TensorShape) -> WarmupSpec {
    WarmupSpec {
        model: String::new(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        iters: 2,
    }
}

fn request(id: u64, shape: TensorShape) -> RequestFrame {
    RequestFrame {
        id,
        deadline_us: 0,
        model: String::new(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        data: (0..shape.elements()).map(|i| i as u8).collect(),
    }
}

/// Polls `cond` until it holds or `timeout` passes.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn closed_loop_through_gateway_is_conserved_and_spread() {
    let graph = tiny_graph();
    let shape = graph.input_shape();
    let b0 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let b1 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let backends = [
        b0.local_addr().expect("addr"),
        b1.local_addr().expect("addr"),
    ];
    let (h0, h1) = (b0.handle(), b1.handle());

    let mut config = fast_gateway("rr");
    config.warmup = Some(warmup_spec(shape));
    let (sink, recorder) = SinkHandle::recorder(65_536);
    let gateway = Gateway::bind("127.0.0.1:0", &backends, config, sink).expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    let (report, summary) = std::thread::scope(|scope| {
        let bt0 = scope.spawn(|| b0.run());
        let bt1 = scope.spawn(|| b1.run());
        let gt = scope.spawn(|| gateway.run());

        let summary = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 24));

        gh.shutdown();
        let report = gt.join().expect("no panic").expect("gateway serves");
        h0.shutdown();
        h1.shutdown();
        bt0.join().expect("no panic").expect("backend serves");
        bt1.join().expect("no panic").expect("backend serves");
        (report, summary)
    });

    assert_eq!(summary.sent, 24);
    assert_eq!(summary.ok, 24, "{summary:?}");
    assert_eq!(summary.protocol_errors, 0);
    assert_eq!(summary.missing, 0);

    assert_eq!(report.received, 24);
    assert_eq!(report.answered_ok, 24);
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.send_errors, 0);
    assert_eq!(report.router, "round-robin");
    // Round-robin over two healthy backends: both must carry traffic,
    // and exactly the offered 24 dispatches happened (no retries needed).
    assert_eq!(report.backends.len(), 2);
    assert_eq!(report.retries, 0);
    assert_eq!(report.backends[0].routed + report.backends[1].routed, 24);
    assert_eq!(report.backends[0].routed, 12, "{report:?}");
    assert_eq!(report.backends[1].routed, 12, "{report:?}");
    for b in &report.backends {
        assert!(b.healthy_at_exit);
        assert_eq!(b.ejections, 0);
        assert!(b.floor_s > 0.0, "warmup measured a service floor");
        assert!(b.rtt_p50_s > 0.0, "RTT histogram recorded samples");
    }

    // Telemetry flowed through the standard pipeline: one routing event
    // per dispatch, one completion per Ok answer.
    let events = recorder.drain();
    let routed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RequestRouted { .. }))
        .count();
    let completed = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RequestCompleted { .. }))
        .count();
    assert_eq!(routed, 24);
    assert_eq!(completed, 24);
}

#[test]
fn health_probes_are_no_rejects_in_the_backend_ledger() {
    let graph = tiny_graph();
    let shape = graph.input_shape();
    let b0 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let backends = [b0.local_addr().expect("addr")];
    let h0 = b0.handle();

    let mut config = fast_gateway("rr");
    config.warmup = Some(warmup_spec(shape));
    let gateway =
        Gateway::bind("127.0.0.1:0", &backends, config, SinkHandle::null()).expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    let (gateway_report, backend_report) = std::thread::scope(|scope| {
        let bt = scope.spawn(|| b0.run());
        let gt = scope.spawn(|| gateway.run());

        let summary = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 8));
        assert_eq!(summary.ok, 8, "{summary:?}");
        // Ten probe intervals: the backend answers a probe every 25 ms.
        std::thread::sleep(Duration::from_millis(250));

        gh.shutdown();
        let gateway_report = gt.join().expect("no panic").expect("gateway serves");
        h0.shutdown();
        let backend_report = bt.join().expect("no panic").expect("backend serves");
        (gateway_report, backend_report)
    });

    assert!(
        gateway_report.backends[0].healthy_at_exit,
        "{gateway_report:?}"
    );
    assert_eq!(gateway_report.backends[0].ejections, 0);
    assert_eq!(backend_report.rejects.bad_request, 0, "{backend_report:?}");
    assert_eq!(backend_report.rejects.total(), 0, "{backend_report:?}");
    assert!(backend_report.summary.conservation_holds());
}

#[test]
fn killed_backend_is_ejected_then_readmitted_after_restart() {
    let graph = tiny_graph();
    let shape = graph.input_shape();
    let b0 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let b1 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let addr0 = b0.local_addr().expect("addr");
    let backends = [addr0, b1.local_addr().expect("addr")];
    let (h0, h1) = (b0.handle(), b1.handle());

    let (sink, recorder) = SinkHandle::recorder(65_536);
    let gateway = Gateway::bind("127.0.0.1:0", &backends, fast_gateway("rr"), sink).expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    let report = std::thread::scope(|scope| {
        let bt0 = scope.spawn(|| b0.run());
        let bt1 = scope.spawn(|| b1.run());
        let gt = scope.spawn(|| gateway.run());

        // Phase 1: both backends healthy, everything serves.
        let s1 = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 8));
        assert_eq!(s1.ok, 8, "{s1:?}");

        // Phase 2: kill backend 0 and wait for the probes to eject it.
        h0.shutdown();
        bt0.join().expect("no panic").expect("backend serves");
        assert!(
            wait_for(Duration::from_secs(10), || gh.healthy_backends() == 1),
            "dead backend was never ejected"
        );
        assert!(!gh.backend_healthy(0));

        // Phase 3: the gateway keeps serving on the survivor.
        let s2 = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 8));
        assert_eq!(s2.ok, 8, "one backend down must not drop traffic: {s2:?}");

        // Phase 4: restart backend 0 on its old address (std sets
        // SO_REUSEADDR on Unix) and wait for readmission.
        let b0b = LiveServer::bind(addr0, &graph, backend_config(16), SinkHandle::null())
            .expect("rebinds old address");
        let h0b = b0b.handle();
        let bt0b = scope.spawn(|| b0b.run());
        assert!(
            wait_for(Duration::from_secs(10), || gh.backend_healthy(0)),
            "restarted backend was never readmitted"
        );

        // Phase 5: full rotation again.
        let s3 = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 8));
        assert_eq!(s3.ok, 8, "{s3:?}");

        gh.shutdown();
        let report = gt.join().expect("no panic").expect("gateway serves");
        h0b.shutdown();
        h1.shutdown();
        bt0b.join().expect("no panic").expect("backend serves");
        bt1.join().expect("no panic").expect("backend serves");
        report
    });

    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.received, 24);
    assert_eq!(report.answered_ok, 24, "{report:?}");
    assert!(report.backends[0].ejections >= 1, "{report:?}");
    assert!(report.backends[0].readmissions >= 1, "{report:?}");
    assert!(report.backends[0].healthy_at_exit);
    assert_eq!(report.backends[1].ejections, 0);

    // The health transitions are in the telemetry stream too.
    let events = recorder.drain();
    let ejected = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::BackendEjected { backend: 0, .. }));
    let readmitted = events.iter().any(
        |e| matches!(e.kind, EventKind::BackendReadmitted { backend: 0, downtime_s } if downtime_s > 0.0),
    );
    assert!(ejected, "ejection event missing");
    assert!(readmitted, "readmission event missing");
}

/// A fake backend that answers every request — probes included — with
/// `QueueFull`. It stays "healthy" (probes get answers) while never
/// serving, which is exactly the shape that exercises the retry path.
/// The `deadline_us` of every non-probe request frame it sees is pushed
/// into `deadlines`, so tests can observe the budget the gateway forwards.
fn always_queue_full(listener: &TcpListener, stop: &Stop, deadlines: &Mutex<Vec<u64>>) {
    let stats = Arc::default();
    let answer = |conn: &Arc<Conn>, r: RequestFrame| {
        if r.id & (1 << 63) == 0 {
            deadlines.lock().expect("deadline lock").push(r.deadline_us);
        }
        conn.send(&ResponseFrame {
            latency_us: 1,
            ..ResponseFrame::reject(r.id, Status::QueueFull)
        });
    };
    std::thread::scope(|scope| serve_requests(scope, listener, stop, &stats, &answer));
}

#[test]
fn retryable_reject_fails_over_to_another_backend() {
    let graph = tiny_graph();
    let shape = graph.input_shape();
    let real = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(32),
        SinkHandle::null(),
    )
    .expect("binds");
    let fake_listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    // Backend 0 is the pathological one: round-robin guarantees half the
    // requests hit it first and must fail over.
    let backends = [
        fake_listener.local_addr().expect("addr"),
        real.local_addr().expect("addr"),
    ];
    let hr = real.handle();
    let stop = Stop::new();

    let gateway = Gateway::bind(
        "127.0.0.1:0",
        &backends,
        fast_gateway("rr"),
        SinkHandle::null(),
    )
    .expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    let deadlines = Mutex::new(Vec::new());
    let (report, summary) = std::thread::scope(|scope| {
        let ft = scope.spawn(|| always_queue_full(&fake_listener, &stop, &deadlines));
        let rt = scope.spawn(|| real.run());
        let gt = scope.spawn(|| gateway.run());

        let summary = adaflow_net::loadgen::run_load(&LoadConfig::closed(front, "", shape, 16));

        gh.shutdown();
        let report = gt.join().expect("no panic").expect("gateway serves");
        hr.shutdown();
        rt.join().expect("no panic").expect("backend serves");
        stop.raise();
        ft.join().expect("no panic");
        (report, summary)
    });

    // Every request ends Ok: the ones that hit the fake first were
    // retried onto the real backend within the budget.
    assert_eq!(summary.ok, 16, "{summary:?}");
    assert_eq!(summary.rejects.total(), 0);
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.answered_ok, 16);
    assert!(report.retries >= 8, "{report:?}");
    assert!(report.backends[0].retryable >= 8, "{report:?}");
    assert_eq!(report.backends[1].ok, 16);
}

/// A dispatched frame must carry the request's *remaining* deadline
/// budget — after gateway queueing, and especially after a retry, the
/// client's original `deadline_us` would let each backend restart the
/// full budget from its own arrival time and admit work whose
/// gateway-side deadline has effectively passed.
#[test]
fn retries_forward_the_remaining_deadline_budget() {
    let shape = tiny_graph().input_shape();
    // Two pathological backends: the request queue-fulls on the first,
    // retries once onto the second, then exhausts its budget of 1.
    let fake0 = TcpListener::bind("127.0.0.1:0").expect("binds");
    let fake1 = TcpListener::bind("127.0.0.1:0").expect("binds");
    let backends = [
        fake0.local_addr().expect("addr"),
        fake1.local_addr().expect("addr"),
    ];
    let stop = Stop::new();
    let (d0, d1) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));

    let mut config = fast_gateway("rr");
    config.retry_budget = 1;
    let gateway =
        Gateway::bind("127.0.0.1:0", &backends, config, SinkHandle::null()).expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    std::thread::scope(|scope| {
        scope.spawn(|| always_queue_full(&fake0, &stop, &d0));
        scope.spawn(|| always_queue_full(&fake1, &stop, &d1));
        let gt = scope.spawn(|| gateway.run());

        let mut client = ProtoClient::connect(front).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let mut frame = request(1, shape);
        frame.deadline_us = 500_000;
        client.send(&frame).expect("sends");
        let r = client
            .recv_id(1, Duration::from_secs(5))
            .expect("no error")
            .expect("answered");
        assert_eq!(r.status, Status::QueueFull, "budget exhausts after 1 retry");

        gh.shutdown();
        gt.join().expect("no panic").expect("gateway serves");
        stop.raise();
    });

    let seen: Vec<u64> = {
        let (d0, d1) = (d0.lock().expect("lock"), d1.lock().expect("lock"));
        d0.iter().chain(d1.iter()).copied().collect()
    };
    assert_eq!(seen.len(), 2, "one dispatch + one retry: {seen:?}");
    let first = *seen.iter().max().expect("nonempty");
    let second = *seen.iter().min().expect("nonempty");
    assert!(
        first < 500_000,
        "dispatch must forward the remaining budget, saw {first}"
    );
    assert!(second < first, "retry must shrink the budget: {seen:?}");
    assert!(second > 0, "a live deadline never degrades to `none` (0)");
}

/// A fake backend that answers the gateway's warm-up on its first
/// connection and then never reads another byte. It keeps every connection
/// it accepts open until `stop`, so nothing ever closes or resets: the only
/// sign of trouble the gateway can see is its own writes backing up.
fn warms_up_then_never_reads(listener: &TcpListener, stop: &AtomicBool, warmups: u32) {
    listener.set_nonblocking(true).expect("nonblocking");
    let mut held: Vec<TcpStream> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).expect("blocking");
                if held.is_empty() {
                    let mut reader = FrameReader::new();
                    let mut buf = [0u8; 4096];
                    let mut answered = 0;
                    while answered < warmups {
                        let n = stream.read(&mut buf).expect("warm-up bytes");
                        assert!(n > 0, "gateway hung up during warm-up");
                        reader.feed(&buf[..n]);
                        while let Some(Frame::Request(r)) = reader.next_frame().expect("frame") {
                            let ok = ResponseFrame {
                                status: Status::Ok,
                                service_us: 50,
                                latency_us: 60,
                                ..ResponseFrame::reject(r.id, Status::Ok)
                            };
                            stream
                                .write_all(&encode_frame(&Frame::Response(ok)))
                                .expect("warm-up answer");
                            answered += 1;
                        }
                    }
                }
                held.push(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept failed: {e}"),
        }
    }
}

/// A backend leg has a write timeout. Without one, a backend that passes
/// warm-up and then stops reading wedges its worker inside `send` as soon
/// as the socket buffers fill; a wedged worker sends no probes either, so
/// the backend is never ejected and everything routed to it is never
/// answered. The probe timeout here is far longer than the test, so only
/// the failed write can eject the backend.
#[test]
fn backend_that_stops_reading_is_ejected_and_its_requests_answered() {
    const REQUESTS: u64 = 48;
    let graph = tiny_graph();
    let real = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(64),
        SinkHandle::null(),
    )
    .expect("binds");
    let fake_listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let backends = [
        fake_listener.local_addr().expect("addr"),
        real.local_addr().expect("addr"),
    ];
    let hr = real.handle();
    let stop = AtomicBool::new(false);

    let mut config = fast_gateway("rr");
    config.warmup = Some(warmup_spec(graph.input_shape()));
    config.probe_timeout = Duration::from_secs(60);
    let gateway =
        Gateway::bind("127.0.0.1:0", &backends, config, SinkHandle::null()).expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    // Half a megabyte per frame: round-robin sends 12 MB at the fake, three
    // times what a loopback socket pair buffers for a peer that never reads.
    // The real backend rejects the shape (`BadRequest`), which is an answer.
    let big = TensorShape::new(2, 512, 512);
    let (report, answered, elapsed) = std::thread::scope(|scope| {
        let ft = scope.spawn(|| warms_up_then_never_reads(&fake_listener, &stop, 2));
        let rt = scope.spawn(|| real.run());
        let gt = scope.spawn(|| gateway.run());

        let mut client = ProtoClient::connect(front).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let started = Instant::now();
        for id in 0..REQUESTS {
            client.send(&request(id, big)).expect("send");
        }
        let mut answered = 0;
        while answered < REQUESTS && started.elapsed() < Duration::from_secs(20) {
            if let Some(response) = client.try_recv().expect("front stays up") {
                assert_eq!(response.status, Status::BadRequest, "{response:?}");
                answered += 1;
            }
        }
        let elapsed = started.elapsed();

        gh.shutdown();
        let report = gt.join().expect("no panic").expect("gateway serves");
        hr.shutdown();
        rt.join().expect("no panic").expect("backend serves");
        stop.store(true, Ordering::SeqCst);
        ft.join().expect("no panic");
        (report, answered, elapsed)
    });

    assert_eq!(
        answered, REQUESTS,
        "unanswered after {elapsed:?}: {report:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.received, REQUESTS);
    assert_eq!(report.rejects.bad_request, REQUESTS, "{report:?}");
    assert!(report.backends[0].ejections >= 1, "{report:?}");
    assert!(!report.backends[0].healthy_at_exit, "{report:?}");
    assert!(report.retries >= 1, "{report:?}");
    assert!(report.backends[1].healthy_at_exit, "{report:?}");
}

#[test]
fn empty_rotation_degrades_to_shutting_down_answers() {
    let graph = tiny_graph();
    let shape = graph.input_shape();
    let b0 = LiveServer::bind(
        "127.0.0.1:0",
        &graph,
        backend_config(16),
        SinkHandle::null(),
    )
    .expect("binds");
    let backends = [b0.local_addr().expect("addr")];
    let h0 = b0.handle();

    let gateway = Gateway::bind(
        "127.0.0.1:0",
        &backends,
        fast_gateway("jsq"),
        SinkHandle::null(),
    )
    .expect("binds");
    let front = gateway.local_addr().expect("addr");
    let gh = gateway.handle();

    let report = std::thread::scope(|scope| {
        let bt = scope.spawn(|| b0.run());
        let gt = scope.spawn(|| gateway.run());

        // Kill the only backend — once the gateway has connected to it, or
        // startup would fail with no healthy backend — and wait until the
        // rotation is empty.
        assert!(
            wait_for(Duration::from_secs(10), || gh.healthy_backends() == 1),
            "gateway never connected to its backend"
        );
        h0.shutdown();
        bt.join().expect("no panic").expect("backend serves");
        assert!(
            wait_for(Duration::from_secs(10), || gh.healthy_backends() == 0),
            "dead backend was never ejected"
        );

        // The gateway still answers — with shutting-down, not silence.
        let mut client = ProtoClient::connect(front).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        for id in 1..=4u64 {
            client.send(&request(id, shape)).expect("sends");
            let r = client
                .recv_id(id, Duration::from_secs(5))
                .expect("no error")
                .expect("answered");
            assert_eq!(r.status, Status::ShuttingDown);
        }

        gh.shutdown();
        gt.join().expect("no panic").expect("gateway serves")
    });

    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.received, 4);
    assert_eq!(report.rejects.shutting_down, 4);
    assert_eq!(report.no_backend, 4);
    assert_eq!(report.answered_ok, 0);
}

#[test]
fn startup_errors_are_typed() {
    // No backends configured at all.
    let err = Gateway::bind(
        "127.0.0.1:0",
        &[],
        GatewayConfig::default(),
        SinkHandle::null(),
    )
    .map(|_| ())
    .expect_err("must refuse an empty backend list");
    assert!(matches!(err, adaflow_gateway::GatewayError::NoBackends));

    // A backend address nothing listens on: bind succeeds (the gateway
    // contacts backends at run), run refuses to serve.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("binds");
        l.local_addr().expect("addr")
    }; // listener dropped: the port is closed
    let gateway = Gateway::bind(
        "127.0.0.1:0",
        &[dead],
        GatewayConfig::default(),
        SinkHandle::null(),
    )
    .expect("bind is backend-agnostic");
    let err: Result<GatewayReport, _> = gateway.run();
    assert!(matches!(
        err.expect_err("must refuse to serve with zero healthy backends"),
        adaflow_gateway::GatewayError::NoHealthyBackends { total: 1 }
    ));
}
