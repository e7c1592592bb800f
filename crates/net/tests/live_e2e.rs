//! End-to-end tests over real localhost sockets: the full
//! client → protocol → admission → batcher → engine → response path,
//! graceful-shutdown semantics, and machine-readable reject reasons.
//!
//! Every test binds an ephemeral port (`127.0.0.1:0`) and runs the server
//! inside `std::thread::scope`, so a returning test *proves* every server
//! worker joined — the no-leak assertion is structural, not sampled.

use adaflow_model::{topology, QuantSpec};
use adaflow_net::{LiveConfig, LiveReport, LiveServer, LoadConfig, LoadMode, NetError};
use adaflow_proto::{
    decode_frame, encode_frame, Frame, FrameReader, RequestFrame, ResponseFrame, Status,
};
use adaflow_serve::ServeConfig;
use adaflow_telemetry::{EventKind, SinkHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn tiny_graph() -> adaflow_model::CnnGraph {
    topology::tiny(QuantSpec::w2a2(), 10).expect("builds")
}

fn request(id: u64, shape: adaflow_model::TensorShape, deadline_us: u64) -> Vec<u8> {
    encode_frame(&Frame::Request(RequestFrame {
        id,
        deadline_us,
        model: String::new(),
        channels: shape.channels as u16,
        height: shape.height as u16,
        width: shape.width as u16,
        data: (0..shape.elements()).map(|i| i as u8).collect(),
    }))
}

/// Reads exactly one response frame (blocking, generous timeout).
fn read_response(stream: &mut TcpStream, frames: &mut FrameReader) -> ResponseFrame {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 4096];
    loop {
        if let Some(Frame::Response(r)) = frames.next_frame().expect("valid stream") {
            return r;
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "server closed before responding");
        frames.feed(&buf[..n]);
    }
}

/// Runs `client` against a server with `config`, returning (report, client
/// result). Shutdown is triggered after the client body finishes.
fn with_server<T>(
    config: LiveConfig,
    sink: SinkHandle,
    client: impl FnOnce(SocketAddr) -> T,
) -> (LiveReport, T) {
    let graph = tiny_graph();
    let server = LiveServer::bind("127.0.0.1:0", &graph, config, sink).expect("binds");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run());
        let out = client(addr);
        handle.shutdown();
        let report: Result<LiveReport, NetError> = server_thread.join().expect("no panic");
        (report.expect("serves"), out)
    })
}

#[test]
fn closed_loop_requests_are_served_end_to_end() {
    let shape = tiny_graph().input_shape();
    let config = LiveConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_wait_s: 0.001,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    };
    let (sink, recorder) = SinkHandle::recorder(65_536);
    let (report, summary) = with_server(config, sink, |addr| {
        let mut lc = LoadConfig::closed(addr, "", shape, 20);
        lc.deadline_us = 5_000_000; // generous: asserting delivery, not speed
        adaflow_net::loadgen::run_load(&lc)
    });

    assert_eq!(summary.sent, 20);
    assert_eq!(summary.ok, 20, "{summary:?}");
    assert_eq!(summary.protocol_errors, 0);
    assert_eq!(summary.missing, 0);
    assert_eq!(summary.deadline_hits, 20);
    assert!(summary.rtt_p50_s > 0.0);

    assert_eq!(report.summary.completed, 20.0);
    assert!(report.summary.conservation_holds(), "{:?}", report.summary);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.send_errors, 0);
    assert!(report.min_service_s > 0.0);
    assert_eq!(report.connections, 1);

    // Telemetry flowed into the PR 6 pipeline: completions and span trees.
    let events = recorder.drain();
    let completions = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RequestCompleted { .. }))
        .count();
    assert_eq!(completions, 20);
    let forest = adaflow_telemetry::TraceForest::from_events(&events);
    assert_eq!(forest.len(), 20, "one span tree per completion");
    forest.validate().expect("well-formed live traces");
}

#[test]
fn graceful_shutdown_answers_queued_requests_with_shutting_down() {
    let shape = tiny_graph().input_shape();
    // A batch shape that never closes on its own: the 5 queued requests
    // are deterministically still queued when shutdown arrives.
    let config = LiveConfig {
        serve: ServeConfig {
            max_batch: 16,
            max_wait_s: 60.0,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    };
    let (report, statuses) = with_server(config, SinkHandle::null(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        for id in 0..5 {
            stream.write_all(&request(id, shape, 0)).expect("writes");
        }
        // Let the reader admit all five before we pull the plug.
        std::thread::sleep(Duration::from_millis(300));
        stream
    });
    // Shutdown has been requested; the drain must answer all five.
    let mut stream = statuses;
    let mut frames = FrameReader::new();
    let mut got: Vec<Status> = (0..5)
        .map(|_| read_response(&mut stream, &mut frames).status)
        .collect();
    got.sort_by_key(|s| s.code());
    assert_eq!(got, vec![Status::ShuttingDown; 5]);

    assert_eq!(report.rejects.shutting_down, 5);
    assert_eq!(report.summary.shed, 5.0);
    assert_eq!(report.summary.completed, 0.0);
    assert!(report.summary.conservation_holds());
}

#[test]
fn listener_closes_after_shutdown() {
    let config = LiveConfig::default();
    let (report, addr) = with_server(config, SinkHandle::null(), |addr| addr);
    assert_eq!(report.connections, 0);
    // The listener socket is gone; fresh connections must fail (allow a
    // moment for the OS to tear the socket down).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(refused, "listener still accepting after shutdown");
}

#[test]
fn reject_reasons_are_machine_readable() {
    let shape = tiny_graph().input_shape();
    // Queue of 2 that never closes a batch: requests 0-1 enqueue, 2-4 are
    // queue-full, and the drain answers 0-1 with shutting-down.
    let config = LiveConfig {
        serve: ServeConfig {
            max_batch: 16,
            max_wait_s: 60.0,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
        model_id: "tiny-w2a2".to_string(),
        ..LiveConfig::default()
    };
    let (report, (mut stream, mut frames)) = with_server(config, SinkHandle::null(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let mut frames = FrameReader::new();

        // Infeasible deadline: 1 µs is below any measured service floor.
        stream
            .write_all(&encode_frame(&Frame::Request(RequestFrame {
                id: 100,
                deadline_us: 1,
                model: "tiny-w2a2".to_string(),
                channels: shape.channels as u16,
                height: shape.height as u16,
                width: shape.width as u16,
                data: vec![0; shape.elements()],
            })))
            .expect("writes");
        let r = read_response(&mut stream, &mut frames);
        assert_eq!(r.status, Status::DeadlineInfeasible);
        assert_eq!(r.id, 100);

        // Unknown model id.
        stream
            .write_all(&encode_frame(&Frame::Request(RequestFrame {
                id: 101,
                deadline_us: 0,
                model: "cnv-w2a2".to_string(),
                channels: shape.channels as u16,
                height: shape.height as u16,
                width: shape.width as u16,
                data: vec![0; shape.elements()],
            })))
            .expect("writes");
        assert_eq!(
            read_response(&mut stream, &mut frames).status,
            Status::UnknownModel
        );

        // Shape mismatch → bad request.
        stream
            .write_all(&encode_frame(&Frame::Request(RequestFrame {
                id: 102,
                deadline_us: 0,
                model: "tiny-w2a2".to_string(),
                channels: 1,
                height: 2,
                width: 2,
                data: vec![0; 4],
            })))
            .expect("writes");
        assert_eq!(
            read_response(&mut stream, &mut frames).status,
            Status::BadRequest
        );

        // A health probe gets the same answer, whatever model it names,
        // but is no client's request.
        stream
            .write_all(&encode_frame(&Frame::Request(RequestFrame::probe(
                "cnv-w2a2", 103,
            ))))
            .expect("writes");
        let r = read_response(&mut stream, &mut frames);
        assert_eq!((r.id, r.status), (103, Status::BadRequest));

        // Fill the queue (2 slots), then overflow it three times.
        for id in 0..5 {
            let mut req = request(id, shape, 0);
            // request() uses empty model id; this server pins one.
            let Frame::Request(mut rf) = decode_frame(&req).expect("own frame").0 else {
                unreachable!()
            };
            rf.model = "tiny-w2a2".to_string();
            req = encode_frame(&Frame::Request(rf));
            stream.write_all(&req).expect("writes");
        }
        let mut statuses: Vec<Status> = (0..3)
            .map(|_| read_response(&mut stream, &mut frames).status)
            .collect();
        statuses.sort_by_key(|s| s.code());
        assert_eq!(statuses, vec![Status::QueueFull; 3]);
        (stream, frames)
    });
    // Drain answers for the two enqueued requests.
    let mut tail: Vec<Status> = (0..2)
        .map(|_| read_response(&mut stream, &mut frames).status)
        .collect();
    tail.sort_by_key(|s| s.code());
    assert_eq!(tail, vec![Status::ShuttingDown; 2]);

    assert_eq!(report.rejects.deadline_infeasible, 1);
    assert_eq!(report.rejects.unknown_model, 1, "the frame, not the probe");
    assert_eq!(
        report.rejects.bad_request, 1,
        "the malformed frame, not the probe"
    );
    assert_eq!(report.rejects.queue_full, 3);
    assert_eq!(report.rejects.shutting_down, 2);
    // Conservation over the shed classes that entered the stats.
    assert!(report.summary.conservation_holds(), "{:?}", report.summary);
    assert_eq!(report.summary.arrived, 6.0, "1 infeasible + 5 offered");
    assert_eq!(report.summary.shed, 6.0);
}

#[test]
fn pipelined_connection_gets_id_matched_responses() {
    let shape = tiny_graph().input_shape();
    let config = LiveConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_wait_s: 0.001,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    };
    let (report, responses) = with_server(config, SinkHandle::null(), |addr| {
        let mut client = adaflow_proto::ProtoClient::connect(addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        // Three outstanding requests on ONE connection, no reads between
        // the sends — the protocol's ids must carry the correlation.
        let ids = [901u64, 902, 903];
        for &id in &ids {
            let Frame::Request(rf) = decode_frame(&request(id, shape, 0)).expect("own frame").0
            else {
                unreachable!()
            };
            client.send(&rf).expect("sends");
        }
        // Claim out of send order to prove correlation is by id, not
        // arrival position.
        let mut got = Vec::new();
        for &id in &[903u64, 901, 902] {
            let r = client
                .recv_id(id, Duration::from_secs(10))
                .expect("no error")
                .expect("response arrives");
            assert_eq!(r.id, id);
            got.push(r);
        }
        assert_eq!(client.sent(), 3);
        assert_eq!(client.received(), 3);
        assert_eq!(client.stashed(), 0, "exactly 3 responses, none extra");
        got
    });
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(|r| r.status == Status::Ok));
    assert_eq!(report.summary.completed, 3.0);
    assert!(report.summary.conservation_holds());
}

#[test]
fn protocol_garbage_drops_the_connection() {
    let (report, eof) = with_server(LiveConfig::default(), SinkHandle::null(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.write_all(&[0xFF; 64]).expect("writes");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 64];
        matches!(stream.read(&mut buf), Ok(0))
    });
    assert!(eof, "server must close a non-protocol connection");
    assert_eq!(report.protocol_errors, 1);
    assert_eq!(
        report.summary.arrived, 0.0,
        "garbage never reaches admission"
    );
}

#[test]
fn open_loop_every_request_gets_exactly_one_answer() {
    let shape = tiny_graph().input_shape();
    let config = LiveConfig {
        serve: ServeConfig {
            max_batch: 8,
            max_wait_s: 0.002,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    };
    let (report, summary) = with_server(config, SinkHandle::null(), |addr| {
        let lc = LoadConfig {
            addr,
            model: String::new(),
            shape,
            connections: 3,
            mode: LoadMode::Open {
                rate_fps: 300.0,
                duration_s: 1.0,
            },
            deadline_us: 0,
            seed: 11,
        };
        adaflow_net::loadgen::run_load(&lc)
    });
    assert!(summary.sent > 50, "open loop actually offered load");
    assert_eq!(summary.protocol_errors, 0);
    assert_eq!(summary.io_errors, 0);
    // The one-answer-per-request invariant: nothing lost, nothing extra.
    assert_eq!(
        summary.ok + summary.rejects.total() + summary.missing,
        summary.sent,
        "{summary:?}"
    );
    assert_eq!(summary.missing, 0, "server answered everything it was sent");
    assert!(report.summary.conservation_holds());
    assert_eq!(report.summary.arrived, summary.sent as f64);
    assert_eq!(report.connections, 3);
}

#[test]
fn a_request_with_its_own_deadline_is_judged_against_it() {
    let shape = tiny_graph().input_shape();
    // One lone request per batch waits out the 150 ms batch timer, so its
    // latency lands between the budgets below: over the server's 50 ms
    // default and a 30 ms budget of its own, well under a 5 s one.
    let config = LiveConfig {
        serve: ServeConfig {
            deadline_s: 0.05,
            max_batch: 16,
            max_wait_s: 0.15,
            ..ServeConfig::default()
        },
        ..LiveConfig::default()
    };
    let (report, latencies_us) = with_server(config, SinkHandle::null(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let mut frames = FrameReader::new();
        [5_000_000u64, 0, 30_000]
            .iter()
            .enumerate()
            .map(|(id, &deadline_us)| {
                stream
                    .write_all(&request(id as u64, shape, deadline_us))
                    .expect("writes");
                let r = read_response(&mut stream, &mut frames);
                assert_eq!(r.status, Status::Ok, "budget {deadline_us} us");
                r.latency_us
            })
            .collect::<Vec<_>>()
    });
    assert!(
        latencies_us
            .iter()
            .all(|&l| (100_000..5_000_000).contains(&l)),
        "timer-closed batches: {latencies_us:?}"
    );
    assert_eq!(report.summary.completed, 3.0);
    assert_eq!(
        report.summary.deadline_hits, 1.0,
        "only the 5 s budget is met; the server default would have failed it too"
    );
}

/// The default live configuration is work-conserving: a lone request on an
/// idle engine is served the moment it is admitted, not when a batch timer
/// fires. Under the 20 ms `ServeConfig` default every `queue_us` below
/// reads 20 000.
#[test]
fn lone_requests_are_served_at_once_under_the_default_config() {
    let shape = tiny_graph().input_shape();
    let (report, queue_us) = with_server(LiveConfig::default(), SinkHandle::null(), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        let mut frames = FrameReader::new();
        (0..8)
            .map(|id| {
                std::thread::sleep(Duration::from_millis(30));
                stream.write_all(&request(id, shape, 0)).expect("writes");
                let r = read_response(&mut stream, &mut frames);
                assert_eq!(r.status, Status::Ok);
                r.queue_us
            })
            .collect::<Vec<_>>()
    });
    assert!(
        queue_us.iter().all(|&us| us < 5_000),
        "an idle engine held requests back: queue_us {queue_us:?}"
    );
    assert_eq!(report.summary.completed, 8.0);
    assert_eq!(report.summary.batches, 8.0, "one batch per lone request");
}

/// Nothing in the server polls, so a shutdown nobody is awake for would
/// hang: the engine thread parked on an empty queue, a reader parked in
/// `read` on an idle connection, the accept loop parked in `accept`. The
/// stop has to reach all three wherever it finds them, so it is swept from
/// before the engine thread exists to after everything has parked. (The
/// one interleaving no sweep can aim at — between the engine's check of
/// the stop and its wait — is forced in `net/src/server.rs`'s
/// `shutdown_wakes_the_engine_under_the_core_lock`.)
#[test]
fn immediate_shutdown_never_hangs_with_or_without_an_idle_connection() {
    let graph: &'static adaflow_model::CnnGraph = Box::leak(Box::new(tiny_graph()));
    for round in 0..300 {
        let server = LiveServer::bind(
            "127.0.0.1:0",
            graph,
            LiveConfig::default(),
            SinkHandle::null(),
        )
        .expect("binds");
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.run()).ok());
        // Odd rounds hold a connection open and silent across the shutdown.
        let idle = (round % 2 == 1).then(|| TcpStream::connect(addr).expect("connects"));
        // Sweep the shutdown across the server's start-up: before the
        // engine thread exists, while it parks, after it parked.
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_micros(20 * (round / 2)) {
            std::hint::spin_loop();
        }
        handle.shutdown();
        let report = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("round {round}: run() never returned"))
            .expect("serves");
        assert_eq!(report.summary.arrived, 0.0);
        assert!(report.connections <= u64::from(idle.is_some()));
        drop(idle);
    }
}

/// The live tier never reconfigures: every request's `reconfig_stall` span
/// is empty, the hand-off from batch close to engine start is billed to
/// `batch_form`, and the stages still tile each request's latency.
#[test]
fn live_span_trees_tile_with_an_empty_reconfig_stall() {
    use adaflow_telemetry::{TraceForest, Waterfall};

    let shape = tiny_graph().input_shape();
    let (sink, recorder) = SinkHandle::recorder(65_536);
    let (report, summary) = with_server(LiveConfig::default(), sink, |addr| {
        let mut lc = LoadConfig::closed(addr, "", shape, 40);
        lc.deadline_us = 5_000_000;
        adaflow_net::loadgen::run_load(&lc)
    });
    assert_eq!(summary.ok, 40, "{summary:?}");
    assert_eq!(report.summary.completed, 40.0);

    let events = recorder.drain();
    let forest = TraceForest::from_events(&events);
    forest.validate().expect("well-formed live traces");
    assert_eq!(forest.len(), 40, "one span tree per completion");
    let waterfall = Waterfall::from_forest(&forest, 0);
    assert!(
        waterfall.attribution_residual_s < 1e-9,
        "stages do not tile: residual {} s",
        waterfall.attribution_residual_s
    );
    let stall_widths: Vec<f64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TraceSpan { stage, begin_s, .. } if stage == "reconfig_stall" => {
                Some(e.t_s - begin_s)
            }
            _ => None,
        })
        .collect();
    assert_eq!(stall_widths.len(), 40);
    assert!(
        stall_widths.iter().all(|&w| w == 0.0),
        "a live request stalled: {stall_widths:?}"
    );
}
