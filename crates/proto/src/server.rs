//! The server end of a connection: the one accept loop, the one request
//! reader loop, the one write half and the one stop signal under both live
//! tiers.
//!
//! `adaflow-net`'s `LiveServer` and `adaflow-gateway`'s `Gateway` differ in
//! what they do with a decoded request; everything around that is the same
//! and lives here, beside [`ProtoClient`](crate::ProtoClient), the client
//! end of the same socket:
//!
//! * [`Stop`] — the stop signal of a serving run. Nothing here polls it on
//!   a timer: the accept loop blocks in `accept` and every reader blocks in
//!   `read`, and [`Stop::raise`] wakes them — a self-connect for each
//!   listener, `shutdown(Shutdown::Read)` for each connection, so a write
//!   half still carries whatever is answered after the stop;
//! * [`accept_until`] — blocking accept until the stop; a fatal listener
//!   error raises it, so whatever else waits on it drains instead of
//!   waiting forever;
//! * [`read_requests`] — blocking reads feed a [`FrameReader`]; every
//!   decoded request goes to the caller's closure, and the first protocol
//!   violation ends the connection (the reader's errors are sticky by
//!   design);
//! * [`Conn`] — the accepted socket: readers and workers answer on it one
//!   whole response at a time, with [`WRITE_TIMEOUT`] bounding how long a
//!   peer that stopped reading can hold the writing thread;
//! * [`serve_requests`] — the four composed inside the caller's
//!   `std::thread::scope`, one reader thread per connection, so the scope
//!   ending proves every reader joined;
//! * [`WireStats`] — the four counters all of the above feed.
//!
//! Nothing here is configurable: the handler is a closure, the timing is
//! one constant, and the test seam is `std::io::Read`.

use crate::frame::{encode_frame, Frame, RequestFrame, ResponseFrame};
use crate::reader::FrameReader;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

/// Blocking-write timeout of an accepted connection: how long one stalled
/// peer can hold a thread that answers many (the engine thread, a backend
/// worker) before its connection is shut down. Also bounds the wake-up
/// connect of [`Stop::raise`].
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Wire-level counters of one serving run. Statistics only — they publish
/// no other data, so every access is `Relaxed`.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections ended for a protocol violation (undecodable bytes, a
    /// foreign version, or a response frame sent by a client).
    pub protocol_errors: AtomicU64,
    /// Responses that could not be written (peer gone or stalled).
    pub send_errors: AtomicU64,
    /// Fatal listener failures; the first one ends the run, so this is 0
    /// or 1.
    pub accept_errors: AtomicU64,
}

/// An accepted connection. Writes are serialized by the mutex, so the
/// connection's reader and any worker thread can interleave whole
/// responses safely; the reader reads the same socket without it.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Held for the length of one response.
    writing: Mutex<()>,
    stats: Arc<WireStats>,
}

impl Conn {
    /// Takes over `stream` with the skeleton's write timeout set.
    fn new(stream: TcpStream, stats: &Arc<WireStats>) -> std::io::Result<Self> {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            writing: Mutex::new(()),
            stats: stats.clone(),
        })
    }

    /// Writes one response; returns whether it was written whole.
    ///
    /// A failed or timed-out write counts one send error and shuts the
    /// socket down in both directions: a half-written frame is never
    /// followed by another, later sends fail at once instead of waiting
    /// out the timeout again, and the connection's reader sees EOF.
    pub fn send(&self, response: &ResponseFrame) -> bool {
        let bytes = encode_frame(&Frame::Response(response.clone()));
        let _whole = self.writing.lock().expect("conn lock poisoned");
        let sent = (&self.stream).write_all(&bytes).is_ok();
        if !sent {
            self.stats.send_errors.fetch_add(1, Ordering::Relaxed);
            self.stream.shutdown(Shutdown::Both).ok();
        }
        sent
    }
}

/// The stop signal of one serving run, and the wake-up of everything that
/// blocks until it.
///
/// The flag and the registry of blocked sockets change under one lock, which
/// is the whole ordering argument: a socket registered before
/// [`raise`](Self::raise) took the lock is woken by it, and one that comes
/// after finds the flag up and never blocks. Only read halves are shut
/// down, so the batch in flight and the `ShuttingDown` drain still reach
/// their peers.
#[derive(Debug, Default)]
pub struct Stop {
    raised: AtomicBool,
    blocked: Mutex<Blocked>,
}

/// What a [`Stop`] has to wake.
#[derive(Debug, Default)]
struct Blocked {
    /// Where to connect to return each watched listener's `accept`.
    listeners: Vec<SocketAddr>,
    /// Connections whose reader may sit in `read`.
    conns: Vec<Arc<Conn>>,
}

impl Stop {
    /// A signal nobody has raised.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the stop was raised.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the stop and wakes every watched reader and accept loop.
    /// Idempotent; returns once all of them have been woken, not once they
    /// have returned.
    pub fn raise(&self) {
        let blocked = self.blocked.lock().expect("stop lock poisoned");
        if self.raised.swap(true, Ordering::SeqCst) {
            return;
        }
        for conn in &blocked.conns {
            conn.stream.shutdown(Shutdown::Read).ok();
        }
        // An accept loop that is not blocked (a full backlog, a dead
        // listener) sees the flag on its own; the connect may then fail.
        for addr in &blocked.listeners {
            TcpStream::connect_timeout(addr, WRITE_TIMEOUT).ok();
        }
    }

    /// Registers `listener` for the wake-up connect; `false` when the stop
    /// is already up and `accept` must not be entered.
    fn watch_listener(&self, listener: &TcpListener) -> std::io::Result<bool> {
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let mut blocked = self.blocked.lock().expect("stop lock poisoned");
        let watching = !self.is_raised();
        if watching {
            blocked.listeners.push(addr);
        }
        Ok(watching)
    }

    /// Registers `conn` for the read-half shutdown; `false` when the stop
    /// is already up and its reader must not start.
    fn watch(&self, conn: &Arc<Conn>) -> bool {
        let mut blocked = self.blocked.lock().expect("stop lock poisoned");
        let watching = !self.is_raised();
        if watching {
            blocked.conns.push(conn.clone());
        }
        watching
    }

    /// Drops the registry's hold on a connection whose reader returned, so
    /// the socket closes with its last answer.
    fn forget(&self, conn: &Arc<Conn>) {
        let mut blocked = self.blocked.lock().expect("stop lock poisoned");
        blocked.conns.retain(|c| !Arc::ptr_eq(c, conn));
    }
}

/// Accepts connections on `listener` (blocking) until `stop` is raised,
/// handing each stream to `on_stream`.
///
/// # Errors
///
/// The first listener error. `stop` is raised before returning it, so
/// threads that exit only on the stop are released rather than wedged.
pub fn accept_until(
    listener: &TcpListener,
    stop: &Stop,
    mut on_stream: impl FnMut(TcpStream),
) -> std::io::Result<()> {
    let fatal = match stop.watch_listener(listener) {
        Err(e) => e,
        Ok(false) => return Ok(()),
        Ok(true) => loop {
            let accepted = listener.accept();
            // Whatever came in with or after the stop — the wake-up connect
            // included — is not served.
            if stop.is_raised() {
                return Ok(());
            }
            match accepted {
                Ok((stream, _peer)) => on_stream(stream),
                Err(e) => break e,
            }
        },
    };
    stop.raise();
    Err(fatal)
}

/// Feeds `reader` through a [`FrameReader`] and calls `on_request` with
/// every decoded request, in wire order, until EOF, a read error, a
/// protocol violation, or `stop` — checked before each read, and for a
/// socket [`Stop`] watches the read itself returns EOF.
///
/// `WouldBlock`, `TimedOut` and `Interrupted` reads are retried (this loop
/// sets no read timeout, but a peer-side one is legal input). A decode
/// error or a response frame — clients send requests — counts one
/// protocol error and ends the loop: the stream is not speaking the
/// protocol and cannot be resynchronized.
pub fn read_requests(
    mut reader: impl Read,
    stop: &Stop,
    stats: &WireStats,
    mut on_request: impl FnMut(RequestFrame),
) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    while !stop.is_raised() {
        let n = match reader.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => continue,
                _ => return,
            },
        };
        frames.feed(&buf[..n]);
        loop {
            match frames.next_frame() {
                Ok(Some(Frame::Request(request))) => on_request(request),
                Ok(None) => break,
                Ok(Some(Frame::Response(_))) | Err(_) => {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Serves `listener` on the calling thread until `stop` is raised: accepts
/// connections and spawns one reader per connection into `scope`, each
/// calling `handler(conn, request)` for every request it decodes.
///
/// Returns when the accept loop ends; [`Stop::raise`] has by then woken
/// every reader, and `scope` joins them. A fatal accept error counts in
/// `stats` and raises `stop` (see [`accept_until`]).
pub fn serve_requests<'scope, H>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    stop: &'scope Stop,
    stats: &'scope Arc<WireStats>,
    handler: &'scope H,
) where
    H: Fn(&Arc<Conn>, RequestFrame) + Sync,
{
    let accepted = accept_until(listener, stop, |stream| {
        stats.connections.fetch_add(1, Ordering::Relaxed);
        scope.spawn(move || {
            let Ok(conn) = Conn::new(stream, stats) else {
                return;
            };
            let conn = Arc::new(conn);
            if stop.watch(&conn) {
                read_requests(&conn.stream, stop, stats, |request| handler(&conn, request));
                stop.forget(&conn);
            }
        });
    });
    if accepted.is_err() {
        stats.accept_errors.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Status, VERSION};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc;
    use std::time::Instant;

    fn request(id: u64) -> RequestFrame {
        RequestFrame {
            id,
            deadline_us: 100 + id,
            model: "tiny-w2a2".to_string(),
            channels: 1,
            height: 3,
            width: 3,
            data: (0..9).map(|i| i + id as u8).collect(),
        }
    }

    fn wire(requests: &[RequestFrame]) -> Vec<u8> {
        requests
            .iter()
            .flat_map(|r| encode_frame(&Frame::Request(r.clone())))
            .collect()
    }

    /// An in-memory stream that misbehaves on a script: read `i` fails
    /// with `faults[i % len]` when that is `Some`, else delivers the next
    /// `chunks[i % len]` bytes (`Ok(0)` once the bytes run out).
    struct FaultReader {
        bytes: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        faults: Vec<Option<ErrorKind>>,
        reads: usize,
    }

    impl FaultReader {
        fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> Self {
            Self {
                bytes,
                pos: 0,
                chunks,
                faults: vec![None],
                reads: 0,
            }
        }

        /// Chunk sizes by the `proto_props.rs` split rule and a fault on
        /// about half the reads, all drawn from `seed`.
        fn seeded(bytes: Vec<u8>, seed: u64) -> Self {
            const FAULTS: [Option<ErrorKind>; 6] = [
                None,
                None,
                None,
                Some(ErrorKind::WouldBlock),
                Some(ErrorKind::TimedOut),
                Some(ErrorKind::Interrupted),
            ];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let chunks = (0..31).map(|_| 1 + rng.gen_range(0..97usize)).collect();
            let mut faults: Vec<_> = (0..29)
                .map(|_| FAULTS[rng.gen_range(0..FAULTS.len())])
                .collect();
            faults.push(None); // some read always makes progress
            Self {
                faults,
                ..Self::new(bytes, chunks)
            }
        }
    }

    impl Read for FaultReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let i = self.reads;
            self.reads += 1;
            if let Some(kind) = self.faults[i % self.faults.len()] {
                return Err(kind.into());
            }
            let left = &self.bytes[self.pos..];
            let n = self.chunks[i % self.chunks.len()]
                .min(left.len())
                .min(buf.len());
            buf[..n].copy_from_slice(&left[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Runs the loop over `reader`; returns the handler's call sequence
    /// and the protocol-error count.
    fn drive(reader: &mut FaultReader) -> (Vec<RequestFrame>, u64) {
        let stats = WireStats::default();
        let mut calls = Vec::new();
        read_requests(reader, &Stop::new(), &stats, |r| calls.push(r));
        (calls, stats.protocol_errors.load(Ordering::Relaxed))
    }

    #[test]
    fn every_split_and_fault_pattern_yields_the_same_calls() {
        let requests: Vec<_> = (0..5).map(request).collect();
        let bytes = wire(&requests);
        let expected = (requests, 0);

        assert_eq!(
            drive(&mut FaultReader::new(bytes.clone(), vec![bytes.len()])),
            expected
        );
        assert_eq!(
            drive(&mut FaultReader::new(bytes.clone(), vec![1])),
            expected
        );
        for cut in 1..bytes.len() {
            let mut reader = FaultReader::new(bytes.clone(), vec![cut, bytes.len()]);
            assert_eq!(drive(&mut reader), expected, "split at byte {cut}");
        }
        for seed in 0..64 {
            let mut reader = FaultReader::seeded(bytes.clone(), seed);
            assert_eq!(drive(&mut reader), expected, "seed {seed}");
        }
    }

    /// EINTR is not a dead connection: a read interrupted mid-frame is
    /// retried and the frame still arrives whole.
    #[test]
    fn interrupted_read_mid_frame_still_delivers_the_frame() {
        let bytes = wire(&[request(7)]);
        let mut reader = FaultReader::new(bytes.clone(), vec![10, 0, bytes.len()]);
        reader.faults = vec![None, Some(ErrorKind::Interrupted), None];
        assert_eq!(drive(&mut reader), (vec![request(7)], 0));
    }

    #[test]
    fn eof_mid_frame_is_neither_a_call_nor_a_protocol_error() {
        let requests: Vec<_> = (0..3).map(request).collect();
        let bytes = wire(&requests);
        let frame_len = bytes.len() / requests.len();
        for keep in 0..bytes.len() {
            let mut reader = FaultReader::seeded(bytes[..keep].to_vec(), keep as u64);
            let whole = requests[..keep / frame_len].to_vec();
            assert_eq!(drive(&mut reader), (whole, 0), "stream cut at byte {keep}");
        }
    }

    #[test]
    fn protocol_violations_count_once_and_end_the_connection() {
        let good = wire(&[request(1), request(2)]);
        let mut foreign = wire(&[request(3)]);
        foreign[2] = VERSION + 1;
        let response = encode_frame(&Frame::Response(ResponseFrame::reject(3, Status::Ok)));
        for (name, bad) in [
            ("garbage", vec![0xFF; 32]),
            ("foreign version", foreign),
            ("client-sent response", response),
        ] {
            let bytes = [good.clone(), bad, wire(&[request(4)])].concat();
            let mut reader = FaultReader::new(bytes.clone(), vec![16]);
            let (calls, protocol_errors) = drive(&mut reader);
            assert_eq!(calls, [request(1), request(2)], "{name}");
            assert_eq!(protocol_errors, 1, "{name}");
            assert!(
                reader.pos < bytes.len(),
                "{name}: the loop kept reading a dead stream"
            );
        }
    }

    #[test]
    fn stop_raised_between_frames_ends_the_loop() {
        let requests: Vec<_> = (0..4).map(request).collect();
        let bytes = wire(&requests);
        // One whole frame per read, so every frame boundary is a stop check.
        let mut reader = FaultReader::new(bytes.clone(), vec![bytes.len() / requests.len()]);
        let stop = Stop::new();
        let mut calls = Vec::new();
        read_requests(&mut reader, &stop, &WireStats::default(), |r| {
            calls.push(r);
            if calls.len() == 2 {
                stop.raise();
            }
        });
        assert_eq!(calls, requests[..2]);
    }

    /// A peer that pipelines requests and never reads must not hold the
    /// answering thread forever: the write times out, the connection is
    /// shut down, and everything else on it fails fast.
    #[test]
    fn stalled_peer_times_out_and_loses_its_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (stream, _) = listener.accept().expect("accepts");
        let stats = Arc::new(WireStats::default());
        let conn = Arc::new(Conn::new(stream, &stats).expect("conn"));

        let (tx, rx) = mpsc::channel();
        let writer = conn.clone();
        std::thread::spawn(move || {
            let response = ResponseFrame::reject(1, Status::QueueFull);
            while writer.send(&response) {}
            tx.send(()).ok();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("send blocked forever on a peer that never reads");
        assert_eq!(stats.send_errors.load(Ordering::Relaxed), 1);

        let t0 = Instant::now();
        assert!(!conn.send(&ResponseFrame::reject(2, Status::QueueFull)));
        read_requests(&conn.stream, &Stop::new(), &stats, |_| {
            panic!("no request was sent");
        });
        assert!(
            t0.elapsed() < WRITE_TIMEOUT / 2,
            "a dead connection must fail at once, took {:?}",
            t0.elapsed()
        );
        assert_eq!(stats.send_errors.load(Ordering::Relaxed), 2);
        assert_eq!(stats.protocol_errors.load(Ordering::Relaxed), 0);
        drop(peer);
    }

    /// A fatal accept error must release everything that waits on `stop`,
    /// not strand it. The listener is a UDP socket's fd, on which `accept`
    /// fails at once with a non-`WouldBlock` error.
    #[cfg(unix)]
    #[test]
    fn fatal_accept_error_counts_and_raises_stop() {
        use std::os::fd::OwnedFd;

        let udp = std::net::UdpSocket::bind("127.0.0.1:0").expect("udp socket");
        let listener = TcpListener::from(OwnedFd::from(udp));
        let stop = Stop::new();
        let stats = Arc::new(WireStats::default());
        let handler = |_: &Arc<Conn>, _: RequestFrame| {};
        std::thread::scope(|scope| serve_requests(scope, &listener, &stop, &stats, &handler));
        assert!(stop.is_raised());
        assert_eq!(stats.accept_errors.load(Ordering::Relaxed), 1);
        assert_eq!(stats.connections.load(Ordering::Relaxed), 0);
    }

    /// The skeleton running on a thread of its own.
    struct Skeleton {
        addr: SocketAddr,
        stop: Arc<Stop>,
        /// Every `(conn, request)` the handler was called with.
        calls: mpsc::Receiver<(Arc<Conn>, RequestFrame)>,
        /// Fires when `serve_requests` and every reader have returned.
        joined: mpsc::Receiver<()>,
    }

    fn spawn_skeleton() -> Skeleton {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(Stop::new());
        let (calls_tx, calls) = mpsc::channel();
        let (joined_tx, joined) = mpsc::channel();
        let serving = stop.clone();
        std::thread::spawn(move || {
            let stats = Arc::new(WireStats::default());
            let calls_tx = Mutex::new(calls_tx);
            let handler = |conn: &Arc<Conn>, request: RequestFrame| {
                let tx = calls_tx.lock().expect("tx lock");
                tx.send((conn.clone(), request)).ok();
            };
            std::thread::scope(|scope| {
                serve_requests(scope, &listener, &serving, &stats, &handler);
            });
            joined_tx.send(()).ok();
        });
        Skeleton {
            addr,
            stop,
            calls,
            joined,
        }
    }

    const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

    /// Nothing polls: a stop with no traffic at all must still return the
    /// accept loop, whether it comes before `accept` is entered or after.
    #[test]
    fn stop_returns_a_blocked_accept_with_no_traffic() {
        for round in 0..50 {
            let Skeleton { stop, joined, .. } = spawn_skeleton();
            if round % 2 == 0 {
                // Give the loop every chance to be parked in `accept`;
                // either interleaving has to end it.
                std::thread::yield_now();
            }
            stop.raise();
            joined
                .recv_timeout(JOIN_TIMEOUT)
                .expect("accept loop never saw the stop");
        }
    }

    /// A reader parked in `read` on an idle connection returns on stop,
    /// and so does the accept loop behind it.
    #[test]
    fn stop_returns_a_blocked_reader_on_an_idle_connection() {
        let Skeleton {
            addr,
            stop,
            calls,
            joined,
        } = spawn_skeleton();
        let mut peer = TcpStream::connect(addr).expect("connects");
        peer.write_all(&wire(&[request(1)])).expect("writes");
        // The handler ran, so the reader is watched and heads back into a
        // `read` that no byte will ever end.
        let (conn, got) = calls.recv_timeout(JOIN_TIMEOUT).expect("request handled");
        assert_eq!(got, request(1));
        drop(conn);
        stop.raise();
        joined
            .recv_timeout(JOIN_TIMEOUT)
            .expect("reader never saw the stop");
        // The server's side is closed: the peer reads a clean EOF.
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty());
    }

    /// Stop shuts the read half only: an answer written after it (the
    /// in-flight batch, the `ShuttingDown` drain) still reaches the peer.
    #[test]
    fn a_response_written_after_stop_still_reaches_the_peer() {
        let Skeleton {
            addr,
            stop,
            calls,
            joined,
        } = spawn_skeleton();
        let mut peer = TcpStream::connect(addr).expect("connects");
        peer.write_all(&wire(&[request(9)])).expect("writes");
        let (conn, _) = calls.recv_timeout(JOIN_TIMEOUT).expect("request handled");
        stop.raise();
        joined
            .recv_timeout(JOIN_TIMEOUT)
            .expect("skeleton never saw the stop");

        let late = ResponseFrame::reject(9, Status::ShuttingDown);
        assert!(conn.send(&late), "the write half must outlive the stop");
        drop(conn);
        let mut bytes = Vec::new();
        peer.read_to_end(&mut bytes).expect("reads to EOF");
        assert_eq!(bytes, encode_frame(&Frame::Response(late)));
    }

    /// A connection that arrives with the stop already up is not served.
    #[test]
    fn a_stop_raised_first_serves_nobody() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let stop = Stop::new();
        stop.raise();
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let stats = Arc::new(WireStats::default());
        let handler = |_: &Arc<Conn>, _: RequestFrame| panic!("served after stop");
        std::thread::scope(|scope| serve_requests(scope, &listener, &stop, &stats, &handler));
        assert_eq!(stats.connections.load(Ordering::Relaxed), 0);
        assert_eq!(stats.accept_errors.load(Ordering::Relaxed), 0);
    }
}
