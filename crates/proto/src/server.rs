//! The server end of a connection: the one accept loop, the one request
//! reader loop and the one write half under both live tiers.
//!
//! `adaflow-net`'s `LiveServer` and `adaflow-gateway`'s `Gateway` differ in
//! what they do with a decoded request; everything around that is the same
//! and lives here, beside [`ProtoClient`](crate::ProtoClient), the client
//! end of the same socket:
//!
//! * [`accept_until`] — nonblocking accept, polled every [`POLL_INTERVAL`]
//!   against a stop flag; a fatal listener error raises the flag, so
//!   whatever else watches it drains instead of waiting forever;
//! * [`read_requests`] — reads paced by [`READ_TIMEOUT`] feed a
//!   [`FrameReader`]; every decoded request goes to the caller's closure,
//!   and the first protocol violation ends the connection (the reader's
//!   errors are sticky by design);
//! * [`Conn`] — the mutex-guarded write half readers and workers answer
//!   on, with [`WRITE_TIMEOUT`] bounding how long a peer that stopped
//!   reading can hold the writing thread;
//! * [`serve_requests`] — the three composed inside the caller's
//!   `std::thread::scope`, one reader thread per connection, so the scope
//!   ending proves every reader joined;
//! * [`WireStats`] — the four counters all of the above feed.
//!
//! Nothing here is configurable: the handler is a closure, the timing is
//! three constants, and the test seam is `std::io::Read`.

use crate::frame::{encode_frame, Frame, RequestFrame, ResponseFrame};
use crate::reader::FrameReader;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

/// Blocking-read timeout of an accepted connection; bounds how long a
/// reader takes to notice the stop flag.
pub const READ_TIMEOUT: Duration = Duration::from_millis(25);
/// Accept-poll period, and the idle/drain poll period of the tiers; bounds
/// shutdown latency.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Blocking-write timeout of an accepted connection: how long one stalled
/// peer can hold a thread that answers many (the engine thread, a backend
/// worker) before its connection is shut down.
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
    /// Fatal (non-`WouldBlock`) listener failures; the first one ends the
    /// run, so this is 0 or 1.
    pub accept_errors: AtomicU64,
}

/// The write half of an accepted connection. Writes are serialized by the
/// mutex, so the connection's reader and any worker thread can interleave
/// whole responses safely.
#[derive(Debug)]
pub struct Conn {
    stream: Mutex<TcpStream>,
    stats: Arc<WireStats>,
}

impl Conn {
    /// Sets the skeleton's timeouts on `stream` and clones its write half.
    fn new(stream: &TcpStream, stats: &Arc<WireStats>) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream: Mutex::new(stream.try_clone()?),
            stats: stats.clone(),
        })
    }

    /// Writes one response; returns whether it was written whole.
    ///
    /// A failed or timed-out write counts one send error and shuts the
    /// socket down in both directions: a half-written frame is never
    /// followed by another, later sends fail at once instead of waiting
    /// out the timeout again, and the connection's reader sees EOF at its
    /// next read.
    pub fn send(&self, response: &ResponseFrame) -> bool {
        let bytes = encode_frame(&Frame::Response(response.clone()));
        let mut stream = self.stream.lock().expect("conn lock poisoned");
        let sent = stream.write_all(&bytes).is_ok();
        if !sent {
            self.stats.send_errors.fetch_add(1, Ordering::Relaxed);
            stream.shutdown(Shutdown::Both).ok();
        }
        sent
    }
}

/// Accepts connections on `listener` until `stop` is raised, handing each
/// stream to `on_stream`.
///
/// # Errors
///
/// The first fatal listener error. `stop` is raised before returning it,
/// so threads that exit only on the flag are released rather than wedged.
pub fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut on_stream: impl FnMut(TcpStream),
) -> std::io::Result<()> {
    let fatal = match listener.set_nonblocking(true) {
        Err(e) => e,
        Ok(()) => loop {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => on_stream(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
                Err(e) => break e,
            }
        },
    };
    stop.store(true, Ordering::SeqCst);
    Err(fatal)
}

/// Feeds `reader` through a [`FrameReader`] and calls `on_request` with
/// every decoded request, in wire order, until EOF, a read error, a
/// protocol violation, or `stop` (checked before each read, so `reader`
/// should time out rather than block forever).
///
/// `WouldBlock`, `TimedOut` and `Interrupted` reads are retried. A decode
/// error or a response frame — clients send requests — counts one
/// protocol error and ends the loop: the stream is not speaking the
/// protocol and cannot be resynchronized.
pub fn read_requests(
    mut reader: impl Read,
    stop: &AtomicBool,
    stats: &WireStats,
    mut on_request: impl FnMut(RequestFrame),
) {
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    while !stop.load(Ordering::SeqCst) {
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
/// Returns when the accept loop ends; the readers end within
/// [`READ_TIMEOUT`] of `stop` and are joined by `scope`. A fatal accept
/// error counts in `stats` and raises `stop` (see [`accept_until`]).
pub fn serve_requests<'scope, H>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    stop: &'scope AtomicBool,
    stats: &'scope Arc<WireStats>,
    handler: &'scope H,
) where
    H: Fn(&Arc<Conn>, RequestFrame) + Sync,
{
    let accepted = accept_until(listener, stop, |stream| {
        stats.connections.fetch_add(1, Ordering::Relaxed);
        scope.spawn(move || {
            let Ok(conn) = Conn::new(&stream, stats) else {
                return;
            };
            let conn = Arc::new(conn);
            read_requests(&stream, stop, stats, |request| handler(&conn, request));
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
        read_requests(reader, &AtomicBool::new(false), &stats, |r| calls.push(r));
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
        let stop = AtomicBool::new(false);
        let mut calls = Vec::new();
        read_requests(&mut reader, &stop, &WireStats::default(), |r| {
            calls.push(r);
            stop.store(calls.len() == 2, Ordering::SeqCst);
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
        let conn = Arc::new(Conn::new(&stream, &stats).expect("conn"));

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
        read_requests(&stream, &AtomicBool::new(false), &stats, |_| {
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
        let stop = AtomicBool::new(false);
        let stats = Arc::new(WireStats::default());
        let handler = |_: &Arc<Conn>, _: RequestFrame| {};
        std::thread::scope(|scope| serve_requests(scope, &listener, &stop, &stats, &handler));
        assert!(stop.load(Ordering::SeqCst));
        assert_eq!(stats.accept_errors.load(Ordering::Relaxed), 1);
        assert_eq!(stats.connections.load(Ordering::Relaxed), 0);
    }
}
