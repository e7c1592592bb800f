//! A reusable protocol client: connect, pipelined send, id-correlated
//! receive.
//!
//! Every process that talks to a live AdaFlow endpoint — the load
//! generator, the gateway's backend legs, ad-hoc tooling — needs the same
//! three capabilities:
//!
//! * **pipelined send** — write any number of requests without waiting for
//!   responses (the protocol's request ids make interleaving safe);
//! * **incremental receive** — feed socket chunks through a [`FrameReader`]
//!   and surface complete [`ResponseFrame`]s as they arrive;
//! * **id correlation** — wait for *a specific* response while stashing
//!   out-of-order arrivals for later claims instead of dropping them.
//!
//! [`ProtoClient`] packages exactly that over one `TcpStream`, so the
//! socket-handling code exists once instead of being re-rolled per caller.
//! The codec stays byte-pure (`frame`/`reader`); this module is the only
//! part of the crate that owns a socket.

use crate::error::ProtoError;
use crate::frame::{encode_frame, Frame, RequestFrame, ResponseFrame};
use crate::reader::FrameReader;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use thiserror::Error;

/// Why a receive attempt failed. Send failures surface as plain
/// `std::io::Error` from [`ProtoClient::send`].
#[derive(Debug, Error)]
pub enum ClientError {
    /// The socket read failed (not a timeout — timeouts are `Ok(None)`).
    #[error("socket error: {0}")]
    Io(#[from] std::io::Error),
    /// The peer's bytes are not valid protocol; the stream is
    /// unsynchronized and the connection should be dropped.
    #[error("protocol error: {0}")]
    Proto(#[from] ProtoError),
    /// The peer sent a *request* frame; servers only ever send responses,
    /// so the stream is not speaking the expected half of the protocol.
    #[error("peer sent a request frame on a client connection")]
    UnexpectedRequest,
    /// The peer closed the connection (clean EOF).
    #[error("connection closed by peer")]
    Closed,
}

impl ClientError {
    /// Whether this failure is a protocol violation (as opposed to a
    /// transport-level problem) — the distinction load summaries report.
    #[must_use]
    pub fn is_protocol(&self) -> bool {
        matches!(self, ClientError::Proto(_) | ClientError::UnexpectedRequest)
    }
}

/// A pipelined, id-correlating protocol client over one TCP connection.
///
/// Reads are paced by the stream's read timeout (see
/// [`set_read_timeout`](Self::set_read_timeout)): [`try_recv`] blocks for at
/// most one timeout window, [`recv_id`] loops windows until its own
/// deadline. A timeout is *not* an error — it is "nothing arrived yet"
/// (`Ok(None)`).
///
/// [`try_recv`]: Self::try_recv
/// [`recv_id`]: Self::recv_id
#[derive(Debug)]
pub struct ProtoClient {
    stream: TcpStream,
    frames: FrameReader,
    /// Responses received while waiting for a different id, claimable by
    /// a later [`recv_id`](Self::recv_id) call.
    stash: HashMap<u64, ResponseFrame>,
    sent: u64,
    received: u64,
}

impl ProtoClient {
    /// Connects to `addr` with `TCP_NODELAY` set (request/response traffic
    /// is latency-bound, never throughput-bound enough for Nagle to help).
    ///
    /// # Errors
    ///
    /// Connection-level I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-connected stream (e.g. accepted or cloned by the
    /// caller). Does not change the stream's options.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        Self {
            stream,
            frames: FrameReader::new(),
            stash: HashMap::new(),
            sent: 0,
            received: 0,
        }
    }

    /// Sets the read-timeout window that paces [`try_recv`](Self::try_recv)
    /// and [`recv_id`](Self::recv_id).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket option call.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Bounds how long [`send`](Self::send) may block on a peer that has
    /// stopped reading; past it the write fails and the stream (possibly
    /// mid-frame) must be dropped. `None` blocks forever, the default.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket option call.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }

    /// Requests written to the wire so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Responses decoded so far (claimed or stashed).
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Responses received but not yet claimed by id.
    #[must_use]
    pub fn stashed(&self) -> usize {
        self.stash.len()
    }

    /// Writes one request, pipelined — any number may be outstanding; the
    /// response comes back whenever the server finishes it, correlated by
    /// [`RequestFrame::id`].
    ///
    /// # Errors
    ///
    /// Socket write errors.
    pub fn send(&mut self, request: &RequestFrame) -> std::io::Result<()> {
        let bytes = encode_frame(&Frame::Request(request.clone()));
        self.stream.write_all(&bytes)?;
        self.sent += 1;
        Ok(())
    }

    /// Returns the next response from the wire, in arrival order, waiting
    /// at most one read-timeout window. `Ok(None)` means nothing complete
    /// arrived within the window. Stashed responses are *not* returned
    /// here — they belong to a pending [`recv_id`](Self::recv_id) claim.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF, [`ClientError::Proto`] /
    /// [`ClientError::UnexpectedRequest`] on protocol violations,
    /// [`ClientError::Io`] on socket failures.
    pub fn try_recv(&mut self) -> Result<Option<ResponseFrame>, ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.frames.next_frame()? {
                Some(Frame::Response(response)) => {
                    self.received += 1;
                    return Ok(Some(response));
                }
                Some(Frame::Request(_)) => return Err(ClientError::UnexpectedRequest),
                None => {}
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.frames.feed(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Waits up to `timeout` for the response to request `id`, stashing
    /// any other responses that arrive first so later claims find them.
    /// `Ok(None)` means the deadline passed with no matching response.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`try_recv`](Self::try_recv).
    pub fn recv_id(
        &mut self,
        id: u64,
        timeout: Duration,
    ) -> Result<Option<ResponseFrame>, ClientError> {
        if let Some(response) = self.stash.remove(&id) {
            return Ok(Some(response));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_recv()? {
                Some(response) if response.id == id => return Ok(Some(response)),
                Some(response) => {
                    self.stash.insert(response.id, response);
                }
                None => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Status;
    use std::net::TcpListener;

    fn response(id: u64) -> ResponseFrame {
        ResponseFrame {
            id,
            status: Status::Ok,
            label: (id % 10) as u16,
            queue_us: 1,
            service_us: 2,
            latency_us: 3,
        }
    }

    /// A loopback peer that answers every request `i` with response ids in
    /// `order(i)` — lets tests shape arbitrary out-of-order pipelines.
    fn echo_server(
        listener: TcpListener,
        respond: impl Fn(Vec<RequestFrame>) -> Vec<ResponseFrame> + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            let mut frames = FrameReader::new();
            let mut buf = [0u8; 4096];
            let mut requests = Vec::new();
            loop {
                let n = stream.read(&mut buf).unwrap_or(0);
                if n == 0 {
                    break;
                }
                frames.feed(&buf[..n]);
                while let Ok(Some(Frame::Request(r))) = frames.next_frame() {
                    requests.push(r);
                }
                if requests.len() >= 3 {
                    break;
                }
            }
            for r in respond(requests) {
                stream
                    .write_all(&encode_frame(&Frame::Response(r)))
                    .expect("writes");
            }
        })
    }

    fn request(id: u64) -> RequestFrame {
        RequestFrame {
            id,
            deadline_us: 0,
            model: "m".to_string(),
            channels: 1,
            height: 2,
            width: 2,
            data: vec![0; 4],
        }
    }

    #[test]
    fn pipelined_out_of_order_responses_correlate_by_id() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        // Answer the three pipelined requests in reverse order.
        let server = echo_server(listener, |reqs| {
            reqs.iter().rev().map(|r| response(r.id)).collect()
        });

        let mut client = ProtoClient::connect(addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        for id in [10, 11, 12] {
            client.send(&request(id)).expect("sends");
        }
        assert_eq!(client.sent(), 3);
        // Claim in send order even though arrivals are reversed: the stash
        // holds 12 and 11 while we wait for 10.
        for id in [10u64, 11, 12] {
            let r = client
                .recv_id(id, Duration::from_secs(5))
                .expect("no error")
                .expect("response arrives");
            assert_eq!(r.id, id);
        }
        assert_eq!(client.received(), 3);
        assert_eq!(client.stashed(), 0);
        server.join().expect("server thread");
    }

    #[test]
    fn timeout_is_none_not_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        // Keep the listener alive but never accept-and-respond.
        let mut client = ProtoClient::connect(addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("timeout");
        assert!(client
            .try_recv()
            .expect("timeout is not an error")
            .is_none());
        assert!(client
            .recv_id(7, Duration::from_millis(30))
            .expect("timeout is not an error")
            .is_none());
    }

    #[test]
    fn eof_and_garbage_are_typed() {
        // EOF: server accepts then immediately closes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            drop(stream);
        });
        let mut client = ProtoClient::connect(addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert!(matches!(client.try_recv(), Err(ClientError::Closed)));
        t.join().expect("thread");

        // Garbage: server answers with non-protocol bytes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepts");
            stream.write_all(&[0xFF; 32]).expect("writes");
        });
        let mut client = ProtoClient::connect(addr).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let err = loop {
            match client.try_recv() {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("garbage decoded"),
                Err(e) => break e,
            }
        };
        assert!(err.is_protocol(), "{err:?}");
        t.join().expect("thread");
    }
}
