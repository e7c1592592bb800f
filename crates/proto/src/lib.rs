//! # adaflow-proto — the AdaFlow serving wire protocol
//!
//! A transport-agnostic, length-prefixed binary protocol carrying inference
//! requests and responses between clients and the live serving front-end
//! (`adaflow-net`). The codec is deliberately socket-free: everything is
//! pure `encode`/`decode` over byte slices plus an incremental
//! [`FrameReader`], so the whole protocol is testable without opening a
//! connection — mirroring the protocol-core / transport-crate split the
//! ROADMAP calls for. Two modules own a socket, one per end of it, so that
//! code exists once: [`client`] is [`ProtoClient`], the client-side
//! transport (pipelined send, id-correlated receive) used by the load
//! generator and the gateway's backend connections; [`server`] is the
//! connection skeleton under both live tiers (accept loop, per-connection
//! request reader, guarded write half, wire counters), which
//! `adaflow-net` and `adaflow-gateway` each give one request handler.
//!
//! ## Wire format
//!
//! Every frame is an 8-byte header followed by a length-prefixed payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xAD 0xF1
//! 2       1     protocol version (currently 1)
//! 3       1     frame type (1 = request, 2 = response)
//! 4       4     payload length, u32 little-endian (≤ MAX_PAYLOAD)
//! 8       n     payload
//! ```
//!
//! Integers are little-endian throughout. A request payload carries the
//! client request id, a deadline budget in microseconds (0 = server
//! default), the model id, and the CHW input tensor; a response echoes the
//! id and carries a machine-readable [`Status`] (accepted results and every
//! reject reason — queue-full, deadline-infeasible, shutting-down — are all
//! first-class codes, never just a closed connection), the predicted label
//! and the server-side latency decomposition in microseconds.
//!
//! ## Robustness contract
//!
//! Decoding never panics. Garbage bytes, truncated headers, wrong-version
//! frames and oversized length prefixes all surface as typed
//! [`ProtoError`]s; incomplete input is simply "no frame yet"
//! (`Ok(None)` from [`FrameReader::next_frame`]). Once a reader has
//! reported an error the stream is unsynchronized and the connection
//! should be dropped — the reader keeps returning the error rather than
//! resynchronizing on attacker-controlled bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod frame;
pub mod reader;
pub mod server;

pub use client::{ClientError, ProtoClient};
pub use error::ProtoError;
pub use frame::{
    decode_frame, encode_frame, Frame, RequestFrame, ResponseFrame, Status, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, VERSION,
};
pub use reader::FrameReader;
