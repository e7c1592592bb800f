//! Frame types and the pure slice codec.
//!
//! [`encode_frame`] and [`decode_frame`] are exact inverses over every
//! well-formed frame (property-tested in `tests/proto_props.rs`), and
//! `decode_frame` is total over arbitrary bytes — every failure is a typed
//! [`ProtoError`], never a panic.

use crate::error::ProtoError;
use serde::{Deserialize, Serialize};

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = [0xAD, 0xF1];

/// The protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Header size in bytes (magic + version + type + length prefix).
pub const HEADER_LEN: usize = 8;

/// Maximum payload length the decoder will accept. Large enough for any
/// CHW `u8` tensor the engine serves (a 3×32×32 CNV input is 3 KiB) with
/// generous headroom, small enough that a hostile length prefix cannot
/// drive allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;

const TYPE_REQUEST: u8 = 1;
const TYPE_RESPONSE: u8 = 2;

/// Machine-readable outcome of a request, carried by every response.
///
/// Sheds and rejects are first-class protocol citizens: a client always
/// learns *why* it got nothing, rather than facing a silently closed
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Served: the label and latency fields are meaningful.
    Ok,
    /// Shed by admission control: the bounded queue was full.
    QueueFull,
    /// Rejected on arrival: the deadline budget cannot be met even by an
    /// idle server (budget below the measured single-inference floor, or
    /// already expired).
    DeadlineInfeasible,
    /// Rejected because the server is draining for shutdown.
    ShuttingDown,
    /// The requested model id is not the one this server is serving.
    UnknownModel,
    /// The request was structurally valid protocol but semantically
    /// unusable (e.g. tensor shape does not match the model input).
    BadRequest,
}

impl Status {
    /// All statuses, in wire-code order.
    pub const ALL: [Status; 6] = [
        Status::Ok,
        Status::QueueFull,
        Status::DeadlineInfeasible,
        Status::ShuttingDown,
        Status::UnknownModel,
        Status::BadRequest,
    ];

    /// The wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::QueueFull => 1,
            Status::DeadlineInfeasible => 2,
            Status::ShuttingDown => 3,
            Status::UnknownModel => 4,
            Status::BadRequest => 5,
        }
    }

    /// Parses a wire code.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::UnknownStatus`] for codes outside the catalog.
    pub fn from_code(code: u8) -> Result<Self, ProtoError> {
        Status::ALL
            .into_iter()
            .find(|s| s.code() == code)
            .ok_or(ProtoError::UnknownStatus(code))
    }

    /// Stable human/telemetry label (matches the serving layer's shed
    /// `reason` strings where the concepts coincide).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::QueueFull => "queue-full",
            Status::DeadlineInfeasible => "deadline-infeasible",
            Status::ShuttingDown => "shutting-down",
            Status::UnknownModel => "unknown-model",
            Status::BadRequest => "bad-request",
        }
    }

    /// Whether this status means the request was served.
    #[must_use]
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }

    /// Whether a client (or an L7 gateway) may safely resend the request
    /// elsewhere after seeing this status.
    ///
    /// `QueueFull` and `ShuttingDown` describe transient *server* state: the
    /// request itself was well-formed and was never executed, so another
    /// attempt — on the same server later, or on a different backend now —
    /// can succeed. Every other status is terminal: `Ok` already has an
    /// answer, and `DeadlineInfeasible` / `UnknownModel` / `BadRequest`
    /// describe the *request*, which a retry would not change.
    #[must_use]
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::QueueFull | Status::ShuttingDown)
    }
}

/// Reject tallies, one per non-`Ok` [`Status`], in wire-code order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCounts {
    /// [`Status::QueueFull`] answers.
    pub queue_full: u64,
    /// [`Status::DeadlineInfeasible`] answers.
    pub deadline_infeasible: u64,
    /// [`Status::ShuttingDown`] answers.
    pub shutting_down: u64,
    /// [`Status::UnknownModel`] answers.
    pub unknown_model: u64,
    /// [`Status::BadRequest`] answers.
    pub bad_request: u64,
}

impl RejectCounts {
    /// The tally of `status`.
    ///
    /// # Panics
    ///
    /// Panics on [`Status::Ok`], which is not a reject.
    pub fn of(&mut self, status: Status) -> &mut u64 {
        match status {
            Status::Ok => unreachable!("Ok is not a reject"),
            Status::QueueFull => &mut self.queue_full,
            Status::DeadlineInfeasible => &mut self.deadline_infeasible,
            Status::ShuttingDown => &mut self.shutting_down,
            Status::UnknownModel => &mut self.unknown_model,
            Status::BadRequest => &mut self.bad_request,
        }
    }

    /// Adds `other`'s tallies into these, field by field.
    pub fn merge(&mut self, other: &RejectCounts) {
        self.queue_full += other.queue_full;
        self.deadline_infeasible += other.deadline_infeasible;
        self.shutting_down += other.shutting_down;
        self.unknown_model += other.unknown_model;
        self.bad_request += other.bad_request;
    }

    /// Total rejects across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.deadline_infeasible
            + self.shutting_down
            + self.unknown_model
            + self.bad_request
    }
}

/// One inference request as it travels the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: u64,
    /// Deadline budget in microseconds from arrival; 0 means "use the
    /// server's configured default".
    pub deadline_us: u64,
    /// Model id the client wants to hit (e.g. `cnv-w2a2`).
    pub model: String,
    /// Input tensor channels.
    pub channels: u16,
    /// Input tensor height.
    pub height: u16,
    /// Input tensor width.
    pub width: u16,
    /// CHW-ordered `u8` tensor data, exactly `channels·height·width` bytes.
    pub data: Vec<u8>,
}

/// One response as it travels the wire. Latency fields are microseconds;
/// they are zero for rejected requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request id this answers.
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Predicted class label (meaningful only when `status` is OK).
    pub label: u16,
    /// Time spent in the admission queue before batch close, µs.
    pub queue_us: u32,
    /// Time being served as part of its batch, µs.
    pub service_us: u32,
    /// End-to-end server-side sojourn, arrival to completion, µs.
    pub latency_us: u32,
}

impl RequestFrame {
    /// A health probe for `model`: zero shape, empty payload. No model has
    /// a zero-element input, so a server answers it `BadRequest` without
    /// running anything, and the round trip proves the socket, decoder and
    /// admission path responsive.
    #[must_use]
    pub fn probe(model: &str, id: u64) -> Self {
        Self {
            id,
            deadline_us: 0,
            model: model.to_string(),
            channels: 0,
            height: 0,
            width: 0,
            data: Vec::new(),
        }
    }

    /// Whether this is a [`RequestFrame::probe`]: zero shape and an empty
    /// payload. A server answers it but counts it as no client's request.
    #[must_use]
    pub fn is_probe(&self) -> bool {
        self.channels == 0 && self.height == 0 && self.width == 0 && self.data.is_empty()
    }
}

impl ResponseFrame {
    /// An answer that carries no result: `status` for request `id`, label
    /// and latency fields zero.
    #[must_use]
    pub fn reject(id: u64, status: Status) -> Self {
        Self {
            id,
            status,
            label: 0,
            queue_us: 0,
            service_us: 0,
            latency_us: 0,
        }
    }
}

/// Any frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client → server inference request.
    Request(RequestFrame),
    /// A server → client outcome.
    Response(ResponseFrame),
}

impl Frame {
    /// The frame-type byte of this frame.
    #[must_use]
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Request(_) => TYPE_REQUEST,
            Frame::Response(_) => TYPE_RESPONSE,
        }
    }
}

/// A little-endian byte cursor over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], frame: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            frame,
        }
    }

    fn take(&mut self, n: usize, field: &str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(ProtoError::payload(
                self.frame,
                format!(
                    "payload ends inside `{field}` (need {n} bytes at offset {}, payload is {})",
                    self.pos,
                    self.bytes.len()
                ),
            ));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &str) -> Result<u8, ProtoError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &str) -> Result<u16, ProtoError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &str) -> Result<u32, ProtoError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &str) -> Result<u64, ProtoError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::payload(
                self.frame,
                format!(
                    "{} trailing byte(s) after the last field",
                    self.bytes.len() - self.pos
                ),
            ))
        }
    }
}

fn encode_request_payload(r: &RequestFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.id.to_le_bytes());
    out.extend_from_slice(&r.deadline_us.to_le_bytes());
    debug_assert!(r.model.len() <= u8::MAX as usize, "model id fits a u8");
    out.push(r.model.len().min(u8::MAX as usize) as u8);
    out.extend_from_slice(&r.model.as_bytes()[..r.model.len().min(u8::MAX as usize)]);
    out.extend_from_slice(&r.channels.to_le_bytes());
    out.extend_from_slice(&r.height.to_le_bytes());
    out.extend_from_slice(&r.width.to_le_bytes());
    out.extend_from_slice(&r.data);
}

fn decode_request_payload(bytes: &[u8]) -> Result<RequestFrame, ProtoError> {
    let mut c = Cursor::new(bytes, "request");
    let id = c.u64("id")?;
    let deadline_us = c.u64("deadline_us")?;
    let model_len = c.u8("model_len")? as usize;
    let model = std::str::from_utf8(c.take(model_len, "model")?)
        .map_err(|_| ProtoError::ModelNotUtf8)?
        .to_string();
    let channels = c.u16("channels")?;
    let height = c.u16("height")?;
    let width = c.u16("width")?;
    let elements = usize::from(channels) * usize::from(height) * usize::from(width);
    let data = c.take(elements, "tensor data")?.to_vec();
    c.finish()?;
    Ok(RequestFrame {
        id,
        deadline_us,
        model,
        channels,
        height,
        width,
        data,
    })
}

fn encode_response_payload(r: &ResponseFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.id.to_le_bytes());
    out.push(r.status.code());
    out.extend_from_slice(&r.label.to_le_bytes());
    out.extend_from_slice(&r.queue_us.to_le_bytes());
    out.extend_from_slice(&r.service_us.to_le_bytes());
    out.extend_from_slice(&r.latency_us.to_le_bytes());
}

fn decode_response_payload(bytes: &[u8]) -> Result<ResponseFrame, ProtoError> {
    let mut c = Cursor::new(bytes, "response");
    let id = c.u64("id")?;
    let status = Status::from_code(c.u8("status")?)?;
    let label = c.u16("label")?;
    let queue_us = c.u32("queue_us")?;
    let service_us = c.u32("service_us")?;
    let latency_us = c.u32("latency_us")?;
    c.finish()?;
    Ok(ResponseFrame {
        id,
        status,
        label,
        queue_us,
        service_us,
        latency_us,
    })
}

/// Encodes one frame (header + payload) into a fresh byte vector.
///
/// # Panics
///
/// Panics if the payload would exceed [`MAX_PAYLOAD`] or the model id
/// exceeds 255 bytes — both are caller bugs (the serving layer validates
/// tensors against the model's input shape long before encoding).
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.type_byte());
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    match frame {
        Frame::Request(r) => {
            assert!(
                r.model.len() <= u8::MAX as usize,
                "model id exceeds 255 bytes"
            );
            encode_request_payload(r, &mut out);
        }
        Frame::Response(r) => encode_response_payload(r, &mut out),
    }
    let payload_len = out.len() - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    out[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out
}

/// Validates the 8-byte header, returning the declared payload length and
/// frame-type byte.
///
/// # Errors
///
/// Any of the header-level [`ProtoError`]s; never panics.
pub(crate) fn check_header(header: &[u8; HEADER_LEN]) -> Result<(usize, u8), ProtoError> {
    let found = [header[0], header[1]];
    if found != MAGIC {
        return Err(ProtoError::BadMagic {
            found,
            expected: MAGIC,
        });
    }
    if header[2] != VERSION {
        return Err(ProtoError::UnsupportedVersion {
            found: header[2],
            supported: VERSION,
        });
    }
    let frame_type = header[3];
    if frame_type != TYPE_REQUEST && frame_type != TYPE_RESPONSE {
        return Err(ProtoError::UnknownFrameType(frame_type));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    Ok((len, frame_type))
}

pub(crate) fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    match frame_type {
        TYPE_REQUEST => decode_request_payload(payload).map(Frame::Request),
        TYPE_RESPONSE => decode_response_payload(payload).map(Frame::Response),
        other => Err(ProtoError::UnknownFrameType(other)),
    }
}

/// Decodes exactly one frame from the front of `bytes`, returning the frame
/// and the number of bytes consumed.
///
/// # Errors
///
/// [`ProtoError::Truncated`] when `bytes` holds less than one complete
/// frame; any other [`ProtoError`] when the bytes are not a valid frame.
/// Total over arbitrary input — never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("sliced to length");
    let (payload_len, frame_type) = check_header(&header)?;
    let total = HEADER_LEN + payload_len;
    if bytes.len() < total {
        return Err(ProtoError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let frame = decode_payload(frame_type, &bytes[HEADER_LEN..total])?;
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Frame {
        Frame::Request(RequestFrame {
            id: 42,
            deadline_us: 250_000,
            model: "cnv-w2a2".into(),
            channels: 2,
            height: 3,
            width: 4,
            data: (0..24).collect(),
        })
    }

    fn response() -> Frame {
        Frame::Response(ResponseFrame {
            id: 42,
            status: Status::Ok,
            label: 7,
            queue_us: 1_200,
            service_us: 5_400,
            latency_us: 6_600,
        })
    }

    #[test]
    fn request_round_trips() {
        let bytes = encode_frame(&request());
        let (frame, consumed) = decode_frame(&bytes).expect("decodes");
        assert_eq!(frame, request());
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn response_round_trips_every_status() {
        for status in Status::ALL {
            let mut f = response();
            if let Frame::Response(r) = &mut f {
                r.status = status;
            }
            let bytes = encode_frame(&f);
            let (back, _) = decode_frame(&bytes).expect("decodes");
            assert_eq!(back, f);
        }
    }

    #[test]
    fn status_codes_are_stable_and_distinct() {
        let codes: Vec<u8> = Status::ALL.iter().map(|s| s.code()).collect();
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
        assert!(Status::from_code(99).is_err());
        assert_eq!(Status::QueueFull.label(), "queue-full");
        assert_eq!(Status::DeadlineInfeasible.label(), "deadline-infeasible");
        assert_eq!(Status::ShuttingDown.label(), "shutting-down");
    }

    /// Exhaustive match: adding a `Status` variant must force a decision
    /// about its retryability here, not silently default.
    #[test]
    fn retryability_is_decided_for_every_status() {
        for status in Status::ALL {
            let expected = match status {
                Status::QueueFull | Status::ShuttingDown => true,
                Status::Ok
                | Status::DeadlineInfeasible
                | Status::UnknownModel
                | Status::BadRequest => false,
            };
            assert_eq!(status.is_retryable(), expected, "{status:?}");
            // A retryable status is never a success.
            assert!(!(status.is_retryable() && status.is_ok()));
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_frame(&response());
        bytes[0] = 0x00;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode_frame(&response());
        bytes[2] = VERSION + 1;
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::UnsupportedVersion {
                found: VERSION + 1,
                supported: VERSION
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut bytes = encode_frame(&response());
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_frame_reports_needed_bytes() {
        let bytes = encode_frame(&request());
        let err = decode_frame(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(
            err,
            ProtoError::Truncated {
                needed: bytes.len(),
                have: bytes.len() - 1
            }
        );
    }

    #[test]
    fn tensor_data_must_tile_the_payload_exactly() {
        let Frame::Request(mut r) = request() else {
            unreachable!()
        };
        r.data.push(0); // one surplus byte after the declared C·H·W
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(1);
        out.extend_from_slice(&[0, 0, 0, 0]);
        super::encode_request_payload(&r, &mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&out),
            Err(ProtoError::MalformedPayload {
                frame: "request",
                ..
            })
        ));
    }

    #[test]
    fn model_utf8_is_enforced() {
        let bytes = encode_frame(&request());
        // The model field starts after id (8) + deadline (8) + len byte (1).
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 17] = 0xFF;
        assert_eq!(decode_frame(&corrupt), Err(ProtoError::ModelNotUtf8));
    }

    #[test]
    fn reject_counts_of_maps_each_reject_to_its_field() {
        let mut r = RejectCounts::default();
        let rejects = Status::ALL.into_iter().filter(|s| !s.is_ok());
        for (n, status) in (1..).zip(rejects) {
            *r.of(status) = n;
        }
        // Each reject landed in its own field: 1 + 2 + 3 + 4 + 5.
        assert_eq!(r.total(), 15);
        assert_eq!(
            [
                r.queue_full,
                r.deadline_infeasible,
                r.shutting_down,
                r.unknown_model,
                r.bad_request
            ],
            [1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn reject_counts_merge_adds_field_by_field() {
        let mut a = RejectCounts {
            queue_full: 1,
            deadline_infeasible: 2,
            shutting_down: 3,
            unknown_model: 4,
            bad_request: 5,
        };
        let b = RejectCounts {
            queue_full: 10,
            shutting_down: 30,
            bad_request: 50,
            ..RejectCounts::default()
        };
        a.merge(&b);
        let want = RejectCounts {
            queue_full: 11,
            deadline_infeasible: 2,
            shutting_down: 33,
            unknown_model: 4,
            bad_request: 55,
        };
        assert_eq!(a, want);
        assert_eq!(a.total(), 15 + b.total());
        // Merging the empty tally changes nothing.
        a.merge(&RejectCounts::default());
        assert_eq!(a, want);
    }
}
