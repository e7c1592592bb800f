//! Fixed probes of the layers no workload times directly: the wire codec,
//! the telemetry recorder, and the host itself.

use crate::host;
use crate::run::Run;
use adaflow_proto::{decode_frame, encode_frame, Frame, FrameReader, RequestFrame};
use adaflow_telemetry::SinkHandle;
use std::hint::black_box;

/// Codec cost on the 3 KiB request a CNV client sends (3x32x32 bytes).
fn proto(run: &mut Run) {
    let request = Frame::Request(RequestFrame {
        id: 42,
        deadline_us: 0,
        model: "bench".to_string(),
        channels: 3,
        height: 32,
        width: 32,
        data: (0..3 * 32 * 32).map(|i| (i % 251) as u8).collect(),
    });
    const REPS: usize = 2000;
    let encode_ns = host::median_ns(REPS, || {
        black_box(encode_frame(black_box(&request)));
    });
    let bytes = encode_frame(&request);
    let decode_ns = host::median_ns(REPS, || {
        black_box(decode_frame(black_box(&bytes)).expect("frame decodes"));
    });
    // The incremental reader as a socket feeds it: 1 KiB at a time.
    let reader_ns = host::median_ns(REPS, || {
        let mut reader = FrameReader::new();
        for chunk in black_box(&bytes).chunks(1024) {
            reader.feed(chunk);
        }
        black_box(reader.next_frame().expect("stream decodes"));
    });
    let m = &mut run.metrics;
    m.set("proto.encode_request_ns", encode_ns, REPS);
    m.set("proto.decode_request_ns", decode_ns, REPS);
    m.set("proto.reader_ns_per_frame", reader_ns, REPS);
}

/// What one event costs the ring-buffer recorder the traced pass attaches.
fn telemetry(run: &mut Run) {
    const EVENTS: usize = 4096;
    let (sink, recorder) = SinkHandle::recorder(EVENTS);
    let batch_ns = host::median_ns(21, || {
        for i in 0..EVENTS / 2 {
            sink.emit_span(i as f64, i as f64 + 0.5, "conv2[packed-avx2]");
        }
        black_box(recorder.drain());
    });
    run.metrics.set(
        "telemetry.recorder_ns_per_event",
        batch_ns / EVENTS as f64,
        21 * EVENTS,
    );
}

/// Host gauges: when these move between two runs, the host moved, not the
/// code.
fn host_gauges(run: &mut Run) {
    let m = &mut run.metrics;
    m.set("host.nproc", host::nproc() as f64, 1);
    m.set("host.calib_popcount_ns", host::calib_popcount_ns(), 200);
    m.set("host.calib_gemm_ns", host::calib_gemm_ns(), 50);
}

pub fn all(run: &mut Run) {
    proto(run);
    telemetry(run);
    host_gauges(run);
}
