//! The DES/live twin is one implementation, checked: a seeded arrival
//! sequence with scripted service times goes through the calls the DES
//! makes (`offer` / `close_batch` / `complete`) and through the calls the
//! live server makes (`offer` / `begin_batch` / `settle_batch`, handed the
//! same instants a wall clock would have measured), and the two cores must
//! end with identical counters, identical completed-request records and
//! the identical event stream.

use adaflow::PressureSignal;
use adaflow_dataflow::AcceleratorKind;
use adaflow_edge::ServingState;
use adaflow_hls::{PowerModel, ResourceEstimate};
use adaflow_serve::prelude::*;
use adaflow_telemetry::{EventKind, SinkHandle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cycles through scripted throughputs and stalls on every fifth consult,
/// so batch waits, stalls and service times all vary.
struct Scripted {
    consults: usize,
}

impl ServePolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn on_pressure(&mut self, _now: f64, _signal: &PressureSignal) -> ServingState {
        self.consults += 1;
        let stalls = self.consults.is_multiple_of(5);
        ServingState {
            throughput_fps: [40.0, 400.0, 90.0][self.consults % 3],
            stall_s: if stalls { 0.03 } else { 0.0 },
            accuracy: 80.0,
            power: PowerModel::new(ResourceEstimate {
                lut: 1,
                ff: 1,
                bram36: 1,
                dsp: 0,
            }),
            activity: 1.0,
            model: "scripted".into(),
            accelerator: AcceleratorKind::Finn,
            model_switched: stalls,
            reconfigured: stalls,
        }
    }
}

/// 400 arrivals at a mean 125 req/s against 40–400 req/s of service: the
/// four-slot queue overflows in the slow phases and drains in the fast.
fn arrivals(seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..400)
        .map(|id| {
            t += rng.gen_range(0.0..0.016);
            Request {
                id,
                device: (id % 3) as u32,
                arrival_s: t,
            }
        })
        .collect()
}

/// A batch the live side has begun and not yet settled, with the instants
/// its engine call would have measured.
struct Served {
    members: Vec<Request>,
    close_s: f64,
    drain_start_s: f64,
    start_s: f64,
    service_s: f64,
}

#[test]
fn des_calls_and_live_calls_account_identically() {
    for overflow in [
        OverflowPolicy::Block,
        OverflowPolicy::ShedOldest,
        OverflowPolicy::ShedNewest,
    ] {
        let config = ServeConfig {
            queue_capacity: 4,
            max_batch: 3,
            max_wait_s: 0.01,
            deadline_s: 0.06,
            control_period_s: 0.0, // consult the script at every close
            overflow,
        };
        let requests = arrivals(17);
        let mut policy = Scripted { consults: 0 };
        let (des_sink, des_events) = SinkHandle::recorder(1 << 14);
        let (live_sink, live_events) = SinkHandle::recorder(1 << 14);
        let mut des = Devices::new(vec![DeviceCore::new(config.clone(), 100.0)], 0.0);
        let mut live: DeviceCore = DeviceCore::new(config, 100.0);
        let mut des_done = Vec::new();
        let mut live_done = Vec::new();
        let mut serving: Option<Served> = None;

        // The DES core's candidates drive the clock; the live core is told
        // what to do when, as its engine thread would be.
        let (mut next, mut now) = (0usize, 0.0f64);
        let arrival_s = |next: usize| requests.get(next).map(|r| r.arrival_s);
        while let Some((t, pick)) = des.next_event(now, arrival_s(next), None) {
            now = t;
            match pick {
                Pick::Arrival => {
                    let a = des.update(0, now, |d| d.offer(requests[next], now, &des_sink));
                    let b = live.offer(requests[next], now, &live_sink);
                    assert_eq!(a, b, "admission of request {next}");
                    next += 1;
                }
                Pick::Close(_) => {
                    let close = des.update(0, now, |d| {
                        d.close_batch(now, &mut policy, &des_sink, &mut |t, _| t)
                    });
                    let core = &des.cores()[0];
                    let model = core.serving_model().expect("state established");
                    let members = live.begin_batch(now, model, &live_sink);
                    assert_eq!(members.len(), close.size);
                    // The service interval the DES predicted (its own
                    // expression, so the twin sees the same bits).
                    let fps = core.serving_fps().expect("state established");
                    serving = Some(Served {
                        service_s: close.size as f64 / fps.max(1e-9),
                        members,
                        close_s: now,
                        drain_start_s: close.drain_start_s,
                        start_s: close.start_s,
                    });
                }
                Pick::Completion(_) => {
                    des.update(0, now, |d| d.complete(now, &des_sink, &mut des_done));
                    let b = serving.take().expect("a begun batch");
                    live.settle_batch(
                        &b.members,
                        b.close_s,
                        b.drain_start_s,
                        b.start_s,
                        b.service_s,
                        now,
                        80.0,
                        &live_sink,
                        &mut live_done,
                    );
                }
                Pick::Sample => unreachable!("no sampler was offered"),
            }
        }

        let des = des.into_cores().pop().expect("the one core");
        assert!(des.is_drained() && live.is_drained());
        assert_eq!(
            des.ewma_fps(),
            live.ewma_fps(),
            "{overflow:?}: arrival EWMA"
        );
        let stats = des.stats();
        assert!(stats.shed > 0, "{overflow:?}: the queue must overflow");
        assert!(stats.deadline_hits > 0 && stats.deadline_hits < stats.completed);
        assert_eq!(stats.arrived, stats.completed + stats.shed);
        // The live calls never consult a policy, so the switch counters
        // are the DES's alone; everything else must agree to the bit.
        let mut expected = stats.clone();
        expected.model_switches = 0;
        expected.reconfigurations = 0;
        expected.stall_total_s = 0.0;
        assert_eq!(&expected, live.stats(), "{overflow:?}: counters");
        assert_eq!(des_done, live_done, "{overflow:?}: completed requests");
        assert_eq!(
            des.finish().1.p99(),
            live.finish().1.p99(),
            "{overflow:?}: latency histogram"
        );

        let (des_events, live_events) = (des_events.drain(), live_events.drain());
        assert!(des_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RequestShed { .. })));
        assert_eq!(des_events, live_events, "{overflow:?}: event stream");
    }
}
