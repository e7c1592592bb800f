//! The event index is the linear scan, pick for pick: random arrival
//! sequences drive `offer` / `close_batch` / `complete` through
//! [`Devices::update`] and after every step [`Devices::next_event`] must
//! return the `(t, Pick)` that [`scan_next_event`] computes from fresh
//! candidates of every core.
//!
//! Every instant is a multiple of 1/64 s (arrival gaps, the batching wait,
//! stalls and — through throughputs of 64, 32 and 16 FPS — service
//! times), so the arithmetic is exact and events collide all the time:
//! the index is exercised where its tie order and its cached close keys
//! could differ from the scan, not only where any order would do.

use adaflow::PressureSignal;
use adaflow_dataflow::AcceleratorKind;
use adaflow_edge::ServingState;
use adaflow_hls::{PowerModel, ResourceEstimate};
use adaflow_serve::prelude::*;
use adaflow_telemetry::SinkHandle;
use proptest::prelude::*;

const TICK_S: f64 = 1.0 / 64.0;
const SHAPES: usize = 4 * 3 * 2;

/// Serves at 64, 32 or 16 FPS in turn and stalls two ticks on every
/// fourth consult.
struct Ticked {
    consults: usize,
}

impl ServePolicy for Ticked {
    fn name(&self) -> &str {
        "ticked"
    }

    fn on_pressure(&mut self, _now: f64, _signal: &PressureSignal) -> ServingState {
        self.consults += 1;
        let stalls = self.consults.is_multiple_of(4);
        ServingState {
            throughput_fps: [64.0, 32.0, 16.0][self.consults % 3],
            stall_s: if stalls { 2.0 * TICK_S } else { 0.0 },
            accuracy: 80.0,
            power: PowerModel::new(ResourceEstimate {
                lut: 1,
                ff: 1,
                bram36: 1,
                dsp: 0,
            }),
            activity: 1.0,
            model: "ticked".into(),
            accelerator: AcceleratorKind::Finn,
            model_switched: stalls,
            reconfigured: stalls,
        }
    }
}

/// Fleet width, overflow policy and batch size of shape `k < SHAPES`.
fn shape(k: usize) -> (usize, ServeConfig) {
    let config = ServeConfig {
        queue_capacity: 5,
        max_batch: [1, 4][k / 12],
        max_wait_s: 2.0 * TICK_S,
        deadline_s: 0.25,
        control_period_s: 0.0, // consult the script at every close
        overflow: [
            OverflowPolicy::Block,
            OverflowPolicy::ShedOldest,
            OverflowPolicy::ShedNewest,
        ][k / 4 % 3],
    };
    ([1, 2, 5, 32][k % 4], config)
}

/// One arrival: ticks since the previous one, the device it is offered
/// to, and whether it goes to the hot first three devices instead (so
/// queues overflow however wide the fleet is).
type Arrival = (u8, usize, bool);

/// How often a run met the situations the quantisation is there for.
#[derive(Debug, Default)]
struct Met {
    simultaneous_completions: usize,
    closes_due_at_a_completion: usize,
    closes_of_a_batch_filled_now: usize,
    displaced: usize,
}

/// Drives one run to the end, comparing the two pickers before every
/// step. `Err` carries the first disagreement.
fn run(n: usize, config: &ServeConfig, arrivals: &[Arrival]) -> Result<Met, String> {
    let sink = SinkHandle::default();
    let cores = (0..n)
        .map(|_| DeviceCore::new(config.clone(), 8.0))
        .collect();
    let mut devices: Devices = Devices::new(cores, 0.0);
    let mut policy = Ticked { consults: 0 };
    let mut done = Vec::new();
    let mut met = Met::default();

    let (mut next, mut now, mut next_sample) = (0usize, 0.0f64, 8.0 * TICK_S);
    let mut arrival_s = arrivals.first().map(|a| f64::from(a.0) * TICK_S);
    let mut previous = Pick::Sample;
    loop {
        let indexed = devices.next_event(now, arrival_s, Some(next_sample));
        let scanned = scan_next_event(devices.cores(), now, arrival_s, Some(next_sample));
        if indexed != scanned {
            return Err(format!(
                "after {previous:?} at {now}: index {indexed:?}, scan {scanned:?}"
            ));
        }
        let Some((t, pick)) = indexed else {
            return Ok(met);
        };
        if t < now {
            return Err(format!("{pick:?} at {t} before the clock at {now}"));
        }
        match pick {
            Pick::Completion(i) => {
                let same_instant = |d: &DeviceCore| d.next_completion_s() == Some(t);
                met.simultaneous_completions +=
                    usize::from(devices.cores().iter().filter(|d| same_instant(d)).count() > 1);
                devices.update(i, t, |d| d.complete(t, &sink, &mut done));
            }
            Pick::Close(i) => {
                if t == now && previous == Pick::Completion(i) {
                    met.closes_due_at_a_completion += 1;
                }
                if t == now && previous == Pick::Arrival {
                    met.closes_of_a_batch_filled_now +=
                        usize::from(devices.cores()[i].queue_len() >= config.max_batch);
                }
                devices.update(i, t, |d| {
                    d.close_batch(t, &mut policy, &sink, &mut |at, _| at)
                });
            }
            Pick::Arrival => {
                let (_, device, hot) = arrivals[next];
                let request = Request {
                    id: next as u64,
                    device: 0,
                    arrival_s: t,
                };
                let target = if hot { device % n.min(3) } else { device % n };
                let admission = devices.update(target, t, |d| d.offer(request, t, &sink));
                met.displaced += usize::from(matches!(admission, Admission::Displaced { .. }));
                next += 1;
                arrival_s = arrivals.get(next).map(|a| t + f64::from(a.0) * TICK_S);
            }
            Pick::Sample => next_sample += 8.0 * TICK_S,
        }
        (now, previous) = (t, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_pick_equals_the_scan_after_every_step(
        k in 0usize..SHAPES,
        arrivals in proptest::collection::vec((0u8..3, 0usize..32, proptest::bool::ANY), 1..400),
    ) {
        let (n, config) = shape(k);
        if let Err(disagreement) = run(n, &config, &arrivals) {
            prop_assert!(false, "n={n} {config:?}: {disagreement}");
        }
    }
}

/// The proptest's inputs do reach the cases it exists for: over every
/// shape and a few fixed sequences each of them occurs.
#[test]
fn quantised_runs_meet_the_tie_cases() {
    let mut total = Met::default();
    for k in 0..SHAPES {
        let (n, config) = shape(k);
        // A fixed, aperiodic sequence of gaps, devices and hot flags.
        let arrivals: Vec<Arrival> = (0..300usize)
            .map(|j| ((j * 7 % 5 % 3) as u8, j * 11 % 32, j * 13 % 7 < 3))
            .collect();
        let met = run(n, &config, &arrivals).unwrap_or_else(|e| panic!("shape {k}: {e}"));
        total.simultaneous_completions += met.simultaneous_completions;
        total.closes_due_at_a_completion += met.closes_due_at_a_completion;
        total.closes_of_a_batch_filled_now += met.closes_of_a_batch_filled_now;
        total.displaced += met.displaced;
    }
    assert!(total.simultaneous_completions > 0, "{total:?}");
    assert!(total.closes_due_at_a_completion > 0, "{total:?}");
    assert!(total.closes_of_a_batch_filled_now > 0, "{total:?}");
    assert!(total.displaced > 0, "{total:?}");
}

/// A device that always serves at 64 FPS, one request per tick.
fn devices(n: usize, max_batch: usize) -> Devices {
    let config = ServeConfig {
        max_batch,
        max_wait_s: 2.0 * TICK_S,
        control_period_s: 1e9, // one consult: 64 FPS throughout
        ..ServeConfig::default()
    };
    let cores = (0..n)
        .map(|_| DeviceCore::new(config.clone(), 8.0))
        .collect();
    Devices::new(cores, 0.0)
}

fn offer(devices: &mut Devices, i: usize, id: u64, now: f64) {
    let request = Request {
        id,
        device: 0,
        arrival_s: now,
    };
    devices.update(i, now, |d| d.offer(request, now, &SinkHandle::default()));
}

fn close(devices: &mut Devices, i: usize, now: f64) -> f64 {
    let mut policy = Ticked { consults: 2 }; // the next consult serves at 64 FPS
    let sink = SinkHandle::default();
    let close = devices.update(i, now, |d| {
        d.close_batch(now, &mut policy, &sink, &mut |at, _| at)
    });
    close.done_s
}

#[test]
fn two_completions_at_one_instant_go_to_the_lower_index() {
    let mut devices = devices(3, 1);
    // Devices 2 and 1 (in that order) each serve one request over the same tick.
    for (id, i) in [(0, 2), (1, 1)] {
        offer(&mut devices, i, id, 0.0);
        assert_eq!(close(&mut devices, i, 0.0), TICK_S);
    }
    let pick = devices.next_event(0.0, None, None);
    assert_eq!(pick, Some((TICK_S, Pick::Completion(1))));
    assert_eq!(pick, scan_next_event(devices.cores(), 0.0, None, None));
    devices.update(1, TICK_S, |d| {
        d.complete(TICK_S, &SinkHandle::default(), &mut Vec::new());
    });
    let pick = devices.next_event(TICK_S, None, None);
    assert_eq!(pick, Some((TICK_S, Pick::Completion(2))));
}

#[test]
fn a_completion_and_a_close_at_one_instant_go_to_the_completion() {
    let mut devices = devices(2, 4);
    // Device 1 completes two requests at tick 2; device 0's lone request,
    // queued at tick 0, exhausts its two-tick batching wait then too.
    offer(&mut devices, 1, 0, 0.0);
    offer(&mut devices, 1, 1, 0.0);
    offer(&mut devices, 0, 2, 0.0);
    assert_eq!(close(&mut devices, 1, 0.0), 2.0 * TICK_S);
    let pick = devices.next_event(0.0, None, Some(2.0 * TICK_S));
    assert_eq!(pick, Some((2.0 * TICK_S, Pick::Completion(1))));
    assert_eq!(
        pick,
        scan_next_event(devices.cores(), 0.0, None, Some(2.0 * TICK_S))
    );
    devices.update(1, 2.0 * TICK_S, |d| {
        d.complete(2.0 * TICK_S, &SinkHandle::default(), &mut Vec::new());
    });
    let pick = devices.next_event(2.0 * TICK_S, None, Some(2.0 * TICK_S));
    assert_eq!(
        pick,
        Some((2.0 * TICK_S, Pick::Close(0))),
        "then the close, before the sampler"
    );
}

#[test]
fn a_close_and_an_arrival_at_one_instant_go_to_the_close() {
    let mut devices = devices(2, 4);
    offer(&mut devices, 1, 0, 0.0);
    let arrival_s = Some(2.0 * TICK_S);
    let pick = devices.next_event(0.0, arrival_s, None);
    assert_eq!(pick, Some((2.0 * TICK_S, Pick::Close(1))));
    assert_eq!(pick, scan_next_event(devices.cores(), 0.0, arrival_s, None));
    // Strictly earlier, the arrival wins.
    let pick = devices.next_event(0.0, Some(TICK_S), None);
    assert_eq!(pick, Some((TICK_S, Pick::Arrival)));
}
