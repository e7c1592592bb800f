//! Property-based tests of the serve-queue invariants.
//!
//! The engine's telemetry stream is the witness: every admission, shed,
//! batch close and completion is an event, so request conservation, FIFO
//! order and determinism are checked on the *observable* record rather
//! than on engine internals.

use adaflow::PressureSignal;
use adaflow_dataflow::AcceleratorKind;
use adaflow_edge::{Scenario, ServingState, WorkloadSpec};
use adaflow_hls::{PowerModel, ResourceEstimate};
use adaflow_serve::prelude::*;
use adaflow_telemetry::{Event, EventKind, SinkHandle};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A scripted policy: throughputs cycled one per consult, optional
/// periodic stalls.
struct ScriptPolicy {
    fps: Vec<f64>,
    stall_every: usize,
    stall_s: f64,
    calls: usize,
}

impl ServePolicy for ScriptPolicy {
    fn name(&self) -> &str {
        "script"
    }

    fn on_pressure(&mut self, _now: f64, _signal: &PressureSignal) -> ServingState {
        self.calls += 1;
        let switch = self.stall_every > 0 && self.calls.is_multiple_of(self.stall_every);
        ServingState {
            throughput_fps: self.fps[self.calls % self.fps.len()],
            stall_s: if switch { self.stall_s } else { 0.0 },
            accuracy: 80.0,
            power: PowerModel::new(ResourceEstimate {
                lut: 50_000,
                ff: 50_000,
                bram36: 100,
                dsp: 0,
            }),
            activity: 1.0,
            model: "script".into(),
            accelerator: AcceleratorKind::Finn,
            model_switched: switch,
            reconfigured: switch,
        }
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        devices: 5,
        fps_per_device: 24.0,
        duration_s: 4.0,
        scenario: Scenario::Unpredictable,
    }
}

fn overflow(choice: u8) -> OverflowPolicy {
    match choice % 3 {
        0 => OverflowPolicy::Block,
        1 => OverflowPolicy::ShedOldest,
        _ => OverflowPolicy::ShedNewest,
    }
}

/// Runs one recorded simulation, returning `(summary, events)`.
fn recorded_run(
    config: ServeConfig,
    seed: u64,
    fps: f64,
    stall_every: usize,
    stall_s: f64,
) -> (ServeSummary, Vec<Event>) {
    let (sink, recorder) = SinkHandle::recorder(1 << 18);
    let engine = ServeEngine::new(config).with_sink(sink);
    let mut policy = ScriptPolicy {
        fps: vec![fps],
        stall_every,
        stall_s,
        calls: 0,
    };
    let summary = engine.run(&spec(), seed, &mut policy);
    (summary, recorder.drain())
}

/// Drives one core with `max_wait_s = 0` over `arrivals` (ascending
/// instants) the way the DES does — the earlier of next arrival and next
/// completion, then whatever close that instant enables — and checks at
/// every event instant that the close rule is work-conserving: a close is
/// due exactly when the device is idle with work queued, it is due *now*,
/// and once taken the device is never idle with a non-empty queue.
/// Returns the drained core's counters and every batch size in order.
fn drive_work_conserving(
    config: ServeConfig,
    arrivals: &[f64],
    fps: Vec<f64>,
) -> Result<(DeviceStats, Vec<usize>), TestCaseError> {
    assert_eq!(config.max_wait_s, 0.0);
    let sink = SinkHandle::null();
    let mut core: DeviceCore = DeviceCore::new(config, 0.0);
    let mut policy = ScriptPolicy {
        fps,
        stall_every: 0,
        stall_s: 0.0,
        calls: 0,
    };
    let (mut next, mut sizes, mut done) = (0usize, Vec::new(), Vec::new());
    loop {
        let arrival = arrivals.get(next).copied();
        let completion = core.next_completion_s();
        let Some(now) = arrival.into_iter().chain(completion).reduce(f64::min) else {
            break;
        };
        if completion == Some(now) {
            core.complete(now, &sink, &mut done);
        } else {
            let request = Request {
                id: next as u64,
                device: 0,
                arrival_s: now,
            };
            core.offer(request, now, &sink);
            next += 1;
        }
        let idle_with_work = core.in_flight() == 0 && core.queue_len() > 0;
        prop_assert_eq!(core.next_close_s(now), idle_with_work.then_some(now));
        if idle_with_work {
            let close = core.close_batch(now, &mut policy, &sink, &mut |t, _| t);
            prop_assert_eq!(close.start_s, now, "an idle device starts at the close");
            sizes.push(close.size);
        }
        prop_assert!(
            core.in_flight() > 0 || core.queue_len() == 0,
            "idle with {} queued at {now}",
            core.queue_len()
        );
    }
    prop_assert!(core.is_drained());
    prop_assert_eq!(done.len() as u64, core.stats().completed);
    Ok((core.stats().clone(), sizes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The live tier's default close rule (`max_wait_s = 0`): over random
    /// arrival and service scripts the device never idles on queued work
    /// and nothing is lost; a lightly loaded device serves batches of one,
    /// and once arrivals outpace service the batches fill to `max_batch`
    /// with no timer to fill them.
    #[test]
    fn zero_wait_close_rule_is_work_conserving(
        seed in 0u64..1_000,
        max_batch in 1usize..12,
        spare in 0usize..24,
        choice in 0u8..3,
        fps in proptest::collection::vec(50.0f64..800.0, 1..6),
    ) {
        use rand::{Rng, SeedableRng};
        let config = ServeConfig {
            max_batch,
            max_wait_s: 0.0,
            queue_capacity: 2 * max_batch + spare,
            overflow: overflow(choice),
            control_period_s: 0.0, // consult the script at every close
            ..ServeConfig::default()
        };
        // Bursts and lulls around the script's mean service rate.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mean_gap_s = fps.len() as f64 / fps.iter().sum::<f64>();
        let mut t = 0.0;
        let random: Vec<f64> = (0..300)
            .map(|_| {
                t += rng.gen_range(0.0..2.0 * mean_gap_s) * f64::from(rng.gen_range(0u8..3));
                t
            })
            .collect();
        let (stats, sizes) = drive_work_conserving(config.clone(), &random, fps)?;
        prop_assert_eq!(stats.arrived, 300);
        prop_assert_eq!(stats.arrived, stats.completed + stats.shed);
        prop_assert_eq!(sizes.iter().sum::<usize>() as u64, stats.completed);
        prop_assert!(sizes.iter().all(|&size| (1..=max_batch).contains(&size)));

        // A quarter of capacity: every request finds the device idle.
        let paced = |rate_fps: f64| (0..40 * max_batch).map(|i| i as f64 / rate_fps).collect::<Vec<_>>();
        let (_, light) = drive_work_conserving(config.clone(), &paced(25.0), vec![100.0])?;
        prop_assert!(light.iter().all(|&size| size == 1), "{light:?}");
        // Twice capacity: the queue grows while each batch is served, so
        // batch sizes climb (1, 1, 2, 4, ..) and then stay at `max_batch`.
        let (_, heavy) = drive_work_conserving(config, &paced(200.0), vec![100.0])?;
        // (The very last batch is whatever the drain left over.)
        let settled = &heavy[heavy.len() / 2..heavy.len() - 1];
        prop_assert!(settled.iter().all(|&size| size == max_batch), "{heavy:?}");
        prop_assert_eq!(heavy[0], 1, "the first arrival found an idle device");
    }

    /// No request is lost or duplicated: ids are enqueued at most once,
    /// completed at most once, never both completed and shed, and the
    /// final tally matches the summary exactly.
    #[test]
    fn no_request_lost_or_duplicated(
        seed in 0u64..1_000,
        fps in 20.0f64..800.0,
        cap in 4usize..128,
        choice in 0u8..3,
        stall_every in 0usize..6,
    ) {
        let config = ServeConfig {
            queue_capacity: cap,
            overflow: overflow(choice),
            control_period_s: 0.05,
            ..ServeConfig::default()
        };
        let (summary, events) = recorded_run(config, seed, fps, stall_every, 0.08);
        let mut enqueued = BTreeSet::new();
        let mut completed = BTreeSet::new();
        let mut shed = BTreeSet::new();
        for e in &events {
            match &e.kind {
                EventKind::RequestEnqueued { id, .. } => {
                    prop_assert!(enqueued.insert(*id), "id {id} enqueued twice");
                }
                EventKind::RequestCompleted { id, .. } => {
                    prop_assert!(completed.insert(*id), "id {id} completed twice");
                    prop_assert!(enqueued.contains(id), "id {id} completed unseen");
                }
                EventKind::RequestShed { id, .. } => {
                    prop_assert!(shed.insert(*id), "id {id} shed twice");
                }
                _ => {}
            }
        }
        prop_assert!(completed.is_disjoint(&shed), "id both completed and shed");
        prop_assert_eq!(completed.len() as f64, summary.completed);
        prop_assert_eq!(shed.len() as f64, summary.shed);
        prop_assert!(summary.conservation_holds(),
            "arrived {} != completed {} + shed {}",
            summary.arrived, summary.completed, summary.shed);
        // Every enqueued request left the queue one way or the other
        // (the engine drains before returning).
        let drained: BTreeSet<_> = completed.union(&shed).copied().collect();
        prop_assert!(enqueued.is_subset(&drained), "request stuck in queue");
    }

    /// FIFO: the queue never reorders, so completions happen in id
    /// (= arrival) order.
    #[test]
    fn completions_preserve_fifo_order(
        seed in 0u64..1_000,
        fps in 20.0f64..800.0,
        cap in 4usize..128,
        choice in 0u8..3,
        max_batch in 1usize..40,
    ) {
        let config = ServeConfig {
            queue_capacity: cap,
            overflow: overflow(choice),
            max_batch,
            ..ServeConfig::default()
        };
        let (_, events) = recorded_run(config, seed, fps, 0, 0.0);
        let mut last: Option<u64> = None;
        for e in &events {
            if let EventKind::RequestCompleted { id, .. } = e.kind {
                if let Some(prev) = last {
                    prop_assert!(id > prev, "completion order regressed: {prev} then {id}");
                }
                last = Some(id);
            }
        }
    }

    /// Conservation holds at every event boundary: requests in the system
    /// (enqueued − completed − shed-after-admission) never go negative and
    /// never exceed queue capacity plus one in-flight batch.
    #[test]
    fn prefix_conservation_bounds(
        seed in 0u64..1_000,
        fps in 20.0f64..800.0,
        cap in 4usize..128,
        choice in 0u8..3,
        max_batch in 1usize..40,
        stall_every in 0usize..6,
    ) {
        let config = ServeConfig {
            queue_capacity: cap,
            overflow: overflow(choice),
            max_batch,
            control_period_s: 0.05,
            ..ServeConfig::default()
        };
        let (_, events) = recorded_run(config, seed, fps, stall_every, 0.05);
        let mut enqueued = BTreeSet::new();
        let mut in_system = 0i64;
        for e in &events {
            match &e.kind {
                EventKind::RequestEnqueued { id, .. } => {
                    enqueued.insert(*id);
                    in_system += 1;
                }
                EventKind::RequestCompleted { .. } => in_system -= 1,
                // Only sheds of previously-admitted requests drain the
                // system; a blocked arrival never entered it.
                EventKind::RequestShed { id, .. } if enqueued.contains(id) => {
                    in_system -= 1;
                }
                _ => {}
            }
            prop_assert!(in_system >= 0, "more departures than admissions");
            prop_assert!(
                in_system <= (cap + max_batch) as i64,
                "in-system {in_system} exceeds queue {cap} + batch {max_batch}"
            );
        }
        prop_assert_eq!(in_system, 0, "engine returned with requests in flight");
    }

    /// Determinism: the same seed yields a bit-identical event log and
    /// summary, and the multi-seed experiment mean is identical for 1, 2
    /// and N worker threads.
    #[test]
    fn same_seed_same_event_log(
        seed in 0u64..1_000,
        fps in 20.0f64..800.0,
        choice in 0u8..3,
    ) {
        let config = ServeConfig {
            queue_capacity: 32,
            overflow: overflow(choice),
            ..ServeConfig::default()
        };
        let (s1, e1) = recorded_run(config.clone(), seed, fps, 3, 0.05);
        let (s2, e2) = recorded_run(config, seed, fps, 3, 0.05);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(e1, e2);
    }

    /// Span trees are well-formed for every random config × seed — each
    /// completed request yields exactly one tree with a live root, nested
    /// intervals and no orphans — and the waterfall's per-stage durations
    /// sum to the end-to-end latency, exactly per trace and up to
    /// floating-point noise in the aggregate.
    #[test]
    fn span_forest_well_formed_and_waterfall_tiles(
        seed in 0u64..1_000,
        fps in 20.0f64..800.0,
        cap in 4usize..128,
        choice in 0u8..3,
        stall_every in 0usize..6,
    ) {
        use adaflow_telemetry::{SpanRecord, Stage, TraceForest, Waterfall};
        let config = ServeConfig {
            queue_capacity: cap,
            overflow: overflow(choice),
            control_period_s: 0.05,
            ..ServeConfig::default()
        };
        let (summary, events) = recorded_run(config, seed, fps, stall_every, 0.08);
        let forest = TraceForest::from_events(&events);
        prop_assert!(forest.validate().is_ok(), "invalid forest: {:?}", forest.validate());
        prop_assert_eq!(forest.len() as f64, summary.completed, "one trace per completion");
        for trace in &forest.traces {
            let root = trace.root().expect("validated");
            let leaf_sum: f64 = Stage::LEAVES
                .iter()
                .map(|stage| {
                    trace
                        .spans
                        .iter()
                        .find(|r| r.span == stage.span_id())
                        .map_or(0.0, SpanRecord::duration_s)
                })
                .sum();
            prop_assert!((leaf_sum - root.duration_s()).abs() < 1e-9,
                "trace {}: stages must tile end-to-end", trace.id.0);
        }
        let waterfall = Waterfall::from_forest(&forest, 3);
        prop_assert_eq!(waterfall.traces as f64, summary.completed);
        prop_assert!(waterfall.attribution_residual_s < 1e-9,
            "stage means drifted from the end-to-end mean: {:e}",
            waterfall.attribution_residual_s);
    }

    /// Batch sizes respect the configured maximum, and every batch-closed
    /// size is covered by matching completions.
    #[test]
    fn batches_bounded_and_accounted(
        seed in 0u64..1_000,
        fps in 50.0f64..800.0,
        max_batch in 1usize..40,
    ) {
        let config = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let (summary, events) = recorded_run(config, seed, fps, 0, 0.0);
        let mut batched = 0u64;
        for e in &events {
            if let EventKind::BatchClosed { size, oldest_wait_s, .. } = e.kind {
                prop_assert!(size >= 1 && size <= max_batch as u64);
                prop_assert!(oldest_wait_s >= -1e-9);
                batched += size;
            }
        }
        prop_assert_eq!(batched as f64, summary.completed,
            "batched requests must all complete");
    }
}
