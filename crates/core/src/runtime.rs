//! The Runtime Manager (run-time step, paper §IV-B2).
//!
//! On every workload or threshold change the manager selects
//!
//! 1. **a CNN model**: among library entries whose accuracy stays within the
//!    user threshold of the unpruned accuracy, the entry matching the
//!    incoming FPS at the best accuracy — or, when none matches, the entry
//!    with the highest throughput;
//! 2. **an accelerator type**: Fixed-Pruning only when model switches are
//!    infrequent (time since the last switch at least the switch-interval
//!    criterion, 10× the reconfiguration time in the paper's evaluation);
//!    Flexible-Pruning otherwise.
//!
//! Applying a decision may stall the accelerator: switching fixed
//! accelerators costs a full FPGA reconfiguration; switching models on the
//! flexible fabric only costs streaming the new weights in.

use crate::library::Library;
use adaflow_dataflow::AcceleratorKind;
use adaflow_hls::ReconfigurationModel;
use adaflow_telemetry::{EventKind, SinkHandle};
use serde::{Deserialize, Serialize};

/// Weight-bus bandwidth for flexible model switches (DMA over the
/// PS-PL AXI HP port), bytes per second.
pub const WEIGHT_BUS_BYTES_PER_SECOND: f64 = 1.2e9;

/// Runtime Manager configuration (the paper's user inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Maximum tolerated accuracy loss versus the unpruned model, in
    /// percentage points (the paper evaluates with 10).
    pub accuracy_threshold_points: f64,
    /// Fixed-Pruning is only selected when the time since the last model
    /// switch is at least this multiple of the reconfiguration time (the
    /// paper sets 10×).
    pub switch_interval_multiple: f64,
    /// FPGA reconfiguration timing model.
    pub reconfig: ReconfigurationModel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            accuracy_threshold_points: 10.0,
            switch_interval_multiple: 10.0,
            reconfig: ReconfigurationModel::default(),
        }
    }
}

/// Observed serving pressure, the request-level counterpart of the paper's
/// aggregate incoming-FPS estimate.
///
/// The oracle drive path hands [`RuntimeManager::decide`] the workload's
/// nominal rate directly; a real serving layer only observes *arrivals* and
/// *queueing*. The pressure signal folds both into one demand figure: the
/// EWMA of the arrival rate plus the service rate needed to drain the
/// current backlog within the drain-target horizon (`μ ≥ λ + Q/T` keeps the
/// queue shrinking toward empty within `T` seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PressureSignal {
    /// Smoothed arrival rate estimate, requests per second.
    pub arrival_fps_ewma: f64,
    /// Current admission-queue occupancy, requests.
    pub queue_depth: f64,
    /// Horizon within which the backlog should drain, seconds.
    pub drain_target_s: f64,
}

impl PressureSignal {
    /// A nominal-load signal: a bare rate estimate with an empty queue, so
    /// `demand_fps()` equals `rate_fps` exactly. This is how the oracle
    /// drive path ([`RuntimeManager::decide`]) enters the pressure path —
    /// an incoming-FPS estimate *is* a pressure signal with no backlog.
    #[must_use]
    pub fn nominal(rate_fps: f64) -> Self {
        Self {
            arrival_fps_ewma: rate_fps,
            queue_depth: 0.0,
            drain_target_s: 1.0,
        }
    }

    /// The service rate this pressure level demands: arrivals plus the
    /// backlog spread over the drain horizon.
    #[must_use]
    pub fn demand_fps(&self) -> f64 {
        (self.arrival_fps_ewma + self.queue_depth / self.drain_target_s.max(1e-9)).max(0.0)
    }
}

/// What a decision physically did to the FPGA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchKind {
    /// Nothing changed.
    None,
    /// New weights streamed into the flexible fabric (fast model switch).
    FlexibleModelSwitch,
    /// A full FPGA reconfiguration (fixed-accelerator switch or fabric
    /// change).
    Reconfiguration,
}

impl SwitchKind {
    /// Stable telemetry label for this switch kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SwitchKind::None => "none",
            SwitchKind::FlexibleModelSwitch => "flexible-switch",
            SwitchKind::Reconfiguration => "reconfiguration",
        }
    }
}

/// The outcome of one Runtime Manager invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the selected library entry.
    pub entry_index: usize,
    /// Name of the selected model.
    pub model_name: String,
    /// Accelerator type now loaded.
    pub accelerator: AcceleratorKind,
    /// What changed on the fabric.
    pub switch: SwitchKind,
    /// Seconds the accelerator is unavailable while applying the decision.
    pub stall_s: f64,
    /// Serving throughput after the decision.
    pub throughput_fps: f64,
    /// Accuracy of the model now serving, in percent.
    pub accuracy: f64,
}

/// The Runtime Manager state machine.
#[derive(Debug, Clone)]
pub struct RuntimeManager<'l> {
    library: &'l Library,
    config: RuntimeConfig,
    current: Option<(usize, AcceleratorKind)>,
    last_model_switch: Option<f64>,
    /// Exponentially-weighted estimate of the inter-switch interval — the
    /// "intervals at which models need to be switched" of §IV-B2.
    switch_interval_ewma: Option<f64>,
    /// Telemetry sink; every applied decision is emitted as a
    /// [`EventKind::DecisionMade`] stamped with the decision's `now_s`.
    sink: SinkHandle,
}

impl<'l> RuntimeManager<'l> {
    /// Creates a manager over a generated library.
    #[must_use]
    pub fn new(library: &'l Library, config: RuntimeConfig) -> Self {
        Self {
            library,
            config,
            current: None,
            last_model_switch: None,
            switch_interval_ewma: None,
            sink: SinkHandle::default(),
        }
    }

    /// Attaches a telemetry sink; each call to [`RuntimeManager::decide`]
    /// then emits a [`EventKind::DecisionMade`] event with the applied
    /// decision and its stall accounting.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Currently loaded `(entry index, accelerator kind)`, if any.
    #[must_use]
    pub fn current(&self) -> Option<(usize, AcceleratorKind)> {
        self.current
    }

    /// Updates the accuracy threshold (a user-driven event in the paper;
    /// call [`RuntimeManager::decide`] afterwards to re-select).
    pub fn set_accuracy_threshold(&mut self, points: f64) {
        self.config.accuracy_threshold_points = points;
    }

    /// The switch-interval criterion in seconds: `multiple ×` the
    /// reconfiguration time of the baseline bitstream.
    #[must_use]
    pub fn switch_criterion_s(&self) -> f64 {
        self.config.switch_interval_multiple
            * self
                .config
                .reconfig
                .reconfiguration_time(&self.library.baseline.bitstream)
                .as_secs_f64()
    }

    /// What moving the fabric from `from` to `to` costs, each side an
    /// `(entry index, accelerator kind)`: nothing for the same state; a
    /// weight reload over the PS-PL bus for a model switch on the flexible
    /// fabric; otherwise a full reconfiguration with the target bitstream.
    /// The one switch price: the manager's own decisions and the serving
    /// policies that move between the library's fabrics are charged by it.
    #[must_use]
    pub fn switch_price(
        &self,
        from: (usize, AcceleratorKind),
        to: (usize, AcceleratorKind),
    ) -> (SwitchKind, f64) {
        let flexible = AcceleratorKind::FlexiblePruning;
        if from == to {
            (SwitchKind::None, 0.0)
        } else if from.1 == flexible && to.1 == flexible {
            let bytes = self.library.entries()[to.0].weight_bits as f64 / 8.0;
            (
                SwitchKind::FlexibleModelSwitch,
                bytes / WEIGHT_BUS_BYTES_PER_SECOND,
            )
        } else {
            (
                SwitchKind::Reconfiguration,
                self.reconfiguration_s(to.0, to.1),
            )
        }
    }

    /// Seconds to load the bitstream serving entry `idx` on `kind`.
    fn reconfiguration_s(&self, idx: usize, kind: AcceleratorKind) -> f64 {
        let bitstream = match kind {
            AcceleratorKind::FlexiblePruning => &self.library.flexible.bitstream,
            _ => &self.library.entries()[idx].fixed.bitstream,
        };
        self.config
            .reconfig
            .reconfiguration_time(bitstream)
            .as_secs_f64()
    }

    /// Pure model selection (paper §IV-B2): among entries within the
    /// accuracy threshold, those whose throughput on `kind` meets
    /// `incoming_fps`; of these the most accurate. When none can match the
    /// workload, the fastest in-threshold entry.
    #[must_use]
    pub fn select_model(&self, incoming_fps: f64, kind: AcceleratorKind) -> usize {
        let threshold = self.config.accuracy_threshold_points;
        let floor = self.library.base_accuracy() - threshold;
        let candidates: Vec<(usize, &crate::library::ModelEntry)> = self
            .library
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.accuracy >= floor)
            .collect();
        debug_assert!(!candidates.is_empty(), "unpruned entry always qualifies");

        let fps_of = |e: &crate::library::ModelEntry| self.throughput_of(e, kind);
        let matching = candidates
            .iter()
            .filter(|(_, e)| fps_of(e) >= incoming_fps)
            // Most accurate among matching; accuracy ties (plateaus from the
            // divisibility constraints) break toward the *less pruned* model.
            .max_by(|(ia, a), (ib, b)| {
                a.accuracy
                    .partial_cmp(&b.accuracy)
                    .expect("accuracies are finite")
                    .then(ib.cmp(ia))
            });
        if let Some(&(idx, _)) = matching {
            return idx;
        }
        // No entry can serve the workload: take the fastest; throughput
        // ties (staircase plateaus) break toward the more accurate model so
        // the manager never trades accuracy for nothing.
        candidates
            .iter()
            .max_by(|(_, a), (_, b)| {
                fps_of(a)
                    .partial_cmp(&fps_of(b))
                    .expect("throughputs are finite")
                    .then(
                        a.accuracy
                            .partial_cmp(&b.accuracy)
                            .expect("accuracies are finite"),
                    )
            })
            .map(|&(idx, _)| idx)
            .expect("candidates nonempty")
    }

    /// Throughput of `entry` on an accelerator kind.
    #[must_use]
    pub fn throughput_of(&self, entry: &crate::library::ModelEntry, kind: AcceleratorKind) -> f64 {
        match kind {
            AcceleratorKind::FlexiblePruning => entry.flexible_fps,
            _ => entry.fixed.throughput_fps,
        }
    }

    /// Reacts to a workload level observed at `now_s`, applying and
    /// returning the decision.
    ///
    /// This is a thin front over [`RuntimeManager::decide_from_pressure`]:
    /// the rate estimate is wrapped in a nominal-load
    /// [`PressureSignal`] (empty queue), so both entry points share one
    /// decision body and cannot drift apart.
    ///
    /// The manager is meant to be invoked on *changes* (new incoming-FPS
    /// estimate from the performance monitors, or a threshold update);
    /// invoking it repeatedly with the same conditions is a no-op decision.
    pub fn decide(&mut self, now_s: f64, incoming_fps: f64) -> Decision {
        self.decide_from_pressure(now_s, &PressureSignal::nominal(incoming_fps))
    }

    /// Reacts to *observed* queue pressure instead of an oracle workload
    /// level. The single decision body: the signal's demanded service rate
    /// (`λ + Q/T`) drives model selection, the switch cadence estimate
    /// drives the accelerator-type rule. This is the request-level serving
    /// layer's input path (the paper's manager reacts to an aggregate FPS
    /// estimate; a per-request server reacts to what it can actually
    /// measure).
    pub fn decide_from_pressure(&mut self, now_s: f64, signal: &PressureSignal) -> Decision {
        let incoming_fps = signal.demand_fps();
        // Accelerator-type rule: Fixed only when models need to be switched
        // at intervals above the criterion (§IV-B2). The switching cadence
        // is estimated by blending the time since the last switch with the
        // EWMA of past inter-switch intervals, and leaving the flexible
        // fabric requires twice the criterion (hysteresis): one quiet gap
        // inside a turbulent phase must not bounce the fabric back to Fixed,
        // since every bounce costs two reconfigurations.
        let cadence = match (self.last_model_switch, self.switch_interval_ewma) {
            (None, _) => f64::INFINITY,
            (Some(t), None) => now_s - t,
            (Some(t), Some(ewma)) => 0.5 * (now_s - t) + 0.5 * ewma,
        };
        let on_flexible = matches!(self.current, Some((_, AcceleratorKind::FlexiblePruning)));
        let hysteresis = if on_flexible { 2.0 } else { 1.0 };
        let stable = cadence >= hysteresis * self.switch_criterion_s();
        let prospective_kind = if stable {
            AcceleratorKind::FixedPruning
        } else {
            AcceleratorKind::FlexiblePruning
        };

        let idx = self.select_model(incoming_fps, prospective_kind);
        // The fabric is only worth changing when the model itself changes:
        // re-loading a different fabric for the same model would spend a
        // reconfiguration without buying anything.
        let kind = match self.current {
            Some((cur_idx, cur_kind)) if cur_idx == idx => cur_kind,
            _ => prospective_kind,
        };
        let entry = &self.library.entries()[idx];

        let (switch, stall_s) = match self.current {
            // Initial load: one reconfiguration to bring the fabric up.
            None => (
                SwitchKind::Reconfiguration,
                self.reconfiguration_s(idx, kind),
            ),
            Some(live) => self.switch_price(live, (idx, kind)),
        };

        // The initial load is not a model *switch*: cadence tracking starts
        // with the first actual change.
        let model_changed = matches!(self.current, Some((cur_idx, _)) if cur_idx != idx);
        if model_changed {
            if let Some(last) = self.last_model_switch {
                let interval = now_s - last;
                self.switch_interval_ewma = Some(match self.switch_interval_ewma {
                    Some(ewma) => 0.5 * interval + 0.5 * ewma,
                    None => interval,
                });
            }
            self.last_model_switch = Some(now_s);
        }
        self.current = Some((idx, kind));

        let decision = Decision {
            entry_index: idx,
            model_name: entry.name.clone(),
            accelerator: kind,
            switch,
            stall_s,
            throughput_fps: self.throughput_of(entry, kind),
            accuracy: entry.accuracy,
        };
        if self.sink.enabled() {
            self.sink.emit(
                now_s,
                EventKind::DecisionMade {
                    model: decision.model_name.clone(),
                    accelerator: decision.accelerator.short_name().to_string(),
                    switch: decision.switch.label().to_string(),
                    stall_s: decision.stall_s,
                    incoming_fps,
                },
            );
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryGenerator;
    use adaflow_model::prelude::*;
    use adaflow_nn::DatasetKind;

    fn library() -> Library {
        LibraryGenerator::default_edge_setup()
            .generate(
                &topology::cnv_w2a2_cifar10().expect("builds"),
                DatasetKind::Cifar10,
            )
            .expect("generates")
    }

    #[test]
    fn low_workload_selects_most_accurate_model() {
        let lib = library();
        let manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        // Workload far below even the unpruned throughput.
        let idx = manager.select_model(50.0, AcceleratorKind::FixedPruning);
        assert_eq!(idx, 0, "unpruned model matches and has the best accuracy");
    }

    #[test]
    fn high_workload_selects_faster_model_within_threshold() {
        let lib = library();
        let manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        let idx = manager.select_model(base_fps * 1.3, AcceleratorKind::FixedPruning);
        let chosen = &lib.entries()[idx];
        assert!(chosen.fixed.throughput_fps >= base_fps * 1.3);
        assert!(chosen.accuracy >= lib.base_accuracy() - 10.0);
        assert!(idx > 0);
    }

    #[test]
    fn impossible_workload_selects_fastest_in_threshold() {
        let lib = library();
        let manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let idx = manager.select_model(1e9, AcceleratorKind::FixedPruning);
        let chosen = &lib.entries()[idx];
        // Never violates the accuracy floor even under impossible load.
        assert!(chosen.accuracy >= lib.base_accuracy() - 10.0);
        // And is the fastest entry that respects it.
        for e in lib.within_threshold(10.0) {
            assert!(chosen.fixed.throughput_fps >= e.fixed.throughput_fps);
        }
    }

    #[test]
    fn first_decision_is_fixed_with_one_reconfiguration() {
        let lib = library();
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let d = manager.decide(0.0, 600.0);
        assert_eq!(d.accelerator, AcceleratorKind::FixedPruning);
        assert_eq!(d.switch, SwitchKind::Reconfiguration);
        assert!(d.stall_s > 0.1);
    }

    #[test]
    fn rapid_switches_move_to_flexible() {
        let lib = library();
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        manager.decide(0.0, 100.0);
        // First model switch: no cadence history yet → fixed, reconfigured.
        let d = manager.decide(0.5, base_fps * 1.4);
        assert_eq!(d.accelerator, AcceleratorKind::FixedPruning);
        assert_eq!(d.switch, SwitchKind::Reconfiguration);
        // Second rapid switch: the observed cadence (0.5 s) is far below the
        // criterion (10 x ~145 ms ≈ 1.45 s) → flexible fabric loaded once...
        let d2 = manager.decide(1.0, 100.0);
        assert_eq!(d2.accelerator, AcceleratorKind::FlexiblePruning);
        assert_eq!(
            d2.switch,
            SwitchKind::Reconfiguration,
            "fabric change reconfigures once"
        );
        // ...then fast model switches with sub-millisecond stalls.
        let d3 = manager.decide(1.5, base_fps * 1.4);
        assert_eq!(d3.accelerator, AcceleratorKind::FlexiblePruning);
        assert_eq!(d3.switch, SwitchKind::FlexibleModelSwitch);
        assert!(
            d3.stall_s < 0.005,
            "flexible switch stalled {}s",
            d3.stall_s
        );
    }

    #[test]
    fn stable_phases_return_to_fixed() {
        let lib = library();
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        manager.decide(0.0, 100.0);
        manager.decide(0.5, base_fps * 1.4); // flexible
                                             // Long quiet period, then a change: back to fixed (the quiet gap
                                             // must dominate the blended cadence estimate).
        let criterion = manager.switch_criterion_s();
        let d = manager.decide(0.5 + 3.0 * criterion, 100.0);
        assert_eq!(d.accelerator, AcceleratorKind::FixedPruning);
    }

    #[test]
    fn switch_price_pins_its_three_arms_over_the_library() {
        let lib = library();
        let config = RuntimeConfig::default();
        let manager = RuntimeManager::new(&lib, config.clone());
        let kinds = [
            AcceleratorKind::FixedPruning,
            AcceleratorKind::FlexiblePruning,
        ];
        let states: Vec<(usize, AcceleratorKind)> = (0..lib.entries().len())
            .flat_map(|i| kinds.map(|k| (i, k)))
            .collect();
        let mut arms = [0usize; 3];
        for &from in &states {
            for &to in &states {
                let (switch, stall_s) = manager.switch_price(from, to);
                let entry = &lib.entries()[to.0];
                let (want, want_s) = if from == to {
                    arms[0] += 1;
                    (SwitchKind::None, 0.0)
                } else if from.1 == AcceleratorKind::FlexiblePruning
                    && to.1 == AcceleratorKind::FlexiblePruning
                {
                    arms[1] += 1;
                    (
                        SwitchKind::FlexibleModelSwitch,
                        entry.weight_bits as f64 / 8.0 / WEIGHT_BUS_BYTES_PER_SECOND,
                    )
                } else {
                    arms[2] += 1;
                    let bitstream = match to.1 {
                        AcceleratorKind::FlexiblePruning => &lib.flexible.bitstream,
                        _ => &entry.fixed.bitstream,
                    };
                    let reconfig = config.reconfig.reconfiguration_time(bitstream);
                    (SwitchKind::Reconfiguration, reconfig.as_secs_f64())
                };
                assert_eq!(switch, want, "{from:?} -> {to:?}");
                assert_eq!(stall_s.to_bits(), want_s.to_bits(), "{from:?} -> {to:?}");
            }
        }
        let n = lib.entries().len();
        assert_eq!(arms, [2 * n, n * (n - 1), 4 * n * n - 2 * n - n * (n - 1)]);
    }

    #[test]
    fn same_conditions_are_a_no_op() {
        let lib = library();
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        manager.decide(0.0, 600.0);
        let d = manager.decide(10.0, 600.0);
        assert_eq!(d.switch, SwitchKind::None);
        assert_eq!(d.stall_s, 0.0);
    }

    #[test]
    fn threshold_change_can_unlock_faster_models() {
        let lib = library();
        let mut manager = RuntimeManager::new(
            &lib,
            RuntimeConfig {
                accuracy_threshold_points: 2.0,
                ..RuntimeConfig::default()
            },
        );
        let tight = manager.select_model(1e9, AcceleratorKind::FixedPruning);
        manager.set_accuracy_threshold(15.0);
        let loose = manager.select_model(1e9, AcceleratorKind::FixedPruning);
        let entries = lib.entries();
        assert!(entries[loose].fixed.throughput_fps > entries[tight].fixed.throughput_fps);
    }

    #[test]
    fn criterion_is_ten_reconfigurations_by_default() {
        let lib = library();
        let manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let c = manager.switch_criterion_s();
        assert!((1.2..=1.7).contains(&c), "criterion {c}s");
    }

    #[test]
    fn pressure_demand_adds_backlog_drain_rate() {
        let idle = PressureSignal {
            arrival_fps_ewma: 600.0,
            queue_depth: 0.0,
            drain_target_s: 0.5,
        };
        assert!((idle.demand_fps() - 600.0).abs() < 1e-12);
        let loaded = PressureSignal {
            arrival_fps_ewma: 600.0,
            queue_depth: 100.0,
            drain_target_s: 0.5,
        };
        // 100 queued requests over a 0.5 s horizon demand 200 extra FPS.
        assert!((loaded.demand_fps() - 800.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_path_selects_faster_model_than_arrivals_alone() {
        let lib = library();
        let base_fps = lib.unpruned().fixed.throughput_fps;
        let mut by_rate = RuntimeManager::new(&lib, RuntimeConfig::default());
        let mut by_pressure = RuntimeManager::new(&lib, RuntimeConfig::default());
        // Arrivals alone fit the unpruned model; a deep backlog must push
        // the pressure-driven manager to a faster entry.
        let arrivals = base_fps * 0.9;
        let relaxed = by_rate.decide(0.0, arrivals);
        let pressed = by_pressure.decide_from_pressure(
            0.0,
            &PressureSignal {
                arrival_fps_ewma: arrivals,
                queue_depth: base_fps, // one full second of backlog
                drain_target_s: 0.5,
            },
        );
        assert_eq!(relaxed.entry_index, 0, "arrivals alone fit unpruned");
        assert!(
            pressed.throughput_fps > relaxed.throughput_fps,
            "backlog must demand a faster model"
        );
    }

    #[test]
    fn decide_is_equivalent_to_nominal_pressure() {
        // Regression for the decide / decide_from_pressure drift: the
        // oracle path must be *exactly* the pressure path under a
        // nominal-load signal, decision for decision, across a workload
        // trajectory that exercises switches, hysteresis and no-ops.
        let lib = library();
        let mut by_rate = RuntimeManager::new(&lib, RuntimeConfig::default());
        let mut by_signal = RuntimeManager::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        let trajectory = [
            (0.0, 100.0),
            (0.5, base_fps * 1.4),
            (1.0, 100.0),
            (1.5, base_fps * 1.4),
            (4.0, 100.0),
            (10.0, 100.0),
            (10.5, 1e9),
            (20.0, 50.0),
        ];
        for (now_s, fps) in trajectory {
            let a = by_rate.decide(now_s, fps);
            let b = by_signal.decide_from_pressure(now_s, &PressureSignal::nominal(fps));
            assert_eq!(a, b, "paths diverged at t={now_s}, fps={fps}");
        }
        assert_eq!(by_rate.current(), by_signal.current());
    }

    #[test]
    fn nominal_signal_demand_is_the_rate_itself() {
        for fps in [0.0, 1.0, 433.7, 1e9] {
            assert_eq!(PressureSignal::nominal(fps).demand_fps(), fps);
        }
    }

    #[test]
    fn accuracy_never_below_floor_across_random_workloads() {
        let lib = library();
        let mut manager = RuntimeManager::new(&lib, RuntimeConfig::default());
        let floor = lib.base_accuracy() - 10.0;
        let mut t = 0.0;
        for step in 0..200u32 {
            // Deterministic pseudo-random workload levels in 0..1200 FPS.
            let fps = f64::from(step.wrapping_mul(2654435761) % 1200);
            let d = manager.decide(t, fps);
            assert!(d.accuracy >= floor - 1e-9, "violated floor at step {step}");
            t += 0.5;
        }
    }
}
