//! Serving policies: the one policy trait every simulator consults.
//!
//! A policy sees a [`PressureSignal`] and answers with the [`ServingState`]
//! to serve under. The fluid simulator ([`crate::EdgeSim`]) hands it the
//! workload's *nominal* rate ([`PressureSignal::nominal`] — an oracle a
//! real server does not have); the request-level layers (`adaflow-serve`,
//! `adaflow-fleet` and the live server) derive the signal from what they
//! observe (arrival EWMA plus queue backlog). Four policies:
//!
//! * [`AdaFlowServePolicy`] — the full Runtime Manager, driven through
//!   [`RuntimeManager::decide_from_pressure`]: fixed *and* flexible
//!   accelerators, hysteresis, reconfiguration stalls, and an optional
//!   deadline guard for request-level serving;
//! * [`FixedMaxPolicy`] — the static original-FINN baseline: the unpruned
//!   max-accuracy model on its fixed accelerator, loaded once, never
//!   switched;
//! * [`FlexibleOnlyPolicy`] — pinned to the flexible fabric: model
//!   switches are weight reloads over the PS-PL bus, never a
//!   reconfiguration;
//! * [`PruningReconfPolicy`] — the Fig. 1(b) baseline: model switching
//!   restricted to fixed accelerators, paying a configurable
//!   reconfiguration time per switch.
//!
//! [`PolicyKind`] is their one table.
//!
//! Every policy assumes the first image resident when the serving window
//! opens: the first consult never stalls and never counts as a switch.

use adaflow::{Library, PressureSignal, RuntimeConfig, RuntimeManager, SwitchKind};
use adaflow_dataflow::AcceleratorKind;
use adaflow_hls::PowerModel;
use adaflow_telemetry::SinkHandle;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The serving state a policy establishes when consulted.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingState {
    /// Serving throughput once the stall (if any) completes.
    pub throughput_fps: f64,
    /// Seconds of service suspension applying this state (reconfiguration
    /// or flexible weight reload).
    pub stall_s: f64,
    /// TOP-1 accuracy of the model now serving, percent.
    pub accuracy: f64,
    /// Power model of the loaded fabric.
    pub power: PowerModel,
    /// Activity factor of the loaded fabric (1.0 for fixed accelerators).
    pub activity: f64,
    /// Name of the loaded model.
    pub model: String,
    /// Loaded accelerator kind.
    pub accelerator: AcceleratorKind,
    /// Whether this change switched the CNN model.
    pub model_switched: bool,
    /// Whether this change reconfigured the FPGA.
    pub reconfigured: bool,
}

impl ServingState {
    /// Library entry `entry_index` served on `accelerator`, with no stall
    /// and no switch.
    #[must_use]
    pub fn steady(library: &Library, entry_index: usize, accelerator: AcceleratorKind) -> Self {
        let entry = &library.entries()[entry_index];
        let (throughput_fps, power, activity) = match accelerator {
            AcceleratorKind::FlexiblePruning => (
                entry.flexible_fps,
                library.flexible.power,
                entry.flexible_activity,
            ),
            _ => (entry.fixed.throughput_fps, entry.fixed.power, 1.0),
        };
        Self {
            throughput_fps,
            stall_s: 0.0,
            accuracy: entry.accuracy,
            power,
            activity,
            model: entry.name.clone(),
            accelerator,
            model_switched: false,
            reconfigured: false,
        }
    }

    /// This state held on after it was applied: the switch costs are paid.
    #[must_use]
    pub fn held(&self) -> Self {
        Self {
            stall_s: 0.0,
            model_switched: false,
            reconfigured: false,
            ..self.clone()
        }
    }

    /// Whether this change was a model switch served by the flexible
    /// fabric's weight reload — the one rule every switch ledger counts
    /// flexible switches by. A fixed-accelerator switch that happens to
    /// cost no reconfiguration (Pruning-Reconf at 0 ms) is not one.
    #[must_use]
    pub fn is_flexible_switch(&self) -> bool {
        self.model_switched
            && !self.reconfigured
            && self.accelerator == AcceleratorKind::FlexiblePruning
    }
}

/// A serving policy, consulted with the pressure its simulator observes.
pub trait ServePolicy {
    /// Policy display name (stable; used in summaries and the CLI).
    fn name(&self) -> &str;

    /// Reacts to the pressure observed at `now_s`, returning the serving
    /// state to run under next.
    fn on_pressure(&mut self, now_s: f64, signal: &PressureSignal) -> ServingState;
}

/// The one table of serving policies: `--policy`, `--fleet`, the fleet
/// engine and the SV002 stall bound all parse, name and build them here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`AdaFlowServePolicy`].
    AdaFlow,
    /// [`FixedMaxPolicy`].
    FixedMax,
    /// [`FlexibleOnlyPolicy`].
    FlexibleOnly,
    /// [`PruningReconfPolicy`], paying `ms` per switch.
    PruningReconf {
        /// Reconfiguration time per switch, milliseconds.
        ms: u64,
    },
}

impl PolicyKind {
    /// Reads `adaflow`, `fixed-max` (or `fixed`, `finn`), `flexible-only`
    /// (or `flexible`) or `reconf:<ms>`.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "adaflow" => Self::AdaFlow,
            "fixed-max" | "fixed" | "finn" => Self::FixedMax,
            "flexible-only" | "flexible" => Self::FlexibleOnly,
            _ => Self::PruningReconf {
                ms: text.strip_prefix("reconf:")?.parse().ok()?,
            },
        })
    }

    /// The name summaries print, which [`Self::parse`] reads back.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Self::AdaFlow => "adaflow".into(),
            Self::FixedMax => "fixed-max".into(),
            Self::FlexibleOnly => "flexible-only".into(),
            Self::PruningReconf { ms } => format!("reconf:{ms}"),
        }
    }

    /// The policy under the default runtime configuration; `deadline_s > 0`
    /// arms AdaFlow's deadline guard and `sink` gets its manager's decisions.
    #[must_use]
    pub fn build<'l>(
        self,
        library: &'l Library,
        deadline_s: f64,
        sink: &SinkHandle,
    ) -> Box<dyn ServePolicy + 'l> {
        let runtime = RuntimeConfig::default();
        match self {
            Self::AdaFlow => Box::new(
                AdaFlowServePolicy::new(library, runtime)
                    .with_deadline(deadline_s)
                    .with_sink(sink.clone()),
            ),
            Self::FixedMax => Box::new(FixedMaxPolicy::new(library)),
            Self::FlexibleOnly => Box::new(FlexibleOnlyPolicy::new(library, runtime)),
            Self::PruningReconf { ms } => {
                Box::new(PruningReconfPolicy::new(library, Duration::from_millis(ms)))
            }
        }
    }

    /// The longest stall the policy can cause, seconds — SV002's backlog
    /// bound: a full reconfiguration, the largest weight reload, or none.
    #[must_use]
    pub fn worst_stall_s(self, library: &Library) -> f64 {
        let runtime = RuntimeConfig::default();
        match self {
            Self::AdaFlow => {
                let bitstream = &library.baseline.bitstream;
                let full = runtime.reconfig.reconfiguration_time(bitstream);
                full.as_secs_f64()
            }
            Self::FixedMax => 0.0,
            Self::FlexibleOnly => {
                let manager = RuntimeManager::new(library, runtime);
                let flexible = |i| (i, AcceleratorKind::FlexiblePruning);
                let reload = |(from, to)| manager.switch_price(flexible(from), flexible(to)).1;
                let n = library.entries().len();
                let pairs = (0..n).flat_map(|from| (0..n).map(move |to| (from, to)));
                pairs.map(reload).fold(0.0, f64::max)
            }
            Self::PruningReconf { ms } => Duration::from_millis(ms).as_secs_f64(),
        }
    }
}

/// The full AdaFlow Runtime Manager under pressure drive, with an optional
/// deadline-aware reconfiguration guard.
///
/// Without a deadline every manager decision is applied the instant it is
/// made — the fluid simulator's behaviour. At request granularity that is
/// wrong, because a reconfiguration stall taken while the queue is deep
/// pushes every queued request past its deadline. With a deadline
/// configured (see [`Self::with_deadline`]), the policy separates the
/// manager's *target* from the *live* fabric state:
///
/// * capacity **upgrades** (higher throughput than the live state) are
///   applied immediately — they are what drains the backlog;
/// * any other switch is **deferred** unless it is deadline-safe: the
///   target must keep throughput headroom over demanded service rate (a
///   tier sized exactly to the current rate becomes a backlog trap on the
///   next rate jump), and the stall plus the backlog drain at the new rate
///   must fit inside the deadline;
/// * if the manager's target reverts to the live state before a safe
///   window opens (a transient lull), the stall is never paid at all.
///
/// Transition costs are always charged against the fabric state that is
/// physically live, not against the manager's bookkeeping, so a deferred
/// decision cannot turn a fabric change into a free weight reload. The
/// price itself is the manager's [`RuntimeManager::switch_price`].
#[derive(Debug, Clone)]
pub struct AdaFlowServePolicy<'l> {
    library: &'l Library,
    manager: RuntimeManager<'l>,
    deadline_s: Option<f64>,
    /// The library entry and serving state physically live on the fabric
    /// (flags and stall zeroed); `None` until the first consult.
    applied: Option<(usize, ServingState)>,
    /// Decayed peak of demanded service rate — what a capacity decision
    /// must stay safe against, since reversing it costs another stall.
    peak_demand_fps: f64,
    last_consult_s: f64,
}

impl<'l> AdaFlowServePolicy<'l> {
    /// Creates the policy from a library and runtime configuration. Without
    /// [`Self::with_deadline`], every manager decision is applied
    /// immediately, exactly like the fluid simulator.
    #[must_use]
    pub fn new(library: &'l Library, config: RuntimeConfig) -> Self {
        Self {
            library,
            manager: RuntimeManager::new(library, config),
            deadline_s: None,
            applied: None,
            peak_demand_fps: 0.0,
            last_consult_s: 0.0,
        }
    }

    /// Enables the deadline-aware reconfiguration guard for requests with
    /// the given end-to-end deadline (a non-positive deadline leaves it
    /// off).
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = (deadline_s > 0.0).then_some(deadline_s);
        self
    }

    /// Attaches a telemetry sink to the [`RuntimeManager`], which emits one
    /// `DecisionMade` event (with its stall accounting) per consult.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.manager = self.manager.with_sink(sink);
        self
    }

    /// The decision's serving state with the *physical* transition cost
    /// from `applied` (not the manager's internal books, which may have
    /// drifted ahead while decisions were deferred).
    fn target_state(&self, entry_index: usize, accelerator: AcceleratorKind) -> ServingState {
        let mut state = ServingState::steady(self.library, entry_index, accelerator);
        let Some((live_index, live)) = &self.applied else {
            return state; // the first image is resident
        };
        if live.model == state.model && live.accelerator == state.accelerator {
            return state;
        }
        let (switch, stall_s) = self
            .manager
            .switch_price((*live_index, live.accelerator), (entry_index, accelerator));
        state.model_switched = true;
        state.stall_s = stall_s;
        state.reconfigured = switch == SwitchKind::Reconfiguration;
        state
    }
}

/// Throughput headroom a non-upgrade switch must keep over the demand peak
/// before the guard lets capacity go: a tier sized to the current rate is
/// a backlog trap the moment the rate jumps again.
const SWITCH_HEADROOM: f64 = 1.15;

/// Decay horizon of the peak-demand tracker, seconds — roughly how long a
/// capacity decision stays binding (reversing it costs another stall).
const PEAK_WINDOW_S: f64 = 10.0;

/// Throughput gain factor above which a switch counts as a capacity
/// upgrade and bypasses the deadline guard.
const UPGRADE_MARGIN: f64 = 1.05;

/// Whether taking `state` now is deadline-safe: the target must keep
/// [`SWITCH_HEADROOM`] over the recent demand *peak* (the EWMA alone is
/// blind to the rate jumping back within the decision's lifetime), and the
/// worst-case wait — the head of the queue rides out the whole stall and
/// then drains at the *new* rate — must fit inside the deadline.
fn deadline_safe(
    state: &ServingState,
    signal: &PressureSignal,
    peak_demand_fps: f64,
    deadline_s: f64,
) -> bool {
    let new_fps = state.throughput_fps.max(1.0);
    if new_fps < SWITCH_HEADROOM * signal.demand_fps().max(peak_demand_fps) {
        return false;
    }
    state.stall_s + signal.queue_depth / new_fps <= deadline_s
}

impl ServePolicy for AdaFlowServePolicy<'_> {
    fn name(&self) -> &str {
        "adaflow"
    }

    fn on_pressure(&mut self, now_s: f64, signal: &PressureSignal) -> ServingState {
        let dt = (now_s - self.last_consult_s).max(0.0);
        self.last_consult_s = now_s;
        self.peak_demand_fps =
            (self.peak_demand_fps * (-dt / PEAK_WINDOW_S).exp()).max(signal.demand_fps());
        let decision = self.manager.decide_from_pressure(now_s, signal);
        debug_assert!(
            decision.switch == SwitchKind::None || decision.stall_s >= 0.0,
            "manager stalls are non-negative"
        );
        let state = self.target_state(decision.entry_index, decision.accelerator);
        if let (Some(deadline), Some((_, live))) = (self.deadline_s, &self.applied) {
            // A fabric-only move for the model already being served is
            // strictly dominated: identical accuracy, near-identical
            // throughput, and a full reconfiguration stall.
            if state.reconfigured && state.model == live.model {
                return live.clone();
            }
            // Only a material capacity gain justifies stalling without the
            // safety check; marginal "upgrades" (e.g. the ~0.5 % fixed-vs-
            // flexible gap) go through the guard like any other switch.
            let upgrade = state.throughput_fps > live.throughput_fps * UPGRADE_MARGIN;
            if !upgrade && !deadline_safe(&state, signal, self.peak_demand_fps, deadline) {
                return live.clone();
            }
        }
        self.applied = Some((decision.entry_index, state.held()));
        state
    }
}

/// The static baseline: the unpruned maximum-accuracy model on the original
/// FINN accelerator, resident for the whole run.
#[derive(Debug, Clone)]
pub struct FixedMaxPolicy<'l> {
    library: &'l Library,
}

impl<'l> FixedMaxPolicy<'l> {
    /// Creates the baseline over a library (uses only its baseline
    /// accelerator and unpruned accuracy).
    #[must_use]
    pub fn new(library: &'l Library) -> Self {
        Self { library }
    }
}

impl ServePolicy for FixedMaxPolicy<'_> {
    fn name(&self) -> &str {
        "fixed-max"
    }

    fn on_pressure(&mut self, _now_s: f64, _signal: &PressureSignal) -> ServingState {
        let baseline = &self.library.baseline;
        ServingState {
            throughput_fps: baseline.throughput_fps,
            stall_s: 0.0,
            accuracy: self.library.base_accuracy(),
            power: baseline.power,
            activity: 1.0,
            model: self.library.initial_model.clone(),
            accelerator: AcceleratorKind::Finn,
            model_switched: false,
            reconfigured: false,
        }
    }
}

/// Model switching pinned to the flexible fabric: every switch streams new
/// weights over the PS-PL bus (fast, but the fabric's worst-case sizing
/// costs throughput on every model).
#[derive(Debug, Clone)]
pub struct FlexibleOnlyPolicy<'l> {
    library: &'l Library,
    manager: RuntimeManager<'l>,
    current: Option<usize>,
}

impl<'l> FlexibleOnlyPolicy<'l> {
    /// Creates the policy; model selection reuses the Runtime Manager's
    /// accuracy-threshold logic restricted to the flexible fabric.
    #[must_use]
    pub fn new(library: &'l Library, config: RuntimeConfig) -> Self {
        Self {
            library,
            manager: RuntimeManager::new(library, config),
            current: None,
        }
    }
}

impl ServePolicy for FlexibleOnlyPolicy<'_> {
    fn name(&self) -> &str {
        "flexible-only"
    }

    fn on_pressure(&mut self, _now_s: f64, signal: &PressureSignal) -> ServingState {
        let kind = AcceleratorKind::FlexiblePruning;
        let idx = self.manager.select_model(signal.demand_fps(), kind);
        let mut state = ServingState::steady(self.library, idx, kind);
        if let Some(current) = self.current {
            // Service stalls while the new weights stream over the bus.
            let (switch, stall_s) = self.manager.switch_price((current, kind), (idx, kind));
            state.stall_s = stall_s;
            state.model_switched = switch != SwitchKind::None;
        }
        self.current = Some(idx);
        state
    }
}

/// The Fig. 1(b) policy: model switching restricted to fixed accelerators,
/// paying a configurable reconfiguration time per switch.
#[derive(Debug, Clone)]
pub struct PruningReconfPolicy<'l> {
    library: &'l Library,
    manager: RuntimeManager<'l>,
    reconfiguration_time: Duration,
    current: Option<usize>,
}

impl<'l> PruningReconfPolicy<'l> {
    /// Creates the policy with the paper's default 10 % accuracy threshold
    /// and an explicit reconfiguration time (0 ms models the ideal switch).
    #[must_use]
    pub fn new(library: &'l Library, reconfiguration_time: Duration) -> Self {
        Self {
            library,
            manager: RuntimeManager::new(library, RuntimeConfig::default()),
            reconfiguration_time,
            current: None,
        }
    }
}

impl ServePolicy for PruningReconfPolicy<'_> {
    fn name(&self) -> &str {
        "pruning-reconf"
    }

    fn on_pressure(&mut self, _now_s: f64, signal: &PressureSignal) -> ServingState {
        let kind = AcceleratorKind::FixedPruning;
        let idx = self.manager.select_model(signal.demand_fps(), kind);
        let mut state = ServingState::steady(self.library, idx, kind);
        if self.current.is_some_and(|current| current != idx) {
            state.stall_s = self.reconfiguration_time.as_secs_f64();
            state.model_switched = true;
            state.reconfigured = state.stall_s > 0.0;
        }
        self.current = Some(idx);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow::LibraryGenerator;
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

    fn signal(rate: f64, depth: f64) -> PressureSignal {
        PressureSignal {
            arrival_fps_ewma: rate,
            queue_depth: depth,
            drain_target_s: 0.5,
        }
    }

    #[test]
    fn fixed_max_never_switches() {
        let lib = library();
        let mut p = FixedMaxPolicy::new(&lib);
        let a = p.on_pressure(0.0, &signal(100.0, 0.0));
        let b = p.on_pressure(5.0, &signal(2000.0, 200.0));
        assert_eq!(a, b);
        assert!(!b.model_switched);
        assert_eq!(b.stall_s, 0.0);
        assert_eq!(b.accelerator, AcceleratorKind::Finn);
        assert_eq!(b.accuracy, lib.base_accuracy());
    }

    /// The fluid simulator's `finn` policy is fixed-max fed nominal signals.
    #[test]
    fn finn_policy_is_static() {
        let lib = library();
        let mut p = FixedMaxPolicy::new(&lib);
        let a = p.on_pressure(0.0, &PressureSignal::nominal(100.0));
        let b = p.on_pressure(5.0, &PressureSignal::nominal(1000.0));
        assert_eq!(a.throughput_fps, b.throughput_fps);
        assert_eq!(b.stall_s, 0.0);
        assert!(!b.model_switched);
        assert_eq!(a.accuracy, lib.base_accuracy());
    }

    #[test]
    fn flexible_only_stays_on_flexible_fabric() {
        let lib = library();
        let mut p = FlexibleOnlyPolicy::new(&lib, RuntimeConfig::default());
        let low = p.on_pressure(0.0, &signal(100.0, 0.0));
        let high = p.on_pressure(1.0, &signal(900.0, 100.0));
        assert_eq!(low.accelerator, AcceleratorKind::FlexiblePruning);
        assert_eq!(high.accelerator, AcceleratorKind::FlexiblePruning);
        assert!(!high.reconfigured, "flexible switches never reconfigure");
        if high.model_switched {
            assert!(high.stall_s > 0.0, "weight reload takes bus time");
            assert!(high.stall_s < 0.05, "weight reload must be fast");
            assert!(high.is_flexible_switch());
        }
        assert!(PolicyKind::FlexibleOnly.worst_stall_s(&lib) > 0.0);
    }

    #[test]
    fn reconf_policy_pays_for_switches() {
        let lib = library();
        let mut p = PruningReconfPolicy::new(&lib, Duration::from_millis(290));
        let base_fps = lib.unpruned().fixed.throughput_fps;
        let first = p.on_pressure(0.0, &PressureSignal::nominal(100.0));
        assert_eq!(first.stall_s, 0.0, "initial image resident");
        let up = p.on_pressure(5.0, &PressureSignal::nominal(base_fps * 1.4));
        assert!(up.model_switched && up.reconfigured);
        assert!((up.stall_s - 0.29).abs() < 1e-9);
        let same = p.on_pressure(10.0, &PressureSignal::nominal(base_fps * 1.35));
        assert!(!same.model_switched);
        assert_eq!(same.stall_s, 0.0);
    }

    #[test]
    fn zero_ms_fixed_switches_are_not_flexible() {
        let lib = library();
        let mut p = PruningReconfPolicy::new(&lib, Duration::ZERO);
        let base_fps = lib.unpruned().fixed.throughput_fps;
        p.on_pressure(0.0, &PressureSignal::nominal(100.0));
        let up = p.on_pressure(5.0, &PressureSignal::nominal(base_fps * 1.4));
        assert!(up.model_switched);
        assert!(!up.reconfigured, "a 0 ms switch stalls nothing");
        assert!(!up.is_flexible_switch(), "it is still a fixed switch");
    }

    #[test]
    fn adaflow_backlog_escalates_model_choice() {
        let lib = library();
        let mut a = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let mut b = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let calm = a.on_pressure(0.0, &signal(430.0, 0.0));
        // Same arrival rate but a deep backlog: pressure demands drain
        // capacity, so the selected model must be at least as fast.
        let pressed = b.on_pressure(0.0, &signal(430.0, 200.0));
        assert!(pressed.throughput_fps >= calm.throughput_fps);
    }

    #[test]
    fn adaflow_first_load_is_free() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let s = p.on_pressure(0.0, &signal(600.0, 0.0));
        assert_eq!(s.stall_s, 0.0);
        assert!(!s.model_switched);
    }

    /// AdaFlow's first load is free, like every baseline's.
    #[test]
    fn adaflow_first_load_is_free_like_baselines() {
        let lib = library();
        let mut policies: [Box<dyn ServePolicy>; 4] = [
            Box::new(AdaFlowServePolicy::new(&lib, RuntimeConfig::default())),
            Box::new(FixedMaxPolicy::new(&lib)),
            Box::new(FlexibleOnlyPolicy::new(&lib, RuntimeConfig::default())),
            Box::new(PruningReconfPolicy::new(&lib, Duration::from_millis(145))),
        ];
        for p in &mut policies {
            let s = p.on_pressure(0.0, &PressureSignal::nominal(600.0));
            assert_eq!(s.stall_s, 0.0, "{}", p.name());
            assert!(!s.model_switched && !s.reconfigured, "{}", p.name());
        }
    }

    #[test]
    fn adaflow_policy_uses_flexible_under_rapid_change() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        p.on_pressure(0.0, &PressureSignal::nominal(100.0));
        // First switch establishes the cadence (fixed), second goes
        // flexible, third is a fast in-fabric switch.
        p.on_pressure(0.4, &PressureSignal::nominal(base_fps * 1.4));
        let d = p.on_pressure(0.8, &PressureSignal::nominal(100.0));
        assert_eq!(d.accelerator, AcceleratorKind::FlexiblePruning);
        let d2 = p.on_pressure(1.2, &PressureSignal::nominal(base_fps * 1.4));
        assert_eq!(d2.accelerator, AcceleratorKind::FlexiblePruning);
        assert!(d2.stall_s < 0.005, "flexible switch must be fast");
        assert!(d2.model_switched);
        assert!(!d2.reconfigured);
        assert!(d2.is_flexible_switch());
    }

    #[test]
    fn flexible_power_uses_flexible_fabric() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let base_fps = lib.unpruned().fixed.throughput_fps;
        p.on_pressure(0.0, &PressureSignal::nominal(100.0));
        p.on_pressure(0.4, &PressureSignal::nominal(base_fps * 1.4));
        p.on_pressure(0.8, &PressureSignal::nominal(100.0));
        // Pruned model loaded on the flexible fabric.
        let d = p.on_pressure(1.2, &PressureSignal::nominal(base_fps * 1.4));
        assert_eq!(d.accelerator, AcceleratorKind::FlexiblePruning);
        // Flexible fabric's peak dynamic power exceeds any fixed one's.
        assert!(
            d.power.peak_dynamic_w() > lib.baseline.power.peak_dynamic_w(),
            "flexible fabric should be the power-hungriest"
        );
        assert!(
            d.activity < 1.0,
            "pruned model leaves fabric partially idle"
        );
    }

    #[test]
    fn deadline_guard_blocks_downswitch_under_recent_peak() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default()).with_deadline(0.25);
        // High demand pins a fast tier; a brief lull must NOT give the
        // capacity back — the decayed peak says the rate can jump again
        // within the decision's lifetime.
        let fast = p.on_pressure(0.0, &signal(620.0, 10.0));
        let lull = p.on_pressure(0.5, &signal(380.0, 0.0));
        assert_eq!(lull.model, fast.model, "capacity surrendered in a lull");
        assert_eq!(lull.stall_s, 0.0);
        assert!(!lull.model_switched);
        assert!(!lull.reconfigured);
    }

    #[test]
    fn deadline_guard_lets_capacity_upgrades_through() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default()).with_deadline(0.25);
        let low = p.on_pressure(0.0, &signal(430.0, 0.0));
        // Demand far beyond the live tier: the upgrade must apply
        // immediately, stall and all.
        let high = p.on_pressure(0.5, &signal(900.0, 150.0));
        assert!(high.throughput_fps > low.throughput_fps);
        assert!(high.model_switched);
        assert!(high.stall_s > 0.0, "a real fabric change costs a stall");
    }

    #[test]
    fn unguarded_policy_applies_manager_decisions_directly() {
        let lib = library();
        let mut p = AdaFlowServePolicy::new(&lib, RuntimeConfig::default());
        let fast = p.on_pressure(0.0, &signal(620.0, 10.0));
        // Without a deadline the lull decision is applied as decided, like
        // the fluid simulator does.
        let lull = p.on_pressure(0.5, &signal(380.0, 0.0));
        assert_ne!(lull.model, fast.model, "manager adapts on the lull");
        assert!(lull.model_switched);
    }

    const KINDS: [PolicyKind; 5] = [
        PolicyKind::AdaFlow,
        PolicyKind::FixedMax,
        PolicyKind::FlexibleOnly,
        PolicyKind::PruningReconf { ms: 145 },
        PolicyKind::PruningReconf { ms: 0 },
    ];

    /// Every spelling `--policy` and `--fleet` accept resolves to its
    /// policy (aliases included); nothing else does.
    #[test]
    fn every_former_spelling_resolves_to_its_policy() {
        let spellings = [
            ("adaflow", PolicyKind::AdaFlow),
            ("fixed-max", PolicyKind::FixedMax),
            ("fixed", PolicyKind::FixedMax),
            ("finn", PolicyKind::FixedMax),
            ("flexible-only", PolicyKind::FlexibleOnly),
            ("flexible", PolicyKind::FlexibleOnly),
            ("reconf:145", PolicyKind::PruningReconf { ms: 145 }),
            ("reconf:0", PolicyKind::PruningReconf { ms: 0 }),
            ("reconf:+362", PolicyKind::PruningReconf { ms: 362 }),
        ];
        for (text, kind) in spellings {
            assert_eq!(PolicyKind::parse(text), Some(kind), "{text}");
        }
        for text in [
            "",
            "turbo",
            "gpu",
            "Adaflow",
            " fixed",
            "reconf:",
            "reconf:x",
            "reconf:-1",
        ] {
            assert_eq!(PolicyKind::parse(text), None, "{text:?}");
        }
    }

    #[test]
    fn names_parse_back_and_builds_keep_their_summary_names() {
        let lib = library();
        let built = [
            "adaflow",
            "fixed-max",
            "flexible-only",
            "pruning-reconf",
            "pruning-reconf",
        ];
        let named = [
            "adaflow",
            "fixed-max",
            "flexible-only",
            "reconf:145",
            "reconf:0",
        ];
        for ((kind, built), named) in KINDS.into_iter().zip(built).zip(named) {
            assert_eq!(PolicyKind::parse(&kind.name()), Some(kind));
            assert_eq!(kind.name(), named);
            let sink = SinkHandle::null();
            assert_eq!(kind.build(&lib, 0.25, &sink).name(), built, "{named}");
        }
    }

    /// The SV002 stall bounds on the default library, pinned bit for bit.
    #[test]
    fn worst_stalls_are_the_former_bounds() {
        let lib = library();
        // 145 ms, the baseline bitstream's full reconfiguration on the
        // ZCU104; ~0.32 ms, the largest flexible weight reload.
        let (reconfiguration, reload) = (0x3fc2_8f5c_28f5_c28f, 0x3f35_10a5_057a_2f0d);
        let former = [reconfiguration, 0, reload, reconfiguration, 0];
        for (kind, bits) in KINDS.into_iter().zip(former) {
            let stall_s = kind.worst_stall_s(&lib);
            assert_eq!(stall_s.to_bits(), bits, "{}: {stall_s}", kind.name());
        }
    }
}
