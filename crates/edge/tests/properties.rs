//! Property-based tests on workload generation and the serving simulation.

use adaflow::PressureSignal;
use adaflow_dataflow::AcceleratorKind;
use adaflow_edge::prelude::*;
use adaflow_hls::{PowerModel, ResourceEstimate};
use proptest::prelude::*;

/// A scripted constant-rate policy for simulation properties.
struct ConstPolicy {
    fps: f64,
    stall_on_change: f64,
    accuracy: f64,
    last: Option<f64>,
}

impl ServePolicy for ConstPolicy {
    fn name(&self) -> &str {
        "const"
    }

    fn on_pressure(&mut self, _now: f64, signal: &PressureSignal) -> ServingState {
        let incoming = signal.demand_fps();
        let changed = self.last.is_some_and(|f| (f - incoming).abs() > 1e-9);
        self.last = Some(incoming);
        ServingState {
            throughput_fps: self.fps,
            stall_s: if changed { self.stall_on_change } else { 0.0 },
            accuracy: self.accuracy,
            power: PowerModel::new(ResourceEstimate {
                lut: 50_000,
                ff: 50_000,
                bram36: 100,
                dsp: 0,
            }),
            activity: 1.0,
            model: "const".into(),
            accelerator: AcceleratorKind::Finn,
            model_switched: changed,
            reconfigured: false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Workload segments always tile the horizon exactly and respect the
    /// deviation bounds of their scenario.
    #[test]
    fn workload_tiles_and_bounds(seed in 0u64..5_000, dev in 0.05f64..0.9, period in 0.2f64..6.0) {
        let spec = WorkloadSpec {
            devices: 20,
            fps_per_device: 30.0,
            duration_s: 25.0,
            scenario: Scenario::Custom { deviation: dev, period_s: period },
        };
        let segments = spec.generate(seed);
        let mut t = 0.0;
        for s in &segments {
            prop_assert!((s.start_s - t).abs() < 1e-9);
            prop_assert!(s.fps >= 600.0 * (1.0 - dev) - 1e-6);
            prop_assert!(s.fps <= 600.0 * (1.0 + dev) + 1e-6);
            t += s.duration_s;
        }
        prop_assert!((t - 25.0).abs() < 1e-9);
    }

    /// Frame conservation holds for arbitrary service rates, stalls,
    /// buffers and workloads: offered = processed + lost.
    #[test]
    fn frame_conservation_universal(
        seed in 0u64..2_000,
        mu in 50.0f64..2_000.0,
        stall in 0.0f64..1.0,
        buffer in 1.0f64..512.0,
        dev in 0.1f64..0.9,
    ) {
        let spec = WorkloadSpec {
            devices: 20,
            fps_per_device: 30.0,
            duration_s: 10.0,
            scenario: Scenario::Custom { deviation: dev, period_s: 1.0 },
        };
        let segments = spec.generate(seed);
        let mut policy =
            ConstPolicy { fps: mu, stall_on_change: stall, accuracy: 80.0, last: None };
        let sim = EdgeSim::new(SimConfig { buffer_frames: buffer, ..SimConfig::default() });
        let (m, _) = sim.run(&mut policy, &segments);
        prop_assert!((m.processed + m.lost - m.offered).abs() < 1e-6,
            "conservation violated: {} + {} != {}", m.processed, m.lost, m.offered);
        prop_assert!(m.frame_loss_pct >= -1e-9 && m.frame_loss_pct <= 100.0 + 1e-9);
        // QoE is accuracy x processed share.
        let expect_qoe = 80.0 * m.processed / m.offered.max(1e-12);
        prop_assert!((m.qoe_pct - expect_qoe).abs() < 1e-6);
    }

    /// More service capacity never increases frame loss (fixed workload).
    #[test]
    fn capacity_monotone(seed in 0u64..1_000, mu in 100.0f64..900.0) {
        let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
        let segments = spec.generate(seed);
        let run = |fps: f64| {
            let mut p = ConstPolicy { fps, stall_on_change: 0.0, accuracy: 80.0, last: None };
            EdgeSim::default().run(&mut p, &segments).0
        };
        let slow = run(mu);
        let fast = run(mu + 200.0);
        prop_assert!(fast.frame_loss_pct <= slow.frame_loss_pct + 1e-6);
    }

    /// Stalls only ever hurt: loss with switching stalls >= loss without.
    #[test]
    fn stalls_never_help(seed in 0u64..1_000, stall in 0.01f64..0.5) {
        let spec = WorkloadSpec::paper_edge(Scenario::Unpredictable);
        let segments = spec.generate(seed);
        let run = |stall_s: f64| {
            let mut p =
                ConstPolicy { fps: 700.0, stall_on_change: stall_s, accuracy: 80.0, last: None };
            EdgeSim::default().run(&mut p, &segments).0
        };
        let clean = run(0.0);
        let stalled = run(stall);
        prop_assert!(stalled.frame_loss_pct >= clean.frame_loss_pct - 1e-9);
        prop_assert!(stalled.qoe_pct <= clean.qoe_pct + 1e-9);
    }

    /// Energy accounting: average power is bounded by static power below
    /// and static + peak dynamic above.
    #[test]
    fn power_bounds(seed in 0u64..1_000, mu in 100.0f64..2_000.0) {
        let spec = WorkloadSpec::paper_edge(Scenario::Stable);
        let segments = spec.generate(seed);
        let mut p = ConstPolicy { fps: mu, stall_on_change: 0.0, accuracy: 80.0, last: None };
        let (m, _) = EdgeSim::default().run(&mut p, &segments);
        let model = PowerModel::new(ResourceEstimate {
            lut: 50_000,
            ff: 50_000,
            bram36: 100,
            dsp: 0,
        });
        prop_assert!(m.avg_power_w >= adaflow_hls::power::STATIC_POWER_W - 1e-9);
        prop_assert!(m.avg_power_w <= model.power(1.0, 1.0).total_w + 1e-9);
    }
}
