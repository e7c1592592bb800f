//! The Edge server simulation: a fluid queue with finite buffer, service
//! stalls and power integration.

use crate::metrics::{RunMetrics, TracePoint};
use crate::policy::{ServePolicy, ServingState};
use crate::workload::WorkloadSegment;
use adaflow::PressureSignal;
use adaflow_telemetry::{EventKind, LogHistogram, SinkHandle};

/// Integration / trace step in seconds.
const STEP_S: f64 = 0.01;

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Frame buffer capacity in frames (requests queued beyond it are
    /// dropped). Defaults to 64 (~100 ms at the nominal 600 FPS).
    pub buffer_frames: f64,
    /// Whether to record a trace (one [`TracePoint`] per step).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            buffer_frames: 64.0,
            record_trace: false,
        }
    }
}

/// The Edge serving simulator.
#[derive(Debug, Clone, Default)]
pub struct EdgeSim {
    config: SimConfig,
    sink: SinkHandle,
}

impl EdgeSim {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            config,
            sink: SinkHandle::default(),
        }
    }

    /// Attaches a telemetry sink; the simulator emits frame-arrival,
    /// frame-drop, queue-depth and stall-span events, plus the model-switch
    /// and reconfiguration events of every serving state the policy
    /// establishes, stamped with the simulation clock. With the default
    /// [`SinkHandle::null`] the instrumentation reduces to a branch per
    /// step.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Runs one serving simulation of `policy` against a piecewise-constant
    /// workload, returning metrics and (if enabled) the trace. The policy
    /// is consulted at the start of every segment with the segment's rate
    /// as a [`PressureSignal::nominal`] — the oracle the fluid model
    /// grants.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or the configured step is not positive.
    #[must_use]
    pub fn run(
        &self,
        policy: &mut dyn ServePolicy,
        segments: &[WorkloadSegment],
    ) -> (RunMetrics, Vec<TracePoint>) {
        assert!(!segments.is_empty(), "workload must have segments");
        let buffer = self.config.buffer_frames;

        let mut q = 0.0f64;
        let mut offered = 0.0f64;
        let mut processed = 0.0f64;
        let mut dropped = 0.0f64;
        let mut energy = 0.0f64;
        let mut queue_time_integral = 0.0f64; // frames x seconds
        let mut service_rate_integral = 0.0f64; // FPS x seconds (capacity)
        let mut qoe_num = 0.0f64; // accuracy-weighted processed frames
        let mut acc_max = f64::MIN;
        let mut acc_min_serving = f64::MAX;
        let mut switches = 0.0;
        let mut reconfigs = 0.0;
        let mut flex_switches = 0.0;
        let mut trace = Vec::new();
        let mut latency_hist = LogHistogram::latency_s();
        let telemetry = self.sink.enabled();

        let mut stall_until = 0.0f64;
        let mut serving: Option<ServingState> = None;
        for segment in segments {
            let next = policy.on_pressure(segment.start_s, &PressureSignal::nominal(segment.fps));
            if telemetry {
                let from = serving.as_ref().unwrap_or(&next);
                emit_transition_events(&self.sink, segment.start_s, &from.model, &next);
            }
            let state = serving.insert(next);
            if state.model_switched {
                switches += 1.0;
            }
            if state.reconfigured {
                reconfigs += 1.0;
            }
            if state.is_flexible_switch() {
                flex_switches += 1.0;
            }
            acc_max = acc_max.max(state.accuracy);
            if state.stall_s > 0.0 {
                stall_until = segment.start_s + state.stall_s;
                if telemetry {
                    self.sink.emit(
                        segment.start_s,
                        EventKind::SpanBegin {
                            name: "stall".to_string(),
                        },
                    );
                    self.sink.emit(
                        stall_until,
                        EventKind::SpanEnd {
                            name: "stall".to_string(),
                        },
                    );
                }
            }

            // Integrate the segment in fixed steps, with exact fluid
            // arithmetic inside each step.
            let end = segment.start_s + segment.duration_s;
            let mut t = segment.start_s;
            while t < end - 1e-12 {
                let dt = STEP_S.min(end - t);
                let lambda = segment.fps;
                // Service is suspended while the stall lasts; a stall
                // boundary inside the step is handled by splitting.
                let (dt_stalled, dt_active) = if t >= stall_until {
                    (0.0, dt)
                } else if t + dt <= stall_until {
                    (dt, 0.0)
                } else {
                    (stall_until - t, t + dt - stall_until)
                };

                for (phase_dt, mu) in [(dt_stalled, 0.0), (dt_active, state.throughput_fps)] {
                    if phase_dt <= 0.0 {
                        continue;
                    }
                    offered += lambda * phase_dt;
                    let (served, overflow, q1) = fluid_step(q, lambda, mu, phase_dt, buffer);
                    processed += served;
                    dropped += overflow;
                    queue_time_integral += 0.5 * (q + q1) * phase_dt;
                    service_rate_integral += mu * phase_dt;
                    if served > 0.0 && mu > 0.0 {
                        // Sojourn estimate for frames served in this phase:
                        // mean queueing delay at the phase's average depth
                        // plus one service time, weighted by frames served.
                        let sojourn_s = 0.5 * (q + q1) / mu + 1.0 / mu;
                        latency_hist.record_weighted(sojourn_s, served);
                    }
                    if telemetry {
                        self.sink.emit(
                            t,
                            EventKind::FrameArrived {
                                count: lambda * phase_dt,
                            },
                        );
                        if overflow > 1e-12 {
                            self.sink.emit(
                                t,
                                EventKind::FrameDropped {
                                    count: overflow,
                                    queue_frames: q1,
                                },
                            );
                        }
                    }
                    q = q1;
                    qoe_num += served * state.accuracy;
                    if served > 0.0 {
                        acc_min_serving = acc_min_serving.min(state.accuracy);
                    }
                    let duty = if mu > 0.0 {
                        (served / phase_dt / mu).min(1.0)
                    } else {
                        0.0
                    };
                    energy += state.power.power(duty, state.activity).total_w * phase_dt;
                }

                t += dt;
                if telemetry {
                    self.sink.emit(t, EventKind::QueueDepth { frames: q });
                }
                if self.config.record_trace {
                    let loss_so_far = dropped / offered.max(1e-12) * 100.0;
                    trace.push(TracePoint {
                        t_s: t,
                        workload_fps: lambda,
                        throughput_fps: if t < stall_until {
                            0.0
                        } else {
                            state.throughput_fps
                        },
                        queue_frames: q,
                        cumulative_loss_pct: loss_so_far,
                        cumulative_qoe_pct: qoe_num / offered.max(1e-12),
                        model: state.model.clone(),
                        accelerator: state.accelerator.short_name().to_string(),
                    });
                }
            }
        }

        // Frames still queued at the end of the window were not served.
        let lost = dropped + q;
        let duration: f64 = segments.iter().map(|s| s.duration_s).sum();
        let mean_queue = queue_time_integral / duration.max(1e-12);
        // Little's law: mean queueing delay = mean queue / throughput of
        // processed frames; plus one service time of the time-averaged
        // serving capacity.
        let processed_rate = processed / duration.max(1e-12);
        let mean_capacity = service_rate_integral / duration.max(1e-12);
        let mean_latency_s = if processed_rate > 0.0 && mean_capacity > 0.0 {
            mean_queue / processed_rate + 1.0 / mean_capacity
        } else {
            0.0
        };
        let metrics = RunMetrics {
            offered,
            processed,
            lost,
            frame_loss_pct: lost / offered.max(1e-12) * 100.0,
            qoe_pct: qoe_num / offered.max(1e-12),
            mean_accuracy_pct: qoe_num / processed.max(1e-12),
            max_accuracy_drop: if acc_min_serving <= acc_max {
                acc_max - acc_min_serving
            } else {
                0.0
            },
            avg_power_w: energy / duration.max(1e-12),
            energy_j: energy,
            inferences_per_joule: processed / energy.max(1e-12),
            model_switches: switches,
            reconfigurations: reconfigs,
            flexible_switches: flex_switches,
            mean_queue_frames: mean_queue,
            mean_latency_ms: mean_latency_s * 1e3,
            latency_p50_ms: latency_hist.p50() * 1e3,
            latency_p95_ms: latency_hist.p95() * 1e3,
            latency_p99_ms: latency_hist.p99() * 1e3,
        };
        (metrics, trace)
    }
}

/// Emits the events a freshly established serving state implies: a
/// [`EventKind::ModelSwitch`] from the previous state's model when the
/// model changed, and a [`EventKind::ReconfigStart`] / [`EventKind::ReconfigEnd`]
/// pair spanning the stall when the FPGA was reconfigured.
fn emit_transition_events(sink: &SinkHandle, now_s: f64, from: &str, state: &ServingState) {
    if state.model_switched {
        sink.emit(
            now_s,
            EventKind::ModelSwitch {
                from: from.to_string(),
                to: state.model.clone(),
                flexible: state.is_flexible_switch(),
            },
        );
    }
    if state.reconfigured {
        sink.emit(
            now_s,
            EventKind::ReconfigStart {
                model: state.model.clone(),
            },
        );
        sink.emit(
            now_s + state.stall_s,
            EventKind::ReconfigEnd {
                model: state.model.clone(),
                stall_s: state.stall_s,
            },
        );
    }
}

/// Exact fluid-queue step: arrival rate `lambda`, service rate `mu`,
/// initial queue `q0`, horizon `dt`, buffer `b`.
///
/// Returns `(served, overflow, q1)`.
fn fluid_step(q0: f64, lambda: f64, mu: f64, dt: f64, b: f64) -> (f64, f64, f64) {
    if mu >= lambda {
        // Draining (or keeping up).
        let drain = mu - lambda;
        let t_empty = if drain > 0.0 {
            q0 / drain
        } else {
            f64::INFINITY
        };
        if dt <= t_empty {
            // Queue never empties: the server is saturated the whole step.
            (mu * dt, 0.0, q0 - drain * dt)
        } else {
            // Saturated until the queue empties, then serving at λ.
            let served = mu * t_empty + lambda * (dt - t_empty);
            (served, 0.0, 0.0)
        }
    } else {
        // Filling: served at μ throughout, queue grows to the buffer cap,
        // everything beyond overflows.
        let fill = lambda - mu;
        let t_full = (b - q0) / fill;
        if dt <= t_full {
            (mu * dt, 0.0, q0 + fill * dt)
        } else {
            (mu * dt, fill * (dt - t_full), b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaflow_hls::{PowerModel, ResourceEstimate};

    /// A scripted test policy serving at a constant rate.
    struct ConstPolicy {
        fps: f64,
        stall_on_change: f64,
        last_fps: Option<f64>,
    }

    impl ConstPolicy {
        fn new(fps: f64) -> Self {
            Self {
                fps,
                stall_on_change: 0.0,
                last_fps: None,
            }
        }
    }

    impl ServePolicy for ConstPolicy {
        fn name(&self) -> &str {
            "const"
        }

        fn on_pressure(&mut self, _now: f64, signal: &PressureSignal) -> ServingState {
            let incoming = signal.demand_fps();
            let changed = self.last_fps.is_some_and(|f| (f - incoming).abs() > 1e-9);
            self.last_fps = Some(incoming);
            ServingState {
                throughput_fps: self.fps,
                stall_s: if changed { self.stall_on_change } else { 0.0 },
                accuracy: 80.0,
                power: PowerModel::new(ResourceEstimate {
                    lut: 50_000,
                    ff: 50_000,
                    bram36: 100,
                    dsp: 0,
                }),
                activity: 1.0,
                model: "const".into(),
                accelerator: adaflow_dataflow::AcceleratorKind::Finn,
                model_switched: changed,
                reconfigured: false,
            }
        }
    }

    fn one_segment(fps: f64, duration: f64) -> Vec<WorkloadSegment> {
        vec![WorkloadSegment {
            start_s: 0.0,
            duration_s: duration,
            fps,
        }]
    }

    #[test]
    fn underload_has_no_loss() {
        let sim = EdgeSim::default();
        let (m, _) = sim.run(&mut ConstPolicy::new(500.0), &one_segment(300.0, 10.0));
        assert!(m.frame_loss_pct < 0.01, "loss {}", m.frame_loss_pct);
        assert!((m.offered - 3000.0).abs() < 1.0);
        assert!((m.processed - m.offered).abs() < 1.0);
    }

    #[test]
    fn overload_loss_matches_rate_gap() {
        let sim = EdgeSim::default();
        // 600 in, 400 out over 10 s: loss → (600−400)/600 = 33 % minus the
        // buffered tail.
        let (m, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(600.0, 10.0));
        assert!(
            (m.frame_loss_pct - 33.3).abs() < 1.0,
            "loss {}",
            m.frame_loss_pct
        );
    }

    #[test]
    fn qoe_is_accuracy_times_processed_fraction() {
        let sim = EdgeSim::default();
        let (m, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(600.0, 10.0));
        let expect = 80.0 * m.processed / m.offered;
        assert!((m.qoe_pct - expect).abs() < 1e-6);
        assert!((m.mean_accuracy_pct - 80.0).abs() < 1e-9);
    }

    #[test]
    fn stall_causes_extra_loss() {
        let mut no_stall = ConstPolicy::new(700.0);
        let mut with_stall = ConstPolicy::new(700.0);
        with_stall.stall_on_change = 1.0;
        let segments = vec![
            WorkloadSegment {
                start_s: 0.0,
                duration_s: 5.0,
                fps: 600.0,
            },
            WorkloadSegment {
                start_s: 5.0,
                duration_s: 5.0,
                fps: 660.0,
            },
        ];
        let sim = EdgeSim::default();
        let (a, _) = sim.run(&mut no_stall, &segments);
        let (b, _) = sim.run(&mut with_stall, &segments);
        assert!(
            b.frame_loss_pct > a.frame_loss_pct + 3.0,
            "{} vs {}",
            b.frame_loss_pct,
            a.frame_loss_pct
        );
    }

    #[test]
    fn frame_conservation() {
        // offered = processed + dropped + final queue, in every regime.
        let sim = EdgeSim::default();
        for (mu, lambda) in [(400.0, 600.0), (700.0, 600.0), (600.0, 600.0)] {
            let (m, _) = sim.run(&mut ConstPolicy::new(mu), &one_segment(lambda, 7.0));
            let balance = m.processed + m.lost;
            assert!(
                (balance - m.offered).abs() < 1e-6,
                "conservation violated: {balance} vs {}",
                m.offered
            );
        }
    }

    #[test]
    fn energy_scales_with_duty() {
        let sim = EdgeSim::default();
        let (busy, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(600.0, 10.0));
        let (idle, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(100.0, 10.0));
        assert!(busy.avg_power_w > idle.avg_power_w);
        assert!(idle.avg_power_w > 0.5, "static floor present");
    }

    #[test]
    fn latency_reflects_queueing() {
        let sim = EdgeSim::default();
        // Saturated server: queue pinned at the buffer -> latency is about
        // buffer/throughput + service.
        let (hot, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(600.0, 10.0));
        // Idle server: near-zero queue, latency ~ one service time (2.5 ms).
        let (cold, _) = sim.run(&mut ConstPolicy::new(400.0), &one_segment(100.0, 10.0));
        assert!(
            hot.mean_latency_ms > 100.0,
            "hot latency {}",
            hot.mean_latency_ms
        );
        assert!(
            cold.mean_latency_ms < 10.0,
            "cold latency {}",
            cold.mean_latency_ms
        );
        assert!(hot.mean_queue_frames > cold.mean_queue_frames);
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let sim = EdgeSim::new(SimConfig {
            record_trace: true,
            ..SimConfig::default()
        });
        let (_, trace) = sim.run(&mut ConstPolicy::new(500.0), &one_segment(300.0, 1.0));
        assert_eq!(trace.len(), 100);
        assert!(trace.iter().all(|p| p.workload_fps == 300.0));
        assert!(trace.last().expect("nonempty").t_s <= 1.0 + 1e-9);
    }

    #[test]
    fn fluid_step_drains_exactly() {
        // q0=10, λ=0, μ=5 over 4 s: empties after 2 s, serves 10 frames.
        let (served, overflow, q1) = fluid_step(10.0, 0.0, 5.0, 4.0, 100.0);
        assert!((served - 10.0).abs() < 1e-12);
        assert_eq!(overflow, 0.0);
        assert_eq!(q1, 0.0);
    }

    #[test]
    fn fluid_step_overflows_exactly() {
        // q0=0, λ=10, μ=0, buffer 5 over 2 s: 5 buffered, 15 dropped.
        let (served, overflow, q1) = fluid_step(0.0, 10.0, 0.0, 2.0, 5.0);
        assert_eq!(served, 0.0);
        assert!((overflow - 15.0).abs() < 1e-12);
        assert_eq!(q1, 5.0);
    }
}
