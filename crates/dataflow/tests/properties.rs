//! Property-based tests on the streaming model and folding arithmetic.

use adaflow_dataflow::{size_fifos, AcceleratorKind, DataflowAccelerator, StreamSimulator};
use adaflow_model::prelude::*;
use adaflow_pruning::FinnConfig;
use adaflow_verify::{rate_balance_uniform, Stage};
use proptest::prelude::*;

/// A compiled accelerator drawn from the small builtins: tiny or LeNet,
/// W1A2 or W2A2, any class count, any of the three accelerator kinds.
fn arb_accel() -> impl Strategy<Value = DataflowAccelerator> {
    (0usize..2, proptest::bool::ANY, 2usize..10, 0usize..3).prop_map(
        |(model, w1, classes, kind)| {
            let quant = if w1 {
                QuantSpec::w1a2()
            } else {
                QuantSpec::w2a2()
            };
            let graph = match model {
                0 => topology::tiny(quant, classes),
                _ => topology::lenet(quant, classes),
            }
            .expect("builds");
            let cfg = FinnConfig::auto(&graph).expect("auto");
            let kind = [
                AcceleratorKind::Finn,
                AcceleratorKind::FixedPruning,
                AcceleratorKind::FlexiblePruning,
            ][kind];
            DataflowAccelerator::compile(&graph, &cfg, kind).expect("compiles")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The DF004 closed form is the simulator's steady state: for any chain
    /// and uniform FIFO depth, `max(max c_i, max ⌈(c_i + c_{i+1}) / d⌉)`
    /// equals the II the max-plus recurrence settles to within 48 frames.
    #[test]
    fn closed_form_ii_is_the_simulated_ii(
        cycles in proptest::collection::vec(1u64..=1000, 1..=12),
        depth in 1usize..=4,
    ) {
        let stages: Vec<Stage> = cycles
            .iter()
            .enumerate()
            .map(|(i, &c)| Stage::new(format!("s{i}"), c))
            .collect();
        let simulated = StreamSimulator::from_cycles(cycles.clone(), depth, 1_000).run(48);
        prop_assert_eq!(
            rate_balance_uniform(&stages, depth).steady_ii,
            simulated.observed_ii,
            "cycles {:?} at depth {}",
            cycles,
            depth,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DF003's closed-form depth is what the simulator needs: at that depth
    /// the pipeline streams at the analytic II, and the first frame leaves
    /// after exactly the sum of module cycles.
    #[test]
    fn sized_depth_simulates_to_the_analytic_ii(accel in arb_accel()) {
        let sizing = size_fifos(&accel);
        prop_assert!(sizing.depth <= 2, "depth {}", sizing.depth);
        let simulated = StreamSimulator::new(&accel, sizing.depth).run(48);
        prop_assert_eq!(simulated.observed_ii, accel.initiation_interval());
        prop_assert_eq!(simulated.first_frame_cycles, accel.latency_cycles());
        prop_assert_eq!(sizing.fill_latency, simulated.first_frame_cycles);
        let depth1 = StreamSimulator::new(&accel, 1).run(48);
        prop_assert_eq!(sizing.depth1_ii, depth1.observed_ii);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any pipeline with depth-2 FIFOs, the observed steady-state II is
    /// the bottleneck module's cycle count, and the makespan follows the
    /// classic fill + (n-1)·II law once the prefix of the bottleneck is
    /// accounted for.
    #[test]
    fn stream_ii_is_bottleneck(
        cycles in proptest::collection::vec(1u64..500, 1..8),
        frames in 2usize..32,
    ) {
        let bottleneck = *cycles.iter().max().expect("nonempty");
        let sim = StreamSimulator::from_cycles(cycles.clone(), 2, 1_000_000);
        let stats = sim.run(frames);
        prop_assert_eq!(stats.observed_ii, bottleneck);
        // Fill latency is at least the sum of module cycles.
        let fill: u64 = cycles.iter().sum();
        prop_assert!(stats.first_frame_cycles >= fill);
        // Makespan bounded below by the bottleneck serving every frame and
        // above by fully serial execution.
        prop_assert!(stats.makespan_cycles >= bottleneck * frames as u64);
        prop_assert!(stats.makespan_cycles <= fill * frames as u64);
    }

    /// Deeper FIFOs never hurt: makespan is non-increasing in depth.
    #[test]
    fn deeper_fifos_never_slower(
        cycles in proptest::collection::vec(1u64..200, 2..6),
        depth in 1usize..6,
    ) {
        let shallow = StreamSimulator::from_cycles(cycles.clone(), depth, 1_000).run(24);
        let deep = StreamSimulator::from_cycles(cycles, depth + 1, 1_000).run(24);
        prop_assert!(deep.makespan_cycles <= shallow.makespan_cycles);
    }

    /// Compiled accelerators: throughput in FPS equals clock / II, and the
    /// streaming simulation at the sized FIFO depth reaches exactly that II.
    #[test]
    fn sized_pipeline_reaches_analytic_throughput(
        classes in 2usize..8,
        w1 in proptest::bool::ANY,
    ) {
        let quant = if w1 { QuantSpec::w1a2() } else { QuantSpec::w2a2() };
        let graph = topology::tiny(quant, classes).expect("builds");
        let cfg = FinnConfig::auto(&graph).expect("auto");
        let accel =
            DataflowAccelerator::compile(&graph, &cfg, AcceleratorKind::Finn).expect("compiles");
        let sizing = size_fifos(&accel);
        prop_assert_eq!(sizing.achieved_ii, accel.initiation_interval());
        let fps = accel.clock_hz() as f64 / accel.initiation_interval() as f64;
        prop_assert!((accel.throughput_fps() - fps).abs() < 1e-9);
    }

    /// Flexible compilation never loses modules, and every flexible module's
    /// cycles are >= its fixed counterpart's (the calibrated overhead).
    #[test]
    fn flexible_cycles_dominate_fixed(classes in 2usize..8) {
        let graph = topology::tiny(QuantSpec::w2a2(), classes).expect("builds");
        let cfg = FinnConfig::auto(&graph).expect("auto");
        let fixed = DataflowAccelerator::compile(&graph, &cfg, AcceleratorKind::FixedPruning)
            .expect("compiles");
        let flex = DataflowAccelerator::compile(&graph, &cfg, AcceleratorKind::FlexiblePruning)
            .expect("compiles");
        prop_assert_eq!(fixed.modules().len(), flex.modules().len());
        for (f, x) in fixed.modules().iter().zip(flex.modules()) {
            prop_assert!(x.cycles_per_frame() >= f.cycles_per_frame(), "module {}", f.name);
        }
    }
}
