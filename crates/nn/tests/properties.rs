//! Property-based tests on the inference engine and datasets.

use adaflow_model::prelude::*;
use adaflow_nn::prelude::*;
use proptest::prelude::*;

fn random_image(shape: TensorShape, seed: u64) -> Activations {
    let mut img = Activations::zeroed(shape);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in img.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = (state % 256) as u8;
    }
    img
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine is a pure function: identical inputs give identical
    /// outputs, across strategies.
    #[test]
    fn engine_is_deterministic(classes in 2usize..8, seed in 0u64..1000) {
        let graph = topology::tiny(QuantSpec::w2a2(), classes).expect("builds");
        let img = random_image(graph.input_shape(), seed);
        let auto = Engine::new(&graph).expect("engine");
        let strategy = |s| Engine::new(&graph).expect("engine").with_strategy(s);
        let a = auto.run(&img).expect("runs");
        let b = auto.run(&img).expect("runs");
        prop_assert_eq!(&a, &b);
        for s in [ConvStrategy::Direct, ConvStrategy::Im2col] {
            prop_assert_eq!(&a, &strategy(s).run(&img).expect("runs"), "{:?}", s);
        }
        prop_assert!(a.label < classes);
        prop_assert_eq!(a.logits.len(), classes);
    }

    /// The predicted label always maximizes the logits.
    #[test]
    fn label_is_argmax_of_logits(seed in 0u64..500) {
        let graph = topology::tiny(QuantSpec::w1a2(), 6).expect("builds");
        let engine = Engine::new(&graph).expect("engine");
        let result = engine.run(&random_image(graph.input_shape(), seed)).expect("runs");
        let max = result.logits.iter().max().copied().expect("nonempty");
        prop_assert_eq!(result.logits[result.label], max);
    }

    /// Dataset samples: labels in range, pixels defined, deterministic in
    /// (seed, index), distinct across indices with overwhelming likelihood.
    #[test]
    fn dataset_sample_invariants(
        classes in 1usize..16,
        seed in 0u64..1000,
        index in 0u64..10_000,
    ) {
        let data = SyntheticDataset::new(DatasetSpec::tiny(classes), seed);
        let a = data.sample(index);
        let b = data.sample(index);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.label < classes);
        prop_assert_eq!(a.image.shape(), TensorShape::new(1, 12, 12));
    }

    /// The analytical accuracy model is monotone non-increasing and bounded
    /// between chance and its base, for every calibrated combination.
    #[test]
    fn accuracy_model_bounded_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        for dataset in DatasetKind::all() {
            for quant in [QuantSpec::w2a2(), QuantSpec::w1a2()] {
                let m = AccuracyModel::calibrated(dataset, quant);
                prop_assert!(m.accuracy_at(lo) >= m.accuracy_at(hi));
                prop_assert!(m.accuracy_at(hi) >= 100.0 / dataset.classes() as f64 - 1e-9);
                prop_assert!(m.accuracy_at(lo) <= m.base + 1e-9);
            }
        }
    }

    /// `max_pruning_for_loss` inverts `drop_at` within the curve's range.
    #[test]
    fn threshold_inversion(points in 0.1f64..30.0) {
        let m = AccuracyModel::calibrated(DatasetKind::Cifar10, QuantSpec::w2a2());
        let p = m.max_pruning_for_loss(points);
        prop_assert!(m.drop_at(p) <= points + 1e-6);
        if p < 1.0 {
            // One more step would exceed the budget.
            prop_assert!(m.drop_at((p + 1e-6).min(1.0)) >= points - 1e-3);
        }
    }

    /// Reusing one scratch arena across a shuffled batch is bit-identical to
    /// a fresh `run` per image, for every strategy and packed backend.
    #[test]
    fn scratch_reuse_is_bit_identical_over_shuffled_batches(
        classes in 2usize..8,
        seed in 0u64..1000,
        batch in 2usize..10,
    ) {
        let graph = topology::tiny(QuantSpec::w2a2(), classes).expect("builds");
        let images = shuffled(
            (0..batch)
                .map(|i| random_image(graph.input_shape(), seed.wrapping_add(i as u64)))
                .collect(),
            seed ^ 0xD1B5_4A32_D192_ED03,
        );
        let configs = [ConvStrategy::Direct, ConvStrategy::Im2col]
            .map(|s| (s, PackedBackend::Scalar))
            .into_iter()
            .chain(PackedBackend::runnable().into_iter().map(|b| (ConvStrategy::Auto, b)));
        for (strategy, backend) in configs {
            let engine = Engine::new(&graph)
                .expect("engine")
                .with_strategy(strategy)
                .with_packed_backend(backend);
            let mut scratch = engine.scratch();
            for img in &images {
                let fresh = engine.run(img).expect("fresh run");
                let reused = engine.run_with_scratch(img, &mut scratch).expect("scratch run");
                prop_assert_eq!(fresh, reused);
            }
        }
    }

    /// Every kernel path — direct conv, the byte window on every layer
    /// (`Im2col`), packed popcount on each available backend — produces
    /// bit-identical logits on random graphs and inputs. `Direct` is the
    /// oracle the others are checked against.
    #[test]
    fn packed_kernels_are_bit_identical_to_gemm_oracle(
        classes in 2usize..8,
        seed in 0u64..1000,
        quant_w1 in proptest::bool::ANY,
    ) {
        let quant = if quant_w1 { QuantSpec::w1a2() } else { QuantSpec::w2a2() };
        let graph = topology::tiny(quant, classes).expect("builds");
        let img = random_image(graph.input_shape(), seed);
        let run = |s| Engine::new(&graph).expect("engine").with_strategy(s).run(&img);
        let oracle = run(ConvStrategy::Direct).expect("oracle");
        prop_assert_eq!(&oracle, &run(ConvStrategy::Im2col).expect("im2col"));
        for backend in PackedBackend::runnable() {
            let engine = Engine::new(&graph)
                .expect("engine")
                .with_packed_backend(backend);
            prop_assert_eq!(&oracle, &engine.run(&img).expect("packed"));
        }
    }

    /// Batched packed inference is invariant in the worker-thread count and
    /// matches both serial oracles label-for-label.
    #[test]
    fn packed_batch_runner_matches_oracle_across_threads(
        classes in 2usize..6,
        seed in 0u64..500,
        threads in 3usize..9,
    ) {
        let graph = topology::tiny(QuantSpec::w2a2(), classes).expect("builds");
        let images: Vec<Activations> = (0..6)
            .map(|i| random_image(graph.input_shape(), seed.wrapping_add(77 * i)))
            .collect();
        let labels = |strategy| {
            let engine = Engine::new(&graph).expect("engine").with_strategy(strategy);
            images
                .iter()
                .map(|img| engine.run(img).expect("oracle").label)
                .collect::<Vec<usize>>()
        };
        let oracle = labels(ConvStrategy::Direct);
        prop_assert_eq!(&labels(ConvStrategy::Im2col), &oracle);
        for t in [1, 2, threads] {
            let engine = Engine::new(&graph).expect("engine");
            let runner = BatchRunner::new(engine).with_threads(t);
            prop_assert_eq!(&runner.run(&images).expect("batch"), &oracle, "threads {}", t);
        }
    }

    /// `BatchRunner` yields the same label vector for 1, 2, and N worker
    /// threads (including auto), and it matches the serial engine.
    #[test]
    fn batch_runner_labels_invariant_in_thread_count(
        classes in 2usize..6,
        seed in 0u64..500,
        threads in 3usize..9,
    ) {
        let graph = topology::tiny(QuantSpec::w2a2(), classes).expect("builds");
        let images: Vec<Activations> = (0..7)
            .map(|i| random_image(graph.input_shape(), seed.wrapping_add(1000 * i)))
            .collect();
        let engine = Engine::new(&graph).expect("engine");
        let serial: Vec<usize> = images
            .iter()
            .map(|img| engine.run(img).expect("serial").label)
            .collect();
        for t in [1, 2, threads, 0] {
            let runner = BatchRunner::new(Engine::new(&graph).expect("engine")).with_threads(t);
            let labels = runner.run(&images).expect("batch");
            prop_assert_eq!(&labels, &serial, "thread count {}", t);
        }
    }
}

/// Xorshift stream for the graph generator below.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    /// Channel counts below, at and across the 64-bit lane boundaries.
    fn channels(&mut self) -> usize {
        if self.next().is_multiple_of(3) {
            1 + (self.next() % 130) as usize
        } else {
            self.pick(&[1, 2, 7, 63, 64, 65, 127, 128, 129, 130])
        }
    }

    /// Weights drawn uniformly from `quant`'s declared weight domain.
    fn weights(&mut self, quant: QuantSpec, into: &mut [i8]) {
        let domain = quant.weight_domain();
        let values: Vec<i8> = (domain.min..=domain.max)
            .filter(|&v| domain.contains(v))
            .map(|v| v as i8)
            .collect();
        for w in into {
            *w = self.pick(&values);
        }
    }

    /// `levels` ascending thresholds per channel inside `±span`, some tied.
    fn thresholds(&mut self, channels: usize, levels: usize, span: i32) -> MultiThreshold {
        let rows: Vec<Vec<i32>> = (0..channels)
            .map(|_| {
                let mut row: Vec<i32> = (0..levels)
                    .map(|_| (self.next() % (2 * span as u64 + 1)) as i32 - span)
                    .collect();
                row.sort_unstable();
                row
            })
            .collect();
        MultiThreshold {
            channels,
            table: ThresholdTable::from_rows(&rows).expect("ascending rows"),
        }
    }
}

/// conv → threshold → [pool] → conv → threshold → [pool] → [dense →
/// threshold →] dense → label-select over shapes the packed dataflow finds
/// awkward: channel counts off the lane, 1/3/5 kernels with stride and
/// padding, overlapping pools, 1- and 3-level threshold tables, single-row
/// MVTUs that cannot pack in the middle of the chain, and a dense layer over
/// a map that is not 1×1.
fn hostile_graph(seed: u64) -> CnnGraph {
    let mut s = Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let weight_bits = s.pick(&[1, 2]);
    // A layer's activation bits fix the level count of the threshold after
    // it (AF005): one level or three.
    let quant = |s: &mut Stream| {
        let spec = QuantSpec::new(weight_bits, s.pick(&[1, 2]));
        (spec, spec.threshold_levels())
    };
    let mut shape = TensorShape::new(s.pick(&[1, 3]), 6 + (s.next() % 6) as usize, 0);
    shape.width = shape.height;
    let mut builder = GraphBuilder::new("hostile", shape);
    let mut act_max = 255;
    for _ in 0..2 {
        let out_channels = s.channels();
        let (kernel, stride, padding) = loop {
            let geometry = (s.pick(&[1, 3, 5]), s.pick(&[1, 1, 2]), s.pick(&[0, 1]));
            if shape.windowed(geometry.0, geometry.1, geometry.2).is_some() {
                break geometry;
            }
        };
        let (quant, levels) = quant(&mut s);
        let mut conv = Conv2d::new(shape.channels, out_channels, kernel, stride, padding, quant);
        s.weights(quant, conv.weights.as_mut_slice());
        let span = (kernel * kernel * shape.channels) as i32 * act_max / 4;
        shape = shape
            .windowed(kernel, stride, padding)
            .expect("fits")
            .with_channels(out_channels);
        builder = builder
            .conv2d(conv)
            .threshold(s.thresholds(out_channels, levels, span.max(1)));
        act_max = levels as i32;
        let (pool, pool_stride) = s.pick(&[(0, 0), (2, 2), (3, 3), (3, 2)]);
        if let Some(pooled) = shape.windowed(pool, pool_stride, 0) {
            builder = builder.max_pool(MaxPool2d::new(pool, pool_stride));
            shape = pooled;
        }
    }
    if s.next().is_multiple_of(2) {
        let features = s.pick(&[1, 5, 64, 70]);
        let (quant, levels) = quant(&mut s);
        let mut dense = Dense::new(shape.elements(), features, quant);
        s.weights(quant, dense.weights.as_mut_slice());
        let span = (shape.elements() as i32 * act_max / 8).max(1);
        builder = builder
            .dense(dense)
            .threshold(s.thresholds(features, levels, span));
        shape = TensorShape::flat(features);
    }
    let classes = 2 + (s.next() % 5) as usize;
    let (quant, _) = quant(&mut s);
    let mut dense = Dense::new(shape.elements(), classes, quant);
    s.weights(quant, dense.weights.as_mut_slice());
    builder
        .dense(dense)
        .label_select(classes)
        .build()
        .expect("structurally valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The packed dataflow (`Auto`, on every backend this CPU runs) produces
    /// the logits of both oracles on hostile shapes, across worker counts.
    #[test]
    fn packed_pipeline_matches_oracles_on_hostile_shapes(seed in 0u64..1_000_000) {
        let graph = hostile_graph(seed);
        let images: Vec<Activations> = (0..3)
            .map(|i| random_image(graph.input_shape(), seed.wrapping_add(i)))
            .collect();
        let engine = |strategy| Engine::new(&graph).expect("engine").with_strategy(strategy);
        let direct = engine(ConvStrategy::Direct);
        let oracle: Vec<InferenceResult> =
            images.iter().map(|img| direct.run(img).expect("direct")).collect();
        let im2col = BatchRunner::new(engine(ConvStrategy::Im2col)).with_threads(2);
        prop_assert_eq!(&im2col.run_full(&images).expect("im2col"), &oracle);
        for backend in PackedBackend::runnable() {
            for threads in [1usize, 2, 3] {
                let auto = engine(ConvStrategy::Auto).with_packed_backend(backend);
                let runner = BatchRunner::new(auto).with_threads(threads);
                prop_assert_eq!(
                    &runner.run_full(&images).expect("auto"),
                    &oracle,
                    "{:?} on {} threads, plan {:?}",
                    backend,
                    threads,
                    runner.engine().kernels().iter().map(|k| k.kernel).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Weight bit-widths the byte window takes: every narrow-range domain.
const WEIGHT_BITS: [u8; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// conv (or dense) → threshold → dense → label-select, where the first
/// MVTU reads the 8-bit input and so runs as the byte-window MVTU: channel
/// counts off the dword, 1/3/5 kernels with stride 2 and padding up to 2,
/// row counts around the 8-row blocks and the 64-row pass, and weights of
/// every width from 1 to 8 bits, drawn from their whole domain — so pair
/// sums on both sides of the AVX2 kernel's `i16` bound. A W1/W2 dense
/// consumes the threshold packed (the first MVTU fuses it); a wider one
/// does not (the first MVTU scatters its accumulators channel-major).
fn byte_window_graph(seed: u64) -> CnnGraph {
    let mut s = Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let side = 4 + (s.next() % 8) as usize;
    let shape = TensorShape::new(s.pick(&[1, 2, 3, 5]), side, side);
    let rows = s.pick(&[1, 7, 9, 33, 64, 72]);
    let quant = QuantSpec::new(s.pick(&WEIGHT_BITS), s.pick(&[1, 2]));
    let w_max = quant.weight_domain().max as i32;
    let builder = GraphBuilder::new("byte-window", shape);
    let (builder, out, fan_in) = if s.next().is_multiple_of(4) {
        // A dense layer straight on the 8-bit input.
        let mut dense = Dense::new(shape.elements(), rows, quant);
        s.weights(quant, dense.weights.as_mut_slice());
        (
            builder.dense(dense),
            TensorShape::flat(rows),
            shape.elements(),
        )
    } else {
        let (kernel, stride, padding) = loop {
            let geometry = (s.pick(&[1, 3, 5]), s.pick(&[1, 2]), s.pick(&[0, 1, 2]));
            if shape.windowed(geometry.0, geometry.1, geometry.2).is_some() {
                break geometry;
            }
        };
        let mut conv = Conv2d::new(shape.channels, rows, kernel, stride, padding, quant);
        s.weights(quant, conv.weights.as_mut_slice());
        let out = shape
            .windowed(kernel, stride, padding)
            .expect("fits")
            .with_channels(rows);
        (builder.conv2d(conv), out, kernel * kernel * shape.channels)
    };
    let span = fan_in as i32 * 255 * w_max / 4;
    let classes = 2 + (s.next() % 5) as usize;
    let dense_quant = QuantSpec::new(s.pick(&WEIGHT_BITS), 2);
    let mut dense = Dense::new(out.elements(), classes, dense_quant);
    s.weights(dense_quant, dense.weights.as_mut_slice());
    builder
        .threshold(s.thresholds(rows, quant.threshold_levels(), span.max(1)))
        .dense(dense)
        .label_select(classes)
        .build()
        .expect("structurally valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The input layer under `Auto` produces the logits of the `Direct` and
    /// `Im2col` oracles on every backend this CPU runs, scalar included, at
    /// every weight width: the AVX2 byte kernel where the domains bound its
    /// `i16` pair sums (2 · 255 · w_max ≤ i16::MAX, up to 7-bit weights),
    /// the `i32` scalar twin everywhere else, and the AMX tiles on the AMX
    /// rung.
    #[test]
    fn byte_window_mvtu_matches_oracles_on_hostile_shapes(seed in 0u64..1_000_000) {
        let graph = byte_window_graph(seed);
        let engine = |strategy| Engine::new(&graph).expect("engine").with_strategy(strategy);
        let (direct, im2col) = (engine(ConvStrategy::Direct), engine(ConvStrategy::Im2col));
        let first = mvtu_domains(&graph).remove(0);
        let simd_exact = 2 * 255 * QuantSpec::new(first.weight_bits, 2).weight_domain().max
            <= i64::from(i16::MAX);
        for i in 0..3 {
            let img = random_image(graph.input_shape(), seed.wrapping_add(i));
            let oracle = direct.run(&img).expect("direct");
            prop_assert_eq!(&im2col.run(&img).expect("im2col"), &oracle);
            for backend in PackedBackend::runnable() {
                let auto = engine(ConvStrategy::Auto).with_packed_backend(backend);
                // The AMX rung takes every MVTU, exact at every width.
                let expected = if backend == PackedBackend::Amx {
                    "amx"
                } else if backend == PackedBackend::Scalar || !simd_exact {
                    "bytes-scalar"
                } else {
                    "bytes-avx2"
                };
                prop_assert_eq!(auto.kernels()[0].kernel, expected);
                prop_assert_eq!(
                    &auto.run(&img).expect("auto"),
                    &oracle,
                    "{:?}, plan {:?}",
                    backend,
                    auto.kernels().iter().map(|k| k.kernel).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Deterministic Fisher-Yates shuffle driven by an xorshift stream.
fn shuffled(mut items: Vec<Activations>, seed: u64) -> Vec<Activations> {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}
