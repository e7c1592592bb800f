//! Property-based and negative tests of the static verifier.
//!
//! Positive direction: every built-in topology (cnv/lenet/tiny across the
//! quantization variants) lints clean, as does every randomly generated
//! well-formed graph.
//!
//! Negative direction: each rule code `AF001`–`AF009` is proven to fire on
//! a graph corrupted in exactly the way the rule guards against. Graph
//! constructors validate their inputs, so corrupted graphs are built
//! through the serde backdoor: serialize to JSON, mutate the tree,
//! deserialize (the derives perform no validation).

use adaflow_model::prelude::*;
use adaflow_verify::{verify_graph, Severity};
use proptest::prelude::*;
use serde::Value;

// ---------------------------------------------------------------------------
// Mutation helpers
// ---------------------------------------------------------------------------

/// Serialize → mutate → deserialize. The mutated graph bypasses every
/// constructor check.
fn mutate_graph<F: FnOnce(&mut Value)>(graph: &CnnGraph, f: F) -> CnnGraph {
    let text = serde_json::to_string(graph).expect("serializes");
    let mut tree = serde_json::from_str_value(&text).expect("parses");
    f(&mut tree);
    let text = serde_json::to_string(&tree).expect("re-serializes");
    serde_json::from_str(&text).expect("deserializes")
}

fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key `{key}`")),
        other => panic!("expected object, got {}", other.kind()),
    }
}

fn item(v: &mut Value, idx: usize) -> &mut Value {
    match v {
        Value::Array(items) => &mut items[idx],
        other => panic!("expected array, got {}", other.kind()),
    }
}

fn node(tree: &mut Value, idx: usize) -> &mut Value {
    item(field(tree, "nodes"), idx)
}

/// Index of the first node whose layer is of `kind` (`"Conv2d"`, ...).
fn find_layer(graph: &CnnGraph, kind: &str) -> usize {
    graph
        .iter()
        .position(|n| n.layer.kind() == kind)
        .unwrap_or_else(|| panic!("graph has no {kind} layer"))
}

fn small_graph(quant: QuantSpec) -> CnnGraph {
    let levels = quant.threshold_levels();
    GraphBuilder::new("prop", TensorShape::new(1, 12, 12))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, quant))
        .threshold(MultiThreshold::uniform(4, levels, -64, 64))
        .max_pool(MaxPool2d::new(2, 2))
        .conv2d(Conv2d::new(4, 8, 3, 1, 0, quant))
        .threshold(MultiThreshold::uniform(8, levels, -64, 64))
        .dense(Dense::new(8 * 9, 4, quant))
        .label_select(4)
        .build()
        .expect("structurally valid")
}

// ---------------------------------------------------------------------------
// Positive: well-formed graphs lint clean
// ---------------------------------------------------------------------------

#[test]
fn all_builtin_topologies_lint_clean() {
    let builtins = [
        topology::cnv_w2a2_cifar10().expect("builds"),
        topology::cnv_w2a2_gtsrb().expect("builds"),
        topology::cnv_w1a2_cifar10().expect("builds"),
        topology::cnv_w1a2_gtsrb().expect("builds"),
        topology::lenet(QuantSpec::w2a2(), 10).expect("builds"),
        topology::lenet(QuantSpec::w1a2(), 10).expect("builds"),
        topology::tiny(QuantSpec::w2a2(), 4).expect("builds"),
        topology::tiny(QuantSpec::w1a2(), 10).expect("builds"),
    ];
    for g in &builtins {
        let report = verify_graph(g);
        assert!(!report.has_errors(), "{}:\n{report}", g.name());
        assert_eq!(report.count(Severity::Warn), 0, "{}:\n{report}", g.name());
    }
}

/// A randomized well-formed CNN.
fn arb_graph() -> impl Strategy<Value = CnnGraph> {
    (2usize..=6, 2usize..=8, 2usize..=6, proptest::bool::ANY).prop_map(
        |(c1_half, c2_half, classes, w1)| {
            let (c1, c2) = (c1_half * 2, c2_half * 2);
            let quant = if w1 {
                QuantSpec::w2a2() // keep zero legal: W1 excludes unfilled zeros
            } else {
                QuantSpec::new(4, 2)
            };
            let levels = quant.threshold_levels();
            GraphBuilder::new("prop", TensorShape::new(1, 12, 12))
                .conv2d(Conv2d::new(1, c1, 3, 1, 0, quant))
                .threshold(MultiThreshold::uniform(c1, levels, -64, 64))
                .max_pool(MaxPool2d::new(2, 2))
                .conv2d(Conv2d::new(c1, c2, 3, 1, 0, quant))
                .threshold(MultiThreshold::uniform(c2, levels, -64, 64))
                .dense(Dense::new(c2 * 9, classes, quant))
                .label_select(classes)
                .build()
                .expect("structurally valid by construction")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every well-formed generated graph passes with zero errors.
    #[test]
    fn generated_graphs_lint_clean(graph in arb_graph()) {
        let report = verify_graph(&graph);
        prop_assert!(!report.has_errors(), "{report}");
    }

    /// Shape corruption at a random node is always caught by AF001.
    #[test]
    fn corrupted_shapes_fire_af001(graph in arb_graph(), pick in 0usize..7, grow in 1usize..50) {
        let bad = mutate_graph(&graph, |tree| {
            let shape = field(node(tree, pick), "output_shape");
            let channels = field(shape, "channels");
            let old = channels.as_u64().expect("channels is a number");
            *channels = Value::U64(old + grow as u64);
        });
        let report = verify_graph(&bad);
        prop_assert!(report.has_errors());
        prop_assert!(report.fired("AF001"), "{report}");
    }

    /// Any out-of-domain weight value is caught by AF003.
    #[test]
    fn corrupted_weights_fire_af003(graph in arb_graph(), value in 100i64..127) {
        let conv = find_layer(&graph, "conv2d");
        let bad = mutate_graph(&graph, |tree| {
            let layer = field(field(node(tree, conv), "layer"), "Conv2d");
            let data = field(field(layer, "weights"), "data");
            *item(data, 0) = Value::I64(value);
        });
        let report = verify_graph(&bad);
        prop_assert!(report.has_errors());
        prop_assert!(report.fired("AF003"), "{report}");
    }

    /// Breaking the ascending order of any threshold row fires AF004.
    #[test]
    fn unsorted_threshold_rows_fire_af004(graph in arb_graph(), channel in 0usize..4) {
        let thresh = find_layer(&graph, "multithreshold");
        let levels = 3usize;
        let bad = mutate_graph(&graph, |tree| {
            let layer = field(field(node(tree, thresh), "layer"), "MultiThreshold");
            let data = field(field(layer, "table"), "data");
            // First entry of the chosen row above the row's last entry.
            *item(data, channel * levels) = Value::I64(10_000);
        });
        let report = verify_graph(&bad);
        prop_assert!(report.has_errors());
        prop_assert!(report.fired("AF004"), "{report}");
    }

    /// Shrinking a threshold's channel count (an unpropagated pruning mask)
    /// fires AF007.
    #[test]
    fn inconsistent_pruning_masks_fire_af007(graph in arb_graph(), shrink in 1usize..4) {
        let thresh = find_layer(&graph, "multithreshold");
        let bad = mutate_graph(&graph, |tree| {
            let layer = field(field(node(tree, thresh), "layer"), "MultiThreshold");
            let channels = field(layer, "channels");
            let old = channels.as_u64().expect("channels is a number");
            *channels = Value::U64(old.saturating_sub(shrink as u64).max(1));
        });
        let report = verify_graph(&bad);
        prop_assert!(report.has_errors());
        prop_assert!(report.fired("AF007"), "{report}");
    }
}

// ---------------------------------------------------------------------------
// DF005 liveness against the marked-graph token game
// ---------------------------------------------------------------------------

/// Plays the token game of a chain whose FIFO `i` has capacity `caps[i]`:
/// module `j` fires when its input FIFO holds an item and its output FIFO
/// a free slot. Returns which modules ever fired, and whether the game
/// reached a marking where no module can fire.
fn token_game(caps: &[usize]) -> (Vec<bool>, bool) {
    let n = caps.len() + 1;
    let mut items = vec![0usize; caps.len()];
    let mut free = caps.to_vec();
    let mut fired = vec![false; n];
    // Every FIFO fills or drains within Σcaps + 1 firings of its
    // neighbours, so a chain that can still fire after this many rounds
    // never stops.
    let rounds = (caps.iter().sum::<usize>() + 2) * n;
    for _ in 0..rounds {
        let mut any = false;
        for j in 0..n {
            let has_input = j == 0 || items[j - 1] > 0;
            let has_space = j + 1 == n || free[j] > 0;
            if has_input && has_space {
                if j > 0 {
                    items[j - 1] -= 1;
                    free[j - 1] += 1;
                }
                if j + 1 < n {
                    free[j] -= 1;
                    items[j] += 1;
                }
                fired[j] = true;
                any = true;
            }
        }
        if !any {
            return (fired, true);
        }
    }
    (fired, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A chain deadlocks iff some FIFO capacity is 0, and the reported
    /// cycle is the pair around the lowest zero-capacity edge — a pair the
    /// token game never fires.
    #[test]
    fn chain_deadlocks_iff_a_capacity_is_zero(
        caps in proptest::collection::vec(0usize..=3, 1..=11),
    ) {
        let stages: Vec<adaflow_verify::Stage> = (0..=caps.len())
            .map(|i| adaflow_verify::Stage::new(format!("m{i}"), 1))
            .collect();
        let (fired, dead) = token_game(&caps);
        match adaflow_verify::chain_liveness(&stages, &caps) {
            adaflow_verify::Liveness::Deadlock { cycle, trace } => {
                let lowest = caps.iter().position(|&c| c == 0);
                prop_assert_eq!(lowest, Some(cycle[0]), "caps {:?}", caps);
                prop_assert_eq!(cycle.len(), 2);
                prop_assert_eq!(cycle[1], cycle[0] + 1);
                prop_assert_eq!(trace.len(), 3);
                prop_assert!(dead, "token game kept firing: caps {:?}", caps);
                prop_assert!(!fired[cycle[0]] && !fired[cycle[1]], "caps {:?}", caps);
            }
            adaflow_verify::Liveness::Live { min_capacity, zero_token_edges } => {
                prop_assert!(caps.iter().all(|&c| c > 0), "caps {:?}", caps);
                prop_assert_eq!(Some(min_capacity), caps.iter().copied().min());
                prop_assert_eq!(zero_token_edges, caps.len());
                prop_assert!(!dead, "token game stopped: caps {:?}", caps);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Negative: one deterministic corruption per remaining rule code
// ---------------------------------------------------------------------------

#[test]
fn weight_geometry_mismatch_fires_af002() {
    let g = small_graph(QuantSpec::w2a2());
    let conv = find_layer(&g, "conv2d");
    // Declare more filters than the weight tensor holds.
    let bad = mutate_graph(&g, |tree| {
        let layer = field(field(node(tree, conv), "layer"), "Conv2d");
        *field(layer, "out_channels") = Value::U64(5);
    });
    let report = verify_graph(&bad);
    assert!(report.has_errors());
    assert!(report.fired("AF002"), "{report}");
}

#[test]
fn undersized_threshold_table_fires_af005() {
    // A 1-level table after a W2A2 MVTU (which needs 2^2 - 1 = 3 levels).
    // Structurally buildable — level count vs producer quant is a
    // cross-layer property only the verifier checks.
    let g = GraphBuilder::new("bad-levels", TensorShape::new(1, 8, 8))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
        .threshold(MultiThreshold::uniform(4, 1, -64, 64))
        .dense(Dense::new(4 * 36, 4, QuantSpec::w2a2()))
        .label_select(4)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(report.has_errors());
    assert!(report.fired("AF005"), "{report}");
}

#[test]
fn unreachable_thresholds_warn_af005() {
    // Thresholds beyond the first conv's worst-case accumulator range
    // (9·1·255 = 2295) can never fire: Warn, not Error.
    let g = GraphBuilder::new("dead-levels", TensorShape::new(1, 8, 8))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
        .threshold(MultiThreshold::uniform(4, 3, -50_000, 50_000))
        .dense(Dense::new(4 * 36, 4, QuantSpec::w2a2()))
        .label_select(4)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(!report.has_errors(), "{report}");
    assert!(report.count(Severity::Warn) > 0);
    assert!(report.fired("AF005"), "{report}");
}

#[test]
fn accumulator_overflow_fires_af006() {
    // 2^22-wide W8A8 dense: 2^22 · 127 · 255 ≫ i32::MAX. The weights are
    // filled to the domain maximum so the overflow is *reachable* — the
    // exact interval analysis (AF010) would otherwise prove all-zero
    // weights safe and demote the AF006 error to a warning.
    let mut d = Dense::new(1 << 22, 1, QuantSpec::new(8, 8));
    d.weights.as_mut_slice().fill(127);
    let g = GraphBuilder::new("overflow", TensorShape::flat(1 << 22))
        .dense(d)
        .label_select(1)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(report.has_errors());
    let overflow = report
        .diagnostics
        .iter()
        .find(|d| d.code == "AF006" && d.severity == Severity::Error)
        .expect("AF006 error present");
    assert!(overflow.message.contains("exceeds i32::MAX"), "{overflow}");
}

#[test]
fn reachable_overflow_fires_af010() {
    // Same fixture as AF006's: the exact interval [0, 2^22·127·255] also
    // breaches i32, so AF010 independently reports the overflow as an
    // error (no demotion possible).
    let mut d = Dense::new(1 << 22, 1, QuantSpec::new(8, 8));
    d.weights.as_mut_slice().fill(127);
    let g = GraphBuilder::new("overflow-exact", TensorShape::flat(1 << 22))
        .dense(d)
        .label_select(1)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF010" && d.severity == Severity::Error),
        "{report}"
    );
}

#[test]
fn dead_threshold_channels_warn_af011() {
    // All thresholds far above the first conv's reachable accumulator
    // range (9·1·255 = 2295): every channel's activation is the constant
    // 0 — dead hardware that AF011 must flag.
    let g = GraphBuilder::new("dead-channels", TensorShape::new(1, 8, 8))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
        .threshold(MultiThreshold::uniform(4, 3, 40_000, 50_000))
        .dense(Dense::new(4 * 36, 4, QuantSpec::w2a2()))
        .label_select(4)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF011" && d.severity == Severity::Warn),
        "{report}"
    );
}

#[test]
fn missing_threshold_between_mvtus_fires_af008() {
    // conv → pool with no threshold: pools raw accumulators. Structurally
    // valid, not executable by the MVTU dataflow.
    let g = GraphBuilder::new("bad-alternation", TensorShape::new(1, 8, 8))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
        .max_pool(MaxPool2d::new(2, 2))
        .dense(Dense::new(4 * 9, 4, QuantSpec::w2a2()))
        .label_select(4)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(report.has_errors());
    assert!(report.fired("AF008"), "{report}");
}

#[test]
fn all_rule_codes_have_negative_coverage() {
    // Meta-test: the cases above plus the proptests cover AF001-AF011. This
    // is the single place that will fail if a code is renumbered.
    let codes: std::collections::BTreeSet<&str> = adaflow_verify::Verifier::new()
        .catalog()
        .into_iter()
        .map(|(code, _)| code)
        .collect();
    let expected: std::collections::BTreeSet<&str> = [
        "AF001", "AF002", "AF003", "AF004", "AF005", "AF006", "AF007", "AF008", "AF009", "AF010",
        "AF011",
    ]
    .into();
    assert_eq!(codes, expected);
}

#[test]
fn mismatched_packed_declaration_warns_af009() {
    // 7-level threshold feeding a W2A2 conv: declared packed-friendly,
    // effectively ineligible — AF009's negative case.
    let g = GraphBuilder::new("packed-miss", TensorShape::new(1, 8, 8))
        .conv2d(Conv2d::new(1, 4, 3, 1, 0, QuantSpec::w2a2()))
        .threshold(MultiThreshold::uniform(4, 7, -4, 4))
        .conv2d(Conv2d::new(4, 4, 3, 1, 0, QuantSpec::w2a2()))
        .threshold(MultiThreshold::uniform(4, 3, -4, 4))
        .dense(Dense::new(4 * 16, 4, QuantSpec::w2a2()))
        .label_select(4)
        .build()
        .expect("builds");
    let report = verify_graph(&g);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "AF009" && d.severity == Severity::Warn),
        "{report}"
    );
}
