//! Property-based tests on the model IR.

use adaflow_model::prelude::*;
use proptest::prelude::*;

proptest! {
    /// `windowed` agrees with the textbook output-size formula whenever it
    /// succeeds, and only fails when the window genuinely does not fit.
    #[test]
    fn windowed_matches_formula(
        c in 1usize..64,
        h in 1usize..64,
        w in 1usize..64,
        k in 1usize..8,
        s in 1usize..4,
        p in 0usize..4,
    ) {
        let shape = TensorShape::new(c, h, w);
        match shape.windowed(k, s, p) {
            Some(out) => {
                prop_assert_eq!(out.channels, c);
                prop_assert_eq!(out.height, (h + 2 * p - k) / s + 1);
                prop_assert_eq!(out.width, (w + 2 * p - k) / s + 1);
            }
            None => {
                prop_assert!(h + 2 * p < k || w + 2 * p < k);
            }
        }
    }

    /// Removing filters then asking for norms matches removing the norms
    /// directly — the structural op and the statistics commute.
    #[test]
    fn filter_removal_commutes_with_norms(
        out_ch in 2usize..12,
        in_ch in 1usize..4,
        k in 1usize..4,
        seed in 0u64..1000,
        remove_mask in 0u16..4096,
    ) {
        let mut w = ConvWeights::zeroed(out_ch, in_ch, k);
        let mut state = seed | 1;
        for v in w.as_mut_slice() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((state >> 33) % 3) as i8 - 1;
        }
        let remove: Vec<usize> =
            (0..out_ch).filter(|i| remove_mask & (1 << i) != 0).collect();
        prop_assume!(!remove.is_empty() && remove.len() < out_ch);

        let norms_before = w.filter_l1_norms();
        let pruned = w.without_filters(&remove).expect("legal removal");
        let norms_after = pruned.filter_l1_norms();
        let kept: Vec<u64> = (0..out_ch)
            .filter(|i| !remove.contains(i))
            .map(|i| norms_before[i])
            .collect();
        prop_assert_eq!(norms_after, kept);
    }

    /// Quantized domains: clamp always lands inside, cardinality counts
    /// exactly the contained integers.
    #[test]
    fn quant_domain_invariants(bits in 1u8..=8, value in -1000i64..1000) {
        for domain in [QuantizedDomain::signed(bits), QuantizedDomain::unsigned(bits)] {
            let clamped = domain.clamp(value);
            prop_assert!(domain.contains(clamped));
            let counted = (domain.min..=domain.max).filter(|&v| domain.contains(v)).count();
            prop_assert_eq!(counted, domain.cardinality());
        }
    }

    /// Threshold tables: `apply` is monotone in the accumulator and bounded
    /// by the level count.
    #[test]
    fn threshold_apply_monotone(
        lo in -100i32..0,
        hi in 1i32..100,
        levels in 1usize..8,
        a in -200i32..200,
        b in -200i32..200,
    ) {
        let t = ThresholdTable::uniform(1, levels, lo, hi);
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.apply(0, x) <= t.apply(0, y));
        prop_assert!(usize::from(t.apply(0, y)) <= levels);
    }
}
