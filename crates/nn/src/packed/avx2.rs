//! AVX2 twins of the packed micro-kernel, its threshold epilogue and the
//! byte-window micro-kernel.
//!
//! Like [`super::avx512`] and [`super::amx`], this module re-allows
//! `unsafe` under the crate root's `deny(unsafe_code)`; the three are the
//! only such modules in the workspace. The unsafe surface is confined to two things:
//!
//! 1. calling `#[target_feature(enable = "avx2")]` functions, and
//! 2. unaligned 128/256-bit loads and stores through raw pointers inside
//!    them.
//!
//! ## Safety contract
//!
//! * Every `unsafe` entry point is reached only through the safe wrappers
//!   [`window_dots`], [`code_bits`] and [`byte_window_dots`], which consult
//!   the cached `is_x86_feature_detected!` probe and panic when the CPU
//!   lacks AVX2 — their callers in `super` check [`available`] first and
//!   run the scalar twin otherwise — so the required target feature is
//!   always present when the intrinsics execute.
//! * Every raw-pointer access derives from a slice that was bounds-checked
//!   to cover it just before: a run's tap lanes are sliced to
//!   `8 · run.len` words before the loop that reads lanes `[8i, 8i + 8)`;
//!   the byte kernel slices each run's map dwords to the run, and one tap
//!   dword's weights to the rows of the pass, before the loop that loads
//!   those weights 32 bytes at a time; and an accumulator or threshold
//!   vector is sliced to its exact length before the load or store.
//!   Unaligned accesses are used throughout, so no alignment precondition
//!   exists.
//!
//! The popcount is the vpshufb nibble-LUT reduction (Mula's algorithm):
//! per-byte counts via two 16-entry table lookups. Byte counts of several
//! tap words are summed before one `_mm256_sad_epu8` folds them into the
//! 64-bit lanes, and the second activation plane looks its counts up in a
//! doubled table, so one byte accumulator per sign carries the
//! shift-weighted recombination.
//!
//! The byte kernel broadcasts one map dword (four 8-bit channels of one
//! pixel), multiplies it into eight rows' weight dwords with
//! `vpmaddubsw` (exact: a pair sum is at most `2 · 255 · 2`, far inside
//! `i16`), widens the pairs with `vpmaddwd` against ones and adds into one
//! `i32` accumulator per row — eight ymm registers, 64 rows per pass.

#![allow(unsafe_code)]

use super::{Run, BLOCK, DWORD, GROUP};
use std::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
    _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_loadu_si256,
    _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_movemask_ps, _mm256_permutevar8x32_epi32,
    _mm256_sad_epu8, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_epi8,
    _mm256_setr_epi32, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srli_epi16, _mm256_storeu_si256, _mm256_sub_epi64, _mm_storeu_si128,
};
use std::sync::OnceLock;

/// Cached capability probe.
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Safe entry point of the micro-kernel; see
/// [`super::PackedWeights::window_dots`], which validated the runs.
///
/// # Panics
///
/// Panics without AVX2, or if `lanes` is not whole row groups of `words`
/// tap words or `acc` does not hold one group of accumulators per group.
pub(crate) fn window_dots(
    lanes: &[u64],
    words: usize,
    acts: &[u64],
    stride: usize,
    planes: usize,
    runs: &[Run],
    acc: &mut [i32],
) {
    assert!(available(), "AVX2 kernel dispatched without AVX2");
    let group_len = words * 2 * GROUP;
    assert!(
        group_len > 0 && lanes.len().is_multiple_of(group_len),
        "ragged weight groups"
    );
    assert!(
        acc.len() * group_len >= lanes.len() * GROUP,
        "accumulator row too short"
    );
    // SAFETY: `available()` established AVX2 at runtime.
    unsafe {
        if planes == 2 {
            window_dots_avx2::<2>(lanes, group_len, acts, stride, runs, acc);
        } else {
            window_dots_avx2::<1>(lanes, group_len, acts, stride, runs, acc);
        }
    }
}

/// Safe entry point of the epilogue: `(low, high)` code bits of up to eight
/// blocks of eight accumulators against `[block][level][8]` thresholds,
/// block `b` in byte `b`.
///
/// # Panics
///
/// Panics without AVX2 or if `thresholds` does not hold `levels` vectors
/// per accumulator block.
pub(crate) fn code_bits(thresholds: &[i32], levels: usize, acc: &[i32]) -> (u64, u64) {
    assert!(available(), "AVX2 kernel dispatched without AVX2");
    assert!(
        acc.len() <= 8 * BLOCK && acc.len().is_multiple_of(BLOCK),
        "whole blocks"
    );
    assert_eq!(thresholds.len(), acc.len() * levels, "threshold geometry");
    // SAFETY: `available()` established AVX2 at runtime.
    unsafe { code_bits_avx2(thresholds, levels, acc) }
}

/// Blocks of eight rows one pass of the byte kernel holds in registers.
const PASS_BLOCKS: usize = 8;

/// Safe entry point of the byte-window micro-kernel; see
/// [`super::ByteWeights::window_dots`], which validated the runs.
///
/// # Panics
///
/// Panics without AVX2, if `weights` is not whole tap dwords of `pitch`
/// rows in whole blocks, if `acc` does not hold exactly `pitch`
/// accumulators, or if a run leaves the map or the tap dwords.
pub(crate) fn byte_window_dots(
    weights: &[i8],
    pitch: usize,
    map: &[u32],
    runs: &[Run],
    acc: &mut [i32],
) {
    assert!(available(), "AVX2 kernel dispatched without AVX2");
    let tap_len = pitch * DWORD;
    assert!(
        pitch > 0 && pitch.is_multiple_of(BLOCK) && weights.len().is_multiple_of(tap_len),
        "ragged byte weights"
    );
    assert_eq!(acc.len(), pitch, "one accumulator per padded row");
    let full = pitch / (PASS_BLOCKS * BLOCK) * PASS_BLOCKS * BLOCK;
    // SAFETY: `available()` established AVX2 at runtime.
    unsafe {
        for first in (0..full).step_by(PASS_BLOCKS * BLOCK) {
            byte_pass_avx2::<PASS_BLOCKS>(weights, tap_len, first, map, runs, acc);
        }
        for first in (full..pitch).step_by(BLOCK) {
            byte_pass_avx2::<1>(weights, tap_len, first, map, runs, acc);
        }
    }
}

/// Most tap words whose byte counts fit one `u8` accumulator: a word adds
/// at most 8 per byte on the first plane and 16 on the doubled second.
const fn words_per_fold(planes: usize) -> usize {
    if planes == 2 {
        255 / 24
    } else {
        255 / 8
    }
}

/// # Safety
///
/// Requires AVX2; callers must check [`available`] first. `lanes` must be
/// whole groups of `group_len` words and `acc` hold [`GROUP`] entries per
/// group.
#[target_feature(enable = "avx2")]
unsafe fn window_dots_avx2<const PLANES: usize>(
    lanes: &[u64],
    group_len: usize,
    acts: &[u64],
    stride: usize,
    runs: &[Run],
    acc: &mut [i32],
) {
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let lut2 = _mm256_add_epi8(lut, lut);
    let low_mask = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    // Per-byte popcount of `v`, looked up in `table`.
    let counts = |v: __m256i, table: __m256i| {
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        )
    };
    for (group, out) in lanes
        .chunks_exact(group_len)
        .zip(acc.chunks_exact_mut(GROUP))
    {
        let mut total = zero;
        let (mut pos, mut neg) = (zero, zero);
        let mut pending = 0;
        for run in runs {
            let taps = &group[run.tap * 2 * GROUP..(run.tap + run.len) * 2 * GROUP];
            let plane0 = &acts[run.act..run.act + run.len];
            let plane1 = &acts[(PLANES - 1) * stride + run.act..][..run.len];
            for i in 0..run.len {
                // SAFETY: `taps` holds `2 · GROUP = 8` words per tap word of
                // the run, so lanes `[8i, 8i + 4)` and `[8i + 4, 8i + 8)`
                // are in bounds for every `i < run.len`.
                let (plus, minus) = unsafe {
                    let tap = taps.as_ptr().add(i * 2 * GROUP);
                    (
                        _mm256_loadu_si256(tap.cast::<__m256i>()),
                        _mm256_loadu_si256(tap.add(GROUP).cast::<__m256i>()),
                    )
                };
                let a0 = _mm256_set1_epi64x(plane0[i] as i64);
                pos = _mm256_add_epi8(pos, counts(_mm256_and_si256(plus, a0), lut));
                neg = _mm256_add_epi8(neg, counts(_mm256_and_si256(minus, a0), lut));
                if PLANES == 2 {
                    let a1 = _mm256_set1_epi64x(plane1[i] as i64);
                    pos = _mm256_add_epi8(pos, counts(_mm256_and_si256(plus, a1), lut2));
                    neg = _mm256_add_epi8(neg, counts(_mm256_and_si256(minus, a1), lut2));
                }
                pending += 1;
                if pending == words_per_fold(PLANES) {
                    let folded =
                        _mm256_sub_epi64(_mm256_sad_epu8(pos, zero), _mm256_sad_epu8(neg, zero));
                    total = _mm256_add_epi64(total, folded);
                    (pos, neg, pending) = (zero, zero, 0);
                }
            }
        }
        let folded = _mm256_sub_epi64(_mm256_sad_epu8(pos, zero), _mm256_sad_epu8(neg, zero));
        total = _mm256_add_epi64(total, folded);
        // AF006 bounds every dot product inside `i32`: keep the low half of
        // each 64-bit lane.
        let narrow = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(total, even));
        // SAFETY: `out` is exactly `GROUP = 4` `i32`s, one 16-byte store.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), narrow) };
    }
}

/// One pass of the byte kernel: the accumulators of rows
/// `first..first + 8 · BLOCKS` over the whole window.
///
/// # Safety
///
/// Requires AVX2; callers must check [`available`] first. Every slice
/// access below is bounds-checked, so no other precondition exists.
#[target_feature(enable = "avx2")]
unsafe fn byte_pass_avx2<const BLOCKS: usize>(
    weights: &[i8],
    tap_len: usize,
    first: usize,
    map: &[u32],
    runs: &[Run],
    acc: &mut [i32],
) {
    let ones = _mm256_set1_epi16(1);
    let mut sums = [_mm256_setzero_si256(); BLOCKS];
    let rows = first * DWORD..(first + BLOCKS * BLOCK) * DWORD;
    for run in runs {
        // Indexed rather than `chunks_exact`, which divides once per run.
        for (i, &a) in map[run.act..][..run.len].iter().enumerate() {
            let tap = &weights[(run.tap + i) * tap_len..][rows.clone()];
            let a = _mm256_set1_epi32(a as i32);
            for (b, sum) in sums.iter_mut().enumerate() {
                // SAFETY: `tap` is exactly `BLOCKS · BLOCK · DWORD` bytes, so
                // the 32 bytes at `b · BLOCK · DWORD` are in bounds.
                let w = unsafe { _mm256_loadu_si256(tap.as_ptr().add(b * BLOCK * DWORD).cast()) };
                let pairs = _mm256_maddubs_epi16(a, w);
                *sum = _mm256_add_epi32(*sum, _mm256_madd_epi16(pairs, ones));
            }
        }
    }
    let out = &mut acc[first..first + BLOCKS * BLOCK];
    for (out, sum) in out.chunks_exact_mut(BLOCK).zip(sums) {
        // SAFETY: `out` is exactly `BLOCK = 8` `i32`s, one 32-byte store.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), sum) };
    }
}

/// # Safety
///
/// Requires AVX2; callers must check [`available`] first. `acc` must be
/// whole blocks and `thresholds` hold `levels` blocks per block of `acc`.
#[target_feature(enable = "avx2")]
unsafe fn code_bits_avx2(thresholds: &[i32], levels: usize, acc: &[i32]) -> (u64, u64) {
    let (mut lo, mut hi) = (0u64, 0u64);
    for (b, (acc, thresholds)) in acc
        .chunks_exact(BLOCK)
        .zip(thresholds.chunks_exact(levels * BLOCK))
        .enumerate()
    {
        // SAFETY: `acc` is exactly `BLOCK = 8` `i32`s, one 32-byte load.
        let a = unsafe { _mm256_loadu_si256(acc.as_ptr().cast::<__m256i>()) };
        let (mut parity, mut second) = (0u64, 0u64);
        for (level, t) in thresholds.chunks_exact(BLOCK).enumerate() {
            // SAFETY: `t` is exactly `BLOCK = 8` `i32`s, one 32-byte load.
            let t = unsafe { _mm256_loadu_si256(t.as_ptr().cast::<__m256i>()) };
            let below = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(t, a)));
            let met = !(below as u64) & 0xff;
            parity ^= met;
            if level == 1 {
                second = met;
            }
        }
        lo |= parity << (b * BLOCK);
        hi |= second << (b * BLOCK);
    }
    (lo, hi)
}
