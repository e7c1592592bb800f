//! AVX-512 twin of the packed micro-kernel: a hardware popcount per 64-bit
//! lane (`vpopcntq`) in place of the AVX2 nibble-LUT reduction.
//!
//! Like [`super::avx2`], this module re-allows `unsafe` under the crate
//! root's `deny(unsafe_code)`; the two are the only such modules in the
//! workspace. The unsafe surface is confined to two things:
//!
//! 1. calling `#[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]`
//!    functions, and
//! 2. unaligned 512-bit loads and 128-bit stores through raw pointers inside
//!    them.
//!
//! ## Safety contract
//!
//! * The `unsafe` entry point is reached only through the safe wrapper
//!   [`window_dots`], which consults the cached `is_x86_feature_detected!`
//!   probe and panics when the CPU lacks a required feature — its caller in
//!   `super` checks [`available`] first and runs another twin otherwise — so
//!   the required target features are always present when the intrinsics
//!   execute.
//! * Every raw-pointer access is of a slice of exactly the accessed size:
//!   a tap word is an 8-`u64` chunk of the run's bounds-checked tap lanes,
//!   and an accumulator group is exactly four `i32`s. Unaligned accesses are
//!   used throughout, so no alignment precondition exists.
//!
//! One tap word of a row group is `[+1 × 4 rows | −1 × 4 rows]`, eight
//! `u64`: one zmm. Per tap word and activation plane the kernel ANDs the
//! broadcast activation word into it, popcounts every lane and adds into a
//! 64-bit-lane accumulator, which cannot overflow, so there is no byte
//! accumulator to fold. The planes recombine once per group.

#![allow(unsafe_code)]

use super::{Run, GROUP};
use std::arch::x86_64::{
    __m128i, _mm256_cvtepi64_epi32, _mm256_sub_epi64, _mm512_add_epi64, _mm512_and_si512,
    _mm512_castsi512_si256, _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_popcnt_epi64,
    _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm_storeu_si128,
};
use std::sync::OnceLock;

/// Cached capability probe: the kernel's three AVX-512 features, and AVX2
/// for the threshold epilogue this backend shares with [`super::avx2`].
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    })
}

/// Safe entry point of the micro-kernel; see
/// [`super::PackedWeights::window_dots`], which validated the runs.
///
/// # Panics
///
/// Panics without the AVX-512 features, or if `lanes` is not whole row
/// groups of `words` tap words or `acc` does not hold one group of
/// accumulators per group.
pub(crate) fn window_dots(
    lanes: &[u64],
    words: usize,
    acts: &[u64],
    stride: usize,
    planes: usize,
    runs: &[Run],
    acc: &mut [i32],
) {
    assert!(available(), "AVX-512 kernel dispatched without AVX-512");
    let group_len = words * 2 * GROUP;
    assert!(
        group_len > 0 && lanes.len().is_multiple_of(group_len),
        "ragged weight groups"
    );
    assert!(
        acc.len() * group_len >= lanes.len() * GROUP,
        "accumulator row too short"
    );
    // SAFETY: `available()` established the target features at runtime.
    unsafe {
        if planes == 2 {
            window_dots_avx512::<2>(lanes, group_len, acts, stride, runs, acc);
        } else {
            window_dots_avx512::<1>(lanes, group_len, acts, stride, runs, acc);
        }
    }
}

/// # Safety
///
/// Requires AVX-512F, AVX-512VL and AVX-512 VPOPCNTDQ; callers must check
/// [`available`] first. `lanes` must be whole groups of `group_len` words
/// and `acc` hold [`GROUP`] entries per group.
#[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]
unsafe fn window_dots_avx512<const PLANES: usize>(
    lanes: &[u64],
    group_len: usize,
    acts: &[u64],
    stride: usize,
    runs: &[Run],
    acc: &mut [i32],
) {
    for (group, out) in lanes
        .chunks_exact(group_len)
        .zip(acc.chunks_exact_mut(GROUP))
    {
        // Lane `l` of `tᵖ` counts `tap lane l & aᵖ` over the window: lanes
        // 0..4 the +1 planes of the four rows, lanes 4..8 their −1 planes.
        let (mut t0, mut t1) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        for run in runs {
            let taps = &group[run.tap * 2 * GROUP..(run.tap + run.len) * 2 * GROUP];
            let plane0 = &acts[run.act..run.act + run.len];
            let plane1 = &acts[(PLANES - 1) * stride + run.act..][..run.len];
            for ((tap, &a0), &a1) in taps.chunks_exact(2 * GROUP).zip(plane0).zip(plane1) {
                // SAFETY: `tap` is exactly `2 · GROUP = 8` `u64`s, one
                // 64-byte load.
                let tap = unsafe { _mm512_loadu_si512(tap.as_ptr().cast()) };
                let a0 = _mm512_set1_epi64(a0 as i64);
                t0 = _mm512_add_epi64(t0, _mm512_popcnt_epi64(_mm512_and_si512(tap, a0)));
                if PLANES == 2 {
                    let a1 = _mm512_set1_epi64(a1 as i64);
                    t1 = _mm512_add_epi64(t1, _mm512_popcnt_epi64(_mm512_and_si512(tap, a1)));
                }
            }
        }
        let total = _mm512_add_epi64(t0, _mm512_slli_epi64::<1>(t1));
        let dots = _mm256_sub_epi64(
            _mm512_castsi512_si256(total),
            _mm512_extracti64x4_epi64::<1>(total),
        );
        // AF006 bounds every dot product inside `i32`: the truncating narrow
        // keeps it exactly.
        let narrow = _mm256_cvtepi64_epi32(dots);
        // SAFETY: `out` is exactly `GROUP = 4` `i32`s, one 16-byte store.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), narrow) };
    }
}
