//! AVX-512 twin of the packed micro-kernel: a hardware popcount per 64-bit
//! lane (`vpopcntq`) in place of the AVX2 nibble-LUT reduction, over one
//! tile of up to [`TILE`] output pixels per pass.
//!
//! Like [`super::avx2`] and [`super::amx`], this module re-allows `unsafe`
//! under the crate root's `deny(unsafe_code)`; the three are the only such
//! modules in the workspace. The unsafe surface is confined to three things:
//!
//! 1. calling `#[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]`
//!    functions,
//! 2. unaligned 512-bit loads and 128-bit stores through raw pointers inside
//!    them, and
//! 3. unchecked reads of the activation word of each tile pixel.
//!
//! ## Safety contract
//!
//! * The `unsafe` entry point is reached only through the safe wrapper
//!   [`window_dots`], which consults the cached `is_x86_feature_detected!`
//!   probe and panics when the CPU lacks a required feature — its caller in
//!   `super` checks [`available`] first and runs another twin otherwise — so
//!   the required target features are always present when the intrinsics
//!   execute.
//! * Every tap load and accumulator store is of a slice of exactly the
//!   accessed size: a tap word is an 8-`u64` chunk of the run's
//!   bounds-checked tap lanes, and an accumulator group is exactly four
//!   `i32`s. Unaligned accesses are used throughout, so no alignment
//!   precondition exists.
//! * Every activation read is at `p · stride + offset + run.act + i` for a
//!   plane `p < planes`, a tile offset, a run and `i < run.len`. Before the
//!   kernel runs, the wrapper has [`PackedWeights::check_tile`] assert,
//!   without overflow, that every run shifted by the tile's largest offset
//!   ends inside `acts` on its last plane; every read lies below that end.
//!
//! One tap word of a row group is `[+1 × 4 rows | −1 × 4 rows]`, eight
//! `u64`: one zmm, loaded once per tile. Per tile pixel and activation plane
//! the kernel ANDs the pixel's broadcast activation word into it, popcounts
//! every lane and adds into that pixel's 64-bit-lane accumulator — `2 · P`
//! of them for a tile of `P` — which cannot overflow, so there is no byte
//! accumulator to fold. The planes recombine once per group and pixel.

#![allow(unsafe_code)]

use super::{PackedWeights, Run, GROUP, TILE};
use std::arch::x86_64::{
    __m128i, _mm256_cvtepi64_epi32, _mm256_sub_epi64, _mm512_add_epi64, _mm512_and_si512,
    _mm512_castsi512_si256, _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_popcnt_epi64,
    _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm_storeu_si128,
};
use std::sync::OnceLock;

// [`window_dots`] dispatches one `tile_dots` per tile size.
const _: () = assert!(TILE == 4, "tile_dots is dispatched for P = 1..=4");

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

/// Safe entry point of the micro-kernel under the tile contract of
/// [`super::PackedWeights::window_dots`].
///
/// # Panics
///
/// Panics without the AVX-512 features, or where
/// [`PackedWeights::check_tile`] does.
pub(crate) fn window_dots(
    weights: &PackedWeights,
    acts: &[u64],
    stride: usize,
    planes: usize,
    tile: (&[Run], &[usize]),
    acc: &mut [i32],
) {
    assert!(available(), "AVX-512 kernel dispatched without AVX-512");
    weights.check_tile(acts, stride, planes, tile, acc);
    // SAFETY: `available()` established the target features at runtime, and
    // `check_tile` bounds every activation read the kernel makes.
    unsafe {
        match (planes, tile.1.len()) {
            (1, 1) => tile_dots::<1, 1>(weights, acts, stride, tile, acc),
            (1, 2) => tile_dots::<1, 2>(weights, acts, stride, tile, acc),
            (1, 3) => tile_dots::<1, 3>(weights, acts, stride, tile, acc),
            (1, _) => tile_dots::<1, 4>(weights, acts, stride, tile, acc),
            (_, 1) => tile_dots::<2, 1>(weights, acts, stride, tile, acc),
            (_, 2) => tile_dots::<2, 2>(weights, acts, stride, tile, acc),
            (_, 3) => tile_dots::<2, 3>(weights, acts, stride, tile, acc),
            (_, _) => tile_dots::<2, 4>(weights, acts, stride, tile, acc),
        }
    }
}

/// The accumulators of `P` windows — `runs` shifted by each of `offsets` —
/// against every row group, each tap word loaded once for all `P`.
///
/// # Safety
///
/// Requires AVX-512F, AVX-512VL and AVX-512 VPOPCNTDQ; callers must check
/// [`available`] first. `offsets` must hold at least `P` entries, every run
/// shifted by each of them must end inside `acts` on plane `PLANES − 1`
/// (plane `p` at word `p · stride`), and `acc` must hold
/// `P · weights.acc_len()` entries.
#[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq")]
unsafe fn tile_dots<const PLANES: usize, const P: usize>(
    weights: &PackedWeights,
    acts: &[u64],
    stride: usize,
    (runs, offsets): (&[Run], &[usize]),
    acc: &mut [i32],
) {
    let (acc_len, group_len) = (weights.acc_len(), weights.words * 2 * GROUP);
    let offsets: [usize; P] = std::array::from_fn(|t| offsets[t]);
    for (g, group) in weights.lanes.chunks_exact(group_len).enumerate() {
        // Lane `l` of `tᵖ[t]` counts `tap lane l & aᵖ` over window `t`:
        // lanes 0..4 the +1 planes of the four rows, lanes 4..8 their −1
        // planes.
        let mut t0 = [_mm512_setzero_si512(); P];
        let mut t1 = [_mm512_setzero_si512(); P];
        for run in runs {
            let taps = &group[run.tap * 2 * GROUP..(run.tap + run.len) * 2 * GROUP];
            for (i, tap) in taps.chunks_exact(2 * GROUP).enumerate() {
                // SAFETY: `tap` is exactly `2 · GROUP = 8` `u64`s, one
                // 64-byte load.
                let tap = unsafe { _mm512_loadu_si512(tap.as_ptr().cast()) };
                for t in 0..P {
                    let at = offsets[t] + run.act + i;
                    // SAFETY: `i < run.len`, so `at` and, on two planes,
                    // `stride + at` lie below the end the caller bounds.
                    let a0 = unsafe { *acts.get_unchecked(at) };
                    let a0 = _mm512_set1_epi64(a0 as i64);
                    t0[t] = _mm512_add_epi64(t0[t], _mm512_popcnt_epi64(_mm512_and_si512(tap, a0)));
                    if PLANES == 2 {
                        // SAFETY: as above.
                        let a1 = unsafe { *acts.get_unchecked(stride + at) };
                        let a1 = _mm512_set1_epi64(a1 as i64);
                        let count = _mm512_popcnt_epi64(_mm512_and_si512(tap, a1));
                        t1[t] = _mm512_add_epi64(t1[t], count);
                    }
                }
            }
        }
        for t in 0..P {
            let total = _mm512_add_epi64(t0[t], _mm512_slli_epi64::<1>(t1[t]));
            let dots = _mm256_sub_epi64(
                _mm512_castsi512_si256(total),
                _mm512_extracti64x4_epi64::<1>(total),
            );
            // AF006 bounds every dot product inside `i32`: the truncating
            // narrow keeps it exactly.
            let narrow = _mm256_cvtepi64_epi32(dots);
            let out = &mut acc[t * acc_len + g * GROUP..][..GROUP];
            // SAFETY: `out` is exactly `GROUP = 4` `i32`s, one 16-byte store.
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), narrow) };
        }
    }
}
