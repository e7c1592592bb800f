//! Bit-packed SWAR/popcount MVTU kernels.
//!
//! The FINN matrix-vector compute unit that AdaFlow's accelerators
//! instantiate never multiplies: for 1–2-bit domains it ANDs packed
//! bitplanes and popcounts the result ("On the RTL Implementation of FINN
//! Matrix Vector Compute Unit"; Umuroglu et al., FINN). This module is the
//! software mirror of that datapath.
//!
//! ## Representation
//!
//! A weight row `w ∈ {-1, 0, +1}ᵏ` is stored as two disjoint bitplanes
//! packed into `u64` lanes: `plus` has bit `i` set iff `wᵢ = +1`, `minus`
//! iff `wᵢ = -1`, so `w = plus − minus`. An activation vector
//! `a ∈ {0..=3}ᵏ` is decomposed into bitplanes `a = a⁰ + 2·a¹`. The dot
//! product then recombines plane-pair popcounts:
//!
//! ```text
//! dot(w, a) = Σ_p 2^p · (popcount(plus & aᵖ) − popcount(minus & aᵖ))
//! ```
//!
//! — four popcounts per 64 elements in the 2-bit case, two in the 1-bit
//! case. Lanes past `k` are zero in every plane, so they contribute
//! nothing and fan-in need not be a multiple of 64.
//!
//! All kernels here are bit-identical to the i32 GEMM in
//! [`crate::engine`], which stays as the equivalence oracle; eligibility
//! (≤2-bit weights *and* activations, established by
//! [`adaflow_model::mvtu_domains`]) is enforced by the engine's kernel
//! planner, not here.
//!
//! ## Dispatch
//!
//! [`default_backend`] probes AVX2 at runtime (`is_x86_feature_detected!`)
//! and can be overridden with the `ADAFLOW_FORCE_SCALAR` environment
//! variable; the AVX2 path lives in the one `unsafe`-allowing module of
//! the workspace ([`self::avx2`]). Which layers reach these kernels is the
//! engine planner's decision, a pure function of the graph;
//! [`kernel_thresholds`] reports the two constants it uses.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

/// Bits per packed lane.
pub const LANE: usize = 64;

/// Number of `u64` words one plane of a length-`k` vector occupies.
#[must_use]
pub const fn plane_words(k: usize) -> usize {
    k.div_ceil(LANE)
}

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

/// Which implementation computes the plane-pair popcounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackedBackend {
    /// Portable `u64` SWAR with `count_ones()`.
    #[default]
    Scalar,
    /// 256-bit AVX2 path (vpshufb nibble-LUT popcount). Requesting it on a
    /// machine without AVX2 silently computes with the scalar kernel — the
    /// safe wrapper re-checks the capability, so the choice is never
    /// unsound, only advisory.
    Avx2,
}

impl PackedBackend {
    /// Short human-readable label (`"scalar"` / `"avx2"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }
}

/// Whether `ADAFLOW_FORCE_SCALAR` is set (to anything but `0`/empty),
/// pinning dispatch to the portable kernels.
#[must_use]
pub fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("ADAFLOW_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Whether the running CPU offers the AVX2+POPCNT path.
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend the engine uses unless overridden: AVX2 when the CPU has it
/// and `ADAFLOW_FORCE_SCALAR` is not set, scalar otherwise.
#[must_use]
pub fn default_backend() -> PackedBackend {
    if !force_scalar() && simd_available() {
        PackedBackend::Avx2
    } else {
        PackedBackend::Scalar
    }
}

// ---------------------------------------------------------------------------
// Weight packing.
// ---------------------------------------------------------------------------

/// The bitplane form of an MVTU weight matrix: per row, a `+1` plane and a
/// `-1` plane of [`plane_words`]`(k)` lanes each. Built once at
/// `Engine::new` time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    rows: usize,
    k: usize,
    words: usize,
    plus: Vec<u64>,
    minus: Vec<u64>,
}

impl PackedWeights {
    /// Packs a row-major `rows × k` weight matrix with entries in
    /// `{-1, 0, +1}`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * k` or any entry falls outside
    /// the packed domain — the engine only packs layers whose domains the
    /// eligibility analysis has already established.
    #[must_use]
    pub fn pack(weights: &[i8], rows: usize, k: usize) -> Self {
        assert_eq!(weights.len(), rows * k, "weight geometry");
        let words = plane_words(k);
        let mut plus = vec![0u64; rows * words];
        let mut minus = vec![0u64; rows * words];
        for r in 0..rows {
            for (i, &w) in weights[r * k..(r + 1) * k].iter().enumerate() {
                assert!((-1..=1).contains(&w), "weight {w} outside packed domain");
                let bit = 1u64 << (i % LANE);
                if w > 0 {
                    plus[r * words + i / LANE] |= bit;
                } else if w < 0 {
                    minus[r * words + i / LANE] |= bit;
                }
            }
        }
        Self {
            rows,
            k,
            words,
            plus,
            minus,
        }
    }

    /// Number of weight rows (output channels / features).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dot-product length the planes were packed from.
    #[must_use]
    pub fn fan_in(&self) -> usize {
        self.k
    }

    /// Lanes per plane.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Heap bytes held by the planes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.plus.len() + self.minus.len()) * std::mem::size_of::<u64>()
    }

    /// The `(+1, -1)` planes of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> (&[u64], &[u64]) {
        let span = r * self.words..(r + 1) * self.words;
        (&self.plus[span.clone()], &self.minus[span])
    }
}

// ---------------------------------------------------------------------------
// Activation packing.
// ---------------------------------------------------------------------------

/// `u64` words needed to pack `rows` activation vectors of length `k` into
/// `planes` bitplanes — the scratch budget of one packed layer.
#[must_use]
pub const fn act_pack_words(rows: usize, k: usize, planes: usize) -> usize {
    rows * planes * plane_words(k)
}

/// Packs `rows` row-major activation vectors (`bytes[r*k..][..k]`, entries
/// `< 2^planes`) into bitplanes: `out[r*planes*words ..]` holds row `r` as
/// `planes` consecutive planes of [`plane_words`]`(k)` lanes. Tail lanes
/// are zeroed.
///
/// # Panics
///
/// Panics if the buffers are too small; debug builds also assert every
/// byte fits the plane count.
pub fn pack_act_rows(bytes: &[u8], rows: usize, k: usize, planes: usize, out: &mut [u64]) {
    assert!((1..=2).contains(&planes), "packed contract is 1–2 planes");
    assert!(bytes.len() >= rows * k, "activation geometry");
    let words = plane_words(k);
    let stride = planes * words;
    assert!(out.len() >= rows * stride, "packed scratch too small");
    for r in 0..rows {
        pack_act_row(
            &bytes[r * k..(r + 1) * k],
            planes,
            &mut out[r * stride..(r + 1) * stride],
        );
    }
}

/// Multiplier that gathers the low bit of each byte of a `u64` into the
/// top byte: with `y = x & 0x0101…01`, `(y * GATHER) >> 56` has bit `i`
/// equal to byte `i` of `y`. The partial products never collide, so the
/// gather is carry-free.
const GATHER: u64 = 0x0102_0408_1020_4080;
/// Low-bit-of-every-byte mask.
const BYTE_LSB: u64 = 0x0101_0101_0101_0101;

#[inline]
fn gather_lsb(x: u64) -> u64 {
    ((x & BYTE_LSB).wrapping_mul(GATHER)) >> 56
}

/// Packs one activation vector into `planes` consecutive bitplanes.
fn pack_act_row(bytes: &[u8], planes: usize, dst: &mut [u64]) {
    debug_assert!(
        bytes.iter().all(|&b| usize::from(b) >> planes == 0),
        "activation exceeds plane budget"
    );
    let words = dst.len() / planes;
    let (p0, p1) = dst.split_at_mut(words);
    for (w, chunk) in bytes.chunks(LANE).enumerate() {
        let mut b0 = 0u64;
        let mut b1 = 0u64;
        let mut off = 0u32;
        let eights = chunk.chunks_exact(8);
        let tail = eights.remainder();
        for oct in eights {
            // Eight bytes at once: SWAR-gather the plane bits.
            let x = u64::from_le_bytes(oct.try_into().expect("8-byte chunk"));
            b0 |= gather_lsb(x) << off;
            b1 |= gather_lsb(x >> 1) << off;
            off += 8;
        }
        for (j, &b) in tail.iter().enumerate() {
            b0 |= u64::from(b & 1) << (off + j as u32);
            b1 |= u64::from((b >> 1) & 1) << (off + j as u32);
        }
        // Whole-lane assignment (not |=) clears stale bits when scratch is
        // reused, and `chunks` covers exactly `plane_words(len)` lanes.
        p0[w] = b0;
        if planes == 2 {
            p1[w] = b1;
        }
    }
}

// ---------------------------------------------------------------------------
// Popcount dot products.
// ---------------------------------------------------------------------------

/// One packed dot product over the portable SWAR path:
/// `Σ_p 2^p · (popcount(plus & actᵖ) − popcount(minus & actᵖ))`.
#[must_use]
pub fn dot_packed_scalar(
    plus: &[u64],
    minus: &[u64],
    act: &[u64],
    planes: usize,
    words: usize,
) -> i32 {
    debug_assert_eq!(plus.len(), words);
    debug_assert_eq!(minus.len(), words);
    debug_assert!(act.len() >= planes * words);
    let mut acc = 0i32;
    for p in 0..planes {
        let plane = &act[p * words..(p + 1) * words];
        let mut pos = 0u32;
        let mut neg = 0u32;
        for w in 0..words {
            pos += (plus[w] & plane[w]).count_ones();
            neg += (minus[w] & plane[w]).count_ones();
        }
        // Shift-weighted recombination; |pos-neg| ≤ k so no plane term can
        // overflow, and AF006 bounds the full sum.
        acc += (pos as i32 - neg as i32) << p;
    }
    acc
}

/// One packed dot product on the chosen backend. The AVX2 path re-checks
/// CPU capability and falls back to scalar, so any backend value is safe
/// on any machine.
#[inline]
#[must_use]
pub fn dot_packed(
    plus: &[u64],
    minus: &[u64],
    act: &[u64],
    planes: usize,
    words: usize,
    backend: PackedBackend,
) -> i32 {
    match backend {
        PackedBackend::Scalar => dot_packed_scalar(plus, minus, act, planes, words),
        PackedBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                avx2::dot(plus, minus, act, planes, words)
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                dot_packed_scalar(plus, minus, act, planes, words)
            }
        }
    }
}

/// Packed GEMM: `out[i*n + j] = dot(weights.row(i), acts[j])` where
/// `acts` holds `n` packed activation vectors laid out by
/// [`pack_act_rows`]. Bit-identical to `gemm_i32` over the unpacked
/// operands.
pub fn packed_gemm(
    weights: &PackedWeights,
    acts: &[u64],
    n: usize,
    planes: usize,
    out: &mut [i32],
    backend: PackedBackend,
) {
    let words = weights.words;
    let stride = planes * words;
    debug_assert!(acts.len() >= n * stride);
    debug_assert!(out.len() >= weights.rows * n);
    #[cfg(target_arch = "x86_64")]
    if backend == PackedBackend::Avx2 && avx2::available() {
        for i in 0..weights.rows {
            let (wp, wn) = weights.row(i);
            avx2::gemm_row(wp, wn, acts, n, planes, words, &mut out[i * n..(i + 1) * n]);
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    for i in 0..weights.rows {
        let (wp, wn) = weights.row(i);
        for j in 0..n {
            out[i * n + j] =
                dot_packed_scalar(wp, wn, &acts[j * stride..(j + 1) * stride], planes, words);
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch thresholds.
// ---------------------------------------------------------------------------

/// The two shape thresholds of the engine's kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelThresholds {
    /// Minimum inner dimension at which the i32 GEMM runs its 4×4 blocked
    /// kernel rather than the row-dot loop.
    pub gemm_min_k: usize,
    /// Minimum weight-row count at which a packed-eligible MVTU runs the
    /// popcount kernel rather than the i32 GEMM.
    pub packed_min_rows: usize,
}

/// The dispatch thresholds: compile-time constants, the same in every
/// process on every machine. Every kernel choice they steer is
/// bit-identical, so they only ever affect speed.
#[must_use]
pub const fn kernel_thresholds() -> KernelThresholds {
    KernelThresholds {
        gemm_min_k: crate::engine::GEMM_MIN_K,
        packed_min_rows: crate::engine::PACKED_MIN_ROWS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_case(seed: u64, rows: usize, k: usize, max_act: u8) -> (Vec<i8>, Vec<u8>) {
        let mut s = seed.max(1);
        let w: Vec<i8> = (0..rows * k)
            .map(|_| (xorshift(&mut s) % 3) as i8 - 1)
            .collect();
        let a: Vec<u8> = (0..k)
            .map(|_| (xorshift(&mut s) % (u64::from(max_act) + 1)) as u8)
            .collect();
        (w, a)
    }

    fn reference_dot(w: &[i8], a: &[u8]) -> i32 {
        w.iter()
            .zip(a)
            .map(|(&w, &a)| i32::from(w) * i32::from(a))
            .sum()
    }

    #[test]
    fn scalar_dot_matches_reference_across_fan_ins() {
        // Fan-ins straddling lane boundaries, including non-multiples of 64.
        for &k in &[1usize, 7, 63, 64, 65, 72, 100, 127, 128, 200, 576] {
            for planes in 1..=2usize {
                let max_act = if planes == 1 { 1 } else { 3 };
                let (w, a) = random_case(k as u64 * 7 + planes as u64, 1, k, max_act);
                let pw = PackedWeights::pack(&w, 1, k);
                let mut acts = vec![0u64; act_pack_words(1, k, planes)];
                pack_act_rows(&a, 1, k, planes, &mut acts);
                let (wp, wn) = pw.row(0);
                assert_eq!(
                    dot_packed_scalar(wp, wn, &acts, planes, pw.words()),
                    reference_dot(&w, &a),
                    "k={k} planes={planes}"
                );
            }
        }
    }

    #[test]
    fn all_ones_and_all_zeros_planes() {
        let k = 130; // 2 full lanes + 2-bit tail
        let w_ones = vec![1i8; k];
        let w_negs = vec![-1i8; k];
        let w_zeros = vec![0i8; k];
        let a_max = vec![3u8; k];
        let a_zero = vec![0u8; k];
        for (w, a, expect) in [
            (&w_ones, &a_max, 3 * k as i32),
            (&w_negs, &a_max, -3 * (k as i32)),
            (&w_zeros, &a_max, 0),
            (&w_ones, &a_zero, 0),
        ] {
            let pw = PackedWeights::pack(w, 1, k);
            let mut acts = vec![0u64; act_pack_words(1, k, 2)];
            pack_act_rows(a, 1, k, 2, &mut acts);
            let (wp, wn) = pw.row(0);
            assert_eq!(dot_packed_scalar(wp, wn, &acts, 2, pw.words()), expect);
        }
    }

    #[test]
    fn avx2_matches_scalar_when_available() {
        if !simd_available() {
            eprintln!("skipping: no AVX2 on this machine");
            return;
        }
        for &k in &[1usize, 64, 65, 200, 576, 1000, 4096] {
            for planes in 1..=2usize {
                let max_act = if planes == 1 { 1 } else { 3 };
                let (w, a) = random_case(k as u64 * 31 + planes as u64, 1, k, max_act);
                let pw = PackedWeights::pack(&w, 1, k);
                let mut acts = vec![0u64; act_pack_words(1, k, planes)];
                pack_act_rows(&a, 1, k, planes, &mut acts);
                let (wp, wn) = pw.row(0);
                let scalar = dot_packed_scalar(wp, wn, &acts, planes, pw.words());
                let simd = dot_packed(wp, wn, &acts, planes, pw.words(), PackedBackend::Avx2);
                assert_eq!(simd, scalar, "k={k} planes={planes}");
            }
        }
    }

    #[test]
    fn packed_gemm_matches_i32_gemm_oracle() {
        for (rows, n, k, seed) in [
            (3usize, 5usize, 70usize, 1u64),
            (8, 16, 256, 2),
            (5, 1, 129, 3),
        ] {
            let mut s = seed;
            let w: Vec<i8> = (0..rows * k)
                .map(|_| (xorshift(&mut s) % 3) as i8 - 1)
                .collect();
            let acts: Vec<u8> = (0..n * k).map(|_| (xorshift(&mut s) % 4) as u8).collect();
            let mut oracle = vec![0i32; rows * n];
            crate::engine::gemm_i32(&w, &acts, rows, n, k, &mut oracle);
            let pw = PackedWeights::pack(&w, rows, k);
            let mut packed_acts = vec![0u64; act_pack_words(n, k, 2)];
            pack_act_rows(&acts, n, k, 2, &mut packed_acts);
            for backend in [PackedBackend::Scalar, PackedBackend::Avx2] {
                let mut out = vec![0i32; rows * n];
                packed_gemm(&pw, &packed_acts, n, 2, &mut out, backend);
                assert_eq!(out, oracle, "rows={rows} n={n} k={k} {backend:?}");
            }
        }
    }

    #[test]
    fn accumulator_saturation_is_exact_at_large_fan_in() {
        // Worst case the AF006 domain bound admits for packed layers:
        // all +1 weights against all-3 activations at a huge fan-in. The
        // plane counts approach words·64 without wrapping the i32.
        let k = 1 << 20; // 1Mi elements → dot = 3·2^20 ≈ 3.1e6
        let w = vec![1i8; k];
        let a = vec![3u8; k];
        let pw = PackedWeights::pack(&w, 1, k);
        let mut acts = vec![0u64; act_pack_words(1, k, 2)];
        pack_act_rows(&a, 1, k, 2, &mut acts);
        let (wp, wn) = pw.row(0);
        let expect = 3 * k as i32;
        assert_eq!(dot_packed_scalar(wp, wn, &acts, 2, pw.words()), expect);
        if simd_available() {
            assert_eq!(
                dot_packed(wp, wn, &acts, 2, pw.words(), PackedBackend::Avx2),
                expect
            );
        }
    }

    #[test]
    fn scratch_reuse_zeroes_stale_tail_lanes() {
        let planes = 2;
        let k_big = 100;
        let k_small = 65; // same word count, shorter tail
        let mut acts = vec![0u64; act_pack_words(1, k_big, planes)];
        let big = vec![3u8; k_big];
        let small = vec![1u8; k_small];
        let ones = vec![1i8; k_small];
        pack_act_rows(&big, 1, k_big, planes, &mut acts);
        pack_act_rows(&small, 1, k_small, planes, &mut acts);
        let pw = PackedWeights::pack(&ones, 1, k_small);
        let (wp, wn) = pw.row(0);
        assert_eq!(
            dot_packed_scalar(wp, wn, &acts, planes, pw.words()),
            k_small as i32,
            "stale bits from the longer vector must not leak"
        );
    }

    #[test]
    fn thresholds_are_the_named_constants() {
        const T: KernelThresholds = kernel_thresholds();
        assert_eq!(T.gemm_min_k, crate::engine::GEMM_MIN_K);
        assert_eq!(T.packed_min_rows, crate::engine::PACKED_MIN_ROWS);
    }

    #[test]
    fn gather_lsb_extracts_byte_low_bits() {
        assert_eq!(gather_lsb(0x0101_0101_0101_0101), 0xff);
        assert_eq!(gather_lsb(0), 0);
        assert_eq!(
            gather_lsb(u64::from_le_bytes([1, 0, 0, 1, 0, 0, 1, 0])),
            0b0100_1001
        );
        assert_eq!(
            gather_lsb(u64::from_le_bytes([1, 0, 1, 0, 0, 0, 0, 1])),
            0b1000_0101
        );
    }
}
