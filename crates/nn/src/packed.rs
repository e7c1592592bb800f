//! Bit-packed popcount MVTU kernels over pixel-major bitplanes.
//!
//! The FINN matrix-vector compute unit that AdaFlow's accelerators
//! instantiate never multiplies: for 1–2-bit domains it ANDs packed
//! bitplanes and popcounts the result, its sliding-window unit streams
//! windows straight into it, and its thresholds sit in its own output stage
//! ("On the RTL Implementation of FINN Matrix Vector Compute Unit";
//! Umuroglu et al., FINN). This module is the software mirror of that
//! datapath: activations stay packed from one MVTU to the next.
//!
//! ## Representation
//!
//! A weight `w ∈ {-1, 0, +1}` is one bit in a `+1` plane or one bit in a
//! `-1` plane; an activation `a ∈ {0..=3}` is one bit in each of the planes
//! `a = a⁰ + 2·a¹`. A dot product recombines plane-pair popcounts:
//!
//! ```text
//! dot(w, a) = Σ_p 2^p · (popcount(plus & aᵖ) − popcount(minus & aᵖ))
//! ```
//!
//! A packed **feature map** is pixel-major: per plane, pixel `(y, x)` owns
//! the `cw = ⌈C/64⌉` words at `(y·W + x)·cw`, channel `c` is bit `c % 64` of
//! word `c / 64`, and plane `p` starts `H·W·cw` words after plane `p − 1`.
//! [`PackedWeights`] stores each row tap-major (`[ky][kx][c/64]`, a free
//! permutation of the dot product), so the in-bounds part of one kernel row
//! of a window is one contiguous [`Run`] of words in both operands and no
//! window matrix is ever built. A dense layer is the convolution whose
//! kernel covers its whole input map, and [`packed_gemm`]'s row operand is
//! the one-tap window, so one micro-kernel ([`PackedWeights::window_dots`])
//! serves all three. Lanes past `C` are zero in every plane and contribute
//! nothing.
//!
//! Thresholding the accumulators of one pixel ([`PackedThresholds::emit`])
//! writes the code bits of 64 channels straight into the next map's words,
//! and max-pooling 2-bit codes ([`pool_planes`]) is a bitwise
//! compare-select per word. Every step is an exact integer identity, so the
//! chain is bit-identical to the `u8`/`i32` kernels in [`crate::engine`],
//! which stay as the equivalence oracles; eligibility (≤2-bit weights *and*
//! activations, established by [`adaflow_model::mvtu_domains`]) is enforced
//! by the engine's kernel planner, not here.
//!
//! ## Dispatch
//!
//! [`default_backend`] picks the fastest [`PackedBackend`] the CPU can run,
//! from cached runtime probes (`is_x86_feature_detected!`): AVX-512 with
//! `vpopcntq`, then AVX2, then the portable scalar kernels. Setting the
//! `ADAFLOW_FORCE_SCALAR` environment variable pins scalar. The SIMD paths
//! live in the only two `unsafe`-allowing modules of the workspace
//! ([`self::avx512`] and [`self::avx2`]; the AVX-512 backend shares the AVX2
//! threshold epilogue) and every kernel there has a scalar twin here. A
//! requested backend the CPU cannot run steps down to the next one it can
//! ([`PackedBackend::effective`]), so the choice is never unsound. Which
//! layers reach these kernels is the engine planner's decision, a pure
//! function of the graph; [`kernel_thresholds`] reports the two constants
//! it uses.

use adaflow_model::ThresholdTable;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

/// Bits per packed lane.
pub const LANE: usize = 64;

/// Weight rows interleaved per tap word: one 256-bit vector holds the same
/// tap of this many output channels, one 512-bit vector both its signs.
const GROUP: usize = 4;

/// Accumulators thresholded per compare: one 256-bit vector of `i32`.
const BLOCK: usize = 8;

/// Number of `u64` words one plane of a length-`k` vector occupies.
#[must_use]
pub const fn plane_words(k: usize) -> usize {
    k.div_ceil(LANE)
}

// ---------------------------------------------------------------------------
// Backend selection.
// ---------------------------------------------------------------------------

/// Which implementation computes the plane-pair popcounts, slowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PackedBackend {
    /// Portable `u64` SWAR with `count_ones()`.
    #[default]
    Scalar,
    /// 256-bit AVX2 path (vpshufb nibble-LUT popcount).
    Avx2,
    /// 512-bit AVX-512 path (`vpopcntq`, one row group per vector); needs
    /// AVX-512F, AVX-512VL and AVX-512 VPOPCNTDQ.
    Avx512,
}

impl PackedBackend {
    /// Every backend, slowest first.
    pub const ALL: [Self; 3] = [Self::Scalar, Self::Avx2, Self::Avx512];

    /// Short human-readable label (`"scalar"` / `"avx2"` / `"avx512"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can run this backend's kernels.
    #[must_use]
    pub fn is_runnable(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                Self::Scalar => true,
                Self::Avx2 => avx2::available(),
                Self::Avx512 => avx512::available(),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Self::Scalar
        }
    }

    /// The backends the running CPU can run, slowest first: the list every
    /// bit-identity test iterates.
    #[must_use]
    pub fn runnable() -> Vec<Self> {
        Self::ALL.into_iter().filter(|b| b.is_runnable()).collect()
    }

    /// The backend that computes when `self` is requested: `self` if the
    /// CPU can run it, else the next one down (`Avx512` → `Avx2` →
    /// `Scalar`).
    #[must_use]
    pub fn effective(self) -> Self {
        match self {
            Self::Avx512 if Self::Avx512.is_runnable() => Self::Avx512,
            Self::Avx512 | Self::Avx2 if Self::Avx2.is_runnable() => Self::Avx2,
            _ => Self::Scalar,
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

/// The backend the engine uses unless overridden: the fastest one the CPU
/// can run, or scalar when `ADAFLOW_FORCE_SCALAR` is set.
#[must_use]
pub fn default_backend() -> PackedBackend {
    if force_scalar() {
        PackedBackend::Scalar
    } else {
        PackedBackend::Avx512.effective()
    }
}

// ---------------------------------------------------------------------------
// Weight packing.
// ---------------------------------------------------------------------------

/// The bitplane form of an MVTU weight matrix, built once at `Engine::new`
/// time: per row and tap word a `+1` lane and a `-1` lane, tap-major, rows
/// interleaved in groups of four (`[group][tap word][+1 | -1][row]`) so one
/// vector load fetches the same tap of four output channels. The last
/// group is padded with all-zero rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    rows: usize,
    k: usize,
    words: usize,
    lanes: Vec<u64>,
}

impl PackedWeights {
    /// Packs a row-major `rows × k` weight matrix with entries in
    /// `{-1, 0, +1}` as one tap of `k` channels.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * k` or any entry falls outside
    /// the packed domain — the engine only packs layers whose domains the
    /// eligibility analysis has already established.
    #[must_use]
    pub fn pack(weights: &[i8], rows: usize, k: usize) -> Self {
        Self::pack_taps(weights, rows, k, 1)
    }

    /// Packs `rows` filters laid out `[channel][tap]` (the model's
    /// `[in][kh][kw]`, and a dense row over a `C×H×W` input) into tap-major
    /// words `tap · ⌈channels/64⌉ + c / 64`.
    pub(crate) fn pack_taps(weights: &[i8], rows: usize, channels: usize, taps: usize) -> Self {
        let k = channels * taps;
        assert_eq!(weights.len(), rows * k, "weight geometry");
        let cw = plane_words(channels);
        let words = taps * cw;
        let mut lanes = vec![0u64; rows.div_ceil(GROUP) * words * 2 * GROUP];
        for r in 0..rows {
            for (i, &w) in weights[r * k..(r + 1) * k].iter().enumerate() {
                assert!((-1..=1).contains(&w), "weight {w} outside packed domain");
                if w != 0 {
                    let (c, tap) = (i / taps, i % taps);
                    let word = r / GROUP * words + tap * cw + c / LANE;
                    let sign = usize::from(w < 0);
                    lanes[(word * 2 + sign) * GROUP + r % GROUP] |= 1u64 << (c % LANE);
                }
            }
        }
        Self {
            rows,
            k,
            words,
            lanes,
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

    /// Lanes per plane of one row: taps × words per tap.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Heap bytes held by the planes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lanes.len() * std::mem::size_of::<u64>()
    }

    /// Accumulators [`Self::window_dots`] writes: the rows rounded up to
    /// whole groups, and on to whole [`PackedThresholds::emit`] blocks.
    pub(crate) fn acc_len(&self) -> usize {
        self.rows.next_multiple_of(BLOCK)
    }

    /// The micro-kernel: `acc[r] = dot(row r, window)` for every row, where
    /// the window is the concatenation of `runs` read from each of the
    /// `planes` bitplanes of `acts` (plane `p` starts at word `p · stride`).
    /// Accumulators of the padding rows past [`Self::rows`] are zero.
    ///
    /// # Panics
    ///
    /// Panics if a run leaves the tap words or a plane, or `acc` is shorter
    /// than [`Self::acc_len`].
    pub(crate) fn window_dots(
        &self,
        acts: &[u64],
        stride: usize,
        planes: usize,
        runs: &[Run],
        acc: &mut [i32],
        backend: PackedBackend,
    ) {
        assert!((1..=2).contains(&planes), "packed contract is 1–2 planes");
        assert!(acc.len() >= self.acc_len(), "accumulator row too short");
        for run in runs {
            assert!(run.tap + run.len <= self.words, "run leaves the taps");
            let end = (planes - 1) * stride + run.act + run.len;
            assert!(end <= acts.len(), "run leaves the activation planes");
        }
        #[cfg(target_arch = "x86_64")]
        match backend.effective() {
            PackedBackend::Avx512 => {
                avx512::window_dots(&self.lanes, self.words, acts, stride, planes, runs, acc);
                return;
            }
            PackedBackend::Avx2 => {
                avx2::window_dots(&self.lanes, self.words, acts, stride, planes, runs, acc);
                return;
            }
            PackedBackend::Scalar => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = backend;
        for (group, out) in self
            .lanes
            .chunks_exact(self.words * 2 * GROUP)
            .zip(acc.chunks_exact_mut(GROUP))
        {
            let mut sums = [0i32; GROUP];
            for run in runs {
                let taps = &group[run.tap * 2 * GROUP..(run.tap + run.len) * 2 * GROUP];
                for p in 0..planes {
                    let plane = &acts[p * stride + run.act..][..run.len];
                    for (tap, &a) in taps.chunks_exact(2 * GROUP).zip(plane) {
                        for (lane, sum) in sums.iter_mut().enumerate() {
                            let pos = (tap[lane] & a).count_ones() as i32;
                            let neg = (tap[GROUP + lane] & a).count_ones() as i32;
                            // |pos − neg| ≤ k per plane and AF006 bounds the
                            // full sum, so nothing here can overflow.
                            *sum += (pos - neg) << p;
                        }
                    }
                }
            }
            out.copy_from_slice(&sums);
        }
    }
}

/// One contiguous stretch of a window: `len` words of every activation
/// plane starting at word `act`, against tap words `tap..tap + len` of
/// every weight row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub act: usize,
    pub tap: usize,
    pub len: usize,
}

// ---------------------------------------------------------------------------
// Threshold → pack.
// ---------------------------------------------------------------------------

/// A multi-threshold table laid out for the packed epilogue: per block of
/// eight channels, one vector of thresholds per level. The activation code
/// of channel `c` — the number of its thresholds the accumulator meets, as
/// [`ThresholdTable::apply`] — is written as bit `c % 64` of word `c / 64`
/// in each plane of the output map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedThresholds {
    rows: usize,
    levels: usize,
    /// `[block][level][channel in block]`.
    blocks: Vec<i32>,
}

impl PackedThresholds {
    /// Lays `table` out for [`Self::emit`].
    ///
    /// # Panics
    ///
    /// Panics if the table has more than three levels: its codes would not
    /// fit two planes, and the planner only packs what feeds a packed MVTU.
    pub(crate) fn pack(table: &ThresholdTable) -> Self {
        let (rows, levels) = (table.channels(), table.levels());
        assert!(levels <= 3, "{levels} threshold levels exceed two planes");
        let mut blocks = vec![i32::MAX; rows.div_ceil(BLOCK) * levels * BLOCK];
        for r in 0..rows {
            for (level, &t) in table.row(r).iter().enumerate() {
                blocks[(r / BLOCK * levels + level) * BLOCK + r % BLOCK] = t;
            }
        }
        Self {
            rows,
            levels,
            blocks,
        }
    }

    /// Channels thresholded.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Accumulators [`Self::emit`] reads: the channels rounded up to whole
    /// blocks.
    pub(crate) fn acc_len(&self) -> usize {
        self.rows.next_multiple_of(BLOCK)
    }

    /// Planes the codes `0..=levels` occupy.
    pub(crate) fn planes(&self) -> usize {
        if self.levels > 1 {
            2
        } else {
            1
        }
    }

    /// Thresholds one pixel's accumulators (`acc[c]` for channel `c`, padded
    /// to whole blocks) and stores its code words: plane `p` of the pixel is
    /// `out[p · stride..][..⌈rows/64⌉]`. Whole words are assigned, so a
    /// reused map needs no clearing.
    ///
    /// With ascending thresholds the met ones form a prefix, so the code's
    /// high bit is "meets level 1" and its low bit the parity of the count.
    pub(crate) fn emit(&self, acc: &[i32], out: &mut [u64], stride: usize, backend: PackedBackend) {
        assert!(acc.len() >= self.acc_len(), "accumulator row too short");
        let blocks = self.acc_len() / BLOCK;
        let per_word = LANE / BLOCK;
        for word in 0..plane_words(self.rows) {
            let first = word * per_word;
            let n = per_word.min(blocks - first);
            let thresholds = &self.blocks[first * self.levels * BLOCK..][..n * self.levels * BLOCK];
            let acc = &acc[first * BLOCK..][..n * BLOCK];
            let (lo, hi) = self.code_bits(thresholds, acc, backend);
            // Padding channels past `rows` hold whatever the last layer left.
            let live = u64::MAX >> (LANE - (self.rows - word * LANE).min(LANE));
            out[word] = lo & live;
            if self.levels > 1 {
                out[stride + word] = hi & live;
            }
        }
    }

    /// `(low, high)` code bits of up to eight blocks, block `b` in byte `b`.
    fn code_bits(&self, thresholds: &[i32], acc: &[i32], backend: PackedBackend) -> (u64, u64) {
        // The AVX-512 backend keeps this AVX2 epilogue: its probe requires
        // AVX2, and the epilogue is a sliver of a layer's time.
        #[cfg(target_arch = "x86_64")]
        if backend.effective() != PackedBackend::Scalar {
            return avx2::code_bits(thresholds, self.levels, acc);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = backend;
        let (mut lo, mut hi) = (0u64, 0u64);
        for (i, &a) in acc.iter().enumerate() {
            let block = &thresholds[i / BLOCK * self.levels * BLOCK..];
            let code = (0..self.levels)
                .filter(|l| a >= block[l * BLOCK + i % BLOCK])
                .count() as u64;
            lo |= (code & 1) << i;
            hi |= (code >> 1) << i;
        }
        (lo, hi)
    }
}

// ---------------------------------------------------------------------------
// Max-pool on planes.
// ---------------------------------------------------------------------------

/// Max-pooling over a packed map, 64 channels per word: on 2-bit codes the
/// larger of two is a bitwise compare-select, on 1-bit codes an OR. Windows
/// are clamped to the input extent exactly as the `u8` pool clamps them.
pub(crate) fn pool_planes(
    (kernel, stride): (usize, usize),
    input: &[u64],
    (ih, iw): (usize, usize),
    (oh, ow): (usize, usize),
    (cw, planes): (usize, usize),
    out: &mut [u64],
) {
    let (in_plane, out_plane) = (ih * iw * cw, oh * ow * cw);
    for y in 0..oh {
        for x in 0..ow {
            let (sy, sx) = (y * stride, x * stride);
            for word in 0..cw {
                let (mut m0, mut m1) = (0u64, 0u64);
                for ky in 0..kernel.min(ih - sy) {
                    for kx in 0..kernel.min(iw - sx) {
                        let at = ((sy + ky) * iw + sx + kx) * cw + word;
                        let a0 = input[at];
                        if planes == 1 {
                            m0 |= a0;
                            continue;
                        }
                        let a1 = input[in_plane + at];
                        let gt = (a1 & !m1) | (!(a1 ^ m1) & a0 & !m0);
                        m0 = (gt & a0) | (!gt & m0);
                        m1 |= a1;
                    }
                }
                let at = (y * ow + x) * cw + word;
                out[at] = m0;
                if planes == 2 {
                    out[out_plane + at] = m1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row-major activation packing and the packed GEMM over it.
// ---------------------------------------------------------------------------

/// `u64` words needed to pack `rows` activation vectors of length `k` into
/// `planes` bitplanes.
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

/// Packed GEMM: `out[i*n + j] = dot(weights row i, acts[j])` where `acts`
/// holds `n` packed activation vectors laid out by [`pack_act_rows`] and
/// `weights` came from [`PackedWeights::pack`]. Each vector is the one-run
/// window of the micro-kernel the engine's convolutions use. Bit-identical
/// to `gemm_i32` over the unpacked operands.
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
    assert!(acts.len() >= n * stride, "activation geometry");
    assert!(out.len() >= weights.rows * n, "output geometry");
    let window = [Run {
        act: 0,
        tap: 0,
        len: words,
    }];
    let mut acc = vec![0i32; weights.acc_len()];
    for j in 0..n {
        let row = &acts[j * stride..(j + 1) * stride];
        weights.window_dots(row, words, planes, &window, &mut acc, backend);
        for (i, &v) in acc[..weights.rows].iter().enumerate() {
            out[i * n + j] = v;
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

    /// One packed dot product through the micro-kernel.
    fn dot(w: &[i8], a: &[u8], planes: usize, backend: PackedBackend) -> i32 {
        let pw = PackedWeights::pack(w, 1, w.len());
        let mut acts = vec![0u64; act_pack_words(1, a.len(), planes)];
        pack_act_rows(a, 1, a.len(), planes, &mut acts);
        let mut out = [0i32];
        packed_gemm(&pw, &acts, 1, planes, &mut out, backend);
        out[0]
    }

    #[test]
    fn scalar_dot_matches_reference_across_fan_ins() {
        // Fan-ins straddling lane boundaries, including non-multiples of 64.
        for &k in &[1usize, 7, 63, 64, 65, 72, 100, 127, 128, 200, 576] {
            for planes in 1..=2usize {
                let max_act = if planes == 1 { 1 } else { 3 };
                let (w, a) = random_case(k as u64 * 7 + planes as u64, 1, k, max_act);
                assert_eq!(
                    dot(&w, &a, planes, PackedBackend::Scalar),
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
            assert_eq!(dot(w, a, 2, PackedBackend::Scalar), expect);
        }
    }

    #[test]
    fn runnable_backends_start_scalar_and_end_at_the_default() {
        let runnable = PackedBackend::runnable();
        // Printed so a `--nocapture` run shows which kernels were exercised.
        eprintln!(
            "packed backends runnable on this CPU: {:?}",
            runnable.iter().map(|b| b.label()).collect::<Vec<_>>()
        );
        assert_eq!(runnable[0], PackedBackend::Scalar);
        if !force_scalar() {
            assert_eq!(runnable.last(), Some(&default_backend()));
        }
    }

    #[test]
    fn every_backend_matches_scalar() {
        // 4096 words of fan-in cross many AVX2 byte-accumulator folds; the
        // W1 rows (no zero weight) fill both sign planes densely.
        for &k in &[1usize, 64, 65, 200, 576, 1000, 4096] {
            for planes in 1..=2usize {
                let max_act = if planes == 1 { 1 } else { 3 };
                let (w, a) = random_case(k as u64 * 31 + planes as u64, 1, k, max_act);
                let w1: Vec<i8> = w.iter().map(|&v| if v < 0 { -1 } else { 1 }).collect();
                for backend in PackedBackend::runnable() {
                    for w in [&w, &w1] {
                        assert_eq!(
                            dot(w, &a, planes, backend),
                            dot(w, &a, planes, PackedBackend::Scalar),
                            "k={k} planes={planes} {backend:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_rows_and_empty_runs_leave_zero_accumulators() {
        // 6 rows: the second group carries two all-zero padding rows, whose
        // accumulators must come out 0; an empty run contributes nothing.
        let (rows, k) = (6usize, 130usize);
        let (w, a) = random_case(17, rows, k, 3);
        let pw = PackedWeights::pack(&w, rows, k);
        for planes in 1..=2usize {
            let a: Vec<u8> = a.iter().map(|&v| v >> (2 - planes)).collect();
            let mut acts = vec![0u64; act_pack_words(1, k, planes)];
            pack_act_rows(&a, 1, k, planes, &mut acts);
            let words = plane_words(k);
            let whole = Run {
                act: 0,
                tap: 0,
                len: words,
            };
            let empty = Run {
                act: words,
                tap: words,
                len: 0,
            };
            for backend in PackedBackend::runnable() {
                for (runs, covers) in [(&[whole, empty][..], true), (&[empty], false)] {
                    let mut acc = vec![7i32; pw.acc_len()];
                    pw.window_dots(&acts, words, planes, runs, &mut acc, backend);
                    for r in 0..rows.next_multiple_of(GROUP) {
                        let expect = if covers && r < rows {
                            reference_dot(&w[r * k..(r + 1) * k], &a)
                        } else {
                            0
                        };
                        assert_eq!(acc[r], expect, "row {r} planes={planes} {backend:?}");
                    }
                }
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
            for backend in PackedBackend::runnable() {
                let mut out = vec![0i32; rows * n];
                packed_gemm(&pw, &packed_acts, n, 2, &mut out, backend);
                assert_eq!(out, oracle, "rows={rows} n={n} k={k} {backend:?}");
            }
        }
    }

    #[test]
    fn accumulator_saturation_is_exact_at_large_fan_in() {
        // Worst case the AF006 domain bound admits for packed layers:
        // all +1 weights against all-3 activations at a huge fan-in. Every
        // AVX2 byte accumulator runs to its fold limit without wrapping.
        let k = 1 << 20; // 1Mi elements → dot = 3·2^20 ≈ 3.1e6
        let w = vec![1i8; k];
        let a = vec![3u8; k];
        let expect = 3 * k as i32;
        for backend in PackedBackend::runnable() {
            assert_eq!(dot(&w, &a, 2, backend), expect, "{backend:?}");
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
        let mut out = [0i32];
        packed_gemm(&pw, &acts, 1, planes, &mut out, PackedBackend::Scalar);
        assert_eq!(
            out[0], k_small as i32,
            "stale bits from the longer vector must not leak"
        );
    }

    #[test]
    fn tap_major_rows_dot_windows_given_as_runs() {
        // 3 taps of 70 channels: tap words are [tap][c/64], and a window
        // may arrive as any split of them into runs, or miss a tap (padding).
        let (channels, taps, rows) = (70usize, 3usize, 6usize);
        let (w, _) = random_case(11, rows, channels * taps, 3);
        let pw = PackedWeights::pack_taps(&w, rows, channels, taps);
        let cw = plane_words(channels);
        assert_eq!(pw.words(), taps * cw);
        // A map of 5 pixels; the window takes pixels 1, 2 and 4 as taps 0..3.
        let mut s = 5u64;
        let pixels: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                (0..channels)
                    .map(|_| (xorshift(&mut s) % 4) as u8)
                    .collect()
            })
            .collect();
        let flat: Vec<u8> = pixels.concat();
        let mut rows_packed = vec![0u64; act_pack_words(5, channels, 2)];
        pack_act_rows(&flat, 5, channels, 2, &mut rows_packed);
        // Re-lay [pixel][plane][cw] as the pixel-major map [plane][pixel][cw].
        let mut map = vec![0u64; 2 * 5 * cw];
        for px in 0..5 {
            for p in 0..2 {
                let from = &rows_packed[(px * 2 + p) * cw..][..cw];
                map[(p * 5 + px) * cw..][..cw].copy_from_slice(from);
            }
        }
        let runs = [
            Run {
                act: cw,
                tap: 0,
                len: 2 * cw,
            },
            Run {
                act: 4 * cw,
                tap: 2 * cw,
                len: cw,
            },
        ];
        for (used, window) in [
            (&runs[..], [1usize, 2, 4].as_slice()),
            (&runs[..1], &[1, 2]),
        ] {
            for backend in PackedBackend::runnable() {
                let mut acc = vec![7i32; pw.acc_len()];
                pw.window_dots(&map, 5 * cw, 2, used, &mut acc, backend);
                for r in 0..rows {
                    let expect: i32 = window
                        .iter()
                        .enumerate()
                        .map(|(tap, &px)| {
                            (0..channels)
                                .map(|c| {
                                    i32::from(w[r * channels * taps + c * taps + tap])
                                        * i32::from(pixels[px][c])
                                })
                                .sum::<i32>()
                        })
                        .sum();
                    assert_eq!(acc[r], expect, "row {r} {backend:?} window {window:?}");
                }
            }
        }
    }

    #[test]
    fn threshold_emit_matches_table_apply_around_every_threshold() {
        // Accumulators exactly on, one below and one above every threshold
        // of every channel, at channel counts below, at and across lanes.
        for (channels, levels) in [
            (1usize, 1usize),
            (7, 3),
            (64, 2),
            (65, 3),
            (130, 1),
            (130, 3),
        ] {
            let rows: Vec<Vec<i32>> = (0..channels)
                .map(|c| {
                    let base = (c as i32 * 37) % 101 - 50;
                    // Ascending with a repeated level when `c` is even.
                    (0..levels as i32)
                        .map(|l| base + l / (1 + (c as i32 + 1) % 2) * 9)
                        .collect()
                })
                .collect();
            let table = ThresholdTable::from_rows(&rows).expect("ascending");
            let packed = PackedThresholds::pack(&table);
            let cw = plane_words(channels);
            for level in 0..levels {
                for delta in [-1i32, 0, 1] {
                    let mut acc: Vec<i32> = rows.iter().map(|row| row[level] + delta).collect();
                    acc.resize(packed.acc_len(), i32::MIN);
                    for backend in PackedBackend::runnable() {
                        let mut out = vec![u64::MAX; 2 * cw];
                        packed.emit(&acc, &mut out, cw, backend);
                        for c in 0..channels {
                            let bit = |p: usize| (out[p * cw + c / LANE] >> (c % LANE)) & 1;
                            let code = if levels > 1 {
                                bit(0) + 2 * bit(1)
                            } else {
                                bit(0)
                            };
                            assert_eq!(
                                code,
                                u64::from(table.apply(c, acc[c])),
                                "{channels}x{levels} channel {c} level {level} delta {delta} {backend:?}"
                            );
                        }
                        // Lanes past the last channel stay clear.
                        let tail = channels % LANE;
                        if tail != 0 {
                            assert_eq!(out[cw - 1] >> tail, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plane_pool_matches_byte_pool_over_all_code_pairs() {
        // A 1x2 map pooled 2x2/stride-2 (the window overhangs the single
        // row): channel c = 4·a + b holds code a at x=0 and code b at x=1.
        let shape = adaflow_model::TensorShape::new(16, 1, 2);
        let mut bytes = crate::tensor::Activations::zeroed(shape);
        for a in 0..4u8 {
            for b in 0..4u8 {
                bytes.set(usize::from(4 * a + b), 0, 0, a);
                bytes.set(usize::from(4 * a + b), 0, 1, b);
            }
        }
        let out_shape = adaflow_model::TensorShape::new(16, 1, 1);
        let expect = crate::engine::pool_forward(2, 2, &bytes, out_shape);
        // Pixel-major planes of the same map.
        let mut map = vec![0u64; 2 * 2];
        for c in 0..16 {
            for x in 0..2 {
                let v = u64::from(bytes.at(c, 0, x));
                map[x] |= (v & 1) << c;
                map[2 + x] |= (v >> 1) << c;
            }
        }
        let mut out = vec![u64::MAX; 2];
        pool_planes((2, 2), &map, (1, 2), (1, 1), (1, 2), &mut out);
        for c in 0..16 {
            let code = ((out[0] >> c) & 1) + 2 * ((out[1] >> c) & 1);
            assert_eq!(code, u64::from(expect.at(c, 0, 0)), "channel {c}");
        }
        assert_eq!(out[0] >> 16, 0);
        // One plane: the max of 1-bit codes is their OR.
        let mut out = vec![u64::MAX; 1];
        pool_planes((2, 2), &map[..2], (1, 2), (1, 1), (1, 1), &mut out);
        assert_eq!(out[0], map[0] | map[1]);
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
