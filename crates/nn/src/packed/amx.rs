//! AMX-INT8 MVTU: every convolution and dense layer as `tdpbsud` tile
//! products over `u8` CHW activation maps, with the threshold and the 2×2
//! max-pool vectorised on AVX-512.
//!
//! One C tile holds the exact `i32` accumulators of 16 output channels × 16
//! raster-order output pixels (× 1 pixel for a dense layer). Its A operand,
//! 16 weight rows × 64 fan-in bytes, is loaded in place from the graph's
//! `[out][in][kh][kw]` rows with the fan-in as the tile stride: no weight
//! copy exists, except a zero-padded one for a layer whose fan-in is not a
//! multiple of four (`tdpbsud` multiplies dwords). Its B operand is the
//! layer's windows in the VNNI layout `tdpbsud` reads, `[fan-in / 4][pixel]
//! [4 bytes]`: a dense layer's input vector is already that for its one
//! pixel, and a convolution gathers it once per 16-pixel tile into a panel
//! of `fan-in / 4` rows of 64 bytes. The fast gather, for the 3×3 kernel of
//! every shipped model, takes each input channel's two 64-byte loads at the
//! tile's first window and permutes them (`vpermt2b`) into the panel rows of
//! that channel's taps, four channels (nine whole panel rows) at a time; a
//! tile of another kernel, with a padded window, or whose windows span 128
//! bytes of a channel plane or more, is gathered one byte at a time
//! instead.
//!
//! Like [`super::avx2`] and [`super::avx512`], this module re-allows `unsafe`
//! under the crate root's `deny(unsafe_code)`; the three are the only such
//! modules in the workspace. The unsafe surface is confined to:
//!
//! 1. the capability probe's one `arch_prctl(ARCH_REQ_XCOMP_PERM,
//!    XFEATURE_XTILEDATA)` system call per process;
//! 2. calling `#[target_feature(enable = "avx512f,avx512bw,avx512vl,
//!    avx512vbmi")]` functions;
//! 3. the AMX instructions, through `asm!`: `ldtilecfg`, `tilezero`,
//!    `tileloadd`, `tdpbsud`, `tilestored` and `tilerelease`; and
//! 4. unaligned (and byte-masked) AVX-512 loads and stores through raw
//!    pointers.
//!
//! ## Safety contract
//!
//! * Every `unsafe` function is reached only through the safe wrappers
//!   [`run`] and [`pool2x2`], which assert [`available`] — the cached probe
//!   of the AVX-512 features, the `cpuid` AMX-TILE and AMX-INT8 bits and the
//!   kernel's grant of tile-data permission — so every instruction executed
//!   is one the CPU and the kernel support.
//! * Every AMX instruction runs between one `ldtilecfg` and one
//!   `tilerelease` inside a single call of [`run`], whose configuration
//!   gives each tile register the shape of every operation on it; tile
//!   state never outlives the call, so a context switch between layers saves
//!   no tile data. A panic inside the call (a debug-build interval check)
//!   leaves the tiles configured, which costs only save space.
//! * A tile load of A reads `rows` rows of at most 64 bytes at stride
//!   [`Layer::k`] starting at column `64 j` of row `m0`, where `m0 + rows ≤`
//!   the layer's rows and `64 j` plus the row bytes `≤ k`: inside the
//!   weights, which [`run`] holds to exactly `rows · k` bytes. A B load reads
//!   the panel's first `k / 4` rows of 64 bytes, which [`run`] asserts the
//!   panel holds, or a dense layer's first `k` input bytes, which [`run`]
//!   asserts the input holds. C stores write two 16 × 64-byte tiles into
//!   the accumulator tile, which [`run`] asserts holds both.
//! * The fast gather loads 128 bytes from `c · H·W + base` for every input
//!   channel `c` of the layer, with `base < H·W` asserted per tile; [`run`]
//!   asserts the input map holds [`SLACK`] bytes past its last channel.
//!   Panel stores are whole 64-byte rows of the `kernel²` rows of each
//!   four-channel group, which [`run`] asserts the panel holds.
//! * Output stores are byte- or dword-masked to the tile's live pixels and
//!   rows, at offsets inside the `rows × pixels` output that [`run`]
//!   asserts; the pool's loads and stores are byte-masked to one row of the
//!   maps [`pool2x2`] asserts. Unaligned accesses are used throughout, so
//!   no alignment precondition exists.

#![allow(unsafe_code)]

use adaflow_model::ThresholdTable;
use std::arch::asm;
use std::arch::x86_64::{
    __cpuid, __cpuid_count, __m512i, _mm256_mask_storeu_epi8, _mm512_add_epi8, _mm512_and_si512,
    _mm512_cmpge_epi32_mask, _mm512_cvtepi16_epi8, _mm512_loadu_si512, _mm512_maskz_loadu_epi32,
    _mm512_maskz_loadu_epi8, _mm512_maskz_permutex2var_epi8, _mm512_max_epu16, _mm512_max_epu8,
    _mm512_or_si512, _mm512_permutex2var_epi8, _mm512_set1_epi16, _mm512_set1_epi32,
    _mm512_setzero_si512, _mm512_srli_epi16, _mm512_storeu_si512, _mm_mask_storeu_epi8,
    _mm_mask_sub_epi8, _mm_set1_epi8, _mm_setzero_si128,
};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Output channels per C tile, and output pixels (`i32` columns) per tile.
const TILE: usize = 16;
/// Bytes of one tile row: 16 dwords, or the 64 fan-in bytes one `tdpbsud`
/// consumes per A row.
const ROW: usize = 64;
/// Input channels whose taps fill a whole number of panel rows: the four
/// bytes of a VNNI dword.
const GROUP: usize = 4;
/// Bytes the fast gather loads per input channel and tile: two zmm.
const SPAN: usize = 2 * ROW;
/// The kernel the fast gather takes: every shipped model's.
const FAST_KERNEL: usize = 3;
/// Panel rows of one four-channel group of the fast gather's kernel.
const FAST_ROWS: usize = FAST_KERNEL * FAST_KERNEL;
/// Bytes an AMX step may read past the end of its input map: the fast
/// gather's second load, and a dense layer's fan-in rounded up to a dword.
pub(crate) const SLACK: usize = SPAN;

/// Cached capability probe: AVX-512 F/BW/VL/VBMI for the gather, the
/// epilogue and the pool, the AVX-512 popcount backend (which the popcount
/// entry points run when handed [`super::PackedBackend::Amx`]), the `cpuid`
/// AMX-TILE and AMX-INT8 bits, and the kernel's grant of tile-data state to
/// this process.
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        super::avx512::available()
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
            && amx_int8_listed()
            && tile_data_granted()
    })
}

/// `cpuid` leaf 7, sub-leaf 0: EDX bit 24 is AMX-TILE, bit 25 AMX-INT8.
fn amx_int8_listed() -> bool {
    // Leaf 7 is read only where leaf 0 reports it.
    __cpuid(0).eax >= 7 && __cpuid_count(7, 0).edx >> 24 & 0b11 == 0b11
}

/// Asks Linux for permission to use the tile-data state
/// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`); once granted it
/// holds for every thread of the process, each of which pays its first use.
#[cfg(target_os = "linux")]
fn tile_data_granted() -> bool {
    const SYS_ARCH_PRCTL: usize = 158;
    const ARCH_REQ_XCOMP_PERM: usize = 0x1023;
    const XFEATURE_XTILEDATA: usize = 18;
    let ret: isize;
    // SAFETY: the system call reads two integer arguments and changes only
    // the process's permitted extended-state set; `syscall` clobbers rcx and
    // r11, which are declared.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") SYS_ARCH_PRCTL as isize => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags),
        );
    }
    ret == 0
}

#[cfg(not(target_os = "linux"))]
fn tile_data_granted() -> bool {
    false
}

/// A threshold table laid out for the AMX epilogue: per level, the
/// thresholds of every channel, padded with `i32::MAX` (never met) to whole
/// tiles, so 16 consecutive channels of one level are one vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Thresholds {
    rows: usize,
    levels: usize,
    pitch: usize,
    by_level: Vec<i32>,
}

impl Thresholds {
    /// Lays `table` out level-major.
    pub(crate) fn new(table: &ThresholdTable) -> Self {
        let (rows, levels) = (table.channels(), table.levels());
        let pitch = rows.next_multiple_of(TILE);
        let mut by_level = vec![i32::MAX; levels * pitch];
        for r in 0..rows {
            for (level, &t) in table.row(r).iter().enumerate() {
                by_level[level * pitch + r] = t;
            }
        }
        Self {
            rows,
            levels,
            pitch,
            by_level,
        }
    }
}

/// Where a layer's accumulators go.
pub(crate) enum Output<'a> {
    /// Thresholded to codes, channel-major `[channel][pixel]`: the next
    /// layer's input map.
    Codes(&'a Thresholds, &'a mut [u8]),
    /// Kept as accumulators, channel-major.
    Accum(&'a mut [i32]),
}

/// The window geometry of a convolution that gathers its B panel.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Window {
    channels: usize,
    in_hw: (usize, usize),
    out_w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Byte offset of the last tap from a window's first:
    /// `(kernel − 1) · (W + 1)`.
    reach: usize,
    /// Per panel row of a four-channel group: byte `4 n + i` is the offset,
    /// from its window's first tap, of the tap that fan-in index `4 r + i`
    /// of the group reads. Empty unless the kernel is [`FAST_KERNEL`] and
    /// `reach` leaves room for a tile inside [`SPAN`]: else every tile is
    /// gathered byte by byte.
    taps: Vec<[u8; ROW]>,
    /// Per panel row of a group: the bytes that come from each of the
    /// group's four channels. Empty where `taps` is.
    masks: Vec<[u64; GROUP]>,
}

impl Window {
    /// Panel rows per four-channel group.
    fn group_rows(&self) -> usize {
        self.kernel * self.kernel
    }

    /// Window origin of output pixel `(oy, ox)`, in input pixels (negative
    /// under padding).
    fn origin(&self, (oy, ox): (usize, usize)) -> (isize, isize) {
        let at = |o: usize| (o * self.stride) as isize - self.padding as isize;
        (at(oy), at(ox))
    }

    /// The fast gather's plan for the tile of `live` pixels from `q0`: the
    /// byte offset of the first window in each channel plane, and every
    /// pixel's window offset from it (the last live one repeated). `None`
    /// when a window is clipped or the tile's taps span [`SPAN`] bytes.
    fn fast_tile(&self, q0: usize, live: usize) -> Option<(usize, [u8; TILE])> {
        if self.taps.is_empty() {
            return None;
        }
        let (ih, iw) = (self.in_hw.0 as isize, self.in_hw.1 as isize);
        let k = self.kernel as isize;
        let unclipped = |(y, x): (isize, isize)| y >= 0 && x >= 0 && y + k <= ih && x + k <= iw;
        let linear = |(y, x): (isize, isize)| (y * iw + x) as usize;
        let mut at = (q0 / self.out_w, q0 % self.out_w);
        let first = self.origin(at);
        let mut offsets = [0u8; TILE];
        for n in 0..live {
            let origin = self.origin(at);
            if !unclipped(origin) {
                return None;
            }
            // Raster order walks unclipped windows forward through the map.
            let delta = linear(origin) - linear(first);
            if delta + self.reach >= SPAN {
                return None;
            }
            offsets[n..].fill(delta as u8);
            at = if at.1 + 1 == self.out_w {
                (at.0 + 1, 0)
            } else {
                (at.0, at.1 + 1)
            };
        }
        Some((linear(first), offsets))
    }

    /// The portable gather: panel row `r`, byte `4 n + i` is the input at
    /// fan-in index `4 r + i` of pixel `q0 + n`'s window, zero where that
    /// tap is padding, past the last channel or past the live pixels.
    fn gather_scalar(&self, input: &[u8], q0: usize, live: usize, panel: &mut [u8]) {
        let (ih, iw) = self.in_hw;
        let taps = self.group_rows();
        let rows = self.channels.div_ceil(GROUP) * taps;
        let panel = &mut panel[..rows * ROW];
        panel.fill(0);
        for n in 0..live {
            let q = q0 + n;
            let (y0, x0) = self.origin((q / self.out_w, q % self.out_w));
            for f in 0..self.channels * taps {
                let (c, t) = (f / taps, f % taps);
                let (y, x) = (
                    y0 + (t / self.kernel) as isize,
                    x0 + (t % self.kernel) as isize,
                );
                if (0..ih as isize).contains(&y) && (0..iw as isize).contains(&x) {
                    panel[f / GROUP * ROW + n * GROUP + f % GROUP] =
                        input[(c * ih + y as usize) * iw + x as usize];
                }
            }
        }
    }
}

/// One MVTU on the AMX tiles: its weights, read in place where the fan-in
/// is whole dwords, and the geometry of its B operand.
#[derive(Debug, Clone)]
pub(crate) struct Layer<'g> {
    weights: Cow<'g, [i8]>,
    rows: usize,
    /// Fan-in rounded up to whole dwords: the pitch of a weight row and the
    /// K of the tile product.
    k: usize,
    /// Output pixels.
    pixels: usize,
    /// `None` for a dense layer, whose input vector is its B operand.
    window: Option<Window>,
}

impl<'g> Layer<'g> {
    /// A dense layer of `rows` rows over `fan_in` inputs.
    pub(crate) fn dense(weights: &'g [i8], rows: usize, fan_in: usize) -> Self {
        Self {
            weights: padded(weights, rows, fan_in),
            rows,
            k: fan_in.next_multiple_of(GROUP),
            pixels: 1,
            window: None,
        }
    }

    /// A `kernel`×`kernel` convolution of `rows` filters over a `channels`-
    /// deep `in_hw` map into `out_hw` pixels. One whose single window is
    /// the whole unpadded map is the dense layer over it.
    pub(crate) fn conv(
        weights: &'g [i8],
        rows: usize,
        channels: usize,
        in_hw: (usize, usize),
        (kernel, stride, padding): (usize, usize, usize),
        out_hw: (usize, usize),
    ) -> Self {
        let fan_in = channels * kernel * kernel;
        if out_hw == (1, 1) && padding == 0 && in_hw == (kernel, kernel) {
            return Self::dense(weights, rows, fan_in);
        }
        let reach = (kernel - 1) * (in_hw.1 + 1);
        let taps = kernel * kernel;
        let fast = if kernel == FAST_KERNEL && reach < SPAN {
            taps
        } else {
            0
        };
        let row_bytes = |r: usize| (0..ROW).map(move |b| (b, GROUP * r + b % GROUP));
        let tap_rows = (0..fast)
            .map(|r| {
                let mut row = [0u8; ROW];
                for (b, f) in row_bytes(r) {
                    let t = f % taps;
                    row[b] = (t / kernel * in_hw.1 + t % kernel) as u8;
                }
                row
            })
            .collect();
        let masks = (0..fast)
            .map(|r| {
                let mut masks = [0u64; GROUP];
                for (b, f) in row_bytes(r) {
                    masks[f / taps] |= 1u64 << b;
                }
                masks
            })
            .collect();
        Self {
            weights: padded(weights, rows, fan_in),
            rows,
            k: fan_in.next_multiple_of(GROUP),
            pixels: out_hw.0 * out_hw.1,
            window: Some(Window {
                channels,
                in_hw,
                out_w: out_hw.1,
                kernel,
                stride,
                padding,
                reach,
                taps: tap_rows,
                masks,
            }),
        }
    }

    /// Panel rows one tile's gather writes: `kernel²` per four input
    /// channels.
    fn panel_rows(w: &Window) -> usize {
        w.channels.div_ceil(GROUP) * w.group_rows()
    }

    /// K bytes of one tile product: 64, or the whole of a narrower fan-in.
    fn chunk(&self) -> usize {
        self.k.min(ROW)
    }

    /// Whole chunks of the fan-in, and the bytes of the partial chunk that
    /// ends it (0 when none does). The partial chunk's product reads the
    /// last 64 bytes of each weight row, never past it, against a B block
    /// whose leading rows, the ones the previous chunk already took, are
    /// zero.
    fn chunks(&self) -> (usize, usize) {
        (self.k / self.chunk(), self.k % self.chunk())
    }

    /// The first weight column chunk `j`'s A tiles read: whole chunks in
    /// turn, and the partial chunk as the last 64 bytes of the row.
    fn a_column(&self, j: usize) -> usize {
        (j * self.chunk()).min(self.k - self.chunk())
    }

    /// Bytes of one 16-pixel tile's B operand: its gathered panel rows,
    /// then the 16-row B block of the partial chunk, if any.
    fn panel_len(&self, w: &Window) -> usize {
        let block = if self.chunks().1 > 0 { TILE * ROW } else { 0 };
        Self::panel_rows(w) * ROW + block
    }

    /// Bytes of gather scratch: the B operands of the two 16-pixel tiles
    /// one pass takes (a dense layer: the one B block of its partial
    /// chunk), twice, for the pass that runs and the one prepared next.
    pub(crate) fn gather_len(&self) -> usize {
        2 * self.window.as_ref().map_or(ROW, |w| 2 * self.panel_len(w))
    }

    /// [`Self::gather_len`] plus the bytes [`run`] may skip to start the
    /// panel on a cache line.
    pub(crate) fn gather_scratch(&self) -> usize {
        self.gather_len() + ROW - 1
    }

    /// Accumulators of the C tiles one pass stores, twice: a pass's
    /// epilogue runs after the next pass's products are issued.
    pub(crate) const fn tile_len() -> usize {
        2 * 4 * TILE * TILE
    }

    /// [`Self::tile_len`] plus the accumulators [`run`] may skip to start
    /// the tiles on a cache line.
    pub(crate) const fn tile_scratch() -> usize {
        Self::tile_len() + ROW / 4 - 1
    }

    /// Whether the weights are a zero-padded copy (a fan-in that is not
    /// whole dwords) rather than the graph's own rows.
    #[cfg(test)]
    pub(crate) fn copies_weights(&self) -> bool {
        matches!(self.weights, Cow::Owned(_))
    }

    /// Bytes of the input map the layer reads, [`SLACK`] included.
    fn input_len(&self) -> usize {
        match &self.window {
            Some(w) => w.channels * w.in_hw.0 * w.in_hw.1 + SLACK,
            None => self.k,
        }
    }

    /// Output channels one C tile holds: 16, or every row of a narrower
    /// layer.
    fn tile_rows(&self) -> usize {
        self.rows.min(TILE)
    }

    /// The first row of C tile `i`: tiles step by 16, and the last of a
    /// ragged layer ends at its last row, overlapping the one before.
    fn tile_start(&self, i: usize) -> usize {
        (TILE * i).min(self.rows - self.tile_rows())
    }

    /// The tile configuration of this layer, for one pass of two row tiles
    /// × two pixel tiles: `tmm0`–`tmm3` the C tiles (rows × pixels:
    /// `00, 01, 10, 11`), `tmm4`/`tmm5` the A tiles of the two row tiles and
    /// `tmm6`/`tmm7` the B tiles of the two pixel tiles, one chunk deep.
    fn config(&self) -> TileConfig {
        let rows = self.tile_rows() as u8;
        // B and C columns: 16 pixels of a convolution, one of a dense layer.
        let cols = if self.window.is_some() { ROW } else { GROUP } as u16;
        let chunk = self.chunk();
        let mut cfg = TileConfig {
            palette: 1,
            start_row: 0,
            reserved: [0; 14],
            colsb: [0; 16],
            rows: [0; 16],
        };
        for (t, (r, c)) in [
            (rows, cols),
            (rows, cols),
            (rows, cols),
            (rows, cols),
            (rows, chunk as u16),
            (rows, chunk as u16),
            ((chunk / GROUP) as u8, cols),
            ((chunk / GROUP) as u8, cols),
        ]
        .into_iter()
        .enumerate()
        {
            cfg.rows[t] = r;
            cfg.colsb[t] = c;
        }
        cfg
    }
}

/// `weights` as rows of whole dwords: borrowed when the fan-in already is,
/// else a copy with each row zero-padded.
fn padded(weights: &[i8], rows: usize, fan_in: usize) -> Cow<'_, [i8]> {
    assert_eq!(weights.len(), rows * fan_in, "weight geometry");
    if fan_in.is_multiple_of(GROUP) {
        return Cow::Borrowed(weights);
    }
    let k = fan_in.next_multiple_of(GROUP);
    let mut copy = vec![0i8; rows * k];
    for (dst, src) in copy.chunks_exact_mut(k).zip(weights.chunks_exact(fan_in)) {
        dst[..fan_in].copy_from_slice(src);
    }
    Cow::Owned(copy)
}

/// The 64-byte operand of `ldtilecfg` (palette 1).
#[repr(C, align(64))]
struct TileConfig {
    palette: u8,
    start_row: u8,
    reserved: [u8; 14],
    colsb: [u16; 16],
    rows: [u8; 16],
}

/// What sees each channel's accumulators of a C tile before its epilogue:
/// the engine's debug-build interval check, or nothing.
pub(crate) type Check<'a> = Option<&'a mut dyn FnMut(usize, &[i32])>;

/// Runs `layer` over the `u8` CHW map `input` into `out`, in passes of two
/// 16-pixel tiles of B (gathered into `panel`) against two 16-row tiles of
/// A, whose C tiles are stored into `tile` and thresholded once the next
/// pass's products are under way. Before thresholding or storing a
/// channel's accumulators of a tile, `check(channel, accumulators)`, if
/// any, sees them.
///
/// # Panics
///
/// Panics without AMX ([`available`]), if `input` holds fewer than the
/// layer's map plus [`SLACK`] bytes (a dense layer: its fan-in rounded up
/// to a dword), if `panel` or `tile` is shorter than
/// [`Layer::gather_len`] / [`Layer::tile_len`], or if `out` holds fewer
/// than `rows × pixels` entries or thresholds of another row count.
pub(crate) fn run(
    layer: &Layer,
    input: &[u8],
    mut out: Output<'_>,
    (panel, tile): (&mut [u8], &mut [i32]),
    check: Check<'_>,
) {
    assert!(available(), "AMX kernel dispatched without AMX");
    // Every tile register this layer configures has rows and columns.
    assert!(layer.rows > 0 && layer.k > 0, "an empty layer");
    assert_eq!(layer.weights.len(), layer.rows * layer.k, "weight geometry");
    assert!(input.len() >= layer.input_len(), "input map too short");
    // Tile rows are whole cache lines where their buffers start on one.
    let skip = panel.as_ptr().align_offset(ROW).min(panel.len());
    let panel = &mut panel[skip..];
    let skip = tile.as_ptr().align_offset(ROW).min(tile.len());
    let tile = &mut tile[skip..];
    assert!(panel.len() >= layer.gather_len(), "gather panel too short");
    assert!(
        tile.len() >= Layer::tile_len(),
        "accumulator tile too short"
    );
    let outputs = layer.rows * layer.pixels;
    match &mut out {
        Output::Codes(t, codes) => {
            assert_eq!(t.rows, layer.rows, "threshold rows");
            assert!(codes.len() >= outputs, "code map too short");
        }
        Output::Accum(accum) => assert!(accum.len() >= outputs, "accumulators too short"),
    }
    // SAFETY: `available()` established AVX-512 F/BW/VL/VBMI, AMX-INT8 and
    // the tile-data grant at runtime, and the asserts above bound every
    // access the kernel makes (module docs).
    unsafe { run_tiles(layer, input, out, panel, tile, check) }
}

/// Loads tile register `$t` from `$ptr`, rows `$stride` bytes apart.
macro_rules! tile_load {
    ($t:literal, $ptr:expr, $stride:expr) => {
        asm!(
            concat!("tileloadd tmm", $t, ", [{p} + {s}*1]"),
            p = in(reg) $ptr,
            s = in(reg) $stride,
            options(nostack, preserves_flags, readonly),
        )
    };
}

/// Stores tile register `$t` to `$ptr`, rows `$stride` bytes apart.
macro_rules! tile_store {
    ($t:literal, $ptr:expr, $stride:expr) => {
        asm!(
            concat!("tilestored [{p} + {s}*1], tmm", $t),
            p = in(reg) $ptr,
            s = in(reg) $stride,
            options(nostack, preserves_flags),
        )
    };
}

/// `tmm$c += tmm$a · tmm$b`, signed weight bytes by unsigned code bytes.
macro_rules! dot {
    ($c:literal, $a:literal, $b:literal) => {
        asm!(
            concat!("tdpbsud tmm", $c, ", tmm", $a, ", tmm", $b),
            options(nostack, preserves_flags, nomem),
        )
    };
}

/// The C tiles of one pass waiting for their epilogue: which half of the
/// accumulator scratch holds them, their first rows and pixels, and how
/// many pixels of each pixel tile are live.
#[derive(Clone, Copy)]
struct Pass {
    half: usize,
    rows: [Option<usize>; 2],
    pixels: [Option<(usize, usize)>; 2],
}

/// The B operands of the two pixel tiles of one pass: each tile's first
/// pixel and live pixels, its whole chunks from `base` and its partial
/// chunk's block at `block`.
#[derive(Clone, Copy)]
struct Operands {
    pixels: [Option<(usize, usize)>; 2],
    base: [*const u8; 2],
    block: [*const u8; 2],
}

/// Prepares the B operands of the pixel tiles `first` and `first + 1` in
/// `panel`: a convolution gathers each tile's panel rows and copies its
/// partial chunk's rows behind zero rows; a dense layer reads its input in
/// place and copies the last partial chunk behind zero bytes.
///
/// # Safety
///
/// As [`gather`]; `panel` must hold two tiles' B operands
/// ([`Layer::panel_len`]), or one 64-byte block for a dense layer.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn prepare(layer: &Layer, input: &[u8], panel: &mut [u8], first: usize) -> Operands {
    let pixels = [0, 1].map(|t| {
        let q0 = (first + t) * TILE;
        (q0 < layer.pixels).then(|| (q0, TILE.min(layer.pixels - q0)))
    });
    let (full, part) = layer.chunks();
    let mut b = Operands {
        pixels,
        base: [std::ptr::null(); 2],
        block: [std::ptr::null(); 2],
    };
    let Some(window) = &layer.window else {
        if part > 0 {
            let (zero, taken) = panel[..ROW].split_at_mut(ROW - part);
            zero.fill(0);
            taken.copy_from_slice(&input[full * ROW..layer.k]);
        }
        b.base[0] = input.as_ptr();
        b.block[0] = panel.as_ptr();
        return b;
    };
    let tiles = pixels
        .iter()
        .flatten()
        .zip(panel.chunks_exact_mut(layer.panel_len(window)));
    for (t, (&(q0, live), own)) in tiles.enumerate() {
        let (rows, block) = own.split_at_mut(Layer::panel_rows(window) * ROW);
        match window.fast_tile(q0, live) {
            // SAFETY: as for `prepare`; `gather` checks `at`.
            Some((at, offsets)) => unsafe { gather(window, input, at, offsets, rows) },
            None => window.gather_scalar(input, q0, live, rows),
        }
        if part > 0 {
            let (zero, taken) = block.split_at_mut((ROW - part) / GROUP * ROW);
            zero.fill(0);
            taken.copy_from_slice(&rows[full * TILE * ROW..][..part / GROUP * ROW]);
        }
        b.base[t] = rows.as_ptr();
        b.block[t] = block.as_ptr();
    }
    b
}

/// # Safety
///
/// Requires AVX-512 F/BW/VL/VBMI and AMX-INT8 with the tile-data grant
/// ([`available`]), and the buffer lengths [`run`] asserts.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi")]
unsafe fn run_tiles(
    layer: &Layer,
    input: &[u8],
    mut out: Output<'_>,
    panel: &mut [u8],
    tile: &mut [i32],
    mut check: Check<'_>,
) {
    let cfg = layer.config();
    let k = layer.k;
    let chunk = layer.chunk();
    let (full, part) = layer.chunks();
    let w = layer.weights.as_ptr();
    // B rows: a panel row of 16 pixels, or one dword of a dense input.
    let b_pitch = if layer.window.is_some() { ROW } else { GROUP };
    let b_step = chunk / GROUP * b_pitch;
    let c_len = TILE * TILE;
    let row_tiles = layer.rows.div_ceil(TILE);
    let pixel_tiles = layer.pixels.div_ceil(TILE);
    // The B operands of one pass are prepared while the pass before it
    // runs, in the other half of the panel, so no tile load reads a line
    // the gather's stores have yet to write back.
    let (now, ahead) = panel.split_at_mut(layer.gather_len() / 2);
    let halves = [now, ahead];
    // SAFETY: as for `run_tiles`.
    let mut next = unsafe { prepare(layer, input, halves[0], 0) };
    let mut pending: Option<Pass> = None;
    let mut half = 0;
    // SAFETY (all asm below): the configuration gives every register the
    // shape of each operation on it; every load stays inside the weights,
    // the panel or the input, and every store inside `tile` (module docs).
    unsafe { asm!("ldtilecfg [{}]", in(reg) &cfg, options(nostack, preserves_flags, readonly)) };
    for first_tile in (0..pixel_tiles).step_by(2) {
        let b = next;
        let two_pixels = b.pixels[1].is_some();
        for first_row in (0..row_tiles).step_by(2) {
            let two_rows = first_row + 1 < row_tiles;
            let rows = [layer.tile_start(first_row), layer.tile_start(first_row + 1)];
            let a = rows.map(|m0| w.wrapping_add(m0 * k));
            unsafe {
                asm!("tilezero tmm0", options(nostack, preserves_flags, nomem));
                asm!("tilezero tmm1", options(nostack, preserves_flags, nomem));
                asm!("tilezero tmm2", options(nostack, preserves_flags, nomem));
                asm!("tilezero tmm3", options(nostack, preserves_flags, nomem));
                for j in 0..full + usize::from(part > 0) {
                    let col = layer.a_column(j);
                    let b = if j < full {
                        b.base.map(|b| b.wrapping_add(j * b_step))
                    } else {
                        b.block
                    };
                    tile_load!(6, b[0], b_pitch);
                    tile_load!(4, a[0].add(col), k);
                    dot!(0, 4, 6);
                    if two_pixels {
                        tile_load!(7, b[1], b_pitch);
                        dot!(1, 4, 7);
                    }
                    if two_rows {
                        tile_load!(5, a[1].add(col), k);
                        dot!(2, 5, 6);
                        if two_pixels {
                            dot!(3, 5, 7);
                        }
                    }
                }
            }
            let after = first_tile + 2;
            if first_row == 0 && after < pixel_tiles {
                // SAFETY: as for `run_tiles`.
                next = unsafe { prepare(layer, input, halves[after / 2 % 2], after) };
            }
            // The previous pass's stores have landed while these products
            // ran: its epilogue reads them without waiting on the tiles.
            if let Some(pass) = pending.take() {
                // SAFETY: as for `run_tiles`.
                unsafe { epilogue_pass(layer, pass, tile, &mut out, &mut check) };
            }
            half ^= 1;
            let c = tile[half * 4 * c_len..].as_mut_ptr();
            let stride = b_pitch / GROUP * 4;
            unsafe {
                tile_store!(0, c, stride);
                tile_store!(1, c.add(c_len), stride);
                tile_store!(2, c.add(2 * c_len), stride);
                tile_store!(3, c.add(3 * c_len), stride);
            }
            pending = Some(Pass {
                half,
                rows: [Some(rows[0]), two_rows.then_some(rows[1])],
                pixels: b.pixels,
            });
        }
    }
    if let Some(pass) = pending {
        // SAFETY: as for `run_tiles`.
        unsafe { epilogue_pass(layer, pass, tile, &mut out, &mut check) };
    }
    unsafe { asm!("tilerelease", options(nostack, preserves_flags, nomem)) };
}

/// The epilogue of every C tile of `pass`.
///
/// # Safety
///
/// As [`epilogue`].
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn epilogue_pass(
    layer: &Layer,
    pass: Pass,
    tile: &[i32],
    out: &mut Output<'_>,
    check: &mut Check<'_>,
) {
    let c_len = TILE * TILE;
    let c_rows = layer.tile_rows() * if layer.window.is_some() { TILE } else { 1 };
    for (r, m0) in pass.rows.iter().enumerate() {
        for (p, pixels) in pass.pixels.iter().enumerate() {
            if let (Some(m0), Some(pixels)) = (m0, pixels) {
                let acc = &tile[(pass.half * 4 + 2 * r + p) * c_len..][..c_rows];
                // SAFETY: as for `run_tiles`.
                unsafe { epilogue(layer, acc, (*m0, pixels.0, pixels.1), out, check) };
            }
        }
    }
}

/// The fast gather of one tile of a [`FAST_KERNEL`] window: for each
/// four-channel group, each channel's 128 bytes from `base` in its plane,
/// permuted into the group's nine panel rows at the tile's window
/// `offsets`. Nine taps per channel and four channels per row: a panel row
/// draws from at most two channels of its group, known per row.
///
/// # Safety
///
/// Requires AVX-512 F/BW/VBMI; `input` must hold every channel plane plus
/// [`SLACK`] bytes, and `panel` the tile's panel rows.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn gather(w: &Window, input: &[u8], base: usize, offsets: [u8; TILE], panel: &mut [u8]) {
    assert!(
        base < w.in_hw.0 * w.in_hw.1,
        "gather base outside the plane"
    );
    let taps: &[[u8; ROW]; FAST_ROWS] = w.taps[..].try_into().expect("one tap row per panel row");
    let masks: &[[u64; GROUP]; FAST_ROWS] =
        w.masks[..].try_into().expect("one mask row per panel row");
    let mut spread = [0u8; ROW];
    for (b, s) in spread.iter_mut().enumerate() {
        *s = offsets[b / GROUP];
    }
    // SAFETY: `spread` is exactly 64 bytes.
    let spread = unsafe { _mm512_loadu_si512(spread.as_ptr().cast()) };
    // Every group's rows read the same bytes of their channels' loads.
    let mut idx = [_mm512_setzero_si512(); FAST_ROWS];
    for (idx, taps) in idx.iter_mut().zip(taps) {
        // SAFETY: a tap row is exactly 64 bytes.
        *idx = _mm512_add_epi8(spread, unsafe { _mm512_loadu_si512(taps.as_ptr().cast()) });
    }
    let groups = w.channels.div_ceil(GROUP);
    for (g, rows) in panel
        .chunks_exact_mut(FAST_ROWS * ROW)
        .take(groups)
        .enumerate()
    {
        // SAFETY: as for `gather`.
        let (lo, hi) = unsafe { load_group(w, input, base, g) };
        for (r, row) in rows.chunks_exact_mut(ROW).enumerate() {
            let idx = idx[r];
            let (a, b) = (GROUP * r / FAST_ROWS, (GROUP * r + GROUP - 1) / FAST_ROWS);
            let v = if a == b {
                _mm512_permutex2var_epi8(lo[a], idx, hi[a])
            } else {
                let mask = masks[r][a];
                _mm512_or_si512(
                    _mm512_maskz_permutex2var_epi8(mask, lo[a], idx, hi[a]),
                    _mm512_maskz_permutex2var_epi8(!mask, lo[b], idx, hi[b]),
                )
            };
            // SAFETY: `row` is exactly 64 bytes.
            unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };
        }
    }
}

/// The two 64-byte loads of each channel of group `g` from `base` in its
/// plane; zero for channels past the last.
///
/// # Safety
///
/// Requires AVX-512F; `input` must hold every channel plane plus [`SLACK`]
/// bytes and `base` lie inside a plane.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load_group(
    w: &Window,
    input: &[u8],
    base: usize,
    g: usize,
) -> ([__m512i; GROUP], [__m512i; GROUP]) {
    let plane = w.in_hw.0 * w.in_hw.1;
    let mut lo = [_mm512_setzero_si512(); GROUP];
    let mut hi = [_mm512_setzero_si512(); GROUP];
    for c in 0..GROUP.min(w.channels - g * GROUP) {
        // SAFETY: `(4g + c) · plane + base + 128` ≤ every plane plus SLACK,
        // which the input holds.
        unsafe {
            let at = input.as_ptr().add((g * GROUP + c) * plane + base);
            lo[c] = _mm512_loadu_si512(at.cast());
            hi[c] = _mm512_loadu_si512(at.add(ROW).cast());
        }
    }
    (lo, hi)
}

/// Thresholds (or stores) one C tile: rows `m0..m0 + rows` of `acc`, each
/// `live` pixels from `q0` of a convolution, or one value of a dense layer.
///
/// # Safety
///
/// Requires AVX-512 F/BW/VL; `out` must hold the layer's `rows × pixels`
/// outputs and `acc` one C tile of the layer.
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn epilogue(
    layer: &Layer,
    acc: &[i32],
    (m0, q0, live): (usize, usize, usize),
    out: &mut Output<'_>,
    check: &mut Check<'_>,
) {
    let rows = layer.tile_rows();
    let dense = layer.window.is_none();
    let pitch = if dense { 1 } else { TILE };
    if let Some(check) = check {
        for m in 0..rows {
            check(m0 + m, &acc[m * pitch..][..live]);
        }
    }
    let (t, codes) = match out {
        Output::Accum(accum) => {
            for m in 0..rows {
                let at = (m0 + m) * layer.pixels + q0;
                accum[at..at + live].copy_from_slice(&acc[m * pitch..][..live]);
            }
            return;
        }
        Output::Codes(t, codes) => (t, codes),
    };
    // The last row's live pixels end inside the map: every store below is
    // of a row before it.
    assert!(
        (m0 + rows - 1) * layer.pixels + q0 + live <= codes.len(),
        "code map too short"
    );
    assert!(m0 + rows <= t.pitch, "threshold rows");
    let (dst, thresholds) = (codes.as_mut_ptr(), t.by_level.as_ptr());
    // A code counts the thresholds met: subtracting −1 under each mask.
    let minus_one = _mm_set1_epi8(-1);
    if dense {
        // One pixel: the tile's rows are one vector, against one vector of
        // each level's thresholds.
        let keep = ((1u32 << rows) - 1) as u16;
        // SAFETY: `acc` holds `rows` values and the masked load reads no
        // more; a level's thresholds `m0..m0 + 16` lie inside its padded
        // row (`m0 + 16 ≤ pitch`); the masked store writes rows `m0..m0 +
        // rows` of the one-pixel map.
        unsafe {
            let a = _mm512_maskz_loadu_epi32(keep, acc.as_ptr());
            let mut code = _mm_setzero_si128();
            for level in 0..t.levels {
                let at = _mm512_loadu_si512(thresholds.add(level * t.pitch + m0).cast());
                let met = _mm512_cmpge_epi32_mask(a, at);
                code = _mm_mask_sub_epi8(code, met, code, minus_one);
            }
            _mm_mask_storeu_epi8(dst.add(m0).cast(), keep, code);
        }
        return;
    }
    let keep = ((1u32 << live) - 1) as u16;
    // SAFETY: the C tile holds `rows` rows of 16 `i32`s; thresholds `level ·
    // pitch + m0 + m` lie inside the table; row `m`'s masked store writes
    // the `live` pixels of channel `m0 + m` from `q0`, inside the map.
    unsafe {
        let tile = (acc.as_ptr(), rows);
        let thresholds = (thresholds.add(m0), t.pitch);
        let dst = (dst.add(m0 * layer.pixels + q0), layer.pixels, keep);
        // The level loop unrolled for the ≤ 2-bit activations of every
        // shipped model.
        match t.levels {
            1 => row_codes::<1>(tile, thresholds, t.levels, dst),
            2 => row_codes::<2>(tile, thresholds, t.levels, dst),
            3 => row_codes::<3>(tile, thresholds, t.levels, dst),
            _ => row_codes::<0>(tile, thresholds, t.levels, dst),
        }
    }
}

/// The codes of a convolution's C tile, one channel row at a time: row `m`
/// of `rows` at `acc + 16 m` against thresholds `at + level · pitch + m`
/// for `LEVELS` levels (`levels` where `LEVELS` is 0), stored under `keep`
/// at `dst + m · pixels`.
///
/// # Safety
///
/// Requires AVX-512 F/BW/VL; every address named above must be valid.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn row_codes<const LEVELS: usize>(
    (acc, rows): (*const i32, usize),
    (at, pitch): (*const i32, usize),
    levels: usize,
    (dst, pixels, keep): (*mut u8, usize, u16),
) {
    let levels = if LEVELS > 0 { LEVELS } else { levels };
    let minus_one = _mm_set1_epi8(-1);
    for m in 0..rows {
        // SAFETY: the caller's contract.
        unsafe {
            let a = _mm512_loadu_si512(acc.add(m * TILE).cast());
            let mut code = _mm_setzero_si128();
            for level in 0..levels {
                let threshold = _mm512_set1_epi32(*at.add(level * pitch + m));
                let met = _mm512_cmpge_epi32_mask(a, threshold);
                code = _mm_mask_sub_epi8(code, met, code, minus_one);
            }
            _mm_mask_storeu_epi8(dst.add(m * pixels).cast(), keep, code);
        }
    }
}

/// Whether [`pool2x2`] takes a `kernel`×`kernel`/`stride` pool of an
/// `in_hw` map into `out_hw`: 2×2 windows at stride 2 that all lie inside
/// the map, over rows of at most 64 pixels.
pub(crate) fn pools(
    kernel: usize,
    stride: usize,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
) -> bool {
    kernel == 2
        && stride == 2
        && 2 * out_hw.0 <= in_hw.0
        && 2 * out_hw.1 <= in_hw.1
        && in_hw.1 <= ROW
}

/// 2×2/stride-2 max-pool of a `channels`-deep `u8` CHW map, one output row
/// per step: the larger of two input rows, then of each byte pair.
///
/// # Panics
///
/// Panics without AMX's probe ([`available`]), unless [`pools`] takes the
/// shape, or if `input` or `out` is shorter than its map.
pub(crate) fn pool2x2(
    input: &[u8],
    channels: usize,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
    out: &mut [u8],
) {
    assert!(available(), "AVX-512 pool dispatched without AVX-512");
    assert!(pools(2, 2, in_hw, out_hw), "pool shape");
    assert!(
        input.len() >= channels * in_hw.0 * in_hw.1,
        "input map too short"
    );
    assert!(
        out.len() >= channels * out_hw.0 * out_hw.1,
        "output map too short"
    );
    // SAFETY: `available()` established AVX-512 F/BW; the asserts bound
    // every row the masked accesses touch.
    unsafe { pool_rows(input, channels, in_hw, out_hw, out) };
}

/// # Safety
///
/// Requires AVX-512 F/BW/VL and the shapes [`pool2x2`] asserts.
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn pool_rows(
    input: &[u8],
    channels: usize,
    (ih, iw): (usize, usize),
    (oh, ow): (usize, usize),
    out: &mut [u8],
) {
    let load = u64::MAX >> (ROW - iw);
    let store = (u64::MAX >> (ROW - ow)) as u32;
    let low = _mm512_set1_epi16(0xff);
    for c in 0..channels {
        for y in 0..oh {
            let row = (c * ih + 2 * y) * iw;
            // SAFETY: rows `2y` and `2y + 1` of channel `c` are inside the
            // input; the masked loads read `iw` bytes of each.
            let pair = unsafe {
                let top = _mm512_maskz_loadu_epi8(load, input[row..][..iw].as_ptr().cast());
                let bottom = _mm512_maskz_loadu_epi8(load, input[row + iw..][..iw].as_ptr().cast());
                _mm512_max_epu8(top, bottom)
            };
            let even = _mm512_and_si512(pair, low);
            let odd = _mm512_srli_epi16::<8>(pair);
            let bytes = _mm512_cvtepi16_epi8(_mm512_max_epu16(even, odd));
            let at = (c * oh + y) * ow;
            // SAFETY: the masked store writes the `ow` bytes of this row.
            unsafe { _mm256_mask_storeu_epi8(out[at..at + ow].as_mut_ptr().cast(), store, bytes) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_a_tile_load_ends_inside_its_rows() {
        // Row counts on, under and around a 16-row tile (43 classes); fan-ins
        // under a chunk, on it, past it and off the dword (padded to it).
        for rows in [1usize, 10, 16, 17, 40, 43, 64] {
            for fan_in in [4usize, 27, 28, 64, 72, 100, 180, 576, 1000] {
                let weights = vec![1i8; rows * fan_in];
                let layer = Layer::dense(&weights, rows, fan_in);
                assert_eq!(layer.copies_weights(), fan_in % GROUP != 0);
                assert_eq!(layer.weights.len(), rows * layer.k);
                let (full, part) = layer.chunks();
                for i in 0..rows.div_ceil(TILE) {
                    let m0 = layer.tile_start(i);
                    assert!(m0 + layer.tile_rows() <= rows, "rows={rows} tile {i}");
                    for j in 0..full + usize::from(part > 0) {
                        let col = layer.a_column(j);
                        // Each of the tile's rows reads `chunk` bytes from
                        // `col` of its own row, and so does the last.
                        assert!(
                            col + layer.chunk() <= layer.k,
                            "rows={rows} fan-in {fan_in}"
                        );
                        let end = (m0 + layer.tile_rows() - 1) * layer.k + col + layer.chunk();
                        assert!(end <= layer.weights.len(), "rows={rows} fan-in {fan_in}");
                    }
                }
            }
        }
    }

    #[test]
    fn only_3x3_windows_that_fit_the_span_plan_the_fast_gather() {
        // (kernel, input width): a 3×3 window over a 30-wide map reaches
        // 62 bytes past its first tap; over a 63-wide one 128, past the two
        // loads; 1×1 and 5×5 kernels are gathered byte by byte.
        for (kernel, width, fast) in [
            (3, 30, true),
            (3, 40, true),
            (3, 63, false),
            (1, 8, false),
            (5, 9, false),
        ] {
            let channels = 4;
            let weights = vec![1i8; 2 * channels * kernel * kernel];
            let out = width - kernel + 1;
            let layer = Layer::conv(
                &weights,
                2,
                channels,
                (width, width),
                (kernel, 1, 0),
                (out, out),
            );
            let window = layer.window.as_ref().expect("a windowed layer");
            assert_eq!(
                !window.taps.is_empty(),
                fast,
                "kernel {kernel}, width {width}"
            );
            assert_eq!(window.taps.len(), window.masks.len());
            assert_eq!(window.fast_tile(0, TILE.min(out * out)).is_some(), fast);
        }
    }

    #[test]
    fn a_partial_chunk_block_takes_only_the_rows_the_whole_chunks_miss() {
        // Fan-in 72: one whole chunk of 16 B rows, then a partial chunk that
        // reads A columns 8..72, whose first 14 B rows are zero.
        let weights = vec![1i8; 72];
        let layer = Layer::dense(&weights, 1, 72);
        assert_eq!((layer.chunk(), layer.chunks()), (64, (1, 8)));
        assert_eq!(layer.a_column(1), 8);
        assert_eq!((ROW - 8) / GROUP, 14);
    }
}
