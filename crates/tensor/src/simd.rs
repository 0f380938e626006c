//! Runtime-dispatched SIMD kernels for the GEMM and the softmax exponential.
//!
//! [`gemm`](crate::gemm) reaches its inner kernels through function pointers
//! selected per call from the active tier. There is one register tile, [`MR`]
//! rows by [`NR`] columns of C (`tile_kernel`): it reads A through any stride
//! pair and B by rows, so the no-pack route hands it B in place and the
//! packed walk a 16-column K-major B panel, A always read where it lies. The
//! B packer fills a panel with 8×8 block transposes (`transpose_kernel`)
//! where a source is contiguous along K.
//! `window_kernel` is the tile once more, with the start of each K
//! step's operands looked up in an offset table ([`KOffsets`]) instead of
//! multiplied out from a stride: a B "row" can then be any window of a
//! buffer, which is how the column-free convolutions
//! ([`kernels::ConvWindow`](crate::kernels::ConvWindow))
//! read padded image planes in place of an im2col matrix. `lane_kernel` goes
//! one step further: the 16 lanes of a B "row" are themselves stretches of
//! several windows ([`LaneSegment`]), so that the lanes a single window would
//! leave empty — all but the 5 taps of a kernel row in the weight gradient,
//! the lanes past an output row's end in a 5×5 forward — are filled from the
//! next one. [`row_chains`] is the one kernel here outside the GEMM: eight
//! rows' sequential sums in the lanes of one register, for `LayerNorm`.
//! The tiers:
//!
//! * **portable** ([`portable_tile_kernel`]) — the scalar `R × 16` tile loop
//!   in a fixed-size array. Always available, autovectorizes under
//!   `target-cpu=native`, and serves as the oracle the SIMD kernels are
//!   tested against.
//! * **simd** — a hand-written `std::arch` kernel: AVX2 on `x86_64` (two
//!   8-lane registers per C row, 12 accumulators), chosen at startup via
//!   `is_x86_feature_detected!`. Every other architecture runs the portable
//!   tier, which is the one the bitwise tests can check there.
//!
//! All kernels perform an *unfused* multiply then add per lane, in the same
//! ascending-`k` order from a zeroed accumulator per K block, then add the
//! accumulator onto C — so every tier produces bitwise-identical results,
//! and so does every route: switching tiers (or running on a machine without
//! AVX2) never changes training numerics, which is what keeps the
//! cloud-vs-local and TEE equivalence checks sound. The transposes only move
//! values.
//!
//! # Transcendentals
//!
//! The same rule covers the one transcendental on the training path: [`exp`]
//! is defined here from IEEE multiplies, adds and integer operations, and the
//! row kernel behind every softmax and cross-entropy (`exp_row_kernel`:
//! `exp(x − shift)` in place plus the row's sum in a fixed lane order) runs
//! it on 8 lanes per tier with the scalar function's bits. libm's `expf`
//! promises no such thing across hosts.
//!
//! # Forcing a tier
//!
//! Detection is feature detection alone. For tests and A/B timing,
//! [`force_tier`]`(Some(Tier::Portable))` overrides it (tests use this to
//! compare tiers bitwise); `None` restores auto-detection. A forced `Simd`
//! tier silently falls back to portable when the CPU lacks the feature, so
//! the override is always safe to set.

use crate::gemm::{MR, NR};
use crate::pack::MatRef;
use std::sync::atomic::{AtomicU8, Ordering};

// A B micro-panel row is two 8-lane halves, each one transpose's output.
const _: () = assert!(NR == 16);

/// Signature of the register-tile kernels: for `rows ≤ MR` rows and `n`
/// columns, `acc = Σ_{p < kc} a(r, p) · b(p, j)` from a zeroed accumulator in
/// ascending `p`, then `c[r·ldc + j] += acc`. `b` must have contiguous rows
/// (`cs == 1`); all three views start at the block's first element. A packed
/// B micro-panel is such a B (`MatRef::row_major` of width `NR`), and a
/// K-major A micro-panel such an A (`MatRef::transposed` of width `MR`).
pub type TileKernelFn =
    fn(rows: usize, n: usize, kc: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], ldc: usize);

/// Validated offset table of a [`WindowKernelFn`] operand: K step `p` of the
/// operand starts `offsets[p]` elements into its buffer. Holding the largest
/// offset lets the kernel wrappers bounds-check a whole call in O(1).
#[derive(Debug, Clone, Copy)]
pub struct KOffsets<'a> {
    offsets: &'a [usize],
    max: usize,
}

impl<'a> KOffsets<'a> {
    /// Wraps `offsets` (one per K step, at least one).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn new(offsets: &'a [usize]) -> Self {
        let max = *offsets
            .iter()
            .max()
            .expect("a K block has at least one step");
        KOffsets { offsets, max }
    }

    /// Number of K steps described.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the table is empty (never: [`new`](Self::new) refuses one).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// Signature of the windowed no-pack kernels: [`TileKernelFn`] with both
/// operands' K steps located by table. For `rows ≤ MR` and `n` columns,
/// `acc = Σ_p a[r·a_rs + a_k[p]] · b[b_k[p] + j]` from a zeroed accumulator in
/// ascending `p` over the tables' common length, then `c[r·ldc + j] += acc` —
/// the association of every other GEMM kernel.
pub type WindowKernelFn = fn(
    rows: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    c: &mut [f32],
    ldc: usize,
);

/// Where a stretch of the 16 lanes of a [`LaneKernelFn`] tile reads its B
/// values: lane `l` of `lanes` takes `b[b_k[p] + shift + l]` at K step `p` —
/// a window of B that starts `shift` elements past the step's offset *and is
/// aligned to lane 0*, so one (masked) vector load fills the stretch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSegment {
    /// Offset of the window's lane 0 from the K step's offset.
    pub shift: usize,
    /// The lanes of the tile the window fills, within `0..16`.
    pub lanes: std::ops::Range<usize>,
}

/// Checked segments of one [`LaneKernelFn`] tile: pairwise disjoint lane
/// stretches inside `0..16`, with the farthest element any of them reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneTile {
    segments: Vec<LaneSegment>,
    /// One past the highest lane any segment fills.
    width: usize,
    /// `max(shift + lanes.end)` over the segments.
    reach: usize,
    /// The segments as the SIMD kernels load them: per 8-lane vector of the
    /// tile, the windows that fill it — (offset of the vector's lane 0 from
    /// the K step's, all-ones words on the lanes filled); unused slots keep
    /// an empty mask.
    windows: [[(usize, [i32; 8]); 8]; 2],
    /// The most windows either vector has.
    most_windows: usize,
    /// Per vector: whether its first window fills all 8 lanes, so that one
    /// unmasked load reads it.
    whole: [bool; 2],
}

impl LaneTile {
    /// Wraps `segments`.
    ///
    /// # Panics
    ///
    /// Panics if there is none, or if two overlap or one leaves `0..16`.
    pub fn new(segments: Vec<LaneSegment>) -> Self {
        let mut taken = [false; NR];
        for segment in &segments {
            assert!(
                segment.lanes.start < segment.lanes.end && segment.lanes.end <= NR,
                "a lane segment lies inside 0..{NR}"
            );
            for lane in segment.lanes.clone() {
                assert!(
                    !std::mem::replace(&mut taken[lane], true),
                    "lane {lane} is filled twice"
                );
            }
        }
        let width = segments.iter().map(|s| s.lanes.end).max();
        let reach = segments.iter().map(|s| s.shift + s.lanes.end).max();
        let mut windows = [[(0usize, [0i32; 8]); 8]; 2];
        let mut most_windows = 0;
        for (v, windows) in windows.iter_mut().enumerate() {
            let mut count = 0;
            for s in &segments {
                let lanes =
                    s.lanes.start.saturating_sub(8 * v)..s.lanes.end.saturating_sub(8 * v).min(8);
                if lanes.start < lanes.end {
                    windows[count].0 = s.shift + 8 * v;
                    windows[count].1[lanes].fill(-1);
                    count += 1;
                }
            }
            most_windows = most_windows.max(count);
        }
        LaneTile {
            width: width.expect("a tile has at least one segment"),
            reach: reach.expect("a tile has at least one segment"),
            segments,
            whole: windows.map(|w| w[0].1 == [-1; 8]),
            windows,
            most_windows,
        }
    }

    /// One past the highest lane filled.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The segments, as given.
    pub fn segments(&self) -> &[LaneSegment] {
        &self.segments
    }
}

/// Signature of the lane-gathering no-pack kernels: for `rows ≤ MR`
/// and every `(first, tile)` of `tiles`,
/// `acc[r][l] = Σ_p a[r·a_rs + a_k[p]] · b[b_k[p] + shift(l) + l]` from zero
/// in ascending `p` over the tables' common length, for every lane `l` a
/// segment of `tile` fills (`shift(l)` being that segment's; other lanes
/// hold zero), then `c[r·ldc + first + l] += acc[r][l]` for
/// `l < tile.width()` — the association of every other GEMM kernel.
pub type LaneKernelFn = fn(
    rows: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    tiles: &[(usize, LaneTile)],
    c: &mut [f32],
    ldc: usize,
);

/// Signature of the panel transposes: `panel[q·ld + r] = src[r·stride + q]`
/// for `r < lines ≤ 8` and `q < len`; lanes `lines..8` of every `q` are
/// zeroed, and only those 8 lanes of a panel row are written. This is
/// `pack_b` for a column-major source: 8 source lines, contiguous along K,
/// become one 8-lane half of `len` K-major micro-panel rows (`ld = NR`).
/// `lines` may be 0 (the lanes are zeroed and `src` is not read).
pub type TransposeFn =
    fn(src: &[f32], stride: usize, lines: usize, len: usize, panel: &mut [f32], ld: usize);

/// Signature of the row exponentials: `row[i] = exp(row[i] − shift)` in
/// place ([`exp`] on every lane), returning `Σ row[i]` summed in the lane
/// order of `lane_sum`, which depends on the row's length alone.
pub type ExpRowFn = fn(row: &mut [f32], shift: f32) -> f32;

/// Lanes of the row exponential's running sum: element `i` is added to lane
/// `i % EXP_LANES` in ascending `i`.
const EXP_LANES: usize = 8;

// Constants of [`exp`], shared by the scalar definition and the SIMD lanes.
/// Arguments below this give exactly `0.0` (`ln` of the smallest normal
/// `f32` is −87.34, so no result is ever subnormal).
const EXP_CUT: f32 = -87.3;
/// Arguments are clamped to this; `e^89` already overflows to `+∞`.
const EXP_CLAMP: f32 = 89.0;
const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding and subtracting it rounds to the nearest integer, and
/// the integer sits in the low mantissa bits of the sum.
const EXP_ROUND: f32 = 12_582_912.0;
/// `ln 2` in two parts (Cody–Waite): `n · EXP_LN2_HI` is exact for every
/// `n` that occurs.
const EXP_LN2_HI: f32 = 0.693_359_4; // 355/512
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes' degree-5 minimax coefficients of `(e^r − 1 − r) / r²` on
/// `|r| ≤ ln 2 / 2`, highest power first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    5e-1,
];

/// `e^x` — the exponential under every softmax and cross-entropy in the
/// workspace, in place of libm's `expf`, whose bits depend on the host (glibc
/// picks an FMA or a non-FMA build at run time).
///
/// Cephes-style: `n = round(x · log₂e)`, `r = x − n·ln 2` in two steps, a
/// degree-5 polynomial in `r`, then a scale by `2ⁿ` in two exact halves so
/// that neither leaves the exponent range. Every step is one IEEE multiply,
/// add, compare-select or integer operation — no fused multiply-add, no
/// table — so this scalar definition, the portable 8-lane loop built from it
/// and the AVX2 lanes give identical bits. Under 1 ulp from the true value
/// for every `f32` in `[−87.3, 89]` (checked exhaustively); exactly `0.0`
/// below −87.3 (including `−∞`), `+∞` above 88.73, `exp(0) = 1`, NaN in
/// gives NaN out.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let xc = if EXP_CLAMP < x { EXP_CLAMP } else { x };
    let t = xc * EXP_LOG2E + EXP_ROUND;
    let n = t - EXP_ROUND;
    let r = xc - n * EXP_LN2_HI;
    let r = r - n * EXP_LN2_LO;
    let mut p = EXP_POLY[0];
    for &coeff in &EXP_POLY[1..] {
        p = p * r + coeff;
    }
    let y = p * (r * r) + r + 1.0;
    // `t`'s low mantissa bits hold `n`; 2ⁿ is built as 2^⌊n/2⌋ · 2^⌈n/2⌉.
    let n = (t.to_bits() as i32).wrapping_sub(EXP_ROUND.to_bits() as i32);
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) << 23) as u32);
    let v = y * pow2(half) * pow2(n.wrapping_sub(half));
    if x < EXP_CUT {
        0.0
    } else {
        v
    }
}

/// The fixed order in which the lanes of a row sum are combined.
#[inline(always)]
fn lane_sum(l: [f32; EXP_LANES]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Portable row exponential: [`exp`] over 8-lane chunks (the loop
/// autovectorizes), then over the last `len % 8` elements, which join the
/// lanes they would occupy in a full chunk — so a row sums to the same bits
/// whether its tail is absent or present and exactly zero.
pub fn portable_exp_row(row: &mut [f32], shift: f32) -> f32 {
    let mut lanes = [0.0f32; EXP_LANES];
    let mut chunks = row.chunks_exact_mut(EXP_LANES);
    for chunk in &mut chunks {
        for (v, lane) in chunk.iter_mut().zip(&mut lanes) {
            *v = exp(*v - shift);
            *lane += *v;
        }
    }
    for (v, lane) in chunks.into_remainder().iter_mut().zip(&mut lanes) {
        *v = exp(*v - shift);
        *lane += *v;
    }
    lane_sum(lanes)
}

/// Kernel implementation tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Scalar `R × 16` tile loop (always available; the test oracle).
    Portable,
    /// Hand-written `std::arch` kernel (AVX2 on x86_64).
    Simd,
}

/// Forced-tier override: 0 = auto (detect), 1 = portable, 2 = simd.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU has a hand-written SIMD kernel available.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The tier auto-detection picks: `Simd` where the CPU has the feature.
pub fn detected_tier() -> Tier {
    if simd_available() {
        Tier::Simd
    } else {
        Tier::Portable
    }
}

/// Overrides the dispatch tier for subsequent GEMM calls (`None` restores
/// auto-detection). A `Simd` override on a CPU without SIMD support falls
/// back to portable.
///
/// Process-global; tests that flip it must serialise with each other.
pub fn force_tier(tier: Option<Tier>) {
    let encoded = match tier {
        None => 0,
        Some(Tier::Portable) => 1,
        Some(Tier::Simd) => 2,
    };
    FORCED.store(encoded, Ordering::Relaxed);
}

/// The tier GEMM calls will actually use right now.
pub fn active_tier() -> Tier {
    let tier = match FORCED.load(Ordering::Relaxed) {
        1 => Tier::Portable,
        2 => Tier::Simd,
        _ => detected_tier(),
    };
    if tier == Tier::Simd && !simd_available() {
        Tier::Portable
    } else {
        tier
    }
}

/// The register-tile kernel for [`active_tier`].
#[allow(unreachable_code)]
pub(crate) fn tile_kernel() -> TileKernelFn {
    if active_tier() == Tier::Simd {
        #[cfg(target_arch = "x86_64")]
        {
            return avx2_tile_kernel;
        }
    }
    portable_tile_kernel
}

/// The windowed no-pack kernel for [`active_tier`].
#[allow(unreachable_code)]
pub(crate) fn window_kernel() -> WindowKernelFn {
    if active_tier() == Tier::Simd {
        #[cfg(target_arch = "x86_64")]
        {
            return avx2_window_kernel;
        }
    }
    portable_window_kernel
}

/// The lane-gathering no-pack kernel for [`active_tier`].
#[allow(unreachable_code)]
pub(crate) fn lane_kernel() -> LaneKernelFn {
    if active_tier() == Tier::Simd {
        #[cfg(target_arch = "x86_64")]
        {
            return avx2_lane_kernel;
        }
    }
    portable_lane_kernel
}

/// The panel transpose for [`active_tier`].
#[allow(unreachable_code)]
pub(crate) fn transpose_kernel() -> TransposeFn {
    if active_tier() == Tier::Simd {
        #[cfg(target_arch = "x86_64")]
        {
            return avx2_transpose;
        }
    }
    portable_transpose
}

/// The row exponential for [`active_tier`].
pub fn exp_row_kernel() -> ExpRowFn {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == Tier::Simd {
        return avx2_exp_row;
    }
    portable_exp_row
}

/// Row chains: `acc[r] += x[r][p] · y[r][p]` (or `+= x[r][p]` without `y`)
/// for `p = 0..len` ascending, each row one chain from what `acc[r]` held,
/// over the `acc.len()` rows of the flat `[rows, len]` matrices. The simd
/// tier advances eight rows in the lanes of one register, an 8×8 block
/// transposed per eight steps; portable runs one row after the other. Each
/// row's additions are the same sequence either way: the straight-line
/// loop's bits on every tier.
///
/// # Panics
///
/// Panics if `x` (or `y`) holds fewer than `acc.len() · len` elements.
pub fn row_chains(acc: &mut [f32], x: &[f32], y: Option<&[f32]>, len: usize) {
    row_chains_on(active_tier(), acc, x, y, len);
}

/// [`row_chains`] on `tier` (a `Simd` tier the CPU lacks runs portable).
fn row_chains_on(tier: Tier, acc: &mut [f32], x: &[f32], y: Option<&[f32]>, len: usize) {
    let rows = acc.len();
    assert!(x.len() >= rows * len, "row chains: x too short");
    assert!(
        y.is_none_or(|y| y.len() >= rows * len),
        "row chains: y too short"
    );
    let simd = tier == Tier::Simd && simd_available();
    let done = if simd { rows / 8 * 8 } else { 0 };
    #[cfg(target_arch = "x86_64")]
    for (g, lanes) in acc[..done].chunks_exact_mut(8).enumerate() {
        let (lanes, at) = (lanes.try_into().expect("eight rows"), g * 8 * len);
        let (xs, ys) = (x[at..].as_ptr(), y.unwrap_or(x)[at..].as_ptr());
        // SAFETY: the eight rows at `at` lie inside `x` (and `y`), as asserted
        // above; AVX2 presence was checked where `done` was set.
        unsafe {
            match y {
                Some(_) => avx2::row_chains8::<true>(lanes, xs, ys, len),
                None => avx2::row_chains8::<false>(lanes, xs, ys, len),
            }
        }
    }
    for (r, a) in acc.iter_mut().enumerate().skip(done) {
        let xr = &x[r * len..][..len];
        match y {
            Some(y) => xr
                .iter()
                .zip(&y[r * len..])
                .for_each(|(&v, &w)| *a += v * w),
            None => xr.iter().for_each(|&v| *a += v),
        }
    }
}

/// Calls `$kernel::<ROWS>($args)` with the const row count matching `$rows`.
macro_rules! with_const_rows {
    ($rows:expr, $($kernel:ident)::+, ($($arg:expr),*)) => {
        match $rows {
            1 => $($kernel)::+::<1>($($arg),*),
            2 => $($kernel)::+::<2>($($arg),*),
            3 => $($kernel)::+::<3>($($arg),*),
            4 => $($kernel)::+::<4>($($arg),*),
            5 => $($kernel)::+::<5>($($arg),*),
            6 => $($kernel)::+::<6>($($arg),*),
            rows => panic!("no-pack kernel takes 1..={MR} rows, got {rows}"),
        }
    };
}

#[cfg(target_arch = "x86_64")]
/// What the `unsafe` register-tile kernels rely on: every `a(r, p)`, every B row
/// segment `b(p, 0..n)` and every C row lies inside its slice.
fn assert_tile_bounds(
    rows: usize,
    n: usize,
    kc: usize,
    a: MatRef,
    b: MatRef,
    c: &[f32],
    ldc: usize,
) {
    assert!(rows >= 1 && n >= 1 && kc >= 1, "empty no-pack product");
    assert_eq!(b.cs, 1, "register tile needs contiguous B rows");
    assert!(
        (rows - 1) * a.rs + (kc - 1) * a.cs < a.data.len(),
        "A view too short"
    );
    assert!((kc - 1) * b.rs + n <= b.data.len(), "B view too short");
    assert!((rows - 1) * ldc + n <= c.len(), "C rows too short");
}

/// What the windowed kernels rely on (the portable one for a clear message,
/// the `unsafe` ones for soundness): the tables agree on the K extent and
/// every `a[r·a_rs + a_k[p]]`, every B window `b[b_k[p]..][..n]` and every C
/// row lies inside its slice.
#[allow(clippy::too_many_arguments)]
fn assert_window_bounds(
    rows: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets,
    b: &[f32],
    b_k: KOffsets,
    c: &[f32],
    ldc: usize,
) {
    assert!(rows >= 1 && n >= 1, "empty no-pack product");
    assert_eq!(a_k.len(), b_k.len(), "operands disagree on the K extent");
    assert!((rows - 1) * a_rs + a_k.max < a.len(), "A view too short");
    assert!(b_k.max + n <= b.len(), "B view too short");
    assert!((rows - 1) * ldc + n <= c.len(), "C rows too short");
}

/// What the transposes rely on (the portable one for a clear message, the
/// `unsafe` one for soundness): at most 8 source lines, each holding `len`
/// elements, and `len` panel rows of 8 lanes, `ld ≥ 8` apart.
fn assert_transpose_bounds(
    src: &[f32],
    stride: usize,
    lines: usize,
    len: usize,
    panel: &[f32],
    ld: usize,
) {
    assert!(lines <= 8 && ld >= 8, "a panel row half takes 8 lines");
    assert!(
        lines == 0 || (lines - 1) * stride + len <= src.len(),
        "source too short"
    );
    assert!(
        len == 0 || (len - 1) * ld + 8 <= panel.len(),
        "panel too short"
    );
}

/// Portable register tile: the same tile walk and association as the SIMD
/// ones, with the `R × 16` accumulator tile in a fixed-size array the
/// compiler keeps in registers.
pub fn portable_tile_kernel(
    rows: usize,
    n: usize,
    kc: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    ldc: usize,
) {
    assert_eq!(b.cs, 1, "register tile needs contiguous B rows");
    let (a_k, b_k) = (|p: usize| p * a.cs, |p: usize| p * b.rs);
    with_const_rows!(
        rows,
        portable_tile,
        (n, kc, a.data, a.rs, a_k, b.data, b_k, c, ldc)
    );
}

/// Portable windowed kernel: [`portable_tile_kernel`] reading its K steps
/// through the offset tables.
#[allow(clippy::too_many_arguments)]
pub fn portable_window_kernel(
    rows: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    c: &mut [f32],
    ldc: usize,
) {
    assert_window_bounds(rows, n, a, a_rs, a_k, b, b_k, c, ldc);
    let kc = a_k.len();
    let (a_k, b_k) = (|p: usize| a_k.offsets[p], |p: usize| b_k.offsets[p]);
    with_const_rows!(rows, portable_tile, (n, kc, a, a_rs, a_k, b, b_k, c, ldc));
}

/// What the lane-gathering kernels rely on (the portable one for a clear
/// message, the `unsafe` one for soundness): the tables agree on the K
/// extent, every `a[r·a_rs + a_k[p]]` lies inside `a`, every lane any
/// segment of a tile fills reads inside `b`, and every tile's C rows lie
/// inside `c`.
#[allow(clippy::too_many_arguments)]
fn assert_lane_bounds(
    rows: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets,
    b: &[f32],
    b_k: KOffsets,
    tiles: &[(usize, LaneTile)],
    c: &[f32],
    ldc: usize,
) {
    assert!(
        (1..=MR).contains(&rows),
        "no-pack kernel takes 1..={MR} rows"
    );
    assert_eq!(a_k.len(), b_k.len(), "operands disagree on the K extent");
    assert!((rows - 1) * a_rs + a_k.max < a.len(), "A view too short");
    for (first, tile) in tiles {
        assert!(b_k.max + tile.reach <= b.len(), "B view too short");
        assert!(
            (rows - 1) * ldc + first + tile.width <= c.len(),
            "C rows too short"
        );
    }
}

/// Portable lane-gathering kernel: each K step's 16 lanes are copied
/// together from their segments, then the tile advances like
/// `portable_tile_pass`'s.
#[allow(clippy::too_many_arguments)]
pub fn portable_lane_kernel(
    rows: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    tiles: &[(usize, LaneTile)],
    c: &mut [f32],
    ldc: usize,
) {
    assert_lane_bounds(rows, a, a_rs, a_k, b, b_k, tiles, c, ldc);
    for (first, tile) in tiles {
        let mut acc = [[0.0f32; NR]; MR];
        for (&a_at, &b_at) in a_k.offsets.iter().zip(b_k.offsets) {
            let mut brow = [0.0f32; NR];
            for segment in &tile.segments {
                let window = &b[b_at + segment.shift..];
                brow[segment.lanes.clone()].copy_from_slice(&window[segment.lanes.clone()]);
            }
            for (r, row) in acc.iter_mut().enumerate().take(rows) {
                let av = a[r * a_rs + a_at];
                for l in 0..NR {
                    row[l] += av * brow[l];
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(rows) {
            let c = &mut c[r * ldc + first..][..tile.width];
            c.iter_mut().zip(row).for_each(|(c, &x)| *c += x);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn portable_tile<const R: usize>(
    n: usize,
    kc: usize,
    a: &[f32],
    a_rs: usize,
    a_k: impl Fn(usize) -> usize + Copy,
    b: &[f32],
    b_k: impl Fn(usize) -> usize + Copy,
    c: &mut [f32],
    ldc: usize,
) {
    for j in (0..n).step_by(NR) {
        let width = (n - j).min(NR);
        let acc = portable_tile_pass::<R>(kc, a, a_rs, a_k, &b[j..], b_k, width);
        for (r, row) in acc.iter().enumerate() {
            for (cv, &x) in c[r * ldc + j..r * ldc + j + width].iter_mut().zip(row) {
                *cv += x;
            }
        }
    }
}

/// One `R × 16` tile of the portable register tile over a K block; `a_k`
/// and `b_k` give the offset of each K step in their operand. A ragged tile
/// (`width < 16`) reads its B rows through a zero-padded copy; its extra
/// lanes are computed and dropped.
#[inline(never)]
fn portable_tile_pass<const R: usize>(
    kc: usize,
    a: &[f32],
    a_rs: usize,
    a_k: impl Fn(usize) -> usize,
    b: &[f32],
    b_k: impl Fn(usize) -> usize,
    width: usize,
) -> [[f32; NR]; R] {
    #[inline(always)]
    fn step<const R: usize>(acc: &mut [[f32; NR]; R], a: &[f32], a_rs: usize, brow: &[f32; NR]) {
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[r * a_rs];
            for l in 0..NR {
                row[l] += av * brow[l];
            }
        }
    }
    let mut acc = [[0.0f32; NR]; R];
    if width == NR {
        for p in 0..kc {
            let brow = b[b_k(p)..].first_chunk().expect("full B tile");
            step(&mut acc, &a[a_k(p)..], a_rs, brow);
        }
    } else {
        for p in 0..kc {
            let mut brow = [0.0f32; NR];
            brow[..width].copy_from_slice(&b[b_k(p)..][..width]);
            step(&mut acc, &a[a_k(p)..], a_rs, &brow);
        }
    }
    acc
}

/// Portable panel transpose: an 8×8 block is read as (up to) 8 contiguous
/// runs into a local tile and written back as 8 panel rows, so both sides of
/// the move stay within a few cache lines; the last `len % 8` depths are
/// moved one element at a time.
pub fn portable_transpose(
    src: &[f32],
    stride: usize,
    lines: usize,
    len: usize,
    panel: &mut [f32],
    ld: usize,
) {
    assert_transpose_bounds(src, stride, lines, len, panel, ld);
    let full = len / 8 * 8;
    for q0 in (0..full).step_by(8) {
        let mut tile = [[0.0f32; 8]; 8];
        for (r, row) in tile.iter_mut().enumerate().take(lines) {
            *row = *src[r * stride + q0..].first_chunk().expect("full block");
        }
        for q in 0..8 {
            let out = &mut panel[(q0 + q) * ld..][..8];
            for (o, row) in out.iter_mut().zip(&tile) {
                *o = row[q];
            }
        }
    }
    for q in full..len {
        let out = &mut panel[q * ld..][..8];
        for (r, o) in out.iter_mut().enumerate() {
            *o = if r < lines { src[r * stride + q] } else { 0.0 };
        }
    }
}

/// AVX2 register-tile wrapper (plain `fn` so it fits the dispatch table).
#[cfg(target_arch = "x86_64")]
fn avx2_tile_kernel(
    rows: usize,
    n: usize,
    kc: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    ldc: usize,
) {
    assert_tile_bounds(rows, n, kc, a, b, c, ldc);
    let (ap, bp, cp) = (a.data.as_ptr(), b.data.as_ptr(), c.as_mut_ptr());
    // SAFETY: bounds asserted above; AVX2 presence was verified by
    // `simd_available` before this kernel was selected.
    unsafe {
        with_const_rows!(
            rows,
            avx2::tile,
            (n, kc, ap, a.rs, |p| p * a.cs, bp, |p| p * b.rs, cp, ldc)
        )
    }
}

/// AVX2 windowed kernel wrapper (plain `fn` so it fits the dispatch table).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn avx2_window_kernel(
    rows: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    c: &mut [f32],
    ldc: usize,
) {
    assert_window_bounds(rows, n, a, a_rs, a_k, b, b_k, c, ldc);
    let kc = a_k.len();
    let (a_k, b_k) = (|p: usize| a_k.offsets[p], |p: usize| b_k.offsets[p]);
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: bounds asserted above (both tables hold `kc` offsets no larger
    // than their recorded maxima); AVX2 presence was verified by
    // `simd_available` before this kernel was selected.
    unsafe { with_const_rows!(rows, avx2::tile, (n, kc, ap, a_rs, a_k, bp, b_k, cp, ldc)) }
}

/// AVX2 lane-gathering kernel wrapper (plain `fn` so it fits the dispatch
/// table).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn avx2_lane_kernel(
    rows: usize,
    a: &[f32],
    a_rs: usize,
    a_k: KOffsets<'_>,
    b: &[f32],
    b_k: KOffsets<'_>,
    tiles: &[(usize, LaneTile)],
    c: &mut [f32],
    ldc: usize,
) {
    assert_lane_bounds(rows, a, a_rs, a_k, b, b_k, tiles, c, ldc);
    let (a_k, b_k) = (a_k.offsets, b_k.offsets);
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: bounds asserted above — every A element, every B lane a
    // segment's mask leaves on (masked-off lanes are not accessed) and every
    // tile's C rows lie inside their slices. AVX2 presence was verified by
    // `simd_available` before this kernel was selected.
    unsafe { with_const_rows!(rows, avx2::lanes, (ap, a_rs, a_k, bp, b_k, tiles, cp, ldc)) }
}

/// AVX2 panel transpose wrapper (plain `fn` so it fits the dispatch table).
#[cfg(target_arch = "x86_64")]
fn avx2_transpose(
    src: &[f32],
    stride: usize,
    lines: usize,
    len: usize,
    panel: &mut [f32],
    ld: usize,
) {
    assert_transpose_bounds(src, stride, lines, len, panel, ld);
    // SAFETY: bounds asserted above (no source line is read past `lines`);
    // AVX2 presence was verified by `simd_available` before this kernel was
    // selected.
    unsafe { avx2::transpose(src.as_ptr(), stride, lines, len, panel.as_mut_ptr(), ld) }
}

/// AVX2 row exponential wrapper (plain `fn` so it fits the dispatch table).
#[cfg(target_arch = "x86_64")]
fn avx2_exp_row(row: &mut [f32], shift: f32) -> f32 {
    // SAFETY: the pointer and length are one live `&mut [f32]`; AVX2 presence
    // was verified by `simd_available` before this kernel was selected.
    lane_sum(unsafe { avx2::exp_row(row.as_mut_ptr(), row.len(), shift) })
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        EXP_CLAMP, EXP_CUT, EXP_LANES, EXP_LN2_HI, EXP_LN2_LO, EXP_LOG2E, EXP_POLY, EXP_ROUND,
    };
    use std::arch::x86_64::*;

    /// [`super::exp`] on eight lanes: the same operations in the same order,
    /// one intrinsic each (multiplies and adds stay separate), so every lane
    /// holds the scalar function's bits.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp8(x: __m256) -> __m256 {
        // `min_ps(a, b)` is `a < b ? a : b`, and `b` when either is NaN.
        let xc = _mm256_min_ps(_mm256_set1_ps(EXP_CLAMP), x);
        let round = _mm256_set1_ps(EXP_ROUND);
        let t = _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(EXP_LOG2E)), round);
        let n = _mm256_sub_ps(t, round);
        let r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &coeff in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(coeff));
        }
        let y = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
        let y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        let n = _mm256_sub_epi32(
            _mm256_castps_si256(t),
            _mm256_set1_epi32(EXP_ROUND.to_bits() as i32),
        );
        let half = _mm256_srai_epi32::<1>(n);
        let bias = _mm256_set1_epi32(127);
        let lo = _mm256_slli_epi32::<23>(_mm256_add_epi32(half, bias));
        let hi = _mm256_slli_epi32::<23>(_mm256_add_epi32(_mm256_sub_epi32(n, half), bias));
        let v = _mm256_mul_ps(
            _mm256_mul_ps(y, _mm256_castsi256_ps(lo)),
            _mm256_castsi256_ps(hi),
        );
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_CUT));
        _mm256_andnot_ps(below, v)
    }

    /// `row[i] = exp(row[i] − shift)` for `i < len`, returning the eight
    /// running lane sums (element `i` in lane `i % 8`). The last `len % 8`
    /// elements move under a lane mask; masked-off lanes are neither read nor
    /// written and add `0.0`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `row` is valid for `len`
    /// reads and writes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exp_row(row: *mut f32, len: usize, shift: f32) -> [f32; EXP_LANES] {
        let shift = _mm256_set1_ps(shift);
        let mut sums = _mm256_setzero_ps();
        let mut i = 0;
        while i + EXP_LANES <= len {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row.add(i)), shift));
            _mm256_storeu_ps(row.add(i), e);
            sums = _mm256_add_ps(sums, e);
            i += EXP_LANES;
        }
        if i < len {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((len - i) as i32), lanes);
            let x = _mm256_maskload_ps(row.add(i), mask);
            let e = _mm256_and_ps(exp8(_mm256_sub_ps(x, shift)), _mm256_castsi256_ps(mask));
            _mm256_maskstore_ps(row.add(i), mask, e);
            sums = _mm256_add_ps(sums, e);
        }
        let mut out = [0.0f32; EXP_LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), sums);
        out
    }

    /// `R` rows of C against B read in place: per 16-column tile, two
    /// accumulators per row; per `p`, two B loads shared by all rows and one
    /// broadcast of `a(r, p)` per row. Unfused mul then add per lane, like
    /// the portable tile. One-vector tiles under a lane mask finish the row.
    /// `ak`/`bk` say where K step `p` starts in A's row and in B.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and that `a + r·ars + ak(p)`, `b + bk(p) + j`
    /// and `c + r·ldc + j` are valid for all `r < R`, `p < kc`, `j < n` (C for
    /// writes too).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile<const R: usize>(
        n: usize,
        kc: usize,
        a: *const f32,
        ars: usize,
        ak: impl Fn(usize) -> usize + Copy,
        b: *const f32,
        bk: impl Fn(usize) -> usize + Copy,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for p in 0..kc {
                let (ap, bp) = (a.add(ak(p)), b.add(bk(p) + j));
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, [lo, hi]) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(r * ars));
                    *lo = _mm256_add_ps(*lo, _mm256_mul_ps(av, b0));
                    *hi = _mm256_add_ps(*hi, _mm256_mul_ps(av, b1));
                }
            }
            for (r, [lo, hi]) in acc.iter().enumerate() {
                let cr = c.add(r * ldc + j);
                _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), *lo));
                _mm256_storeu_ps(cr.add(8), _mm256_add_ps(_mm256_loadu_ps(cr.add(8)), *hi));
            }
            j += 16;
        }
        // The last 1..=15 columns: the same tile, one vector wide, under a
        // lane mask (masked-off lanes are neither read nor written).
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        while j < n {
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j).min(8) as i32), lanes);
            let mut acc = [_mm256_setzero_ps(); R];
            for p in 0..kc {
                let ap = a.add(ak(p));
                let b0 = _mm256_maskload_ps(b.add(bk(p) + j), mask);
                for (r, x) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*ap.add(r * ars));
                    *x = _mm256_add_ps(*x, _mm256_mul_ps(av, b0));
                }
            }
            for (r, x) in acc.iter().enumerate() {
                let cr = c.add(r * ldc + j);
                let sum = _mm256_add_ps(_mm256_maskload_ps(cr, mask), *x);
                _mm256_maskstore_ps(cr, mask, sum);
            }
            j += 8;
        }
    }

    /// `R` rows of every [`LaneTile`](super::LaneTile) of `tiles`: per `p`,
    /// each of a tile's two B vectors is one load (a window that fills it)
    /// or the OR of its segments' masked loads, then every row broadcasts
    /// `a(r, p)`, multiplies and adds — unfused, like [`tile`] — and the
    /// sums are added onto the tile's C stretch. A tile at most 8 lanes wide
    /// runs on one accumulator per row.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `a + r·ars + ak[p]` is readable
    /// for `r < R` and every `p`, `b + bk[p] + shift + l` is readable for
    /// every lane `l` of every segment (`shift` being that segment's), and
    /// `c + r·ldc + first + l` is valid for reads and writes for `r < R` and
    /// `l` below every tile's width.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes<const R: usize>(
        a: *const f32,
        ars: usize,
        ak: &[usize],
        b: *const f32,
        bk: &[usize],
        tiles: &[(usize, super::LaneTile)],
        c: *mut f32,
        ldc: usize,
    ) {
        for (first, tile) in tiles {
            let sums = match (tile.most_windows, tile.width <= 8) {
                (..=2, true) => lanes_of::<R, 2, false>(a, ars, ak, b, bk, tile),
                (..=2, false) => lanes_of::<R, 2, true>(a, ars, ak, b, bk, tile),
                (..=4, true) => lanes_of::<R, 4, false>(a, ars, ak, b, bk, tile),
                (..=4, false) => lanes_of::<R, 4, true>(a, ars, ak, b, bk, tile),
                (_, true) => lanes_of::<R, 8, false>(a, ars, ak, b, bk, tile),
                (_, false) => lanes_of::<R, 8, true>(a, ars, ak, b, bk, tile),
            };
            let c = c.add(*first);
            if tile.width == 16 {
                for (r, [lo, hi]) in sums.iter().enumerate() {
                    let cr = c.add(r * ldc);
                    _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), *lo));
                    _mm256_storeu_ps(cr.add(8), _mm256_add_ps(_mm256_loadu_ps(cr.add(8)), *hi));
                }
            } else {
                let mut row = [0.0f32; 16];
                for (r, [lo, hi]) in sums.iter().enumerate() {
                    _mm256_storeu_ps(row.as_mut_ptr(), *lo);
                    _mm256_storeu_ps(row.as_mut_ptr().add(8), *hi);
                    for (l, &x) in row[..tile.width].iter().enumerate() {
                        *c.add(r * ldc + l) += x;
                    }
                }
            }
        }
    }

    /// One tile of [`lanes`] with the first `W` windows of each vector (the
    /// rest are empty), and with the high vector only if the tile is `WIDE`:
    /// constant trip counts, so the masks stay in registers and the loops
    /// unroll. Returns the sums, row by row (the high vector zero unless
    /// `WIDE`).
    ///
    /// # Safety
    ///
    /// As for [`lanes`]: every lane a window's mask leaves on is readable.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_of<const R: usize, const W: usize, const WIDE: bool>(
        a: *const f32,
        ars: usize,
        ak: &[usize],
        b: *const f32,
        bk: &[usize],
        tile: &super::LaneTile,
    ) -> [[__m256; 2]; R] {
        // A window's lane 0 may lie before or after `b`'s elements as long as
        // the lanes its mask leaves on do not: the address is not
        // dereferenced there, hence `wrapping_add`. A window that fills the
        // vector is every lane of it, read by one unmasked load.
        #[inline(always)]
        unsafe fn gather<const W: usize>(
            b: *const f32,
            at: usize,
            windows: &[(usize, __m256i); W],
            whole: bool,
        ) -> __m256 {
            if whole {
                return _mm256_loadu_ps(b.add(at + windows[0].0));
            }
            let mut v = _mm256_setzero_ps();
            for &(offset, mask) in windows {
                v = _mm256_or_ps(v, _mm256_maskload_ps(b.wrapping_add(at + offset), mask));
            }
            v
        }
        let masks = |windows: &[(usize, [i32; 8]); 8]| -> [(usize, __m256i); W] {
            std::array::from_fn(|i| {
                let (offset, mask) = &windows[i];
                (*offset, _mm256_loadu_si256(mask.as_ptr().cast()))
            })
        };
        let (low, high) = (masks(&tile.windows[0]), masks(&tile.windows[1]));
        let whole = tile.whole;
        let mut sums = [[_mm256_setzero_ps(); 2]; R];
        for (&a_at, &b_at) in ak.iter().zip(bk) {
            let b0 = gather::<W>(b, b_at, &low, whole[0]);
            let b1 = if WIDE {
                gather::<W>(b, b_at, &high, whole[1])
            } else {
                _mm256_setzero_ps()
            };
            let ap = a.add(a_at);
            for (r, [lo, hi]) in sums.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(r * ars));
                *lo = _mm256_add_ps(*lo, _mm256_mul_ps(av, b0));
                if WIDE {
                    *hi = _mm256_add_ps(*hi, _mm256_mul_ps(av, b1));
                }
            }
        }
        sums
    }

    /// Eight rows of [`super::row_chains`], `x`/`y` at their first
    /// elements and `len` apart: per 8×8 block, both operands transposed in
    /// registers, then column `q` of the block (element `q` of every row)
    /// joins each lane's chain in ascending `q`; the last `len % 8` steps
    /// continue each row's chain one element at a time.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `x`, and `y` when `PRODUCT`,
    /// are readable for `8 · len` elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_chains8<const PRODUCT: bool>(
        acc: &mut [f32; 8],
        x: *const f32,
        y: *const f32,
        len: usize,
    ) {
        let block = |src: *const f32, q: usize| -> [__m256; 8] {
            transposed(std::array::from_fn(|r| {
                _mm256_loadu_ps(src.add(r * len + q))
            }))
        };
        let mut lanes = _mm256_loadu_ps(acc.as_ptr());
        let full = len / 8 * 8;
        for q in (0..full).step_by(8) {
            let xs = block(x, q);
            let ys = if PRODUCT { block(y, q) } else { xs };
            for (xc, yc) in xs.into_iter().zip(ys) {
                let term = if PRODUCT { _mm256_mul_ps(xc, yc) } else { xc };
                lanes = _mm256_add_ps(lanes, term);
            }
        }
        _mm256_storeu_ps(acc.as_mut_ptr(), lanes);
        for (r, a) in acc.iter_mut().enumerate() {
            for p in full..len {
                let xv = *x.add(r * len + p);
                *a += if PRODUCT {
                    xv * *y.add(r * len + p)
                } else {
                    xv
                };
            }
        }
    }

    /// One 8×8 block held as 8 row registers, returned as its 8 columns
    /// (`columns[q][r] = rows[r][q]`).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transposed(rows: [__m256; 8]) -> [__m256; 8] {
        // Interleave row pairs: t0 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5].
        let t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
        let t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
        let t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
        let t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
        let t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
        let t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
        let t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
        let t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
        // Join pairs of pairs: u0 = column 0 of rows 0-3 | column 4 of rows 0-3.
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        // Swap 128-bit halves so each register is one full column.
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// Panel transpose, 8×8 blocks in registers; missing lines are zero
    /// registers, the last `len % 8` columns are moved one by one.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `lines ≤ 8`, `src + r·stride +
    /// q` is readable for `r < lines`, `q < len`, and `panel + q·ld` is valid
    /// for 8 writes for `q < len`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose(
        src: *const f32,
        stride: usize,
        lines: usize,
        len: usize,
        panel: *mut f32,
        ld: usize,
    ) {
        let full = len / 8 * 8;
        for q in (0..full).step_by(8) {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (r, row) in rows.iter_mut().enumerate().take(lines) {
                *row = _mm256_loadu_ps(src.add(r * stride + q));
            }
            for (c, column) in transposed(rows).into_iter().enumerate() {
                _mm256_storeu_ps(panel.add((q + c) * ld), column);
            }
        }
        for q in full..len {
            for r in 0..8 {
                *panel.add(q * ld + r) = if r < lines {
                    *src.add(r * stride + q)
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_tile_matches_portable_bitwise_on_packed_panels() {
        if !simd_available() {
            eprintln!("no SIMD tier on this CPU; skipping");
            return;
        }
        for kc in [1usize, 2, 7, 63, 256] {
            let pa: Vec<f32> = (0..kc * MR)
                .map(|v| ((v * 31 + 7) % 17) as f32 * 0.5 - 4.0)
                .collect();
            let pb: Vec<f32> = (0..kc * NR)
                .map(|v| ((v * 13 + 3) % 19) as f32 * 0.25 - 2.0)
                .collect();
            let (a, b) = (MatRef::transposed(&pa, MR), MatRef::row_major(&pb, NR));
            for (rows, cols) in [(MR, NR), (1, NR), (MR, 1), (5, 9), (2, 15)] {
                let mut want = [0.5f32; MR * NR];
                portable_tile_kernel(rows, cols, kc, a, b, &mut want, NR);
                let mut got = [0.5f32; MR * NR];
                #[cfg(target_arch = "x86_64")]
                avx2_tile_kernel(rows, cols, kc, a, b, &mut got, NR);
                assert_eq!(
                    want.map(f32::to_bits),
                    got.map(f32::to_bits),
                    "SIMD tile diverged at kc={kc}, {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn row_chains_are_each_rows_own_sequence_on_every_tier() {
        for rows in 1usize..=19 {
            for len in [1usize, 7, 8, 9, 31, 32, 33] {
                let x: Vec<f32> = (0..rows * len)
                    .map(|v| ((v * 37 + 11) % 23) as f32 * 0.37 - 4.0)
                    .collect();
                let y: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.25).collect();
                let init: Vec<f32> = (0..rows).map(|r| [-0.0, 0.0, 1.5][r % 3]).collect();
                let mut want = (init.clone(), init.clone());
                for (r, (s, d)) in want.0.iter_mut().zip(&mut want.1).enumerate() {
                    for p in 0..len {
                        *s += x[r * len + p];
                        *d += x[r * len + p] * y[r * len + p];
                    }
                }
                for tier in [Tier::Portable, Tier::Simd] {
                    let (mut sums, mut dots) = (init.clone(), init.clone());
                    row_chains_on(tier, &mut sums, &x, None, len);
                    row_chains_on(tier, &mut dots, &x, Some(&y), len);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&sums), bits(&want.0), "sums, {rows}x{len} on {tier:?}");
                    assert_eq!(bits(&dots), bits(&want.1), "dots, {rows}x{len} on {tier:?}");
                }
            }
        }
    }

    #[test]
    fn forced_tier_round_trip() {
        force_tier(Some(Tier::Portable));
        assert_eq!(active_tier(), Tier::Portable);
        force_tier(None);
        let auto = active_tier();
        assert!(auto == detected_tier() || auto == Tier::Portable);
    }
}
