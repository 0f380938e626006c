//! Blocked, register-tiled GEMM — the compute core of the crate.
//!
//! There is one register tile: [`MR`] × [`NR`] = 6 × 16 elements of `C`, two
//! 8-lane accumulators per row, carried across a K block and then added onto
//! `C` in place (`simd`'s `tile_kernel`, runtime-dispatched: AVX2 where the
//! CPU has it, the portable scalar loop elsewhere, bitwise identical). It
//! broadcasts `a(r, p)` through any stride pair and reads B by rows, so A is
//! never packed and the `Aᵀ`/`Bᵀ` variants are [`MatRef`] stride choices,
//! not separate kernels.
//!
//! The packed walk blocks ([`NC`] → [`KC`] → [`MC`]) so that one `KC × NR`
//! B micro-panel stays in L1 while the rows of a row block pass it, those
//! `MC × KC` elements of A stay in L2, and the packed `KC × NC` B panel is
//! reused by every row block. Every kernel runs on its caller's thread;
//! packed panels live in the thread-local [`scratch`] arena.
//!
//! # Which route a shape takes
//!
//! [`route`] picks one of three ways to compute `C += A·B` from the shape
//! and B's column stride alone — no flag, environment variable or tier
//! enters:
//!
//! ```text
//!  m·n·k ≤ 32³ ─────────────────────────────────► Small    direct loops, no packing
//!  B's rows contiguous (cs == 1) and either
//!  m ≤ 18 or a KC × NC block of B ≤ 32 KiB ─────► Skinny   B read in place
//!  everything else ──────────────────────────────► Packed   B packed, panel sweep
//! ```
//!
//! * **Skinny and Packed differ only in copying B.** A packed B element is
//!   reused once per row of A; the no-pack route re-reads each `KC × NC`
//!   block of B once per six rows instead — nearly free when the block stays
//!   in L1, cheaper than the copy with a handful of rows whatever B's size.
//!   [`SKINNY_MAX_B_BLOCK`] and [`SKINNY_MAX_M`] hold the two measured
//!   crossovers.
//! * **`Bᵀ` products are packed.** With B's columns strided no row loads as
//!   a vector, so `A·Bᵀ` (every `Linear` forward, every convolution weight
//!   gradient) takes the walk; [`pack`](crate::pack) moves its columns as
//!   8×8 block transposes, two per 16-column micro-panel.
//! * **A is never packed.** Its six broadcasts per K step read six rows that
//!   stay in L1 across a B micro-panel either way. Packed into 6-row panels
//!   (a 6-lane store per transposed column, a second copy of A per K block)
//!   it made the LM job's `Linear`s slower than the 8×8 packed walk this
//!   tile replaced; read in place, faster. [`gemm_nt_images`]' A, which no
//!   stride pair describes, is gathered row-major per K block.
//! * **Every route gives the same bits.** Each output element is a zeroed
//!   accumulator per [`KC`] block, `acc += a·b` for ascending `p` with the
//!   multiply and the add unfused, then `C += acc`, wherever it is computed.
//!   (`Small` adds into `C` directly, the same sum while `k ≤ KC`; its
//!   shapes never reach the other two.) Held to it by `gemm_properties.rs`
//!   — both routes, forced through the doc-hidden hook [`force_route`],
//!   against [`reference::gemm`] on both tiers — by a fixed-seed slice in
//!   the workspace's `tests/properties.rs`, its golden digests and
//!   `kernels-quick --check`.
//!
//! [`gemm_batch`] extends the same machinery to N independent products that
//! share one `(m, n, k)` shape — attention's one small product per (batch,
//! head): the route is chosen once for the batch, a shared B is packed once,
//! and items the direct loop would take run on the tile instead.

use crate::pack::{gather_image_rows, pack_b, pack_image_lines, MatRef};
use crate::scratch;
use crate::simd::{self, TileKernelFn};
use std::cell::Cell;

/// Register-tile rows: with two 8-lane accumulators per row, 6 rows fill 12
/// of AVX2's 16 vector registers and leave room for the two B vectors and
/// the broadcast A value.
pub const MR: usize = 6;
/// Register-tile columns (two 8-lane vectors); also the width of a packed B
/// micro-panel.
pub const NR: usize = 16;
/// K-dimension block: panel depth sized for L1 residency of a B micro-panel
/// (`KC × NR × 4` bytes = 16 KiB).
pub const KC: usize = 256;
/// M-dimension block of the packed walk: the rows of A that pass every B
/// micro-panel of a block before the next rows do — a whole number of
/// [`MR`]-row passes (20), so no pass straddles two blocks, and `MC × KC × 4`
/// bytes = 120 KiB of A, sized for L2.
pub const MC: usize = 120;
/// N-dimension block: packed B panel width (`KC × NC × 4` bytes = 512 KiB).
pub const NC: usize = 512;

/// Largest `m·n·k` routed to the direct (non-packing) path.
pub const SMALL_FLOPS: usize = 32 * 32 * 32;

/// Most A rows routed to the no-pack route whatever the size of B (B's rows
/// must be contiguous): three passes of the [`MR`]-row register tile.
///
/// Both routes run the same tile and read A in place, so the only
/// difference is B: the packed walk copies each element once into 16-column
/// panels that stay in L1, the no-pack route re-reads each `KC × NC` block of
/// B once per [`MR`] rows from wherever it lies. Measured on the 2-vCPU
/// reference box (AVX2 tier, 48 KiB L1d, 2 MiB L2 per core), packed time
/// over no-pack time, best of five alternated bursts: for B = `[25×6400]`
/// (a 50 KiB block) 2.3x at `m = 6`, 1.7x at 12, 1.46x at 18, 1.35x at 24,
/// 1.44x at 64; for `[150×1600]` (300 KiB) 1.47x, 1.26x, 1.15x, 1.01x, then
/// 0.91x at 64; for `[1024×4096]` (512 KiB) 1.10x at 6, 0.88x at 12 and
/// 0.76x at 18. The limit stays at 18: the entry and `conv2` products of the
/// LeNet jobs (`m` = 6 and 16 filters, B blocks up to 300 KiB) win there,
/// while a B as large as the last one would be better packed from 12 rows.
pub const SKINNY_MAX_M: usize = 3 * MR;

/// Largest `KC × NC` block of B, in floats, that the no-pack route takes at
/// any row count: 32 KiB, which the row passes re-read from L1, so packing
/// it never pays. Measured as above at `m` = 64, 128 and 256, packed time
/// over no-pack time: B blocks of 1–8 Ki floats 1.0–1.4x (`[128×64]`
/// through `[32×256]`; the LM job's `[200×32]`, `[128×32]`, `[128×64]` all
/// sit here), 16 Ki floats 0.97–1.23x, 32 Ki floats 0.95–1.05x.
pub const SKINNY_MAX_B_BLOCK: usize = 8192;

/// How one product is computed; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Direct loops, no packing.
    Small,
    /// B read in place by the register tile, A broadcast.
    Skinny,
    /// The blocked walk over packed panels.
    Packed,
}

thread_local! {
    /// Test hook behind [`force_route`].
    static FORCED_ROUTE: Cell<Option<Route>> = const { Cell::new(None) };
}

/// Test hook, not an option: makes [`route`] answer `forced` on the calling
/// thread for every shape the route can compute (`Skinny` still needs B's
/// rows contiguous), so the property tests and `kernels-quick` can run one
/// shape down two routes and compare bits. `None` restores the rule.
#[doc(hidden)]
pub fn force_route(forced: Option<Route>) {
    FORCED_ROUTE.set(forced);
}

/// The route of an `m × n × k` product whose B has column stride `b_cs` — a
/// pure function of the shape and that stride: no setting or tier enters,
/// and [`gemm_batch`] asks once for the whole batch.
pub fn route(m: usize, n: usize, k: usize, b_cs: usize) -> Route {
    let skinny_ok = b_cs == 1;
    match FORCED_ROUTE.get() {
        Some(Route::Skinny) if !skinny_ok => Route::Packed,
        Some(forced) => forced,
        None if m * n * k <= SMALL_FLOPS => Route::Small,
        None if skinny_ok && (m <= SKINNY_MAX_M || k.min(KC) * n.min(NC) <= SKINNY_MAX_B_BLOCK) => {
            Route::Skinny
        }
        None => Route::Packed,
    }
}

/// `C += A·B` for `A: m×k`, `B: k×n` given as stride views, `C` row-major.
///
/// Callers pass a zeroed `c` for a plain product. Accumulation over `k` is
/// performed in ascending order per output element independent of blocking,
/// so the result is bitwise deterministic.
///
/// # Panics
///
/// Panics if `c.len() != m * n`.
pub fn gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    assert_eq!(c.len(), m * n, "gemm output buffer mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match route(m, n, k, b.cs) {
        Route::Small => small_gemm(m, n, k, a, b, c),
        Route::Skinny => skinny_rows(m, n, k, a, b, c, simd::tile_kernel()),
        Route::Packed => packed_walk(
            m,
            n,
            k,
            Lhs::View(a),
            |p0, j0, kc, nc, buf| pack_b(b, p0, j0, kc, nc, buf),
            c,
        ),
    }
}

/// Where the packed walk reads A.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// A stride view, which the tile reads where it lies.
    View(MatRef<'a>),
    /// `[images, m, len]` read as the `m × images·len` matrix (see
    /// [`gemm_nt_images`]); no stride pair describes it, so each K block of
    /// it is first gathered row-major.
    Images { data: &'a [f32], len: usize },
}

/// The blocked walk: for every `(NC, KC)` block, `pack_b(p0, j0, kc, nc,
/// buf)` fills the block's B panel and [`sweep`] runs the register tile over
/// it against A.
fn packed_walk(
    m: usize,
    n: usize,
    k: usize,
    a: Lhs<'_>,
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f32]),
    c: &mut [f32],
) {
    let kernel = simd::tile_kernel();
    let mut gathered = match a {
        Lhs::View(_) => Vec::new(),
        Lhs::Images { .. } => scratch::take_raw(m * k.min(KC)),
    };
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let mut pb = scratch::take_raw(nc.div_ceil(NR) * NR * kc);
            pack_b(pc, jc, kc, nc, &mut pb);
            let av = match a {
                Lhs::View(a) => a.sub(0, pc),
                Lhs::Images { data, len } => {
                    gather_image_rows(data, m, len, pc, kc, &mut gathered);
                    MatRef::row_major(&gathered, kc)
                }
            };
            sweep(m, nc, kc, av, &pb, &mut c[jc..], n, kernel);
            scratch::give(pb);
        }
    }
    scratch::give(gathered);
}

/// One `(KC, NC)` block of the walk on the register tile: every [`MR`]-row
/// group of `a` (the block's `m × kc` A, read in place) against every
/// [`NR`]-column micro-panel of `pb`, each pair one kernel call that adds its
/// sums straight onto C. A micro-panel stays in L1 while the [`MC`] rows of
/// a row block pass it, and those rows stay in L2 while every micro-panel
/// passes them. `c` starts at the block's first column; rows are `ldc`
/// elements apart.
#[allow(clippy::too_many_arguments)]
fn sweep(
    m: usize,
    nc: usize,
    kc: usize,
    a: MatRef<'_>,
    pb: &[f32],
    c: &mut [f32],
    ldc: usize,
    kernel: TileKernelFn,
) {
    for ic in (0..m).step_by(MC) {
        let rows_end = (ic + MC).min(m);
        for (jp, panel) in pb.chunks_exact(kc * NR).take(nc.div_ceil(NR)).enumerate() {
            let (j0, cols) = (jp * NR, (nc - jp * NR).min(NR));
            let b = MatRef::row_major(panel, NR);
            for i0 in (ic..rows_end).step_by(MR) {
                let rows = (rows_end - i0).min(MR);
                kernel(
                    rows,
                    cols,
                    kc,
                    a.sub(i0, 0),
                    b,
                    &mut c[i0 * ldc + j0..],
                    ldc,
                );
            }
        }
    }
}

/// `C += Σ_i A_i · B_iᵀ` for operands stored image by image — `a` is
/// `[images, m, len]`, `b` is `[images, n, len]`, `C` is row-major `m × n` —
/// which is `gemm` on the `m × images·len` and `n × images·len` matrices whose
/// rows string the images together, bit for bit, without building either
/// whole (B is packed and A gathered one K block at a time): the weight
/// gradient of a 1×1 convolution straight from its `[N, C, H·W]` output
/// gradient and input.
///
/// # Panics
///
/// Panics if a buffer does not match its shape.
pub fn gemm_nt_images(
    m: usize,
    n: usize,
    images: usize,
    len: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), images * m * len, "gemm_nt_images lhs mismatch");
    assert_eq!(b.len(), images * n * len, "gemm_nt_images rhs mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt_images output buffer mismatch");
    let k = images * len;
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // B's "columns" run along K, so the no-pack route is never a candidate.
    if route(m, n, k, k) == Route::Small {
        // `small_gemm`'s A·Bᵀ loop: one chain per element over the whole K.
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            for (j, cv) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for image in 0..images {
                    let arow = &a[(image * m + i) * len..][..len];
                    let brow = &b[(image * n + j) * len..][..len];
                    for (&av, &bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                }
                *cv += acc;
            }
        }
        return;
    }
    let a = Lhs::Images { data: a, len };
    packed_walk(
        m,
        n,
        k,
        a,
        |p0, j0, kc, nc, buf| pack_image_lines(b, n, len, j0, p0, nc, kc, buf),
        c,
    );
}

/// One matrix per batch item, all sharing element strides: item `i` is a
/// [`MatRef`] whose data starts `i * stride` elements into `data`.
///
/// `stride == 0` means every item reads the *same* matrix (a shared
/// operand), which lets [`gemm_batch`] pack it once for the whole batch.
#[derive(Clone, Copy)]
pub struct BatchMat<'a> {
    /// Backing storage for all items.
    pub data: &'a [f32],
    /// Elements between consecutive items (0 = one matrix shared by all).
    pub stride: usize,
    /// Element stride between consecutive rows of one item.
    pub rs: usize,
    /// Element stride between consecutive columns of one item.
    pub cs: usize,
}

impl<'a> BatchMat<'a> {
    /// Items stored back-to-back as row-major `[rows, cols]` matrices.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> BatchMat<'a> {
        BatchMat {
            data,
            stride: rows * cols,
            rs: cols,
            cs: 1,
        }
    }

    /// Items stored back-to-back as row-major `[rows, cols]` matrices, each
    /// *used* as its transpose (`[cols, rows]`) — no copies.
    pub fn transposed(data: &'a [f32], rows: usize, cols: usize) -> BatchMat<'a> {
        BatchMat {
            data,
            stride: rows * cols,
            rs: 1,
            cs: cols,
        }
    }

    /// One matrix shared by every batch item.
    pub fn shared(mat: MatRef<'a>) -> BatchMat<'a> {
        BatchMat {
            data: mat.data,
            stride: 0,
            rs: mat.rs,
            cs: mat.cs,
        }
    }

    /// The `i`-th item as a [`MatRef`].
    #[inline(always)]
    pub fn item(&self, i: usize) -> MatRef<'a> {
        MatRef {
            data: &self.data[i * self.stride..],
            rs: self.rs,
            cs: self.cs,
        }
    }
}

/// Batched GEMM: `C_i = alpha · (A_i · B_i)` for `batch` independent
/// products sharing one `(m, n, k)` shape.
///
/// `c` holds the outputs back-to-back (`c[i*m*n..]` is item `i`, row-major)
/// and is fully overwritten. A shared B (`stride == 0`) that fits a single
/// cache block is packed once up front.
///
/// [`route`] is asked once for the batch, and one answer is read differently
/// here: an item it calls `Small` that has at least 8 columns (one vector)
/// runs on the register tile (`tile_rows`) instead of the direct loop,
/// because a batch repeats the shape often enough for the tile to pay —
/// attention's 16 heads of `16×16×16` go from 5–8 GFLOP/s to 25–40. Per
/// item the result is still bitwise identical to `gemm` on that item
/// followed by a multiplication of each output element by `alpha`: every
/// path accumulates each element from zero in ascending `k`.
///
/// # Panics
///
/// Panics if `c.len() != batch * m * n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batch(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    a: BatchMat<'_>,
    b: BatchMat<'_>,
    alpha: f32,
    c: &mut [f32],
) {
    assert_eq!(c.len(), batch * m * n, "gemm_batch output buffer mismatch");
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let route = route(m, n, k, b.cs);
    let tiled = route == Route::Small && n >= NR / 2;
    let kernel = simd::tile_kernel();
    // A shared B that an item would pack whole — one (KC, NC) block of the
    // packed walk, or the tile's transposed operand — is packed once, before
    // the first item; larger or per-item Bs are packed item by item.
    let packs_whole_b = match route {
        Route::Packed => k <= KC && n <= NC,
        Route::Small => tiled && b.cs != 1,
        Route::Skinny => false,
    };
    let mut shared_pb_buf = Vec::new();
    let shared_pb: Option<&[f32]> = if packs_whole_b && b.stride == 0 {
        shared_pb_buf = scratch::take_raw(n.div_ceil(NR) * NR * k);
        pack_b(b.item(0), 0, 0, k, n, &mut shared_pb_buf);
        Some(&shared_pb_buf)
    } else {
        None
    };

    for (bi, ci) in c.chunks_exact_mut(m * n).enumerate() {
        ci.fill(0.0);
        let (av, bv) = (a.item(bi), b.item(bi));
        match route {
            Route::Small if tiled => tile_rows(m, n, k, av, bv, ci, shared_pb, kernel),
            Route::Small => small_gemm(m, n, k, av, bv, ci),
            Route::Skinny => skinny_rows(m, n, k, av, bv, ci, kernel),
            // The pre-packed shared panel is the item's only block.
            Route::Packed => match shared_pb {
                Some(pb) => sweep(m, n, k, av, pb, ci, n, kernel),
                None => packed_walk(
                    m,
                    n,
                    k,
                    Lhs::View(av),
                    |p0, j0, kc, nc, buf| pack_b(bv, p0, j0, kc, nc, buf),
                    ci,
                ),
            },
        }
        if alpha != 1.0 {
            for v in ci.iter_mut() {
                *v *= alpha;
            }
        }
    }
    scratch::give(shared_pb_buf);
}

/// A row range of one batch item too small for any blocking, on the
/// register tile: [`MR`] rows of C at a time over the whole of K, so each
/// element is one chain from zero in ascending `k` — what the direct loop
/// computes, bit for bit, at several times its rate. The kernel wants B's
/// rows contiguous; a B that is not (`A·Bᵀ`) is first transposed into
/// [`NR`]-column panels, `pack_b`'s layout, each of which is a matrix with
/// contiguous rows (`shared_pb` when the caller did that once for the batch).
#[allow(clippy::too_many_arguments)]
fn tile_rows(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    shared_pb: Option<&[f32]>,
    kernel: TileKernelFn,
) {
    let mut sweep = |b: MatRef<'_>, j0: usize, cols: usize| {
        for i0 in (0..m).step_by(MR) {
            let rows = (m - i0).min(MR);
            kernel(rows, cols, k, a.sub(i0, 0), b, &mut c[i0 * n + j0..], n);
        }
    };
    if b.cs == 1 {
        sweep(b, 0, n);
        return;
    }
    let mut pb_buf = Vec::new();
    let pb: &[f32] = match shared_pb {
        Some(panels) => panels,
        None => {
            pb_buf = scratch::take_raw(n.div_ceil(NR) * NR * k);
            pack_b(b, 0, 0, k, n, &mut pb_buf);
            &pb_buf
        }
    };
    for (jp, panel) in pb.chunks_exact(k * NR).take(n.div_ceil(NR)).enumerate() {
        sweep(MatRef::row_major(panel, NR), jp * NR, (n - jp * NR).min(NR));
    }
    scratch::give(pb_buf);
}

/// The no-pack route over `m` rows of one product, on the calling thread:
/// [`MR`] rows of C at a time against B's rows as they lie. The [`KC`]
/// blocks keep the packed walk's association; the [`NC`] blocks keep the
/// part of B that every row group re-reads within L2. Nothing is copied, so
/// there is no scratch to take either.
fn skinny_rows(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    kernel: TileKernelFn,
) {
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            for i0 in (0..m).step_by(MR) {
                let rows = (m - i0).min(MR);
                let (av, bv) = (a.sub(i0, pc), b.sub(pc, jc));
                kernel(rows, nc, kc, av, bv, &mut c[i0 * n + jc..], n);
            }
        }
    }
}

/// Direct loops for shapes too small to amortize packing.
fn small_gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    if b.cs == 1 {
        // B rows contiguous: ikj axpy order streams B and C.
        for i in 0..m {
            let crow = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a.at(i, p);
                let brow = &b.data[p * b.rs..p * b.rs + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    } else if a.cs == 1 && b.rs == 1 {
        // A·Bᵀ: both operands contiguous along k — dot products.
        for i in 0..m {
            let arow = &a.data[i * a.rs..i * a.rs + k];
            let crow = &mut c[i * n..(i + 1) * n];
            for (j, cv) in crow.iter_mut().enumerate() {
                let bcol = &b.data[j * b.cs..j * b.cs + k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(bcol) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    } else {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                c[i * n + j] += acc;
            }
        }
    }
}

/// The packed walk as it ran before the no-pack route, the block packs and
/// A read in place: every shape blocked, A and B both packed into K-major
/// micro-panels by the element-wise packers, each micro-panel pair one call
/// of the register tile, on the calling thread. Kept as the oracle the routes
/// are tested against and the baseline `kernels-quick` times them against.
pub mod reference {
    use super::{KC, MC, MR, NC, NR};
    use crate::pack::{reference as packers, MatRef};
    use crate::simd;

    /// `C += A·B`, bitwise what [`super::gemm`] gives for any shape whose
    /// route is not `Small`.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != m * n`.
    pub fn gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
        assert_eq!(c.len(), m * n, "gemm output buffer mismatch");
        let kernel = simd::tile_kernel();
        let mut pb = vec![0.0f32; n.min(NC).div_ceil(NR) * NR * k.min(KC)];
        let mut pa = vec![0.0f32; m.min(MC).div_ceil(MR) * MR * k.min(KC)];
        for jc in (0..n).step_by(NC) {
            let nc = (n - jc).min(NC);
            for pc in (0..k).step_by(KC) {
                let kc = (k - pc).min(KC);
                packers::pack_b(b, pc, jc, kc, nc, &mut pb);
                for ic in (0..m).step_by(MC) {
                    let mc = (m - ic).min(MC);
                    packers::pack_a(a, ic, pc, mc, kc, &mut pa);
                    let b_panels = pb.chunks_exact(kc * NR).take(nc.div_ceil(NR));
                    for (jp, bp) in b_panels.enumerate() {
                        let (j0, cols) = (jc + jp * NR, (nc - jp * NR).min(NR));
                        let a_panels = pa.chunks_exact(kc * MR).take(mc.div_ceil(MR));
                        for (ip, ap) in a_panels.enumerate() {
                            let (i0, rows) = (ic + ip * MR, (mc - ip * MR).min(MR));
                            let (av, bv) = (MatRef::transposed(ap, MR), MatRef::row_major(bp, NR));
                            kernel(rows, cols, kc, av, bv, &mut c[i0 * n + j0..], n);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(i, p) * b.at(p, j);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn ramp(len: usize) -> Vec<f32> {
        (0..len)
            .map(|v| ((v * 37 + 11) % 23) as f32 * 0.25 - 2.0)
            .collect()
    }

    #[test]
    fn blocked_path_matches_reference_off_tile_boundaries() {
        // m, n straddle MR/NR/MC boundaries; k straddles KC.
        for &(m, n, k) in &[(1usize, 1usize, 300usize), (129, 65, 257), (8, 520, 40)] {
            let ad = ramp(m * k);
            let bd = ramp(k * n);
            let a = MatRef::row_major(&ad, k);
            let b = MatRef::row_major(&bd, n);
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, a, b, &mut c);
            let want = reference(m, n, k, a, b);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "{got} vs {want} at ({m},{n},{k})"
                );
            }
        }
    }

    #[test]
    fn small_path_matches_reference_for_all_stride_variants() {
        let (m, n, k) = (5usize, 7usize, 6usize);
        let ad = ramp(m * k);
        let bd = ramp(k * n);
        // nn
        let a = MatRef::row_major(&ad, k);
        let b = MatRef::row_major(&bd, n);
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, &mut c);
        assert_eq!(c, reference(m, n, k, a, b));
        // tn: A stored as [k, m]
        let adt = ramp(k * m);
        let a_t = MatRef::transposed(&adt, m);
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a_t, b, &mut c);
        assert_eq!(c, reference(m, n, k, a_t, b));
        // nt: B stored as [n, k]
        let bdt = ramp(n * k);
        let b_t = MatRef::transposed(&bdt, k);
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a, b_t, &mut c);
        assert_eq!(c, reference(m, n, k, a, b_t));
    }

    #[test]
    fn gemm_batch_matches_looped_gemm_bitwise() {
        // One small-path and one blocked-path shape, plus an edge tile.
        for &(batch, m, n, k) in &[
            (3usize, 5usize, 7usize, 6usize),
            (2, 40, 33, 65),
            (4, 9, 8, 257),
        ] {
            let ad = ramp(batch * m * k);
            let bd = ramp(batch * k * n);
            let mut want = vec![0.0f32; batch * m * n];
            for bi in 0..batch {
                gemm(
                    m,
                    n,
                    k,
                    MatRef::row_major(&ad[bi * m * k..], k),
                    MatRef::row_major(&bd[bi * k * n..], n),
                    &mut want[bi * m * n..(bi + 1) * m * n],
                );
            }
            let mut got = vec![f32::NAN; batch * m * n];
            gemm_batch(
                batch,
                m,
                n,
                k,
                BatchMat::row_major(&ad, m, k),
                BatchMat::row_major(&bd, k, n),
                1.0,
                &mut got,
            );
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "batch mismatch at ({batch},{m},{n},{k})"
            );
        }
    }

    #[test]
    fn gemm_batch_shared_b_and_alpha() {
        let (batch, m, n, k) = (3usize, 33usize, 17usize, 40usize);
        let ad = ramp(batch * m * k);
        let bd = ramp(k * n);
        let b = MatRef::row_major(&bd, n);
        let alpha = 0.125f32;
        let mut want = vec![0.0f32; batch * m * n];
        for bi in 0..batch {
            gemm(
                m,
                n,
                k,
                MatRef::row_major(&ad[bi * m * k..], k),
                b,
                &mut want[bi * m * n..(bi + 1) * m * n],
            );
        }
        for v in want.iter_mut() {
            *v *= alpha;
        }
        let mut got = vec![f32::NAN; batch * m * n];
        gemm_batch(
            batch,
            m,
            n,
            k,
            BatchMat::row_major(&ad, m, k),
            BatchMat::shared(b),
            alpha,
            &mut got,
        );
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn route_is_a_function_of_shape_and_b_stride() {
        // LeNet's 6-filter entry convolution and its weight gradient.
        assert_eq!(route(6, 6400, 25, 1), Route::Skinny);
        assert_eq!(route(6, 25, 6400, 6400), Route::Packed);
        assert_eq!(route(SKINNY_MAX_M, 1600, 150, 1), Route::Skinny);
        assert_eq!(route(SKINNY_MAX_M + 1, 1600, 150, 1), Route::Packed);
        // A B block that fits L1 is read in place at any row count: the LM
        // job's `dx = dY·W` of its head; one past the limit is packed.
        assert_eq!(route(128, 32, 200, 1), Route::Skinny);
        assert_eq!(route(128, SKINNY_MAX_B_BLOCK / 32, 32, 1), Route::Skinny);
        assert_eq!(
            route(128, SKINNY_MAX_B_BLOCK / 32 + 1, 32, 1),
            Route::Packed
        );
        assert_eq!(route(128, 32, 200, 200), Route::Packed);
        // Tiny products stay on the direct loop whatever their shape.
        assert_eq!(route(1, 32, 32, 1), Route::Small);
        assert_eq!(route(32, 32, 32, 32), Route::Small);
        // The hook overrides the rule on this thread only, and cannot send a
        // strided-row B down the no-pack route.
        force_route(Some(Route::Packed));
        assert_eq!(route(6, 6400, 25, 1), Route::Packed);
        assert_eq!(route(1, 32, 32, 1), Route::Packed);
        std::thread::spawn(|| assert_eq!(route(6, 6400, 25, 1), Route::Skinny))
            .join()
            .unwrap();
        force_route(Some(Route::Skinny));
        assert_eq!(route(64, 64, 64, 1), Route::Skinny);
        assert_eq!(route(64, 64, 64, 64), Route::Packed);
        force_route(None);
        assert_eq!(route(64, 64, 256, 1), Route::Packed);
    }

    #[test]
    fn every_route_gives_the_reference_bits() {
        // m straddles MR groups, n the 16-wide and masked column tiles, k
        // the KC block; A both row-major and transposed.
        for &(m, n, k) in &[
            (1usize, 1usize, 300usize),
            (6, 41, 25),
            (7, 16, 257),
            (15, 530, 70),
        ] {
            let ad = ramp(m * k);
            let bd = ramp(k * n);
            let b = MatRef::row_major(&bd, n);
            for a in [MatRef::row_major(&ad, k), MatRef::transposed(&ad, m)] {
                let mut want = vec![0.0f32; m * n];
                reference::gemm(m, n, k, a, b, &mut want);
                for forced in [Route::Skinny, Route::Packed] {
                    force_route(Some(forced));
                    let mut got = vec![0.0f32; m * n];
                    gemm(m, n, k, a, b, &mut got);
                    force_route(None);
                    assert_eq!(
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{forced:?} diverged at ({m},{n},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_batch_degenerate_k_zeroes_output() {
        let data: Vec<f32> = Vec::new();
        let a = BatchMat::row_major(&data, 2, 0);
        let b = BatchMat::row_major(&data, 0, 2);
        let mut c = vec![f32::NAN; 2 * 2 * 2];
        gemm_batch(2, 2, 2, 0, a, b, 1.0, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let data: Vec<f32> = Vec::new();
        let a = MatRef::row_major(&data, 0);
        let b = MatRef::row_major(&data, 0);
        let mut c = vec![0.0f32; 0];
        gemm(0, 0, 0, a, b, &mut c);
        let mut c = vec![1.0f32; 4];
        // k == 0: C unchanged (gemm accumulates).
        gemm(2, 2, 0, a, b, &mut c);
        assert_eq!(c, vec![1.0; 4]);
    }
}
