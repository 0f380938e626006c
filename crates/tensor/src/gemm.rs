//! Blocked, packed, register-tiled GEMM — the compute core of the crate.
//!
//! Structure follows the BLIS decomposition. The three nested cache blocks
//! ([`NC`] → [`KC`] → [`MC`]) walk the operands so that:
//!
//! * one `KC × NR` B micro-panel stays resident in L1 across a whole row
//!   sweep of the macro-kernel,
//! * the packed `MC × KC` A panel stays resident in L2,
//! * the packed `KC × NC` B panel stays resident in L3 (or main memory on
//!   small parts) and is reused by every row block.
//!
//! Inside a block, a micro-kernel computes an `MR × NR` tile of `C` with the
//! full tile held in an explicitly-unrolled register accumulator. The kernel
//! itself is runtime-dispatched through [`simd`]: a hand-written
//! AVX2 implementation where the CPU has one, the portable scalar tile
//! loop everywhere else — all tiers bitwise identical. Operands are read
//! through [`MatRef`] stride views, so the `Aᵀ`/`Bᵀ`
//! variants are packing-order choices, not separate kernels.
//!
//! Row blocks are farmed out to the persistent worker pool
//! ([`parallel`]); each worker packs its own A panel into a
//! thread-local [`scratch`] buffer that persists across
//! kernel calls. Per-element accumulation order is `p = 0..k` ascending
//! regardless of the thread count or block partition, so results are bitwise
//! reproducible for any `set_threads` value.
//!
//! Packing pays only where a packed panel is reused, so two kinds of shape
//! do not take the walk above ([`route`] decides, from the shape and B's
//! strides alone):
//!
//! * `m·n·k` at or below [`SMALL_FLOPS`] skips packing *and* the pool and
//!   runs a direct loop on the calling thread, so tiny matmuls (≤ 32³) pay
//!   no blocking or dispatch overhead;
//! * a *skinny* A — at most [`SKINNY_MAX_M`] rows — against a B with
//!   contiguous rows reuses each packed B element only `m` times, fewer than
//!   the copy costs: a register-tiled kernel reads B in place and broadcasts
//!   A instead (the 6-filter entry convolutions of LeNet lower to this).
//!
//! Every route accumulates each output element the same way — a zeroed
//! accumulator per [`KC`] block, ascending `k` inside it, then `C += acc` —
//! so which one ran never shows in the bits (the direct loop agrees with the
//! other two whenever `k ≤ KC`, and its shapes never reach them). Packed
//! shapes still run inline unless every pool task would carry at least
//! `MIN_TASK_FLOPS` — below that the hand-off costs more than it moves.
//!
//! [`gemm_batch`] extends the same machinery to N independent products that
//! share one `(m, n, k)` shape — the pattern attention lowers to, with one
//! small product per (batch, head). The whole batch is dispatched to the
//! pool as a *single* parallel-for over the concatenated output rows, so a
//! transformer layer pays one pool handoff instead of `B·H` of them, and a
//! shared B operand (batch stride 0) is packed once for every item.

use crate::pack::{pack_a, pack_b, pack_image_lines, MatRef};
use crate::simd::{self, MicroKernelFn, SkinnyKernelFn, SKINNY_MR};
use crate::{parallel, scratch};
use std::cell::Cell;

/// Micro-tile rows: C tile height held in registers.
pub const MR: usize = 8;
/// Micro-tile columns: C tile width held in registers.
pub const NR: usize = 8;
/// K-dimension block: panel depth sized for L1 residency of a B micro-panel
/// (`KC × NR × 4` bytes = 8 KiB).
pub const KC: usize = 256;
/// M-dimension block: packed A panel height (`MC × KC × 4` bytes = 128 KiB,
/// sized for L2).
pub const MC: usize = 128;
/// N-dimension block: packed B panel width (`KC × NC × 4` bytes = 512 KiB).
pub const NC: usize = 512;

/// Largest `m·n·k` routed to the direct (non-packing, non-pool) path.
pub const SMALL_FLOPS: usize = 32 * 32 * 32;

/// Most A rows routed to the no-pack kernel (B's rows must be contiguous):
/// three passes of its [`SKINNY_MR`]-row register tile.
///
/// Packing B costs one copy per element and is repaid by the `m` rows that
/// reuse it; the no-pack kernel copies nothing, runs a wider register tile
/// (6×16 against the micro-kernel's 8×8) and re-reads each B block once per
/// `SKINNY_MR` rows instead. Measured on the 2-vCPU reference box (AVX2
/// tier, 2 MiB L2 per core, pool 1), packed time over no-pack time across B
/// from `[25×6400]` to `[1024×4096]`: 2.3–2.5x at `m = 6`, 1.2–1.8x at 8,
/// 1.4–2.0x at 12, 1.09–1.53x at 16, 1.6–2.0x at 18 (a third, nearly empty
/// A panel), 1.08–1.47x at 24, 1.03–1.56x at 32, 0.99–1.41x at 64 and 0.86x
/// at 128 on the largest B: the curves cross between 64 and 128 rows. The
/// limit is held far below that because every pass re-reads a B block of up
/// to `KC × NC` floats (512 KiB) that this box keeps in L2 and a smaller
/// cache would not; at three passes the copy saved still outweighs them.
pub const SKINNY_MAX_M: usize = 3 * SKINNY_MR;

/// How one product is computed; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Direct loops, no packing, no pool.
    Small,
    /// B read in place by the no-pack kernel, A broadcast.
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
/// pure function of the shape and that stride: no setting, tier or thread
/// count enters, and [`gemm_batch`] asks once for the whole batch.
pub fn route(m: usize, n: usize, k: usize, b_cs: usize) -> Route {
    let skinny_ok = b_cs == 1;
    match FORCED_ROUTE.get() {
        Some(Route::Skinny) if !skinny_ok => Route::Packed,
        Some(forced) => forced,
        None if m * n * k <= SMALL_FLOPS => Route::Small,
        None if m <= SKINNY_MAX_M && skinny_ok => Route::Skinny,
        None => Route::Packed,
    }
}

/// Minimum C rows per parallel task (one MR tile).
const ROWS_MIN_CHUNK: usize = MR;

/// Least work a parallel task must carry, in FLOPs (2·m·n·k of its share of
/// the region). Handing rows to a pool worker costs a futex wake and, on a
/// shared host, the wait for a descheduled vCPU — tens of microseconds — so
/// a region is split only into tasks at least this large and anything
/// smaller runs inline on the caller. Measured on the 2-vCPU reference box
/// (AVX2 tier, ≈ 30 GFLOP/s per core): a LeNet conv block, `[16×150]·[150×512]`
/// (2.5 MFLOP, 64 µs inline) ran at 0.6x when split in two, and two tasks
/// broke even at 8 MFLOP each.
const MIN_TASK_FLOPS: usize = 1 << 23;

/// Rows a task needs to reach [`MIN_TASK_FLOPS`] at `row_flops` per C row,
/// never below `tile_rows`. Only decides *whether and where* a region is
/// split, which never affects results.
pub(crate) fn min_task_rows(row_flops: usize, tile_rows: usize) -> usize {
    MIN_TASK_FLOPS.div_ceil(row_flops.max(1)).max(tile_rows)
}

/// `C += A·B` for `A: m×k`, `B: k×n` given as stride views, `C` row-major.
///
/// Callers pass a zeroed `c` for a plain product. Accumulation over `k` is
/// performed in ascending order per output element independent of blocking
/// and threading, so the result is bitwise deterministic.
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
        Route::Skinny => skinny_rows(m, n, k, a, b, c, simd::skinny_kernel()),
        Route::Packed => packed_walk(
            m,
            n,
            k,
            |i0, p0, mc, kc, buf: &mut [f32]| pack_a(a, i0, p0, mc, kc, buf),
            |p0, j0, kc, nc, buf: &mut [f32]| pack_b(b, p0, j0, kc, nc, buf),
            c,
        ),
    }
}

/// The blocked walk over packed panels, row blocks farmed out to the pool.
/// `pack_a(i0, p0, mc, kc, buf)` and `pack_b(p0, j0, kc, nc, buf)` fill the
/// panels of one block; where the operands live is their business.
fn packed_walk(
    m: usize,
    n: usize,
    k: usize,
    pack_a: impl Fn(usize, usize, usize, usize, &mut [f32]) + Sync,
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f32]),
    c: &mut [f32],
) {
    let ukr = simd::microkernel();
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let mut pb_buf = scratch::take_raw(nc.div_ceil(NR) * NR * kc);
            pack_b(pc, jc, kc, nc, &mut pb_buf);
            let pb = &pb_buf;
            let task_rows = min_task_rows(2 * nc * kc, ROWS_MIN_CHUNK);
            parallel::parallel_rows_mut(c, m, n, task_rows, |r0, r1, rows| {
                let mut pa = scratch::take_raw((r1 - r0).min(MC).div_ceil(MR) * MR * kc);
                for ic in (r0..r1).step_by(MC) {
                    let mc = (r1 - ic).min(MC);
                    pack_a(ic, pc, mc, kc, &mut pa);
                    macro_kernel(&pa, pb, mc, nc, kc, &mut rows[(ic - r0) * n + jc..], n, ukr);
                }
                scratch::give(pa);
            });
            scratch::give(pb_buf);
        }
    }
}

/// `C += Σ_i A_i · B_iᵀ` for operands stored image by image — `a` is
/// `[images, m, len]`, `b` is `[images, n, len]`, `C` is row-major `m × n` —
/// which is `gemm` on the `m × images·len` and `n × images·len` matrices whose
/// rows string the images together, bit for bit, without building either
/// one: the weight gradient of a 1×1 convolution straight from its
/// `[N, C, H·W]` output gradient and input.
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
    packed_walk(
        m,
        n,
        k,
        |i0, p0, mc, kc, buf: &mut [f32]| pack_image_lines(a, m, len, i0, p0, mc, kc, buf),
        |p0, j0, kc, nc, buf: &mut [f32]| pack_image_lines(b, n, len, j0, p0, nc, kc, buf),
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
/// and is fully overwritten. The whole batch is one parallel-for over the
/// concatenated `batch * m` output rows — one pool dispatch regardless of
/// the batch size, which is what lets attention's per-(batch, head) products
/// scale with cores instead of running serially per head. A shared B
/// (`stride == 0`) that fits a single cache block is packed once up front.
///
/// [`route`] is asked once for the batch, and one answer is read differently
/// here: an item it calls `Small` that has at least [`NR`] columns runs on the
/// no-pack register tile (`tile_rows`) instead of the direct loop, because a
/// batch repeats the shape often enough for the tile to pay — attention's
/// 16 heads of `16×16×16` go from 5–8 GFLOP/s to 25–40. Per item the result
/// is still bitwise identical to `gemm` on that item followed by a
/// multiplication of each output element by `alpha`: every path accumulates
/// each element from zero in ascending `k`, for any thread count.
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
    let tiled = route == Route::Small && n >= NR;
    let (ukr, skinny) = (simd::microkernel(), simd::skinny_kernel());
    // A shared B that an item would pack whole — one (KC, NC) block of the
    // packed walk, or the tile's transposed operand — is packed once, outside
    // the parallel region; larger or per-item Bs are packed by each worker.
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

    let task_rows = min_task_rows(2 * n * k, ROWS_MIN_CHUNK.min(m));
    parallel::parallel_rows_mut(c, batch * m, n, task_rows, |r0, r1, rows| {
        let mut row = r0;
        while row < r1 {
            let bi = row / m;
            let item_end = ((bi + 1) * m).min(r1);
            let local0 = row - bi * m;
            let nrows = item_end - row;
            let cslice = &mut rows[(row - r0) * n..(item_end - r0) * n];
            cslice.fill(0.0);
            let av = a.item(bi).sub(local0, 0);
            let bv = b.item(bi);
            match route {
                Route::Small if tiled => tile_rows(nrows, n, k, av, bv, cslice, shared_pb, skinny),
                Route::Small => small_gemm(nrows, n, k, av, bv, cslice),
                Route::Skinny => skinny_rows(nrows, n, k, av, bv, cslice, skinny),
                Route::Packed => blocked_rows(nrows, n, k, av, bv, cslice, shared_pb, ukr),
            }
            if alpha != 1.0 {
                for v in cslice.iter_mut() {
                    *v *= alpha;
                }
            }
            row = item_end;
        }
    });
    scratch::give(shared_pb_buf);
}

/// A row range of one batch item too small for any blocking, on the no-pack
/// register tile: [`SKINNY_MR`] rows of C at a time over the whole of K, so
/// each element is one chain from zero in ascending `k` — what the direct
/// loop computes, bit for bit, at several times its rate. The kernel wants
/// B's rows contiguous; a B that is not (`A·Bᵀ`) is first transposed into
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
    kernel: SkinnyKernelFn,
) {
    let mut sweep = |b: MatRef<'_>, j0: usize, cols: usize| {
        for i0 in (0..m).step_by(SKINNY_MR) {
            let rows = (m - i0).min(SKINNY_MR);
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
    for (jp, panel) in pb.chunks_exact(k * NR).enumerate() {
        sweep(MatRef::row_major(panel, NR), jp * NR, (n - jp * NR).min(NR));
    }
    scratch::give(pb_buf);
}

/// Blocked GEMM over a row range of one batch item, on the calling thread.
///
/// Same `NC → KC` block walk (and therefore the same per-element `k`
/// association) as [`gemm`]; only the row partitioning differs, which never
/// affects results.
#[allow(clippy::too_many_arguments)]
fn blocked_rows(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    shared_pb: Option<&[f32]>,
    ukr: MicroKernelFn,
) {
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let mut pb_buf = Vec::new();
            let pb: &[f32] = match shared_pb {
                // The pre-packed shared panel covers the whole (k, n) extent.
                Some(panel) => panel,
                None => {
                    pb_buf = scratch::take_raw(nc.div_ceil(NR) * NR * kc);
                    pack_b(b, pc, jc, kc, nc, &mut pb_buf);
                    &pb_buf
                }
            };
            let mut pa = scratch::take_raw(m.min(MC).div_ceil(MR) * MR * kc);
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                pack_a(a, ic, pc, mc, kc, &mut pa);
                macro_kernel(&pa, pb, mc, nc, kc, &mut c[ic * n + jc..], n, ukr);
            }
            scratch::give(pa);
            scratch::give(pb_buf);
        }
    }
}

/// The no-pack route over `m` rows of one product, on the calling thread:
/// [`SKINNY_MR`] rows of C at a time against B's rows as they lie. The
/// [`KC`] blocks keep the packed walk's association; the [`NC`] blocks keep
/// the part of B that every row group re-reads within L2. Nothing is
/// copied, so there is no scratch to take either.
fn skinny_rows(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    kernel: SkinnyKernelFn,
) {
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            for i0 in (0..m).step_by(SKINNY_MR) {
                let rows = (m - i0).min(SKINNY_MR);
                let (av, bv) = (a.sub(i0, pc), b.sub(pc, jc));
                kernel(rows, nc, kc, av, bv, &mut c[i0 * n + jc..], n);
            }
        }
    }
}

/// Sweeps the packed panels over one `mc × nc` block of C.
///
/// `c` starts at the block's top-left element; rows are `ldc` elements
/// apart (the full C row stride), so the block occupies
/// `c[i*ldc .. i*ldc + nc]` for `i < mc`.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    pa: &[f32],
    pb: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    c: &mut [f32],
    ldc: usize,
    ukr: MicroKernelFn,
) {
    let a_panels = mc.div_ceil(MR);
    let b_panels = nc.div_ceil(NR);
    let mut acc = [0.0f32; MR * NR];
    for jp in 0..b_panels {
        let j_base = jp * NR;
        let ncols = (nc - j_base).min(NR);
        let bpanel = &pb[jp * kc * NR..(jp + 1) * kc * NR];
        for ip in 0..a_panels {
            let i_base = ip * MR;
            let nrows = (mc - i_base).min(MR);
            let apanel = &pa[ip * kc * MR..(ip + 1) * kc * MR];
            ukr(kc, apanel, bpanel, &mut acc);
            for i in 0..nrows {
                let row0 = (i_base + i) * ldc + j_base;
                let crow = &mut c[row0..row0 + ncols];
                let arow = &acc[i * NR..i * NR + ncols];
                for (cv, &av) in crow.iter_mut().zip(arow) {
                    *cv += av;
                }
            }
        }
    }
}

/// Direct loops for shapes too small to amortize packing or pool handoff.
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

/// The packed walk as it ran before the no-pack route and the block packs:
/// every shape blocked and packed, every panel slot filled by the
/// element-wise packers, on the calling thread. Kept as the oracle the
/// routes are tested against and the baseline `kernels-quick` times them
/// against.
pub mod reference {
    use super::{macro_kernel, KC, MC, MR, NC, NR};
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
        let ukr = simd::microkernel();
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
                    macro_kernel(&pa, &pb, mc, nc, kc, &mut c[ic * n + jc..], n, ukr);
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
    fn work_gate_keeps_small_regions_inline_and_splits_large_ones() {
        // `parallel_rows_mut` uses `rows / task_rows` tasks at most.
        // LeNet conv2 as an im2col product: 16 rows per (NC, k) block.
        assert_eq!(16 / min_task_rows(2 * NC * 150, ROWS_MIN_CHUNK), 0);
        // Attention scores of a small LM: 16 items of 24 rows.
        assert_eq!(16 * 24 / min_task_rows(2 * 24 * 16, ROWS_MIN_CHUNK), 0);
        // 256³ still feeds four threads.
        assert!(256 / min_task_rows(2 * 256 * 256, ROWS_MIN_CHUNK) >= 4);
        // Degenerate rows never divide by zero or go below one tile.
        assert_eq!(min_task_rows(0, 8), MIN_TASK_FLOPS);
        assert_eq!(min_task_rows(usize::MAX, 8), 8);
    }

    #[test]
    fn route_is_a_function_of_shape_and_b_stride() {
        // LeNet's 6-filter entry convolution and its weight gradient.
        assert_eq!(route(6, 6400, 25, 1), Route::Skinny);
        assert_eq!(route(6, 25, 6400, 6400), Route::Packed);
        assert_eq!(route(SKINNY_MAX_M, 1600, 150, 1), Route::Skinny);
        assert_eq!(route(SKINNY_MAX_M + 1, 1600, 150, 1), Route::Packed);
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
        assert_eq!(route(64, 64, 64, 1), Route::Packed);
    }

    #[test]
    fn every_route_gives_the_reference_bits() {
        // m straddles SKINNY_MR groups, n the 16-wide and masked column tiles, k
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
