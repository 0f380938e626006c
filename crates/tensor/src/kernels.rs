//! Compute kernels: blocked matrix products and the im2col/col2im
//! transforms used by convolution layers.
//!
//! All three matmul variants lower onto the packed, register-tiled GEMM in
//! [`crate::gemm`]; transposition is expressed as a stride choice on the
//! [`MatRef`] views, so `A`, `Aᵀ` and `Bᵀ` share one kernel and one packing
//! code path. The `*_into` variants write into caller-provided tensors so
//! hot loops can recycle buffers through [`crate::scratch`].
//!
//! The `matmul_batch_*` family runs N independent same-shape products (a
//! `[N, ·, ·]` rank-3 tensor per operand, or a rank-2 B shared by every
//! item) as one call of [`gemm::gemm_batch`] — the shape attention's
//! per-(batch, head) products lower to.
//!
//! A stride-1 convolution does not need its im2col matrix to exist: row
//! `(ci, ky, kx)` of that matrix is the zero-padded input plane read from
//! offset `ci·Hp·Wp + ky·Wp + kx` on, one output row at a time.
//! [`padded_planes`] builds the planes, [`ConvWindow::forward`] and
//! [`ConvWindow::dw`] run the no-pack kernels over those windows through
//! offset tables ([`simd::KOffsets`], [`simd::LaneTile`]) that the layer
//! builds once per geometry — the same products as im2col + GEMM, element
//! for element and bit for bit, with 1/k² of the bytes written.

use crate::gemm::{self, BatchMat, Route, KC};
use crate::pack::MatRef;
use crate::scratch;
use crate::simd::{self, KOffsets, LaneSegment, LaneTile, SKINNY_MR};
use crate::tensor::Tensor;

/// `C = A @ B` for `A: [M,K]`, `B: [K,N]`.
///
/// # Panics
///
/// Panics if either operand is not 2-D or if `A.cols != B.rows`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = matmul_dims(a, b);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_unchecked(a, b, &mut out);
    out
}

/// [`matmul`] writing into `out` (shape-checked, previous contents ignored).
///
/// # Panics
///
/// Panics on operand rank/shape mismatch or if `out` is not `[M, N]`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, n) = matmul_dims(a, b);
    assert_eq!(out.dims(), &[m, n], "matmul_into output shape mismatch");
    out.data_mut().fill(0.0);
    matmul_unchecked(a, b, out);
}

fn matmul_dims(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be 2-D");
    let (k, k2) = (a.dims()[1], b.dims()[0]);
    assert_eq!(k, k2, "matmul inner dims disagree: {k} vs {k2}");
    (a.dims()[0], b.dims()[1])
}

fn matmul_unchecked(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    gemm::gemm(
        m,
        n,
        k,
        MatRef::row_major(a.data(), k),
        MatRef::row_major(b.data(), n),
        out.data_mut(),
    );
}

/// `C = A^T @ B` for `A: [K,M]`, `B: [K,N]` without materializing `A^T`.
///
/// # Panics
///
/// Panics if either operand is not 2-D or if row counts disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = matmul_tn_dims(a, b);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_tn_unchecked(a, b, &mut out);
    out
}

/// [`matmul_tn`] writing into `out` (shape-checked, contents ignored).
///
/// # Panics
///
/// Panics on operand rank/shape mismatch or if `out` is not `[M, N]`.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, n) = matmul_tn_dims(a, b);
    assert_eq!(out.dims(), &[m, n], "matmul_tn_into output shape mismatch");
    out.data_mut().fill(0.0);
    matmul_tn_unchecked(a, b, out);
}

fn matmul_tn_dims(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert_eq!(a.shape().rank(), 2, "matmul_tn lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_tn rhs must be 2-D");
    let (k, k2) = (a.dims()[0], b.dims()[0]);
    assert_eq!(k, k2, "matmul_tn outer dims disagree: {k} vs {k2}");
    (a.dims()[1], b.dims()[1])
}

fn matmul_tn_unchecked(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    gemm::gemm(
        m,
        n,
        k,
        MatRef::transposed(a.data(), m),
        MatRef::row_major(b.data(), n),
        out.data_mut(),
    );
}

/// `C = A @ B^T` for `A: [M,K]`, `B: [N,K]` without materializing `B^T`.
///
/// # Panics
///
/// Panics if either operand is not 2-D or if column counts disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = matmul_nt_dims(a, b);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_nt_unchecked(a, b, &mut out);
    out
}

/// [`matmul_nt`] writing into `out` (shape-checked, contents ignored).
///
/// # Panics
///
/// Panics on operand rank/shape mismatch or if `out` is not `[M, N]`.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, n) = matmul_nt_dims(a, b);
    assert_eq!(out.dims(), &[m, n], "matmul_nt_into output shape mismatch");
    out.data_mut().fill(0.0);
    matmul_nt_unchecked(a, b, out);
}

fn matmul_nt_dims(a: &Tensor, b: &Tensor) -> (usize, usize) {
    assert_eq!(a.shape().rank(), 2, "matmul_nt lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_nt rhs must be 2-D");
    let (k, k2) = (a.dims()[1], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims disagree: {k} vs {k2}");
    (a.dims()[0], b.dims()[0])
}

fn matmul_nt_unchecked(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    gemm::gemm(
        m,
        n,
        k,
        MatRef::row_major(a.data(), k),
        MatRef::transposed(b.data(), k),
        out.data_mut(),
    );
}

/// Validates a rank-3 batched operand `[N, rows, cols]` and returns
/// `(n, rows, cols)`.
fn batch_dims(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.shape().rank(), 3, "{what} must be [N, rows, cols]");
    (t.dims()[0], t.dims()[1], t.dims()[2])
}

/// Resolves B as either a per-item rank-3 `[N, rows, cols]` batch or a
/// shared rank-2 `[rows, cols]` matrix, checking the batch count.
fn batch_b<'a>(b: &'a Tensor, batch: usize, what: &str) -> (BatchMat<'a>, usize, usize) {
    match b.shape().rank() {
        2 => {
            let (rows, cols) = (b.dims()[0], b.dims()[1]);
            (
                BatchMat::shared(MatRef::row_major(b.data(), cols)),
                rows,
                cols,
            )
        }
        3 => {
            let (nb, rows, cols) = batch_dims(b, what);
            assert_eq!(nb, batch, "{what} batch count mismatch: {nb} vs {batch}");
            (BatchMat::row_major(b.data(), rows, cols), rows, cols)
        }
        r => panic!("{what} must be rank 2 (shared) or 3 (batched), got rank {r}"),
    }
}

/// Batched `C_i = A_i @ B_i` for `A: [N,M,K]`, `B: [N,K,P]` (or a shared
/// `[K,P]`), writing `out: [N,M,P]` in one [`gemm::gemm_batch`] call.
///
/// # Panics
///
/// Panics on rank/shape mismatch between the operands and `out`.
pub fn matmul_batch_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (batch, m, k) = batch_dims(a, "matmul_batch lhs");
    let (bmat, kb, p) = batch_b(b, batch, "matmul_batch rhs");
    assert_eq!(k, kb, "matmul_batch inner dims disagree: {k} vs {kb}");
    assert_eq!(
        out.dims(),
        &[batch, m, p],
        "matmul_batch output shape mismatch"
    );
    gemm::gemm_batch(
        batch,
        m,
        p,
        k,
        BatchMat::row_major(a.data(), m, k),
        bmat,
        1.0,
        out.data_mut(),
    );
}

/// Batched `C_i = A_iᵀ @ B_i` for `A: [N,K,M]`, `B: [N,K,P]` (or a shared
/// `[K,P]`), writing `out: [N,M,P]` without materializing any transpose.
///
/// # Panics
///
/// Panics on rank/shape mismatch between the operands and `out`.
pub fn matmul_batch_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (batch, k, m) = batch_dims(a, "matmul_batch_tn lhs");
    let (bmat, kb, p) = batch_b(b, batch, "matmul_batch_tn rhs");
    assert_eq!(k, kb, "matmul_batch_tn outer dims disagree: {k} vs {kb}");
    assert_eq!(
        out.dims(),
        &[batch, m, p],
        "matmul_batch_tn output shape mismatch"
    );
    gemm::gemm_batch(
        batch,
        m,
        p,
        k,
        BatchMat::transposed(a.data(), k, m),
        bmat,
        1.0,
        out.data_mut(),
    );
}

/// Batched `C_i = A_i @ B_iᵀ` — see [`matmul_batch_nt_scaled_into`] with
/// `alpha = 1`.
///
/// # Panics
///
/// Panics on rank/shape mismatch between the operands and `out`.
pub fn matmul_batch_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    matmul_batch_nt_scaled_into(a, b, 1.0, out);
}

/// Batched `C_i = alpha · (A_i @ B_iᵀ)` for `A: [N,M,K]`, `B: [N,P,K]` (or a
/// shared `[P,K]`), writing `out: [N,M,P]`.
///
/// The scale is applied once per output element after the full `k`
/// accumulation — bitwise identical to a plain product followed by
/// `scale_in_place(alpha)`, which is how attention folds its `1/√dh` into
/// the batched Q·Kᵀ.
///
/// # Panics
///
/// Panics on rank/shape mismatch between the operands and `out`.
pub fn matmul_batch_nt_scaled_into(a: &Tensor, b: &Tensor, alpha: f32, out: &mut Tensor) {
    let (batch, m, k) = batch_dims(a, "matmul_batch_nt lhs");
    let (bmat, p, kb) = batch_b(b, batch, "matmul_batch_nt rhs");
    assert_eq!(k, kb, "matmul_batch_nt inner dims disagree: {k} vs {kb}");
    assert_eq!(
        out.dims(),
        &[batch, m, p],
        "matmul_batch_nt output shape mismatch"
    );
    // Each B item is stored [P, K] and used as its transpose [K, P].
    let bmat = BatchMat {
        data: bmat.data,
        stride: bmat.stride,
        rs: 1,
        cs: k,
    };
    gemm::gemm_batch(
        batch,
        m,
        p,
        k,
        BatchMat::row_major(a.data(), m, k),
        bmat,
        alpha,
        out.data_mut(),
    );
}

/// Geometry of one 2-D convolution: input `[C, H, W]`, square kernel,
/// symmetric stride/padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeom {
    /// Output height for this geometry.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width for this geometry.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the im2col matrix (`C * k * k`).
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// The output positions `o` in `0..out` whose tap `o * stride + offset - pad`
/// lands inside `0..len`, as a half-open span. Computed once per kernel
/// offset, it replaces a bounds test per element: inside the span every tap
/// is valid, outside it none is.
fn valid_span(out: usize, len: usize, offset: usize, stride: usize, pad: usize) -> (usize, usize) {
    // o * stride + offset >= pad
    let lo = pad.saturating_sub(offset).div_ceil(stride);
    // o * stride + offset - pad <= len - 1
    let hi = (len + pad)
        .checked_sub(offset + 1)
        .map_or(0, |last| last / stride + 1)
        .min(out);
    (lo.min(hi), hi)
}

/// Unfolds a batch input `[N, C, H, W]` into an im2col matrix
/// `[C*k*k, N*out_h*out_w]`, so convolution becomes one matmul.
///
/// # Panics
///
/// Panics if `input` does not match the geometry.
pub fn im2col(input: &Tensor, g: &Conv2dGeom) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col input must be [N,C,H,W]");
    let n = dims[0];
    let mut out = Tensor::zeros(&[g.col_rows(), n * g.out_h() * g.out_w()]);
    im2col_into(input, g, &mut out);
    out
}

/// [`im2col`] writing into `out` (shape-checked, previous contents ignored),
/// so the conv layers can reuse one column buffer across training steps.
///
/// Span once, move slices: a matrix row is one kernel offset `(ci, ky, kx)`,
/// whose valid output rows and columns are two spans fixed for the whole
/// row. Inside them each output row is one contiguous run of an input row
/// (a strided run when `stride > 1`), copied as a slice; outside them it is
/// padding, filled as a slice.
///
/// # Panics
///
/// Panics if `input` or `out` does not match the geometry.
pub fn im2col_into(input: &Tensor, g: &Conv2dGeom, out: &mut Tensor) {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "im2col input must be [N,C,H,W]");
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, g.in_channels, "im2col channel mismatch");
    assert_eq!(h, g.in_h, "im2col height mismatch");
    assert_eq!(w, g.in_w, "im2col width mismatch");

    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = n * oh * ow;
    let rows = g.col_rows();
    assert_eq!(out.dims(), &[rows, cols], "im2col output shape mismatch");
    let src = input.data();
    let k = g.kernel;
    let (stride, pad) = (g.stride, g.padding);

    let out = out.data_mut();
    for r in 0..rows {
        let (ci, ky, kx) = (r / (k * k), (r / k) % k, r % k);
        let (oy0, oy1) = valid_span(oh, h, ky, stride, pad);
        let (ox0, ox1) = valid_span(ow, w, kx, stride, pad);
        let dst = &mut out[r * cols..(r + 1) * cols];
        if oy0 == oy1 || ox0 == ox1 {
            dst.fill(0.0);
            continue;
        }
        let ix0 = ox0 * stride + kx - pad;
        let iy0 = oy0 * stride + ky - pad;
        for (ni, dst_img) in dst.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &src[(ni * c + ci) * h * w..][..h * w];
            dst_img[..oy0 * ow].fill(0.0);
            dst_img[oy1 * ow..].fill(0.0);
            let valid = &mut dst_img[oy0 * ow..oy1 * ow];
            if stride == 1 && ow == w {
                // Rows of equal width at unit stride: the whole valid
                // block is one run of the plane, shifted by the kernel
                // offset. What wrapped around a row end is padding and is
                // overwritten just below.
                let end = valid.len() - (ow - ox1);
                let block = &mut valid[ox0..end];
                block.copy_from_slice(&plane[iy0 * w + ix0..][..block.len()]);
            } else {
                for (row, dst_row) in valid.chunks_exact_mut(ow).enumerate() {
                    let taps = plane[(iy0 + row * stride) * w + ix0..].iter();
                    for (d, &v) in dst_row[ox0..ox1].iter_mut().zip(taps.step_by(stride)) {
                        *d = v;
                    }
                }
            }
            if ox0 > 0 || ox1 < ow {
                for dst_row in valid.chunks_exact_mut(ow) {
                    dst_row[..ox0].fill(0.0);
                    dst_row[ox1..].fill(0.0);
                }
            }
        }
    }
}

/// Folds an im2col-shaped gradient `[C*k*k, N*out_h*out_w]` back into the
/// input gradient `[N, C, H, W]` (the adjoint of [`im2col`]).
///
/// The same spans as [`im2col_into`], run backwards: each valid output row
/// of a matrix row is added onto one run of an input-gradient row as a
/// slice. Matrix rows are visited in ascending order and a row touches an
/// input cell at most once, so every cell sums its contributions in
/// ascending row order whatever the geometry.
///
/// # Panics
///
/// Panics if `cols` does not match the geometry for batch size `n`.
pub fn col2im(cols_mat: &Tensor, g: &Conv2dGeom, n: usize) -> Tensor {
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(
        cols_mat.dims(),
        &[g.col_rows(), n * oh * ow],
        "col2im shape mismatch"
    );
    let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = cols_mat.data();
    let k = g.kernel;
    let (stride, pad) = (g.stride, g.padding);
    let ncols = n * oh * ow;
    let chw = c * h * w;

    let dst = out.data_mut();
    for r in 0..g.col_rows() {
        let (ci, ky, kx) = (r / (k * k), (r / k) % k, r % k);
        let (oy0, oy1) = valid_span(oh, h, ky, stride, pad);
        let (ox0, ox1) = valid_span(ow, w, kx, stride, pad);
        if oy0 == oy1 || ox0 == ox1 {
            continue;
        }
        let ix0 = ox0 * stride + kx - pad;
        let row = &src[r * ncols..(r + 1) * ncols];
        for ni in 0..n {
            let plane = &mut dst[ni * chw + ci * h * w..][..h * w];
            for oy in oy0..oy1 {
                let run = &row[(ni * oh + oy) * ow..][ox0..ox1];
                let dst_row = &mut plane[(oy * stride + ky - pad) * w..][..w];
                if stride == 1 {
                    for (d, &v) in dst_row[ix0..ix0 + run.len()].iter_mut().zip(run) {
                        *d += v;
                    }
                } else {
                    let cells = dst_row[ix0..].iter_mut().step_by(stride);
                    for (d, &v) in cells.zip(run) {
                        *d += v;
                    }
                }
            }
        }
    }
    out
}

impl Conv2dGeom {
    /// Height and width of one zero-padded input plane.
    pub fn padded_hw(&self) -> (usize, usize) {
        (self.in_h + 2 * self.padding, self.in_w + 2 * self.padding)
    }
}

/// The input of a convolution as zero-padded planes `[N, C, Hp, Wp]`, taken
/// from the scratch arena. Pixel `(y, x)` of a `g.in_h × g.in_w` plane is
/// element `keep[y·in_w + x]` of the corresponding plane of `input` when a
/// `keep` list is given (the gather of a masked entry layer, written straight
/// into place) and element `y·in_w + x` otherwise.
///
/// # Panics
///
/// Panics if `input` is not `[N, C, ·, ·]` with `C == g.in_channels`, or if
/// its planes do not hold what the geometry (or `keep`) reads.
pub fn padded_planes(input: &Tensor, g: &Conv2dGeom, keep: Option<&[usize]>) -> Tensor {
    let dims = input.dims();
    assert_eq!(dims.len(), 4, "padded_planes input must be [N,C,H,W]");
    let (n, c, src_plane) = (dims[0], dims[1], dims[2] * dims[3]);
    assert_eq!(c, g.in_channels, "padded_planes channel mismatch");
    let (h, w, pad) = (g.in_h, g.in_w, g.padding);
    match keep {
        Some(keep) => {
            assert_eq!(keep.len(), h * w, "keep must list every pixel");
            assert!(
                keep.iter().all(|&pos| pos < src_plane),
                "keep index out of bounds for the input plane"
            );
        }
        None => assert_eq!((dims[2], dims[3]), (h, w), "padded_planes size mismatch"),
    }
    let (hp, wp) = g.padded_hw();
    let mut planes = scratch::take_tensor(&[n, c, hp, wp]);
    let targets = planes.data_mut().chunks_exact_mut((hp * wp).max(1));
    for (src, dst) in input.data().chunks_exact(src_plane.max(1)).zip(targets) {
        for y in 0..h {
            let row = &mut dst[(y + pad) * wp + pad..][..w];
            match keep {
                Some(keep) => {
                    for (d, &pos) in row.iter_mut().zip(&keep[y * w..(y + 1) * w]) {
                        *d = src[pos];
                    }
                }
                None => row.copy_from_slice(&src[y * w..(y + 1) * w]),
            }
        }
    }
    planes
}

fn assert_window_geometry(planes: &Tensor, g: &Conv2dGeom) -> usize {
    let (hp, wp) = g.padded_hw();
    let d = planes.dims();
    assert!(
        d.len() == 4 && d[1..] == [g.in_channels, hp, wp],
        "planes do not match the geometry"
    );
    d[0]
}

/// What the windowed convolution of one stride-1 geometry reads through:
/// tables that depend on the geometry alone (and, for the weight gradient,
/// on the batch it last saw), built once and kept by the layer that runs it.
#[derive(Debug, Clone)]
pub struct ConvWindow {
    geom: Conv2dGeom,
    /// Offset of every im2col row `(ci, ky, kx)` in one image's padded planes.
    tap_offsets: Vec<usize>,
    /// `0..taps`: where each K step of the forward product sits in a weight
    /// row.
    weight_steps: Vec<usize>,
    /// The forward product's lanes when output rows do not abut in the
    /// planes (`k > 1`): sixteen consecutive output positions of an image at
    /// a time, whatever rows they lie in, as (first position, their windows).
    position_tiles: Vec<(usize, LaneTile)>,
    /// The weight gradient's lanes: as many whole kernel rows as fit 16
    /// lanes at a time, as (first tap, their windows).
    tap_tiles: Vec<(usize, LaneTile)>,
    /// The weight gradient's K steps for the batch last seen.
    positions: Option<Positions>,
}

/// The output positions of a batch as the weight gradient's K steps: where
/// position `p` lies in the output gradient (of `filters` filters) and where
/// its window starts in the planes.
#[derive(Debug, Clone)]
struct Positions {
    batch: usize,
    filters: usize,
    grad_steps: Vec<usize>,
    plane_steps: Vec<usize>,
}

impl ConvWindow {
    /// The tables of `g`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is strided or has no taps.
    pub fn new(g: &Conv2dGeom) -> Self {
        assert_eq!(g.stride, 1, "the windowed convolution is stride-1 only");
        let (k, taps) = (g.kernel, g.col_rows());
        assert!(taps > 0, "a convolution has taps");
        let (hp, wp) = g.padded_hw();
        let row_offset = |row: usize| (row / k) * hp * wp + (row % k) * wp;
        let tap_offsets = (0..taps).map(|t| row_offset(t / k) + t % k).collect();
        // Kernel row `row` owns taps `row·k..row·k + k`, adjacent in the
        // planes from `row_offset(row)`. A tile takes whole rows — two
        // windows per 8-lane vector under a 5×5 kernel — or, of a row wider
        // than the tile, 16 taps at a time.
        let (kernel_rows, per_tile) = (g.in_channels * k, (16 / k).max(1));
        let mut tap_tiles = Vec::new();
        for first_row in (0..kernel_rows).step_by(per_tile) {
            let rows = first_row..kernel_rows.min(first_row + per_tile);
            for first in (rows.start * k..rows.end * k).step_by(16) {
                let segments = rows.clone().filter_map(|row| {
                    let taps = (row * k).max(first)..(row * k + k).min(first + 16);
                    (taps.start < taps.end).then(|| LaneSegment {
                        shift: row_offset(row) + first - row * k,
                        lanes: taps.start - first..taps.end - first,
                    })
                });
                tap_tiles.push((first, LaneTile::new(segments.collect())));
            }
        }
        // Output position `y·ow + x` reads its windows from `y·wp + x`: a
        // tile's lanes are stretches of the output rows it meets.
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut position_tiles = Vec::new();
        if k > 1 {
            for first in (0..oh * ow).step_by(16) {
                let end = (first + 16).min(oh * ow);
                let segments = (first / ow..end.div_ceil(ow)).map(|y| LaneSegment {
                    shift: first + y * (wp - ow),
                    lanes: (y * ow).max(first) - first..((y + 1) * ow).min(end) - first,
                });
                position_tiles.push((first, LaneTile::new(segments.collect())));
            }
        }
        ConvWindow {
            geom: *g,
            tap_offsets,
            weight_steps: (0..taps).collect(),
            position_tiles,
            tap_tiles,
            positions: None,
        }
    }

    /// The geometry the tables are of.
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// `out = W ⋆ planes`: the forward convolution `[N, oc, oh, ow]` of the
    /// [`padded_planes`] of the geometry with `weight` (`[oc, C·k·k]`
    /// row-major), written in its final layout (previous contents ignored).
    ///
    /// Bit for bit the `[oc, C·k·k] · im2col` product permuted to
    /// `[N, oc, ·]`: every output element is the same chain over the taps in
    /// the same blocks. Under a 1×1 kernel consecutive output rows abut in
    /// the planes, and a whole image is one call of the no-pack kernel whose
    /// B "rows" are the `C·k·k` windows. Under a wider kernel they do not
    /// (a padded row is `k − 1` longer), so the lane-gathering kernel takes
    /// sixteen consecutive output positions at a time, each lane from the
    /// window of the row it lies in: no lane is left empty at a row end. An
    /// unpadded 1×1 convolution's planes are its input as it lies.
    ///
    /// # Panics
    ///
    /// Panics if a buffer does not match the geometry.
    pub fn forward(&self, planes: &Tensor, weight: &[f32], out: &mut [f32]) {
        let g = &self.geom;
        let n = assert_window_geometry(planes, g);
        let (taps, (oh, ow)) = (g.col_rows(), (g.out_h(), g.out_w()));
        assert!(weight.len().is_multiple_of(taps), "weight shape mismatch");
        let oc = weight.len() / taps;
        assert_eq!(out.len(), n * oc * oh * ow, "conv output buffer mismatch");
        if out.is_empty() {
            return;
        }
        let (hp, wp) = g.padded_hw();
        let image = g.in_channels * hp * wp;
        // The K blocks of the product this replaces (the direct loop has one).
        let block = match gemm::route(oc, n * oh * ow, taps, 1) {
            Route::Small => taps,
            _ => KC,
        };
        let ohw = oh * ow;
        let (window, lanes) = (simd::window_kernel(), simd::lane_kernel());
        let planes = planes.data();
        for (ni, out_image) in out.chunks_exact_mut(oc * ohw).enumerate() {
            let plane = &planes[ni * image..(ni + 1) * image];
            out_image.fill(0.0);
            for pc in (0..taps).step_by(block) {
                let kc = (taps - pc).min(block);
                let a_k = KOffsets::new(&self.weight_steps[..kc]);
                let b_k = KOffsets::new(&self.tap_offsets[pc..pc + kc]);
                for i0 in (0..oc).step_by(SKINNY_MR) {
                    let rows = (oc - i0).min(SKINNY_MR);
                    let a = &weight[i0 * taps + pc..];
                    let c = &mut out_image[i0 * ohw..];
                    if self.position_tiles.is_empty() {
                        // 1×1: consecutive output rows abut in the planes.
                        window(rows, ohw, a, taps, a_k, plane, b_k, c, ohw);
                    } else {
                        lanes(rows, a, taps, a_k, plane, b_k, &self.position_tiles, c, ohw);
                    }
                }
            }
        }
    }

    /// `dw = g · im2colᵀ` without the im2col matrix: the weight gradient
    /// `[oc, C·k·k]` (previous contents ignored) from the output gradient
    /// `grad_out` (`[N, oc, oh, ow]`, read where it lies) and the
    /// [`padded_planes`] the forward pass read.
    ///
    /// The sum over output positions runs in the order and the [`KC`] blocks
    /// of the `[oc, N·oh·ow] · [C·k·k, N·oh·ow]ᵀ` product it replaces, so the
    /// bits are that product's. The taps are the lanes — sixteen at a time,
    /// whatever kernel rows they are stretches of ([`simd::LaneTile`]: a
    /// 5-tap row fills 5 lanes and the next row the rest) — and an output
    /// position is a K step, located in both operands by a table kept for
    /// the batch size and filter count last seen.
    ///
    /// # Panics
    ///
    /// Panics if a buffer does not match the geometry.
    pub fn dw(&mut self, planes: &Tensor, grad_out: &[f32], dw: &mut [f32]) {
        let g = self.geom;
        let n = assert_window_geometry(planes, &g);
        let (taps, (oh, ow)) = (g.col_rows(), (g.out_h(), g.out_w()));
        assert!(dw.len().is_multiple_of(taps), "dw shape mismatch");
        let oc = dw.len() / taps;
        let ohw = oh * ow;
        assert_eq!(
            grad_out.len(),
            n * oc * ohw,
            "conv gradient buffer mismatch"
        );
        dw.fill(0.0);
        let positions = n * ohw;
        if positions == 0 || oc == 0 {
            return;
        }
        let block = match gemm::route(oc, taps, positions, positions) {
            Route::Small => positions,
            _ => KC,
        };
        self.update_positions(n, oc);
        let steps = self.positions.as_ref().expect("just updated");
        let kernel = simd::lane_kernel();
        let planes = planes.data();
        for pc in (0..positions).step_by(block) {
            let span = pc..positions.min(pc + block);
            let a_k = KOffsets::new(&steps.grad_steps[span.clone()]);
            let b_k = KOffsets::new(&steps.plane_steps[span]);
            for i0 in (0..oc).step_by(SKINNY_MR) {
                let rows = (oc - i0).min(SKINNY_MR);
                let (a, c) = (&grad_out[i0 * ohw..], &mut dw[i0 * taps..]);
                kernel(rows, a, ohw, a_k, planes, b_k, &self.tap_tiles, c, taps);
            }
        }
    }

    /// Makes `positions` the K steps of `batch` images under `filters` filters.
    fn update_positions(&mut self, batch: usize, filters: usize) {
        let current = |p: &Positions| p.batch == batch && p.filters == filters;
        if !self.positions.as_ref().is_some_and(current) {
            let g = &self.geom;
            let (hp, wp) = g.padded_hw();
            let (image, (oh, ow)) = (g.in_channels * hp * wp, (g.out_h(), g.out_w()));
            let mut grad_steps = Vec::with_capacity(batch * oh * ow);
            let mut plane_steps = Vec::with_capacity(batch * oh * ow);
            // A stretch of an output row at a time: consecutive positions are
            // consecutive elements of both operands.
            for ni in 0..batch {
                for oy in 0..oh {
                    let (at, window) = (ni * filters * oh * ow + oy * ow, ni * image + oy * wp);
                    grad_steps.extend(at..at + ow);
                    plane_steps.extend(window..window + ow);
                }
            }
            self.positions = Some(Positions {
                batch,
                filters,
                grad_steps,
                plane_steps,
            });
        }
    }
}

/// The naive definitions of the glue kernels: one bounds test per element,
/// nothing hoisted. They are what [`im2col_into`] and [`col2im`] were before
/// the slice kernels and remain the reference those are held to, bit for bit
/// — by the property tests and by the `kernels-quick` gate, which also
/// times them. Not for use on a hot path.
pub mod reference {
    use super::Conv2dGeom;
    use crate::tensor::Tensor;

    /// [`im2col`](super::im2col), element by element.
    pub fn im2col(input: &Tensor, g: &Conv2dGeom) -> Tensor {
        let n = input.dims()[0];
        let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let (k, stride, pad) = (g.kernel, g.stride, g.padding);
        let cols = n * oh * ow;
        let mut out = Tensor::zeros(&[g.col_rows(), cols]);
        let (src, dst) = (input.data(), out.data_mut());
        for r in 0..g.col_rows() {
            let (ci, ky, kx) = (r / (k * k), (r / k) % k, r % k);
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[r * cols + (ni * oh + oy) * ow + ox] =
                            src[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
        out
    }

    /// [`col2im`](super::col2im), element by element, matrix rows ascending.
    pub fn col2im(cols_mat: &Tensor, g: &Conv2dGeom, n: usize) -> Tensor {
        let (c, h, w) = (g.in_channels, g.in_h, g.in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let (k, stride, pad) = (g.kernel, g.stride, g.padding);
        let cols = n * oh * ow;
        let mut out = Tensor::zeros(&[n, c, h, w]);
        let (src, dst) = (cols_mat.data(), out.data_mut());
        for r in 0..g.col_rows() {
            let (ci, ky, kx) = (r / (k * k), (r / k) % k, r % k);
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[((ni * c + ci) * h + iy as usize) * w + ix as usize] +=
                            src[r * cols + (ni * oh + oy) * ow + ox];
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(&[17, 9], &mut rng);
        let b = Tensor::randn(&[9, 23], &mut rng);
        assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_matches_naive_above_small_threshold() {
        // Large enough to take the packed, blocked path.
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[65, 33], &mut rng);
        let b = Tensor::randn(&[33, 70], &mut rng);
        assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[11, 6], &mut rng);
        let b = Tensor::randn(&[11, 8], &mut rng);
        assert!(matmul_tn(&a, &b).approx_eq(&matmul(&a.transpose2d(), &b), 1e-4));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(&[7, 13], &mut rng);
        let b = Tensor::randn(&[10, 13], &mut rng);
        assert!(matmul_nt(&a, &b).approx_eq(&matmul(&a, &b.transpose2d()), 1e-4));
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let mut rng = Rng::seed_from(11);
        let a = Tensor::randn(&[6, 5], &mut rng);
        let b = Tensor::randn(&[5, 4], &mut rng);
        let mut out = Tensor::full(&[6, 4], 99.0);
        matmul_into(&a, &b, &mut out);
        assert!(out.approx_eq(&matmul(&a, &b), 0.0));

        let bt = Tensor::randn(&[4, 5], &mut rng);
        let mut out = Tensor::full(&[6, 4], 99.0);
        matmul_nt_into(&a, &bt, &mut out);
        assert!(out.approx_eq(&matmul_nt(&a, &bt), 0.0));

        let at = Tensor::randn(&[5, 6], &mut rng);
        let mut out = Tensor::full(&[6, 4], 99.0);
        matmul_tn_into(&at, &b, &mut out);
        assert!(out.approx_eq(&matmul_tn(&at, &b), 0.0));
    }

    #[test]
    fn batched_wrappers_match_looped_variants_bitwise() {
        let mut rng = Rng::seed_from(21);
        let (batch, m, k, p) = (5usize, 13usize, 9usize, 11usize);
        let a = Tensor::randn(&[batch, m, k], &mut rng);
        let b = Tensor::randn(&[batch, k, p], &mut rng);
        let mut out = Tensor::full(&[batch, m, p], f32::NAN);
        matmul_batch_into(&a, &b, &mut out);
        for bi in 0..batch {
            let ai = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let bim = Tensor::from_vec(b.data()[bi * k * p..(bi + 1) * k * p].to_vec(), &[k, p]);
            let want = matmul(&ai, &bim);
            assert_eq!(
                &out.data()[bi * m * p..(bi + 1) * m * p],
                want.data(),
                "nn item {bi}"
            );
        }

        let at = Tensor::randn(&[batch, k, m], &mut rng);
        let mut out_tn = Tensor::full(&[batch, m, p], f32::NAN);
        matmul_batch_tn_into(&at, &b, &mut out_tn);
        for bi in 0..batch {
            let ai = Tensor::from_vec(at.data()[bi * k * m..(bi + 1) * k * m].to_vec(), &[k, m]);
            let bim = Tensor::from_vec(b.data()[bi * k * p..(bi + 1) * k * p].to_vec(), &[k, p]);
            let want = matmul_tn(&ai, &bim);
            assert_eq!(
                &out_tn.data()[bi * m * p..(bi + 1) * m * p],
                want.data(),
                "tn item {bi}"
            );
        }

        let bt = Tensor::randn(&[batch, p, k], &mut rng);
        let alpha = 0.25f32;
        let mut out_nt = Tensor::full(&[batch, m, p], f32::NAN);
        matmul_batch_nt_scaled_into(&a, &bt, alpha, &mut out_nt);
        for bi in 0..batch {
            let ai = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let bim = Tensor::from_vec(bt.data()[bi * p * k..(bi + 1) * p * k].to_vec(), &[p, k]);
            let mut want = matmul_nt(&ai, &bim);
            want.scale_in_place(alpha);
            assert_eq!(
                &out_nt.data()[bi * m * p..(bi + 1) * m * p],
                want.data(),
                "nt item {bi}"
            );
        }
    }

    #[test]
    fn batched_shared_b_broadcasts_one_matrix() {
        let mut rng = Rng::seed_from(22);
        let (batch, m, k, p) = (3usize, 6usize, 5usize, 4usize);
        let a = Tensor::randn(&[batch, m, k], &mut rng);
        let b = Tensor::randn(&[k, p], &mut rng);
        let mut out = Tensor::full(&[batch, m, p], f32::NAN);
        matmul_batch_into(&a, &b, &mut out);
        for bi in 0..batch {
            let ai = Tensor::from_vec(a.data()[bi * m * k..(bi + 1) * m * k].to_vec(), &[m, k]);
            let want = matmul(&ai, &b);
            assert_eq!(&out.data()[bi * m * p..(bi + 1) * m * p], want.data());
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[5, 5], &mut rng);
        assert!(matmul(&a, &Tensor::eye(5)).approx_eq(&a, 1e-6));
    }

    #[test]
    fn conv_geom_output_dims() {
        let g = Conv2dGeom {
            in_channels: 3,
            in_h: 32,
            in_w: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g2 = Conv2dGeom {
            in_channels: 3,
            in_h: 32,
            in_w: 32,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!((g2.out_h(), g2.out_w()), (16, 16));
    }

    /// Direct (quadruple-loop) convolution used as the reference.
    fn naive_conv(input: &Tensor, weight: &Tensor, g: &Conv2dGeom) -> Tensor {
        let n = input.dims()[0];
        let oc = weight.dims()[0];
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ci in 0..g.in_channels {
                            for ky in 0..g.kernel {
                                for kx in 0..g.kernel {
                                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= g.in_h as isize
                                        || ix >= g.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[o, ci, ky, kx]);
                                }
                            }
                        }
                        out.set(&[ni, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn im2col_convolution_matches_naive() {
        let mut rng = Rng::seed_from(9);
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 7,
            in_w: 6,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let input = Tensor::randn(&[3, 2, 7, 6], &mut rng);
        let weight = Tensor::randn(&[4, 2, 3, 3], &mut rng);

        let cols = im2col(&input, &g);
        let wmat = weight.reshape(&[4, g.col_rows()]);
        let out = matmul(&wmat, &cols); // [oc, N*oh*ow]

        let reference = naive_conv(&input, &weight, &g);
        let (oh, ow) = (g.out_h(), g.out_w());
        // out is [oc, N*oh*ow]; reference is [N, oc, oh, ow].
        for ni in 0..3 {
            for o in 0..4 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let got = out.at(&[o, ni * oh * ow + oy * ow + ox]);
                        let want = reference.at(&[ni, o, oy, ox]);
                        assert!((got - want).abs() < 1e-4, "mismatch at {ni},{o},{oy},{ox}");
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = Rng::seed_from(10);
        let g = Conv2dGeom {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let y = Tensor::randn(&[g.col_rows(), 2 * g.out_h() * g.out_w()], &mut rng);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g, 2));
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }
}
