//! Panel packing for the blocked GEMM (BLIS layout).
//!
//! The micro-kernel in [`gemm`](crate::gemm) wants its operands as
//! contiguous *micro-panels*:
//!
//! * an A panel is `ceil(mc / MR)` micro-panels; micro-panel `ip` stores the
//!   `MR` rows `i0 + ip*MR ..` K-major — for each `p` in the K block, the
//!   `MR` values of column `p` are adjacent (`buf[p*MR + i]`);
//! * a B panel is `ceil(nc / NR)` micro-panels; micro-panel `jp` stores the
//!   `NR` columns `j0 + jp*NR ..` K-major (`buf[p*NR + j]`).
//!
//! Ragged edges (when `mc`/`nc` are not tile multiples) are padded with
//! zeros, so the micro-kernel is branch-free; the padded lanes contribute
//! `0.0` products and the write-back step simply skips them.
//!
//! Both packers read through [`MatRef`], a stride pair over the source
//! matrix — this is what collapses the three transpose variants into one
//! kernel: `A`, `Aᵀ`, `B` and `Bᵀ` differ only in `(rs, cs)`.

use crate::gemm::{MR, NR};
use crate::simd;

/// A borrowed matrix view: element `(i, j)` lives at `data[i*rs + j*cs]`.
///
/// `rs`/`cs` are the row/column strides in elements. A row-major `[R, C]`
/// matrix is `{rs: C, cs: 1}`; its transpose is the same data with
/// `{rs: 1, cs: C}` — no copy.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    /// Underlying storage (row-major for `rs > cs`, etc.).
    pub data: &'a [f32],
    /// Element stride between consecutive rows.
    pub rs: usize,
    /// Element stride between consecutive columns.
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// View of a row-major `[rows, cols]` matrix.
    pub fn row_major(data: &'a [f32], cols: usize) -> MatRef<'a> {
        MatRef {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// View of the transpose of a row-major `[rows, cols]` matrix.
    pub fn transposed(data: &'a [f32], cols: usize) -> MatRef<'a> {
        MatRef {
            data,
            rs: 1,
            cs: cols,
        }
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The same matrix from element `(i0, j0)` on: element `(i, j)` of the
    /// view is element `(i0 + i, j0 + j)` of `self`. How the GEMM hands row
    /// ranges of a batch item to different workers and K blocks to the
    /// no-pack kernel.
    #[inline(always)]
    pub fn sub(&self, i0: usize, j0: usize) -> MatRef<'a> {
        MatRef {
            data: &self.data[i0 * self.rs + j0 * self.cs..],
            rs: self.rs,
            cs: self.cs,
        }
    }
}

/// Packs the `mc × kc` block of `a` starting at `(i0, p0)` into MR-row
/// micro-panels in `buf` (see module docs for the layout).
///
/// `buf` must hold at least `ceil(mc / MR) * kc * MR` elements.
pub fn pack_a(a: MatRef, i0: usize, p0: usize, mc: usize, kc: usize, buf: &mut [f32]) {
    pack_lines(a.data, a.rs, a.cs, i0, p0, mc, kc, buf);
}

/// Packs the `kc × nc` block of `b` starting at `(p0, j0)` into NR-column
/// micro-panels in `buf` (see module docs for the layout).
///
/// `buf` must hold at least `kc * ceil(nc / NR) * NR` elements.
pub fn pack_b(b: MatRef, p0: usize, j0: usize, kc: usize, nc: usize, buf: &mut [f32]) {
    pack_lines(b.data, b.cs, b.rs, j0, p0, nc, kc, buf);
}

/// Both packers at once. A *line* is what a panel holds 8 of side by side —
/// a row of A, a column of B — and runs along K: element `q` of line `l` is
/// `data[l*ls + q*ks]`. Lines `l0..l0 + count` at depths `q0..q0 + kc` become
/// `ceil(count / 8)` K-major panels (`panel[q*8 + l]`), zero-padded past the
/// last line.
///
/// Which stride is 1 decides how a panel is filled, never what it holds:
///
/// * `ks == 1` (row-major A, column-major B — the `matmul`, `matmul_nt`
///   operands): lines are contiguous along K, so the panel is the transpose
///   of an `8 × kc` strip and moves as 8×8 blocks ([`simd::transpose_kernel`]);
///   one gather per element would walk down a stride-`ls` column instead.
/// * `ls == 1` (`Aᵀ` views, row-major B): the 8 values of one depth are
///   adjacent in the source — a bulk copy per panel row.
/// * anything else, and the ragged last panel of the copy case: the
///   element-wise definition.
#[allow(clippy::too_many_arguments)]
fn pack_lines(
    data: &[f32],
    ls: usize,
    ks: usize,
    l0: usize,
    q0: usize,
    count: usize,
    kc: usize,
    buf: &mut [f32],
) {
    const TILE: usize = MR; // == NR, asserted in `simd`
    if kc == 0 {
        return;
    }
    let panels = count.div_ceil(TILE);
    debug_assert!(buf.len() >= panels * kc * TILE);
    let transpose = simd::transpose_kernel();
    for (ip, panel) in buf.chunks_exact_mut(kc * TILE).take(panels).enumerate() {
        let lines = (count - ip * TILE).min(TILE);
        let src = &data[(l0 + ip * TILE) * ls + q0 * ks..];
        if ks == 1 {
            transpose(src, ls, lines, kc, panel);
        } else if ls == 1 && lines == TILE {
            for (q, dst) in panel.chunks_exact_mut(TILE).enumerate() {
                dst.copy_from_slice(&src[q * ks..q * ks + TILE]);
            }
        } else {
            for (q, dst) in panel.chunks_exact_mut(TILE).enumerate() {
                for (l, d) in dst.iter_mut().enumerate() {
                    *d = if l < lines { src[l * ls + q * ks] } else { 0.0 };
                }
            }
        }
    }
}

/// [`pack_a`]/[`pack_b`] for an operand stored image by image: `data` is
/// `[images, lines, len]` and is read as the `lines × images·len` matrix
/// whose line `l` strings together row `l` of every image — a convolution's
/// `[N, C, H·W]` activation or gradient seen as `[C, N·H·W]`, without the
/// permute that would make it one. Lines `l0..l0 + count` at depths
/// `q0..q0 + kc` become the same K-major panels `pack_lines` builds; each
/// stretch of a line inside one image is contiguous along K and moves as
/// block transposes.
#[allow(clippy::too_many_arguments)]
pub fn pack_image_lines(
    data: &[f32],
    lines: usize,
    len: usize,
    l0: usize,
    q0: usize,
    count: usize,
    kc: usize,
    buf: &mut [f32],
) {
    const TILE: usize = MR;
    if kc == 0 {
        return;
    }
    let panels = count.div_ceil(TILE);
    debug_assert!(buf.len() >= panels * kc * TILE);
    let transpose = simd::transpose_kernel();
    for (ip, panel) in buf.chunks_exact_mut(kc * TILE).take(panels).enumerate() {
        let in_panel = (count - ip * TILE).min(TILE);
        let first = l0 + ip * TILE;
        let mut q = q0;
        while q < q0 + kc {
            let (image, at) = (q / len, q % len);
            let run = (len - at).min(q0 + kc - q);
            let src = &data[(image * lines + first) * len + at..];
            transpose(src, len, in_panel, run, &mut panel[(q - q0) * TILE..]);
            q += run;
        }
    }
}

/// The packers' element-wise definitions — one [`MatRef::at`] per panel
/// slot, which is also how every source was packed before the strided cases
/// got block moves. Kept as the oracle for the property tests and the
/// baseline `kernels-quick` times the block moves against.
pub mod reference {
    use super::{MatRef, MR, NR};

    /// [`super::pack_a`], element by element.
    pub fn pack_a(a: MatRef, i0: usize, p0: usize, mc: usize, kc: usize, buf: &mut [f32]) {
        for ip in 0..mc.div_ceil(MR) {
            for p in 0..kc {
                let dst = &mut buf[(ip * kc + p) * MR..(ip * kc + p + 1) * MR];
                for (i, d) in dst.iter_mut().enumerate() {
                    let row = ip * MR + i;
                    *d = if row < mc {
                        a.at(i0 + row, p0 + p)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// [`super::pack_b`], element by element.
    pub fn pack_b(b: MatRef, p0: usize, j0: usize, kc: usize, nc: usize, buf: &mut [f32]) {
        for jp in 0..nc.div_ceil(NR) {
            for p in 0..kc {
                let dst = &mut buf[(jp * kc + p) * NR..(jp * kc + p + 1) * NR];
                for (j, d) in dst.iter_mut().enumerate() {
                    let col = jp * NR + j;
                    *d = if col < nc {
                        b.at(p0 + p, j0 + col)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matref_transpose_reads_same_storage() {
        // data is a row-major [2, 3]
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::row_major(&data, 3);
        let t = MatRef::transposed(&data, 3);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.at(i, j), t.at(j, i));
            }
        }
    }

    #[test]
    fn sub_offsets_both_layouts() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = MatRef::row_major(&data, 3); // [2, 3]
        assert_eq!(m.sub(1, 1).at(0, 1), m.at(1, 2));
        let t = MatRef::transposed(&data, 3); // [3, 2]
        assert_eq!(t.sub(2, 1).at(0, 0), t.at(2, 1));
    }

    #[test]
    fn pack_a_pads_ragged_rows_with_zeros() {
        // 3×2 block of a row-major 3×2 matrix, MR > 3 ⇒ one padded panel.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a = MatRef::row_major(&data, 2);
        let mut buf = vec![f32::NAN; MR * 2];
        pack_a(a, 0, 0, 3, 2, &mut buf);
        // Column 0 then column 1, each padded to MR values.
        assert_eq!(&buf[..3], &[1.0, 3.0, 5.0]);
        assert!(buf[3..MR].iter().all(|&v| v == 0.0));
        assert_eq!(&buf[MR..MR + 3], &[2.0, 4.0, 6.0]);
        assert!(buf[MR + 3..2 * MR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_b_pads_ragged_cols_with_zeros() {
        // 2×3 block, NR > 3 ⇒ one padded panel per k-step.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = MatRef::row_major(&data, 3);
        let mut buf = vec![f32::NAN; 2 * NR];
        pack_b(b, 0, 0, 2, 3, &mut buf);
        assert_eq!(&buf[..3], &[1.0, 2.0, 3.0]);
        assert!(buf[3..NR].iter().all(|&v| v == 0.0));
        assert_eq!(&buf[NR..NR + 3], &[4.0, 5.0, 6.0]);
        assert!(buf[NR + 3..2 * NR].iter().all(|&v| v == 0.0));
    }
}
