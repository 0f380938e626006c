//! Panel packing for the blocked GEMM (BLIS layout).
//!
//! The register tile in [`gemm`](crate::gemm) reads A through any stride
//! pair, so only B is packed: a B panel is `ceil(nc / NR)` *micro-panels*;
//! micro-panel `jp` stores the `NR` (16) columns `j0 + jp*NR ..` K-major
//! (`buf[p*NR + j]`), so each K step of a 16-column tile is one contiguous
//! row. A ragged last micro-panel is padded with zeros; the tile computes
//! only the columns that exist.
//!
//! The packer reads through [`MatRef`], a stride pair over the source
//! matrix — this is what collapses the transpose variants into one kernel:
//! `B` and `Bᵀ` differ only in `(rs, cs)`.

use crate::gemm::NR;
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

/// Packs the `kc × nc` block of `b` starting at `(p0, j0)` into NR-column
/// micro-panels in `buf` (see module docs for the layout).
///
/// A *line* is a column of B; it runs along K. Which stride is 1 decides how
/// a micro-panel is filled, never what it holds:
///
/// * `rs == 1` (a column-major B — `matmul_nt`'s `Bᵀ`, every weight
///   gradient's `colsᵀ`): lines are contiguous along K, so the micro-panel
///   is the transpose of a `16 × kc` strip and moves as 8×8 blocks
///   (`simd::transpose_kernel`, one call per 8-line half); one gather per
///   element would walk down a stride-`cs` column instead.
/// * `cs == 1` (row-major B): the 16 values of one depth are adjacent in the
///   source — a bulk copy per panel row.
/// * anything else, and the ragged last micro-panel of the copy case: the
///   element-wise definition.
///
/// `buf` must hold at least `kc * ceil(nc / NR) * NR` elements.
pub fn pack_b(b: MatRef, p0: usize, j0: usize, kc: usize, nc: usize, buf: &mut [f32]) {
    let (ls, ks) = (b.cs, b.rs);
    if kc == 0 {
        return;
    }
    let transpose = simd::transpose_kernel();
    let panels = buf.chunks_exact_mut(kc * NR).take(nc.div_ceil(NR));
    for (jp, panel) in panels.enumerate() {
        let lines = (nc - jp * NR).min(NR);
        let src = &b.data[(j0 + jp * NR) * ls + p0 * ks..];
        if ks == 1 {
            transpose_lines(transpose, src, ls, lines, kc, panel);
        } else if ls == 1 && lines == NR {
            for (q, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst.copy_from_slice(&src[q * ks..q * ks + NR]);
            }
        } else {
            for (q, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (l, d) in dst.iter_mut().enumerate() {
                    *d = if l < lines { src[l * ls + q * ks] } else { 0.0 };
                }
            }
        }
    }
}

/// `lines ≤ NR` source lines, contiguous along K and `ls` apart from
/// `src[0]` on, as `len` rows of a micro-panel (`panel[q*NR + l]`), zero
/// past the last line: one block transpose per 8-line half.
fn transpose_lines(
    transpose: simd::TransposeFn,
    src: &[f32],
    ls: usize,
    lines: usize,
    len: usize,
    panel: &mut [f32],
) {
    for h in (0..NR).step_by(8) {
        let half = lines.saturating_sub(h).min(8);
        let src = if half == 0 { &[] } else { &src[h * ls..] };
        transpose(src, ls, half, len, &mut panel[h..], NR);
    }
}

/// [`pack_b`] for an operand stored image by image: `data` is
/// `[images, lines, len]` and is read as the `images·len × lines` matrix
/// whose column `l` strings together row `l` of every image — a
/// convolution's `[N, C, H·W]` activation seen as `[N·H·W, C]`, without the
/// permute that would make it one. Columns `l0..l0 + count` at depths
/// `q0..q0 + kc` become the same micro-panels `pack_b` builds; each stretch
/// of a column inside one image is contiguous along K and moves as block
/// transposes.
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
    if kc == 0 {
        return;
    }
    let transpose = simd::transpose_kernel();
    let panels = buf.chunks_exact_mut(kc * NR).take(count.div_ceil(NR));
    for (jp, panel) in panels.enumerate() {
        let in_panel = (count - jp * NR).min(NR);
        let first = l0 + jp * NR;
        for_each_run(len, q0, kc, |image, at, q, run| {
            let src = &data[(image * lines + first) * len + at..];
            transpose_lines(transpose, src, len, in_panel, run, &mut panel[q * NR..]);
        });
    }
}

/// The A side of [`pack_image_lines`]: the `lines × kc` block at depth `q0`
/// of the `lines × images·len` matrix stored as `[images, lines, len]`,
/// gathered row-major into `buf` (`buf[l*kc + q]`) — a matrix the register
/// tile reads in place, built by one copy per row and image.
pub fn gather_image_rows(
    data: &[f32],
    lines: usize,
    len: usize,
    q0: usize,
    kc: usize,
    buf: &mut [f32],
) {
    for (l, row) in buf.chunks_exact_mut(kc).take(lines).enumerate() {
        for_each_run(len, q0, kc, |image, at, q, run| {
            row[q..q + run].copy_from_slice(&data[(image * lines + l) * len + at..][..run]);
        });
    }
}

/// Splits depths `q0..q0 + kc` of an image-by-image operand (`len` depths
/// per image) into the stretches inside one image: `f(image, offset in the
/// image, offset from q0, length)`, in ascending order.
fn for_each_run(len: usize, q0: usize, kc: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut q = q0;
    while q < q0 + kc {
        let (image, at) = (q / len, q % len);
        let run = (len - at).min(q0 + kc - q);
        f(image, at, q - q0, run);
        q += run;
    }
}

/// The packers' element-wise definitions — one [`MatRef::at`] per panel
/// slot, which is also how every source was packed before the strided cases
/// got block moves. Kept as the oracle for the property tests and the
/// baseline `kernels-quick` times the block moves against.
pub mod reference {
    use super::{MatRef, NR};
    use crate::gemm::MR;

    /// The `mc × kc` block of `a` at `(i0, p0)` as `MR`-row micro-panels,
    /// K-major (`buf[p*MR + i]`) and zero-padded past the last row — how A
    /// was packed before the tile read it in place; the reference walk
    /// still packs it so.
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
    fn reference_pack_a_pads_ragged_rows_with_zeros() {
        use crate::gemm::MR;
        // 3×2 block of a row-major 3×2 matrix, MR > 3 ⇒ one padded panel.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a = MatRef::row_major(&data, 2);
        let mut buf = vec![f32::NAN; MR * 2];
        reference::pack_a(a, 0, 0, 3, 2, &mut buf);
        // Column 0 then column 1, each padded to MR values.
        assert_eq!(&buf[..3], &[1.0, 3.0, 5.0]);
        assert!(buf[3..MR].iter().all(|&v| v == 0.0));
        assert_eq!(&buf[MR..MR + 3], &[2.0, 4.0, 6.0]);
        assert!(buf[MR + 3..2 * MR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn image_rows_string_the_images_together() {
        // Two images of [2 lines, 3 positions]; depths 2..5 of line 1 are
        // the last position of image 0, then the first two of image 1.
        let data: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut buf = vec![f32::NAN; 2 * 3];
        gather_image_rows(&data, 2, 3, 2, 3, &mut buf);
        assert_eq!(buf, [2.0, 6.0, 7.0, 5.0, 9.0, 10.0]);
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
