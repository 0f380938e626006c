//! Shared infrastructure of the `amalgam-bench` harness.
//!
//! Each table/figure of the paper has a runner in [`tables`], [`figures_cv`],
//! [`figures_nlp`] or [`figures_sec`]; all of them emit a [`Report`] that is
//! printed and written as CSV under the output directory. `Scale::Scaled`
//! (the default) shrinks datasets and model widths so the whole suite runs
//! on a laptop; `Scale::Full` uses the paper's shapes and counts.

pub mod figures_cv;
pub mod figures_nlp;
pub mod figures_sec;
pub mod profile;
pub mod tables;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CPU-friendly shapes and counts (default).
    Scaled,
    /// The paper's shapes and counts (`--full`).
    Full,
}

/// The seed repository's single-threaded `ikj` matmul, kept verbatim as the
/// speedup baseline for the blocked GEMM in the `kernels-quick` CI smoke
/// binary.
pub fn matmul_ikj_reference(
    a: &amalgam_tensor::Tensor,
    b: &amalgam_tensor::Tensor,
) -> amalgam_tensor::Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = amalgam_tensor::Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let crow = &mut od[i * n..(i + 1) * n];
        for p in 0..k {
            let av = ad[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    out
}

/// The serial per-head attention Q·Kᵀ loop: one kernel call per head
/// into disjoint `[T, T]` output slices, with the `1/√dh` scale applied as a
/// separate pass — exactly the loop shape the attention layer ran before
/// the batched GEMM: the baseline of `kernels-quick`'s batched-attention
/// entry.
///
/// `qh`/`kh` are head-major `[heads, T, dh]`; `out` is `[heads, T, T]`.
pub fn attention_qk_serial_per_head(
    qh: &amalgam_tensor::Tensor,
    kh: &amalgam_tensor::Tensor,
    alpha: f32,
    out: &mut amalgam_tensor::Tensor,
) {
    use amalgam_tensor::{gemm, pack::MatRef};
    let (heads, t, dh) = (qh.dims()[0], qh.dims()[1], qh.dims()[2]);
    for i in 0..heads {
        let cslice = &mut out.data_mut()[i * t * t..(i + 1) * t * t];
        cslice.fill(0.0);
        gemm::gemm(
            t,
            t,
            dh,
            MatRef::row_major(&qh.data()[i * t * dh..], dh),
            MatRef {
                data: &kh.data()[i * t * dh..],
                rs: 1,
                cs: dh,
            },
            cslice,
        );
        for v in cslice.iter_mut() {
            *v *= alpha;
        }
    }
}

/// The serial per-head attention P·V loop (see
/// [`attention_qk_serial_per_head`]): `probs` is `[heads, T, T]`, `vh` is
/// `[heads, T, dh]`, `out` is `[heads, T, dh]`.
pub fn attention_pv_serial_per_head(
    probs: &amalgam_tensor::Tensor,
    vh: &amalgam_tensor::Tensor,
    out: &mut amalgam_tensor::Tensor,
) {
    use amalgam_tensor::{gemm, pack::MatRef};
    let (heads, t, dh) = (vh.dims()[0], vh.dims()[1], vh.dims()[2]);
    for i in 0..heads {
        let cslice = &mut out.data_mut()[i * t * dh..(i + 1) * t * dh];
        cslice.fill(0.0);
        gemm::gemm(
            t,
            dh,
            t,
            MatRef::row_major(&probs.data()[i * t * t..], t),
            MatRef::row_major(&vh.data()[i * t * dh..], dh),
            cslice,
        );
    }
}

/// Harness options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Experiment scale.
    pub scale: Scale,
    /// Output directory for CSV/PGM artifacts.
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Scaled,
            out_dir: PathBuf::from("results"),
            seed: 7,
        }
    }
}

/// A tabular experiment result: header + rows, rendered to stdout and CSV.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"table2"`.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Row values (display strings).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// A new empty report.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Report {
            name: name.to_owned(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the column count.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch in {}",
            self.name
        );
        self.rows.push(row);
    }

    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        for (w, c) in widths.iter().zip(&self.columns) {
            let _ = write!(out, "{c:<w$}  ");
        }
        out.push('\n');
        for row in &self.rows {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "{cell:<w$}  ");
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table and writes `<out>/<name>.csv`.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written.
    pub fn emit(&self, out_dir: &Path) {
        println!("{}", self.to_table());
        std::fs::create_dir_all(out_dir).expect("create output directory");
        let path = out_dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, self.to_csv()).expect("write report CSV");
        println!("[written {}]\n", path.display());
    }
}

/// Writes a single-channel image as a binary PGM (for the Figure 16/18
/// reconstruction visuals).
///
/// # Panics
///
/// Panics if `img` is not `[1, H, W]`-shaped or the file cannot be written.
pub fn write_pgm(img: &amalgam_tensor::Tensor, path: &Path) {
    let d = img.dims();
    assert!(d.len() == 3 && d[0] == 1, "write_pgm expects [1, H, W]");
    let (h, w) = (d[1], d[2]);
    let mut bytes = format!("P5\n{w} {h}\n255\n").into_bytes();
    let (lo, hi) = (img.min(), img.max());
    let span = (hi - lo).max(1e-6);
    bytes.extend(
        img.data()
            .iter()
            .map(|&v| (((v - lo) / span) * 255.0) as u8),
    );
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(path, bytes).expect("write PGM");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_table_and_csv() {
        let mut r = Report::new("t", &["a", "bb"]);
        r.push(vec!["1".into(), "2".into()]);
        assert!(r.to_table().contains("== t =="));
        assert_eq!(r.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn report_rejects_bad_row() {
        Report::new("t", &["a"]).push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pgm_writer_produces_header() {
        let img = amalgam_tensor::Tensor::zeros(&[1, 2, 3]);
        let path = std::env::temp_dir().join("amalgam_test.pgm");
        write_pgm(&img, &path);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n3 2\n255\n"));
        let _ = std::fs::remove_file(path);
    }
}
