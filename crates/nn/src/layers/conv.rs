//! 2-D convolution: the products of im2col + GEMM, with the column matrix
//! built only where it costs nothing.
//!
//! # Which lowering a geometry takes
//!
//! Every convolution computes `W · im2col(x)` forward, `g · im2col(x)ᵀ` for
//! its weights and `col2im(Wᵀ · g)` for its input. [`conv_path`] decides
//! what is built around those products from the geometry, the filter count
//! and the batch size alone — no flag, tier or thread count enters:
//!
//! ```text
//!  oc·taps·N·oh·ow ≤ 32³ ──────────────────────► Im2col     a direct-loop product: the column
//!                                                             matrix is a few KB, nothing to save
//!  stride > 1 ─────────────────────────────────► Im2col     column matrix, one GEMM, a permute
//!  1×1, no padding, C ≤ 256, oc ≤ 256 ──────────► Pointwise  each image [C, H·W] is its B operand
//!  oc ≤ 18, taps = C·k² ≤ 32 ───────────────────► Windowed   taps or positions as the lanes
//!  4 ≤ oc ≤ 32, oh·ow ≥ 64 (LeNet's conv2) ─────► Interior   the filters as the lanes
//!  every other stride-1 geometry ──────────────► Im2col     the column lowering
//! ```
//!
//! * **Pointwise** runs on the tensors as they lie: per image `W · x` forward
//!   and `Wᵀ · g` for `dx` (one batched product), and
//!   [`gemm_nt_images`] for `dW`, which packs both operands from their
//!   `[N, ·, H·W]` layout. No columns, no planes, no permutes; the cache is
//!   the input itself, shared.
//! * **Windowed** and **Interior** build the zero-padded input planes
//!   ([`kernels::padded_planes`]; a [`MaskedConv2d`](super::MaskedConv2d)
//!   gathers its `keep` pixels straight into them) and cache nothing else:
//!   75 KB for LeNet's second stage on 16 images of 20 px, where its columns
//!   were 960 KB. Row `(ci, ky, kx)` of the im2col matrix is then a window of
//!   the planes, and the no-pack kernels read their operands through offset
//!   tables a [`ConvWindow`] keeps for the geometry. They differ in what the
//!   register tile's 16 lanes hold. Windowed: output positions forward, taps
//!   for `dW` — right for the few filters and taps of entry layers.
//!   Interior: the filters, against `Wᵀ` forward and the transposed output
//!   gradient for `dW` — one whole tile for 16 filters, where the windowed
//!   form would gather the same windows once per six filters. Both take
//!   `dx` from [`ConvWindow::dx`]: one kernel offset at a time, in `col2im`'s
//!   order, with no column matrix. The products are described in
//!   [`kernels`].
//! * **Im2col** is left to strided geometries, to products the GEMM runs
//!   as direct loops ([`SMALL_FLOPS`]), such as the entry layer of a
//!   one-image 8 px job, and to the stride-1 geometries the interior
//!   lowering was not timed to win on ([`INTERIOR_FILTERS`],
//!   [`INTERIOR_MIN_POSITIONS`]). It writes the column matrix, runs one GEMM,
//!   permutes `[oc, N·oh·ow]` to `[N, oc, oh, ow]`, and for the backward
//!   un-permutes the gradient and folds `Wᵀ · g` back with
//!   [`kernels::col2im`].
//!
//! # Why every lowering gives the same bits
//!
//! An element of any of the three products is the same chain whoever
//! computes it: a zeroed accumulator per [`KC`] block of the product's K
//! (taps forward, output positions for `dW`, filters for `dx`), ascending
//! within the block, multiply and add unfused, then `C += acc` onto a zeroed
//! C; and `dx` adds those columns onto each input cell in ascending kernel
//! offset. The column-free products ask [`gemm::route`](amalgam_tensor::gemm::route)
//! which blocks the product they replace would have used (one, for a
//! direct-loop product) and use those. Held to it by
//! `crates/tensor/tests/gemm_properties.rs` (the windowed kernels against
//! naive im2col + GEMM on both tiers), `crates/nn/tests/layer_properties.rs`
//! (`Conv2d` and `MaskedConv2d` forward, `dW`, `db` and demanded `dx`
//! against the reference definitions, on every lowering, both tiers for the
//! many-tap geometries), a fixed-seed slice in `tests/properties.rs`, the
//! golden digests, and `kernels-quick --check` (`conv_entry_*`,
//! `conv_1x1_fwd_*`, `conv_interior_{fwd,dw,dx}_*`: one differing bit
//! fails, and each has a speed gate against the column lowering).

use crate::layer::{Layer, Mode, Param};
use crate::layers::reduce::fold_rows;
use crate::spec::LayerSpec;
use amalgam_tensor::gemm::{
    gemm, gemm_batch, gemm_nt_images, BatchMat, KC, SKINNY_MAX_M, SMALL_FLOPS,
};
use amalgam_tensor::kernels::{self, Conv2dGeom, ConvWindow};
use amalgam_tensor::pack::MatRef;
use amalgam_tensor::{scratch, Rng, Tensor};

/// 2-D convolution over `[N, C, H, W]` inputs with a square kernel.
///
/// Every geometry computes the same products with every element accumulated
/// in the same order, so which lowering ran (pointwise, windowed, interior or
/// im2col — a pure function of the geometry, filter count and batch size,
/// see the `layers::conv` module docs) never shows in the bits. The
/// lowerings differ in what they materialise around those products.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param, // [oc, ic, k, k]
    bias: Option<Param>,
    kernel: usize,
    stride: usize,
    padding: usize,
    cache: Option<ConvCache>,
    /// The column-free paths' tables for the geometry last run.
    window: Option<ConvWindow>,
}

/// How a convolution is lowered; a pure function of its geometry, filter
/// count and batch size (see [`conv_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvPath {
    /// 1×1, unit stride, no padding: each image `[C, H·W]` already *is* the
    /// B operand of its product, so the layer runs on the tensors as they
    /// lie — no columns, no planes, no permutes.
    Pointwise,
    /// Unit stride, few filters and few taps: the no-pack kernel reads the
    /// im2col rows as shifted windows of the zero-padded input planes, which
    /// are all that is built and all that is cached.
    Windowed,
    /// Unit stride, many taps, 4–32 filters and maps of 8 × 8 or more: the
    /// same planes, with the filters as the register tile's lanes.
    Interior,
    /// Strides, products the GEMM runs as direct loops, and the stride-1
    /// geometries neither column-free form wins on: the column matrix, one
    /// GEMM, a permute.
    Im2col,
}

/// Most taps (`C·k·k`) a [`ConvPath::Windowed`] convolution may have. Its
/// weight gradient puts whole kernel rows in the lanes and its forward
/// gathers position windows once per six filters, which pays while the
/// filters are too few to fill the interior lowering's lanes and the taps
/// few. 32 admits the 1–3 channel 3×3 and 5×5 entry layers; the 150-tap
/// second stage of LeNet, with 16 filters, is interior.
const WINDOW_MAX_TAPS: usize = 32;

/// The filter counts a [`ConvPath::Interior`] convolution may have: where
/// each of its products beats the column lowering, timed in one process,
/// or the layer does on a figure model's training (4 filters: a DenseNet
/// growth layer at the paper figures' width). Under 4 filters most of the
/// 16 lanes idle and the forward and weight gradient lose (1–2 filters:
/// 0.5–0.9x), which a layer whose input gradient is not demanded would
/// feel; from 64 filters on the weight gradient falls behind (0.9–1.0x)
/// and at 128 the layer is even.
const INTERIOR_FILTERS: std::ops::RangeInclusive<usize> = 4..=32;

/// Fewest output positions per image (`oh·ow`) a [`ConvPath::Interior`]
/// convolution may have. On 2 × 2 maps its input gradient, a few lanes per
/// kernel offset, loses to the column lowering (0.4–0.65x) and the layer
/// with it; 4 × 4 maps, in between, were not timed on a workload.
const INTERIOR_MIN_POSITIONS: usize = 64;

/// The lowering of a geometry with `oc` filters on `batch` images: no
/// setting, tier or thread count enters.
fn conv_path(g: &Conv2dGeom, oc: usize, batch: usize) -> ConvPath {
    // A product the GEMM itself runs as a direct loop ([`SMALL_FLOPS`]: no
    // packing, no kernel dispatch) has a column matrix of a few KB; what the
    // other paths avoid is then a few µs a layer, and a one-image job keeps
    // the lowering it always had.
    if oc * g.col_rows() * batch * g.out_h() * g.out_w() <= SMALL_FLOPS {
        return ConvPath::Im2col;
    }
    if g.stride != 1 {
        return ConvPath::Im2col;
    }
    // Within one K block every GEMM route accumulates alike, so a per-image
    // product has the bits of the whole-batch product it stands for.
    if g.kernel == 1 && g.padding == 0 && g.in_channels <= KC && oc <= KC {
        ConvPath::Pointwise
    } else if oc <= SKINNY_MAX_M && g.col_rows() <= WINDOW_MAX_TAPS {
        ConvPath::Windowed
    } else if INTERIOR_FILTERS.contains(&oc) && g.out_h() * g.out_w() >= INTERIOR_MIN_POSITIONS {
        ConvPath::Interior
    } else {
        ConvPath::Im2col
    }
}

/// What `forward` leaves for `backward`.
#[derive(Debug, Clone)]
struct ConvCache {
    path: ConvPath,
    /// The B operand of the weight-gradient product, in the form `path`
    /// reads it: the input itself (shared, not copied), the zero-padded
    /// planes, or the column matrix.
    operand: Tensor,
    geom: Conv2dGeom,
    batch: usize,
    /// The output gradient as the `[oc, N·oh·ow]` matrix the im2col products
    /// read, once the input half has un-permuted it for the weight half.
    gmat: Option<Tensor>,
}

impl ConvCache {
    /// Hands the cached buffers to `spent`.
    fn recycle(self, spent: &mut dyn FnMut(Tensor)) {
        if let Some(gmat) = self.gmat {
            spent(gmat);
        }
        spent(self.operand);
    }
}

impl Conv2d {
    /// A new convolution with Kaiming-uniform initialised weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f32;
        // He-uniform (gain √2): keeps activation variance stable through
        // ReLU stacks, which matters at this repo's small step counts.
        let bound = (6.0 / fan_in).sqrt();
        let weight = Param::new(Tensor::rand_uniform(
            &[out_channels, in_channels, kernel, kernel],
            -bound,
            bound,
            rng,
        ));
        let bias =
            bias.then(|| Param::new(Tensor::rand_uniform(&[out_channels], -bound, bound, rng)));
        Conv2d {
            weight,
            bias,
            kernel,
            stride,
            padding,
            cache: None,
            window: None,
        }
    }

    /// Reassembles a convolution from explicit tensors (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 4-D square-kernel shaped.
    pub fn from_params(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert_eq!(
            weight.shape().rank(),
            4,
            "Conv2d weight must be [oc, ic, k, k]"
        );
        assert_eq!(
            weight.dims()[2],
            weight.dims()[3],
            "Conv2d kernel must be square"
        );
        let kernel = weight.dims()[2];
        Conv2d {
            weight: Param::new(weight),
            bias: bias.map(Param::new),
            kernel,
            stride,
            padding,
            cache: None,
            window: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// (kernel, stride, padding).
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.kernel, self.stride, self.padding)
    }

    fn geom(&self, in_channels: usize, in_h: usize, in_w: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels,
            in_h,
            in_w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// The column-free paths' tables for `geom`, built when the geometry is
    /// new to this layer.
    fn window<'a>(kept: &'a mut Option<ConvWindow>, geom: &Conv2dGeom) -> &'a mut ConvWindow {
        if kept.as_ref().is_none_or(|w| w.geom() != geom) {
            *kept = Some(ConvWindow::new(geom));
        }
        kept.as_mut().expect("just built")
    }

    /// Test hook, not an option: the name of the lowering an `[N, C, H, W]`
    /// input of these dimensions takes (`"Pointwise"`, `"Windowed"`,
    /// `"Interior"` or `"Im2col"`), so a property test can tell which path
    /// it exercised.
    #[doc(hidden)]
    pub fn lowering(&self, dims: &[usize]) -> &'static str {
        let geom = self.geom(dims[1], dims[2], dims[3]);
        match conv_path(&geom, self.out_channels(), dims[0]) {
            ConvPath::Pointwise => "Pointwise",
            ConvPath::Windowed => "Windowed",
            ConvPath::Interior => "Interior",
            ConvPath::Im2col => "Im2col",
        }
    }

    /// The forward pass on `x: [N, C, ·, ·]`, or — given `keep` and the
    /// `(h, w)` it gathers to — on the `[N, C, h, w]` image made of the
    /// `keep` positions of each plane of `x` (a masked entry layer). On the
    /// windowed and interior paths that image is never built: the padded
    /// planes are gathered straight from `x`.
    pub(crate) fn forward_gathered(
        &mut self,
        x: &Tensor,
        keep: Option<(&[usize], usize, usize)>,
    ) -> Tensor {
        let dims = x.dims();
        assert_eq!(
            dims.len(),
            4,
            "Conv2d input must be [N,C,H,W], got {dims:?}"
        );
        assert_eq!(dims[1], self.in_channels(), "Conv2d channel mismatch");
        let (in_h, in_w) = keep.map_or((dims[2], dims[3]), |(_, h, w)| (h, w));
        let geom = self.geom(dims[1], in_h, in_w);
        let (n, oc) = (dims[0], self.out_channels());
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let ohw = oh * ow;
        let taps = geom.col_rows();
        if let Some(stale) = self.cache.take() {
            stale.recycle(&mut scratch::give_tensor);
        }
        let path = conv_path(&geom, oc, n);
        // The padded planes are gathered through `keep`; the other paths
        // convolve the gathered image.
        let padded = matches!(path, ConvPath::Windowed | ConvPath::Interior);
        let gathered = match keep {
            Some((keep, ..)) if !padded => Some(gather(x, keep, in_h, in_w)),
            _ => None,
        };
        let x = gathered.as_ref().unwrap_or(x);
        let (mut out, operand) = match path {
            ConvPath::Pointwise | ConvPath::Windowed | ConvPath::Interior => {
                // Unpadded under a 1×1 kernel, the input is its own planes.
                let planes = match path {
                    ConvPath::Pointwise => x.clone(),
                    _ => kernels::padded_planes(x, &geom, keep.map(|(keep, ..)| keep)),
                };
                let mut out = scratch::take_tensor_raw(&[n, oc, oh, ow]);
                let w = self.weight.value.data();
                let window = Self::window(&mut self.window, &geom);
                match path {
                    ConvPath::Interior => window.interior_forward(&planes, w, out.data_mut()),
                    _ => window.forward(&planes, w, out.data_mut()),
                }
                (out, planes)
            }
            ConvPath::Im2col => {
                let mut cols = scratch::take_tensor_raw(&[taps, n * ohw]);
                kernels::im2col_into(x, &geom, &mut cols);
                // W·cols: the [oc, ic, k, k] weight already is a row-major
                // [oc, ic·k·k] matrix, so the GEMM views it in place.
                let wmat = MatRef::row_major(self.weight.value.data(), taps);
                let mut ymat = scratch::take_tensor(&[oc, n * ohw]);
                let colmat = MatRef::row_major(cols.data(), n * ohw);
                gemm(oc, n * ohw, taps, wmat, colmat, ymat.data_mut());
                // Permute [oc, N*oh*ow] -> [N, oc, oh, ow].
                let mut out = scratch::take_tensor_raw(&[n, oc, oh, ow]);
                let blocks = out.data_mut().chunks_exact_mut(ohw.max(1));
                for (block, dst) in blocks.enumerate() {
                    let (ni, o) = (block / oc, block % oc);
                    dst.copy_from_slice(&ymat.data()[o * n * ohw + ni * ohw..][..ohw]);
                }
                scratch::give_tensor(ymat);
                (out, cols)
            }
        };
        if let Some(b) = &self.bias {
            let filters = out.data_mut().chunks_exact_mut(ohw.max(1));
            for (filter, &bv) in filters.zip(b.value.data().iter().cycle()) {
                filter.iter_mut().for_each(|v| *v += bv);
            }
        }
        if let Some(gathered) = gathered {
            scratch::give_tensor(gathered);
        }
        self.cache = Some(ConvCache {
            path,
            operand,
            geom,
            batch: n,
            gmat: None,
        });
        out
    }
}

impl Conv2d {
    /// `dW += g · colsᵀ` and `db +=` each filter's gradient sum, from the
    /// cached forward; an im2col product leaves the un-permuted gradient in
    /// `cache.gmat`.
    fn weight_gradients(&mut self, cache: &mut ConvCache, grad_out: &Tensor) {
        let (path, geom, n) = (cache.path, cache.geom, cache.batch);
        let oc = self.out_channels();
        let ohw = geom.out_h() * geom.out_w();
        let taps = geom.col_rows();
        assert_eq!(grad_out.numel(), n * oc * ohw, "Conv2d gradient mismatch");
        // dW = g @ colsᵀ (flat — dw is the same row-major data as the
        // [oc, ic, k, k] gradient), summed apart and then added to the
        // accumulated gradient. The im2col product reads the gradient as
        // [oc, N*oh*ow]; the other paths read it where it lies.
        let mut dw = scratch::take_tensor_raw(&[oc, taps]);
        let operand = &cache.operand;
        match path {
            ConvPath::Pointwise => {
                dw.data_mut().fill(0.0);
                let (g, x) = (grad_out.data(), operand.data());
                gemm_nt_images(oc, taps, n, ohw, g, x, dw.data_mut());
            }
            ConvPath::Windowed => {
                let window = Self::window(&mut self.window, &geom);
                window.dw(operand, grad_out.data(), dw.data_mut());
            }
            ConvPath::Interior => {
                let window = Self::window(&mut self.window, &geom);
                window.interior_dw(operand, grad_out.data(), dw.data_mut());
            }
            ConvPath::Im2col => {
                let g = cache
                    .gmat
                    .get_or_insert_with(|| unpermute(grad_out, n, oc, ohw));
                kernels::matmul_nt_into(g, operand, &mut dw);
            }
        }
        debug_assert_eq!(self.weight.grad.numel(), dw.numel());
        for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(dw.data()) {
            *g += d;
        }
        scratch::give_tensor(dw);
        if let Some(b) = &mut self.bias {
            // One chain per filter over its gradients in (image, position)
            // order, the filters advanced together; -0.0 is what
            // `Iterator::sum` starts from.
            let mut sums = vec![-0.0f32; oc];
            for image in grad_out.data().chunks_exact((oc * ohw).max(1)) {
                fold_rows(&mut sums, [image], ohw, |_, sum, [g]| sum + g);
            }
            for (g, &sum) in b.grad.data_mut().iter_mut().zip(&sums) {
                *g += sum;
            }
        }
    }

    /// `dx = col2im(Wᵀ · g)` of the cached forward; an im2col product reads
    /// (or leaves) the un-permuted gradient in `cache.gmat`.
    fn input_gradient(&mut self, cache: &mut ConvCache, grad_out: &Tensor) -> Tensor {
        let (geom, n) = (cache.geom, cache.batch);
        let oc = self.out_channels();
        let ohw = geom.out_h() * geom.out_w();
        let taps = geom.col_rows();
        assert_eq!(grad_out.numel(), n * oc * ohw, "Conv2d gradient mismatch");
        match cache.path {
            ConvPath::Pointwise => {
                // Per image, Wᵀ·g is the input gradient as it lies.
                let mut dx = scratch::take_tensor_raw(&[n, taps, geom.in_h, geom.in_w]);
                let wt = MatRef::transposed(self.weight.value.data(), taps);
                let grads = BatchMat::row_major(grad_out.data(), oc, ohw);
                gemm_batch(
                    n,
                    taps,
                    ohw,
                    oc,
                    BatchMat::shared(wt),
                    grads,
                    1.0,
                    dx.data_mut(),
                );
                dx
            }
            ConvPath::Windowed | ConvPath::Interior => {
                let window = Self::window(&mut self.window, &geom);
                window.dx(grad_out.data(), self.weight.value.data())
            }
            ConvPath::Im2col => {
                // dcols = Wᵀ @ g, folded back to input space.
                let g = cache
                    .gmat
                    .get_or_insert_with(|| unpermute(grad_out, n, oc, ohw));
                let wt = MatRef::transposed(self.weight.value.data(), taps);
                let mut dcols = scratch::take_tensor(&[taps, n * ohw]);
                let gm = MatRef::row_major(g.data(), n * ohw);
                gemm(taps, n * ohw, oc, wt, gm, dcols.data_mut());
                let dx = kernels::col2im(&dcols, &geom, n);
                scratch::give_tensor(dcols);
                dx
            }
        }
    }
}

/// The `keep` positions of every plane of `x: [N, C, H', W']`, as
/// `[N, C, h, w]`.
fn gather(x: &Tensor, keep: &[usize], h: usize, w: usize) -> Tensor {
    let d = x.dims();
    let (n, c, plane) = (d[0], d[1], d[2] * d[3]);
    assert_eq!(keep.len(), h * w, "keep must list every pixel");
    assert!(
        keep.iter().all(|&pos| pos < plane),
        "keep index out of bounds for the input plane"
    );
    let mut out = scratch::take_tensor_raw(&[n, c, h, w]);
    let targets = out.data_mut().chunks_exact_mut(keep.len().max(1));
    for (src, dst) in x.data().chunks_exact(plane.max(1)).zip(targets) {
        for (d, &pos) in dst.iter_mut().zip(keep) {
            *d = src[pos];
        }
    }
    out
}

/// `grad: [N, oc, ohw]` as the `[oc, N·ohw]` matrix the im2col products read.
fn unpermute(grad: &Tensor, n: usize, oc: usize, ohw: usize) -> Tensor {
    let mut gmat = scratch::take_tensor_raw(&[oc, n * ohw]);
    let dst = gmat.data_mut();
    for (block, src) in grad.data().chunks_exact(ohw.max(1)).enumerate() {
        let (ni, o) = (block / oc, block % oc);
        dst[o * n * ohw + ni * ohw..][..ohw].copy_from_slice(src);
    }
    gmat
}

impl Layer for Conv2d {
    fn kind(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Conv2d takes one input");
        self.forward_gathered(inputs[0], None)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        // The weight half first: the im2col products then un-permute the
        // gradient once, for both.
        let mut cache = self.cache.take().expect("Conv2d backward before forward");
        self.weight_gradients(&mut cache, grad_out);
        let dx = demand[0].then(|| self.input_gradient(&mut cache, grad_out));
        cache.recycle(&mut scratch::give_tensor);
        vec![dx]
    }

    fn backward_input(
        &mut self,
        grad_out: &Tensor,
        demand: &[bool],
    ) -> (Vec<Option<Tensor>>, bool) {
        let mut cache = self.cache.take().expect("Conv2d backward before forward");
        let dx = demand[0].then(|| self.input_gradient(&mut cache, grad_out));
        self.cache = Some(cache);
        (vec![dx], true)
    }

    fn backward_weights(&mut self, grad_out: &Tensor, spent: &mut dyn FnMut(Tensor)) {
        let mut cache = self
            .cache
            .take()
            .expect("Conv2d weight half before its input half");
        let kept = cache.gmat.is_some();
        self.weight_gradients(&mut cache, grad_out);
        // An un-permuted gradient this half made is this thread's to give.
        if let Some(gmat) = cache.gmat.take_if(|_| !kept) {
            scratch::give_tensor(gmat);
        }
        cache.recycle(spent);
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            weight: self.weight.value.clone(),
            bias: self.bias.as_ref().map(|b| b.value.clone()),
            stride: self.stride,
            padding: self.padding,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        if let Some(cache) = self.cache.take() {
            cache.recycle(&mut scratch::give_tensor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_shape_with_padding_and_stride() {
        let mut rng = Rng::seed_from(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
        let y = c.forward(&[&Tensor::zeros(&[2, 3, 16, 16])], Mode::Train);
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        let mut c = Conv2d::new(3, 8, 3, 2, 1, true, &mut rng);
        let y = c.forward(&[&Tensor::zeros(&[2, 3, 16, 16])], Mode::Train);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        // A 1×1 conv with identity-like weights passes channels through.
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let mut c = Conv2d::from_params(w, None, 1, 0);
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = c.forward(&[&x], Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn the_path_is_a_function_of_the_geometry() {
        let geom = |in_channels, kernel, stride, padding| Conv2dGeom {
            in_channels,
            in_h: 20,
            in_w: 20,
            kernel,
            stride,
            padding,
        };
        // LeNet's entry layer and the augmenter's synthetic twins and taps.
        assert_eq!(conv_path(&geom(1, 5, 1, 2), 6, 16), ConvPath::Windowed);
        assert_eq!(conv_path(&geom(6, 1, 1, 0), 6, 16), ConvPath::Pointwise);
        // LeNet's second stage: 150 taps.
        assert_eq!(conv_path(&geom(6, 5, 1, 2), 16, 16), ConvPath::Interior);
        // One 8-pixel image is a direct-loop product: the column matrix stays.
        assert_eq!(conv_path(&geom(1, 5, 1, 2), 6, 1), ConvPath::Windowed);
        let tiny = Conv2dGeom {
            in_h: 8,
            in_w: 8,
            ..geom(1, 5, 1, 2)
        };
        assert_eq!(conv_path(&tiny, 6, 1), ConvPath::Im2col);
        assert_eq!(conv_path(&tiny, 6, 16), ConvPath::Windowed);
        // Strides keep the column matrix; a 3×3 stage of 16 filters takes
        // the interior products, but not with 64 filters, one filter (CBAM's
        // 7×7) or a 4 × 4 map; a padded 1×1 is just a few-tap convolution.
        assert_eq!(conv_path(&geom(1, 5, 2, 2), 6, 16), ConvPath::Im2col);
        assert_eq!(conv_path(&geom(16, 3, 1, 1), 16, 16), ConvPath::Interior);
        assert_eq!(conv_path(&geom(3, 3, 1, 1), 64, 16), ConvPath::Im2col);
        assert_eq!(conv_path(&geom(2, 7, 1, 3), 1, 16), ConvPath::Im2col);
        let small = Conv2dGeom {
            in_h: 4,
            in_w: 4,
            ..geom(16, 3, 1, 1)
        };
        assert_eq!(conv_path(&small, 16, 16), ConvPath::Im2col);
        assert_eq!(conv_path(&geom(6, 1, 2, 0), 6, 16), ConvPath::Im2col);
        assert_eq!(conv_path(&geom(6, 1, 1, 1), 6, 16), ConvPath::Windowed);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(1);
        let c = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        check_layer_gradients(Box::new(c), &[&[2, 2, 5, 5]], 2e-2, &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences_strided() {
        let mut rng = Rng::seed_from(2);
        let c = Conv2d::new(1, 2, 3, 2, 0, false, &mut rng);
        check_layer_gradients(Box::new(c), &[&[1, 1, 7, 7]], 2e-2, &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences_on_the_column_free_paths() {
        // Large enough products to leave the direct-loop rule behind — and
        // an objective of thousands of f32 terms, hence the wider tolerance
        // (the bit-exact comparison with the reference paths is in
        // `tests/layer_properties.rs`).
        let mut rng = Rng::seed_from(4);
        let windowed = Conv2d::new(2, 4, 3, 1, 1, true, &mut rng);
        assert_eq!(windowed.lowering(&[4, 2, 16, 16]), "Windowed");
        check_layer_gradients(Box::new(windowed), &[&[4, 2, 16, 16]], 8e-2, &mut rng);
        let pointwise = Conv2d::new(8, 8, 1, 1, 0, true, &mut rng);
        assert_eq!(pointwise.lowering(&[3, 8, 16, 16]), "Pointwise");
        check_layer_gradients(Box::new(pointwise), &[&[3, 8, 16, 16]], 8e-2, &mut rng);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = Rng::seed_from(3);
        let c = Conv2d::new(3, 16, 3, 1, 1, true, &mut rng);
        assert_eq!(c.param_count(), 16 * 3 * 3 * 3 + 16);
    }
}
