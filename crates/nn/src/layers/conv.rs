//! 2-D convolution via im2col.

use crate::layer::{Layer, Mode, Param};
use crate::layers::reduce::fold_rows;
use crate::spec::LayerSpec;
use amalgam_tensor::gemm::gemm;
use amalgam_tensor::kernels::{self, Conv2dGeom};
use amalgam_tensor::pack::MatRef;
use amalgam_tensor::{scratch, Rng, Tensor};

/// 2-D convolution over `[N, C, H, W]` inputs with a square kernel.
///
/// Forward lowers to a single matrix product on the im2col unfolding; the
/// backward pass reuses the cached column matrix for the weight gradient and
/// folds the column gradient back with `col2im`.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param, // [oc, ic, k, k]
    bias: Option<Param>,
    kernel: usize,
    stride: usize,
    padding: usize,
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    cols: Tensor,
    geom: Conv2dGeom,
    batch: usize,
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
}

impl Layer for Conv2d {
    fn kind(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Conv2d takes one input");
        let x = inputs[0];
        let dims = x.dims();
        assert_eq!(
            dims.len(),
            4,
            "Conv2d input must be [N,C,H,W], got {dims:?}"
        );
        assert_eq!(dims[1], self.in_channels(), "Conv2d channel mismatch");
        let geom = Conv2dGeom {
            in_channels: dims[1],
            in_h: dims[2],
            in_w: dims[3],
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let (n, oc) = (dims[0], self.out_channels());
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let ohw = oh * ow;
        // Column matrix and GEMM output both come from the thread-local
        // scratch arena, so repeated steps reuse the same allocations.
        let mut cols = scratch::take_tensor_raw(&[geom.col_rows(), n * ohw]);
        kernels::im2col_into(x, &geom, &mut cols);
        // W·cols: the [oc, ic, k, k] weight already is a row-major
        // [oc, ic·k·k] matrix, so the GEMM views it in place.
        let taps = geom.col_rows();
        let wmat = MatRef::row_major(self.weight.value.data(), taps);
        let mut ymat = scratch::take_tensor(&[oc, n * ohw]);
        let colmat = MatRef::row_major(cols.data(), n * ohw);
        gemm(oc, n * ohw, taps, wmat, colmat, ymat.data_mut());
        // Fused pass: permute [oc, N*oh*ow] -> [N, oc, oh, ow] and add the
        // bias while each (n, o) block is appended, instead of a zero fill
        // and a second full-tensor sweep.
        let mut out = Vec::with_capacity(n * oc * ohw);
        {
            let src = ymat.data();
            let bias = self.bias.as_ref().map(|b| b.value.data());
            for ni in 0..n {
                for o in 0..oc {
                    let s = &src[o * n * ohw + ni * ohw..o * n * ohw + (ni + 1) * ohw];
                    match bias {
                        Some(bd) => {
                            let bv = bd[o];
                            out.extend(s.iter().map(|&sv| sv + bv));
                        }
                        None => out.extend_from_slice(s),
                    }
                }
            }
        }
        let out = Tensor::from_vec(out, &[n, oc, oh, ow]);
        scratch::give_tensor(ymat);
        self.cache = Some(ConvCache {
            cols,
            geom,
            batch: n,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let ConvCache {
            cols,
            geom,
            batch: n,
        } = self.cache.take().expect("Conv2d backward before forward");
        let oc = self.out_channels();
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let ohw = oh * ow;
        // Un-permute grad to [oc, N*oh*ow].
        let mut gmat = scratch::take_tensor_raw(&[oc, n * ohw]);
        {
            let src = grad_out.data();
            let dst = gmat.data_mut();
            for ni in 0..n {
                for o in 0..oc {
                    let s = &src[ni * oc * ohw + o * ohw..ni * oc * ohw + (o + 1) * ohw];
                    dst[o * n * ohw + ni * ohw..o * n * ohw + (ni + 1) * ohw].copy_from_slice(s);
                }
            }
        }
        // dW = g @ colsᵀ (accumulated flat — dw is the same row-major data
        // as the [oc, ic, k, k] gradient).
        let mut dw = scratch::take_tensor_raw(&[oc, geom.col_rows()]);
        kernels::matmul_nt_into(&gmat, &cols, &mut dw);
        scratch::give_tensor(cols);
        debug_assert_eq!(self.weight.grad.numel(), dw.numel());
        for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(dw.data()) {
            *g += d;
        }
        scratch::give_tensor(dw);
        if let Some(b) = &mut self.bias {
            // One chain per filter over its row of `gmat`, the filters
            // advanced together; -0.0 is what `Iterator::sum` starts from.
            let mut sums = vec![-0.0f32; oc];
            fold_rows(&mut sums, [gmat.data()], n * ohw, |_, sum, [g]| sum + g);
            for (g, &sum) in b.grad.data_mut().iter_mut().zip(&sums) {
                *g += sum;
            }
        }
        // dcols = Wᵀ @ g, folded back to input space — the larger half of
        // this function, and only worth it when a parameter lies upstream.
        let dx = demand[0].then(|| {
            let taps = geom.col_rows();
            let wt = MatRef::transposed(self.weight.value.data(), taps);
            let mut dcols = scratch::take_tensor(&[taps, n * ohw]);
            let gm = MatRef::row_major(gmat.data(), n * ohw);
            gemm(taps, n * ohw, oc, wt, gm, dcols.data_mut());
            let dx = kernels::col2im(&dcols, &geom, n);
            scratch::give_tensor(dcols);
            dx
        });
        scratch::give_tensor(gmat);
        vec![dx]
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
        self.cache = None;
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
    fn param_count_matches_formula() {
        let mut rng = Rng::seed_from(3);
        let c = Conv2d::new(3, 16, 3, 1, 1, true, &mut rng);
        assert_eq!(c.param_count(), 16 * 3 * 3 * 3 + 16);
    }
}
