//! Depthwise 2-D convolution (MobileNetV2's building block).

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, Rng, Tensor};

/// Depthwise convolution: each input channel is convolved with its own
/// `k×k` filter (`groups == channels` in PyTorch terms).
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    weight: Param, // [C, k, k]
    bias: Option<Param>,
    kernel: usize,
    stride: usize,
    padding: usize,
    cache: Option<Tensor>, // input
}

impl DepthwiseConv2d {
    /// A new depthwise convolution over `channels`.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let bound = (6.0 / (kernel * kernel) as f32).sqrt();
        let weight = Param::new(Tensor::rand_uniform(
            &[channels, kernel, kernel],
            -bound,
            bound,
            rng,
        ));
        let bias = bias.then(|| Param::new(Tensor::rand_uniform(&[channels], -bound, bound, rng)));
        DepthwiseConv2d {
            weight,
            bias,
            kernel,
            stride,
            padding,
            cache: None,
        }
    }

    /// Reassembles from explicit tensors (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `[C, k, k]` with a square kernel.
    pub fn from_params(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert_eq!(
            weight.shape().rank(),
            3,
            "depthwise weight must be [C, k, k]"
        );
        assert_eq!(weight.dims()[1], weight.dims()[2], "kernel must be square");
        let kernel = weight.dims()[1];
        DepthwiseConv2d {
            weight: Param::new(weight),
            bias: bias.map(Param::new),
            kernel,
            stride,
            padding,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }
}

impl Layer for DepthwiseConv2d {
    fn kind(&self) -> &'static str {
        "DepthwiseConv2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "DepthwiseConv2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "DepthwiseConv2d input must be [N,C,H,W]");
        assert_eq!(d[1], self.channels(), "DepthwiseConv2d channel mismatch");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let src = x.data();
        let wd = self.weight.value.data();
        let bias = self.bias.as_ref().map(|b| b.value.data());
        let (stride, padding) = (self.stride, self.padding);
        let dst = out.data_mut();
        for pair in 0..n * c {
            let (ni, ci) = (pair / c, pair % c);
            let base = ni * c * h * w + ci * h * w;
            let wbase = ci * k * k;
            let bv = bias.map_or(0.0, |bd| bd[ci]);
            let dmap = &mut dst[pair * oh * ow..(pair + 1) * oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc +=
                                src[base + iy as usize * w + ix as usize] * wd[wbase + ky * k + kx];
                        }
                    }
                    dmap[oy * ow + ox] = acc + bv;
                }
            }
        }
        self.cache = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let x = self
            .cache
            .take()
            .expect("DepthwiseConv2d backward before forward");
        let d = x.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let god = grad_out.dims();
        let (oh, ow) = (god[2], god[3]);
        let k = self.kernel;
        let mut dx = demand[0].then(|| Tensor::zeros(d));
        let mut dx_cells = dx.as_mut().map(Tensor::data_mut);
        let (wd, dw) = (self.weight.value.data(), self.weight.grad.data_mut());
        let mut db = self.bias.as_mut().map(|b| b.grad.data_mut());
        for ni in 0..n {
            for ci in 0..c {
                let base = ni * c * h * w + ci * h * w;
                let wbase = ci * k * k;
                let obase = ni * c * oh * ow + ci * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[obase + oy * ow + ox];
                        if let Some(db) = &mut db {
                            db[ci] += g;
                        }
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let src_idx = base + iy as usize * w + ix as usize;
                                dw[wbase + ky * k + kx] += g * x.data()[src_idx];
                                if let Some(cells) = &mut dx_cells {
                                    cells[src_idx] += g * wd[wbase + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        scratch::give_tensor(x);
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
        LayerSpec::DepthwiseConv2d {
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
        if let Some(x) = self.cache.take() {
            scratch::give_tensor(x);
        }
    }
}

/// Scales a `[N, C, H, W]` map by a spatial gate `[N, 1, H, W]` (CBAM's
/// spatial attention). First input: the map; second: the gate.
#[derive(Debug, Clone, Default)]
pub struct BroadcastMulSpatial {
    cache: Option<(Tensor, Tensor)>,
}

impl BroadcastMulSpatial {
    /// A new spatial broadcast-multiply layer.
    pub fn new() -> Self {
        BroadcastMulSpatial { cache: None }
    }
}

impl Layer for BroadcastMulSpatial {
    fn kind(&self) -> &'static str {
        "BroadcastMulSpatial"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 2, "BroadcastMulSpatial takes map and gate");
        let (x, g) = (inputs[0], inputs[1]);
        let d = x.dims();
        assert_eq!(d.len(), 4, "map must be [N,C,H,W]");
        assert_eq!(g.dims(), &[d[0], 1, d[2], d[3]], "gate must be [N,1,H,W]");
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let mut out = Vec::with_capacity(x.numel());
        for (image, gate) in
            (x.data().chunks_exact((c * hw).max(1))).zip(g.data().chunks_exact(hw.max(1)))
        {
            for plane in image.chunks_exact(hw.max(1)) {
                out.extend(plane.iter().zip(gate).map(|(&v, &gv)| v * gv));
            }
        }
        debug_assert_eq!(out.len(), n * c * hw);
        self.cache = Some((x.clone(), g.clone()));
        Tensor::from_vec(out, d)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (x, g) = self
            .cache
            .take()
            .expect("BroadcastMulSpatial backward before forward");
        let d = x.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let mut dx = demand[0].then(|| Tensor::zeros(d));
        let mut dg = demand[1].then(|| Tensor::zeros(g.dims()));
        let mut dx_cells = dx.as_mut().map(Tensor::data_mut);
        let mut dg_cells = dg.as_mut().map(Tensor::data_mut);
        for ni in 0..n {
            for ci in 0..c {
                for p in 0..hw {
                    let go = grad_out.data()[ni * c * hw + ci * hw + p];
                    if let Some(cells) = &mut dx_cells {
                        cells[ni * c * hw + ci * hw + p] = go * g.data()[ni * hw + p];
                    }
                    if let Some(cells) = &mut dg_cells {
                        cells[ni * hw + p] += go * x.data()[ni * c * hw + ci * hw + p];
                    }
                }
            }
        }
        vec![dx, dg]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::BroadcastMulSpatial
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
    fn depthwise_forward_shape() {
        let mut rng = Rng::seed_from(0);
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, true, &mut rng);
        let y = dw.forward(&[&Tensor::zeros(&[2, 3, 8, 8])], Mode::Train);
        assert_eq!(y.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        // A filter of zeros on channel 1 must zero only channel 1's output.
        let mut rng = Rng::seed_from(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, false, &mut rng);
        for v in &mut dw.weight.value.data_mut()[9..18] {
            *v = 0.0;
        }
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = dw.forward(&[&x], Mode::Eval);
        let ch1: f32 = y.data()[16..32].iter().map(|v| v.abs()).sum();
        let ch0: f32 = y.data()[..16].iter().map(|v| v.abs()).sum();
        assert_eq!(ch1, 0.0);
        assert!(ch0 > 0.0);
    }

    #[test]
    fn depthwise_gradcheck() {
        let mut rng = Rng::seed_from(2);
        let dw = DepthwiseConv2d::new(2, 3, 1, 1, true, &mut rng);
        check_layer_gradients(Box::new(dw), &[&[1, 2, 5, 5]], 2e-2, &mut rng);
    }

    #[test]
    fn depthwise_strided_gradcheck() {
        let mut rng = Rng::seed_from(3);
        let dw = DepthwiseConv2d::new(1, 3, 2, 1, false, &mut rng);
        check_layer_gradients(Box::new(dw), &[&[1, 1, 7, 7]], 2e-2, &mut rng);
    }

    #[test]
    fn spatial_broadcast_gradcheck() {
        let mut rng = Rng::seed_from(4);
        check_layer_gradients(
            Box::new(BroadcastMulSpatial::new()),
            &[&[2, 3, 2, 2], &[2, 1, 2, 2]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn depthwise_param_count() {
        let mut rng = Rng::seed_from(5);
        assert_eq!(
            DepthwiseConv2d::new(8, 3, 1, 1, false, &mut rng).param_count(),
            72
        );
    }
}
