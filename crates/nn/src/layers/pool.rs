//! Pooling layers over `[N, C, H, W]` feature maps.

use crate::layer::{Layer, Mode, Param, SegmentKind};
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, Tensor};

fn pool_out(h: usize, k: usize, s: usize) -> usize {
    (h - k) / s + 1
}

/// Max pooling with a square window (no padding).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (input dims, argmax flat indices)
}

impl MaxPool2d {
    /// A new pooling layer (`stride` defaults to `kernel` when equal).
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn kind(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "MaxPool2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "MaxPool2d input must be [N,C,H,W]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = (
            pool_out(h, self.kernel, self.stride),
            pool_out(w, self.kernel, self.stride),
        );
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut arg = vec![0usize; n * c * oh * ow];
        let src = x.data();
        let dst = out.data_mut();
        for nc in 0..n * c {
            let base = nc * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let idx = base + (oy * self.stride + ky) * w + ox * self.stride + kx;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = nc * oh * ow + oy * ow + ox;
                    dst[o] = best;
                    arg[o] = best_idx;
                }
            }
        }
        self.cache = Some((d.to_vec(), arg));
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (dims, arg) = self
            .cache
            .take()
            .expect("MaxPool2d backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let mut dx = Tensor::zeros(&dims);
        dx.scatter_add_flat(&arg, grad_out.data());
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MaxPool2d {
            kernel: self.kernel,
            stride: self.stride,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Average-pools `h × w` planes of `src` into the zeroed `dst`. One output
/// row at a time, one input row at a time: each output adds its window's `k`
/// contiguous cells, so it sums the window in `(ky, kx)` order from zero.
fn avg_pool_rows(src: &[f32], dst: &mut [f32], h: usize, w: usize, k: usize, stride: usize) {
    let (oh, ow) = (pool_out(h, k, stride), pool_out(w, k, stride));
    let inv = 1.0 / (k * k) as f32;
    for (plane, out_plane) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            for ky in 0..k {
                let in_row = &plane[(oy * stride + ky) * w..][..w];
                for (ox, acc) in out_row.iter_mut().enumerate() {
                    for &v in &in_row[ox * stride..ox * stride + k] {
                        *acc += v;
                    }
                }
            }
            for acc in out_row.iter_mut() {
                *acc *= inv;
            }
        }
    }
}

/// Whether 2×2 windows at stride 2 tile an `h × w` plane exactly — every
/// pooling in this workspace. Such a pool owns its cells: forward writes each
/// output once and backward writes each input once, neither zero-fills.
pub(crate) fn tiles_2x2(kernel: usize, stride: usize, h: usize, w: usize) -> bool {
    kernel == 2 && stride == 2 && h.is_multiple_of(2) && w.is_multiple_of(2)
}

/// [`avg_pool_rows`] for 2×2 windows that [tile](tiles_2x2) their planes,
/// into a `dst` whose previous contents are ignored: a cell is written once,
/// as the sum from zero of its window in `(ky, kx)` order times ¼ — the bits
/// of the accumulating loop.
#[inline(always)]
pub(crate) fn avg_pool_2x2(src: &[f32], dst: &mut [f32], w: usize) {
    let rows = src.chunks_exact(2 * w).zip(dst.chunks_exact_mut(w / 2));
    for (pair, out_row) in rows {
        let (top, bottom) = pair.split_at(w);
        let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for (o, (t, b)) in out_row.iter_mut().zip(windows) {
            *o = ((((0.0 + t[0]) + t[1]) + b[0]) + b[1]) * 0.25;
        }
    }
}

/// The adjoint of [`avg_pool_rows`]: spreads each output gradient over its
/// window of the `h × w` planes of `dst` (whose previous contents are
/// ignored), `k` contiguous cells of `k` input rows at a time, so an input
/// cell collects its windows in `(oy, ox)` order from zero.
///
/// Windows that tile the plane exactly (`stride == k`, no remainder) own
/// their cells: each cell is *written* once, as `0 + share`, and the plane is
/// never zero-filled or read. Any other geometry zeroes the plane and adds,
/// as the definition says.
fn avg_unpool_rows(grad: &[f32], dst: &mut [f32], h: usize, w: usize, k: usize, stride: usize) {
    let (oh, ow) = (pool_out(h, k, stride), pool_out(w, k, stride));
    let inv = 1.0 / (k * k) as f32;
    let tiled = stride == k && oh * k == h && ow * k == w;
    for (g_plane, plane) in grad.chunks_exact(oh * ow).zip(dst.chunks_exact_mut(h * w)) {
        if !tiled {
            plane.fill(0.0);
        }
        for (oy, g_row) in g_plane.chunks_exact(ow).enumerate() {
            for ky in 0..k {
                let dx_row = &mut plane[(oy * stride + ky) * w..][..w];
                for (ox, &g) in g_row.iter().enumerate() {
                    let share = g * inv;
                    for cell in &mut dx_row[ox * stride..ox * stride + k] {
                        // `0.0 + share`, not `share`: the sum from zero turns
                        // a `-0.0` share into `+0.0`.
                        let so_far = if tiled { 0.0 } else { *cell };
                        *cell = so_far + share;
                    }
                }
            }
        }
    }
}

/// [`avg_unpool_rows`] for 2×2 windows that [tile](tiles_2x2) their planes:
/// every cell of a window is written once, as `0 + g·¼`. Eight windows of a
/// row pair at a time through a fixed-size block — which the compiler turns
/// into two shuffles and four stores whatever the row width, where the
/// cell-by-cell loop is scalar on the short rows of a 20 px plane.
#[inline(always)]
pub(crate) fn avg_unpool_2x2(grad: &[f32], dst: &mut [f32], w: usize) {
    for (g_row, pair) in grad.chunks_exact(w / 2).zip(dst.chunks_exact_mut(2 * w)) {
        let (top, bottom) = pair.split_at_mut(w);
        let blocks = g_row.chunks_exact(8);
        let rest = blocks.remainder();
        let cells = top.chunks_exact_mut(16).zip(bottom.chunks_exact_mut(16));
        for (g8, (top16, bottom16)) in blocks.zip(cells) {
            let mut shares = [0.0f32; 16];
            for i in 0..8 {
                let share = 0.0 + g8[i] * 0.25;
                (shares[2 * i], shares[2 * i + 1]) = (share, share);
            }
            top16.copy_from_slice(&shares);
            bottom16.copy_from_slice(&shares);
        }
        let done = 2 * (g_row.len() - rest.len());
        let cells = top[done..]
            .chunks_exact_mut(2)
            .zip(bottom[done..].chunks_exact_mut(2));
        for (&g, (top2, bottom2)) in rest.iter().zip(cells) {
            let share = 0.0 + g * 0.25;
            (top2[0], top2[1], bottom2[0], bottom2[1]) = (share, share, share, share);
        }
    }
}

/// Average pooling with a square window (no padding).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cache_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// A new average pooling layer.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            kernel,
            stride,
            cache_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn kind(&self) -> &'static str {
        "AvgPool2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "AvgPool2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "AvgPool2d input must be [N,C,H,W]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = (
            pool_out(h, self.kernel, self.stride),
            pool_out(w, self.kernel, self.stride),
        );
        let out = if tiles_2x2(self.kernel, self.stride, h, w) {
            let mut out = scratch::take_tensor_raw(&[n, c, oh, ow]);
            avg_pool_2x2(x.data(), out.data_mut(), w);
            out
        } else {
            let mut out = scratch::take_tensor(&[n, c, oh, ow]);
            avg_pool_rows(x.data(), out.data_mut(), h, w, self.kernel, self.stride);
            out
        };
        self.cache_dims = Some(d.to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let dims = self
            .cache_dims
            .take()
            .expect("AvgPool2d backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let (h, w) = (dims[2], dims[3]);
        let mut dx = scratch::take_tensor_raw(&dims);
        if tiles_2x2(self.kernel, self.stride, h, w) {
            avg_unpool_2x2(grad_out.data(), dx.data_mut(), w);
        } else {
            let (k, stride) = (self.kernel, self.stride);
            avg_unpool_rows(grad_out.data(), dx.data_mut(), h, w, k, stride);
        }
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::AvgPool2d {
            kernel: self.kernel,
            stride: self.stride,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_dims = None;
    }

    fn segment_kind(&self) -> Option<SegmentKind> {
        Some(SegmentKind::AvgPool {
            kernel: self.kernel,
            stride: self.stride,
        })
    }
}

/// Global average pooling: `[N, C, H, W]` → `[N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool2d {
    cache_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// A new global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool2d { cache_dims: None }
    }
}

impl Layer for GlobalAvgPool2d {
    fn kind(&self) -> &'static str {
        "GlobalAvgPool2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "GlobalAvgPool2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "GlobalAvgPool2d input must be [N,C,H,W]");
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let inv = 1.0 / hw as f32;
        let means = x
            .data()
            .chunks_exact(hw.max(1))
            .map(|plane| plane.iter().sum::<f32>() * inv)
            .collect();
        self.cache_dims = Some(d.to_vec());
        Tensor::from_vec(means, &[n, c])
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let dims = self
            .cache_dims
            .take()
            .expect("GlobalAvgPool2d backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let hw = dims[2] * dims[3];
        let inv = 1.0 / hw as f32;
        let mut dx = Vec::with_capacity(dims.iter().product());
        for &g in grad_out.data() {
            dx.resize(dx.len() + hw, g * inv);
        }
        vec![Some(Tensor::from_vec(dx, &dims))]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::GlobalAvgPool2d
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_dims = None;
    }
}

/// Global max pooling: `[N, C, H, W]` → `[N, C]` (used by CBAM).
#[derive(Debug, Clone, Default)]
pub struct GlobalMaxPool2d {
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl GlobalMaxPool2d {
    /// A new global max pooling layer.
    pub fn new() -> Self {
        GlobalMaxPool2d { cache: None }
    }
}

impl Layer for GlobalMaxPool2d {
    fn kind(&self) -> &'static str {
        "GlobalMaxPool2d"
    }

    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "GlobalMaxPool2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "GlobalMaxPool2d input must be [N,C,H,W]");
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let mut out = vec![0.0f32; n * c];
        let mut arg = vec![0usize; n * c];
        for nc in 0..n * c {
            let row = &x.data()[nc * hw..(nc + 1) * hw];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out[nc] = row[best];
            arg[nc] = nc * hw + best;
        }
        self.cache = Some((d.to_vec(), arg));
        Tensor::from_vec(out, &[n, c])
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (dims, arg) = self
            .cache
            .take()
            .expect("GlobalMaxPool2d backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let mut dx = Tensor::zeros(&dims);
        dx.scatter_add_flat(&arg, grad_out.data());
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::GlobalMaxPool2d
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Channel statistics for CBAM's spatial attention:
/// `[N, C, H, W]` → `[N, 2, H, W]` holding the per-pixel channel mean and max.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    cache: Option<(Vec<usize>, Vec<usize>)>, // (dims, argmax channel per pixel)
}

impl ChannelStats {
    /// A new channel-statistics layer.
    pub fn new() -> Self {
        ChannelStats { cache: None }
    }
}

impl Layer for ChannelStats {
    fn kind(&self) -> &'static str {
        "ChannelStats"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "ChannelStats takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "ChannelStats input must be [N,C,H,W]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let hw = h * w;
        let inv_c = 1.0 / c as f32;
        let mut out = Tensor::zeros(&[n, 2, h, w]);
        let stats = out.data_mut();
        let mut arg = vec![0usize; n * hw];
        for ni in 0..n {
            for p in 0..hw {
                let mut sum = 0.0f32;
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for ci in 0..c {
                    let v = x.data()[ni * c * hw + ci * hw + p];
                    sum += v;
                    if v > best_v {
                        best_v = v;
                        best = ci;
                    }
                }
                stats[ni * 2 * hw + p] = sum * inv_c;
                stats[ni * 2 * hw + hw + p] = best_v;
                arg[ni * hw + p] = ni * c * hw + best * hw + p;
            }
        }
        self.cache = Some((d.to_vec(), arg));
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (dims, arg) = self
            .cache
            .take()
            .expect("ChannelStats backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let inv_c = 1.0 / c as f32;
        let mut dx = Tensor::zeros(&dims);
        let cells = dx.data_mut();
        for ni in 0..n {
            for p in 0..hw {
                let g_mean = grad_out.data()[ni * 2 * hw + p] * inv_c;
                for ci in 0..c {
                    cells[ni * c * hw + ci * hw + p] += g_mean;
                }
                let g_max = grad_out.data()[ni * 2 * hw + hw + p];
                cells[arg[ni * hw + p]] += g_max;
            }
        }
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::ChannelStats
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
    use amalgam_tensor::Rng;

    #[test]
    fn maxpool_2x2_halves_dims() {
        let mut l = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = l.forward(&[&x], Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avgpool_matches_mean() {
        let mut l = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = l.forward(&[&x], Mode::Eval);
        assert!(y.approx_eq(&Tensor::ones(&[1, 1, 2, 2]), 1e-6));
    }

    #[test]
    fn global_pools_shapes() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let mut ga = GlobalAvgPool2d::new();
        assert_eq!(ga.forward(&[&x], Mode::Eval).data(), &[1.5, 5.5]);
        let mut gm = GlobalMaxPool2d::new();
        assert_eq!(gm.forward(&[&x], Mode::Eval).data(), &[3.0, 7.0]);
    }

    #[test]
    fn channel_stats_mean_and_max() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]);
        let mut cs = ChannelStats::new();
        let y = cs.forward(&[&x], Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 1, 2]);
        assert_eq!(y.data(), &[2.0, 3.0, 3.0, 4.0]); // mean row then max row
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut rng = Rng::seed_from(0);
        check_layer_gradients(
            Box::new(MaxPool2d::new(2, 2)),
            &[&[1, 2, 4, 4]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut rng = Rng::seed_from(1);
        check_layer_gradients(
            Box::new(AvgPool2d::new(2, 2)),
            &[&[1, 2, 4, 4]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn global_avg_gradcheck() {
        let mut rng = Rng::seed_from(2);
        check_layer_gradients(
            Box::new(GlobalAvgPool2d::new()),
            &[&[2, 3, 3, 3]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn global_max_gradcheck() {
        let mut rng = Rng::seed_from(3);
        check_layer_gradients(
            Box::new(GlobalMaxPool2d::new()),
            &[&[2, 3, 3, 3]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn channel_stats_gradcheck() {
        let mut rng = Rng::seed_from(4);
        check_layer_gradients(
            Box::new(ChannelStats::new()),
            &[&[2, 3, 2, 2]],
            1e-2,
            &mut rng,
        );
    }
}
