//! Normalization layers.

use crate::layer::{Layer, Mode, Param, SegmentKind};
use crate::layers::reduce::fold_rows;
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, simd, Tensor};

/// Batch normalization over the channel axis of `[N, C, H, W]`.
///
/// Keeps running statistics for evaluation; uses biased batch variance during
/// training, like the reference PyTorch implementation's normalisation step.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    momentum: f32,
    cache: Option<BnCache>,
}

/// What backward needs of the forward pass. The normalised activations are
/// not among it: `x̂ = (x − μ)·σ⁻¹` is recomputed from the input — which is
/// shared with whoever produced it, not copied — to the same bits, so the
/// forward pass writes one tensor instead of two.
#[derive(Debug, Clone)]
struct BnCache {
    x: Tensor,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    train: bool,
}

impl BnCache {
    /// Recycles the cache's buffers into the scratch arena.
    fn reclaim(self) {
        scratch::give_tensor(self.x);
        scratch::give(self.mean);
        scratch::give(self.inv_std);
    }
}

impl BatchNorm2d {
    /// A new batch norm over `channels` with γ=1, β=0.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Reassembles from explicit tensors (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if the four tensors do not share one `[C]` shape.
    pub fn from_params(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Self {
        let c = gamma.numel();
        assert!(
            beta.numel() == c && running_mean.numel() == c && running_var.numel() == c,
            "BatchNorm2d tensors must all be [C]"
        );
        BatchNorm2d {
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            running_mean,
            running_var,
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.numel()
    }

    /// The running mean buffer.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running variance buffer.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The per-channel `(μ, σ⁻¹)` that normalise `x: [N, C, H, W]`: the batch's
    /// own in training — which also moves the running statistics towards
    /// them — and the running ones in evaluation.
    ///
    /// A channel's mean adds up one partial sum per image and its variance is
    /// one chain over every element, both in storage order; the channels go
    /// through `fold_rows` together.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, C, H, W]` with this layer's channel count.
    pub(crate) fn statistics(&mut self, x: &Tensor, train: bool) -> (Vec<f32>, Vec<f32>) {
        let d = x.dims();
        assert_eq!(d.len(), 4, "BatchNorm2d input must be [N,C,H,W]");
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        assert_eq!(c, self.channels(), "BatchNorm2d channel mismatch");
        let m = (n * hw) as f32;
        let images = || x.data().chunks_exact(c * hw);
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        if train {
            let mut partial = vec![0.0f32; c];
            for image in images() {
                partial.fill(-0.0); // what `Iterator::sum` starts from
                fold_rows(&mut partial, [image], hw, |_, sum, [v]| sum + v);
                for (total, &part) in mean.iter_mut().zip(&partial) {
                    *total += part;
                }
            }
            mean.iter_mut().for_each(|total| *total /= m);
            for image in images() {
                fold_rows(&mut var, [image], hw, |ci, sum, [v]| {
                    sum + (v - mean[ci]) * (v - mean[ci])
                });
            }
            var.iter_mut().for_each(|total| *total /= m);
            let momentum = self.momentum;
            let running = self.running_mean.data_mut().iter_mut();
            for (rm, &mu) in running.zip(&mean) {
                *rm = (1.0 - momentum) * *rm + momentum * mu;
            }
            let running = self.running_var.data_mut().iter_mut();
            for (rv, &v) in running.zip(&var) {
                *rv = (1.0 - momentum) * *rv + momentum * v;
            }
        } else {
            mean.copy_from_slice(self.running_mean.data());
            var.copy_from_slice(self.running_var.data());
        }
        let mut inv_std = var;
        for v in inv_std.iter_mut() {
            *v = 1.0 / (*v + self.eps).sqrt();
        }
        (mean, inv_std)
    }

    /// `(γ, β)`, one value per channel.
    pub(crate) fn affine(&self) -> (&[f32], &[f32]) {
        (self.gamma.value.data(), self.beta.value.data())
    }

    /// Adds one batch's `(dγ, dβ)` sums, channel by channel, onto the
    /// accumulated gradients.
    pub(crate) fn accumulate_grads(&mut self, sums: impl IntoIterator<Item = (f32, f32)>) {
        let accumulated = self.gamma.grad.data_mut().iter_mut();
        for ((dg, db), (dgamma, dbeta)) in accumulated.zip(self.beta.grad.data_mut()).zip(sums) {
            *dg += dgamma;
            *db += dbeta;
        }
    }
}

/// `γ·x̂ + β` of one element.
#[inline(always)]
pub(crate) fn normalise(v: f32, mu: f32, istd: f32, gamma: f32, beta: f32) -> f32 {
    gamma * ((v - mu) * istd) + beta
}

/// Everything of a training-mode input gradient that is fixed for a channel.
#[derive(Clone, Copy)]
pub(crate) struct DxChannel {
    mu: f32,
    istd: f32,
    scale: f32,
    shift: f32,
    dgamma: f32,
    m: f32,
}

impl DxChannel {
    /// For a channel with statistics `(mu, istd)`, scale `gamma` and batch
    /// sums `(dgamma, dbeta)` over `m` elements.
    pub(crate) fn new(mu: f32, istd: f32, gamma: f32, sums: (f32, f32), m: f32) -> Self {
        DxChannel {
            mu,
            istd,
            scale: gamma * istd,
            shift: sums.1 / m,
            dgamma: sums.0,
            m,
        }
    }

    /// `dx` of the element whose input was `v` and output gradient `dy`.
    #[inline(always)]
    pub(crate) fn dx(&self, dy: f32, v: f32) -> f32 {
        let xh = (v - self.mu) * self.istd;
        self.scale * (dy - self.shift - xh * self.dgamma / self.m)
    }
}

impl Layer for BatchNorm2d {
    fn kind(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "BatchNorm2d takes one input");
        let x = inputs[0];
        if let Some(stale) = self.cache.take() {
            stale.reclaim();
        }
        let train = mode == Mode::Train;
        let (mean, inv_std) = self.statistics(x, train);
        let d = x.dims();
        let (c, hw) = (d[1], d[2] * d[3]);

        // Every element of `out` is written below, so the raw (non-zeroing)
        // arena variant is safe.
        let mut out = scratch::take_tensor_raw(d);
        let (gamma, beta) = self.affine();
        let planes = x.data().chunks_exact(hw);
        let targets = out.data_mut().chunks_exact_mut(hw);
        for (plane, (src, dst)) in planes.zip(targets).enumerate() {
            let ci = plane % c;
            let (mu, istd, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
            for (&v, o) in src.iter().zip(dst) {
                *o = normalise(v, mu, istd, g, b);
            }
        }
        self.cache = Some(BnCache {
            x: x.clone(),
            mean,
            inv_std,
            train,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d backward before forward");
        let BnCache {
            x,
            mean,
            inv_std,
            train,
        } = &cache;
        let d = x.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let m = (n * hw) as f32;

        // (dγ, dβ) of this batch: one chain each per channel over every
        // element in storage order, the channels advanced together.
        let mut sums = vec![(0.0f32, 0.0f32); c];
        let grads = grad_out.data().chunks_exact(c * hw);
        for (dy, x) in grads.zip(x.data().chunks_exact(c * hw)) {
            fold_rows(&mut sums, [dy, x], hw, |ci, (dgamma, dbeta), [dy, v]| {
                let xh = (v - mean[ci]) * inv_std[ci];
                (dgamma + dy * xh, dbeta + dy)
            });
        }
        self.accumulate_grads(sums.iter().copied());

        let dx = demand[0].then(|| {
            let mut dx = scratch::take_tensor_raw(d);
            let gamma = self.gamma.value.data();
            let planes = grad_out.data().chunks_exact(hw);
            let inputs = x.data().chunks_exact(hw);
            let targets = dx.data_mut().chunks_exact_mut(hw);
            for (plane, ((dy, src), dst)) in planes.zip(inputs).zip(targets).enumerate() {
                let ci = plane % c;
                if *train {
                    let channel = DxChannel::new(mean[ci], inv_std[ci], gamma[ci], sums[ci], m);
                    for ((&dy, &v), o) in dy.iter().zip(src).zip(dst) {
                        *o = channel.dx(dy, v);
                    }
                } else {
                    let scale = gamma[ci] * inv_std[ci];
                    for (&dy, o) in dy.iter().zip(dst) {
                        *o = scale * dy;
                    }
                }
            }
            dx
        });
        cache.reclaim();
        vec![dx]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&self) -> Vec<&Tensor> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::BatchNorm2d {
            gamma: self.gamma.value.clone(),
            beta: self.beta.value.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        if let Some(stale) = self.cache.take() {
            stale.reclaim();
        }
    }

    fn segment_kind(&self) -> Option<SegmentKind> {
        Some(SegmentKind::BatchNorm)
    }
}

/// Layer normalization over the last dimension (transformer-style).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    cache: Option<(Tensor, Vec<f32>)>, // (xhat, inv_std per row)
}

impl LayerNorm {
    /// A new layer norm over vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones(&[dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Reassembles from explicit tensors (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if γ and β shapes differ.
    pub fn from_params(gamma: Tensor, beta: Tensor) -> Self {
        assert_eq!(gamma.numel(), beta.numel(), "LayerNorm gamma/beta mismatch");
        LayerNorm {
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalised dimension.
    pub fn dim(&self) -> usize {
        self.gamma.numel()
    }
}

impl Layer for LayerNorm {
    fn kind(&self) -> &'static str {
        "LayerNorm"
    }

    /// Per row, `μ` and `σ⁻¹` from two chains over the row — `Σx` and
    /// `Σ(x − μ)²`, each first to last from `-0.0` (what `Iterator::sum`
    /// starts from) — eight rows advanced side by side in the lanes of one
    /// register ([`simd::row_chains`]); then `x̂ = (x − μ)·σ⁻¹` and `γ·x̂ + β`
    /// along each row.
    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "LayerNorm takes one input");
        let x = inputs[0];
        let dim = self.dim();
        assert_eq!(
            *x.dims().last().expect("LayerNorm input rank >= 1"),
            dim,
            "LayerNorm dim mismatch"
        );
        let rows = x.numel() / dim;
        if let Some((stale_xhat, stale_inv)) = self.cache.take() {
            scratch::give_tensor(stale_xhat);
            scratch::give(stale_inv);
        }
        let len = dim as f32;
        let mut mean = scratch::take_raw(rows);
        mean.fill(-0.0);
        simd::row_chains(&mut mean, x.data(), None, dim);
        mean.iter_mut().for_each(|sum| *sum /= len);
        // `x − μ`, staged where `x̂` goes, is both factors of every square.
        let mut xhat = scratch::take_tensor_raw(x.dims());
        let centred = xhat.data_mut().chunks_exact_mut(dim);
        for ((c, src), &mu) in centred.zip(x.data().chunks_exact(dim)).zip(&mean) {
            c.iter_mut().zip(src).for_each(|(c, &v)| *c = v - mu);
        }
        let mut inv_std = mean;
        inv_std.fill(-0.0);
        simd::row_chains(&mut inv_std, xhat.data(), Some(xhat.data()), dim);
        for v in inv_std.iter_mut() {
            *v = 1.0 / (*v / len + self.eps).sqrt();
        }
        // Fully overwritten below, so the raw arena variant is safe.
        let mut out = scratch::take_tensor_raw(x.dims());
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let targets = xhat
            .data_mut()
            .chunks_exact_mut(dim)
            .zip(out.data_mut().chunks_exact_mut(dim));
        for ((xh, y), &istd) in targets.zip(&inv_std) {
            let affine = gamma.iter().zip(beta);
            for ((xh, y), (&g, &b)) in xh.iter_mut().zip(y).zip(affine) {
                *xh *= istd;
                *y = g * *xh + b;
            }
        }
        self.cache = Some((xhat, inv_std));
        out
    }

    /// `dγ += dy·x̂` and `dβ += dy` along each row, rows in order; `dx` only
    /// when demanded, from the row sums `Σ dy·γ` and `Σ dy·γ·x̂` (each from
    /// `0.0`, first to last, eight rows side by side in register lanes),
    /// with `dy·γ` staged in the `dx` buffer.
    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (xhat, inv_std) = self
            .cache
            .take()
            .expect("LayerNorm backward before forward");
        let dim = self.dim();
        let rows = xhat.numel() / dim;
        let gamma = self.gamma.value.data();
        let (dgamma, dbeta) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        let rows_of = xhat
            .data()
            .chunks_exact(dim)
            .zip(grad_out.data().chunks_exact(dim));
        let Some(mut dx) = demand[0].then(|| scratch::take_tensor_raw(xhat.dims())) else {
            for (xh, dy) in rows_of {
                let grads = dgamma.iter_mut().zip(dbeta.iter_mut());
                for ((dg, db), (&x, &d)) in grads.zip(xh.iter().zip(dy)) {
                    *dg += d * x;
                    *db += d;
                }
            }
            scratch::give_tensor(xhat);
            scratch::give(inv_std);
            return vec![None];
        };
        // The same pass stages `dy·γ` in the `dx` buffer.
        for ((xh, dy), dyg) in rows_of.zip(dx.data_mut().chunks_exact_mut(dim)) {
            let grads = dgamma.iter_mut().zip(dbeta.iter_mut());
            let staged = dyg.iter_mut().zip(gamma);
            for (((dg, db), (o, &g)), (&x, &d)) in grads.zip(staged).zip(xh.iter().zip(dy)) {
                *dg += d * x;
                *db += d;
                *o = d * g;
            }
        }
        let (mut sums, mut dots) = (vec![0.0f32; rows], vec![0.0f32; rows]);
        simd::row_chains(&mut sums, dx.data(), None, dim);
        simd::row_chains(&mut dots, dx.data(), Some(xhat.data()), dim);
        let len = dim as f32;
        let rows_of = dx
            .data_mut()
            .chunks_exact_mut(dim)
            .zip(xhat.data().chunks_exact(dim));
        let row_sums = sums.iter().zip(&dots).zip(&inv_std);
        for ((row, xh), ((&s, &sx), &istd)) in rows_of.zip(row_sums) {
            let mean_dyg = s / len;
            for (o, &x) in row.iter_mut().zip(xh) {
                *o = istd * (*o - mean_dyg - x * sx / len);
            }
        }
        scratch::give_tensor(xhat);
        scratch::give(inv_std);
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::LayerNorm {
            gamma: self.gamma.value.clone(),
            beta: self.beta.value.clone(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        if let Some((xhat, inv_std)) = self.cache.take() {
            scratch::give_tensor(xhat);
            scratch::give(inv_std);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use amalgam_tensor::Rng;

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut rng = Rng::seed_from(0);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], &mut rng)
            .scale(3.0)
            .add_scalar(5.0);
        let y = bn.forward(&[&x], Mode::Train);
        // Each channel of the output should be ~zero-mean, ~unit-variance.
        let (n, c, hw) = (4, 2, 9);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                vals.extend_from_slice(
                    &y.data()[ni * c * hw + ci * hw..ni * c * hw + (ci + 1) * hw],
                );
            }
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(&[8, 1, 4, 4], &mut rng);
        for _ in 0..50 {
            bn.forward(&[&x], Mode::Train);
        }
        let y_train = bn.forward(&[&x], Mode::Train);
        let y_eval = bn.forward(&[&x], Mode::Eval);
        // After many updates on the same batch, running stats ≈ batch stats.
        assert!(y_train.max_abs_diff(&y_eval) < 0.1);
    }

    #[test]
    fn batchnorm_gradcheck_train() {
        let mut rng = Rng::seed_from(2);
        check_layer_gradients(
            Box::new(BatchNorm2d::new(2)),
            &[&[3, 2, 2, 2]],
            3e-2,
            &mut rng,
        );
    }

    #[test]
    fn layernorm_rows_normalized() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = ln.forward(&[&x], Mode::Eval);
        let mean = y.mean();
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut rng = Rng::seed_from(3);
        check_layer_gradients(Box::new(LayerNorm::new(5)), &[&[3, 5]], 3e-2, &mut rng);
    }
}
