//! Multi-head self-attention (transformer building block).
//!
//! All per-(batch, head) products — Q·Kᵀ and P·V in the forward pass, and the
//! four products of the backward pass — run through the batched GEMM
//! (`matmul_batch_*`), so a layer with `B·H` heads makes **one** kernel call
//! per product instead of `B·H`, and the `1/√dh` score scale is folded into the
//! batched Q·Kᵀ epilogue. Heads are staged head-major (`[B·H, T, dh]`) in
//! scratch-arena tensors so the batched kernels see contiguous row-major items;
//! a head too small for the blocked GEMM (every head of the benchmark's LM)
//! runs on the no-pack register tile there, not on the direct loop a single
//! product of its shape would take — same bits either way.
//!
//! The softmax over score rows is the workspace's one softmax
//! (`tensor::softmax_rows_in_place`, on the in-tree lane-exact `exp`); with
//! `causal = true` row `i` is normalised over its first `i + 1` scores only
//! and the masked tail is written as exact zeros — the bits a `−∞` mask
//! would give, without exponentiating it.

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use amalgam_tensor::tensor::{softmax_causal_rows_in_place, softmax_rows_in_place};
use amalgam_tensor::{kernels, scratch, Rng, Tensor};

/// Multi-head scaled-dot-product self-attention over `[B, T, D]`.
///
/// Projections are `[D, D]` matrices applied as `X @ W`; with `causal = true`
/// position `i` may only attend to positions `≤ i` (language modelling).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    heads: usize,
    causal: bool,
    cache: Option<AttnCache>,
    /// What the weight half reads, kept by the input half.
    kept: Option<WeightOperands>,
}

/// What `forward` leaves for the input half.
#[derive(Debug, Clone)]
struct AttnCache {
    x2d: Tensor, // [B*T, D]
    qh: Tensor,  // head-major [B*H, T, dh]
    kh: Tensor,
    vh: Tensor,
    o: Tensor,     // pre-Wo concat of heads, [B*T, D]
    probs: Tensor, // [B*H, T, T]
    bt: (usize, usize),
}

/// What the input half leaves for the weight half: the products' left
/// operands (`[B*T, D]` each) and their right ones.
#[derive(Debug, Clone)]
struct WeightOperands {
    x2d: Tensor,
    o: Tensor,
    /// The gradients of Q, K and V, merged back to `[B*T, D]`.
    dqkv: [Tensor; 3],
}

/// Restages a `[B*T, D]` projection head-major as `[B*H, T, dh]` in a
/// scratch-backed tensor (return with [`scratch::give_tensor`] when done).
fn split_heads(src: &Tensor, b: usize, t: usize, h: usize, dh: usize) -> Tensor {
    let d = h * dh;
    let mut out = scratch::take_tensor_raw(&[b * h, t, dh]);
    let dst = out.data_mut();
    let data = src.data();
    for bi in 0..b {
        for hi in 0..h {
            let head = (bi * h + hi) * t * dh;
            for r in 0..t {
                let row = (bi * t + r) * d + hi * dh;
                dst[head + r * dh..head + (r + 1) * dh].copy_from_slice(&data[row..row + dh]);
            }
        }
    }
    out
}

/// The adjoint restaging: head-major `[B*H, T, dh]` back to `[B*T, D]`
/// (each head owns a disjoint column slice, so this is a pure copy).
fn merge_heads(heads: &Tensor, b: usize, t: usize, h: usize, dh: usize) -> Tensor {
    let d = h * dh;
    let mut out = scratch::take_tensor_raw(&[b * t, d]);
    let dst = out.data_mut();
    let data = heads.data();
    for bi in 0..b {
        for hi in 0..h {
            let head = (bi * h + hi) * t * dh;
            for r in 0..t {
                let row = (bi * t + r) * d + hi * dh;
                dst[row..row + dh].copy_from_slice(&data[head + r * dh..head + (r + 1) * dh]);
            }
        }
    }
    out
}

impl MultiHeadSelfAttention {
    /// A new attention block with `heads` heads over model dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, causal: bool, rng: &mut Rng) -> Self {
        assert_eq!(
            dim % heads,
            0,
            "dim {dim} must be divisible by heads {heads}"
        );
        let bound = (1.0 / dim as f32).sqrt();
        let mut mk = || Param::new(Tensor::rand_uniform(&[dim, dim], -bound, bound, rng));
        MultiHeadSelfAttention {
            wq: mk(),
            wk: mk(),
            wv: mk(),
            wo: mk(),
            heads,
            causal,
            cache: None,
            kept: None,
        }
    }

    /// Reassembles from explicit projection matrices (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not all `[D, D]` with `D % heads == 0`.
    pub fn from_params(
        wq: Tensor,
        wk: Tensor,
        wv: Tensor,
        wo: Tensor,
        heads: usize,
        causal: bool,
    ) -> Self {
        let d = wq.dims()[0];
        for m in [&wq, &wk, &wv, &wo] {
            assert_eq!(
                m.dims(),
                &[d, d],
                "attention projections must be square [D,D]"
            );
        }
        assert_eq!(d % heads, 0, "dim must divide heads");
        MultiHeadSelfAttention {
            wq: Param::new(wq),
            wk: Param::new(wk),
            wv: Param::new(wv),
            wo: Param::new(wo),
            heads,
            causal,
            cache: None,
            kept: None,
        }
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.wq.value.dims()[0]
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// `w.grad += leftᵀ · right`, through the scratch accumulator `dw`.
    fn accumulate(w: &mut Param, left: &Tensor, right: &Tensor, dw: &mut Tensor) {
        kernels::matmul_tn_into(left, right, dw);
        w.grad.add_assign(dw);
    }

    /// `dO = g · Woᵀ`, `[B*T, D]`, from the output gradient as rows.
    fn output_gradient(&self, g2d: &Tensor) -> Tensor {
        let mut d_o = scratch::take_tensor_raw(g2d.dims());
        kernels::matmul_nt_into(g2d, &self.wo.value, &mut d_o);
        d_o
    }

    /// The gradients of Q, K and V (`[B*T, D]` each) from `dO` and the
    /// forward's head-major stagings, which are given back on the way.
    fn projection_gradients(
        &self,
        d_o: Tensor,
        [qh, kh, vh]: [Tensor; 3],
        probs: Tensor,
        (b, t): (usize, usize),
    ) -> [Tensor; 3] {
        let h = self.heads;
        let dh = self.dim() / h;
        let alpha = 1.0 / (dh as f32).sqrt();
        let doh = split_heads(&d_o, b, t, h, dh);
        scratch::give_tensor(d_o);

        // dP = dO · Vᵀ and dV = Pᵀ · dO, each as one batched dispatch.
        let mut dp = scratch::take_tensor_raw(&[b * h, t, t]);
        kernels::matmul_batch_nt_into(&doh, &vh, &mut dp);
        let mut dvh = scratch::take_tensor_raw(&[b * h, t, dh]);
        kernels::matmul_batch_tn_into(&probs, &doh, &mut dvh);
        scratch::give_tensor(doh);

        // Softmax backward per row, in place: dS = α · P ∘ (dP - rowsum(dP ∘ P)).
        // The α factor multiplies each element once after the product — the
        // same two roundings as a separate scale pass, without re-sweeping
        // the largest backward temporary.
        let mut ds = dp;
        for (srow, prow) in ds.data_mut().chunks_mut(t).zip(probs.data().chunks(t)) {
            let dot: f32 = prow
                .iter()
                .zip(srow.iter())
                .map(|(&pv, &dpv)| pv * dpv)
                .sum();
            for (sv, &pv) in srow.iter_mut().zip(prow) {
                *sv = (pv * (*sv - dot)) * alpha;
            }
        }
        scratch::give_tensor(probs);

        // dQ = dS · K and dK = dSᵀ · Q, batched.
        let mut dqh = scratch::take_tensor_raw(&[b * h, t, dh]);
        kernels::matmul_batch_into(&ds, &kh, &mut dqh);
        let mut dkh = scratch::take_tensor_raw(&[b * h, t, dh]);
        kernels::matmul_batch_tn_into(&ds, &qh, &mut dkh);
        for staging in [ds, qh, kh, vh] {
            scratch::give_tensor(staging);
        }

        let dq = merge_heads(&dqh, b, t, h, dh);
        let dk = merge_heads(&dkh, b, t, h, dh);
        let dv = merge_heads(&dvh, b, t, h, dh);
        for staging in [dqh, dkh, dvh] {
            scratch::give_tensor(staging);
        }
        [dq, dk, dv]
    }

    /// `dx = dQ · Wqᵀ + dK · Wkᵀ + dV · Wvᵀ`, as `[B, T, D]`.
    fn input_gradient(&self, [dq, dk, dv]: &[Tensor; 3], b: usize, t: usize) -> Tensor {
        let d = self.dim();
        let mut dx = dq.matmul_nt(&self.wq.value);
        let mut tmp = scratch::take_tensor_raw(&[b * t, d]);
        kernels::matmul_nt_into(dk, &self.wk.value, &mut tmp);
        dx.add_assign(&tmp);
        kernels::matmul_nt_into(dv, &self.wv.value, &mut tmp);
        dx.add_assign(&tmp);
        scratch::give_tensor(tmp);
        dx.reshape_in_place(&[b, t, d]);
        dx
    }

    /// Recycles the cached tensors into the scratch arena (forward replaces
    /// the cache on every call; eval loops would otherwise churn the
    /// allocator).
    fn reclaim_cache(&mut self) {
        if let Some(cache) = self.cache.take() {
            let AttnCache {
                x2d,
                qh,
                kh,
                vh,
                o,
                probs,
                ..
            } = cache;
            for staging in [x2d, qh, kh, vh, o, probs] {
                scratch::give_tensor(staging);
            }
        }
        if let Some(WeightOperands { x2d, o, dqkv }) = self.kept.take() {
            for staging in [x2d, o].into_iter().chain(dqkv) {
                scratch::give_tensor(staging);
            }
        }
    }
}

impl Layer for MultiHeadSelfAttention {
    fn kind(&self) -> &'static str {
        "MultiHeadSelfAttention"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "attention takes one input");
        let x = inputs[0];
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "attention input must be [B,T,D]");
        let (b, t, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.dim(), "attention dim mismatch");
        let h = self.heads;
        let dh = d / h;
        let alpha = 1.0 / (dh as f32).sqrt();
        self.reclaim_cache();

        let x2d = x.reshape(&[b * t, d]);
        let mut q = scratch::take_tensor_raw(&[b * t, d]);
        kernels::matmul_into(&x2d, &self.wq.value, &mut q);
        let mut k = scratch::take_tensor_raw(&[b * t, d]);
        kernels::matmul_into(&x2d, &self.wk.value, &mut k);
        let mut v = scratch::take_tensor_raw(&[b * t, d]);
        kernels::matmul_into(&x2d, &self.wv.value, &mut v);

        let qh = split_heads(&q, b, t, h, dh);
        let kh = split_heads(&k, b, t, h, dh);
        let vh = split_heads(&v, b, t, h, dh);
        for staging in [v, k, q] {
            scratch::give_tensor(staging);
        }

        // All B·H score products in one batched dispatch, scale folded in.
        let mut probs = scratch::take_tensor_raw(&[b * h, t, t]);
        kernels::matmul_batch_nt_scaled_into(&qh, &kh, alpha, &mut probs);
        // Under the causal mask a row is its first `i + 1` scores; the rest
        // become exact zeros without being exponentiated.
        if self.causal {
            softmax_causal_rows_in_place(probs.data_mut(), t);
        } else {
            softmax_rows_in_place(probs.data_mut(), t);
        }

        let mut oh = scratch::take_tensor_raw(&[b * h, t, dh]);
        kernels::matmul_batch_into(&probs, &vh, &mut oh);
        let o = merge_heads(&oh, b, t, h, dh);
        scratch::give_tensor(oh);

        let mut y = o.matmul(&self.wo.value);
        self.cache = Some(AttnCache {
            x2d,
            qh,
            kh,
            vh,
            o,
            probs,
            bt: (b, t),
        });
        y.reshape_in_place(&[b, t, d]);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let cache = self
            .cache
            .take()
            .expect("attention backward before forward");
        let d = self.dim();
        let (b, t) = cache.bt;
        let g2d = grad_out.reshape(&[b * t, d]);
        // The weight products where their operands are first at hand, one
        // scratch accumulator for all four: Wo's before the chain, which
        // then releases `o`, and Q's, K's and V's after it.
        let mut dw = scratch::take_tensor_raw(&[d, d]);
        Self::accumulate(&mut self.wo, &cache.o, &g2d, &mut dw);
        let d_o = self.output_gradient(&g2d);
        scratch::give_tensor(cache.o);
        let heads = [cache.qh, cache.kh, cache.vh];
        let dqkv = self.projection_gradients(d_o, heads, cache.probs, (b, t));
        for (w, dp) in [&mut self.wq, &mut self.wk, &mut self.wv]
            .into_iter()
            .zip(&dqkv)
        {
            Self::accumulate(w, &cache.x2d, dp, &mut dw);
        }
        scratch::give_tensor(dw);
        scratch::give_tensor(cache.x2d);
        let dx = demand[0].then(|| self.input_gradient(&dqkv, b, t));
        for staging in dqkv.into_iter().rev() {
            scratch::give_tensor(staging);
        }
        vec![dx]
    }

    fn backward_input(
        &mut self,
        grad_out: &Tensor,
        demand: &[bool],
    ) -> (Vec<Option<Tensor>>, bool) {
        let AttnCache {
            x2d,
            qh,
            kh,
            vh,
            o,
            probs,
            bt: (b, t),
        } = self
            .cache
            .take()
            .expect("attention backward before forward");
        let g2d = grad_out.reshape(&[b * t, self.dim()]);
        let d_o = self.output_gradient(&g2d);
        let dqkv = self.projection_gradients(d_o, [qh, kh, vh], probs, (b, t));
        let dx = demand[0].then(|| self.input_gradient(&dqkv, b, t));
        self.kept = Some(WeightOperands { x2d, o, dqkv });
        (vec![dx], true)
    }

    fn backward_weights(&mut self, grad_out: &Tensor, spent: &mut dyn FnMut(Tensor)) {
        let WeightOperands { x2d, o, dqkv } = self
            .kept
            .take()
            .expect("attention weight half before its input half");
        let d = self.dim();
        let g2d = grad_out.reshape(&[x2d.dims()[0], d]);
        let mut dw = scratch::take_tensor_raw(&[d, d]);
        Self::accumulate(&mut self.wo, &o, &g2d, &mut dw);
        for (w, dp) in [&mut self.wq, &mut self.wk, &mut self.wv]
            .into_iter()
            .zip(&dqkv)
        {
            Self::accumulate(w, &x2d, dp, &mut dw);
        }
        scratch::give_tensor(dw);
        for staging in [x2d, o].into_iter().chain(dqkv) {
            spent(staging);
        }
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MultiHeadSelfAttention {
            wq: self.wq.value.clone(),
            wk: self.wk.value.clone(),
            wv: self.wv.value.clone(),
            wo: self.wo.value.clone(),
            heads: self.heads,
            causal: self.causal,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.reclaim_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(0);
        let mut a = MultiHeadSelfAttention::new(8, 2, false, &mut rng);
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        assert_eq!(a.forward(&[&x], Mode::Train).dims(), &[2, 5, 8]);
    }

    #[test]
    fn causal_mask_ignores_future() {
        // With a causal mask, output at position 0 must not change when we
        // perturb positions > 0.
        let mut rng = Rng::seed_from(1);
        let mut a = MultiHeadSelfAttention::new(4, 1, true, &mut rng);
        let x1 = Tensor::randn(&[1, 3, 4], &mut rng);
        let mut x2 = x1.clone();
        for i in 4..12 {
            x2.data_mut()[i] += 1.0; // perturb positions 1 and 2
        }
        let y1 = a.forward(&[&x1], Mode::Eval);
        let y2 = a.forward(&[&x2], Mode::Eval);
        for j in 0..4 {
            assert!(
                (y1.data()[j] - y2.data()[j]).abs() < 1e-5,
                "position 0 leaked future info"
            );
        }
    }

    #[test]
    fn split_merge_heads_round_trip() {
        let mut rng = Rng::seed_from(5);
        let (b, t, h, dh) = (2usize, 3usize, 2usize, 4usize);
        let x = Tensor::randn(&[b * t, h * dh], &mut rng);
        let heads = split_heads(&x, b, t, h, dh);
        assert_eq!(heads.dims(), &[b * h, t, dh]);
        let back = merge_heads(&heads, b, t, h, dh);
        assert_eq!(back.data(), x.data());
        scratch::give_tensor(heads);
        scratch::give_tensor(back);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(2);
        let a = MultiHeadSelfAttention::new(4, 2, false, &mut rng);
        check_layer_gradients(Box::new(a), &[&[1, 3, 4]], 3e-2, &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences_causal() {
        let mut rng = Rng::seed_from(3);
        let a = MultiHeadSelfAttention::new(4, 1, true, &mut rng);
        check_layer_gradients(Box::new(a), &[&[1, 3, 4]], 3e-2, &mut rng);
    }

    #[test]
    fn param_count_is_4d2() {
        let mut rng = Rng::seed_from(4);
        let a = MultiHeadSelfAttention::new(8, 2, false, &mut rng);
        assert_eq!(a.param_count(), 4 * 64);
    }
}
