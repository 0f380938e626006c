//! Amalgam's custom input layers (paper §4.2, Eq. 1 and Eq. 2).
//!
//! Every sub-network of an augmented model begins with one of these. A
//! [`MaskedConv2d`] convolves only a chosen subset of the (augmented) input's
//! pixel positions — Eq. 1's double sum with `δx ∉ x_a, δy ∉ y_a` — and a
//! [`MaskedEmbedding`] embeds only a chosen subset of token positions —
//! Eq. 2's `Σ_{i ∉ x_a}`. The sub-network containing the original layers gets
//! the index set that selects exactly the original values (in original raster
//! order); synthetic sub-networks get random index sets of the same
//! cardinality. The cloud sees *all* the index sets but cannot tell which one
//! is real.

use crate::layer::{Layer, Mode, Param};
use crate::layers::{Conv2d, Embedding};
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, Tensor};

/// Convolution that skips a set of augmented pixel coordinates (Eq. 1).
///
/// Implemented as *gather-then-convolve*: the kept flat positions (within
/// each channel's `H'×W'` plane) form a dense `h×w` image which the inner
/// [`Conv2d`] processes — gathered straight into that layer's padded planes
/// where it convolves without a column matrix, as an image of its own
/// otherwise. This is mathematically identical to running the paper's
/// skip-sum convolution over the augmented plane, and it executes the inner
/// convolution on exactly the same values as the original model would see —
/// the property Amalgam's training-equivalence relies on.
#[derive(Debug, Clone)]
pub struct MaskedConv2d {
    keep: Vec<usize>, // flat indices into H'*W', in original raster order
    out_h: usize,
    out_w: usize,
    inner: Conv2d,
    cache_in_dims: Option<Vec<usize>>,
}

impl MaskedConv2d {
    /// Wraps `inner` so it reads only `keep` positions (length `out_h*out_w`)
    /// of each channel plane.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != out_h * out_w`.
    pub fn new(keep: Vec<usize>, out_h: usize, out_w: usize, inner: Conv2d) -> Self {
        assert_eq!(
            keep.len(),
            out_h * out_w,
            "keep must have out_h*out_w entries"
        );
        MaskedConv2d {
            keep,
            out_h,
            out_w,
            inner,
            cache_in_dims: None,
        }
    }

    /// The kept flat positions (the layer's `x_a, y_a` complement).
    pub fn keep_indices(&self) -> &[usize] {
        &self.keep
    }

    /// The inner convolution.
    pub fn inner(&self) -> &Conv2d {
        &self.inner
    }

    /// Mutable access to the inner convolution (weight extraction).
    pub fn inner_mut(&mut self) -> &mut Conv2d {
        &mut self.inner
    }
}

impl Layer for MaskedConv2d {
    fn kind(&self) -> &'static str {
        "MaskedConv2d"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "MaskedConv2d takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 4, "MaskedConv2d input must be [N,C,H',W']");
        self.cache_in_dims = Some(d.to_vec());
        let keep = (self.keep.as_slice(), self.out_h, self.out_w);
        self.inner.forward_gathered(x, Some(keep))
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let in_dims = self
            .cache_in_dims
            .take()
            .expect("MaskedConv2d backward before forward");
        // The inner convolution sees the same demand: as a model's first
        // layer this one feeds on the raw input, and then neither `Wᵀ·g`,
        // `col2im` nor the scatter below is run.
        let dx = self.inner.backward(grad_out, demand).remove(0).map(|dg| {
            let plane = in_dims[2] * in_dims[3];
            let mut dx = scratch::take_tensor(&in_dims); // positions outside `keep` stay zero
            let planes = dx.data_mut().chunks_exact_mut(plane);
            for (dst, src) in planes.zip(dg.data().chunks_exact(self.keep.len())) {
                for (&pos, &g) in self.keep.iter().zip(src) {
                    dst[pos] += g;
                }
            }
            scratch::give_tensor(dg);
            dx
        });
        vec![dx]
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn spec(&self) -> LayerSpec {
        match self.inner.spec() {
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => LayerSpec::MaskedConv2d {
                keep: self.keep.clone(),
                out_h: self.out_h,
                out_w: self.out_w,
                weight,
                bias,
                stride,
                padding,
            },
            _ => unreachable!("inner layer is always Conv2d"),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_in_dims = None;
        self.inner.clear_cache();
    }
}

/// Embedding that skips a set of augmented token positions (Eq. 2).
///
/// Gathers the kept sequence positions of `[B, T']` into `[B, T]`, then runs
/// the inner [`Embedding`] lookup.
#[derive(Debug, Clone)]
pub struct MaskedEmbedding {
    keep: Vec<usize>, // positions into T'
    inner: Embedding,
}

impl MaskedEmbedding {
    /// Wraps `inner` so it embeds only `keep` positions of the sequence.
    pub fn new(keep: Vec<usize>, inner: Embedding) -> Self {
        MaskedEmbedding { keep, inner }
    }

    /// The kept sequence positions.
    pub fn keep_indices(&self) -> &[usize] {
        &self.keep
    }

    /// The inner embedding.
    pub fn inner(&self) -> &Embedding {
        &self.inner
    }

    /// Mutable access to the inner embedding (weight extraction).
    pub fn inner_mut(&mut self) -> &mut Embedding {
        &mut self.inner
    }
}

impl Layer for MaskedEmbedding {
    fn kind(&self) -> &'static str {
        "MaskedEmbedding"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "MaskedEmbedding takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 2, "MaskedEmbedding input must be [B, T'] ids");
        let (b, t_aug) = (d[0], d[1]);
        assert!(
            self.keep.iter().all(|&p| p < t_aug),
            "keep position out of bounds"
        );
        let mut gathered = Vec::with_capacity(b * self.keep.len());
        for seq in x.data().chunks_exact(t_aug.max(1)) {
            gathered.extend(self.keep.iter().map(|&pos| seq[pos]));
        }
        let gathered = Tensor::from_vec(gathered, &[b, self.keep.len()]);
        self.inner.forward(&[&gathered], mode)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        // Accumulates table grads; token ids get no gradient.
        self.inner.backward(grad_out, demand)
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn spec(&self) -> LayerSpec {
        match self.inner.spec() {
            LayerSpec::Embedding { weight } => LayerSpec::MaskedEmbedding {
                keep: self.keep.clone(),
                weight,
            },
            _ => unreachable!("inner layer is always Embedding"),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use amalgam_tensor::Rng;

    #[test]
    fn masked_conv_equals_plain_conv_on_kept_pixels() {
        // The defining property: gathering the original pixels from an
        // augmented plane and convolving equals convolving the original image.
        let mut rng = Rng::seed_from(0);
        let orig = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        // Augment 3×3 → 4×4 by inserting noise at flat positions {1, 5, 7, 10, 12, 14, 15}.
        let keep: Vec<usize> = vec![0, 2, 3, 4, 6, 8, 9, 11, 13];
        let mut aug = Tensor::randn(&[2, 1, 4, 4], &mut rng);
        for ni in 0..2 {
            for (k, &pos) in keep.iter().enumerate() {
                aug.data_mut()[ni * 16 + pos] = orig.data()[ni * 9 + k];
            }
        }
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, true, &mut rng);
        let want = conv.forward(&[&orig], Mode::Eval);
        let mut masked = MaskedConv2d::new(keep, 3, 3, conv.clone());
        let got = masked.forward(&[&aug], Mode::Eval);
        assert!(
            got.approx_eq(&want, 0.0),
            "masked conv must be bit-identical"
        );
    }

    #[test]
    fn masked_conv_gradcheck() {
        let mut rng = Rng::seed_from(1);
        let conv = Conv2d::new(1, 2, 3, 1, 1, true, &mut rng);
        let keep = rng.sample_indices(25, 9);
        let masked = MaskedConv2d::new(keep, 3, 3, conv);
        check_layer_gradients(Box::new(masked), &[&[1, 1, 5, 5]], 2e-2, &mut rng);
    }

    #[test]
    fn masked_embedding_selects_positions() {
        let w = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], &[3, 2]);
        let inner = Embedding::from_params(w);
        let mut me = MaskedEmbedding::new(vec![0, 2], inner);
        // Augmented sequence [2, 99→1, 1]: positions 0 and 2 kept.
        let ids = Tensor::from_vec(vec![2.0, 1.0, 1.0], &[1, 3]);
        let y = me.forward(&[&ids], Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn masked_embedding_grad_hits_only_kept_tokens() {
        let inner = Embedding::from_params(Tensor::zeros(&[4, 2]));
        let mut me = MaskedEmbedding::new(vec![1], inner);
        let ids = Tensor::from_vec(vec![3.0, 2.0, 0.0], &[1, 3]);
        me.forward(&[&ids], Mode::Train);
        me.backward(&Tensor::ones(&[1, 1, 2]), &[false]);
        let g = &me.inner().params()[0].grad;
        // Only token 2 (at kept position 1) receives gradient.
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn masked_conv_rejects_bad_indices() {
        let mut rng = Rng::seed_from(2);
        let conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let mut m = MaskedConv2d::new(vec![100], 1, 1, conv);
        m.forward(&[&Tensor::zeros(&[1, 1, 2, 2])], Mode::Eval);
    }
}
