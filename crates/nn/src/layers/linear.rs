//! Fully connected layer.

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use amalgam_tensor::{kernels, scratch, Rng, Tensor};

/// Affine map `y = x Wᵀ + b` over the last dimension.
///
/// Accepts inputs of any rank ≥ 1; all leading dimensions are treated as the
/// batch (like PyTorch's `nn.Linear`), which lets the same layer serve both
/// `[B, F]` classifiers and `[B, T, D]` transformer blocks.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param, // [out, in]
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    cache_x2d: Option<Tensor>,
    cache_lead: Vec<usize>,
}

impl Linear {
    /// A new layer with Kaiming-uniform initialised weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        // He-uniform (gain √2) weights; small uniform bias.
        let bound = (6.0 / in_features as f32).sqrt();
        let bias_bound = (1.0 / in_features as f32).sqrt();
        let weight = Param::new(Tensor::rand_uniform(
            &[out_features, in_features],
            -bound,
            bound,
            rng,
        ));
        let bias = bias.then(|| {
            Param::new(Tensor::rand_uniform(
                &[out_features],
                -bias_bound,
                bias_bound,
                rng,
            ))
        });
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cache_x2d: None,
            cache_lead: Vec::new(),
        }
    }

    /// Reassembles a layer from explicit parameter tensors (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `[out, in]` or `bias` is not `[out]`.
    pub fn from_params(weight: Tensor, bias: Option<Tensor>) -> Self {
        assert_eq!(weight.shape().rank(), 2, "Linear weight must be [out, in]");
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.numel(), out_features, "Linear bias must be [out]");
        }
        Linear {
            weight: Param::new(weight),
            bias: bias.map(Param::new),
            in_features,
            out_features,
            cache_x2d: None,
            cache_lead: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// `dx = g·W`, shaped as the input, from the output gradient as rows.
    fn input_gradient(&self, g2d: &Tensor) -> Tensor {
        let mut dx = scratch::take_tensor_raw(&[g2d.dims()[0], self.in_features]);
        kernels::matmul_into(g2d, &self.weight.value, &mut dx);
        let mut dims = self.cache_lead.clone();
        dims.push(self.in_features);
        dx.reshape_in_place(&dims);
        dx
    }

    /// `dW += gᵀ·x` and `db +=` the column sums of `g`, from the output
    /// gradient as rows; `x2d`, the cached input, goes to `spent`.
    fn weight_gradients(&mut self, g2d: &Tensor, x2d: Tensor, spent: &mut dyn FnMut(Tensor)) {
        let mut dw = scratch::take_tensor_raw(&[self.out_features, self.in_features]);
        kernels::matmul_tn_into(g2d, &x2d, &mut dw);
        self.weight.grad.add_assign(&dw);
        scratch::give_tensor(dw);
        spent(x2d);
        if let Some(b) = &mut self.bias {
            b.grad.add_assign(&g2d.sum_axis0());
        }
    }
}

impl Layer for Linear {
    fn kind(&self) -> &'static str {
        "Linear"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Linear takes one input");
        let x = inputs[0];
        let dims = x.dims();
        assert_eq!(
            *dims.last().expect("Linear input must have rank >= 1"),
            self.in_features,
            "Linear expected last dim {}, got {:?}",
            self.in_features,
            dims
        );
        let lead: Vec<usize> = dims[..dims.len() - 1].to_vec();
        let rows: usize = lead.iter().product::<usize>().max(1);
        let x2d = x.reshape(&[rows, self.in_features]); // shares `x`
        let mut y = scratch::take_tensor_raw(&[rows, self.out_features]);
        kernels::matmul_nt_into(&x2d, &self.weight.value, &mut y);
        if let Some(b) = &self.bias {
            y.add_bias_row_assign(&b.value);
        }
        self.cache_x2d = Some(x2d);
        self.cache_lead = lead.clone();
        let mut out_dims = lead;
        out_dims.push(self.out_features);
        y.reshape_in_place(&out_dims);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        // The weight half first: `dx` then takes the buffer `x` leaves.
        let x2d = self
            .cache_x2d
            .take()
            .expect("Linear backward before forward");
        let g2d = grad_out.reshape(&[x2d.dims()[0], self.out_features]);
        self.weight_gradients(&g2d, x2d, &mut scratch::give_tensor);
        vec![demand[0].then(|| self.input_gradient(&g2d))]
    }

    fn backward_input(
        &mut self,
        grad_out: &Tensor,
        demand: &[bool],
    ) -> (Vec<Option<Tensor>>, bool) {
        let x2d = self
            .cache_x2d
            .as_ref()
            .expect("Linear backward before forward");
        let g2d = grad_out.reshape(&[x2d.dims()[0], self.out_features]);
        (vec![demand[0].then(|| self.input_gradient(&g2d))], true)
    }

    fn backward_weights(&mut self, grad_out: &Tensor, spent: &mut dyn FnMut(Tensor)) {
        let x2d = self
            .cache_x2d
            .take()
            .expect("Linear weight half before its input half");
        let g2d = grad_out.reshape(&[x2d.dims()[0], self.out_features]);
        self.weight_gradients(&g2d, x2d, spent);
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
        LayerSpec::Linear {
            weight: self.weight.value.clone(),
            bias: self.bias.as_ref().map(|b| b.value.clone()),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        if let Some(x2d) = self.cache_x2d.take() {
            scratch::give_tensor(x2d);
        }
        self.cache_lead.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_shape_2d_and_3d() {
        let mut rng = Rng::seed_from(0);
        let mut l = Linear::new(4, 6, true, &mut rng);
        let y = l.forward(&[&Tensor::zeros(&[5, 4])], Mode::Train);
        assert_eq!(y.dims(), &[5, 6]);
        let y = l.forward(&[&Tensor::zeros(&[2, 3, 4])], Mode::Train);
        assert_eq!(y.dims(), &[2, 3, 6]);
    }

    #[test]
    fn bias_is_applied() {
        let w = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let mut l = Linear::from_params(w, Some(b));
        let y = l.forward(&[&Tensor::ones(&[1, 3])], Mode::Eval);
        assert_eq!(y.data(), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(1);
        let l = Linear::new(5, 3, true, &mut rng);
        check_layer_gradients(Box::new(l), &[&[2, 5]], 1e-2, &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences_rank3() {
        let mut rng = Rng::seed_from(2);
        let l = Linear::new(4, 2, false, &mut rng);
        check_layer_gradients(Box::new(l), &[&[2, 3, 4]], 1e-2, &mut rng);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed_from(3);
        assert_eq!(Linear::new(10, 4, true, &mut rng).param_count(), 44);
        assert_eq!(Linear::new(10, 4, false, &mut rng).param_count(), 40);
    }
}
