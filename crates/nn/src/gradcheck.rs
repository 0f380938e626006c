//! Finite-difference gradient checking for layers.
//!
//! Every hand-derived backward pass in this crate is validated against a
//! central-difference approximation of `d⟨forward(x), w⟩/dx` (and `/dθ`) for a
//! random cotangent `w`. Stochastic layers (dropout) are excluded — their
//! forward is not a pure function of the inputs.
//!
//! [`backward_all_demanded`] is the graph-level counterpart: the reference
//! that [`GraphModel::backward`]'s demand pruning is held to.

use crate::graph::GraphModel;
use crate::layer::{Layer, Mode};
use amalgam_tensor::{Rng, Tensor};

/// Maximum number of coordinates probed per tensor (keeps checks fast).
const MAX_PROBES: usize = 48;

fn objective(layer: &mut dyn Layer, inputs: &[Tensor], w: &Tensor) -> f32 {
    let refs: Vec<&Tensor> = inputs.iter().collect();
    layer.forward(&refs, Mode::Train).dot(w)
}

/// Checks a layer's input and parameter gradients against finite differences.
///
/// `tol` is a relative tolerance: the check fails when
/// `|analytic − numeric| > tol · max(1, |analytic|, |numeric|)`.
///
/// # Panics
///
/// Panics (with a diagnostic message) when any probed coordinate disagrees —
/// this is a test utility.
#[allow(clippy::needless_range_loop)]
pub fn check_layer_gradients(
    mut layer: Box<dyn Layer>,
    input_shapes: &[&[usize]],
    tol: f32,
    rng: &mut Rng,
) {
    let mut inputs: Vec<Tensor> = input_shapes.iter().map(|s| Tensor::randn(s, rng)).collect();

    // One forward to learn the output shape, then fix a cotangent w.
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let out = layer.forward(&refs, Mode::Train);
    let w = Tensor::randn(out.dims(), rng);

    // Analytic gradients.
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let _ = layer.forward(&refs, Mode::Train);
    // Every input gradient is probed below, so every one is demanded.
    let analytic_inputs = layer.backward(&w, &vec![true; inputs.len()]);
    let analytic_params: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();

    let eps = 1e-3f32;
    let close = |a: f32, n: f32| (a - n).abs() <= tol * a.abs().max(n.abs()).max(1.0);

    // Probe input gradients.
    for i in 0..inputs.len() {
        let n = inputs[i].numel();
        let probes = pick_probes(n, rng);
        for idx in probes {
            let orig = inputs[i].data()[idx];
            inputs[i].data_mut()[idx] = orig + eps;
            let f_plus = objective(layer.as_mut(), &inputs, &w);
            inputs[i].data_mut()[idx] = orig - eps;
            let f_minus = objective(layer.as_mut(), &inputs, &w);
            inputs[i].data_mut()[idx] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            // A missing slot is a gradient that is identically zero.
            let analytic = analytic_inputs[i].as_ref().map_or(0.0, |g| g.data()[idx]);
            assert!(
                close(analytic, numeric),
                "{}: input {i} grad mismatch at {idx}: analytic {analytic} vs numeric {numeric}",
                layer.kind()
            );
        }
    }

    // Probe parameter gradients.
    let param_count = layer.params().len();
    for k in 0..param_count {
        let n = layer.params()[k].numel();
        let probes = pick_probes(n, rng);
        for idx in probes {
            let orig = layer.params()[k].value.data()[idx];
            layer.params_mut()[k].value.data_mut()[idx] = orig + eps;
            let f_plus = objective(layer.as_mut(), &inputs, &w);
            layer.params_mut()[k].value.data_mut()[idx] = orig - eps;
            let f_minus = objective(layer.as_mut(), &inputs, &w);
            layer.params_mut()[k].value.data_mut()[idx] = orig;
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = analytic_params[k].data()[idx];
            assert!(
                close(analytic, numeric),
                "{}: param {k} grad mismatch at {idx}: analytic {analytic} vs numeric {numeric}",
                layer.kind()
            );
        }
    }
}

/// Back-propagates `seeds` through `model` with every input gradient
/// demanded of every layer — nothing pruned, nothing skipped but the
/// external inputs. Must follow a matching [`GraphModel::forward`].
///
/// This is the reference [`GraphModel::backward`] is tested against: it goes
/// through the same [`Layer::backward`] entry point, so the parameter
/// gradients the two leave behind must agree bit for bit — pruning may only
/// ever drop gradients nobody reads.
///
/// # Panics
///
/// Panics if the seed count differs from the output count — this is a test
/// utility.
pub fn backward_all_demanded(model: &mut GraphModel, seeds: &[Tensor]) {
    model.backward_all_demanded(seeds);
}

fn pick_probes(n: usize, rng: &mut Rng) -> Vec<usize> {
    if n <= MAX_PROBES {
        (0..n).collect()
    } else {
        rng.sample_indices(n, MAX_PROBES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Relu;

    #[test]
    fn passes_on_a_correct_layer() {
        let mut rng = Rng::seed_from(0);
        check_layer_gradients(Box::new(Relu::new()), &[&[4, 4]], 1e-2, &mut rng);
    }

    /// A deliberately wrong layer: forward is x², backward claims d/dx = 1.
    #[derive(Debug, Clone)]
    struct BrokenSquare {
        dims: Option<Vec<usize>>,
    }

    impl Layer for BrokenSquare {
        fn kind(&self) -> &'static str {
            "BrokenSquare"
        }
        fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
            self.dims = Some(inputs[0].dims().to_vec());
            inputs[0].map(|v| v * v)
        }
        fn backward(&mut self, grad_out: &Tensor, _demand: &[bool]) -> Vec<Option<Tensor>> {
            let _ = self.dims.take();
            vec![Some(grad_out.clone())] // wrong: should be 2x·g
        }
        fn spec(&self) -> crate::spec::LayerSpec {
            crate::spec::LayerSpec::Identity
        }
        fn boxed_clone(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    #[should_panic(expected = "grad mismatch")]
    fn fails_on_a_broken_layer() {
        let mut rng = Rng::seed_from(1);
        check_layer_gradients(
            Box::new(BrokenSquare { dims: None }),
            &[&[3, 3]],
            1e-2,
            &mut rng,
        );
    }
}
