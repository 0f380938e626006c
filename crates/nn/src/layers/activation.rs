//! Element-wise activation layers.

use crate::layer::{Layer, Mode, Param, SegmentKind};
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, Tensor};

/// Hands a dropped cache's storage to the arena (a no-op while the tensor it
/// was cached from is still alive somewhere: the cache only shares it).
fn recycle(cache: &mut Option<Tensor>) {
    if let Some(stale) = cache.take() {
        scratch::give_tensor(stale);
    }
}

/// `grad · f′`, with `f′` given in terms of the cached output. Generic over
/// the derivative so it is inlined into the element loop — through a
/// function pointer the loop makes a call per element and does not vectorise.
fn scale_by_derivative(grad: &Tensor, y: &Tensor, derivative: impl Fn(f32) -> f32) -> Tensor {
    scratch::zip_map_tensor(grad, y, |g, yv| g * derivative(yv))
}

/// `max(0, x)`.
#[inline(always)]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// The derivative of [`relu`] where its output was `y`.
#[inline(always)]
pub(crate) fn relu_slope(y: f32) -> f32 {
    if y > 0.0 {
        1.0
    } else {
        0.0
    }
}

macro_rules! unary_activation {
    ($(#[$doc:meta])* $name:ident, $tag:ident, fwd = $fwd:expr, bwd = $bwd:expr, segment = $segment:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            cache: Option<Tensor>, // cached *output* (all four derivatives below are output-expressible)
        }

        impl $name {
            /// A new activation layer.
            pub fn new() -> Self {
                Self { cache: None }
            }
        }

        impl Layer for $name {
            fn kind(&self) -> &'static str {
                stringify!($name)
            }

            fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
                assert_eq!(inputs.len(), 1, concat!(stringify!($name), " takes one input"));
                recycle(&mut self.cache);
                let y = scratch::map_tensor(inputs[0], $fwd);
                self.cache = Some(y.clone());
                y
            }

            fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
                let y = self.cache.take().expect(concat!(stringify!($name), " backward before forward"));
                let dx = demand[0].then(|| scale_by_derivative(grad_out, &y, $bwd));
                scratch::give_tensor(y);
                vec![dx]
            }

            fn params(&self) -> Vec<&Param> {
                Vec::new()
            }

            fn spec(&self) -> LayerSpec {
                LayerSpec::$tag
            }

            fn boxed_clone(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }

            fn clear_cache(&mut self) {
                recycle(&mut self.cache);
            }

            fn segment_kind(&self) -> Option<SegmentKind> {
                $segment
            }
        }
    };
}

unary_activation!(
    /// Rectified linear unit, `max(0, x)`.
    Relu, Relu,
    fwd = relu,
    bwd = relu_slope,
    segment = Some(SegmentKind::Relu)
);

unary_activation!(
    /// Logistic sigmoid, `1 / (1 + e^{-x})`.
    Sigmoid, Sigmoid,
    fwd = |x| 1.0 / (1.0 + (-x).exp()),
    bwd = |y| y * (1.0 - y),
    segment = None
);

unary_activation!(
    /// Hyperbolic tangent.
    Tanh, Tanh,
    fwd = f32::tanh,
    bwd = |y| 1.0 - y * y,
    segment = None
);

/// Gaussian error linear unit (tanh approximation, as used by transformers).
///
/// Unlike the other activations, GELU's derivative is not expressible from its
/// output alone, so it caches the input.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache: Option<Tensor>,
}

impl Gelu {
    /// A new GELU layer.
    pub fn new() -> Self {
        Gelu { cache: None }
    }

    fn phi(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
    }
}

impl Layer for Gelu {
    fn kind(&self) -> &'static str {
        "Gelu"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Gelu takes one input");
        recycle(&mut self.cache);
        self.cache = Some(inputs[0].clone());
        scratch::map_tensor(inputs[0], |x| x * Self::phi(x))
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let x = self.cache.take().expect("Gelu backward before forward");
        let dx = demand[0].then(|| {
            scratch::zip_map_tensor(grad_out, &x, |g, xv| {
                const C: f32 = 0.797_884_6;
                let inner = C * (xv + 0.044_715 * xv * xv * xv);
                let t = inner.tanh();
                let sech2 = 1.0 - t * t;
                let dphi = 0.5 * sech2 * C * (1.0 + 3.0 * 0.044_715 * xv * xv);
                g * (0.5 * (1.0 + t) + xv * dphi)
            })
        });
        scratch::give_tensor(x);
        vec![dx]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Gelu
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        recycle(&mut self.cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use amalgam_tensor::Rng;

    #[test]
    fn relu_clamps_negatives() {
        let mut l = Relu::new();
        let y = l.forward(&[&Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3])], Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let mut l = Sigmoid::new();
        let y = l.forward(&[&Tensor::zeros(&[1])], Mode::Eval);
        assert!((y.item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn relu_gradcheck() {
        let mut rng = Rng::seed_from(0);
        check_layer_gradients(Box::new(Relu::new()), &[&[3, 4]], 1e-2, &mut rng);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut rng = Rng::seed_from(1);
        check_layer_gradients(Box::new(Sigmoid::new()), &[&[3, 4]], 1e-2, &mut rng);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut rng = Rng::seed_from(2);
        check_layer_gradients(Box::new(Tanh::new()), &[&[3, 4]], 1e-2, &mut rng);
    }

    #[test]
    fn gelu_gradcheck() {
        let mut rng = Rng::seed_from(3);
        check_layer_gradients(Box::new(Gelu::new()), &[&[3, 4]], 1e-2, &mut rng);
    }
}
