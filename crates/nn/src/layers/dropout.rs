//! Inverted dropout.

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use amalgam_tensor::{Rng, Tensor};

/// Inverted dropout: during training, zeroes each element with probability
/// `p` and rescales survivors by `1/(1-p)`; a no-op in evaluation mode.
///
/// Owns a seeded RNG so that a model's stochastic behaviour is reproducible
/// from its construction seed (required by Amalgam's training-equivalence
/// invariant).
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: Rng,
    seed: u64,
    cache_mask: Option<Tensor>,
}

impl Dropout {
    /// A new dropout layer with drop probability `p`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: Rng::seed_from(seed),
            seed,
            cache_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn kind(&self) -> &'static str {
        "Dropout"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Dropout takes one input");
        let x = inputs[0];
        if mode == Mode::Eval || self.p == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let inv = 1.0 / keep;
        let mask = Tensor::from_fn(x.dims(), |_| {
            if self.rng.chance(keep as f64) {
                inv
            } else {
                0.0
            }
        });
        let out = x.mul(&mask);
        self.cache_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let mask = self.cache_mask.take();
        vec![demand[0].then(|| match mask {
            Some(mask) => grad_out.mul(&mask),
            None => grad_out.clone(), // eval-mode forward
        })]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dropout {
            p: self.p,
            seed: self.seed,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[10]);
        assert_eq!(d.forward(&[&x], Mode::Eval).data(), x.data());
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 42);
        let x = Tensor::ones(&[20_000]);
        let y = d.forward(&[&x], Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&[&x], Mode::Train);
        let g = d
            .backward(&Tensor::ones(&[100]), &[true])
            .remove(0)
            .unwrap();
        // Gradient passes exactly where the output was non-zero.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_one() {
        Dropout::new(1.0, 0);
    }
}
