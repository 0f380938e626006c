//! Token embedding and positional encoding for NLP models.

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use amalgam_tensor::{Rng, Tensor};

/// Token-embedding lookup: indices `[B, T]` (as `f32` ids) → `[B, T, D]`.
#[derive(Debug, Clone)]
pub struct Embedding {
    weight: Param, // [vocab, dim]
    cache_indices: Option<Vec<usize>>,
}

impl Embedding {
    /// A new embedding table with N(0, 1) initialisation scaled by `1/√dim`.
    pub fn new(vocab: usize, dim: usize, rng: &mut Rng) -> Self {
        let scale = 1.0 / (dim as f32).sqrt();
        Embedding {
            weight: Param::new(Tensor::randn(&[vocab, dim], rng).scale(scale)),
            cache_indices: None,
        }
    }

    /// Reassembles from an explicit table (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 2-D.
    pub fn from_params(weight: Tensor) -> Self {
        assert_eq!(
            weight.shape().rank(),
            2,
            "Embedding weight must be [vocab, dim]"
        );
        Embedding {
            weight: Param::new(weight),
            cache_indices: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.value.dims()[1]
    }
}

impl Layer for Embedding {
    fn kind(&self) -> &'static str {
        "Embedding"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Embedding takes one input");
        let ids = inputs[0];
        let d = ids.dims();
        assert_eq!(d.len(), 2, "Embedding input must be [B, T] token ids");
        let (b, t) = (d[0], d[1]);
        let dim = self.dim();
        let vocab = self.vocab();
        let table = self.weight.value.data();
        let mut out = Vec::with_capacity(b * t * dim);
        let mut idx = Vec::with_capacity(b * t);
        for &raw in ids.data() {
            let token = raw as usize;
            assert!(
                token < vocab,
                "token id {token} out of vocabulary ({vocab})"
            );
            idx.push(token);
            out.extend_from_slice(&table[token * dim..(token + 1) * dim]);
        }
        self.cache_indices = Some(idx);
        Tensor::from_vec(out, &[b, t, dim])
    }

    fn backward(&mut self, grad_out: &Tensor, _demand: &[bool]) -> Vec<Option<Tensor>> {
        let idx = self
            .cache_indices
            .take()
            .expect("Embedding backward before forward");
        let dim = self.dim();
        let table_grad = self.weight.grad.data_mut();
        for (&token, g) in idx.iter().zip(grad_out.data().chunks_exact(dim)) {
            for (acc, &gv) in table_grad[token * dim..(token + 1) * dim].iter_mut().zip(g) {
                *acc += gv;
            }
        }
        // Token ids are not differentiable: their gradient is identically
        // zero, which a missing slot says without building the tensor.
        vec![None]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Embedding {
            weight: self.weight.value.clone(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_indices = None;
    }
}

/// Sinusoidal positional encoding added to `[B, T, D]` activations.
#[derive(Debug, Clone)]
pub struct PositionalEncoding {
    table: Tensor, // [max_len, dim]
}

impl PositionalEncoding {
    /// A new sinusoidal table for sequences up to `max_len`.
    pub fn new(max_len: usize, dim: usize) -> Self {
        let table = Tensor::from_fn(&[max_len, dim], |flat| {
            let (pos, i) = (flat / dim, flat % dim);
            let angle = pos as f32 / 10_000f32.powf((2 * (i / 2)) as f32 / dim as f32);
            if i % 2 == 0 {
                angle.sin()
            } else {
                angle.cos()
            }
        });
        PositionalEncoding { table }
    }

    /// Reassembles from an explicit table (deserialization).
    pub fn from_table(table: Tensor) -> Self {
        PositionalEncoding { table }
    }

    /// Maximum supported sequence length.
    pub fn max_len(&self) -> usize {
        self.table.dims()[0]
    }
}

impl Layer for PositionalEncoding {
    fn kind(&self) -> &'static str {
        "PositionalEncoding"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "PositionalEncoding takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 3, "PositionalEncoding input must be [B,T,D]");
        let (b, t, dim) = (d[0], d[1], d[2]);
        assert!(
            t <= self.max_len(),
            "sequence length {t} exceeds table {}",
            self.max_len()
        );
        assert_eq!(dim, self.table.dims()[1], "PositionalEncoding dim mismatch");
        let table = &self.table.data()[..t * dim];
        let mut out = Vec::with_capacity(b * t * dim);
        for seq in x.data().chunks_exact((t * dim).max(1)) {
            out.extend(seq.iter().zip(table).map(|(&v, &pos)| v + pos));
        }
        Tensor::from_vec(out, d)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        vec![demand[0].then(|| grad_out.clone())]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::PositionalEncoding {
            table: self.table.clone(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_rows() {
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]);
        let mut e = Embedding::from_params(w);
        let ids = Tensor::from_vec(vec![2.0, 0.0], &[1, 2]);
        let y = e.forward(&[&ids], Mode::Train);
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_accumulates_per_token() {
        let w = Tensor::zeros(&[3, 2]);
        let mut e = Embedding::from_params(w);
        let ids = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        e.forward(&[&ids], Mode::Train);
        e.backward(&Tensor::ones(&[1, 2, 2]), &[false]);
        // Token 1 used twice → gradient 2 per component.
        assert_eq!(e.weight.grad.data(), &[0.0, 0.0, 2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab() {
        let mut e = Embedding::from_params(Tensor::zeros(&[3, 2]));
        let ids = Tensor::from_vec(vec![5.0], &[1, 1]);
        e.forward(&[&ids], Mode::Train);
    }

    #[test]
    fn positional_encoding_adds_table() {
        let mut pe = PositionalEncoding::new(4, 2);
        let x = Tensor::zeros(&[1, 3, 2]);
        let y = pe.forward(&[&x], Mode::Train);
        // Position 0: sin(0)=0, cos(0)=1.
        assert!((y.data()[0] - 0.0).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn positional_encoding_gradient_is_identity() {
        let mut pe = PositionalEncoding::new(4, 2);
        pe.forward(&[&Tensor::zeros(&[1, 2, 2])], Mode::Train);
        let g = pe.backward(&Tensor::ones(&[1, 2, 2]), &[true]);
        assert_eq!(g[0].as_ref().unwrap().sum(), 4.0);
    }
}
