//! The [`Layer`] trait and trainable [`Param`]s.

use crate::spec::LayerSpec;
use amalgam_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Affects stochastic layers (dropout) and layers with running statistics
/// (batch norm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, batch statistics used and updated.
    Train,
    /// Evaluation: dropout disabled, running statistics used.
    Eval,
}

/// A trainable tensor with its accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the last backward pass(es).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// What a layer is to the executor's fused segments (see
/// [`GraphModel`](crate::graph::GraphModel), "Fused segments"): the four
/// element-wise kinds a run may be made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Per-channel normalisation ([`BatchNorm2d`](crate::layers::BatchNorm2d),
    /// which the fused pass reaches through `Any` for its statistics, scale
    /// and shift, and to hand it the parameter gradients).
    BatchNorm,
    /// `max(0, x)`.
    Relu,
    /// A sum of inputs.
    Add,
    /// Average pooling with a square window.
    AvgPool {
        /// Window side.
        kernel: usize,
        /// Step between windows.
        stride: usize,
    },
}

/// A differentiable computation node.
///
/// Layers are *stateful*: `forward` caches whatever `backward` needs, and
/// `backward` both returns the gradients with respect to the inputs somebody
/// asked for **and** accumulates parameter gradients into [`Param::grad`].
/// The graph executor ([`crate::graph::GraphModel`]) guarantees backward is
/// called at most once per forward, with the accumulated output gradient.
pub trait Layer: std::fmt::Debug + Send + std::any::Any {
    /// Short type name, e.g. `"Conv2d"` (used in state-dict paths and dumps).
    fn kind(&self) -> &'static str;

    /// Computes the layer output from its inputs, caching for backward.
    ///
    /// # Panics
    ///
    /// Implementations panic on arity or shape violations — a model graph
    /// with mismatched shapes is a programming error, not a runtime
    /// condition.
    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor;

    /// Propagates `grad_out` to the inputs that need it, accumulating
    /// parameter gradients as a side effect.
    ///
    /// `demand` has one flag per input, in `forward`'s order, and the result
    /// has one slot per input. The demand rule:
    ///
    /// * `demand[i] == false` means no parameter lies upstream of input `i`,
    ///   so its gradient would be dropped: the layer skips that work and
    ///   returns `None` in slot `i`. Parameter gradients and the release of
    ///   the forward cache must not depend on `demand`.
    /// * `demand[i] == true` yields `Some(gradient)`, or `None` when that
    ///   gradient is identically zero (a [`Detach`](crate::layers::Detach),
    ///   token ids) — the caller treats a missing slot as "adds nothing".
    ///
    /// A layer with weight products ([`Linear`](crate::layers::Linear),
    /// [`Conv2d`](crate::layers::Conv2d) and so
    /// [`MaskedConv2d`](crate::layers::MaskedConv2d),
    /// [`MultiHeadSelfAttention`](crate::layers::MultiHeadSelfAttention))
    /// also offers its backward in two halves,
    /// [`backward_input`](Self::backward_input) and
    /// [`backward_weights`](Self::backward_weights); `backward` runs the two
    /// back to back, with the same products and bits, each weight product
    /// placed where its operands are first at hand (before the input
    /// gradient where it does not need the input half's results), so that
    /// what it frees serves the input gradient's buffers.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` (no cache) or if `demand` does not
    /// have one flag per input.
    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>>;

    /// The input half of [`backward`](Self::backward): the input gradients
    /// `demand` asks for, under `backward`'s demand rule, and whether a
    /// weight half is left for [`backward_weights`](Self::backward_weights).
    /// A layer that splits keeps, from its forward cache and this half, what
    /// the weight half reads; its parameter gradients are complete only once
    /// that half has run. The default runs the whole of `backward` and leaves
    /// nothing (`false`).
    ///
    /// The executor calls the weight half after this one returns, before the
    /// layer's next `forward` — on the same thread, or, in a training step
    /// that forks, perhaps on the other (see the graph module docs, "Weight
    /// gradients"). Nothing the input gradients depend on is written by the
    /// weight half, and nothing else writes the parameter gradients, so the
    /// bits are those of `backward` wherever each half runs.
    ///
    /// # Panics
    ///
    /// As [`backward`](Self::backward).
    fn backward_input(
        &mut self,
        grad_out: &Tensor,
        demand: &[bool],
    ) -> (Vec<Option<Tensor>>, bool) {
        (self.backward(grad_out, demand), false)
    }

    /// The weight half of [`backward`](Self::backward): accumulates the
    /// parameter gradients (weight products and bias sums) of the latest
    /// [`backward_input`](Self::backward_input) that returned `true`, from
    /// the same `grad_out`, and releases what that half kept.
    ///
    /// Each buffer the layer is done with — its forward cache, what the
    /// input half kept — goes to `spent`, not to the scratch arena: the
    /// executor hands it back to the arena of the thread that made it, which
    /// need not be the thread running this half. Buffers this half takes
    /// itself it gives back itself. The default has nothing to do.
    ///
    /// # Panics
    ///
    /// A layer that splits panics if no input half precedes this one.
    fn backward_weights(&mut self, grad_out: &Tensor, spent: &mut dyn FnMut(Tensor)) {
        let _ = (grad_out, spent);
    }

    /// Whether gradients stop here: nothing upstream of this layer is
    /// reachable by back-propagation, whatever its inputs are. The executor's
    /// demand analysis cuts the path to a parameter at such a node.
    fn cuts_gradient(&self) -> bool {
        false
    }

    /// Immutable views of the trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable views of the trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Non-trainable state tensors (e.g. batch-norm running statistics)
    /// that must travel with the parameters during extraction.
    fn buffers(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable views of the non-trainable state tensors.
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// A serializable description (hyper-parameters + parameter tensors).
    fn spec(&self) -> LayerSpec;

    /// Deep copy behind the trait object.
    fn boxed_clone(&self) -> Box<dyn Layer>;

    /// Drops any cached activations (frees memory between epochs).
    fn clear_cache(&mut self) {}

    /// How this layer takes part in a fused segment; `None` (the default)
    /// for a layer the executor always runs on its own.
    fn segment_kind(&self) -> Option<SegmentKind> {
        None
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad = Tensor::ones(&[4]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
