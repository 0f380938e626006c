//! Serializable layer descriptions — the Rust analogue of the paper's
//! TorchScript export.
//!
//! A [`LayerSpec`] captures a layer's hyper-parameters *and* parameter
//! tensors; [`LayerSpec::build`] reconstructs a live layer. Specs are what
//! cross the simulated cloud boundary: they deliberately contain nothing that
//! identifies which sub-network is the original one.
//!
//! # The table
//!
//! Every layer kind is one row of the `layer_specs!` table below:
//!
//! ```text
//! tag Kind { field: type, … } => constructor;
//! ```
//!
//! The row alone yields the enum variant, its wire tag, its encoding (the
//! tag byte, then each field in row order through the private `Field`
//! codec), its decoding and its `build` arm. To add a kind, add its row and
//! implement the layer's [`Layer::spec`]. A precondition its constructor
//! asserts goes in `refusal`, which [`LayerSpec::decode`] consults before
//! any spec leaves it, so that bytes from a peer never reach an assert.

use crate::layer::Layer;
use crate::layers::{
    Add, AvgPool2d, BatchNorm2d, BroadcastMulChannel, BroadcastMulSpatial, ChannelStats, Concat,
    Conv2d, DepthwiseConv2d, Detach, Dropout, Embedding, Flatten, Gelu, GlobalAvgPool2d,
    GlobalMaxPool2d, Identity, Input, LayerNorm, Linear, MaskedConv2d, MaskedEmbedding, MaxPool2d,
    MeanPoolSeq, Mul, MultiHeadSelfAttention, PositionalEncoding, Relu, Sigmoid, Tanh,
};
use crate::NnError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::{Tensor, TensorError};

/// How one field type goes on the wire: the codec every row shares.
trait Field: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader) -> Result<Self, TensorError>;
}

macro_rules! field {
    ($($ty:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self, $w: &mut Writer) {
                let $v = self;
                $put
            }
            fn get($r: &mut Reader) -> Result<Self, TensorError> {
                Ok($get)
            }
        }
    )*};
}

field! {
    usize: |v, w| w.put_u64(*v as u64), |r| r.get_u64()? as usize;
    u64: |v, w| w.put_u64(*v), |r| r.get_u64()?;
    f32: |v, w| w.put_f32(*v), |r| r.get_f32()?;
    bool: |v, w| w.put_u8(u8::from(*v)), |r| r.get_u8()? == 1;
    Tensor: |v, w| w.put_tensor(v), |r| r.get_tensor()?;
    Vec<usize>: |v, w| w.put_usize_list(v), |r| r.get_usize_list()?;
    Option<Tensor>: |v, w| match v {
        Some(t) => {
            w.put_u8(1);
            w.put_tensor(t);
        }
        None => w.put_u8(0),
    }, |r| if r.get_u8()? == 1 { Some(r.get_tensor()?) } else { None };
}

/// Declares [`LayerSpec`] and its codec from one row per layer kind (see
/// the module docs).
macro_rules! layer_specs {
    ($($tag:literal $Kind:ident $({ $($field:ident: $ty:ty),* $(,)? })? => $build:expr;)*) => {
        /// Serializable description of any layer in the workspace.
        #[derive(Debug, Clone)]
        #[allow(missing_docs)] // variant fields mirror the layer constructors documented in `layers`
        pub enum LayerSpec {
            $($Kind $({ $($field: $ty),* })?,)*
        }

        impl LayerSpec {
            /// Reconstructs a live layer from this description.
            pub fn build(&self) -> Box<dyn Layer> {
                match self.clone() {
                    $(LayerSpec::$Kind $({ $($field),* })? => Box::new($build),)*
                }
            }

            fn tag(&self) -> u8 {
                match self {
                    $(LayerSpec::$Kind $({ $($field: _),* })? => $tag,)*
                }
            }

            /// Encodes this spec into `w`.
            pub fn encode(&self, w: &mut Writer) {
                w.put_u8(self.tag());
                match self {
                    $(LayerSpec::$Kind $({ $($field),* })? => {
                        $($($field.put(w);)*)?
                    })*
                }
            }

            /// Decodes a spec written by [`encode`](Self::encode). A decoded
            /// spec [`build`](Self::build)s without panicking: what the layer
            /// constructors assert is checked here.
            ///
            /// # Errors
            ///
            /// Returns [`NnError::UnknownLayerTag`] on an unrecognised tag, or
            /// a wire error if the buffer is truncated or malformed — a spec
            /// its layer's constructor would refuse included.
            pub fn decode(r: &mut Reader) -> Result<LayerSpec, NnError> {
                let spec = match r.get_u8()? {
                    $($tag => LayerSpec::$Kind $({ $($field: Field::get(r)?),* })?,)*
                    tag => return Err(NnError::UnknownLayerTag { tag }),
                };
                match spec.refusal() {
                    Some(context) => Err(NnError::Wire(TensorError::MalformedWire { context })),
                    None => Ok(spec),
                }
            }
        }
    };
}

layer_specs! {
    0 Input => Input::new();
    1 Identity => Identity::new();
    2 Detach => Detach::new();
    3 Add => Add::new();
    4 Mul => Mul::new();
    5 Concat => Concat::new();
    6 Flatten => Flatten::new();
    7 Relu => Relu::new();
    8 Sigmoid => Sigmoid::new();
    9 Tanh => Tanh::new();
    10 Gelu => Gelu::new();
    11 MaxPool2d { kernel: usize, stride: usize } => MaxPool2d::new(kernel, stride);
    12 AvgPool2d { kernel: usize, stride: usize } => AvgPool2d::new(kernel, stride);
    13 GlobalAvgPool2d => GlobalAvgPool2d::new();
    14 GlobalMaxPool2d => GlobalMaxPool2d::new();
    15 ChannelStats => ChannelStats::new();
    16 MeanPoolSeq => MeanPoolSeq::new();
    17 BroadcastMulChannel => BroadcastMulChannel::new();
    18 Dropout { p: f32, seed: u64 } => Dropout::new(p, seed);
    19 Linear { weight: Tensor, bias: Option<Tensor> } => Linear::from_params(weight, bias);
    20 Conv2d { weight: Tensor, bias: Option<Tensor>, stride: usize, padding: usize }
        => Conv2d::from_params(weight, bias, stride, padding);
    21 BatchNorm2d { gamma: Tensor, beta: Tensor, running_mean: Tensor, running_var: Tensor }
        => BatchNorm2d::from_params(gamma, beta, running_mean, running_var);
    22 LayerNorm { gamma: Tensor, beta: Tensor } => LayerNorm::from_params(gamma, beta);
    23 Embedding { weight: Tensor } => Embedding::from_params(weight);
    24 PositionalEncoding { table: Tensor } => PositionalEncoding::from_table(table);
    25 MultiHeadSelfAttention {
        wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: usize, causal: bool,
    } => MultiHeadSelfAttention::from_params(wq, wk, wv, wo, heads, causal);
    26 MaskedConv2d {
        keep: Vec<usize>, out_h: usize, out_w: usize,
        weight: Tensor, bias: Option<Tensor>, stride: usize, padding: usize,
    } => MaskedConv2d::new(keep, out_h, out_w, Conv2d::from_params(weight, bias, stride, padding));
    27 MaskedEmbedding { keep: Vec<usize>, weight: Tensor }
        => MaskedEmbedding::new(keep, Embedding::from_params(weight));
    28 DepthwiseConv2d { weight: Tensor, bias: Option<Tensor>, stride: usize, padding: usize }
        => DepthwiseConv2d::from_params(weight, bias, stride, padding);
    29 BroadcastMulSpatial => BroadcastMulSpatial::new();
}

impl LayerSpec {
    /// Which precondition of `build`'s constructors this spec breaks, if
    /// any: what they assert, checked before they run.
    fn refusal(&self) -> Option<&'static str> {
        let square = |w: &Tensor, rank: usize| {
            w.shape().rank() == rank && w.dims()[rank - 2] == w.dims()[rank - 1]
        };
        let (ok, broken) = match self {
            LayerSpec::Dropout { p, .. } => ((0.0..1.0).contains(p), "dropout p outside [0, 1)"),
            LayerSpec::Linear { weight, bias } => (
                weight.shape().rank() == 2
                    && bias.as_ref().is_none_or(|b| b.numel() == weight.dims()[0]),
                "Linear weight not [out, in] or bias not [out]",
            ),
            LayerSpec::Conv2d { weight, .. } => {
                (square(weight, 4), "Conv2d weight not [oc, ic, k, k]")
            }
            LayerSpec::MaskedConv2d {
                keep,
                out_h,
                out_w,
                weight,
                ..
            } => (
                square(weight, 4) && out_h.checked_mul(*out_w) == Some(keep.len()),
                "MaskedConv2d weight not [oc, ic, k, k] or keep not out_h × out_w",
            ),
            LayerSpec::DepthwiseConv2d { weight, .. } => {
                (square(weight, 3), "DepthwiseConv2d weight not [C, k, k]")
            }
            LayerSpec::BatchNorm2d {
                gamma,
                beta,
                running_mean,
                running_var,
            } => (
                [beta, running_mean, running_var]
                    .iter()
                    .all(|t| t.numel() == gamma.numel()),
                "BatchNorm2d tensors not all [C]",
            ),
            LayerSpec::LayerNorm { gamma, beta } => (
                gamma.numel() == beta.numel(),
                "LayerNorm gamma and beta differ",
            ),
            LayerSpec::Embedding { weight } | LayerSpec::MaskedEmbedding { weight, .. } => (
                weight.shape().rank() == 2,
                "Embedding weight not [vocab, dim]",
            ),
            LayerSpec::MultiHeadSelfAttention {
                wq,
                wk,
                wv,
                wo,
                heads,
                ..
            } => {
                let d = wq.dims().first().copied().unwrap_or(0);
                (
                    [wq, wk, wv, wo].iter().all(|m| m.dims() == [d, d])
                        && *heads > 0
                        && d % heads == 0,
                    "attention projections not [D, D] with heads dividing D",
                )
            }
            _ => return None,
        };
        (!ok).then_some(broken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use amalgam_tensor::Rng;

    fn roundtrip(spec: LayerSpec) -> LayerSpec {
        let mut w = Writer::new();
        spec.encode(&mut w);
        let mut r = Reader::new(w.finish());
        let back = LayerSpec::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after decode");
        back
    }

    #[test]
    fn stateless_specs_roundtrip() {
        for spec in [
            LayerSpec::Relu,
            LayerSpec::Add,
            LayerSpec::Detach,
            LayerSpec::Flatten,
        ] {
            let back = roundtrip(spec.clone());
            assert_eq!(back.tag(), spec.tag());
        }
    }

    #[test]
    fn linear_roundtrip_preserves_behaviour() {
        let mut rng = Rng::seed_from(0);
        let mut l = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let want = l.forward(&[&x], Mode::Eval);
        let mut back = roundtrip(l.spec()).build();
        let got = back.forward(&[&x], Mode::Eval);
        assert!(got.approx_eq(&want, 0.0));
    }

    #[test]
    fn conv_roundtrip_preserves_behaviour() {
        let mut rng = Rng::seed_from(1);
        let mut c = Conv2d::new(2, 3, 3, 2, 1, true, &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let want = c.forward(&[&x], Mode::Eval);
        let mut back = roundtrip(c.spec()).build();
        assert!(back.forward(&[&x], Mode::Eval).approx_eq(&want, 0.0));
    }

    #[test]
    fn masked_conv_roundtrip_preserves_keep_indices() {
        let mut rng = Rng::seed_from(2);
        let keep = rng.sample_indices(16, 9);
        let inner = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        let m = MaskedConv2d::new(keep.clone(), 3, 3, inner);
        match roundtrip(m.spec()) {
            LayerSpec::MaskedConv2d {
                keep: k2,
                out_h,
                out_w,
                ..
            } => {
                assert_eq!(k2, keep);
                assert_eq!((out_h, out_w), (3, 3));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn attention_roundtrip_preserves_behaviour() {
        let mut rng = Rng::seed_from(3);
        let mut a = MultiHeadSelfAttention::new(4, 2, true, &mut rng);
        let x = Tensor::randn(&[1, 3, 4], &mut rng);
        let want = a.forward(&[&x], Mode::Eval);
        let mut back = roundtrip(a.spec()).build();
        assert!(back.forward(&[&x], Mode::Eval).approx_eq(&want, 0.0));
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut w = Writer::new();
        w.put_u8(200);
        let mut r = Reader::new(w.finish());
        assert!(matches!(
            LayerSpec::decode(&mut r),
            Err(NnError::UnknownLayerTag { tag: 200 })
        ));
    }

    #[test]
    fn batchnorm_roundtrip_preserves_running_stats() {
        let mut rng = Rng::seed_from(4);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        bn.forward(&[&x], Mode::Train);
        let want = bn.forward(&[&x], Mode::Eval);
        let mut back = roundtrip(bn.spec()).build();
        assert!(back.forward(&[&x], Mode::Eval).approx_eq(&want, 0.0));
    }
}
