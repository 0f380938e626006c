//! Serializable layer descriptions — the Rust analogue of the paper's
//! TorchScript export.
//!
//! A [`LayerSpec`] captures a layer's hyper-parameters *and* parameter
//! tensors; [`LayerSpec::build`] reconstructs a live layer. Specs are what
//! cross the simulated cloud boundary: they deliberately contain nothing that
//! identifies which sub-network is the original one.

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

/// Serializable description of any layer in the workspace.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant fields mirror the layer constructors documented in `layers`
pub enum LayerSpec {
    Input,
    Identity,
    Detach,
    Add,
    Mul,
    Concat,
    Flatten,
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
    MaxPool2d {
        kernel: usize,
        stride: usize,
    },
    AvgPool2d {
        kernel: usize,
        stride: usize,
    },
    GlobalAvgPool2d,
    GlobalMaxPool2d,
    ChannelStats,
    MeanPoolSeq,
    BroadcastMulChannel,
    Dropout {
        p: f32,
        seed: u64,
    },
    Linear {
        weight: Tensor,
        bias: Option<Tensor>,
    },
    Conv2d {
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    },
    BatchNorm2d {
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    },
    LayerNorm {
        gamma: Tensor,
        beta: Tensor,
    },
    Embedding {
        weight: Tensor,
    },
    PositionalEncoding {
        table: Tensor,
    },
    MultiHeadSelfAttention {
        wq: Tensor,
        wk: Tensor,
        wv: Tensor,
        wo: Tensor,
        heads: usize,
        causal: bool,
    },
    MaskedConv2d {
        keep: Vec<usize>,
        out_h: usize,
        out_w: usize,
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    },
    MaskedEmbedding {
        keep: Vec<usize>,
        weight: Tensor,
    },
    DepthwiseConv2d {
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        padding: usize,
    },
    BroadcastMulSpatial,
}

impl LayerSpec {
    /// Reconstructs a live layer from this description.
    pub fn build(&self) -> Box<dyn Layer> {
        match self.clone() {
            LayerSpec::Input => Box::new(Input::new()),
            LayerSpec::Identity => Box::new(Identity::new()),
            LayerSpec::Detach => Box::new(Detach::new()),
            LayerSpec::Add => Box::new(Add::new()),
            LayerSpec::Mul => Box::new(Mul::new()),
            LayerSpec::Concat => Box::new(Concat::new()),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::Relu => Box::new(Relu::new()),
            LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::Gelu => Box::new(Gelu::new()),
            LayerSpec::MaxPool2d { kernel, stride } => Box::new(MaxPool2d::new(kernel, stride)),
            LayerSpec::AvgPool2d { kernel, stride } => Box::new(AvgPool2d::new(kernel, stride)),
            LayerSpec::GlobalAvgPool2d => Box::new(GlobalAvgPool2d::new()),
            LayerSpec::GlobalMaxPool2d => Box::new(GlobalMaxPool2d::new()),
            LayerSpec::ChannelStats => Box::new(ChannelStats::new()),
            LayerSpec::MeanPoolSeq => Box::new(MeanPoolSeq::new()),
            LayerSpec::BroadcastMulChannel => Box::new(BroadcastMulChannel::new()),
            LayerSpec::Dropout { p, seed } => Box::new(Dropout::new(p, seed)),
            LayerSpec::Linear { weight, bias } => Box::new(Linear::from_params(weight, bias)),
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => Box::new(Conv2d::from_params(weight, bias, stride, padding)),
            LayerSpec::BatchNorm2d {
                gamma,
                beta,
                running_mean,
                running_var,
            } => Box::new(BatchNorm2d::from_params(
                gamma,
                beta,
                running_mean,
                running_var,
            )),
            LayerSpec::LayerNorm { gamma, beta } => Box::new(LayerNorm::from_params(gamma, beta)),
            LayerSpec::Embedding { weight } => Box::new(Embedding::from_params(weight)),
            LayerSpec::PositionalEncoding { table } => {
                Box::new(PositionalEncoding::from_table(table))
            }
            LayerSpec::MultiHeadSelfAttention {
                wq,
                wk,
                wv,
                wo,
                heads,
                causal,
            } => Box::new(MultiHeadSelfAttention::from_params(
                wq, wk, wv, wo, heads, causal,
            )),
            LayerSpec::MaskedConv2d {
                keep,
                out_h,
                out_w,
                weight,
                bias,
                stride,
                padding,
            } => {
                let inner = Conv2d::from_params(weight, bias, stride, padding);
                Box::new(MaskedConv2d::new(keep, out_h, out_w, inner))
            }
            LayerSpec::MaskedEmbedding { keep, weight } => {
                Box::new(MaskedEmbedding::new(keep, Embedding::from_params(weight)))
            }
            LayerSpec::DepthwiseConv2d {
                weight,
                bias,
                stride,
                padding,
            } => Box::new(DepthwiseConv2d::from_params(weight, bias, stride, padding)),
            LayerSpec::BroadcastMulSpatial => Box::new(BroadcastMulSpatial::new()),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            LayerSpec::Input => 0,
            LayerSpec::Identity => 1,
            LayerSpec::Detach => 2,
            LayerSpec::Add => 3,
            LayerSpec::Mul => 4,
            LayerSpec::Concat => 5,
            LayerSpec::Flatten => 6,
            LayerSpec::Relu => 7,
            LayerSpec::Sigmoid => 8,
            LayerSpec::Tanh => 9,
            LayerSpec::Gelu => 10,
            LayerSpec::MaxPool2d { .. } => 11,
            LayerSpec::AvgPool2d { .. } => 12,
            LayerSpec::GlobalAvgPool2d => 13,
            LayerSpec::GlobalMaxPool2d => 14,
            LayerSpec::ChannelStats => 15,
            LayerSpec::MeanPoolSeq => 16,
            LayerSpec::BroadcastMulChannel => 17,
            LayerSpec::Dropout { .. } => 18,
            LayerSpec::Linear { .. } => 19,
            LayerSpec::Conv2d { .. } => 20,
            LayerSpec::BatchNorm2d { .. } => 21,
            LayerSpec::LayerNorm { .. } => 22,
            LayerSpec::Embedding { .. } => 23,
            LayerSpec::PositionalEncoding { .. } => 24,
            LayerSpec::MultiHeadSelfAttention { .. } => 25,
            LayerSpec::MaskedConv2d { .. } => 26,
            LayerSpec::MaskedEmbedding { .. } => 27,
            LayerSpec::DepthwiseConv2d { .. } => 28,
            LayerSpec::BroadcastMulSpatial => 29,
        }
    }

    /// Encodes this spec into `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
        fn put_opt(w: &mut Writer, t: &Option<Tensor>) {
            match t {
                Some(t) => {
                    w.put_u8(1);
                    w.put_tensor(t);
                }
                None => w.put_u8(0),
            }
        }
        match self {
            LayerSpec::Input
            | LayerSpec::Identity
            | LayerSpec::Detach
            | LayerSpec::Add
            | LayerSpec::Mul
            | LayerSpec::Concat
            | LayerSpec::Flatten
            | LayerSpec::Relu
            | LayerSpec::Sigmoid
            | LayerSpec::Tanh
            | LayerSpec::Gelu
            | LayerSpec::GlobalAvgPool2d
            | LayerSpec::GlobalMaxPool2d
            | LayerSpec::ChannelStats
            | LayerSpec::MeanPoolSeq
            | LayerSpec::BroadcastMulChannel
            | LayerSpec::BroadcastMulSpatial => {}
            LayerSpec::MaxPool2d { kernel, stride } | LayerSpec::AvgPool2d { kernel, stride } => {
                w.put_u64(*kernel as u64);
                w.put_u64(*stride as u64);
            }
            LayerSpec::Dropout { p, seed } => {
                w.put_f32(*p);
                w.put_u64(*seed);
            }
            LayerSpec::Linear { weight, bias } => {
                w.put_tensor(weight);
                put_opt(w, bias);
            }
            LayerSpec::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                w.put_tensor(weight);
                put_opt(w, bias);
                w.put_u64(*stride as u64);
                w.put_u64(*padding as u64);
            }
            LayerSpec::BatchNorm2d {
                gamma,
                beta,
                running_mean,
                running_var,
            } => {
                w.put_tensor(gamma);
                w.put_tensor(beta);
                w.put_tensor(running_mean);
                w.put_tensor(running_var);
            }
            LayerSpec::LayerNorm { gamma, beta } => {
                w.put_tensor(gamma);
                w.put_tensor(beta);
            }
            LayerSpec::Embedding { weight } => w.put_tensor(weight),
            LayerSpec::PositionalEncoding { table } => w.put_tensor(table),
            LayerSpec::MultiHeadSelfAttention {
                wq,
                wk,
                wv,
                wo,
                heads,
                causal,
            } => {
                w.put_tensor(wq);
                w.put_tensor(wk);
                w.put_tensor(wv);
                w.put_tensor(wo);
                w.put_u64(*heads as u64);
                w.put_u8(u8::from(*causal));
            }
            LayerSpec::MaskedConv2d {
                keep,
                out_h,
                out_w,
                weight,
                bias,
                stride,
                padding,
            } => {
                w.put_usize_list(keep);
                w.put_u64(*out_h as u64);
                w.put_u64(*out_w as u64);
                w.put_tensor(weight);
                put_opt(w, bias);
                w.put_u64(*stride as u64);
                w.put_u64(*padding as u64);
            }
            LayerSpec::MaskedEmbedding { keep, weight } => {
                w.put_usize_list(keep);
                w.put_tensor(weight);
            }
            LayerSpec::DepthwiseConv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                w.put_tensor(weight);
                put_opt(w, bias);
                w.put_u64(*stride as u64);
                w.put_u64(*padding as u64);
            }
        }
    }

    /// Decodes a spec written by [`encode`](Self::encode). A decoded spec
    /// [`build`](Self::build)s without panicking: what the layer
    /// constructors assert is checked here.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayerTag`] on an unrecognised tag, or a wire
    /// error if the buffer is truncated or malformed — a spec its layer's
    /// constructor would refuse included.
    pub fn decode(r: &mut Reader) -> Result<LayerSpec, NnError> {
        fn get_opt(r: &mut Reader) -> Result<Option<Tensor>, NnError> {
            Ok(if r.get_u8()? == 1 {
                Some(r.get_tensor()?)
            } else {
                None
            })
        }
        let tag = r.get_u8()?;
        let spec = match tag {
            0 => LayerSpec::Input,
            1 => LayerSpec::Identity,
            2 => LayerSpec::Detach,
            3 => LayerSpec::Add,
            4 => LayerSpec::Mul,
            5 => LayerSpec::Concat,
            6 => LayerSpec::Flatten,
            7 => LayerSpec::Relu,
            8 => LayerSpec::Sigmoid,
            9 => LayerSpec::Tanh,
            10 => LayerSpec::Gelu,
            11 => LayerSpec::MaxPool2d {
                kernel: r.get_u64()? as usize,
                stride: r.get_u64()? as usize,
            },
            12 => LayerSpec::AvgPool2d {
                kernel: r.get_u64()? as usize,
                stride: r.get_u64()? as usize,
            },
            13 => LayerSpec::GlobalAvgPool2d,
            14 => LayerSpec::GlobalMaxPool2d,
            15 => LayerSpec::ChannelStats,
            16 => LayerSpec::MeanPoolSeq,
            17 => LayerSpec::BroadcastMulChannel,
            18 => LayerSpec::Dropout {
                p: r.get_f32()?,
                seed: r.get_u64()?,
            },
            19 => LayerSpec::Linear {
                weight: r.get_tensor()?,
                bias: get_opt(r)?,
            },
            20 => LayerSpec::Conv2d {
                weight: r.get_tensor()?,
                bias: get_opt(r)?,
                stride: r.get_u64()? as usize,
                padding: r.get_u64()? as usize,
            },
            21 => LayerSpec::BatchNorm2d {
                gamma: r.get_tensor()?,
                beta: r.get_tensor()?,
                running_mean: r.get_tensor()?,
                running_var: r.get_tensor()?,
            },
            22 => LayerSpec::LayerNorm {
                gamma: r.get_tensor()?,
                beta: r.get_tensor()?,
            },
            23 => LayerSpec::Embedding {
                weight: r.get_tensor()?,
            },
            24 => LayerSpec::PositionalEncoding {
                table: r.get_tensor()?,
            },
            25 => LayerSpec::MultiHeadSelfAttention {
                wq: r.get_tensor()?,
                wk: r.get_tensor()?,
                wv: r.get_tensor()?,
                wo: r.get_tensor()?,
                heads: r.get_u64()? as usize,
                causal: r.get_u8()? == 1,
            },
            26 => LayerSpec::MaskedConv2d {
                keep: r.get_usize_list()?,
                out_h: r.get_u64()? as usize,
                out_w: r.get_u64()? as usize,
                weight: r.get_tensor()?,
                bias: get_opt(r)?,
                stride: r.get_u64()? as usize,
                padding: r.get_u64()? as usize,
            },
            27 => LayerSpec::MaskedEmbedding {
                keep: r.get_usize_list()?,
                weight: r.get_tensor()?,
            },
            28 => LayerSpec::DepthwiseConv2d {
                weight: r.get_tensor()?,
                bias: get_opt(r)?,
                stride: r.get_u64()? as usize,
                padding: r.get_u64()? as usize,
            },
            29 => LayerSpec::BroadcastMulSpatial,
            tag => return Err(NnError::UnknownLayerTag { tag }),
        };
        match spec.refusal() {
            Some(context) => Err(NnError::Wire(TensorError::MalformedWire { context })),
            None => Ok(spec),
        }
    }

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
