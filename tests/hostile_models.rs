//! A job's model is bytes from an untrusted peer. Bytes that name a layer
//! its constructor would refuse — a rank-3 convolution weight, a keep list
//! that does not fill its output, normalisation tensors of two lengths — or
//! that repeat a node name must be answered as what they are, a malformed
//! model (`CloudError::Decode`), never as a worker panic the service had to
//! catch.

use amalgam::cloud::CloudService;
use amalgam::nn::LayerSpec;
use amalgam::prelude::*;
use amalgam::tensor::wire::Writer;
use bytes::Bytes;

fn t(dims: &[usize]) -> Tensor {
    Tensor::zeros(dims)
}

/// A model's wire image: an input node `x`, then `(name, spec)` nodes each
/// fed by the one before, the last one the output.
fn model_bytes(layers: &[(&str, LayerSpec)]) -> Bytes {
    let mut w = Writer::new();
    w.put_u32(1 + layers.len() as u32);
    w.put_str("x");
    w.put_usize_list(&[]);
    LayerSpec::Input.encode(&mut w);
    for (i, (name, spec)) in layers.iter().enumerate() {
        w.put_str(name);
        w.put_usize_list(&[i]);
        spec.encode(&mut w);
    }
    w.put_usize_list(&[0]);
    w.put_usize_list(&[layers.len()]);
    w.finish()
}

fn attention(wq: Tensor, wk: Tensor, heads: usize) -> LayerSpec {
    LayerSpec::MultiHeadSelfAttention {
        wq,
        wk,
        wv: t(&[4, 4]),
        wo: t(&[4, 4]),
        heads,
        causal: false,
    }
}

/// One case per precondition a layer constructor asserts, plus a repeated
/// node name.
fn hostile_models() -> Vec<(&'static str, Bytes)> {
    let conv = |weight| LayerSpec::Conv2d {
        weight,
        bias: None,
        stride: 1,
        padding: 0,
    };
    let depthwise = |weight| LayerSpec::DepthwiseConv2d {
        weight,
        bias: None,
        stride: 1,
        padding: 0,
    };
    let one = |name, spec| (name, model_bytes(&[("layer", spec)]));
    vec![
        (
            "duplicate node name",
            model_bytes(&[("x", LayerSpec::Relu)]),
        ),
        one("dropout p = 1", LayerSpec::Dropout { p: 1.0, seed: 0 }),
        one(
            "rank-3 Linear weight",
            LayerSpec::Linear {
                weight: t(&[2, 3, 4]),
                bias: None,
            },
        ),
        one(
            "Linear bias not [out]",
            LayerSpec::Linear {
                weight: t(&[2, 3]),
                bias: Some(t(&[3])),
            },
        ),
        one("rank-3 Conv2d weight", conv(t(&[2, 1, 3]))),
        one("non-square Conv2d kernel", conv(t(&[2, 1, 3, 2]))),
        one(
            "MaskedConv2d keep of 3 for a 2x2 output",
            LayerSpec::MaskedConv2d {
                keep: vec![0, 1, 2],
                out_h: 2,
                out_w: 2,
                weight: t(&[1, 1, 1, 1]),
                bias: None,
                stride: 1,
                padding: 0,
            },
        ),
        one("rank-2 DepthwiseConv2d weight", depthwise(t(&[2, 3]))),
        one(
            "non-square DepthwiseConv2d kernel",
            depthwise(t(&[2, 3, 2])),
        ),
        one(
            "BatchNorm2d tensors of lengths 2 and 3",
            LayerSpec::BatchNorm2d {
                gamma: t(&[2]),
                beta: t(&[3]),
                running_mean: t(&[2]),
                running_var: t(&[2]),
            },
        ),
        one(
            "LayerNorm gamma and beta differ",
            LayerSpec::LayerNorm {
                gamma: t(&[4]),
                beta: t(&[3]),
            },
        ),
        one(
            "rank-1 Embedding weight",
            LayerSpec::Embedding { weight: t(&[5]) },
        ),
        one(
            "rank-3 MaskedEmbedding weight",
            LayerSpec::MaskedEmbedding {
                keep: vec![0],
                weight: t(&[5, 2, 2]),
            },
        ),
        one(
            "non-square attention projection",
            attention(t(&[4, 3]), t(&[4, 4]), 2),
        ),
        one(
            "attention projections of two sizes",
            attention(t(&[4, 4]), t(&[2, 2]), 2),
        ),
        one(
            "attention heads not dividing D",
            attention(t(&[4, 4]), t(&[4, 4]), 3),
        ),
        one("zero attention heads", attention(t(&[4, 4]), t(&[4, 4]), 0)),
    ]
}

#[test]
fn hostile_model_bytes_are_decode_errors_not_panics() {
    let service = CloudService::builder().workers(1).build();
    let client = service.client();
    let cases = hostile_models();
    for (case, model) in &cases {
        let job = CloudJob {
            model: model.clone(),
            task: TaskPayload::Classification {
                inputs: t(&[1, 1, 4, 4]),
                labels: vec![0],
                val_inputs: None,
                val_labels: vec![],
            },
            train: TrainConfig::new(1, 1, 0.05),
        };
        match client.train(&job) {
            Err(CloudError::Decode(_)) => {}
            other => panic!("{case}: expected a Decode error, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_panicked, 0, "{stats}");
    assert_eq!(stats.jobs_failed, cases.len() as u64, "{stats}");
    service.shutdown();
}
