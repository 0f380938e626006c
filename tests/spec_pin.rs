//! The layer-spec codec, pinned byte for byte: one literal spec per layer
//! kind, a distinct small value in every field, and the exact image
//! `LayerSpec::encode` writes for it. A change that moves a tag, reorders a
//! field or changes how a field goes on the wire fails here before it
//! reaches a peer; so does a `decode` that reads a field differently from
//! how `encode` wrote it, a `build` that hands a field to the wrong
//! constructor argument, and a decoder that panics on a cut image.

use amalgam::nn::{LayerSpec, NnError};
use amalgam::prelude::*;
use amalgam::tensor::wire::{Reader, Writer};
use bytes::Bytes;

/// A tensor of `dims` holding `first`, `first + 0.25`, `first + 0.5`, …
fn t(dims: &[usize], first: f32) -> Tensor {
    let n = dims.iter().product::<usize>();
    Tensor::from_vec((0..n).map(|i| first + 0.25 * i as f32).collect(), dims)
}

fn encode(spec: &LayerSpec) -> Bytes {
    let mut w = Writer::new();
    spec.encode(&mut w);
    w.finish()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The variant's name, as `Debug` prints it.
fn variant(spec: &LayerSpec) -> String {
    let debug = format!("{spec:?}");
    debug
        .split([' ', '{', '('])
        .next()
        .expect("a variant name")
        .to_string()
}

/// `(kind, spec, image)`: every layer kind once, in tag order, then the
/// optional bias absent.
fn pinned() -> Vec<(&'static str, LayerSpec, &'static str)> {
    vec![
        ("Input", LayerSpec::Input, "00"),
        ("Identity", LayerSpec::Identity, "01"),
        ("Detach", LayerSpec::Detach, "02"),
        ("Add", LayerSpec::Add, "03"),
        ("Mul", LayerSpec::Mul, "04"),
        ("Concat", LayerSpec::Concat, "05"),
        ("Flatten", LayerSpec::Flatten, "06"),
        ("Relu", LayerSpec::Relu, "07"),
        ("Sigmoid", LayerSpec::Sigmoid, "08"),
        ("Tanh", LayerSpec::Tanh, "09"),
        ("Gelu", LayerSpec::Gelu, "0a"),
        (
            "MaxPool2d",
            LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 3,
            },
            "0b02000000000000000300000000000000",
        ),
        (
            "AvgPool2d",
            LayerSpec::AvgPool2d {
                kernel: 4,
                stride: 5,
            },
            "0c04000000000000000500000000000000",
        ),
        ("GlobalAvgPool2d", LayerSpec::GlobalAvgPool2d, "0d"),
        ("GlobalMaxPool2d", LayerSpec::GlobalMaxPool2d, "0e"),
        ("ChannelStats", LayerSpec::ChannelStats, "0f"),
        ("MeanPoolSeq", LayerSpec::MeanPoolSeq, "10"),
        ("BroadcastMulChannel", LayerSpec::BroadcastMulChannel, "11"),
        (
            "Dropout",
            LayerSpec::Dropout {
                p: 0.25,
                seed: 0x0102_0304_0506_0708,
            },
            "120000803e0807060504030201",
        ),
        (
            "Linear",
            LayerSpec::Linear {
                weight: t(&[2, 3], 1.0),
                bias: Some(t(&[2], 3.0)),
            },
            "13020000000200000000000000030000000000000006000000000000000000803f0000a03f0000c03f0000e03f00000040000010400101000000020000000000000002000000000000000000404000005040",
        ),
        (
            "Conv2d",
            LayerSpec::Conv2d {
                weight: t(&[1, 2, 2, 2], 1.0),
                bias: Some(t(&[1], 5.0)),
                stride: 2,
                padding: 3,
            },
            "1404000000010000000000000002000000000000000200000000000000020000000000000008000000000000000000803f0000a03f0000c03f0000e03f000000400000104000002040000030400101000000010000000000000001000000000000000000a04002000000000000000300000000000000",
        ),
        (
            "BatchNorm2d",
            LayerSpec::BatchNorm2d {
                gamma: t(&[2], 1.0),
                beta: t(&[2], 2.0),
                running_mean: t(&[2], 3.0),
                running_var: t(&[2], 4.0),
            },
            "1501000000020000000000000002000000000000000000803f0000a03f010000000200000000000000020000000000000000000040000010400100000002000000000000000200000000000000000040400000504001000000020000000000000002000000000000000000804000008840",
        ),
        (
            "LayerNorm",
            LayerSpec::LayerNorm {
                gamma: t(&[2], 1.5),
                beta: t(&[2], 2.5),
            },
            "1601000000020000000000000002000000000000000000c03f0000e03f01000000020000000000000002000000000000000000204000003040",
        ),
        (
            "Embedding",
            LayerSpec::Embedding {
                weight: t(&[3, 2], 0.5),
            },
            "17020000000300000000000000020000000000000006000000000000000000003f0000403f0000803f0000a03f0000c03f0000e03f",
        ),
        (
            "PositionalEncoding",
            LayerSpec::PositionalEncoding {
                table: t(&[2, 2], 6.0),
            },
            "18020000000200000000000000020000000000000004000000000000000000c0400000c8400000d0400000d840",
        ),
        (
            "MultiHeadSelfAttention",
            LayerSpec::MultiHeadSelfAttention {
                wq: t(&[2, 2], 1.0),
                wk: t(&[2, 2], 2.0),
                wv: t(&[2, 2], 3.0),
                wo: t(&[2, 2], 4.0),
                heads: 2,
                causal: true,
            },
            "19020000000200000000000000020000000000000004000000000000000000803f0000a03f0000c03f0000e03f020000000200000000000000020000000000000004000000000000000000004000001040000020400000304002000000020000000000000002000000000000000400000000000000000040400000504000006040000070400200000002000000000000000200000000000000040000000000000000008040000088400000904000009840020000000000000001",
        ),
        (
            "MaskedConv2d",
            LayerSpec::MaskedConv2d {
                keep: vec![1, 3, 5, 7, 9, 11],
                out_h: 2,
                out_w: 3,
                weight: t(&[1, 1, 1, 1], 7.0),
                bias: Some(t(&[1], 8.0)),
                stride: 4,
                padding: 5,
            },
            "1a06000000010000000000000003000000000000000500000000000000070000000000000009000000000000000b000000000000000200000000000000030000000000000004000000010000000000000001000000000000000100000000000000010000000000000001000000000000000000e0400101000000010000000000000001000000000000000000004104000000000000000500000000000000",
        ),
        (
            "MaskedEmbedding",
            LayerSpec::MaskedEmbedding {
                keep: vec![2, 4],
                weight: t(&[2, 1], 9.0),
            },
            "1b0200000002000000000000000400000000000000020000000200000000000000010000000000000002000000000000000000104100001441",
        ),
        (
            "DepthwiseConv2d",
            LayerSpec::DepthwiseConv2d {
                weight: t(&[1, 2, 2], 1.25),
                bias: Some(t(&[1], 2.75)),
                stride: 6,
                padding: 7,
            },
            "1c0300000001000000000000000200000000000000020000000000000004000000000000000000a03f0000c03f0000e03f000000400101000000010000000000000001000000000000000000304006000000000000000700000000000000",
        ),
        ("BroadcastMulSpatial", LayerSpec::BroadcastMulSpatial, "1d"),
        (
            "Linear",
            LayerSpec::Linear {
                weight: t(&[1, 2], 0.75),
                bias: None,
            },
            "13020000000100000000000000020000000000000002000000000000000000403f0000803f00",
        ),
    ]
}

#[test]
fn every_layer_kind_has_its_pinned_image() {
    let pinned = pinned();
    let kinds: std::collections::BTreeSet<_> = pinned.iter().map(|(kind, ..)| *kind).collect();
    assert_eq!(kinds.len(), 30, "one pin per layer kind");
    for (kind, spec, want) in &pinned {
        assert_eq!(variant(spec), *kind, "the pin's variant is its kind");
        assert_eq!(hex(&encode(spec)), *want, "{kind}'s image");
    }
}

#[test]
fn decoding_a_pinned_image_gives_the_same_bytes_back() {
    for (kind, spec, _) in pinned() {
        let image = encode(&spec);
        let mut r = Reader::new(image.clone());
        let back = LayerSpec::decode(&mut r).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(r.remaining(), 0, "{kind}: trailing bytes after decode");
        assert_eq!(variant(&back), kind);
        assert_eq!(encode(&back), image, "{kind}: decode then encode");
    }
}

#[test]
fn a_built_layer_describes_itself_as_its_pin() {
    for (kind, spec, want) in pinned() {
        let layer = spec.build();
        assert_eq!(layer.kind(), kind, "the built layer's kind");
        assert_eq!(hex(&encode(&layer.spec())), want, "{kind}: build().spec()");
    }
}

#[test]
fn tags_past_the_table_are_unknown() {
    for tag in [30u8, 255] {
        let mut r = Reader::new(Bytes::from(vec![tag]));
        match LayerSpec::decode(&mut r) {
            Err(NnError::UnknownLayerTag { tag: got }) => assert_eq!(got, tag),
            other => panic!("tag {tag}: {other:?}"),
        }
    }
}

#[test]
fn every_truncation_of_every_image_is_an_error() {
    for (kind, spec, _) in pinned() {
        let image = encode(&spec);
        for len in 0..image.len() {
            let mut r = Reader::new(image.slice(..len));
            assert!(
                LayerSpec::decode(&mut r).is_err(),
                "{kind} cut to {len} of {} bytes decoded",
                image.len()
            );
        }
    }
}
