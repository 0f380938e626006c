//! Property-based tests over the core invariants, via proptest.

use amalgam::core::{augment_images, deaugment_images, ImagePlan, NoiseKind, TextPlan};
use amalgam::data::ImageDataset;
use amalgam::prelude::*;
use proptest::prelude::*;

#[path = "../crates/cloud/tests/support/differential.rs"]
mod transport_differential;

/// Tier-1's fixed-seed slice of the transport's differential property (the
/// full sweep is `amalgam-cloud`'s `transport_properties.rs`): random frame
/// sequences through the chunked writer, the decoder over the whole image
/// and the decoder under hostile segmentation all agree.
#[test]
fn transport_readers_and_writer_agree_on_fixed_seeds() {
    for seed in 0..48 {
        transport_differential::check(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An image plan always partitions the augmented plane exactly.
    #[test]
    fn image_plan_partitions_plane(h in 2usize..12, w in 2usize..12, pct in 0u32..150, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let plan = ImagePlan::random(h, w, pct as f32 / 100.0, &mut rng);
        let (ah, aw) = plan.aug_hw();
        let mut seen = vec![false; ah * aw];
        for &k in plan.keep() {
            prop_assert!(!seen[k], "duplicate keep index");
            seen[k] = true;
        }
        for &p in &plan.noise_positions() {
            prop_assert!(!seen[p], "noise overlaps keep");
            seen[p] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "plane not covered");
    }

    /// Augment → de-augment is the identity on every image, any noise kind.
    #[test]
    fn augment_roundtrip_identity(hw in 3usize..10, pct in 0u32..120, seed in 0u64..500, kind in 0u8..3) {
        let mut rng = Rng::seed_from(seed);
        let n = 3usize;
        let images = Tensor::rand_uniform(&[n, 2, hw, hw], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let data = ImageDataset::new(images, labels, 2);
        let plan = ImagePlan::random(hw, hw, pct as f32 / 100.0, &mut rng);
        let noise = match kind {
            0 => NoiseKind::UniformRandom,
            1 => NoiseKind::Gaussian { sigma: 0.3 },
            _ => NoiseKind::Laplace { sigma: 0.3 },
        };
        let aug = augment_images(&data, &plan, &noise, &mut rng);
        let back = deaugment_images(&aug.dataset, &plan);
        prop_assert_eq!(back.images().data(), data.images().data());
        prop_assert_eq!(back.labels(), data.labels());
    }

    /// Search spaces grow monotonically with the augmentation amount.
    #[test]
    fn search_space_monotone(len in 4usize..40, seed in 0u64..200) {
        let mut rng = Rng::seed_from(seed);
        let mut last = -1.0f64;
        for pct in [25u32, 50, 75, 100] {
            let plan = TextPlan::random(len, pct as f32 / 100.0, &mut rng);
            let log = plan.search_space().log10();
            prop_assert!(log >= last, "search space shrank at {pct}%");
            last = log;
        }
    }

    /// Wire round trips never corrupt a tensor.
    #[test]
    fn tensor_wire_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4), seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::randn(&dims, &mut rng);
        let mut w = amalgam::tensor::wire::Writer::new();
        w.put_tensor(&t);
        let mut r = amalgam::tensor::wire::Reader::new(w.finish());
        let back = r.get_tensor().unwrap();
        prop_assert_eq!(back.dims(), t.dims());
        prop_assert_eq!(back.data(), t.data());
    }

    /// The privacy-loss equations always satisfy ε + ρ = 1 and ε ∈ (0, 1].
    #[test]
    fn privacy_identities(alpha in 0.0f64..16.0) {
        let e = amalgam::core::privacy::privacy_loss(alpha);
        let r = amalgam::core::privacy::performance_loss(alpha);
        prop_assert!((e + r - 1.0).abs() < 1e-12);
        prop_assert!(e > 0.0 && e <= 1.0);
    }

    /// Model graphs survive serialization with identical behaviour on a
    /// random input (spec round trip over a random-ish architecture).
    #[test]
    fn graph_wire_roundtrip_behaviour(seed in 0u64..200, hw in 4usize..9) {
        let mut rng = Rng::seed_from(seed);
        let hw = hw / 2 * 2; // even
        let model = amalgam::models::lenet5(1, hw.max(8), 5, &mut rng);
        let mut a = model.clone();
        let mut b = amalgam::nn::graph::GraphModel::from_bytes(model.to_bytes()).unwrap();
        let x = Tensor::randn(&[2, 1, hw.max(8), hw.max(8)], &mut rng);
        let ya = a.forward_one(&x, Mode::Eval);
        let yb = b.forward_one(&x, Mode::Eval);
        prop_assert_eq!(ya.data(), yb.data());
    }
}

/// One of the graphs `fused_segments_train_like_the_layers` trains: a
/// convolution feeding `[BatchNorm2d →] Relu → {0, 1, 2} Add → [AvgPool2d]`
/// and a linear head, the taps drawn from a sibling convolution (one of them
/// behind a `Detach`, so its gradient is not demanded).
#[derive(Debug, Clone, Copy)]
struct ChainCase {
    dims: [usize; 4],
    batch_norm: bool,
    adds: usize,
    pool: bool,
    /// The taps are their `Add`'s first operand.
    tap_first: bool,
    /// The last node of the chain is declared an output as well.
    chain_is_output: bool,
    /// The `Relu` feeds a second head too.
    fan_out: bool,
}

fn chain_graph(case: ChainCase, rng: &mut Rng) -> amalgam::nn::graph::GraphModel {
    use amalgam::nn::graph::GraphModel;
    use amalgam::nn::layers::{
        Add, AvgPool2d, BatchNorm2d, Conv2d, Detach, Flatten, GlobalAvgPool2d, Linear, Relu,
    };
    let [_, c, h, w] = case.dims;
    let mut g = GraphModel::new();
    let x = g.input("x");
    let conv = g.add_layer("conv", Conv2d::new(2, c, 3, 1, 1, true, rng), &[x]);
    let side = g.add_layer("side", Conv2d::new(2, c, 1, 1, 0, false, rng), &[x]);
    let mut node = conv;
    if case.batch_norm {
        node = g.add_layer("bn", BatchNorm2d::new(c), &[node]);
    }
    node = g.add_layer("relu", Relu::new(), &[node]);
    let relu = node;
    for k in 0..case.adds {
        let tap = match k {
            0 => side,
            _ => g.add_layer("cut", Detach::new(), &[side]),
        };
        let operands = if case.tap_first {
            [tap, node]
        } else {
            [node, tap]
        };
        node = g.add_layer(&format!("add{k}"), Add::new(), &operands);
    }
    let (mut fh, mut fw) = (h, w);
    if case.pool {
        node = g.add_layer("pool", AvgPool2d::new(2, 2), &[node]);
        (fh, fw) = ((h - 2) / 2 + 1, (w - 2) / 2 + 1);
    }
    let flat = g.add_layer("flat", Flatten::new(), &[node]);
    let head = g.add_layer("head", Linear::new(c * fh * fw, 3, true, rng), &[flat]);
    let mut outputs = vec![head];
    if case.chain_is_output {
        outputs.push(node);
    }
    if case.fan_out {
        let pooled = g.add_layer("gap", GlobalAvgPool2d::new(), &[relu]);
        outputs.push(g.add_layer("head2", Linear::new(c, 2, true, rng), &[pooled]));
    }
    g.set_outputs(&outputs);
    g
}

/// Everything three steps of `model` leave behind, as bits: the outputs of
/// every pass (training and evaluation), every parameter gradient — the
/// upstream convolution's is the chain's `dx`, the sibling's the taps' — then
/// the parameters and the running statistics.
fn chain_trace(
    mut model: amalgam::nn::graph::GraphModel,
    case: ChainCase,
    fused: bool,
) -> Vec<Vec<u32>> {
    use amalgam::nn::optim::Sgd;
    model.set_fusion_for_tests(fused);
    let mut rng = Rng::seed_from(7);
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let mut trace = Vec::new();
    let [n, _, h, w] = case.dims;
    for step in 0..3 {
        let x = Tensor::randn(&[n, 2, h, w], &mut rng);
        // The second step is an evaluation pass: layers as they are, and
        // their backward behind it.
        let mode = if step == 1 { Mode::Eval } else { Mode::Train };
        let outs = model.forward(&[&x], mode);
        let seeds: Vec<Tensor> = outs
            .iter()
            .map(|o| Tensor::randn(o.dims(), &mut rng))
            .collect();
        trace.extend(outs.iter().map(|o| f32_bits(o.data())));
        model.zero_grad();
        model.backward(&seeds);
        trace.extend(model.params_mut().iter().map(|p| f32_bits(p.grad.data())));
        opt.step(&mut model.params_mut());
    }
    trace.extend(model.state_dict().iter().map(|(_, t)| f32_bits(t.data())));
    for id in model.node_ids() {
        trace.extend(
            model
                .node(id)
                .layer()
                .buffers()
                .iter()
                .map(|t| f32_bits(t.data())),
        );
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A graph whose chains run as fused segments trains bit for bit like the
    /// same graph with every node run on its own: outputs, `dx`, tap
    /// gradients, `dγ`/`dβ`, running statistics — over odd and even planes
    /// (an odd one falls back at the pool), zero to two `Add`s in either
    /// operand order, with and without the `BatchNorm2d` and the pool,
    /// training and evaluation passes, a chain that is itself an output and a
    /// chain that fans out in the middle.
    #[test]
    fn fused_segments_train_like_the_layers(
        n in 1usize..5, c in 1usize..10, h in 2usize..12, w in 2usize..12,
        adds in 0usize..3, shape in 0u8..64, seed in 0u64..1000,
    ) {
        let case = ChainCase {
            dims: [n, c, h, w],
            batch_norm: shape & 1 != 0,
            adds,
            pool: shape & 2 != 0,
            tap_first: shape & 4 != 0,
            // The rarer shapes get a quarter of the cases each.
            chain_is_output: shape & 24 == 24,
            fan_out: shape & 32 != 0 && shape & 8 != 0,
        };
        let model = chain_graph(case, &mut Rng::seed_from(seed));
        let (fused, layers) = (chain_trace(model.clone(), case, true), chain_trace(model, case, false));
        prop_assert!(fused == layers, "{case:?}");
    }
}

/// Augmented datasets always embed the original values verbatim at the
/// plan's kept positions (non-proptest spot check across amounts).
#[test]
fn kept_positions_carry_originals() {
    let mut rng = Rng::seed_from(77);
    let data = amalgam::data::SyntheticImageSpec::cifar10_like()
        .with_counts(4, 1)
        .with_hw(6)
        .generate(&mut rng)
        .train;
    for amount in [0.25f32, 0.5, 1.0] {
        let plan = ImagePlan::random(6, 6, amount, &mut rng);
        let aug = augment_images(&data, &plan, &NoiseKind::UniformRandom, &mut rng);
        let (ah, aw) = plan.aug_hw();
        for nc in 0..4 * 3 {
            for (k, &pos) in plan.keep().iter().enumerate() {
                assert_eq!(
                    aug.dataset.images().data()[nc * ah * aw + pos],
                    data.images().data()[nc * 36 + k]
                );
            }
        }
    }
}

/// Demand-driven backward is invisible to parameters — a fixed-seed slice of
/// `crates/nn/tests/layer_properties.rs`, so tier-1 guards it: on the
/// augmented LeNet-5 (masked entry convolutions on the raw input, `Detach`
/// taps, three heads) and the augmented transformer LM, the parameter
/// gradients `GraphModel::backward` leaves equal, bit for bit, those of
/// back-propagation with every input gradient demanded of every layer.
#[test]
fn demand_pruning_is_invisible_to_parameters() {
    use amalgam::data::LmCorpusSpec;
    use amalgam::models::{lenet5, transformer_lm, TransformerLmConfig};
    use amalgam::nn::gradcheck::backward_all_demanded;

    let mut rng = Rng::seed_from(41);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(16, 4)
        .with_hw(12)
        .with_classes(4)
        .generate(&mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(42).with_subnets(2);
    let lenet = Amalgam::obfuscate(&lenet5(1, 12, 4, &mut rng), &data, &cfg).expect("obfuscation");
    let images = lenet.augmented_train.batch_at(&[0, 1, 2, 3]).0;

    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(30)
        .with_tokens(200)
        .generate(&mut rng);
    let lm_model = transformer_lm(&TransformerLmConfig::tiny(30, 16), &mut rng);
    let lm = Amalgam::obfuscate_lm(&lm_model, &corpus.batchify(4, 8), &cfg).expect("obfuscation");
    let window = lm.augmented_train.windows[0].clone();

    for (name, model, x) in [
        ("augmented LeNet-5", lenet.augmented_model, images),
        ("augmented transformer LM", lm.augmented_model, window),
    ] {
        let (mut pruned, mut full) = (model.clone(), model);
        let outs = pruned.forward(&[&x], Mode::Train);
        full.forward(&[&x], Mode::Train);
        let seeds: Vec<Tensor> = outs
            .iter()
            .map(|o| Tensor::randn(o.dims(), &mut rng))
            .collect();
        pruned.zero_grad();
        pruned.backward(&seeds);
        full.zero_grad();
        backward_all_demanded(&mut full, &seeds);
        for (p, f) in pruned.params_mut().iter().zip(full.params_mut()) {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&p.grad),
                bits(&f.grad),
                "{name}: pruning changed a gradient"
            );
        }
    }
}

fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every GEMM route gives the same bits — a fixed-seed slice of
/// `crates/tensor/tests/gemm_properties.rs`, so tier-1 guards it: LeNet's
/// entry-convolution product, a ragged shape that crosses KC, a batch with a
/// shared B, rows across the MC = 120 block and a 15-column tail of the
/// 16-column panel, down the no-pack route and the packed walk on every
/// kernel tier, all equal to the element-wise reference walk; `A·Bᵀ` items
/// on the 16-wide panels from a NaN-poisoned output; and the image-split
/// product of a 1×1 convolution's weight gradient.
#[test]
fn gemm_routes_agree_bit_for_bit() {
    use amalgam::tensor::gemm::{self, force_route, gemm_batch, BatchMat, Route};
    use amalgam::tensor::pack::MatRef;
    use amalgam::tensor::simd::{self, Tier};

    let mut rng = Rng::seed_from(43);
    let mut rand = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect() };
    let mut tiers = vec![Tier::Portable];
    if simd::simd_available() {
        tiers.push(Tier::Simd);
    }
    for (batch, m, n, k) in [
        (1usize, 6usize, 1600usize, 25usize),
        (1, 17, 41, 300),
        (5, 7, 90, 260),
        (2, 121, 31, 40),
    ] {
        let (ad, bd) = (rand(batch * m * k), rand(k * n));
        let a = BatchMat::row_major(&ad, m, k);
        for b in [
            BatchMat::shared(MatRef::row_major(&bd, n)),
            BatchMat::shared(MatRef::transposed(&bd, k)),
        ] {
            let mut want = vec![0.0f32; batch * m * n];
            for (bi, item) in want.chunks_mut(m * n).enumerate() {
                gemm::reference::gemm(m, n, k, a.item(bi), b.item(bi), item);
            }
            for &tier in &tiers {
                simd::force_tier(Some(tier));
                for route in [Route::Skinny, Route::Packed] {
                    force_route(Some(route));
                    let mut batched = vec![f32::NAN; batch * m * n];
                    gemm_batch(batch, m, n, k, a, b, 1.0, &mut batched);
                    let mut single = vec![0.0f32; m * n];
                    gemm::gemm(m, n, k, a.item(0), b.item(0), &mut single);
                    force_route(None);
                    let case = format!(
                        "{route:?} on {tier:?}, ({batch},{m},{n},{k}), B cs {}",
                        b.cs
                    );
                    assert_eq!(f32_bits(&batched), f32_bits(&want), "gemm_batch, {case}");
                    assert_eq!(f32_bits(&single), f32_bits(&want[..m * n]), "gemm, {case}");
                }
            }
        }
    }
    // Attention's `Q·Kᵀ` items: below the blocking threshold, on the tile
    // after a transpose into 16-column panels.
    let (batch, t, dh) = (4usize, 20usize, 16usize);
    let (qd, kd) = (rand(batch * t * dh), rand(batch * t * dh));
    let (q, kt) = (
        BatchMat::row_major(&qd, t, dh),
        BatchMat::transposed(&kd, t, dh),
    );
    let mut want = vec![0.0f32; batch * t * t];
    for (bi, item) in want.chunks_mut(t * t).enumerate() {
        gemm::reference::gemm(t, t, dh, q.item(bi), kt.item(bi), item);
    }
    // The image-split product: 5 images of 64 positions, a K block crossed.
    let (m, n, images, len) = (7usize, 17usize, 5usize, 64usize);
    let (ia, ib) = (rand(images * m * len), rand(images * n * len));
    let join = |data: &[f32], rows: usize| -> Vec<f32> {
        (0..rows)
            .flat_map(|r| (0..images).flat_map(move |i| (0..len).map(move |q| (i, r, q))))
            .map(|(i, r, q)| data[(i * rows + r) * len + q])
            .collect()
    };
    let k = images * len;
    let mut want_images = vec![0.0f32; m * n];
    let (aj, bj) = (join(&ia, m), join(&ib, n));
    let (av, bv) = (MatRef::row_major(&aj, k), MatRef::transposed(&bj, k));
    gemm::reference::gemm(m, n, k, av, bv, &mut want_images);
    for &tier in &tiers {
        simd::force_tier(Some(tier));
        let mut got = vec![f32::NAN; batch * t * t];
        gemm_batch(batch, t, t, dh, q, kt, 1.0, &mut got);
        assert_eq!(f32_bits(&got), f32_bits(&want), "A·Bᵀ items on {tier:?}");
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_nt_images(m, n, images, len, &ia, &ib, &mut got);
        assert_eq!(
            f32_bits(&got),
            f32_bits(&want_images),
            "image split on {tier:?}"
        );
    }
    simd::force_tier(None);
}

/// Interleaved per-channel reductions keep every channel's own order — a
/// fixed-seed slice of `crates/nn/tests/layer_properties.rs`: a training-mode
/// `BatchNorm2d` step (11 channels: one full lane group and a ragged one) and
/// a convolution's bias gradient against sums taken one channel at a time.
#[test]
fn per_channel_reductions_match_one_channel_at_a_time() {
    use amalgam::nn::layers::{BatchNorm2d, Conv2d};
    use amalgam::nn::Layer;

    let mut rng = Rng::seed_from(44);
    let (n, c, hw) = (3usize, 11usize, 20usize);
    let x = Tensor::randn(&[n, c, 4, 5], &mut rng).add_scalar(0.3);
    let g = Tensor::randn(&[n, c, 4, 5], &mut rng);
    let mut bn = BatchNorm2d::new(c);
    let y = bn.forward(&[&x], Mode::Train);
    let dx = bn.backward(&g, &[true]).remove(0).expect("demanded");
    let m = (n * hw) as f32;
    for ci in 0..c {
        let planes = || (0..n).map(move |ni| (ni * c + ci) * hw..(ni * c + ci + 1) * hw);
        let mut sum = 0.0f32;
        for plane in planes() {
            sum += x.data()[plane].iter().sum::<f32>();
        }
        let mu = sum / m;
        let mut varsum = 0.0f32;
        for i in planes().flatten() {
            varsum += (x.data()[i] - mu) * (x.data()[i] - mu);
        }
        let istd = 1.0 / (varsum / m + 1e-5).sqrt();
        let (mut dgamma, mut dbeta) = (0.0f32, 0.0f32);
        for i in planes().flatten() {
            dgamma += g.data()[i] * ((x.data()[i] - mu) * istd);
            dbeta += g.data()[i];
        }
        assert_eq!(
            bn.params()[0].grad.data()[ci].to_bits(),
            dgamma.to_bits(),
            "dgamma {ci}"
        );
        assert_eq!(
            bn.params()[1].grad.data()[ci].to_bits(),
            dbeta.to_bits(),
            "dbeta {ci}"
        );
        for i in planes().flatten() {
            let xh = (x.data()[i] - mu) * istd;
            // γ = 1, β = 0 in a fresh layer.
            assert_eq!(y.data()[i].to_bits(), (1.0 * xh + 0.0).to_bits(), "y[{i}]");
            let want = 1.0 * istd * (g.data()[i] - dbeta / m - xh * dgamma / m);
            assert_eq!(dx.data()[i].to_bits(), want.to_bits(), "dx[{i}]");
        }
    }

    let oc = 11;
    let mut conv = Conv2d::new(2, oc, 3, 1, 1, true, &mut rng);
    let x = Tensor::randn(&[n, 2, 4, 5], &mut rng);
    let g = Tensor::randn(conv.forward(&[&x], Mode::Train).dims(), &mut rng);
    conv.backward(&g, &[false]);
    for o in 0..oc {
        let per_image = (0..n).flat_map(|ni| &g.data()[(ni * oc + o) * hw..(ni * oc + o + 1) * hw]);
        let want = 0.0 + per_image.sum::<f32>();
        assert_eq!(
            conv.params()[1].grad.data()[o].to_bits(),
            want.to_bits(),
            "bias {o}"
        );
    }
}

/// Convolutions without their column matrix change no bit — a fixed-seed
/// slice of `crates/tensor/tests/gemm_properties.rs` and
/// `crates/nn/tests/layer_properties.rs`, so tier-1 guards it. The windowed
/// kernels (LeNet's 5×5 entry geometry at batch 4, and a 275-tap one that
/// crosses a K block) and the image-split product against im2col + `gemm`,
/// on every kernel tier from NaN-poisoned outputs; then
/// the layers on those paths — a masked entry convolution and a 1×1 tap —
/// against the layers on the column matrix (the same layers, one image at a
/// time: a one-image product is small enough to keep the old lowering).
#[test]
fn column_free_convolutions_agree_bit_for_bit() {
    use amalgam::nn::layers::{Conv2d, MaskedConv2d};
    use amalgam::nn::Layer;
    use amalgam::tensor::gemm;
    use amalgam::tensor::kernels::{self, Conv2dGeom};
    use amalgam::tensor::pack::MatRef;
    use amalgam::tensor::simd::{self, Tier};

    let mut rng = Rng::seed_from(45);
    let mut rand = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect() };
    let mut tiers = vec![Tier::Portable];
    if simd::simd_available() {
        tiers.push(Tier::Simd);
    }
    for (n, oc, in_channels, in_h, in_w, kernel, padding) in [
        (4usize, 6usize, 1usize, 20usize, 20usize, 5usize, 2usize),
        (2, 7, 11, 9, 10, 5, 2),
    ] {
        let g = Conv2dGeom {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride: 1,
            padding,
        };
        let (taps, ohw) = (g.col_rows(), g.out_h() * g.out_w());
        let x = Tensor::from_vec(
            rand(n * in_channels * in_h * in_w),
            &[n, in_channels, in_h, in_w],
        );
        let (w, grad) = (rand(oc * taps), rand(n * oc * ohw));
        // im2col + gemm, permuted to and from [N, oc, oh·ow].
        let cols = kernels::reference::im2col(&x, &g);
        let mut ymat = vec![0.0f32; oc * n * ohw];
        let colmat = MatRef::row_major(cols.data(), n * ohw);
        gemm::gemm(
            oc,
            n * ohw,
            taps,
            MatRef::row_major(&w, taps),
            colmat,
            &mut ymat,
        );
        let (mut want_y, mut gmat) = (vec![0.0f32; n * oc * ohw], vec![0.0f32; oc * n * ohw]);
        for ni in 0..n {
            for o in 0..oc {
                let (image, matrix) = ((ni * oc + o) * ohw, o * n * ohw + ni * ohw);
                want_y[image..image + ohw].copy_from_slice(&ymat[matrix..matrix + ohw]);
                gmat[matrix..matrix + ohw].copy_from_slice(&grad[image..image + ohw]);
            }
        }
        let mut want_dw = vec![0.0f32; oc * taps];
        let colt = MatRef::transposed(cols.data(), n * ohw);
        gemm::gemm(
            oc,
            taps,
            n * ohw,
            MatRef::row_major(&gmat, n * ohw),
            colt,
            &mut want_dw,
        );
        let mut window = kernels::ConvWindow::new(&g);
        for &tier in &tiers {
            simd::force_tier(Some(tier));
            let planes = kernels::padded_planes(&x, &g, None);
            let mut y = vec![f32::NAN; want_y.len()];
            window.forward(&planes, &w, &mut y);
            let mut dw = vec![f32::NAN; want_dw.len()];
            window.dw(&planes, &grad, &mut dw);
            let case = format!("{tier:?}, {g:?}");
            assert_eq!(f32_bits(&y), f32_bits(&want_y), "forward, {case}");
            assert_eq!(f32_bits(&dw), f32_bits(&want_dw), "dW, {case}");
            // The same weight gradient with the columns as a second
            // image-split operand (what a 1×1 convolution's input is).
            let mut split_cols = vec![0.0f32; n * taps * ohw];
            for (ni, image) in split_cols.chunks_exact_mut(taps * ohw).enumerate() {
                for (r, row) in image.chunks_exact_mut(ohw).enumerate() {
                    row.copy_from_slice(&cols.data()[r * n * ohw + ni * ohw..][..ohw]);
                }
            }
            let mut split = vec![0.0f32; want_dw.len()];
            gemm::gemm_nt_images(oc, taps, n, ohw, &grad, &split_cols, &mut split);
            assert_eq!(f32_bits(&split), f32_bits(&want_dw), "split dW, {case}");
        }
    }
    simd::force_tier(None);

    // Layers: batch of 4 on the new paths, the same images one at a time on
    // the column matrix. Forward rows are per-image; with one image the
    // gradients are too.
    let keep: Vec<usize> = (0..196).map(|i| (i * 37 + 11) % 400).collect();
    let entry = MaskedConv2d::new(keep, 14, 14, Conv2d::new(1, 6, 5, 1, 2, true, &mut rng));
    let tap = Conv2d::new(6, 6, 1, 1, 0, false, &mut rng);
    assert_eq!(entry.inner().lowering(&[4, 1, 14, 14]), "Windowed");
    assert_eq!(entry.inner().lowering(&[1, 1, 14, 14]), "Im2col");
    assert_eq!(tap.lowering(&[4, 6, 16, 16]), "Pointwise");
    assert_eq!(tap.lowering(&[1, 6, 16, 16]), "Im2col");
    let cases: [(Box<dyn Layer>, Tensor); 2] = [
        (Box::new(entry), Tensor::randn(&[4, 1, 20, 20], &mut rng)),
        (Box::new(tap), Tensor::randn(&[4, 6, 16, 16], &mut rng)),
    ];
    for (layer, x) in cases {
        let mut batched = layer.boxed_clone();
        let y = batched.forward(&[&x], Mode::Train);
        let per_image = y.numel() / 4;
        for ni in 0..4 {
            let mut single = layer.boxed_clone();
            let xi = x.slice_axis0(ni, ni + 1);
            let yi = single.forward(&[&xi], Mode::Train);
            assert_eq!(
                f32_bits(yi.data()),
                f32_bits(&y.data()[ni * per_image..(ni + 1) * per_image]),
                "{} forward, image {ni}",
                layer.kind()
            );
        }
        // One image, both lowerings of the backward pass: the column-free
        // one is reached by padding the batch with zero images, which add
        // nothing to any gradient but make the product big enough. (One
        // image's positions fit a K block, where the direct loop and the
        // blocked kernels accumulate alike.)
        let x1 = x.slice_axis0(0, 1);
        let mut padded = Tensor::zeros(x.dims());
        padded.data_mut()[..x1.numel()].copy_from_slice(x1.data());
        let mut column_free = layer.boxed_clone();
        let y_padded = column_free.forward(&[&padded], Mode::Train);
        let mut grad = Tensor::zeros(y_padded.dims());
        let g1 = Tensor::randn(&[1, y.dims()[1], y.dims()[2], y.dims()[3]], &mut rng);
        grad.data_mut()[..g1.numel()].copy_from_slice(g1.data());
        let dx = column_free.backward(&grad, &[true]).remove(0).expect("dx");
        let mut columns = layer.boxed_clone();
        columns.forward(&[&x1], Mode::Train);
        let want_dx = columns.backward(&g1, &[true]).remove(0).expect("dx");
        assert_eq!(
            f32_bits(&dx.data()[..want_dx.numel()]),
            f32_bits(want_dx.data()),
            "{} dx",
            layer.kind()
        );
        for (got, want) in column_free.params().iter().zip(columns.params()) {
            assert_eq!(f32_bits(got.grad.data()), f32_bits(want.grad.data()));
        }
    }
}

/// Activations are shared, writes are private — a fixed-seed slice of the
/// sharing tests in `crates/tensor/tests/properties.rs` and
/// `crates/nn/tests/layer_properties.rs`: the augmented LeNet-5 trains to
/// the same bits whether or not a clone of it (sharing every parameter) and
/// the batches it was fed are kept alive and mutated behind its back.
#[test]
fn shared_storage_never_leaks_a_write() {
    use amalgam::nn::loss::cross_entropy;
    use amalgam::nn::optim::Sgd;

    let mut rng = Rng::seed_from(46);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(32, 4)
        .with_hw(16)
        .with_classes(4)
        .generate(&mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(47).with_subnets(2);
    let bundle = Amalgam::obfuscate(&amalgam::models::lenet5(1, 16, 4, &mut rng), &data, &cfg)
        .expect("obfuscation");
    let train = |meddle: bool| -> Vec<Vec<u32>> {
        let mut model = bundle.augmented_model.clone();
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        let mut kept = Vec::new();
        for step in 0..3 {
            let idx: Vec<usize> = (step * 8..(step + 1) * 8).collect();
            let (x, labels) = bundle.augmented_train.batch_at(&idx);
            let outs = model.forward(&[&x], Mode::Train);
            let seeds: Vec<Tensor> = outs.iter().map(|o| cross_entropy(o, &labels).1).collect();
            if meddle {
                // Handles on what the model may still be holding.
                let mut snapshot = model.clone();
                snapshot.params_mut().iter_mut().for_each(|p| {
                    p.value.scale_in_place(0.0);
                    p.grad.data_mut().fill(7.0);
                });
                let (mut x2, mut outs2, mut seeds2) = (x.clone(), outs.clone(), seeds.clone());
                x2.fill_zero();
                outs2.iter_mut().for_each(|t| t.scale_in_place(-1.0));
                seeds2.iter_mut().for_each(|t| t.data_mut().fill(f32::NAN));
                kept.push((snapshot, x2, outs2, seeds2));
            }
            model.zero_grad();
            model.backward(&seeds);
            opt.step(&mut model.params_mut());
        }
        model
            .state_dict()
            .iter()
            .map(|(_, t)| f32_bits(t.data()))
            .collect()
    };
    assert_eq!(train(false), train(true));
}
