//! Property-based gradient checks: random layer hyper-parameters and input
//! shapes, all validated against finite differences; the glue layers and the
//! per-channel reductions against their straight-line definitions, bit for
//! bit; and the executor's demand pruning against back-propagation with
//! every input gradient demanded.

use amalgam_core::{augment_cv, augment_nlp, AugmentConfig, ImagePlan, NlpTask, TextPlan};
use amalgam_models::{
    build_cv_model, text_classifier, transformer_lm, CvConfig, CvFamily, TransformerLmConfig,
};
use amalgam_nn::gradcheck::{backward_all_demanded, check_layer_gradients};
use amalgam_nn::graph::{GraphModel, NodeId};
use amalgam_nn::layers::{
    Add, AvgPool2d, BatchNorm2d, Concat, Conv2d, DepthwiseConv2d, Detach, Identity, LayerNorm,
    Linear, MaskedConv2d, MaxPool2d, Mul, MultiHeadSelfAttention, Relu,
};
use amalgam_nn::{Layer, Mode};
use amalgam_tensor::{Rng, Tensor};
use proptest::prelude::*;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs one training step's forward and backward on two clones of `model` —
/// one through [`GraphModel::backward`] (demand derived by its analysis), one
/// through [`backward_all_demanded`] — and returns both sets of parameter
/// gradient bits. Clones, so stochastic layers draw the same masks.
fn grads_pruned_and_full(
    model: &GraphModel,
    inputs: &[&Tensor],
    rng: &mut Rng,
) -> [Vec<Vec<u32>>; 2] {
    let mut pruned = model.clone();
    let mut full = model.clone();
    let outs = pruned.forward(inputs, Mode::Train);
    full.forward(inputs, Mode::Train);
    let seeds: Vec<Tensor> = outs.iter().map(|o| Tensor::randn(o.dims(), rng)).collect();
    pruned.zero_grad();
    pruned.backward(&seeds);
    full.zero_grad();
    backward_all_demanded(&mut full, &seeds);
    [pruned, full].map(|mut m| m.params_mut().iter().map(|p| bits(&p.grad)).collect())
}

/// A random DAG over `[B, F]` activations: linear and element-wise layers,
/// fan-out (any earlier node may be read again), `Add`/`Mul`/`Concat` joins,
/// `Detach` taps, one or two external inputs, one to three heads (a node may
/// be a head twice).
fn random_dag(rng: &mut Rng) -> GraphModel {
    const F: usize = 4;
    let mut g = GraphModel::new();
    let mut nodes: Vec<NodeId> = (0..1 + rng.below(2))
        .map(|i| g.input(&format!("x{i}")))
        .collect();
    for i in 0..4 + rng.below(10) {
        let a = nodes[rng.below(nodes.len())];
        let b = nodes[rng.below(nodes.len())];
        let name = format!("n{i}");
        let id = match rng.below(8) {
            0 | 1 => g.add_layer(&name, Linear::new(F, F, rng.chance(0.5), rng), &[a]),
            2 => g.add_layer(&name, Relu::new(), &[a]),
            3 => g.add_layer(&name, Add::new(), &[a, b]),
            4 => g.add_layer(&name, Mul::new(), &[a, b]),
            5 => g.add_layer(&name, Detach::new(), &[a]),
            6 => g.add_layer(&name, Identity::new(), &[a]),
            _ => {
                let cat = g.add_layer(&format!("{name}.cat"), Concat::new(), &[a, b]);
                g.add_layer(&name, Linear::new(2 * F, F, true, rng), &[cat])
            }
        };
        nodes.push(id);
    }
    let heads: Vec<NodeId> = (0..1 + rng.below(3))
        .map(|_| nodes[rng.below(nodes.len())])
        .collect();
    g.set_outputs(&heads);
    g
}

/// [`AvgPool2d`] from its definition: one window at a time, `(ky, kx)` order.
fn naive_avg_pool(x: &Tensor, k: usize, stride: usize) -> Tensor {
    let d = x.dims();
    let (planes, h, w) = (d[0] * d[1], d[2], d[3]);
    let (oh, ow) = ((h - k) / stride + 1, (w - k) / stride + 1);
    let inv = 1.0 / (k * k) as f32;
    let mut out = Tensor::zeros(&[d[0], d[1], oh, ow]);
    for p in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    for kx in 0..k {
                        acc += x.data()[(p * h + oy * stride + ky) * w + ox * stride + kx];
                    }
                }
                out.data_mut()[(p * oh + oy) * ow + ox] = acc * inv;
            }
        }
    }
    out
}

/// The adjoint of [`naive_avg_pool`], windows in `(oy, ox)` order.
fn naive_avg_unpool(g: &Tensor, in_dims: &[usize], k: usize, stride: usize) -> Tensor {
    let (planes, h, w) = (in_dims[0] * in_dims[1], in_dims[2], in_dims[3]);
    let (oh, ow) = (g.dims()[2], g.dims()[3]);
    let inv = 1.0 / (k * k) as f32;
    let mut dx = Tensor::zeros(in_dims);
    for p in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let share = g.data()[(p * oh + oy) * ow + ox] * inv;
                for ky in 0..k {
                    for kx in 0..k {
                        dx.data_mut()[(p * h + oy * stride + ky) * w + ox * stride + kx] += share;
                    }
                }
            }
        }
    }
    dx
}

/// What [`BatchNorm2d`] computes, one channel at a time and one element
/// after the other: the order of every sum the layer's interleaved
/// reductions have to reproduce.
struct NaiveBatchNorm {
    out: Tensor,
    xhat: Tensor,
    inv_std: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

fn naive_batchnorm(x: &Tensor, params: [&Tensor; 4], train: bool) -> NaiveBatchNorm {
    let [gamma, beta, running_mean, running_var] = params.map(|t| t.data().to_vec());
    let (n, c, hw) = (x.dims()[0], x.dims()[1], x.dims()[2] * x.dims()[3]);
    let m = (n * hw) as f32;
    let plane = |ni: usize, ci: usize| (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
    let mut naive = NaiveBatchNorm {
        out: Tensor::zeros(x.dims()),
        xhat: Tensor::zeros(x.dims()),
        inv_std: vec![0.0; c],
        running_mean,
        running_var,
    };
    for ci in 0..c {
        let (mu, var) = if train {
            let mut sum = 0.0f32;
            for ni in 0..n {
                sum += x.data()[plane(ni, ci)].iter().sum::<f32>();
            }
            let mu = sum / m;
            let mut varsum = 0.0f32;
            for ni in 0..n {
                for &v in &x.data()[plane(ni, ci)] {
                    varsum += (v - mu) * (v - mu);
                }
            }
            let var = varsum / m;
            naive.running_mean[ci] = (1.0 - 0.1) * naive.running_mean[ci] + 0.1 * mu;
            naive.running_var[ci] = (1.0 - 0.1) * naive.running_var[ci] + 0.1 * var;
            (mu, var)
        } else {
            (naive.running_mean[ci], naive.running_var[ci])
        };
        let istd = 1.0 / (var + 1e-5).sqrt();
        naive.inv_std[ci] = istd;
        for ni in 0..n {
            for i in plane(ni, ci) {
                let xh = (x.data()[i] - mu) * istd;
                naive.xhat.data_mut()[i] = xh;
                naive.out.data_mut()[i] = gamma[ci] * xh + beta[ci];
            }
        }
    }
    naive
}

/// `(dγ, dβ, dx)` of [`naive_batchnorm`], again one channel at a time.
fn naive_batchnorm_backward(
    g: &Tensor,
    fwd: &NaiveBatchNorm,
    gamma: &Tensor,
    train: bool,
) -> (Vec<f32>, Vec<f32>, Tensor) {
    let (n, c, hw) = (g.dims()[0], g.dims()[1], g.dims()[2] * g.dims()[3]);
    let m = (n * hw) as f32;
    let (mut dgammas, mut dbetas) = (vec![0.0f32; c], vec![0.0f32; c]);
    let mut dx = Tensor::zeros(g.dims());
    for ci in 0..c {
        let (mut dgamma, mut dbeta) = (0.0f32, 0.0f32);
        for ni in 0..n {
            for i in (ni * c + ci) * hw..(ni * c + ci + 1) * hw {
                dgamma += g.data()[i] * fwd.xhat.data()[i];
                dbeta += g.data()[i];
            }
        }
        dgammas[ci] += dgamma;
        dbetas[ci] += dbeta;
        let (gm, istd) = (gamma.data()[ci], fwd.inv_std[ci]);
        for ni in 0..n {
            for i in (ni * c + ci) * hw..(ni * c + ci + 1) * hw {
                let dy = g.data()[i];
                dx.data_mut()[i] = if train {
                    gm * istd * (dy - dbeta / m - fwd.xhat.data()[i] * dgamma / m)
                } else {
                    gm * istd * dy
                };
            }
        }
    }
    (dgammas, dbetas, dx)
}

fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BatchNorm2d equals its channel-at-a-time definition bit for bit, in
    /// both modes: output, running statistics, `dγ`/`dβ` and `dx` — for
    /// channel counts on both sides of the reduction's lane groups, batch 1,
    /// 1×1 planes — and an undemanded `dx` changes no parameter gradient.
    #[test]
    fn batchnorm_matches_channel_at_a_time_definition(n in 1usize..4, c in 1usize..20, h in 1usize..6,
                                                      w in 1usize..6, train in any::<bool>(), seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let mode = if train { Mode::Train } else { Mode::Eval };
        let x = Tensor::randn(&[n, c, h, w], &mut rng).scale(2.0).add_scalar(0.5);
        let gamma = Tensor::rand_uniform(&[c], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[c], &mut rng);
        let mean = Tensor::randn(&[c], &mut rng);
        let var = Tensor::rand_uniform(&[c], 0.5, 2.0, &mut rng);
        let mut bn = BatchNorm2d::from_params(gamma.clone(), beta.clone(), mean.clone(), var.clone());
        let mut undemanded = bn.clone();

        let y = bn.forward(&[&x], mode);
        let want = naive_batchnorm(&x, [&gamma, &beta, &mean, &var], train);
        prop_assert_eq!(bits(&y), bits(&want.out), "forward, train={}", train);
        prop_assert_eq!(f32_bits(bn.running_mean().data()), f32_bits(&want.running_mean));
        prop_assert_eq!(f32_bits(bn.running_var().data()), f32_bits(&want.running_var));

        let g = Tensor::randn(x.dims(), &mut rng);
        let dx = bn.backward(&g, &[true]).remove(0).expect("demanded");
        let (dgamma, dbeta, want_dx) = naive_batchnorm_backward(&g, &want, &gamma, train);
        prop_assert_eq!(bits(&dx), bits(&want_dx), "dx, train={}", train);
        prop_assert_eq!(f32_bits(bn.params()[0].grad.data()), f32_bits(&dgamma), "dgamma");
        prop_assert_eq!(f32_bits(bn.params()[1].grad.data()), f32_bits(&dbeta), "dbeta");

        undemanded.forward(&[&x], mode);
        prop_assert!(undemanded.backward(&g, &[false]) == vec![None]);
        for (p, q) in undemanded.params().iter().zip(bn.params()) {
            prop_assert_eq!(bits(&p.grad), bits(&q.grad));
        }
    }

    /// The convolution's bias gradient is, per filter, one sum over that
    /// filter's output gradients in (image, row, column) order, added to what
    /// the gradient held — bit for bit, for filter counts on both sides of
    /// the reduction's lane groups and with or without `dx` demanded.
    #[test]
    fn conv_bias_gradient_matches_one_sum_per_filter(n in 1usize..4, oc in 1usize..20, hw in 1usize..6,
                                                     demanded in any::<bool>(), seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let mut conv = Conv2d::new(2, oc, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[n, 2, hw, hw], &mut rng);
        let y = conv.forward(&[&x], Mode::Train);
        let g = Tensor::randn(y.dims(), &mut rng);
        let held = Tensor::randn(&[oc], &mut rng);
        conv.params_mut()[1].grad = held.clone();
        conv.backward(&g, &[demanded]);
        let want: Vec<f32> = (0..oc).map(|o| {
            let per_image = (0..n).flat_map(|ni| &g.data()[(ni * oc + o) * hw * hw..(ni * oc + o + 1) * hw * hw]);
            held.data()[o] + per_image.sum::<f32>()
        }).collect();
        prop_assert_eq!(f32_bits(conv.params()[1].grad.data()), f32_bits(&want));
    }

    #[test]
    fn linear_gradients_any_shape(inf in 1usize..8, outf in 1usize..8, batch in 1usize..4,
                                  bias in any::<bool>(), seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let l = Linear::new(inf, outf, bias, &mut rng);
        check_layer_gradients(Box::new(l), &[&[batch, inf]], 2e-2, &mut rng);
    }

    #[test]
    fn conv_gradients_any_geometry(ic in 1usize..3, oc in 1usize..4, k in 1usize..4,
                                   stride in 1usize..3, pad in 0usize..2,
                                   hw in 4usize..8, seed in 0u64..500) {
        prop_assume!(hw + 2 * pad >= k);
        let mut rng = Rng::seed_from(seed);
        let c = Conv2d::new(ic, oc, k, stride, pad, true, &mut rng);
        check_layer_gradients(Box::new(c), &[&[1, ic, hw, hw]], 3e-2, &mut rng);
    }

    #[test]
    fn depthwise_gradients_any_geometry(c in 1usize..4, k in 1usize..4, stride in 1usize..3,
                                        hw in 4usize..8, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let l = DepthwiseConv2d::new(c, k, stride, k / 2, true, &mut rng);
        check_layer_gradients(Box::new(l), &[&[1, c, hw, hw]], 3e-2, &mut rng);
    }

    #[test]
    fn pooling_gradients(k in 1usize..3, hw in 4usize..8, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let k = k + 1; // 2 or 3
        prop_assume!(hw >= k);
        check_layer_gradients(Box::new(MaxPool2d::new(k, k)), &[&[1, 2, hw, hw]], 2e-2, &mut rng);
        check_layer_gradients(Box::new(AvgPool2d::new(k, k)), &[&[1, 2, hw, hw]], 2e-2, &mut rng);
    }

    #[test]
    fn layernorm_gradients(dim in 2usize..10, rows in 1usize..4, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        check_layer_gradients(Box::new(LayerNorm::new(dim)), &[&[rows, dim]], 4e-2, &mut rng);
    }

    #[test]
    fn attention_gradients(heads in 1usize..3, dh in 1usize..3, t in 2usize..5,
                           causal in any::<bool>(), seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let dim = heads * dh * 2;
        let a = MultiHeadSelfAttention::new(dim, heads, causal, &mut rng);
        check_layer_gradients(Box::new(a), &[&[1, t, dim]], 5e-2, &mut rng);
    }

    /// AvgPool2d equals its naive definition bit for bit, forward and
    /// backward: overlapping windows (stride < kernel), gaps (stride >
    /// kernel), 1×1, non-square planes, batch 1, and the specialised 2×2/2.
    #[test]
    fn avg_pool_matches_naive_definition(n in 1usize..3, c in 1usize..3, h in 1usize..10, w in 1usize..10,
                                         k in 1usize..4, stride in 1usize..4, seed in 0u64..1000) {
        prop_assume!(h >= k && w >= k);
        let mut rng = Rng::seed_from(seed);
        let x = Tensor::randn(&[n, c, h, w], &mut rng);
        let mut pool = AvgPool2d::new(k, stride);
        let y = pool.forward(&[&x], Mode::Train);
        let want = naive_avg_pool(&x, k, stride);
        prop_assert_eq!(y.dims(), want.dims());
        prop_assert_eq!(bits(&y), bits(&want), "forward k={} stride={}", k, stride);
        let g = Tensor::randn(y.dims(), &mut rng);
        let dx = pool.backward(&g, &[true]).remove(0).expect("demanded");
        prop_assert_eq!(bits(&dx), bits(&naive_avg_unpool(&g, x.dims(), k, stride)),
                        "backward k={} stride={}", k, stride);
    }

    /// MaskedConv2d's gather and scatter from their definitions: the layer
    /// is its inner convolution on the kept pixels, and its input gradient
    /// is the inner one scattered back (zero elsewhere) — bit for bit, for
    /// any keep list (unsorted, repeated positions, one pixel), any batch.
    #[test]
    fn masked_conv_gather_scatter_match_definition(n in 1usize..3, c in 1usize..3, ah in 1usize..7, aw in 1usize..7,
                                                   h in 1usize..5, w in 1usize..5, seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let plane = ah * aw;
        let keep: Vec<usize> = (0..h * w).map(|_| rng.below(plane)).collect();
        let conv = Conv2d::new(c, 2, 3, 1, 1, true, &mut rng);
        let x = Tensor::randn(&[n, c, ah, aw], &mut rng);

        let mut gathered = Tensor::zeros(&[n, c, h, w]);
        for nc in 0..n * c {
            for (j, &pos) in keep.iter().enumerate() {
                gathered.data_mut()[nc * h * w + j] = x.data()[nc * plane + pos];
            }
        }
        let mut inner = conv.clone();
        let want_y = inner.forward(&[&gathered], Mode::Train);
        let mut masked = MaskedConv2d::new(keep.clone(), h, w, conv);
        let y = masked.forward(&[&x], Mode::Train);
        prop_assert_eq!(bits(&y), bits(&want_y));

        let g = Tensor::randn(y.dims(), &mut rng);
        let inner_dx = inner.backward(&g, &[true]).remove(0).expect("demanded");
        let mut want_dx = Tensor::zeros(x.dims());
        for nc in 0..n * c {
            for (j, &pos) in keep.iter().enumerate() {
                want_dx.data_mut()[nc * plane + pos] += inner_dx.data()[nc * h * w + j];
            }
        }
        let dx = masked.backward(&g, &[true]).remove(0).expect("demanded");
        prop_assert_eq!(bits(&dx), bits(&want_dx));
        // Not demanded: same parameter gradients, no input gradient.
        let mut again = MaskedConv2d::new(keep, h, w, inner.clone());
        again.forward(&[&x], Mode::Train);
        prop_assert!(again.backward(&g, &[false]) == vec![None]);
        for (p, q) in again.params().iter().zip(masked.params()) {
            // `inner` had accumulated one backward before it was cloned.
            let doubled = q.grad.zip_map(&q.grad, |a, b| a + b);
            prop_assert_eq!(bits(&p.grad), bits(&doubled));
        }
    }

    /// Demand pruning is invisible to parameters: on random DAGs the
    /// gradients `GraphModel::backward` leaves equal, bit for bit, those of
    /// back-propagation with every input gradient demanded.
    #[test]
    fn demand_pruning_preserves_parameter_gradients_on_random_dags(seed in 0u64..100_000, batch in 1usize..4) {
        let mut rng = Rng::seed_from(seed);
        let g = random_dag(&mut rng);
        let xs: Vec<Tensor> = g.input_ids().iter().map(|_| Tensor::randn(&[batch, 4], &mut rng)).collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let [pruned, full] = grads_pruned_and_full(&g, &refs, &mut rng);
        prop_assert_eq!(pruned, full);
    }

    #[test]
    fn masked_conv_gradients_any_layout(hw in 3usize..6, extra in 1usize..12, seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let aug = hw * hw + extra;
        // Find an augmented square big enough; gather from a flat plane of
        // side `ceil(sqrt(aug))`.
        let side = (aug as f32).sqrt().ceil() as usize;
        let keep = rng.sample_indices(side * side, hw * hw);
        let inner = Conv2d::new(1, 2, 3, 1, 1, true, &mut rng);
        let m = MaskedConv2d::new(keep, hw, hw, inner);
        check_layer_gradients(Box::new(m), &[&[1, 1, side, side]], 3e-2, &mut rng);
    }
}

/// The same on every model family of the registry, plain and as `augment_cv`
/// rewrites it (masked entry convolutions, `Detach` taps, several heads).
#[test]
fn demand_pruning_preserves_parameter_gradients_on_every_cv_model() {
    let mut rng = Rng::seed_from(17);
    let cfg = CvConfig::new(1, 4, 16).with_width_mult(0.125);
    for family in CvFamily::table3().into_iter().chain([CvFamily::LeNet5]) {
        let model = build_cv_model(family, &cfg, &mut rng);
        let x = Tensor::randn(&[2, 1, 16, 16], &mut rng);
        let [pruned, full] = grads_pruned_and_full(&model, &[&x], &mut rng);
        assert!(
            pruned == full,
            "{family}: pruning changed a parameter gradient"
        );

        let plan = ImagePlan::random(16, 16, 0.5, &mut rng);
        let aug_cfg = AugmentConfig::new(0.5).with_subnets(3).with_seed(5);
        let (augmented, _) = augment_cv(&model, &plan, 4, &aug_cfg).expect("augment_cv");
        let (ah, aw) = plan.aug_hw();
        let x = Tensor::randn(&[2, 1, ah, aw], &mut rng);
        let [pruned, full] = grads_pruned_and_full(&augmented, &[&x], &mut rng);
        assert!(
            pruned == full,
            "augmented {family}: pruning changed a parameter gradient"
        );
    }
}

/// And on the NLP models, plain and as `augment_nlp` rewrites them.
#[test]
fn demand_pruning_preserves_parameter_gradients_on_every_nlp_model() {
    let mut rng = Rng::seed_from(18);
    let (vocab, len) = (30usize, 8usize);
    let plan = TextPlan::random(len, 0.5, &mut rng);
    let tokens = |t: usize, rng: &mut Rng| Tensor::from_fn(&[3, t], |_| rng.below(vocab) as f32);
    let lm = transformer_lm(&TransformerLmConfig::tiny(vocab, 2 * len), &mut rng);
    let classifier = text_classifier(vocab, 8, 3, &mut rng);
    for (name, model, task) in [
        ("transformer_lm", lm, NlpTask::LanguageModel),
        (
            "text_classifier",
            classifier,
            NlpTask::Classification { classes: 3 },
        ),
    ] {
        let x = tokens(len, &mut rng);
        let [pruned, full] = grads_pruned_and_full(&model, &[&x], &mut rng);
        assert!(
            pruned == full,
            "{name}: pruning changed a parameter gradient"
        );

        let aug_cfg = AugmentConfig::new(0.5).with_subnets(2).with_seed(6);
        let (augmented, _) = augment_nlp(&model, &plan, task, &aug_cfg).expect("augment_nlp");
        let x = tokens(plan.aug_len(), &mut rng);
        let [pruned, full] = grads_pruned_and_full(&augmented, &[&x], &mut rng);
        assert!(
            pruned == full,
            "augmented {name}: pruning changed a parameter gradient"
        );
    }
}
