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
    Add, AvgPool2d, BatchNorm2d, Concat, Conv2d, DepthwiseConv2d, Detach, Flatten, Identity,
    LayerNorm, Linear, MaskedConv2d, MaxPool2d, Mul, MultiHeadSelfAttention, Relu,
};
use amalgam_nn::optim::Sgd;
use amalgam_nn::{Layer, Mode};
use amalgam_tensor::kernels::{self, Conv2dGeom};
use amalgam_tensor::pack::MatRef;
use amalgam_tensor::{gemm, Rng, Tensor};
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

// ---------------------------------------------------------------------------
// Column-free convolutions, shared activations
// ---------------------------------------------------------------------------

/// A copy of `t` that shares nothing with it.
fn deep(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.data().to_vec(), t.dims())
}

/// `(y, dW, db, dx)` of a convolution from the reference definitions: the
/// naive im2col matrix, the reference packed walk for all three products,
/// the naive col2im, one chain per filter for the bias gradient.
fn conv_from_definitions(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    g: &Conv2dGeom,
    grad: &Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>, Tensor) {
    let (n, oc, taps) = (x.dims()[0], weight.dims()[0], g.col_rows());
    let (oh, ow) = (g.out_h(), g.out_w());
    let ohw = oh * ow;
    let cols = kernels::reference::im2col(x, g);
    let w = MatRef::row_major(weight.data(), taps);
    let mut ymat = vec![0.0f32; oc * n * ohw];
    gemm::reference::gemm(
        oc,
        n * ohw,
        taps,
        w,
        MatRef::row_major(cols.data(), n * ohw),
        &mut ymat,
    );
    let (mut y, mut gmat) = (vec![0.0f32; n * oc * ohw], vec![0.0f32; oc * n * ohw]);
    for ni in 0..n {
        for o in 0..oc {
            let (image, matrix) = ((ni * oc + o) * ohw, o * n * ohw + ni * ohw);
            let bv = bias.map(|b| b.data()[o]);
            for s in 0..ohw {
                y[image + s] = bv.map_or(ymat[matrix + s], |bv| ymat[matrix + s] + bv);
                gmat[matrix + s] = grad.data()[image + s];
            }
        }
    }
    let gm = MatRef::row_major(&gmat, n * ohw);
    let mut dw = vec![0.0f32; oc * taps];
    gemm::reference::gemm(
        oc,
        taps,
        n * ohw,
        gm,
        MatRef::transposed(cols.data(), n * ohw),
        &mut dw,
    );
    let db = gmat
        .chunks_exact(n * ohw)
        .map(|row| row.iter().sum::<f32>())
        .collect();
    let mut dcols = Tensor::zeros(&[taps, n * ohw]);
    let wt = MatRef::transposed(weight.data(), taps);
    gemm::reference::gemm(taps, n * ohw, oc, wt, gm, dcols.data_mut());
    let dx = kernels::reference::col2im(&dcols, g, n);
    (Tensor::from_vec(y, &[n, oc, oh, ow]), dw, db, dx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On the column-free paths — windowed for few-tap kernels, pointwise
    /// for 1×1 — `Conv2d` and `MaskedConv2d` give the reference definitions'
    /// forward output, `dW`, `db` and demanded `dx` bit for bit, with and
    /// without a bias, for keep lists that are random (repeats included) or
    /// the raster subset an original sub-network gets; and an undemanded
    /// `dx` changes no parameter gradient.
    #[test]
    fn column_free_convolutions_match_the_reference_definitions(
        pointwise in any::<bool>(),
        n in 3usize..5,
        channels in 1usize..4,
        ki in 0usize..2,
        padding in 0usize..3,
        hw in 16usize..23,
        oc in 5usize..10,
        bias in any::<bool>(),
        masked in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (channels, kernel, padding, hw) = if pointwise {
            (channels + 4, 1, 0, hw + 8)
        } else {
            (channels, [3usize, 5][ki], padding, hw)
        };
        let conv = Conv2d::new(channels, oc, kernel, 1, padding, bias, &mut rng);
        prop_assume!(conv.lowering(&[n, channels, hw, hw]) != "Im2col");
        let want_path = if pointwise { "Pointwise" } else { "Windowed" };
        prop_assert_eq!(conv.lowering(&[n, channels, hw, hw]), want_path);

        // The layer's input: the image itself, or an augmented plane it is
        // gathered from.
        let (side, keep) = match masked {
            0 => (hw, None),
            1 => (hw + 3, Some((0..hw * hw).map(|_| rng.below((hw + 3) * (hw + 3))).collect::<Vec<_>>())),
            _ => (hw + 3, Some((0..hw * hw).map(|i| (i / hw) * (hw + 3) + i % hw).collect())),
        };
        let x = Tensor::randn(&[n, channels, side, side], &mut rng);
        let image = match &keep {
            None => deep(&x),
            Some(keep) => {
                let planes = x.data().chunks_exact(side * side);
                let picked = planes.flat_map(|p| keep.iter().map(|&pos| p[pos])).collect();
                Tensor::from_vec(picked, &[n, channels, hw, hw])
            }
        };
        let mut layer: Box<dyn Layer> = match &keep {
            None => Box::new(conv.clone()),
            Some(keep) => Box::new(MaskedConv2d::new(keep.clone(), hw, hw, conv.clone())),
        };
        let mut undemanded = layer.boxed_clone();

        let geom = Conv2dGeom { in_channels: channels, in_h: hw, in_w: hw, kernel, stride: 1, padding };
        let y = layer.forward(&[&x], Mode::Train);
        let grad = Tensor::randn(y.dims(), &mut rng);
        let params = conv.params();
        let (want_y, want_dw, want_db, want_dx) =
            conv_from_definitions(&image, &params[0].value, params.get(1).map(|b| &b.value), &geom, &grad);
        prop_assert_eq!(bits(&y), bits(&want_y), "forward");

        let dx = layer.backward(&grad, &[true]).remove(0).expect("demanded");
        prop_assert_eq!(f32_bits(layer.params()[0].grad.data()), f32_bits(&want_dw), "dW");
        if bias {
            prop_assert_eq!(f32_bits(layer.params()[1].grad.data()), f32_bits(&want_db), "db");
        }
        let want_dx = match &keep {
            None => want_dx,
            Some(keep) => {
                let mut scattered = Tensor::zeros(x.dims());
                let planes = scattered.data_mut().chunks_exact_mut(side * side);
                for (dst, src) in planes.zip(want_dx.data().chunks_exact(hw * hw)) {
                    for (&pos, &v) in keep.iter().zip(src) {
                        dst[pos] += v;
                    }
                }
                scattered
            }
        };
        prop_assert_eq!(bits(&dx), bits(&want_dx), "dx");

        undemanded.forward(&[&x], Mode::Train);
        prop_assert!(undemanded.backward(&grad, &[false]) == vec![None]);
        for (p, q) in undemanded.params().iter().zip(layer.params()) {
            prop_assert_eq!(bits(&p.grad), bits(&q.grad));
        }
    }

    /// `Add` is the left-to-right sum of its inputs and fans its gradient
    /// out unchanged; `Linear` is `x·Wᵀ + b` with `dW = gᵀ·x`, `db` the
    /// column sums and `dx = g·W`, each exactly what the plain tensor
    /// operations give on copies that share nothing.
    #[test]
    fn add_and_linear_match_their_straight_line_definitions(
        arity in 1usize..4, rows in 1usize..6, inf in 1usize..40, outf in 1usize..30,
        bias in any::<bool>(), rank3 in any::<bool>(), seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let xs: Vec<Tensor> = (0..arity).map(|_| Tensor::randn(&[rows, inf], &mut rng)).collect();
        let refs: Vec<&Tensor> = xs.iter().collect();
        let mut add = Add::new();
        let sum = add.forward(&refs, Mode::Train);
        let mut want = deep(&xs[0]);
        for x in &xs[1..] {
            want.add_assign(x);
        }
        prop_assert_eq!(bits(&sum), bits(&want));
        let g = Tensor::randn(sum.dims(), &mut rng);
        let demand: Vec<bool> = (0..arity).map(|i| i % 2 == 0).collect();
        for (slot, &demanded) in add.backward(&g, &demand).iter().zip(&demand) {
            prop_assert_eq!(slot.is_some(), demanded);
            if let Some(gi) = slot {
                prop_assert_eq!(bits(gi), bits(&g));
            }
        }

        let mut linear = Linear::new(inf, outf, bias, &mut rng);
        let dims: Vec<usize> = if rank3 { vec![rows, 2, inf] } else { vec![rows, inf] };
        let x = Tensor::randn(&dims, &mut rng);
        let y = linear.forward(&[&x], Mode::Train);
        let x2d = deep(&x.reshape(&[x.numel() / inf, inf]));
        let (w, b) = (deep(&linear.params()[0].value), linear.params().get(1).map(|b| deep(&b.value)));
        let mut want_y = x2d.matmul_nt(&w);
        if let Some(b) = &b {
            want_y = want_y.add_bias_row(b);
        }
        prop_assert_eq!(bits(&y), bits(&want_y));
        let g = Tensor::randn(y.dims(), &mut rng);
        let g2d = deep(&g.reshape(&[x2d.dims()[0], outf]));
        let dx = linear.backward(&g, &[true]).remove(0).expect("demanded");
        prop_assert_eq!(bits(&linear.params()[0].grad), bits(&g2d.matmul_tn(&x2d)));
        if bias {
            prop_assert_eq!(bits(&linear.params()[1].grad), bits(&g2d.sum_axis0()));
        }
        prop_assert_eq!(dx.dims(), x.dims());
        prop_assert_eq!(bits(&dx), bits(&g2d.matmul(&w)));
    }
}

/// Layers that only pass a tensor on hand out the storage they were given,
/// and what the consumer then does to its handle never reaches the producer.
#[test]
fn pass_through_layers_share_and_writes_stay_private() {
    let mut rng = Rng::seed_from(3);
    let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
    let before = x.data().to_vec();
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Detach::new()),
        Box::new(Identity::new()),
        Box::new(Flatten::new()),
    ];
    for mut layer in layers {
        let mut y = layer.forward(&[&x], Mode::Train);
        assert!(y.shares_storage_with(&x), "{} copied", layer.kind());
        y.data_mut()[0] += 1.0;
        y.scale_in_place(2.0);
        assert_eq!(x.data(), &before[..], "{} leaked a write", layer.kind());
    }
    // An activation's cache is its output, not a copy of it; the output the
    // caller mutates afterwards leaves the cached one — and so the gradient —
    // alone.
    let mut relu = Relu::new();
    let mut y = relu.forward(&[&x], Mode::Train);
    let want = deep(&y);
    y.fill_zero();
    let g = Tensor::ones(x.dims());
    let dx = relu.backward(&g, &[true]).remove(0).expect("demanded");
    let want_dx = g.zip_map(&want, |g, y| g * if y > 0.0 { 1.0 } else { 0.0 });
    assert_eq!(bits(&dx), bits(&want_dx));
}

/// `spec()`, `state_dict()` and `clone()` share the parameters they
/// describe — and are snapshots all the same: a later optimizer step moves
/// the live model only.
#[test]
fn snapshots_share_parameters_until_the_next_step() {
    let mut rng = Rng::seed_from(4);
    let mut model = GraphModel::new();
    let x = model.input("x");
    let h = model.add_layer("fc", Linear::new(3, 2, true, &mut rng), &[x]);
    model.set_output(h);
    let fc = model.node_by_name("fc").unwrap();

    let spec = model.node(fc).layer().spec();
    let snapshot = model.state_dict();
    let copy = model.clone();
    let live = &model.node(fc).layer().params()[0].value;
    assert!(snapshot[0].1.shares_storage_with(live));
    assert!(copy.node(fc).layer().params()[0]
        .value
        .shares_storage_with(live));
    let before = live.data().to_vec();

    let input = Tensor::randn(&[4, 3], &mut rng);
    let y = model.forward(&[&input], Mode::Train);
    model.zero_grad();
    model.backward(&[Tensor::ones(y[0].dims())]);
    Sgd::new(0.1).step(&mut model.params_mut());

    let live = &model.node(fc).layer().params()[0].value;
    assert_ne!(
        live.data(),
        &before[..],
        "the step did not move the weights"
    );
    assert_eq!(snapshot[0].1.data(), &before[..]);
    assert_eq!(copy.node(fc).layer().params()[0].value.data(), &before[..]);
    assert_eq!(spec.build().params()[0].value.data(), &before[..]);
    // The clone's gradients were shared with the model's too; zeroing and
    // accumulating into one never shows in the other.
    assert_eq!(copy.node(fc).layer().params()[0].grad.sum(), 0.0);
}

/// The augmented topology — two heads, a `Detach` tap from one branch
/// through a 1×1 convolution into an `Add` on the other — leaves exactly
/// the parameter gradients of the same layers run one after the other on
/// tensors that share nothing.
#[test]
fn shared_activations_leave_straight_line_gradients() {
    let mut rng = Rng::seed_from(5);
    let (n, hw) = (4usize, 16usize);
    let conv_a = Conv2d::new(1, 6, 5, 1, 2, true, &mut rng);
    let conv_b = Conv2d::new(1, 6, 5, 1, 2, false, &mut rng);
    let tap = Conv2d::new(6, 6, 1, 1, 0, false, &mut rng);
    let fc_a = Linear::new(6 * 8 * 8, 3, true, &mut rng);
    let fc_b = Linear::new(6 * 8 * 8, 3, true, &mut rng);
    assert_eq!(conv_a.lowering(&[n, 1, hw, hw]), "Windowed");
    assert_eq!(tap.lowering(&[n, 6, hw, hw]), "Pointwise");

    let mut g = GraphModel::new();
    let x = g.input("x");
    let a = g.add_layer("conv_a", conv_a.clone(), &[x]);
    let a_relu = g.add_layer("relu_a", Relu::new(), &[a]);
    let a_pool = g.add_layer("pool_a", AvgPool2d::new(2, 2), &[a_relu]);
    let a_flat = g.add_layer("flat_a", Flatten::new(), &[a_pool]);
    let head_a = g.add_layer("fc_a", fc_a.clone(), &[a_flat]);
    let b = g.add_layer("conv_b", conv_b.clone(), &[x]);
    let b_bn = g.add_layer("bn_b", BatchNorm2d::new(6), &[b]);
    let b_relu = g.add_layer("relu_b", Relu::new(), &[b_bn]);
    let stop = g.add_layer("stop", Detach::new(), &[a]);
    let adapt = g.add_layer("tap", tap.clone(), &[stop]);
    let joined = g.add_layer("join", Add::new(), &[b_relu, adapt]);
    let b_pool = g.add_layer("pool_b", AvgPool2d::new(2, 2), &[joined]);
    let b_flat = g.add_layer("flat_b", Flatten::new(), &[b_pool]);
    let head_b = g.add_layer("fc_b", fc_b.clone(), &[b_flat]);
    g.set_outputs(&[head_a, head_b]);

    let input = Tensor::randn(&[n, 1, hw, hw], &mut rng);
    let outs = g.forward(&[&input], Mode::Train);
    let seeds: Vec<Tensor> = outs
        .iter()
        .map(|o| Tensor::randn(o.dims(), &mut rng))
        .collect();
    g.zero_grad();
    g.backward(&seeds);

    // The same computation, layer by layer, on private copies.
    let mut layers: Vec<(&str, Box<dyn Layer>)> = vec![
        ("conv_a", Box::new(conv_a)),
        ("relu_a", Box::new(Relu::new())),
        ("pool_a", Box::new(AvgPool2d::new(2, 2))),
        ("flat_a", Box::new(Flatten::new())),
        ("fc_a", Box::new(fc_a)),
        ("conv_b", Box::new(conv_b)),
        ("bn_b", Box::new(BatchNorm2d::new(6))),
        ("relu_b", Box::new(Relu::new())),
        ("tap", Box::new(tap)),
        ("join", Box::new(Add::new())),
        ("pool_b", Box::new(AvgPool2d::new(2, 2))),
        ("flat_b", Box::new(Flatten::new())),
        ("fc_b", Box::new(fc_b)),
    ];
    let mut run = |name: &str, inputs: &[&Tensor]| -> Tensor {
        let layer = &mut layers.iter_mut().find(|(n, _)| *n == name).unwrap().1;
        let copies: Vec<Tensor> = inputs.iter().map(|t| deep(t)).collect();
        deep(&layer.forward(&copies.iter().collect::<Vec<_>>(), Mode::Train))
    };
    let ya = run("conv_a", &[&input]);
    let ya_relu = run("relu_a", &[&ya]);
    let ya_pool = run("pool_a", &[&ya_relu]);
    let ya_flat = run("flat_a", &[&ya_pool]);
    let _ = run("fc_a", &[&ya_flat]);
    let yb = run("conv_b", &[&input]);
    let yb_bn = run("bn_b", &[&yb]);
    let yb_relu = run("relu_b", &[&yb_bn]);
    let y_tap = run("tap", &[&ya]);
    let y_join = run("join", &[&yb_relu, &y_tap]);
    let yb_pool = run("pool_b", &[&y_join]);
    let yb_flat = run("flat_b", &[&yb_pool]);
    let _ = run("fc_b", &[&yb_flat]);
    let mut back = |name: &str, grad: &Tensor, demand: &[bool]| -> Vec<Option<Tensor>> {
        let layer = &mut layers.iter_mut().find(|(n, _)| *n == name).unwrap().1;
        let grads = layer.backward(&deep(grad), demand);
        grads.iter().map(|g| g.as_ref().map(deep)).collect()
    };
    let mut ga = back("fc_a", &seeds[0], &[true]).remove(0).unwrap();
    for name in ["flat_a", "pool_a", "relu_a"] {
        ga = back(name, &ga, &[true]).remove(0).unwrap();
    }
    back("conv_a", &ga, &[false]);
    let mut gb = back("fc_b", &seeds[1], &[true]).remove(0).unwrap();
    for name in ["flat_b", "pool_b"] {
        gb = back(name, &gb, &[true]).remove(0).unwrap();
    }
    let fanned = back("join", &gb, &[true, true]);
    back("tap", fanned[1].as_ref().unwrap(), &[false]);
    let mut gb = fanned[0].clone().unwrap();
    for name in ["relu_b", "bn_b"] {
        gb = back(name, &gb, &[true]).remove(0).unwrap();
    }
    back("conv_b", &gb, &[false]);

    for (name, layer) in &layers {
        let id = g.node_by_name(name).unwrap();
        for (k, (got, want)) in g
            .node(id)
            .layer()
            .params()
            .iter()
            .zip(layer.params())
            .enumerate()
        {
            assert_eq!(bits(&got.grad), bits(&want.grad), "{name}.p{k}");
        }
    }
}

/// `clear_caches` hands the scratch-backed caches (column matrices, padded
/// planes, activation outputs nobody else holds any more) back to the arena
/// instead of freeing them, so an evaluation loop — forward, drop the
/// outputs, clear — finds them again on its next batch: the arena grows on
/// the first batch and holds steady from then on.
#[test]
fn clear_caches_recycles_what_an_eval_batch_cached() {
    std::thread::spawn(|| {
        let mut rng = Rng::seed_from(6);
        let mut g = GraphModel::new();
        let x = g.input("x");
        let h = g.add_layer("conv1", Conv2d::new(1, 6, 5, 1, 2, true, &mut rng), &[x]);
        let h = g.add_layer("bn1", BatchNorm2d::new(6), &[h]);
        let h = g.add_layer("relu1", Relu::new(), &[h]);
        let h = g.add_layer("pool1", AvgPool2d::new(2, 2), &[h]);
        let h = g.add_layer("conv2", Conv2d::new(6, 16, 5, 1, 2, true, &mut rng), &[h]);
        let h = g.add_layer("relu2", Relu::new(), &[h]);
        let h = g.add_layer("flat", Flatten::new(), &[h]);
        let y = g.add_layer("fc", Linear::new(16 * 8 * 8, 4, true, &mut rng), &[h]);
        g.set_output(y);
        let batch = Tensor::randn(&[8, 1, 16, 16], &mut rng);

        amalgam_tensor::scratch::clear();
        drop(g.forward(&[&batch], Mode::Eval));
        let held = amalgam_tensor::scratch::retained();
        g.clear_caches();
        let recycled = amalgam_tensor::scratch::retained();
        // conv1's planes, bn1's input, relu1's and relu2's outputs, conv2's
        // columns, fc's flattened input.
        assert!(recycled >= held + 5, "{held} -> {recycled} buffers");
        let columns = 6 * 25 * 8 * 8 * 8;
        assert!(amalgam_tensor::scratch::retained_elems() >= columns);
        // The next batch takes those buffers and gives them back.
        drop(g.forward(&[&batch], Mode::Eval));
        g.clear_caches();
        assert_eq!(amalgam_tensor::scratch::retained(), recycled);
    })
    .join()
    .unwrap();
}
