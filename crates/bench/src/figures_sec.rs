//! Figures 14–18: the framework comparison and the security analyses.

use crate::{write_pgm, Options, Report, Scale};
use amalgam_attacks::denoise::{
    bilateral_denoise, bilinear_resize, gaussian_denoise, median_denoise, CnnDenoiser,
};
use amalgam_attacks::dlg::{
    dlg_attack, idlg_infer_label, observed_gradient, DlgConfig, HeadTarget,
};
use amalgam_attacks::shap::{attribution_correlation, kernel_shap, ShapConfig};
use amalgam_attacks::{mse, psnr};
use amalgam_baselines::comparison::{run_comparison, ComparisonConfig};
use amalgam_core::privacy::privacy_sweep;
use amalgam_core::trainer::TrainConfig;
use amalgam_core::{augment_images, AugmentConfig, ImagePlan, NoiseKind};
use amalgam_data::SyntheticImageSpec;
use amalgam_models::lenet5;
use amalgam_nn::Mode;
use amalgam_tensor::{Rng, Tensor};

/// Figure 14: LeNet training-time comparison across frameworks.
pub fn fig14(opts: &Options) -> Report {
    let cfg = match opts.scale {
        Scale::Scaled => ComparisonConfig::scaled(),
        Scale::Full => ComparisonConfig::paper(),
    };
    let mut report = Report::new(
        "fig14_framework_comparison",
        &[
            "framework",
            "seconds",
            "vs_baseline",
            "extrapolated",
            "val_acc",
        ],
    );
    let rows = run_comparison(&cfg);
    let baseline = rows[0].seconds;
    for row in rows {
        report.push(vec![
            row.framework.to_string(),
            format!("{:.2}", row.seconds),
            format!("{:.1}x", row.seconds / baseline),
            row.extrapolated.to_string(),
            row.val_acc.map_or("-".into(), |a| format!("{a:.4}")),
        ]);
    }
    report
}

/// Figure 15: privacy loss ε and computing performance loss ρ versus α.
pub fn fig15(opts: &Options) -> Report {
    let _ = opts;
    let mut report = Report::new("fig15_privacy_loss", &["alpha", "epsilon", "rho"]);
    let amounts: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.25).collect();
    for p in privacy_sweep(&amounts) {
        report.push(vec![
            format!("{:.2}", p.alpha),
            format!("{:.4}", p.epsilon),
            format!("{:.4}", p.rho),
        ]);
    }
    report
}

/// Figure 16: DLG/iDLG against a plain LeNet (control) and an Amalgam-
/// augmented LeNet (50 % model + dataset augmentation, as in the paper).
pub fn fig16(opts: &Options) -> Report {
    let mut report = Report::new(
        "fig16_dlg",
        &[
            "target",
            "iterations",
            "final_objective",
            "attacker_view_mse",
            "mean_guess_mse",
            "idlg_label_ok",
        ],
    );
    let mut rng = Rng::seed_from(opts.seed);
    let hw = if opts.scale == Scale::Scaled { 8 } else { 12 };
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(8, 2)
        .with_hw(hw)
        .with_noise(0.25)
        .generate(&mut rng);
    let (img, labels) = data.train.batch(0, 1);
    let label = labels[0];
    let iters = if opts.scale == Scale::Scaled { 160 } else { 84 };
    let dcfg = DlgConfig {
        iterations: iters,
        seed: opts.seed,
        ..DlgConfig::default()
    };

    // --- control: plain LeNet --------------------------------------------
    let mut plain = lenet5(1, hw, 10, &mut Rng::seed_from(opts.seed));
    let target = observed_gradient(&mut plain, &img, label, HeadTarget::Single(0));
    // iDLG first: read the final linear layer's weight gradient.
    let fc3 = plain.node_by_name("fc3").expect("lenet fc3");
    let wgrad = plain.node(fc3).layer().params()[0].grad.clone();
    let idlg_ok = idlg_infer_label(&wgrad) == label;
    let out = dlg_attack(
        &mut plain,
        img.dims(),
        label,
        HeadTarget::Single(0),
        &target,
        Some(&img),
        &dcfg,
    );
    write_pgm(
        &img.reshape(&[1, hw, hw]),
        &opts.out_dir.join("fig16_ground_truth.pgm"),
    );
    write_pgm(
        &out.reconstruction.reshape(&[1, hw, hw]),
        &opts.out_dir.join("fig16_plain_reconstruction.pgm"),
    );
    // Context: guessing the image mean everywhere scores this MSE.
    let mean_guess = Tensor::full(img.dims(), img.mean());
    let mean_guess_mse = mse(&img, &mean_guess);
    report.push(vec![
        "plain LeNet".into(),
        iters.to_string(),
        format!("{:.5}", out.objective.last().copied().unwrap_or(f32::NAN)),
        format!("{:.4}", out.reconstruction_mse.unwrap_or(f32::NAN)),
        format!("{mean_guess_mse:.4}"),
        idlg_ok.to_string(),
    ]);

    // --- Amalgam: 50 % augmented model + dataset ---------------------------
    let plan = ImagePlan::random(hw, hw, 0.5, &mut rng);
    let aug_imgs = augment_images(&data.train, &plan, &NoiseKind::UniformRandom, &mut rng);
    let template = lenet5(1, hw, 10, &mut Rng::seed_from(opts.seed));
    let acfg = AugmentConfig::new(0.5).with_seed(opts.seed).with_subnets(2);
    let (mut aug, _secrets) =
        amalgam_core::augment_cv(&template, &plan, 10, &acfg).expect("augmentation");
    let (aug_img, _) = aug_imgs.dataset.batch(0, 1);
    // The adversary observes the gradient of a genuine Algorithm-1 step —
    // the sum over ALL heads — and cannot know which sub-network is real.
    let target = observed_gradient(&mut aug, &aug_img, label, HeadTarget::All);
    let out = dlg_attack(
        &mut aug,
        aug_img.dims(),
        label,
        HeadTarget::All,
        &target,
        None,
        &dcfg,
    );
    // The adversary reconstructs in *augmented* space. Without the secret
    // plan it cannot pick the original pixels out of the noise — C(ah·aw,
    // inserted) layouts (§6.3); its best geometric readout is a resample of
    // its reconstruction back onto the original grid (as in Figure 18).
    let (ah, aw) = plan.aug_hw();
    let rec_img = out.reconstruction.reshape(&[1, ah, aw]);
    let attacker_view = amalgam_attacks::denoise::bilinear_resize(&rec_img, hw, hw);
    let rec_mse = mse(&img.reshape(&[1, hw, hw]), &attacker_view);
    write_pgm(
        &rec_img,
        &opts.out_dir.join("fig16_amalgam_reconstruction.pgm"),
    );
    report.push(vec![
        "Amalgam 50%".into(),
        iters.to_string(),
        format!("{:.5}", out.objective.last().copied().unwrap_or(f32::NAN)),
        format!("{rec_mse:.4}"),
        format!("{mean_guess_mse:.4}"),
        format!("search space {}", plan.search_space()),
    ]);
    report
}

/// Figure 17: SHAP attributions before/after augmentation.
pub fn fig17(opts: &Options) -> Report {
    let mut report = Report::new(
        "fig17_shap",
        &["model", "patch_grid", "top_patch", "corr_with_plain"],
    );
    let mut rng = Rng::seed_from(opts.seed);
    let hw = 8usize;
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(16, 4)
        .with_hw(hw)
        .generate(&mut rng);
    let (img_b, labels) = data.train.batch(0, 1);
    let label = labels[0];
    let img = img_b.reshape(&[1, hw, hw]);
    let cfg = ShapConfig {
        patch: 2,
        samples: 192,
        seed: opts.seed,
    };

    // Plain LeNet attribution of the true class probability.
    let mut plain = lenet5(1, hw, 10, &mut Rng::seed_from(opts.seed));
    let phi_plain = kernel_shap(
        |x| {
            let batched = x.reshape(&[1, 1, hw, hw]);
            let out = plain.forward_one(&batched, Mode::Eval).softmax_rows();
            plain.clear_caches();
            out.data()[label]
        },
        &img,
        &cfg,
    );
    let top_plain = phi_plain.argmax_rows();
    report.push(vec![
        "plain LeNet".into(),
        format!("{}x{}", hw / 2, hw / 2),
        format!("{:?}", top_plain),
        "1.0000".into(),
    ]);

    // Augmented (100 %, 3 sub-networks, as the paper): attribute the same
    // head on the augmented image; compare attributions over the ORIGINAL
    // pixel positions with the plain map.
    let plan = ImagePlan::random(hw, hw, 1.0, &mut rng);
    let aug_imgs = augment_images(&data.train, &plan, &NoiseKind::UniformRandom, &mut rng);
    let template = lenet5(1, hw, 10, &mut Rng::seed_from(opts.seed));
    let acfg = AugmentConfig::new(1.0).with_seed(opts.seed).with_subnets(3);
    let (mut aug, secrets) =
        amalgam_core::augment_cv(&template, &plan, 10, &acfg).expect("augment");
    let (ah, aw) = plan.aug_hw();
    let aug_img = aug_imgs.dataset.batch(0, 1).0.reshape(&[1, ah, aw]);
    let head = secrets.original_output;
    let phi_aug = kernel_shap(
        |x| {
            let batched = x.reshape(&[1, 1, ah, aw]);
            let outs = aug.forward(&[&batched], Mode::Eval);
            let p = outs[head].softmax_rows().data()[label];
            aug.clear_caches();
            p
        },
        &aug_img,
        &cfg,
    );
    // Project the augmented attribution onto the original patch grid via the
    // plan, then correlate with the plain attribution.
    let proj = project_attribution(&phi_aug, &plan, hw, 2, ah, aw);
    let corr = attribution_correlation(&phi_plain, &proj);
    report.push(vec![
        "Amalgam 100%".into(),
        format!("{}x{}", ah / 2, aw / 2),
        format!("{:?}", phi_aug.argmax_rows()),
        format!("{corr:.4}"),
    ]);
    report
}

/// Maps an augmented-grid attribution back onto the original patch grid
/// using the secret plan (generous to the adversary).
fn project_attribution(
    phi_aug: &Tensor,
    plan: &ImagePlan,
    hw: usize,
    patch: usize,
    ah: usize,
    aw: usize,
) -> Tensor {
    let grid = hw / patch;
    let aug_cols = aw / patch;
    let mut out = Tensor::zeros(&[grid, grid]);
    let mut counts = vec![0f32; grid * grid];
    for (k, &pos) in plan.keep().iter().enumerate() {
        let (oy, ox) = (k / hw, k % hw);
        let (ay, ax) = (pos / aw, pos % aw);
        let (ay, ax) = (
            ((ay / patch).min(ah / patch - 1)),
            ((ax / patch).min(aug_cols - 1)),
        );
        let op = (oy / patch) * grid + ox / patch;
        out.data_mut()[op] += phi_aug.data()[ay * aug_cols + ax];
        counts[op] += 1.0;
    }
    for (v, c) in out.data_mut().iter_mut().zip(counts) {
        if c > 0.0 {
            *v /= c;
        }
    }
    out
}

/// Figure 18: the denoising attack — a Gaussian-noise control versus an
/// Amalgam 20 % augmentation, across four denoisers.
pub fn fig18(opts: &Options) -> Report {
    let mut report = Report::new(
        "fig18_denoise",
        &[
            "denoiser",
            "control_psnr_db",
            "amalgam_psnr_db",
            "amalgam_resists",
        ],
    );
    let mut rng = Rng::seed_from(opts.seed);
    let hw = if opts.scale == Scale::Scaled { 16 } else { 32 };
    // Natural images carry fine-grained structure; pixel insertion destroys
    // its phase alignment, which is what defeats denoisers (paper Fig. 18).
    // Synthesize a textured image (fine checkerboard + edges + blob) so the
    // geometric effect is visible at this scale.
    let textured = |jitter: f32| {
        Tensor::from_fn(&[3, hw, hw], |i| {
            let p = i % (hw * hw);
            let (y, x) = (p / hw, p % hw);
            let checker = if (x + y) % 2 == 0 { 0.30 } else { -0.30 };
            let edge = if x == hw / 2 || y == hw / 3 {
                0.35
            } else {
                0.0
            };
            let fy = y as f32 / hw as f32 - 0.5;
            let fx = x as f32 / hw as f32 - 0.5;
            let blob = 0.3 * (-(fx * fx + fy * fy) / 0.05).exp();
            (0.45 + checker + edge + blob + jitter * ((i / (hw * hw)) as f32 * 0.05))
                .clamp(0.0, 1.0)
        })
    };
    let clean = textured(0.0);
    // Training corpus for the learned denoiser: jittered textured images.
    let mut train_imgs = Tensor::zeros(&[16, 3, hw, hw]);
    for n in 0..16 {
        let img = textured(n as f32 * 0.13);
        train_imgs.data_mut()[n * 3 * hw * hw..(n + 1) * 3 * hw * hw].copy_from_slice(img.data());
    }
    let data_train_images = train_imgs;
    let data_labels: Vec<usize> = vec![0; 16];
    let data_train = amalgam_data::ImageDataset::new(data_train_images, data_labels, 1);
    let sigma = 50.0 / 255.0; // the paper's σ = 50 on 8-bit images

    // Control: plain additive Gaussian noise.
    let noisy = clean.zip_map(
        &Tensor::from_fn(clean.dims(), |_| rng.normal(0.0, sigma)),
        |a, b| (a + b).clamp(0.0, 1.0),
    );
    // Amalgam: 20 % augmentation with Gaussian noise values (paper Fig. 18).
    let plan = ImagePlan::random(hw, hw, 0.2, &mut rng);
    let aug = augment_images(&data_train, &plan, &NoiseKind::Gaussian { sigma }, &mut rng);
    let (ah, aw) = plan.aug_hw();
    let aug_img = aug.dataset.batch(0, 1).0.reshape(&[3, ah, aw]);

    write_pgm(&grey(&clean), &opts.out_dir.join("fig18_ground_truth.pgm"));
    write_pgm(
        &grey(&noisy),
        &opts.out_dir.join("fig18_gaussian_noisy.pgm"),
    );
    write_pgm(
        &grey(&aug_img),
        &opts.out_dir.join("fig18_amalgam_augmented.pgm"),
    );

    // Train the learned denoiser once (stand-in for Restormer/KBNet).
    let epochs = if opts.scale == Scale::Scaled {
        150
    } else {
        300
    };
    let mut cnn = CnnDenoiser::train(
        data_train.images(),
        sigma,
        &TrainConfig::new(epochs, 8, 0.01),
        &mut Rng::seed_from(opts.seed ^ 2),
    );

    let mut eval = |name: &str, den: &mut dyn FnMut(&Tensor) -> Tensor| {
        let control = den(&noisy);
        let control_psnr = psnr(&clean, &control, 1.0);
        let denoised_aug = den(&aug_img);
        let recovered = bilinear_resize(&denoised_aug, hw, hw);
        let amalgam_psnr = psnr(&clean, &recovered, 1.0);
        report.push(vec![
            name.into(),
            format!("{control_psnr:.2}"),
            format!("{amalgam_psnr:.2}"),
            (control_psnr > amalgam_psnr + 3.0).to_string(),
        ]);
    };
    eval("gaussian", &mut |x| gaussian_denoise(x, 1.0));
    eval("median", &mut median_denoise);
    eval("bilateral", &mut |x| bilateral_denoise(x, 1.2, 0.2));
    eval("cnn (DnCNN-lite)", &mut |x| cnn.denoise(x));
    report
}

fn grey(img: &Tensor) -> Tensor {
    let d = img.dims();
    let (c, h, w) = (d[0], d[1], d[2]);
    let mut out = Tensor::zeros(&[1, h, w]);
    for ci in 0..c {
        for p in 0..h * w {
            out.data_mut()[p] += img.data()[ci * h * w + p] / c as f32;
        }
    }
    out
}
