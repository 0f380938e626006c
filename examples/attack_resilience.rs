//! Attack resilience: run the paper's §6.3 analyses against one obfuscated
//! bundle — brute force, iDLG/DLG, and denoising.
//!
//! The DLG attack is mounted the way the threat model actually allows:
//! a [`GradientTap`] observer attached to a running [`CloudService`]
//! harvests the first single-sample gradient and batch from the service's
//! pipeline's observer stage, and gradient matching runs on that capture.
//!
//! Run with: `cargo run --release --example attack_resilience`

use amalgam::attacks::bruteforce::search_space;
use amalgam::attacks::denoise::{bilinear_resize, gaussian_denoise};
use amalgam::attacks::dlg::{dlg_attack, DlgConfig, HeadTarget};
use amalgam::attacks::observer::GradientTap;
use amalgam::attacks::psnr;
use amalgam::cloud::CloudService;
use amalgam::prelude::*;
use std::sync::{Arc, Mutex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(13);
    let hw = 8;
    let model = amalgam::models::lenet5(1, hw, 10, &mut rng);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(32, 8)
        .with_hw(hw)
        .generate(&mut rng);
    let bundle = Amalgam::obfuscate(&model, &data, &ObfuscationConfig::new(0.5).with_seed(4))?;

    // 1. Brute force: how many layouts would the provider have to try?
    let (ah, aw) = bundle.plan.aug_hw();
    let inserted = bundle.plan.inserted();
    println!(
        "brute-force attack: C({}, {inserted}) = {} candidate layouts",
        ah * aw,
        search_space(ah * aw, inserted)
    );

    // 2. DLG from the cloud's own vantage point: run the job on the service
    //    with a gradient tap in the observer stage (batch_size 1, one
    //    epoch), then gradient-match against what the tap captured.
    let job = CloudJob {
        model: bundle.augmented_model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: bundle.augmented_train.images().clone(),
            labels: bundle.augmented_train.labels().to_vec(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 1, 0.05).with_seed(21),
    };
    let tap = Arc::new(Mutex::new(GradientTap::new()));
    let service = CloudService::start_with_observer(tap.clone());
    service.client().train(&job)?;
    service.shutdown();
    let (target, dlg_dims, dlg_label) = {
        let guard = tap.lock().unwrap();
        let (x, y) = guard
            .first_batch
            .as_ref()
            .expect("tap captured no batch")
            .clone();
        (
            guard
                .first_gradient
                .clone()
                .expect("tap captured no gradient"),
            x.dims().to_vec(),
            y[0],
        )
    };
    let mut aug = bundle.augmented_model.clone();
    let cfg = DlgConfig {
        iterations: 25,
        ..DlgConfig::default()
    };
    let out = dlg_attack(
        &mut aug,
        &dlg_dims,
        dlg_label,
        HeadTarget::All,
        &target,
        None,
        &cfg,
    );
    println!(
        "DLG attack (cloud-tapped gradient): objective {:.3} → {:.3} after {} iterations (no convergence)",
        out.objective.first().unwrap(),
        out.objective.last().unwrap(),
        cfg.iterations
    );

    // 3. Denoising: smoothing the augmented image cannot undo pixel insertion.
    let clean = data.train.batch(0, 1).0.reshape(&[1, hw, hw]);
    let aug_img = bundle.augmented_train.batch(0, 1).0.reshape(&[1, ah, aw]);
    let denoised = gaussian_denoise(&aug_img, 1.0);
    let attacker_view = bilinear_resize(&denoised, hw, hw);
    println!(
        "denoising attack: PSNR of the recovered view is {:.1} dB (≥30 dB would be a faithful image)",
        psnr(&clean, &attacker_view, 1.0)
    );
    Ok(())
}
