//! The Figure 14 harness: LeNet training-time comparison across
//! privacy-preserving frameworks.
//!
//! Baseline, Amalgam and DISCO are *trained outright* on the (scaled)
//! synthetic MNIST, and the CPU/TEE row is the baseline's run (see
//! [`run_comparison`]). MPC and FHE epochs are *measured* from genuine
//! secret-shared / encrypted operations over LeNet's actual layer shapes and
//! extrapolated to a full epoch — the paper's own PyCrCNN bar ("over 3
//! days") is equally an extrapolation-scale number. Every row records
//! whether it was measured end-to-end or extrapolated.

use crate::disco::{disco_obfuscate, DiscoConfig};
use crate::he::{Bfv, BfvParams};
use crate::mpc::MpcSession;
use crate::Framework;
use amalgam_core::trainer::{train_image_classifier, TrainConfig};
use amalgam_core::{Amalgam, ObfuscationConfig};
use amalgam_data::{ImagePair, SyntheticImageSpec};
use amalgam_models::lenet5;
use amalgam_tensor::{Rng, Tensor};

/// Configuration of the comparison experiment.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonConfig {
    /// Square image size (paper: 28).
    pub hw: usize,
    /// Training samples (paper: 60 000).
    pub train_count: usize,
    /// Test samples.
    pub test_count: usize,
    /// Epochs (paper: 10).
    pub epochs: usize,
    /// Batch size (paper: 128).
    pub batch_size: usize,
    /// Learning rate (paper: 0.001 with Adam; we use SGD+momentum).
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl ComparisonConfig {
    /// A CI-friendly scaled configuration.
    pub fn scaled() -> Self {
        ComparisonConfig {
            hw: 12,
            train_count: 768,
            test_count: 128,
            epochs: 4,
            batch_size: 32,
            lr: 0.03,
            seed: 7,
        }
    }

    /// The paper's settings (60k × 28×28, 10 epochs, batch 128).
    pub fn paper() -> Self {
        ComparisonConfig {
            hw: 28,
            train_count: 60_000,
            test_count: 10_000,
            epochs: 10,
            batch_size: 128,
            lr: 0.01,
            seed: 7,
        }
    }
}

/// One row of Figure 14.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Which framework.
    pub framework: Framework,
    /// Total training seconds for all epochs.
    pub seconds: f64,
    /// `true` if the time was extrapolated from measured per-op costs
    /// rather than a full run.
    pub extrapolated: bool,
    /// Final validation accuracy, when the framework was actually trained.
    pub val_acc: Option<f32>,
}

/// Runs the full Figure 14 comparison.
pub fn run_comparison(cfg: &ComparisonConfig) -> Vec<ComparisonRow> {
    let mut rng = Rng::seed_from(cfg.seed);
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(cfg.train_count, cfg.test_count)
        .with_hw(cfg.hw)
        .generate(&mut rng);
    let tc = TrainConfig::new(cfg.epochs, cfg.batch_size, cfg.lr)
        .with_momentum(0.9)
        .with_seed(cfg.seed);

    let baseline = run_baseline(&data, cfg, &tc);
    // CPU-only training, the paper's best-case TEE stand-in: TensorScone-style
    // SGX solutions cannot use the GPU, so the paper models them as plain CPU
    // training with zero enclave overhead. On this CPU reproduction that is
    // the vanilla trainer's run itself, so the row is the baseline's.
    let tee = ComparisonRow {
        framework: Framework::Tee,
        ..baseline.clone()
    };
    vec![
        baseline,
        run_amalgam(&data, cfg, &tc),
        run_disco(&data, cfg, &tc),
        tee,
        extrapolate_mpc(cfg),
        extrapolate_he(cfg),
    ]
}

fn run_baseline(data: &ImagePair, cfg: &ComparisonConfig, tc: &TrainConfig) -> ComparisonRow {
    let mut model = lenet5(1, cfg.hw, 10, &mut Rng::seed_from(cfg.seed));
    let h = train_image_classifier(&mut model, &data.train, Some(&data.test), 0, tc);
    ComparisonRow {
        framework: Framework::Baseline,
        seconds: f64::from(h.total_secs()),
        extrapolated: false,
        val_acc: h.final_val_acc(),
    }
}

fn run_amalgam(data: &ImagePair, cfg: &ComparisonConfig, tc: &TrainConfig) -> ComparisonRow {
    // Paper: 100 % model and dataset augmentation.
    let model = lenet5(1, cfg.hw, 10, &mut Rng::seed_from(cfg.seed));
    let ocfg = ObfuscationConfig::new(1.0)
        .with_seed(cfg.seed)
        .with_subnets(3);
    let bundle = Amalgam::obfuscate(&model, data, &ocfg).expect("obfuscation");
    let mut aug = bundle.augmented_model;
    let h = train_image_classifier(
        &mut aug,
        &bundle.augmented_train,
        None,
        bundle.secrets.original_output,
        tc,
    );
    // Extract and validate on the *original* test set (the paper's pipeline).
    let extracted = Amalgam::extract(&aug, &model, &bundle.secrets).expect("extraction");
    let mut ex = extracted.model;
    let (_, acc) =
        amalgam_core::trainer::evaluate_image_classifier(&mut ex, &data.test, 0, tc.batch_size);
    ComparisonRow {
        framework: Framework::Amalgam,
        seconds: f64::from(h.total_secs()),
        extrapolated: false,
        val_acc: Some(acc),
    }
}

fn run_disco(data: &ImagePair, cfg: &ComparisonConfig, tc: &TrainConfig) -> ComparisonRow {
    let base = lenet5(1, cfg.hw, 10, &mut Rng::seed_from(cfg.seed));
    let mut model = disco_obfuscate(
        &base,
        &DiscoConfig::default(),
        &mut Rng::seed_from(cfg.seed ^ 1),
    );
    let h = train_image_classifier(&mut model, &data.train, Some(&data.test), 0, tc);
    ComparisonRow {
        framework: Framework::Disco,
        seconds: f64::from(h.total_secs()),
        extrapolated: false,
        val_acc: h.final_val_acc(),
    }
}

/// LeNet layer shapes as (M, K, N) im2col matmuls for one batch.
fn lenet_matmul_shapes(hw: usize, batch: usize) -> Vec<(usize, usize, usize)> {
    let h2 = hw / 2;
    let h4 = hw / 4;
    vec![
        (6, 25, batch * hw * hw),      // conv1 as [oc, ic·k²] × [·, N·oh·ow]
        (16, 6 * 25, batch * h2 * h2), // conv2
        (batch, 16 * h4 * h4, 120),    // fc1
        (batch, 120, 84),              // fc2
        (batch, 84, 10),               // fc3
    ]
}

/// Measures genuine secret-shared matmul throughput on LeNet's shapes and
/// extrapolates a full training run (forward + backward ≈ 3× forward FLOPs).
fn extrapolate_mpc(cfg: &ComparisonConfig) -> ComparisonRow {
    let session = MpcSession::new(cfg.seed);
    let mut rng = Rng::seed_from(cfg.seed ^ 2);
    // Measure each layer shape once at a reduced batch, scale by FLOP ratio.
    let probe_batch = 4usize.min(cfg.batch_size);
    let mut probe_secs = 0.0f64;
    let mut probe_flops = 0.0f64;
    for (m, k, n) in lenet_matmul_shapes(cfg.hw, probe_batch) {
        let x = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let xs = session.share(&x);
        let ys = session.share(&y);
        let t0 = std::time::Instant::now();
        let _ = session.matmul(&xs, &ys);
        probe_secs += t0.elapsed().as_secs_f64();
        probe_flops += (m * k * n) as f64;
    }
    let full_flops: f64 = lenet_matmul_shapes(cfg.hw, cfg.batch_size)
        .iter()
        .map(|&(m, k, n)| (m * k * n) as f64)
        .sum();
    let batches_per_epoch = cfg.train_count.div_ceil(cfg.batch_size) as f64;
    // forward + backward ≈ 3× forward cost; plus non-linearities ≈ +10 %.
    let seconds =
        probe_secs * (full_flops / probe_flops) * 3.0 * 1.1 * batches_per_epoch * cfg.epochs as f64;
    ComparisonRow {
        framework: Framework::Mpc,
        seconds,
        extrapolated: true,
        val_acc: None,
    }
}

/// Measures genuine encrypted multiply-accumulate cost with the BFV scheme
/// and extrapolates a full training run.
fn extrapolate_he(cfg: &ComparisonConfig) -> ComparisonRow {
    let mut rng = Rng::seed_from(cfg.seed ^ 3);
    let bfv = Bfv::new(BfvParams::small());
    let sk = bfv.keygen(&mut rng);
    // Measure the per-MAC cost: one plain-mul plus one add on a ciphertext.
    let ct = bfv.encrypt(&[1, 2, 3, 4], &sk, &mut rng);
    let probes = 8;
    let t0 = std::time::Instant::now();
    let mut acc = ct.clone();
    for i in 0..probes {
        let tmp = bfv.mul_plain_scalar(&ct, (i + 1) as u64);
        acc = bfv.add(&acc, &tmp);
    }
    let per_mac = t0.elapsed().as_secs_f64() / probes as f64;
    std::hint::black_box(&acc);

    // MACs per forward pass of LeNet on one sample (conv + fc).
    let macs_per_sample: f64 = lenet_matmul_shapes(cfg.hw, 1)
        .iter()
        .map(|&(m, k, n)| (m * k * n) as f64)
        .sum();
    let samples = cfg.train_count as f64 * cfg.epochs as f64;
    // Encrypted training ≈ 3× forward MACs (fwd+bwd), as for MPC.
    let seconds = per_mac * macs_per_sample * samples * 3.0;
    ComparisonRow {
        framework: Framework::He,
        seconds,
        extrapolated: true,
        val_acc: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_reproduces_figure14_ordering() {
        let rows = run_comparison(&ComparisonConfig::scaled());
        let secs = |f: Framework| rows.iter().find(|r| r.framework == f).unwrap().seconds;
        // Paper Figure 14 ordering: baseline < Amalgam < DISCO ≲ CPU < MPC < FHE.
        assert!(secs(Framework::Baseline) < secs(Framework::Amalgam));
        assert!(secs(Framework::Baseline) < secs(Framework::Disco));
        assert!(secs(Framework::Amalgam) < secs(Framework::Mpc));
        assert!(secs(Framework::Mpc) < secs(Framework::He));
        // FHE is orders of magnitude slower than the baseline.
        assert!(secs(Framework::He) / secs(Framework::Baseline) > 100.0);
    }

    #[test]
    fn trained_frameworks_report_accuracy() {
        let rows = run_comparison(&ComparisonConfig::scaled());
        for row in &rows {
            match row.framework {
                Framework::Mpc | Framework::He => {
                    assert!(row.extrapolated);
                    assert!(row.val_acc.is_none());
                }
                _ => {
                    assert!(!row.extrapolated);
                    assert!(row.val_acc.is_some());
                }
            }
        }
    }
}
