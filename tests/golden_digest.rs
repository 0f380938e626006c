//! Trained bytes are pinned: one augmented LeNet-5 job and one augmented
//! transformer-LM job, fixed seeds, must train to exactly the bytes they
//! trained to before backward became demand-driven and the conv/pool glue
//! moved to slice kernels — for every tensor-pool size and kernel tier.
//!
//! The digests were first computed at the parent of that change (commit
//! 2b026ca). A kernel or executor change that reorders a single
//! floating-point accumulation moves them; a change that is *meant* to do so
//! must say so and re-pin.
//!
//! Re-pinned once since: every softmax and cross-entropy moved from libm's
//! `expf` (two calls per logit, bits not specified across hosts) to the
//! in-tree lane-exact `tensor::simd::exp` (one call per logit, `p = e / Σe`),
//! which changes trained bytes on purpose — LeNet `0xd65ece32…ab27c5` →
//! `0x9fa13b13…03d8e6`, LM `0x3299a6bb…abe60c` → `0x292bc676…97eecc`.

use amalgam::cloud::hash::siphash128;
use amalgam::core::trainer::{train_image_classifier, train_lm};
use amalgam::data::LmCorpusSpec;
use amalgam::models::{transformer_lm, TransformerLmConfig};
use amalgam::prelude::*;
use amalgam::tensor::parallel;
use amalgam::tensor::simd::{self, Tier};

const LENET_DIGEST: u128 = 0x9fa13b13936a5d7a4f19ed5b6203d8e6;
const LM_DIGEST: u128 = 0x292bc676d368ae393c2cd9cfdd97eecc;

/// Trains the augmented LeNet-5 on every head and digests the model bytes.
fn lenet_job() -> u128 {
    let mut rng = Rng::seed_from(21);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(64, 16)
        .with_hw(12)
        .with_classes(4)
        .generate(&mut rng);
    let model = amalgam::models::lenet5(1, 12, 4, &mut rng);
    let bundle = Amalgam::obfuscate(
        &model,
        &data,
        &ObfuscationConfig::new(0.5).with_seed(22).with_subnets(2),
    )
    .expect("obfuscation");
    let tc = TrainConfig::new(2, 16, 0.05)
        .with_momentum(0.9)
        .with_seed(23);
    let mut augmented = bundle.augmented_model;
    train_image_classifier(
        &mut augmented,
        &bundle.augmented_train,
        None,
        bundle.secrets.original_output,
        &tc,
    );
    siphash128(0, 0, &augmented.to_bytes())
}

/// The same for the tiny transformer LM (attention, embeddings, dropout).
fn lm_job() -> u128 {
    let mut rng = Rng::seed_from(31);
    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(30)
        .with_tokens(600)
        .generate(&mut rng);
    let batches = corpus.batchify(4, 8);
    let model = transformer_lm(&TransformerLmConfig::tiny(30, 16), &mut rng);
    let bundle = Amalgam::obfuscate_lm(
        &model,
        &batches,
        &ObfuscationConfig::new(0.5).with_seed(32).with_subnets(2),
    )
    .expect("obfuscation");
    let tc = TrainConfig::new(2, 4, 0.05).with_seed(33);
    let mut augmented = bundle.augmented_model;
    train_lm(
        &mut augmented,
        &bundle.augmented_train.windows,
        &[],
        &bundle.secrets.head_keeps,
        bundle.secrets.original_output,
        &tc,
    );
    siphash128(0, 0, &augmented.to_bytes())
}

/// One test, so the process-global pool size and kernel tier are flipped by
/// one thread only.
#[test]
fn trained_bytes_match_the_parent_commit_for_every_pool_size_and_tier() {
    for tier in [Tier::Portable, Tier::Simd] {
        simd::force_tier(Some(tier));
        for threads in [1, 2, 4] {
            parallel::set_threads(threads);
            assert_eq!(
                lenet_job(),
                LENET_DIGEST,
                "LeNet job diverged at {threads} pool threads, tier {tier:?}: {:#034x}",
                lenet_job()
            );
            assert_eq!(
                lm_job(),
                LM_DIGEST,
                "LM job diverged at {threads} pool threads, tier {tier:?}: {:#034x}",
                lm_job()
            );
        }
    }
    parallel::set_threads(0);
    simd::force_tier(None);
}
