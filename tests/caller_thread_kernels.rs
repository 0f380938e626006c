//! Kernels run on their caller's thread: a 256³ product, a LeNet-5 training
//! step on 20 px images and a transformer-LM training step on 16-token
//! windows start no thread, a kernel pool's workers included. A binary of its
//! own, with one test, so that no other test's threads come and go while it
//! counts (Linux; elsewhere both sides read no threads).

use amalgam::core::trainer::{train_image_classifier, train_lm};
use amalgam::data::{LmCorpusSpec, SyntheticImageSpec};
use amalgam::models::{lenet5, transformer_lm, TransformerLmConfig};
use amalgam::prelude::*;
use amalgam::tensor::kernels;

/// The names of the process's live threads, sorted, from `/proc/self/task`.
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn training_runs_on_the_callers_thread_alone() {
    let before = thread_names();
    let mut rng = Rng::seed_from(5);

    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    assert_eq!(kernels::matmul(&a, &b).dims(), &[256, 256]);

    let images = SyntheticImageSpec::mnist_like()
        .with_counts(16, 2)
        .with_hw(20)
        .with_classes(10)
        .generate(&mut rng);
    let mut lenet = lenet5(1, 20, 10, &mut rng);
    let tc = TrainConfig::new(1, 16, 0.05).with_seed(6);
    train_image_classifier(&mut lenet, &images.train, None, 0, &tc);

    let (batch, t, vocab) = (8usize, 16usize, 200usize);
    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(vocab)
        .with_tokens(batch * (t + 1))
        .generate(&mut rng);
    let batches = corpus.batchify(batch, t);
    let windows: Vec<Tensor> = (0..batches.num_batches())
        .map(|i| batches.window(i).0)
        .collect();
    assert_eq!(windows.len(), 1, "one LM step");
    let mut lm = transformer_lm(&TransformerLmConfig::tiny(vocab, 2 * t), &mut rng);
    let keeps = vec![(0..t).collect::<Vec<usize>>()];
    train_lm(&mut lm, &windows, &[], &keeps, 0, &tc);

    assert_eq!(thread_names(), before, "a kernel started a thread");
}
