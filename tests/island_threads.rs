//! A training step's threads: an augmented LeNet-5 step on 20 px images runs
//! on its caller and at most one helper thread, named
//! [`HELPER_THREAD`], which ends with the step. A binary of its own, with one
//! test, so that no other test's threads come and go while it counts (Linux;
//! elsewhere both sides read no threads).

use amalgam::core::trainer::train_image_classifier;
use amalgam::data::SyntheticImageSpec;
use amalgam::models::lenet5;
use amalgam::nn::graph::{Forking, HELPER_THREAD};
use amalgam::nn::loss::cross_entropy;
use amalgam::prelude::*;
use std::sync::Mutex;

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

/// `now` less the threads of `before`, one for one.
fn started(before: &[String], mut now: Vec<String>) -> Vec<String> {
    for name in before {
        if let Some(at) = now.iter().position(|n| n == name) {
            now.remove(at);
        }
    }
    now
}

#[test]
fn a_step_runs_beside_at_most_one_helper_that_ends_with_it() {
    let mut rng = Rng::seed_from(7);
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(32, 2)
        .with_hw(20)
        .with_classes(10)
        .generate(&mut rng);
    let model = lenet5(1, 20, 10, &mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(7).with_subnets(3);
    let bundle = Amalgam::obfuscate(&model, &data, &cfg).expect("obfuscation");
    let (x, labels) = bundle
        .augmented_train
        .batch_at(&(0..16).collect::<Vec<_>>());
    assert!(bundle.augmented_model.islands().forks(x.dims()));

    let before = thread_names();
    // A new thread carries its spawner's name until it has set its own.
    let caller = std::fs::read_to_string("/proc/thread-self/comm").unwrap_or_default();
    let helper_names = [HELPER_THREAD, caller.trim()];
    for forking in [Forking::Rule, Forking::Always] {
        let mut model = bundle.augmented_model.clone();
        model.set_forking_for_tests(forking);
        // What each head's loss, on whichever thread runs it, sees running.
        let seen = Mutex::new(Vec::new());
        for _ in 0..4 {
            model.train_step(&[&x], &|_, out| {
                let extra = started(&before, thread_names());
                seen.lock().unwrap().push(extra);
                (cross_entropy(out, &labels).1, ())
            });
            assert_eq!(thread_names(), before, "a helper outlived its step");
        }
        let seen = seen.into_inner().unwrap();
        for extra in &seen {
            assert!(
                extra.len() <= 1
                    && extra
                        .iter()
                        .all(|name| helper_names.contains(&name.as_str())),
                "threads beside the caller: {extra:?}"
            );
        }
        if forking == Forking::Always {
            assert!(seen.iter().any(|extra| !extra.is_empty()), "no helper ran");
        }
    }

    // Whole epochs, through the trainer, leave no thread behind either.
    let tc = TrainConfig::new(1, 16, 0.05).with_seed(8);
    let mut model = bundle.augmented_model.clone();
    train_image_classifier(&mut model, &bundle.augmented_train, None, 0, &tc);
    assert_eq!(thread_names(), before, "a helper outlived its epoch");
}
