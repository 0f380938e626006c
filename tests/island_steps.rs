//! A training step runs the augmented graph island by island: the nodes
//! back-propagation joins, one per sub-network (`nn::graph`, "Islands").
//! Here: the island plan as a pure function of the graph, forked steps
//! against serial ones bit for bit, a panic on either thread or in a weight
//! half, and the helper running weight halves of the caller's island.

use amalgam::cloud::{CloudError, CloudService};
use amalgam::core::trainer::{lm_head_loss, train_image_classifier, train_lm};
use amalgam::core::{
    augment_cv, augment_nlp, AugmentConfig, ImagePlan, LmBundle, NlpTask, ObfuscationBundle,
    TextPlan,
};
use amalgam::data::{LmCorpusSpec, SyntheticImageSpec};
use amalgam::models::{lenet5, transformer_lm, TransformerLmConfig};
use amalgam::nn::graph::{Forking, HELPER_THREAD};
use amalgam::nn::layers::{Conv2d, Flatten, Linear, Relu};
use amalgam::nn::loss::cross_entropy;
use amalgam::nn::metrics::History;
use amalgam::nn::{Layer, LayerSpec, Param};
use amalgam::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An obfuscated LeNet-5 job: `images` synthetic `hw` px images of 10
/// classes (2 at 8 px), α = 0.5, `subnets` synthetic sub-networks.
fn lenet_bundle(hw: usize, images: usize, subnets: usize, seed: u64) -> ObfuscationBundle {
    let mut rng = Rng::seed_from(seed);
    let classes = if hw == 8 { 2 } else { 10 };
    let data = SyntheticImageSpec::mnist_like()
        .with_counts(images, 2)
        .with_hw(hw)
        .with_classes(classes)
        .generate(&mut rng);
    let model = lenet5(1, hw, classes, &mut rng);
    let cfg = ObfuscationConfig::new(0.5)
        .with_seed(seed)
        .with_subnets(subnets);
    Amalgam::obfuscate(&model, &data, &cfg).expect("obfuscation")
}

/// An obfuscated tiny transformer LM on 8 windows of `t` tokens.
fn lm_bundle(t: usize, subnets: usize, seed: u64) -> LmBundle {
    let mut rng = Rng::seed_from(seed);
    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(60)
        .with_tokens(8 * (2 * t + 1))
        .generate(&mut rng);
    let batches = corpus.batchify(8, t);
    let model = transformer_lm(&TransformerLmConfig::tiny(60, 2 * t), &mut rng);
    let cfg = ObfuscationConfig::new(0.5)
        .with_seed(seed)
        .with_subnets(subnets);
    Amalgam::obfuscate_lm(&model, &batches, &cfg).expect("obfuscation")
}

/// The kinds of the nodes that read another island's value.
fn crossing_kinds(model: &GraphModel) -> BTreeSet<&'static str> {
    let crossings = model.islands().crossings();
    crossings
        .iter()
        .map(|&(reader, _)| model.node(reader).kind())
        .collect()
}

/// Checks the plan of an augmented model with `subnets` synthetic
/// sub-networks: one island per sub-network, and the tap `Detach`es — every
/// one of them — are what reads across. Returns whether a tap reads the
/// original sub-network and whether one reads a synthetic one.
fn check_augmented_plan(model: &GraphModel, subnets: usize) -> [bool; 2] {
    let islands = model.islands();
    assert_eq!(islands.len(), subnets + 1, "one island per sub-network");
    for k in 0..islands.len() {
        let tags: BTreeSet<usize> = islands
            .members(k)
            .iter()
            .map(|&id| model.node(id).subnet())
            .collect();
        assert_eq!(tags.len(), 1, "island {k} spans sub-networks {tags:?}");
    }
    let detaches: BTreeSet<usize> = model
        .node_ids()
        .filter(|&id| model.node(id).kind() == "Detach")
        .map(|id| id.index())
        .collect();
    let readers: BTreeSet<usize> = islands
        .crossings()
        .iter()
        .map(|&(reader, _)| reader.index())
        .collect();
    assert_eq!(readers, detaches, "the readers across islands are the taps");
    let mut taps = [false; 2];
    for (_, node) in islands.crossings() {
        taps[usize::from(model.node(node).subnet() != 0)] = true;
    }
    taps
}

/// How many islands `model`'s would be were its taps to carry gradient:
/// those its crossings connect, counted once.
fn joined_count(model: &GraphModel) -> usize {
    let islands = model.islands();
    let mut root: Vec<usize> = (0..islands.len()).collect();
    fn find(root: &[usize], mut k: usize) -> usize {
        while root[k] != k {
            k = root[k];
        }
        k
    }
    for (reader, node) in islands.crossings() {
        let [a, b] = [reader, node].map(|id| find(&root, islands.island_of(id).unwrap()));
        root[a.max(b)] = a.min(b);
    }
    (0..root.len()).filter(|&k| root[k] == k).count()
}

#[test]
fn a_plain_model_is_one_island() {
    let mut rng = Rng::seed_from(1);
    let lenet = lenet5(1, 20, 10, &mut rng);
    let lm = transformer_lm(&TransformerLmConfig::tiny(60, 32), &mut rng);
    for model in [lenet, lm] {
        let islands = model.islands();
        assert_eq!(islands.len(), 1);
        assert!(islands.crossings().is_empty());
        let input = model.input_ids()[0];
        assert_eq!(
            islands.island_of(input),
            None,
            "an external input is no island's"
        );
    }
}

#[test]
fn every_sub_network_is_an_island_and_only_taps_cross() {
    let mut rng = Rng::seed_from(2);
    let lenet = lenet5(1, 12, 4, &mut rng);
    let lm = transformer_lm(&TransformerLmConfig::tiny(60, 32), &mut rng);
    let mut taps = [false; 2];
    let mut one_island = false;
    for subnets in 2..=4 {
        for seed in 0..6 {
            let cfg = AugmentConfig::new(0.5)
                .with_subnets(subnets)
                .with_seed(seed);
            let plan = ImagePlan::random(12, 12, 0.5, &mut rng);
            let (cv, _) = augment_cv(&lenet, &plan, 4, &cfg).expect("augment_cv");
            let text = TextPlan::random(16, 0.5, &mut rng);
            let lm_task = NlpTask::LanguageModel;
            let (nlp, _) = augment_nlp(&lm, &text, lm_task, &cfg).expect("augment_nlp");
            let ablation = cfg.without_detach();
            let (cv_joined, _) = augment_cv(&lenet, &plan, 4, &ablation).expect("augment_cv");
            let (nlp_joined, _) = augment_nlp(&lm, &text, lm_task, &ablation).expect("augment_nlp");
            for (model, joined) in [(&cv, &cv_joined), (&nlp, &nlp_joined)] {
                let [original, synthetic] = check_augmented_plan(model, subnets);
                taps[0] |= original;
                taps[1] |= synthetic;
                // The ablation's taps carry gradient: they join what they
                // connect, and nothing crosses.
                let islands = joined.islands();
                assert_eq!(islands.len(), joined_count(model));
                assert!(crossing_kinds(joined).is_empty());
                one_island |= islands.len() == 1;
            }
        }
    }
    assert_eq!(taps, [true, true], "both tap sources were drawn");
    assert!(
        one_island,
        "an ablation with every sub-network tapped is one island"
    );
}

/// Trains `model` on `train` once per forking mode; every run must leave
/// the same bits and the same history as the serial one.
fn assert_forking_changes_no_bit(model: &GraphModel, train: &dyn Fn(&mut GraphModel) -> History) {
    let run = |forking: Forking| {
        let mut model = model.clone();
        model.set_forking_for_tests(forking);
        let history = train(&mut model);
        let bits: Vec<u32> = model
            .state_dict()
            .iter()
            .flat_map(|(_, t)| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            .collect();
        let curves = [&history.train_loss, &history.train_acc, &history.val_loss];
        let curves: Vec<u32> = curves
            .iter()
            .flat_map(|c| c.iter().map(|x| x.to_bits()))
            .collect();
        (bits, curves)
    };
    let serial = run(Forking::Never);
    assert_eq!(run(Forking::Always), serial, "forked against serial");
    assert_eq!(run(Forking::Rule), serial, "the rule against serial");
}

#[test]
fn forked_cv_steps_train_the_serial_bits() {
    for (hw, subnets, seed) in [
        (16, 2, 1),
        (16, 3, 2),
        (20, 2, 3),
        (20, 4, 4),
        (24, 3, 5),
        (24, 2, 6),
    ] {
        let bundle = lenet_bundle(hw, 32, subnets, seed);
        let model = &bundle.augmented_model;
        assert!(model.islands().forks(&[16, 1, hw, hw]), "{hw} px forks");
        let tc = TrainConfig::new(1, 16, 0.05)
            .with_momentum(0.9)
            .with_seed(seed);
        let primary = bundle.secrets.original_output;
        assert_forking_changes_no_bit(model, &|m| {
            let test = Some(&bundle.augmented_test);
            train_image_classifier(m, &bundle.augmented_train, test, primary, &tc)
        });
    }
}

#[test]
fn forked_lm_steps_train_the_serial_bits() {
    for (t, subnets, seed) in [(12, 2, 7), (16, 3, 8), (20, 4, 9), (16, 2, 10)] {
        let bundle = lm_bundle(t, subnets, seed);
        let tc = TrainConfig::new(1, 8, 0.05).with_seed(seed);
        let windows = &bundle.augmented_train.windows;
        let primary = bundle.secrets.original_output;
        let keeps = &bundle.secrets.head_keeps;
        assert_forking_changes_no_bit(&bundle.augmented_model, &|m| {
            train_lm(m, windows, &windows[..1], keeps, primary, &tc)
        });
    }
}

#[test]
fn the_one_image_dispatch_job_stays_serial() {
    // The dispatch benchmark's job: LeNet-5 on one 8 px image, two
    // synthetic sub-networks.
    let bundle = lenet_bundle(8, 1, 2, 11);
    let mut model = bundle.augmented_model.clone();
    let (x, labels) = bundle.augmented_train.batch_at(&[0]);
    assert!(!model.islands().forks(x.dims()));
    model.set_profiling(true);
    model.train_step(&[&x], &|_, out| (cross_entropy(out, &labels).1, ()));
    assert!(model.profile().iter().all(|row| !row.helper));

    // The benchmark's training jobs fork.
    let cv = lenet_bundle(20, 16, 2, 12);
    assert!(cv.augmented_model.islands().forks(&[16, 1, 30, 30]));
    let lm = lm_bundle(12, 2, 13);
    let window = lm.augmented_train.windows[0].dims();
    assert!(lm.augmented_model.islands().forks(window));
}

fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(s) => *s,
        Err(panic) => panic
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

#[test]
fn a_panic_on_the_helper_surfaces_from_the_step() {
    let bundle = lenet_bundle(20, 16, 3, 14);
    let mut model = bundle.augmented_model.clone();
    model.set_forking_for_tests(Forking::Always);
    let (x, labels) = bundle
        .augmented_train
        .batch_at(&(0..16).collect::<Vec<_>>());
    let step = |model: &mut GraphModel, armed: bool| {
        model.train_step(&[&x], &|h, out| {
            let on = std::thread::current().name().map(str::to_owned);
            assert!(
                !(armed && on.as_deref() == Some(HELPER_THREAD)),
                "head {h} panics on the helper"
            );
            (cross_entropy(out, &labels).1, ())
        })
    };
    let panic = catch_unwind(AssertUnwindSafe(|| step(&mut model, true)));
    let message = message(panic.expect_err("the helper's panic surfaces"));
    assert!(message.contains("panics on the helper"), "{message}");
    // The model is usable again, and trains what a model that never
    // panicked trains.
    let mut fresh = bundle.augmented_model.clone();
    step(&mut model, false);
    step(&mut fresh, false);
    let grads = |m: &mut GraphModel| -> Vec<Vec<f32>> {
        m.params_mut()
            .iter()
            .map(|p| p.grad.data().to_vec())
            .collect()
    };
    assert_eq!(grads(&mut model), grads(&mut fresh));
}

/// A panic on the caller before it posts a value the helper's island reads
/// must not leave the helper waiting: the step ends with the caller's panic.
#[test]
fn a_panic_on_the_caller_does_not_strand_the_helper() {
    let mut rng = Rng::seed_from(18);
    let mut g = GraphModel::new();
    let x = g.input("x");
    // The caller's (larger) island breaks at its first layer: the input is
    // 3 wide, the layer wants 5.
    let fc1 = g.add_layer("big.fc1", Linear::new(5, 4, true, &mut rng), &[x]);
    let relu = g.add_layer("big.relu", Relu::new(), &[fc1]);
    let fc2 = g.add_layer("big.fc2", Linear::new(4, 2, true, &mut rng), &[relu]);
    let tap = g.add_layer("small.tap", amalgam::nn::layers::Detach::new(), &[relu]);
    let head = g.add_layer("small.fc", Linear::new(4, 2, true, &mut rng), &[tap]);
    g.set_outputs(&[fc2, head]);
    assert_eq!(g.islands().crossings().len(), 1);
    g.set_forking_for_tests(Forking::Always);
    let x = Tensor::randn(&[4, 3], &mut rng);
    // On a thread of its own, so that a stranded helper fails the test
    // instead of hanging it.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let step = catch_unwind(AssertUnwindSafe(|| {
            g.train_step(&[&x], &|_, out| (out.clone(), ()));
        }));
        let _ = done.send(step.map_err(message));
    });
    let step = outcome.recv_timeout(std::time::Duration::from_secs(30));
    let message = step
        .expect("the step ended")
        .expect_err("the caller's panic surfaces");
    assert!(message.contains("Linear expected last dim 5"), "{message}");
}

/// Two islands of 16 × 20 × 20 px convolutions — enough to fork — the
/// smaller one's head fed `head_in` features (2400 is right).
fn two_island_model(head_in: usize, rng: &mut Rng) -> GraphModel {
    let mut g = GraphModel::new();
    let x = g.input("x");
    let mut head = |g: &mut GraphModel, name: &str, width: usize, fan_in: usize| {
        let conv = Conv2d::new(1, width, 5, 1, 2, true, rng);
        let conv = g.add_layer(&format!("{name}.conv"), conv, &[x]);
        let relu = g.add_layer(&format!("{name}.relu"), Relu::new(), &[conv]);
        let flat = g.add_layer(&format!("{name}.flat"), Flatten::new(), &[relu]);
        let fc = Linear::new(fan_in, 2, true, rng);
        g.add_layer(&format!("{name}.fc"), fc, &[flat])
    };
    let big = head(&mut g, "big", 8, 8 * 400);
    let small = head(&mut g, "small", 6, head_in);
    g.set_outputs(&[big, small]);
    g
}

fn two_island_job(head_in: usize, seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(seed);
    let model = two_island_model(head_in, &mut rng);
    let inputs = Tensor::randn(&[16, 1, 20, 20], &mut rng);
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels: (0..16).map(|i| i % 2).collect(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 16, 0.05).with_seed(seed),
    }
}

#[test]
fn a_panicking_island_fails_its_own_job_only() {
    let mut rng = Rng::seed_from(15);
    assert!(two_island_model(2400, &mut rng)
        .islands()
        .forks(&[16, 1, 20, 20]));
    let service = CloudService::builder().workers(1).build();
    let client = service.client();
    match client.train(&two_island_job(100, 16)) {
        Err(CloudError::Panicked(msg)) => {
            assert!(msg.contains("Linear expected last dim 100"), "{msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The same worker serves the next job, and trains it as a service that
    // saw no panic does.
    let job = two_island_job(2400, 17);
    let after = client.train(&job).expect("the job after the panic");
    service.shutdown();
    let plain = CloudService::builder().workers(1).build();
    let reference = plain.client().train(&job).expect("the reference job");
    plain.shutdown();
    assert_eq!(after.trained_model, reference.trained_model);
    assert_eq!(after.history.train_loss, reference.history.train_loss);
}

/// A `Linear` whose weight half panics.
#[derive(Debug, Clone)]
struct PanickingWeights(Linear);

impl Layer for PanickingWeights {
    fn kind(&self) -> &'static str {
        "PanickingWeights"
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Tensor {
        self.0.forward(inputs, mode)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (dx, _) = self.backward_input(grad_out, demand);
        self.backward_weights(grad_out, &mut drop);
        dx
    }

    fn backward_input(
        &mut self,
        grad_out: &Tensor,
        demand: &[bool],
    ) -> (Vec<Option<Tensor>>, bool) {
        self.0.backward_input(grad_out, demand)
    }

    fn backward_weights(&mut self, _: &Tensor, _: &mut dyn FnMut(Tensor)) {
        panic!("the weight half panics");
    }

    fn params(&self) -> Vec<&Param> {
        self.0.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.0.params_mut()
    }

    fn spec(&self) -> LayerSpec {
        self.0.spec()
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A panic in a weight half surfaces from the step, whichever island holds
/// the layer and whether or not the step forks, and leaves no thread
/// waiting: the step ends within the deadline.
#[test]
fn a_panic_in_a_weight_half_surfaces_and_strands_no_thread() {
    for forking in [Forking::Always, Forking::Never] {
        for panicking in ["big", "small"] {
            let mut rng = Rng::seed_from(19);
            let mut g = GraphModel::new();
            let x = g.input("x");
            let mut head = |g: &mut GraphModel, name: &str, width: usize| {
                let fc1 = Linear::new(3, width, true, &mut rng);
                let fc1: Box<dyn Layer> = match name == panicking {
                    true => Box::new(PanickingWeights(fc1)),
                    false => Box::new(fc1),
                };
                let fc1 = g.add_boxed(&format!("{name}.fc1"), fc1, &[x]);
                let relu = g.add_layer(&format!("{name}.relu"), Relu::new(), &[fc1]);
                let fc2 = Linear::new(width, 2, true, &mut rng);
                g.add_layer(&format!("{name}.fc2"), fc2, &[relu])
            };
            let big = head(&mut g, "big", 8);
            let small = head(&mut g, "small", 4);
            g.set_outputs(&[big, small]);
            assert_eq!(g.islands().len(), 2);
            g.set_forking_for_tests(forking);
            let x = Tensor::randn(&[4, 3], &mut rng);
            // On a thread of its own, so that a stranded thread fails the
            // test instead of hanging it.
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let step = catch_unwind(AssertUnwindSafe(|| {
                    g.train_step(&[&x], &|_, out| (out.clone(), ()));
                }));
                let _ = done.send(step.map_err(message));
            });
            let step = outcome.recv_timeout(std::time::Duration::from_secs(30));
            let message = step
                .unwrap_or_else(|_| panic!("{forking:?}, {panicking}: the step never ended"))
                .expect_err("the weight half's panic surfaces");
            assert!(message.contains("the weight half panics"), "{message}");
        }
    }
}

/// Under `Forking::Always` the caller claims one island, and the helper,
/// once its own islands are done, takes weight halves the caller queued:
/// within a few steps, some node of the island the caller ran has time on
/// the helper in that step. The jobs are the benchmark's: LeNet-5 on 16 images of 20 px
/// and the LM on 8 windows of 16 tokens over 200 words, two synthetic
/// sub-networks each (a smaller step can end before the helper starts).
#[test]
fn the_helper_runs_weight_halves_of_the_callers_island() {
    let lenet = lenet_bundle(20, 16, 2, 20);
    let (x, labels) = lenet.augmented_train.batch_at(&(0..16).collect::<Vec<_>>());
    let mut rng = Rng::seed_from(21);
    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(200)
        .with_tokens(8 * 33)
        .generate(&mut rng);
    let batches = corpus.batchify(8, 16);
    let model = transformer_lm(&TransformerLmConfig::tiny(200, 32), &mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(21).with_subnets(2);
    let lm = Amalgam::obfuscate_lm(&model, &batches, &cfg).expect("obfuscation");
    let window = lm.augmented_train.windows[0].clone();
    let keeps = &lm.secrets.head_keeps;
    type Seed<'a> = &'a (dyn Fn(usize, &Tensor) -> (Tensor, ()) + Sync);
    let cv_seed: Seed = &|_, out| (cross_entropy(out, &labels).1, ());
    let lm_seed: Seed = &|h, out| (lm_head_loss(out, &window, &keeps[h]).1, ());
    for (name, model, input, seed) in [
        ("LeNet-5", &lenet.augmented_model, &x, cv_seed),
        ("LM", &lm.augmented_model, &window, lm_seed),
    ] {
        let mut model = model.clone();
        model.set_forking_for_tests(Forking::Always);
        // One step's clocks at a time: which island the caller claims can
        // change from step to step.
        let helped = (0..50).any(|_| {
            model.set_profiling(true);
            model.train_step(&[input], seed);
            let counts = model.profile_steps();
            assert_eq!((counts.steps, counts.forked), (1, 1), "{name} forks");
            let rows = model.profile();
            rows.iter()
                .any(|row| !row.helper && !row.on_helper.is_zero())
        });
        assert!(
            helped,
            "{name}: the helper ran no weight half of the caller's island in 50 steps"
        );
    }
}
