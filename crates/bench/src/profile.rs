//! The per-node table of a training step: forward + backward microseconds
//! per layer kind and output shape, the plain model beside the augmented one
//! — `kernels-quick --profile <lenet20|lm16>`.
//!
//! The numbers come from [`GraphModel`]'s own per-node clocks, so they are
//! the executor's view: a segment that ran fused is one row naming its
//! members. What the step spends outside the layers — the loss, the
//! optimiser — is timed here, and what is left of the step's wall time is
//! printed as `executor`; the rows must account for at least
//! [`RECONCILE`] of the step.

use amalgam_core::trainer::lm_head_loss;
use amalgam_core::{Amalgam, ObfuscationConfig};
use amalgam_data::{LmCorpusSpec, SyntheticImageSpec};
use amalgam_models::{lenet5, transformer_lm, TransformerLmConfig};
use amalgam_nn::graph::GraphModel;
use amalgam_nn::loss::cross_entropy;
use amalgam_nn::optim::Sgd;
use amalgam_nn::Mode;
use amalgam_tensor::{Rng, Tensor};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Share of a step's wall time the layers, the loss and the optimiser must
/// account for.
pub const RECONCILE: f64 = 0.95;
const WARM_EPOCHS: usize = 2;
const TIMED_EPOCHS: usize = 20;

/// The seed gradient of head `h` on batch `b`, given the head's output.
type SeedFn = Box<dyn Fn(usize, usize, &Tensor) -> Tensor>;

/// One side of a profile: a model, the batches an epoch feeds it (visited in
/// turn, so that a step finds its activations' buffers as cold as the running
/// job does) and what seeds its backward pass.
pub struct Side {
    model: GraphModel,
    batches: Vec<Tensor>,
    seed: SeedFn,
    optimizer: Sgd,
}

/// A row of the table: nodes of one kind (or one fused run of kinds) and one
/// output shape, µs per step.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `Kind [dims]`, the kinds of a fused run joined by `+`.
    pub label: String,
    /// How many nodes (or runs) of the graph the row sums.
    pub count: usize,
    /// Forward µs per step.
    pub forward_us: f64,
    /// Backward µs per step.
    pub backward_us: f64,
}

/// What a step of one side costs, µs per step.
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// The layers, in the order the graph first runs each label.
    pub rows: Vec<Row>,
    /// Losses and seed gradients of every head.
    pub loss_us: f64,
    /// `zero_grad` and the optimiser step.
    pub optimizer_us: f64,
    /// The whole step.
    pub step_us: f64,
}

impl StepProfile {
    /// The step's wall time nothing above accounts for: the executor's own
    /// bookkeeping between layer calls.
    pub fn executor_us(&self) -> f64 {
        let layers: f64 = self.rows.iter().map(|r| r.forward_us + r.backward_us).sum();
        self.step_us - layers - self.loss_us - self.optimizer_us
    }
}

/// The two sides of the e2e benchmark's middle image job: LeNet-5 on 224
/// synthetic 20 px images in batches of 16, α = 0.5, two synthetic
/// sub-networks (this seed draws both taps).
pub fn lenet20() -> (Side, Side) {
    let mut rng = Rng::seed_from(3);
    let pair = SyntheticImageSpec::mnist_like()
        .with_counts(224, 2)
        .with_hw(20)
        .with_classes(10)
        .generate(&mut rng);
    let model = lenet5(1, 20, 10, &mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(3).with_subnets(2);
    let bundle = Amalgam::obfuscate(&model, &pair, &cfg).expect("obfuscation");
    let side = |model: GraphModel, data: &amalgam_data::ImageDataset| {
        let (batches, labels): (Vec<Tensor>, Vec<Vec<usize>>) = (0..data.len() / 16)
            .map(|b| data.batch_at(&(b * 16..(b + 1) * 16).collect::<Vec<_>>()))
            .unzip();
        Side {
            model,
            batches,
            seed: Box::new(move |_, b, out| cross_entropy(out, &labels[b]).1),
            optimizer: Sgd::new(0.05).with_momentum(0.9),
        }
    };
    (
        side(model, &pair.train),
        side(bundle.augmented_model, &bundle.augmented_train),
    )
}

/// The two sides of the e2e benchmark's middle language job: the tiny
/// transformer LM on 40 windows of 8 × 16 tokens, vocabulary 200, α = 0.5,
/// two synthetic sub-networks.
pub fn lm16() -> (Side, Side) {
    let (batch, t, vocab) = (8usize, 16usize, 200usize);
    let mut rng = Rng::seed_from(3);
    let corpus = LmCorpusSpec::wikitext2_like()
        .with_vocab(vocab)
        .with_tokens(batch * (40 * t + 1))
        .generate(&mut rng);
    let batches = corpus.batchify(batch, t);
    let model = transformer_lm(&TransformerLmConfig::tiny(vocab, 2 * t), &mut rng);
    let cfg = ObfuscationConfig::new(0.5).with_seed(3).with_subnets(2);
    let bundle = Amalgam::obfuscate_lm(&model, &batches, &cfg).expect("obfuscation");
    let side = |model: GraphModel, windows: Vec<Tensor>, keeps: Vec<Vec<usize>>| {
        let targets = windows.clone();
        Side {
            model,
            batches: windows,
            seed: Box::new(move |h, b, out| lm_head_loss(out, &targets[b], &keeps[h]).1),
            optimizer: Sgd::new(0.05),
        }
    };
    let windows = (0..batches.num_batches())
        .map(|i| batches.window(i).0)
        .collect();
    (
        side(model, windows, vec![(0..t).collect()]),
        side(
            bundle.augmented_model,
            bundle.augmented_train.windows,
            bundle.secrets.head_keeps,
        ),
    )
}

/// What a side has spent outside its layers since its clocks were reset.
#[derive(Default)]
struct Spent {
    loss: Duration,
    optimizer: Duration,
    total: Duration,
    steps: usize,
}

impl Side {
    /// One training step on batch `b`, timed into `spent`.
    fn step(&mut self, b: usize, spent: &mut Spent) {
        let start = Instant::now();
        let outs = self.model.forward(&[&self.batches[b]], Mode::Train);
        let scored = Instant::now();
        let seeds: Vec<Tensor> = outs
            .iter()
            .enumerate()
            .map(|(h, out)| (self.seed)(h, b, out))
            .collect();
        spent.loss += scored.elapsed();
        let cleared = Instant::now();
        self.model.zero_grad();
        spent.optimizer += cleared.elapsed();
        self.model.backward(&seeds);
        let stepped = Instant::now();
        self.optimizer.step(&mut self.model.params_mut());
        spent.optimizer += stepped.elapsed();
        spent.total += start.elapsed();
        spent.steps += 1;
    }

    /// The profile of the steps in `spent`.
    fn profile(&self, spent: &Spent) -> StepProfile {
        let per_step = |d: Duration| d.as_secs_f64() * 1e6 / spent.steps as f64;
        let mut rows: Vec<Row> = Vec::new();
        for timing in self.model.profile() {
            let kinds = timing.nodes.iter().map(|&id| self.model.node(id).kind());
            let kinds: Vec<&str> = kinds.collect();
            let label = format!("{} {:?}", kinds.join("+"), timing.out_dims);
            let (forward_us, backward_us) = (per_step(timing.forward), per_step(timing.backward));
            match rows.iter_mut().find(|row| row.label == label) {
                Some(row) => {
                    row.count += 1;
                    row.forward_us += forward_us;
                    row.backward_us += backward_us;
                }
                None => rows.push(Row {
                    label,
                    count: 1,
                    forward_us,
                    backward_us,
                }),
            }
        }
        StepProfile {
            rows,
            loss_us: per_step(spent.loss),
            optimizer_us: per_step(spent.optimizer),
            step_us: per_step(spent.total),
        }
    }
}

/// Trains both sides for `WARM_EPOCHS` epochs, then profiles
/// `TIMED_EPOCHS` more — an epoch of one side, an epoch of the other, so
/// that the box's drift (10 % within a second is usual) lands on both.
pub fn measure(mut sides: [&mut Side; 2]) -> [StepProfile; 2] {
    let mut spent = [Spent::default(), Spent::default()];
    for epoch in 0..WARM_EPOCHS + TIMED_EPOCHS {
        for (side, spent) in sides.iter_mut().zip(&mut spent) {
            if epoch == WARM_EPOCHS {
                side.model.set_profiling(true);
                *spent = Spent::default();
            }
            for b in 0..side.batches.len() {
                side.step(b, spent);
            }
        }
    }
    let profiles = [0, 1].map(|i| sides[i].profile(&spent[i]));
    for side in sides {
        side.model.set_profiling(false);
    }
    profiles
}

/// The table: one line per label, the plain model's nodes beside the
/// augmented model's, then what the step spends outside the layers.
pub fn table(plain: &StepProfile, augmented: &StepProfile) -> String {
    let mut labels: Vec<&str> = augmented.rows.iter().map(|r| r.label.as_str()).collect();
    for row in &plain.rows {
        if !labels.contains(&row.label.as_str()) {
            labels.push(&row.label);
        }
    }
    let width = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:width$} | {:>2} {:>8} {:>8} | {:>2} {:>8} {:>8}   (µs per step)",
        "layer [output]", "n", "fwd", "bwd", "n", "fwd", "bwd"
    );
    let _ = writeln!(out, "{:width$} | plain                 | augmented", "");
    let cells = |side: &StepProfile, label: &str| match side.rows.iter().find(|r| r.label == label)
    {
        Some(r) => format!(
            "{:>2} {:>8.1} {:>8.1}",
            r.count, r.forward_us, r.backward_us
        ),
        None => format!("{:>2} {:>8} {:>8}", "", "", ""),
    };
    for label in labels {
        let _ = writeln!(
            out,
            "{label:width$} | {} | {}",
            cells(plain, label),
            cells(augmented, label)
        );
    }
    for (name, of) in [
        ("loss", (|p| p.loss_us) as fn(&StepProfile) -> f64),
        ("zero_grad + optimizer", |p| p.optimizer_us),
        ("executor", StepProfile::executor_us),
        ("step", |p| p.step_us),
    ] {
        let _ = writeln!(
            out,
            "{name:width$} | {:>19.1} | {:>19.1}",
            of(plain),
            of(augmented)
        );
    }
    out
}
