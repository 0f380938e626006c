//! The per-node table of a training step: forward + backward microseconds
//! per layer kind and output shape, the plain model beside the augmented one
//! — `kernels-quick --profile <lenet20|lm16>`.
//!
//! The numbers come from [`GraphModel`]'s own per-node clocks, so they are
//! the executor's view: a segment that ran fused is one row naming its
//! members, and a node whose island a step's helper thread ran is a row of
//! its own, marked `(helper)` — it ran beside the caller's rows, so rows can
//! overlap in time and their sum can exceed the step. A row's `bwd` holds
//! both halves of a layer that splits its backward, wherever each ran (the
//! helper runs weight halves of the caller's island; graph module docs,
//! "Weight gradients"). What the step spends outside the layers — the loss,
//! the optimiser — is timed here, and what is left of the step's wall time
//! is printed as `executor` (negative when rows overlap); the rows must
//! account for at least [`RECONCILE`] of the step. Each thread's layers are
//! summed from the time each node spent on that thread, not from the marks;
//! the step's critical path is the longer of the two threads' layers and
//! losses, plus the optimiser.

use amalgam_core::trainer::lm_head_loss;
use amalgam_core::{Amalgam, ObfuscationConfig};
use amalgam_data::{LmCorpusSpec, SyntheticImageSpec};
use amalgam_models::{lenet5, transformer_lm, TransformerLmConfig};
use amalgam_nn::graph::{GraphModel, StepCounts};
use amalgam_nn::loss::cross_entropy;
use amalgam_nn::optim::Sgd;
use amalgam_tensor::{Rng, Tensor};
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Share of a step's wall time the layers, the loss and the optimiser must
/// account for.
pub const RECONCILE: f64 = 0.95;
/// Most the augmented language-model step's `loss` row may cost, in plain
/// `loss` rows per head: every head's `[B, T, V]` gradient is a buffer of its
/// island thread's scratch arena, handed back after the head's backward, so
/// three heads cost about three plain losses (0.97–1.24x per head on the
/// 2-vCPU reference box). When each head allocated its gradient, some builds
/// read 95–103 µs against 3 × 20–23: glibc trimmed the freed heap top and
/// faulted it back every step.
pub const LM_LOSS_PER_HEAD: f64 = 1.3;
const WARM_EPOCHS: usize = 2;
const TIMED_EPOCHS: usize = 20;

/// The seed gradient of head `h` on batch `b`, given the head's output.
type SeedFn = Box<dyn Fn(usize, usize, &Tensor) -> Tensor + Sync>;

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
    /// The part of `forward_us` and `backward_us` spent on the helper thread.
    pub on_helper_us: f64,
    /// Whether the helper thread ran these nodes' island (in the last step).
    pub helper: bool,
}

/// What a step of one side costs, µs per step.
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// The layers, in the order the graph first runs each label.
    pub rows: Vec<Row>,
    /// Losses and seed gradients of every head.
    pub loss_us: f64,
    /// The part of `loss_us` the helper thread spent.
    pub helper_loss_us: f64,
    /// The optimiser step.
    pub optimizer_us: f64,
    /// The whole step.
    pub step_us: f64,
    /// Output heads (one loss each).
    pub heads: usize,
    /// How the timed steps ran: forked, and helped by the helper thread.
    pub steps: StepCounts,
}

impl StepProfile {
    /// The step's wall time nothing above accounts for: the executor's own
    /// bookkeeping between layer calls, zeroing the gradients, and the
    /// helper's spawn and hand-offs — less the time rows overlapped.
    pub fn executor_us(&self) -> f64 {
        let layers: f64 = self.rows.iter().map(|r| r.forward_us + r.backward_us).sum();
        self.step_us - layers - self.loss_us - self.optimizer_us
    }

    /// The layers and losses of one thread: `[caller, helper]`, from the
    /// time each node spent on each.
    pub fn threads_us(&self) -> [f64; 2] {
        let layers: f64 = self.rows.iter().map(|r| r.forward_us + r.backward_us).sum();
        let helper: f64 = self.rows.iter().map(|r| r.on_helper_us).sum();
        [
            layers - helper + self.loss_us - self.helper_loss_us,
            helper + self.helper_loss_us,
        ]
    }

    /// The step's critical path: the longer thread, then the optimiser.
    pub fn critical_path_us(&self) -> f64 {
        let [caller, helper] = self.threads_us();
        caller.max(helper) + self.optimizer_us
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
    /// In the seed functions: `[on the caller, on the helper]`.
    loss: [Duration; 2],
    optimizer: Duration,
    total: Duration,
    steps: usize,
}

impl Side {
    /// One training step on batch `b`, timed into `spent`.
    fn step(&mut self, b: usize, spent: &mut Spent) {
        let start = Instant::now();
        let caller = std::thread::current().id();
        let loss = Mutex::new([Duration::ZERO; 2]);
        let seed = &self.seed;
        self.model.train_step(&[&self.batches[b]], &|h, out| {
            let scored = Instant::now();
            let grad = seed(h, b, out);
            let on = usize::from(std::thread::current().id() != caller);
            loss.lock().unwrap_or_else(PoisonError::into_inner)[on] += scored.elapsed();
            (grad, ())
        });
        let loss = loss.into_inner().unwrap_or_else(PoisonError::into_inner);
        spent.loss[0] += loss[0];
        spent.loss[1] += loss[1];
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
            let helper = if timing.helper { " (helper)" } else { "" };
            let label = format!("{} {:?}{helper}", kinds.join("+"), timing.out_dims);
            let (forward_us, backward_us) = (per_step(timing.forward), per_step(timing.backward));
            let on_helper_us = per_step(timing.on_helper);
            match rows.iter_mut().find(|row| row.label == label) {
                Some(row) => {
                    row.count += 1;
                    row.forward_us += forward_us;
                    row.backward_us += backward_us;
                    row.on_helper_us += on_helper_us;
                }
                None => rows.push(Row {
                    label,
                    count: 1,
                    forward_us,
                    backward_us,
                    on_helper_us,
                    helper: timing.helper,
                }),
            }
        }
        StepProfile {
            rows,
            loss_us: per_step(spent.loss[0] + spent.loss[1]),
            helper_loss_us: per_step(spent.loss[1]),
            optimizer_us: per_step(spent.optimizer),
            step_us: per_step(spent.total),
            heads: self.model.outputs().len(),
            steps: self.model.profile_steps(),
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
/// augmented model's, then what the step spends outside the layers, each
/// thread's share and how many timed steps forked.
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
        "{:width$} | {:>2} {:>8} {:>8} | {:>2} {:>8} {:>8} {:>8}   (µs per step)",
        "layer [output]", "n", "fwd", "bwd", "n", "fwd", "bwd", "helper"
    );
    let _ = writeln!(out, "{:width$} | plain                 | augmented", "");
    // The helper column: what of fwd + bwd ran on the helper thread.
    let cells = |side: &StepProfile, label: &str, helper: bool| {
        let row = side.rows.iter().find(|r| r.label == label);
        let mut cell = match row {
            Some(r) => format!(
                "{:>2} {:>8.1} {:>8.1}",
                r.count, r.forward_us, r.backward_us
            ),
            None => format!("{:>2} {:>8} {:>8}", "", "", ""),
        };
        if helper {
            let _ = match row {
                Some(r) => write!(cell, " {:>8.1}", r.on_helper_us),
                None => write!(cell, " {:>8}", ""),
            };
        }
        cell
    };
    for label in labels {
        let _ = writeln!(
            out,
            "{label:width$} | {} | {}",
            cells(plain, label, false),
            cells(augmented, label, true)
        );
    }
    for (name, of) in [
        ("loss", (|p| p.loss_us) as fn(&StepProfile) -> f64),
        ("optimizer", |p| p.optimizer_us),
        ("executor", StepProfile::executor_us),
        ("caller: layers + loss", |p| p.threads_us()[0]),
        ("helper: layers + loss", |p| p.threads_us()[1]),
        ("critical path", StepProfile::critical_path_us),
        ("step", |p| p.step_us),
    ] {
        let _ = writeln!(
            out,
            "{name:width$} | {:>19.1} | {:>19.1}",
            of(plain),
            of(augmented)
        );
    }
    for (name, side) in [("plain", plain), ("augmented", augmented)] {
        let StepCounts {
            steps,
            forked,
            helped,
        } = side.steps;
        let _ = writeln!(
            out,
            "{name}: {forked} of {steps} timed steps forked; the helper ran an island or a \
             weight half in {helped}"
        );
    }
    out
}
