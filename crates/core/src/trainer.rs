//! Algorithm 1: training augmented models (and, as the degenerate single-head
//! case, plain models).
//!
//! Each output head (one per sub-network) gets its own loss against the same
//! labels (classification) or against its own masked next-token targets
//! (language modelling); one backward pass then delivers to every parameter
//! exactly `∇_{θˢ} L(θˢ)` — the cross-sub-network taps are detached — and SGD
//! applies the paper's update `θᵗ⁺¹ₛ ← θᵗₛ − η gᵗₛ`.
//!
//! # One loop, and hooks
//!
//! The algorithm is written once, in [`train_with`]. Per epoch: ask the hooks
//! whether to go on → visit the batches → push the primary head's training
//! metrics and `epoch_secs` → validate → tell the hooks the epoch is over. Per
//! batch: one [`GraphModel::train_step`] (forward, one loss and one gradient
//! seed per head, zeroed gradients and backward, island by island, on one or
//! two threads: `nn::graph`, "Islands") → update. [`train_image_classifier`],
//! [`train_text_classifier`] and [`train_lm`] call it with no hooks (`()`),
//! the cloud service with hooks of its own, so "cloud training is local
//! training, bit for bit" — weights and history — holds by construction.
//!
//! [`TrainHooks`] is the policy a caller plugs into that mechanism:
//! cancellation, progress reports, checkpoints and an observer's tap are
//! implementations of its five calls, and the loop knows none of them. What
//! differs per [`Task`] — where a batch comes from, how a head is scored,
//! whether accuracy is kept, validation — is matched on where it differs.
//!
//! Because batch order depends only on the seed, training the *original*
//! model with the same [`TrainConfig`] reproduces the exact weight
//! trajectory of the original sub-network inside the augmented model — the
//! property behind the paper's "augmentation does not affect training
//! correctness" claims (Figures 5–13), verified bit-exactly in this crate's
//! integration tests.

use amalgam_data::{BatchIter, ImageDataset, TextClassDataset};
use amalgam_nn::graph::GraphModel;
use amalgam_nn::loss::{cross_entropy, cross_entropy_row, cross_entropy_row_loss};
use amalgam_nn::metrics::{accuracy, History, RunningMean};
use amalgam_nn::optim::Sgd;
use amalgam_nn::Mode;
use amalgam_tensor::{scratch, Rng, Tensor};
use std::ops::ControlFlow;

/// Hyper-parameters of one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum (0 disables).
    pub momentum: f32,
    /// Seed for batch shuffling (shared by comparable runs).
    pub seed: u64,
}

impl TrainConfig {
    /// A config with the given epochs/batch size/learning rate and no
    /// momentum, seed 0.
    pub fn new(epochs: usize, batch_size: usize, lr: f32) -> Self {
        TrainConfig {
            epochs,
            batch_size,
            lr,
            momentum: 0.0,
            seed: 0,
        }
    }

    /// Sets the momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The deterministic per-epoch shuffle source shared by every trainer in the
/// workspace (including the simulated cloud), so that comparable runs see
/// identical batch orders.
pub fn epoch_rng(cfg: &TrainConfig, epoch: usize) -> Rng {
    Rng::seed_from(
        cfg.seed
            .wrapping_add(epoch as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// The call points Algorithm 1 offers its caller. Every method defaults to
/// doing nothing and the loop is monomorphised over the implementation, so
/// hooks that do nothing (`()`) leave nothing behind in it.
pub trait TrainHooks {
    /// Called once before the first epoch, with the freshly built optimizer
    /// and an empty history. May replace all three with a saved state;
    /// returns the first epoch to run (0 = a fresh run).
    fn resume(&mut self, _model: &mut GraphModel, _opt: &mut Sgd, _history: &mut History) -> usize {
        0
    }

    /// Called at the top of every epoch. `Break` stops the run before the
    /// epoch does any work: training returns the epochs completed so far,
    /// the model as the last of them left it.
    fn epoch_start(&mut self, _epoch: usize) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Called with each training batch before its forward pass; `labels` is
    /// empty for language-model windows (the targets are in the window).
    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {}

    /// Called after `backward` and *before* the update: `model` holds the
    /// batch's gradients beside the parameter values they were taken at.
    fn on_step(&mut self, _model: &mut GraphModel) {}

    /// Called once an epoch — training metrics, `epoch_secs`, validation —
    /// is in `history`; `done` counts epochs from 1.
    fn epoch_end(&mut self, _done: usize, _model: &GraphModel, _opt: &Sgd, _history: &History) {}
}

/// The hooks of plain local training: none.
impl TrainHooks for () {}

/// One batch: the inputs and their labels.
pub type Batch = (Tensor, Vec<usize>);

/// What [`train_with`] trains on. The variants are all that differs between
/// the tasks: where an epoch's batches come from, how a head is scored, which
/// metrics are kept, and the validation data.
pub enum Task<'a> {
    /// Every epoch visits a seeded shuffle ([`epoch_rng`]) of `0..n` in
    /// chunks of `batch_size`; every head is scored by [`cross_entropy`]
    /// against the same labels; loss and accuracy are kept.
    Classification {
        /// Number of training samples.
        n: usize,
        /// Gathers the inputs and labels of a chunk of sample indices.
        batch_fn: &'a dyn Fn(&[usize]) -> Batch,
        /// Evaluated after every epoch, in batches of `batch_size`.
        val: Option<&'a dyn EvalSource>,
    },
    /// Every epoch visits the token windows in order (standard LM practice);
    /// head `h` is scored by [`lm_head_loss`] on its own kept positions
    /// `head_keeps[h]` (a plain model has one `0..T` list); loss only.
    LanguageModel {
        /// Training windows `[B, T']`.
        train: &'a [Tensor],
        /// Validation windows, scored by [`evaluate_lm`]; may be empty.
        val: &'a [Tensor],
        /// One kept-position list per output head.
        head_keeps: &'a [Vec<usize>],
    },
}

/// Algorithm 1 (see the module docs) under the caller's hooks: the one place
/// in the workspace that runs training steps
/// ([`GraphModel::train_step`]) and updates parameters. Metrics come from
/// head `primary`.
///
/// # Panics
///
/// Panics if `primary` names no head, a classification `cfg.batch_size` is
/// 0, a language-model task has not one keep list per head, or a batch is
/// inconsistent with the model (see [`lm_head_loss`]).
pub fn train_with(
    model: &mut GraphModel,
    task: &Task<'_>,
    primary: usize,
    cfg: &TrainConfig,
    hooks: &mut impl TrainHooks,
) -> History {
    let heads = model.outputs().len();
    assert!(primary < heads, "primary head out of range");
    if let Task::LanguageModel { head_keeps, .. } = task {
        assert_eq!(head_keeps.len(), heads, "one keep list per head");
    }
    let classifying = matches!(task, Task::Classification { .. });
    let mut opt = Sgd::new(cfg.lr).with_momentum(cfg.momentum);
    let mut history = History::new();
    // An epoch's batches are a pure function of (task, seed, epoch), so
    // entering the loop at a restored epoch boundary replays exactly the
    // remaining epochs of an uninterrupted run.
    let head_keeps = match task {
        Task::LanguageModel { head_keeps, .. } => Some(*head_keeps),
        Task::Classification { .. } => None,
    };
    let first = hooks.resume(model, &mut opt, &mut history);
    for epoch in first..cfg.epochs {
        if hooks.epoch_start(epoch).is_break() {
            break;
        }
        let t0 = std::time::Instant::now();
        let mut loss_mean = RunningMean::new();
        let mut acc_mean = RunningMean::new();
        let mut step = |x: &Tensor, labels: &[usize]| {
            hooks.on_batch(x, labels);
            let rows = x.dims()[0];
            let heads = model.train_step(&[x], &|h, out| {
                let (loss, grad) = match head_keeps {
                    None => cross_entropy(out, labels),
                    Some(keeps) => lm_head_loss(out, x, &keeps[h]),
                };
                let acc = (classifying && h == primary).then(|| accuracy(out, labels));
                (grad, (loss, acc))
            });
            let (loss, acc) = heads[primary];
            loss_mean.add(loss, rows);
            if let Some(acc) = acc {
                acc_mean.add(acc, rows);
            }
            hooks.on_step(model);
            opt.step(&mut model.params_mut());
        };
        match task {
            Task::Classification { n, batch_fn, .. } => {
                let mut rng = epoch_rng(cfg, epoch);
                for idx in BatchIter::new(*n, cfg.batch_size, &mut rng) {
                    let (x, labels) = batch_fn(&idx);
                    step(&x, &labels);
                }
            }
            Task::LanguageModel { train, .. } => train.iter().for_each(|w| step(w, &[])),
        }
        history.train_loss.push(loss_mean.mean());
        if classifying {
            history.train_acc.push(acc_mean.mean());
        }
        history.epoch_secs.push(t0.elapsed().as_secs_f32());
        match task {
            Task::Classification { val: Some(val), .. } => {
                let (loss, acc) = val.evaluate(model, primary, cfg.batch_size);
                history.val_loss.push(loss);
                history.val_acc.push(acc);
            }
            Task::LanguageModel {
                val, head_keeps, ..
            } if !val.is_empty() => {
                let loss = evaluate_lm(model, val, &head_keeps[primary], primary);
                history.val_loss.push(loss);
            }
            _ => {}
        }
        hooks.epoch_end(epoch + 1, model, &opt, &history);
    }
    history
}

/// Trains a (possibly augmented) classifier; every head is scored against
/// the same labels, metrics come from head `primary`.
///
/// Works for any model whose input is an image batch `[N, C, H, W]`.
pub fn train_image_classifier(
    model: &mut GraphModel,
    train: &ImageDataset,
    test: Option<&ImageDataset>,
    primary: usize,
    cfg: &TrainConfig,
) -> History {
    let task = Task::Classification {
        n: train.len(),
        batch_fn: &|idx| train.batch_at(idx),
        val: test.map(|t| t as &dyn EvalSource),
    };
    train_with(model, &task, primary, cfg, &mut ())
}

/// Trains a (possibly augmented) text classifier over token-id documents.
pub fn train_text_classifier(
    model: &mut GraphModel,
    train: &TextClassDataset,
    test: Option<&TextClassDataset>,
    primary: usize,
    cfg: &TrainConfig,
) -> History {
    let task = Task::Classification {
        n: train.len(),
        batch_fn: &|idx| train.batch_at(idx),
        val: test.map(|t| t as &dyn EvalSource),
    };
    train_with(model, &task, primary, cfg, &mut ())
}

/// Something a classifier can be evaluated on.
pub trait EvalSource {
    /// Returns `(mean loss, accuracy)` of head `primary` over the dataset.
    fn evaluate(&self, model: &mut GraphModel, primary: usize, batch_size: usize) -> (f32, f32);
}

impl EvalSource for ImageDataset {
    fn evaluate(&self, model: &mut GraphModel, primary: usize, batch_size: usize) -> (f32, f32) {
        (self.images(), self.labels()).evaluate(model, primary, batch_size)
    }
}

impl EvalSource for TextClassDataset {
    fn evaluate(&self, model: &mut GraphModel, primary: usize, batch_size: usize) -> (f32, f32) {
        evaluate_impl(model, primary, batch_size, self.len(), |idx| {
            self.batch_at(idx)
        })
    }
}

/// A bare `[N, ..]` input tensor with its `N` labels.
impl EvalSource for (&Tensor, &[usize]) {
    fn evaluate(&self, model: &mut GraphModel, primary: usize, batch_size: usize) -> (f32, f32) {
        let (inputs, labels) = *self;
        evaluate_impl(model, primary, batch_size, labels.len(), |idx| {
            let labels = idx.iter().map(|&i| labels[i]).collect();
            (inputs.index_select_axis0(idx), labels)
        })
    }
}

fn evaluate_impl(
    model: &mut GraphModel,
    primary: usize,
    batch_size: usize,
    n: usize,
    batch_fn: impl Fn(&[usize]) -> Batch,
) -> (f32, f32) {
    let mut loss_mean = RunningMean::new();
    let mut acc_mean = RunningMean::new();
    for idx in BatchIter::sequential(n, batch_size) {
        let (x, labels) = batch_fn(&idx);
        let outs = model.forward(&[&x], Mode::Eval);
        let (loss, grad) = cross_entropy(&outs[primary], &labels);
        // Its buffer came from this thread's arena: back it goes.
        scratch::give_tensor(grad);
        loss_mean.add(loss, labels.len());
        acc_mean.add(accuracy(&outs[primary], &labels), labels.len());
        model.clear_caches();
    }
    (loss_mean.mean(), acc_mean.mean())
}

/// Convenience: evaluate an image classifier's head.
pub fn evaluate_image_classifier(
    model: &mut GraphModel,
    data: &ImageDataset,
    primary: usize,
    batch_size: usize,
) -> (f32, f32) {
    data.evaluate(model, primary, batch_size)
}

// ---------------------------------------------------------------------------
// Language modelling
// ---------------------------------------------------------------------------

/// In-window next-token loss for one head.
///
/// `window: [B, T']` is the (possibly augmented) token window, `keep` the
/// head's kept positions (length T). The head's logits are `[B, T, V]`; the
/// target of position `k < T-1` is the token at kept position `k+1`. The
/// last position has no in-window target and is excluded — for plain models
/// (`keep = 0..T`) this reduces to ordinary next-token prediction.
///
/// Returns `(mean loss, gradient shaped like logits)`; the gradient's
/// storage comes from the calling thread's scratch arena, like
/// [`cross_entropy`]'s.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn lm_head_loss(logits: &Tensor, window: &Tensor, keep: &[usize]) -> (f32, Tensor) {
    let rows = lm_scored_rows(logits, window, keep);
    let (t, v) = (logits.dims()[1], logits.dims()[2]);
    let inv_rows = 1.0 / rows.len() as f32;
    // Row by row, in place in a copy of the logits, in the order the gathered
    // `[B·(T-1), V]` matrix would hold the rows: the loss sum and every
    // gradient element are what `cross_entropy_seq` on that matrix gives.
    let mut grad = scratch::take_tensor_raw(logits.dims());
    let data = grad.data_mut();
    data.copy_from_slice(logits.data());
    let mut loss = 0.0f32;
    for (at, target) in rows {
        loss += cross_entropy_row(&mut data[at..at + v], target, inv_rows);
    }
    // The last position of each sequence has no target: no gradient.
    for last in data.chunks_exact_mut(v).skip(t - 1).step_by(t) {
        last.fill(0.0);
    }
    (loss * inv_rows, grad)
}

/// The loss of [`lm_head_loss`] alone, bit for bit, for validation: no
/// `[B, T, V]` gradient is built, one `V`-wide row of scratch is.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn lm_head_loss_value(logits: &Tensor, window: &Tensor, keep: &[usize]) -> f32 {
    let rows = lm_scored_rows(logits, window, keep);
    let inv_rows = 1.0 / rows.len() as f32;
    let v = logits.dims()[2];
    let mut row = vec![0.0f32; v];
    let mut loss = 0.0f32;
    for (at, target) in rows {
        row.copy_from_slice(&logits.data()[at..at + v]);
        loss += cross_entropy_row_loss(&mut row, target);
    }
    loss * inv_rows
}

/// Checks one head's `[B, T, V]` logits against its window and lists the
/// scored rows — every position but the last of each sequence — as `(offset
/// of the row in the logits, target token)`, sequence by sequence.
fn lm_scored_rows(logits: &Tensor, window: &Tensor, keep: &[usize]) -> Vec<(usize, usize)> {
    let ld = logits.dims();
    assert_eq!(ld.len(), 3, "logits must be [B, T, V]");
    let (b, t, v) = (ld[0], ld[1], ld[2]);
    assert_eq!(t, keep.len(), "logit positions must match keep length");
    let ta = window.dims()[1];
    assert_eq!(window.dims()[0], b, "window batch mismatch");
    assert!(t >= 2, "need at least two positions for next-token loss");
    let mut rows = Vec::with_capacity(b * (t - 1));
    for bi in 0..b {
        for k in 0..t - 1 {
            let target = window.data()[bi * ta + keep[k + 1]] as usize;
            rows.push(((bi * t + k) * v, target));
        }
    }
    rows
}

/// Trains a (possibly augmented) language model on token windows.
///
/// `head_keeps` supplies one kept-position list per output head; a plain
/// model passes a single `0..T` list. Windows are visited in order (standard
/// LM practice); metrics come from head `primary`.
pub fn train_lm(
    model: &mut GraphModel,
    train_windows: &[Tensor],
    val_windows: &[Tensor],
    head_keeps: &[Vec<usize>],
    primary: usize,
    cfg: &TrainConfig,
) -> History {
    let task = Task::LanguageModel {
        train: train_windows,
        val: val_windows,
        head_keeps,
    };
    train_with(model, &task, primary, cfg, &mut ())
}

/// Mean validation loss of one LM head over windows.
pub fn evaluate_lm(
    model: &mut GraphModel,
    windows: &[Tensor],
    keep: &[usize],
    primary: usize,
) -> f32 {
    let mut loss_mean = RunningMean::new();
    for window in windows {
        let outs = model.forward(&[window], Mode::Eval);
        let loss = lm_head_loss_value(&outs[primary], window, keep);
        loss_mean.add(loss, window.dims()[0]);
        model.clear_caches();
    }
    loss_mean.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_data::{LmCorpusSpec, SyntheticImageSpec, TextClassSpec};
    use amalgam_models::{lenet5, text_classifier, transformer_lm, TransformerLmConfig};

    #[test]
    fn lenet_learns_synthetic_mnist() {
        let mut rng = Rng::seed_from(0);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(256, 64)
            .with_hw(12)
            .with_classes(4)
            .generate(&mut rng);
        let mut model = lenet5(1, 12, 4, &mut rng);
        let cfg = TrainConfig::new(4, 32, 0.05)
            .with_momentum(0.9)
            .with_seed(1);
        let history = train_image_classifier(&mut model, &pair.train, Some(&pair.test), 0, &cfg);
        assert_eq!(history.epochs(), 4);
        let acc = history.final_val_acc().unwrap();
        assert!(acc > 0.6, "validation accuracy too low: {acc}");
        assert!(
            history.train_loss.last().unwrap() < history.train_loss.first().unwrap(),
            "loss did not decrease"
        );
    }

    #[test]
    fn text_classifier_learns_synthetic_agnews() {
        let mut rng = Rng::seed_from(1);
        let (train, test) = TextClassSpec::agnews_like()
            .with_vocab(200)
            .with_counts(256, 64)
            .with_doc_len(16)
            .generate(&mut rng);
        let mut model = text_classifier(200, 16, 4, &mut rng);
        let cfg = TrainConfig::new(6, 32, 0.5).with_seed(2);
        let history = train_text_classifier(&mut model, &train, Some(&test), 0, &cfg);
        let acc = history.final_val_acc().unwrap();
        assert!(acc > 0.6, "validation accuracy too low: {acc}");
    }

    #[test]
    fn transformer_lm_reduces_loss_below_uniform() {
        let mut rng = Rng::seed_from(2);
        let corpus = LmCorpusSpec::wikitext2_like()
            .with_vocab(40)
            .with_tokens(4000)
            .generate(&mut rng);
        let batches = corpus.batchify(8, 12);
        let windows: Vec<Tensor> = (0..batches.num_batches())
            .map(|i| batches.window(i).0)
            .collect();
        let (train_w, val_w) = windows.split_at(windows.len() - 4);
        let mut model = transformer_lm(&TransformerLmConfig::tiny(40, 16), &mut rng);
        let keep: Vec<usize> = (0..12).collect();
        let cfg = TrainConfig::new(3, 8, 0.05).with_seed(3);
        let history = train_lm(&mut model, train_w, val_w, &[keep], 0, &cfg);
        let uniform = (40f32).ln();
        let final_loss = *history.val_loss.last().unwrap();
        assert!(
            final_loss < uniform,
            "LM did not beat uniform: {final_loss} vs {uniform}"
        );
    }

    #[test]
    fn lm_head_loss_gradient_shape_and_last_position_zero() {
        let mut rng = Rng::seed_from(3);
        let logits = Tensor::randn(&[2, 5, 7], &mut rng);
        let window = Tensor::from_fn(&[2, 5], |i| (i % 7) as f32);
        let keep: Vec<usize> = (0..5).collect();
        let (loss, grad) = lm_head_loss(&logits, &window, &keep);
        assert!(loss > 0.0);
        assert_eq!(grad.dims(), &[2, 5, 7]);
        // Last position contributes no gradient.
        for bi in 0..2 {
            let last = &grad.data()[bi * 35 + 28..bi * 35 + 35];
            assert!(last.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn lm_head_loss_is_cross_entropy_over_the_gathered_rows() {
        // Augmented geometry: 5 of 8 window positions kept, out of order.
        let mut rng = Rng::seed_from(6);
        let (b, t, v) = (3, 5, 11);
        let logits = Tensor::randn(&[b, t, v], &mut rng).scale(4.0);
        let window = Tensor::from_fn(&[b, 8], |i| ((i * 7 + 3) % v) as f32);
        let keep = [6usize, 0, 3, 7, 2];
        let (loss, grad) = lm_head_loss(&logits, &window, &keep);

        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for bi in 0..b {
            for k in 0..t - 1 {
                rows.extend_from_slice(&logits.data()[(bi * t + k) * v..(bi * t + k + 1) * v]);
                targets.push(window.data()[bi * 8 + keep[k + 1]] as usize);
            }
        }
        let gathered = Tensor::from_vec(rows, &[b, t - 1, v]);
        let (want_loss, want) = amalgam_nn::loss::cross_entropy_seq(&gathered, &targets);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        let value = lm_head_loss_value(&logits, &window, &keep);
        assert_eq!(value.to_bits(), loss.to_bits(), "loss-only entry");
        for bi in 0..b {
            let got = &grad.data()[bi * t * v..(bi * t + t - 1) * v];
            let want = &want.data()[bi * (t - 1) * v..(bi + 1) * (t - 1) * v];
            let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "sequence {bi}");
        }
    }

    /// Hooks that write down every call, check what each is promised, and
    /// stop the run at the top of epoch `stop_at`.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<String>,
        stop_at: Option<usize>,
        /// Parameter values at the last epoch boundary, until a step moves
        /// them.
        weights: Option<Vec<Vec<f32>>>,
    }

    fn weights_of(model: &mut GraphModel) -> Vec<Vec<f32>> {
        let params = model.params_mut();
        params.iter().map(|p| p.value.data().to_vec()).collect()
    }

    impl TrainHooks for Recorder {
        fn resume(&mut self, model: &mut GraphModel, _: &mut Sgd, history: &mut History) -> usize {
            assert_eq!(history.epochs(), 0);
            self.weights = Some(weights_of(model));
            self.calls.push("resume".into());
            0
        }

        fn epoch_start(&mut self, epoch: usize) -> ControlFlow<()> {
            self.calls.push(format!("start {epoch}"));
            if self.stop_at == Some(epoch) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }

        fn on_batch(&mut self, inputs: &Tensor, labels: &[usize]) {
            assert_eq!(inputs.dims()[0], labels.len());
            self.calls.push("batch".into());
        }

        fn on_step(&mut self, model: &mut GraphModel) {
            // Between `backward` and the update: the batch's gradients are
            // in, and an epoch's first batch has not moved a weight yet.
            if let Some(boundary) = self.weights.take() {
                assert_eq!(weights_of(model), boundary, "on_step came after the update");
            }
            let params = model.params_mut();
            assert!(params
                .iter()
                .any(|p| p.grad.data().iter().any(|&g| g != 0.0)));
            self.calls.push("step".into());
        }

        fn epoch_end(&mut self, done: usize, model: &GraphModel, _: &Sgd, history: &History) {
            assert_eq!(history.epochs(), done);
            assert_eq!(history.val_loss.len(), done, "validation comes first");
            self.weights = Some(weights_of(&mut model.clone()));
            self.calls.push(format!("end {done}"));
        }
    }

    #[test]
    fn hooks_are_called_in_order_and_a_stop_leaves_the_completed_epochs() {
        let mut rng = Rng::seed_from(8);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(32, 8)
            .with_hw(8)
            .with_classes(2)
            .generate(&mut rng);
        let model = lenet5(1, 8, 2, &mut rng);
        let task = Task::Classification {
            n: pair.train.len(),
            batch_fn: &|idx| pair.train.batch_at(idx),
            val: Some(&pair.test),
        };
        let cfg = TrainConfig::new(3, 16, 0.1).with_momentum(0.9).with_seed(5);

        let mut hooked = model.clone();
        let mut recorder = Recorder::default();
        let history = train_with(&mut hooked, &task, 0, &cfg, &mut recorder);
        let epoch = |e: usize| {
            let end = e + 1;
            let mut calls = vec![format!("start {e}")];
            calls.extend(["batch", "step", "batch", "step"].map(String::from));
            calls.push(format!("end {end}"));
            calls
        };
        let want: Vec<String> = std::iter::once("resume".to_string())
            .chain((0..3).flat_map(epoch))
            .collect();
        assert_eq!(recorder.calls, want);
        // Hooks that only watch change nothing: the plain entry point agrees.
        let mut plain = model.clone();
        let plain_history =
            train_image_classifier(&mut plain, &pair.train, Some(&pair.test), 0, &cfg);
        assert_eq!(weights_of(&mut hooked), weights_of(&mut plain));
        assert_eq!(history.train_loss, plain_history.train_loss);
        assert_eq!(history.val_acc, plain_history.val_acc);

        // Stopped at the top of epoch k: k epochs in the history, and the
        // model exactly as k epochs of training leave it.
        for k in 0..3 {
            let mut stopped = model.clone();
            let mut recorder = Recorder {
                stop_at: Some(k),
                ..Recorder::default()
            };
            let history = train_with(&mut stopped, &task, 0, &cfg, &mut recorder);
            assert_eq!(history.epochs(), k);
            assert_eq!(history.val_loss.len(), k);
            assert_eq!(recorder.calls.last().unwrap(), &format!("start {k}"));
            let mut reference = model.clone();
            let short = TrainConfig { epochs: k, ..cfg };
            train_image_classifier(&mut reference, &pair.train, Some(&pair.test), 0, &short);
            assert_eq!(weights_of(&mut stopped), weights_of(&mut reference));
        }
    }

    #[test]
    fn identical_seeds_give_identical_trajectories() {
        let mut rng = Rng::seed_from(4);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(64, 16)
            .with_hw(8)
            .with_classes(2)
            .generate(&mut rng);
        let cfg = TrainConfig::new(2, 16, 0.1).with_seed(7);
        let mut m1 = lenet5(1, 8, 2, &mut Rng::seed_from(5));
        let mut m2 = lenet5(1, 8, 2, &mut Rng::seed_from(5));
        train_image_classifier(&mut m1, &pair.train, None, 0, &cfg);
        train_image_classifier(&mut m2, &pair.train, None, 0, &cfg);
        for ((n1, t1), (n2, t2)) in m1.state_dict().iter().zip(m2.state_dict().iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1.data(), t2.data(), "nondeterministic training at {n1}");
        }
    }
}
