//! Loss functions.
//!
//! Losses are plain functions returning `(scalar, gradient-of-logits)` so the
//! trainer can seed [`crate::graph::GraphModel::backward`] directly — the
//! fused softmax/cross-entropy gradient (`p − y`) is both faster and more
//! stable than composing layers.

use amalgam_tensor::tensor::exp_row_in_place;
use amalgam_tensor::{scratch, Tensor};

/// Softmax cross-entropy of one row, in place: `row` holds the logits on
/// entry and `(softmax(row) − onehot(target)) · scale` on return; the value
/// returned is the row's loss `−ln p_target = ln Σe − (x_target − max)`.
///
/// One exponential per logit ([`exp_row_in_place`]); `ln` enters the reported
/// loss only, never the gradient. Every cross-entropy in the workspace —
/// [`cross_entropy`], [`cross_entropy_seq`], the language-model head loss —
/// is this function row by row.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy_row(row: &mut [f32], target: usize, scale: f32) -> f32 {
    let (loss, sum) = exp_row_loss(row, target);
    // One pass: every element divided, the target's less one, then scaled —
    // the operations, and the order, of a pass for each.
    let (before, rest) = row.split_at_mut(target);
    let (at, after) = rest.split_first_mut().expect("target checked in range");
    for side in [before, after] {
        for e in side {
            *e = *e / sum * scale;
        }
    }
    *at = (*at / sum - 1.0) * scale;
    loss
}

/// The loss of [`cross_entropy_row`] without its gradient, for validation
/// loops that would drop it: same value bit for bit, `row` left holding
/// scratch values.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy_row_loss(row: &mut [f32], target: usize) -> f32 {
    exp_row_loss(row, target).0
}

/// Turns the logits in `row` into `e = exp(x − max)` and returns
/// `(−ln p_target, Σe)`.
fn exp_row_loss(row: &mut [f32], target: usize) -> (f32, f32) {
    let classes = row.len();
    assert!(
        target < classes,
        "target {target} out of range for {classes} classes"
    );
    let logit = row[target];
    let (max, sum) = exp_row_in_place(row);
    (sum.ln() - (logit - max), sum)
}

/// Mean cross-entropy between `logits: [B, C]` and integer `targets`.
///
/// Returns `(loss, dloss/dlogits)`, the gradient already divided by the
/// batch size. The gradient's storage comes from the calling thread's
/// scratch arena: the training step gives it back there once its head's
/// backward has consumed it.
///
/// # Panics
///
/// Panics if shapes disagree or any target is out of range.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        logits.shape().rank(),
        2,
        "cross_entropy expects [B, C] logits"
    );
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(targets.len(), b, "target count must equal batch size");
    let inv_b = 1.0 / b as f32;
    let mut grad = scratch::take_tensor_raw(logits.dims());
    grad.data_mut().copy_from_slice(logits.data());
    let mut loss = 0.0f32;
    for (row, &t) in grad.data_mut().chunks_mut(c.max(1)).zip(targets) {
        loss += cross_entropy_row(row, t, inv_b);
    }
    (loss * inv_b, grad)
}

/// Mean squared error between two same-shaped tensors.
///
/// Returns `(loss, dloss/dprediction)`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn mse(prediction: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert!(
        prediction.shape().same_as(target.shape()),
        "mse shape mismatch"
    );
    let n = prediction.numel() as f32;
    let diff = prediction.sub(target);
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Cross-entropy for language modelling: `logits: [B, T, V]` against
/// per-position targets `[B*T]` (row-major).
///
/// Returns `(mean loss, dloss/dlogits)` with the gradient shaped like
/// `logits`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn cross_entropy_seq(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(
        logits.shape().rank(),
        3,
        "cross_entropy_seq expects [B, T, V]"
    );
    let (b, t, v) = (logits.dims()[0], logits.dims()[1], logits.dims()[2]);
    let flat = logits.reshape(&[b * t, v]);
    let (loss, grad) = cross_entropy(&flat, targets);
    (loss, grad.reshape(&[b, t, v]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_tensor::Rng;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 20.0;
        let (loss, _) = cross_entropy(&logits, &[1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(0);
        let logits = Tensor::randn(&[3, 5], &mut rng);
        let targets = [1usize, 0, 4];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for idx in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let (fp, _) = cross_entropy(&lp, &targets);
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fm, _) = cross_entropy(&lm, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (grad.data()[idx] - numeric).abs() < 1e-3,
                "idx {idx}: {} vs {numeric}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // Softmax-CE gradient rows always sum to zero (prob mass conservation).
        let mut rng = Rng::seed_from(1);
        let logits = Tensor::randn(&[4, 6], &mut rng);
        let (_, grad) = cross_entropy(&logits, &[0, 1, 2, 3]);
        for i in 0..4 {
            let s: f32 = grad.data()[i * 6..(i + 1) * 6].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn mse_basics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (loss, grad) = mse(&a, &b);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn seq_loss_matches_flat_loss() {
        let mut rng = Rng::seed_from(2);
        let logits = Tensor::randn(&[2, 3, 4], &mut rng);
        let targets = [0usize, 1, 2, 3, 0, 1];
        let (l1, g1) = cross_entropy_seq(&logits, &targets);
        let (l2, g2) = cross_entropy(&logits.reshape(&[6, 4]), &targets);
        assert!((l1 - l2).abs() < 1e-7);
        assert_eq!(g1.data(), g2.data());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        cross_entropy(&Tensor::zeros(&[1, 2]), &[5]);
    }
}
