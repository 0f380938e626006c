//! Attack observers: [`CloudObserver`] implementations that harvest the
//! raw material of the §6.3 attacks from inside a running
//! [`amalgam_cloud::CloudService`] (via its observer middleware layer),
//! instead of re-deriving it offline.

use amalgam_cloud::CloudObserver;
use amalgam_nn::graph::GraphModel;
use amalgam_tensor::Tensor;

/// Captures what a gradient-leakage attacker needs: the first training
/// batch the cloud assembled and the full flattened parameter gradient of
/// the step taken on it (the same flattening as
/// [`crate::dlg::observed_gradient`], so the capture feeds
/// [`crate::dlg::dlg_attack`] directly).
///
/// Submit the job with `batch_size = 1` to observe a single-sample
/// gradient — the setting of the paper's Figure 16.
///
/// On a multi-worker pool the hooks of concurrent jobs interleave, so a
/// batch and gradient captured there could come from *different* jobs.
/// The tap detects that (every job's `on_model` precedes its batches) and
/// refuses to capture across jobs: attach it to a single-worker service,
/// or check [`contaminated`](Self::contaminated) before trusting the
/// capture.
#[derive(Debug, Default)]
pub struct GradientTap {
    /// Inputs and labels of the first observed batch.
    pub first_batch: Option<(Tensor, Vec<usize>)>,
    /// Flattened parameter gradient of the first optimizer step.
    pub first_gradient: Option<Vec<f32>>,
    /// Parameter count of the observed model.
    pub model_params: usize,
    /// Total optimizer steps observed.
    pub steps_seen: usize,
    /// Jobs whose `on_model` this tap has seen.
    pub jobs_seen: usize,
    /// `true` if a second job's traffic interleaved before the capture
    /// completed — the batch/gradient pair would be unreliable, so capture
    /// was refused.
    pub contaminated: bool,
}

impl GradientTap {
    /// A fresh, empty tap.
    pub fn new() -> GradientTap {
        GradientTap::default()
    }

    /// `true` once both halves of the capture are present and untainted.
    pub fn captured(&self) -> bool {
        !self.contaminated && self.first_batch.is_some() && self.first_gradient.is_some()
    }
}

impl CloudObserver for GradientTap {
    fn on_model(&mut self, model: &GraphModel) {
        self.jobs_seen += 1;
        if self.jobs_seen == 1 {
            self.model_params = model.param_count();
        } else if self.first_batch.is_none() || self.first_gradient.is_none() {
            self.contaminated = true;
        }
    }

    fn on_batch(&mut self, inputs: &Tensor, labels: &[usize]) {
        if self.first_batch.is_none() && self.jobs_seen <= 1 {
            self.first_batch = Some((inputs.clone(), labels.to_vec()));
        }
    }

    fn on_step(&mut self, model: &mut GraphModel) {
        if self.first_gradient.is_none() && self.jobs_seen <= 1 {
            let mut flat = Vec::with_capacity(self.model_params);
            for p in model.params_mut() {
                flat.extend_from_slice(p.grad.data());
            }
            self.first_gradient = Some(flat);
        }
        self.steps_seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlg::{observed_gradient, HeadTarget};
    use amalgam_cloud::{CloudJob, CloudService, TaskPayload};
    use amalgam_core::TrainConfig;
    use amalgam_tensor::Rng;
    use std::sync::{Arc, Mutex};

    #[test]
    fn tap_matches_offline_observed_gradient() {
        let mut rng = Rng::seed_from(5);
        let model = amalgam_models::lenet5(1, 8, 2, &mut rng);
        let inputs = Tensor::randn(&[4, 1, 8, 8], &mut rng);
        let labels = vec![0usize, 1, 0, 1];
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::Classification {
                inputs: inputs.clone(),
                labels: labels.clone(),
                val_inputs: None,
                val_labels: vec![],
            },
            // batch_size 1 → the tap sees a single-sample gradient.
            train: TrainConfig::new(1, 1, 0.05).with_seed(7),
        };
        let tap = Arc::new(Mutex::new(GradientTap::new()));
        let service = CloudService::start_with_observer(tap.clone());
        service.client().train(&job).unwrap();
        service.shutdown();

        let guard = tap.lock().unwrap();
        assert_eq!(guard.steps_seen, 4);
        let (x, y) = guard.first_batch.as_ref().expect("no batch captured");
        let captured = guard.first_gradient.as_ref().expect("no gradient captured");
        assert_eq!(guard.model_params, captured.len());

        // The capture must equal what the offline helper derives for the
        // same sample on a fresh copy of the uploaded model.
        let mut offline_model = model.clone();
        let offline = observed_gradient(&mut offline_model, x, y[0], HeadTarget::All);
        assert_eq!(
            captured, &offline,
            "cloud-tapped gradient diverges from offline derivation"
        );
        assert!(guard.captured());
        assert!(!guard.contaminated);
    }

    #[test]
    fn interleaved_jobs_taint_the_capture() {
        let mut rng = Rng::seed_from(6);
        let model = amalgam_models::lenet5(1, 8, 2, &mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], &mut rng);
        let mut tap = GradientTap::new();
        // Job 1 starts and shows one batch…
        tap.on_model(&model);
        tap.on_batch(&x, &[0]);
        // …but job 2's traffic interleaves before job 1's first step: the
        // tap must refuse to pair the capture across jobs.
        let mut m2 = model.clone();
        tap.on_model(&m2);
        tap.on_step(&mut m2);
        assert!(tap.contaminated);
        assert!(!tap.captured());
        assert!(
            tap.first_gradient.is_none(),
            "gradient must not be captured across jobs"
        );
    }
}
