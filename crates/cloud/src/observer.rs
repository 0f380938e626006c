//! The honest-but-curious adversary's vantage point.

use crate::protocol::JobResult;
use amalgam_nn::graph::GraphModel;
use amalgam_tensor::Tensor;

/// Hooks invoked with everything the cloud legitimately sees — the threat
/// model's "cloud provider as attacker" position (paper §3).
///
/// Wired into the service's job pipeline as its `observer` stage
/// ([`crate::CloudServiceBuilder::observer`]); with a multi-worker pool the
/// hooks of concurrent jobs interleave, each serialized by the observer's
/// mutex. Implementations live in `amalgam-attacks`; [`RecordingObserver`]
/// is a simple capture-everything implementation for tests.
pub trait CloudObserver: Send {
    /// Called once with the decoded model, before training starts.
    fn on_model(&mut self, model: &GraphModel);

    /// Called with each training batch the cloud assembles.
    fn on_batch(&mut self, inputs: &Tensor, labels: &[usize]) {
        let _ = (inputs, labels);
    }

    /// Called once per batch, after the backward pass and *before* the
    /// optimizer step: `model` carries the batch's gradients beside the
    /// parameter values they were taken at — the pairing gradient-leakage
    /// attacks need.
    fn on_step(&mut self, model: &mut GraphModel) {
        let _ = model;
    }

    /// Called with every result the cloud sends back (the trained model is
    /// equally visible to the provider on the way out).
    fn on_result(&mut self, result: &JobResult) {
        let _ = result;
    }
}

/// Opaque: what an observer holds is its own business (this is what lets
/// the per-job context, which carries one, be `Debug`).
impl std::fmt::Debug for dyn CloudObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CloudObserver")
    }
}

/// An observer that records summary statistics of what it saw.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// Node count of the observed model.
    pub model_nodes: usize,
    /// Total parameters of the observed model.
    pub model_params: usize,
    /// Number of batches observed.
    pub batches: usize,
    /// Number of optimizer steps observed.
    pub steps: usize,
    /// Number of results seen leaving the cloud.
    pub results: usize,
    /// First batch's input tensor, if any was seen.
    pub first_batch: Option<Tensor>,
}

impl RecordingObserver {
    /// A fresh recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }
}

impl CloudObserver for RecordingObserver {
    fn on_model(&mut self, model: &GraphModel) {
        self.model_nodes = model.node_count();
        self.model_params = model.param_count();
    }

    fn on_batch(&mut self, inputs: &Tensor, _labels: &[usize]) {
        if self.first_batch.is_none() {
            self.first_batch = Some(inputs.clone());
        }
        self.batches += 1;
    }

    fn on_step(&mut self, _model: &mut GraphModel) {
        self.steps += 1;
    }

    fn on_result(&mut self, _result: &JobResult) {
        self.results += 1;
    }
}
