//! Cloud round trip: ship an obfuscated job across the simulated trust
//! boundary, train it remotely, and verify what the adversary saw.
//!
//! This is the paper's Figure 1 workflow end to end, with a curious observer
//! standing in for the honest-but-curious provider — wired in as the
//! observer stage of the service's job pipeline, after decode and
//! validation and before the trainer (see the `amalgam::cloud` docs for the
//! stage order).
//!
//! Run with: `cargo run --release --example cloud_roundtrip`

use amalgam::cloud::{CloudObserver, CloudService};
use amalgam::core::trainer::evaluate_image_classifier;
use amalgam::nn::graph::{GraphModel, Provenance};
use amalgam::prelude::*;
use std::sync::{Arc, Mutex};

/// The provider's view: counts what it can and cannot learn.
#[derive(Default)]
struct CuriousProvider {
    nodes_seen: usize,
    params_seen: usize,
    provenance_leaks: usize,
    batches: usize,
    results_seen: usize,
}

impl CloudObserver for CuriousProvider {
    fn on_model(&mut self, model: &GraphModel) {
        self.nodes_seen = model.node_count();
        self.params_seen = model.param_count();
        // Anything not `Unknown` would be a provenance leak across the wire.
        self.provenance_leaks = model
            .node_ids()
            .filter(|&id| model.node(id).provenance() != Provenance::Unknown)
            .count();
    }

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        self.batches += 1;
    }

    fn on_result(&mut self, _result: &JobResult) {
        self.results_seen += 1;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(3);
    let hw = 12;
    let model = amalgam::models::lenet5(1, hw, 10, &mut rng);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(512, 128)
        .with_hw(hw)
        .generate(&mut rng);

    // Client side: obfuscate, then serialize the job.
    let bundle = Amalgam::obfuscate(&model, &data, &ObfuscationConfig::new(0.75).with_seed(5))?;
    let job = CloudJob {
        model: bundle.augmented_model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: bundle.augmented_train.images().clone(),
            labels: bundle.augmented_train.labels().to_vec(),
            val_inputs: Some(bundle.augmented_test.images().clone()),
            val_labels: bundle.augmented_test.labels().to_vec(),
        },
        train: TrainConfig::new(3, 32, 0.03)
            .with_momentum(0.9)
            .with_seed(11),
    };

    // Cloud side: a two-worker pool with an attached curious observer and
    // admission control, each a stage of the service's job pipeline.
    let observer = Arc::new(Mutex::new(CuriousProvider::default()));
    let service = CloudService::builder()
        .workers(2)
        .observer(observer.clone())
        .max_queue_depth(64)
        .build();
    let result = service.client().train(&job)?;

    println!(
        "uploaded {} KiB, downloaded {} KiB (job #{})",
        result.bytes_received / 1024,
        result.bytes_sent / 1024,
        result.job_id,
    );
    println!(
        "cloud trained for {:.2}s over {} epochs",
        result.train_seconds,
        result.history.epochs()
    );
    let stats = service.stats();
    println!(
        "service telemetry: {} submitted / {} completed, mean {:.2}s/job, {:.2} jobs/s, {} B in / {} B out",
        stats.jobs_submitted,
        stats.jobs_completed,
        stats.mean_job_seconds,
        stats.jobs_per_second,
        stats.bytes_received,
        stats.bytes_sent,
    );
    service.shutdown();
    {
        let view = observer.lock().unwrap();
        println!(
            "the provider saw {} nodes / {} params / {} batches / {} results — and {} provenance leaks",
            view.nodes_seen, view.params_seen, view.batches, view.results_seen, view.provenance_leaks
        );
        assert_eq!(
            view.provenance_leaks, 0,
            "the wire must not reveal sub-network identity"
        );
    }

    // Client side: decode, extract, validate on the original test data.
    let trained = GraphModel::from_bytes(result.trained_model)?;
    let extracted = Amalgam::extract(&trained, &model, &bundle.secrets)?;
    let mut clean = extracted.model;
    let (_, acc) = evaluate_image_classifier(&mut clean, &data.test, 0, 32);
    println!(
        "extracted model accuracy on original test set: {:.1}%",
        acc * 100.0
    );
    Ok(())
}
