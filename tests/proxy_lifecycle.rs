//! A job's lifecycle frames through the routing tier: per-epoch `Progress`
//! reaches the client's handle ahead of its reply, and a `Cancel` reaches
//! the backend, so a cancelled handle resolves instead of hanging.

use amalgam::cloud::{CloudObserver, CloudService};
use amalgam::nn::graph::GraphModel;
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Holds every training batch for a fixed time, so a job lasts long enough
/// for a cancel to land mid-run.
struct SlowBatches(Duration);

impl CloudObserver for SlowBatches {
    fn on_model(&mut self, _model: &GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

/// `epochs` epochs of two batches each.
fn job(seed: u64, epochs: usize) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: Tensor::randn(&[16, 1, 8, 8], &mut rng),
            labels: (0..16).map(|i| i % 2).collect(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(epochs, 8, 0.05).with_seed(seed),
    }
}

fn assert_invariants(stats: &ServiceStats) {
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
}

/// Progress and the reply share one ordered stream on each hop, so a
/// three-epoch job delivers exactly three updates, in epoch order, before
/// its reply; and `cancel` on a proxied handle resolves it.
#[test]
fn progress_and_cancel_cross_the_relay() {
    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SlowBatches(Duration::from_millis(5)))))
        .build();
    let backend = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let proxy = AmalgamProxy::bind(
        "127.0.0.1:0",
        &[backend.local_addr().to_string()],
        ProxyConfig::default(),
    )
    .expect("bind proxy");
    let client = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");

    let handle = client.submit(&job(1, 3)).expect("submit");
    let updates: Vec<_> = handle.progress().collect();
    let result = handle.wait().expect("the job after its progress");
    let epochs: Vec<u64> = updates.iter().map(|u| u.epoch).collect();
    assert_eq!(epochs, [1, 2, 3], "one update per epoch, in order");
    for (update, loss) in updates.iter().zip(&result.history.train_loss) {
        assert_eq!(update.total_epochs, 3);
        assert_eq!(update.train_loss.to_bits(), loss.to_bits());
    }

    let mut long = client.submit(&job(2, 400)).expect("submit");
    long.cancel();
    match long
        .wait_timeout(Duration::from_secs(60))
        .expect("a cancelled proxied handle hung")
    {
        Ok(_) | Err(CloudError::Cancelled) => {}
        Err(other) => panic!("unexpected outcome {other:?}"),
    }

    assert_invariants(&proxy.stats());
    assert_invariants(&backend.stats());
    client.close();
    proxy.shutdown();
    backend.shutdown();
}
