//! The paper's workflow over a real wire: obfuscate locally, upload the
//! augmented job to a TCP cloud service, train remotely, extract locally.
//!
//! Where `cloud_roundtrip` calls the service as a same-process object, this
//! example puts the middleware stack behind an actual socket: a
//! `CloudServer` listens on loopback, a `RemoteCloudClient` handshakes
//! (protocol version + API key), frames the job onto the connection, and
//! matches the out-of-order reply back to its handle. The trained bytes are
//! verified bitwise against an in-process submission to the same pool —
//! the wire adds transport, not arithmetic.
//!
//! The second act is the durable lifecycle: the same job resubmitted as a
//! long-running *daemon* workload — per-epoch progress streamed back over
//! the wire, checkpoints written to disk at every epoch boundary, the
//! backend deliberately killed mid-job and restarted on the same
//! checkpoint directory. The self-healing client reconnects, replays the
//! job, and the restarted daemon resumes from the last snapshot instead of
//! retraining from scratch — finishing bitwise identical to a run that was
//! never interrupted.
//!
//! Run with: `cargo run --release --example remote_training`

use amalgam::cloud::{CheckpointStore, CloudObserver, FileCheckpointStore};
use amalgam::prelude::*;
use amalgam::proxy::{Fault, FaultInjector};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Paces training to a daemon-like cadence so the mid-job kill below lands
/// between epochs, not after the job already finished. The hook only
/// sleeps — training arithmetic is untouched.
struct PacedEpochs(Duration);

impl CloudObserver for PacedEpochs {
    fn on_model(&mut self, _model: &GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(17);
    let hw = 12;
    let model = amalgam::models::lenet5(1, hw, 10, &mut rng);
    let data = amalgam::data::SyntheticImageSpec::mnist_like()
        .with_counts(256, 64)
        .with_hw(hw)
        .generate(&mut rng);

    // Client side: obfuscate, then serialize the job.
    let bundle = Amalgam::obfuscate(&model, &data, &ObfuscationConfig::new(0.5).with_seed(5))?;
    let job = CloudJob {
        model: bundle.augmented_model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: bundle.augmented_train.images().clone(),
            labels: bundle.augmented_train.labels().to_vec(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(2, 32, 0.03)
            .with_momentum(0.9)
            .with_seed(11),
    };

    // Cloud side: a keyed two-worker pool behind a loopback listener.
    let service = CloudService::builder()
        .workers(2)
        .api_keys(["demo-key"])
        .max_queue_depth(64)
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0")?;
    println!("cloud listening on {}", server.local_addr());

    // The trust boundary, for real this time: every byte below crosses TCP.
    let client = RemoteCloudClient::connect_with(
        server.local_addr(),
        TransportConfig::default().api_key("demo-key"),
    )?;
    println!(
        "session up: protocol v{}, {} in-flight slots",
        client.protocol_version(),
        client.max_in_flight()
    );
    let handle = client.submit(&job)?;
    println!("submitted request #{} — waiting on the wire…", handle.id());
    let result = handle.wait()?;
    println!(
        "uploaded {} KiB, downloaded {} KiB, trained {:.2}s over {} epochs",
        result.bytes_received / 1024,
        result.bytes_sent / 1024,
        result.train_seconds,
        result.history.epochs()
    );

    // Bitwise equivalence: the same job through the same pool, in-process.
    let local = server.local_client().with_api_key("demo-key").train(&job)?;
    assert_eq!(
        result.trained_model, local.trained_model,
        "the wire must add transport, not arithmetic"
    );
    println!("remote and in-process trained models are bitwise identical");

    // The observability plane, over the same wire: the `GetStats` admin
    // frame returns the service's full snapshot — counters plus per-stage
    // latency quantiles — and both stats types render operator tables.
    let stats = client.fetch_stats()?;
    println!("--- service stats (via GetStats frame) ---");
    println!("{stats}");
    println!("--- client stats ---");
    println!("{}", client.stats());
    client.close();
    server.shutdown();

    // -----------------------------------------------------------------
    // Act two: the durable daemon. The same workload as a long-running
    // job — per-epoch progress streamed back over the wire, snapshots
    // written to disk at every epoch boundary, and the backend killed
    // and restarted in the middle without losing the work.
    // -----------------------------------------------------------------
    println!("\n=== durable daemon: kill the backend mid-job, resume from disk ===");
    let daemon_job = CloudJob {
        model: bundle.augmented_model.to_bytes(),
        task: job.task.clone(),
        train: TrainConfig::new(8, 32, 0.03)
            .with_momentum(0.9)
            .with_seed(11),
    };

    // Ground truth: the identical job trained once, uninterrupted.
    let truth = CloudService::builder()
        .workers(1)
        .build()
        .client()
        .train(&daemon_job)?;

    // Snapshots outlive any single daemon process: each one lands in this
    // directory via write-to-temp + atomic rename.
    let ckpt_dir = std::env::temp_dir().join(format!("amalgam-daemon-{}", std::process::id()));
    let store = Arc::new(FileCheckpointStore::new(&ckpt_dir)?);

    let daemon1 = CloudServer::bind(
        CloudService::builder()
            .workers(1)
            .observer(Arc::new(Mutex::new(PacedEpochs(Duration::from_millis(20)))))
            .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .checkpoint_every(1)
            .build(),
        "127.0.0.1:0",
    )?;
    println!("daemon #1 up on {}", daemon1.local_addr());

    // The injector stands in for the network path to the daemon: it can
    // sever the link the way a crashed host would — mid-stream, no FIN —
    // and later point the same client-facing address at the restarted
    // process.
    let injector = FaultInjector::spawn(daemon1.local_addr())?;
    let client = RemoteCloudClient::connect_with(
        injector.addr(),
        TransportConfig::default()
            .reconnect(ReconnectPolicy::default().base(Duration::from_millis(20))),
    )?;
    let mut handle = client.submit(&daemon_job)?;
    println!(
        "daemon job #{} submitted — streaming progress:",
        handle.id()
    );

    // Stream per-epoch progress until at least two snapshots are on disk,
    // then pull the plug mid-job.
    while daemon1.stats().checkpoints_written < 2 {
        while let Some(update) = handle.try_progress() {
            println!(
                "  epoch {:>2}/{}  loss {:.4}  acc {:.1}%",
                update.epoch,
                update.total_epochs,
                update.train_loss,
                update.train_acc * 100.0
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("killing daemon #1 mid-job…");
    injector.set_fault(Fault::Kill);
    // The orphaned execution notices its peer is gone, abandons the job,
    // and keeps the latest snapshot for whoever picks it up next.
    while daemon1.stats().jobs_cancelled == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let interrupted = daemon1.stats();
    daemon1.shutdown();
    println!(
        "daemon #1 died after {} epochs ({} snapshots on disk)",
        interrupted.epochs_trained, interrupted.checkpoints_written
    );

    // Restart: a fresh daemon process on the same checkpoint directory.
    let daemon2 = CloudServer::bind(
        CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .checkpoint_every(1)
            .build(),
        "127.0.0.1:0",
    )?;
    injector.retarget(daemon2.local_addr());
    injector.set_fault(Fault::None);
    println!(
        "daemon #2 up on {} — same disk, healing link…",
        daemon2.local_addr()
    );

    // The self-healing client reconnects and replays the job; the new
    // daemon finds the snapshot and trains only the remaining epochs.
    // The original handle never noticed any of this.
    for update in handle.progress() {
        println!(
            "  epoch {:>2}/{}  loss {:.4}  acc {:.1}%  (resumed)",
            update.epoch,
            update.total_epochs,
            update.train_loss,
            update.train_acc * 100.0
        );
    }
    let daemon_result = handle
        .wait_timeout(Duration::from_secs(60))
        .expect("resumed job must finish")?;
    let resumed = daemon2.stats();
    assert_eq!(
        daemon_result.trained_model, truth.trained_model,
        "a restart must change availability, not arithmetic"
    );
    assert_eq!(daemon_result.history.train_loss, truth.history.train_loss);
    assert_eq!(resumed.jobs_resumed, 1);
    assert_eq!(
        interrupted.epochs_trained + resumed.epochs_trained,
        daemon_result.history.epochs() as u64,
        "the two daemons must split the epochs exactly — no recompute"
    );
    println!(
        "daemon #2 resumed from disk and trained {} of {} epochs — result \
         bitwise identical to an uninterrupted run",
        resumed.epochs_trained,
        daemon_result.history.epochs()
    );
    client.close();
    daemon2.shutdown();
    injector.shutdown();
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Client side: decode, extract, and use the original model locally.
    let trained = GraphModel::from_bytes(result.trained_model)?;
    let extracted = Amalgam::extract(&trained, &model, &bundle.secrets)?;
    let mut clean = extracted.model;
    let (_, acc) = amalgam::core::trainer::evaluate_image_classifier(&mut clean, &data.test, 0, 32);
    println!(
        "extracted model accuracy on original test set: {:.1}%",
        acc * 100.0
    );
    Ok(())
}
