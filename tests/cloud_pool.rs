//! Integration tests of the cloud's middleware pipeline and worker pool
//! through the public facade: concurrent clients, pool scaling, admission
//! control and telemetry.

use amalgam::cloud::{CloudService, RecordingObserver};
use amalgam::prelude::*;
use std::sync::{Arc, Mutex};

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(40 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(seed),
    }
}

/// Concurrent cloned clients against a 2-worker pool: every job completes,
/// every result carries its own job's id, shutdown with traffic in flight
/// does not deadlock, and the telemetry adds up.
#[test]
fn parallel_clients_on_a_two_worker_pool() {
    let service = CloudService::builder().workers(2).build();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let client = service.client();
            std::thread::spawn(move || {
                (0..3u64)
                    .map(|j| {
                        let job = tiny_job(t * 10 + j);
                        let handle = client.submit(&job).expect("submit");
                        let id = handle.id();
                        let result = handle.wait().expect("train");
                        assert_eq!(result.job_id, id, "result crossed between handles");
                        assert_eq!(result.history.epochs(), 1);
                        result.job_id
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut ids: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..12).collect::<Vec<u64>>(),
        "job ids must be unique and dense"
    );
    let stats = service.stats();
    assert_eq!(stats.jobs_submitted, 12);
    assert_eq!(stats.jobs_completed, 12);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.jobs_per_second > 0.0);
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
    service.shutdown();
}

/// A pool observer sees the traffic of every worker, serialized by its
/// mutex: counts add up across concurrent jobs.
#[test]
fn shared_observer_counts_all_pool_traffic() {
    let observer = Arc::new(Mutex::new(RecordingObserver::new()));
    let service = CloudService::builder()
        .workers(3)
        .observer(observer.clone())
        .build();
    let client = service.client();
    let handles: Vec<_> = (0..6)
        .map(|s| client.submit(&tiny_job(s)).unwrap())
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    service.shutdown();
    let rec = observer.lock().unwrap();
    // 6 jobs × (8 samples / batch 4) = 12 batches and steps, 6 results.
    assert_eq!(rec.batches, 12);
    assert_eq!(rec.steps, 12);
    assert_eq!(rec.results, 6);
}

/// An observer that panics inside its hook poisons its mutex: that job
/// answers `Panicked`, and the next job on the same service is still
/// observed and trains bit-equal to an unobserved run — every lock of the
/// observer under the panic layer recovers from poison.
#[test]
fn an_observer_panic_fails_its_own_job_only() {
    use amalgam::cloud::CloudObserver;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct PanicsOnce {
        armed: bool,
        steps: Arc<AtomicUsize>,
    }
    impl CloudObserver for PanicsOnce {
        fn on_model(&mut self, _: &GraphModel) {
            if std::mem::take(&mut self.armed) {
                panic!("observer panics once");
            }
        }
        fn on_step(&mut self, _: &mut GraphModel) {
            self.steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    let steps = Arc::new(AtomicUsize::new(0));
    let observed = CloudService::builder()
        .observer(Arc::new(Mutex::new(PanicsOnce {
            armed: true,
            steps: Arc::clone(&steps),
        })))
        .build();
    let client = observed.client();
    match client.train(&tiny_job(1)) {
        Err(CloudError::Panicked(msg)) => assert!(msg.contains("observer panics once"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    let after = client.train(&tiny_job(2)).expect("the job after the panic");
    // 8 samples / batch 4 = 2 steps, all of them observed.
    assert_eq!(steps.load(Ordering::Relaxed), 2);
    observed.shutdown();

    let plain = CloudService::builder().build();
    let reference = plain.client().train(&tiny_job(2)).unwrap();
    plain.shutdown();
    assert_eq!(after.trained_model, reference.trained_model);
    assert_eq!(after.history.train_loss, reference.history.train_loss);
}

/// Shutdown with jobs still queued drains them: every handle gets a real
/// answer, not a dropped channel.
#[test]
fn graceful_shutdown_answers_queued_jobs() {
    let service = CloudService::builder().workers(1).build();
    let client = service.client();
    let handles: Vec<_> = (0..5)
        .map(|s| client.submit(&tiny_job(s)).unwrap())
        .collect();
    service.shutdown();
    for handle in handles {
        handle.wait().expect("job dropped during graceful shutdown");
    }
    // The pool is gone: new submissions fail cleanly.
    assert!(matches!(
        client.submit(&tiny_job(9)),
        Err(CloudError::ServiceUnavailable)
    ));
}
