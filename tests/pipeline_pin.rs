//! Pins what the service's job pipeline does, through the public API only:
//! for the default service and for one with every optional stage
//! configured, the exact `(Stage, ok)` sequence a job's flight-recorder
//! trace holds — on success and on each refusal — plus the error each
//! refusal answers with, and the conservation laws after every case.

use amalgam::cloud::{CloudObserver, CloudService, JobTrace, Stage};
use amalgam::prelude::*;
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

const KEY: &str = "pin-key";

fn job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: Tensor::randn(&[4, 1, 8, 8], &mut rng),
            labels: vec![0, 1, 0, 1],
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(seed),
    }
}

/// An observer whose `on_model` waits on `gate` while a test holds it, or
/// panics once `bomb` is set.
#[derive(Clone, Default)]
struct Probe {
    gate: Arc<Mutex<()>>,
    bomb: Arc<AtomicBool>,
}

impl CloudObserver for Probe {
    fn on_model(&mut self, _: &GraphModel) {
        if self.bomb.load(Ordering::SeqCst) {
            panic!("pinned observer panic");
        }
        drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// The service with every optional stage configured: observer, admission
/// control, result cache, rate limit (`burst` tokens, refilled once per
/// 1000 s) and API keys.
fn configured(burst: f64) -> (CloudService, Probe, CloudClient) {
    let probe = Probe::default();
    let service = CloudService::builder()
        .observer(Arc::new(Mutex::new(probe.clone())))
        .max_queue_depth(1)
        .result_cache(64 << 20, Duration::from_secs(600))
        .rate_limit(0.001, burst)
        .api_keys([KEY])
        .build();
    let client = service.client().with_api_key(KEY);
    (service, probe, client)
}

/// The `(Stage, ok)` sequence of job `job_id`'s trace, after checking that
/// it opens with the queue wait and that every stage span contains the
/// next one.
fn stages_of(service: &CloudService, job_id: u64) -> Vec<(Stage, bool)> {
    let traces: Vec<JobTrace> = service
        .telemetry()
        .recorder()
        .recent()
        .into_iter()
        .filter(|t| t.job_id == job_id)
        .collect();
    assert_eq!(traces.len(), 1, "one trace per executed job");
    let trace = &traces[0];
    assert_eq!(trace.spans[0].stage, Stage::QueueWait);
    // A span's offset and duration are two clock reads, each truncated to
    // whole microseconds, so an end may overshoot its container's by two.
    let end = |s: &amalgam::cloud::SpanRecord| s.start_us + s.dur_us;
    for pair in trace.spans[1..].windows(2) {
        let (outer, inner) = (pair[0], pair[1]);
        assert!(
            outer.start_us <= inner.start_us && end(&inner) <= end(&outer) + 2,
            "{outer:?} does not contain {inner:?}"
        );
    }
    assert!(end(trace.spans.last().unwrap()) <= trace.total_us + 2);
    trace.spans.iter().map(|s| (s.stage, s.ok)).collect()
}

fn assert_invariants(service: &CloudService) {
    if let Err(broken) = service.stats().check_invariants() {
        panic!("{broken}");
    }
}

/// `stages` all ok, behind the queue wait.
fn all_ok(stages: &[Stage]) -> Vec<(Stage, bool)> {
    std::iter::once(Stage::QueueWait)
        .chain(stages.iter().copied())
        .map(|s| (s, true))
        .collect()
}

/// The queue wait, then `stages` all failing: a refusal fails the stage
/// that refuses and every stage outside it (listed outermost first).
fn refused(stages: &[Stage]) -> Vec<(Stage, bool)> {
    std::iter::once((Stage::QueueWait, true))
        .chain(stages.iter().map(|&s| (s, false)))
        .collect()
}

#[test]
fn default_service_runs_panic_decode_validate_train() {
    let service = CloudService::start();
    let client = service.client();
    let handle = client.submit(&job(1)).unwrap();
    let id = handle.id();
    handle.wait().unwrap();
    assert_eq!(
        stages_of(&service, id),
        all_ok(&[Stage::Panic, Stage::Decode, Stage::Validate, Stage::Train])
    );
    assert_invariants(&service);

    let handle = client
        .submit_payload(Bytes::from_static(b"garbage"))
        .unwrap();
    let id = handle.id();
    assert!(matches!(handle.wait(), Err(CloudError::Decode(_))));
    assert_eq!(
        stages_of(&service, id),
        refused(&[Stage::Panic, Stage::Decode])
    );
    assert_invariants(&service);

    let mut bad = job(2);
    bad.train.batch_size = 0;
    let handle = client.submit(&bad).unwrap();
    let id = handle.id();
    assert_eq!(
        handle.wait().unwrap_err(),
        CloudError::BadJob("batch size must be positive".into())
    );
    assert_eq!(
        stages_of(&service, id),
        refused(&[Stage::Panic, Stage::Decode, Stage::Validate])
    );
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn configured_service_runs_every_stage_in_order() {
    let (service, _, client) = configured(64.0);
    let handle = client.submit(&job(1)).unwrap();
    let id = handle.id();
    handle.wait().unwrap();
    assert_eq!(
        stages_of(&service, id),
        all_ok(&[
            Stage::Panic,
            Stage::Admission,
            Stage::Dedup,
            Stage::RateLimit,
            Stage::Auth,
            Stage::Decode,
            Stage::Validate,
            Stage::Observer,
            Stage::Train,
        ])
    );
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn overloaded_is_refused_at_admission() {
    let (service, probe, client) = configured(64.0);
    let hold = probe.gate.lock().unwrap();
    let first = client.submit(&job(1)).unwrap();
    while service.stats().in_flight == 0 {
        std::thread::yield_now();
    }
    // Depths at submit: 0 and 1 are admitted under `max_queue_depth(1)`,
    // 2 is not.
    let queued: Vec<_> = (2..4).map(|s| client.submit(&job(s)).unwrap()).collect();
    let shed = client.submit(&job(4)).unwrap();
    let shed_id = shed.id();
    drop(hold);
    first.wait().unwrap();
    for handle in queued {
        handle.wait().unwrap();
    }
    assert_eq!(
        shed.wait().unwrap_err(),
        CloudError::Overloaded {
            queue_depth: 2,
            max_queue_depth: 1
        }
    );
    assert_eq!(
        stages_of(&service, shed_id),
        refused(&[Stage::Panic, Stage::Admission])
    );
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn rate_limited_is_refused_at_the_bucket() {
    let (service, _, client) = configured(1.0);
    client.train(&job(1)).unwrap();
    let handle = client.submit(&job(2)).unwrap();
    let id = handle.id();
    match handle.wait() {
        // One token per 1000 s: the retry-after is what is left of that.
        Err(CloudError::RateLimited { retry_after_ms }) => {
            assert!(
                (990_000..=1_000_001).contains(&retry_after_ms),
                "{retry_after_ms}"
            );
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    assert_eq!(
        stages_of(&service, id),
        refused(&[
            Stage::Panic,
            Stage::Admission,
            Stage::Dedup,
            Stage::RateLimit
        ])
    );
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn unauthorized_is_refused_at_auth() {
    let (service, _, _) = configured(64.0);
    let handle = service.client().submit(&job(1)).unwrap();
    let id = handle.id();
    assert_eq!(
        handle.wait().unwrap_err(),
        CloudError::Unauthorized("no API key presented".into())
    );
    assert_eq!(
        stages_of(&service, id),
        refused(&[
            Stage::Panic,
            Stage::Admission,
            Stage::Dedup,
            Stage::RateLimit,
            Stage::Auth
        ])
    );
    let handle = service
        .client()
        .with_api_key("wrong")
        .submit(&job(2))
        .unwrap();
    assert_eq!(
        handle.wait().unwrap_err(),
        CloudError::Unauthorized("unknown API key".into())
    );
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn garbage_is_refused_at_decode_and_a_bad_job_at_validate() {
    let (service, _, client) = configured(64.0);
    let handle = client
        .submit_payload(Bytes::from_static(b"garbage"))
        .unwrap();
    let id = handle.id();
    assert!(matches!(handle.wait(), Err(CloudError::Decode(_))));
    let through_auth = [
        Stage::Panic,
        Stage::Admission,
        Stage::Dedup,
        Stage::RateLimit,
        Stage::Auth,
    ];
    let mut failing = through_auth.to_vec();
    failing.push(Stage::Decode);
    assert_eq!(stages_of(&service, id), refused(&failing));
    assert_invariants(&service);

    let mut bad = job(2);
    bad.train.batch_size = 0;
    let handle = client.submit(&bad).unwrap();
    let id = handle.id();
    assert_eq!(
        handle.wait().unwrap_err(),
        CloudError::BadJob("batch size must be positive".into())
    );
    failing.push(Stage::Validate);
    assert_eq!(stages_of(&service, id), refused(&failing));
    assert_invariants(&service);
    service.shutdown();
}

#[test]
fn an_observer_panic_is_caught_at_the_panic_stage() {
    let (service, probe, client) = configured(64.0);
    probe.bomb.store(true, Ordering::SeqCst);
    let handle = client.submit(&job(1)).unwrap();
    let id = handle.id();
    assert_eq!(
        handle.wait().unwrap_err(),
        CloudError::Panicked("pinned observer panic".into())
    );
    // The unwind skips every span inside the panic stage.
    assert_eq!(stages_of(&service, id), refused(&[Stage::Panic]));
    assert_eq!(service.stats().jobs_panicked, 1);
    assert_invariants(&service);
    service.shutdown();
}
