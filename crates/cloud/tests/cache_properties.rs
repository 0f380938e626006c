//! Property tests of the content-addressed dedup subsystem: the address
//! is a function of the job's *canonical* wire encoding (stable across
//! encode∘decode∘encode, sensitive to every byte), the result cache never
//! exceeds its byte bound or serves past its TTL under any schedule, and
//! coalesced duplicate submissions all observe bitwise-identical results.

use amalgam_cloud::cache::{entry_cost, ResultCache};
use amalgam_cloud::{
    CloudJob, CloudObserver, CloudService, ContentAddress, JobResult, TaskPayload,
};
use amalgam_core::TrainConfig;
use amalgam_models::lenet5;
use amalgam_nn::graph::GraphModel;
use amalgam_nn::metrics::History;
use amalgam_tensor::{Rng, Tensor};
use bytes::Bytes;
use proptest::collection;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A structurally varied classification job: every field that reaches the
/// wire encoding is driven by the proptest inputs.
fn structured_job(
    seed: u64,
    samples: usize,
    epochs: usize,
    batch: usize,
    lr_milli: u32,
    with_val: bool,
) -> CloudJob {
    let mut rng = Rng::seed_from(seed);
    let model = lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[samples, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..samples).map(|i| i % 2).collect();
    let (val_inputs, val_labels) = if with_val {
        (Some(Tensor::randn(&[2, 1, 8, 8], &mut rng)), vec![0, 1])
    } else {
        (None, vec![])
    };
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs,
            val_labels,
        },
        train: TrainConfig::new(epochs, batch, lr_milli as f32 / 1000.0).with_seed(seed),
    }
}

/// A synthetic result whose only variable weight is the model blob;
/// `marker` fills the blob so a cache hit can prove it returned the right
/// entry, not just *an* entry.
fn marked_result(marker: u8, model_bytes: usize) -> JobResult {
    JobResult {
        job_id: 0,
        trained_model: Bytes::from(vec![marker; model_bytes]),
        history: History::new(),
        bytes_received: 0,
        bytes_sent: model_bytes,
        train_seconds: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The content address survives a decode/re-encode round trip: the
    /// wire encoding is canonical, so a job uploaded remotely (decoded and
    /// re-encoded along the way) hashes identically to a local submission.
    #[test]
    fn address_is_stable_across_reencode(
        seed in 0u64..10_000,
        samples in 1usize..6,
        epochs in 1usize..4,
        batch in 1usize..4,
        lr_milli in 1u32..200,
        with_val in any::<bool>(),
    ) {
        let job = structured_job(seed, samples, epochs, batch, lr_milli, with_val);
        let bytes = job.to_bytes();
        let addr = ContentAddress::of(&bytes);
        let reencoded = CloudJob::from_bytes(bytes).expect("own encoding decodes").to_bytes();
        prop_assert_eq!(
            ContentAddress::of(&reencoded),
            addr,
            "encode∘decode∘encode changed the content address"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flipping any single byte of the payload changes the address — the
    /// injectivity the whole dedup design leans on (two jobs that differ
    /// anywhere must never share a cache slot).
    #[test]
    fn single_byte_flip_changes_address(
        payload in collection::vec(any::<u8>(), 1..512),
        at in any::<u64>(),
        flip in 1u8..255,
    ) {
        let mut flipped = payload.clone();
        let i = (at % payload.len() as u64) as usize;
        flipped[i] ^= flip;
        // (i, flip) pinpoint the offending mutation in the failure output.
        let _ = (i, flip);
        prop_assert_ne!(ContentAddress::of(&payload), ContentAddress::of(&flipped));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of inserts, lookups and clock jumps the
    /// cache (a) never retains more than `capacity` bytes as measured by
    /// [`entry_cost`], (b) never serves an entry at or past its TTL, and
    /// (c) every hit returns the bytes most recently inserted under that
    /// address.
    #[test]
    fn byte_bound_and_ttl_hold_under_any_schedule(
        capacity in 100usize..8_000,
        ttl_ms in 1u64..3_000,
        ops in collection::vec(any::<u64>(), 1..80),
    ) {
        let ttl = Duration::from_millis(ttl_ms);
        let mut cache = ResultCache::new(capacity, ttl);
        let mut now = Instant::now();
        // Shadow model: per address, the last inserted (time, size).
        let mut shadow: std::collections::HashMap<u8, (Instant, usize)> =
            std::collections::HashMap::new();
        for word in ops {
            // Each sampled word packs one op:
            // (address tag, model bytes, clock advance ms, insert/lookup).
            let tag = (word % 6) as u8;
            let size = ((word >> 3) % 2_048) as usize;
            let gap_ms = (word >> 14) % 1_500;
            let is_insert = word >> 63 == 1;
            now += Duration::from_millis(gap_ms);
            let addr = ContentAddress::of(&[tag]);
            if is_insert {
                cache.insert_at(addr, marked_result(tag, size), now);
                shadow.insert(tag, (now, size));
            } else if let Some(hit) = cache.get_at(&addr, now) {
                let (inserted_at, size) = shadow[&tag];
                prop_assert!(
                    now.duration_since(inserted_at) < ttl,
                    "served an entry {:?} after insertion (ttl {:?})",
                    now.duration_since(inserted_at), ttl
                );
                prop_assert_eq!(hit.trained_model.len(), size, "hit returned a stale size");
                prop_assert!(
                    hit.trained_model.iter().all(|&b| b == tag),
                    "hit returned another address's bytes"
                );
                prop_assert_eq!(entry_cost(&hit), entry_cost(&marked_result(tag, size)));
            }
            prop_assert!(
                cache.total_bytes() <= capacity,
                "cache retains {} bytes over the {} bound", cache.total_bytes(), capacity
            );
        }
    }
}

/// Holds every job inside its worker (at the observer tap, after decode)
/// until the test releases the mutex — lets the proptest park duplicates
/// behind a primary execution deterministically.
struct Gate(Arc<Mutex<()>>);

impl CloudObserver for Gate {
    fn on_model(&mut self, _: &GraphModel) {
        drop(self.0.lock().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// However many duplicates coalesce onto one in-flight execution, all
    /// of them (and a later cache hit) observe results bitwise identical
    /// to the primary's — each stamped with its own submission's job id.
    #[test]
    fn coalesced_waiters_observe_bitwise_identical_results(
        seed in 0u64..1_000,
        waiters in 1usize..5,
    ) {
        let gate = Arc::new(Mutex::new(()));
        let service = CloudService::builder()
            .workers(1)
            .result_cache(1 << 20, Duration::from_secs(600))
            .observer(Arc::new(Mutex::new(Gate(Arc::clone(&gate)))))
            .build();
        let client = service.client();
        let job = structured_job(seed, 4, 1, 4, 50, false);

        // Hold the gate: the primary claims the pending slot at submit,
        // so every duplicate submitted afterwards must coalesce.
        let held = gate.lock().unwrap();
        let primary = client.submit(&job).expect("primary submit");
        let dups: Vec<_> = (0..waiters)
            .map(|_| client.submit(&job).expect("duplicate submit"))
            .collect();
        drop(held);

        let canonical = |mut r: JobResult| {
            r.job_id = 0;
            r.to_bytes()
        };
        let primary_id = primary.id();
        let primary_result = primary.wait().expect("primary trains");
        prop_assert_eq!(primary_result.job_id, primary_id);
        let expected = canonical(primary_result);
        for dup in dups {
            let id = dup.id();
            let result = dup.wait().expect("waiter answered");
            prop_assert_eq!(result.job_id, id, "waiter got someone else's job id");
            prop_assert_eq!(
                canonical(result),
                expected.clone(),
                "a coalesced waiter diverged from the primary execution"
            );
        }
        // A late duplicate is a cache hit — same bytes again, no training.
        let hit = client.submit(&job).expect("hit submit").wait().expect("hit answered");
        prop_assert_eq!(canonical(hit), expected);

        let stats = service.stats();
        prop_assert_eq!(stats.jobs_completed, 1, "duplicates must not execute");
        prop_assert_eq!(stats.coalesced, waiters as u64);
        prop_assert_eq!(stats.cache_hits, 1);
        service.shutdown();
    }
}
