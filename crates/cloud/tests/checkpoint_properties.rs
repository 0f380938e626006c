//! Property tests of the durable-checkpoint subsystem: encode∘decode is
//! the identity for arbitrary snapshot shapes, corrupt or truncated
//! checkpoints are rejected loudly and fall back to an epoch-0 recompute
//! without poisoning the store, and a run resumed at *any* epoch boundary
//! is bitwise identical to the uninterrupted run.

use amalgam_cloud::{
    Checkpoint, CheckpointStore, CloudJob, CloudService, ContentAddress, MemoryCheckpointStore,
    TaskPayload,
};
use amalgam_core::TrainConfig;
use amalgam_models::lenet5;
use amalgam_nn::metrics::History;
use amalgam_tensor::{Rng, Tensor};
use bytes::Bytes;
use proptest::collection;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A small multi-epoch classification job, fully determined by `seed`.
fn training_job(seed: u64, epochs: usize) -> CloudJob {
    let mut rng = Rng::seed_from(1000 + seed);
    let model = lenet5(1, 8, 2, &mut rng);
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
        train: TrainConfig::new(epochs, 4, 0.05).with_seed(seed),
    }
}

/// A [`CheckpointStore`] that keeps every blob ever stored, in write
/// order — the raw material for replaying a resume from each epoch
/// boundary of one uninterrupted run.
#[derive(Debug, Default)]
struct RecordingStore {
    inner: MemoryCheckpointStore,
    log: Mutex<Vec<Bytes>>,
}

impl CheckpointStore for RecordingStore {
    fn load(&self, addr: ContentAddress) -> Option<Bytes> {
        self.inner.load(addr)
    }

    fn store(&self, addr: ContentAddress, bytes: Bytes) {
        self.log.lock().unwrap().push(bytes.clone());
        self.inner.store(addr, bytes);
    }

    fn remove(&self, addr: ContentAddress) {
        self.inner.remove(addr);
    }
}

/// An arbitrary-but-valid snapshot built from sampled raw material.
fn build_checkpoint(
    epoch: u64,
    model: Vec<u8>,
    shapes: Vec<Vec<usize>>,
    floats: Vec<f32>,
    seed: u64,
) -> Checkpoint {
    let mut rng = Rng::seed_from(seed);
    Checkpoint {
        epoch,
        model: Bytes::from(model),
        velocity: shapes.iter().map(|s| Tensor::randn(s, &mut rng)).collect(),
        history: History {
            train_loss: floats.clone(),
            train_acc: floats.clone(),
            val_loss: floats.clone(),
            val_acc: floats.clone(),
            epoch_secs: floats,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for any snapshot shape: epoch,
    /// model blob, any number of velocity tensors of any rank, history of
    /// any length — and the encoding is canonical (re-encoding the decoded
    /// value reproduces the exact bytes, checksum included).
    #[test]
    fn checkpoints_roundtrip_bitwise(
        epoch in 1u64..1_000_000,
        model in collection::vec(any::<u8>(), 0..256),
        shapes in collection::vec(collection::vec(1usize..5, 1..4), 0..4),
        floats in collection::vec(-1e6f32..1e6, 0..6),
        seed in any::<u64>(),
    ) {
        let cp = build_checkpoint(epoch, model, shapes, floats, seed);
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(bytes.clone()).expect("own encoding must decode");
        prop_assert_eq!(&back, &cp);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Arbitrary byte soup never panics the decoder; anything that decodes
    /// must re-encode to exactly the input (the checksum makes accidental
    /// acceptance essentially impossible, but if it happens it must be
    /// canonical).
    #[test]
    fn adversarial_checkpoint_bytes_never_panic(
        body in collection::vec(any::<u8>(), 0..512),
    ) {
        let bytes = Bytes::from(body);
        if let Ok(cp) = Checkpoint::from_bytes(bytes.clone()) {
            prop_assert_eq!(cp.to_bytes(), bytes);
        }
    }

    /// Any single bit flip or truncation of a valid snapshot is caught by
    /// the trailing checksum: decode errors, never a silently-wrong
    /// checkpoint.
    #[test]
    fn damaged_checkpoints_never_decode(
        epoch in 1u64..1_000,
        model in collection::vec(any::<u8>(), 1..64),
        floats in collection::vec(-1e3f32..1e3, 0..4),
        seed in any::<u64>(),
        damage in any::<usize>(),
        flip_bit in 0usize..8,
        truncate in any::<bool>(),
    ) {
        let cp = build_checkpoint(epoch, model, vec![vec![2, 2]], floats, seed);
        let bytes = cp.to_bytes().to_vec();
        let damaged = if truncate {
            bytes[..damage % bytes.len()].to_vec()
        } else {
            let mut b = bytes.clone();
            let idx = damage % b.len();
            b[idx] ^= 1 << flip_bit;
            b
        };
        prop_assert!(
            Checkpoint::from_bytes(Bytes::from(damaged)).is_err(),
            "a damaged snapshot must be rejected loudly"
        );
    }
}

proptest! {
    // Each case trains real (tiny) jobs through a full service, so keep
    // the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A poisoned store entry — garbage, a damaged snapshot, or a valid
    /// snapshot with an impossible epoch — is rejected loudly, the run
    /// falls back to an epoch-0 recompute that is bitwise identical to a
    /// clean run, and the store ends scrubbed (never poisoned for the next
    /// submission).
    #[test]
    fn corrupt_checkpoints_fall_back_to_epoch_zero(
        seed in 0u64..10_000,
        kind in 0usize..3,
        damage in any::<usize>(),
    ) {
        const EPOCHS: usize = 2;
        let job = training_job(seed, EPOCHS);
        let addr = ContentAddress::of(&job.to_bytes());

        let clean = CloudService::builder().workers(1).build();
        let truth = clean.client().train(&job).expect("clean run");

        // Plant a poisoned entry under the job's own address.
        let poison = match kind {
            0 => Bytes::from(vec![0xAB; 16 + damage % 64]),
            1 => {
                let mut b = build_checkpoint(1, job.model.to_vec(), vec![], vec![0.5], seed)
                    .to_bytes()
                    .to_vec();
                let idx = damage % b.len();
                b[idx] ^= 0x40;
                Bytes::from(b)
            }
            // Validly encoded but claiming more epochs than the job has:
            // impossible, must not be trusted.
            _ => build_checkpoint(
                EPOCHS as u64 + 1 + (damage % 7) as u64,
                job.model.to_vec(),
                vec![],
                vec![0.5],
                seed,
            )
            .to_bytes(),
        };
        let store = Arc::new(MemoryCheckpointStore::new());
        store.store(addr, poison);

        let service = CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .build();
        let result = service.client().train(&job).expect("fallback run");

        prop_assert_eq!(&result.trained_model, &truth.trained_model);
        prop_assert_eq!(&result.history.train_loss, &truth.history.train_loss);
        let stats = service.stats();
        prop_assert_eq!(stats.checkpoints_rejected, 1);
        prop_assert_eq!(stats.jobs_resumed, 0);
        prop_assert!(store.is_empty(), "the poisoned entry must be scrubbed");
    }

    /// Resume-at-epoch-k equivalence, for every k: capture the snapshot
    /// written at each epoch boundary of an uninterrupted run, then start
    /// a fresh service from each one. Every resumed run must train only
    /// the remaining epochs and produce a bitwise-identical model and
    /// metric history.
    #[test]
    fn resume_at_every_epoch_is_bitwise_identical(seed in 0u64..10_000) {
        const EPOCHS: usize = 5;
        let job = training_job(seed, EPOCHS);
        let addr = ContentAddress::of(&job.to_bytes());

        let recorder = Arc::new(RecordingStore::default());
        let service = CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&recorder) as Arc<dyn CheckpointStore>)
            .build();
        let truth = service.client().train(&job).expect("uninterrupted run");
        let snapshots = recorder.log.lock().unwrap().clone();
        prop_assert_eq!(snapshots.len(), EPOCHS - 1, "one snapshot per non-final epoch");
        prop_assert!(recorder.inner.is_empty(), "success retires the checkpoint");

        for (i, snapshot) in snapshots.iter().enumerate() {
            let k = i as u64 + 1; // the snapshot taken after epoch k
            let store = Arc::new(MemoryCheckpointStore::new());
            store.store(addr, snapshot.clone());
            let resumed_service = CloudService::builder()
                .workers(1)
                .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
                .build();
            let resumed = resumed_service.client().train(&job).expect("resumed run");

            prop_assert_eq!(&resumed.trained_model, &truth.trained_model,
                "resume at epoch {} diverged", k);
            prop_assert_eq!(&resumed.history.train_loss, &truth.history.train_loss);
            prop_assert_eq!(&resumed.history.train_acc, &truth.history.train_acc);
            prop_assert_eq!(resumed.history.epochs(), EPOCHS);

            let stats = resumed_service.stats();
            prop_assert_eq!(stats.jobs_resumed, 1);
            prop_assert_eq!(stats.epochs_trained, EPOCHS as u64 - k,
                "resume at epoch {} must recompute exactly the tail", k);
            prop_assert_eq!(stats.checkpoints_rejected, 0);
            prop_assert!(store.is_empty());
        }
    }
}
