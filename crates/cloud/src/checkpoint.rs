//! Durable mid-training checkpoints: the state a killed job needs to
//! resume at its last epoch boundary instead of epoch 0.
//!
//! # What a checkpoint captures
//!
//! Training here is deterministic by construction: every epoch `e` derives
//! its shuffle RNG purely from `(seed, e)`, kernels are bitwise
//! deterministic, and the optimizer is plain SGD whose only hidden state
//! is the momentum velocity. So the *complete* state at an epoch boundary
//! is small and exact:
//!
//! * the number of **completed epochs**,
//! * the **model bytes** (`GraphModel::to_bytes` — the same canonical
//!   encoding that crosses the wire),
//! * the optimizer's **velocity tensors**,
//! * the partial training **history** (what the final `JobResult` reports).
//!
//! Nothing else exists: restoring these and re-entering the epoch loop at
//! `completed` produces a run bitwise identical to one that was never
//! interrupted. That is the property `cloud/tests/checkpoint_properties.rs`
//! proves for arbitrary shapes and kill points.
//!
//! # Keying and stores
//!
//! Checkpoints are keyed by the job's [`ContentAddress`] — the same
//! canonical digest the dedup cache uses — so a resubmitted job finds its
//! own checkpoint no matter which client, connection or (with a shared
//! store) which *backend* retries it: proxy failover resumes work instead
//! of recomputing it. A [`CheckpointStore`] is deliberately tiny and
//! policy-free (*store / load / remove*); the service decides cadence via
//! [`crate::CloudServiceBuilder::checkpoint_every`]. Two stores ship:
//! [`MemoryCheckpointStore`] (survives server restart when the store
//! outlives the server object) and [`FileCheckpointStore`] (survives
//! process death; atomic rename, no partial files).
//!
//! # Corruption policy
//!
//! A checkpoint that fails its checksum, fails to decode, or claims an
//! impossible epoch is **rejected loudly and removed**: the job falls back
//! to an epoch-0 recompute and the bad entry never poisons later
//! submissions. Correctness never depends on a checkpoint being present —
//! only the amount of recomputation does.

use crate::hash::{digest128, ContentAddress};
use crate::CloudError;
use amalgam_nn::metrics::History;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::Tensor;
use bytes::Bytes;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Format version byte leading every encoded checkpoint. Version 2 moved
/// the checksum from one `siphash128` chain to [`digest128`]; a version-1
/// snapshot fails the checksum and is scrubbed like any corrupt entry.
const CHECKPOINT_VERSION: u8 = 2;
/// Fixed SipHash key halves for the integrity checksum (`b"amalgam."`,
/// `b"ckpt..v1"`): like content addressing, the checksum must be a pure
/// function of the bytes so every process verifies identically.
const CK_KEY0: u64 = u64::from_le_bytes(*b"amalgam.");
const CK_KEY1: u64 = u64::from_le_bytes(*b"ckpt..v1");

/// One mid-training snapshot at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs fully completed before this snapshot was taken; the resumed
    /// run re-enters the epoch loop here.
    pub epoch: u64,
    /// The model at that boundary, canonically encoded
    /// (`GraphModel::to_bytes`).
    pub model: Bytes,
    /// The SGD momentum velocity buffers, one per parameter in step order
    /// (empty when momentum is off — plain SGD has no optimizer state).
    pub velocity: Vec<Tensor>,
    /// Per-epoch metrics accumulated so far; the resumed run appends to
    /// them so the final [`crate::JobResult`] history is seamless.
    pub history: History,
}

impl Checkpoint {
    /// Serializes the checkpoint: version, fields, then a trailing 64-bit
    /// checksum — the low half of [`digest128`] — over everything before it.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_u8(CHECKPOINT_VERSION);
        w.put_u64(self.epoch);
        w.put_bytes(&self.model);
        w.put_u32(self.velocity.len() as u32);
        for v in &self.velocity {
            w.put_tensor(v);
        }
        w.put_f32_list(&self.history.train_loss);
        w.put_f32_list(&self.history.train_acc);
        w.put_f32_list(&self.history.val_loss);
        w.put_f32_list(&self.history.val_acc);
        w.put_f32_list(&self.history.epoch_secs);
        let body = w.finish();
        let sum = digest128(CK_KEY0, CK_KEY1, &body) as u64;
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&body);
        out.extend_from_slice(&sum.to_le_bytes());
        Bytes::from(out)
    }

    /// Decodes a checkpoint written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] — loudly — on a bad checksum,
    /// truncation, an unknown version, or trailing bytes. Callers treat
    /// any error as "no checkpoint": remove the entry and recompute from
    /// epoch 0.
    pub fn from_bytes(buf: Bytes) -> Result<Checkpoint, CloudError> {
        let err = |e: amalgam_tensor::TensorError| CloudError::Decode(e.to_string());
        if buf.len() < 8 {
            return Err(CloudError::Decode(
                "checkpoint shorter than its checksum".into(),
            ));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let claimed = u64::from_le_bytes(tail.try_into().expect("8-byte slice"));
        let actual = digest128(CK_KEY0, CK_KEY1, body) as u64;
        if claimed != actual {
            return Err(CloudError::Decode(format!(
                "checkpoint checksum mismatch: stored {claimed:016x}, computed {actual:016x}"
            )));
        }
        let mut r = Reader::new(buf.slice(..buf.len() - 8));
        let version = r.get_u8().map_err(err)?;
        if version != CHECKPOINT_VERSION {
            return Err(CloudError::Decode(format!(
                "unknown checkpoint version {version}"
            )));
        }
        let epoch = r.get_u64().map_err(err)?;
        let model = r.get_bytes().map_err(err)?;
        let n = r.get_u32().map_err(err)? as usize;
        let mut velocity = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            velocity.push(r.get_tensor().map_err(err)?);
        }
        let history = History {
            train_loss: r.get_f32_list().map_err(err)?,
            train_acc: r.get_f32_list().map_err(err)?,
            val_loss: r.get_f32_list().map_err(err)?,
            val_acc: r.get_f32_list().map_err(err)?,
            epoch_secs: r.get_f32_list().map_err(err)?,
        };
        if r.remaining() != 0 {
            return Err(CloudError::Decode(format!(
                "{} trailing bytes after checkpoint",
                r.remaining()
            )));
        }
        Ok(Checkpoint {
            epoch,
            model,
            velocity,
            history,
        })
    }
}

/// Where checkpoints live, keyed by the job's [`ContentAddress`].
///
/// Deliberately policy-free: the store neither decides *when* to
/// checkpoint (the builder's `checkpoint_every` does) nor *whether* a
/// loaded snapshot is trustworthy ([`Checkpoint::from_bytes`]'s checksum
/// does). Durability is best-effort by design — a store may drop writes
/// (out of disk, torn down) and the only consequence is recomputation.
pub trait CheckpointStore: Send + Sync + std::fmt::Debug {
    /// Returns the stored bytes for `addr`, if any.
    fn load(&self, addr: ContentAddress) -> Option<Bytes>;
    /// Stores (replacing) the bytes for `addr`. Best-effort: errors are
    /// swallowed, a later resume simply finds the previous (or no)
    /// snapshot.
    fn store(&self, addr: ContentAddress, bytes: Bytes);
    /// Deletes the entry for `addr` (job finished, or snapshot corrupt).
    fn remove(&self, addr: ContentAddress);
}

/// In-memory [`CheckpointStore`]: a mutexed map. Shared via `Arc`, it
/// survives a [`crate::CloudServer`] restart (and backend failover in
/// tests) as long as the `Arc` itself lives.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    entries: Mutex<HashMap<ContentAddress, Bytes>>,
}

impl MemoryCheckpointStore {
    /// Creates an empty store.
    pub fn new() -> MemoryCheckpointStore {
        MemoryCheckpointStore::default()
    }

    /// Number of checkpoints currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no checkpoints are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn load(&self, addr: ContentAddress) -> Option<Bytes> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&addr)
            .cloned()
    }

    fn store(&self, addr: ContentAddress, bytes: Bytes) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(addr, bytes);
    }

    fn remove(&self, addr: ContentAddress) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&addr);
    }
}

/// File-backed [`CheckpointStore`]: one file per content address
/// (`<dir>/<32-hex-digits>.ckpt`), written to a temporary name then
/// atomically renamed into place, so a crash mid-write leaves either the
/// previous snapshot or none — never a torn file. Dependency-free: plain
/// `std::fs`.
#[derive(Debug)]
pub struct FileCheckpointStore {
    dir: PathBuf,
}

impl FileCheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<FileCheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileCheckpointStore { dir })
    }

    fn path_of(&self, addr: ContentAddress) -> PathBuf {
        self.dir.join(format!("{addr}.ckpt"))
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn load(&self, addr: ContentAddress) -> Option<Bytes> {
        std::fs::read(self.path_of(addr)).ok().map(Bytes::from)
    }

    fn store(&self, addr: ContentAddress, bytes: Bytes) {
        // Unique temp name per writer so concurrent snapshots of the same
        // address never interleave into one file; the rename is the commit.
        let tmp = self.dir.join(format!(
            "{addr}.{:x}.tmp",
            std::process::id() as u64 ^ (&bytes as *const _ as u64)
        ));
        if std::fs::write(&tmp, &bytes).is_ok()
            && std::fs::rename(&tmp, self.path_of(addr)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn remove(&self, addr: ContentAddress) {
        let _ = std::fs::remove_file(self.path_of(addr));
    }
}

/// The service's resolved checkpoint policy, threaded into each job's
/// [`crate::JobContext`] by the worker loop.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where snapshots are written and resumed from.
    pub store: Arc<dyn CheckpointStore>,
    /// Snapshot after every `every` completed epochs (the last epoch never
    /// snapshots — the job is about to finish and delete its entry).
    pub every: u64,
}

/// Loads and validates the checkpoint for `addr`, if one exists and can be
/// trusted. `total_epochs` bounds the claimed epoch: a snapshot from a
/// different-length run (or a corrupt epoch field) is useless for resume.
/// Invalid entries are removed so they never poison the store; the caller
/// falls back to epoch 0. Returns the checkpoint and whether a stored
/// entry had to be rejected.
pub(crate) fn load_for_resume(
    store: &dyn CheckpointStore,
    addr: ContentAddress,
    total_epochs: u64,
) -> (Option<Checkpoint>, bool) {
    let Some(bytes) = store.load(addr) else {
        return (None, false);
    };
    match Checkpoint::from_bytes(bytes) {
        Ok(cp) if cp.epoch > 0 && cp.epoch < total_epochs => (Some(cp), false),
        _ => {
            // Corrupt, truncated, or from an incompatible run: reject
            // loudly (the caller bumps `checkpoints_rejected`) and scrub.
            store.remove(addr);
            (None, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_tensor::Rng;

    fn sample() -> Checkpoint {
        let mut rng = Rng::seed_from(7);
        Checkpoint {
            epoch: 3,
            model: Bytes::from_static(b"model bytes"),
            velocity: vec![
                Tensor::randn(&[2, 3], &mut rng),
                Tensor::randn(&[4], &mut rng),
            ],
            history: History {
                train_loss: vec![1.0, 0.8, 0.6],
                train_acc: vec![0.3, 0.5, 0.7],
                val_loss: vec![0.9],
                val_acc: vec![0.4],
                epoch_secs: vec![0.01, 0.01, 0.01],
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = sample();
        assert_eq!(Checkpoint::from_bytes(cp.to_bytes()).unwrap(), cp);
    }

    #[test]
    fn corrupt_byte_fails_checksum_loudly() {
        let mut bytes = sample().to_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(Bytes::from(bytes)),
            Err(CloudError::Decode(_))
        ));
    }

    /// `cp` as the previous format wrote it: version byte 1, checksum from
    /// one `siphash128` chain over the body.
    fn version_1_bytes(cp: &Checkpoint) -> Bytes {
        let v2 = cp.to_bytes();
        let mut out = v2[..v2.len() - 8].to_vec();
        out[0] = 1;
        let sum = crate::hash::siphash128(CK_KEY0, CK_KEY1, &out) as u64;
        out.extend_from_slice(&sum.to_le_bytes());
        Bytes::from(out)
    }

    #[test]
    fn version_1_snapshot_is_rejected_scrubbed_and_recomputed() {
        use crate::{CloudJob, CloudService, TaskPayload};
        use amalgam_core::TrainConfig;

        let mut rng = Rng::seed_from(11);
        let model = amalgam_models::lenet5(1, 8, 2, &mut rng);
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::Classification {
                inputs: Tensor::randn(&[8, 1, 8, 8], &mut rng),
                labels: (0..8).map(|i| i % 2).collect(),
                val_inputs: None,
                val_labels: vec![],
            },
            train: TrainConfig::new(3, 4, 0.05).with_seed(5),
        };
        let clean = CloudService::builder().workers(1).build();
        let truth = clean.client().train(&job).expect("clean run");
        clean.shutdown();

        // A snapshot this job could resume from, were its format current.
        let resumable = Checkpoint {
            epoch: 1,
            model: job.model.clone(),
            velocity: vec![],
            history: History {
                train_loss: vec![0.7],
                train_acc: vec![0.5],
                val_loss: vec![],
                val_acc: vec![],
                epoch_secs: vec![0.01],
            },
        };
        assert!(Checkpoint::from_bytes(resumable.to_bytes()).is_ok());
        let old = version_1_bytes(&resumable);
        assert!(matches!(
            Checkpoint::from_bytes(old.clone()),
            Err(CloudError::Decode(_))
        ));
        // Nor does the old version byte pass under the new checksum.
        let mut relabelled = old[..old.len() - 8].to_vec();
        let sum = digest128(CK_KEY0, CK_KEY1, &relabelled) as u64;
        relabelled.extend_from_slice(&sum.to_le_bytes());
        assert!(Checkpoint::from_bytes(Bytes::from(relabelled)).is_err());

        let addr = ContentAddress::of(&job.to_bytes());
        let store = Arc::new(MemoryCheckpointStore::new());
        store.store(addr, old);
        let service = CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .checkpoint_every(1)
            .build();
        let result = service.client().train(&job).expect("fallback run");
        let stats = service.stats();
        service.shutdown();
        assert_eq!(result.trained_model, truth.trained_model);
        assert_eq!(result.history.train_loss, truth.history.train_loss);
        assert_eq!(stats.checkpoints_rejected, 1);
        assert_eq!(stats.jobs_resumed, 0);
        assert_eq!(stats.epochs_trained, 3);
        assert!(store.is_empty(), "the version-1 entry must be scrubbed");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(bytes.slice(..cut)).is_err());
        }
    }

    #[test]
    fn memory_store_roundtrips_and_removes() {
        let store = MemoryCheckpointStore::new();
        let addr = ContentAddress::of(b"job");
        assert!(store.load(addr).is_none());
        store.store(addr, Bytes::from_static(b"snapshot"));
        assert_eq!(store.load(addr).unwrap(), Bytes::from_static(b"snapshot"));
        assert_eq!(store.len(), 1);
        store.remove(addr);
        assert!(store.load(addr).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn file_store_roundtrips_and_removes() {
        let dir = std::env::temp_dir().join(format!("amalgam-ckpt-test-{}", std::process::id()));
        let store = FileCheckpointStore::new(&dir).unwrap();
        let addr = ContentAddress::of(b"job");
        assert!(store.load(addr).is_none());
        store.store(addr, Bytes::from_static(b"snapshot"));
        assert_eq!(store.load(addr).unwrap(), Bytes::from_static(b"snapshot"));
        store.store(addr, Bytes::from_static(b"newer"));
        assert_eq!(store.load(addr).unwrap(), Bytes::from_static(b"newer"));
        store.remove(addr);
        assert!(store.load(addr).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_resume_candidates_are_scrubbed() {
        let store = MemoryCheckpointStore::new();
        let addr = ContentAddress::of(b"job");
        // Corrupt bytes: rejected and removed.
        store.store(addr, Bytes::from_static(b"garbage"));
        let (cp, rejected) = load_for_resume(&store, addr, 10);
        assert!(cp.is_none() && rejected);
        assert!(store.load(addr).is_none());
        // Epoch out of range for this run: same treatment.
        let mut late = sample();
        late.epoch = 10;
        store.store(addr, late.to_bytes());
        let (cp, rejected) = load_for_resume(&store, addr, 10);
        assert!(cp.is_none() && rejected);
        assert!(store.load(addr).is_none());
        // A valid one resumes.
        store.store(addr, sample().to_bytes());
        let (cp, rejected) = load_for_resume(&store, addr, 10);
        assert_eq!(cp.unwrap().epoch, 3);
        assert!(!rejected);
    }
}
