//! The wire protocol: jobs, results and errors, fully serialized.

use crate::CloudError;
use amalgam_core::TrainConfig;
use amalgam_nn::metrics::History;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::Tensor;
use bytes::Bytes;

/// The training payload of a job.
#[derive(Debug, Clone)]
pub enum TaskPayload {
    /// Image or text classification: every head is scored against `labels`.
    Classification {
        /// Input tensor (`[N, C, H, W]` images or `[N, T]` token ids).
        inputs: Tensor,
        /// One label per row of `inputs`.
        labels: Vec<usize>,
        /// Optional held-out inputs for per-epoch validation.
        val_inputs: Option<Tensor>,
        /// Labels for the held-out inputs.
        val_labels: Vec<usize>,
    },
    /// Language modelling on token windows.
    LanguageModel {
        /// Training windows, each `[B, T']`.
        windows: Vec<Tensor>,
        /// Validation windows.
        val_windows: Vec<Tensor>,
        /// Kept positions per output head (also visible inside the masked
        /// embedding specs; shipped explicitly for convenience).
        head_keeps: Vec<Vec<usize>>,
    },
}

/// One cloud training job: a serialized model plus its payload.
#[derive(Debug, Clone)]
pub struct CloudJob {
    /// The augmented model, as produced by `GraphModel::to_bytes`.
    pub model: Bytes,
    /// The training data.
    pub task: TaskPayload,
    /// Hyper-parameters.
    pub train: TrainConfig,
}

impl CloudJob {
    /// Exactly how many bytes [`to_bytes`](Self::to_bytes) writes, so it
    /// writes them into one allocation.
    fn encoded_len(&self) -> usize {
        let list = |len: usize, elem: usize| 4 + elem * len;
        let tensor = |t: &Tensor| list(t.dims().len(), 8) + 8 + 4 * t.numel();
        let task = match &self.task {
            TaskPayload::Classification {
                inputs,
                labels,
                val_inputs,
                val_labels,
            } => {
                let val = val_inputs
                    .as_ref()
                    .map_or(0, |v| tensor(v) + list(val_labels.len(), 8));
                tensor(inputs) + list(labels.len(), 8) + 1 + val
            }
            TaskPayload::LanguageModel {
                windows,
                val_windows,
                head_keeps,
            } => {
                let tensors = |ts: &[Tensor]| 4 + ts.iter().map(tensor).sum::<usize>();
                let keeps = head_keeps.iter().map(|k| list(k.len(), 8)).sum::<usize>();
                tensors(windows) + tensors(val_windows) + 4 + keeps
            }
        };
        list(self.model.len(), 1) + 8 + 8 + 4 + 4 + 8 + 1 + task
    }

    /// Serializes the whole job into one buffer (what "upload" means here).
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.put_bytes(&self.model);
        w.put_u64(self.train.epochs as u64);
        w.put_u64(self.train.batch_size as u64);
        w.put_f32(self.train.lr);
        w.put_f32(self.train.momentum);
        w.put_u64(self.train.seed);
        match &self.task {
            TaskPayload::Classification {
                inputs,
                labels,
                val_inputs,
                val_labels,
            } => {
                w.put_u8(0);
                w.put_tensor(inputs);
                w.put_usize_list(labels);
                match val_inputs {
                    Some(v) => {
                        w.put_u8(1);
                        w.put_tensor(v);
                        w.put_usize_list(val_labels);
                    }
                    None => w.put_u8(0),
                }
            }
            TaskPayload::LanguageModel {
                windows,
                val_windows,
                head_keeps,
            } => {
                w.put_u8(1);
                w.put_u32(windows.len() as u32);
                for t in windows {
                    w.put_tensor(t);
                }
                w.put_u32(val_windows.len() as u32);
                for t in val_windows {
                    w.put_tensor(t);
                }
                w.put_u32(head_keeps.len() as u32);
                for k in head_keeps {
                    w.put_usize_list(k);
                }
            }
        }
        w.finish()
    }

    /// Decodes a job uploaded with [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncated or malformed buffers.
    pub fn from_bytes(buf: Bytes) -> Result<CloudJob, CloudError> {
        let mut r = Reader::new(buf);
        let err = |e: amalgam_tensor::TensorError| CloudError::Decode(e.to_string());
        let model = r.get_bytes().map_err(err)?;
        let train = TrainConfig {
            epochs: r.get_u64().map_err(err)? as usize,
            batch_size: r.get_u64().map_err(err)? as usize,
            lr: r.get_f32().map_err(err)?,
            momentum: r.get_f32().map_err(err)?,
            seed: r.get_u64().map_err(err)?,
        };
        let task = match r.get_u8().map_err(err)? {
            0 => {
                let inputs = r.get_tensor().map_err(err)?;
                let labels = r.get_usize_list().map_err(err)?;
                let (val_inputs, val_labels) = if r.get_u8().map_err(err)? == 1 {
                    (
                        Some(r.get_tensor().map_err(err)?),
                        r.get_usize_list().map_err(err)?,
                    )
                } else {
                    (None, Vec::new())
                };
                TaskPayload::Classification {
                    inputs,
                    labels,
                    val_inputs,
                    val_labels,
                }
            }
            1 => {
                // The three counts below are attacker-chosen u32s; every
                // element they claim occupies at least one buffer byte, so
                // capping the pre-allocation at `remaining()` bounds memory
                // by the frame size while honest decodes still reserve
                // exactly once. A lying count then fails in the element
                // loop with a truncation error instead of a giant alloc.
                let n = r.get_u32().map_err(err)? as usize;
                let mut windows = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    windows.push(r.get_tensor().map_err(err)?);
                }
                let nv = r.get_u32().map_err(err)? as usize;
                let mut val_windows = Vec::with_capacity(nv.min(r.remaining()));
                for _ in 0..nv {
                    val_windows.push(r.get_tensor().map_err(err)?);
                }
                let nk = r.get_u32().map_err(err)? as usize;
                let mut head_keeps = Vec::with_capacity(nk.min(r.remaining()));
                for _ in 0..nk {
                    head_keeps.push(r.get_usize_list().map_err(err)?);
                }
                TaskPayload::LanguageModel {
                    windows,
                    val_windows,
                    head_keeps,
                }
            }
            t => return Err(CloudError::Decode(format!("unknown task tag {t}"))),
        };
        Ok(CloudJob { model, task, train })
    }
}

impl CloudError {
    /// Appends the error's wire encoding (tag byte + fields) to `w` — the
    /// error half of the transport's Reply frame. Every variant
    /// round-trips, so a remote client sees exactly the error an
    /// in-process client would, including [`CloudError::RateLimited`]'s
    /// retry-after.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        match self {
            CloudError::ServiceUnavailable => w.put_u8(0),
            CloudError::Decode(msg) => {
                w.put_u8(1);
                w.put_str(msg);
            }
            CloudError::BadJob(msg) => {
                w.put_u8(2);
                w.put_str(msg);
            }
            CloudError::Overloaded {
                queue_depth,
                max_queue_depth,
            } => {
                w.put_u8(3);
                w.put_u64(*queue_depth as u64);
                w.put_u64(*max_queue_depth as u64);
            }
            CloudError::Panicked(msg) => {
                w.put_u8(4);
                w.put_str(msg);
            }
            CloudError::Transport(msg) => {
                w.put_u8(5);
                w.put_str(msg);
            }
            CloudError::Unauthorized(msg) => {
                w.put_u8(6);
                w.put_str(msg);
            }
            CloudError::Handshake(msg) => {
                w.put_u8(7);
                w.put_str(msg);
            }
            CloudError::RateLimited { retry_after_ms } => {
                w.put_u8(8);
                w.put_u64(*retry_after_ms);
            }
            CloudError::Cancelled => w.put_u8(9),
        }
    }

    /// Decodes an error written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncated fields or unknown tags
    /// (the outer `Result` — the inner, successfully decoded error is the
    /// `Ok` value).
    pub(crate) fn decode_from(r: &mut Reader) -> Result<CloudError, CloudError> {
        let err = |e: amalgam_tensor::TensorError| CloudError::Decode(e.to_string());
        Ok(match r.get_u8().map_err(err)? {
            0 => CloudError::ServiceUnavailable,
            1 => CloudError::Decode(r.get_str().map_err(err)?),
            2 => CloudError::BadJob(r.get_str().map_err(err)?),
            3 => CloudError::Overloaded {
                queue_depth: r.get_u64().map_err(err)? as usize,
                max_queue_depth: r.get_u64().map_err(err)? as usize,
            },
            4 => CloudError::Panicked(r.get_str().map_err(err)?),
            5 => CloudError::Transport(r.get_str().map_err(err)?),
            6 => CloudError::Unauthorized(r.get_str().map_err(err)?),
            7 => CloudError::Handshake(r.get_str().map_err(err)?),
            8 => CloudError::RateLimited {
                retry_after_ms: r.get_u64().map_err(err)?,
            },
            9 => CloudError::Cancelled,
            t => return Err(CloudError::Decode(format!("unknown error tag {t}"))),
        })
    }
}

/// One per-epoch progress report, streamed while a job trains.
///
/// Progress updates are advisory: they ride the transport's `Progress`
/// frame, and a dropped update never affects the job's final
/// [`JobResult`]. The epoch index counts
/// *completed* epochs, so `epoch == total_epochs` on the last update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// Epochs completed so far (1-based; the first update carries 1).
    pub epoch: u64,
    /// Total epochs the job will run.
    pub total_epochs: u64,
    /// Mean training loss of the epoch just completed.
    pub train_loss: f32,
    /// Mean training accuracy of the epoch just completed (0 for language
    /// modelling tasks, which report loss only).
    pub train_acc: f32,
}

impl ProgressUpdate {
    /// Appends the update's wire fields (no tag) to `w`.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        w.put_u64(self.total_epochs);
        w.put_f32(self.train_loss);
        w.put_f32(self.train_acc);
    }

    /// Decodes fields written by [`encode_into`](Self::encode_into).
    pub(crate) fn decode_from(r: &mut Reader) -> Result<ProgressUpdate, CloudError> {
        let err = |e: amalgam_tensor::TensorError| CloudError::Decode(e.to_string());
        Ok(ProgressUpdate {
            epoch: r.get_u64().map_err(err)?,
            total_epochs: r.get_u64().map_err(err)?,
            train_loss: r.get_f32().map_err(err)?,
            train_acc: r.get_f32().map_err(err)?,
        })
    }
}

/// What the cloud returns after training.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Service-assigned id of the job this result answers (matches
    /// `JobHandle::id`).
    pub job_id: u64,
    /// The trained augmented model (serialized).
    pub trained_model: Bytes,
    /// Cloud-side training history (head 0's metrics — the cloud cannot know
    /// which head matters).
    pub history: History,
    /// Bytes the cloud received (the "upload" size).
    pub bytes_received: usize,
    /// Bytes the cloud sent back.
    pub bytes_sent: usize,
    /// Wall-clock training seconds on the cloud.
    pub train_seconds: f64,
}

impl JobResult {
    /// The result's encoding in three parts — what precedes the trained
    /// model, the model's own bytes (shared, not copied), what follows —
    /// whose concatenation is [`to_bytes`](Self::to_bytes). The transport
    /// sends the three as they are, so a reply's model crosses a tier
    /// without being copied into a frame buffer.
    ///
    /// # Panics
    ///
    /// Panics if the model is longer than `u32::MAX` bytes (its prefix
    /// width), as [`to_bytes`](Self::to_bytes) always did.
    pub fn encode_parts(&self) -> [Bytes; 3] {
        let h = &self.history;
        let lists = [
            &h.train_loss,
            &h.train_acc,
            &h.val_loss,
            &h.val_acc,
            &h.epoch_secs,
        ];
        let mut before = Writer::with_capacity(12);
        before.put_u64(self.job_id);
        before.put_u32(
            u32::try_from(self.trained_model.len()).expect("trained model exceeds u32 prefix"),
        );
        let floats: usize = lists.iter().map(|l| l.len()).sum();
        let mut after = Writer::with_capacity(4 * lists.len() + 4 * floats + 24);
        for list in lists {
            after.put_f32_list(list);
        }
        after.put_u64(self.bytes_received as u64);
        after.put_u64(self.bytes_sent as u64);
        after.put_f64(self.train_seconds);
        [before.finish(), self.trained_model.clone(), after.finish()]
    }

    /// Serializes the result for the return leg of the wire (the transport's
    /// `Reply` frame body).
    pub fn to_bytes(&self) -> Bytes {
        let parts = self.encode_parts();
        let mut w = Writer::with_capacity(parts.iter().map(Bytes::len).sum());
        for part in &parts {
            w.put_slice(part);
        }
        w.finish()
    }

    /// Decodes a result written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncated or malformed buffers.
    pub fn from_bytes(buf: Bytes) -> Result<JobResult, CloudError> {
        let mut r = Reader::new(buf);
        let err = |e: amalgam_tensor::TensorError| CloudError::Decode(e.to_string());
        let job_id = r.get_u64().map_err(err)?;
        let trained_model = r.get_bytes().map_err(err)?;
        let history = History {
            train_loss: r.get_f32_list().map_err(err)?,
            train_acc: r.get_f32_list().map_err(err)?,
            val_loss: r.get_f32_list().map_err(err)?,
            val_acc: r.get_f32_list().map_err(err)?,
            epoch_secs: r.get_f32_list().map_err(err)?,
        };
        let bytes_received = r.get_u64().map_err(err)? as usize;
        let bytes_sent = r.get_u64().map_err(err)? as usize;
        let train_seconds = r.get_f64().map_err(err)?;
        if r.remaining() != 0 {
            return Err(CloudError::Decode(format!(
                "{} trailing bytes after job result",
                r.remaining()
            )));
        }
        Ok(JobResult {
            job_id,
            trained_model,
            history,
            bytes_received,
            bytes_sent,
            train_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_tensor::Rng;

    #[test]
    fn classification_job_roundtrip() {
        let mut rng = Rng::seed_from(0);
        let job = CloudJob {
            model: Bytes::from_static(b"model-bytes"),
            task: TaskPayload::Classification {
                inputs: Tensor::randn(&[4, 1, 2, 2], &mut rng),
                labels: vec![0, 1, 0, 1],
                val_inputs: Some(Tensor::randn(&[2, 1, 2, 2], &mut rng)),
                val_labels: vec![1, 0],
            },
            train: TrainConfig::new(3, 2, 0.1).with_seed(9),
        };
        assert_eq!(job.to_bytes().len(), job.encoded_len());
        let back = CloudJob::from_bytes(job.to_bytes()).unwrap();
        assert_eq!(back.model, job.model);
        assert_eq!(back.train.epochs, 3);
        assert_eq!(back.train.seed, 9);
        match back.task {
            TaskPayload::Classification {
                labels, val_labels, ..
            } => {
                assert_eq!(labels, vec![0, 1, 0, 1]);
                assert_eq!(val_labels, vec![1, 0]);
            }
            _ => panic!("wrong task kind"),
        }
    }

    #[test]
    fn lm_job_roundtrip() {
        let mut rng = Rng::seed_from(1);
        let job = CloudJob {
            model: Bytes::from_static(b"m"),
            task: TaskPayload::LanguageModel {
                windows: vec![Tensor::randn(&[2, 5], &mut rng)],
                val_windows: vec![],
                head_keeps: vec![vec![0, 1, 2], vec![1, 3, 4]],
            },
            train: TrainConfig::new(1, 2, 0.1),
        };
        assert_eq!(job.to_bytes().len(), job.encoded_len());
        let back = CloudJob::from_bytes(job.to_bytes()).unwrap();
        match back.task {
            TaskPayload::LanguageModel {
                head_keeps,
                windows,
                ..
            } => {
                assert_eq!(head_keeps, vec![vec![0, 1, 2], vec![1, 3, 4]]);
                assert_eq!(windows.len(), 1);
            }
            _ => panic!("wrong task kind"),
        }
    }

    #[test]
    fn job_result_roundtrip() {
        let result = JobResult {
            job_id: 42,
            trained_model: Bytes::from_static(b"trained"),
            history: History {
                train_loss: vec![1.0, 0.5],
                train_acc: vec![0.4, 0.9],
                val_loss: vec![0.7],
                val_acc: vec![0.8],
                epoch_secs: vec![0.01, 0.02],
            },
            bytes_received: 123,
            bytes_sent: 456,
            train_seconds: 1.25,
        };
        let back = JobResult::from_bytes(result.to_bytes()).unwrap();
        assert_eq!(back, result);
        // The model part is the result's own buffer, not a copy of it.
        let [_, model, _] = result.encode_parts();
        assert_eq!(model.as_ptr(), result.trained_model.as_ptr());
    }

    #[test]
    fn truncated_job_result_is_decode_error() {
        let result = JobResult {
            job_id: 1,
            trained_model: Bytes::from_static(b"m"),
            history: History::new(),
            bytes_received: 0,
            bytes_sent: 0,
            train_seconds: 0.0,
        };
        let bytes = result.to_bytes();
        let cut = bytes.slice(0..bytes.len() - 3);
        assert!(matches!(
            JobResult::from_bytes(cut),
            Err(CloudError::Decode(_))
        ));
    }

    /// An LM frame claiming u32::MAX windows must be rejected by the
    /// element loop hitting end-of-buffer, not by a multi-gigabyte
    /// `Vec::with_capacity` — the pre-allocation is capped at the bytes
    /// actually present.
    #[test]
    fn lm_job_with_lying_window_count_errors_without_huge_alloc() {
        let mut w = Writer::new();
        w.put_bytes(b"m"); // model
        w.put_u64(1); // epochs
        w.put_u64(1); // batch_size
        w.put_f32(0.1); // lr
        w.put_f32(0.0); // momentum
        w.put_u64(0); // seed
        w.put_u8(1); // LanguageModel tag
        w.put_u32(u32::MAX); // claimed window count, nothing follows
        assert!(matches!(
            CloudJob::from_bytes(w.finish()),
            Err(CloudError::Decode(_))
        ));
    }

    #[test]
    fn truncated_job_is_decode_error() {
        let mut rng = Rng::seed_from(2);
        let job = CloudJob {
            model: Bytes::from_static(b"abc"),
            task: TaskPayload::Classification {
                inputs: Tensor::randn(&[1, 1, 2, 2], &mut rng),
                labels: vec![0],
                val_inputs: None,
                val_labels: vec![],
            },
            train: TrainConfig::new(1, 1, 0.1),
        };
        let bytes = job.to_bytes();
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(matches!(
            CloudJob::from_bytes(cut),
            Err(CloudError::Decode(_))
        ));
    }
}
