//! The one job pipeline: what a worker does with each dequeued job, from
//! the raw payload to its [`JobResult`].
//!
//! The stages run in one fixed order — the configured gates, then decode,
//! validation, the observer's tap and Algorithm 1 (the crate docs list the
//! order and why). A stage that is not configured is not in the list at
//! all. Every stage is timed as one inclusive [`SpanRecord`] around the
//! stages after it, so the spans nest strictly and a stage's self time is
//! its span minus the next one's.

use crate::cache::DedupShared;
use crate::checkpoint::{load_for_resume, Checkpoint, CheckpointStore};
use crate::hash::ContentAddress;
use crate::metrics::ServiceMetrics;
use crate::observer::CloudObserver;
use crate::protocol::{CloudJob, JobResult, ProgressUpdate, TaskPayload};
use crate::ratelimit::RateLimiter;
use crate::service::{CancelFlag, ProgressSink};
use crate::telemetry::{JobTrace, SpanRecord, Stage, TraceId};
use crate::CloudError;
use amalgam_core::trainer::{train_with, EvalSource, Task, TrainHooks};
use amalgam_nn::graph::{GraphModel, NodeId};
use amalgam_nn::metrics::History;
use amalgam_nn::optim::Sgd;
use amalgam_nn::LayerSpec;
use amalgam_tensor::Tensor;
use bytes::Bytes;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The identity rate limiting and fair scheduling key on.
///
/// Every [`crate::CloudClient`] and every transport connection is one
/// *session*: an authenticated one is identified by its API key (all
/// connections presenting the same key share one queue, one token bucket
/// and one DRR weight), an anonymous one by a service-unique id minted when
/// the client — or the connection's session — was created. Clones of a
/// `CloudClient` share its session identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SessionKey {
    /// An unauthenticated session, identified by a service-unique id.
    Anonymous(u64),
    /// An authenticated session, identified by its API key.
    ApiKey(Arc<str>),
}

impl SessionKey {
    /// Human-readable name used to key per-session telemetry
    /// ([`crate::ServiceStats::sessions`]).
    pub fn display_name(&self) -> String {
        match self {
            SessionKey::Anonymous(id) => format!("session-{id}"),
            SessionKey::ApiKey(key) => key.to_string(),
        }
    }
}

/// Per-job state: built by the worker loop from the dequeued envelope,
/// filled in by the stages (decode sets `job` and `model`, the observer
/// stage `observer`) and consumed by the ones after them.
#[derive(Debug)]
pub(crate) struct JobContext {
    /// Service-assigned id, unique per service instance.
    pub(crate) job_id: u64,
    /// Jobs already waiting when this one was submitted — what admission
    /// control judges.
    pub(crate) queue_depth_at_submit: usize,
    /// Size of the uploaded payload (set by decode).
    pub(crate) bytes_received: usize,
    pub(crate) job: Option<CloudJob>,
    pub(crate) model: Option<GraphModel>,
    /// The adversary's vantage point, for the training loop's tap.
    pub(crate) observer: Option<Arc<Mutex<dyn CloudObserver>>>,
    /// The session's API key: negotiated at the transport handshake for
    /// remote jobs, or stamped by [`crate::CloudClient::with_api_key`].
    pub(crate) api_key: Option<Arc<str>>,
    /// What the fair scheduler queues by and the rate limiter buckets by.
    pub(crate) session: SessionKey,
    /// When the job was submitted (not dequeued): the instant the rate
    /// limiter judges, so queueing delay neither hides nor penalizes a
    /// session's submit rate, and the origin of every span offset.
    pub(crate) submitted_at: Instant,
    /// The payload's canonical content address, stamped at submit time
    /// when dedup or checkpointing is on: what dedup caches a result under
    /// and what checkpoints are keyed by.
    pub(crate) content_address: Option<ContentAddress>,
    /// The job's end-to-end trace id: carried over the wire for remote
    /// jobs submitted with one, minted at enqueue otherwise.
    pub(crate) trace: TraceId,
    /// Microseconds between submit and the start of the first stage.
    pub(crate) queue_wait_us: u64,
    /// Per-stage spans, pushed **innermost-first** as the stages return.
    pub(crate) spans: Vec<SpanRecord>,
    /// Where per-epoch progress goes: the submitter's sink, plus every
    /// coalesced waiter for a dedup executor.
    pub(crate) progress: ProgressSink,
    /// The submitter's cancellation token, polled at epoch boundaries.
    pub(crate) cancel: CancelFlag,
}

/// Saturating microseconds of a [`Duration`].
pub(crate) fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One configured stage, carrying what it judges by. Each runs its own
/// check or work around the stages after it.
pub(crate) enum Step {
    /// Converts a panic anywhere inside it into [`CloudError::Panicked`],
    /// so a poisoned job cannot take its worker down.
    CatchPanics,
    /// Answers jobs submitted while more than this many were queued with
    /// [`CloudError::Overloaded`].
    Admission(usize),
    /// Caches successful results under the job's content address (the
    /// read side runs at submit time, see [`crate::cache`]).
    Dedup(Arc<DedupShared>),
    /// Charges the session's token bucket at the job's submit instant.
    RateLimit(Arc<RateLimiter>),
    /// Refuses sessions whose API key is missing or not one of these,
    /// before a byte of the payload is decoded.
    Auth(Arc<[String]>),
    /// Wire bytes → [`CloudJob`] + [`GraphModel`].
    Decode,
    /// The `BadJob` checks, the training loop's preconditions among them.
    Validate,
    /// Feeds everything the cloud legitimately sees to the observer.
    Observer(Arc<Mutex<dyn CloudObserver>>),
    /// Algorithm 1 ([`train`]).
    Train,
}

impl Step {
    fn stage(&self) -> Stage {
        match self {
            Step::CatchPanics => Stage::Panic,
            Step::Admission(_) => Stage::Admission,
            Step::Dedup(_) => Stage::Dedup,
            Step::RateLimit(_) => Stage::RateLimit,
            Step::Auth(_) => Stage::Auth,
            Step::Decode => Stage::Decode,
            Step::Validate => Stage::Validate,
            Step::Observer(_) => Stage::Observer,
            Step::Train => Stage::Train,
        }
    }
}

/// The service's configured stages (assembled by
/// [`crate::CloudServiceBuilder`]), shared by every worker.
pub(crate) struct Pipeline {
    pub(crate) metrics: Arc<ServiceMetrics>,
    /// Outermost first, ending in [`Step::Train`].
    pub(crate) steps: Vec<Step>,
    pub(crate) checkpoints: Option<Arc<dyn CheckpointStore>>,
}

impl Pipeline {
    /// Runs one job through every stage, then accounts its outcome: the
    /// outcome counters, the per-stage histograms and the flight-recorder
    /// trace. Outside every stage, so it sees each outcome, panics already
    /// converted to errors included.
    pub(crate) fn run(
        &self,
        ctx: &mut JobContext,
        payload: Bytes,
    ) -> Result<JobResult, CloudError> {
        let bytes_in = payload.len();
        let t0 = Instant::now();
        let _in_flight = self.metrics.job_started();
        let result = self.run_steps(&self.steps, ctx, payload);
        self.metrics.job_finished(bytes_in, &result, t0.elapsed());
        self.metrics.session_finished(&ctx.session, &result);
        self.finalize_trace(ctx, result.is_ok());
        result
    }

    /// Runs `steps[0]` around the rest of `steps`, as one span.
    fn run_steps(
        &self,
        steps: &[Step],
        ctx: &mut JobContext,
        payload: Bytes,
    ) -> Result<JobResult, CloudError> {
        let (step, inner) = steps.split_first().expect("the pipeline ends in Train");
        let next = |ctx: &mut JobContext, payload| self.run_steps(inner, ctx, payload);
        timed(ctx, step.stage(), |ctx| match step {
            Step::CatchPanics => catch_unwind(AssertUnwindSafe(|| next(ctx, payload)))
                .unwrap_or_else(|cause| Err(CloudError::Panicked(panic_message(&*cause)))),
            Step::Admission(max_queue_depth) => {
                if ctx.queue_depth_at_submit > *max_queue_depth {
                    return Err(CloudError::Overloaded {
                        queue_depth: ctx.queue_depth_at_submit,
                        max_queue_depth: *max_queue_depth,
                    });
                }
                next(ctx, payload)
            }
            Step::Dedup(shared) => {
                let result = next(ctx, payload);
                if let (Some(addr), Ok(r)) = (ctx.content_address, &result) {
                    shared.insert(addr, r, Instant::now());
                }
                result
            }
            Step::RateLimit(limiter) => {
                limiter.acquire(&ctx.session, ctx.submitted_at)?;
                next(ctx, payload)
            }
            Step::Auth(keys) => match ctx.api_key.as_deref() {
                Some(key) if keys.iter().any(|k| **k == *key) => next(ctx, payload),
                Some(_) => Err(CloudError::Unauthorized("unknown API key".into())),
                None => Err(CloudError::Unauthorized("no API key presented".into())),
            },
            Step::Decode => {
                ctx.bytes_received = payload.len();
                let job = CloudJob::from_bytes(payload.clone())?;
                let model = GraphModel::from_bytes(job.model.clone())
                    .map_err(|e| CloudError::Decode(e.to_string()))?;
                ctx.job = Some(job);
                ctx.model = Some(model);
                next(ctx, payload)
            }
            Step::Validate => {
                validate(
                    ctx.job.as_ref().expect(DECODED),
                    ctx.model.as_ref().expect(DECODED),
                )?;
                next(ctx, payload)
            }
            Step::Observer(observer) => {
                let model = ctx.model.as_ref().expect(DECODED);
                lock(observer).on_model(model);
                ctx.observer = Some(Arc::clone(observer));
                let result = next(ctx, payload);
                if let Ok(r) = &result {
                    lock(observer).on_result(r);
                }
                result
            }
            Step::Train => train(ctx, &self.metrics, self.checkpoints.as_deref()),
        })
    }

    /// Turns the job's span stack into histogram updates and one
    /// flight-recorder [`JobTrace`]. Spans arrive innermost-first and are
    /// strictly nested, so stage *self* time is each span's duration minus
    /// the one inside it; the trace stores them outermost-first with the
    /// queue wait in front.
    fn finalize_trace(&self, ctx: &mut JobContext, ok: bool) {
        let tel = self.metrics.telemetry();
        tel.record(Stage::QueueWait, Duration::from_micros(ctx.queue_wait_us));
        let mut inner_us = 0u64;
        for span in &ctx.spans {
            tel.hist(span.stage)
                .record(span.dur_us.saturating_sub(inner_us));
            inner_us = span.dur_us;
        }
        let mut spans = Vec::with_capacity(ctx.spans.len() + 1);
        spans.push(SpanRecord {
            stage: Stage::QueueWait,
            start_us: 0,
            dur_us: ctx.queue_wait_us,
            ok: true,
        });
        spans.extend(ctx.spans.iter().rev().copied());
        tel.recorder().push(JobTrace {
            trace: ctx.trace,
            job_id: ctx.job_id,
            // Same clock the spans' offsets are measured against, so no
            // span can end past the total.
            total_us: duration_us(ctx.submitted_at.elapsed()),
            ok,
            spans,
        });
    }
}

const DECODED: &str = "the decode stage runs first";

/// Runs `f` as one span of `stage`: its offset from the job's submit
/// instant, its inclusive duration — `f` and every stage it runs — and
/// whether it succeeded. A panic unwinding through `f` records nothing.
fn timed(
    ctx: &mut JobContext,
    stage: Stage,
    f: impl FnOnce(&mut JobContext) -> Result<JobResult, CloudError>,
) -> Result<JobResult, CloudError> {
    let t0 = Instant::now();
    let start_us = duration_us(t0.saturating_duration_since(ctx.submitted_at));
    let result = f(ctx);
    ctx.spans.push(SpanRecord {
        stage,
        start_us,
        dur_us: duration_us(t0.elapsed()),
        ok: result.is_ok(),
    });
    result
}

type Observed = dyn CloudObserver + 'static;

/// Locks the observer, recovering it from poison: an observer that
/// panicked in one job still observes the next.
fn lock(observer: &Mutex<Observed>) -> std::sync::MutexGuard<'_, Observed> {
    observer.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The `BadJob` checks: a model with outputs, and the preconditions of
/// Algorithm 1 (`amalgam_core::trainer::train_with` asserts them) — on
/// bytes from the wire they are the submitter's error, not a worker's
/// panic.
fn validate(job: &CloudJob, model: &GraphModel) -> Result<(), CloudError> {
    if model.outputs().is_empty() {
        return Err(CloudError::BadJob("model declares no outputs".into()));
    }
    let bad = |why: &str| Err(CloudError::BadJob(why.into()));
    match &job.task {
        TaskPayload::Classification {
            inputs,
            labels,
            val_inputs,
            val_labels,
        } => {
            if job.train.batch_size == 0 {
                return bad("batch size must be positive");
            }
            let Some(&batch) = inputs.dims().first() else {
                return bad("classification inputs must be batched");
            };
            if batch != labels.len() {
                return bad("label count mismatch");
            }
            if let Some(v) = val_inputs {
                let Some(&val_batch) = v.dims().first() else {
                    return bad("validation inputs must be batched");
                };
                if val_batch != val_labels.len() {
                    return bad("validation label count mismatch");
                }
            }
        }
        TaskPayload::LanguageModel {
            windows,
            val_windows,
            head_keeps,
        } => {
            if head_keeps.len() != model.outputs().len() {
                return bad("one keep list per head required");
            }
            for (keep, &head) in head_keeps.iter().zip(model.outputs()) {
                if keep.len() < 2 {
                    return bad("a head needs two kept positions for a next-token loss");
                }
                for window in windows.iter().chain(val_windows) {
                    let &[_, width] = window.dims() else {
                        return bad("token windows must be [B, T]");
                    };
                    if keep.iter().any(|&pos| pos >= width) {
                        return bad("kept position outside the window");
                    }
                    if head_positions(model, head, width).is_some_and(|t| t != keep.len()) {
                        return bad("keep list length differs from the head's positions");
                    }
                }
            }
        }
    }
    Ok(())
}

/// How many sequence positions `head` emits for `width`-token windows, where
/// the graph tells: as many as the embedding its first-input chain starts at
/// keeps (a plain embedding keeps the whole window).
fn head_positions(model: &GraphModel, head: NodeId, width: usize) -> Option<usize> {
    // Inputs only ever name earlier nodes, so the walk ends at a graph input.
    let (mut entry, mut id) = (head, head);
    while let Some(&up) = model.node(id).inputs().first() {
        (entry, id) = (id, up);
    }
    match model.node(entry).layer().spec() {
        LayerSpec::MaskedEmbedding { keep, .. } => Some(keep.len()),
        LayerSpec::Embedding { .. } => Some(width),
        _ => None,
    }
}

/// The innermost stage: runs the local trainer's own Algorithm 1
/// ([`train_with`]) on the decoded job under this job's hooks, then encodes
/// the trained model. No stage before it touches tensors.
fn train(
    ctx: &mut JobContext,
    metrics: &ServiceMetrics,
    checkpoints: Option<&dyn CheckpointStore>,
) -> Result<JobResult, CloudError> {
    let job = ctx.job.take().expect(DECODED);
    let mut model = ctx.model.take().expect(DECODED);
    let ctx = &*ctx;
    let mut hooks = JobHooks {
        ctx,
        metrics,
        checkpoint: checkpoints.zip(ctx.content_address),
        total_epochs: job.train.epochs,
        listening: true,
    };

    let t0 = Instant::now();
    let history = match &job.task {
        TaskPayload::Classification {
            inputs,
            labels,
            val_inputs,
            val_labels,
        } => {
            let val = val_inputs.as_ref().map(|v| (v, val_labels.as_slice()));
            let task = Task::Classification {
                n: labels.len(),
                batch_fn: &|idx| {
                    let batch_labels = idx.iter().map(|&i| labels[i]).collect();
                    (inputs.index_select_axis0(idx), batch_labels)
                },
                val: val.as_ref().map(|v| v as &dyn EvalSource),
            };
            train_with(&mut model, &task, 0, &job.train, &mut hooks)
        }
        TaskPayload::LanguageModel {
            windows,
            val_windows,
            head_keeps,
        } => {
            let task = Task::LanguageModel {
                train: windows,
                val: val_windows,
                head_keeps,
            };
            train_with(&mut model, &task, 0, &job.train, &mut hooks)
        }
    };
    // A run its hooks stopped at an epoch boundary comes back short.
    if history.epochs() < job.train.epochs {
        return Err(CloudError::Cancelled);
    }
    // The job is done: its checkpoint has served its purpose. (Failed
    // and cancelled jobs keep theirs, so a retry resumes.)
    if let Some((store, addr)) = hooks.checkpoint {
        store.remove(addr);
    }
    let train_seconds = t0.elapsed().as_secs_f64();
    model.clear_caches();
    let trained_model = model.to_bytes();
    Ok(JobResult {
        job_id: ctx.job_id,
        bytes_sent: trained_model.len(),
        trained_model,
        history,
        bytes_received: ctx.bytes_received,
        train_seconds,
    })
}

/// Everything the cloud adds around Algorithm 1, as the loop's hooks: the
/// observer's tap, cancellation, per-epoch progress and checkpoints.
struct JobHooks<'a> {
    ctx: &'a JobContext,
    metrics: &'a ServiceMetrics,
    /// Where this job's snapshots go, when durability is configured and
    /// the job has a content address to key them by.
    checkpoint: Option<(&'a dyn CheckpointStore, ContentAddress)>,
    total_epochs: usize,
    /// Whether anyone could still receive this job's result when the last
    /// epoch ended (see [`ProgressSink::emit`]).
    listening: bool,
}

impl TrainHooks for JobHooks<'_> {
    /// Restores this job's checkpoint, if durability is configured and a
    /// valid resumable snapshot exists under the job's content address. Any
    /// snapshot that fails validation — bad checksum, truncation,
    /// undecodable model bytes, impossible epoch — is scrubbed from the
    /// store and the job recomputes from epoch 0: corruption is loud in the
    /// stats but never poisons the store or the result.
    fn resume(&mut self, model: &mut GraphModel, opt: &mut Sgd, history: &mut History) -> usize {
        let Some((store, addr)) = self.checkpoint else {
            return 0;
        };
        let t0 = Instant::now();
        let (cp, rejected) = load_for_resume(store, addr, self.total_epochs as u64);
        if rejected {
            self.metrics.checkpoint_rejected();
        }
        let Some(cp) = cp else { return 0 };
        match GraphModel::from_bytes(cp.model.clone()) {
            Ok(restored) => *model = restored,
            Err(_) => {
                // Bytes that pass the checksum but no longer decode (a model
                // format bump, say): same policy as corruption.
                store.remove(addr);
                self.metrics.checkpoint_rejected();
                return 0;
            }
        }
        opt.set_velocity(cp.velocity);
        *history = cp.history;
        self.metrics.job_resumed();
        self.metrics
            .telemetry()
            .record(Stage::CheckpointRestore, t0.elapsed());
        cp.epoch as usize
    }

    /// Stops on the submitter's cancellation flag, or once every consumer
    /// of the result is gone — at epoch boundaries only, and the service
    /// answers [`CloudError::Cancelled`].
    fn epoch_start(&mut self, _epoch: usize) -> ControlFlow<()> {
        if self.ctx.cancel.load(Ordering::Relaxed) || !self.listening {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn on_batch(&mut self, inputs: &Tensor, labels: &[usize]) {
        if let Some(observer) = &self.ctx.observer {
            lock(observer).on_batch(inputs, labels);
        }
    }

    fn on_step(&mut self, model: &mut GraphModel) {
        if let Some(observer) = &self.ctx.observer {
            lock(observer).on_step(model);
        }
    }

    /// Counts the epoch, emits one progress frame, and snapshots a
    /// checkpoint after every epoch but the last — the job is then about
    /// to finish and delete its entry.
    fn epoch_end(&mut self, completed: usize, model: &GraphModel, opt: &Sgd, history: &History) {
        self.metrics.epoch_trained();
        self.listening = self.ctx.progress.emit(ProgressUpdate {
            epoch: completed as u64,
            total_epochs: self.total_epochs as u64,
            train_loss: history.train_loss.last().copied().unwrap_or(f32::NAN),
            train_acc: history.train_acc.last().copied().unwrap_or(0.0),
        });
        let Some((store, addr)) = self.checkpoint else {
            return;
        };
        if completed >= self.total_epochs {
            return;
        }
        let t0 = Instant::now();
        let cp = Checkpoint {
            epoch: completed as u64,
            model: model.to_bytes(),
            velocity: opt.velocity().to_vec(),
            history: history.clone(),
        };
        store.store(addr, cp.to_bytes());
        self.metrics.checkpoint_written();
        self.metrics
            .telemetry()
            .record(Stage::CheckpointWrite, t0.elapsed());
    }
}
