//! Tower-style composable middleware for the cloud service.
//!
//! A job travels through a stack of [`JobService`]s, each produced by a
//! [`CloudLayer`]. The request (serialized payload + [`JobContext`]) flows
//! outside-in; the [`JobResult`] flows inside-out. [`ServiceBuilder`]
//! composes a stack; [`crate::CloudServiceBuilder`] assembles the default
//! one (see the crate docs for the diagram).

use crate::metrics::ServiceMetrics;
use crate::observer::CloudObserver;
use crate::protocol::{CloudJob, JobResult, TaskPayload};
use crate::telemetry::{JobTrace, SpanRecord, Stage, TraceId};
use crate::CloudError;
use amalgam_nn::graph::{GraphModel, NodeId};
use amalgam_nn::LayerSpec;
use bytes::Bytes;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Per-job state threaded through the stack alongside the raw payload.
///
/// Outer layers populate it (decode fills [`job`](Self::job) and
/// [`model`](Self::model), the observer tap fills
/// [`observer`](Self::observer)); inner layers and the trainer consume it.
#[derive(Debug)]
pub struct JobContext {
    /// Service-assigned id, unique per service instance.
    pub job_id: u64,
    /// Jobs already waiting in the queue when this one was submitted —
    /// what admission control judges.
    pub queue_depth_at_submit: usize,
    /// Size of the uploaded payload (set by the decode layer).
    pub bytes_received: usize,
    /// The decoded job, once the decode layer has run.
    pub job: Option<CloudJob>,
    /// The decoded model, once the decode layer has run.
    pub model: Option<GraphModel>,
    /// The adversary's vantage point, installed by the observer layer.
    pub observer: Option<Arc<Mutex<dyn CloudObserver>>>,
    /// The session's API key: negotiated at the transport handshake for
    /// remote jobs, or stamped by [`crate::CloudClient::with_api_key`] for
    /// in-process ones. Judged by [`ApiKeyLayer`].
    pub api_key: Option<Arc<str>>,
    /// The submitting session's identity — what the fair scheduler queues
    /// by and [`crate::RateLimitLayer`] buckets by.
    pub session: SessionKey,
    /// When the job was submitted (not dequeued): the instant the rate
    /// limiter judges, so queueing delay neither hides nor penalizes a
    /// session's submit rate.
    pub submitted_at: Instant,
    /// The payload's canonical content address, stamped at submit time
    /// when dedup is enabled ([`crate::CloudServiceBuilder::result_cache`]);
    /// the [`crate::DedupLayer`] caches successful results under it.
    /// `None` when dedup is off.
    pub content_address: Option<crate::hash::ContentAddress>,
    /// The job's end-to-end trace id: carried over the wire for remote
    /// jobs submitted with one, minted at enqueue otherwise (while
    /// telemetry is on; [`TraceId::NONE`] when it is off).
    pub trace: TraceId,
    /// Whether the per-stage timing wrappers should record spans for this
    /// job (copied from the service's telemetry switch at dequeue, so the
    /// disabled path skips every clock read).
    pub record_spans: bool,
    /// Microseconds the job waited between submit and dequeue, stamped by
    /// the worker loop before the stack runs.
    pub queue_wait_us: u64,
    /// Per-stage spans, pushed **innermost-first** as the stack unwinds
    /// (each stage's duration includes everything beneath it); the metrics
    /// layer turns them into histogram updates and a flight-recorder
    /// [`JobTrace`].
    pub spans: Vec<SpanRecord>,
    /// Where [`emit_progress`](Self::emit_progress) delivers, when anyone
    /// is listening: the submitter's handle or transport session, plus —
    /// for a dedup executor — every coalesced waiter.
    pub(crate) progress: Option<crate::service::ProgressSink>,
    /// The submitter's cooperative cancellation token (see
    /// [`cancelled`](Self::cancelled)). `None` for contexts built outside
    /// the worker loop.
    pub(crate) cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// The service's checkpoint policy, when durability is configured
    /// ([`crate::CloudServiceBuilder::checkpoint_store`]).
    pub(crate) checkpoint: Option<crate::checkpoint::CheckpointConfig>,
    /// The shared lifecycle counters (epochs trained, checkpoints written,
    /// resumes), so the trainer can account without a metrics layer above.
    pub(crate) metrics: Option<Arc<ServiceMetrics>>,
}

impl JobContext {
    /// A fresh context for one dequeued job.
    pub fn new(job_id: u64, queue_depth_at_submit: usize) -> JobContext {
        JobContext {
            job_id,
            queue_depth_at_submit,
            bytes_received: 0,
            job: None,
            model: None,
            observer: None,
            api_key: None,
            session: SessionKey::Anonymous(0),
            submitted_at: Instant::now(),
            content_address: None,
            trace: TraceId::NONE,
            record_spans: false,
            queue_wait_us: 0,
            spans: Vec::new(),
            progress: None,
            cancel: None,
            checkpoint: None,
            metrics: None,
        }
    }

    /// Whether the submitter has cancelled this job. The trainer polls this
    /// at every epoch boundary and resolves with
    /// [`CloudError::Cancelled`]; middleware
    /// may poll it too to shed work early.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Emits one per-epoch progress update toward whoever is listening —
    /// the submitting handle, the transport session, and every
    /// dedup-coalesced waiter. Advisory and lossless in
    /// accounting: every emission is counted, and ends up either delivered
    /// or dropped (see [`crate::ServiceStats::progress_frames_emitted`]).
    ///
    /// Returns `false` when *no* consumer of this job's final result is
    /// reachable any more — the handle was dropped, the connection died,
    /// and every coalesced waiter with them. The trainer treats that as
    /// abandonment: it stops at the next epoch boundary with
    /// [`CloudError::Cancelled`], keeping
    /// its checkpoint so a resubmission resumes rather than recomputes.
    /// Contexts with no progress sink at all report `true` (nothing is
    /// known about the consumer, so the job runs to completion).
    pub fn emit_progress(&self, update: crate::ProgressUpdate) -> bool {
        match &self.progress {
            Some(sink) => sink.emit(update),
            None => true,
        }
    }
}

/// Saturating microseconds of a [`Duration`].
pub(crate) fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One stage of the cloud's processing pipeline.
///
/// Implementations either transform/inspect and delegate to an inner
/// service, or (innermost) do the actual work.
pub trait JobService: Send + Sync {
    /// Processes one job.
    ///
    /// # Errors
    ///
    /// Returns the stage's own [`CloudError`] or propagates the inner one.
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError>;
}

/// A factory wrapping an inner [`JobService`] with one middleware stage
/// (Tower's `Layer`, monomorphised to boxed services).
pub trait CloudLayer: Send + Sync {
    /// Wraps `inner`, returning the composed service.
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService>;

    /// Short name for diagnostics (`"decode"`, `"metrics"`, …).
    fn name(&self) -> &'static str;
}

/// Composes [`CloudLayer`]s into one service. Layers added first sit
/// **outermost**: requests traverse them in insertion order.
#[derive(Default)]
pub struct ServiceBuilder {
    layers: Vec<Box<dyn CloudLayer>>,
}

impl ServiceBuilder {
    /// An empty stack.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder { layers: Vec::new() }
    }

    /// Adds a layer inside all previously added ones.
    #[must_use]
    pub fn layer(mut self, layer: impl CloudLayer + 'static) -> ServiceBuilder {
        self.layers.push(Box::new(layer));
        self
    }

    /// Adds an already-boxed layer inside all previously added ones.
    #[must_use]
    pub fn layer_boxed(mut self, layer: Box<dyn CloudLayer>) -> ServiceBuilder {
        self.layers.push(layer);
        self
    }

    /// The stack's layer names, outermost first.
    pub fn names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Wraps `innermost` with every layer, outermost-first composition.
    pub fn service(self, innermost: Box<dyn JobService>) -> Box<dyn JobService> {
        self.layers
            .into_iter()
            .rev()
            .fold(innermost, |inner, layer| layer.wrap(inner))
    }
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("layers", &self.names())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Decodes the wire payload into a [`CloudJob`] + [`GraphModel`] and stores
/// both in the context for the layers beneath.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeLayer;

struct DecodeSvc {
    inner: Box<dyn JobService>,
}

impl CloudLayer for DecodeLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(DecodeSvc { inner })
    }

    fn name(&self) -> &'static str {
        "decode"
    }
}

impl JobService for DecodeSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        ctx.bytes_received = payload.len();
        let job = CloudJob::from_bytes(payload.clone())?;
        let model = GraphModel::from_bytes(job.model.clone())
            .map_err(|e| CloudError::Decode(e.to_string()))?;
        ctx.job = Some(job);
        ctx.model = Some(model);
        self.inner.call(ctx, payload)
    }
}

// ---------------------------------------------------------------------------
// Validate
// ---------------------------------------------------------------------------

/// Rejects malformed jobs (the `BadJob` checks, out of the trainer's path).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateLayer;

struct ValidateSvc {
    inner: Box<dyn JobService>,
}

impl CloudLayer for ValidateLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(ValidateSvc { inner })
    }

    fn name(&self) -> &'static str {
        "validate"
    }
}

impl JobService for ValidateSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        let job = ctx.job.as_ref().ok_or_else(|| {
            CloudError::BadJob("validate layer needs a decode layer above it".into())
        })?;
        let model = ctx.model.as_ref().ok_or_else(|| {
            CloudError::BadJob("validate layer needs a decode layer above it".into())
        })?;
        if model.outputs().is_empty() {
            return Err(CloudError::BadJob("model declares no outputs".into()));
        }
        // From here on, the preconditions of Algorithm 1
        // (`amalgam_core::trainer::train_with` asserts them): on bytes from
        // the wire they are the submitter's error, not a worker's panic.
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
        self.inner.call(ctx, payload)
    }
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

// ---------------------------------------------------------------------------
// Observer tap
// ---------------------------------------------------------------------------

/// Feeds everything the cloud legitimately sees to a [`CloudObserver`] —
/// the honest-but-curious provider as a middleware stage instead of a
/// parameter threaded through the training loops.
pub struct ObserverLayer {
    observer: Arc<Mutex<dyn CloudObserver>>,
}

impl ObserverLayer {
    /// A tap feeding `observer`.
    pub fn new(observer: Arc<Mutex<dyn CloudObserver>>) -> ObserverLayer {
        ObserverLayer { observer }
    }
}

impl std::fmt::Debug for ObserverLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ObserverLayer")
    }
}

struct ObserverSvc {
    observer: Arc<Mutex<dyn CloudObserver>>,
    inner: Box<dyn JobService>,
}

impl CloudLayer for ObserverLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(ObserverSvc {
            observer: Arc::clone(&self.observer),
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "observer"
    }
}

impl JobService for ObserverSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        if let Some(model) = ctx.model.as_ref() {
            self.observer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_model(model);
        }
        ctx.observer = Some(Arc::clone(&self.observer));
        let result = self.inner.call(ctx, payload);
        if let Ok(r) = &result {
            self.observer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_result(r);
        }
        result
    }
}

// ---------------------------------------------------------------------------
// Per-stage timing
// ---------------------------------------------------------------------------

/// Wraps another layer so every call through it is timed as one
/// [`SpanRecord`] (stage from the layer's [`CloudLayer::name`]). The timer
/// sits *outside* the wrapped layer's service, so a span's duration is
/// inclusive — the layer plus everything beneath it — and the strictly
/// nested spans let the metrics layer recover per-stage self times by
/// subtraction, without a second clock read per layer.
pub struct TimedLayer {
    inner: Box<dyn CloudLayer>,
}

impl TimedLayer {
    /// Times every call through `layer`.
    pub fn new(layer: Box<dyn CloudLayer>) -> TimedLayer {
        TimedLayer { inner: layer }
    }

    /// Wraps a bare service (no layer) as `stage` — used for the innermost
    /// trainer, which is a service rather than a layer.
    pub(crate) fn wrap_service(stage: Stage, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(TimedSvc { stage, inner })
    }
}

impl std::fmt::Debug for TimedLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedLayer")
            .field("layer", &self.inner.name())
            .finish()
    }
}

impl CloudLayer for TimedLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(TimedSvc {
            stage: Stage::from_layer_name(self.inner.name()),
            inner: self.inner.wrap(inner),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TimedSvc {
    stage: Stage,
    inner: Box<dyn JobService>,
}

impl JobService for TimedSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        if !ctx.record_spans {
            return self.inner.call(ctx, payload);
        }
        let start_us = duration_us(ctx.submitted_at.elapsed());
        let t0 = Instant::now();
        let result = self.inner.call(ctx, payload);
        ctx.spans.push(SpanRecord {
            stage: self.stage,
            start_us,
            dur_us: duration_us(t0.elapsed()),
            ok: result.is_ok(),
        });
        result
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Records per-job latency, bytes in/out and outcome counters into the
/// shared [`ServiceMetrics`] (snapshot via [`crate::CloudService::stats`]).
pub struct MetricsLayer {
    metrics: Arc<ServiceMetrics>,
}

impl MetricsLayer {
    /// A recorder writing into `metrics`.
    pub fn new(metrics: Arc<ServiceMetrics>) -> MetricsLayer {
        MetricsLayer { metrics }
    }
}

impl std::fmt::Debug for MetricsLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsLayer")
    }
}

struct MetricsSvc {
    metrics: Arc<ServiceMetrics>,
    inner: Box<dyn JobService>,
}

impl CloudLayer for MetricsLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(MetricsSvc {
            metrics: Arc::clone(&self.metrics),
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "metrics"
    }
}

impl JobService for MetricsSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        let bytes_in = payload.len();
        let t0 = Instant::now();
        let _in_flight = self.metrics.job_started();
        let result = self.inner.call(ctx, payload);
        let elapsed = t0.elapsed();
        self.metrics.job_finished(bytes_in, &result, elapsed);
        self.metrics.session_finished(&ctx.session, &result);
        if ctx.record_spans {
            self.finalize_trace(ctx, result.is_ok());
        }
        result
    }
}

impl MetricsSvc {
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
            if tel.enabled() {
                tel.hist(span.stage)
                    .record(span.dur_us.saturating_sub(inner_us));
            }
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
            // span can end past the total (scheduler preemption between
            // two different clock reads used to allow exactly that).
            total_us: duration_us(ctx.submitted_at.elapsed()),
            ok,
            spans,
        });
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Sheds load: jobs submitted while more than `max_queue_depth` jobs were
/// already waiting are answered with [`CloudError::Overloaded`] instead of
/// being trained.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionLayer {
    max_queue_depth: usize,
}

impl AdmissionLayer {
    /// Rejects jobs that found more than `max_queue_depth` jobs queued.
    pub fn new(max_queue_depth: usize) -> AdmissionLayer {
        AdmissionLayer { max_queue_depth }
    }
}

struct AdmissionSvc {
    max_queue_depth: usize,
    inner: Box<dyn JobService>,
}

impl CloudLayer for AdmissionLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(AdmissionSvc {
            max_queue_depth: self.max_queue_depth,
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "admission"
    }
}

impl JobService for AdmissionSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        if ctx.queue_depth_at_submit > self.max_queue_depth {
            return Err(CloudError::Overloaded {
                queue_depth: ctx.queue_depth_at_submit,
                max_queue_depth: self.max_queue_depth,
            });
        }
        self.inner.call(ctx, payload)
    }
}

// ---------------------------------------------------------------------------
// API-key auth
// ---------------------------------------------------------------------------

/// Refuses jobs whose session key is missing or unknown, while the payload
/// is still the raw framed bytes — an unauthenticated upload is never
/// decoded, validated or trained.
///
/// The key itself is session state (the transport handshake, or
/// [`crate::CloudClient::with_api_key`] in-process), not payload bytes, so
/// one check covers every job of a connection without re-parsing frames.
pub struct ApiKeyLayer {
    keys: Arc<std::collections::HashSet<String>>,
}

impl ApiKeyLayer {
    /// Accepts exactly the given keys.
    pub fn new<I, S>(keys: I) -> ApiKeyLayer
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ApiKeyLayer {
            keys: Arc::new(keys.into_iter().map(Into::into).collect()),
        }
    }
}

impl std::fmt::Debug for ApiKeyLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiKeyLayer")
            .field("keys", &self.keys.len())
            .finish()
    }
}

struct ApiKeySvc {
    keys: Arc<std::collections::HashSet<String>>,
    inner: Box<dyn JobService>,
}

impl CloudLayer for ApiKeyLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(ApiKeySvc {
            keys: Arc::clone(&self.keys),
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "auth"
    }
}

impl JobService for ApiKeySvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        match ctx.api_key.as_deref() {
            Some(key) if self.keys.contains(key) => self.inner.call(ctx, payload),
            Some(_) => Err(CloudError::Unauthorized("unknown API key".into())),
            None => Err(CloudError::Unauthorized("no API key presented".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// Panic catching
// ---------------------------------------------------------------------------

/// Converts panics anywhere beneath it into [`CloudError::Panicked`], so a
/// poisoned job cannot take a worker thread down with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanicLayer;

struct PanicSvc {
    inner: Box<dyn JobService>,
}

impl CloudLayer for PanicLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(PanicSvc { inner })
    }

    fn name(&self) -> &'static str {
        "panic"
    }
}

impl JobService for PanicSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        match catch_unwind(AssertUnwindSafe(|| self.inner.call(ctx, payload))) {
            Ok(result) => result,
            Err(cause) => Err(CloudError::Panicked(panic_message(&*cause))),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Innermost test service that echoes a fixed result.
    struct Probe;

    impl JobService for Probe {
        fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
            Ok(JobResult {
                job_id: ctx.job_id,
                trained_model: payload,
                history: amalgam_nn::metrics::History::new(),
                bytes_received: ctx.bytes_received,
                bytes_sent: 0,
                train_seconds: 0.0,
            })
        }
    }

    struct TagLayer(&'static str, Arc<Mutex<Vec<&'static str>>>);
    struct TagSvc(
        &'static str,
        Arc<Mutex<Vec<&'static str>>>,
        Box<dyn JobService>,
    );

    impl CloudLayer for TagLayer {
        fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
            Box::new(TagSvc(self.0, Arc::clone(&self.1), inner))
        }
        fn name(&self) -> &'static str {
            self.0
        }
    }

    impl JobService for TagSvc {
        fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
            self.1.lock().unwrap().push(self.0);
            self.2.call(ctx, payload)
        }
    }

    #[test]
    fn layers_run_outside_in_insertion_order() {
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let svc = ServiceBuilder::new()
            .layer(TagLayer("outer", Arc::clone(&order)))
            .layer(TagLayer("middle", Arc::clone(&order)))
            .layer(TagLayer("inner", Arc::clone(&order)))
            .service(Box::new(Probe));
        let mut ctx = JobContext::new(1, 0);
        svc.call(&mut ctx, Bytes::new()).unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["outer", "middle", "inner"]);
    }

    #[test]
    fn panic_layer_converts_unwind_to_error() {
        struct Bomb;
        impl JobService for Bomb {
            fn call(&self, _: &mut JobContext, _: Bytes) -> Result<JobResult, CloudError> {
                panic!("kaboom {}", 7);
            }
        }
        let svc = ServiceBuilder::new()
            .layer(PanicLayer)
            .service(Box::new(Bomb));
        let mut ctx = JobContext::new(2, 0);
        match svc.call(&mut ctx, Bytes::new()) {
            Err(CloudError::Panicked(msg)) => assert!(msg.contains("kaboom 7"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn admission_layer_sheds_deep_queues() {
        let svc = ServiceBuilder::new()
            .layer(AdmissionLayer::new(2))
            .service(Box::new(Probe));
        let mut shallow = JobContext::new(3, 2);
        assert!(svc.call(&mut shallow, Bytes::new()).is_ok());
        let mut deep = JobContext::new(4, 3);
        assert!(matches!(
            svc.call(&mut deep, Bytes::new()),
            Err(CloudError::Overloaded {
                queue_depth: 3,
                max_queue_depth: 2
            })
        ));
    }

    #[test]
    fn api_key_layer_gates_on_session_key() {
        let svc = ServiceBuilder::new()
            .layer(ApiKeyLayer::new(["secret-1", "secret-2"]))
            .service(Box::new(Probe));
        // No key.
        let mut ctx = JobContext::new(7, 0);
        assert!(matches!(
            svc.call(&mut ctx, Bytes::new()),
            Err(CloudError::Unauthorized(_))
        ));
        // Wrong key.
        let mut ctx = JobContext::new(8, 0);
        ctx.api_key = Some(Arc::from("nope"));
        assert!(matches!(
            svc.call(&mut ctx, Bytes::new()),
            Err(CloudError::Unauthorized(_))
        ));
        // Known key.
        let mut ctx = JobContext::new(9, 0);
        ctx.api_key = Some(Arc::from("secret-2"));
        assert!(svc.call(&mut ctx, Bytes::new()).is_ok());
    }

    #[test]
    fn validate_layer_requires_decode_above() {
        let svc = ServiceBuilder::new()
            .layer(ValidateLayer)
            .service(Box::new(Probe));
        let mut ctx = JobContext::new(5, 0);
        assert!(matches!(
            svc.call(&mut ctx, Bytes::new()),
            Err(CloudError::BadJob(_))
        ));
    }
}
