//! Simulated untrusted cloud for Amalgam.
//!
//! The paper uploads an augmented TorchScript model plus augmented tensors to
//! a Python-based cloud service (Colab, SageMaker, …). This crate stands in
//! for that trust boundary as a small production-shaped service: a
//! [`CloudService`] owns a pool of worker threads pulling **fully
//! serialized** jobs (model spec bytes + dataset tensors) off one shared
//! queue, and every job runs through a composable Tower-style middleware
//! stack before and after the paper's Algorithm 1 trains it.
//!
//! # The layer stack
//!
//! Requests flow outside-in, responses inside-out. With the
//! [`transport`] subsystem in front, the "wire" is a real TCP socket: a
//! [`RemoteCloudClient`] frames jobs onto a multiplexed connection, a
//! fixed pool of [`CloudServer`] reactor threads decodes every
//! connection's frames (no thread per connection), and the jobs land in
//! the same queue an in-process [`CloudClient`] uses — the middleware
//! stack cannot tell the two apart.
//!
//! ```text
//!   RemoteCloudClient::submit ──► TCP ──► CloudServer reactor pool  CloudClient::submit
//!   │ length-prefixed frames        │ handshake: version + API key       │ (in-process)
//!   │ jittered keep-alive pings     │ epoll/poll, io_threads loops       │
//!   │ request-id multiplexing       │ in-flight cap counts queued replies│
//!   └─────────────► [per-session queues · DRR drain] ◄──────────────────┘
//!                                               │ worker thread
//!                                               │ payload: Bytes
//!   ┌───────────────────────────────────────────▼─────────────────┐
//!   │ metrics     per-job latency, bytes in/out, jobs/sec         │
//!   │ ┌───────────────────────────────────────────────────────┐   │
//!   │ │ panic       catch_unwind → CloudError::Panicked       │   │
//!   │ │ ┌───────────────────────────────────────────────────┐ │   │
//!   │ │ │ admission   queue too deep → Overloaded           │ │   │
//!   │ │ │ ┌───────────────────────────────────────────────┐ │ │   │
//!   │ │ │ │ [dedup]     caches Ok results by address      │ │ │   │
//!   │ │ │ │ ratelimit   over session budget → RateLimited │ │ │   │
//!   │ │ │ │ ┌───────────────────────────────────────────┐ │ │ │   │
//!   │ │ │ │ │ auth        session API key → Unauthorized│ │ │ │   │
//!   │ │ │ │ │ ┌───────────────────────────────────────┐ │ │ │ │   │
//!   │ │ │ │ │ │ [custom layers from builder().layer()]│ │ │ │ │   │
//!   │ │ │ │ │ │ ┌───────────────────────────────────┐ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ decode     wire → CloudJob + model│ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ ┌───────────────────────────────┐ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ validate   the BadJob checks  │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ ┌───────────────────────────┐ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ │ observer  adversary's tap │ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ │ ┌───────────────────────┐ │ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ │ │ train   Algorithm 1   │ │ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ │ └───────────────────────┘ │ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ │ └───────────────────────────┘ │ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ │ └───────────────────────────────┘ │ │ │ │ │ │   │
//!   │ │ │ │ │ │ └───────────────────────────────────┘ │ │ │ │ │   │
//!   │ │ │ │ │ └───────────────────────────────────────┘ │ │ │ │   │
//!   │ │ │ │ └───────────────────────────────────────────┘ │ │ │   │
//!   │ │ │ └───────────────────────────────────────────────┘ │ │   │
//!   │ │ └───────────────────────────────────────────────────┘ │   │
//!   │ └───────────────────────────────────────────────────────┘   │
//!   └─────────────────────────────────────────────────────────────┘
//!                                               │ Result<JobResult, CloudError>
//!                                               ▼ reply channel → JobHandle /
//!                                                 Reply frame → RemoteJobHandle
//! ```
//!
//! * **metrics** is outermost so it observes every outcome, including
//!   panics already converted to errors by **panic**.
//! * **admission** judges the queue depth each job found at submit time;
//!   jobs past the configured watermark are answered with
//!   [`CloudError::Overloaded`] instead of being trained.
//! * **ratelimit** ([`CloudServiceBuilder::rate_limit`]) is the per-client
//!   half of overload policy: each session's token bucket admits a
//!   configured sustained rate plus burst, and jobs over budget are
//!   answered with [`CloudError::RateLimited`] carrying an honest
//!   `retry_after_ms` — judged against the job's *submit* instant, and
//!   round-tripping the wire codec so remote handles see the same error.
//! * **dedup** ([`CloudServiceBuilder::result_cache`], off by default)
//!   shares a box with ratelimit above because they are two halves of one
//!   policy: the layer caches successful results by the payload's
//!   [`ContentAddress`], while its read side runs at *submit* time —
//!   cache hits and in-flight duplicates are answered before the queue,
//!   never occupying a worker, yet still spend rate-limit tokens from the
//!   same per-session buckets. See the [`cache`] module docs.
//! * Custom layers sit between admission and **decode**, so they see the
//!   raw serialized payload — the exact bytes that crossed the wire.
//! * **validate** holds the `BadJob` checks, out of the trainer's path —
//!   including the training loop's own preconditions (a positive batch
//!   size, keep lists that fit their head and every window), so bytes from
//!   the wire that would trip one of its asserts are the submitter's
//!   error, not a worker's panic.
//! * **observer** feeds everything the cloud legitimately sees to a
//!   registered [`CloudObserver`] — the vantage point from which
//!   `amalgam-attacks` mounts its attacks. The layer is installed only
//!   when an observer is attached, so unobserved pools pay nothing for
//!   it. Notably absent from anything that crosses the wire: provenance
//!   tags, sub-network identities, and the client's insertion plan.
//! * **train** *is* the local trainer: [`TrainService`] calls
//!   `amalgam_core::trainer::train_with`, the one Algorithm 1 in the
//!   workspace, and plugs cancellation, progress, checkpoints and the
//!   observer's tap into it as that loop's hooks. Cloud and local training
//!   agree bit for bit, weights and history, because there is no second
//!   loop; middleware wraps it without touching tensors.
//!
//! * **auth** is installed by [`CloudServiceBuilder::api_keys`]: it checks
//!   the session-scoped API key (negotiated at the transport handshake, or
//!   stamped by [`CloudClient::with_api_key`] in-process) while the payload
//!   is still the raw framed bytes — unauthenticated uploads are refused
//!   before a single wire byte is decoded.
//!
//! Scale the pool with [`CloudServiceBuilder::workers`]. Jobs are queued
//! **per session** ([`middleware::SessionKey`]: API key, or anonymous
//! client/connection identity) and workers drain the sessions by deficit
//! round robin — optionally weighted via
//! [`CloudServiceBuilder::session_weight`] — so a flooding session buys
//! itself queue depth, never a larger share of the pool, and every
//! session's own jobs stay strictly FIFO.
//! [`CloudService::shutdown`] drains queued jobs before the workers exit.
//! Put the whole stack on a real wire with [`CloudServer::bind`] — the
//! framing and handshake formats are documented in [`transport`].

#![deny(missing_docs)]

mod builder;
pub mod cache;
pub mod checkpoint;
pub mod hash;
mod metrics;
pub mod middleware;
mod observer;
mod protocol;
mod queue;
pub mod ratelimit;
mod service;
pub mod telemetry;
pub mod transport;

pub use builder::CloudServiceBuilder;
pub use cache::{DedupLayer, ResultCache};
pub use checkpoint::{Checkpoint, CheckpointStore, FileCheckpointStore, MemoryCheckpointStore};
pub use hash::ContentAddress;
pub use metrics::{BackendHealth, BackendStats, ServiceMetrics, ServiceStats, SessionStats};
pub use middleware::{
    AdmissionLayer, ApiKeyLayer, CloudLayer, DecodeLayer, JobContext, JobService, MetricsLayer,
    ObserverLayer, PanicLayer, ServiceBuilder, SessionKey, TimedLayer, ValidateLayer,
};
pub use observer::{CloudObserver, RecordingObserver};
pub use protocol::{CloudJob, JobResult, ProgressUpdate, TaskPayload};
pub use ratelimit::{RateLimitLayer, TokenBucket};
pub use service::{CloudClient, CloudService, JobHandle, TrainService};
pub use telemetry::{
    FlightRecorder, Histogram, HistogramSnapshot, JobTrace, SpanRecord, Stage, Telemetry,
    TelemetryConfig, TraceId,
};
pub use transport::{
    ClientStats, CloudServer, ReconnectPolicy, RemoteCloudClient, RemoteJobHandle, TransportConfig,
};

/// Errors crossing the simulated cloud boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum CloudError {
    /// The service is gone (worker pool stopped or channel closed).
    ServiceUnavailable,
    /// A job or result failed to decode.
    Decode(String),
    /// The job was malformed (e.g. no output heads).
    BadJob(String),
    /// Admission control shed the job: it was submitted while the queue was
    /// deeper than the service's configured maximum.
    Overloaded {
        /// Jobs already waiting when this one was submitted.
        queue_depth: usize,
        /// The configured watermark.
        max_queue_depth: usize,
    },
    /// The session exceeded its per-session submit-rate budget
    /// ([`CloudServiceBuilder::rate_limit`]); retrying `retry_after_ms`
    /// milliseconds after the rejection is guaranteed a token (absent other
    /// submits on the same session).
    RateLimited {
        /// Milliseconds until the session's token bucket holds a whole
        /// token again.
        retry_after_ms: u64,
    },
    /// Processing panicked; the worker survived and the job was answered
    /// with the panic message.
    Panicked(String),
    /// A transport-level failure: socket I/O error, oversized or truncated
    /// frame, or the connection died mid-request.
    Transport(String),
    /// The session presented no API key, or one the service does not accept.
    Unauthorized(String),
    /// Protocol-version negotiation failed, or the peer broke the handshake.
    Handshake(String),
    /// The job was cancelled by its submitter before it finished; any
    /// dedup-coalesced waiters of the same content address receive the same
    /// outcome.
    Cancelled,
}

impl CloudError {
    /// The advisory back-off carried by [`CloudError::RateLimited`], as a
    /// [`std::time::Duration`]; `None` for every other variant. Works the
    /// same on a local [`JobHandle`] outcome and on a [`RemoteJobHandle`]
    /// one, because the variant round-trips the transport's Reply frame.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            CloudError::RateLimited { retry_after_ms } => {
                Some(std::time::Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::ServiceUnavailable => write!(f, "cloud service unavailable"),
            CloudError::Decode(msg) => write!(f, "decode error: {msg}"),
            CloudError::BadJob(msg) => write!(f, "bad job: {msg}"),
            CloudError::Overloaded {
                queue_depth,
                max_queue_depth,
            } => write!(
                f,
                "cloud overloaded: {queue_depth} jobs queued (max {max_queue_depth})"
            ),
            CloudError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited: retry after {retry_after_ms}ms")
            }
            CloudError::Panicked(msg) => write!(f, "cloud job panicked: {msg}"),
            CloudError::Transport(msg) => write!(f, "transport error: {msg}"),
            CloudError::Unauthorized(msg) => write!(f, "unauthorized: {msg}"),
            CloudError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            CloudError::Cancelled => write!(f, "job cancelled by its submitter"),
        }
    }
}

impl std::error::Error for CloudError {}
