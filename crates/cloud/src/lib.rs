//! Simulated untrusted cloud for Amalgam.
//!
//! The paper uploads an augmented TorchScript model plus augmented tensors to
//! a Python-based cloud service (Colab, SageMaker, …). This crate stands in
//! for that trust boundary as a small production-shaped service: a
//! [`CloudService`] owns a pool of worker threads pulling **fully
//! serialized** jobs (model spec bytes + dataset tensors) off per-session
//! queues, and every job runs through one fixed pipeline of stages around
//! the paper's Algorithm 1.
//!
//! # The job pipeline
//!
//! With the [`transport`] subsystem in front, the "wire" is a real TCP
//! socket: a [`RemoteCloudClient`] frames jobs onto a multiplexed
//! connection, a fixed pool of [`CloudServer`] reactor threads decodes every
//! connection's frames (no thread per connection), and the jobs land in
//! the same queues an in-process [`CloudClient`] uses — the pipeline cannot
//! tell the two apart.
//!
//! ```text
//!   RemoteCloudClient ──► TCP ──► CloudServer reactors      CloudClient
//!   (frames, pings,               (handshake: version +     (in-process)
//!    request-id multiplexing)      API key, in-flight cap)
//!          └──────────► [per-session queues · DRR drain] ◄──────┘
//!                                   │ worker thread, payload: Bytes
//!                                   ▼
//!   panic → admission → dedup → ratelimit → auth → decode → validate
//!         → observer → train
//!                                   │ Result<JobResult, CloudError>
//!                                   ▼ reply channel / Reply frame
//!                                     → JobHandle
//! ```
//!
//! A worker runs the stages in that order, each around the ones after it;
//! a stage that is not configured is skipped. Outside all of them the
//! pipeline counts every outcome — panics already converted to errors
//! included — and records the job's trace (each stage is one span, so
//! [`CloudService::telemetry`] shows where a job's time went).
//!
//! 1. **panic** (on unless [`CloudServiceBuilder::catch_panics`]`(false)`):
//!    a panic anywhere after it becomes [`CloudError::Panicked`] and the
//!    worker survives.
//! 2. **admission** ([`CloudServiceBuilder::max_queue_depth`]): a job that
//!    found the queue past the watermark at submit time is answered with
//!    [`CloudError::Overloaded`]. It comes first among the gates because it
//!    judges the whole service, not one session.
//! 3. **dedup** ([`CloudServiceBuilder::result_cache`]) caches a result by
//!    its payload's [`ContentAddress`] once it has passed every stage after
//!    this one, so a refused or failed job is never cached. Its read side
//!    runs at *submit* time: cache hits and in-flight duplicates are
//!    answered before the queue, never occupying a worker, yet still spend
//!    rate-limit tokens from the same per-session buckets. See the
//!    [`cache`] module docs.
//! 4. **ratelimit** ([`CloudServiceBuilder::rate_limit`]): each session's
//!    token bucket admits a sustained rate plus burst, judged at the job's
//!    *submit* instant; over-budget jobs get [`CloudError::RateLimited`]
//!    with an honest `retry_after_ms`, remote and local alike.
//! 5. **auth** ([`CloudServiceBuilder::api_keys`]) checks the session's API
//!    key (from the transport handshake, or
//!    [`CloudClient::with_api_key`] in-process) while the payload is still
//!    raw bytes. The three gates before decode are cheap and touch no
//!    tensor, so a flood or an unauthenticated upload is shed before a
//!    single wire byte is decoded.
//! 6. **decode** turns the wire bytes into a [`CloudJob`] and its model.
//! 7. **validate** holds the `BadJob` checks — the training loop's own
//!    preconditions among them (a positive batch size, keep lists that fit
//!    their head and every window) — so bytes from the wire that would trip
//!    one of its asserts are the submitter's error, not a worker's panic.
//! 8. **observer** ([`CloudServiceBuilder::observer`]) feeds everything the
//!    cloud legitimately sees to a [`CloudObserver`] — the vantage point
//!    from which `amalgam-attacks` mounts its attacks. It runs only on a
//!    valid decoded job, and nothing of it crosses the wire: provenance
//!    tags, sub-network identities and the client's insertion plan stay
//!    with the client.
//! 9. **train** *is* the local trainer: it calls
//!    `amalgam_core::trainer::train_with`, the one Algorithm 1 in the
//!    workspace, with cancellation, progress, checkpoints and the
//!    observer's tap as that loop's hooks. Cloud and local training agree
//!    bit for bit, weights and history, because there is no second loop.
//!
//! Scale the pool with [`CloudServiceBuilder::workers`]. Jobs are queued
//! **per session** ([`SessionKey`]: API key, or anonymous client/connection
//! identity) and workers drain the sessions by deficit round robin —
//! optionally weighted via [`CloudServiceBuilder::session_weight`] — so a
//! flooding session buys itself queue depth, never a larger share of the
//! pool, and every session's own jobs stay strictly FIFO.
//! [`CloudService::shutdown`] drains queued jobs before the workers exit.
//! Put the service on a real wire with [`CloudServer::bind`] — the framing
//! and handshake formats are documented in [`transport`].

#![deny(missing_docs)]

mod builder;
pub mod cache;
pub mod checkpoint;
pub mod hash;
mod metrics;
mod observer;
mod pipeline;
mod protocol;
mod queue;
pub mod ratelimit;
mod service;
pub mod telemetry;
pub mod transport;

pub use builder::CloudServiceBuilder;
pub use cache::ResultCache;
pub use checkpoint::{Checkpoint, CheckpointStore, FileCheckpointStore, MemoryCheckpointStore};
pub use hash::ContentAddress;
pub use metrics::{BackendHealth, BackendStats, ServiceMetrics, ServiceStats, SessionStats};
pub use observer::{CloudObserver, RecordingObserver};
pub use pipeline::SessionKey;
pub use protocol::{CloudJob, JobResult, ProgressUpdate, TaskPayload};
pub use ratelimit::TokenBucket;
pub use service::{CloudClient, CloudService, JobHandle};
pub use telemetry::{
    FlightRecorder, Histogram, HistogramSnapshot, JobTrace, SpanRecord, Stage, Telemetry, TraceId,
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
    /// same on a local [`JobHandle`] outcome and on a remote one, because
    /// the variant round-trips the transport's Reply frame.
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
