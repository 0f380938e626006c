//! The worker pool and the client handle.

use crate::builder::CloudServiceBuilder;
use crate::cache::{DedupReply, DedupShared, SubmitDecision};
use crate::hash::ContentAddress;
use crate::metrics::{ServiceMetrics, ServiceStats};
use crate::observer::CloudObserver;
use crate::pipeline::{duration_us, JobContext, Pipeline, SessionKey};
use crate::protocol::{CloudJob, JobResult, ProgressUpdate};
use crate::queue::FairDispatcher;
use crate::telemetry::{Telemetry, TraceId};
use crate::transport::ClientShared;
use crate::CloudError;
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Where a finished job's outcome goes.
///
/// In-process handles get a dedicated channel per job; transport sessions
/// multiplex every job of one connection onto a single channel, tagged with
/// the session's request id, so one writer thread can serve any number of
/// out-of-order completions.
pub(crate) enum ReplySink {
    /// Dedicated channels, consumed by a [`JobHandle`]: one for the final
    /// outcome, one for advisory progress frames.
    Handle {
        reply: Sender<Result<JobResult, CloudError>>,
        progress: Sender<ProgressUpdate>,
    },
    /// A shared per-connection channel back to the owning reactor; `tag` is
    /// the wire request id.
    Routed { tag: u64, tx: RoutedSender },
    /// The executor of a deduplicated address: delivers to the primary
    /// sink *and* fans the outcome out to every coalesced waiter (see
    /// [`crate::cache`]).
    Dedup(Box<DedupReply>),
}

impl ReplySink {
    pub(crate) fn send(&self, result: Result<JobResult, CloudError>) {
        match self {
            ReplySink::Handle { reply, .. } => {
                let _ = reply.send(result);
            }
            ReplySink::Routed { tag, tx } => tx.send(*tag, result),
            ReplySink::Dedup(reply) => reply.resolve(result),
        }
    }

    /// Forwards one progress frame toward this sink's consumer, keeping the
    /// conservation law honest: every call bumps `emitted` (per `session`),
    /// and the frame ends up counted exactly once as delivered or dropped —
    /// here for in-process sinks, in the owning event loop for routed ones.
    ///
    /// Returns whether anyone could still receive this execution's *final
    /// result*: `false` means every consumer is gone — the submitting
    /// handle dropped, the transport connection closed, and (for a dedup
    /// executor) every coalesced waiter with them. The trainer treats that
    /// as abandonment and cancels itself at the next epoch boundary,
    /// keeping its checkpoint so a resubmission resumes instead of
    /// recomputing.
    pub(crate) fn send_progress(
        &self,
        update: ProgressUpdate,
        session: &SessionKey,
        metrics: &ServiceMetrics,
    ) -> bool {
        match self {
            ReplySink::Handle { progress, .. } => {
                metrics.progress_frame_emitted(session);
                if progress.send(update).is_ok() {
                    metrics.progress_frame_delivered();
                    true
                } else {
                    metrics.progress_frame_dropped();
                    false
                }
            }
            ReplySink::Routed { tag, tx } => {
                metrics.progress_frame_emitted(session);
                if tx.send_progress(*tag, update) {
                    // Channel alive: the conn's pump delivers it, or drops
                    // it on a draining connection — either way the reply
                    // is deliverable.
                    true
                } else {
                    // The connection's channel is gone; the pump will never
                    // see this frame, so account the drop at the send site.
                    metrics.progress_frame_dropped();
                    false
                }
            }
            ReplySink::Dedup(reply) => reply.send_progress(update, session, metrics),
        }
    }
}

/// The submitter-side cancellation token: one shared flag per *execution*.
/// Dedup-coalesced waiters share their executor's flag, so any waiter's
/// cancel stops the one underlying run (and every waiter then receives
/// [`CloudError::Cancelled`]).
pub(crate) type CancelFlag = Arc<AtomicBool>;

/// One message on a transport session's multiplexed outbound channel.
pub(crate) enum RoutedMsg {
    /// The request's one final outcome; frees its in-flight slot.
    Reply(Result<JobResult, CloudError>),
    /// An advisory per-epoch progress frame; never touches in-flight
    /// accounting.
    Progress(ProgressUpdate),
}

/// Where a worker delivers per-epoch progress: the submitter's sink (which
/// fans out to coalesced waiters for dedup executors), stamped with the
/// executing session for per-session accounting.
pub(crate) struct ProgressSink {
    pub(crate) reply: Arc<ReplySink>,
    pub(crate) session: SessionKey,
    pub(crate) metrics: Arc<ServiceMetrics>,
}

impl ProgressSink {
    /// Emits one update; `false` means the execution is abandoned (see
    /// [`ReplySink::send_progress`]).
    pub(crate) fn emit(&self, update: ProgressUpdate) -> bool {
        self.reply
            .send_progress(update, &self.session, &self.metrics)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("session", &self.session)
            .finish()
    }
}

/// The transport's multiplexed reply path: a per-connection completion
/// channel plus a wake callback. Workers (and the dedup fan-out, and the
/// shutdown drain) finish jobs on their own threads; the callback flags the
/// owning connection as having replies pending and interrupts its reactor's
/// poll, so completions are flushed promptly instead of waiting for socket
/// activity.
pub(crate) struct RoutedSender {
    tx: Sender<(u64, RoutedMsg)>,
    notify: Arc<dyn Fn() + Send + Sync>,
    /// Cleared by the owning reactor once the peer is gone for good
    /// (abrupt EOF, read error, or the connection closed). The channel
    /// alone can't answer "is anyone listening": a dying connection
    /// lingers in its draining state — holding the receiver — precisely
    /// *until* its in-flight jobs settle, so a trainer probing the channel
    /// would wait on itself forever.
    peer_alive: Arc<AtomicBool>,
}

impl Clone for RoutedSender {
    fn clone(&self) -> RoutedSender {
        RoutedSender {
            tx: self.tx.clone(),
            notify: Arc::clone(&self.notify),
            peer_alive: Arc::clone(&self.peer_alive),
        }
    }
}

impl std::fmt::Debug for RoutedSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedSender").finish()
    }
}

impl RoutedSender {
    /// Couples a reply channel with the reactor wake-up that flushes it
    /// and the connection's peer-liveness flag.
    pub(crate) fn new(
        tx: Sender<(u64, RoutedMsg)>,
        notify: Arc<dyn Fn() + Send + Sync>,
        peer_alive: Arc<AtomicBool>,
    ) -> RoutedSender {
        RoutedSender {
            tx,
            notify,
            peer_alive,
        }
    }

    /// Posts one completion and wakes the owning reactor.
    pub(crate) fn send(&self, tag: u64, result: Result<JobResult, CloudError>) {
        let _ = self.tx.send((tag, RoutedMsg::Reply(result)));
        (self.notify)();
    }

    /// Posts one progress frame and wakes the owning reactor; `false` if
    /// the peer can never receive another frame — its connection died
    /// abruptly or closed — or the channel itself is gone. On `false` the
    /// frame was not posted, so the caller accounts the drop.
    pub(crate) fn send_progress(&self, tag: u64, update: ProgressUpdate) -> bool {
        if !self.peer_alive.load(Ordering::SeqCst) {
            return false;
        }
        let ok = self.tx.send((tag, RoutedMsg::Progress(update))).is_ok();
        (self.notify)();
        ok
    }
}

/// One accepted submission, queued on its session's FIFO until a worker
/// pops it in DRR order.
pub(crate) struct Envelope {
    id: u64,
    queue_depth_at_submit: usize,
    submitted_at: Instant,
    session: SessionKey,
    payload: Bytes,
    auth: Option<Arc<str>>,
    /// End-to-end trace id: minted at the submit boundary for in-process
    /// jobs, carried in from the wire for traced transport submits.
    trace: TraceId,
    /// The payload's content address when dedup or checkpointing is
    /// enabled — what the pipeline's `dedup` stage caches a successful
    /// result under, and what checkpoints are keyed by.
    content_address: Option<ContentAddress>,
    /// The submitter's cancellation token, polled at epoch boundaries.
    cancel: CancelFlag,
    /// Shared (not owned) so the job's [`ProgressSink`] can stream through
    /// the same sink the final outcome will use.
    reply: Arc<ReplySink>,
}

/// The simulated cloud: the job pipeline served by a pool of worker
/// threads draining per-session queues by deficit round robin.
#[derive(Debug)]
pub struct CloudService {
    workers: Vec<std::thread::JoinHandle<()>>,
    queue: Arc<FairDispatcher<Envelope>>,
    closed: Arc<AtomicBool>,
    metrics: Arc<ServiceMetrics>,
    next_id: Arc<AtomicU64>,
    next_session: Arc<AtomicU64>,
    dedup: Option<Arc<DedupShared>>,
    /// Whether a checkpoint store is configured — submits then stamp a
    /// content address even without dedup, so checkpoints have a key.
    checkpointing: bool,
    /// The accepted API keys, shared with the pipeline's `auth` stage for
    /// the transport's `GetStats` authorization check.
    api_keys: Option<Arc<[String]>>,
    /// Where the transport should serve Prometheus metrics, if anywhere.
    metrics_exporter: Option<SocketAddr>,
}

impl CloudService {
    /// A single-worker service with the default pipeline and no adversary.
    pub fn start() -> CloudService {
        CloudService::builder().build()
    }

    /// A single-worker service whose traffic feeds `observer` — the attack
    /// experiments' entry point.
    pub fn start_with_observer(observer: Arc<Mutex<dyn CloudObserver>>) -> CloudService {
        CloudService::builder().observer(observer).build()
    }

    /// Configures workers, observer, admission control and the other
    /// pipeline stages.
    pub fn builder() -> CloudServiceBuilder {
        CloudServiceBuilder::new()
    }

    pub(crate) fn from_builder(mut builder: CloudServiceBuilder) -> CloudService {
        let metrics = Arc::new(ServiceMetrics::new());
        let (pipeline, dedup) = builder.assemble(&metrics);
        let pipeline = Arc::new(pipeline);
        let checkpointing = pipeline.checkpoints.is_some();
        let queue = Arc::new(FairDispatcher::new(std::mem::take(
            &mut builder.session_weights,
        )));
        let workers = (0..builder.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let pipeline = Arc::clone(&pipeline);
                std::thread::Builder::new()
                    .name(format!("cloud-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &pipeline))
                    .expect("spawn cloud worker")
            })
            .collect();
        CloudService {
            workers,
            queue,
            closed: Arc::new(AtomicBool::new(false)),
            metrics,
            next_id: Arc::new(AtomicU64::new(0)),
            next_session: Arc::new(AtomicU64::new(0)),
            dedup,
            checkpointing,
            api_keys: builder.api_keys,
            metrics_exporter: builder.metrics_exporter,
        }
    }

    /// A client handle; cloneable and usable from any thread. Each call
    /// mints a fresh anonymous [`SessionKey`] — clones of the returned
    /// handle share it, separate `client()` calls do not.
    pub fn client(&self) -> CloudClient {
        CloudClient {
            queue: Arc::clone(&self.queue),
            closed: Arc::clone(&self.closed),
            metrics: Arc::clone(&self.metrics),
            next_id: Arc::clone(&self.next_id),
            next_session: Arc::clone(&self.next_session),
            session: SessionKey::Anonymous(self.next_session.fetch_add(1, Ordering::Relaxed)),
            api_key: None,
            dedup: self.dedup.clone(),
            checkpointing: self.checkpointing,
        }
    }

    /// The shared telemetry sink (the transport server folds its counters
    /// into the same instance `stats()` snapshots).
    pub(crate) fn metrics_arc(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The API keys a `GetStats` requester may authorize with (`None` when
    /// the service accepts anonymous sessions).
    pub(crate) fn api_keys(&self) -> Option<Arc<[String]>> {
        self.api_keys.clone()
    }

    /// Where the transport server should bind the Prometheus exporter.
    pub(crate) fn metrics_exporter_addr(&self) -> Option<SocketAddr> {
        self.metrics_exporter
    }

    /// Point-in-time telemetry: latency, throughput, bytes, queue depth.
    pub fn stats(&self) -> ServiceStats {
        self.metrics.snapshot()
    }

    /// The service's telemetry plane: per-stage latency histograms and the
    /// flight recorder (look a job up by its trace id after the fact).
    pub fn telemetry(&self) -> &Telemetry {
        self.metrics.telemetry()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: already-queued jobs are drained and answered,
    /// then every worker exits and is joined.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    /// One shutdown path shared by [`shutdown`](Self::shutdown) and `Drop`:
    /// refuse new submissions, close the queue (workers drain the backlog
    /// in DRR order, then exit), join, then answer any envelope the workers
    /// never reached (jobs stranded behind a worker that died with
    /// `catch_panics(false)`). Idempotent, because `workers` is drained.
    fn shutdown_and_join(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for envelope in self.queue.drain() {
            self.metrics.job_dequeued();
            self.metrics.session_dispatched(&envelope.session);
            envelope.reply.send(Err(CloudError::ServiceUnavailable));
        }
    }
}

impl Drop for CloudService {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn worker_loop(queue: &FairDispatcher<Envelope>, pipeline: &Pipeline) {
    let metrics = &pipeline.metrics;
    while let Some(envelope) = queue.pop() {
        metrics.job_dequeued();
        metrics.session_dispatched(&envelope.session);
        let mut ctx = JobContext {
            job_id: envelope.id,
            queue_depth_at_submit: envelope.queue_depth_at_submit,
            bytes_received: 0,
            job: None,
            model: None,
            observer: None,
            api_key: envelope.auth,
            progress: ProgressSink {
                reply: Arc::clone(&envelope.reply),
                session: envelope.session.clone(),
                metrics: Arc::clone(metrics),
            },
            session: envelope.session,
            submitted_at: envelope.submitted_at,
            content_address: envelope.content_address,
            trace: envelope.trace,
            queue_wait_us: 0,
            spans: Vec::new(),
            cancel: envelope.cancel,
        };
        // Stamped last: everything between dequeue and dispatch counts as
        // queue wait, so no span can start before the total's clock does.
        ctx.queue_wait_us = duration_us(envelope.submitted_at.elapsed());
        let result = pipeline.run(&mut ctx, envelope.payload);
        envelope.reply.send(result);
    }
}

/// Client handle for submitting jobs to a [`CloudService`].
///
/// Each handle is one *session* for rate limiting and fair scheduling:
/// clones share the session, separate [`CloudService::client`] calls get
/// fresh ones, and [`with_api_key`](Self::with_api_key) re-keys the session
/// onto the API key (shared with every other holder of that key).
#[derive(Debug, Clone)]
pub struct CloudClient {
    queue: Arc<FairDispatcher<Envelope>>,
    closed: Arc<AtomicBool>,
    metrics: Arc<ServiceMetrics>,
    next_id: Arc<AtomicU64>,
    next_session: Arc<AtomicU64>,
    session: SessionKey,
    api_key: Option<Arc<str>>,
    dedup: Option<Arc<DedupShared>>,
    checkpointing: bool,
}

impl CloudClient {
    /// Stamps every job submitted through this handle with `key` — what the
    /// pipeline's `auth` stage ([`CloudServiceBuilder::api_keys`]) checks.
    /// Transport sessions get their key from the connection handshake
    /// instead. The key also becomes the handle's [`SessionKey`] for
    /// scheduling and rate limiting.
    #[must_use]
    pub fn with_api_key(mut self, key: impl Into<String>) -> CloudClient {
        let key: Arc<str> = Arc::from(key.into().into_boxed_str());
        self.session = SessionKey::ApiKey(Arc::clone(&key));
        self.api_key = Some(key);
        self
    }

    /// A clone bound to a fresh transport session's identity: the key from
    /// the connection handshake if one was presented, a new anonymous
    /// session otherwise.
    pub(crate) fn for_transport_session(&self, auth: Option<Arc<str>>) -> CloudClient {
        let mut client = self.clone();
        client.session = match &auth {
            Some(key) => SessionKey::ApiKey(Arc::clone(key)),
            None => SessionKey::Anonymous(self.next_session.fetch_add(1, Ordering::Relaxed)),
        };
        client.api_key = auth;
        client
    }

    /// This handle's scheduling/rate-limiting identity.
    pub(crate) fn session_key(&self) -> &SessionKey {
        &self.session
    }
    /// Uploads a job (serializing it — this is the trust boundary) and
    /// returns a handle to the in-flight work.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ServiceUnavailable`] if the service is gone.
    pub fn submit(&self, job: &CloudJob) -> Result<JobHandle, CloudError> {
        self.submit_payload(job.to_bytes())
    }

    /// Uploads an already-serialized payload.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ServiceUnavailable`] if the service is gone.
    pub fn submit_payload(&self, payload: Bytes) -> Result<JobHandle, CloudError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(CloudError::ServiceUnavailable);
        }
        let (reply_tx, reply_rx) = channel();
        let (progress_tx, progress_rx) = channel();
        let (id, cancel) = self.enqueue(
            payload,
            ReplySink::Handle {
                reply: reply_tx,
                progress: progress_tx,
            },
            TraceId::NONE,
        )?;
        Ok(JobHandle::new(
            id,
            reply_rx,
            progress_rx,
            Canceller::Flag(cancel),
        ))
    }

    /// Submits a payload whose outcome is multiplexed onto a shared reply
    /// channel, tagged with the caller's `tag` (the transport's request
    /// id). Returns the job's cancellation flag so the session can honor a
    /// later `Cancel` frame for the same request id.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ServiceUnavailable`] if the service is gone.
    pub(crate) fn submit_routed(
        &self,
        payload: Bytes,
        tag: u64,
        replies: RoutedSender,
        trace: TraceId,
    ) -> Result<CancelFlag, CloudError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(CloudError::ServiceUnavailable);
        }
        self.enqueue(payload, ReplySink::Routed { tag, tx: replies }, trace)
            .map(|(_, cancel)| cancel)
    }

    /// The one enqueue path: stamps id, submit instant and session, then
    /// pushes onto the session's queue. Closing the queue and pushing are
    /// mutually exclusive, so a job accepted here is *always* answered:
    /// workers drain the whole backlog before exiting, and the shutdown
    /// drain answers anything a dead worker left behind.
    ///
    /// With dedup enabled ([`CloudServiceBuilder::result_cache`]) the
    /// payload is judged by its content address first: a cache hit or a
    /// coalesced attach is answered through `reply` right here — without
    /// ever entering the queue or occupying a worker — and only the first
    /// submission of an address falls through to an actual enqueue, its
    /// reply wrapped so the one execution also resolves every waiter.
    fn enqueue(
        &self,
        payload: Bytes,
        mut reply: ReplySink,
        trace: TraceId,
    ) -> Result<(u64, CancelFlag), CloudError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Jobs that arrive without a trace (in-process submits, untraced
        // transport submits) are the trace root: mint the id here so every
        // job is observable, not just remotely-traced ones.
        let trace = if trace.is_none() {
            TraceId::mint()
        } else {
            trace
        };
        let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
        let mut content_address = None;
        if let Some(dedup) = &self.dedup {
            match dedup.intercept(id, &self.session, &payload, reply, &cancel) {
                // A coalesced attach shares the executor's flag, so any
                // waiter's cancel stops the one underlying run.
                SubmitDecision::Served(shared) => return Ok((id, shared.unwrap_or(cancel))),
                SubmitDecision::Execute(wrapped, addr) => {
                    reply = wrapped;
                    content_address = Some(addr);
                }
            }
        } else if self.checkpointing {
            content_address = Some(ContentAddress::of(&payload));
        }
        let queue_depth_at_submit = self.metrics.job_queued();
        self.metrics
            .session_submitted(&self.session, self.queue.weight_for_session(&self.session));
        let envelope = Envelope {
            id,
            queue_depth_at_submit,
            submitted_at: Instant::now(),
            session: self.session.clone(),
            payload,
            auth: self.api_key.clone(),
            trace,
            content_address,
            cancel: Arc::clone(&cancel),
            reply: Arc::new(reply),
        };
        if self.queue.push(&self.session, envelope).is_err() {
            // The rejected envelope is dropped here; if it was a dedup
            // executor, the drop resolves any waiters that attached in
            // the meantime with `ServiceUnavailable` and clears the slot.
            self.metrics.job_unqueued();
            self.metrics.session_unqueued(&self.session);
            return Err(CloudError::ServiceUnavailable);
        }
        Ok((id, cancel))
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates submission, decode, validation and training errors.
    pub fn train(&self, job: &CloudJob) -> Result<JobResult, CloudError> {
        self.submit(job)?.wait()
    }
}

/// An in-flight job, submitted in process ([`CloudClient::submit`]) or over
/// a connection ([`crate::RemoteCloudClient::submit`]): one API, one
/// result-id match (`wait().unwrap().job_id == handle.id()`), and one error
/// surface, since every [`CloudError`] variant round-trips the Reply frame.
/// A job the per-session rate limiter refuses resolves to
/// [`CloudError::RateLimited`], whose [`retry_after`](CloudError::retry_after)
/// says how long to back off before resubmitting:
///
/// ```no_run
/// # use amalgam_cloud::{CloudJob, RemoteCloudClient};
/// # fn demo(client: &RemoteCloudClient, job: &CloudJob) {
/// match client.submit(job).unwrap().wait() {
///     Ok(result) => println!("trained: {} bytes", result.bytes_sent),
///     Err(e) => {
///         if let Some(backoff) = e.retry_after() {
///             std::thread::sleep(backoff); // then resubmit
///         }
///     }
/// }
/// # }
/// ```
///
/// (A remote client running a [`crate::ReconnectPolicy`] performs that
/// dance itself: the handle only sees `RateLimited` once the job's
/// resubmission budget is spent.)
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    rx: Receiver<Result<JobResult, CloudError>>,
    progress_rx: Receiver<ProgressUpdate>,
    cancel: Canceller,
    done: Option<Result<JobResult, CloudError>>,
}

/// How a [`JobHandle`] asks its job to stop.
#[derive(Debug)]
pub(crate) enum Canceller {
    /// An in-process job: the flag its trainer polls.
    Flag(CancelFlag),
    /// A remote job: a `Cancel` posted on its client's loop. Weak, so a
    /// forgotten handle never keeps the session alive.
    Remote(Weak<ClientShared>),
}

impl JobHandle {
    pub(crate) fn new(
        id: u64,
        rx: Receiver<Result<JobResult, CloudError>>,
        progress_rx: Receiver<ProgressUpdate>,
        cancel: Canceller,
    ) -> JobHandle {
        JobHandle {
            id,
            rx,
            progress_rx,
            cancel,
            done: None,
        }
    }

    /// The job's id — the service's for an in-process submit, the
    /// connection's request id for a remote one; it matches
    /// [`JobResult::job_id`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. Best-effort and idempotent: the trainer
    /// polls at epoch boundaries, so the job either resolves with
    /// [`CloudError::Cancelled`] (for this handle *and* every
    /// dedup-coalesced waiter of the same content address) or — if it was
    /// already past its last epoch — completes normally. Either way the
    /// handle's `wait` is always answered. A remote job is cancelled by a
    /// `Cancel` frame and is never revived by reconnect or retry machinery.
    pub fn cancel(&self) {
        match &self.cancel {
            Canceller::Flag(flag) => flag.store(true, Ordering::Relaxed),
            Canceller::Remote(client) => {
                if let Some(client) = client.upgrade() {
                    client.cancel(self.id);
                }
            }
        }
    }

    /// The next per-epoch progress update received so far, non-blocking;
    /// `None` when no update is pending. Updates stream while the job
    /// trains and stop (without error) once the outcome is ready.
    pub fn try_progress(&self) -> Option<ProgressUpdate> {
        self.progress_rx.try_recv().ok()
    }

    /// Blocking stream of per-epoch progress updates. Yields each update
    /// as it arrives and ends when the job settles (the worker drops its
    /// sender), after which [`wait`](Self::wait) returns immediately.
    pub fn progress(&self) -> impl Iterator<Item = ProgressUpdate> + '_ {
        std::iter::from_fn(move || self.progress_rx.recv().ok())
    }

    /// Blocks until the job finishes.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ServiceUnavailable`] if the service died with
    /// the job still queued, or the connection with it still unanswered.
    pub fn wait(self) -> Result<JobResult, CloudError> {
        if let Some(done) = self.done {
            return done;
        }
        self.rx.recv().map_err(|_| CloudError::ServiceUnavailable)?
    }

    /// Non-blocking poll: `None` while the job is still running. Once the
    /// outcome is known it is cached, so polling again keeps returning it.
    pub fn try_wait(&mut self) -> Option<Result<JobResult, CloudError>> {
        if self.done.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.done = Some(result),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => {
                    self.done = Some(Err(CloudError::ServiceUnavailable));
                }
            }
        }
        self.done.clone()
    }

    /// Blocks at most `timeout`; `None` on timeout, the (cached) outcome
    /// otherwise.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<JobResult, CloudError>> {
        if self.done.is_none() {
            match self.rx.recv_timeout(timeout) {
                Ok(result) => self.done = Some(result),
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => {
                    self.done = Some(Err(CloudError::ServiceUnavailable));
                }
            }
        }
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::RecordingObserver;
    use crate::TaskPayload;
    use amalgam_core::TrainConfig;
    use amalgam_models::lenet5;
    use amalgam_nn::graph::GraphModel;
    use amalgam_nn::metrics::History;
    use amalgam_tensor::{Rng, Tensor};
    use std::sync::PoisonError;

    /// A recording observer we can inspect after the service consumed it.
    #[derive(Default)]
    struct SharedRecorder(RecordingObserver);

    impl CloudObserver for SharedRecorder {
        fn on_model(&mut self, m: &GraphModel) {
            self.0.on_model(m);
        }
        fn on_batch(&mut self, x: &Tensor, l: &[usize]) {
            self.0.on_batch(x, l);
        }
        fn on_step(&mut self, m: &mut GraphModel) {
            self.0.on_step(m);
        }
        fn on_result(&mut self, r: &JobResult) {
            self.0.on_result(r);
        }
    }

    fn tiny_job(rng: &mut Rng) -> (CloudJob, GraphModel) {
        let model = lenet5(1, 8, 2, rng);
        let inputs = Tensor::randn(&[16, 1, 8, 8], rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::Classification {
                inputs,
                labels,
                val_inputs: None,
                val_labels: vec![],
            },
            train: TrainConfig::new(2, 8, 0.05).with_seed(3),
        };
        (job, model)
    }

    /// A job whose seed differs, so results are distinguishable per job.
    fn tiny_job_with_seed(rng: &mut Rng, seed: u64) -> CloudJob {
        let (mut job, _) = tiny_job(rng);
        job.train = job.train.with_seed(seed);
        job
    }

    #[test]
    fn end_to_end_job_trains_and_returns_model() {
        let mut rng = Rng::seed_from(0);
        let (job, model) = tiny_job(&mut rng);
        let service = CloudService::start();
        let result = service.client().train(&job).unwrap();
        service.shutdown();
        assert_eq!(result.history.epochs(), 2);
        assert!(result.bytes_received > 0 && result.bytes_sent > 0);
        let trained = GraphModel::from_bytes(result.trained_model).unwrap();
        assert_eq!(trained.param_count(), model.param_count());
        // Weights must have moved.
        let before = model.state_dict();
        let after = trained.state_dict();
        let moved = before
            .iter()
            .zip(&after)
            .any(|((_, a), (_, b))| a.data() != b.data());
        assert!(moved, "training did not change any weights");
    }

    #[test]
    fn observer_sees_model_batches_and_result() {
        let mut rng = Rng::seed_from(1);
        let (job, _) = tiny_job(&mut rng);
        let obs: Arc<Mutex<SharedRecorder>> = Arc::new(Mutex::new(SharedRecorder::default()));
        let service = CloudService::start_with_observer(obs.clone());
        service.client().train(&job).unwrap();
        service.shutdown();
        let rec = &obs.lock().unwrap().0;
        assert!(rec.model_params > 0);
        assert_eq!(rec.batches, 4); // 16 samples / bs 8 × 2 epochs
        assert_eq!(rec.steps, 4);
        assert_eq!(rec.results, 1);
        assert!(rec.first_batch.is_some());
    }

    /// Weights bit for bit, and every history series but the wall clock.
    fn assert_same_training(cloud: &JobResult, local: &GraphModel, local_history: &History) {
        let cloud_trained = GraphModel::from_bytes(cloud.trained_model.clone()).unwrap();
        for ((n1, t1), (n2, t2)) in local
            .state_dict()
            .iter()
            .zip(cloud_trained.state_dict().iter())
        {
            assert_eq!(n1, n2);
            assert_eq!(
                t1.data(),
                t2.data(),
                "cloud and local training diverged at {n1}"
            );
        }
        let bits = |series: &[f32]| series.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (c, l) = (&cloud.history, local_history);
        assert_eq!(bits(&c.train_loss), bits(&l.train_loss), "train_loss");
        assert_eq!(bits(&c.train_acc), bits(&l.train_acc), "train_acc");
        assert_eq!(bits(&c.val_loss), bits(&l.val_loss), "val_loss");
        assert_eq!(bits(&c.val_acc), bits(&l.val_acc), "val_acc");
        assert_eq!(c.epoch_secs.len(), l.epoch_secs.len());
    }

    #[test]
    fn cloud_training_matches_local_training_bitwise() {
        // The cloud runs the local trainer's own loop, so through the whole
        // default pipeline a job comes back with the weights *and*
        // the history local training gives — validation included.
        let mut rng = Rng::seed_from(2);
        let (mut job, model) = tiny_job(&mut rng);
        let val = amalgam_data::ImageDataset::new(
            Tensor::randn(&[12, 1, 8, 8], &mut rng),
            (0..12).map(|i| i % 2).collect(),
            2,
        );
        let TaskPayload::Classification {
            inputs,
            labels,
            val_inputs,
            val_labels,
        } = &mut job.task
        else {
            unreachable!()
        };
        *val_inputs = Some(val.images().clone());
        *val_labels = val.labels().to_vec();
        let train = amalgam_data::ImageDataset::new(inputs.clone(), labels.clone(), 2);

        let service = CloudService::start();
        let result = service.client().train(&job).unwrap();
        let mut local = model.clone();
        let history = amalgam_core::trainer::train_image_classifier(
            &mut local,
            &train,
            Some(&val),
            0,
            &job.train,
        );
        assert_eq!(history.val_loss.len(), 2, "one validation pass per epoch");
        assert_same_training(&result, &local, &history);

        // The same for a language-model job with validation windows.
        let model = amalgam_models::transformer_lm(
            &amalgam_models::TransformerLmConfig::tiny(20, 16),
            &mut rng,
        );
        let window = |k: usize| Tensor::from_fn(&[2, 8], move |i| ((i * 7 + k) % 20) as f32);
        let windows: Vec<Tensor> = (0..3).map(window).collect();
        let val_windows: Vec<Tensor> = (3..5).map(window).collect();
        let head_keeps = vec![(0..8).collect::<Vec<usize>>()];
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::LanguageModel {
                windows: windows.clone(),
                val_windows: val_windows.clone(),
                head_keeps: head_keeps.clone(),
            },
            train: TrainConfig::new(2, 2, 0.05).with_momentum(0.9),
        };
        let result = service.client().train(&job).unwrap();
        service.shutdown();
        let mut local = model.clone();
        let history = amalgam_core::trainer::train_lm(
            &mut local,
            &windows,
            &val_windows,
            &head_keeps,
            0,
            &job.train,
        );
        assert_eq!(history.val_loss.len(), 2);
        assert_same_training(&result, &local, &history);
    }

    #[test]
    fn lm_job_trains_on_the_cloud() {
        let mut rng = Rng::seed_from(9);
        let model = amalgam_models::transformer_lm(
            &amalgam_models::TransformerLmConfig::tiny(20, 16),
            &mut rng,
        );
        let windows: Vec<Tensor> = (0..3)
            .map(|_| Tensor::from_fn(&[2, 8], |i| ((i * 7) % 20) as f32))
            .collect();
        let keep: Vec<usize> = (0..8).collect();
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::LanguageModel {
                windows: windows.clone(),
                val_windows: vec![windows[0].clone()],
                head_keeps: vec![keep],
            },
            train: TrainConfig::new(1, 2, 0.05).with_seed(1),
        };
        let service = CloudService::start();
        let result = service.client().train(&job).unwrap();
        service.shutdown();
        assert_eq!(result.history.epochs(), 1);
        assert_eq!(result.history.val_loss.len(), 1);
        let trained = GraphModel::from_bytes(result.trained_model).unwrap();
        assert_eq!(trained.param_count(), model.param_count());
    }

    #[test]
    fn lm_job_with_wrong_keep_arity_is_rejected() {
        let mut rng = Rng::seed_from(10);
        let model = amalgam_models::transformer_lm(
            &amalgam_models::TransformerLmConfig::tiny(10, 8),
            &mut rng,
        );
        let job = CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::LanguageModel {
                windows: vec![Tensor::zeros(&[1, 4])],
                val_windows: vec![],
                head_keeps: vec![], // wrong: one list per head required
            },
            train: TrainConfig::new(1, 1, 0.05),
        };
        let service = CloudService::start();
        let err = service.client().train(&job).unwrap_err();
        service.shutdown();
        assert!(matches!(err, CloudError::BadJob(_)));
    }

    /// Submits through the default pipeline and expects `BadJob` — from the
    /// validate stage, not from a panic caught on the way to the trainer.
    fn assert_rejected_unpanicked(job: &CloudJob) {
        let service = CloudService::start();
        let err = service.client().train(job).unwrap_err();
        let stats = service.stats();
        service.shutdown();
        assert!(matches!(err, CloudError::BadJob(_)), "{err:?}");
        assert_eq!(stats.jobs_panicked, 0);
    }

    /// A well-formed one-window LM job on 8-token windows, for the tests
    /// below to break one precondition of.
    fn lm_job_with_keep(keep: Vec<usize>) -> CloudJob {
        let model = amalgam_models::transformer_lm(
            &amalgam_models::TransformerLmConfig::tiny(20, 16),
            &mut Rng::seed_from(11),
        );
        CloudJob {
            model: model.to_bytes(),
            task: TaskPayload::LanguageModel {
                windows: vec![Tensor::from_fn(&[2, 8], |i| ((i * 7) % 20) as f32)],
                val_windows: vec![],
                head_keeps: vec![keep],
            },
            train: TrainConfig::new(1, 2, 0.05),
        }
    }

    #[test]
    fn zero_batch_size_is_rejected_not_panicked() {
        let (mut job, _) = tiny_job(&mut Rng::seed_from(12));
        job.train.batch_size = 0;
        assert_rejected_unpanicked(&job);
    }

    #[test]
    fn keep_list_of_the_wrong_length_is_rejected_not_panicked() {
        // Control: with all eight positions the same job trains.
        let service = CloudService::start();
        let ok = service.client().train(&lm_job_with_keep((0..8).collect()));
        service.shutdown();
        ok.unwrap();
        assert_rejected_unpanicked(&lm_job_with_keep((0..5).collect()));
    }

    #[test]
    fn keep_list_with_one_position_is_rejected_not_panicked() {
        assert_rejected_unpanicked(&lm_job_with_keep(vec![3]));
    }

    #[test]
    fn keep_list_past_the_window_is_rejected_not_panicked() {
        assert_rejected_unpanicked(&lm_job_with_keep(vec![0, 1, 2, 3, 4, 5, 6, 8]));
    }

    #[test]
    fn bad_job_reports_error() {
        let service = CloudService::start();
        let job = CloudJob {
            model: Bytes::from_static(b"garbage"),
            task: TaskPayload::Classification {
                inputs: Tensor::zeros(&[1, 1, 2, 2]),
                labels: vec![0],
                val_inputs: None,
                val_labels: vec![],
            },
            train: TrainConfig::new(1, 1, 0.1),
        };
        let err = service.client().train(&job).unwrap_err();
        service.shutdown();
        assert!(matches!(err, CloudError::Decode(_)));
    }

    #[test]
    fn multi_worker_pool_serves_concurrent_clients() {
        let service = CloudService::builder().workers(3).build();
        let mut rng = Rng::seed_from(20);
        // 6 jobs with distinct seeds from 3 cloned clients on 3 threads;
        // every result must match its own job (checked via job ids and the
        // seed-dependent final weights).
        let jobs: Vec<CloudJob> = (0..6)
            .map(|s| tiny_job_with_seed(&mut rng, 100 + s))
            .collect();
        let expected: Vec<Vec<f32>> = jobs
            .iter()
            .map(|job| {
                let mut local = GraphModel::from_bytes(job.model.clone()).unwrap();
                let (inputs, labels) = match &job.task {
                    TaskPayload::Classification { inputs, labels, .. } => {
                        (inputs.clone(), labels.clone())
                    }
                    _ => unreachable!(),
                };
                let data = amalgam_data::ImageDataset::new(inputs, labels, 2);
                amalgam_core::trainer::train_image_classifier(
                    &mut local, &data, None, 0, &job.train,
                );
                local
                    .state_dict()
                    .iter()
                    .flat_map(|(_, t)| t.data().to_vec())
                    .collect()
            })
            .collect();

        let handles: Vec<_> = jobs
            .chunks(2)
            .map(|chunk| {
                let client = service.client();
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    chunk
                        .iter()
                        .map(|job| {
                            let handle = client.submit(job).unwrap();
                            let id = handle.id();
                            let result = handle.wait().unwrap();
                            assert_eq!(result.job_id, id, "result routed to the wrong handle");
                            result
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<JobResult> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(results.len(), 6);
        for (result, expected) in results.iter().zip(&expected) {
            let trained = GraphModel::from_bytes(result.trained_model.clone()).unwrap();
            let got: Vec<f32> = trained
                .state_dict()
                .iter()
                .flat_map(|(_, t)| t.data().to_vec())
                .collect();
            assert_eq!(
                &got, expected,
                "job {} returned another job's weights",
                result.job_id
            );
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 6);
        assert_eq!(stats.jobs_failed, 0);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let mut rng = Rng::seed_from(21);
        let service = CloudService::builder().workers(2).build();
        let client = service.client();
        let handles: Vec<JobHandle> = (0..4)
            .map(|s| client.submit(&tiny_job_with_seed(&mut rng, s)).unwrap())
            .collect();
        // Shutdown with jobs still queued/in flight must drain, not drop.
        service.shutdown();
        for handle in handles {
            handle
                .wait()
                .expect("queued job dropped during graceful shutdown");
        }
    }

    #[test]
    fn try_wait_and_wait_timeout_poll_without_losing_the_result() {
        let mut rng = Rng::seed_from(22);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::start();
        let mut handle = service.client().submit(&job).unwrap();
        let mut polled = handle.try_wait();
        while polled.is_none() {
            polled = handle.wait_timeout(Duration::from_millis(20));
        }
        polled.unwrap().unwrap();
        // The outcome is cached: polling again still succeeds.
        handle.try_wait().unwrap().unwrap();
        assert!(handle
            .wait_timeout(Duration::from_millis(1))
            .unwrap()
            .is_ok());
        handle.wait().unwrap();
        service.shutdown();
    }

    /// An observer whose `on_model` waits while a test holds `gate`, then
    /// panics if `panics`: a job the test can hold inside a worker, or one
    /// that fails after decode and validation.
    struct Gate {
        gate: Arc<Mutex<()>>,
        panics: bool,
    }

    impl Gate {
        fn new(gate: &Arc<Mutex<()>>, panics: bool) -> Arc<Mutex<Gate>> {
            Arc::new(Mutex::new(Gate {
                gate: Arc::clone(gate),
                panics,
            }))
        }

        fn bomb() -> Arc<Mutex<Gate>> {
            Gate::new(&Arc::default(), true)
        }
    }

    impl CloudObserver for Gate {
        fn on_model(&mut self, _: &GraphModel) {
            drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
            assert!(!self.panics, "intentional test panic");
        }
    }

    #[test]
    fn worker_survives_panicking_jobs() {
        let mut rng = Rng::seed_from(23);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::builder().observer(Gate::bomb()).build();
        let client = service.client();
        match client.train(&job) {
            Err(CloudError::Panicked(msg)) => assert!(msg.contains("intentional"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(service.stats().jobs_panicked, 1);
        // A second job proves the same worker thread is still alive and
        // answering.
        assert!(matches!(client.train(&job), Err(CloudError::Panicked(_))));
        service.shutdown();
    }

    #[test]
    fn shutdown_answers_jobs_stranded_behind_a_dead_worker() {
        // With panic catching off, a poisoned job kills its worker; jobs
        // already queued behind it must still get an answer at shutdown
        // instead of hanging their handles forever.
        let mut rng = Rng::seed_from(27);
        let service = CloudService::builder()
            .workers(1)
            .catch_panics(false)
            .observer(Gate::bomb())
            .build();
        let client = service.client();
        let doomed = client.submit(&tiny_job_with_seed(&mut rng, 0)).unwrap();
        let stranded: Vec<JobHandle> = (1..4)
            .map(|s| client.submit(&tiny_job_with_seed(&mut rng, s)).unwrap())
            .collect();
        // The first job's panic kills the worker; its reply channel drops.
        assert!(matches!(doomed.wait(), Err(CloudError::ServiceUnavailable)));
        // The unwind must not leak the in-flight gauge.
        assert_eq!(service.stats().in_flight, 0);
        service.shutdown();
        for handle in stranded {
            assert!(
                matches!(handle.wait(), Err(CloudError::ServiceUnavailable)),
                "stranded job must be answered at shutdown, not dropped"
            );
        }
    }

    #[test]
    fn admission_control_sheds_excess_jobs() {
        let mut rng = Rng::seed_from(24);
        let gate = Arc::new(Mutex::new(()));
        let service = CloudService::builder()
            .workers(1)
            .max_queue_depth(1)
            .observer(Gate::new(&gate, false))
            .build();
        let client = service.client();
        let blocker = gate.lock().unwrap(); // worker will block inside the gate
        let first = client.submit(&tiny_job_with_seed(&mut rng, 0)).unwrap();
        // Wait until the worker has picked up the first job, so submissions
        // below observe a stable queue depth.
        while service.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let queued = client.submit(&tiny_job_with_seed(&mut rng, 1)).unwrap();
        let deep1 = client.submit(&tiny_job_with_seed(&mut rng, 2)).unwrap();
        let deep2 = client.submit(&tiny_job_with_seed(&mut rng, 3)).unwrap();
        drop(blocker); // release the worker
        first.wait().unwrap();
        queued.wait().unwrap();
        let mut rejected = 0;
        for handle in [deep1, deep2] {
            if matches!(handle.wait(), Err(CloudError::Overloaded { .. })) {
                rejected += 1;
            }
        }
        assert!(rejected >= 1, "no job was shed at queue depth > 1");
        assert_eq!(service.stats().jobs_rejected, rejected);
        service.shutdown();
    }

    #[test]
    fn stats_track_bytes_and_latency() {
        let mut rng = Rng::seed_from(25);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::start();
        let result = service.client().train(&job).unwrap();
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.jobs_submitted, 1);
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.bytes_received, result.bytes_received as u64);
        assert_eq!(stats.bytes_sent, result.bytes_sent as u64);
        assert!(stats.mean_job_seconds > 0.0);
        assert!(stats.jobs_per_second > 0.0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn result_cache_serves_hits_without_reexecution() {
        let mut rng = Rng::seed_from(30);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::builder()
            .result_cache(64 << 20, Duration::from_secs(600))
            .build();
        let client = service.client();
        let first = client.train(&job).unwrap();
        let handle = client.submit(&job).unwrap();
        let second = handle.wait().unwrap();
        let third = client.train(&job).unwrap();
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.jobs_completed, 1, "cache hits must not re-execute");
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.queue_depth, 0);
        // Bitwise identical payloads, but each submission keeps its own id.
        assert_eq!(second.trained_model, first.trained_model);
        assert_eq!(second.history, first.history);
        assert_eq!(third.trained_model, first.trained_model);
        assert_ne!(second.job_id, first.job_id);
        let row = &stats.sessions[0];
        assert_eq!(row.cache_hits, 2);
        assert_eq!(row.jobs_submitted, 3);
    }

    #[test]
    fn concurrent_duplicates_coalesce_onto_one_execution() {
        let mut rng = Rng::seed_from(31);
        let (job, _) = tiny_job(&mut rng);
        let gate = Arc::new(Mutex::new(()));
        let service = CloudService::builder()
            .result_cache(64 << 20, Duration::from_secs(600))
            .observer(Gate::new(&gate, false))
            .build();
        let client = service.client();
        let blocker = gate.lock().unwrap(); // hold the executor inside a worker
        let handles: Vec<JobHandle> = (0..5).map(|_| client.submit(&job).unwrap()).collect();
        drop(blocker);
        let mut results = Vec::new();
        for handle in handles {
            let id = handle.id();
            let result = handle.wait().unwrap();
            assert_eq!(result.job_id, id, "fan-out must stamp each waiter's id");
            results.push(result);
        }
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.jobs_completed, 1, "duplicates must execute once");
        assert_eq!(stats.coalesced, 4);
        for r in &results[1..] {
            assert_eq!(r.trained_model, results[0].trained_model);
            assert_eq!(r.history, results[0].history);
        }
    }

    #[test]
    fn failures_propagate_to_every_waiter_and_leave_the_cache_retryable() {
        let mut rng = Rng::seed_from(32);
        let (job, _) = tiny_job(&mut rng);
        let gate = Arc::new(Mutex::new(()));
        let service = CloudService::builder()
            .result_cache(64 << 20, Duration::from_secs(600))
            .observer(Gate::new(&gate, true))
            .build();
        let client = service.client();
        let blocker = gate.lock().unwrap();
        let handles: Vec<JobHandle> = (0..4).map(|_| client.submit(&job).unwrap()).collect();
        drop(blocker);
        for handle in handles {
            assert!(matches!(handle.wait(), Err(CloudError::Panicked(_))));
        }
        let stats = service.stats();
        assert_eq!(
            stats.jobs_panicked, 1,
            "one execution fanned to all waiters"
        );
        assert_eq!(stats.coalesced, 3);
        assert_eq!(stats.cache_hits, 0);
        // No poisoned entry: retrying the failed address executes again.
        assert!(matches!(client.train(&job), Err(CloudError::Panicked(_))));
        assert_eq!(service.stats().jobs_panicked, 2);
        service.shutdown();
    }

    #[test]
    fn cache_hits_spend_rate_limit_tokens() {
        let mut rng = Rng::seed_from(33);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::builder()
            .rate_limit(0.001, 2.0)
            .result_cache(64 << 20, Duration::from_secs(600))
            .build();
        let client = service.client();
        client.train(&job).unwrap(); // token 1, charged by the pipeline
        client.train(&job).unwrap(); // token 2, charged at the hit
        let err = client.train(&job).unwrap_err(); // bucket empty: cheap ≠ free
        assert!(matches!(err, CloudError::RateLimited { .. }));
        assert!(err.retry_after().is_some());
        let stats = service.stats();
        service.shutdown();
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(
            stats.cache_hits, 1,
            "the refused hit must not count as served"
        );
        assert_eq!(stats.jobs_rate_limited, 1);
        let row = &stats.sessions[0];
        assert_eq!(row.jobs_rate_limited, 1);
        assert_eq!(row.jobs_shed, 1);
    }

    #[test]
    fn shutdown_answers_waiters_of_stranded_executors() {
        // A dedup executor stranded behind a dead worker must resolve its
        // coalesced waiters at shutdown, exactly like any other envelope.
        let mut rng = Rng::seed_from(34);
        let service = CloudService::builder()
            .workers(1)
            .catch_panics(false)
            .result_cache(64 << 20, Duration::from_secs(600))
            .observer(Gate::bomb())
            .build();
        let client = service.client();
        let doomed = client.submit(&tiny_job_with_seed(&mut rng, 0)).unwrap();
        let job = tiny_job_with_seed(&mut rng, 1);
        let stranded_executor = client.submit(&job).unwrap();
        let waiters: Vec<JobHandle> = (0..3).map(|_| client.submit(&job).unwrap()).collect();
        // The panic unwinds through the worker; the executor envelope for
        // job 0 is dropped, which must clear its (empty) pending slot.
        assert!(matches!(doomed.wait(), Err(CloudError::ServiceUnavailable)));
        service.shutdown();
        assert!(matches!(
            stranded_executor.wait(),
            Err(CloudError::ServiceUnavailable)
        ));
        for waiter in waiters {
            assert!(
                matches!(waiter.wait(), Err(CloudError::ServiceUnavailable)),
                "coalesced waiter must be answered at shutdown, not stranded"
            );
        }
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let mut rng = Rng::seed_from(26);
        let (job, _) = tiny_job(&mut rng);
        let service = CloudService::start();
        let client = service.client();
        service.shutdown();
        assert!(matches!(
            client.train(&job),
            Err(CloudError::ServiceUnavailable)
        ));
    }
}
