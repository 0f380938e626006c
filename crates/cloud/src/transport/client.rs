//! The remote counterpart of [`crate::CloudClient`]: the same
//! submit/handle API, but every job crosses a real socket.
//!
//! One connection carries any number of concurrent jobs: submissions are
//! tagged with a client-chosen request id, replies are matched back by that
//! id (they arrive in *completion* order, not submission order), and each
//! is routed to its waiting [`JobHandle`].
//!
//! # The client event loop
//!
//! A client's connection is a link — the transport's client-role
//! connection, the one a relay's backend links are — in the client's role:
//! its replies go to the handles, and its next link comes from its address
//! list. Every client link of the process lives on one reactor, the
//! `client-reactor` thread, which dials them too — the connect does not
//! block — so it is the loop's only thread: the first connect starts it and
//! the last client to close or drop joins it. `connect` resolves its
//! addresses on the caller's thread, hands the session to the loop and
//! waits for the `Welcome`; the first dial and every redial are one path,
//! which tries the addresses in order, each under the handshake timeout.
//! Submits, cancels and `GetStats` reach the loop through its inbox. A link
//! pings once it has been write-idle for its keep-alive interval, so the
//! server's idle timeout only ends sessions whose client is gone.
//!
//! # Self-healing mode
//!
//! With [`TransportConfig::reconnect`] set, a lost connection no longer
//! fails the session: a deadline on the loop re-dials after a
//! [`super::DecorrelatedJitter`] backoff, and the next welcomed link carries
//! every pending job again verbatim — same request id, same payload bytes.
//! Resubmission is safe because jobs are content-addressed: a replay of an
//! already-executing job coalesces server-side instead of training twice,
//! and seeded training makes any re-execution bitwise identical. Replies
//! carrying [`CloudError::RateLimited`] are not surfaced either: the job
//! waits on the loop's [`super::RetryQueue`] until the server's
//! `retry_after` — never earlier — until its resubmission budget runs out.

use super::event_loop::link::{self, Job, Link, Role, Uplink, Welcome, LINK};
use super::event_loop::{
    reactor_parts, spawn_reactor, Inbound, Machine, Reactor, ReactorShared, Socket, Tier,
};
use super::frame::Frame;
use super::{ClientStats, DecorrelatedJitter, ReconnectPolicy, RetryQueue, TransportConfig};
use crate::metrics::{ServiceMetrics, ServiceStats};
use crate::protocol::{CloudJob, JobResult, ProgressUpdate};
use crate::service::{Canceller, JobHandle};
use crate::telemetry::{Stage, Telemetry, TraceId};
use crate::CloudError;
use bytes::Bytes;
use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A client of a [`crate::CloudServer`] over one multiplexed TCP
/// connection. Cloneable: clones share the connection and its session.
#[derive(Debug, Clone)]
pub struct RemoteCloudClient {
    shared: Arc<ClientShared>,
}

/// A client as its callers see it; its session on the client loop holds
/// the rest.
#[derive(Debug)]
pub(crate) struct ClientShared {
    runtime: Arc<Runtime>,
    /// The session's token on the loop.
    token: u64,
    state: Arc<State>,
    next_request: AtomicU64,
    /// Negotiated protocol version (first handshake).
    version: u32,
    /// In-flight cap the server advertised for this session (first
    /// handshake).
    server_max_in_flight: usize,
    /// The server's advertised frame cap: oversized submits are refused
    /// here instead of poisoning the shared connection.
    max_frame_len: usize,
    /// Automatic resubmissions each job may have (0 without a policy).
    max_resubmits: u32,
}

/// What a client's callers and its session on the loop both read.
#[derive(Debug)]
struct State {
    /// Client-side telemetry: the submit-to-reply RTT histogram
    /// ([`Stage::Rpc`]) and a flight recorder holding the client's view of
    /// each trace — the first of the three tiers a trace id is visible at.
    telemetry: Telemetry,
    /// The session ended: closed, or its link lost for good.
    closed: AtomicBool,
    reconnects: AtomicU64,
    jobs_resubmitted: AtomicU64,
    retries_scheduled: AtomicU64,
}

/// What a client's link keeps beside each retained job: where its answer
/// goes. Dropping it answers the handle `ServiceUnavailable`.
struct Waiter {
    tx: Sender<Result<JobResult, CloudError>>,
    /// Where mid-job Progress frames land; dropping the waiter ends the
    /// handle's progress iterator.
    progress_tx: Sender<ProgressUpdate>,
    /// The handle asked for cancellation: the job is never sent again.
    cancelled: bool,
    /// Automatic resubmissions left before errors surface to the handle.
    resubmits_left: u32,
}

/// What callers hand the client loop: a session to start, or work for the
/// session with a token. Work for a session that has ended is dropped
/// unrun, and so are the senders its callers wait on: they see
/// `ServiceUnavailable`.
enum Command {
    Open(u64, Box<Session>),
    Run(u64, Work),
}

/// Work for one session, run on the loop at the turn's instant.
type Work = Box<dyn FnOnce(&mut Session, Instant) + Send>;

/// The client loop: `client-reactor`, serving every client's link. Every
/// client holds it; the first starts it, and the last, dropping it, joins
/// it.
#[derive(Debug)]
struct Runtime {
    handle: Arc<ReactorShared<Command>>,
    /// What the loop counts into — its wake-ups and descriptors, its links'
    /// frames. Nobody reads it.
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    next_token: AtomicU64,
}

static RUNTIME: Mutex<Weak<Runtime>> = Mutex::new(Weak::new());

impl Drop for Runtime {
    /// The last client is gone: the loop stops, and its thread is joined.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.kick(&self.metrics);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Runtime {
    /// The running client loop, or a new one.
    fn get() -> Result<Arc<Runtime>, CloudError> {
        let mut running = RUNTIME.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(runtime) = running.upgrade() {
            return Ok(runtime);
        }
        let runtime = Runtime::start().map_err(|e| {
            CloudError::Transport(format!("client event loop failed to start: {e}"))
        })?;
        let runtime = Arc::new(runtime);
        *running = Arc::downgrade(&runtime);
        Ok(runtime)
    }

    /// Hands `work` to the session `token` on the loop.
    fn run(&self, token: u64, work: impl FnOnce(&mut Session, Instant) + Send + 'static) {
        self.handle
            .enqueue(Command::Run(token, Box::new(work)), &self.metrics);
    }

    fn start() -> std::io::Result<Runtime> {
        let (handle, part) = reactor_parts()?;
        let metrics = Arc::new(ServiceMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let clients = Clients {
            sessions: HashMap::new(),
        };
        let reactor = spawn_reactor(
            "client-reactor".into(),
            (Arc::clone(&handle), part),
            clients,
            Arc::clone(&metrics),
            Arc::clone(&stop),
        );
        Ok(Runtime {
            handle,
            metrics,
            stop,
            thread: Some(reactor),
            next_token: AtomicU64::new(0),
        })
    }
}

/// The client loop's tier: every client session of the process, by token.
struct Clients {
    sessions: HashMap<u64, Session>,
}

impl Tier for Clients {
    type Item = Command;

    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool) {
        let owner = token & !LINK;
        if let Some(session) = self.sessions.get_mut(&owner) {
            r.ready(owner, session, true, readable);
        }
    }

    fn adopt(&mut self, r: &mut Reactor, command: Command, _stopped: bool) {
        match command {
            Command::Open(token, mut session) => {
                session.dial(r.now);
                r.settle(token, &mut *session);
                self.sessions.insert(token, *session);
            }
            Command::Run(token, work) => {
                if let Some(session) = self.sessions.get_mut(&token).filter(|s| !s.ended) {
                    work(session, r.now);
                    session.unsettled = true;
                }
            }
        }
    }

    /// Settles each session that inbox work touched this round, once — so
    /// a burst of submits leaves in one write; on stop, every session still
    /// open ends.
    fn round(&mut self, r: &mut Reactor, stopped: bool) {
        for (&token, session) in &mut self.sessions {
            if stopped {
                session.end(CloudError::ServiceUnavailable);
            }
            if std::mem::take(&mut session.unsettled) || stopped {
                r.settle(token, session);
            }
        }
    }

    fn timer(&mut self, r: &mut Reactor, token: u64) {
        if let Some(session) = self.sessions.get_mut(&token) {
            r.fire(token, session);
        }
    }

    fn reap(&mut self) -> bool {
        self.sessions.retain(|_, session| !session.ended);
        self.sessions.is_empty()
    }
}

/// One client's session on the loop: its link, in the client's role.
struct Session {
    up: Uplink<Waiter>,
    state: Arc<State>,
    addrs: Vec<SocketAddr>,
    /// The address the next dial of this attempt tries.
    next_addr: usize,
    /// Until the first `Welcome`: where `connect` waits for it.
    welcome: Option<Sender<Result<Welcome, CloudError>>>,
    /// `GetStats` requests in flight on the link.
    stats: HashMap<u64, Sender<Result<ServiceStats, CloudError>>>,
    /// Jobs waiting out a `retry_after` (or a retry backoff) on `retries`.
    delayed: HashMap<u64, Job<Waiter>>,
    retries: RetryQueue,
    /// The redial backoff, given a reconnect policy.
    jitter: Option<DecorrelatedJitter>,
    /// Failed attempts — each a walk of the address list — since the last
    /// welcomed link.
    attempts: usize,
    /// When the next redial is due.
    redial_at: Option<Instant>,
    /// Inbox work ran on it this round (the round settles it).
    unsettled: bool,
    ended: bool,
}

impl Role for Session {
    type Job = Waiter;

    fn up(&mut self) -> &mut Uplink<Waiter> {
        &mut self.up
    }

    /// `connect` returns, or — the link was a reconnect — its tallies move.
    fn welcomed(&mut self, welcome: Welcome, resubmitted: usize, _: Instant) {
        match self.welcome.take() {
            Some(connect) => {
                let _ = connect.send(Ok(welcome));
            }
            None => {
                self.state.reconnects.fetch_add(1, Ordering::Relaxed);
                let resubmitted = resubmitted as u64;
                self.state
                    .jobs_resubmitted
                    .fetch_add(resubmitted, Ordering::Relaxed);
            }
        }
        self.attempts = 0;
        if let Some(jitter) = &mut self.jitter {
            jitter.reset();
        }
    }

    fn heard(&mut self, frame: Frame, now: Instant) -> bool {
        match frame {
            // The echoed trace id (when present) is the one minted at
            // submit; the job already holds it.
            Frame::Reply {
                request_id, result, ..
            } => {
                if let Some(job) = self.up.jobs.remove(&request_id) {
                    self.answer(request_id, job, result, now);
                }
            }
            // A miss is benign: the frame raced the reply that retired the
            // job.
            Frame::Progress { request_id, update } => {
                if let Some(job) = self.up.jobs.get(&request_id) {
                    let _ = job.role.progress_tx.send(update);
                }
            }
            Frame::Stats { request_id, body } => {
                if let Some(tx) = self.stats.remove(&request_id) {
                    let _ = tx.send(body.and_then(ServiceStats::from_bytes));
                }
            }
            Frame::Pong { .. } => {}
            _ => return false,
        }
        true
    }

    /// A connect that failed moves on to the next address; a link that
    /// connected and then failed ends this attempt.
    fn lost(&mut self, link: Link, cause: CloudError, now: Instant) {
        match (link.connected, self.next_addr < self.addrs.len()) {
            (false, true) => self.dial(now),
            _ => self.relink(link.welcomed, cause, now),
        }
    }
}

impl Machine for Session {
    fn socket(&mut self, link: bool) -> Option<&mut Socket> {
        link.then_some(&mut self.up.sock)
    }

    fn inbound(&mut self, _: bool, what: Inbound, now: Instant) {
        link::inbound(self, what, now);
    }

    /// The link's deadline first, then a redial and the retries that fell
    /// due — each queued now if the link is welcomed, or riding the next
    /// link's resubmission.
    fn timer(&mut self, now: Instant) {
        link::fired(self, now);
        if self.redial_at.is_some_and(|at| at <= now) {
            self.redial(now);
        }
        for id in self.retries.pop_due(now) {
            if let Some(job) = self.delayed.remove(&id) {
                if self.up.welcomed() {
                    self.state.jobs_resubmitted.fetch_add(1, Ordering::Relaxed);
                }
                self.up.retain(id, job, now);
            }
        }
    }

    /// The link's, the next redial's or the next retry's.
    fn deadline(&self, now: Instant) -> Option<Instant> {
        let own = self.redial_at.into_iter().chain(self.retries.next_due());
        self.up.deadline(now).into_iter().chain(own).min()
    }
}

impl Session {
    /// Dials the attempt's next address; a connect that fails comes back as
    /// the link's loss. With none left, the attempt failed.
    fn dial(&mut self, now: Instant) {
        match self.addrs.get(self.next_addr) {
            Some(&addr) => {
                self.next_addr += 1;
                self.up.connect((addr, addr.to_string()), now);
            }
            None => {
                let cause = CloudError::Transport("no address to connect to".into());
                self.relink(false, cause, now);
            }
        }
    }

    /// Routes one reply to its handle. In reconnect mode a retryable one
    /// (`RateLimited` with its honest `retry_after`, and the
    /// `ServiceUnavailable` a failing-over proxy answers with) makes the job
    /// wait and go again instead, while it has budget.
    fn answer(
        &mut self,
        id: u64,
        mut job: Job<Waiter>,
        result: Result<JobResult, CloudError>,
        now: Instant,
    ) {
        let delay = match (&self.up.config.reconnect, &result) {
            (Some(_), Err(e @ CloudError::RateLimited { .. })) => e.retry_after(),
            (Some(policy), Err(CloudError::ServiceUnavailable)) => Some(policy.base),
            _ => None,
        };
        match delay {
            Some(delay) if job.role.resubmits_left > 0 && !job.role.cancelled => {
                job.role.resubmits_left -= 1;
                self.state.retries_scheduled.fetch_add(1, Ordering::Relaxed);
                self.retries.schedule(id, now + delay);
                self.delayed.insert(id, job);
            }
            _ => {
                // The submit-to-reply round trip: the first of the three
                // tiers a trace id is visible at.
                self.state.telemetry.record_round_trip(
                    Stage::Rpc,
                    job.trace,
                    id,
                    job.sent_at,
                    result.is_ok(),
                );
                let _ = job.role.tx.send(result);
            }
        }
    }

    /// A new attempt, from the first address.
    fn redial(&mut self, now: Instant) {
        self.redial_at = None;
        self.next_addr = 0;
        self.dial(now);
    }

    /// After a lost link or a failed attempt: stats requests are answered
    /// `ServiceUnavailable` and cancelled jobs `Cancelled` — never sent
    /// again. Without a reconnect policy the session then ends; with one it
    /// re-dials, at once after a welcomed link and after a backoff after a
    /// failed attempt, until the attempt budget runs out.
    fn relink(&mut self, welcomed: bool, cause: CloudError, now: Instant) {
        self.stats.clear();
        self.up.jobs.retain(|_, job| {
            if job.role.cancelled {
                let _ = job.role.tx.send(Err(CloudError::Cancelled));
            }
            !job.role.cancelled
        });
        let (Some(policy), Some(jitter), None) =
            (&self.up.config.reconnect, &mut self.jitter, &self.welcome)
        else {
            return self.end(cause);
        };
        if welcomed {
            return self.redial(now);
        }
        self.attempts += 1;
        if policy.max_dial_attempts > 0 && self.attempts >= policy.max_dial_attempts {
            return self.end(cause);
        }
        self.redial_at = Some(now + jitter.next_delay());
    }

    /// The session is over: its link closes, and everything still waiting
    /// is answered — a `connect` with `cause`, the rest, dropped,
    /// `ServiceUnavailable`.
    fn end(&mut self, cause: CloudError) {
        self.ended = true;
        self.state.closed.store(true, Ordering::SeqCst);
        self.up.close();
        if let Some(connect) = self.welcome.take() {
            let _ = connect.send(Err(cause));
        }
        self.up.jobs.clear();
        self.delayed.clear();
        self.stats.clear();
    }

    /// Marks job `id` cancelled and (best effort) tells the server; the
    /// reply still settles it. A job no link carries right now is settled
    /// at once.
    fn cancel(&mut self, id: u64, now: Instant) {
        let settled = match self.delayed.remove(&id) {
            None if !self.up.welcomed() => self.up.jobs.remove(&id),
            None => {
                if let Some(job) = self.up.jobs.get_mut(&id) {
                    job.role.cancelled = true;
                    self.up.send(&Frame::Cancel { request_id: id }, now);
                }
                None
            }
            delayed => delayed,
        };
        if let Some(job) = settled {
            let _ = job.role.tx.send(Err(CloudError::Cancelled));
        }
    }

    /// Asks the server for its stats on the welcomed link; with none, the
    /// answer is `ServiceUnavailable` at once.
    fn fetch_stats(&mut self, id: u64, tx: Sender<Result<ServiceStats, CloudError>>, now: Instant) {
        if self.up.send(&Frame::GetStats { request_id: id }, now) {
            self.stats.insert(id, tx);
        }
    }

    /// `close()` says `Goodbye` (best effort) before the end — the driver
    /// writes it before the socket closes; a dropped client just ends, and
    /// the server sees its peer gone.
    fn close(&mut self, goodbye: bool, now: Instant) {
        if goodbye {
            self.up.send(&Frame::Goodbye, now);
        }
        self.end(CloudError::ServiceUnavailable);
    }
}

impl RemoteCloudClient {
    /// Connects and handshakes with the default [`TransportConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] on connect/I-O failure and
    /// [`CloudError::Handshake`] if the server refuses the session.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteCloudClient, CloudError> {
        RemoteCloudClient::connect_with(addr, TransportConfig::default())
    }

    /// [`connect`](Self::connect) with explicit tunables (API key,
    /// keep-alive cadence, frame cap, handshake deadline, reconnect
    /// policy). `addr` is resolved on the caller's thread; the connect and
    /// the handshake run on the client loop — each address in turn, each
    /// under [`TransportConfig::handshake_timeout`] — and the caller waits
    /// for their outcome.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] on connect/I-O failure and
    /// [`CloudError::Handshake`] if the server refuses the session.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
    ) -> Result<RemoteCloudClient, CloudError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CloudError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CloudError::Transport("address resolved to nothing".into()));
        }
        let max_resubmits = config.reconnect.as_ref().map_or(0, |p| p.max_resubmits);
        let state = Arc::new(State {
            telemetry: Telemetry::new(),
            closed: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            jobs_resubmitted: AtomicU64::new(0),
            retries_scheduled: AtomicU64::new(0),
        });
        let runtime = Runtime::get()?;
        let token = runtime.next_token.fetch_add(1, Ordering::Relaxed);
        let (welcome, welcomed) = channel();
        let config = TransportConfig {
            keepalive_interval: jittered_interval(config.keepalive_interval, token),
            ..config
        };
        let metrics = Arc::clone(&runtime.metrics);
        let session = Session {
            jitter: config.reconnect.as_ref().map(ReconnectPolicy::jitter),
            up: Uplink::new(token, config, None, metrics),
            state: Arc::clone(&state),
            addrs,
            next_addr: 0,
            welcome: Some(welcome),
            stats: HashMap::new(),
            delayed: HashMap::new(),
            retries: RetryQueue::new(),
            attempts: 0,
            redial_at: None,
            unsettled: false,
            ended: false,
        };
        let open = Command::Open(token, Box::new(session));
        runtime.handle.enqueue(open, &runtime.metrics);
        let (version, max_in_flight, max_frame_len) = welcomed
            .recv()
            .map_err(|_| CloudError::ServiceUnavailable)??;
        Ok(RemoteCloudClient {
            shared: Arc::new(ClientShared {
                runtime,
                token,
                state,
                next_request: AtomicU64::new(0),
                version,
                server_max_in_flight: max_in_flight as usize,
                max_frame_len: usize::try_from(max_frame_len).unwrap_or(usize::MAX),
                max_resubmits,
            }),
        })
    }

    /// The protocol version negotiated at the handshake.
    pub fn protocol_version(&self) -> u32 {
        self.shared.version
    }

    /// The per-connection in-flight cap the server advertised.
    pub fn max_in_flight(&self) -> usize {
        self.shared.server_max_in_flight
    }

    /// This client's self-healing tallies (all zero without a
    /// [`ReconnectPolicy`]) plus its submit-to-reply round-trip histogram.
    pub fn stats(&self) -> ClientStats {
        let state = &self.shared.state;
        ClientStats {
            reconnects: state.reconnects.load(Ordering::Relaxed),
            jobs_resubmitted: state.jobs_resubmitted.load(Ordering::Relaxed),
            retries_scheduled: state.retries_scheduled.load(Ordering::Relaxed),
            rtt: state.telemetry.hist(Stage::Rpc).snapshot(),
        }
    }

    /// The client-side telemetry plane: the [`Stage::Rpc`] round-trip
    /// histogram and a flight recorder holding this tier's view of every
    /// answered trace (look a job up by the trace id the server echoed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.state.telemetry
    }

    /// Fetches the **server's** full [`ServiceStats`] snapshot over this
    /// session — the wire twin of [`crate::CloudServer::stats`], available
    /// to remote operators without a listener-side handle.
    ///
    /// # Errors
    ///
    /// [`CloudError::Unauthorized`] if the service requires API keys and
    /// this session's key is not among them, plus the usual transport
    /// surface ([`CloudError::ServiceUnavailable`] on a dead session).
    pub fn fetch_stats(&self) -> Result<ServiceStats, CloudError> {
        let shared = &*self.shared;
        if shared.state.closed.load(Ordering::SeqCst) {
            return Err(CloudError::ServiceUnavailable);
        }
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        shared
            .runtime
            .run(shared.token, move |s, now| s.fetch_stats(id, tx, now));
        rx.recv().map_err(|_| CloudError::ServiceUnavailable)?
    }

    /// Uploads a job (serializing it — this *is* the trust boundary now)
    /// and returns a handle to the in-flight work.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] if the job is too big for the
    /// connection and [`CloudError::ServiceUnavailable`] if the session has
    /// ended.
    pub fn submit(&self, job: &CloudJob) -> Result<JobHandle, CloudError> {
        self.submit_payload(job.to_bytes())
    }

    /// Uploads an already-serialized payload.
    ///
    /// In reconnect mode a submit while the link is down still succeeds:
    /// the job waits as pending and rides the next link's resubmission.
    ///
    /// # Errors
    ///
    /// Same surface as [`submit`](Self::submit).
    pub fn submit_payload(&self, payload: Bytes) -> Result<JobHandle, CloudError> {
        let shared = &*self.shared;
        if shared.state.closed.load(Ordering::SeqCst) {
            return Err(CloudError::ServiceUnavailable);
        }
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        // Mint the end-to-end trace id here — the submit instant is the
        // root of the trace, and the frame's trace tail carries it.
        let trace = TraceId::mint();
        // The wire cap is the smaller of the server's advertised limit and
        // what a `u32` length prefix can carry at all: an oversized job is
        // refused here, nothing sent, rather than left to kill the shared
        // connection.
        let frame = Frame::Submit {
            request_id: id,
            payload: payload.clone(),
            trace: Some(trace),
        };
        let chunks = frame
            .wire_chunks()
            .map_err(|e| CloudError::Transport(e.to_string()))?;
        let body_len = chunks.iter().map(Bytes::len).sum::<usize>() - 4;
        if body_len > shared.max_frame_len {
            return Err(CloudError::Transport(format!(
                "job frame of {body_len} bytes exceeds the connection's cap of {} bytes",
                shared.max_frame_len
            )));
        }
        let (tx, rx) = channel();
        let (progress_tx, progress_rx) = channel();
        // The payload is retained (a refcount) until the reply, to be sent
        // again after a reconnect or a scheduled retry.
        let waiter = Waiter {
            tx,
            progress_tx,
            cancelled: false,
            resubmits_left: shared.max_resubmits,
        };
        let job = Job {
            payload,
            trace,
            sent_at: Instant::now(),
            role: waiter,
        };
        shared
            .runtime
            .run(shared.token, move |s, now| s.up.retain(id, job, now));
        let cancel = Canceller::Remote(Arc::downgrade(&self.shared));
        Ok(JobHandle::new(id, rx, progress_rx, cancel))
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates submission, transport, decode, validation and training
    /// errors.
    pub fn train(&self, job: &CloudJob) -> Result<JobResult, CloudError> {
        self.submit(job)?.wait()
    }

    /// Polite hang-up: sends `Goodbye`, closes the socket, and answers any
    /// still-pending handles with [`CloudError::ServiceUnavailable`] before
    /// it returns.
    pub fn close(self) {
        let (done, closed) = channel::<()>();
        self.shared.state.closed.store(true, Ordering::SeqCst);
        self.shared.runtime.run(self.shared.token, move |s, now| {
            s.close(true, now);
            drop(done);
        });
        let _ = closed.recv();
    }
}

impl ClientShared {
    /// Posts a `Cancel` for request `id` on the client loop.
    pub(crate) fn cancel(&self, id: u64) {
        self.runtime
            .run(self.token, move |s, now| s.cancel(id, now));
    }
}

impl Drop for ClientShared {
    /// The last clone is gone: the session ends without a `Goodbye` (the
    /// server sees its peer gone and abandons what it was running), and
    /// the lease, dropped next, joins the client loop if it was the last.
    fn drop(&mut self) {
        self.runtime.run(self.token, |s, now| s.close(false, now));
    }
}

/// De-synchronizes keep-alives across a fleet of clients. A batch of
/// connections created together (worker pools, scale-out restarts) would
/// otherwise all go write-idle at the same moment and ping in the same
/// tick — a periodic thundering herd on the server's reactors. Each
/// connection instead pings at a deterministic point in
/// `[0.75, 1.0] × interval`, keyed by its session token; the result is never
/// *longer* than the configured interval, so a jittered client still
/// outruns any server idle timeout the plain interval would.
fn jittered_interval(interval: Duration, seed: u64) -> Duration {
    // splitmix64 finalizer: a cheap, well-mixed hash of the seed.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
    interval.mul_f64(0.75 + 0.25 * frac)
}

/// The name a remote job's handle had before it became [`JobHandle`];
/// kept for the benchmark harness, which imports it.
pub type RemoteJobHandle = JobHandle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keepalive_jitter_stays_within_band_and_spreads_out() {
        let interval = Duration::from_secs(10);
        let lo = interval.mul_f64(0.75);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..2048u64 {
            let j = jittered_interval(interval, seed);
            assert!(j >= lo, "seed {seed}: {j:?} under the 0.75x floor");
            assert!(j <= interval, "seed {seed}: {j:?} over the interval");
            assert_eq!(
                j,
                jittered_interval(interval, seed),
                "must be deterministic"
            );
            distinct.insert(j.as_nanos());
        }
        // Adjacent ports must not collapse onto the same phase.
        assert!(
            distinct.len() > 1024,
            "only {} distinct phases",
            distinct.len()
        );
    }
}
