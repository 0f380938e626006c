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
//! `client-reactor` thread, beside a `client-dialer` thread for the connects
//! a reactor must not block on; the first connect starts the two and the
//! last client to close or drop joins them. Submits, cancels and `GetStats`
//! reach the loop through its inbox. A link pings once it has been
//! write-idle for its keep-alive interval, so the server's idle timeout only
//! ends sessions whose client is gone.
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

use super::event_loop::link::{self, Job, Link, Role, Uplink, LINK};
use super::event_loop::{reactor_parts, spawn_reactor, Reactor, ReactorShared, Tier};
use super::frame::{write_frame, Frame, FrameDecoder};
use super::timer::{Fired, TimerWheel};
use super::{
    ClientStats, DecorrelatedJitter, ReconnectPolicy, RetryQueue, TransportConfig, PROTOCOL_VERSION,
};
use crate::metrics::{ServiceMetrics, ServiceStats};
use crate::protocol::{CloudJob, JobResult, ProgressUpdate};
use crate::service::{Canceller, JobHandle};
use crate::telemetry::{Stage, Telemetry, TraceId};
use crate::CloudError;
use bytes::Bytes;
use reactor::Poller;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
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

/// What a `Welcome` negotiated: `(version, max_in_flight, max_frame_len)`.
pub(super) type Welcome = (u32, u32, u64);

/// What callers and the dialer hand the client loop: a session to start
/// with the socket `connect` dialed, or work for the session with a token.
/// Work for a session that has ended is dropped unrun, and so are the
/// senders its callers wait on: they see `ServiceUnavailable`.
enum Command {
    Open(u64, Box<Session>, (TcpStream, String)),
    Run(u64, Work),
}

/// Work for one session, run on the loop.
type Work = Box<dyn FnOnce(&mut Session, &mut Reactor) + Send>;

/// A session's request to the dialer: its token, where to dial, and the
/// connect deadline.
type Redial = (u64, Arc<[SocketAddr]>, Duration);

/// The client loop: `client-reactor` serving every client's link, and
/// `client-dialer`. Every client holds it; the first starts it, and the
/// last, dropping it, joins it.
#[derive(Debug)]
struct Runtime {
    handle: Arc<ReactorShared<Command>>,
    /// What the loop counts into — its wake-ups and descriptors, its links'
    /// frames. Nobody reads it.
    metrics: Arc<ServiceMetrics>,
    dialer: Sender<Redial>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    next_token: AtomicU64,
}

static RUNTIME: Mutex<Weak<Runtime>> = Mutex::new(Weak::new());

impl Drop for Runtime {
    /// The last client is gone: the loop stops, and its threads are joined
    /// — the reactor, then the dialer, whose senders went with the
    /// reactor's sessions and this runtime.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.kick(&self.metrics);
        self.dialer = channel().0;
        for thread in self.threads.drain(..) {
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
    fn run(&self, token: u64, work: impl FnOnce(&mut Session, &mut Reactor) + Send + 'static) {
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
        let (dialer, redials) = channel::<Redial>();
        let dial_thread = {
            let (handle, metrics) = (Arc::clone(&handle), Arc::clone(&metrics));
            std::thread::Builder::new()
                .name("client-dialer".into())
                .spawn(move || {
                    for (token, addrs, timeout) in redials {
                        let linked = dial(&addrs, timeout).ok();
                        let work = Box::new(move |s: &mut Session, r: &mut Reactor| {
                            s.linked(linked, r);
                        });
                        handle.enqueue(Command::Run(token, work), &metrics);
                    }
                })
                .expect("spawn client dialer")
        };
        Ok(Runtime {
            handle,
            metrics,
            dialer,
            stop,
            threads: vec![reactor, dial_thread],
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

    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool, writable: bool) {
        if let Some(session) = self.sessions.get_mut(&(token & !LINK)) {
            link::io(session, readable, writable, &mut r.poller, &mut r.wheel);
        }
    }

    fn adopt(&mut self, r: &mut Reactor, command: Command, _stopped: bool) {
        match command {
            Command::Open(token, mut session, stream) => {
                session.linked(Some(stream), r);
                self.sessions.insert(token, *session);
            }
            Command::Run(token, work) => {
                if let Some(session) = self.sessions.get_mut(&token).filter(|s| !s.ended) {
                    work(session, r);
                }
            }
        }
    }

    /// Flushes each link that submits were queued on this round, once; on
    /// stop, every session still open ends.
    fn round(&mut self, r: &mut Reactor, stopped: bool) {
        for session in self.sessions.values_mut() {
            if std::mem::take(&mut session.unflushed) {
                link::flush(session, &mut r.poller, &mut r.wheel);
            }
            if stopped {
                session.end(CloudError::ServiceUnavailable, &mut r.poller);
            }
        }
    }

    fn timer(&mut self, r: &mut Reactor, fired: Fired) {
        if let Some(session) = self.sessions.get_mut(&(fired.token & !LINK)) {
            session.due(fired.generation, r);
        }
    }

    fn reap(&mut self) -> bool {
        self.sessions.retain(|_, session| !session.ended);
        self.sessions.is_empty()
    }
}

/// One client's session on the loop: its link, in the client's role.
struct Session {
    token: u64,
    up: Uplink<Waiter>,
    state: Arc<State>,
    addrs: Arc<[SocketAddr]>,
    dialer: Sender<Redial>,
    /// Until the first `Welcome`: where `connect` waits for it.
    welcome: Option<Sender<Result<Welcome, CloudError>>>,
    /// `GetStats` requests in flight on the link.
    stats: HashMap<u64, Sender<Result<ServiceStats, CloudError>>>,
    /// Jobs waiting out a `retry_after` (or a retry backoff) on `retries`.
    delayed: HashMap<u64, Job<Waiter>>,
    retries: RetryQueue,
    /// The redial backoff, given a reconnect policy.
    jitter: Option<DecorrelatedJitter>,
    /// Failed dials since the last welcomed link.
    attempts: usize,
    /// When the next redial is due.
    redial_at: Option<Instant>,
    /// Submits were queued on the link this round (the round flushes them).
    unflushed: bool,
    ended: bool,
}

impl Role for Session {
    type Job = Waiter;

    fn up(&mut self) -> &mut Uplink<Waiter> {
        &mut self.up
    }

    /// `connect` returns, or — the link was a reconnect — its tallies move.
    fn welcomed(
        &mut self,
        welcome: Welcome,
        resubmitted: usize,
        _: &mut Poller,
        w: &mut TimerWheel,
    ) {
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
        self.arm(w);
    }

    fn heard(&mut self, frame: Frame, _: &mut Poller, w: &mut TimerWheel) -> bool {
        match frame {
            // The echoed trace id (when present) is the one minted at
            // submit; the job already holds it.
            Frame::Reply {
                request_id, result, ..
            } => {
                if let Some(job) = self.up.jobs.remove(&request_id) {
                    self.answer(request_id, job, result, w);
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

    fn lost(&mut self, link: Link, cause: CloudError, p: &mut Poller, w: &mut TimerWheel) {
        self.relink(link.welcomed, cause, p, w);
    }
}

impl Session {
    /// A connection to greet, or `None`: the dial failed.
    fn linked(&mut self, dialed: Option<(TcpStream, String)>, r: &mut Reactor) {
        let (poller, wheel) = (&mut r.poller, &mut r.wheel);
        if dialed.is_some_and(|dialed| self.up.connect(dialed, poller, wheel)) {
            link::flush(self, poller, wheel);
        } else {
            let cause = CloudError::Transport("connect failed".into());
            self.relink(false, cause, poller, wheel);
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
        wheel: &mut TimerWheel,
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
                self.retries.schedule(id, Instant::now() + delay);
                self.delayed.insert(id, job);
                self.arm(wheel);
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

    /// Arms the link's deadline together with the session's own: its next
    /// redial and its next retry.
    fn arm(&mut self, wheel: &mut TimerWheel) {
        self.up.wake_at = self
            .redial_at
            .into_iter()
            .chain(self.retries.next_due())
            .min();
        self.up.schedule(wheel);
    }

    /// The session's deadline fired: the link's first, then a redial and
    /// the retries that fell due — each queued now if the link is welcomed,
    /// or riding the next link's resubmission.
    fn due(&mut self, generation: u64, r: &mut Reactor) {
        if !link::fired(self, generation, &mut r.poller, &mut r.wheel) {
            return;
        }
        let now = Instant::now();
        if self.redial_at.is_some_and(|at| at <= now) {
            self.redial();
        }
        for id in self.retries.pop_due(now) {
            if let Some(job) = self.delayed.remove(&id) {
                if self.up.welcomed() {
                    self.state.jobs_resubmitted.fetch_add(1, Ordering::Relaxed);
                }
                self.up.retain(id, job, &mut r.wheel);
            }
        }
        self.arm(&mut r.wheel);
        link::flush(self, &mut r.poller, &mut r.wheel);
    }

    fn redial(&mut self) {
        self.redial_at = None;
        let timeout = self.up.config.connect_timeout;
        let _ = self
            .dialer
            .send((self.token, Arc::clone(&self.addrs), timeout));
    }

    /// After a lost link or a failed dial: stats requests are answered
    /// `ServiceUnavailable` and cancelled jobs `Cancelled` — never sent
    /// again. Without a reconnect policy the session then ends; with one it
    /// re-dials, at once after a welcomed link and after a backoff after a
    /// failed dial, until the dial budget runs out.
    fn relink(&mut self, welcomed: bool, cause: CloudError, p: &mut Poller, w: &mut TimerWheel) {
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
            return self.end(cause, p);
        };
        if welcomed {
            self.redial();
        } else {
            self.attempts += 1;
            if policy.max_dial_attempts > 0 && self.attempts >= policy.max_dial_attempts {
                return self.end(cause, p);
            }
            self.redial_at = Some(Instant::now() + jitter.next_delay());
        }
        self.arm(w);
    }

    /// The session is over: its link closes, and everything still waiting
    /// is answered — a `connect` with `cause`, the rest, dropped,
    /// `ServiceUnavailable`.
    fn end(&mut self, cause: CloudError, poller: &mut Poller) {
        self.ended = true;
        self.state.closed.store(true, Ordering::SeqCst);
        self.up.close(poller);
        if let Some(connect) = self.welcome.take() {
            let _ = connect.send(Err(cause));
        }
        self.up.jobs.clear();
        self.delayed.clear();
        self.stats.clear();
    }

    fn submit(&mut self, id: u64, job: Job<Waiter>, r: &mut Reactor) {
        self.up.retain(id, job, &mut r.wheel);
        self.unflushed = true;
    }

    /// Marks job `id` cancelled and (best effort) tells the server; the
    /// reply still settles it. A job no link carries right now is settled
    /// at once.
    fn cancel(&mut self, id: u64, r: &mut Reactor) {
        let settled = match self.delayed.remove(&id) {
            None if !self.up.welcomed() => self.up.jobs.remove(&id),
            None => {
                if let Some(job) = self.up.jobs.get_mut(&id) {
                    job.role.cancelled = true;
                    if self.up.send(&Frame::Cancel { request_id: id }) {
                        link::flush(self, &mut r.poller, &mut r.wheel);
                    }
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
    fn fetch_stats(
        &mut self,
        id: u64,
        tx: Sender<Result<ServiceStats, CloudError>>,
        r: &mut Reactor,
    ) {
        if self.up.send(&Frame::GetStats { request_id: id }) {
            self.stats.insert(id, tx);
            link::flush(self, &mut r.poller, &mut r.wheel);
        }
    }

    /// `close()` says `Goodbye` (best effort) before the end; a dropped
    /// client just ends, and the server sees its peer gone.
    fn close(&mut self, goodbye: bool, r: &mut Reactor) {
        if goodbye && self.up.send(&Frame::Goodbye) {
            link::flush(self, &mut r.poller, &mut r.wheel);
        }
        self.end(CloudError::ServiceUnavailable, &mut r.poller);
    }
}

/// Dials `addrs` in order, each attempt bounded by `timeout`: the first
/// connection made, and the address it went to.
fn dial(addrs: &[SocketAddr], timeout: Duration) -> Result<(TcpStream, String), CloudError> {
    let mut last_err = CloudError::Transport("no address to connect to".into());
    for addr in addrs {
        match TcpStream::connect_timeout(addr, timeout) {
            Ok(stream) => return Ok((stream, addr.to_string())),
            Err(e) => last_err = CloudError::Transport(format!("connect to {addr} failed: {e}")),
        }
    }
    Err(last_err)
}

/// The client role's half of the handshake on a blocking socket that has
/// just connected: `Hello` (with `config.api_key`) out, `Welcome` in. A
/// routing tier's health probes use it; links speak the same two frames
/// from their reactor (`hello` and `welcomed` below).
///
/// Sets `TCP_NODELAY`, and leaves `config.handshake_timeout` as the socket's
/// read timeout and `config.write_timeout` as its write timeout — a peer
/// that stops reading must not wedge a writer forever.
///
/// Returns what the `Welcome` negotiated: `(version, max_in_flight,
/// max_frame_len)`.
///
/// # Errors
///
/// Returns [`CloudError::Handshake`] with the server's reason if it answers
/// `Reject` (or anything but `Welcome`, or hangs up), and
/// [`CloudError::Transport`] on I/O failure.
pub fn handshake(
    mut stream: &TcpStream,
    config: &TransportConfig,
) -> Result<(u32, u32, u64), CloudError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.handshake_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    write_frame(&mut stream, &hello(config.api_key.clone()))
        .map_err(|e| CloudError::Transport(format!("handshake write failed: {e}")))?;
    let mut decoder = FrameDecoder::new();
    loop {
        if let Some((frame, _)) = decoder.next_frame(config.max_frame_len)? {
            return welcomed(frame);
        }
        match decoder.read_from(&mut stream) {
            Ok(0) => {
                return Err(CloudError::Handshake(
                    "server closed during handshake".into(),
                ))
            }
            Ok(_) => {}
            Err(e) => return Err(CloudError::Transport(format!("read failed: {e}"))),
        }
    }
}

/// The client role's opener: this build's protocol version and `api_key`.
pub(super) fn hello(api_key: Option<String>) -> Frame {
    Frame::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
        api_key,
    }
}

/// The client role's reading of the answer to its `Hello`: what a `Welcome`
/// negotiated, or why not.
pub(super) fn welcomed(frame: Frame) -> Result<Welcome, CloudError> {
    match frame {
        Frame::Welcome {
            version,
            max_in_flight,
            max_frame_len,
        } => Ok((version, max_in_flight, max_frame_len)),
        Frame::Reject { reason } => Err(CloudError::Handshake(reason)),
        other => Err(CloudError::Handshake(format!(
            "expected Welcome, got {other:?}"
        ))),
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
    /// keep-alive cadence, frame cap, connect deadline, reconnect policy).
    /// The TCP connect blocks the caller (bounded by
    /// [`TransportConfig::connect_timeout`]); the handshake runs on the
    /// client loop, and the caller waits for its outcome.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] on connect/I-O failure and
    /// [`CloudError::Handshake`] if the server refuses the session.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
    ) -> Result<RemoteCloudClient, CloudError> {
        let addrs: Arc<[SocketAddr]> = addr
            .to_socket_addrs()
            .map_err(|e| CloudError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CloudError::Transport("address resolved to nothing".into()));
        }
        let (stream, peer) = dial(&addrs, config.connect_timeout)?;
        let keepalive_seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(0);
        let keepalive_interval = jittered_interval(config.keepalive_interval, keepalive_seed);
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
            keepalive_interval,
            ..config
        };
        let metrics = Arc::clone(&runtime.metrics);
        let session = Session {
            token,
            jitter: config.reconnect.as_ref().map(ReconnectPolicy::jitter),
            up: Uplink::new(token, config, None, metrics),
            state: Arc::clone(&state),
            addrs,
            dialer: runtime.dialer.clone(),
            welcome: Some(welcome),
            stats: HashMap::new(),
            delayed: HashMap::new(),
            retries: RetryQueue::new(),
            attempts: 0,
            redial_at: None,
            unflushed: false,
            ended: false,
        };
        let open = Command::Open(token, Box::new(session), (stream, peer));
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
            .run(shared.token, move |s, r| s.fetch_stats(id, tx, r));
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
            .run(shared.token, move |s, r| s.submit(id, job, r));
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
        self.shared.runtime.run(self.shared.token, move |s, r| {
            s.close(true, r);
            drop(done);
        });
        let _ = closed.recv();
    }
}

impl ClientShared {
    /// Posts a `Cancel` for request `id` on the client loop.
    pub(crate) fn cancel(&self, id: u64) {
        self.runtime.run(self.token, move |s, r| s.cancel(id, r));
    }
}

impl Drop for ClientShared {
    /// The last clone is gone: the session ends without a `Goodbye` (the
    /// server sees its peer gone and abandons what it was running), and
    /// the lease, dropped next, joins the client loop if it was the last.
    fn drop(&mut self) {
        self.runtime.run(self.token, |s, r| s.close(false, r));
    }
}

/// De-synchronizes keep-alives across a fleet of clients. A batch of
/// connections created together (worker pools, scale-out restarts) would
/// otherwise all go write-idle at the same moment and ping in the same
/// tick — a periodic thundering herd on the server's reactors. Each
/// connection instead pings at a deterministic point in
/// `[0.75, 1.0] × interval`, keyed by its local port; the result is never
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
