//! The front door itself: accept sessions, route them, and keep jobs
//! alive across backend deaths.
//!
//! One [`AmalgamProxy`] fronts N `CloudServer` backends. Each accepted
//! client connection becomes a *session*: the proxy terminates the client's
//! handshake, picks the session's home backend on the consistent-hash ring
//! (so per-session QoS, dedup and fairness state live on exactly one
//! backend), opens its own framed connection there, and from then on pumps
//! `Submit` frames forward and `Reply` frames back.
//!
//! The proxy retains every in-flight `Submit` payload ([`bytes::Bytes`]
//! refcount clones, not copies) keyed by request id. When a backend link
//! dies mid-flight, the session *fails over*: the breaker records the
//! failure, the ring is walked again past ejected backends, the session
//! re-handshakes with the survivor, and every retained job is resubmitted
//! under its original request id. Replays are safe by construction —
//! training jobs are seeded and deterministic, and the backends'
//! content-addressed dedup collapses duplicate executions — so the client
//! simply sees its replies arrive late, never lost. Backends sharing a
//! checkpoint store (`CloudServiceBuilder::checkpoint_store`) do better
//! still: a failed-over job resumes from its last epoch-boundary snapshot
//! on the survivor instead of recomputing from scratch, bitwise identical
//! either way. Only when the *whole*
//! fleet is unroutable does the session answer its in-flight jobs with
//! [`CloudError::ServiceUnavailable`], which a reconnecting
//! `RemoteCloudClient` treats as retry-with-backoff.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amalgam_cloud::transport::{
    handshake, read_frame_blocking, wake_acceptor, write_frame, Frame, FrameDecoder, FrameOrigin,
    TransportConfig, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use amalgam_cloud::{
    CloudError, JobTrace, ServiceMetrics, ServiceStats, SpanRecord, Stage, TraceId,
};
use bytes::Bytes;
use parking_lot::Mutex;

use crate::breaker::{BreakerConfig, BreakerRegistry, Transition};
use crate::health::spawn_prober;
use crate::ring::HashRing;

/// How often blocked reads wake up to notice faults, deaths and shutdown.
const TICK: Duration = Duration::from_millis(50);

/// Front-door tunables. The embedded [`TransportConfig`] governs both
/// faces: its limits are enforced on clients and respected toward
/// backends.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Frame/session limits and timeouts for both sides of the proxy.
    pub transport: TransportConfig,
    /// Virtual nodes per backend on the routing ring (default 64).
    pub vnodes: usize,
    /// Circuit-breaker thresholds applied to every backend.
    pub breaker: BreakerConfig,
    /// How often the health prober sweeps the fleet (default 500 ms).
    pub probe_interval: Duration,
    /// Per-probe I/O deadline: dial, handshake and ping round-trip
    /// (default 1 s).
    pub probe_timeout: Duration,
    /// How long a session waits on a silent backend that owes it replies
    /// before declaring the link dead (default 60 s — must exceed the
    /// worst-case job runtime).
    pub reply_timeout: Duration,
}

impl Default for ProxyConfig {
    fn default() -> ProxyConfig {
        ProxyConfig {
            transport: TransportConfig::default(),
            vnodes: 64,
            breaker: BreakerConfig::default(),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            reply_timeout: Duration::from_secs(60),
        }
    }
}

impl ProxyConfig {
    /// Sets the transport limits/timeouts for both proxy faces.
    #[must_use]
    pub fn transport(mut self, transport: TransportConfig) -> ProxyConfig {
        self.transport = transport;
        self
    }

    /// Sets the virtual nodes per backend on the routing ring.
    #[must_use]
    pub fn vnodes(mut self, vnodes: usize) -> ProxyConfig {
        self.vnodes = vnodes;
        self
    }

    /// Sets the circuit-breaker thresholds.
    #[must_use]
    pub fn breaker(mut self, breaker: BreakerConfig) -> ProxyConfig {
        self.breaker = breaker;
        self
    }

    /// Sets the health prober's sweep interval.
    #[must_use]
    pub fn probe_interval(mut self, interval: Duration) -> ProxyConfig {
        self.probe_interval = interval;
        self
    }

    /// Sets the per-probe I/O deadline.
    #[must_use]
    pub fn probe_timeout(mut self, timeout: Duration) -> ProxyConfig {
        self.probe_timeout = timeout;
        self
    }

    /// Sets the silent-backend deadline for sessions with replies owed.
    #[must_use]
    pub fn reply_timeout(mut self, timeout: Duration) -> ProxyConfig {
        self.reply_timeout = timeout;
        self
    }
}

/// State shared by the acceptor, every session and the health prober.
#[derive(Debug)]
pub(crate) struct ProxyShared {
    pub(crate) config: ProxyConfig,
    pub(crate) ring: HashRing,
    pub(crate) breakers: BreakerRegistry,
    pub(crate) metrics: Arc<ServiceMetrics>,
    pub(crate) stop: AtomicBool,
    /// Clones of accepted client sockets, severed on shutdown.
    client_socks: Mutex<Vec<TcpStream>>,
    /// Detached session threads, joined on shutdown.
    session_threads: Mutex<Vec<JoinHandle<()>>>,
    active_sessions: AtomicUsize,
    next_anon: AtomicU64,
}

impl ProxyShared {
    /// Feeds a data-path or probe failure to `addr`'s breaker, mirroring
    /// an ejection into the metrics.
    pub(crate) fn record_backend_failure(&self, addr: &str) {
        let t = self
            .breakers
            .with(addr, |b| b.record_failure(Instant::now()));
        if t == Transition::Ejected {
            self.metrics.backend_ejected(addr);
        }
    }

    /// Feeds a probe success to `addr`'s breaker, mirroring a readmission
    /// into the metrics.
    pub(crate) fn record_backend_success(&self, addr: &str) {
        let t = self.breakers.with(addr, |b| b.record_success());
        if t == Transition::Readmitted {
            self.metrics.backend_readmitted(addr);
        }
    }
}

/// The routing tier: a TCP front door over N framed backends.
#[derive(Debug)]
pub struct AmalgamProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl AmalgamProxy {
    /// Binds the front door on `addr` over `backends` (dial addresses of
    /// running `CloudServer`s) and starts accepting sessions.
    ///
    /// # Errors
    ///
    /// Returns the listener's bind error.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty (see [`HashRing::new`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[String],
        config: ProxyConfig,
    ) -> std::io::Result<AmalgamProxy> {
        // The acceptor blocks in `accept`; `stop` wakes it.
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = Arc::new(ServiceMetrics::new());
        for b in backends {
            metrics.backend_registered(b);
        }
        let shared = Arc::new(ProxyShared {
            ring: HashRing::new(backends, config.vnodes),
            breakers: BreakerRegistry::new(config.breaker, backends),
            config,
            metrics,
            stop: AtomicBool::new(false),
            client_socks: Mutex::new(Vec::new()),
            session_threads: Mutex::new(Vec::new()),
            active_sessions: AtomicUsize::new(0),
            next_anon: AtomicU64::new(0),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("proxy-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_shared))
            .expect("spawn proxy acceptor");
        let prober = spawn_prober(Arc::clone(&shared));
        Ok(AmalgamProxy {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            prober: Some(prober),
        })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's own telemetry: connections, frames,
    /// failovers, resubmissions and the per-backend health table.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// The proxy's telemetry plane: the backend round-trip histogram
    /// ([`Stage::BackendRtt`]) and the routing tier's flight recorder —
    /// the middle of the three vantage points a trace id is visible at.
    pub fn telemetry(&self) -> &amalgam_cloud::Telemetry {
        self.shared.metrics.telemetry()
    }

    /// Stops accepting, severs every client session and joins all proxy
    /// threads. Backends are untouched.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for s in self.shared.client_socks.lock().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.acceptor.take() {
            if wake_acceptor(self.addr, &handle) {
                let _ = handle.join();
            }
        }
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
        let threads: Vec<_> = self.shared.session_threads.lock().drain(..).collect();
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for AmalgamProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            // Whoever this was — most likely the wake-up — finds the door
            // closed.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if shared.active_sessions.load(Ordering::SeqCst)
                    >= shared.config.transport.max_connections
                {
                    shared.metrics.conn_rejected();
                    reject(stream, "proxy at connection capacity");
                    continue;
                }
                shared.active_sessions.fetch_add(1, Ordering::SeqCst);
                let session_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("proxy-session".into())
                    .spawn(move || {
                        run_session(&session_shared, stream);
                        session_shared
                            .active_sessions
                            .fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn proxy session");
                shared.session_threads.lock().push(handle);
            }
            // Out of descriptors, or a connection reset while it queued:
            // nothing to hand on, and nothing to wait for but the next one.
            Err(_) => std::thread::sleep(TICK / 10),
        }
    }
}

/// Best-effort `Reject` before closing an unwanted connection.
fn reject(mut stream: TcpStream, reason: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(
        &mut stream,
        &Frame::Reject {
            reason: reason.into(),
        },
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// One retained in-flight job.
#[derive(Debug)]
struct InFlightJob {
    /// The serialized `CloudJob`, retained until its `Reply` arrives
    /// (refcount clone of the client's upload, not a copy).
    payload: Bytes,
    /// The end-to-end trace id the client minted ([`TraceId::NONE`] from a
    /// v1 client); forwarded to v2 backends and echoed on the Reply.
    trace: TraceId,
    /// Generation of the backend link this job was last written to
    /// (0 = never sent; link generations start at 1). Failover resubmits
    /// exactly the jobs whose `sent_gen` differs from the new link's.
    sent_gen: u64,
    /// When the job last hit a backend socket, so its Reply scores the
    /// backend round trip ([`Stage::BackendRtt`]).
    sent_at: Instant,
}

/// One live connection to a backend. Every write goes through `writer`'s
/// lock with the full frame inside it, so session and failover writers
/// never interleave frame bytes.
#[derive(Debug)]
struct BackendLink {
    addr: String,
    generation: u64,
    writer: Mutex<TcpStream>,
    last_write: Mutex<Instant>,
    /// The protocol version the backend negotiated; the trace extension is
    /// stripped from Submits toward v1 backends.
    version: u32,
    max_in_flight: u32,
    max_frame_len: u64,
}

impl BackendLink {
    /// Writes one frame under the link's writer lock, stamping
    /// `last_write` so the keep-alive timer restarts and tallying the
    /// bytes as relayed backend-face traffic.
    fn write(&self, frame: &Frame, metrics: &ServiceMetrics) -> bool {
        let mut w = self.writer.lock();
        match write_frame(&mut *w, frame) {
            Ok(n) => {
                metrics.relay_frame_sent(n);
                *self.last_write.lock() = Instant::now();
                true
            }
            Err(_) => false,
        }
    }

    /// `trace` as it may ride this link: intact toward v2 backends,
    /// stripped toward v1.
    fn wire_trace(&self, trace: TraceId) -> Option<TraceId> {
        (self.version >= 2 && !trace.is_none()).then_some(trace)
    }
}

/// One client session's shared state (pump thread + backend reader threads).
struct Session {
    shared: Arc<ProxyShared>,
    /// The routing key: the session's API key, or a unique anonymous tag.
    route_key: String,
    api_key: Option<String>,
    /// The protocol version negotiated with the client; trace ids are only
    /// echoed on Replies when the client speaks v2.
    client_version: u32,
    client_writer: Mutex<TcpStream>,
    in_flight: Mutex<HashMap<u64, InFlightJob>>,
    backend: Mutex<Option<Arc<BackendLink>>>,
    /// Monotonic link-generation counter; guards against stale death
    /// notices (a reader of generation G may only tear down generation G).
    generation: AtomicU64,
    /// Serializes reroute attempts so concurrent failure reports dial once.
    route_lock: Mutex<()>,
    dead: AtomicBool,
    /// Last frame seen *from* the backend — the silent-link stall clock.
    last_backend_frame: Mutex<Instant>,
    ping_nonce: AtomicU64,
}

impl Session {
    fn dying(&self) -> bool {
        self.dead.load(Ordering::SeqCst) || self.shared.stop.load(Ordering::SeqCst)
    }

    /// Writes one frame to the client; a failed write kills the session.
    /// Job replies count toward the main frame tallies, everything else
    /// (Welcome, Pong, Stats) toward the protocol-overhead sub-counters.
    fn write_client(&self, frame: &Frame) -> bool {
        let mut w = self.client_writer.lock();
        match write_frame(&mut *w, frame) {
            Ok(n) => {
                match frame {
                    Frame::Reply { .. } => self.shared.metrics.frame_sent(n),
                    _ => self.shared.metrics.control_frame_sent(n),
                }
                true
            }
            Err(_) => {
                self.dead.store(true, Ordering::SeqCst);
                let _ = w.shutdown(Shutdown::Both);
                false
            }
        }
    }

    /// `trace` as it may ride a Reply to this client: intact toward v2
    /// clients, stripped toward v1.
    fn client_trace(&self, trace: TraceId) -> Option<TraceId> {
        (self.client_version >= 2 && !trace.is_none()).then_some(trace)
    }

    /// Answers one request id with an error, dropping its retained payload.
    fn answer_err(&self, request_id: u64, err: CloudError) {
        let trace = self
            .in_flight
            .lock()
            .remove(&request_id)
            .map_or(TraceId::NONE, |job| job.trace);
        self.write_client(&Frame::Reply {
            request_id,
            result: Err(err),
            trace: self.client_trace(trace),
        });
    }

    /// Fleet exhausted: answer *every* retained job with
    /// `ServiceUnavailable` so a reconnecting client can back off and
    /// resubmit rather than hang.
    fn answer_all_unavailable(&self) {
        let ids: Vec<(u64, TraceId)> = {
            let mut inf = self.in_flight.lock();
            let ids = inf.iter().map(|(id, job)| (*id, job.trace)).collect();
            inf.clear();
            ids
        };
        for (id, trace) in ids {
            self.write_client(&Frame::Reply {
                request_id: id,
                result: Err(CloudError::ServiceUnavailable),
                trace: self.client_trace(trace),
            });
        }
    }

    /// Forwards one fresh submit, routing/failing over as needed. The job
    /// is already retained in `in_flight` (unsent, `sent_gen` 0).
    fn forward_submit(self: &Arc<Session>, request_id: u64) {
        // Bounded against link churn; each iteration either sends, observes
        // that a concurrent failover already resent the job, or burns one
        // dead link.
        for _ in 0..4 {
            if self.dying() {
                return;
            }
            let link = self.backend.lock().clone();
            let Some(link) = link else {
                if !self.reroute(None) {
                    self.answer_err(request_id, CloudError::ServiceUnavailable);
                    return;
                }
                continue;
            };
            // Claim the job for this link generation under the in-flight
            // lock: if a concurrent failover's resubmission already stamped
            // it, it is on the wire and this pump must not duplicate it.
            let (payload, trace) = {
                let mut inf = self.in_flight.lock();
                match inf.get_mut(&request_id) {
                    None => return, // answered (e.g. fleet exhaustion) meanwhile
                    Some(job) if job.sent_gen == link.generation => return,
                    Some(job) => {
                        job.sent_gen = link.generation;
                        job.sent_at = Instant::now();
                        (job.payload.clone(), job.trace)
                    }
                }
            };
            if link.write(
                &Frame::Submit {
                    request_id,
                    payload,
                    trace: link.wire_trace(trace),
                },
                &self.shared.metrics,
            ) {
                return;
            }
            self.failover(link.generation);
        }
    }

    /// Tears down link generation `expected` (if still current) and moves
    /// the session to a survivor, resubmitting retained jobs.
    fn failover(self: &Arc<Session>, expected: u64) {
        // A dying session's link teardown is expected, not a backend
        // failure — don't let it poison the breaker or trigger a reroute.
        if self.dying() {
            return;
        }
        let addr = {
            let mut slot = self.backend.lock();
            match &*slot {
                Some(link) if link.generation == expected => {
                    let addr = link.addr.clone();
                    let _ = link.writer.lock().shutdown(Shutdown::Both);
                    *slot = None;
                    addr
                }
                _ => return, // a newer link exists; stale notice
            }
        };
        self.shared.record_backend_failure(&addr);
        if self.dying() {
            return;
        }
        self.shared.metrics.backend_failover(&addr);
        if self.reroute(Some(&addr)) {
            self.shared.metrics.reconnect_established();
        }
    }

    /// Dials the session's best admissible backend (ring order from its
    /// hash, breaker-gated, minus `exclude`), installs the link and
    /// resubmits every retained job not yet sent on it. Returns `false` —
    /// after answering all retained jobs — only when the whole fleet is
    /// unroutable.
    fn reroute(self: &Arc<Session>, exclude: Option<&str>) -> bool {
        let _route = self.route_lock.lock();
        if self.backend.lock().is_some() {
            return true; // another reporter already failed over
        }
        if self.dying() {
            return false;
        }
        for addr in self.shared.ring.ordered(&self.route_key) {
            if Some(addr) == exclude || !self.shared.breakers.admits_traffic(addr) {
                continue;
            }
            match dial_backend(&self.shared, addr, self.api_key.as_deref()) {
                Some(mut link) => {
                    link.generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
                    let link = Arc::new(link);
                    *self.last_backend_frame.lock() = Instant::now();
                    *self.backend.lock() = Some(Arc::clone(&link));
                    self.shared.metrics.backend_session_routed(addr);
                    self.spawn_backend_reader(&link);
                    self.resubmit_unsent(&link);
                    return true;
                }
                None => self.shared.record_backend_failure(addr),
            }
        }
        self.answer_all_unavailable();
        false
    }

    /// Resubmits every retained job whose `sent_gen` is not `link`'s
    /// generation, stamping each before the write (so a concurrent fresh
    /// submit can't double-send it). A mid-resubmit write failure just
    /// stops: the link's reader will notice the dead socket and fail over,
    /// and the next generation's stamp mismatch re-sends everything.
    fn resubmit_unsent(&self, link: &BackendLink) {
        let to_send: Vec<(u64, Bytes, TraceId)> = {
            let mut inf = self.in_flight.lock();
            let mut jobs: Vec<(u64, Bytes, TraceId)> = inf
                .iter_mut()
                .filter(|(_, job)| job.sent_gen != link.generation)
                .map(|(id, job)| {
                    job.sent_gen = link.generation;
                    job.sent_at = Instant::now();
                    (*id, job.payload.clone(), job.trace)
                })
                .collect();
            jobs.sort_unstable_by_key(|(id, _, _)| *id);
            jobs
        };
        if to_send.is_empty() {
            return;
        }
        let mut sent = 0u64;
        for (request_id, payload, trace) in to_send {
            if !link.write(
                &Frame::Submit {
                    request_id,
                    payload,
                    trace: link.wire_trace(trace),
                },
                &self.shared.metrics,
            ) {
                break;
            }
            sent += 1;
        }
        if sent > 0 {
            self.shared
                .metrics
                .backend_jobs_resubmitted(&link.addr, sent);
        }
    }

    /// Scores one answered job into the proxy's telemetry plane: the
    /// submit-to-reply backend round trip lands in the
    /// [`Stage::BackendRtt`] histogram and the flight recorder gains this
    /// tier's view of the trace (the middle of the three tiers).
    fn record_backend_rtt(&self, request_id: u64, job: &InFlightJob, ok: bool) {
        let tel = self.shared.metrics.telemetry();
        if !tel.enabled() {
            return;
        }
        let rtt = job.sent_at.elapsed();
        tel.record(Stage::BackendRtt, rtt);
        let dur_us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
        tel.recorder().push(JobTrace {
            trace: job.trace,
            job_id: request_id,
            total_us: dur_us,
            ok,
            spans: vec![SpanRecord {
                stage: Stage::BackendRtt,
                start_us: 0,
                dur_us,
                ok,
            }],
        });
    }

    /// Spawns the reader pumping `link`'s replies back to the client.
    fn spawn_backend_reader(self: &Arc<Session>, link: &Arc<BackendLink>) {
        let Ok(stream) = link.writer.lock().try_clone() else {
            // No reader means no replies: treat as an immediate link death.
            let generation = link.generation;
            let sess = Arc::clone(self);
            std::thread::spawn(move || sess.failover(generation));
            return;
        };
        let sess = Arc::clone(self);
        let link = Arc::clone(link);
        std::thread::Builder::new()
            .name("proxy-backend-reader".into())
            .spawn(move || backend_reader(&sess, &link, stream))
            .expect("spawn backend reader");
    }

    /// Client went idle for a tick: keep the backend link warm so its
    /// server-side idle timeout doesn't fire under a slow client.
    fn keepalive_tick(self: &Arc<Session>) {
        let Some(link) = self.backend.lock().clone() else {
            return;
        };
        let due =
            link.last_write.lock().elapsed() >= self.shared.config.transport.keepalive_interval;
        if due {
            let nonce = self.ping_nonce.fetch_add(1, Ordering::Relaxed);
            if !link.write(&Frame::Ping { nonce }, &self.shared.metrics) {
                self.failover(link.generation);
            }
        }
    }
}

/// Dials `addr`, runs the Hello/Welcome handshake with the session's API
/// key, and returns the ready link (generation stamped by the caller's
/// counter *before* install — see [`Session::reroute`]).
fn dial_backend(
    shared: &Arc<ProxyShared>,
    addr: &str,
    api_key: Option<&str>,
) -> Option<BackendLink> {
    let config = TransportConfig {
        api_key: api_key.map(str::to_string),
        ..shared.config.transport.clone()
    };
    let sock_addr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sock_addr, config.connect_timeout).ok()?;
    let (version, max_in_flight, max_frame_len, hello_wire, welcome_wire) =
        handshake(&stream, &config).ok()?;
    shared.metrics.relay_frame_sent(hello_wire);
    shared.metrics.relay_frame_received(welcome_wire);
    Some(BackendLink {
        addr: addr.to_string(),
        generation: 0, // stamped by the caller before install
        writer: Mutex::new(stream),
        last_write: Mutex::new(Instant::now()),
        version,
        max_in_flight,
        max_frame_len,
    })
}

/// Pumps one backend link's frames back to the client until the link dies
/// (→ failover) or is superseded.
fn backend_reader(sess: &Arc<Session>, link: &Arc<BackendLink>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(TICK));
    let max_frame_len = sess.shared.config.transport.max_frame_len;
    let mut dec = FrameDecoder::for_peer(FrameOrigin::Server);
    loop {
        if sess.dying() || sess.generation.load(Ordering::SeqCst) != link.generation {
            return;
        }
        loop {
            match dec.next_frame(max_frame_len) {
                Ok(Some((frame, wire))) => {
                    *sess.last_backend_frame.lock() = Instant::now();
                    // Backend-face traffic is *relayed*, never double-counted
                    // against the client-face frame totals.
                    sess.shared.metrics.relay_frame_received(wire);
                    match frame {
                        Frame::Reply {
                            request_id,
                            result,
                            trace: _,
                        } => {
                            // The retained entry's trace is authoritative —
                            // a v1 backend echoes nothing, yet the client
                            // still gets its id back.
                            let job = sess.in_flight.lock().remove(&request_id);
                            let trace = job.as_ref().map_or(TraceId::NONE, |j| j.trace);
                            if let Some(job) = &job {
                                sess.record_backend_rtt(request_id, job, result.is_ok());
                            }
                            if !sess.write_client(&Frame::Reply {
                                request_id,
                                result,
                                trace: sess.client_trace(trace),
                            }) {
                                return; // client gone; pump thread cleans up
                            }
                        }
                        Frame::Progress { request_id, update } => {
                            // Mid-job streaming is a v2 extension: forward
                            // only to clients that negotiated it (a v1
                            // client's decoder never sees the frame). The
                            // retained entry guards against replaying
                            // progress for a job already answered.
                            if sess.client_version >= 2
                                && sess.in_flight.lock().contains_key(&request_id)
                                && !sess.write_client(&Frame::Progress { request_id, update })
                            {
                                return; // client gone; pump thread cleans up
                            }
                        }
                        Frame::Pong { .. } => {}
                        // A backend speaking anything else mid-session is
                        // broken: treat as a link failure.
                        _ => {
                            sess.failover(link.generation);
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    sess.failover(link.generation);
                    return;
                }
            }
        }
        match dec.read_from(&mut stream) {
            Ok(0) => {
                sess.failover(link.generation);
                return;
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // A backend owing replies that says nothing for the whole
                // reply window is wedged (hung, black-holed, or mid-write
                // crashed) even though TCP looks alive.
                let stalled = !sess.in_flight.lock().is_empty()
                    && sess.last_backend_frame.lock().elapsed() > sess.shared.config.reply_timeout;
                if stalled {
                    sess.failover(link.generation);
                    return;
                }
            }
            Err(_) => {
                sess.failover(link.generation);
                return;
            }
        }
    }
}

/// The session's main thread: terminate the client handshake, route, then
/// pump client frames until either side ends.
fn run_session(shared: &Arc<ProxyShared>, mut client: TcpStream) {
    let t = &shared.config.transport;
    let _ = client.set_nodelay(true);
    let _ = client.set_write_timeout(Some(t.write_timeout));
    let _ = client.set_read_timeout(Some(t.handshake_timeout));

    // One Hello, exactly as a backend would demand it.
    let hello = match read_frame_blocking(&mut client, t.max_frame_len, FrameOrigin::Client) {
        Ok(Some((frame @ Frame::Hello { .. }, wire))) => {
            shared.metrics.control_frame_received(wire);
            frame
        }
        _ => {
            shared.metrics.conn_rejected();
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let Frame::Hello {
        min_version,
        max_version,
        api_key,
    } = hello
    else {
        unreachable!("matched Hello above");
    };
    let version = PROTOCOL_VERSION.min(max_version);
    if version < MIN_PROTOCOL_VERSION.max(min_version) {
        shared.metrics.conn_rejected();
        reject(
            client,
            &format!(
                "no common protocol version (proxy speaks \
                 {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                 client {min_version}..={max_version})"
            ),
        );
        return;
    }

    let route_key = api_key
        .clone()
        .unwrap_or_else(|| format!("anon#{}", shared.next_anon.fetch_add(1, Ordering::Relaxed)));
    let sess = Arc::new(Session {
        shared: Arc::clone(shared),
        route_key,
        api_key,
        client_version: version,
        client_writer: Mutex::new(match client.try_clone() {
            Ok(w) => w,
            Err(_) => {
                shared.metrics.conn_rejected();
                let _ = client.shutdown(Shutdown::Both);
                return;
            }
        }),
        in_flight: Mutex::new(HashMap::new()),
        backend: Mutex::new(None),
        generation: AtomicU64::new(0),
        route_lock: Mutex::new(()),
        dead: AtomicBool::new(false),
        last_backend_frame: Mutex::new(Instant::now()),
        ping_nonce: AtomicU64::new(0),
    });

    // Route before welcoming: a session the fleet can't take is Rejected
    // outright, so the client's connect() fails loudly instead of its first
    // submit failing quietly.
    if !sess.reroute(None) {
        shared.metrics.conn_rejected();
        reject(client, "no healthy backend");
        return;
    }
    let (backend_mif, backend_mfl) = {
        let slot = sess.backend.lock();
        let link = slot.as_ref().expect("reroute installed a link");
        (link.max_in_flight, link.max_frame_len)
    };
    // Advertise the *tighter* of our limits and the home backend's, so a
    // client honoring the Welcome can never trip either hop's caps.
    let welcome = Frame::Welcome {
        version,
        max_in_flight: backend_mif.min(t.max_in_flight as u32),
        max_frame_len: backend_mfl.min(t.max_frame_len as u64),
    };
    if !sess.write_client(&welcome) {
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    shared.metrics.conn_opened();
    if let Ok(clone) = client.try_clone() {
        let mut socks = shared.client_socks.lock();
        socks.retain(|s| s.peer_addr().is_ok());
        socks.push(clone);
    }

    // Pump client frames.
    let _ = client.set_read_timeout(Some(TICK));
    let mut dec = FrameDecoder::new();
    'pump: loop {
        if sess.dying() {
            break;
        }
        loop {
            match dec.next_frame(t.max_frame_len) {
                Ok(Some((frame, wire))) => {
                    match frame {
                        Frame::Submit { .. } => shared.metrics.frame_received(wire),
                        _ => shared.metrics.control_frame_received(wire),
                    }
                    match frame {
                        Frame::Submit {
                            request_id,
                            payload,
                            trace,
                        } => {
                            sess.in_flight.lock().insert(
                                request_id,
                                InFlightJob {
                                    payload,
                                    trace: trace.unwrap_or(TraceId::NONE),
                                    sent_gen: 0,
                                    sent_at: Instant::now(),
                                },
                            );
                            sess.forward_submit(request_id);
                        }
                        Frame::Cancel { request_id } => {
                            // Best effort, like everywhere else in the
                            // cancel path: the request reaches the backend
                            // only while a v2 link is up. The job is still
                            // retained — its Reply (normally Cancelled)
                            // settles it; if the link dies first, failover
                            // resubmits and the job's ordinary outcome
                            // answers the client. Never a hung handle.
                            if let Some(link) = sess.backend.lock().clone() {
                                if link.version >= 2 {
                                    let _ =
                                        link.write(&Frame::Cancel { request_id }, &shared.metrics);
                                }
                            }
                        }
                        Frame::Ping { nonce } => {
                            if !sess.write_client(&Frame::Pong { nonce }) {
                                break 'pump;
                            }
                        }
                        // The proxy answers stats queries itself: its
                        // snapshot is the routing tier's view (failovers,
                        // per-backend health, backend-RTT quantiles), which
                        // no single backend can report.
                        Frame::GetStats { request_id } => {
                            let body = Ok(shared.metrics.snapshot().to_bytes());
                            if !sess.write_client(&Frame::Stats { request_id, body }) {
                                break 'pump;
                            }
                        }
                        Frame::Goodbye => {
                            // Mark the session dying *before* the forwarded
                            // Goodbye can make the backend close its side,
                            // so the backend reader's EOF doesn't read as a
                            // failure and fail the parting session over.
                            sess.dead.store(true, Ordering::SeqCst);
                            if let Some(link) = sess.backend.lock().clone() {
                                let _ = link.write(&Frame::Goodbye, &shared.metrics);
                            }
                            break 'pump;
                        }
                        // Clients must not speak server frames or a second
                        // Hello.
                        _ => break 'pump,
                    }
                }
                Ok(None) => break,
                Err(_) => break 'pump,
            }
        }
        match dec.read_from(&mut client) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                sess.keepalive_tick();
            }
            Err(_) => break,
        }
    }

    // Teardown: detach readers via the death flag, sever both directions.
    sess.dead.store(true, Ordering::SeqCst);
    let _ = client.shutdown(Shutdown::Both);
    if let Some(link) = sess.backend.lock().take() {
        let _ = link.writer.lock().shutdown(Shutdown::Both);
    }
    shared.metrics.conn_closed();
}
