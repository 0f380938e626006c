//! The transport's event loops: each reactor thread owns a poller, a timer
//! wheel and a set of connections, and drives every connection as an
//! explicit state machine over nonblocking sockets.
//!
//! # Connection state machine
//!
//! ```text
//!            accept (round-robin to a reactor)
//!                      │
//!                      ▼
//!               ┌─────────────┐   bad opener / version / timeout
//!               │ Handshaking │ ───────────────────────────┐
//!               └──────┬──────┘  (Reject is flushed first  │
//!                Hello ok │        where one is owed)      │
//!                      ▼                                   │
//!               ┌─────────────┐  Goodbye / EOF / idle /    │
//!               │ Established │  violation / server stop   │
//!               └──────┬──────┘ ───────────┐               │
//!                      │                   ▼               │
//!                      │            ┌──────────┐           │
//!                      │            │ Draining │           │
//!                      │            └────┬─────┘           │
//!                      │   in-flight = 0 │ and queue       │
//!                      │     flushed (or sink broken)      │
//!                      ▼                 ▼                 ▼
//!                  ┌──────────────────────────────────────────┐
//!                  │                 Closed                   │
//!                  └──────────────────────────────────────────┘
//! ```
//!
//! A connection is owned by exactly one reactor thread, so its state needs
//! no locks. Cross-thread signals — new connections from the acceptor,
//! links from a dialer, completed jobs from the workers, submissions from a
//! remote client's callers, shutdown — go through each reactor's
//! [`ReactorShared`] inbox/ready-list plus a [`reactor::Waker`].
//!
//! One loop ([`Reactor::run`]) drives two [`Tier`]s: a server's pool, whose
//! connections play the server role (the diagram above), and the process's
//! client loop (`transport::client`), whose connections are remote clients'
//! links. A link is the client role: a socket this process dialed, with its
//! `Hello`/`Welcome` exchange, its deadlines and the jobs it retains (the
//! `link` submodule). On a relay each session owns one, its backend link,
//! registered on the session's own reactor (the `relay` submodule), so a
//! session and its link are one thread's state.
//!
//! # Backpressure
//!
//! Writes never block: frames the socket won't take queue on the
//! connection's [`WriteQueue`], write interest is registered, and the
//! reactor flushes on writability. The per-connection in-flight cap counts
//! replies from acceptance until their bytes are fully flushed, so a peer
//! that stops reading stops being allowed to submit. A queue that makes no
//! progress for [`TransportConfig::write_timeout`] marks the sink broken:
//! the socket is torn down and remaining replies are drained without
//! writing, so in-flight accounting still reaches zero and drain completes.

pub(super) mod link;
mod relay;

use super::frame::{Frame, FrameDecoder};
use super::server::{ServerShared, Upstream};
use super::timer::{Fired, TimerWheel};
use super::{TransportConfig, PROTOCOL_VERSION};
use crate::metrics::ServiceMetrics;
use crate::middleware::SessionKey;
use crate::protocol::JobResult;
use crate::service::{CancelFlag, CloudClient, RoutedMsg, RoutedSender};
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use reactor::{Event, Interest, Poller, WakeReceiver, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Token reserved for the reactor's own wake pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// Token reserved for the Prometheus exporter's listener (reactor 0 only).
const EXPORTER_TOKEN: u64 = u64::MAX - 1;

/// Cap on one exporter request's header bytes; enough for any scraper's
/// `GET /metrics` preamble, small enough that a hostile peer buys nothing.
const HTTP_REQUEST_CAP: usize = 4096;

/// Timer wheel granularity. Deadlines fire within one tick of their due
/// time, never early.
const WHEEL_TICK: Duration = Duration::from_millis(5);

/// Timer wheel slots (one revolution = `WHEEL_TICK * WHEEL_SLOTS`; longer
/// deadlines lap).
const WHEEL_SLOTS: usize = 512;

/// What another thread hands a server reactor.
#[derive(Debug)]
pub(super) enum Inbound {
    /// A connection the acceptor accepted.
    Accepted(TcpStream),
    /// The dialer's answer to the relay session with this token: a
    /// connection to a backend (and its address), or `None` when no backend
    /// would take it.
    Linked(u64, Option<(TcpStream, String)>),
}

/// The cross-thread face of one reactor: everything other threads may
/// touch. `T` is what its tier takes through the inbox.
pub(super) struct ReactorShared<T> {
    waker: Waker,
    /// Handed over but not yet taken up by the reactor thread.
    inbox: Mutex<Vec<T>>,
    /// Tokens whose reply channel has pending completions.
    ready_replies: Mutex<Vec<u64>>,
    /// Connections the acceptor dealt here and the reactor has not yet
    /// reaped: it deals each new one to the reactor with the fewest.
    pub(super) live: AtomicUsize,
}

impl<T> std::fmt::Debug for ReactorShared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorShared")
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl<T> ReactorShared<T> {
    /// Hands `item` to this reactor and wakes it.
    pub(super) fn enqueue(&self, item: T, metrics: &ServiceMetrics) {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(item);
        if self.waker.wake() {
            metrics.reactor_wakeup();
        }
    }

    /// Wakes the reactor with nothing attached (shutdown kick).
    pub(super) fn kick(&self, metrics: &ServiceMetrics) {
        if self.waker.wake() {
            metrics.reactor_wakeup();
        }
    }

    /// Flags `token` as having completions to flush and wakes the reactor.
    /// Called from worker threads via each connection's [`RoutedSender`].
    fn notify_replies(&self, token: u64, metrics: &ServiceMetrics) {
        let mut ready = self
            .ready_replies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !ready.contains(&token) {
            ready.push(token);
        }
        drop(ready);
        if self.waker.wake() {
            metrics.reactor_wakeup();
        }
    }
}

/// What a reactor thread serves. The loop ([`Reactor::run`]) is one; these
/// are the points where a server's pool and the client loop differ.
pub(super) trait Tier: Send + 'static {
    /// What other threads hand this tier through the inbox.
    type Item: Send + 'static;
    /// Readiness on a token this tier registered.
    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool, writable: bool);
    /// One item from the inbox.
    fn adopt(&mut self, r: &mut Reactor, item: Self::Item, stopped: bool);
    /// Runs once per round, after the inbox.
    fn round(&mut self, r: &mut Reactor, stopped: bool);
    /// A deadline this tier armed fell due.
    fn timer(&mut self, r: &mut Reactor, fired: Fired);
    /// Drops closed connections; `true` once none is left.
    fn reap(&mut self) -> bool;
}

/// Spawns the thread `name` running `tier` on one reactor's parts; it
/// counts into `metrics` and runs until `stop` is set and its tier is idle.
pub(super) fn spawn_reactor<T: Tier>(
    name: String,
    (handle, (wake_rx, mut poller)): (Arc<ReactorShared<T::Item>>, ReactorPrivate),
    tier: T,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    poller
        .register(wake_rx.fd(), WAKER_TOKEN, Interest::READABLE)
        .expect("register reactor waker");
    metrics.reactor_fd_registered();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            Reactor {
                poller,
                wake_rx,
                metrics,
                stop,
                wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS),
                next_token: 0,
                events: Vec::new(),
                fired: Vec::new(),
            }
            .run(tier, &handle)
        })
        .expect("spawn reactor")
}

/// Spawns reactor `index` of `shared`'s pool as the thread `name`.
pub(super) fn spawn_server_reactor(
    name: String,
    index: usize,
    shared: Arc<ServerShared>,
    (wake_rx, mut poller): ReactorPrivate,
    exporter: Option<TcpListener>,
) -> std::thread::JoinHandle<()> {
    if let Some(listener) = &exporter {
        poller
            .register(listener.as_raw_fd(), EXPORTER_TOKEN, Interest::READABLE)
            .expect("register metrics exporter listener");
        shared.metrics.reactor_fd_registered();
    }
    let handle = Arc::clone(&shared.reactors[index]);
    let (metrics, stop) = (Arc::clone(&shared.metrics), Arc::clone(&shared.stop));
    let tier = Sessions {
        handle: Arc::clone(&handle),
        index,
        shared,
        conns: HashMap::new(),
        exporter,
        http_conns: HashMap::new(),
    };
    spawn_reactor(name, (handle, (wake_rx, poller)), tier, metrics, stop)
}

/// The reactor-private half of one reactor's plumbing: the read end of
/// its wake pipe and its poller.
pub(super) type ReactorPrivate = (WakeReceiver, Poller);

/// One reactor's shared handle, and the private half its thread takes with
/// it.
pub(super) fn reactor_parts<T>() -> std::io::Result<(Arc<ReactorShared<T>>, ReactorPrivate)> {
    let (waker, wake_rx) = Waker::new()?;
    let handle = Arc::new(ReactorShared {
        waker,
        inbox: Mutex::new(Vec::new()),
        ready_replies: Mutex::new(Vec::new()),
        live: AtomicUsize::new(0),
    });
    Ok((handle, (wake_rx, Poller::new()?)))
}

/// Lifecycle of one connection; see the module diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Handshaking,
    Established,
    Draining,
    Closed,
}

/// One connection's entire state, owned by its reactor thread.
struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    decoder: FrameDecoder,
    writes: WriteQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    replies_rx: Receiver<(u64, RoutedMsg)>,
    routed: RoutedSender,
    /// The upstream side of a relay session; `None` on a service's.
    relay: Option<Box<relay::Relay>>,
    /// Shared with every [`RoutedSender`] clone handed to workers; cleared
    /// when the peer is gone for good (abrupt EOF or read error while
    /// established, or the connection closed). Trainers probe it through
    /// progress emission: once it clears, an in-flight job knows nobody
    /// can receive its result and cancels itself at the next epoch
    /// boundary, keeping its checkpoint for a resumed resubmission.
    peer_alive: Arc<AtomicBool>,
    /// Session identity, present once the handshake succeeded.
    session_client: Option<CloudClient>,
    /// The peer's `Hello` was accepted (a relay session is still
    /// handshaking while its backend link is routed).
    greeted: bool,
    /// Trace id of each accepted submit, echoed onto its Reply frame.
    traces: HashMap<u64, TraceId>,
    /// Cancellation flag of each accepted submit still executing; a Cancel
    /// frame for the request id flips it, the reply retires it.
    cancels: HashMap<u64, CancelFlag>,
    /// Submits accepted but whose reply bytes are not yet fully flushed
    /// (or discarded). Queued replies count: a peer that stops reading
    /// keeps its slots occupied.
    in_flight: usize,
    /// Still counted in [`ServerShared`]'s submitter gauge.
    counts_submitter: bool,
    /// `conn_opened` was recorded (so `conn_closed` is owed).
    counts_session_open: bool,
    /// A write failed or stalled out: never write again (the byte stream
    /// may sit mid-frame), just drain accounting.
    sink_broken: bool,
    last_activity: Instant,
    last_write_progress: Instant,
    /// The deadline armed on the wheel, and its generation (a stale fire
    /// is ignored).
    armed: Option<Instant>,
    timer_gen: u64,
}

/// How one flush attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// Queue fully flushed.
    Drained,
    /// Socket stopped taking bytes; write interest is needed.
    Blocked,
    /// Write error: the sink is gone.
    Broken,
}

/// One queued chunk of outbound bytes. A frame is up to three chunks (see
/// [`Frame::wire_chunks`]: a reply's trained model is queued as the
/// worker's own buffer, never copied); the last carries the frame
/// accounting.
struct Pending {
    buf: Bytes,
    pos: usize,
    /// `(wire_len, is_reply)` on a frame's final chunk.
    end_of_frame: Option<(usize, bool)>,
}

/// Per-connection outbound queue; only touched by the owning reactor.
#[derive(Default)]
struct WriteQueue {
    q: VecDeque<Pending>,
    /// Unflushed bytes across all chunks (mirrored into the service-wide
    /// backpressure gauge).
    bytes: usize,
    /// A link's queue: its frames are counted as relayed once written, never
    /// in a session's totals.
    relay: bool,
}

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Queues one frame. Returns `false` — nothing queued — only for a
    /// frame too big for the `u32` length prefix, which no control frame is.
    fn push_frame(&mut self, frame: &Frame, is_reply: bool, metrics: &ServiceMetrics) -> bool {
        let Ok(chunks) = frame.wire_chunks() else {
            return false;
        };
        let wire: usize = chunks.iter().map(Bytes::len).sum();
        self.bytes += wire;
        metrics.write_queue_grew(wire);
        // The frame counters move at *commit* time, not flush time: once a
        // frame is queued its delivery is ordered before any observer can
        // see the peer react to it, so a client that received a reply is
        // guaranteed to find it already counted in the server's stats.
        // (Counting at flush races: on a busy box the completing write can
        // wake the peer, which reads the stats before the writing thread
        // gets to increment.) Frames discarded unsent are uncounted again.
        // Non-reply frames are protocol overhead (Welcome, Pong, Reject,
        // Stats): counted in the totals *and* the control sub-counter.
        match (self.relay, is_reply) {
            (true, _) => {} // counted once written (`flush`)
            (false, true) => metrics.frame_sent(wire),
            (false, false) => metrics.control_frame_sent(wire),
        }
        for buf in chunks.into_iter().filter(|c| !c.is_empty()) {
            self.q.push_back(Pending {
                buf,
                pos: 0,
                end_of_frame: None,
            });
        }
        let last = self.q.back_mut().expect("a frame's head is never empty");
        last.end_of_frame = Some((wire, is_reply));
        true
    }

    /// Writes as much as the socket will take. Returns completed reply
    /// frames (their in-flight slots free up) and how the attempt ended.
    fn flush(
        &mut self,
        stream: &mut impl Write,
        metrics: &ServiceMetrics,
    ) -> (usize, FlushOutcome) {
        let mut replies = 0;
        loop {
            // Pop chunks that are already fully written (including any
            // zero-length ones) before gathering.
            while let Some(front) = self.q.front() {
                if front.pos < front.buf.len() {
                    break;
                }
                match front.end_of_frame {
                    Some((wire, _)) if self.relay => metrics.relay_frame_sent(wire),
                    // Counted at push time; here only the in-flight slot is
                    // released, which genuinely requires the bytes flushed.
                    Some((_, true)) => replies += 1,
                    _ => {}
                }
                self.q.pop_front();
            }
            if self.q.is_empty() {
                return (replies, FlushOutcome::Drained);
            }
            // Gather the front chunks into one vectored write: a reply
            // split into prefix/head, payload and trace-tail chunks leaves
            // in a single syscall, not one small TCP segment per chunk.
            let mut iov = [std::io::IoSlice::new(&[]); 8];
            let mut n_iov = 0;
            for p in self.q.iter() {
                if n_iov == iov.len() {
                    break;
                }
                if p.pos < p.buf.len() {
                    iov[n_iov] = std::io::IoSlice::new(&p.buf[p.pos..]);
                    n_iov += 1;
                }
            }
            match stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => return (replies, FlushOutcome::Broken),
                Ok(mut n) => {
                    self.bytes -= n;
                    metrics.write_queue_shrank(n);
                    // Chunks written whole are popped (and their frames
                    // settled) at the top of the next round.
                    for p in self.q.iter_mut() {
                        if n == 0 {
                            break;
                        }
                        let take = n.min(p.buf.len() - p.pos);
                        p.pos += take;
                        n -= take;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return (replies, FlushOutcome::Blocked)
                }
                Err(_) => return (replies, FlushOutcome::Broken),
            }
        }
    }

    /// Drops everything (broken sink), returning how many queued reply
    /// frames were discarded so their in-flight slots free up. Frames that
    /// never fully flushed are uncounted from the sent totals.
    fn discard(&mut self, metrics: &ServiceMetrics) -> usize {
        let mut replies = 0;
        for p in self.q.drain(..) {
            match p.end_of_frame {
                Some((wire, true)) => {
                    metrics.frame_send_aborted(wire);
                    replies += 1;
                }
                Some((wire, false)) if !self.relay => metrics.control_frame_send_aborted(wire),
                _ => {}
            }
        }
        metrics.write_queue_shrank(self.bytes);
        self.bytes = 0;
        replies
    }
}

/// One event-loop thread's own machinery: its poller, timer wheel and token
/// counter, what it counts into, and its stop flag. What it serves is its
/// [`Tier`].
pub(super) struct Reactor {
    pub(super) poller: Poller,
    pub(super) wheel: TimerWheel,
    wake_rx: WakeReceiver,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    next_token: u64,
    /// Reused buffers for poll results and fired timers.
    events: Vec<Event>,
    fired: Vec<Fired>,
}

/// A server reactor's tier: the connections of its share of the pool.
struct Sessions {
    shared: Arc<ServerShared>,
    handle: Arc<ReactorShared<Inbound>>,
    /// This reactor's place in the pool.
    index: usize,
    conns: HashMap<u64, Conn>,
    /// The Prometheus exporter's listener (reactor 0 only).
    exporter: Option<TcpListener>,
    /// In-progress exporter scrapes, keyed by poller token.
    http_conns: HashMap<u64, HttpConn>,
}

/// One Prometheus scrape in flight: read the request head, write one
/// `HTTP/1.0` response, close. No keep-alive, no routing — every path gets
/// the metrics body.
struct HttpConn {
    stream: TcpStream,
    /// Request bytes read so far (only until the header terminator).
    request: Vec<u8>,
    /// The rendered response once the request head is complete.
    response: Option<Bytes>,
    /// Bytes of `response` already written.
    written: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Reactor {
    /// A token no connection of this reactor has had.
    pub(super) fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token - 1
    }

    fn run<T: Tier>(mut self, mut tier: T, handle: &ReactorShared<T::Item>) {
        // Swapped with the inbox each round, so neither side reallocates.
        let mut inbox = Vec::new();
        loop {
            let timeout = self
                .wheel
                .next_deadline()
                .map(|dl| dl.saturating_duration_since(Instant::now()));
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller would spin; back off and keep draining via
                // wake-ups and timers.
                std::thread::sleep(Duration::from_millis(1));
            }
            self.metrics.reactor_events(events.len());
            // Drain the waker before reading anything it guards: a wake that
            // lands while this wake-up is being served is coalesced into it
            // (no new byte), so what it published — the stop flag here, the
            // inbox and the ready list below — must be read after the drain.
            // The same iteration that drains the shutdown kick therefore
            // also observes the flag and applies it.
            if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
                self.wake_rx.drain();
            }
            let stopped = self.stop.load(Ordering::SeqCst);
            for ev in events.iter().filter(|ev| ev.token != WAKER_TOKEN) {
                tier.io(&mut self, ev.token, ev.readable, ev.writable);
            }
            self.events = events;

            std::mem::swap(
                &mut *handle.inbox.lock().unwrap_or_else(PoisonError::into_inner),
                &mut inbox,
            );
            for item in inbox.drain(..) {
                tier.adopt(&mut self, item, stopped);
            }
            tier.round(&mut self, stopped);

            let mut fired = std::mem::take(&mut self.fired);
            self.wheel.advance(Instant::now(), &mut fired);
            for f in fired.drain(..) {
                tier.timer(&mut self, f);
            }
            self.fired = fired;

            if tier.reap()
                && stopped
                && handle
                    .inbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty()
            {
                self.poller
                    .deregister(self.wake_rx.fd())
                    .expect("deregister reactor waker");
                self.metrics.reactor_fd_deregistered();
                return;
            }
        }
    }
}

impl Tier for Sessions {
    type Item = Inbound;

    /// Readiness for the exporter, a scrape, a connection's socket or its
    /// backend link.
    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool, writable: bool) {
        if token == EXPORTER_TOKEN {
            return self.accept_http(r);
        }
        if self.http_conns.contains_key(&token) {
            return self.handle_http_io(r, token, readable);
        }
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
        let Some(conn) = self.conns.get_mut(&(token & !link::LINK)) else {
            return; // stale event for an already-closed token
        };
        if token & link::LINK != 0 {
            return relay::link_io(conn, readable, writable, shared, poller, wheel);
        }
        if writable && conn.state != ConnState::Closed {
            flush_writes(conn, shared, poller, wheel);
        }
        if readable && matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
            on_readable(conn, shared, poller, wheel);
        }
    }

    /// Registers a connection the acceptor handed over, or gives a relay
    /// session the link the dialer made it. Under stop, a new arrival is
    /// closed immediately instead (the acceptor has already quit; it raced
    /// the flag).
    fn adopt(&mut self, r: &mut Reactor, item: Inbound, stopped: bool) {
        let stream = match item {
            Inbound::Accepted(stream) => stream,
            Inbound::Linked(token, dialed) => {
                // A link that outlived its session closes as it drops.
                if let Some(conn) = self.conns.get_mut(&token) {
                    relay::linked(conn, dialed, &self.shared, &mut r.poller, &mut r.wheel);
                }
                return;
            }
        };
        let _ = stream.set_nodelay(true);
        let token = r.token();
        if stopped
            || stream.set_nonblocking(true).is_err()
            || r.poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
        {
            self.shared.submitters_dec();
            self.shared.release_conn(false);
            self.handle.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.shared.metrics.reactor_fd_registered();
        let (tx, rx) = channel();
        let notify = {
            let handle = Arc::clone(&self.handle);
            let metrics = Arc::clone(&self.shared.metrics);
            Arc::new(move || handle.notify_replies(token, &metrics)) as Arc<dyn Fn() + Send + Sync>
        };
        let now = Instant::now();
        let peer_alive = Arc::new(AtomicBool::new(true));
        let mut conn = Conn {
            stream,
            token,
            state: ConnState::Handshaking,
            decoder: FrameDecoder::new(),
            writes: WriteQueue::default(),
            interest: Interest::READABLE,
            replies_rx: rx,
            routed: RoutedSender::new(tx, notify, Arc::clone(&peer_alive)),
            relay: match self.shared.upstream {
                Upstream::Service(_) => None,
                Upstream::Relay { .. } => Some(relay::Relay::new(self.index, token, &self.shared)),
            },
            peer_alive,
            session_client: None,
            greeted: false,
            traces: HashMap::new(),
            cancels: HashMap::new(),
            in_flight: 0,
            counts_submitter: true,
            counts_session_open: false,
            sink_broken: false,
            last_activity: now,
            last_write_progress: now,
            armed: None,
            timer_gen: 0,
        };
        arm(&mut conn, &self.shared.config, &mut r.wheel);
        self.conns.insert(token, conn);
    }

    /// Drains the completion channels of every connection the workers
    /// flagged, then applies a stop.
    fn round(&mut self, r: &mut Reactor, stopped: bool) {
        let tokens = std::mem::take(
            &mut *self
                .handle
                .ready_replies
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                pump_replies(conn, &self.shared, &mut r.poller, &mut r.wheel);
            }
        }
        if stopped {
            self.apply_stop(r);
        }
    }

    /// A connection's deadline fired, or its link's.
    fn timer(&mut self, r: &mut Reactor, f: Fired) {
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
        let Some(conn) = self.conns.get_mut(&(f.token & !link::LINK)) else {
            return;
        };
        if f.token & link::LINK != 0 {
            return relay::link_timer(conn, f.generation, shared, poller, wheel);
        }
        if f.generation != conn.timer_gen {
            return;
        }
        conn.armed = None;
        let now = Instant::now();
        match deadlines(conn, &shared.config).map(|at| at.is_some_and(|at| at <= now)) {
            [_, true] => mark_sink_broken(conn, shared, poller, wheel),
            // A silent opener is not a protocol offense — just close
            // (parity with the old transport).
            [true, _] if conn.state == ConnState::Handshaking => close_conn(conn, shared, poller),
            [true, _] => enter_draining(conn, shared, poller, wheel),
            [false, false] => {}
        }
        arm(conn, &shared.config, wheel);
    }

    fn reap(&mut self) -> bool {
        let before = self.conns.len();
        self.conns.retain(|_, c| c.state != ConnState::Closed);
        self.handle
            .live
            .fetch_sub(before - self.conns.len(), Ordering::SeqCst);
        self.conns.is_empty()
    }
}

impl Sessions {
    /// Accepts pending exporter connections onto this reactor's poller.
    fn accept_http(&mut self, r: &mut Reactor) {
        let Some(listener) = &self.exporter else {
            return;
        };
        let stopped = self.shared.stop.load(Ordering::SeqCst);
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stopped || stream.set_nonblocking(true).is_err() {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let token = r.token();
                    if r.poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    self.shared.metrics.reactor_fd_registered();
                    self.http_conns.insert(
                        token,
                        HttpConn {
                            stream,
                            request: Vec::new(),
                            response: None,
                            written: 0,
                            interest: Interest::READABLE,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Drives one exporter scrape: read until the request head is complete,
    /// render the metrics page once, write it out, close.
    fn handle_http_io(&mut self, r: &mut Reactor, token: u64, readable: bool) {
        let Some(http) = self.http_conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;
        if readable && http.response.is_none() {
            let mut buf = [0u8; 1024];
            loop {
                match http.stream.read(&mut buf) {
                    Ok(0) => {
                        // EOF before the terminator: answer what we have
                        // anyway (curl-with---http0.9-style minimal peers).
                        break;
                    }
                    Ok(n) => {
                        http.request.extend_from_slice(&buf[..n]);
                        if http.request.len() >= HTTP_REQUEST_CAP
                            || http.request.windows(4).any(|w| w == b"\r\n\r\n")
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if http.request.is_empty()
                            || !http.request.windows(4).any(|w| w == b"\r\n\r\n")
                        {
                            return; // head still incomplete; wait for more
                        }
                        break;
                    }
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                let body = self.shared.metrics.snapshot().to_prometheus();
                let mut resp = Vec::with_capacity(body.len() + 128);
                resp.extend_from_slice(b"HTTP/1.0 200 OK\r\n");
                resp.extend_from_slice(b"Content-Type: text/plain; version=0.0.4\r\n");
                resp.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
                resp.extend_from_slice(b"Connection: close\r\n\r\n");
                resp.extend_from_slice(body.as_bytes());
                http.response = Some(Bytes::from(resp));
            }
        }
        if !dead {
            if let Some(resp) = &http.response {
                let done = loop {
                    if http.written >= resp.len() {
                        break true;
                    }
                    match http.stream.write(&resp[http.written..]) {
                        Ok(0) => break true,
                        Ok(n) => http.written += n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                        Err(_) => break true,
                    }
                };
                if !done {
                    let want = Interest {
                        readable: false,
                        writable: true,
                    };
                    if http.interest != want
                        && r.poller
                            .reregister(http.stream.as_raw_fd(), token, want)
                            .is_ok()
                    {
                        http.interest = want;
                    }
                    return; // the write resumes on the next event
                }
                dead = true; // response fully written (or broken): close
            }
        }
        if dead {
            if r.poller.deregister(http.stream.as_raw_fd()).is_ok() {
                self.shared.metrics.reactor_fd_deregistered();
            }
            let _ = http.stream.shutdown(Shutdown::Both);
            self.http_conns.remove(&token);
        }
    }

    /// Stop ordering: every connection that could still submit stops being
    /// able to (handshakes die, established sessions drain), and only then
    /// does the submitter gauge hit zero — which is what lets
    /// `CloudServer::shutdown` drain the service knowing the reply set is
    /// complete.
    fn apply_stop(&mut self, r: &mut Reactor) {
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
        // The exporter dies first: no new scrapes, and in-flight ones are
        // dropped (a scraper retries; a half-written metrics page is junk
        // either way once the server is gone).
        if let Some(listener) = self.exporter.take() {
            if poller.deregister(listener.as_raw_fd()).is_ok() {
                shared.metrics.reactor_fd_deregistered();
            }
        }
        for (_, http) in self.http_conns.drain() {
            if poller.deregister(http.stream.as_raw_fd()).is_ok() {
                shared.metrics.reactor_fd_deregistered();
            }
            let _ = http.stream.shutdown(Shutdown::Both);
        }
        for conn in self.conns.values_mut() {
            match conn.state {
                ConnState::Established if conn.relay.is_none() => {
                    enter_draining(conn, shared, poller, wheel);
                }
                ConnState::Draining if conn.relay.is_none() => {}
                // Handshakes die; a relay has no service to drain, so its
                // sessions are severed.
                _ => close_conn(conn, shared, poller),
            }
        }
    }
}

/// A connection's two deadlines: silence past its handshake or idle budget
/// (a draining connection has none: it lives until its replies are
/// settled), and a write queue that made no progress for the write timeout.
fn deadlines(conn: &Conn, config: &TransportConfig) -> [Option<Instant>; 2] {
    let budget = match conn.state {
        ConnState::Handshaking => Some(config.handshake_timeout),
        ConnState::Established => Some(config.idle_timeout),
        ConnState::Draining | ConnState::Closed => None,
    };
    let stalled = !conn.writes.is_empty() && !conn.sink_broken;
    [
        budget.map(|budget| conn.last_activity + budget),
        stalled.then(|| conn.last_write_progress + config.write_timeout),
    ]
}

/// Arms the earlier of the connection's deadlines, unless one no later is
/// armed already: activity only moves a deadline later, and the fire
/// checks again.
fn arm(conn: &mut Conn, config: &TransportConfig, wheel: &mut TimerWheel) {
    let Some(at) = deadlines(conn, config).into_iter().flatten().min() else {
        return;
    };
    if conn.armed.is_none_or(|armed| at < armed) {
        conn.armed = Some(at);
        conn.timer_gen += 1;
        wheel.insert(at, conn.token, conn.timer_gen);
    }
}

/// Reads everything the socket has, decoding and dispatching frames as they
/// complete. Exits early if a frame (or error) moves the connection out of
/// a reading state.
fn on_readable(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    loop {
        match conn.decoder.read_from(&mut conn.stream) {
            Ok(0) => {
                // EOF. Mid-frame bytes mean a truncated frame — under the
                // handshake that counts as a rejected connection.
                if conn.state == ConnState::Handshaking {
                    if conn.decoder.buffered() > 0 {
                        shared.metrics.conn_rejected();
                    }
                    close_conn(conn, shared, poller);
                } else {
                    // An abrupt disconnect: this protocol's clients never
                    // half-close — a graceful leave sends Goodbye first —
                    // so EOF here means the peer is gone and its in-flight
                    // jobs are orphaned.
                    conn.peer_alive.store(false, Ordering::SeqCst);
                    enter_draining(conn, shared, poller, wheel);
                }
                return;
            }
            Ok(_) => {
                conn.last_activity = Instant::now();
                if !drain_frames(conn, shared, poller, wheel) {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => {
                if conn.state == ConnState::Handshaking {
                    shared.metrics.conn_rejected();
                    close_conn(conn, shared, poller);
                } else {
                    // A read error (reset, broken pipe): same as EOF — the
                    // peer is unreachable, its jobs are orphaned.
                    conn.peer_alive.store(false, Ordering::SeqCst);
                    enter_draining(conn, shared, poller, wheel);
                }
                return;
            }
        }
    }
}

/// Decodes buffered frames; returns `false` once the connection left a
/// reading state (or errored out).
fn drain_frames(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) -> bool {
    loop {
        if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
            return false;
        }
        match conn.decoder.next_frame(shared.config.max_frame_len) {
            Ok(Some((frame, wire_len))) => {
                // Job traffic (Submit) moves only the totals; everything
                // else is protocol overhead and also bumps the control
                // sub-counter.
                match &frame {
                    Frame::Submit { .. } => shared.metrics.frame_received(wire_len),
                    _ => shared.metrics.control_frame_received(wire_len),
                }
                handle_frame(conn, frame, shared, poller, wheel);
            }
            Ok(None) => return true,
            // Oversized or malformed input. Before the handshake that is a
            // rejected connection (close with no reply, like the old
            // transport); afterwards it is a protocol violation that ends
            // the session but still flushes owed replies.
            Err(_) => {
                if conn.state == ConnState::Handshaking {
                    shared.metrics.conn_rejected();
                    close_conn(conn, shared, poller);
                } else {
                    enter_draining(conn, shared, poller, wheel);
                }
                return false;
            }
        }
    }
}

/// One decoded frame against the state machine.
fn handle_frame(
    conn: &mut Conn,
    frame: Frame,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    match (conn.state, frame) {
        // One Hello: a relay session still being routed has had its own.
        (
            ConnState::Handshaking,
            Frame::Hello {
                min_version,
                max_version,
                api_key,
            },
        ) if !conn.greeted => {
            if !(min_version..=max_version).contains(&PROTOCOL_VERSION) {
                let reason = format!(
                    "no common protocol version (server speaks \
                     {PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                     client {min_version}..={max_version})"
                );
                return refuse(conn, reason, shared, poller, wheel);
            }
            conn.greeted = true;
            match &shared.upstream {
                Upstream::Service(client) => {
                    // One scheduling/rate-limiting identity for everything
                    // this connection submits: the handshake's key, or a
                    // fresh anonymous session.
                    let auth = api_key.map(|k| Arc::from(k.into_boxed_str()));
                    conn.session_client = Some(client.for_transport_session(auth));
                    let max_in_flight = shared.config.max_in_flight as u32;
                    let max_frame_len = shared.config.max_frame_len as u64;
                    establish(conn, max_in_flight, max_frame_len, shared, poller, wheel);
                }
                // The Welcome waits for the session's backend link.
                Upstream::Relay { .. } => relay::route(conn, api_key, shared),
            }
        }
        (ConnState::Handshaking, _) => refuse(conn, "expected Hello".into(), shared, poller, wheel),
        (
            ConnState::Established,
            Frame::Submit {
                request_id,
                payload,
                trace,
            },
        ) => {
            let trace = trace.unwrap_or(TraceId::NONE);
            // The cap judges accepted-but-unflushed replies too: submits
            // are shed while earlier replies sit in the write queue.
            let in_flight_before = conn.in_flight;
            conn.in_flight += 1;
            if in_flight_before >= shared.config.max_in_flight {
                if let Some(session) = &conn.session_client {
                    shared.metrics.session_shed(session.session_key());
                }
                queue_reply(
                    conn,
                    request_id,
                    Err(CloudError::Overloaded {
                        queue_depth: in_flight_before,
                        max_queue_depth: shared.config.max_in_flight,
                    }),
                    shared,
                );
            } else {
                // Remember the trace for the Reply (including dedup-served
                // replies, which also arrive through the routed channel).
                if !trace.is_none() {
                    conn.traces.insert(request_id, trace);
                }
                match &conn.session_client {
                    Some(session) => {
                        match session.submit_routed(payload, request_id, conn.routed.clone(), trace)
                        {
                            Ok(cancel) => {
                                conn.cancels.insert(request_id, cancel);
                            }
                            Err(e) => queue_reply(conn, request_id, Err(e), shared),
                        }
                    }
                    None => relay::submit(conn, request_id, payload, trace, shared, poller, wheel),
                }
            }
            flush_writes(conn, shared, poller, wheel);
        }
        (ConnState::Established, Frame::Ping { nonce }) => {
            conn.writes
                .push_frame(&Frame::Pong { nonce }, false, &shared.metrics);
            flush_writes(conn, shared, poller, wheel);
        }
        (ConnState::Established, Frame::GetStats { request_id }) => {
            // Authorization: with API keys configured only a session keyed
            // by one of them may scrape; otherwise any established session
            // is as trusted as the service gets. The refusal is in-band so
            // callers see *why* instead of a dead connection. A relay takes
            // no keys of its own: it answers with its routing tier's view.
            let session = conn.session_client.as_ref().map(CloudClient::session_key);
            let authorized = match (&shared.api_keys, session) {
                (None, _) => true,
                (Some(keys), Some(SessionKey::ApiKey(k))) => {
                    keys.iter().any(|key| key.as_str() == &**k)
                }
                _ => false,
            };
            let body = if authorized {
                Ok(shared.metrics.snapshot().to_bytes())
            } else {
                Err(CloudError::Unauthorized(
                    "stats require a recognized API key".into(),
                ))
            };
            conn.writes
                .push_frame(&Frame::Stats { request_id, body }, false, &shared.metrics);
            flush_writes(conn, shared, poller, wheel);
        }
        (ConnState::Established, Frame::Cancel { request_id }) => {
            // Best-effort: flip the job's flag if it is still in flight. An
            // id with no flag means the reply already settled (or the submit
            // never landed) — a benign race, not a protocol offense. The
            // reply still arrives; cancellation surfaces as its payload.
            if let Some(flag) = conn.cancels.get(&request_id) {
                flag.store(true, Ordering::Relaxed);
            }
            if conn.relay.is_some() {
                relay::cancel(conn, request_id, shared, poller, wheel);
            }
        }
        (ConnState::Established, Frame::Goodbye) => {
            enter_draining(conn, shared, poller, wheel);
        }
        // A second Hello or a server-side frame is a protocol violation:
        // stop reading, settle what is owed, close.
        (ConnState::Established, _) => {
            enter_draining(conn, shared, poller, wheel);
        }
        // Draining/Closed never reach here (drain_frames gates on state).
        (ConnState::Draining | ConnState::Closed, _) => {}
    }
}

/// Refuses a connection before its session exists: a `Reject` naming
/// `reason`, flushed by the drain that closes the connection.
fn refuse(
    conn: &mut Conn,
    reason: String,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    shared.metrics.conn_rejected();
    conn.writes
        .push_frame(&Frame::Reject { reason }, false, &shared.metrics);
    enter_draining(conn, shared, poller, wheel);
}

/// The handshake succeeded: `Welcome` the peer with these session limits,
/// count the session open, and swap the handshake deadline for the
/// (usually longer, possibly shorter) idle deadline.
fn establish(
    conn: &mut Conn,
    max_in_flight: u32,
    max_frame_len: u64,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let welcome = Frame::Welcome {
        version: PROTOCOL_VERSION,
        max_in_flight,
        max_frame_len,
    };
    conn.writes.push_frame(&welcome, false, &shared.metrics);
    shared.metrics.conn_opened();
    conn.counts_session_open = true;
    conn.state = ConnState::Established;
    arm(conn, &shared.config, wheel);
    flush_writes(conn, shared, poller, wheel);
}

/// Serializes one reply onto the write queue (in-flight slot already held).
fn queue_reply(
    conn: &mut Conn,
    request_id: u64,
    mut result: Result<JobResult, CloudError>,
    shared: &Arc<ServerShared>,
) {
    // The submit's trace id, echoed (only traced submits have one).
    let trace = conn.traces.remove(&request_id);
    conn.cancels.remove(&request_id);
    if conn.sink_broken {
        conn.in_flight = conn.in_flight.saturating_sub(1);
        return;
    }
    if let Ok(r) = &mut result {
        // Parity with in-process handles: the result's id is the id the
        // caller's handle carries (its wire request id), not the server
        // pool's internal one.
        r.job_id = request_id;
    }
    let reply = Frame::Reply {
        request_id,
        result,
        trace,
    };
    if !conn.writes.push_frame(&reply, true, &shared.metrics) {
        // Un-encodable (>4 GiB) reply: the framing cannot carry it.
        conn.sink_broken = true;
        conn.in_flight = conn.in_flight.saturating_sub(1);
    }
}

/// Moves completions from the reply channel onto the wire.
fn pump_replies(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    while let Ok((request_id, msg)) = conn.replies_rx.try_recv() {
        match msg {
            RoutedMsg::Reply(result) => queue_reply(conn, request_id, result, shared),
            RoutedMsg::Progress(update) => queue_progress(conn, request_id, update, shared),
        }
    }
    flush_writes(conn, shared, poller, wheel);
}

/// Serializes one progress frame onto the write queue, or drops it.
/// Progress is advisory: it holds no in-flight slot and is never owed, so a
/// broken sink or a draining connection just drops it (counted).
fn queue_progress(
    conn: &mut Conn,
    request_id: u64,
    update: crate::ProgressUpdate,
    shared: &Arc<ServerShared>,
) {
    if !conn.sink_broken && conn.state == ConnState::Established {
        conn.writes.push_frame(
            &Frame::Progress { request_id, update },
            false,
            &shared.metrics,
        );
        shared.metrics.progress_frame_delivered();
    } else {
        shared.metrics.progress_frame_dropped();
    }
}

/// Flushes the write queue, updates interest/timers, and completes a drain
/// when everything owed has been settled.
fn flush_writes(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    if conn.state == ConnState::Closed {
        return;
    }
    if !conn.sink_broken && !conn.writes.is_empty() {
        let tel = shared.metrics.telemetry();
        let flush_started = tel.enabled().then(Instant::now);
        let bytes_before = conn.writes.bytes;
        let (replies, outcome) = conn.writes.flush(&mut conn.stream, &shared.metrics);
        conn.in_flight = conn.in_flight.saturating_sub(replies);
        if conn.writes.bytes < bytes_before {
            // Any bytes accepted count as progress for the stall timer;
            // Blocked with zero bytes written does not.
            conn.last_write_progress = Instant::now();
            if let Some(t0) = flush_started {
                tel.record(Stage::ReactorFlush, t0.elapsed());
            }
        }
        match outcome {
            FlushOutcome::Drained => {}
            FlushOutcome::Blocked => arm(conn, &shared.config, wheel),
            FlushOutcome::Broken => return mark_sink_broken(conn, shared, poller, wheel),
        }
    }
    update_interest(conn, poller);
    maybe_finish_drain(conn, shared, poller);
}

/// The socket can no longer be written: tear it down, discard queued bytes,
/// and keep draining reply accounting without writing.
fn mark_sink_broken(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    if conn.sink_broken {
        return;
    }
    conn.sink_broken = true;
    // Nothing can ever reach the peer again — orphaned jobs may as well
    // find out now instead of at close time.
    conn.peer_alive.store(false, Ordering::SeqCst);
    let discarded = conn.writes.discard(&shared.metrics);
    conn.in_flight = conn.in_flight.saturating_sub(discarded);
    let _ = conn.stream.shutdown(Shutdown::Both);
    if conn.state != ConnState::Draining {
        enter_draining(conn, shared, poller, wheel);
    } else {
        maybe_finish_drain(conn, shared, poller);
    }
}

/// Stops reading and submitting; the connection now exists only to settle
/// its owed replies.
fn enter_draining(
    conn: &mut Conn,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
        return;
    }
    conn.state = ConnState::Draining;
    if conn.counts_submitter {
        conn.counts_submitter = false;
        shared.submitters_dec();
    }
    relay::sever(conn, poller);
    let _ = conn.stream.shutdown(Shutdown::Read);
    // Catch completions that were posted before this transition.
    pump_replies(conn, shared, poller, wheel);
}

/// Draining completes when nothing is owed: no in-flight jobs and either a
/// flushed queue or a broken sink.
fn maybe_finish_drain(conn: &mut Conn, shared: &Arc<ServerShared>, poller: &mut Poller) {
    if conn.state == ConnState::Draining
        && conn.in_flight == 0
        && (conn.writes.is_empty() || conn.sink_broken)
    {
        close_conn(conn, shared, poller);
    }
}

/// Terminal: releases the fd, the session slot and the gauges.
fn close_conn(conn: &mut Conn, shared: &Arc<ServerShared>, poller: &mut Poller) {
    if conn.state == ConnState::Closed {
        return;
    }
    conn.state = ConnState::Closed;
    conn.peer_alive.store(false, Ordering::SeqCst);
    relay::sever(conn, poller);
    if poller.deregister(conn.stream.as_raw_fd()).is_ok() {
        shared.metrics.reactor_fd_deregistered();
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    let discarded = conn.writes.discard(&shared.metrics);
    conn.in_flight = conn.in_flight.saturating_sub(discarded);
    // Settle whatever the workers posted that will never reach the wire:
    // replies free their slots, progress frames count as dropped. (Sends
    // that race past this drain fail once the channel's receiver is gone
    // and are counted dropped at the send site.)
    while let Ok((_, msg)) = conn.replies_rx.try_recv() {
        match msg {
            RoutedMsg::Reply(_) => conn.in_flight = conn.in_flight.saturating_sub(1),
            RoutedMsg::Progress(_) => shared.metrics.progress_frame_dropped(),
        }
    }
    conn.traces.clear();
    conn.cancels.clear();
    if conn.counts_submitter {
        conn.counts_submitter = false;
        shared.submitters_dec();
    }
    shared.release_conn(conn.counts_session_open);
    conn.counts_session_open = false;
}

/// Re-registers the socket when the wanted interest changed: reads while
/// the state machine accepts frames, writes while bytes are queued.
fn update_interest(conn: &mut Conn, poller: &mut Poller) {
    if conn.state == ConnState::Closed {
        return;
    }
    let want = Interest {
        readable: matches!(conn.state, ConnState::Handshaking | ConnState::Established),
        writable: !conn.writes.is_empty() && !conn.sink_broken,
    };
    if want != conn.interest
        && poller
            .reregister(conn.stream.as_raw_fd(), conn.token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame;
    use super::*;
    use crate::metrics::ServiceMetrics;
    use std::io::Read;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn ok_reply(request_id: u64, model: Bytes) -> Frame {
        Frame::Reply {
            request_id,
            result: Ok(JobResult {
                job_id: request_id,
                trained_model: model,
                history: amalgam_nn::metrics::History::new(),
                bytes_received: 1,
                bytes_sent: 2,
                train_seconds: 0.1,
            }),
            trace: Some(TraceId::from_words(1, 2)),
        }
    }

    #[test]
    fn write_queue_flushes_split_replies_bitwise_like_whole_frames() {
        let metrics = ServiceMetrics::new();
        let (mut server_side, mut client_side) = loopback_pair();
        let model = Bytes::from(vec![9u8; 1000]);
        let reply = ok_reply(3, model.clone());
        let mut q = WriteQueue::default();
        assert!(q.push_frame(&reply, true, &metrics));
        // The model is queued as the worker's buffer, not a copy of it.
        assert!(q.q.iter().any(|p| p.buf.as_ptr() == model.as_ptr()));
        loop {
            let (_, outcome) = q.flush(&mut server_side, &metrics);
            match outcome {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => std::thread::sleep(Duration::from_millis(1)),
                FlushOutcome::Broken => panic!("loopback write broke"),
            }
        }
        assert_eq!(q.bytes, 0);

        let mut expect = Vec::new();
        frame::write_frame(&mut expect, &reply).unwrap();
        let mut got = vec![0u8; expect.len()];
        client_side.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn write_queue_survives_one_byte_at_a_time_sinks() {
        // Stuttering sink: accepts one byte, then WouldBlocks, alternating —
        // the slow-loris of the write side. Every boundary must be safe,
        // the chunk boundaries inside a split reply included.
        struct Stutter {
            out: Vec<u8>,
            ready: bool,
        }
        impl Write for Stutter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.ready {
                    self.ready = false;
                    self.out.push(buf[0]);
                    Ok(1)
                } else {
                    self.ready = true;
                    Err(std::io::Error::from(ErrorKind::WouldBlock))
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let frames = [
            (Frame::Pong { nonce: 7 }, false),
            (ok_reply(1, Bytes::from(vec![4u8; 300])), true),
            (
                Frame::Reply {
                    request_id: 2,
                    result: Err(CloudError::ServiceUnavailable),
                    trace: None,
                },
                true,
            ),
        ];
        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        let mut expect = Vec::new();
        for (f, is_reply) in &frames {
            assert!(q.push_frame(f, *is_reply, &metrics));
            frame::write_frame(&mut expect, f).unwrap();
        }

        let mut sink = Stutter {
            out: Vec::new(),
            ready: false,
        };
        let mut reply_frames = 0;
        loop {
            let (replies, outcome) = q.flush(&mut sink, &metrics);
            reply_frames += replies;
            match outcome {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => {}
                FlushOutcome::Broken => panic!("stutter is not an error"),
            }
        }
        assert_eq!(reply_frames, 2);
        assert_eq!(q.bytes, 0);
        assert_eq!(sink.out, expect);
        let stats = metrics.snapshot();
        assert_eq!(stats.reactor_write_queue_bytes, 0);
        assert_eq!(stats.frames_sent, 3);
    }

    #[test]
    fn discarding_a_queue_frees_reply_slots_and_the_gauge() {
        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        q.push_frame(&Frame::Pong { nonce: 1 }, false, &metrics);
        q.push_frame(&ok_reply(2, Bytes::from_static(b"weights")), true, &metrics);
        q.push_frame(
            &Frame::Reply {
                request_id: 3,
                result: Err(CloudError::ServiceUnavailable),
                trace: None,
            },
            true,
            &metrics,
        );
        assert!(metrics.snapshot().reactor_write_queue_bytes > 0);
        let replies = q.discard(&metrics);
        assert_eq!(replies, 2);
        assert_eq!(metrics.snapshot().reactor_write_queue_bytes, 0);
        assert_eq!(metrics.snapshot().frames_sent, 0);
        assert_eq!(metrics.snapshot().control_frames_sent, 0);
        assert_eq!(metrics.snapshot().check_invariants(), Ok(()));
        assert!(q.is_empty());
    }
}
