//! The transport's event loops: each reactor thread owns a poller, a timer
//! wheel and a set of connections, and drives every connection as an
//! explicit state machine over nonblocking sockets.
//!
//! A connection is owned by exactly one reactor thread for its whole life,
//! so its state machine, decode scratch and write queue need no locks.
//! Cross-thread signals — sockets reactor 0 deals, completed jobs from the
//! workers, a remote client's sessions, submits, cancels and `GetStats`,
//! shutdown — go through each reactor's [`ReactorShared`] inbox/ready-list
//! plus a [`reactor::Waker`]; wakes coalesce, and a timer wheel (5 ms ticks)
//! drives every deadline, one entry per connection.
//!
//! # Tiers, roles and threads
//!
//! One loop ([`Reactor::run`], over the vendored `reactor` crate: epoll on
//! Linux, `poll(2)` elsewhere) drives two [`Tier`]s:
//!
//! * **A server's pool**, [`TransportConfig::io_threads`] reactors. Reactor
//!   0 also polls the job listener and the Prometheus exporter's, and
//!   accepts until `WouldBlock`: a connection past `max_connections` gets
//!   one `Reject` and is closed, every other is dealt to the reactor with
//!   the fewest live connections (ties round-robin, itself included). A
//!   failed accept rests its listener on the wheel for 5 ms. Shutdown sets
//!   the stop flag and kicks the reactors; reactor 0 drops the listeners
//!   first, so the port refuses connections once shutdown returns.
//! * **The client loop** (`transport::client`): every remote client of the
//!   process on one reactor, started by the first connect and joined when
//!   the last client closes or drops.
//!
//! A connection plays one of four roles: a *server session* (an accepted
//! connection: the diagram below, on a server reactor), a *relay link* (a
//! relay session's connection to its backend, dialed by the session's own
//! reactor and registered under its token with the link bit set — the
//! `relay` submodule), a *probe* (a relay's health check of one backend, on
//! its reactor 0, also in `relay`) or a *client session* (a remote client's
//! connection, on the client loop). The three dialing roles are one
//! mechanism, the *link* (the `link` submodule): a connect that does not
//! block, the `Hello`/`Welcome` exchange, the deadlines as one wheel entry,
//! and the jobs it retains until answered, resubmitted in request-id order
//! on the next welcomed link. No thread runs beside the reactors. Threads
//! per tier, whatever the number of connections:
//!
//! | tier | threads | gate |
//! |------|---------|------|
//! | server | `cloud-reactor-<i>` × `io_threads`, `cloud-worker-<i>` × workers | `tests/transport_scale.rs`, 128 sessions |
//! | relay (proxy) | `proxy-reactor-<i>` × `io_threads` | `tests/proxy_scale.rs`, 128 sessions: 2 (a thread per session ran 258) |
//! | clients | `client-reactor` | `tests/transport_scale.rs`, 128 clients: 1 (a thread per client ran 256) |
//!
//! # Connection state machine
//!
//! ```text
//!            accept (dealt to a reactor)
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

use super::frame::{write_frame, Frame, FrameDecoder};
use super::server::{ServerShared, Upstream};
use super::timer::{Fired, TimerWheel};
use super::{TransportConfig, PROTOCOL_VERSION};
use crate::metrics::ServiceMetrics;
use crate::pipeline::SessionKey;
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

/// Token reserved for the job listener (reactor 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 2;

/// Token reserved for a relay's health sweep deadline (reactor 0 only).
const SWEEP_TOKEN: u64 = u64::MAX - 3;

/// How long a listener rests after a failed `accept`: descriptor exhaustion
/// does not clear at once, and a level-triggered listener would spin.
const ACCEPT_REST: Duration = Duration::from_millis(5);

/// Cap on one exporter request's header bytes; enough for any scraper's
/// `GET /metrics` preamble, small enough that a hostile peer buys nothing.
const HTTP_REQUEST_CAP: usize = 4096;

/// Timer wheel granularity. Deadlines fire within one tick of their due
/// time, never early.
const WHEEL_TICK: Duration = Duration::from_millis(5);

/// Timer wheel slots (one revolution = `WHEEL_TICK * WHEEL_SLOTS`; longer
/// deadlines lap).
const WHEEL_SLOTS: usize = 512;

/// The cross-thread face of one reactor: everything other threads may
/// touch. `T` is what its tier takes through the inbox.
pub(super) struct ReactorShared<T> {
    waker: Waker,
    /// Handed over but not yet taken up by the reactor thread.
    inbox: Mutex<Vec<T>>,
    /// Tokens whose reply channel has pending completions.
    ready_replies: Mutex<Vec<u64>>,
    /// Connections reactor 0 dealt here and this reactor has not yet
    /// reaped, the one in transit included: reactor 0 deals each new one to
    /// the reactor with the fewest, and a stopped reactor exits at zero.
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
    /// Runs once, before the first round.
    fn start(&mut self, _r: &mut Reactor) {}
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

/// Spawns reactor `index` of `shared`'s pool as the thread `name`, polling
/// the job listener and the exporter's if it is handed them (reactor 0).
/// Both listeners must be nonblocking.
pub(super) fn spawn_server_reactor(
    name: String,
    index: usize,
    shared: Arc<ServerShared>,
    (wake_rx, mut poller): ReactorPrivate,
    listener: Option<TcpListener>,
    exporter: Option<TcpListener>,
) -> std::thread::JoinHandle<()> {
    let listeners: Vec<_> = [(LISTENER_TOKEN, listener), (EXPORTER_TOKEN, exporter)]
        .into_iter()
        .filter_map(|(token, listener)| Some((token, listener?)))
        .collect();
    for (token, listener) in &listeners {
        poller
            .register(listener.as_raw_fd(), *token, Interest::READABLE)
            .expect("register listener");
        shared.metrics.reactor_fd_registered();
    }
    let handle = Arc::clone(&shared.reactors[index]);
    let (metrics, stop) = (Arc::clone(&shared.metrics), Arc::clone(&shared.stop));
    let relay = matches!(shared.upstream, Upstream::Relay { .. });
    let tier = Sessions {
        handle: Arc::clone(&handle),
        index,
        shared,
        conns: HashMap::new(),
        listeners,
        next_deal: 0,
        http_conns: HashMap::new(),
        prober: (relay && index == 0).then(relay::Prober::default),
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
    handle: Arc<ReactorShared<TcpStream>>,
    /// This reactor's place in the pool.
    index: usize,
    conns: HashMap<u64, Conn>,
    /// The job listener and the Prometheus exporter's, by poller token
    /// (reactor 0 only).
    listeners: Vec<(u64, TcpListener)>,
    /// Where the next tie of the deal goes (reactor 0 only).
    next_deal: usize,
    /// In-progress exporter scrapes, keyed by poller token.
    http_conns: HashMap<u64, HttpConn>,
    /// A relay's health probes (reactor 0 only).
    prober: Option<relay::Prober>,
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
        tier.start(&mut self);
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
    type Item = TcpStream;

    /// A relay's first health sweep is due at once.
    fn start(&mut self, r: &mut Reactor) {
        if self.prober.is_some() {
            r.wheel.insert(Instant::now(), SWEEP_TOKEN, 0);
        }
    }

    /// Readiness for a listener, a scrape, a connection's socket, its
    /// backend link or a health probe.
    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool, writable: bool) {
        if matches!(token, LISTENER_TOKEN | EXPORTER_TOKEN) {
            return self.accept(r, token);
        }
        if self.http_conns.contains_key(&token) {
            return self.handle_http_io(r, token, readable);
        }
        let Some(conn) = self.conns.get_mut(&(token & !link::LINK)) else {
            if let Some(prober) = &mut self.prober {
                prober.io(token & !link::LINK, (readable, writable), &self.shared, r);
            }
            return; // or a stale event for an already-closed token
        };
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
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

    /// Registers a connection reactor 0 dealt here. Under stop, it is
    /// closed immediately instead (reactor 0 dealt it before it saw the
    /// flag).
    fn adopt(&mut self, r: &mut Reactor, stream: TcpStream, stopped: bool) {
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

    /// A connection's deadline fired, or its link's, a resting listener's,
    /// the health sweep's or a probe's.
    fn timer(&mut self, r: &mut Reactor, f: Fired) {
        if matches!(f.token, LISTENER_TOKEN | EXPORTER_TOKEN) {
            return self.listen(r, f.token, false);
        }
        let Some(conn) = self.conns.get_mut(&(f.token & !link::LINK)) else {
            if let Some(prober) = &mut self.prober {
                match f.token {
                    SWEEP_TOKEN => prober.sweep(&self.shared, r),
                    token => prober.timer(token & !link::LINK, f.generation, &self.shared, r),
                }
            }
            return;
        };
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
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

    /// `true` once no connection is here or on its way here.
    fn reap(&mut self) -> bool {
        let before = self.conns.len();
        self.conns.retain(|_, c| c.state != ConnState::Closed);
        let reaped = before - self.conns.len();
        self.handle.live.fetch_sub(reaped, Ordering::SeqCst) == reaped
    }
}

impl Sessions {
    /// Accepts from the listener at `token` until it would block: job
    /// connections are dealt to the reactors, scrapes stay here.
    fn accept(&mut self, r: &mut Reactor, token: u64) {
        loop {
            let Some((_, listener)) = self.listeners.iter().find(|(t, _)| *t == token) else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) if token == LISTENER_TOKEN => self.deal(stream),
                Ok((stream, _peer)) => self.scrape(r, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Out of descriptors, or a connection reset while it queued.
                Err(_) => return self.listen(r, token, true),
            }
        }
    }

    /// Hands an accepted job connection to the reactor with the fewest live
    /// connections, ties round-robin — this one included, so every session
    /// is adopted one way — or refuses it at capacity.
    fn deal(&mut self, mut stream: TcpStream) {
        let shared = &self.shared;
        if shared.sessions.load(Ordering::SeqCst) >= shared.config.max_connections {
            shared.metrics.conn_rejected();
            // One small write on an empty send buffer: it does not block,
            // and a failed one just closes.
            let reason = "server at connection capacity".into();
            if stream.set_nonblocking(true).is_ok() {
                let _ = write_frame(&mut stream, &Frame::Reject { reason });
            }
            return;
        }
        let n = shared.reactors.len();
        let pick = (self.next_deal..self.next_deal + n)
            .map(|i| i % n)
            .min_by_key(|&i| shared.reactors[i].live.load(Ordering::SeqCst))
            .expect("a server has a reactor");
        let reactor = &shared.reactors[pick];
        // Stop ordering: shutdown stores the stop flag, then waits for the
        // submitter gauge to read 0; a stopped reactor exits once its `live`
        // reads 0. Counted before the flag is read here, this socket is seen
        // by both or sees the flag.
        shared.sessions.fetch_add(1, Ordering::SeqCst);
        shared.submitters.fetch_add(1, Ordering::SeqCst);
        reactor.live.fetch_add(1, Ordering::SeqCst);
        if shared.stop.load(Ordering::SeqCst) {
            shared.submitters_dec();
            shared.release_conn(false);
            reactor.live.fetch_sub(1, Ordering::SeqCst);
            // It may have read the socket counted and gone back to sleep.
            reactor.kick(&shared.metrics);
            return;
        }
        reactor.enqueue(stream, &shared.metrics);
        self.next_deal = pick + 1;
    }

    /// Takes one exporter connection onto this reactor's poller.
    fn scrape(&mut self, r: &mut Reactor, stream: TcpStream) {
        let token = r.token();
        if stream.set_nonblocking(true).is_err()
            || r.poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
        {
            return;
        }
        self.shared.metrics.reactor_fd_registered();
        let http = HttpConn {
            stream,
            request: Vec::new(),
            response: None,
            written: 0,
            interest: Interest::READABLE,
        };
        self.http_conns.insert(token, http);
    }

    /// Puts the listener at `token` back on the poller or, `rest`, takes it
    /// off until a wheel deadline [`ACCEPT_REST`] from now (a failed
    /// registration rests it too). One a stop dropped stays dropped.
    fn listen(&mut self, r: &mut Reactor, token: u64, rest: bool) {
        let Some((_, listener)) = self.listeners.iter().find(|(t, _)| *t == token) else {
            return;
        };
        let (fd, metrics) = (listener.as_raw_fd(), &self.shared.metrics);
        if !rest && r.poller.register(fd, token, Interest::READABLE).is_ok() {
            return metrics.reactor_fd_registered();
        }
        if rest && r.poller.deregister(fd).is_ok() {
            metrics.reactor_fd_deregistered();
        }
        r.wheel.insert(Instant::now() + ACCEPT_REST, token, 0);
    }

    /// Drives one exporter scrape: read until the request head is complete
    /// (or the peer's EOF: minimal peers get an answer to what they sent),
    /// render the metrics page once, write it out, close.
    fn handle_http_io(&mut self, r: &mut Reactor, token: u64, readable: bool) {
        let Some(http) = self.http_conns.get_mut(&token) else {
            return;
        };
        let mut buf = [0u8; 1024];
        while readable && http.response.is_none() {
            let head_done = match http.stream.read(&mut buf) {
                Ok(0) => true,
                Ok(n) => {
                    http.request.extend_from_slice(&buf[..n]);
                    http.request.len() >= HTTP_REQUEST_CAP
                        || http.request.windows(4).any(|w| w == b"\r\n\r\n")
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => false,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return self.close_http(r, token),
            };
            if head_done {
                let body = self.shared.metrics.snapshot().to_prometheus();
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                http.response = Some(Bytes::from(response.into_bytes()));
            }
        }
        let Some(response) = &http.response else {
            return;
        };
        while http.written < response.len() {
            match http.stream.write(&response[http.written..]) {
                Ok(0) => break,
                Ok(n) => http.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The write resumes on the next event.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let want = Interest::WRITABLE;
                    if http.interest != want
                        && r.poller
                            .reregister(http.stream.as_raw_fd(), token, want)
                            .is_ok()
                    {
                        http.interest = want;
                    }
                    return;
                }
                Err(_) => break,
            }
        }
        // Written, or the peer is gone.
        self.close_http(r, token);
    }

    /// Ends one exporter scrape.
    fn close_http(&mut self, r: &mut Reactor, token: u64) {
        if let Some(http) = self.http_conns.remove(&token) {
            if r.poller.deregister(http.stream.as_raw_fd()).is_ok() {
                self.shared.metrics.reactor_fd_deregistered();
            }
            let _ = http.stream.shutdown(Shutdown::Both);
        }
    }

    /// Stop ordering: every connection that could still submit stops being
    /// able to (handshakes die, established sessions drain), and only then
    /// does the submitter gauge hit zero — which is what lets
    /// `CloudServer::shutdown` drain the service knowing the reply set is
    /// complete.
    fn apply_stop(&mut self, r: &mut Reactor) {
        let (shared, Reactor { poller, wheel, .. }) = (&self.shared, r);
        if let Some(mut prober) = self.prober.take() {
            prober.stop(poller);
        }
        // The listeners die first, so the port refuses connections once
        // shutdown returns; in-flight scrapes are dropped (a scraper retries;
        // a half-written metrics page is junk either way once the server is
        // gone).
        for (_, listener) in self.listeners.drain(..) {
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
                Upstream::Relay { .. } => relay::route(conn, api_key, shared, poller, wheel),
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
        let flush_started = Instant::now();
        let bytes_before = conn.writes.bytes;
        let (replies, outcome) = conn.writes.flush(&mut conn.stream, &shared.metrics);
        conn.in_flight = conn.in_flight.saturating_sub(replies);
        if conn.writes.bytes < bytes_before {
            // Any bytes accepted count as progress for the stall timer;
            // Blocked with zero bytes written does not.
            conn.last_write_progress = Instant::now();
            shared
                .metrics
                .telemetry()
                .record(Stage::ReactorFlush, flush_started.elapsed());
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

    /// A failed accept takes its listener off the poller for
    /// [`ACCEPT_REST`] instead of letting level-triggered readiness spin
    /// the reactor; the wheel deadline puts it back. (Driven directly: no
    /// test exhausts the process's descriptors to make `accept` fail.)
    #[test]
    fn a_rested_listener_leaves_the_poller_until_its_deadline() {
        let service = crate::CloudService::builder().workers(1).build();
        let (handle, (wake_rx, mut poller)) = reactor_parts::<TcpStream>().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let _pending = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
            .unwrap();
        let shared = Arc::new(ServerShared {
            stop: Arc::new(AtomicBool::new(false)),
            config: TransportConfig::default(),
            upstream: Upstream::Service(service.client()),
            metrics: service.metrics_arc(),
            api_keys: None,
            reactors: vec![Arc::clone(&handle)],
            submitters: AtomicUsize::new(0),
            sessions: AtomicUsize::new(0),
        });
        let mut r = Reactor {
            poller,
            wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS),
            wake_rx,
            metrics: Arc::clone(&shared.metrics),
            stop: Arc::clone(&shared.stop),
            next_token: 0,
            events: Vec::new(),
            fired: Vec::new(),
        };
        let mut tier = Sessions {
            shared,
            handle,
            index: 0,
            conns: HashMap::new(),
            listeners: vec![(LISTENER_TOKEN, listener)],
            next_deal: 0,
            http_conns: HashMap::new(),
            prober: None,
        };
        let listener_ready = |r: &mut Reactor| {
            r.poller.wait(&mut r.events, Some(Duration::ZERO)).unwrap();
            r.events.iter().any(|ev| ev.token == LISTENER_TOKEN)
        };
        assert!(listener_ready(&mut r));

        let rested = Instant::now();
        tier.listen(&mut r, LISTENER_TOKEN, true);
        assert!(!listener_ready(&mut r), "a resting listener was polled");
        let due = r.wheel.next_deadline().expect("a wake-up deadline");
        assert!(due >= rested + ACCEPT_REST);

        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        r.wheel.advance(Instant::now(), &mut r.fired);
        for f in std::mem::take(&mut r.fired) {
            tier.timer(&mut r, f);
        }
        assert!(listener_ready(&mut r), "the listener never came back");
        service.shutdown();
    }
}
