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
//!   scrape stays on reactor 0. A failed accept rests its listener on the
//!   wheel for 5 ms.
//! * **The client loop** (`transport::client`): every remote client of the
//!   process on one reactor, from the first connect to the last close.
//!
//! A connection plays one of five roles: a *server session* (an accepted
//! connection), a *scrape* (one accepted by the exporter), a *relay link* (a
//! relay session's connection to its backend, dialed by the session's own
//! reactor and registered under its token with the link bit set — the
//! `relay` submodule), a *probe* (a relay's health check of one backend, on
//! its reactor 0, also in `relay`) or a *client session* (a remote
//! client's connection, on the client loop). All five sit on one socket
//! type (the `socket` submodule) under one driver (below). No thread runs
//! beside the reactors. Threads per tier, whatever the number of
//! connections:
//!
//! | tier | threads | gate |
//! |------|---------|------|
//! | server | `cloud-reactor-<i>` × `io_threads`, `cloud-worker-<i>` × workers | `tests/transport_scale.rs`, 128 sessions |
//! | relay (proxy) | `proxy-reactor-<i>` × `io_threads` | `tests/proxy_scale.rs`, 128 sessions: 2 (a thread per session ran 258) |
//! | clients | `client-reactor` | `tests/transport_scale.rs`, 128 clients: 1 (a thread per client ran 256) |
//! | a worker's training step | at most one scoped `nn-island` helper, joined before the step returns (`nn::graph`, "Islands") | `tests/island_threads.rs` |
//!
//! # Driver and machines
//!
//! The reactor is the one driver. The machines — a server session
//! (`handle_frame` and its transitions, below), a [`Scrape`], the link (the
//! `link` submodule) in its three roles (a relay session's `Face`, a
//! `Probe`, a client `Session`) and a relay session's upstream (`Relay`) —
//! take `(event, now)`: `now` is the instant the reactor read, once, at the
//! top of the turn. A handler may change its machine's state, queue frames
//! on its sockets, stop a socket's reading, and ask a socket to dial or to
//! close; it touches no poller, timer wheel or stream, and arms nothing —
//! it reports its next deadline ([`Machine::deadline`]).
//!
//! After any event on an owner — readiness, adoption, a reply pump, inbox
//! work, its deadline — one settle step ([`Reactor::settle`]) does all of
//! the owner's I/O, on its own socket and its link's: a close (what is
//! queued is written as far as the socket takes it, then it is
//! deregistered and shut down — so a `Goodbye` or `Reject` queued before
//! a close goes out first), a dial and its registration, then a flush and
//! the interest it leaves. A failed connect or write, or a queue stalled
//! past `write_timeout`, closes the socket and goes back to the machine as
//! that socket's failure; the machine may ask for more (a failed link
//! dials the next candidate), and once it asks for nothing more it sees
//! where the I/O left it ([`Machine::settled`]: a drained session closes, a
//! probe with a verdict ends). Last, the owner's one deadline — its
//! machine's or its sockets' write stalls, whichever is first — is armed
//! under one rule (`TimerWheel::arm`). On readability the driver takes
//! frames until the socket runs dry or the machine stops reading, and
//! settles the owner after each.
//!
//! # A session on the wire
//!
//! ```text
//!  Hello{min, max, api_key?} ───────────►  protocol 2 in min..=max?
//!  ◄──── Welcome{2, max_in_flight, max_frame_len}  yes
//!  ◄──── Reject{reason}, close                     no, or not a Hello
//!  Submit{request_id, payload, trace?} ─►  in-flight cap → session queue
//!  ◄──── Progress{request_id, update}      per epoch, advisory
//!  ◄──── Reply{request_id, result, trace?} in completion order
//!  Ping / Cancel / GetStats ────────────►  ◄── Pong / nothing / Stats
//!  Goodbye ─────────────────────────────►  the session drains
//! ```
//!
//! What a session is to the job pipeline: the transport's module docs.
//!
//! # A server session
//!
//! ```text
//!   dealt to a reactor: registered READABLE, handshake deadline armed
//!                ▼
//!          Handshaking ── Hello, version ok ─────► Established
//!                │  (a relay's: its backend welcomed)   │ Goodbye, EOF,
//!                │ not a Hello, bad version, no         │ read error,
//!                │   backend: a Reject flushed first;   │ violation, idle
//!                │ EOF, read error, malformed opener,   │ timeout, stalled
//!                │   handshake timeout, server stop     │ sink, server stop
//!                ▼                                      ▼
//!              Closed ◄─── in-flight = 0 and queue ─── Draining
//!                          flushed (or the sink broken)
//! ```
//!
//! The handshake timeout runs from the accept: bytes buy a stranger no time.
//! Nothing is decoded beyond its opener; each refusal counts as a rejected
//! connection, silence excepted (EOF before a byte, the handshake timeout,
//! a stop). Draining reads and submits nothing, but in-flight jobs
//! run on and replies flush; once the peer is gone (EOF, a read error, a
//! broken sink) its jobs cancel at their next epoch. A stop closes a relay
//! session: it has no service to drain. A relay session whose route is
//! being found has no deadline of its own: each dial is bounded by its
//! link's handshake timeout, and the candidates are finite.
//!
//! # A scrape
//!
//! The exporter's connections are [`Scrape`]s on reactor 0: the socket
//! reads a request head in place of frames — to its blank line, EOF or 4096
//! bytes — and one `HTTP/1.0` page of the metrics answers it, whatever the
//! path, queued whole; the connection closes once it has left. The head is
//! due [`TransportConfig::handshake_timeout`] after the accept, however its
//! bytes trickle; the page then has the stall rule below. At most
//! [`MAX_SCRAPES`] are open at once: one more is closed at accept.
//!
//! # Backpressure
//!
//! Writes never block: what the socket won't take stays queued under write
//! interest. The in-flight cap counts replies until their bytes are
//! flushed, so a peer that stops reading has its submits shed `Overloaded`.
//! One stall rule holds for every role: the clock starts when a frame lands
//! on an empty queue and restarts whenever bytes leave; a queue that stays
//! put for [`TransportConfig::write_timeout`] breaks the sink, and its
//! owner hears its socket failed: a session settles its replies without
//! writing, so drain completes; a link fails.
//!
//! # Graceful shutdown
//!
//! `CloudServer::shutdown` sets the stop flag and kicks the reactors:
//! reactor 0 drops the listeners (the port refuses connections once
//! shutdown returns), scrapes and handshakes close, established sessions
//! drain. Once the submitter gauge reads zero the service drains
//! its queue, answering every job (`ServiceUnavailable` if never reached);
//! each answer is flushed, a session closes once nothing is owed, and a
//! reactor exits with its last connection. No handle hangs.

pub(super) mod link;
mod relay;
mod socket;

use super::frame::{write_frame, Frame};
use super::server::{ServerShared, Upstream};
use super::timer::TimerWheel;
#[cfg(doc)]
use super::TransportConfig;
use super::PROTOCOL_VERSION;
use crate::metrics::ServiceMetrics;
use crate::pipeline::SessionKey;
use crate::protocol::JobResult;
use crate::service::{CancelFlag, CloudClient, RoutedMsg, RoutedSender};
use crate::telemetry::TraceId;
use crate::CloudError;
use bytes::Bytes;
use reactor::{Event, Interest, Poller, WakeReceiver, Waker};
pub(super) use socket::{Inbound, Socket};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
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

/// Concurrent scrapes the exporter serves; one more is closed at accept.
const MAX_SCRAPES: usize = 16;

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
        self.kick(metrics);
    }

    /// Wakes the reactor (with nothing attached: a shutdown kick).
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
        self.kick(metrics);
    }
}

/// What a reactor thread serves. The loop ([`Reactor::run`]) is one; these
/// are the points where a server's pool and the client loop differ. Each
/// hands the machine an event touches to the driver to settle.
pub(super) trait Tier: Send + 'static {
    /// What other threads hand this tier through the inbox.
    type Item: Send + 'static;
    /// Runs once, before the first round.
    fn start(&mut self, _r: &mut Reactor) {}
    /// Readiness on a token this tier registered.
    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool);
    /// One item from the inbox.
    fn adopt(&mut self, r: &mut Reactor, item: Self::Item, stopped: bool);
    /// Runs once per round, after the inbox.
    fn round(&mut self, r: &mut Reactor, stopped: bool);
    /// The deadline armed for `token` fell due.
    fn timer(&mut self, r: &mut Reactor, token: u64);
    /// Drops closed connections; `true` once none is left.
    fn reap(&mut self) -> bool;
}

/// A connection state machine, as its driver sees it: it takes events with
/// the turn's instant, and its sockets' I/O is the driver's.
pub(super) trait Machine {
    /// Its own socket (`link` false), or its link's when it has one.
    fn socket(&mut self, link: bool) -> Option<&mut Socket>;
    /// What that socket said: a frame (or a head), its end, or its failure.
    fn inbound(&mut self, link: bool, what: Inbound, now: Instant);
    /// Its deadline fell due; it may find nothing due yet.
    fn timer(&mut self, now: Instant);
    /// The driver did the I/O it asked for: react to where that left it.
    fn settled(&mut self, _now: Instant) {}
    /// Its next deadline; its sockets' write stalls are the driver's.
    fn deadline(&self, now: Instant) -> Option<Instant>;
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
        .spawn(move || Reactor::run((wake_rx, poller), metrics, stop, tier, &handle))
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
        scrapes: HashMap::new(),
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

/// Lifecycle of one connection, a session's or a scrape's; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Handshaking,
    Established,
    Draining,
    Closed,
}

/// One server-role connection's entire state, owned by its reactor thread:
/// the server session's machine.
struct Conn {
    shared: Arc<ServerShared>,
    /// Closed once the connection is, or once its sink broke: a write
    /// failed or stalled out, and what is owed is settled without writing.
    sock: Socket,
    state: ConnState,
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
    /// Submits the service accepted and has not answered yet.
    running: usize,
    /// Still counted in [`ServerShared`]'s submitter gauge.
    counts_submitter: bool,
    /// `conn_opened` was recorded (so `conn_closed` is owed).
    counts_session_open: bool,
}

/// One event-loop thread's own machinery — its poller, its deadlines and
/// token counter, the turn's instant, what it counts into and its stop
/// flag: the driver. What it serves is its [`Tier`].
pub(super) struct Reactor {
    poller: Poller,
    pub(super) wheel: TimerWheel,
    /// The clock, read once per turn.
    pub(super) now: Instant,
    wake_rx: WakeReceiver,
    metrics: Arc<ServiceMetrics>,
    stop: Arc<AtomicBool>,
    next_token: u64,
    /// Reused buffers for poll results and owners whose deadline fired.
    events: Vec<Event>,
    due: Vec<u64>,
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
    /// Exporter scrapes, by poller token (reactor 0 only).
    scrapes: HashMap<u64, Scrape>,
    /// A relay's health probes (reactor 0 only).
    prober: Option<relay::Prober>,
}

/// One Prometheus scrape, the exporter's machine (the module docs' "A
/// scrape"). No keep-alive.
struct Scrape {
    shared: Arc<ServerShared>,
    sock: Socket,
    /// `Handshaking` until the head is in, `Draining` while the page
    /// leaves, then `Closed`.
    state: ConnState,
}

impl Reactor {
    /// A token no connection of this reactor has had.
    pub(super) fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token - 1
    }

    fn run<T: Tier>(
        (wake_rx, poller): ReactorPrivate,
        metrics: Arc<ServiceMetrics>,
        stop: Arc<AtomicBool>,
        mut tier: T,
        handle: &ReactorShared<T::Item>,
    ) {
        let mut r = Reactor {
            poller,
            wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS),
            now: Instant::now(),
            wake_rx,
            metrics,
            stop,
            next_token: 0,
            events: Vec::new(),
            due: Vec::new(),
        };
        tier.start(&mut r);
        // Swapped with the inbox each round, so neither side reallocates.
        let mut inbox = Vec::new();
        loop {
            let timeout = r
                .wheel
                .next_deadline()
                .map(|dl| dl.saturating_duration_since(r.now));
            let mut events = std::mem::take(&mut r.events);
            if r.poller.wait(&mut events, timeout).is_err() {
                // A broken poller would spin; back off and keep draining via
                // wake-ups and timers.
                std::thread::sleep(Duration::from_millis(1));
            }
            // The one clock read of the turn: every event below is handled
            // at this instant.
            r.now = Instant::now();
            r.metrics.reactor_events(events.len());
            // Drain the waker before reading anything it guards: a wake that
            // lands while this wake-up is being served is coalesced into it
            // (no new byte), so what it published — the stop flag here, the
            // inbox and the ready list below — must be read after the drain.
            // The same iteration that drains the shutdown kick therefore
            // also observes the flag and applies it.
            if events.iter().any(|ev| ev.token == WAKER_TOKEN) {
                r.wake_rx.drain();
            }
            let stopped = r.stop.load(Ordering::SeqCst);
            for ev in events.iter().filter(|ev| ev.token != WAKER_TOKEN) {
                tier.io(&mut r, ev.token, ev.readable);
            }
            r.events = events;

            std::mem::swap(
                &mut *handle.inbox.lock().unwrap_or_else(PoisonError::into_inner),
                &mut inbox,
            );
            for item in inbox.drain(..) {
                tier.adopt(&mut r, item, stopped);
            }
            tier.round(&mut r, stopped);

            let mut due = std::mem::take(&mut r.due);
            r.wheel.advance(r.now, &mut due);
            for token in due.drain(..) {
                tier.timer(&mut r, token);
            }
            r.due = due;

            if tier.reap()
                && stopped
                && handle
                    .inbox
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty()
            {
                r.poller
                    .deregister(r.wake_rx.fd())
                    .expect("deregister reactor waker");
                r.metrics.reactor_fd_deregistered();
                return;
            }
        }
    }

    /// Readiness on `m`'s socket (`link` names which), `m` owning `token`:
    /// a readable socket's frames go to `m` until it runs dry, ends, or `m`
    /// stops reading, and `m` is settled after each — so a relay forwards
    /// a job while the next is read — or once, with no frame (a writable
    /// socket is flushed, a connect ended).
    pub(super) fn ready<M: Machine>(&mut self, token: u64, m: &mut M, link: bool, readable: bool) {
        let reads = |sock: &&mut Socket| readable && sock.reads();
        loop {
            let metrics = &*self.metrics;
            let what = m
                .socket(link)
                .filter(reads)
                .and_then(|s| s.next_frame(metrics));
            let more = matches!(what, Some(Inbound::Frame(_)));
            if let Some(what) = what {
                m.inbound(link, what, self.now);
            }
            self.settle(token, m);
            if !more {
                return;
            }
        }
    }

    /// The deadline of `m`, owning `token`, fell due.
    pub(super) fn fire<M: Machine>(&mut self, token: u64, m: &mut M) {
        m.timer(self.now);
        self.settle(token, m);
    }

    /// The settle step, after any event on `m`, owning `token`: all of its
    /// sockets' I/O, each failure handed back to it, until it asks for
    /// nothing more; then its one deadline is armed.
    pub(super) fn settle<M: Machine>(&mut self, token: u64, m: &mut M) {
        let (now, poller, metrics) = (self.now, &mut self.poller, &*self.metrics);
        loop {
            for link in [false, true] {
                while let Some(failed) = m.socket(link).and_then(|s| s.io(poller, metrics, now)) {
                    m.inbound(link, failed, now);
                }
            }
            m.settled(now);
            if ![false, true]
                .into_iter()
                .any(|link| m.socket(link).is_some_and(|s| s.pending()))
            {
                break;
            }
        }
        let stalls = [false, true].map(|link| m.socket(link).and_then(|s| s.stall_deadline()));
        let at = m
            .deadline(now)
            .into_iter()
            .chain(stalls.into_iter().flatten())
            .min();
        self.wheel.arm(token, at);
    }
}

impl Tier for Sessions {
    type Item = TcpStream;

    /// A relay's first health sweep is due at once.
    fn start(&mut self, r: &mut Reactor) {
        if self.prober.is_some() {
            r.wheel.arm(SWEEP_TOKEN, Some(r.now));
        }
    }

    /// Readiness for a listener, a scrape, a connection's socket, its
    /// backend link or a health probe.
    fn io(&mut self, r: &mut Reactor, token: u64, readable: bool) {
        if matches!(token, LISTENER_TOKEN | EXPORTER_TOKEN) {
            return self.accept(r, token);
        }
        let owner = token & !link::LINK;
        if let Some(conn) = self.conns.get_mut(&owner) {
            r.ready(owner, conn, token != owner, readable);
        } else if let Some(scrape) = self.scrapes.get_mut(&token) {
            r.ready(token, scrape, false, readable);
        } else if let Some(prober) = &mut self.prober {
            prober.on(owner, &self.shared, r, |r, probe| {
                r.ready(owner, probe, true, readable)
            });
        } // else a stale event for an already-closed token
    }

    /// Takes up a connection reactor 0 dealt here. Under stop, it is
    /// closed immediately instead (reactor 0 dealt it before it saw the
    /// flag).
    fn adopt(&mut self, r: &mut Reactor, stream: TcpStream, stopped: bool) {
        if stopped {
            self.shared.submitters_dec();
            self.shared.release_conn(false);
            self.handle.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let (token, shared) = (r.token(), &self.shared);
        let (tx, rx) = channel();
        let notify = {
            let handle = Arc::clone(&self.handle);
            let metrics = Arc::clone(&shared.metrics);
            Arc::new(move || handle.notify_replies(token, &metrics)) as Arc<dyn Fn() + Send + Sync>
        };
        let peer_alive = Arc::new(AtomicBool::new(true));
        let mut conn = Conn {
            shared: Arc::clone(shared),
            sock: Socket::accepted(stream, token, &shared.config),
            state: ConnState::Handshaking,
            replies_rx: rx,
            routed: RoutedSender::new(tx, notify, Arc::clone(&peer_alive)),
            relay: match shared.upstream {
                Upstream::Service(_) => None,
                Upstream::Relay { .. } => Some(relay::Relay::new(self.index, token, shared)),
            },
            peer_alive,
            session_client: None,
            greeted: false,
            traces: HashMap::new(),
            cancels: HashMap::new(),
            running: 0,
            counts_submitter: true,
            counts_session_open: false,
        };
        r.settle(token, &mut conn);
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
                pump_replies(conn);
                r.settle(token, conn);
            }
        }
        if stopped {
            self.apply_stop(r);
        }
    }

    /// A connection's deadline fired, a scrape's, a resting listener's, the
    /// health sweep's or a probe's.
    fn timer(&mut self, r: &mut Reactor, token: u64) {
        match (token, self.conns.get_mut(&token), &mut self.prober) {
            (LISTENER_TOKEN | EXPORTER_TOKEN, ..) => self.listen(r, token, false),
            (SWEEP_TOKEN, _, Some(prober)) => prober.sweep(&self.shared, r),
            (_, Some(conn), _) => r.fire(token, conn),
            (_, None, prober) => {
                if let Some(scrape) = self.scrapes.get_mut(&token) {
                    r.fire(token, scrape);
                } else if let Some(prober) = prober {
                    prober.on(token, &self.shared, r, |r, probe| r.fire(token, probe));
                }
            }
        }
    }

    /// `true` once no connection is here or on its way here.
    fn reap(&mut self) -> bool {
        self.scrapes.retain(|_, s| s.state != ConnState::Closed);
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

    /// Takes one exporter connection up as a [`Scrape`], or closes it at
    /// once past [`MAX_SCRAPES`].
    fn scrape(&mut self, r: &mut Reactor, stream: TcpStream) {
        if self.scrapes.len() >= MAX_SCRAPES {
            return;
        }
        let token = r.token();
        let mut scrape = Scrape {
            shared: Arc::clone(&self.shared),
            sock: Socket::accepted(stream, token, &self.shared.config),
            state: ConnState::Handshaking,
        };
        scrape.sock.head = true;
        r.settle(token, &mut scrape);
        self.scrapes.insert(token, scrape);
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
        r.wheel.arm(token, Some(r.now + ACCEPT_REST));
    }

    /// Stop ordering: every connection that could still submit stops being
    /// able to (handshakes die, established sessions drain), and only then
    /// does the submitter gauge hit zero — which is what lets
    /// `CloudServer::shutdown` drain the service knowing the reply set is
    /// complete.
    fn apply_stop(&mut self, r: &mut Reactor) {
        if let Some(mut prober) = self.prober.take() {
            prober.stop(r);
        }
        // The listeners die first, so the port refuses connections once
        // shutdown returns.
        let metrics = &self.shared.metrics;
        for (_, listener) in self.listeners.drain(..) {
            if r.poller.deregister(listener.as_raw_fd()).is_ok() {
                metrics.reactor_fd_deregistered();
            }
        }
        // Scrapes close, a page half-written or not: a scraper retries.
        for (&token, scrape) in &mut self.scrapes {
            scrape.close();
            r.settle(token, scrape);
        }
        for (&token, conn) in &mut self.conns {
            match conn.state {
                ConnState::Established if conn.relay.is_none() => enter_draining(conn),
                ConnState::Draining if conn.relay.is_none() => {}
                // Handshakes die; a relay has no service to drain, so its
                // sessions are severed.
                _ => close_conn(conn),
            }
            r.settle(token, conn);
        }
    }
}

impl Machine for Conn {
    fn socket(&mut self, link: bool) -> Option<&mut Socket> {
        match link {
            false => Some(&mut self.sock),
            true => self.relay.as_deref_mut().map(|relay| &mut relay.up.sock),
        }
    }

    fn inbound(&mut self, link: bool, what: Inbound, now: Instant) {
        if link {
            return link::inbound(&mut relay::Face(self), what, now);
        }
        let handshaking = self.state == ConnState::Handshaking;
        match what {
            Inbound::Frame(frame) => handle_frame(self, frame, now),
            // Before the handshake, anything but a clean EOF — a truncated
            // frame, a read error, oversized or malformed input — is a
            // rejected connection, closed with no reply.
            Inbound::Eof { cut: false } if handshaking => close_conn(self),
            _ if handshaking => {
                self.shared.metrics.conn_rejected();
                close_conn(self);
            }
            // An abrupt disconnect: this protocol's clients never half-close
            // — a graceful leave sends Goodbye first — so EOF, a read error
            // or a broken sink means the peer is gone and its in-flight jobs
            // are orphaned.
            Inbound::Eof { .. } | Inbound::Failed(_) => {
                self.peer_alive.store(false, Ordering::SeqCst);
                enter_draining(self);
            }
            // A protocol violation ends the session but still flushes owed
            // replies.
            Inbound::Malformed(_) => enter_draining(self),
            Inbound::Head => unreachable!("a session reads frames"),
        }
    }

    fn timer(&mut self, now: Instant) {
        if self.silence_deadline().is_some_and(|at| at <= now) {
            // A silent opener is not a protocol offense — just close
            // (parity with the old transport).
            match self.state {
                ConnState::Handshaking => close_conn(self),
                _ => enter_draining(self),
            }
        }
        if self.relay.is_some() {
            link::fired(&mut relay::Face(self), now);
        }
    }

    /// Draining completes when nothing is owed: no job upstream and no reply
    /// unwritten (a broken sink's are discarded).
    fn settled(&mut self, _: Instant) {
        if self.state == ConnState::Draining && self.in_flight() == 0 && self.sock.queued() == 0 {
            close_conn(self);
        }
    }

    fn deadline(&self, now: Instant) -> Option<Instant> {
        let link = self.relay.as_ref().and_then(|relay| relay.up.deadline(now));
        self.silence_deadline().into_iter().chain(link).min()
    }
}

impl Conn {
    /// When the handshake's budget, counted from the accept (bytes buy a
    /// stranger no time), or silence past the idle budget ends the
    /// connection. A draining one has none (it lives until its replies are
    /// settled), and neither has one whose route is being found: each dial
    /// is bounded by its link's handshake timeout, and the candidates are
    /// finite.
    fn silence_deadline(&self) -> Option<Instant> {
        let (config, sock) = (&self.shared.config, &self.sock);
        match self.state {
            ConnState::Handshaking if !self.greeted => Some(sock.opened + config.handshake_timeout),
            ConnState::Established => Some(sock.heard_at + config.idle_timeout),
            _ => None,
        }
    }

    /// Submits accepted and not yet answered, or answered with the reply
    /// still unwritten: a peer that stops reading keeps its slots occupied.
    fn in_flight(&self) -> usize {
        let upstream = match &self.relay {
            Some(relay) => relay.up.jobs.len(),
            None => self.running,
        };
        upstream + self.sock.replies()
    }
}

impl Machine for Scrape {
    fn socket(&mut self, link: bool) -> Option<&mut Socket> {
        (!link).then_some(&mut self.sock)
    }

    /// The head, or the peer's EOF (a minimal peer is answered what it
    /// sent), queues the page, rendered once; a failed socket closes.
    fn inbound(&mut self, _: bool, what: Inbound, _: Instant) {
        match what {
            Inbound::Head | Inbound::Eof { .. } if self.state == ConnState::Handshaking => {
                let metrics = &self.shared.metrics;
                let body = metrics.snapshot().to_prometheus();
                let page = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                self.sock.reading = false;
                self.sock
                    .queue_page(Bytes::from(page.into_bytes()), metrics);
                self.state = ConnState::Draining;
            }
            _ => self.close(),
        }
    }

    /// The head is late.
    fn timer(&mut self, now: Instant) {
        if self.deadline(now).is_some_and(|at| at <= now) {
            self.close();
        }
    }

    /// The page has left: a draining session's rule.
    fn settled(&mut self, _: Instant) {
        if self.state == ConnState::Draining && self.sock.queued() == 0 {
            self.close();
        }
    }

    /// The head is due the handshake timeout after the accept, as a
    /// session's `Hello` is; the page then has the socket's stall rule.
    fn deadline(&self, _: Instant) -> Option<Instant> {
        let due = self.sock.opened + self.shared.config.handshake_timeout;
        (self.state == ConnState::Handshaking).then_some(due)
    }
}

impl Scrape {
    /// Ends the scrape: the driver flushes what it can, then closes.
    fn close(&mut self) {
        self.state = ConnState::Closed;
        self.sock.close();
    }
}

/// One decoded frame against the state machine.
fn handle_frame(conn: &mut Conn, frame: Frame, now: Instant) {
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
                return refuse(conn, reason);
            }
            conn.greeted = true;
            let shared = Arc::clone(&conn.shared);
            match &shared.upstream {
                Upstream::Service(client) => {
                    // One scheduling/rate-limiting identity for everything
                    // this connection submits: the handshake's key, or a
                    // fresh anonymous session.
                    let auth = api_key.map(|k| Arc::from(k.into_boxed_str()));
                    conn.session_client = Some(client.for_transport_session(auth));
                    let max_in_flight = shared.config.max_in_flight as u32;
                    let max_frame_len = shared.config.max_frame_len as u64;
                    establish(conn, max_in_flight, max_frame_len);
                }
                // The Welcome waits for the session's backend link.
                Upstream::Relay { .. } => relay::route(conn, api_key, now),
            }
        }
        (ConnState::Handshaking, _) => refuse(conn, "expected Hello".into()),
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
            let (in_flight, cap) = (conn.in_flight(), conn.shared.config.max_in_flight);
            if in_flight >= cap {
                if let Some(session) = &conn.session_client {
                    conn.shared.metrics.session_shed(session.session_key());
                }
                let overloaded = CloudError::Overloaded {
                    queue_depth: in_flight,
                    max_queue_depth: cap,
                };
                return queue_reply(conn, request_id, Err(overloaded));
            }
            // Remember the trace for the Reply (including dedup-served
            // replies, which also arrive through the routed channel).
            if !trace.is_none() {
                conn.traces.insert(request_id, trace);
            }
            let Some(session) = &conn.session_client else {
                return relay::submit(conn, request_id, payload, trace, now);
            };
            match session.submit_routed(payload, request_id, conn.routed.clone(), trace) {
                Ok(cancel) => {
                    conn.running += 1;
                    conn.cancels.insert(request_id, cancel);
                }
                Err(e) => queue_reply(conn, request_id, Err(e)),
            }
        }
        (ConnState::Established, Frame::Ping { nonce }) => {
            conn.sock
                .queue(&Frame::Pong { nonce }, false, &conn.shared.metrics);
        }
        (ConnState::Established, Frame::GetStats { request_id }) => {
            // Authorization: with API keys configured only a session keyed
            // by one of them may scrape; otherwise any established session
            // is as trusted as the service gets. The refusal is in-band so
            // callers see *why* instead of a dead connection. A relay takes
            // no keys of its own: it answers with its routing tier's view.
            let (shared, metrics) = (&conn.shared, &conn.shared.metrics);
            let session = conn.session_client.as_ref().map(CloudClient::session_key);
            let authorized = match (&shared.api_keys, session) {
                (None, _) => true,
                (Some(keys), Some(SessionKey::ApiKey(k))) => {
                    keys.iter().any(|key| key.as_str() == &**k)
                }
                _ => false,
            };
            let body = if authorized {
                Ok(metrics.snapshot().to_bytes())
            } else {
                Err(CloudError::Unauthorized(
                    "stats require a recognized API key".into(),
                ))
            };
            conn.sock
                .queue(&Frame::Stats { request_id, body }, false, metrics);
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
                relay::cancel(conn, request_id, now);
            }
        }
        // Goodbye, or a second Hello or a server-side frame — a protocol
        // violation: stop reading, settle what is owed, close.
        (ConnState::Established, _) => enter_draining(conn),
        // Draining/Closed never reach here (the driver reads only while the
        // connection does).
        (ConnState::Draining | ConnState::Closed, _) => {}
    }
}

/// Refuses a connection before its session exists: a `Reject` naming
/// `reason`, written by the drain that closes the connection.
fn refuse(conn: &mut Conn, reason: String) {
    conn.shared.metrics.conn_rejected();
    conn.sock
        .queue(&Frame::Reject { reason }, false, &conn.shared.metrics);
    enter_draining(conn);
}

/// The handshake succeeded: `Welcome` the peer with these session limits,
/// count the session open, and swap the handshake deadline for the
/// (usually longer, possibly shorter) idle deadline.
fn establish(conn: &mut Conn, max_in_flight: u32, max_frame_len: u64) {
    let welcome = Frame::Welcome {
        version: PROTOCOL_VERSION,
        max_in_flight,
        max_frame_len,
    };
    conn.sock.queue(&welcome, false, &conn.shared.metrics);
    conn.shared.metrics.conn_opened();
    conn.counts_session_open = true;
    conn.state = ConnState::Established;
}

/// Serializes one reply onto the write queue, where it holds its in-flight
/// slot until written.
fn queue_reply(conn: &mut Conn, request_id: u64, mut result: Result<JobResult, CloudError>) {
    // The submit's trace id, echoed (only traced submits have one).
    let trace = conn.traces.remove(&request_id);
    conn.cancels.remove(&request_id);
    if let Ok(r) = &mut result {
        // Parity with in-process handles: the result's id is the id the
        // caller's handle carries (its wire request id), not the server
        // pool's internal one.
        r.job_id = request_id;
    }
    let reply = |result| Frame::Reply {
        request_id,
        result,
        trace,
    };
    let too_big = || Err(CloudError::Transport("reply too big to frame".into()));
    // A reply the framing cannot carry (over 4 GiB) is answered as an
    // error; a broken sink settles it unsent.
    let metrics = &conn.shared.metrics;
    if !conn.sock.queue(&reply(result), true, metrics) {
        conn.sock.queue(&reply(too_big()), true, metrics);
    }
}

/// Moves completions from the reply channel onto the write queue.
fn pump_replies(conn: &mut Conn) {
    while let Ok((request_id, msg)) = conn.replies_rx.try_recv() {
        match msg {
            RoutedMsg::Reply(result) => {
                conn.running = conn.running.saturating_sub(1);
                queue_reply(conn, request_id, result);
            }
            // Progress is advisory: it holds no in-flight slot and is never
            // owed, so a broken sink or a draining connection drops it.
            RoutedMsg::Progress(update) => {
                let progress = Frame::Progress { request_id, update };
                let (metrics, established) =
                    (&conn.shared.metrics, conn.state == ConnState::Established);
                if established && conn.sock.queue(&progress, false, metrics) {
                    metrics.progress_frame_delivered();
                } else {
                    metrics.progress_frame_dropped();
                }
            }
        }
    }
}

/// Stops reading and submitting; the connection now exists only to settle
/// its owed replies.
fn enter_draining(conn: &mut Conn) {
    if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
        return;
    }
    conn.state = ConnState::Draining;
    conn.sock.reading = false;
    if std::mem::take(&mut conn.counts_submitter) {
        conn.shared.submitters_dec();
    }
    relay::sever(conn);
    // Catch completions that were posted before this transition.
    pump_replies(conn);
}

/// Terminal: the socket closes (once the driver has written what it can),
/// and the session slot and the gauges are released.
fn close_conn(conn: &mut Conn) {
    if conn.state == ConnState::Closed {
        return;
    }
    conn.state = ConnState::Closed;
    conn.peer_alive.store(false, Ordering::SeqCst);
    relay::sever(conn);
    conn.sock.close();
    // Settle whatever the workers posted that will never reach the wire:
    // progress frames count as dropped. (Sends that race past this drain
    // fail once the channel's receiver is gone and are counted dropped at
    // the send site.)
    while let Ok((_, msg)) = conn.replies_rx.try_recv() {
        if let RoutedMsg::Progress(_) = msg {
            conn.shared.metrics.progress_frame_dropped();
        }
    }
    conn.traces.clear();
    conn.cancels.clear();
    if std::mem::take(&mut conn.counts_submitter) {
        conn.shared.submitters_dec();
    }
    conn.shared
        .release_conn(std::mem::take(&mut conn.counts_session_open));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportConfig;
    use std::net::TcpListener;

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
            now: Instant::now(),
            wake_rx,
            metrics: Arc::clone(&shared.metrics),
            stop: Arc::clone(&shared.stop),
            next_token: 0,
            events: Vec::new(),
            due: Vec::new(),
        };
        let mut tier = Sessions {
            shared,
            handle,
            index: 0,
            conns: HashMap::new(),
            listeners: vec![(LISTENER_TOKEN, listener)],
            next_deal: 0,
            scrapes: HashMap::new(),
            prober: None,
        };
        let listener_ready = |r: &mut Reactor| {
            r.poller.wait(&mut r.events, Some(Duration::ZERO)).unwrap();
            r.events.iter().any(|ev| ev.token == LISTENER_TOKEN)
        };
        assert!(listener_ready(&mut r));

        let rested = r.now;
        tier.listen(&mut r, LISTENER_TOKEN, true);
        assert!(!listener_ready(&mut r), "a resting listener was polled");
        let due = r.wheel.next_deadline().expect("a wake-up deadline");
        assert!(due >= rested + ACCEPT_REST);

        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        r.now = Instant::now();
        let mut fired = Vec::new();
        r.wheel.advance(r.now, &mut fired);
        assert_eq!(fired, [LISTENER_TOKEN]);
        for token in fired {
            tier.timer(&mut r, token);
        }
        assert!(listener_ready(&mut r), "the listener never came back");
        service.shutdown();
    }
}
