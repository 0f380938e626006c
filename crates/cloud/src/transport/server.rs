//! The TCP front of a [`CloudService`]: bounded acceptor, a small pool of
//! reactor (event-loop) threads, and graceful drain on shutdown.
//!
//! Each accepted connection is one *session*, owned by exactly one reactor
//! thread — there are no per-connection threads. The reactor decodes
//! [`Frame::Submit`]s as their bytes arrive and feeds them into the
//! service's shared job queue via the multiplexed reply path
//! (`CloudClient::submit_routed`); completions — in whatever order the pool
//! finishes them — wake the owning reactor, which frames them back as
//! [`Frame::Reply`]s through the connection's write queue. The middleware
//! stack sees remote jobs exactly as it sees in-process ones, plus the
//! session's API key and [`crate::SessionKey`] in the job context, so
//! per-session rate limits and DRR fairness apply to remote traffic with no
//! transport-specific code: a QoS rejection (`RateLimited`, `Overloaded`)
//! is just an error outcome riding the same Reply frame, tallied against
//! the session in [`ServiceStats::sessions`].
//!
//! The transport's own per-connection in-flight cap is judged in the
//! reactor (it is connection state, not payload state); its sheds are
//! counted per session too, and queued-but-unflushed replies hold their
//! in-flight slots so a peer that stops reading stops being allowed to
//! submit. The connection state machine, write-queue backpressure and
//! timer handling live in the sibling `event_loop` module. The same pool
//! serves a relay ([`CloudServer::bind_relay`]), plus its dialer thread.

use super::event_loop::{reactor_parts, spawn_server_reactor, Inbound, ReactorShared};
use super::frame::{write_frame, Frame};
use super::TransportConfig;
use crate::metrics::{ServiceMetrics, ServiceStats};
use crate::service::{CloudClient, CloudService};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Write bound for pre-handshake refusals issued by the acceptor itself,
/// where no session config has been negotiated yet (established sessions
/// use [`TransportConfig::write_timeout`] via the reactor's stall timer).
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the acceptor rests after a failed `accept` (descriptor
/// exhaustion does not clear by asking again at once).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Bound on one wake-up connection of [`wake_acceptor`].
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How many wake-up connections [`wake_acceptor`] makes before it gives up.
const WAKE_ATTEMPTS: usize = 5;

/// How long a woken acceptor is given to return, per wake-up (it needs
/// microseconds; a thread that is still parked after this was not reached).
const WAKE_GRACE: Duration = Duration::from_millis(20);

/// A [`CloudService`] behind a real TCP listener.
///
/// ```no_run
/// use amalgam_cloud::{CloudServer, CloudService, RemoteCloudClient};
///
/// let service = CloudService::builder().workers(2).build();
/// let server = CloudServer::bind(service, "127.0.0.1:0").unwrap();
/// let client = RemoteCloudClient::connect(server.local_addr()).unwrap();
/// // … client.submit(&job) …
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct CloudServer {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    /// The reactors, and a relay's dialer.
    threads: Vec<JoinHandle<()>>,
    service: Option<CloudService>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

/// The routing policy a relay consults ([`CloudServer::bind_relay`]). The
/// mechanism — handshakes, the frame pump, retaining jobs, failing a link
/// over — is the transport's; which backend a session uses, and what a
/// failure says about a backend, is the policy's.
pub trait Routing: Send + Sync + std::fmt::Debug {
    /// The backends a session keyed `key` (its API key, or a tag unique to
    /// the connection) may be routed to, best first.
    fn candidates(&self, key: &str) -> Vec<String>;

    /// A dial to `addr` failed (refused, or its handshake did), or a
    /// session's link to it died or owed replies and stayed silent.
    fn failed(&self, addr: &str);

    /// The health sweep, run on the dialer thread whenever one is due;
    /// returns how long until the next.
    fn sweep(&self) -> Duration;
}

/// Where a server's sessions send their jobs.
#[derive(Debug)]
pub(super) enum Upstream {
    /// To the service's queue.
    Service(CloudClient),
    /// To backends, over links the dialer hands to the reactors.
    Relay {
        routing: Arc<dyn Routing>,
        /// Dial requests; `None` stops the dialer.
        dialer: Sender<Option<Dial>>,
        /// How long a link that owes replies may stay silent.
        reply_timeout: Duration,
    },
}

/// A relay session's request for a backend link.
#[derive(Debug)]
pub(super) struct Dial {
    /// The owning reactor, and the session's token on it.
    pub(super) home: usize,
    pub(super) token: u64,
    /// The routing key.
    pub(super) key: String,
    /// Backends that just failed the session, passed over this time.
    pub(super) exclude: Vec<String>,
}

/// State shared by the acceptor, the reactors and the shutdown path.
#[derive(Debug)]
pub(super) struct ServerShared {
    pub(super) stop: Arc<AtomicBool>,
    pub(super) config: TransportConfig,
    pub(super) upstream: Upstream,
    pub(super) metrics: Arc<ServiceMetrics>,
    /// Accepted API keys, for the `GetStats` authorization check (`None`
    /// when the service takes anonymous sessions — then any established
    /// session may ask).
    pub(super) api_keys: Option<Arc<[String]>>,
    /// One handle per reactor thread; each connection is dealt to the one
    /// with the fewest live connections, ties round-robin.
    pub(super) reactors: Vec<Arc<ReactorShared<Inbound>>>,
    /// Connections that may still submit jobs (handshaking or established).
    /// Shutdown waits for this to hit zero before draining the service, so
    /// no submission can race past the drain and strand a request id.
    submitters: AtomicUsize,
    /// Connections counted against [`TransportConfig::max_connections`].
    sessions: AtomicUsize,
}

impl ServerShared {
    /// A connection left the states that can submit.
    pub(super) fn submitters_dec(&self) {
        self.submitters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Releases a connection's session slot; `session_open` says whether
    /// its handshake succeeded (so a `conn_closed` is owed).
    pub(super) fn release_conn(&self, session_open: bool) {
        if session_open {
            self.metrics.conn_closed();
        }
        self.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

impl CloudServer {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of
    /// `service` with the default [`TransportConfig`].
    ///
    /// # Errors
    ///
    /// Returns the listener's I/O error; the service is dropped (and thus
    /// cleanly shut down) in that case.
    pub fn bind(service: CloudService, addr: impl ToSocketAddrs) -> std::io::Result<CloudServer> {
        CloudServer::bind_with(service, addr, TransportConfig::default())
    }

    /// [`bind`](Self::bind) with explicit transport tunables.
    ///
    /// # Errors
    ///
    /// Returns the listener's (or reactor setup's) I/O error.
    pub fn bind_with(
        service: CloudService,
        addr: impl ToSocketAddrs,
        config: TransportConfig,
    ) -> std::io::Result<CloudServer> {
        // The acceptor blocks in `accept`; shutdown wakes it (see
        // [`wake_acceptor`]).
        let listener = TcpListener::bind(addr)?;
        // The Prometheus exporter is served by reactor 0's poller — a second
        // nonblocking listener, not a second thread.
        let exporter = match service.metrics_exporter_addr() {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let mut server = CloudServer::start(
            listener,
            exporter,
            config,
            service.metrics_arc(),
            service.api_keys(),
            Upstream::Service(service.client()),
        )?;
        server.service = Some(service);
        Ok(server)
    }

    /// Binds a relay (see the [module docs](super#relays)) over the
    /// backends `routing` picks, counting into `metrics`, whose `GetStats`
    /// it answers. A session's `Welcome` waits until it is routed and
    /// advertises the tighter of `config`'s limits and its backend's; a link
    /// that owes replies fails over after `reply_timeout` of silence. The
    /// threads are `proxy-acceptor`, `proxy-reactor-<i>` and `proxy-dialer`,
    /// whatever the session count.
    ///
    /// # Errors
    ///
    /// Returns the listener's (or reactor setup's) I/O error.
    pub fn bind_relay(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
        reply_timeout: Duration,
        metrics: Arc<ServiceMetrics>,
        routing: Arc<dyn Routing>,
    ) -> std::io::Result<CloudServer> {
        let listener = TcpListener::bind(addr)?;
        let (dialer, requests) = channel();
        let upstream = Upstream::Relay {
            routing: Arc::clone(&routing),
            dialer,
            reply_timeout,
        };
        let mut server = CloudServer::start(listener, None, config, metrics, None, upstream)?;
        let shared = Arc::clone(&server.shared);
        let dialer = std::thread::Builder::new()
            .name("proxy-dialer".into())
            .spawn(move || dial_loop(&shared, &*routing, &requests))
            .expect("spawn dialer");
        server.threads.push(dialer);
        Ok(server)
    }

    /// Starts the reactor pool and the acceptor on `listener`.
    fn start(
        listener: TcpListener,
        exporter: Option<TcpListener>,
        config: TransportConfig,
        metrics: Arc<ServiceMetrics>,
        api_keys: Option<Arc<[String]>>,
        upstream: Upstream,
    ) -> std::io::Result<CloudServer> {
        let local_addr = listener.local_addr()?;
        let metrics_addr = match &exporter {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let tier = match upstream {
            Upstream::Service(_) => "cloud",
            Upstream::Relay { .. } => "proxy",
        };
        let io_threads = config.effective_io_threads();
        let (handles, parts): (Vec<_>, Vec<_>) = (0..io_threads)
            .map(|_| reactor_parts())
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let shared = Arc::new(ServerShared {
            stop: Arc::new(AtomicBool::new(false)),
            config,
            upstream,
            metrics,
            api_keys,
            reactors: handles,
            submitters: AtomicUsize::new(0),
            sessions: AtomicUsize::new(0),
        });
        let mut reactors = Vec::with_capacity(io_threads);
        let mut exporter = exporter;
        for (i, part) in parts.into_iter().enumerate() {
            reactors.push(spawn_server_reactor(
                format!("{tier}-reactor-{i}"),
                i,
                Arc::clone(&shared),
                part,
                exporter.take(),
            ));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{tier}-acceptor"))
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(CloudServer {
            shared,
            acceptor: Some(acceptor),
            threads: reactors,
            service: None,
            local_addr,
            metrics_addr,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the Prometheus exporter listens (ephemeral port resolved), if
    /// [`crate::CloudServiceBuilder::metrics_exporter`] configured one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Point-in-time service + transport telemetry.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// The fronted service's telemetry plane: per-stage histograms and the
    /// flight recorder holding the backend tier's view of each trace.
    pub fn telemetry(&self) -> &crate::telemetry::Telemetry {
        self.shared.metrics.telemetry()
    }

    /// An in-process client of the same service the listener fronts —
    /// useful for comparing remote and local submissions of one pool.
    ///
    /// # Panics
    ///
    /// Panics on a relay, which fronts no service.
    pub fn local_client(&self) -> CloudClient {
        self.service
            .as_ref()
            .expect("service present until shutdown")
            .client()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, stop reading, drain every job
    /// already accepted (they train to completion), answer all stranded
    /// request ids, flush the replies, then close the sockets. A relay
    /// severs its sessions instead: it has no service to drain.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        if wake_acceptor(self.local_addr, &acceptor) {
            let _ = acceptor.join();
        }
        // No new connections; wake every reactor so it observes the stop
        // flag, kills handshakes and moves established sessions to
        // Draining — after which the submitter gauge can only fall.
        for reactor in &self.shared.reactors {
            reactor.kick(&self.shared.metrics);
        }
        while self.shared.submitters.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // All submissions have happened; the service drain below therefore
        // answers every routed reply — completed jobs with results, jobs it
        // never reached with ServiceUnavailable. Each answer wakes its
        // owning reactor, which flushes it and closes the connection once
        // nothing is owed; reactors exit when their last connection closes.
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        if let Upstream::Relay { dialer, .. } = &self.shared.upstream {
            let _ = dialer.send(None);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for CloudServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Unblocks `acceptor`, a thread parked in `accept` on the listener bound at
/// `addr` whose stop flag the caller has set: a loopback connection is what
/// `accept` returns next, and the loop then sees the flag. Returns whether
/// the thread has exited, i.e. whether joining it returns.
///
/// The wake-up is dialled five times at most, the thread given 20 ms after
/// each to leave (`WAKE_ATTEMPTS`, `WAKE_GRACE`). When the listener cannot be reached
/// from here (its address gone from the interface, loopback filtered) the
/// answer is `false` and the caller lets the thread go instead of joining
/// it: it holds the listener and nothing else, and returns at the first
/// connection that does arrive.
#[must_use = "joining an acceptor that was not woken blocks"]
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>) -> bool {
    let loopback: IpAddr = match addr {
        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    };
    let ip = if addr.ip().is_unspecified() {
        loopback
    } else {
        addr.ip()
    };
    for _ in 0..WAKE_ATTEMPTS {
        if acceptor.is_finished() {
            break;
        }
        let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), WAKE_TIMEOUT);
        let dialled = Instant::now();
        while !acceptor.is_finished() && dialled.elapsed() < WAKE_GRACE {
            std::thread::sleep(WAKE_GRACE / 100);
        }
    }
    acceptor.is_finished()
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut next_reactor = 0usize;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            // Whoever this was — most likely the wake-up — finds the door
            // closed.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if shared.sessions.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.metrics.conn_rejected();
                    reject(stream, "server at connection capacity");
                    continue;
                }
                shared.sessions.fetch_add(1, Ordering::SeqCst);
                shared.submitters.fetch_add(1, Ordering::SeqCst);
                let n = shared.reactors.len();
                let pick = (next_reactor..next_reactor + n)
                    .map(|i| i % n)
                    .min_by_key(|&i| shared.reactors[i].live.load(Ordering::SeqCst))
                    .expect("a server has a reactor");
                let reactor = &shared.reactors[pick];
                reactor.live.fetch_add(1, Ordering::SeqCst);
                reactor.enqueue(Inbound::Accepted(stream), &shared.metrics);
                next_reactor = pick + 1;
            }
            // Out of descriptors, or a connection reset while it queued:
            // nothing to hand on, and nothing to wait for but the next one.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Best-effort capacity refusal, written synchronously from the acceptor
/// (the connection never reaches a reactor).
fn reject(mut stream: TcpStream, reason: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
    let _ = write_frame(
        &mut stream,
        &Frame::Reject {
            reason: reason.into(),
        },
    );
}

/// The relay's dialer: connects sessions to backends as their reactors ask,
/// handing each connection (or `None`, nothing would take the session) to
/// the reactor that asked — which handshakes it — and sweeps the fleet's
/// health whenever a sweep is due. Only the connect blocks here: the
/// handshakes of many sessions routed at once overlap on the reactors.
fn dial_loop(shared: &ServerShared, routing: &dyn Routing, requests: &Receiver<Option<Dial>>) {
    let mut next_sweep = Instant::now();
    loop {
        if Instant::now() >= next_sweep {
            next_sweep = Instant::now() + routing.sweep();
        }
        match requests.recv_timeout(next_sweep.saturating_duration_since(Instant::now())) {
            Ok(Some(dial)) => {
                let linked = if shared.stop.load(Ordering::SeqCst) {
                    None
                } else {
                    dial_backend(shared, routing, &dial)
                };
                shared.reactors[dial.home]
                    .enqueue(Inbound::Linked(dial.token, linked), &shared.metrics);
            }
            Ok(None) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Connects to the first backend `routing` offers the session, reporting
/// each one that refuses on the way.
fn dial_backend(
    shared: &ServerShared,
    routing: &dyn Routing,
    dial: &Dial,
) -> Option<(TcpStream, String)> {
    for addr in routing.candidates(&dial.key) {
        if dial.exclude.contains(&addr) {
            continue;
        }
        let connected = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut resolved| resolved.next())
            .and_then(|sock| TcpStream::connect_timeout(&sock, shared.config.connect_timeout).ok());
        match connected {
            Some(stream) => return Some((stream, addr)),
            None => routing.failed(&addr),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let service = CloudService::builder().workers(1).build();
        let server = CloudServer::bind(service, "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.session_count(), 0);
        server.shutdown();
    }

    /// The acceptor is parked in `accept`, a peer has connected and said
    /// nothing yet: shutdown wakes the one, drops the other and returns —
    /// also through the wildcard address, which cannot be dialled as it is.
    #[test]
    fn shutdown_returns_with_a_client_mid_handshake() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let service = CloudService::builder().workers(1).build();
            let server = CloudServer::bind(service, bind).unwrap();
            let port = server.local_addr().port();
            let mut silent = TcpStream::connect(("127.0.0.1", port)).unwrap();
            server.shutdown();
            // The session was closed under the silent peer.
            let mut buf = [0u8; 16];
            let closed = std::io::Read::read(&mut silent, &mut buf);
            assert!(
                matches!(closed, Ok(0) | Err(_)),
                "peer still served: {closed:?}"
            );
        }
    }

    /// Live connections per reactor, once they read `want` (10 s at most).
    fn settle(server: &CloudServer, want: [usize; 2]) {
        let live = || {
            let reactors = &server.shared.reactors;
            [0, 1].map(|i| reactors[i].live.load(Ordering::SeqCst))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while live() != want {
            assert!(
                Instant::now() < deadline,
                "live {:?}, want {want:?}",
                live()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Each accepted socket goes to the reactor with the fewest live
    /// connections, ties round-robin: once reactor 1's only session is
    /// reaped, the next two land there (blind round-robin would put the
    /// second of them on reactor 0).
    #[test]
    fn an_accepted_socket_goes_to_the_reactor_with_the_fewest_live_connections() {
        let service = CloudService::builder().workers(1).build();
        // The silent sockets must outlive the test's own waits.
        let config = TransportConfig::default()
            .io_threads(2)
            .handshake_timeout(Duration::from_secs(60));
        let server = CloudServer::bind_with(service, "127.0.0.1:0", config).unwrap();
        let connect = || TcpStream::connect(server.local_addr()).unwrap();
        let first = connect();
        settle(&server, [1, 0]);
        let second = connect();
        settle(&server, [1, 1]);
        let third = connect();
        settle(&server, [2, 1]);
        drop(second);
        settle(&server, [2, 0]);
        let fourth = connect();
        settle(&server, [2, 1]);
        let fifth = connect();
        settle(&server, [2, 2]);
        drop((first, third, fourth, fifth));
        server.shutdown();
    }

    /// A listener the wake-up cannot reach (here: the dial goes to a port
    /// nobody listens on, so every attempt is refused at once): the wake-up
    /// gives up after its bounded attempts and says so, instead of dialling
    /// for ever; the acceptor is still parked, and leaves at the first
    /// connection that does reach it.
    #[test]
    fn an_acceptor_the_wake_up_cannot_reach_is_reported_not_awaited() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reachable = listener.local_addr().unwrap();
        let dead = {
            let closed = TcpListener::bind("127.0.0.1:0").unwrap();
            closed.local_addr().unwrap()
        };
        let acceptor = std::thread::spawn(move || {
            let _ = listener.accept();
        });
        assert!(!wake_acceptor(dead, &acceptor));
        assert!(!acceptor.is_finished());
        assert!(wake_acceptor(reachable, &acceptor));
        acceptor.join().unwrap();
    }
}
