//! The TCP front of a [`CloudService`]: a small pool of reactor (event-loop)
//! threads, whose reactor 0 also polls the listener, and graceful drain on
//! shutdown.
//!
//! Each accepted connection is one *session* on one reactor. It submits
//! through the multiplexed reply path (`CloudClient::submit_routed`), so the
//! job pipeline sees remote jobs as it sees in-process ones, plus the
//! session's key, and a QoS refusal (`RateLimited`, `Overloaded`) is an
//! error riding the same `Reply`, tallied against the session in
//! [`ServiceStats::sessions`]. The session's state machine, backpressure
//! and deadlines are documented once, in the sibling `event_loop` module.
//! The same pool, and nothing else, serves a relay
//! ([`CloudServer::bind_relay`]).

use super::event_loop::{reactor_parts, spawn_server_reactor, ReactorShared};
use super::TransportConfig;
use crate::metrics::{ServiceMetrics, ServiceStats};
use crate::service::{CloudClient, CloudService};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// The reactors.
    threads: Vec<JoinHandle<()>>,
    service: Option<CloudService>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

/// The routing policy a relay consults ([`CloudServer::bind_relay`]). The
/// mechanism — dials, handshakes, the frame pump, retaining jobs, failing a
/// link over, the probes' transactions — is the transport's; which backend
/// a session uses, which to probe when, and what a failure says about a
/// backend, is the policy's. A backend is named as the policy likes and
/// dialed at the address it resolved to beforehand: no name is resolved on
/// a reactor. The relay's reactors call every method.
pub trait Routing: Send + Sync + std::fmt::Debug {
    /// The backends a session keyed `key` (its API key, or a tag unique to
    /// the connection) may be routed to, best first, by name and address.
    fn candidates(&self, key: &str) -> Vec<(String, SocketAddr)>;

    /// A dial to `name` failed (refused, timed out, or its handshake did),
    /// or a session's link to it died or owed replies and stayed silent.
    fn failed(&self, name: &str);

    /// The health sweep fell due: the backends to probe now (one whose
    /// last probe is still out is passed over), and how long until the
    /// next sweep.
    fn sweep(&self) -> (Vec<(String, SocketAddr)>, Duration);

    /// A probe of `name` ended: `ok` when `Welcome` and `Pong` came back
    /// within the probe deadline.
    fn probed(&self, name: &str, ok: bool);
}

/// Where a server's sessions send their jobs.
#[derive(Debug)]
pub(super) enum Upstream {
    /// To the service's queue.
    Service(CloudClient),
    /// To backends, over links each session's reactor dials.
    Relay {
        routing: Arc<dyn Routing>,
        /// How long a link that owes replies may stay silent.
        reply_timeout: Duration,
        /// How long one health probe may take, dial to `Pong`.
        probe_timeout: Duration,
    },
}

/// State shared by the reactors and the shutdown path.
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
    pub(super) reactors: Vec<Arc<ReactorShared<TcpStream>>>,
    /// Connections that may still submit jobs (handshaking or established).
    /// Shutdown waits for this to hit zero before draining the service, so
    /// no submission can race past the drain and strand a request id.
    pub(super) submitters: AtomicUsize,
    /// Connections counted against [`TransportConfig::max_connections`].
    pub(super) sessions: AtomicUsize,
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
        let listener = TcpListener::bind(addr)?;
        // The Prometheus exporter is served by reactor 0's poller too — a
        // second listener, not a second thread.
        let exporter = service.metrics_exporter_addr().map(TcpListener::bind);
        let exporter = exporter.transpose()?;
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
    /// advertises the tighter of `config`'s limits and its backend's; a
    /// link's connect and handshake share `config`'s handshake timeout; a
    /// link that owes replies fails over after `reply_timeout` of silence;
    /// a health probe gets `probe_timeout` from dial to `Pong`. The threads
    /// are `proxy-reactor-<i>`, whatever the session count.
    ///
    /// # Errors
    ///
    /// Returns the listener's (or reactor setup's) I/O error.
    pub fn bind_relay(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
        reply_timeout: Duration,
        probe_timeout: Duration,
        metrics: Arc<ServiceMetrics>,
        routing: Arc<dyn Routing>,
    ) -> std::io::Result<CloudServer> {
        let listener = TcpListener::bind(addr)?;
        let upstream = Upstream::Relay {
            routing,
            reply_timeout,
            probe_timeout,
        };
        CloudServer::start(listener, None, config, metrics, None, upstream)
    }

    /// Starts the reactor pool; reactor 0 polls `listener` and `exporter`.
    fn start(
        listener: TcpListener,
        exporter: Option<TcpListener>,
        config: TransportConfig,
        metrics: Arc<ServiceMetrics>,
        api_keys: Option<Arc<[String]>>,
        upstream: Upstream,
    ) -> std::io::Result<CloudServer> {
        let local_addr = listener.local_addr()?;
        let metrics_addr = exporter.as_ref().map(TcpListener::local_addr);
        let metrics_addr = metrics_addr.transpose()?;
        for l in std::iter::once(&listener).chain(&exporter) {
            l.set_nonblocking(true)?;
        }
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
        let (mut listener, mut exporter) = (Some(listener), exporter);
        for (i, part) in parts.into_iter().enumerate() {
            reactors.push(spawn_server_reactor(
                format!("{tier}-reactor-{i}"),
                i,
                Arc::clone(&shared),
                part,
                listener.take(),
                exporter.take(),
            ));
        }
        Ok(CloudServer {
            shared,
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
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake every reactor so it observes the stop flag: reactor 0 drops
        // the listeners, handshakes die and established sessions move to
        // Draining — after which the submitter gauge can only fall (a socket
        // reactor 0 is dealing meanwhile is ordered by the pair in its deal).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let service = CloudService::builder().workers(1).build();
        let server = CloudServer::bind(service, "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.session_count(), 0);
        server.shutdown();
    }

    /// A peer has connected and said nothing yet: shutdown drops it and
    /// returns, and the port refuses connections — for a loopback and a
    /// wildcard bind alike.
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
            assert!(
                TcpStream::connect(("127.0.0.1", port)).is_err(),
                "the port still accepts after shutdown"
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
}
