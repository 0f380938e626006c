//! The system under test, assembled from its public entry points:
//! `CloudService::builder` → `CloudServer::bind` (→ `AmalgamProxy::bind`) →
//! `RemoteCloudClient`, all in this process over loopback.

use amalgam_cloud::transport::TransportConfig;
use amalgam_cloud::{CloudServer, CloudService, RemoteCloudClient};
use amalgam_proxy::{AmalgamProxy, ProxyConfig};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// How the servers of one workload are laid out.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// `CloudServer`s (1 direct, 2 behind the proxy).
    pub backends: usize,
    /// Worker threads per backend.
    pub workers: usize,
    /// Result-cache capacity per backend, in bytes; `None` = dedup off.
    pub cache_bytes: Option<usize>,
    /// Whether clients dial an `AmalgamProxy` in front of the backends.
    pub via_proxy: bool,
    /// Client connections (one load-generator thread each).
    pub connections: usize,
}

/// The plain counters the harness reads from `ServiceStats`, summed over
/// the backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions attached to an in-flight duplicate.
    pub coalesced: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs answered with an error.
    pub jobs_failed: u64,
    /// Jobs shed by admission control.
    pub jobs_rejected: u64,
}

impl Counters {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            coalesced: self.coalesced - earlier.coalesced,
            jobs_completed: self.jobs_completed - earlier.jobs_completed,
            jobs_failed: self.jobs_failed - earlier.jobs_failed,
            jobs_rejected: self.jobs_rejected - earlier.jobs_rejected,
        }
    }
}

/// Running servers, the optional proxy, and connected clients.
pub struct Cluster {
    servers: Vec<CloudServer>,
    proxy: Option<AmalgamProxy>,
    /// One connected client per load-generator thread.
    pub clients: Vec<RemoteCloudClient>,
    /// Milliseconds each kept client's connect + handshake took.
    pub connect_ms: Vec<f64>,
}

/// Cached results never expire within a run.
const CACHE_TTL: Duration = Duration::from_secs(3600);

/// Keep-alive interval of whichever hop faces a `CloudServer`: the smallest
/// the client honours (its keep-alive thread ticks no faster than 10 ms).
///
/// This is a stall bound, not a tuning. At the commit that defines this
/// benchmark the reactor's self-pipe waker can lose its armed flag
/// (`vendor/reactor`, `WakeReceiver::drain` clears the flag *before*
/// emptying the pipe, so a `wake()` landing in between leaves the flag set
/// over an empty pipe, and every later `wake()` is skipped). From then on a
/// server flushes finished replies only when some other event ends its
/// poll: the next inbound frame, or a timer. Under the default 10 s
/// keep-alive a lone submission then waits 5-30 s for its reply and no run
/// ends in time; with a ping every tick the wait is bounded by the tick.
/// A server has no timer of its own that would do. The race fires once in
/// a few hundred to a few thousand replies, so every long-lived server of
/// a run ends up in that state. The deep dispatch loops are indifferent to
/// it (their own frames keep ending the poll), a `*_train` job gains up to
/// one tick on 150 ms, and the one-at-a-time replay replaces its servers
/// before it matters (`layers::ROUND`).
const KEEPALIVE: Duration = Duration::from_millis(10);

/// Unanswered submissions a session may hold: room for the deepest closed
/// loop a workload runs (the default of 32 would refuse it).
pub const MAX_IN_FLIGHT: usize = 512;

/// Transport settings of the servers, and of both faces of the proxy.
fn server_config() -> TransportConfig {
    TransportConfig::default().max_in_flight(MAX_IN_FLIGHT)
}

/// The client's transport settings. One rule for every tier: the hop that
/// faces a `CloudServer` pings at [`KEEPALIVE`], any other hop keeps the
/// default. A client of the proxy does not face a server — the proxy's
/// backend link does — and must stay quiet: the proxy answers client pings
/// itself and pings its backend only after the client has been silent for
/// one of its 50 ms read ticks, so a chatty client would starve the hop
/// that needs the pings.
pub fn client_config(via_proxy: bool) -> TransportConfig {
    if via_proxy {
        TransportConfig::default()
    } else {
        TransportConfig::default().keepalive_interval(KEEPALIVE)
    }
}

impl Cluster {
    /// Binds the servers (and proxy), then connects the clients.
    ///
    /// Behind the proxy, connection `c` is pinned to backend
    /// `c % backends`: the proxy routes a session by hashing its API key
    /// onto a ring of the backends' *addresses*, and with ephemeral ports
    /// that would put both sessions on one backend in some runs and on
    /// two in others. The harness therefore re-dials under fresh keys
    /// until `probe` — one job, observed through the backends' own plain
    /// counters — lands where it should.
    ///
    /// # Errors
    ///
    /// Returns a description of the bind, connect or placement failure.
    pub fn start(topology: &Topology, probe: &Bytes) -> Result<Cluster, String> {
        let mut servers = Vec::with_capacity(topology.backends);
        for _ in 0..topology.backends {
            let mut builder = CloudService::builder().workers(topology.workers);
            if let Some(bytes) = topology.cache_bytes {
                builder = builder.result_cache(bytes, CACHE_TTL);
            }
            let server = CloudServer::bind_with(builder.build(), "127.0.0.1:0", server_config())
                .map_err(|e| format!("server bind failed: {e}"))?;
            servers.push(server);
        }
        let proxy = if topology.via_proxy {
            let backends: Vec<String> =
                servers.iter().map(|s| s.local_addr().to_string()).collect();
            let config =
                ProxyConfig::default().transport(server_config().keepalive_interval(KEEPALIVE));
            let proxy = AmalgamProxy::bind("127.0.0.1:0", &backends, config)
                .map_err(|e| format!("proxy bind failed: {e}"))?;
            Some(proxy)
        } else {
            None
        };
        let mut cluster = Cluster {
            servers,
            proxy,
            clients: Vec::new(),
            connect_ms: Vec::new(),
        };
        for c in 0..topology.connections {
            let (client, ms) = cluster.connect_pinned(c, probe)?;
            cluster.clients.push(client);
            cluster.connect_ms.push(ms);
        }
        Ok(cluster)
    }

    /// The address clients dial: the proxy's, or the single server's.
    pub fn front_addr(&self) -> std::net::SocketAddr {
        match &self.proxy {
            Some(p) => p.addr(),
            None => self.servers[0].local_addr(),
        }
    }

    /// The address backend `i` listens on (behind the proxy, if any).
    pub fn backend_addr(&self, i: usize) -> std::net::SocketAddr {
        self.servers[i].local_addr()
    }

    fn connect_pinned(&self, c: usize, probe: &Bytes) -> Result<(RemoteCloudClient, f64), String> {
        if self.proxy.is_none() {
            return timed_connect(self.front_addr(), client_config(false));
        }
        let want = c % self.servers.len();
        for attempt in 0..64 {
            let config = client_config(true).api_key(format!("e2e-conn{c}-try{attempt}"));
            let (client, ms) = timed_connect(self.front_addr(), config)?;
            let before = self.answered_per_backend();
            client
                .submit_payload(probe.clone())
                .and_then(|h| h.wait())
                .map_err(|e| format!("placement probe failed: {e}"))?;
            let after = self.answered_per_backend();
            if after[want] > before[want] {
                return Ok((client, ms));
            }
            client.close();
        }
        Err(format!(
            "no API key routed connection {c} to backend {want}"
        ))
    }

    /// Submissions each backend has answered, executed or served from its
    /// cache (a repeated probe is a cache hit where dedup is on).
    fn answered_per_backend(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| {
                let stats = s.stats();
                stats.jobs_completed + stats.cache_hits + stats.coalesced
            })
            .collect()
    }

    /// The backends' plain counters, summed.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for s in &self.servers {
            let stats = s.stats();
            sum.cache_hits += stats.cache_hits;
            sum.coalesced += stats.coalesced;
            sum.jobs_completed += stats.jobs_completed;
            sum.jobs_failed += stats.jobs_failed;
            sum.jobs_rejected += stats.jobs_rejected;
        }
        sum
    }

    /// An in-process client of backend 0: the same queue and middleware
    /// stack with no socket in front.
    pub fn local_client(&self) -> amalgam_cloud::CloudClient {
        self.servers[0].local_client()
    }

    /// Stops the servers, then the proxy, then closes the clients; each
    /// `shutdown` joins the threads it started.
    ///
    /// Servers go first, while their sessions still ping them: a reactor
    /// whose waker has lost its flag (see [`KEEPALIVE`]) misses the
    /// shutdown kick too, and notices the stop flag only when a frame from
    /// a live session ends its poll.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
        if let Some(proxy) = self.proxy {
            proxy.shutdown();
        }
        for client in self.clients {
            client.close();
        }
    }
}

/// Times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Sets up [`SETUP_REPEATS`] times, tearing down all but the last session
/// (outside the timing), and returns it with the median set-up time in
/// seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setups<S>(
    setup: impl Fn() -> Result<S, String>,
    teardown: impl Fn(S),
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        kept.expect("SETUP_REPEATS > 0"),
        crate::stats::median(&times),
    ))
}

/// Connects and handshakes, returning the client and the milliseconds it
/// took.
///
/// # Errors
///
/// Returns the transport's error text.
pub fn timed_connect(
    addr: std::net::SocketAddr,
    config: TransportConfig,
) -> Result<(RemoteCloudClient, f64), String> {
    let t0 = Instant::now();
    let client = RemoteCloudClient::connect_with(addr, config)
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    Ok((client, t0.elapsed().as_secs_f64() * 1e3))
}
