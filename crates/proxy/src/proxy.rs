//! The front door itself: the routing policy, and the relay it drives.
//!
//! One [`AmalgamProxy`] fronts N `CloudServer` backends. The mechanism is
//! the transport's relay ([`CloudServer::bind_relay`]): it terminates each
//! client's handshake, retains every in-flight `Submit` payload, and when a
//! backend link dies, or stays silent past [`ProxyConfig::reply_timeout`]
//! with replies owed, resubmits the retained jobs on a link to a survivor —
//! late, never lost, and bitwise the same (backends sharing a checkpoint
//! store even resume them from their last epoch). Only a fleet with nothing
//! left to route to answers them `ServiceUnavailable`, which a reconnecting
//! `RemoteCloudClient` retries. This module is the policy the relay
//! consults ([`Routing`]): a session's home is its key's point on the
//! consistent-hash ring (so per-session QoS, dedup and fairness state live
//! on one backend), its survivors the ring's order past ejected backends,
//! and every failure feeds the failing backend's breaker.

use std::collections::HashMap;
use std::io::{Error, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amalgam_cloud::transport::{Routing, TransportConfig};
use amalgam_cloud::{CloudServer, ServiceMetrics, ServiceStats};

use crate::breaker::{BreakerConfig, BreakerRegistry, Transition};
use crate::health;
use crate::ring::HashRing;

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
    /// How long one health probe may take, from its dial through
    /// `Hello`/`Welcome` to its `Ping`'s `Pong`: one deadline for the whole
    /// transaction (default 1 s).
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

    /// Sets the deadline on one whole health probe.
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

/// The routing policy: the ring, the breakers and the health sweep, over
/// the metrics the relay counts into.
#[derive(Debug)]
pub(crate) struct Fleet {
    pub(crate) config: ProxyConfig,
    pub(crate) ring: HashRing,
    /// Each backend's address, resolved once at bind.
    pub(crate) resolved: HashMap<String, SocketAddr>,
    pub(crate) breakers: BreakerRegistry,
    pub(crate) metrics: Arc<ServiceMetrics>,
}

impl Fleet {
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

impl Routing for Fleet {
    fn candidates(&self, key: &str) -> Vec<(String, SocketAddr)> {
        self.ring
            .ordered(key)
            .into_iter()
            .filter(|name| self.breakers.admits_traffic(name))
            .map(|name| (name.to_string(), self.resolved[name]))
            .collect()
    }

    fn failed(&self, name: &str) {
        self.record_backend_failure(name);
    }

    fn sweep(&self) -> (Vec<(String, SocketAddr)>, Duration) {
        (health::due(self), self.config.probe_interval)
    }

    fn probed(&self, name: &str, ok: bool) {
        health::probed(self, name, ok);
    }
}

/// The routing tier: a TCP front door over N framed backends.
#[derive(Debug)]
pub struct AmalgamProxy {
    relay: CloudServer,
}

impl AmalgamProxy {
    /// Binds the front door on `addr` over `backends` (dial addresses of
    /// running `CloudServer`s) and starts accepting sessions. Each backend's
    /// name is resolved here, once; it is dialed at its first address from
    /// then on.
    ///
    /// # Errors
    ///
    /// Returns the listener's bind error, or an
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error naming a
    /// backend that resolves to no address.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty (see [`HashRing::new`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[String],
        config: ProxyConfig,
    ) -> std::io::Result<AmalgamProxy> {
        let metrics = Arc::new(ServiceMetrics::new());
        let mut resolved = HashMap::new();
        for name in backends {
            let first = name.to_socket_addrs().into_iter().flatten().next();
            let reason = format!("backend {name} resolves to no address");
            let addr = first.ok_or(Error::new(ErrorKind::InvalidInput, reason))?;
            resolved.insert(name.clone(), addr);
            metrics.backend_registered(name);
        }
        let fleet = Arc::new(Fleet {
            ring: HashRing::new(backends, config.vnodes),
            resolved,
            breakers: BreakerRegistry::new(config.breaker, backends),
            config: config.clone(),
            metrics: Arc::clone(&metrics),
        });
        let (reply, probe) = (config.reply_timeout, config.probe_timeout);
        let relay = CloudServer::bind_relay(addr, config.transport, reply, probe, metrics, fleet)?;
        Ok(AmalgamProxy { relay })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.relay.local_addr()
    }

    /// A snapshot of the proxy's own telemetry: connections, frames,
    /// failovers, resubmissions and the per-backend health table.
    pub fn stats(&self) -> ServiceStats {
        self.relay.stats()
    }

    /// The proxy's telemetry plane: the backend round-trip histogram
    /// ([`Stage::BackendRtt`](amalgam_cloud::Stage)) and the routing tier's
    /// flight recorder — the middle of the three vantage points a trace id
    /// is visible at.
    pub fn telemetry(&self) -> &amalgam_cloud::Telemetry {
        self.relay.telemetry()
    }

    /// Stops accepting, severs every client session and joins all proxy
    /// threads. Backends are untouched.
    pub fn shutdown(self) {
        self.relay.shutdown();
    }
}
