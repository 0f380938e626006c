//! # amalgam-proxy — the cluster front door
//!
//! A single `CloudServer` is a single point of failure: when it dies, every
//! client's in-flight training jobs die with it. This crate puts a routing
//! tier in front of a fleet of backends, speaking the exact same
//! length-prefixed frame protocol on both faces, so neither clients nor
//! backends know the proxy exists:
//!
//! ```text
//!                         ┌────────────────┐      ┌─────────────┐
//!   RemoteCloudClient ──▶ │  AmalgamProxy  │ ──▶  │ CloudServer │  × N
//!   (reconnecting)        │  ring/breakers │      │  (backend)  │
//!                         └────────────────┘      └─────────────┘
//! ```
//!
//! Four pieces cooperate:
//!
//! * [`HashRing`] — consistent-hash routing with virtual nodes. A session
//!   (keyed by its API key, or a unique anonymous tag) always lands on the
//!   same backend, so per-session QoS, rate limits and content-addressed
//!   dedup keep working; ejecting a backend moves only *its* sessions.
//! * [`CircuitBreaker`] / [`BreakerRegistry`] — the closed → open →
//!   half-open → closed machine per backend. Consecutive failures eject; a
//!   cooldown admits probes again; consecutive probe successes readmit. No
//!   operator action anywhere in the loop.
//! * the health sweep — a full Hello/Welcome/Ping/Pong transaction per
//!   backend per sweep, because a wedged server still accepts TCP
//!   connections.
//! * [`AmalgamProxy`] — hands the first three, as its routing policy
//!   ([`Routing`](amalgam_cloud::transport::Routing)), to the transport's
//!   relay (`CloudServer::bind_relay`): a reactor pool that terminates
//!   client handshakes, retains every in-flight `Submit` payload, and on a
//!   backend death resubmits the retained jobs to a survivor under their
//!   original request ids. Jobs are seeded-deterministic and
//!   content-addressed, so replays dedup server-side and results stay
//!   bitwise identical.
//!
//! # Routing
//!
//! Sessions — not individual jobs — are the routing unit. The route key is
//! the session's API key (anonymous sessions get a unique synthetic key),
//! hashed onto the ring (SipHash-2-4, 64 virtual nodes per backend by
//! default). Same key → same backend, so dedup and rate-limit state on the
//! backend see a stable population. The policy's candidates are the ring
//! walked in order ([`HashRing::ordered`]) with the backends whose breaker
//! admits no traffic left out; adding or removing one backend only remaps
//! the sessions that hashed to it. A session is placed before its
//! `Welcome`, which advertises the element-wise minimum of the proxy's and
//! the chosen backend's `max_in_flight` and `max_frame_len`, so a client can
//! never submit something the backend would refuse. How the relay dials,
//! and what it retries when a backend fails, is the transport's
//! (`transport::event_loop::relay`, "Routing" and "Failover"); the client
//! side is the same link with a `ReconnectPolicy`.
//!
//! The [`FaultInjector`] is the proof harness: a dependency-free TCP
//! man-in-the-middle that can kill, hang, delay, black-hole or
//! partially-write any link on command, so the failover path is exercised
//! by tests instead of trusted on faith.

#![deny(missing_docs)]

mod breaker;
mod fault;
mod health;
mod proxy;
mod ring;

pub use breaker::{BreakerConfig, BreakerRegistry, BreakerState, CircuitBreaker, Transition};
pub use fault::{Fault, FaultInjector};
pub use proxy::{AmalgamProxy, ProxyConfig};
pub use ring::HashRing;
