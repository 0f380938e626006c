//! The real wire: length-prefixed TCP framing, sessions and multiplexed
//! remote clients in front of the in-process job pipeline.
//!
//! The paper's trust boundary is a network — clients upload augmented
//! models and tensors to an untrusted provider. This module puts the
//! [`crate::CloudService`] behind an actual socket: a [`CloudServer`] binds
//! a listener and feeds framed jobs into the same queue in-process clients
//! use, and a [`RemoteCloudClient`] offers the familiar
//! submit/[`crate::JobHandle`] API over one multiplexed connection. The same
//! job submitted over loopback and in-process produces bitwise-identical
//! trained-model bytes.
//!
//! # Framing
//!
//! Every message is one *frame*:
//!
//! ```text
//! frame := len: u32 LE | body (len bytes)
//! body  := tag: u8 | fields (wire::Writer encoding: LE scalars,
//!                            u32-length-prefixed strings/blobs/lists)
//! ```
//!
//! `len` is capped by [`TransportConfig::max_frame_len`] **before** any
//! allocation, so an adversarial length prefix cannot OOM either peer, and
//! under the cap a partial frame is only ever backed in proportion to the
//! bytes its sender has delivered. A frame's bytes are owned once per hop:
//! a body of one read chunk (64 KiB) or more is read into the buffer that
//! becomes the decoded frame's [`bytes::Bytes`], and written from there by
//! reference — the three tiers (client, proxy, reactor) share one bulk
//! reader and one chunked writer, both in the private `frame` module (see
//! [`Frame::wire_chunks`] and `docs/ARCHITECTURE.md`, "Who owns a frame's
//! bytes").
//! Frame bodies, client → server:
//!
//! | tag | frame | fields |
//! |-----|----------|---------------------------------------------------|
//! | 1 | `Hello`   | `min_version: u32`, `max_version: u32`, `has_key: u8`, `api_key: str?` |
//! | 2 | `Submit`  | `request_id: u64`, `payload: bytes` (a serialized [`crate::CloudJob`]), `[trace]` |
//! | 3 | `Ping`    | `nonce: u64` |
//! | 4 | `Goodbye` | — |
//! | 5 | `GetStats`| `request_id: u64` |
//! | 6 | `Cancel`  | `request_id: u64` |
//!
//! and server → client:
//!
//! | tag | frame | fields |
//! |-----|-----------|--------------------------------------------------|
//! | 129 | `Welcome` | `version: u32`, `max_in_flight: u32`, `max_frame_len: u64` |
//! | 130 | `Reject`  | `reason: str` |
//! | 131 | `Reply`   | `request_id: u64`, `ok: u8`, then a [`crate::JobResult`] or an encoded [`crate::CloudError`], `[trace]` |
//! | 132 | `Pong`    | `nonce: u64` |
//! | 133 | `Stats`   | `request_id: u64`, `ok: u8`, then snapshot `bytes` ([`crate::ServiceStats`] encoding) or an encoded [`crate::CloudError`] |
//! | 134 | `Progress`| `request_id: u64`, `epoch: u64`, `total_epochs: u64`, `train_loss: f32`, `train_acc: f32` |
//!
//! Any other tag is a malformed frame, like any other undecodable body.
//!
//! `[trace]` is an optional 16-byte tail (`trace_hi: u64 LE`, `trace_lo:
//! u64 LE`): a body that ends before it carries no trace. The same
//! [`crate::TraceId`] minted at submit time rides the Submit through the
//! proxy to the backend and back on the Reply, indexing flight-recorder
//! spans at every tier.
//!
//! # Handshake and sessions
//!
//! A session starts with exactly one `Hello`, carrying the client's
//! supported protocol-version range and (optionally) its API key. The
//! server answers `Welcome` with [`PROTOCOL_VERSION`] if the range holds
//! it, and a `Reject` naming both ranges otherwise.
//! The `Welcome` also tells the client the session limits it must respect:
//! the per-connection in-flight cap and the server's frame-length cap.
//!
//! After the handshake the client may pipeline any number of `Submit`
//! frames; replies are matched by `request_id` and may arrive **out of
//! order** (the pool schedules jobs FIFO across workers, but jobs finish
//! whenever they finish). More than
//! [`TransportConfig::max_in_flight`] unanswered submits on one connection
//! are refused immediately with [`crate::CloudError::Overloaded`]. A
//! connection silent for longer than [`TransportConfig::idle_timeout`] is
//! closed; [`RemoteCloudClient`] sends keep-alive `Ping`s (answered with
//! `Pong`) so an idle but live session stays up. The session's API key is
//! *session* state: it is stamped onto every job the connection submits and
//! judged by the pipeline's `auth` stage
//! ([`crate::CloudServiceBuilder::api_keys`]), never re-sent per job.
//!
//! Sessions are also the service's QoS unit: each connection (or the API
//! key it presented) is one [`crate::SessionKey`], jobs are queued per
//! session and drained by weighted deficit round robin, and the optional
//! per-session token bucket ([`crate::CloudServiceBuilder::rate_limit`])
//! answers over-budget submits with [`crate::CloudError::RateLimited`] —
//! the `retry_after_ms` rides the Reply frame back to the remote handle.
//!
//! [`CloudServer::shutdown`] is graceful: the listener closes, sessions stop
//! reading, the service drains its queue (already-accepted jobs train to
//! completion), and every stranded request id is answered — a remote
//! [`crate::JobHandle`] never hangs.
//!
//! # Relays
//!
//! The same listener, reactors and server-role handshake serve a routing
//! tier: [`CloudServer::bind_relay`] sends each session's jobs to a backend
//! a [`Routing`] policy picks, over a client-role *link* its own reactor
//! dials, without blocking, and handshakes, instead of to a service. The
//! relay retains each job until its reply, answers `Ping` and `GetStats`
//! itself, and resubmits the retained jobs on a link to another backend
//! when one dies or stays silent while it owes an answer. Reactor 0 runs the
//! policy's health sweep as a deadline on its wheel, each probe a link of
//! its own. A relay runs its reactors and no other thread.
//!
//! # Clients
//!
//! A [`RemoteCloudClient`]'s connection is the same link in the client's
//! role, on the process's one client event loop: one reactor with no
//! listener (`client-reactor`), which dials its links too, started by the
//! first connect and joined when the last client goes. Healing is deadlines
//! on that loop's wheel — a stalled or silent link, the [`ReconnectPolicy`]
//! backoff before a re-dial, a `retry_after` — never a sleeping thread.

mod client;
mod event_loop;
mod frame;
mod reconnect;
mod server;
mod timer;

pub(crate) use client::ClientShared;
pub use client::{RemoteCloudClient, RemoteJobHandle};
pub use frame::{write_encoded, write_frame, Frame, FrameDecoder};
pub use reconnect::{ClientStats, DecorrelatedJitter, ReconnectPolicy, RetryQueue};
pub use server::{CloudServer, Routing};

use std::time::Duration;

/// The protocol version this build speaks, and the only one it accepts.
pub const PROTOCOL_VERSION: u32 = 2;

/// Tunables shared by [`CloudServer`] and [`RemoteCloudClient`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Hard cap on one frame's body length; bigger length prefixes are
    /// rejected before any allocation (default 256 MiB).
    pub max_frame_len: usize,
    /// Unanswered submits allowed per connection before the server refuses
    /// further ones with [`crate::CloudError::Overloaded`] (default 32).
    pub max_in_flight: usize,
    /// Concurrent sessions the server admits; one more is refused with a
    /// `Reject` (default 64).
    pub max_connections: usize,
    /// A server-side session silent for this long is closed (default 30 s).
    pub idle_timeout: Duration,
    /// How often an otherwise-idle [`RemoteCloudClient`] pings (default
    /// 10 s; keep it under the server's `idle_timeout`).
    pub keepalive_interval: Duration,
    /// How long each side waits for the other's half of the handshake
    /// (default 5 s): a dialer counts from the dial (its connect included),
    /// the server from the accept however the opener's bytes trickle (and
    /// an exporter's scrape has as long for its request head).
    pub handshake_timeout: Duration,
    /// Self-healing policy for a [`RemoteCloudClient`]: with a policy set,
    /// a lost connection is re-dialed with decorrelated-jitter backoff and
    /// in-flight jobs are resubmitted instead of failed (default `None`,
    /// the historical fail-fast behavior). Ignored by the server.
    pub reconnect: Option<ReconnectPolicy>,
    /// Upper bound on one frame write to a stalled peer, on either side; a
    /// connection that cannot make write progress for this long is treated
    /// as broken (default 10 s).
    pub write_timeout: Duration,
    /// The API key a [`RemoteCloudClient`] presents in its `Hello`.
    pub api_key: Option<String>,
    /// Event-loop (reactor) threads the server runs; every connection is
    /// owned by exactly one of them. `0` means auto: `min(cores, 4)`
    /// (default).
    pub io_threads: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            max_frame_len: 256 << 20,
            max_in_flight: 32,
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            keepalive_interval: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(5),
            reconnect: None,
            write_timeout: Duration::from_secs(10),
            api_key: None,
            io_threads: 0,
        }
    }
}

impl TransportConfig {
    /// Sets the frame-length cap.
    #[must_use]
    pub fn max_frame_len(mut self, len: usize) -> TransportConfig {
        self.max_frame_len = len;
        self
    }

    /// Sets the per-connection in-flight cap.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (a session that can never submit is a bug).
    #[must_use]
    pub fn max_in_flight(mut self, n: usize) -> TransportConfig {
        assert!(n > 0, "a session needs at least one in-flight slot");
        self.max_in_flight = n;
        self
    }

    /// Sets the concurrent-session cap.
    #[must_use]
    pub fn max_connections(mut self, n: usize) -> TransportConfig {
        self.max_connections = n;
        self
    }

    /// Sets the server-side idle timeout.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> TransportConfig {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the client keep-alive interval.
    #[must_use]
    pub fn keepalive_interval(mut self, interval: Duration) -> TransportConfig {
        self.keepalive_interval = interval;
        self
    }

    /// Sets the handshake timeout.
    #[must_use]
    pub fn handshake_timeout(mut self, timeout: Duration) -> TransportConfig {
        self.handshake_timeout = timeout;
        self
    }

    /// Sets the stalled-peer write timeout.
    #[must_use]
    pub fn write_timeout(mut self, timeout: Duration) -> TransportConfig {
        self.write_timeout = timeout;
        self
    }

    /// Makes a [`RemoteCloudClient`] self-healing: see [`ReconnectPolicy`].
    #[must_use]
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> TransportConfig {
        self.reconnect = Some(policy);
        self
    }

    /// Sets the API key a client presents at its handshake.
    #[must_use]
    pub fn api_key(mut self, key: impl Into<String>) -> TransportConfig {
        self.api_key = Some(key.into());
        self
    }

    /// Sets the number of server event-loop threads (`0` = auto:
    /// `min(cores, 4)`).
    #[must_use]
    pub fn io_threads(mut self, n: usize) -> TransportConfig {
        self.io_threads = n;
        self
    }

    /// The configured [`io_threads`](Self::io_threads) with `0` resolved to
    /// the auto default.
    pub fn effective_io_threads(&self) -> usize {
        if self.io_threads > 0 {
            return self.io_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}
