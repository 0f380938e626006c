//! The client role's connection: a socket this process dials, its
//! `Hello`/`Welcome` exchange, its deadlines, and the jobs it retains until
//! they are answered.
//!
//! Three roles own one — a relay session's backend link and the relay's
//! health probe (the `relay` submodule), and a remote client's link
//! (`transport::client`). The machine is here, once; a [`Role`] is the
//! policy: what a welcome means, where replies go, and where the next link
//! comes from when one fails. Like every machine it takes `(event, now)`:
//! what the link's socket said ([`inbound`]) or its deadline ([`fired`]).
//!
//! A dial queues the `Hello` and leaves the connect to the driver, which
//! registers the link under its owner's token with [`LINK`] set; the first
//! frame the link reads is the answer. Its deadlines are the owner's one:
//! a `Welcome` owed since the dial (connect, `Hello` and `Welcome` under the
//! one `handshake_timeout`), replies owed with the link silent (a relay's
//! reply timeout), and a `Ping` once the welcomed link has been write-idle
//! for its keep-alive interval; a write queue that stopped draining is the
//! driver's. A welcomed link carries every retained job again, in
//! request-id order, under its original id: training is seeded and servers
//! deduplicate by content, so a replay answers bit for bit the same.

use super::super::frame::Frame;
use super::super::{TransportConfig, PROTOCOL_VERSION};
use super::socket::{Inbound, Socket};
use crate::metrics::ServiceMetrics;
use crate::telemetry::TraceId;
use crate::CloudError;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set on a poller token to name the link of the owner whose token is the
/// rest.
pub(crate) const LINK: u64 = 1 << 62;

/// What a `Welcome` negotiated: `(version, max_in_flight, max_frame_len)`.
pub(crate) type Welcome = (u32, u32, u64);

/// What differs between the roles that own a link.
pub(crate) trait Role {
    /// What the role keeps beside each retained job.
    type Job;
    fn up(&mut self) -> &mut Uplink<Self::Job>;
    /// The link was welcomed, and every retained job rode it again
    /// (`resubmitted` of them).
    fn welcomed(&mut self, welcome: Welcome, resubmitted: usize, now: Instant);
    /// A frame the link carried; `false` for one no server may send.
    fn heard(&mut self, frame: Frame, now: Instant) -> bool;
    /// The link failed with `cause` — its connect too; it is closed already.
    fn lost(&mut self, link: Link, cause: CloudError, now: Instant);
}

/// What `role`'s link said: a frame is taken in, and anything that ends the
/// link — EOF, a read, write or connect failure, a frame no server may
/// send, or an answer to the `Hello` that is no `Welcome` — fails it.
pub(crate) fn inbound<R: Role>(role: &mut R, what: Inbound, now: Instant) {
    let up = role.up();
    let Some(link) = up.link.as_mut() else {
        return;
    };
    let cause = match what {
        Inbound::Frame(frame) if link.welcomed => {
            if role.heard(frame, now) {
                return;
            }
            CloudError::Transport("a frame no server may send".into())
        }
        Inbound::Frame(Frame::Welcome {
            version,
            max_in_flight,
            max_frame_len,
        }) => {
            link.welcomed = true;
            let resubmitted = up.resubmit(now);
            let welcome = (version, max_in_flight, max_frame_len);
            return role.welcomed(welcome, resubmitted, now);
        }
        Inbound::Frame(Frame::Reject { reason }) => CloudError::Handshake(reason),
        Inbound::Frame(other) => CloudError::Handshake(format!("expected Welcome, got {other:?}")),
        Inbound::Eof { .. } if !link.welcomed => {
            CloudError::Handshake("server closed during handshake".into())
        }
        Inbound::Eof { .. } => CloudError::Transport("server closed the connection".into()),
        Inbound::Failed(e) if !up.sock.connected() => {
            CloudError::Transport(format!("connect to {} failed: {e}", link.addr))
        }
        Inbound::Failed(e) => CloudError::Transport(format!("the link failed: {e}")),
        Inbound::Malformed(e) => e,
        Inbound::Head => unreachable!("a link reads frames"),
    };
    fail(role, cause, now);
}

/// Closes `role`'s link for `cause` and lets the role decide what next.
fn fail<R: Role>(role: &mut R, cause: CloudError, now: Instant) {
    if let Some(link) = role.up().close() {
        role.lost(link, cause, now);
    }
}

/// `role`'s deadline fell due: a link that owes an answer and stayed
/// silent fails, and a welcomed, write-idle one is queued a `Ping`. The
/// role's own deadlines are its caller's.
pub(crate) fn fired<R: Role>(role: &mut R, now: Instant) {
    let up = role.up();
    if up.answer_deadline().is_some_and(|at| at <= now) {
        let cause = match &up.link {
            Some(link) if link.welcomed => "the link stalled",
            _ if up.sock.connected() => "no Welcome within the handshake timeout",
            _ => "no connection within the handshake timeout",
        };
        return fail(role, CloudError::Transport(cause.into()), now);
    }
    let keepalive = up.config.keepalive_interval;
    let idle = |link: &Link| link.welcomed && now >= link.last_write + keepalive;
    if up.sock.queued() == 0 && up.link.as_ref().is_some_and(idle) {
        up.push(&Frame::Ping { nonce: 0 }, now);
    }
}

/// A retained job: what resubmitting it takes, and what its role keeps
/// beside it.
pub(crate) struct Job<X> {
    pub(crate) payload: Bytes,
    pub(crate) trace: TraceId,
    /// When it was last sent; its reply is a round trip from here.
    pub(crate) sent_at: Instant,
    pub(crate) role: X,
}

/// A role's upstream: its link's socket and state, if it has one, and the
/// jobs it retains.
pub(crate) struct Uplink<X> {
    /// The link's socket; each dial starts a new connection in it.
    pub(crate) sock: Socket,
    pub(crate) link: Option<Link>,
    /// Submits not yet answered, by request id.
    pub(crate) jobs: BTreeMap<u64, Job<X>>,
    /// What the link counts into (its frames count as relayed).
    metrics: Arc<ServiceMetrics>,
    /// Its frame cap, its handshake, write and keep-alive timing, the API
    /// key its `Hello` presents, and a client's reconnect policy.
    pub(crate) config: TransportConfig,
    /// How long a link owing replies may stay silent; `None` waits for as
    /// long as the jobs train.
    reply_timeout: Option<Duration>,
}

/// A client-role connection's state.
pub(crate) struct Link {
    /// What its owner calls the address it dialed.
    pub(crate) addr: String,
    /// The connect finished; known once the link is closed (while it is
    /// open, its socket says).
    pub(crate) connected: bool,
    /// The `Welcome` arrived.
    pub(crate) welcomed: bool,
    last_write: Instant,
    /// When the link last fell owing an answer: its silence counts from
    /// this or from when it last said something, whichever is later.
    owed_since: Instant,
}

impl<X> Uplink<X> {
    /// No link yet, for the owner `token`.
    pub(crate) fn new(
        token: u64,
        config: TransportConfig,
        reply_timeout: Option<Duration>,
        metrics: Arc<ServiceMetrics>,
    ) -> Uplink<X> {
        Uplink {
            sock: Socket::new(token | LINK, &config),
            link: None,
            jobs: BTreeMap::new(),
            metrics,
            config,
            reply_timeout,
        }
    }

    /// There is a link, and it is welcomed.
    pub(crate) fn welcomed(&self) -> bool {
        self.link.as_ref().is_some_and(|link| link.welcomed)
    }

    /// Dials `peer`, called `addr`, as the link, and queues its `Hello`
    /// (with the configured API key) for once it connects; the handshake
    /// deadline starts now.
    pub(crate) fn connect(&mut self, (peer, addr): (SocketAddr, String), now: Instant) {
        self.sock.dial(peer, &self.metrics);
        self.link = Some(Link {
            addr,
            connected: false,
            welcomed: false,
            last_write: now,
            owed_since: now,
        });
        let hello = Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
            api_key: self.config.api_key.clone(),
        };
        self.push(&hello, now);
    }

    /// Queues `frame` on the link.
    fn push(&mut self, frame: &Frame, now: Instant) {
        if let Some(link) = &mut self.link {
            self.sock.queue(frame, false, &self.metrics);
            link.last_write = now;
        }
    }

    /// Queues `frame` on the welcomed link; `false` when there is none.
    pub(crate) fn send(&mut self, frame: &Frame, now: Instant) -> bool {
        let welcomed = self.welcomed();
        if welcomed {
            self.push(frame, now);
        }
        welcomed
    }

    /// Retains job `id` and queues it on the welcomed link; with none, it
    /// rides the next one's resubmission.
    pub(crate) fn retain(&mut self, id: u64, mut job: Job<X>, now: Instant) {
        if self.welcomed() {
            if self.jobs.is_empty() {
                self.link.as_mut().expect("welcomed").owed_since = now; // replies fall owed now
            }
            self.push(&submit(id, &job), now);
            job.sent_at = now;
        }
        self.jobs.insert(id, job);
    }

    /// Queues every retained job on the just-welcomed link, in request-id
    /// order — nothing retained was sent on it yet — and returns how many.
    fn resubmit(&mut self, now: Instant) -> usize {
        if let Some(link) = &mut self.link {
            for (&id, job) in &mut self.jobs {
                self.sock.queue(&submit(id, job), false, &self.metrics);
                job.sent_at = now;
            }
            link.last_write = now;
            link.owed_since = now;
        }
        self.jobs.len()
    }

    /// The link's next deadline: its answer's, or its keep-alive once
    /// welcomed, whichever comes first.
    pub(crate) fn deadline(&self, now: Instant) -> Option<Instant> {
        // A link with writes still queued is not idle: its ping is looked at
        // again a full interval on, not at an instant already past.
        let keepalive = self.link.as_ref().filter(|link| link.welcomed).map(|link| {
            let from = if self.sock.queued() > 0 {
                now
            } else {
                link.last_write
            };
            from + self.config.keepalive_interval
        });
        keepalive.into_iter().chain(self.answer_deadline()).min()
    }

    /// When the link's silence becomes its peer's failure: its `Welcome` is
    /// owed from the `Hello` on, and replies while jobs are retained (given
    /// a reply timeout).
    fn answer_deadline(&self) -> Option<Instant> {
        let link = self.link.as_ref()?;
        let answer = if link.welcomed {
            self.reply_timeout.filter(|_| !self.jobs.is_empty())
        } else {
            Some(self.config.handshake_timeout)
        };
        answer.map(|timeout| link.owed_since.max(self.sock.heard_at) + timeout)
    }

    /// Closes the link; the driver flushes what it can and closes its
    /// socket.
    pub(crate) fn close(&mut self) -> Option<Link> {
        let mut link = self.link.take()?;
        link.connected = self.sock.connected();
        self.sock.close();
        Some(link)
    }
}

/// A retained job's `Submit`, with its trace id if it has one.
fn submit<X>(id: u64, job: &Job<X>) -> Frame {
    Frame::Submit {
        request_id: id,
        payload: job.payload.clone(),
        trace: (!job.trace.is_none()).then_some(job.trace),
    }
}
