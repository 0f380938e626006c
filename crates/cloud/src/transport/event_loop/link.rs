//! The client role's connection: a socket this process dialed, its
//! `Hello`/`Welcome` exchange, its deadlines, and the jobs it retains until
//! they are answered.
//!
//! Three roles own one — a relay session's backend link and the relay's
//! health probe (the `relay` submodule), and a remote client's link
//! (`transport::client`). The mechanism is here, once; a [`Role`] is the
//! policy: what a welcome means, where replies go, and where the next link
//! comes from when one fails.
//!
//! A link is dialed on its reactor and registered there under its owner's
//! token with [`LINK`] set. Its connect does not block (`reactor::connect`;
//! its first writability ends it), and it handshakes there too: a `Hello`
//! queued at the dial, its first frame read as the answer. Its deadlines
//! are one timer-wheel entry: a `Welcome` owed since the dial (connect,
//! `Hello` and `Welcome` under the one `handshake_timeout`), replies owed
//! with the link silent (a relay's reply timeout), a write queue that
//! stopped draining (`write_timeout`, noticed at the link's next deadline),
//! a `Ping` once the welcomed link has been write-idle for its keep-alive
//! interval, and the role's own ([`Uplink::wake_at`]). A welcomed link
//! carries every retained job again, in request-id order, under its
//! original id: training is seeded and servers deduplicate by content, so a
//! replay answers bit for bit the same.

use super::super::frame::Frame;
use super::super::timer::TimerWheel;
use super::super::{TransportConfig, PROTOCOL_VERSION};
use super::socket::{FlushOutcome, Inbound, Socket};
use crate::metrics::ServiceMetrics;
use crate::telemetry::TraceId;
use crate::CloudError;
use bytes::Bytes;
use reactor::{Interest, Poller};
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
    fn welcomed(
        &mut self,
        welcome: Welcome,
        resubmitted: usize,
        p: &mut Poller,
        w: &mut TimerWheel,
    );
    /// A frame the link carried; `false` for one no server may send.
    fn heard(&mut self, frame: Frame, p: &mut Poller, w: &mut TimerWheel) -> bool;
    /// The link failed with `cause` — its connect too; it is closed already.
    fn lost(&mut self, link: Link, cause: CloudError, p: &mut Poller, w: &mut TimerWheel);
}

/// Readiness on `role`'s link: flush it, then take in what it says until
/// its socket runs dry or it fails.
pub(crate) fn io<R: Role>(
    role: &mut R,
    readable: bool,
    writable: bool,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    // The connect ends at the link's first writability.
    let up = role.up();
    if let Some(link) = up.link.as_mut().filter(|link| writable && !link.connected) {
        if let Some(e) = link.sock.connect_error() {
            let cause = CloudError::Transport(format!("connect to {} failed: {e}", link.addr));
            return fail(role, cause, poller, wheel);
        }
        link.connected = true;
    }
    if (writable && !flush(role, poller, wheel)) || !readable {
        return;
    }
    loop {
        let up = role.up();
        let Some(link) = up.link.as_mut() else {
            return;
        };
        // What ends the link: EOF, a read or decode error, a frame no
        // server may send, or an answer to the `Hello` that is no `Welcome`.
        let cause = match link.sock.next_frame(up.config.max_frame_len, &up.metrics) {
            Inbound::Frame(frame) if link.welcomed => {
                if role.heard(frame, poller, wheel) {
                    continue;
                }
                CloudError::Transport("a frame no server may send".into())
            }
            Inbound::Frame(Frame::Welcome {
                version,
                max_in_flight,
                max_frame_len,
            }) => {
                link.welcomed = true;
                let resubmitted = up.resubmit();
                let welcome = (version, max_in_flight, max_frame_len);
                role.welcomed(welcome, resubmitted, poller, wheel);
                if !flush(role, poller, wheel) {
                    return;
                }
                continue;
            }
            Inbound::Frame(Frame::Reject { reason }) => CloudError::Handshake(reason),
            Inbound::Frame(other) => {
                CloudError::Handshake(format!("expected Welcome, got {other:?}"))
            }
            Inbound::Dry => return,
            Inbound::Eof { .. } if !link.welcomed => {
                CloudError::Handshake("server closed during handshake".into())
            }
            Inbound::Eof { .. } => CloudError::Transport("server closed the connection".into()),
            Inbound::Failed(e) => CloudError::Transport(format!("read failed: {e}")),
            Inbound::Malformed(e) => e,
        };
        return fail(role, cause, poller, wheel);
    }
}

/// Writes what `role`'s link has queued once it is connected; `false` when
/// it broke and failed.
pub(crate) fn flush<R: Role>(role: &mut R, poller: &mut Poller, wheel: &mut TimerWheel) -> bool {
    let up = role.up();
    let Some(link) = up.link.as_mut().filter(|link| link.connected) else {
        return true;
    };
    if link.sock.flush(true, poller, &up.metrics).1 != FlushOutcome::Broken {
        return true;
    }
    let cause = CloudError::Transport("write failed".into());
    fail(role, cause, poller, wheel);
    false
}

/// Closes `role`'s link for `cause` and lets the role decide what next.
fn fail<R: Role>(role: &mut R, cause: CloudError, poller: &mut Poller, wheel: &mut TimerWheel) {
    if let Some(link) = role.up().close(poller) {
        role.lost(link, cause, poller, wheel);
    }
}

/// `role`'s deadline fired: `false` for a stale one. A stalled link fails,
/// and a welcomed, write-idle one is queued a `Ping`; the role's own
/// deadline, the flush and re-arming the next are the caller's.
pub(crate) fn fired<R: Role>(
    role: &mut R,
    generation: u64,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) -> bool {
    let up = role.up();
    if generation != up.timer_gen {
        return false;
    }
    if up.stall_deadline().is_some_and(|at| Instant::now() >= at) {
        let cause = match &up.link {
            Some(link) if link.welcomed => "the link stalled",
            Some(link) if link.connected => "no Welcome within the handshake timeout",
            _ => "no connection within the handshake timeout",
        };
        fail(role, CloudError::Transport(cause.into()), poller, wheel);
    } else if let Some(link) = up.link.as_mut().filter(|link| {
        let keepalive = up.config.keepalive_interval;
        link.welcomed && link.sock.queued() == 0 && link.last_write.elapsed() >= keepalive
    }) {
        link.send(&Frame::Ping { nonce: 0 }, &up.metrics);
    }
    true
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

/// A role's upstream: its link, if it has one, and the jobs it retains.
pub(crate) struct Uplink<X> {
    pub(crate) link: Option<Link>,
    /// Submits not yet answered, by request id.
    pub(crate) jobs: BTreeMap<u64, Job<X>>,
    /// A deadline of the role's own, armed with the link's.
    pub(crate) wake_at: Option<Instant>,
    token: u64,
    /// Generation of the armed deadline; a stale one is ignored.
    timer_gen: u64,
    /// What the link counts into (its frames count as relayed).
    metrics: Arc<ServiceMetrics>,
    /// Its frame cap, its handshake, write and keep-alive timing, the API
    /// key its `Hello` presents, and a client's reconnect policy.
    pub(crate) config: TransportConfig,
    /// How long a link owing replies may stay silent; `None` waits for as
    /// long as the jobs train.
    reply_timeout: Option<Duration>,
}

/// A client-role connection.
pub(crate) struct Link {
    sock: Socket,
    /// What its owner calls the address it dialed.
    pub(crate) addr: String,
    /// The connect finished; until then nothing is written.
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
            link: None,
            jobs: BTreeMap::new(),
            wake_at: None,
            token,
            timer_gen: 0,
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
    /// deadline starts now. An error when the connect cannot even start.
    pub(crate) fn connect(
        &mut self,
        (peer, addr): (SocketAddr, String),
        poller: &mut Poller,
        wheel: &mut TimerWheel,
    ) -> Result<(), CloudError> {
        let failed = |e| CloudError::Transport(format!("connect to {addr} failed: {e}"));
        let stream = reactor::connect(peer).map_err(failed)?;
        let (token, metrics) = (self.token | LINK, &self.metrics);
        let sock =
            Socket::register(stream, token, Interest::BOTH, poller, metrics).map_err(failed)?;
        let now = Instant::now();
        let mut link = Link {
            sock,
            addr,
            connected: false,
            welcomed: false,
            last_write: now,
            owed_since: now,
        };
        let hello = Frame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
            api_key: self.config.api_key.clone(),
        };
        link.send(&hello, &self.metrics);
        self.link = Some(link);
        self.schedule(wheel);
        Ok(())
    }

    /// Queues `frame` on the welcomed link; `false` when there is none.
    pub(crate) fn send(&mut self, frame: &Frame) -> bool {
        match self.link.as_mut().filter(|link| link.welcomed) {
            Some(link) => link.send(frame, &self.metrics),
            None => return false,
        }
        true
    }

    /// Retains job `id` and queues it on the welcomed link; with none, it
    /// rides the next one's resubmission.
    pub(crate) fn retain(&mut self, id: u64, mut job: Job<X>, wheel: &mut TimerWheel) {
        let owed_before = !self.jobs.is_empty();
        if let Some(link) = self.link.as_mut().filter(|link| link.welcomed) {
            link.send_job(id, &mut job, &self.metrics);
            if !owed_before {
                link.owed_since = Instant::now(); // replies fall owed now
            }
        }
        self.jobs.insert(id, job);
        if !owed_before && self.reply_timeout.is_some() {
            self.schedule(wheel); // a reply deadline starts
        }
    }

    /// Queues every retained job on the just-welcomed link, in request-id
    /// order — nothing retained was sent on it yet — and returns how many.
    fn resubmit(&mut self) -> usize {
        if let Some(link) = self.link.as_mut() {
            for (&id, job) in &mut self.jobs {
                link.send_job(id, job, &self.metrics);
            }
            link.owed_since = Instant::now();
        }
        self.jobs.len()
    }

    /// Arms the next deadline — the link's stall, its keep-alive once
    /// welcomed, or the role's own, whichever comes first — retiring the one
    /// armed before.
    pub(crate) fn schedule(&mut self, wheel: &mut TimerWheel) {
        self.timer_gen += 1;
        // A link with writes still queued is not idle: its ping is looked at
        // again a full interval on, not at an instant already past.
        let keepalive = self.link.as_ref().filter(|link| link.welcomed).map(|link| {
            let busy = link.sock.queued() > 0;
            let from = if busy {
                Instant::now()
            } else {
                link.last_write
            };
            from + self.config.keepalive_interval
        });
        if let Some(at) = keepalive
            .into_iter()
            .chain(self.stall_deadline())
            .chain(self.wake_at)
            .min()
        {
            wheel.insert(at, self.token | LINK, self.timer_gen);
        }
    }

    /// When the link's silence becomes its peer's failure: its `Welcome` is
    /// owed from the `Hello` on, replies while jobs are retained (given a
    /// reply timeout), and progress while writes are queued.
    fn stall_deadline(&self) -> Option<Instant> {
        let link = self.link.as_ref()?;
        let answer = if link.welcomed {
            self.reply_timeout.filter(|_| !self.jobs.is_empty())
        } else {
            Some(self.config.handshake_timeout)
        };
        let quiet_since = link.owed_since.max(link.sock.heard_at);
        answer
            .map(|timeout| quiet_since + timeout)
            .into_iter()
            .chain(link.sock.stall_deadline(self.config.write_timeout))
            .min()
    }

    /// Deregisters and closes the link, discarding what it had queued.
    pub(crate) fn close(&mut self, poller: &mut Poller) -> Option<Link> {
        let mut link = self.link.take()?;
        self.timer_gen += 1;
        link.sock.close(poller, &self.metrics);
        Some(link)
    }
}

impl Link {
    fn send(&mut self, frame: &Frame, metrics: &ServiceMetrics) {
        self.sock.queue(frame, false, metrics);
        self.last_write = Instant::now();
    }

    /// Queues a retained job, with its trace id if it has one.
    fn send_job<X>(&mut self, id: u64, job: &mut Job<X>, metrics: &ServiceMetrics) {
        let submit = Frame::Submit {
            request_id: id,
            payload: job.payload.clone(),
            trace: (!job.trace.is_none()).then_some(job.trace),
        };
        self.send(&submit, metrics);
        job.sent_at = self.last_write;
    }
}
