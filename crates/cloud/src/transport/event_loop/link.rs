//! The client role's connection: a socket this process dialed, its
//! `Hello`/`Welcome` exchange, its deadlines, and the jobs it retains until
//! they are answered.
//!
//! Two roles own one — a relay session's backend link (the `relay`
//! submodule) and a remote client's link (`transport::client`). The
//! mechanism is here, once; a [`Role`] is the policy: what a welcome means,
//! where replies go, and where the next link comes from when one fails.
//!
//! A link is registered under its owner's token with [`LINK`] set, and
//! handshakes on its reactor (`client::hello` out at once, its first frame
//! read by `client::welcomed`). Its deadlines are one timer-wheel entry: a
//! `Welcome` owed since the `Hello` (`handshake_timeout`), replies owed with
//! the link silent (a relay's reply timeout), a write queue that stopped
//! draining (`write_timeout`, noticed at the link's next deadline), a `Ping`
//! once the welcomed link has been write-idle for its keep-alive interval,
//! and the role's own ([`Uplink::wake_at`]). A welcomed link carries every
//! retained job again, in request-id order, under its original id: training
//! is seeded and servers deduplicate by content, so a replay answers bit for
//! bit the same.

use super::super::client::{hello, welcomed, Welcome};
use super::super::frame::{Frame, FrameDecoder};
use super::super::timer::TimerWheel;
use super::super::TransportConfig;
use super::{FlushOutcome, WriteQueue};
use crate::metrics::ServiceMetrics;
use crate::telemetry::TraceId;
use crate::CloudError;
use bytes::Bytes;
use reactor::{Interest, Poller};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set on a poller token to name the link of the owner whose token is the
/// rest.
pub(crate) const LINK: u64 = 1 << 62;

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
    /// The link failed with `cause`; it is closed already.
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
    if (writable && !flush(role, poller, wheel)) || !readable {
        return;
    }
    loop {
        match role.up().hear() {
            Ok(Some(Heard::Welcome(welcome))) => {
                let resubmitted = role.up().resubmit();
                role.welcomed(welcome, resubmitted, poller, wheel);
                if !flush(role, poller, wheel) {
                    return;
                }
            }
            Ok(Some(Heard::Frame(frame))) => {
                if !role.heard(frame, poller, wheel) {
                    let cause = CloudError::Transport("a frame no server may send".into());
                    return fail(role, cause, poller, wheel);
                }
            }
            Ok(None) => return,
            Err(cause) => return fail(role, cause, poller, wheel),
        }
    }
}

/// Writes what `role`'s link has queued; `false` when it broke and failed.
pub(crate) fn flush<R: Role>(role: &mut R, poller: &mut Poller, wheel: &mut TimerWheel) -> bool {
    let flushed = role.up().flush(poller);
    if !flushed {
        let cause = CloudError::Transport("write failed".into());
        fail(role, cause, poller, wheel);
    }
    flushed
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
        let cause = if up.welcomed() {
            "the link stalled"
        } else {
            "no Welcome within the handshake timeout"
        };
        fail(role, CloudError::Transport(cause.into()), poller, wheel);
    } else if let Some(link) = up.link.as_mut().filter(|link| {
        let keepalive = up.config.keepalive_interval;
        link.welcomed && link.writes.is_empty() && link.last_write.elapsed() >= keepalive
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
    stream: TcpStream,
    pub(crate) addr: String,
    /// The `Welcome` arrived.
    pub(crate) welcomed: bool,
    decoder: FrameDecoder,
    writes: WriteQueue,
    interest: Interest,
    last_write: Instant,
    /// The stall clock: when the link last said something, or fell owing
    /// an answer, whichever is later.
    quiet_since: Instant,
    /// When the write queue last moved, or was last empty.
    write_progress: Instant,
}

/// What a link heard.
#[allow(clippy::large_enum_variant)] // matched as it is returned, never kept
enum Heard {
    Welcome(Welcome),
    Frame(Frame),
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

    /// Takes `stream`, dialed to `addr`, as the link and queues its `Hello`
    /// (with the configured API key); the caller flushes it. `false` — the
    /// stream closed as it drops — when it cannot be registered.
    pub(crate) fn connect(
        &mut self,
        (stream, addr): (TcpStream, String),
        poller: &mut Poller,
        wheel: &mut TimerWheel,
    ) -> bool {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err()
            || poller
                .register(stream.as_raw_fd(), self.token | LINK, Interest::READABLE)
                .is_err()
        {
            return false;
        }
        self.metrics.reactor_fd_registered();
        let now = Instant::now();
        let mut link = Link {
            stream,
            addr,
            welcomed: false,
            decoder: FrameDecoder::new(),
            writes: WriteQueue {
                relay: true,
                ..WriteQueue::default()
            },
            interest: Interest::READABLE,
            last_write: now,
            quiet_since: now,
            write_progress: now,
        };
        link.send(&hello(self.config.api_key.clone()), &self.metrics);
        self.link = Some(link);
        self.schedule(wheel);
        true
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
                link.quiet_since = Instant::now(); // replies fall owed now
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
            link.quiet_since = Instant::now();
        }
        self.jobs.len()
    }

    /// The next thing the link says: `Ok(None)` once its socket runs dry (or
    /// there is no link), an error once it failed — EOF, a read or decode
    /// error, or an answer to the `Hello` that is not a `Welcome`.
    fn hear(&mut self) -> Result<Option<Heard>, CloudError> {
        let Some(link) = self.link.as_mut() else {
            return Ok(None);
        };
        loop {
            if let Some((frame, wire)) = link.decoder.next_frame(self.config.max_frame_len)? {
                self.metrics.relay_frame_received(wire);
                if link.welcomed {
                    return Ok(Some(Heard::Frame(frame)));
                }
                let welcome = welcomed(frame)?;
                link.welcomed = true;
                return Ok(Some(Heard::Welcome(welcome)));
            }
            match link.decoder.read_from(&mut link.stream) {
                Ok(0) if !link.welcomed => {
                    return Err(CloudError::Handshake(
                        "server closed during handshake".into(),
                    ))
                }
                Ok(0) => return Err(CloudError::Transport("server closed the connection".into())),
                Ok(_) => link.quiet_since = Instant::now(),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(CloudError::Transport(format!("read failed: {e}"))),
            }
        }
    }

    /// Writes what the link has queued; `false` when it broke.
    fn flush(&mut self, poller: &mut Poller) -> bool {
        let Some(link) = &mut self.link else {
            return true;
        };
        let queued = link.writes.bytes;
        let (_, outcome) = link.writes.flush(&mut link.stream, &self.metrics);
        if link.writes.bytes < queued {
            link.write_progress = Instant::now();
        }
        let want = Interest {
            readable: true,
            writable: outcome == FlushOutcome::Blocked,
        };
        if want != link.interest
            && poller
                .reregister(link.stream.as_raw_fd(), self.token | LINK, want)
                .is_ok()
        {
            link.interest = want;
        }
        outcome != FlushOutcome::Broken
    }

    /// Arms the next deadline — the link's stall, its keep-alive once
    /// welcomed, or the role's own, whichever comes first — retiring the one
    /// armed before.
    pub(crate) fn schedule(&mut self, wheel: &mut TimerWheel) {
        self.timer_gen += 1;
        // A link with writes still queued is not idle: its ping is looked at
        // again a full interval on, not at an instant already past.
        let keepalive = self.link.as_ref().filter(|link| link.welcomed).map(|link| {
            let busy = !link.writes.is_empty();
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
        let writes =
            (!link.writes.is_empty()).then(|| link.write_progress + self.config.write_timeout);
        answer
            .map(|timeout| link.quiet_since + timeout)
            .into_iter()
            .chain(writes)
            .min()
    }

    /// Deregisters and closes the link, discarding what it had queued.
    pub(crate) fn close(&mut self, poller: &mut Poller) -> Option<Link> {
        let mut link = self.link.take()?;
        self.timer_gen += 1;
        if poller.deregister(link.stream.as_raw_fd()).is_ok() {
            self.metrics.reactor_fd_deregistered();
        }
        let _ = link.stream.shutdown(Shutdown::Both);
        link.writes.discard(&self.metrics);
        Some(link)
    }
}

impl Link {
    fn send(&mut self, frame: &Frame, metrics: &ServiceMetrics) {
        let now = Instant::now();
        if self.writes.is_empty() {
            self.write_progress = now;
        }
        self.writes.push_frame(frame, false, metrics);
        self.last_write = now;
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
