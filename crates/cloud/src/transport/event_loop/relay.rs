//! A relay session's upstream (the transport docs' "Relays"): a backend
//! link (the `link` submodule) in the relay's role — its next link comes
//! from the [`Routing`] policy, its replies go to the session's client face
//! — and the relay's health probes, a link role of their own.
//!
//! The session's own reactor dials: it walks the policy's candidates,
//! passing over the backends that failed the session since its last
//! welcomed link, and connects to the first without blocking, at the
//! address the policy resolved when it was built. A dial that hangs holds
//! up nobody else, and `handshake_timeout` bounds connect, `Hello` and
//! `Welcome` together. A link fails on a refused or timed-out connect, on
//! EOF or an error, on a refused `Hello` or a frame no backend may send,
//! and on silence while it owes its `Welcome` or replies — a hung,
//! black-holed or torn backend keeps TCP alive. Its backend is reported to
//! the policy and passed over, and the retained jobs ride the next link,
//! in request-id order under their original ids (nothing retained was sent
//! on a link just made). With no backend left the session is refused, or
//! its jobs are answered `ServiceUnavailable`, a retryable error. A session
//! that ends closes its link without telling the policy.
//!
//! Reactor 0 keeps the policy's sweep as a wheel deadline. Each backend the
//! sweep names gets a probe, unless one is still out: a link that says
//! `Hello`, `Ping` once welcomed and `Goodbye` once its `Pong` is back, all
//! within the probe timeout from its dial. The verdict goes to the policy.

use super::super::frame::Frame;
use super::super::server::{ServerShared, Upstream};
use super::super::timer::TimerWheel;
use super::super::{Routing, TransportConfig};
use super::link::{self, Job, Link, Role, Uplink, Welcome};
use super::{establish, flush_writes, queue_reply, refuse, Conn, ConnState, Reactor, SWEEP_TOKEN};
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use reactor::Poller;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The nonce a probe's `Ping` carries; an honest backend echoes it.
const PROBE_NONCE: u64 = 0x9e37_79b9_7f4a_7c15;

/// A relay session's upstream state.
pub(super) struct Relay {
    /// The reactor that owns the session.
    home: usize,
    /// The routing key: the session's API key, or a tag unique to the
    /// connection.
    key: String,
    up: Uplink<()>,
    /// Backends that failed the session since its last link was welcomed:
    /// the next dial passes over them.
    failed: Vec<String>,
}

impl Relay {
    pub(super) fn new(home: usize, token: u64, shared: &Arc<ServerShared>) -> Box<Relay> {
        let Upstream::Relay { reply_timeout, .. } = shared.upstream else {
            unreachable!("relay sessions live on a relay")
        };
        let (config, metrics) = (shared.config.clone(), Arc::clone(&shared.metrics));
        Box::new(Relay {
            home,
            key: String::new(),
            up: Uplink::new(token, config, Some(reply_timeout), metrics),
            failed: Vec::new(),
        })
    }
}

fn relay(conn: &mut Conn) -> &mut Relay {
    conn.relay.as_deref_mut().expect("a relay session")
}

fn routing(shared: &ServerShared) -> &dyn Routing {
    match &shared.upstream {
        Upstream::Relay { routing, .. } => &**routing,
        Upstream::Service(_) => unreachable!("relay sessions live on a relay"),
    }
}

/// A relay session in its link's role.
struct Face<'a> {
    conn: &'a mut Conn,
    shared: &'a Arc<ServerShared>,
}

impl Role for Face<'_> {
    type Job = ();

    fn up(&mut self) -> &mut Uplink<()> {
        &mut relay(self.conn).up
    }

    /// The backend welcomed the link: welcome a session that was being
    /// routed, or count the failover of one whose jobs it now carries.
    fn welcomed(
        &mut self,
        welcome: Welcome,
        resubmitted: usize,
        p: &mut Poller,
        w: &mut TimerWheel,
    ) {
        let (conn, shared) = (&mut *self.conn, self.shared);
        let routed = conn.state == ConnState::Handshaking;
        let relay = relay(conn);
        let addr = &relay.up.link.as_ref().expect("a welcomed link").addr;
        shared.metrics.backend_session_routed(addr);
        if !routed {
            shared.metrics.reconnect_established();
            shared
                .metrics
                .backend_jobs_resubmitted(addr, resubmitted as u64);
        }
        relay.failed.clear();
        relay.up.schedule(w);
        if routed {
            // The tighter of this end's limits and the backend's, so a client
            // honouring its Welcome trips neither hop's caps.
            let (_, max_in_flight, max_frame_len) = welcome;
            let max_in_flight = max_in_flight.min(shared.config.max_in_flight as u32);
            let max_frame_len = max_frame_len.min(shared.config.max_frame_len as u64);
            establish(conn, max_in_flight, max_frame_len, shared, p, w);
        }
    }

    fn heard(&mut self, frame: Frame, _: &mut Poller, _: &mut TimerWheel) -> bool {
        let (conn, shared) = (&mut *self.conn, self.shared);
        match frame {
            // Only a retained job is owed a reply, and its trace is the one
            // the relay retained, whatever the backend echoed.
            Frame::Reply {
                request_id, result, ..
            } => {
                if let Some(job) = relay(conn).up.jobs.remove(&request_id) {
                    shared.metrics.telemetry().record_round_trip(
                        Stage::BackendRtt,
                        job.trace,
                        request_id,
                        job.sent_at,
                        result.is_ok(),
                    );
                    queue_reply(conn, request_id, result, shared);
                }
            }
            // Mid-job progress, streamed for jobs still owed.
            Frame::Progress { request_id, update } => {
                if relay(conn).up.jobs.contains_key(&request_id) {
                    let progress = Frame::Progress { request_id, update };
                    conn.sock.queue(&progress, false, &shared.metrics);
                }
            }
            Frame::Pong { .. } => {}
            _ => return false,
        }
        true
    }

    /// The link failed, or its connect did: tell the policy about its
    /// backend, and dial another; the retained jobs ride that one.
    fn lost(&mut self, link: Link, _: CloudError, p: &mut Poller, w: &mut TimerWheel) {
        routing(self.shared).failed(&link.addr);
        if link.welcomed {
            self.shared.metrics.backend_failover(&link.addr);
        }
        relay(self.conn).failed.push(link.addr);
        dial(self.conn, self.shared, p, w);
    }
}

/// The client's `Hello` is accepted: dial the session's link. The
/// `Welcome` waits for the backend's.
pub(super) fn route(
    conn: &mut Conn,
    api_key: Option<String>,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.sock.token;
    let relay = relay(conn);
    relay.key = api_key
        .clone()
        .unwrap_or_else(|| format!("anon#{}.{token}", relay.home));
    relay.up.config.api_key = api_key;
    dial(conn, shared, poller, wheel);
}

/// Starts a connect to the first candidate the session has not failed,
/// reporting each that cannot even be dialed. With none left the session
/// is refused, or its retained jobs are answered.
fn dial(conn: &mut Conn, shared: &Arc<ServerShared>, poller: &mut Poller, wheel: &mut TimerWheel) {
    if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
        return; // the session is ending: nobody is left to answer
    }
    let policy = routing(shared);
    let relay = relay(conn);
    for (name, addr) in policy.candidates(&relay.key) {
        if relay.failed.contains(&name) {
            continue;
        }
        let connecting = relay.up.connect((addr, name.clone()), poller, wheel);
        if connecting.is_ok() {
            return;
        }
        policy.failed(&name);
        relay.failed.push(name);
    }
    relay.failed.clear();
    let jobs = std::mem::take(&mut relay.up.jobs);
    if conn.state == ConnState::Handshaking {
        refuse(conn, "no healthy backend".into(), shared, poller, wheel);
    } else {
        // Nowhere left to send them: a retryable answer, never a hang.
        for id in jobs.into_keys() {
            queue_reply(conn, id, Err(CloudError::ServiceUnavailable), shared);
        }
        flush_writes(conn, shared, poller, wheel);
    }
}

/// Retains an accepted submit and sends it on the link — or, with none
/// welcomed yet, leaves it for the next, dialing one if none is coming.
pub(super) fn submit(
    conn: &mut Conn,
    id: u64,
    payload: Bytes,
    trace: TraceId,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let job = Job {
        payload,
        trace,
        sent_at: Instant::now(),
        role: (),
    };
    let up = &mut relay(conn).up;
    up.retain(id, job, wheel);
    if up.link.is_none() {
        dial(conn, shared, poller, wheel);
    }
    link::flush(&mut Face { conn, shared }, poller, wheel);
}

/// Passes a `Cancel` to the welcomed backend — best effort, as everywhere
/// in the cancel path. The job stays retained: its reply (normally `Cancelled`)
/// settles it, and if the link dies first the resubmitted job's outcome.
pub(super) fn cancel(
    conn: &mut Conn,
    request_id: u64,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    if relay(conn).up.send(&Frame::Cancel { request_id }) {
        link::flush(&mut Face { conn, shared }, poller, wheel);
    }
}

/// Readiness on the session's backend link: what the backend sent is
/// relayed until its socket runs dry or the link fails. What waits for the
/// client is bounded by the in-flight cap, as on a service session: every
/// reply holds a slot until its bytes are flushed.
pub(super) fn link_io(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    link::io(
        &mut Face { conn, shared },
        readable,
        writable,
        poller,
        wheel,
    );
    flush_writes(conn, shared, poller, wheel);
}

/// The link's deadline: a link that stalled fails over; a welcomed one
/// write-idle for the keep-alive interval is pinged, so the backend's idle
/// timeout never ends a quiet session.
pub(super) fn link_timer(
    conn: &mut Conn,
    generation: u64,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let face = &mut Face { conn, shared };
    if link::fired(face, generation, poller, wheel) {
        link::flush(face, poller, wheel);
        face.up().schedule(wheel);
    }
}

/// The session is ending: nobody is left to answer, so its link closes —
/// the backend sees the peer gone and abandons what is still running — and
/// its jobs are dropped, leaving only what is already queued to flush. A
/// session's end is not its backend's failure: the policy hears nothing.
pub(super) fn sever(conn: &mut Conn, poller: &mut Poller) {
    if let Some(relay) = conn.relay.as_deref_mut() {
        relay.up.close(poller);
        relay.up.jobs.clear();
        conn.in_flight = 0;
    }
}

/// The relay's health probes, on reactor 0, by token.
#[derive(Default)]
pub(super) struct Prober(HashMap<u64, Probe>);

/// One probe transaction against the backend `name`.
struct Probe {
    name: String,
    up: Uplink<()>,
    /// The transaction is over: `true` once the `Pong` came back.
    verdict: Option<bool>,
}

impl Role for Probe {
    type Job = ();

    fn up(&mut self) -> &mut Uplink<()> {
        &mut self.up
    }

    fn welcomed(&mut self, _: Welcome, _: usize, _: &mut Poller, _: &mut TimerWheel) {
        self.up.send(&Frame::Ping { nonce: PROBE_NONCE });
    }

    /// A keep-alive's `Pong` is no answer; anything but a `Pong` no
    /// backend may send.
    fn heard(&mut self, frame: Frame, _: &mut Poller, _: &mut TimerWheel) -> bool {
        let Frame::Pong { nonce } = frame else {
            return false;
        };
        if nonce == PROBE_NONCE && self.verdict.replace(true).is_none() {
            self.up.send(&Frame::Goodbye);
        }
        true
    }

    fn lost(&mut self, _: Link, _: CloudError, _: &mut Poller, _: &mut TimerWheel) {
        self.verdict.get_or_insert(false);
    }
}

impl Prober {
    /// The sweep fell due: arm the next, and probe each backend the policy
    /// names that has no probe out already.
    pub(super) fn sweep(&mut self, shared: &ServerShared, r: &mut Reactor) {
        let Upstream::Relay {
            routing,
            probe_timeout: timeout,
            ..
        } = &shared.upstream
        else {
            return;
        };
        let (due, next) = routing.sweep();
        let now = Instant::now();
        r.wheel.insert(now + next, SWEEP_TOKEN, 0);
        // The probe's own deadline is the one; the handshake's is no sooner.
        let config = TransportConfig {
            api_key: None,
            handshake_timeout: *timeout,
            ..shared.config.clone()
        };
        for (name, addr) in due {
            if self.0.values().any(|probe| probe.name == name) {
                continue;
            }
            let token = r.token();
            let mut up = Uplink::new(token, config.clone(), None, Arc::clone(&shared.metrics));
            up.wake_at = Some(now + *timeout);
            let verdict = up.connect((addr, name.clone()), &mut r.poller, &mut r.wheel);
            let verdict = verdict.err().map(|_| false);
            self.0.insert(token, Probe { name, up, verdict });
            self.settle(token, shared, r);
        }
    }

    /// Readiness on the link of the probe `token`.
    pub(super) fn io(
        &mut self,
        token: u64,
        (readable, writable): (bool, bool),
        shared: &ServerShared,
        r: &mut Reactor,
    ) {
        if let Some(probe) = self.0.get_mut(&token) {
            link::io(probe, readable, writable, &mut r.poller, &mut r.wheel);
            self.settle(token, shared, r);
        }
    }

    /// The probe `token`'s deadline: past the probe timeout, it failed.
    pub(super) fn timer(&mut self, token: u64, gen: u64, shared: &ServerShared, r: &mut Reactor) {
        let Some(probe) = self.0.get_mut(&token) else {
            return;
        };
        if link::fired(probe, gen, &mut r.poller, &mut r.wheel) {
            if probe.up.wake_at.is_some_and(|at| Instant::now() >= at) {
                probe.verdict.get_or_insert(false);
            }
            probe.up.schedule(&mut r.wheel);
            self.settle(token, shared, r);
        }
    }

    /// Flushes the probe `token`; once it has a verdict — its `Goodbye`
    /// flushed — it ends, and the policy hears the verdict.
    fn settle(&mut self, token: u64, shared: &ServerShared, r: &mut Reactor) {
        let probe = self.0.get_mut(&token).expect("a live probe");
        link::flush(probe, &mut r.poller, &mut r.wheel);
        if let Some(ok) = probe.verdict {
            probe.up.close(&mut r.poller);
            let name = self.0.remove(&token).expect("a live probe").name;
            routing(shared).probed(&name, ok);
        }
    }

    /// The relay is stopping: probes end unjudged.
    pub(super) fn stop(&mut self, poller: &mut Poller) {
        for probe in self.0.values_mut() {
            probe.up.close(poller);
        }
    }
}
