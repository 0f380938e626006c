//! A relay session's upstream (the transport docs' "Relays"): a backend
//! link (the `link` submodule) in the relay's role — its next link comes
//! from the [`Routing`] policy, its replies go to the session's client face
//! — and the relay's health probes, a link role of their own.
//!
//! # Routing
//!
//! Sessions, not jobs, are routed, and before the `Welcome`: a session no
//! backend takes is refused at its handshake, not accepted and starved. Its
//! own reactor dials: it walks the policy's candidates for the session's
//! key (its API key, or a tag unique to the connection), passing over the
//! backends that failed the session since its last welcomed link, and
//! connects to the first without blocking, at the address the policy
//! resolved when it was built. A dial that hangs holds up nobody else:
//! `handshake_timeout` bounds connect, `Hello` and `Welcome` together, and
//! a session being routed has no deadline of its own. Its `Welcome` carries
//! the tighter of this end's and the backend's limits.
//!
//! # Failover
//!
//! A link fails on a refused or timed-out connect, on EOF or an error, on a
//! refused `Hello` or a frame no backend may send, and on silence while it
//! owes its `Welcome` or replies — a hung, black-holed or torn backend keeps
//! TCP alive. Its backend is reported to the policy and passed over, and the
//! retained jobs, with any that arrive meanwhile, ride the next link in
//! request-id order under their original ids (nothing retained was sent on
//! a link just made). Training jobs are seeded and pure, so a replay of one
//! whose reply was lost answers bit for bit the same; non-idempotent
//! traffic does not exist in this protocol, and if it ever does it must not
//! be replayed. With no backend left the session is refused, or its jobs
//! are answered `ServiceUnavailable`, a retryable error. A session that
//! ends closes its link without telling the policy, so it never poisons a
//! breaker. A relay session holds no more for a slow client than the
//! in-flight cap, and its link, write-idle for its keep-alive interval, is
//! pinged, so a backend's idle timeout never ends a quiet session.
//!
//! Reactor 0 keeps the policy's sweep as a deadline. Each backend the sweep
//! names gets a probe, unless one is still out: a link that says `Hello`,
//! `Ping` once welcomed and `Goodbye` once its `Pong` is back, all within
//! the probe timeout from its dial. The verdict goes to the policy.

use super::super::frame::Frame;
use super::super::server::{ServerShared, Upstream};
use super::super::{Routing, TransportConfig};
use super::link::{self, Job, Link, Role, Uplink, Welcome};
use super::socket::{Inbound, Socket};
use super::{establish, queue_reply, refuse, Conn, ConnState, Machine, Reactor, SWEEP_TOKEN};
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The nonce a probe's `Ping` carries; an honest backend echoes it.
const PROBE_NONCE: u64 = 0x9e37_79b9_7f4a_7c15;

/// A relay session's upstream state.
pub(super) struct Relay {
    /// The routing key: the session's API key, or a tag unique to the
    /// connection.
    key: String,
    pub(super) up: Uplink<()>,
    /// Backends that failed the session since its last link was welcomed:
    /// the next dial passes over them.
    failed: Vec<String>,
}

impl Relay {
    pub(super) fn new(home: usize, token: u64, shared: &ServerShared) -> Box<Relay> {
        let Upstream::Relay { reply_timeout, .. } = shared.upstream else {
            unreachable!("relay sessions live on a relay")
        };
        let (config, metrics) = (shared.config.clone(), Arc::clone(&shared.metrics));
        Box::new(Relay {
            key: format!("anon#{home}.{token}"),
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
pub(super) struct Face<'a>(pub(super) &'a mut Conn);

impl Role for Face<'_> {
    type Job = ();

    fn up(&mut self) -> &mut Uplink<()> {
        &mut relay(self.0).up
    }

    /// The backend welcomed the link: welcome a session that was being
    /// routed, or count the failover of one whose jobs it now carries.
    fn welcomed(&mut self, welcome: Welcome, resubmitted: usize, _: Instant) {
        let conn = &mut *self.0;
        let routed = conn.state == ConnState::Handshaking;
        let metrics = Arc::clone(&conn.shared.metrics);
        let relay = relay(conn);
        let addr = &relay.up.link.as_ref().expect("a welcomed link").addr;
        metrics.backend_session_routed(addr);
        if !routed {
            metrics.reconnect_established();
            metrics.backend_jobs_resubmitted(addr, resubmitted as u64);
        }
        relay.failed.clear();
        if routed {
            // The tighter of this end's limits and the backend's, so a client
            // honouring its Welcome trips neither hop's caps.
            let (_, max_in_flight, max_frame_len) = welcome;
            let config = &conn.shared.config;
            let max_in_flight = max_in_flight.min(config.max_in_flight as u32);
            let max_frame_len = max_frame_len.min(config.max_frame_len as u64);
            establish(conn, max_in_flight, max_frame_len);
        }
    }

    fn heard(&mut self, frame: Frame, _: Instant) -> bool {
        let conn = &mut *self.0;
        match frame {
            // Only a retained job is owed a reply, and its trace is the one
            // the relay retained, whatever the backend echoed.
            Frame::Reply {
                request_id, result, ..
            } => {
                if let Some(job) = relay(conn).up.jobs.remove(&request_id) {
                    conn.shared.metrics.telemetry().record_round_trip(
                        Stage::BackendRtt,
                        job.trace,
                        request_id,
                        job.sent_at,
                        result.is_ok(),
                    );
                    queue_reply(conn, request_id, result);
                }
            }
            // Mid-job progress, streamed for jobs still owed.
            Frame::Progress { request_id, update } => {
                if relay(conn).up.jobs.contains_key(&request_id) {
                    let progress = Frame::Progress { request_id, update };
                    conn.sock.queue(&progress, false, &conn.shared.metrics);
                }
            }
            Frame::Pong { .. } => {}
            _ => return false,
        }
        true
    }

    /// The link failed, or its connect did: tell the policy about its
    /// backend, and dial another; the retained jobs ride that one.
    fn lost(&mut self, link: Link, _: CloudError, now: Instant) {
        let shared = Arc::clone(&self.0.shared);
        routing(&shared).failed(&link.addr);
        if link.welcomed {
            shared.metrics.backend_failover(&link.addr);
        }
        relay(self.0).failed.push(link.addr);
        dial(self.0, now);
    }
}

/// The client's `Hello` is accepted: dial the session's link. The
/// `Welcome` waits for the backend's.
pub(super) fn route(conn: &mut Conn, api_key: Option<String>, now: Instant) {
    let relay = relay(conn);
    if let Some(key) = &api_key {
        relay.key.clone_from(key);
    }
    relay.up.config.api_key = api_key;
    dial(conn, now);
}

/// Dials the first candidate the session has not failed; a connect that
/// fails comes back as the link's loss, and the next is dialed then. With
/// none left the session is refused, or its retained jobs are answered.
fn dial(conn: &mut Conn, now: Instant) {
    if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
        return; // the session is ending: nobody is left to answer
    }
    let shared = Arc::clone(&conn.shared);
    let relay = relay(conn);
    let candidate = routing(&shared)
        .candidates(&relay.key)
        .into_iter()
        .find(|(name, _)| !relay.failed.contains(name));
    if let Some((name, addr)) = candidate {
        return relay.up.connect((addr, name), now);
    }
    relay.failed.clear();
    let jobs = std::mem::take(&mut relay.up.jobs);
    if conn.state == ConnState::Handshaking {
        refuse(conn, "no healthy backend".into());
    } else {
        // Nowhere left to send them: a retryable answer, never a hang.
        for id in jobs.into_keys() {
            queue_reply(conn, id, Err(CloudError::ServiceUnavailable));
        }
    }
}

/// Retains an accepted submit and sends it on the link — or, with none
/// welcomed yet, leaves it for the next, dialing one if none is coming.
pub(super) fn submit(conn: &mut Conn, id: u64, payload: Bytes, trace: TraceId, now: Instant) {
    let job = Job {
        payload,
        trace,
        sent_at: now,
        role: (),
    };
    let up = &mut relay(conn).up;
    up.retain(id, job, now);
    if up.link.is_none() {
        dial(conn, now);
    }
}

/// Passes a `Cancel` to the welcomed backend — best effort, as everywhere
/// in the cancel path. The job stays retained: its reply (normally `Cancelled`)
/// settles it, and if the link dies first the resubmitted job's outcome.
pub(super) fn cancel(conn: &mut Conn, request_id: u64, now: Instant) {
    relay(conn).up.send(&Frame::Cancel { request_id }, now);
}

/// The session is ending: nobody is left to answer, so its link closes —
/// the backend sees the peer gone and abandons what is still running — and
/// its jobs are dropped, leaving only what is already queued to flush. A
/// session's end is not its backend's failure: the policy hears nothing.
pub(super) fn sever(conn: &mut Conn) {
    if let Some(relay) = conn.relay.as_deref_mut() {
        relay.up.close();
        relay.up.jobs.clear();
    }
}

/// The relay's health probes, on reactor 0, by token.
#[derive(Default)]
pub(super) struct Prober(HashMap<u64, Probe>);

/// One probe transaction against the backend `name`.
pub(super) struct Probe {
    name: String,
    up: Uplink<()>,
    /// When the probe timeout runs out.
    due: Instant,
    /// The transaction is over: `true` once the `Pong` came back.
    verdict: Option<bool>,
}

impl Role for Probe {
    type Job = ();

    fn up(&mut self) -> &mut Uplink<()> {
        &mut self.up
    }

    fn welcomed(&mut self, _: Welcome, _: usize, now: Instant) {
        self.up.send(&Frame::Ping { nonce: PROBE_NONCE }, now);
    }

    /// A keep-alive's `Pong` is no answer; anything but a `Pong` no
    /// backend may send.
    fn heard(&mut self, frame: Frame, now: Instant) -> bool {
        let Frame::Pong { nonce } = frame else {
            return false;
        };
        if nonce == PROBE_NONCE && self.verdict.replace(true).is_none() {
            self.up.send(&Frame::Goodbye, now);
        }
        true
    }

    fn lost(&mut self, _: Link, _: CloudError, _: Instant) {
        self.verdict.get_or_insert(false);
    }
}

impl Machine for Probe {
    fn socket(&mut self, link: bool) -> Option<&mut Socket> {
        link.then_some(&mut self.up.sock)
    }

    fn inbound(&mut self, _: bool, what: Inbound, now: Instant) {
        link::inbound(self, what, now);
    }

    fn timer(&mut self, now: Instant) {
        link::fired(self, now);
        if self.due <= now {
            self.verdict.get_or_insert(false);
        }
    }

    /// A probe with a verdict — its `Goodbye` queued — ends.
    fn settled(&mut self, _: Instant) {
        if self.verdict.is_some() {
            self.up.close();
        }
    }

    fn deadline(&self, now: Instant) -> Option<Instant> {
        self.up.deadline(now).into_iter().chain([self.due]).min()
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
        r.wheel.arm(SWEEP_TOKEN, Some(r.now + next));
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
            up.connect((addr, name.clone()), r.now);
            let probe = Probe {
                name,
                up,
                due: r.now + *timeout,
                verdict: None,
            };
            self.0.insert(token, probe);
            self.on(token, shared, r, |r, probe| r.settle(token, probe));
        }
    }

    /// Runs `event` on the probe `token`, if it is out; once it has a
    /// verdict it has ended, and the policy hears the verdict.
    pub(super) fn on(
        &mut self,
        token: u64,
        shared: &ServerShared,
        r: &mut Reactor,
        event: impl FnOnce(&mut Reactor, &mut Probe),
    ) {
        let Some(probe) = self.0.get_mut(&token) else {
            return;
        };
        event(r, probe);
        if let Some(ok) = probe.verdict {
            let name = self.0.remove(&token).expect("a live probe").name;
            routing(shared).probed(&name, ok);
        }
    }

    /// The relay is stopping: probes end unjudged.
    pub(super) fn stop(&mut self, r: &mut Reactor) {
        for (&token, probe) in &mut self.0 {
            probe.up.close();
            r.settle(token, probe);
        }
    }
}
