//! A relay session's upstream (the transport docs' "Relays"): a backend
//! link (the `link` submodule), in the relay's role — its next link comes
//! from the [`Routing`](crate::transport::Routing) policy through the dialer, and its replies go to the
//! session's client face.
//!
//! The dialer only connects; the link handshakes on the session's reactor,
//! so sessions routed at once do not queue for it. A link fails on EOF or
//! an error, on a refused `Hello` or a frame no backend may send, and on
//! silence while it owes its `Welcome` or replies — a hung, black-holed or
//! torn backend keeps TCP alive. Its retained jobs then ride a link to
//! another backend; with no backend left they are answered
//! `ServiceUnavailable`.

use super::super::client::Welcome;
use super::super::frame::Frame;
use super::super::server::{Dial, ServerShared, Upstream};
use super::super::timer::TimerWheel;
use super::link::{self, Job, Link, Role, Uplink};
use super::{establish, flush_writes, queue_reply, refuse, Conn, ConnState};
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use reactor::Poller;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// A relay session's upstream state.
pub(super) struct Relay {
    /// The reactor that owns the session, where its links are delivered.
    home: usize,
    /// The routing key: the session's API key, or a tag unique to the
    /// connection.
    key: String,
    up: Uplink<()>,
    /// A connection has been asked for and not yet delivered.
    dialing: bool,
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
            dialing: false,
            failed: Vec::new(),
        })
    }
}

fn relay(conn: &mut Conn) -> &mut Relay {
    conn.relay.as_deref_mut().expect("a relay session")
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
                if !conn.sink_broken && relay(conn).up.jobs.contains_key(&request_id) {
                    let progress = Frame::Progress { request_id, update };
                    conn.writes.push_frame(&progress, false, &shared.metrics);
                }
            }
            Frame::Pong { .. } => {}
            _ => return false,
        }
        true
    }

    /// The link failed: tell the policy about its backend, and ask for a
    /// connection to another; the retained jobs ride that one.
    fn lost(&mut self, link: Link, _: CloudError, _: &mut Poller, _: &mut TimerWheel) {
        if let Upstream::Relay { routing, .. } = &self.shared.upstream {
            routing.failed(&link.addr);
        }
        if link.welcomed {
            self.shared.metrics.backend_failover(&link.addr);
        }
        let token = self.conn.token;
        let relay = relay(self.conn);
        relay.failed.push(link.addr);
        dial(relay, token, self.shared);
    }
}

/// The client's `Hello` is accepted: ask for the session's link. The
/// `Welcome` waits for the backend's.
pub(super) fn route(conn: &mut Conn, api_key: Option<String>, shared: &ServerShared) {
    let token = conn.token;
    let relay = relay(conn);
    relay.key = api_key
        .clone()
        .unwrap_or_else(|| format!("anon#{}.{token}", relay.home));
    relay.up.config.api_key = api_key;
    dial(relay, token, shared);
}

/// Asks the dialer for a connection, passing over the backends that failed.
fn dial(relay: &mut Relay, token: u64, shared: &ServerShared) {
    relay.dialing = true;
    if let Upstream::Relay { dialer, .. } = &shared.upstream {
        let _ = dialer.send(Some(Dial {
            home: relay.home,
            token,
            key: relay.key.clone(),
            exclude: relay.failed.clone(),
        }));
    }
}

/// The dialer's answer: a connection to greet, or none — the session is
/// then refused, or its retained jobs are answered.
pub(super) fn linked(
    conn: &mut Conn,
    connected: Option<(TcpStream, String)>,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    if !matches!(conn.state, ConnState::Handshaking | ConnState::Established) {
        return; // the session ended meanwhile; the connection closes as it drops
    }
    let routing = conn.state == ConnState::Handshaking;
    let relay = relay(conn);
    relay.dialing = false;
    if connected.is_some_and(|connected| relay.up.connect(connected, poller, wheel)) {
        link::flush(&mut Face { conn, shared }, poller, wheel);
        return;
    }
    relay.failed.clear();
    let jobs = std::mem::take(&mut relay.up.jobs);
    if routing {
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
/// welcomed yet, leaves it for the next, asking for one if none is coming.
pub(super) fn submit(
    conn: &mut Conn,
    id: u64,
    payload: Bytes,
    trace: TraceId,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.token;
    let relay = relay(conn);
    if relay.up.link.is_none() && !relay.dialing {
        dial(relay, token, shared);
    }
    let job = Job {
        payload,
        trace,
        sent_at: Instant::now(),
        role: (),
    };
    relay.up.retain(id, job, wheel);
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
