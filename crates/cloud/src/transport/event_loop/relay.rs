//! A relay session's upstream (the transport docs' "Relays"): its backend
//! link, the jobs it retains until answered, and failing the link over.
//!
//! The link is registered under the session's token with [`LINK`] set, so
//! the session, its link and its jobs are one thread's plain state. The
//! dialer only connects; the link handshakes here (`client::hello`,
//! `client::welcomed`), so sessions routed at once do not queue for it. A
//! link fails on EOF or an error, on a refused `Hello` or a frame no backend
//! may send, and on silence while it owes its `Welcome` (handshake timeout)
//! or replies (reply timeout) — a hung, black-holed or torn backend keeps
//! TCP alive. Resubmitted jobs keep their request ids: training is seeded
//! and backends deduplicate by content, so a replay answers bit for bit the
//! same. With no backend left they are answered `ServiceUnavailable`.

use super::super::client::{hello, welcomed};
use super::super::frame::{Frame, FrameDecoder, FrameOrigin};
use super::super::server::{Dial, Routing, ServerShared, Upstream};
use super::super::timer::{TimerKind, TimerWheel};
use super::{
    establish, flush_writes, queue_reply, refuse, Conn, ConnState, FlushOutcome, WriteQueue,
};
use crate::metrics::ServiceMetrics;
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use reactor::{Interest, Poller};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set on a poller token to name the backend link of the session whose
/// token is the rest.
pub(super) const LINK: u64 = 1 << 62;

/// A relay session's upstream state.
#[derive(Default)]
pub(super) struct Relay {
    /// The reactor that owns the session, where its links are delivered.
    home: usize,
    /// The routing key — the session's API key, or a tag unique to the
    /// connection — and the API key its links present.
    key: String,
    api_key: Option<String>,
    link: Option<Link>,
    /// A connection has been asked for and not yet delivered.
    dialing: bool,
    /// Backends that failed the session since its last link was welcomed:
    /// the next dial passes over them.
    failed: Vec<String>,
    /// Submits not yet answered, by request id: the payload (the client's
    /// upload, shared, not copied) to resubmit, and when it was last sent.
    jobs: BTreeMap<u64, (Bytes, Instant)>,
    /// Generation of the link timer; a stale one is ignored.
    timer_gen: u64,
}

/// A client-role connection to one backend.
struct Link {
    stream: TcpStream,
    addr: String,
    /// What the backend's `Welcome` negotiated, 0 until it arrives. Trace
    /// ids and `Cancel` go to v2 backends only.
    version: u32,
    decoder: FrameDecoder,
    writes: WriteQueue,
    interest: Interest,
    last_write: Instant,
    /// The stall clock: when the link last said something, or fell owing
    /// an answer, whichever is later.
    quiet_since: Instant,
}

impl Relay {
    pub(super) fn new(home: usize) -> Box<Relay> {
        Box::new(Relay {
            home,
            ..Relay::default()
        })
    }
}

fn relay(conn: &mut Conn) -> &mut Relay {
    conn.relay.as_deref_mut().expect("a relay session")
}

/// The relay `shared` serves: its policy and its reply timeout.
fn policy(shared: &ServerShared) -> (&dyn Routing, Duration) {
    match &shared.upstream {
        Upstream::Relay {
            routing,
            reply_timeout,
            ..
        } => (&**routing, *reply_timeout),
        Upstream::Service(_) => unreachable!("relay sessions live on a relay"),
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
    relay.api_key = api_key;
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
    let token = conn.token;
    relay(conn).dialing = false;
    let registered = connected.filter(|(stream, _)| {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).is_ok()
            && poller
                .register(stream.as_raw_fd(), token | LINK, Interest::READABLE)
                .is_ok()
    });
    let Some((stream, addr)) = registered else {
        relay(conn).failed.clear();
        if conn.state == ConnState::Handshaking {
            refuse(conn, "no healthy backend".into(), shared, poller, wheel);
        } else {
            // Nowhere left to send them: a retryable answer, never a hang.
            for id in std::mem::take(&mut relay(conn).jobs).into_keys() {
                queue_reply(conn, id, Err(CloudError::ServiceUnavailable), shared);
            }
            flush_writes(conn, shared, poller, wheel);
        }
        return;
    };
    shared.metrics.reactor_fd_registered();
    let relay = relay(conn);
    let now = Instant::now();
    let mut link = Link {
        stream,
        addr,
        version: 0,
        decoder: FrameDecoder::for_peer(FrameOrigin::Server),
        writes: WriteQueue {
            relay: true,
            ..WriteQueue::default()
        },
        interest: Interest::READABLE,
        last_write: now,
        quiet_since: now,
    };
    send(&mut link, &hello(relay.api_key.clone()), &shared.metrics);
    relay.link = Some(link);
    schedule(relay, token, shared, wheel);
    flush_link(relay, token, shared, poller);
}

/// The backend welcomed the link: welcome a session that was being routed,
/// or resubmit the jobs of one that failed over.
fn ready(
    conn: &mut Conn,
    (version, max_in_flight, max_frame_len): (u32, u32, u64),
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.token;
    let Conn {
        relay,
        traces,
        state,
        ..
    } = &mut *conn;
    let relay = relay.as_deref_mut().expect("a relay session");
    let link = relay.link.as_mut().expect("a welcomed link");
    link.version = version;
    shared.metrics.backend_session_routed(&link.addr);
    relay.failed.clear();
    // Nothing retained was sent on this link yet: all of it rides it now.
    for (&id, (payload, sent_at)) in &mut relay.jobs {
        send_job(link, id, payload, traces.get(&id), &shared.metrics);
        *sent_at = link.last_write;
    }
    link.quiet_since = Instant::now();
    if *state == ConnState::Established {
        shared.metrics.reconnect_established();
        let resubmitted = relay.jobs.len() as u64;
        shared
            .metrics
            .backend_jobs_resubmitted(&link.addr, resubmitted);
    }
    schedule(relay, token, shared, wheel);
    flush_link(relay, token, shared, poller);
    if conn.state == ConnState::Handshaking {
        // The tighter of this end's limits and the backend's, so a client
        // honouring its Welcome trips neither hop's caps.
        let max_in_flight = max_in_flight.min(shared.config.max_in_flight as u32);
        let max_frame_len = max_frame_len.min(shared.config.max_frame_len as u64);
        establish(conn, max_in_flight, max_frame_len, shared, poller, wheel);
    }
}

/// Retains an accepted submit and sends it on the link — or, with none
/// welcomed yet, leaves it for the next, asking for one if none is coming.
pub(super) fn submit(
    conn: &mut Conn,
    id: u64,
    payload: Bytes,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.token;
    let Conn { relay, traces, .. } = conn;
    let relay = relay.as_deref_mut().expect("a relay session");
    let owed_before = !relay.jobs.is_empty();
    match &mut relay.link {
        Some(link) if link.version != 0 => {
            send_job(link, id, &payload, traces.get(&id), &shared.metrics);
            if !owed_before {
                link.quiet_since = Instant::now(); // replies fall owed now
            }
        }
        Some(_) => {}
        None if relay.dialing => {}
        None => dial(relay, token, shared),
    }
    relay.jobs.insert(id, (payload, Instant::now()));
    if !owed_before {
        schedule(relay, token, shared, wheel);
    }
    flush_link(relay, token, shared, poller);
}

/// Passes a `Cancel` to a v2 backend — best effort, as everywhere in the
/// cancel path. The job stays retained: its reply (normally `Cancelled`)
/// settles it, and if the link dies first the resubmitted job's outcome.
pub(super) fn cancel(conn: &mut Conn, request_id: u64, shared: &ServerShared, poller: &mut Poller) {
    let token = conn.token;
    let relay = relay(conn);
    if let Some(link) = relay.link.as_mut().filter(|link| link.version >= 2) {
        send(link, &Frame::Cancel { request_id }, &shared.metrics);
        flush_link(relay, token, shared, poller);
    }
}

/// Readiness on the session's backend link: flush it, and relay what the
/// backend sent until its socket runs dry or the link fails. What waits
/// for the client is bounded by the in-flight cap, as on a service session:
/// every reply holds a slot until its bytes are flushed.
pub(super) fn link_io(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.token;
    if writable {
        flush_link(relay(conn), token, shared, poller);
    }
    let failed = readable
        && loop {
            let Some(link) = relay(conn).link.as_mut() else {
                break false;
            };
            match link.decoder.next_frame(shared.config.max_frame_len) {
                Ok(Some((frame, wire))) => {
                    shared.metrics.relay_frame_received(wire);
                    if !relay_frame(conn, frame, shared, poller, wheel) {
                        break true;
                    }
                }
                Ok(None) => match link.decoder.read_from(&mut link.stream) {
                    Ok(0) => break true,
                    Ok(_) => link.quiet_since = Instant::now(),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(_) => break true,
                },
                Err(_) => break true,
            }
        };
    if failed {
        fail_link(relay(conn), token, shared, poller);
    }
    flush_writes(conn, shared, poller, wheel);
}

/// One frame from the backend; `false` for a frame no backend may send.
fn relay_frame(
    conn: &mut Conn,
    frame: Frame,
    shared: &Arc<ServerShared>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) -> bool {
    if relay(conn)
        .link
        .as_ref()
        .is_some_and(|link| link.version == 0)
    {
        // The link's first frame is the answer to its `Hello`.
        return match welcomed(frame) {
            Ok(welcome) => {
                ready(conn, welcome, shared, poller, wheel);
                true
            }
            Err(_) => false,
        };
    }
    match frame {
        // Only a retained job is owed a reply, and its trace is the one
        // echoed (a v1 backend echoes none).
        Frame::Reply {
            request_id, result, ..
        } => {
            if let Some((_, sent_at)) = relay(conn).jobs.remove(&request_id) {
                let trace = conn.traces.get(&request_id).copied();
                shared.metrics.telemetry().record_round_trip(
                    Stage::BackendRtt,
                    trace.unwrap_or(TraceId::NONE),
                    request_id,
                    sent_at,
                    result.is_ok(),
                );
                queue_reply(conn, request_id, result, shared);
            }
        }
        // Mid-job progress is a v2 extension, streamed for jobs still owed.
        Frame::Progress { request_id, update } => {
            if conn.version >= 2 && !conn.sink_broken && relay(conn).jobs.contains_key(&request_id)
            {
                let progress = Frame::Progress { request_id, update };
                conn.writes.push_frame(&progress, false, &shared.metrics);
            }
        }
        Frame::Pong { .. } => {}
        _ => return false,
    }
    true
}

/// The link's deadline: a link owing an answer that stayed silent past it
/// fails; a welcomed one write-idle for the keep-alive interval is pinged,
/// so the backend's idle timeout never ends a quiet session.
pub(super) fn link_timer(
    conn: &mut Conn,
    generation: u64,
    shared: &ServerShared,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let token = conn.token;
    let relay = relay(conn);
    if generation != relay.timer_gen {
        return;
    }
    let keepalive = shared.config.keepalive_interval;
    if stall_deadline(relay, shared).is_some_and(|at| Instant::now() >= at) {
        fail_link(relay, token, shared, poller);
    } else if let Some(link) = relay.link.as_mut().filter(|link| {
        link.version != 0 && link.writes.is_empty() && link.last_write.elapsed() >= keepalive
    }) {
        send(link, &Frame::Ping { nonce: 0 }, &shared.metrics);
        flush_link(relay, token, shared, poller);
    }
    schedule(relay, token, shared, wheel);
}

/// Arms the link's next deadline — its keep-alive once welcomed, or what
/// it owes, whichever comes first — retiring the one armed before.
fn schedule(relay: &mut Relay, token: u64, shared: &ServerShared, wheel: &mut TimerWheel) {
    relay.timer_gen += 1;
    let Some(link) = &relay.link else {
        return;
    };
    let keepalive = (link.version != 0).then(|| link.last_write + shared.config.keepalive_interval);
    if let Some(at) = keepalive
        .into_iter()
        .chain(stall_deadline(relay, shared))
        .min()
    {
        wheel.insert(at, token, TimerKind::Link, relay.timer_gen);
    }
}

/// When the link's silence becomes the backend's failure: its `Welcome` is
/// owed from the `Hello` on, replies while jobs are retained.
fn stall_deadline(relay: &Relay, shared: &ServerShared) -> Option<Instant> {
    let link = relay.link.as_ref()?;
    if link.version == 0 {
        return Some(link.quiet_since + shared.config.handshake_timeout);
    }
    let (_, reply_timeout) = policy(shared);
    (!relay.jobs.is_empty()).then(|| link.quiet_since + reply_timeout)
}

/// Queues a retained job on the link, its trace id for v2 backends only.
fn send_job(
    link: &mut Link,
    id: u64,
    payload: &Bytes,
    trace: Option<&TraceId>,
    metrics: &ServiceMetrics,
) {
    let submit = Frame::Submit {
        request_id: id,
        payload: payload.clone(),
        trace: trace.copied().filter(|_| link.version >= 2),
    };
    send(link, &submit, metrics);
}

fn send(link: &mut Link, frame: &Frame, metrics: &ServiceMetrics) {
    link.writes.push_frame(frame, false, metrics);
    link.last_write = Instant::now();
}

/// Writes what the link has queued; a broken link fails over.
fn flush_link(relay: &mut Relay, token: u64, shared: &ServerShared, poller: &mut Poller) {
    let Some(link) = &mut relay.link else {
        return;
    };
    let (_, outcome) = link.writes.flush(&mut link.stream, &shared.metrics);
    if outcome == FlushOutcome::Broken {
        return fail_link(relay, token, shared, poller);
    }
    let want = Interest {
        readable: true,
        writable: outcome == FlushOutcome::Blocked,
    };
    if want != link.interest
        && poller
            .reregister(link.stream.as_raw_fd(), token | LINK, want)
            .is_ok()
    {
        link.interest = want;
    }
}

/// The link failed: tell the policy about its backend, close it, and ask
/// for a connection to another; the retained jobs ride that one.
fn fail_link(relay: &mut Relay, token: u64, shared: &ServerShared, poller: &mut Poller) {
    if let Some(link) = close_link(relay, shared, poller) {
        let (routing, _) = policy(shared);
        routing.failed(&link.addr);
        if link.version != 0 {
            shared.metrics.backend_failover(&link.addr);
        }
        relay.failed.push(link.addr);
        dial(relay, token, shared);
    }
}

/// Deregisters and closes the link, discarding what it had queued.
fn close_link(relay: &mut Relay, shared: &ServerShared, poller: &mut Poller) -> Option<Link> {
    let mut link = relay.link.take()?;
    relay.timer_gen += 1;
    if poller.deregister(link.stream.as_raw_fd()).is_ok() {
        shared.metrics.reactor_fd_deregistered();
    }
    let _ = link.stream.shutdown(Shutdown::Both);
    link.writes.discard(&shared.metrics);
    Some(link)
}

/// The session is ending: nobody is left to answer, so its link closes —
/// the backend sees the peer gone and abandons what is still running — and
/// its jobs are dropped, leaving only what is already queued to flush. A
/// session's end is not its backend's failure: the policy hears nothing.
pub(super) fn sever(conn: &mut Conn, shared: &ServerShared, poller: &mut Poller) {
    if let Some(relay) = conn.relay.as_deref_mut() {
        close_link(relay, shared, poller);
        relay.jobs.clear();
        conn.in_flight = 0;
    }
}
