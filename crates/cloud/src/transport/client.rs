//! The remote counterpart of [`crate::CloudClient`]: the same
//! submit/handle API, but every job crosses a real socket.
//!
//! One connection carries any number of concurrent jobs: submissions are
//! tagged with a client-chosen request id, replies are matched back by that
//! id (they arrive in *completion* order, not submission order), and a
//! background reader thread routes each one to its waiting
//! [`RemoteJobHandle`]. A keep-alive thread pings whenever the connection
//! has been quiet, so the server's idle timeout only ends sessions whose
//! client is actually gone.
//!
//! # Self-healing mode
//!
//! With [`TransportConfig::reconnect`] set, a lost connection no longer
//! fails the session. The connection lives in a *slot* guarded by a
//! generation counter; when a reader, writer or keep-alive observes the
//! link die, a supervisor thread empties the slot, re-dials with
//! [`super::DecorrelatedJitter`] backoff, re-handshakes, and resubmits
//! every pending job verbatim — same request id, same payload bytes.
//! Resubmission is safe because jobs are content-addressed: a replay of an
//! already-executing job coalesces server-side instead of training twice,
//! and seeded training makes any re-execution bitwise identical. Replies
//! carrying [`CloudError::RateLimited`] are not surfaced either: the job
//! is rescheduled through a [`super::RetryQueue`] at the server's
//! `retry_after` — never earlier — until its resubmission budget runs out.

use super::frame::{self, read_frame_blocking, write_frame, Frame, FrameOrigin};
use super::{
    ClientStats, ReconnectPolicy, TransportConfig, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::metrics::ServiceStats;
use crate::protocol::{CloudJob, JobResult, ProgressUpdate};
use crate::telemetry::{Stage, Telemetry, TelemetryConfig, TraceId};
use crate::CloudError;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A client of a [`crate::CloudServer`] over one multiplexed TCP
/// connection. Cloneable: clones share the connection and its session.
#[derive(Debug, Clone)]
pub struct RemoteCloudClient {
    shared: Arc<ClientShared>,
}

/// One live, handshaken connection. Replaceable in reconnect mode: the
/// generation stamps every thread reading from it, so a stale reader's
/// death notice cannot tear down its successor.
#[derive(Debug)]
struct Conn {
    /// Write half; every frame is written whole under this lock.
    writer: Mutex<TcpStream>,
    last_write: Mutex<Instant>,
    generation: u64,
    /// The server's advertised frame cap: oversized submits are refused
    /// locally instead of poisoning the shared connection.
    max_frame_len: usize,
}

/// One unanswered job: where its reply goes, plus everything needed to
/// submit it again after a reconnect or a scheduled retry.
#[derive(Debug)]
struct PendingJob {
    tx: Sender<Result<JobResult, CloudError>>,
    /// Where mid-job Progress frames land; dropping the entry (reply
    /// delivered, session failed) disconnects the handle's progress
    /// iterator.
    progress_tx: Sender<ProgressUpdate>,
    /// The handle asked for cancellation. Blocks retry rescheduling and
    /// reconnect resubmission: a cancelled job must never be revived.
    cancelled: bool,
    payload: Bytes,
    /// End-to-end trace id minted at submit; rides the Submit frame's
    /// trace extension when the server speaks protocol v2.
    trace: TraceId,
    /// When this job's Submit frame last hit the socket (reset on
    /// resubmission), so the reply can be scored as a round-trip.
    sent_at: Instant,
    /// Automatic resubmissions left before errors surface to the handle.
    resubmits_left: u32,
    /// While `Some`, a scheduled retry owns this job: it must not be
    /// rewritten before this instant (the `retry_after` contract), and the
    /// reconnect path leaves it to the retry schedule.
    not_before: Option<Instant>,
}

/// What link maintenance tells the supervisor thread.
#[derive(Debug)]
enum SupervisorMsg {
    /// The connection of this generation died; redial and resubmit.
    LinkDown { generation: u64 },
    /// Resubmit job `id` at `at` (a `retry_after` or error backoff).
    RetryAt { id: u64, at: Instant },
}

#[derive(Debug)]
struct ClientShared {
    config: TransportConfig,
    /// Resolved dial targets, kept for re-dials.
    addrs: Vec<SocketAddr>,
    /// The live connection, if any; `None` while down or reconnecting.
    conn: Mutex<Option<Arc<Conn>>>,
    /// Generation of the newest connection ever installed in the slot.
    generation: AtomicU64,
    /// In-flight request ids → reply routing and resubmission state.
    pending: Mutex<HashMap<u64, PendingJob>>,
    /// In-flight `GetStats` request ids → where the decoded snapshot goes.
    stats_waiters: Mutex<HashMap<u64, Sender<Result<ServiceStats, CloudError>>>>,
    /// Client-side telemetry: the submit-to-reply RTT histogram
    /// ([`Stage::Rpc`]) and a flight recorder holding the client's view of
    /// each trace — the first of the three tiers a trace id is visible at.
    telemetry: Telemetry,
    next_request: AtomicU64,
    closed: AtomicBool,
    /// Negotiated protocol version (first handshake).
    version: u32,
    /// In-flight cap the server advertised for this session (first
    /// handshake).
    server_max_in_flight: usize,
    /// Present iff a reconnect policy is set; link failures route here
    /// instead of failing the session.
    supervisor: Option<Sender<SupervisorMsg>>,
    reconnects: AtomicU64,
    jobs_resubmitted: AtomicU64,
    retries_scheduled: AtomicU64,
}

impl ClientShared {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Marks the connection dead, tears the socket down (so the reader
    /// thread unblocks and exits instead of parking on a timeout-less read
    /// forever) and answers every outstanding handle.
    fn fail_pending(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(conn) = self.conn.lock().take() {
            let _ = conn.writer.lock().shutdown(Shutdown::Both);
        }
        let pending: Vec<_> = {
            let mut map = self.pending.lock();
            map.drain().collect()
        };
        for (_, job) in pending {
            let _ = job.tx.send(Err(CloudError::ServiceUnavailable));
        }
        self.fail_stats_waiters();
    }

    /// Answers every outstanding `GetStats` request with
    /// [`CloudError::ServiceUnavailable`]. Stats requests are not
    /// resubmitted across reconnects (a snapshot of a connection that died
    /// is not worth healing), so this runs on every link loss.
    fn fail_stats_waiters(&self) {
        let waiters: Vec<_> = {
            let mut map = self.stats_waiters.lock();
            map.drain().collect()
        };
        for (_, tx) in waiters {
            let _ = tx.send(Err(CloudError::ServiceUnavailable));
        }
    }

    /// A link of `generation` stopped working. In reconnect mode this
    /// hands the incident to the supervisor; otherwise it ends the session.
    fn link_down(&self, generation: u64) {
        if self.is_closed() {
            return;
        }
        match &self.supervisor {
            Some(tx) => {
                let _ = tx.send(SupervisorMsg::LinkDown { generation });
            }
            None => self.fail_pending(),
        }
    }

    /// Routes one reply. In reconnect mode, retryable outcomes
    /// (`RateLimited` with its honest `retry_after`, and the
    /// `ServiceUnavailable` a failing-over proxy answers with) are turned
    /// into scheduled resubmissions while the job still has budget.
    fn handle_reply(&self, id: u64, result: Result<JobResult, CloudError>) {
        let retry_delay = match (&self.supervisor, &result) {
            (Some(_), Err(e @ CloudError::RateLimited { .. })) => e.retry_after(),
            (Some(_), Err(CloudError::ServiceUnavailable)) => Some(
                self.config
                    .reconnect
                    .as_ref()
                    .map(|p| p.base)
                    .unwrap_or(Duration::from_millis(50)),
            ),
            _ => None,
        };
        if let (Some(delay), Some(tx)) = (retry_delay, &self.supervisor) {
            let mut pending = self.pending.lock();
            if let Some(job) = pending.get_mut(&id) {
                if job.resubmits_left > 0 && !job.cancelled && !self.is_closed() {
                    job.resubmits_left -= 1;
                    let at = Instant::now() + delay;
                    job.not_before = Some(at);
                    drop(pending);
                    self.retries_scheduled.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(SupervisorMsg::RetryAt { id, at });
                    return;
                }
            }
        }
        let job = self.pending.lock().remove(&id);
        if let Some(job) = job {
            // The submit-to-reply round trip: the first of the three tiers a
            // trace id is visible at.
            self.telemetry.record_round_trip(
                Stage::Rpc,
                job.trace,
                id,
                job.sent_at,
                result.is_ok(),
            );
            let _ = job.tx.send(result);
        }
    }

    /// Routes one mid-job progress frame to its pending handle. A miss is
    /// benign: the frame raced the reply that retired the entry.
    fn handle_progress(&self, id: u64, update: ProgressUpdate) {
        let pending = self.pending.lock();
        if let Some(job) = pending.get(&id) {
            let _ = job.progress_tx.send(update);
        }
    }

    /// Marks job `id` cancelled and (best effort) tells the server. The
    /// Cancel frame is a protocol-v2 extension; against a v1 server the
    /// local mark still blocks client-side revival, but the server runs
    /// the job to completion and the handle sees its ordinary outcome.
    fn cancel_job(&self, id: u64) {
        {
            let mut pending = self.pending.lock();
            match pending.get_mut(&id) {
                Some(job) => job.cancelled = true,
                None => return, // already answered
            }
        }
        if self.version < 2 {
            return;
        }
        let Some(conn) = self.conn.lock().clone() else {
            return; // link down: the reconnect path settles the job
        };
        let written = {
            let mut w = conn.writer.lock();
            write_frame(&mut *w, &Frame::Cancel { request_id: id })
        };
        match written {
            Ok(_) => *conn.last_write.lock() = Instant::now(),
            Err(_) => self.link_down(conn.generation),
        }
    }

    /// Writes job `id`'s Submit frame to `conn`, the payload straight from
    /// the caller's buffer. The wire cap is the smaller of the server's
    /// advertised limit and what a `u32` length prefix can carry at all:
    /// an oversized job is refused here, nothing written, rather than left
    /// to kill the shared connection.
    fn write_submit(&self, conn: &Conn, id: u64, payload: &Bytes, trace: TraceId) -> SubmitWrite {
        let frame = Frame::Submit {
            request_id: id,
            payload: payload.clone(),
            // The trace rides the frame only toward a v2 server.
            trace: (self.version >= 2 && !trace.is_none()).then_some(trace),
        };
        let chunks = match frame.wire_chunks() {
            Ok(chunks) => chunks,
            Err(e) => return SubmitWrite::Refused(CloudError::Transport(e.to_string())),
        };
        let body_len = chunks.iter().map(Bytes::len).sum::<usize>() - 4;
        if body_len > conn.max_frame_len {
            return SubmitWrite::Refused(CloudError::Transport(format!(
                "job frame of {body_len} bytes exceeds the connection's cap of {} bytes",
                conn.max_frame_len
            )));
        }
        match frame::write_chunks(&mut *conn.writer.lock(), &chunks) {
            Ok(_) => {
                *conn.last_write.lock() = Instant::now();
                SubmitWrite::Sent
            }
            Err(e) => SubmitWrite::LinkBroke(e),
        }
    }

    /// Rewrites one pending job's Submit frame to `conn`. Returns `false`
    /// when the link broke (and reports it), `true` otherwise — including
    /// the job-local failure of an oversized payload, which is answered on
    /// its own handle without condemning the link.
    fn write_pending(&self, conn: &Conn, id: u64, payload: &Bytes, trace: TraceId) -> bool {
        match self.write_submit(conn, id, payload, trace) {
            SubmitWrite::Sent => {
                if let Some(job) = self.pending.lock().get_mut(&id) {
                    job.sent_at = Instant::now();
                }
                true
            }
            SubmitWrite::Refused(e) => {
                if let Some(job) = self.pending.lock().remove(&id) {
                    let _ = job.tx.send(Err(e));
                }
                true
            }
            SubmitWrite::LinkBroke(_) => {
                self.link_down(conn.generation);
                false
            }
        }
    }
}

/// How writing one Submit frame ended.
enum SubmitWrite {
    Sent,
    /// This connection cannot carry the job (over its frame cap); nothing
    /// was written and the link is fine.
    Refused(CloudError),
    LinkBroke(std::io::Error),
}

impl Drop for ClientShared {
    fn drop(&mut self) {
        // Unblocks the reader (it holds only a `Weak` to this state) and
        // lets the keep-alive and supervisor threads retire on their next
        // tick.
        self.closed.store(true, Ordering::SeqCst);
        if let Some(conn) = self.conn.lock().take() {
            let _ = conn.writer.lock().shutdown(Shutdown::Both);
        }
    }
}

/// Dials `addrs` in order — each attempt bounded by
/// [`TransportConfig::connect_timeout`] — and performs the handshake on
/// the first address that accepts the TCP connection.
fn dial(
    addrs: &[SocketAddr],
    config: &TransportConfig,
) -> Result<(TcpStream, u32, u32, u64), CloudError> {
    let mut last_err = CloudError::Transport("no address to connect to".into());
    for addr in addrs {
        match TcpStream::connect_timeout(addr, config.connect_timeout) {
            Ok(stream) => {
                let (version, max_in_flight, max_frame_len) = handshake(&stream, config)?;
                let _ = stream.set_read_timeout(None);
                return Ok((stream, version, max_in_flight, max_frame_len));
            }
            Err(e) => last_err = CloudError::Transport(format!("connect to {addr} failed: {e}")),
        }
    }
    Err(last_err)
}

/// The client role's half of the handshake, on a socket that has just
/// connected: `Hello` (with `config.api_key`) out, `Welcome` in. Used by
/// [`RemoteCloudClient`] and by a routing tier's health probes; a relay's
/// backend links speak the same two frames from their reactor (`hello`
/// and `welcomed` below).
///
/// Sets `TCP_NODELAY`, and leaves `config.handshake_timeout` as the socket's
/// read timeout and `config.write_timeout` as its write timeout — a peer
/// that stops reading must not wedge a writer forever; a timed-out write
/// marks the connection broken (symmetric with the server's session policy).
///
/// Returns what the `Welcome` negotiated: `(version, max_in_flight,
/// max_frame_len)`.
///
/// # Errors
///
/// Returns [`CloudError::Handshake`] with the server's reason if it answers
/// `Reject` (or anything but `Welcome`, or hangs up), and
/// [`CloudError::Transport`] on I/O failure.
pub fn handshake(
    mut stream: &TcpStream,
    config: &TransportConfig,
) -> Result<(u32, u32, u64), CloudError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.handshake_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    write_frame(&mut stream, &hello(config.api_key.clone()))
        .map_err(|e| CloudError::Transport(format!("handshake write failed: {e}")))?;
    let (frame, _) =
        read_frame_blocking(&mut stream, config.max_frame_len, FrameOrigin::Server)?
            .ok_or_else(|| CloudError::Handshake("server closed during handshake".into()))?;
    welcomed(frame)
}

/// The client role's opener: this build's protocol range and `api_key`.
pub(super) fn hello(api_key: Option<String>) -> Frame {
    Frame::Hello {
        min_version: MIN_PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
        api_key,
    }
}

/// The client role's reading of the answer to its `Hello`: what a `Welcome`
/// negotiated, `(version, max_in_flight, max_frame_len)`, or why not.
pub(super) fn welcomed(frame: Frame) -> Result<(u32, u32, u64), CloudError> {
    match frame {
        Frame::Welcome {
            version,
            max_in_flight,
            max_frame_len,
        } => Ok((version, max_in_flight, max_frame_len)),
        Frame::Reject { reason } => Err(CloudError::Handshake(reason)),
        other => Err(CloudError::Handshake(format!(
            "expected Welcome, got {other:?}"
        ))),
    }
}

impl RemoteCloudClient {
    /// Connects and handshakes with the default [`TransportConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] on connect/I-O failure and
    /// [`CloudError::Handshake`] if the server refuses the session.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteCloudClient, CloudError> {
        RemoteCloudClient::connect_with(addr, TransportConfig::default())
    }

    /// [`connect`](Self::connect) with explicit tunables (API key,
    /// keep-alive cadence, frame cap, connect deadline, reconnect policy).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] on connect/I-O failure and
    /// [`CloudError::Handshake`] if the server refuses the session.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
    ) -> Result<RemoteCloudClient, CloudError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| CloudError::Transport(format!("address resolution failed: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(CloudError::Transport("address resolved to nothing".into()));
        }
        let (stream, version, max_in_flight, server_max_frame_len) = dial(&addrs, &config)?;
        let read_half = stream
            .try_clone()
            .map_err(|e| CloudError::Transport(format!("socket clone failed: {e}")))?;
        let keepalive_seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(0);
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            last_write: Mutex::new(Instant::now()),
            generation: 0,
            max_frame_len: usize::try_from(server_max_frame_len).unwrap_or(usize::MAX),
        });
        let (supervisor, supervisor_rx) = match config.reconnect {
            Some(_) => {
                let (tx, rx) = unbounded();
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let max_frame_len = config.max_frame_len;
        let keepalive_interval = jittered_interval(config.keepalive_interval, keepalive_seed);
        let shared = Arc::new(ClientShared {
            config,
            addrs,
            conn: Mutex::new(Some(conn)),
            generation: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            stats_waiters: Mutex::new(HashMap::new()),
            telemetry: Telemetry::new(&TelemetryConfig::default()),
            next_request: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            version,
            server_max_in_flight: max_in_flight as usize,
            supervisor,
            reconnects: AtomicU64::new(0),
            jobs_resubmitted: AtomicU64::new(0),
            retries_scheduled: AtomicU64::new(0),
        });
        spawn_reader(Arc::downgrade(&shared), read_half, max_frame_len, 0);
        spawn_keepalive(Arc::downgrade(&shared), keepalive_interval);
        if let Some(rx) = supervisor_rx {
            spawn_supervisor(Arc::downgrade(&shared), rx);
        }
        Ok(RemoteCloudClient { shared })
    }

    /// The protocol version negotiated at the handshake.
    pub fn protocol_version(&self) -> u32 {
        self.shared.version
    }

    /// The per-connection in-flight cap the server advertised.
    pub fn max_in_flight(&self) -> usize {
        self.shared.server_max_in_flight
    }

    /// This client's self-healing tallies (all zero without a
    /// [`ReconnectPolicy`]) plus its submit-to-reply round-trip histogram.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            jobs_resubmitted: self.shared.jobs_resubmitted.load(Ordering::Relaxed),
            retries_scheduled: self.shared.retries_scheduled.load(Ordering::Relaxed),
            rtt: self.shared.telemetry.hist(Stage::Rpc).snapshot(),
        }
    }

    /// The client-side telemetry plane: the [`Stage::Rpc`] round-trip
    /// histogram and a flight recorder holding this tier's view of every
    /// answered trace (look a job up by the trace id the server echoed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Fetches the **server's** full [`ServiceStats`] snapshot over this
    /// session — the wire twin of [`crate::CloudServer::stats`], available
    /// to remote operators without a listener-side handle.
    ///
    /// # Errors
    ///
    /// [`CloudError::Handshake`] if the server predates protocol v2,
    /// [`CloudError::Unauthorized`] if the service requires API keys and
    /// this session's key is not among them, plus the usual transport
    /// surface ([`CloudError::ServiceUnavailable`] on a dead session).
    pub fn fetch_stats(&self) -> Result<ServiceStats, CloudError> {
        let shared = &*self.shared;
        if shared.is_closed() {
            return Err(CloudError::ServiceUnavailable);
        }
        if shared.version < 2 {
            return Err(CloudError::Handshake(
                "server protocol predates GetStats (needs v2)".into(),
            ));
        }
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        shared.stats_waiters.lock().insert(id, tx);
        let Some(conn) = shared.conn.lock().clone() else {
            shared.stats_waiters.lock().remove(&id);
            return Err(CloudError::ServiceUnavailable);
        };
        let written = {
            let mut w = conn.writer.lock();
            write_frame(&mut *w, &Frame::GetStats { request_id: id })
        };
        match written {
            Ok(_) => *conn.last_write.lock() = Instant::now(),
            Err(e) => {
                shared.stats_waiters.lock().remove(&id);
                shared.link_down(conn.generation);
                return Err(CloudError::Transport(format!(
                    "stats request write failed: {e}"
                )));
            }
        }
        rx.recv().map_err(|_| CloudError::ServiceUnavailable)?
    }

    /// Uploads a job (serializing it — this *is* the trust boundary now)
    /// and returns a handle to the in-flight work.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Transport`] if the connection is broken and
    /// [`CloudError::ServiceUnavailable`] if it was already closed.
    pub fn submit(&self, job: &CloudJob) -> Result<RemoteJobHandle, CloudError> {
        self.submit_payload(job.to_bytes())
    }

    /// Uploads an already-serialized payload.
    ///
    /// In reconnect mode a submit while the link is down still succeeds:
    /// the job parks as pending and rides the next reconnect's
    /// resubmission.
    ///
    /// # Errors
    ///
    /// Same surface as [`submit`](Self::submit).
    pub fn submit_payload(&self, payload: Bytes) -> Result<RemoteJobHandle, CloudError> {
        let shared = &*self.shared;
        if shared.is_closed() {
            return Err(CloudError::ServiceUnavailable);
        }
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        let reconnecting = shared.supervisor.is_some();
        // Mint the end-to-end trace id here — the submit instant is the
        // root of the trace. It rides the frame's trace extension when the
        // server speaks v2; against a v1 server it still names this
        // client's own span of the job.
        let trace = if shared.telemetry.enabled() {
            TraceId::mint()
        } else {
            TraceId::NONE
        };
        let (tx, rx) = unbounded();
        let (progress_tx, progress_rx) = unbounded();
        // The payload is retained (a cheap refcount clone) so the
        // supervisor can resubmit it verbatim; without a policy it is
        // dropped with the entry when the reply lands.
        shared.pending.lock().insert(
            id,
            PendingJob {
                tx,
                progress_tx,
                cancelled: false,
                payload: payload.clone(),
                trace,
                sent_at: Instant::now(),
                resubmits_left: shared
                    .config
                    .reconnect
                    .as_ref()
                    .map(|p| p.max_resubmits)
                    .unwrap_or(0),
                not_before: None,
            },
        );
        let conn = shared.conn.lock().clone();
        match conn {
            Some(conn) => match shared.write_submit(&conn, id, &payload, trace) {
                SubmitWrite::Sent => {}
                SubmitWrite::Refused(e) => {
                    shared.pending.lock().remove(&id);
                    return Err(e);
                }
                // The job stays pending; the supervisor resubmits it once
                // the link is back.
                SubmitWrite::LinkBroke(_) if reconnecting => shared.link_down(conn.generation),
                SubmitWrite::LinkBroke(e) => {
                    shared.pending.lock().remove(&id);
                    shared.fail_pending();
                    return Err(CloudError::Transport(format!("submit write failed: {e}")));
                }
            },
            // Link down right now. Self-healing clients park the job for
            // the reconnect's resubmission sweep; fail-fast clients can
            // only get here racing `close()`, which answers the entry.
            None => {
                if !reconnecting {
                    shared.pending.lock().remove(&id);
                    return Err(CloudError::ServiceUnavailable);
                }
            }
        }
        if shared.is_closed() {
            // The session closed between our first check and the write.
            // Either `fail_pending` already answered this entry (rx holds
            // an error), or we remove it here — both ways no handle hangs.
            shared.pending.lock().remove(&id);
            return Err(CloudError::ServiceUnavailable);
        }
        Ok(RemoteJobHandle {
            id,
            rx,
            progress_rx,
            shared: Arc::downgrade(&self.shared),
            done: None,
        })
    }

    /// Convenience: submit and wait.
    ///
    /// # Errors
    ///
    /// Propagates submission, transport, decode, validation and training
    /// errors.
    pub fn train(&self, job: &CloudJob) -> Result<JobResult, CloudError> {
        self.submit(job)?.wait()
    }

    /// Polite hang-up: sends `Goodbye`, closes the socket, and answers any
    /// still-pending handles with [`CloudError::ServiceUnavailable`].
    pub fn close(self) {
        let shared = &*self.shared;
        if !shared.closed.swap(true, Ordering::SeqCst) {
            if let Some(conn) = &*shared.conn.lock() {
                let mut w = conn.writer.lock();
                let _ = write_frame(&mut *w, &Frame::Goodbye);
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        shared.fail_pending();
    }
}

/// Routes replies to their pending handles until this connection ends.
fn spawn_reader(
    weak: Weak<ClientShared>,
    mut stream: TcpStream,
    max_frame_len: usize,
    generation: u64,
) {
    std::thread::Builder::new()
        .name("cloud-remote-reader".into())
        .spawn(move || loop {
            match read_frame_blocking(&mut stream, max_frame_len, FrameOrigin::Server) {
                // The echoed trace id (when present) matches the one this
                // client minted at submit; the pending entry already holds
                // it, so the tail needs no routing of its own.
                Ok(Some((
                    Frame::Reply {
                        request_id,
                        result,
                        trace: _,
                    },
                    _,
                ))) => {
                    let Some(shared) = weak.upgrade() else { return };
                    shared.handle_reply(request_id, result);
                }
                Ok(Some((Frame::Stats { request_id, body }, _))) => {
                    let Some(shared) = weak.upgrade() else { return };
                    let waiter = shared.stats_waiters.lock().remove(&request_id);
                    if let Some(tx) = waiter {
                        let _ = tx.send(body.and_then(ServiceStats::from_bytes));
                    }
                }
                Ok(Some((Frame::Progress { request_id, update }, _))) => {
                    let Some(shared) = weak.upgrade() else { return };
                    shared.handle_progress(request_id, update);
                }
                Ok(Some((Frame::Pong { .. }, _))) => {}
                // Anything else from the server — or EOF, or a transport/
                // decode error — ends this connection (not necessarily the
                // session: with a reconnect policy the supervisor takes
                // over).
                Ok(Some(_)) | Ok(None) | Err(_) => {
                    if let Some(shared) = weak.upgrade() {
                        shared.link_down(generation);
                    }
                    return;
                }
            }
        })
        .expect("spawn remote reader");
}

/// De-synchronizes keep-alives across a fleet of clients. A batch of
/// connections created together (worker pools, scale-out restarts) would
/// otherwise all go write-idle at the same moment and ping in the same
/// tick — a periodic thundering herd on the server's reactors. Each
/// connection instead pings at a deterministic point in
/// `[0.75, 1.0] × interval`, keyed by its local port; the result is never
/// *longer* than the configured interval, so a jittered client still
/// outruns any server idle timeout the plain interval would.
fn jittered_interval(interval: Duration, seed: u64) -> Duration {
    // splitmix64 finalizer: a cheap, well-mixed hash of the seed.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
    interval.mul_f64(0.75 + 0.25 * frac)
}

/// Pings whenever the connection has been write-idle for a full interval.
/// Outlives individual connections: in reconnect mode it simply skips
/// ticks while the link is down.
fn spawn_keepalive(weak: Weak<ClientShared>, interval: Duration) {
    std::thread::Builder::new()
        .name("cloud-remote-keepalive".into())
        .spawn(move || {
            let tick = (interval / 4).max(Duration::from_millis(10));
            let mut nonce = 0u64;
            loop {
                std::thread::sleep(tick);
                let Some(shared) = weak.upgrade() else { return };
                if shared.is_closed() {
                    return;
                }
                let Some(conn) = shared.conn.lock().clone() else {
                    continue;
                };
                if conn.last_write.lock().elapsed() >= interval {
                    nonce += 1;
                    let sent = {
                        let mut w = conn.writer.lock();
                        write_frame(&mut *w, &Frame::Ping { nonce })
                    };
                    match sent {
                        Ok(_) => *conn.last_write.lock() = Instant::now(),
                        Err(_) => {
                            shared.link_down(conn.generation);
                            if shared.supervisor.is_none() {
                                return;
                            }
                        }
                    }
                }
            }
        })
        .expect("spawn remote keepalive");
}

/// The self-healing loop: reacts to link-down notices by re-dialing with
/// decorrelated-jitter backoff, and fires scheduled retries when (never
/// before) they come due.
fn spawn_supervisor(weak: Weak<ClientShared>, rx: Receiver<SupervisorMsg>) {
    std::thread::Builder::new()
        .name("cloud-remote-supervisor".into())
        .spawn(move || {
            let policy = {
                let Some(shared) = weak.upgrade() else { return };
                shared
                    .config
                    .reconnect
                    .clone()
                    .expect("supervisor implies a reconnect policy")
            };
            let mut jitter = policy.jitter();
            let mut retries = super::RetryQueue::new();
            loop {
                let timeout = retries
                    .next_due()
                    .map(|at| at.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_millis(500));
                match rx.recv_timeout(timeout) {
                    Ok(SupervisorMsg::LinkDown { generation }) => {
                        let Some(shared) = weak.upgrade() else { return };
                        if shared.is_closed() {
                            return;
                        }
                        handle_link_down(&shared, &weak, generation, &policy, &mut jitter);
                    }
                    Ok(SupervisorMsg::RetryAt { id, at }) => retries.schedule(id, at),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                let Some(shared) = weak.upgrade() else { return };
                if shared.is_closed() {
                    return;
                }
                for id in retries.pop_due(Instant::now()) {
                    fire_retry(&shared, id);
                }
            }
        })
        .expect("spawn remote supervisor");
}

/// Empties the connection slot (if the notice isn't stale) and runs the
/// redial loop until a new connection is installed, the dial budget runs
/// out, or the client closes.
fn handle_link_down(
    shared: &Arc<ClientShared>,
    weak: &Weak<ClientShared>,
    generation: u64,
    policy: &ReconnectPolicy,
    jitter: &mut super::DecorrelatedJitter,
) {
    {
        let mut slot = shared.conn.lock();
        // Only the notice about the *current* generation empties the slot;
        // a stale reader's death notice after a completed failover is a
        // no-op.
        if generation != shared.generation.load(Ordering::SeqCst) {
            return;
        }
        if let Some(conn) = slot.take() {
            let _ = conn.writer.lock().shutdown(Shutdown::Both);
        }
    }
    // Jobs heal across the redial; stats requests do not (a snapshot of a
    // dead connection is not worth waiting a backoff for).
    shared.fail_stats_waiters();
    jitter.reset();
    let mut attempts = 0usize;
    loop {
        if shared.is_closed() {
            return;
        }
        attempts += 1;
        let dialed = dial(&shared.addrs, &shared.config).and_then(|(stream, _, _, mfl)| {
            let read_half = stream
                .try_clone()
                .map_err(|e| CloudError::Transport(format!("socket clone failed: {e}")))?;
            Ok((stream, read_half, mfl))
        });
        match dialed {
            Ok((stream, read_half, server_max_frame_len)) => {
                let new_gen = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
                let conn = Arc::new(Conn {
                    writer: Mutex::new(stream),
                    last_write: Mutex::new(Instant::now()),
                    generation: new_gen,
                    max_frame_len: usize::try_from(server_max_frame_len).unwrap_or(usize::MAX),
                });
                *shared.conn.lock() = Some(conn.clone());
                shared.reconnects.fetch_add(1, Ordering::Relaxed);
                spawn_reader(
                    weak.clone(),
                    read_half,
                    shared.config.max_frame_len,
                    new_gen,
                );
                resubmit_pending(shared, &conn);
                return;
            }
            Err(_) => {
                if policy.max_dial_attempts > 0 && attempts >= policy.max_dial_attempts {
                    shared.fail_pending();
                    return;
                }
                std::thread::sleep(jitter.next_delay());
            }
        }
    }
}

/// Rewrites every pending job to a fresh connection — except jobs owned by
/// a scheduled retry (`not_before` set), which the retry schedule will
/// fire itself once due; rewriting those here could beat their
/// `retry_after`.
fn resubmit_pending(shared: &Arc<ClientShared>, conn: &Conn) {
    // Cancelled jobs are settled, never revived: the dead link took the
    // server's copy with it, and replaying a job the caller gave up on
    // would only burn backend work. Their handles resolve right here.
    let (mut ids, cancelled) = {
        let mut pending = shared.pending.lock();
        let dead: Vec<u64> = pending
            .iter()
            .filter(|(_, job)| job.cancelled)
            .map(|(id, _)| *id)
            .collect();
        let cancelled: Vec<PendingJob> = dead
            .into_iter()
            .filter_map(|id| pending.remove(&id))
            .collect();
        let ids: Vec<(u64, Bytes, TraceId)> = pending
            .iter()
            .filter(|(_, job)| job.not_before.is_none())
            .map(|(id, job)| (*id, job.payload.clone(), job.trace))
            .collect();
        (ids, cancelled)
    };
    for job in cancelled {
        let _ = job.tx.send(Err(CloudError::Cancelled));
    }
    // Request-id order preserves the caller's submission order.
    ids.sort_by_key(|(id, _, _)| *id);
    for (id, payload, trace) in ids {
        if !shared.write_pending(conn, id, &payload, trace) {
            return;
        }
        shared.jobs_resubmitted.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fires one due retry: the job gives up its `not_before` reservation and
/// is rewritten if the link is up. If the link is down the job simply
/// rejoins the ordinary pending set — the next reconnect resubmits it.
fn fire_retry(shared: &Arc<ClientShared>, id: u64) {
    let (payload, trace) = {
        let mut pending = shared.pending.lock();
        if pending.get(&id).is_some_and(|job| job.cancelled) {
            let job = pending.remove(&id).expect("checked just above");
            drop(pending);
            let _ = job.tx.send(Err(CloudError::Cancelled));
            return;
        }
        let Some(job) = pending.get_mut(&id) else {
            return;
        };
        job.not_before = None;
        (job.payload.clone(), job.trace)
    };
    let Some(conn) = shared.conn.lock().clone() else {
        return;
    };
    if shared.write_pending(&conn, id, &payload, trace) {
        shared.jobs_resubmitted.fetch_add(1, Ordering::Relaxed);
    }
}

/// An in-flight remote job — API parity with [`crate::JobHandle`],
/// including the result-id match: `wait().unwrap().job_id == handle.id()`.
///
/// Error parity holds too, because every [`crate::CloudError`] variant
/// round-trips the Reply frame. In particular a job refused by the
/// server's per-session rate limiter resolves to
/// [`crate::CloudError::RateLimited`], whose
/// [`retry_after`](crate::CloudError::retry_after) tells this client how
/// long to back off before resubmitting — same as an in-process handle
/// would see:
///
/// ```no_run
/// # use amalgam_cloud::{CloudJob, RemoteCloudClient};
/// # fn demo(client: &RemoteCloudClient, job: &CloudJob) {
/// match client.submit(job).unwrap().wait() {
///     Ok(result) => println!("trained: {} bytes", result.bytes_sent),
///     Err(e) => {
///         if let Some(backoff) = e.retry_after() {
///             std::thread::sleep(backoff); // then resubmit
///         }
///     }
/// }
/// # }
/// ```
///
/// (A client running a [`ReconnectPolicy`] performs that dance itself: the
/// handle only sees `RateLimited` once the job's resubmission budget is
/// spent.)
#[derive(Debug)]
pub struct RemoteJobHandle {
    id: u64,
    rx: Receiver<Result<JobResult, CloudError>>,
    progress_rx: Receiver<ProgressUpdate>,
    /// Back-reference for [`cancel`](Self::cancel); weak so a forgotten
    /// handle never keeps the session alive.
    shared: Weak<ClientShared>,
    done: Option<Result<JobResult, CloudError>>,
}

impl RemoteJobHandle {
    /// The request id this connection assigned (matches
    /// [`JobResult::job_id`] in the reply).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Asks the server to stop this job at its next epoch boundary
    /// (best effort). The handle still resolves — normally with
    /// [`CloudError::Cancelled`], or with the job's ordinary outcome if
    /// cancellation raced completion. Requires a protocol-v2 server for
    /// the request to cross the wire; against a v1 server the job runs to
    /// completion but is never revived by reconnect or retry machinery.
    pub fn cancel(&self) {
        if let Some(shared) = self.shared.upgrade() {
            shared.cancel_job(self.id);
        }
    }

    /// Non-blocking: the next queued progress update, if any. Updates
    /// arrive in epoch order; draining in a loop observes every frame the
    /// server delivered.
    pub fn try_progress(&self) -> Option<ProgressUpdate> {
        self.progress_rx.try_recv().ok()
    }

    /// Blocking stream of progress updates. The iterator yields each
    /// update as it arrives and ends when the job settles (its reply —
    /// success or error — retires the server-side entry feeding this
    /// channel), after which [`wait`](Self::wait) returns immediately.
    pub fn progress(&self) -> impl Iterator<Item = ProgressUpdate> + '_ {
        std::iter::from_fn(move || self.progress_rx.recv().ok())
    }

    /// Blocks until the job finishes.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::ServiceUnavailable`] if the connection died
    /// with the job still unanswered.
    pub fn wait(self) -> Result<JobResult, CloudError> {
        if let Some(done) = self.done {
            return done;
        }
        self.rx.recv().map_err(|_| CloudError::ServiceUnavailable)?
    }

    /// Non-blocking poll: `None` while the job is still running. Once the
    /// outcome is known it is cached, so polling again keeps returning it.
    pub fn try_wait(&mut self) -> Option<Result<JobResult, CloudError>> {
        if self.done.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.done = Some(result),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => {
                    self.done = Some(Err(CloudError::ServiceUnavailable));
                }
            }
        }
        self.done.clone()
    }

    /// Blocks at most `timeout`; `None` on timeout, the (cached) outcome
    /// otherwise.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<JobResult, CloudError>> {
        if self.done.is_none() {
            match self.rx.recv_timeout(timeout) {
                Ok(result) => self.done = Some(result),
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => {
                    self.done = Some(Err(CloudError::ServiceUnavailable));
                }
            }
        }
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keepalive_jitter_stays_within_band_and_spreads_out() {
        let interval = Duration::from_secs(10);
        let lo = interval.mul_f64(0.75);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..2048u64 {
            let j = jittered_interval(interval, seed);
            assert!(j >= lo, "seed {seed}: {j:?} under the 0.75x floor");
            assert!(j <= interval, "seed {seed}: {j:?} over the interval");
            assert_eq!(
                j,
                jittered_interval(interval, seed),
                "must be deterministic"
            );
            distinct.insert(j.as_nanos());
        }
        // Adjacent ports must not collapse onto the same phase.
        assert!(
            distinct.len() > 1024,
            "only {} distinct phases",
            distinct.len()
        );
    }
}
