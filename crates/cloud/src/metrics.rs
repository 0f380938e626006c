//! Service telemetry: lock-free counters shared by the client handles, the
//! metrics layer and the worker pool — plus a per-session table keyed by
//! [`SessionKey`] for the QoS counters — snapshot into [`ServiceStats`].
//!
//! Every number is declared once, as a row of one of the three tables below
//! (`service_table!` for the scalars, `stats_record!` for the backend and
//! session rows): name, `counter` | `gauge`, type, the operator table's group
//! and label, help text. The atomic in [`ServiceMetrics`], its zero, its load
//! in `snapshot`, the documented [`ServiceStats`] field, its place in the
//! `Stats` frame (table order *is* wire order), its `# HELP`/`# TYPE`/sample
//! in the scrape and its cell in `Display` derive from that row. To add a
//! metric:
//!
//! 1. add its row, at the end of its table (the wire is positional);
//! 2. bump the field of that name in an increment method of
//!    [`ServiceMetrics`] — which event moves which counter is policy, and
//!    stays hand-written;
//! 3. nothing else: `cargo run --release --example remote_training` prints
//!    the table from a live `GetStats`, and `every_row_reaches_every_rendering`
//!    fails for a field that went around its table.
//!
//! Session rows stay out of the scrape on purpose — their label values are
//! peer-chosen and there may be [`MAX_SESSION_ROWS`] of them; backend rows
//! are in it, the fleet being the operator's own configuration.

use crate::middleware::SessionKey;
use crate::protocol::JobResult;
use crate::telemetry::{HistogramSnapshot, Stage, Telemetry, TelemetryConfig};
use crate::CloudError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::TensorError;
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-session rows beyond this count trigger eviction of idle rows
/// (empty queue), bounding the table against anonymous-connection churn.
/// Aggregate [`ServiceStats`] counters are unaffected by eviction.
const MAX_SESSION_ROWS: usize = 4096;

/// A circuit breaker's reported position for one backend, as surfaced in
/// [`BackendStats`]. The state machine itself lives in the routing tier
/// (`amalgam-proxy`); this is its observable shadow. The discriminant is
/// the wire tag and the scrape's sample value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum BackendHealth {
    /// Traffic flows; failures are being counted.
    #[default]
    Closed = 0,
    /// Ejected: no session traffic, only cooldown-gated probes.
    Open = 1,
    /// Probation: probes decide between readmission and re-ejection.
    HalfOpen = 2,
}

impl TryFrom<u8> for BackendHealth {
    type Error = CloudError;

    fn try_from(tag: u8) -> Result<BackendHealth, CloudError> {
        match tag {
            0 => Ok(BackendHealth::Closed),
            1 => Ok(BackendHealth::Open),
            2 => Ok(BackendHealth::HalfOpen),
            t => Err(CloudError::Decode(format!("unknown health tag {t}"))),
        }
    }
}

impl fmt::Display for BackendHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            BackendHealth::Closed => "closed",
            BackendHealth::Open => "open",
            BackendHealth::HalfOpen => "half-open",
        })
    }
}

fn stats_err(e: TensorError) -> CloudError {
    CloudError::Decode(e.to_string())
}

/// One table row as the scrape and the operator table read it: the row's
/// columns and one snapshot's value.
struct Row {
    /// The scrape's series stem: the field's name unless the row overrides it.
    series: &'static str,
    /// `"counter"` (monotone; its series ends in `_total`) or `"gauge"`.
    kind: &'static str,
    help: &'static str,
    group: &'static str,
    label: &'static str,
    /// The value as the scrape samples it: `"0"` is every type's zero.
    sample: String,
    /// The value as the operator table prints it.
    cell: String,
}

/// The columns of a row that follow from its kind or type: the scrape's
/// `# TYPE`, the atomic behind a scalar, the wire encoding (integers travel
/// as `u64`, the breaker position as its tag), the scrape's sample (the tag
/// again) and the operator table's cell (rates to four places).
#[rustfmt::skip]
macro_rules! cell {
    (kind counter) => { "counter" };
    (kind gauge) => { "gauge" };
    (atomic u64) => { AtomicU64 };
    (atomic usize) => { AtomicUsize };
    (put u64, $w:ident, $v:expr) => { $w.put_u64($v) };
    (put usize, $w:ident, $v:expr) => { $w.put_u64($v as u64) };
    (put f64, $w:ident, $v:expr) => { $w.put_f64($v) };
    (put BackendHealth, $w:ident, $v:expr) => { $w.put_u8($v as u8) };
    (get u64, $r:ident) => { $r.get_u64().map_err(stats_err)? };
    (get usize, $r:ident) => { $r.get_u64().map_err(stats_err)? as usize };
    (get f64, $r:ident) => { $r.get_f64().map_err(stats_err)? };
    (get BackendHealth, $r:ident) => { BackendHealth::try_from($r.get_u8().map_err(stats_err)?)? };
    (sample BackendHealth, $v:expr) => { ($v as u8).to_string() };
    (sample $number:ident, $v:expr) => { $v.to_string() };
    (cell f64, $v:expr) => { format!("{:.4}", $v) };
    (cell $other:ident, $v:expr) => { $v.to_string() };
}

/// Declares one snapshot record from its table. A row reads
///
/// ```text
/// /// More rustdoc, after the help.
/// name [as "series"]: counter|gauge type, group "label", "help";
/// ```
///
/// and yields the public field, its place in `encode_into`/`decode_from`
/// (table order) and its [`Row`]. `key` is the record's string label; `tail`
/// fields ride along untouched.
macro_rules! stats_record {
    (
        $(#[$meta:meta])*
        pub struct $Stats:ident {
            $(key $key:ident, $khelp:literal;)?
            rows {$(
                $(#[$doc:meta])*
                $name:ident $(as $series:literal)?: $kind:ident $ty:ident,
                $group:ident $label:literal, $help:literal;
            )*}
            $(tail {$($(#[$tdoc:meta])* $tail:ident: $tty:ty,)*})?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $Stats {
            $(#[doc = $khelp] pub $key: String,)?
            $(#[doc = $help] $(#[$doc])* pub $name: $ty,)*
            $($($(#[$tdoc])* pub $tail: $tty,)*)?
        }

        impl $Stats {
            /// Appends the key and every row in table order.
            fn encode_into(&self, w: &mut Writer) {
                $(w.put_str(&self.$key);)?
                $(cell!(put $ty, w, self.$name);)*
            }

            /// Reads what `encode_into` wrote; tail fields come back empty.
            fn decode_from(r: &mut Reader) -> Result<$Stats, CloudError> {
                Ok($Stats {
                    $($key: r.get_str().map_err(stats_err)?,)?
                    $($name: cell!(get $ty, r),)*
                    $($($tail: Default::default(),)*)?
                })
            }

            /// Every row in table order, with this snapshot's values.
            fn rows(&self) -> Vec<Row> {
                vec![$(Row {
                    series: [$($series,)? stringify!($name)][0],
                    kind: cell!(kind $kind),
                    help: $help,
                    group: stringify!($group),
                    label: $label,
                    sample: cell!(sample $ty, self.$name),
                    cell: cell!(cell $ty, self.$name),
                }),*]
            }

            /// One snapshot per row, all zero but that row.
            #[cfg(test)]
            fn probes() -> Vec<(&'static str, $Stats)> {
                vec![$((stringify!($name), $Stats {
                    $name: <$ty>::try_from(1u8).expect("every row type holds a 1"),
                    ..Default::default()
                })),*]
            }
        }
    };
}

/// Declares the service's scalars: [`ServiceStats`] from every row, and
/// from the rows outside `derived` the atomics of [`ServiceMetrics`], their
/// zeros and their loads. The `derived` rows are rates `snapshot` computes.
macro_rules! service_table {
    ({$($head:tt)*} derived {$($derived:tt)*} {$($rest:tt)*}) => {
        stats_record! {
            /// A point-in-time view of the service's telemetry.
            pub struct ServiceStats {
                rows { $($head)* $($derived)* $($rest)* }
                tail {
                    /// Per-backend health rows (breaker state, ejections/readmissions,
                    /// probe tallies), sorted by address; populated by a routing tier
                    /// (`amalgam-proxy`), empty otherwise.
                    backends: Vec<BackendStats>,
                    /// Per-session QoS rows (queue depth, dispatch/shed tallies), sorted by
                    /// session name; every session that ever submitted has a row.
                    sessions: Vec<SessionStats>,
                    /// Per-stage latency histograms (only stages that recorded at least
                    /// one value), in [`Stage`] order.
                    histograms: Vec<(Stage, HistogramSnapshot)>,
                }
            }
        }
        service_table!(@atomics $($head)* $($rest)*);
    };
    (@atomics $(
        $(#[$doc:meta])*
        $name:ident $(as $series:literal)?: $kind:ident $ty:ident,
        $group:ident $label:literal, $help:literal;
    )*) => {
        /// Shared atomic counters. Writers are the submit path (queue gauge), the
        /// worker loop (dequeue) and [`crate::middleware::MetricsLayer`]; readers
        /// call [`snapshot`](Self::snapshot) at any time.
        #[derive(Debug)]
        pub struct ServiceMetrics {
            started_at: Instant,
            // Time inside the stack, summed: the numerator of `mean_job_seconds`.
            busy_nanos: AtomicU64,
            $($name: cell!(atomic $ty),)*
            // Per-backend health rows, keyed by the backend's dial address
            // (a row's own `addr` is filled in at snapshot time).
            backends: Mutex<HashMap<String, BackendStats>>,
            // QoS counters per session. Keyed by the SessionKey itself (cheap
            // clones: a u64 or an Arc<str>) — display names are only rendered at
            // snapshot time, off the per-job hot path.
            sessions: Mutex<HashMap<SessionKey, SessionStats>>,
            // Per-stage latency histograms and the flight recorder.
            telemetry: Telemetry,
        }

        impl ServiceMetrics {
            /// Zeroed counters with an explicit telemetry configuration.
            pub fn with_telemetry(telemetry: &TelemetryConfig) -> ServiceMetrics {
                ServiceMetrics {
                    started_at: Instant::now(),
                    busy_nanos: AtomicU64::new(0),
                    $($name: Default::default(),)*
                    backends: Mutex::new(HashMap::new()),
                    sessions: Mutex::new(HashMap::new()),
                    telemetry: Telemetry::new(telemetry),
                }
            }

            /// Loads every counter; the derived rows and the tables stay zero.
            fn load(&self) -> ServiceStats {
                ServiceStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    ..Default::default()
                }
            }
        }
    };
}

service_table! {
    {
        queue_depth: gauge usize, queue "depth", "Jobs waiting right now.";
        in_flight: gauge usize, queue "in-flight", "Jobs inside the stack right now.";
        /// Includes the ones later rejected, rate-limited, cancelled or
        /// answered by dedup.
        jobs_submitted: counter u64, jobs "submitted", "Jobs ever submitted.";
        jobs_completed: counter u64, jobs "completed", "Jobs trained to completion.";
        /// Decode, validation and panic errors.
        jobs_failed: counter u64, jobs "failed", "Jobs answered with an error.";
        jobs_rejected: counter u64, jobs "rejected", "Jobs shed by admission control.";
        /// Also counted in [`jobs_failed`](Self::jobs_failed).
        jobs_panicked: counter u64, jobs "panicked", "Jobs whose processing panicked.";
        /// Everything the metrics layer saw arrive, refused jobs included.
        bytes_received as "job_bytes_received": counter u64, bytes "job in", "Uploaded job bytes.";
        /// Completed jobs only.
        bytes_sent as "job_bytes_sent": counter u64, bytes "job out", "Result bytes returned.";
    }
    derived {
        mean_job_seconds: gauge f64,
            rates "mean job s", "Mean wall-clock seconds per completed job.";
        jobs_per_second: gauge f64, rates "jobs/s", "Completed jobs per uptime second.";
        uptime_seconds: gauge f64, rates "uptime s", "Seconds since service start.";
    }
    {
        /// 0 without a [`crate::CloudServer`] in front.
        connections_accepted: counter u64,
            transport "accepted", "Sessions that completed a handshake.";
        /// Capacity, bad handshake or version mismatch.
        connections_rejected: counter u64,
            transport "rejected", "Connections refused before a session existed.";
        connections_active: gauge usize, transport "active", "Sessions open right now.";
        /// Over all sessions, control frames included; a routing tier's
        /// backend face counts in
        /// [`relay_frames_received`](Self::relay_frames_received).
        frames_received: counter u64, transport "frames in", "Frames received (client face).";
        /// Over all sessions, control frames included.
        frames_sent: counter u64, transport "frames out", "Frames sent (client face).";
        /// Keep-alive Ping/Pong, handshake, admin — so
        /// `frames_received - control_frames_received` tracks job traffic.
        control_frames_received: counter u64, transport "ctl in",
            "Protocol-overhead frames received (subset of frames_received_total).";
        control_frames_sent: counter u64, transport "ctl out",
            "Protocol-overhead frames sent (subset of frames_sent_total).";
        /// Kept out of [`frames_received`](Self::frames_received) so one
        /// proxied job is counted once per face, not twice on one counter.
        relay_frames_received: counter u64, transport "relay in",
            "Frames received on backend-face links (routing tier).";
        relay_frames_sent: counter u64, transport "relay out",
            "Frames sent on backend-face links (routing tier).";
        /// Frame payloads plus length prefixes, both faces of a routing tier.
        transport_bytes_received: counter u64, bytes "wire in", "Wire bytes received.";
        /// Frame payloads plus length prefixes, both faces of a routing tier.
        transport_bytes_sent: counter u64, bytes "wire out", "Wire bytes sent.";
        /// Answered with [`crate::CloudError::RateLimited`].
        jobs_rate_limited: counter u64,
            jobs "rate-limited", "Jobs refused by the per-session rate limiter.";
        /// Connections plus one waker per I/O thread; 0 without a
        /// [`crate::CloudServer`].
        reactor_registered_fds: gauge usize,
            reactor "fds", "Sockets registered with the event-loop pollers.";
        /// New connections, completed jobs, shutdown. Coalesced wakes count
        /// once.
        reactor_wakeups: counter u64, reactor "wakeups", "Cross-thread event-loop wake-ups.";
        reactor_events: counter u64, reactor "events", "Readiness events processed.";
        /// Frames the sockets weren't ready to take, right now.
        reactor_write_queue_bytes: gauge usize,
            reactor "write-queue B", "Bytes parked in write queues (backpressure gauge).";
        /// ([`crate::CloudServiceBuilder::result_cache`].) Counted in
        /// [`jobs_submitted`](Self::jobs_submitted), but they never occupied
        /// the queue or a worker, so they are *not* in
        /// [`jobs_completed`](Self::jobs_completed).
        cache_hits: counter u64,
            queue "cache hits", "Submissions answered from the result cache.";
        /// Each attached as a waiter to an identical in-flight job and was
        /// answered by its one execution.
        coalesced: counter u64,
            queue "coalesced", "Submissions coalesced onto in-flight duplicates.";
        /// By a self-healing component (a routing tier's backend redials; 0
        /// without one in front).
        reconnects: counter u64, healing "reconnects", "Lost links re-established.";
        /// Or after a reconnect. Replays are content-addressed, so they
        /// dedup instead of training twice.
        jobs_resubmitted: counter u64,
            healing "resubmitted", "In-flight jobs replayed after failover.";
        /// Live ones, mid-flight.
        failovers: counter u64, healing "failovers", "Sessions that abandoned a dying backend.";
        /// One per waiter per epoch. Conservation law:
        /// `progress_frames_emitted == progress_frames_delivered +
        /// progress_frames_dropped`.
        progress_frames_emitted: counter u64,
            lifecycle "progress emitted", "Progress frames emitted toward any sink.";
        /// Queued on a live connection, or received by an in-process
        /// handle.
        progress_frames_delivered: counter u64,
            lifecycle "delivered", "Progress frames that reached their sink.";
        /// Or a broken or closing connection. Progress is advisory, so drops
        /// are legal — but always counted.
        progress_frames_dropped: counter u64,
            lifecycle "dropped", "Progress frames dropped (dead sink).";
        /// [`crate::CloudError::Cancelled`]; kept out of
        /// [`jobs_failed`](Self::jobs_failed): the submitter asked for this.
        jobs_cancelled: counter u64, lifecycle "cancelled",
            "Jobs resolved with Cancelled at the submitter's request.";
        jobs_resumed: counter u64,
            lifecycle "resumed", "Jobs resumed from a checkpoint instead of epoch 0.";
        checkpoints_written: counter u64,
            lifecycle "ckpt written", "Mid-training checkpoints stored.";
        /// Failed validation: checksum, truncation or an impossible epoch.
        checkpoints_rejected: counter u64, lifecycle "ckpt rejected",
            "Corrupt or stale checkpoints scrubbed before recompute.";
        /// After a kill-and-resume, the restarted server's count stays
        /// strictly below the job's total — the observable proof that resume
        /// skipped work.
        epochs_trained: counter u64, lifecycle "epochs", "Training epochs actually executed.";
    }
}

/// Groups the operator table prints only once one of their rows is non-zero.
const QUIET_GROUPS: [&str; 2] = ["healing", "lifecycle"];

stats_record! {
    /// One backend's slice of a routing tier's telemetry: where its circuit
    /// breaker stands and how often it has been ejected, probed, readmitted,
    /// and failed away from.
    pub struct BackendStats {
        key addr, "The backend's dial address.";
        rows {
            health: gauge BackendHealth, backend "health", "Current circuit-breaker position.";
            sessions_routed: counter u64,
                backend "routed", "Sessions ever routed (or failed over) to this backend.";
            ejections: counter u64,
                backend "ejected", "Times the breaker opened (closed/half-open → open).";
            readmissions: counter u64,
                backend "readmitted", "Times the breaker closed again after probation.";
            probes_ok: counter u64, backend "probes ok", "Health probes that succeeded.";
            probes_failed: counter u64, backend "failed", "Health probes that failed.";
            failovers: counter u64,
                backend "failovers", "Live sessions that abandoned this backend mid-flight.";
            jobs_resubmitted: counter u64, backend "resubmitted",
                "In-flight jobs replayed onto this backend after failovers.";
        }
    }
}

stats_record! {
    /// One session's slice of the service telemetry.
    ///
    /// A *session* is a [`SessionKey`]: an API key (shared by every connection
    /// and client presenting it) or one anonymous client/connection. Rows are
    /// how the fairness and rate-limit tests observe who actually got the
    /// workers. They persist while a session has work queued; once the table
    /// holds thousands of rows, idle sessions' rows may be evicted (aggregate
    /// counters like [`ServiceStats::jobs_completed`] are unaffected).
    pub struct SessionStats {
        key key, "[`SessionKey::display_name`] of the session.";
        rows {
            weight: gauge f64, session "w",
                "The DRR weight the scheduler grants the session (default 1.0).";
            queue_depth: gauge usize,
                session "depth", "Jobs waiting in this session's queue right now.";
            jobs_submitted: counter u64, session "submitted",
                "Jobs this session ever submitted (including later-refused ones).";
            /// The fairness counter: under contention, dispatch shares track
            /// session weights.
            jobs_dispatched: counter u64,
                session "dispatched", "Jobs the DRR scheduler handed to workers.";
            jobs_completed: counter u64, session "completed", "Jobs trained to completion.";
            jobs_failed: counter u64, session "failed",
                "Jobs answered with a non-QoS error (decode/validation/panic/auth).";
            /// Also counted in [`jobs_shed`](Self::jobs_shed).
            jobs_rate_limited: counter u64,
                session "rate-limited", "Jobs refused by the session's token bucket.";
            /// Rate limiter, admission control, or the transport's
            /// per-connection in-flight cap.
            jobs_shed: counter u64, session "shed", "Jobs shed by any QoS gate.";
            cache_hits: counter u64, session "cache hits",
                "This session's submissions answered straight from the result cache.";
            coalesced: counter u64, session "coalesced",
                "This session's submissions coalesced onto an identical in-flight job.";
            /// Each coalesced waiter counts its own copy.
            progress_frames: counter u64,
                session "progress", "Progress frames emitted for this session's jobs.";
        }
    }
}

impl ServiceMetrics {
    /// Zeroed counters with the uptime clock started and default
    /// [`TelemetryConfig`] (histograms and flight recorder on).
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::with_telemetry(&TelemetryConfig::default())
    }

    /// The latency histograms and flight recorder riding these counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs `f` on the session's counters, creating the row on first use.
    /// When the table is about to outgrow [`MAX_SESSION_ROWS`], rows of
    /// idle sessions (nothing queued) are evicted first.
    fn with_session(&self, session: &SessionKey, f: impl FnOnce(&mut SessionStats)) {
        let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        if sessions.len() >= MAX_SESSION_ROWS && !sessions.contains_key(session) {
            sessions.retain(|_, c| c.queue_depth > 0);
        }
        f(sessions.entry(session.clone()).or_default())
    }

    /// Submit path: one job entered `session`'s queue (recording the DRR
    /// `weight` the scheduler grants it).
    pub(crate) fn session_submitted(&self, session: &SessionKey, weight: f64) {
        self.with_session(session, |s| {
            s.weight = weight;
            s.jobs_submitted += 1;
            s.queue_depth += 1;
        });
    }

    /// Submit path rollback when the queue refused the envelope.
    /// Saturating, like [`session_dispatched`](Self::session_dispatched):
    /// if eviction ever hands this a fresh zeroed row, a wrapped counter
    /// must not poison every later snapshot.
    pub(crate) fn session_unqueued(&self, session: &SessionKey) {
        self.with_session(session, |s| {
            s.jobs_submitted = s.jobs_submitted.saturating_sub(1);
            s.queue_depth = s.queue_depth.saturating_sub(1);
        });
    }

    /// Worker path: the DRR scheduler handed one of `session`'s jobs to a
    /// worker (the fairness counter).
    pub(crate) fn session_dispatched(&self, session: &SessionKey) {
        self.with_session(session, |s| {
            s.jobs_dispatched += 1;
            s.queue_depth = s.queue_depth.saturating_sub(1);
        });
    }

    /// Metrics layer: one of `session`'s jobs left the stack with `result`.
    pub(crate) fn session_finished(
        &self,
        session: &SessionKey,
        result: &Result<JobResult, CloudError>,
    ) {
        self.with_session(session, |s| match result {
            Ok(_) => s.jobs_completed += 1,
            Err(CloudError::RateLimited { .. }) => {
                s.jobs_rate_limited += 1;
                s.jobs_shed += 1;
            }
            Err(CloudError::Overloaded { .. }) => s.jobs_shed += 1,
            Err(_) => s.jobs_failed += 1,
        });
    }

    /// Transport path: the per-connection in-flight cap refused one of
    /// `session`'s submits before it reached the queue.
    pub(crate) fn session_shed(&self, session: &SessionKey) {
        self.with_session(session, |s| s.jobs_shed += 1);
    }

    /// Dedup path: a submission was answered straight from the result
    /// cache — it counts as submitted, but never touched the queue.
    pub(crate) fn job_cache_hit(&self, session: &SessionKey) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.cache_hits += 1;
        });
    }

    /// Dedup path: a submission attached as a waiter to an in-flight
    /// duplicate instead of enqueueing its own execution.
    pub(crate) fn job_coalesced(&self, session: &SessionKey) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.coalesced += 1;
        });
    }

    /// Dedup path: the rate limiter refused a would-be cache hit or
    /// coalesced attach at submit time (bumping the same counters an
    /// in-stack [`crate::RateLimitLayer`] rejection would).
    pub(crate) fn job_rate_limited_at_submit(&self, session: &SessionKey) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.jobs_rate_limited.fetch_add(1, Ordering::Relaxed);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.jobs_rate_limited += 1;
            s.jobs_shed += 1;
        });
    }

    /// Transport path: a connection completed its handshake.
    pub fn conn_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Transport path: an accepted connection ended (any reason).
    pub fn conn_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Transport path: a connection was refused (capacity, handshake or
    /// version/auth failure before a session was established).
    pub fn conn_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Transport path: one framed message arrived (`wire_len` includes the
    /// length prefix).
    pub fn frame_received(&self, wire_len: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.transport_bytes_received
            .fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Transport path: one framed message was committed to a connection's
    /// write queue. Counted at commit so a peer that has observed the
    /// frame is guaranteed to find it counted; frames later discarded
    /// unsent are rolled back via `frame_send_aborted`.
    pub fn frame_sent(&self, wire_len: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.transport_bytes_sent
            .fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Transport path: a committed frame was discarded before its bytes
    /// fully reached the socket (broken sink).
    pub(crate) fn frame_send_aborted(&self, wire_len: usize) {
        self.frames_sent.fetch_sub(1, Ordering::Relaxed);
        self.transport_bytes_sent
            .fetch_sub(wire_len as u64, Ordering::Relaxed);
    }

    /// Transport path: a protocol-overhead frame arrived (keep-alive,
    /// handshake, admin). Counted in the frame totals *and* the control
    /// sub-count, so `frames_received - control_frames_received` is job
    /// throughput.
    pub fn control_frame_received(&self, wire_len: usize) {
        self.frame_received(wire_len);
        self.control_frames_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Transport path: a protocol-overhead frame was committed for send.
    pub fn control_frame_sent(&self, wire_len: usize) {
        self.frame_sent(wire_len);
        self.control_frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Transport path: a committed protocol-overhead frame was discarded
    /// unsent — out of the totals and the control sub-count alike, so the
    /// sub-count never exceeds the total it is part of.
    pub(crate) fn control_frame_send_aborted(&self, wire_len: usize) {
        self.frame_send_aborted(wire_len);
        self.control_frames_sent.fetch_sub(1, Ordering::Relaxed);
    }

    /// Routing tier: one frame arrived on a *backend-face* link. Wire
    /// bytes count toward the transport totals (it is real wire traffic),
    /// but the frame lands in `relay_frames_received` instead of
    /// `frames_received`, so a proxied job is not double-counted.
    pub fn relay_frame_received(&self, wire_len: usize) {
        self.relay_frames_received.fetch_add(1, Ordering::Relaxed);
        self.transport_bytes_received
            .fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Routing tier: one frame was written to a *backend-face* link.
    pub fn relay_frame_sent(&self, wire_len: usize) {
        self.relay_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.transport_bytes_sent
            .fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Reactor path: a socket was registered with an event loop's poller.
    pub(crate) fn reactor_fd_registered(&self) {
        self.reactor_registered_fds.fetch_add(1, Ordering::Relaxed);
    }

    /// Reactor path: a socket left its event loop's poller.
    pub(crate) fn reactor_fd_deregistered(&self) {
        self.reactor_registered_fds.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reactor path: a cross-thread wake-up interrupted (or preempted) a
    /// poll — new connection, completed job, or shutdown. Coalesced wakes
    /// count once.
    pub(crate) fn reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Reactor path: one poll returned `n` readiness events.
    pub(crate) fn reactor_events(&self, n: usize) {
        self.reactor_events.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Reactor path: `bytes` were queued on a connection's write queue
    /// (the socket wasn't ready to take them synchronously).
    pub(crate) fn write_queue_grew(&self, bytes: usize) {
        self.reactor_write_queue_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Reactor path: `bytes` left a connection's write queue (flushed to
    /// the socket, or discarded with a broken connection).
    pub(crate) fn write_queue_shrank(&self, bytes: usize) {
        self.reactor_write_queue_bytes
            .fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Submit path: counts the job and bumps the queue gauge, returning the
    /// depth the job found (jobs already waiting).
    pub(crate) fn job_queued(&self) -> usize {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed)
    }

    /// Submit path rollback when the channel rejected the envelope.
    pub(crate) fn job_unqueued(&self) {
        self.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Worker path: a job left the queue for a worker.
    pub(crate) fn job_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Metrics layer: a job entered the stack. The returned guard restores
    /// the in-flight gauge even if the job panics out of the stack (with
    /// `catch_panics(false)` the unwind would otherwise leak it forever).
    pub(crate) fn job_started(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(self)
    }

    /// Metrics layer: a job left the stack with `result` after `elapsed`.
    pub(crate) fn job_finished(
        &self,
        bytes_in: usize,
        result: &Result<JobResult, CloudError>,
        elapsed: Duration,
    ) {
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes_in as u64, Ordering::Relaxed);
        match result {
            Ok(r) => {
                self.jobs_completed.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent
                    .fetch_add(r.bytes_sent as u64, Ordering::Relaxed);
            }
            Err(CloudError::Overloaded { .. }) => {
                self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(CloudError::RateLimited { .. }) => {
                self.jobs_rate_limited.fetch_add(1, Ordering::Relaxed);
            }
            Err(CloudError::Panicked(_)) => {
                self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(CloudError::Cancelled) => {
                self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Runs `f` on a backend's counters, creating the row on first use.
    /// Rows are bounded by the fleet size a router is configured with, so
    /// no eviction is needed.
    fn with_backend(&self, addr: &str, f: impl FnOnce(&mut BackendStats)) {
        let mut backends = self.backends.lock().unwrap_or_else(PoisonError::into_inner);
        f(backends.entry(addr.to_string()).or_default())
    }

    /// Routing tier: declares a backend so its row exists (healthy, all
    /// zeros) before any traffic or incident touches it.
    pub fn backend_registered(&self, addr: &str) {
        self.with_backend(addr, |_| {});
    }

    /// Routing tier: the backend's circuit breaker moved to `health`
    /// (probation entry/exit; ejections and readmissions have their own
    /// recorders which also set it).
    pub fn backend_health(&self, addr: &str, health: BackendHealth) {
        self.with_backend(addr, |b| b.health = health);
    }

    /// Routing tier: the breaker opened — the backend is ejected from
    /// routing.
    pub fn backend_ejected(&self, addr: &str) {
        self.with_backend(addr, |b| {
            b.health = BackendHealth::Open;
            b.ejections += 1;
        });
    }

    /// Routing tier: the breaker closed again — the backend is readmitted.
    pub fn backend_readmitted(&self, addr: &str) {
        self.with_backend(addr, |b| {
            b.health = BackendHealth::Closed;
            b.readmissions += 1;
        });
    }

    /// Routing tier: one health probe finished.
    pub fn backend_probe(&self, addr: &str, ok: bool) {
        self.with_backend(addr, |b| {
            if ok {
                b.probes_ok += 1;
            } else {
                b.probes_failed += 1;
            }
        });
    }

    /// Routing tier: a session was routed (or failed over) to this
    /// backend.
    pub fn backend_session_routed(&self, addr: &str) {
        self.with_backend(addr, |b| b.sessions_routed += 1);
    }

    /// Routing tier: a live session abandoned this backend mid-flight.
    pub fn backend_failover(&self, addr: &str) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        self.with_backend(addr, |b| b.failovers += 1);
    }

    /// Routing tier: `n` in-flight jobs were replayed onto this backend
    /// after a failover (content-addressed, so replays dedup server-side).
    pub fn backend_jobs_resubmitted(&self, addr: &str, n: u64) {
        self.jobs_resubmitted.fetch_add(n, Ordering::Relaxed);
        self.with_backend(addr, |b| b.jobs_resubmitted += n);
    }

    /// Routing tier or client: a lost link was re-established.
    pub fn reconnect_established(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Streaming path: one progress frame was emitted toward `session` (one
    /// per waiter — a dedup-coalesced execution emits once per attached
    /// session, so every waiter's row gets its own accounting). Every emit
    /// later resolves to exactly one `progress_frame_delivered` or
    /// `progress_frame_dropped`.
    pub fn progress_frame_emitted(&self, session: &SessionKey) {
        self.progress_frames_emitted.fetch_add(1, Ordering::Relaxed);
        self.with_session(session, |s| s.progress_frames += 1);
    }

    /// Streaming path: an emitted progress frame reached its sink (queued
    /// on a live v2 connection, or received by an in-process handle).
    pub fn progress_frame_delivered(&self) {
        self.progress_frames_delivered
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Streaming path: an emitted progress frame was dropped — dead
    /// handle, broken sink, draining connection, or residue drained when a
    /// connection closed. Dropping is legal (progress is advisory); losing *count* of
    /// a drop is not, so emitted == delivered + dropped always holds.
    pub fn progress_frame_dropped(&self) {
        self.progress_frames_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Durable lifecycle: a job resumed from a checkpoint instead of
    /// recomputing from epoch 0.
    pub fn job_resumed(&self) {
        self.jobs_resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Durable lifecycle: one checkpoint was encoded and stored.
    pub fn checkpoint_written(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Durable lifecycle: a stored checkpoint failed validation and was
    /// scrubbed; the job recomputed from epoch 0.
    pub fn checkpoint_rejected(&self) {
        self.checkpoints_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Train path: one epoch actually executed (resumed epochs are *not*
    /// re-counted — the kill-and-resume gate compares this against the
    /// job's total).
    pub fn epoch_trained(&self) {
        self.epochs_trained.fetch_add(1, Ordering::Relaxed);
    }
    /// A point-in-time copy of every counter plus derived rates.
    pub fn snapshot(&self) -> ServiceStats {
        let mut stats = self.load();
        let completed = stats.jobs_completed as f64;
        let busy = Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)).as_secs_f64();
        let uptime = self.started_at.elapsed().as_secs_f64();
        let per = |total: f64, of: f64| if of > 0.0 { total / of } else { 0.0 };
        stats.mean_job_seconds = per(busy, completed);
        stats.jobs_per_second = per(completed, uptime);
        stats.uptime_seconds = uptime;
        stats.backends = (self
            .backends
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter())
        .map(|(addr, row)| BackendStats {
            addr: addr.clone(),
            ..row.clone()
        })
        .collect();
        stats.backends.sort_by(|a, b| a.addr.cmp(&b.addr));
        stats.sessions = (self
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter())
        .map(|(key, row)| SessionStats {
            key: key.display_name(),
            ..row.clone()
        })
        .collect();
        stats.sessions.sort_by(|a, b| a.key.cmp(&b.key));
        stats.histograms = self.telemetry.snapshot();
        stats
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

/// Decrements the in-flight gauge on drop, surviving unwinds.
pub(crate) struct InFlightGuard<'a>(&'a ServiceMetrics);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServiceStats {
    /// The snapshot's histogram for `stage`, if that stage recorded
    /// anything.
    pub fn hist(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Serializes the full snapshot — every counter, the backend and
    /// session tables, and the histograms — into the byte body a
    /// [`crate::transport::Frame::Stats`] carries.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.put_u32(self.backends.len() as u32);
        for backend in &self.backends {
            backend.encode_into(&mut w);
        }
        w.put_u32(self.sessions.len() as u32);
        for session in &self.sessions {
            session.encode_into(&mut w);
        }
        w.put_u32(self.histograms.len() as u32);
        for (stage, hist) in &self.histograms {
            w.put_u8(*stage as u8);
            hist.encode_into(&mut w);
        }
        w.finish()
    }

    /// Decodes a snapshot produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncation, trailing bytes, or an
    /// unknown health/stage tag.
    pub fn from_bytes(bytes: Bytes) -> Result<ServiceStats, CloudError> {
        let mut r = Reader::new(bytes);
        let mut stats = ServiceStats::decode_from(&mut r)?;
        for _ in 0..r.get_u32().map_err(stats_err)? {
            stats.backends.push(BackendStats::decode_from(&mut r)?);
        }
        for _ in 0..r.get_u32().map_err(stats_err)? {
            stats.sessions.push(SessionStats::decode_from(&mut r)?);
        }
        for _ in 0..r.get_u32().map_err(stats_err)? {
            let stage = Stage::from_u8(r.get_u8().map_err(stats_err)?)?;
            let hist = HistogramSnapshot::decode_from(&mut r)?;
            stats.histograms.push((stage, hist));
        }
        if r.remaining() != 0 {
            return Err(CloudError::Decode(format!(
                "{} trailing bytes after stats snapshot",
                r.remaining()
            )));
        }
        Ok(stats)
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): one `amalgam_<row>` series per scalar row (`_total`
    /// appended to a counter's), one `amalgam_backend_<row>{backend="…"}`
    /// series per backend row, and summary-style quantile series per stage
    /// histogram. This is the body the HTTP exporter
    /// ([`crate::CloudServiceBuilder::metrics_exporter`]) serves on
    /// `/metrics`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        // Writes a row's HELP and TYPE and returns its series name.
        fn declare(out: &mut String, prefix: &str, row: &Row) -> String {
            let total = if row.kind == "counter" { "_total" } else { "" };
            let name = format!("amalgam_{prefix}{}{total}", row.series);
            let _ = writeln!(out, "# HELP {name} {}", row.help);
            let _ = writeln!(out, "# TYPE {name} {}", row.kind);
            name
        }
        let mut out = String::with_capacity(8192);
        for row in self.rows() {
            let name = declare(&mut out, "", &row);
            let _ = writeln!(out, "{name} {}", row.sample);
        }
        // A series' samples stay together: row by row, one sample a backend.
        let backends: Vec<Vec<Row>> = self.backends.iter().map(BackendStats::rows).collect();
        for (i, row) in backends.first().into_iter().flatten().enumerate() {
            let name = declare(&mut out, "backend_", row);
            for (backend, rows) in self.backends.iter().zip(&backends) {
                let (addr, sample) = (&backend.addr, &rows[i].sample);
                let _ = writeln!(out, "{name}{{backend={addr:?}}} {sample}");
            }
        }
        let series = "amalgam_latency_microseconds";
        let _ = writeln!(
            out,
            "# HELP {series} Per-stage latency quantiles (log-linear histogram, error <= 1/16)."
        );
        let _ = writeln!(out, "# TYPE {series} summary");
        for (stage, hist) in &self.histograms {
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                let micros = hist.quantile(q);
                let _ = writeln!(
                    out,
                    "{series}{{stage=\"{stage}\",quantile=\"{label}\"}} {micros}"
                );
            }
            for (part, v) in [("sum", hist.sum), ("count", hist.count), ("max", hist.max)] {
                let _ = writeln!(out, "{series}_{part}{{stage=\"{stage}\"}} {v}");
            }
        }
        out
    }

    /// Checks the conservation laws a *quiescent* snapshot obeys (nothing
    /// mid-submit, mid-reply or mid-emit — a test's teardown, not a live
    /// scrape: the counters are loaded one by one, not atomically).
    ///
    /// # Errors
    ///
    /// Names every broken law, above the snapshot's own table.
    pub fn check_invariants(&self) -> Result<(), String> {
        let answered = self.jobs_completed
            + self.jobs_failed
            + self.jobs_rejected
            + self.jobs_rate_limited
            + self.jobs_cancelled
            + self.cache_hits
            + self.coalesced;
        let waiting = (self.queue_depth + self.in_flight) as u64;
        let resolved = self.progress_frames_delivered + self.progress_frames_dropped;
        let by_session: u64 = self.sessions.iter().map(|s| s.jobs_submitted).sum();
        let may_have_evicted = self.jobs_submitted >= MAX_SESSION_ROWS as u64;
        let laws = [
            // Every submission was answered one way, or still waits.
            (
                self.jobs_submitted == answered + waiting,
                "jobs_submitted == completed + failed + rejected + rate_limited + cancelled \
                 + cache_hits + coalesced + queue_depth + in_flight",
            ),
            // Every submission is on its session's row too. A row takes a
            // submission to create, so under `MAX_SESSION_ROWS` submissions
            // none was evicted; past that the rows may sum to less.
            (
                by_session == self.jobs_submitted
                    || (may_have_evicted && by_session < self.jobs_submitted),
                "sum of sessions' jobs_submitted == jobs_submitted",
            ),
            // Every emitted progress frame met exactly one fate.
            (
                self.progress_frames_emitted == resolved,
                "progress_frames_emitted == delivered + dropped",
            ),
            // Control frames are a sub-count of the client face's totals.
            (
                self.control_frames_received <= self.frames_received,
                "control_frames_received <= frames_received",
            ),
            (
                self.control_frames_sent <= self.frames_sent,
                "control_frames_sent <= frames_sent",
            ),
        ];
        let broken: Vec<&str> = (laws.iter().filter(|(holds, _)| !holds))
            .map(|(_, law)| *law)
            .collect();
        if broken.is_empty() {
            Ok(())
        } else {
            Err(format!("broken: {}\n{self}", broken.join("; ")))
        }
    }
}

/// Writes one operator-table line: `head`, then each row's label and value.
fn write_rows<'r>(
    f: &mut fmt::Formatter<'_>,
    head: &str,
    rows: impl IntoIterator<Item = &'r Row>,
) -> fmt::Result {
    let mut line = format!("{head:<10}");
    for row in rows {
        line.push_str(&format!(" {} {:<7}", row.label, row.cell));
    }
    writeln!(f, "{}", line.trim_end())
}

impl fmt::Display for ServiceStats {
    /// The operator's table: one line per group of the scalar table (in the
    /// order the groups first appear in it), one per stage histogram, one
    /// per backend and session row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.rows();
        let mut groups: Vec<&str> = Vec::new();
        for row in &rows {
            if !groups.contains(&row.group) {
                groups.push(row.group);
            }
        }
        for group in groups {
            let of_group = || rows.iter().filter(|row| row.group == group);
            if !QUIET_GROUPS.contains(&group) || of_group().any(|row| row.sample != "0") {
                write_rows(f, group, of_group())?;
            }
        }
        for (stage, hist) in &self.histograms {
            let [p50, p95, p99] = [0.5, 0.95, 0.99].map(|q| hist.quantile(q));
            let (stage, max, count) = (stage.as_str(), hist.max, hist.count);
            writeln!(
                f,
                "latency µs {stage:<18} p50 {p50:<7} p95 {p95:<7} p99 {p99:<7} max {max:<7} count {count}"
            )?;
        }
        for backend in &self.backends {
            write_rows(f, &format!("backend {}", backend.addr), &backend.rows())?;
        }
        for session in &self.sessions {
            write_rows(f, &format!("session {}", session.key), &session.rows())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_nn::metrics::History;
    use bytes::Bytes;

    fn ok_result(bytes_sent: usize) -> Result<JobResult, CloudError> {
        Ok(JobResult {
            job_id: 0,
            trained_model: Bytes::new(),
            history: History::new(),
            bytes_received: 0,
            bytes_sent,
            train_seconds: 0.0,
        })
    }

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = ServiceMetrics::new();
        assert_eq!(m.job_queued(), 0);
        assert_eq!(m.job_queued(), 1);
        m.job_dequeued();
        m.job_started();
        m.job_finished(100, &ok_result(40), Duration::from_millis(2));
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Decode("x".into())),
            Duration::from_millis(1),
        );
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Panicked("boom".into())),
            Duration::from_millis(1),
        );
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Overloaded {
                queue_depth: 9,
                max_queue_depth: 1,
            }),
            Duration::ZERO,
        );
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.jobs_failed, 2);
        assert_eq!(s.jobs_panicked, 1);
        assert_eq!(s.jobs_rejected, 1);
        assert_eq!(s.bytes_received, 121);
        assert_eq!(s.bytes_sent, 40);
        assert!(s.mean_job_seconds > 0.0);
        assert!(s.uptime_seconds >= 0.0);
    }

    #[test]
    fn control_and_relay_frames_split_out_of_job_traffic() {
        let m = ServiceMetrics::new();
        m.frame_received(100); // a Submit
        m.control_frame_received(9); // a Ping
        m.control_frame_sent(9); // the Pong
        m.frame_sent(50); // the Reply
        m.relay_frame_sent(100); // forwarded to a backend
        m.relay_frame_received(50); // the backend's reply
        let s = m.snapshot();
        assert_eq!(s.frames_received, 2);
        assert_eq!(s.control_frames_received, 1);
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.control_frames_sent, 1);
        assert_eq!(s.relay_frames_received, 1);
        assert_eq!(s.relay_frames_sent, 1);
        // Job throughput = totals minus control, unpolluted by the relay.
        assert_eq!(s.frames_received - s.control_frames_received, 1);
        // Wire bytes cover both faces.
        assert_eq!(s.transport_bytes_received, 100 + 9 + 50);
        assert_eq!(s.transport_bytes_sent, 9 + 50 + 100);
    }

    fn one_sample(stage: Stage) -> ServiceStats {
        let telemetry = Telemetry::default();
        telemetry.record(stage, Duration::from_micros(850));
        ServiceStats {
            histograms: telemetry.snapshot(),
            ..Default::default()
        }
    }

    fn with_backend(row: BackendStats) -> ServiceStats {
        ServiceStats {
            backends: vec![row],
            ..Default::default()
        }
    }

    fn with_session(row: SessionStats) -> ServiceStats {
        ServiceStats {
            sessions: vec![row],
            ..Default::default()
        }
    }

    /// One snapshot per row of every table — scalar, backend, session and
    /// stage — with that row alone off its zero, beside the snapshot it is
    /// to be told apart from and whether the row belongs in the scrape.
    fn row_probes() -> Vec<(String, ServiceStats, ServiceStats, bool)> {
        let scalars = ServiceStats::probes().into_iter();
        let backends = BackendStats::probes().into_iter();
        let sessions = SessionStats::probes().into_iter();
        let stages = Stage::ALL.into_iter();
        let zero = ServiceStats::default;
        (scalars.map(|(name, probe)| (name.to_string(), probe, zero(), true)))
            .chain(backends.map(|(name, row)| {
                let base = with_backend(BackendStats::default());
                (format!("backend {name}"), with_backend(row), base, true)
            }))
            .chain(sessions.map(|(name, row)| {
                let base = with_session(SessionStats::default());
                (format!("session {name}"), with_session(row), base, false)
            }))
            .chain(stages.map(|stage| (format!("stage {stage}"), one_sample(stage), zero(), true)))
            .collect()
    }

    /// The names rustdoc would list for `T`: what `derive(Debug)` prints at
    /// the first level of nesting.
    fn debug_fields<T: std::fmt::Debug + Default>() -> Vec<String> {
        format!("{:#?}", T::default())
            .lines()
            .filter(|line| line.starts_with("    ") && !line.starts_with("     "))
            .filter_map(|line| {
                line.trim()
                    .split_once(": ")
                    .map(|(name, _)| name.to_string())
            })
            .collect()
    }

    #[test]
    fn every_row_reaches_every_rendering() {
        for (name, probe, base, scraped) in row_probes() {
            assert_ne!(probe.to_bytes(), base.to_bytes(), "{name}: wire");
            assert_ne!(
                probe.to_string(),
                base.to_string(),
                "{name}: operator table"
            );
            assert_eq!(
                probe.to_prometheus() != base.to_prometheus(),
                scraped,
                "{name}: scrape"
            );
        }
        // And no field goes around a table: every public field is its key, a
        // row or one of the three tail tables.
        fn names<S>(key: &[&str], probes: Vec<(&'static str, S)>, tail: &[&str]) -> Vec<String> {
            let rows = probes.iter().map(|(name, _)| *name);
            (key.iter().copied().chain(rows).chain(tail.iter().copied()))
                .map(str::to_string)
                .collect()
        }
        assert_eq!(
            debug_fields::<ServiceStats>(),
            names(
                &[],
                ServiceStats::probes(),
                &["backends", "sessions", "histograms"]
            )
        );
        assert_eq!(
            debug_fields::<BackendStats>(),
            names(&["addr"], BackendStats::probes(), &[])
        );
        assert_eq!(
            debug_fields::<SessionStats>(),
            names(&["key"], SessionStats::probes(), &[])
        );
    }

    #[test]
    fn stats_snapshot_wire_roundtrip_is_identity() {
        let m = ServiceMetrics::new();
        m.job_queued();
        m.job_started();
        m.job_finished(64, &ok_result(16), Duration::from_millis(3));
        m.session_submitted(&SessionKey::ApiKey("alpha".into()), 2.0);
        m.backend_registered("10.0.0.1:4000");
        m.backend_probe("10.0.0.1:4000", true);
        m.backend_ejected("10.0.0.1:4000");
        m.telemetry()
            .record(Stage::Train, Duration::from_micros(850));
        m.telemetry()
            .record(Stage::QueueWait, Duration::from_micros(17));
        let live = m.snapshot();
        let probes = row_probes().into_iter().map(|(_, probe, _, _)| probe);
        for s in probes.chain([live]) {
            let back = ServiceStats::from_bytes(s.to_bytes()).unwrap();
            assert_eq!(back, s);
            // And the quantiles survive the trip.
            for (stage, hist) in &s.histograms {
                assert_eq!(back.hist(*stage).unwrap().quantile(0.5), hist.quantile(0.5));
            }
        }
        assert!(ServiceStats::from_bytes(Bytes::from_static(&[0; 7])).is_err());
    }

    #[test]
    fn check_invariants_names_the_broken_law() {
        let m = ServiceMetrics::new();
        let anon = SessionKey::Anonymous(1);
        m.job_queued();
        m.session_submitted(&anon, 1.0);
        m.job_dequeued();
        m.session_dispatched(&anon);
        drop(m.job_started());
        m.job_finished(64, &ok_result(16), Duration::from_millis(3));
        m.job_cache_hit(&anon);
        m.progress_frame_emitted(&anon);
        m.progress_frame_dropped();
        m.control_frame_received(9);
        let mut s = m.snapshot();
        assert_eq!(s.check_invariants(), Ok(()));
        s.progress_frames_emitted += 1;
        s.jobs_cancelled += 1;
        let broken = s.check_invariants().unwrap_err();
        assert!(broken.contains("progress_frames_emitted == "), "{broken}");
        assert!(broken.contains("jobs_submitted == "), "{broken}");
        assert!(!broken.contains("control_frames"), "{broken}");
    }

    #[test]
    fn prometheus_text_has_counters_and_stage_quantiles() {
        let m = ServiceMetrics::new();
        m.job_queued();
        for _ in 0..10 {
            m.telemetry()
                .record(Stage::Train, Duration::from_micros(500));
            m.telemetry()
                .record(Stage::QueueWait, Duration::from_micros(40));
        }
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE amalgam_jobs_submitted_total counter"));
        assert!(text.contains("amalgam_jobs_submitted_total 1"));
        for stage in ["train", "queue_wait"] {
            for q in ["0.5", "0.95", "0.99"] {
                assert!(
                    text.contains(&format!(
                        "amalgam_latency_microseconds{{stage=\"{stage}\",quantile=\"{q}\"}}"
                    )),
                    "missing {stage} q{q} in:\n{text}"
                );
            }
            assert!(text.contains(&format!(
                "amalgam_latency_microseconds_count{{stage=\"{stage}\"}} 10"
            )));
        }
    }

    #[test]
    fn display_renders_quantile_table() {
        let m = ServiceMetrics::new();
        m.telemetry()
            .record(Stage::Train, Duration::from_micros(900));
        let text = m.snapshot().to_string();
        assert!(text.contains("jobs"), "{text}");
        assert!(text.contains("latency"), "{text}");
        assert!(text.contains("train"), "{text}");
    }
}
