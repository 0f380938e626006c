//! Per-session admission-rate policy: a token bucket per session, mounted
//! as the `ratelimit` middleware layer.
//!
//! PR 4 put the stack on a real wire, which means any connected session can
//! submit as fast as its socket allows. The global admission layer only
//! bounds *total* queue depth — one greedy client can fill that budget and
//! starve everyone else. This module adds the per-client half of the
//! policy: every session (API key, or anonymous connection) gets its own
//! [`TokenBucket`], refilled at a configured sustained rate up to a burst
//! capacity, and jobs submitted above that rate are answered with
//! [`CloudError::RateLimited`] carrying an honest `retry_after_ms`.
//!
//! The bucket is judged against each job's **submit timestamp**
//! ([`crate::JobContext::submitted_at`]), not the instant a worker got
//! around to it — a deep queue neither hides a flood nor penalizes a
//! polite client whose job waited. Jobs of one session are dispatched in
//! submit order (the fair queue keeps per-session FIFO), so the timestamps
//! each bucket sees are monotone and the refill math stays exact.
//!
//! The layer sits between admission control and auth (see the
//! [crate docs](crate) for the full diagram): a flood is shed before it is
//! decoded, validated or trained, and the shed is cheap — no tensor bytes
//! are ever touched.

use crate::middleware::{CloudLayer, JobContext, JobService, SessionKey};
use crate::protocol::JobResult;
use crate::CloudError;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Buckets beyond this count trigger a sweep of buckets refilled to full
/// as of the sweep instant. A full bucket is *nearly* indistinguishable
/// from a fresh one — a session whose still-queued jobs predate the sweep
/// can regain at most one extra burst — which is the accepted price for
/// bounding the map against anonymous-session churn.
const PRUNE_THRESHOLD: usize = 4096;

/// A classic token bucket: capacity `burst`, refilled continuously at
/// `rate` tokens per second, one token per admitted job.
///
/// Time is passed in explicitly, so the policy is deterministic under test:
/// feed any monotone sequence of instants and the admit/reject sequence is
/// a pure function of it.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A full bucket (`burst` tokens) refilling at `rate_per_sec`, with
    /// its refill clock starting now.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec > 0` and `burst >= 1` (a bucket that can
    /// never hold one whole token admits nothing, which is a config bug,
    /// not a policy).
    pub fn new(rate_per_sec: f64, burst: f64) -> TokenBucket {
        TokenBucket::new_at(rate_per_sec, burst, Instant::now())
    }

    /// [`new`](Self::new) with an explicit epoch for the refill clock.
    ///
    /// A bucket created lazily — at the first *dispatch* of a session —
    /// must backdate its clock to that session's first *submit* instant:
    /// otherwise every job already queued behind a busy pool would be
    /// judged against a clock that started after they were submitted,
    /// starving a session that never exceeded its sustained rate.
    ///
    /// # Panics
    ///
    /// Same bounds as [`new`](Self::new).
    pub fn new_at(rate_per_sec: f64, burst: f64, epoch: Instant) -> TokenBucket {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "token bucket rate must be positive and finite"
        );
        assert!(
            burst >= 1.0 && burst.is_finite(),
            "token bucket burst must hold at least one token"
        );
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill: epoch,
        }
    }

    /// Tokens available right at `now` (after the refill `now` implies).
    pub fn available_at(&self, now: Instant) -> f64 {
        let dt = now
            .checked_duration_since(self.last_refill)
            .unwrap_or(Duration::ZERO);
        (self.tokens + dt.as_secs_f64() * self.rate_per_sec).min(self.burst)
    }

    /// Takes one token as of `now`, or reports how long after `now` a
    /// retry is guaranteed a token (absent other consumers).
    ///
    /// Instants earlier than the last refill (clock races between
    /// submitting threads of one shared client) are clamped forward, so the
    /// bucket never refills twice for the same wall-clock interval.
    ///
    /// # Errors
    ///
    /// Returns the retry-after duration when no whole token is available.
    pub fn try_acquire_at(&mut self, now: Instant) -> Result<(), Duration> {
        if now > self.last_refill {
            self.tokens = self.available_at(now);
            self.last_refill = now;
        }
        // The epsilon forgives rounding at the exact retry deadline —
        // `Duration` quantizes to nanoseconds, which at high rates shaves
        // more than f64 noise off the refill — keeping the advertised
        // retry-after honest by construction. A millionth of a token of
        // early admission is far below scheduling jitter.
        if self.tokens >= 1.0 - 1e-6 {
            self.tokens = (self.tokens - 1.0).max(0.0);
            Ok(())
        } else {
            let retry = Duration::from_secs_f64((1.0 - self.tokens) / self.rate_per_sec);
            // Round up past the quantization so a patient retry cannot
            // land a fraction of a nanosecond short.
            Err(retry + Duration::from_nanos(1))
        }
    }

    /// Whether the bucket is refilled to capacity as of `now`.
    fn is_full_at(&self, now: Instant) -> bool {
        self.available_at(now) >= self.burst
    }
}

/// The shared per-session bucket table behind a [`RateLimitLayer`].
#[derive(Debug)]
struct BucketTable {
    rate_per_sec: f64,
    burst: f64,
    buckets: Mutex<BucketMap>,
}

#[derive(Debug)]
struct BucketMap {
    map: HashMap<SessionKey, TokenBucket>,
    /// Sweep the map for prunable buckets only once it grows past this,
    /// then re-arm above the surviving size — amortized O(1) per acquire
    /// even when the map hovers near the threshold.
    prune_at: usize,
}

impl BucketTable {
    fn acquire(&self, session: &SessionKey, at: Instant) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        if buckets.map.len() >= buckets.prune_at {
            // Approximate, deliberately: a dropped bucket is recreated
            // full, so a session whose queued jobs predate the sweep can
            // regain at most one extra burst — bounded, and only under
            // thousands-of-sessions churn, which is the memory hazard this
            // sweep exists to cap.
            let now = Instant::now();
            buckets.map.retain(|_, b| !b.is_full_at(now));
            buckets.prune_at = (buckets.map.len() * 2).max(PRUNE_THRESHOLD);
        }
        buckets
            .map
            .entry(session.clone())
            // Backdate the new bucket's clock to this first-judged job's
            // submit instant, so a backlog queued behind a busy pool is
            // judged against the session's true submit rate.
            .or_insert_with(|| TokenBucket::new_at(self.rate_per_sec, self.burst, at))
            .try_acquire_at(at)
    }
}

/// A cloneable handle onto a [`RateLimitLayer`]'s bucket table.
///
/// The dedup subsystem ([`crate::cache`]) serves cache hits and coalesced
/// attaches in the submit path, *before* the queue — which means they
/// never reach the in-stack [`RateLimitLayer`]. This handle lets that path
/// charge the very same per-session buckets, so a served submission spends
/// exactly the token an executed one would: the cache is a latency
/// shortcut, not a rate-limit bypass.
#[derive(Debug, Clone)]
pub(crate) struct RateLimitHandle {
    table: std::sync::Arc<BucketTable>,
}

impl RateLimitHandle {
    /// Takes one token from `session`'s bucket as of `at`, or reports the
    /// honest retry-after.
    pub(crate) fn try_acquire(&self, session: &SessionKey, at: Instant) -> Result<(), Duration> {
        self.table.acquire(session, at)
    }
}

/// Middleware enforcing a per-session submit-rate budget.
///
/// Installed by [`crate::CloudServiceBuilder::rate_limit`]; each distinct
/// [`SessionKey`] (API key, or anonymous client/connection identity) gets an
/// independent [`TokenBucket`]. Jobs over budget are answered with
/// [`CloudError::RateLimited`] — which round-trips the transport's Reply
/// frame, so remote handles see the same error (and the same
/// `retry_after_ms`) as in-process ones.
#[derive(Debug)]
pub struct RateLimitLayer {
    table: std::sync::Arc<BucketTable>,
}

impl RateLimitLayer {
    /// A limiter granting each session `rate_per_sec` sustained jobs per
    /// second with bursts of up to `burst` jobs.
    ///
    /// # Panics
    ///
    /// Same bounds as [`TokenBucket::new`].
    pub fn new(rate_per_sec: f64, burst: f64) -> RateLimitLayer {
        // Validate eagerly: a bad config should fail at build time, not on
        // the first job of some unlucky session.
        let _ = TokenBucket::new(rate_per_sec, burst);
        RateLimitLayer {
            table: std::sync::Arc::new(BucketTable {
                rate_per_sec,
                burst,
                buckets: Mutex::new(BucketMap {
                    map: HashMap::new(),
                    prune_at: PRUNE_THRESHOLD,
                }),
            }),
        }
    }

    /// A handle sharing this layer's bucket table with the submit-path
    /// dedup check.
    pub(crate) fn handle(&self) -> RateLimitHandle {
        RateLimitHandle {
            table: std::sync::Arc::clone(&self.table),
        }
    }
}

struct RateLimitSvc {
    table: std::sync::Arc<BucketTable>,
    inner: Box<dyn JobService>,
}

impl CloudLayer for RateLimitLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(RateLimitSvc {
            table: std::sync::Arc::clone(&self.table),
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "ratelimit"
    }
}

impl JobService for RateLimitSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        match self.table.acquire(&ctx.session, ctx.submitted_at) {
            Ok(()) => self.inner.call(ctx, payload),
            Err(retry_after) => Err(CloudError::RateLimited {
                // Round up: retrying a hair early would find no token.
                retry_after_ms: retry_after.as_millis() as u64 + 1,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::ServiceBuilder;
    use amalgam_nn::metrics::History;

    struct Probe;

    impl JobService for Probe {
        fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
            Ok(JobResult {
                job_id: ctx.job_id,
                trained_model: payload,
                history: History::new(),
                bytes_received: 0,
                bytes_sent: 0,
                train_seconds: 0.0,
            })
        }
    }

    #[test]
    fn burst_is_admitted_then_rate_applies() {
        let mut bucket = TokenBucket::new(10.0, 3.0);
        let t0 = Instant::now();
        for _ in 0..3 {
            bucket.try_acquire_at(t0).expect("burst token");
        }
        let retry = bucket.try_acquire_at(t0).expect_err("burst exhausted");
        // One token at 10/s takes 100ms to brew.
        assert!(retry <= Duration::from_millis(101), "{retry:?}");
        bucket
            .try_acquire_at(t0 + retry)
            .expect("honest retry-after");
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut bucket = TokenBucket::new(100.0, 2.0);
        let t0 = Instant::now();
        // A long silence must not bank more than `burst` tokens.
        let later = t0 + Duration::from_secs(60);
        assert_eq!(bucket.available_at(later), 2.0);
        bucket.try_acquire_at(later).unwrap();
        bucket.try_acquire_at(later).unwrap();
        assert!(bucket.try_acquire_at(later).is_err());
    }

    #[test]
    fn out_of_order_instants_are_clamped() {
        let mut bucket = TokenBucket::new(1.0, 1.0);
        let t0 = Instant::now();
        bucket.try_acquire_at(t0 + Duration::from_secs(5)).unwrap();
        // An older timestamp (thread race) must not re-run the refill.
        assert!(bucket.try_acquire_at(t0).is_err());
    }

    #[test]
    fn lazily_created_buckets_backdate_to_the_first_submit() {
        // A polite session submits 1 job/s for 5 s while the pool is busy
        // elsewhere; all five are then judged in one burst of dispatches.
        // The bucket must refill against the *submit* clock, admitting all
        // of them at rate 1.0 / burst 1.
        let svc = ServiceBuilder::new()
            .layer(RateLimitLayer::new(1.0, 1.0))
            .service(Box::new(Probe));
        let t0 = Instant::now();
        for i in 0..5u64 {
            let mut ctx = JobContext::new(i, 0);
            ctx.session = SessionKey::Anonymous(9);
            ctx.submitted_at = t0 + Duration::from_secs(i);
            svc.call(&mut ctx, Bytes::new())
                .unwrap_or_else(|e| panic!("within-rate backlogged job {i} was rejected: {e:?}"));
        }
    }

    #[test]
    fn layer_keys_buckets_by_session() {
        let svc = ServiceBuilder::new()
            .layer(RateLimitLayer::new(0.001, 1.0))
            .service(Box::new(Probe));
        let mut a1 = JobContext::new(0, 0);
        a1.session = SessionKey::Anonymous(1);
        assert!(svc.call(&mut a1, Bytes::new()).is_ok());
        let mut a2 = JobContext::new(1, 0);
        a2.session = SessionKey::Anonymous(1);
        match svc.call(&mut a2, Bytes::new()) {
            Err(CloudError::RateLimited { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // A different session has its own untouched bucket.
        let mut b = JobContext::new(2, 0);
        b.session = SessionKey::Anonymous(2);
        assert!(svc.call(&mut b, Bytes::new()).is_ok());
    }
}
