//! Per-session admission-rate policy: a token bucket per session, charged
//! by the pipeline's `ratelimit` stage.
//!
//! Any connected session can submit as fast as its socket allows. The
//! admission stage only bounds *total* queue depth — one greedy client can
//! fill that budget and starve everyone else. This module adds the
//! per-client half of the policy: every session (API key, or anonymous
//! connection) gets its own [`TokenBucket`], refilled at a configured
//! sustained rate up to a burst capacity, and jobs submitted above that
//! rate are answered with [`CloudError::RateLimited`] carrying an honest
//! `retry_after_ms`.
//!
//! The bucket is judged against each job's **submit timestamp**, not the
//! instant a worker got around to it — a deep queue neither hides a flood
//! nor penalizes a polite client whose job waited. Jobs of one session are
//! dispatched in submit order (the fair queue keeps per-session FIFO), so
//! the timestamps each bucket sees are monotone and the refill math stays
//! exact.
//!
//! The stage runs after admission control and dedup and before auth (see
//! the [crate docs](crate) for the order): a flood is shed before it is
//! decoded, validated or trained, and the shed is cheap — no tensor bytes
//! are ever touched.

use crate::pipeline::SessionKey;
use crate::CloudError;
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

/// The per-session bucket table — the one limiter of a service. The
/// pipeline's `ratelimit` stage charges it for every executed job, and the
/// dedup read side ([`crate::cache`]) for every submission it serves
/// before the queue, so a served submission spends exactly the token an
/// executed one would: the cache is a latency shortcut, not a rate-limit
/// bypass.
#[derive(Debug)]
pub(crate) struct RateLimiter {
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

impl RateLimiter {
    /// Grants each session `rate_per_sec` sustained jobs per second with
    /// bursts of up to `burst` jobs.
    ///
    /// # Panics
    ///
    /// Same bounds as [`TokenBucket::new`].
    pub(crate) fn new(rate_per_sec: f64, burst: f64) -> RateLimiter {
        // Validate eagerly: a bad config should fail at build time, not on
        // the first job of some unlucky session.
        let _ = TokenBucket::new(rate_per_sec, burst);
        RateLimiter {
            rate_per_sec,
            burst,
            buckets: Mutex::new(BucketMap {
                map: HashMap::new(),
                prune_at: PRUNE_THRESHOLD,
            }),
        }
    }

    /// Takes one token from `session`'s bucket as of `at`, or answers
    /// [`CloudError::RateLimited`] with the honest retry-after.
    pub(crate) fn acquire(&self, session: &SessionKey, at: Instant) -> Result<(), CloudError> {
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
            .map_err(|retry_after| CloudError::RateLimited {
                // Round up: retrying a hair early would find no token.
                retry_after_ms: retry_after.as_millis() as u64 + 1,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let limiter = RateLimiter::new(1.0, 1.0);
        let t0 = Instant::now();
        for i in 0..5u64 {
            limiter
                .acquire(&SessionKey::Anonymous(9), t0 + Duration::from_secs(i))
                .unwrap_or_else(|e| panic!("within-rate backlogged job {i} was rejected: {e:?}"));
        }
    }

    #[test]
    fn limiter_keys_buckets_by_session() {
        let limiter = RateLimiter::new(0.001, 1.0);
        let t0 = Instant::now();
        assert!(limiter.acquire(&SessionKey::Anonymous(1), t0).is_ok());
        match limiter.acquire(&SessionKey::Anonymous(1), t0) {
            Err(CloudError::RateLimited { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // A different session has its own untouched bucket.
        assert!(limiter.acquire(&SessionKey::Anonymous(2), t0).is_ok());
    }
}
