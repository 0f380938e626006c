//! Self-healing client policy: decorrelated-jitter backoff, a monotonic
//! retry schedule, and the counters that make recovery observable.
//!
//! A [`crate::RemoteCloudClient`] given a [`ReconnectPolicy`] stops
//! treating a dead connection as the end of the session: the client loop
//! re-dials and re-handshakes after [`DecorrelatedJitter`] delays,
//! resubmits every in-flight job (jobs are content-addressed, so a replay
//! dedups server-side instead of training twice), and turns
//! [`crate::CloudError::RateLimited`] replies into retries scheduled
//! *at* `retry_after` through a [`RetryQueue`] — never before it, and
//! never in a hot loop.
//!
//! The backoff is the "decorrelated jitter" scheme (Brooker, AWS
//! Architecture Blog, 2015): each delay is drawn uniformly from
//! `[base, min(cap, prev * 3)]`. Compared with plain exponential backoff
//! it keeps the fleet de-synchronized — two clients that died in the same
//! instant do not re-dial in the same instant forever after — while still
//! growing toward `cap` under sustained failure. The properties the
//! proptests pin down: every delay is inside `[base, cap]`, and a delay
//! never regresses to zero.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// How a [`crate::RemoteCloudClient`] heals a lost connection.
///
/// Passed via [`crate::TransportConfig::reconnect`]; without one the
/// client keeps its historical behavior (a dead connection fails every
/// pending and future submit with
/// [`crate::CloudError::ServiceUnavailable`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Shortest backoff between redial attempts, and the floor of every
    /// jittered delay (default 50 ms; clamped to at least 1 ms so delays
    /// can never regress to zero).
    pub base: Duration,
    /// Longest backoff between redial attempts (default 5 s; raised to
    /// `base` if configured below it).
    pub cap: Duration,
    /// Consecutive failed dials before the client gives up and fails all
    /// pending jobs; `0` means retry forever (default).
    pub max_dial_attempts: usize,
    /// Per-job budget of automatic resubmissions (after reconnects,
    /// `RateLimited` backoffs, or `ServiceUnavailable` replies) before the
    /// error is surfaced to the caller's handle (default 8).
    pub max_resubmits: u32,
    /// Seed for the jitter stream, making a client's backoff sequence
    /// deterministic and testable (default 0).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
            max_dial_attempts: 0,
            max_resubmits: 8,
            seed: 0,
        }
    }
}

impl ReconnectPolicy {
    /// Sets the backoff floor.
    #[must_use]
    pub fn base(mut self, base: Duration) -> ReconnectPolicy {
        self.base = base;
        self
    }

    /// Sets the backoff ceiling.
    #[must_use]
    pub fn cap(mut self, cap: Duration) -> ReconnectPolicy {
        self.cap = cap;
        self
    }

    /// Sets the dial-attempt budget (`0` = unlimited).
    #[must_use]
    pub fn max_dial_attempts(mut self, n: usize) -> ReconnectPolicy {
        self.max_dial_attempts = n;
        self
    }

    /// Sets the per-job resubmission budget.
    #[must_use]
    pub fn max_resubmits(mut self, n: u32) -> ReconnectPolicy {
        self.max_resubmits = n;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ReconnectPolicy {
        self.seed = seed;
        self
    }

    /// The jitter stream this policy prescribes, from its first delay.
    pub fn jitter(&self) -> DecorrelatedJitter {
        DecorrelatedJitter::new(self.base, self.cap, self.seed)
    }
}

/// One step of splitmix64: a cheap, well-mixed 64-bit generator (the same
/// finalizer the client's keep-alive jitter uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decorrelated-jitter backoff: each delay is uniform in
/// `[base, min(cap, prev * 3)]`.
///
/// Deterministic for a given seed, so tests can replay a whole sequence.
/// Guarantees for every yielded delay `d`: `base <= d <= cap`, and since
/// `base` is clamped to at least 1 ms, `d` is never zero.
#[derive(Debug, Clone)]
pub struct DecorrelatedJitter {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl DecorrelatedJitter {
    /// A fresh stream. `base` is clamped to at least 1 ms and `cap` to at
    /// least `base`, so the `[base, cap]` band is never empty or zero.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> DecorrelatedJitter {
        let base = base.max(Duration::from_millis(1));
        let cap = cap.max(base);
        DecorrelatedJitter {
            base,
            cap,
            prev: base,
            state: seed,
        }
    }

    /// Draws the next delay and advances the stream.
    pub fn next_delay(&mut self) -> Duration {
        // Upper bound: three times the previous delay, clamped into the
        // configured band. `prev` starts at `base`, so the first draw is
        // uniform in `[base, 3 * base]` (or exactly `base` if cap bites).
        let hi = self.cap.min(self.prev.saturating_mul(3)).max(self.base);
        let span = hi - self.base;
        let frac = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let delay = self.base + span.mul_f64(frac);
        // Float rounding must not push the draw outside the band.
        let delay = delay.clamp(self.base, self.cap);
        self.prev = delay;
        delay
    }

    /// Restarts the stream at `base` (called after a successful reconnect
    /// so the next incident starts from short delays again).
    pub fn reset(&mut self) {
        self.prev = self.base;
    }

    /// The configured floor.
    pub fn base(&self) -> Duration {
        self.base
    }

    /// The configured ceiling.
    pub fn cap(&self) -> Duration {
        self.cap
    }
}

/// A min-heap of `(due, request id)` pairs: the client's schedule of
/// `retry_after`-delayed resubmissions.
///
/// The single invariant — pinned by proptests — is that
/// [`pop_due`](Self::pop_due) never yields an entry before its due
/// instant: a `RateLimited` job is retried *at or after* the server's
/// advertised `retry_after`, never early.
#[derive(Debug, Default)]
pub struct RetryQueue {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl RetryQueue {
    /// An empty schedule.
    pub fn new() -> RetryQueue {
        RetryQueue::default()
    }

    /// Schedules `id` to become due at `at`.
    pub fn schedule(&mut self, id: u64, at: Instant) {
        self.heap.push(Reverse((at, id)));
    }

    /// The earliest due instant, if anything is scheduled.
    pub fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Pops every entry whose due instant is at or before `now`, in due
    /// order. Entries due later stay queued.
    pub fn pop_due(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        while let Some(Reverse((at, _))) = self.heap.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, id)) = self.heap.pop().expect("peeked entry");
            due.push(id);
        }
        due
    }

    /// Scheduled entries not yet popped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A point-in-time view of one client's self-healing activity and its
/// submit-to-reply round-trip latency.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Connections re-established after a loss (the first connect is not
    /// counted).
    pub reconnects: u64,
    /// Jobs written to the server more than once (after a reconnect or a
    /// scheduled retry).
    pub jobs_resubmitted: u64,
    /// Retries scheduled against a server-advertised `retry_after` or a
    /// retryable error reply.
    pub retries_scheduled: u64,
    /// Submit-to-reply round trips ([`crate::Stage::Rpc`]), microseconds.
    pub rtt: crate::telemetry::HistogramSnapshot,
}

impl std::fmt::Display for ClientStats {
    /// An aligned operator-facing table, matching the
    /// [`crate::ServiceStats`] style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} reconnects {:<6} resubmitted {:<6} retries {}",
            "healing", self.reconnects, self.jobs_resubmitted, self.retries_scheduled
        )?;
        write!(
            f,
            "{:<10} n {:<8} p50 {:<8} p95 {:<8} p99 {:<8} max {} µs",
            "rpc rtt",
            self.rtt.count,
            self.rtt.quantile(0.50),
            self.rtt.quantile(0.95),
            self.rtt.quantile(0.99),
            self.rtt.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_banded() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut a = DecorrelatedJitter::new(base, cap, 7);
        let mut b = DecorrelatedJitter::new(base, cap, 7);
        for _ in 0..256 {
            let d = a.next_delay();
            assert_eq!(d, b.next_delay(), "same seed, same stream");
            assert!(d >= base && d <= cap, "delay {d:?} escaped [base, cap]");
        }
    }

    #[test]
    fn jitter_reset_restarts_from_short_delays() {
        let base = Duration::from_millis(10);
        let mut j = DecorrelatedJitter::new(base, Duration::from_secs(10), 3);
        for _ in 0..32 {
            j.next_delay();
        }
        j.reset();
        // First post-reset draw is bounded by 3 * base again.
        assert!(j.next_delay() <= base * 3);
    }

    #[test]
    fn zero_base_is_clamped_so_delays_never_vanish() {
        let mut j = DecorrelatedJitter::new(Duration::ZERO, Duration::ZERO, 0);
        for _ in 0..16 {
            assert!(j.next_delay() >= Duration::from_millis(1));
        }
    }

    #[test]
    fn retry_queue_pops_in_due_order_and_never_early() {
        let t0 = Instant::now();
        let mut q = RetryQueue::new();
        q.schedule(1, t0 + Duration::from_millis(30));
        q.schedule(2, t0 + Duration::from_millis(10));
        q.schedule(3, t0 + Duration::from_millis(20));
        assert_eq!(q.pop_due(t0), Vec::<u64>::new());
        assert_eq!(q.next_due(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(q.pop_due(t0 + Duration::from_millis(20)), vec![2, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t0 + Duration::from_millis(30)), vec![1]);
        assert!(q.is_empty());
    }
}
