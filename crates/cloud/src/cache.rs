//! Content-addressed job dedup and result caching.
//!
//! PR 2–5 bought a hard guarantee: the cloud's training loop is bitwise
//! deterministic, so byte-identical job payloads provably produce
//! byte-identical [`JobResult`]s. This module turns that determinism into
//! throughput, in two cooperating pieces keyed by the same
//! [`ContentAddress`] (a fixed-key SipHash digest of the job's canonical
//! wire encoding — see [`crate::hash`]):
//!
//! * **In-flight coalescing.** The first submission of an address executes
//!   normally; every concurrent duplicate attaches as a *waiter* to the
//!   same pending slot and is answered by the one execution. Errors and
//!   panics propagate to every waiter and clear the slot, so a failed job
//!   is immediately retryable — no poisoned entries.
//! * **A result cache** ([`ResultCache`]): TTL + LRU with a **byte-size
//!   bound** (a `JobResult` carries model weights, so an entry count alone
//!   bounds nothing). Hits are served at submit time, without ever
//!   touching the queue or the worker pool.
//!
//! The read side lives in the submit path ([`crate::CloudClient`] — both
//! in-process and transport submissions funnel through it); the write side
//! is [`DedupLayer`], mounted between admission control and the rate
//! limiter, which inserts results that traversed the full policy stack.
//! Fan-out and slot clearing live on the executor's reply sink, so *every*
//! way an execution can end — success, error, panic, shutdown drain, even
//! a worker dying with `catch_panics(false)` — resolves the waiters.
//!
//! Rate limiting still judges served submissions: a cache hit or coalesced
//! attach spends a token from the same per-session bucket the
//! [`crate::RateLimitLayer`] uses. Cheap is not free — otherwise replaying
//! one hot job would be an unmetered bypass of the QoS policy.
//!
//! Everything is disabled by default; opt in with
//! [`crate::CloudServiceBuilder::result_cache`].

use crate::hash::ContentAddress;
use crate::metrics::ServiceMetrics;
use crate::middleware::{CloudLayer, JobContext, JobService, SessionKey};
use crate::protocol::{JobResult, ProgressUpdate};
use crate::ratelimit::RateLimitHandle;
use crate::service::{CancelFlag, ReplySink};
use crate::CloudError;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Fixed accounting overhead charged per cache entry, on top of the
/// payload bytes it retains — map slot, LRU slot, timestamps. Keeps a
/// flood of near-empty results from evading the byte bound.
const ENTRY_OVERHEAD: usize = 160;

/// Stale recency slots tolerated beyond one per live entry before the
/// queue is compacted (see [`ResultCache::compact`]).
const LRU_SLACK: usize = 16;

/// Approximate heap bytes retained by caching `result`.
///
/// Counts the serialized model plus the history vectors (the only
/// unbounded fields) and a fixed per-entry overhead; the same function is
/// used by the eviction logic and the property tests, so "respects the
/// byte bound" is checkable from outside.
pub fn entry_cost(result: &JobResult) -> usize {
    let history = result.history.train_loss.len()
        + result.history.train_acc.len()
        + result.history.val_loss.len()
        + result.history.val_acc.len()
        + result.history.epoch_secs.len();
    result.trained_model.len() + history * std::mem::size_of::<f32>() + ENTRY_OVERHEAD
}

struct CacheEntry {
    result: JobResult,
    cost: usize,
    inserted_at: Instant,
    /// Stamp of this entry's *live* LRU slot; older slots in the queue are
    /// stale and skipped during eviction.
    stamp: u64,
}

/// A TTL + LRU result cache with a byte-size bound.
///
/// Time is passed in explicitly (the [`TokenBucket`](crate::TokenBucket)
/// convention), so expiry and eviction are a pure function of the call
/// sequence — which is what lets the property tests drive the clock.
///
/// Recency is tracked lazily: each touch pushes a freshly stamped slot
/// onto the back of a queue and only the newest stamp per address is live,
/// so `get` stays O(1); eviction skips the stale slots it meets, and the
/// queue is compacted whenever they outnumber the live ones, so it stays
/// within a constant factor of the entry count however hot the hits.
pub struct ResultCache {
    capacity_bytes: usize,
    ttl: Duration,
    entries: HashMap<ContentAddress, CacheEntry>,
    lru: VecDeque<(u64, ContentAddress)>,
    next_stamp: u64,
    total_bytes: usize,
}

impl ResultCache {
    /// An empty cache bounded by `capacity_bytes`, whose entries expire
    /// `ttl` after insertion. A zero capacity caches nothing (coalescing
    /// still works — see [`crate::CloudServiceBuilder::result_cache`]).
    pub fn new(capacity_bytes: usize, ttl: Duration) -> ResultCache {
        ResultCache {
            capacity_bytes,
            ttl,
            entries: HashMap::new(),
            lru: VecDeque::new(),
            next_stamp: 0,
            total_bytes: 0,
        }
    }

    /// Bytes currently retained (as measured by [`entry_cost`]).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Live entries (expired-but-unswept entries included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch(&mut self, addr: ContentAddress) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.lru.push_back((stamp, addr));
        stamp
    }

    fn remove(&mut self, addr: &ContentAddress) {
        if let Some(entry) = self.entries.remove(addr) {
            self.total_bytes -= entry.cost;
        }
    }

    /// Drops the stale recency slots once the queue exceeds
    /// `2 × entries + LRU_SLACK`. Eviction alone only sheds them while the
    /// cache is over its byte bound — a hot set that fits never evicts, and
    /// every hit queues a slot. Called with every entry's stamp naming its
    /// newest slot, so exactly one slot per entry survives, in order; at
    /// least `entries + LRU_SLACK` touches pay for each O(queue) pass.
    fn compact(&mut self) {
        if self.lru.len() > 2 * self.entries.len() + LRU_SLACK {
            let entries = &self.entries;
            self.lru
                .retain(|(stamp, addr)| entries.get(addr).is_some_and(|e| e.stamp == *stamp));
        }
    }

    /// A clone of the entry at `addr`, if present and not expired as of
    /// `now`; a hit refreshes the entry's LRU recency (but not its TTL —
    /// a popular stale result must still re-execute).
    pub fn get_at(&mut self, addr: &ContentAddress, now: Instant) -> Option<JobResult> {
        let expired = match self.entries.get(addr) {
            None => return None,
            Some(e) => now.saturating_duration_since(e.inserted_at) >= self.ttl,
        };
        if expired {
            self.remove(addr);
            return None;
        }
        let stamp = self.touch(*addr);
        let entry = self.entries.get_mut(addr).expect("entry checked above");
        entry.stamp = stamp;
        let result = entry.result.clone();
        self.compact();
        Some(result)
    }

    /// Inserts (or replaces) `addr`'s entry as of `now`, then sweeps
    /// expired entries and evicts least-recently-used ones until the byte
    /// bound holds again. An entry costing more than the whole capacity is
    /// not admitted at all.
    pub fn insert_at(&mut self, addr: ContentAddress, result: JobResult, now: Instant) {
        let cost = entry_cost(&result);
        if cost > self.capacity_bytes {
            return;
        }
        self.remove(&addr);
        let stamp = self.touch(addr);
        self.entries.insert(
            addr,
            CacheEntry {
                result,
                cost,
                inserted_at: now,
                stamp,
            },
        );
        self.total_bytes += cost;
        if self.total_bytes > self.capacity_bytes {
            self.sweep_expired(now);
        }
        while self.total_bytes > self.capacity_bytes {
            let (stamp, victim) = self.lru.pop_front().expect("bytes retained ⇒ slots queued");
            match self.entries.get(&victim) {
                // Only the newest slot per address is live; skip stale ones.
                Some(e) if e.stamp == stamp => self.remove(&victim),
                _ => {}
            }
        }
        self.compact();
    }

    fn sweep_expired(&mut self, now: Instant) {
        let ttl = self.ttl;
        let mut freed = 0;
        self.entries.retain(|_, e| {
            if now.saturating_duration_since(e.inserted_at) >= ttl {
                freed += e.cost;
                false
            } else {
                true
            }
        });
        self.total_bytes -= freed;
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.entries.len())
            .field("total_bytes", &self.total_bytes)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("ttl", &self.ttl)
            .finish()
    }
}

/// One coalesced duplicate, parked until the executor resolves.
struct Waiter {
    job_id: u64,
    /// The waiter's own session, so progress frames fanned to it are
    /// accounted against the right row in the per-session stats.
    session: SessionKey,
    reply: ReplySink,
}

/// One in-flight execution's slot: its parked duplicates plus the shared
/// cancellation flag (any waiter's cancel stops the one underlying run).
struct PendingSlot {
    waiters: Vec<Waiter>,
    cancel: CancelFlag,
}

/// The mutable dedup state: the cache plus the in-flight pending slots.
struct DedupInner {
    cache: ResultCache,
    pending: HashMap<ContentAddress, PendingSlot>,
}

/// Shared dedup state: consulted by the submit path (read side), populated
/// by [`DedupLayer`] (write side), resolved by [`DedupReply`] (fan-out).
pub(crate) struct DedupShared {
    inner: Mutex<DedupInner>,
    limiter: Option<RateLimitHandle>,
    metrics: Arc<ServiceMetrics>,
}

/// What the submit path should do with a submission, as judged by
/// [`DedupShared::intercept`].
pub(crate) enum SubmitDecision {
    /// Answered from the cache, attached as a waiter, or refused by the
    /// rate limiter — in every case the reply sink has been consumed and
    /// nothing must be enqueued. A coalesced attach carries the executor's
    /// shared cancellation flag for the submitter's handle to hold.
    Served(Option<CancelFlag>),
    /// First sighting of this address: enqueue normally, with the reply
    /// wrapped so the execution's outcome also resolves the waiters.
    Execute(ReplySink, ContentAddress),
}

impl DedupShared {
    pub(crate) fn new(
        capacity_bytes: usize,
        ttl: Duration,
        limiter: Option<RateLimitHandle>,
        metrics: Arc<ServiceMetrics>,
    ) -> DedupShared {
        DedupShared {
            inner: Mutex::new(DedupInner {
                cache: ResultCache::new(capacity_bytes, ttl),
                pending: HashMap::new(),
            }),
            limiter,
            metrics,
        }
    }

    /// Charges one token from `session`'s bucket (when a limiter is
    /// configured): a served submission spends exactly what an executed
    /// one would.
    fn charge(&self, session: &SessionKey, now: Instant) -> Result<(), Duration> {
        match &self.limiter {
            Some(limiter) => limiter.try_acquire(session, now),
            None => Ok(()),
        }
    }

    /// Judges one submission against the cache and the pending slots.
    ///
    /// Runs in the submit path, *before* the queue: a hit or a coalesced
    /// attach never occupies a worker. Both are still judged by the rate
    /// limiter; over-budget submissions are answered with
    /// [`CloudError::RateLimited`] through their own sink, exactly like
    /// stack-judged ones.
    pub(crate) fn intercept(
        self: &Arc<Self>,
        job_id: u64,
        session: &SessionKey,
        payload: &Bytes,
        reply: ReplySink,
        cancel: &CancelFlag,
    ) -> SubmitDecision {
        let addr = ContentAddress::of(payload);
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mut result) = inner.cache.get_at(&addr, now) {
            drop(inner);
            if let Err(retry_after) = self.charge(session, now) {
                self.metrics.job_rate_limited_at_submit(session);
                reply.send(Err(CloudError::RateLimited {
                    retry_after_ms: retry_after.as_millis() as u64 + 1,
                }));
                return SubmitDecision::Served(None);
            }
            self.metrics.job_cache_hit(session);
            result.job_id = job_id;
            reply.send(Ok(result));
            return SubmitDecision::Served(None);
        }
        if let Some(slot) = inner.pending.get_mut(&addr) {
            if let Err(retry_after) = self.charge(session, now) {
                drop(inner);
                self.metrics.job_rate_limited_at_submit(session);
                reply.send(Err(CloudError::RateLimited {
                    retry_after_ms: retry_after.as_millis() as u64 + 1,
                }));
                return SubmitDecision::Served(None);
            }
            slot.waiters.push(Waiter {
                job_id,
                session: session.clone(),
                reply,
            });
            let shared = Arc::clone(&slot.cancel);
            drop(inner);
            self.metrics.job_coalesced(session);
            return SubmitDecision::Served(Some(shared));
        }
        // First sighting: claim the slot while still holding the lock, so
        // a racing duplicate attaches instead of executing twice. The
        // executor itself is *not* charged here — the RateLimitLayer in
        // the stack judges it, once, like any other executed job.
        inner.pending.insert(
            addr,
            PendingSlot {
                waiters: Vec::new(),
                cancel: Arc::clone(cancel),
            },
        );
        drop(inner);
        SubmitDecision::Execute(
            ReplySink::Dedup(Box::new(DedupReply {
                shared: Arc::clone(self),
                addr,
                primary: reply,
                resolved: AtomicBool::new(false),
            })),
            addr,
        )
    }

    /// Write side, called by [`DedupLayer`] when an execution succeeded.
    fn insert(&self, addr: ContentAddress, result: &JobResult, now: Instant) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .cache
            .insert_at(addr, result.clone(), now);
    }

    /// Takes `addr`'s parked waiters (the slot is cleared either way).
    fn take_waiters(&self, addr: &ContentAddress) -> Vec<Waiter> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .remove(addr)
            .map(|slot| slot.waiters)
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for DedupShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("DedupShared")
            .field("cache", &inner.cache)
            .field("pending", &inner.pending.len())
            .finish()
    }
}

/// The executor's reply sink: forwards the outcome to the primary
/// submitter, fans it out to every coalesced waiter (with each waiter's
/// own job id stamped on success), and clears the pending slot.
///
/// Errors are propagated verbatim and nothing is cached on failure, so a
/// failed address is immediately retryable. If the envelope is dropped
/// without ever being answered — a worker dying mid-job with
/// `catch_panics(false)` — the `Drop` impl resolves the waiters with
/// [`CloudError::ServiceUnavailable`] instead of stranding them.
pub(crate) struct DedupReply {
    shared: Arc<DedupShared>,
    addr: ContentAddress,
    primary: ReplySink,
    resolved: AtomicBool,
}

impl DedupReply {
    pub(crate) fn resolve(&self, result: Result<JobResult, CloudError>) {
        if self.resolved.swap(true, Ordering::SeqCst) {
            return;
        }
        for waiter in self.shared.take_waiters(&self.addr) {
            let mut fanned = result.clone();
            if let Ok(r) = &mut fanned {
                // Each submission keeps its own id; the payload bytes are
                // shared, so the fan-out is bitwise identical and O(1).
                r.job_id = waiter.job_id;
            }
            waiter.reply.send(fanned);
        }
        self.primary.send(result);
    }

    /// Streams one progress frame to the primary submitter and to every
    /// waiter parked *right now* (later attachers simply start receiving
    /// from the next epoch on). Each delivery is accounted against its own
    /// session.
    ///
    /// Returns whether *any* consumer — primary or waiter — is still
    /// reachable. `false` means the execution's result has nowhere to go;
    /// a waiter joining later would resume from the checkpoint instead.
    pub(crate) fn send_progress(
        &self,
        update: ProgressUpdate,
        session: &SessionKey,
        metrics: &ServiceMetrics,
    ) -> bool {
        if self.resolved.load(Ordering::SeqCst) {
            return true;
        }
        let mut listening = false;
        {
            let inner = self
                .shared
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = inner.pending.get(&self.addr) {
                for waiter in &slot.waiters {
                    listening |= waiter.reply.send_progress(update, &waiter.session, metrics);
                }
            }
        }
        self.primary.send_progress(update, session, metrics) || listening
    }
}

impl Drop for DedupReply {
    fn drop(&mut self) {
        if self.resolved.swap(true, Ordering::SeqCst) {
            return;
        }
        // Dropped without an answer: the queue refused the envelope, or a
        // worker died mid-job with `catch_panics(false)`. The primary is
        // already covered by its own channel semantics (the submit error
        // return, or the handle observing the disconnect) — but parked
        // waiters know nothing of either, so answer and clear them here.
        for waiter in self.shared.take_waiters(&self.addr) {
            waiter.reply.send(Err(CloudError::ServiceUnavailable));
        }
    }
}

impl std::fmt::Debug for DedupReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupReply")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Middleware writing successful results into the shared result cache.
///
/// Mounted by [`crate::CloudServiceBuilder::result_cache`] between
/// admission control and the rate limiter: a result is cached only after
/// it has traversed the *entire* policy stack beneath (rate limit, auth,
/// decode, validation, training) — a rejected or failed job never
/// populates the cache. The read side does not live here: hits are served
/// at submit time so they never consume a queue slot or a worker (see the
/// [module docs](crate::cache)).
pub struct DedupLayer {
    shared: Arc<DedupShared>,
}

impl DedupLayer {
    pub(crate) fn new(shared: Arc<DedupShared>) -> DedupLayer {
        DedupLayer { shared }
    }
}

impl std::fmt::Debug for DedupLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DedupLayer")
    }
}

struct DedupSvc {
    shared: Arc<DedupShared>,
    inner: Box<dyn JobService>,
}

impl CloudLayer for DedupLayer {
    fn wrap(&self, inner: Box<dyn JobService>) -> Box<dyn JobService> {
        Box::new(DedupSvc {
            shared: Arc::clone(&self.shared),
            inner,
        })
    }

    fn name(&self) -> &'static str {
        "dedup"
    }
}

impl JobService for DedupSvc {
    fn call(&self, ctx: &mut JobContext, payload: Bytes) -> Result<JobResult, CloudError> {
        let result = self.inner.call(ctx, payload);
        if let (Some(addr), Ok(r)) = (ctx.content_address, &result) {
            self.shared.insert(addr, r, Instant::now());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_nn::metrics::History;

    fn result_of(bytes: usize) -> JobResult {
        JobResult {
            job_id: 0,
            trained_model: Bytes::from(vec![0u8; bytes]),
            history: History::new(),
            bytes_received: 0,
            bytes_sent: bytes,
            train_seconds: 0.0,
        }
    }

    fn addr(n: u8) -> ContentAddress {
        ContentAddress::of(&[n])
    }

    #[test]
    fn hit_then_ttl_expiry() {
        let t0 = Instant::now();
        let mut cache = ResultCache::new(1 << 20, Duration::from_secs(10));
        cache.insert_at(addr(1), result_of(100), t0);
        assert!(cache
            .get_at(&addr(1), t0 + Duration::from_secs(9))
            .is_some());
        // TTL runs from insertion, not last access.
        assert!(cache
            .get_at(&addr(1), t0 + Duration::from_secs(10))
            .is_none());
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn byte_bound_evicts_least_recently_used() {
        let t0 = Instant::now();
        let cost = entry_cost(&result_of(100));
        let mut cache = ResultCache::new(cost * 2, Duration::from_secs(60));
        cache.insert_at(addr(1), result_of(100), t0);
        cache.insert_at(addr(2), result_of(100), t0);
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.get_at(&addr(1), t0).is_some());
        cache.insert_at(addr(3), result_of(100), t0);
        assert!(cache.total_bytes() <= cost * 2);
        assert!(cache.get_at(&addr(1), t0).is_some());
        assert!(cache.get_at(&addr(2), t0).is_none());
        assert!(cache.get_at(&addr(3), t0).is_some());
    }

    #[test]
    fn hits_on_a_set_that_fits_do_not_grow_the_recency_queue() {
        let t0 = Instant::now();
        let cost = entry_cost(&result_of(100));
        let mut cache = ResultCache::new(cost * 2, Duration::from_secs(60));
        cache.insert_at(addr(1), result_of(100), t0);
        cache.insert_at(addr(2), result_of(100), t0);
        // Nothing is ever over the byte bound here, so eviction never runs.
        for i in 0..100_000u32 {
            assert!(cache.get_at(&addr(1 + (i % 2) as u8), t0).is_some());
            assert!(cache.lru.len() <= 2 * cache.len() + LRU_SLACK);
        }
        // Recency survived the compactions: 2 was hit last, so 1 goes.
        cache.insert_at(addr(3), result_of(100), t0);
        assert!(cache.get_at(&addr(1), t0).is_none());
        assert!(cache.get_at(&addr(2), t0).is_some());
        assert!(cache.get_at(&addr(3), t0).is_some());
        assert!(cache.lru.len() <= 2 * cache.len() + LRU_SLACK);
    }

    #[test]
    fn oversized_entry_is_not_admitted() {
        let t0 = Instant::now();
        let mut cache = ResultCache::new(64, Duration::from_secs(60));
        cache.insert_at(addr(1), result_of(1 << 16), t0);
        assert!(cache.is_empty());
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn reinserting_an_address_replaces_not_leaks() {
        let t0 = Instant::now();
        let mut cache = ResultCache::new(1 << 20, Duration::from_secs(60));
        for _ in 0..100 {
            cache.insert_at(addr(1), result_of(100), t0);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.total_bytes(), entry_cost(&result_of(100)));
    }
}
