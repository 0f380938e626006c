//! Configures and launches a [`CloudService`]: worker count, observer,
//! admission control, per-session QoS (rate limits and DRR weights), result
//! cache, checkpoints and panic policy.

use crate::cache::DedupShared;
use crate::checkpoint::CheckpointStore;
use crate::metrics::ServiceMetrics;
use crate::observer::CloudObserver;
use crate::pipeline::{Pipeline, Step};
use crate::ratelimit::RateLimiter;
use crate::service::CloudService;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Builder for [`CloudService`] (obtained via [`CloudService::builder`]).
///
/// It configures the stages of the one job pipeline (see the crate docs),
/// which run in this order:
///
/// `panic → admission → dedup → ratelimit → auth → decode → validate →
/// observer → train`
///
/// `decode`, `validate` and `train` always run, `panic` unless
/// [`catch_panics`](Self::catch_panics) is off, the rest only when
/// configured. `dedup`'s read side — cache hits and coalescing — runs in
/// the submit path, before the queue.
pub struct CloudServiceBuilder {
    pub(crate) workers: usize,
    pub(crate) observer: Option<Arc<Mutex<dyn CloudObserver>>>,
    pub(crate) max_queue_depth: Option<usize>,
    pub(crate) catch_panics: bool,
    pub(crate) api_keys: Option<Arc<[String]>>,
    pub(crate) rate_limit: Option<Arc<RateLimiter>>,
    pub(crate) result_cache: Option<(usize, Duration)>,
    pub(crate) session_weights: HashMap<String, f64>,
    pub(crate) metrics_exporter: Option<SocketAddr>,
    pub(crate) checkpoint_store: Option<Arc<dyn CheckpointStore>>,
}

impl CloudServiceBuilder {
    pub(crate) fn new() -> CloudServiceBuilder {
        CloudServiceBuilder {
            workers: 1,
            observer: None,
            max_queue_depth: None,
            catch_panics: true,
            api_keys: None,
            rate_limit: None,
            result_cache: None,
            session_weights: HashMap::new(),
            metrics_exporter: None,
            checkpoint_store: None,
        }
    }

    /// Number of worker threads pulling from the shared queue (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> CloudServiceBuilder {
        assert!(n > 0, "a cloud service needs at least one worker");
        self.workers = n;
        self
    }

    /// Attaches the honest-but-curious observer. Without one, the pipeline
    /// has no observer stage at all — workers skip the tap's mutex entirely.
    #[must_use]
    pub fn observer(mut self, observer: Arc<Mutex<dyn CloudObserver>>) -> CloudServiceBuilder {
        self.observer = Some(observer);
        self
    }

    /// Enables admission control: jobs submitted while more than `depth`
    /// jobs were already queued fail with [`crate::CloudError::Overloaded`].
    #[must_use]
    pub fn max_queue_depth(mut self, depth: usize) -> CloudServiceBuilder {
        self.max_queue_depth = Some(depth);
        self
    }

    /// Whether panics in the pipeline become [`crate::CloudError::Panicked`]
    /// instead of killing the worker (default `true`).
    #[must_use]
    pub fn catch_panics(mut self, on: bool) -> CloudServiceBuilder {
        self.catch_panics = on;
        self
    }

    /// Requires every job's session to present one of `keys`: the `auth`
    /// stage, between the rate limiter and decode.
    /// Remote sessions carry their key from the connection handshake;
    /// in-process clients opt in via [`crate::CloudClient::with_api_key`].
    #[must_use]
    pub fn api_keys<I, S>(mut self, keys: I) -> CloudServiceBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.api_keys = Some(keys.into_iter().map(Into::into).collect());
        self
    }

    /// Grants every session a token bucket admitting `rate_per_sec`
    /// sustained jobs per second with bursts of up to `burst` jobs:
    /// the `ratelimit` stage, between admission control and auth.
    /// Jobs over budget fail with [`crate::CloudError::RateLimited`] and an
    /// honest retry-after, on remote sessions and in-process clients alike.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec > 0` and `burst >= 1`.
    #[must_use]
    pub fn rate_limit(mut self, rate_per_sec: f64, burst: f64) -> CloudServiceBuilder {
        self.rate_limit = Some(Arc::new(RateLimiter::new(rate_per_sec, burst)));
        self
    }

    /// Enables content-addressed dedup and result caching (both off by
    /// default): identical submissions — same canonical payload bytes,
    /// local or remote — execute **once**. Concurrent duplicates coalesce
    /// onto the in-flight execution; later duplicates are answered from a
    /// TTL + LRU cache bounded by `capacity_bytes` (measured by
    /// [`crate::cache::entry_cost`], since results carry model weights).
    /// The `dedup` stage, between admission control and the rate limiter,
    /// caches a result once it has passed every stage.
    ///
    /// Served submissions still spend rate-limit tokens
    /// ([`rate_limit`](Self::rate_limit)), are counted in
    /// [`crate::ServiceStats::cache_hits`] /
    /// [`crate::ServiceStats::coalesced`], and carry their own job ids;
    /// the result bytes are bitwise identical to an uncached execution —
    /// which is exactly what the pipeline's determinism guarantee promises.
    ///
    /// A `capacity_bytes` of `0` (or a zero `ttl`) caches nothing but
    /// still coalesces in-flight duplicates.
    #[must_use]
    pub fn result_cache(mut self, capacity_bytes: usize, ttl: Duration) -> CloudServiceBuilder {
        self.result_cache = Some((capacity_bytes, ttl));
        self
    }

    /// Gives sessions presenting API key `key` a deficit-round-robin
    /// weight of `weight` (default 1.0): under contention the session is
    /// dispatched `weight` jobs per scheduling round instead of one.
    /// Anonymous sessions always weigh 1.0.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is positive and finite.
    #[must_use]
    pub fn session_weight(mut self, key: impl Into<String>, weight: f64) -> CloudServiceBuilder {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "a session weight must be positive and finite"
        );
        self.session_weights.insert(key.into(), weight);
        self
    }

    /// Makes jobs durable: the trainer snapshots model + optimizer +
    /// history into `store` after every epoch but the last,
    /// keyed by the job payload's content address — the same canonical
    /// digest ([`crate::hash::digest128`]) the result cache uses, computed
    /// even when dedup is off.
    ///
    /// A (re)submitted job whose address holds a valid snapshot **resumes**
    /// from the last epoch boundary instead of recomputing from epoch 0;
    /// because every epoch's RNG is a pure function of `(seed, epoch)`, the
    /// resumed run's result is bitwise identical to an uninterrupted one.
    /// Corrupt, truncated or stale snapshots are detected (checksummed
    /// encoding), counted in
    /// [`checkpoints_rejected`](crate::ServiceStats::checkpoints_rejected),
    /// scrubbed, and the job falls back to a full recompute — never a wrong
    /// answer. A job's snapshot is deleted when it completes; failed and
    /// cancelled jobs keep theirs so a retry resumes.
    ///
    /// Share one store — [`crate::MemoryCheckpointStore`] across services
    /// in one process, [`crate::FileCheckpointStore`] across process
    /// restarts — to survive server crashes and backend failover.
    #[must_use]
    pub fn checkpoint_store(mut self, store: Arc<dyn CheckpointStore>) -> CloudServiceBuilder {
        self.checkpoint_store = Some(store);
        self
    }

    /// Serves Prometheus text-format metrics over HTTP on `addr`.
    ///
    /// The exporter is a dependency-free HTTP/1.0 responder registered on
    /// the transport's existing reactor threads — it adds **no threads**.
    /// It therefore only answers while a [`crate::CloudServer`] fronts this
    /// service; `GET /metrics` (any path, in fact) returns the same body
    /// [`crate::ServiceStats::to_prometheus`] renders.
    ///
    /// A scraper has the server's
    /// [`handshake_timeout`](crate::TransportConfig::handshake_timeout) from
    /// its accept to send its request head (up to its blank line, 4096
    /// bytes, or a half-close); bytes trickled in do not extend it. The
    /// page then leaves under the
    /// [`write_timeout`](crate::TransportConfig::write_timeout) stall rule:
    /// a scraper that stops reading for that long is cut off. At most 16
    /// scrapes are served at once; one more is closed at accept.
    #[must_use]
    pub fn metrics_exporter(mut self, addr: SocketAddr) -> CloudServiceBuilder {
        self.metrics_exporter = Some(addr);
        self
    }

    /// The pipeline's configured stages in their one order, plus the shared
    /// dedup state when [`result_cache`](Self::result_cache) was
    /// configured (the submit path consults it before the queue).
    pub(crate) fn assemble(
        &self,
        metrics: &Arc<ServiceMetrics>,
    ) -> (Pipeline, Option<Arc<DedupShared>>) {
        let dedup = self.result_cache.map(|(capacity_bytes, ttl)| {
            Arc::new(DedupShared::new(
                capacity_bytes,
                ttl,
                self.rate_limit.clone(),
                Arc::clone(metrics),
            ))
        });
        let mut steps = Vec::new();
        if self.catch_panics {
            steps.push(Step::CatchPanics);
        }
        if let Some(depth) = self.max_queue_depth {
            steps.push(Step::Admission(depth));
        }
        if let Some(shared) = &dedup {
            steps.push(Step::Dedup(Arc::clone(shared)));
        }
        if let Some(limiter) = &self.rate_limit {
            steps.push(Step::RateLimit(Arc::clone(limiter)));
        }
        if let Some(keys) = &self.api_keys {
            steps.push(Step::Auth(Arc::clone(keys)));
        }
        steps.extend([Step::Decode, Step::Validate]);
        if let Some(observer) = &self.observer {
            steps.push(Step::Observer(Arc::clone(observer)));
        }
        steps.push(Step::Train);
        let pipeline = Pipeline {
            metrics: Arc::clone(metrics),
            steps,
            checkpoints: self.checkpoint_store.clone(),
        };
        (pipeline, dedup)
    }

    /// Launches the worker pool and returns the running service.
    pub fn build(self) -> CloudService {
        CloudService::from_builder(self)
    }
}

impl std::fmt::Debug for CloudServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServiceBuilder")
            .field("workers", &self.workers)
            .field("max_queue_depth", &self.max_queue_depth)
            .field("catch_panics", &self.catch_panics)
            .field("api_keys", &self.api_keys.as_ref().map(|keys| keys.len()))
            .field("rate_limit", &self.rate_limit)
            .field("result_cache", &self.result_cache)
            .field("session_weights", &self.session_weights.len())
            .field("metrics_exporter", &self.metrics_exporter)
            .field("checkpoint_store", &self.checkpoint_store)
            .finish()
    }
}
