//! Configures and launches a [`CloudService`]: worker count, observer,
//! admission control, per-session QoS (rate limits and DRR weights), panic
//! policy and custom middleware.

use crate::cache::{DedupLayer, DedupShared};
use crate::checkpoint::CheckpointStore;
use crate::metrics::ServiceMetrics;
use crate::middleware::{
    AdmissionLayer, ApiKeyLayer, CloudLayer, DecodeLayer, MetricsLayer, ObserverLayer, PanicLayer,
    ServiceBuilder, TimedLayer, ValidateLayer,
};
use crate::observer::CloudObserver;
use crate::ratelimit::RateLimitLayer;
use crate::service::CloudService;
use crate::telemetry::TelemetryConfig;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Builder for [`CloudService`] (obtained via [`CloudService::builder`]).
///
/// The default stack it assembles, outermost first:
///
/// `metrics → panic → admission → dedup → ratelimit → auth →
/// [custom layers] → decode → validate → observer → train`
///
/// (`dedup` only when [`result_cache`](Self::result_cache) is configured;
/// its read side — cache hits and coalescing — runs in the submit path,
/// before the queue.)
///
/// Custom layers therefore see the raw serialized payload (decode has not
/// run yet) plus whatever the admission, rate-limit and auth gates let
/// through.
pub struct CloudServiceBuilder {
    pub(crate) workers: usize,
    pub(crate) observer: Option<Arc<Mutex<dyn CloudObserver>>>,
    pub(crate) max_queue_depth: Option<usize>,
    pub(crate) catch_panics: bool,
    pub(crate) api_keys: Option<Vec<String>>,
    pub(crate) rate_limit: Option<(f64, f64)>,
    pub(crate) result_cache: Option<(usize, Duration)>,
    pub(crate) session_weights: HashMap<String, f64>,
    pub(crate) custom_layers: Vec<Box<dyn CloudLayer>>,
    pub(crate) telemetry: TelemetryConfig,
    pub(crate) metrics_exporter: Option<SocketAddr>,
    pub(crate) checkpoint_store: Option<Arc<dyn CheckpointStore>>,
    pub(crate) checkpoint_every: u64,
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
            custom_layers: Vec::new(),
            telemetry: TelemetryConfig::default(),
            metrics_exporter: None,
            checkpoint_store: None,
            checkpoint_every: 1,
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

    /// Attaches the honest-but-curious observer. Without one, no observer
    /// layer is installed at all — workers skip the tap's mutex entirely.
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

    /// Whether panics in the stack become [`crate::CloudError::Panicked`]
    /// instead of killing the worker (default `true`).
    #[must_use]
    pub fn catch_panics(mut self, on: bool) -> CloudServiceBuilder {
        self.catch_panics = on;
        self
    }

    /// Requires every job's session to present one of `keys`: installs an
    /// [`ApiKeyLayer`] between the rate limiter and the custom layers.
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
    /// installs a [`RateLimitLayer`] between admission control and auth.
    /// Jobs over budget fail with [`crate::CloudError::RateLimited`] and an
    /// honest retry-after, on remote sessions and in-process clients alike.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec > 0` and `burst >= 1`.
    #[must_use]
    pub fn rate_limit(mut self, rate_per_sec: f64, burst: f64) -> CloudServiceBuilder {
        // Reuse the layer's own validation so a bad config fails here.
        let _ = RateLimitLayer::new(rate_per_sec, burst);
        self.rate_limit = Some((rate_per_sec, burst));
        self
    }

    /// Enables content-addressed dedup and result caching (both off by
    /// default): identical submissions — same canonical payload bytes,
    /// local or remote — execute **once**. Concurrent duplicates coalesce
    /// onto the in-flight execution; later duplicates are answered from a
    /// TTL + LRU cache bounded by `capacity_bytes` (measured by
    /// [`crate::cache::entry_cost`], since results carry model weights).
    /// Installs a [`crate::DedupLayer`] between admission control and the
    /// rate limiter.
    ///
    /// Served submissions still spend rate-limit tokens
    /// ([`rate_limit`](Self::rate_limit)), are counted in
    /// [`crate::ServiceStats::cache_hits`] /
    /// [`crate::ServiceStats::coalesced`], and carry their own job ids;
    /// the result bytes are bitwise identical to an uncached execution —
    /// which is exactly what the stack's determinism guarantee promises.
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

    /// Inserts a custom layer between admission control and decode; layers
    /// added first sit outermost among the custom ones.
    #[must_use]
    pub fn layer(mut self, layer: impl CloudLayer + 'static) -> CloudServiceBuilder {
        self.custom_layers.push(Box::new(layer));
        self
    }

    /// Configures the telemetry plane: per-stage latency histograms, span
    /// recording and the flight recorder (all **on** by default with a
    /// 256-trace ring and a 1 s slow threshold). Disabling telemetry skips
    /// every per-stage clock read; every end-to-end benchmark workload runs
    /// with it on, so its cost sits inside those metrics.
    #[must_use]
    pub fn telemetry(mut self, config: TelemetryConfig) -> CloudServiceBuilder {
        self.telemetry = config;
        self
    }

    /// Makes jobs durable: the trainer snapshots model + optimizer +
    /// history into `store` at epoch boundaries (cadence set by
    /// [`checkpoint_every`](Self::checkpoint_every), default every epoch),
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

    /// Snapshot cadence for [`checkpoint_store`](Self::checkpoint_store):
    /// a checkpoint is written after every `every` completed epochs
    /// (default 1; `0` disables writes while still resuming from — and
    /// cleaning up — existing snapshots).
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64) -> CloudServiceBuilder {
        self.checkpoint_every = every;
        self
    }

    /// Serves Prometheus text-format metrics over HTTP on `addr`.
    ///
    /// The exporter is a dependency-free HTTP/1.0 responder registered on
    /// the transport's existing reactor threads — it adds **no threads**.
    /// It therefore only answers while a [`crate::CloudServer`] fronts this
    /// service; `GET /metrics` (any path, in fact) returns the same body
    /// [`crate::ServiceStats::to_prometheus`] renders.
    #[must_use]
    pub fn metrics_exporter(mut self, addr: SocketAddr) -> CloudServiceBuilder {
        self.metrics_exporter = Some(addr);
        self
    }

    /// Assembles the default middleware stack around the trainer, plus
    /// the shared dedup state when [`result_cache`](Self::result_cache)
    /// was configured (the submit path consults it before the queue).
    pub(crate) fn assemble(
        &mut self,
        metrics: Arc<ServiceMetrics>,
    ) -> (crate::middleware::ServiceBuilder, Option<Arc<DedupShared>>) {
        let rate_layer = self
            .rate_limit
            .map(|(rate, burst)| RateLimitLayer::new(rate, burst));
        let dedup = self.result_cache.map(|(capacity_bytes, ttl)| {
            Arc::new(DedupShared::new(
                capacity_bytes,
                ttl,
                rate_layer.as_ref().map(RateLimitLayer::handle),
                Arc::clone(&metrics),
            ))
        });
        // With telemetry on, every layer below the metrics finalizer is
        // wrapped in a TimedLayer so each stage contributes one span; with
        // it off, the stack is byte-for-byte the untimed one.
        let timed = self.telemetry.enabled;
        let wrap = |layer: Box<dyn CloudLayer>| -> Box<dyn CloudLayer> {
            if timed {
                Box::new(TimedLayer::new(layer))
            } else {
                layer
            }
        };
        let mut stack = ServiceBuilder::new().layer(MetricsLayer::new(metrics));
        if self.catch_panics {
            stack = stack.layer_boxed(wrap(Box::new(PanicLayer)));
        }
        if let Some(depth) = self.max_queue_depth {
            stack = stack.layer_boxed(wrap(Box::new(AdmissionLayer::new(depth))));
        }
        if let Some(shared) = &dedup {
            stack = stack.layer_boxed(wrap(Box::new(DedupLayer::new(Arc::clone(shared)))));
        }
        if let Some(layer) = rate_layer {
            stack = stack.layer_boxed(wrap(Box::new(layer)));
        }
        if let Some(keys) = self.api_keys.take() {
            stack = stack.layer_boxed(wrap(Box::new(ApiKeyLayer::new(keys))));
        }
        for layer in self.custom_layers.drain(..) {
            stack = stack.layer_boxed(wrap(layer));
        }
        stack = stack
            .layer_boxed(wrap(Box::new(DecodeLayer)))
            .layer_boxed(wrap(Box::new(ValidateLayer)));
        if let Some(observer) = &self.observer {
            stack = stack.layer_boxed(wrap(Box::new(ObserverLayer::new(Arc::clone(observer)))));
        }
        (stack, dedup)
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
            .field("api_keys", &self.api_keys.as_ref().map(Vec::len))
            .field("rate_limit", &self.rate_limit)
            .field("result_cache", &self.result_cache)
            .field("session_weights", &self.session_weights.len())
            .field("custom_layers", &self.custom_layers.len())
            .field("telemetry", &self.telemetry)
            .field("metrics_exporter", &self.metrics_exporter)
            .field("checkpoint_store", &self.checkpoint_store)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish()
    }
}
