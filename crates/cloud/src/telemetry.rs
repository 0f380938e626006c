//! Latency histograms, trace ids and the flight recorder — the
//! dependency-free observability core.
//!
//! Three pieces, shared by the service, the transport and the proxy:
//!
//! * [`Histogram`] — a lock-free log-linear latency histogram
//!   (microseconds). Values are bucketed with 16 sub-buckets per power of
//!   two, so any reported quantile is within 1/16 (6.25%) of the true
//!   value while the whole histogram is a fixed 976 atomic counters —
//!   recording is two relaxed `fetch_add`s, a `fetch_max`, and zero locks.
//!   Snapshots are mergeable: merging per-shard snapshots is exactly the
//!   histogram of the concatenated streams (proptested against a
//!   sorted-vec oracle).
//! * [`TraceId`] — a 128-bit id minted once per job at submit time and
//!   carried end-to-end: client → proxy → backend → back, over a
//!   backward-compatible Submit/Reply extension field (see
//!   [`crate::transport`]). Every tier indexes its observations by it.
//! * [`FlightRecorder`] — a bounded ring of completed [`JobTrace`]s (the
//!   last N jobs, plus a separate ring for every *slow* job over a
//!   configurable threshold), queryable by trace id. When a job stalls or
//!   a breaker trips, the recorder answers "where did the time go" after
//!   the fact, without a debugger attached.
//!
//! Per-job timings are captured as [`SpanRecord`]s: each instrumented
//! stage ([`Stage`]) contributes one span with its start offset (relative
//! to the job's submit instant), inclusive duration and outcome. The job
//! pipeline nests spans strictly (admission contains ratelimit contains
//! auth … contains train), so a stage's *self* time is its inclusive
//! duration minus the next-inner span's — computed once at finalization,
//! not on the hot path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Sub-buckets per power of two: quantile error is bounded by 1/16.
const SUB_BUCKETS: usize = 16;
/// Values below this are bucketed exactly (one bucket per microsecond).
const LINEAR_CUTOFF: u64 = 16;
/// Total buckets: 16 exact + 16 per power of two for exponents 4..=63.
const NUM_BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// Bucket index for a microsecond value (log-linear, monotone).
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 4
        SUB_BUCKETS + (exp - 4) * SUB_BUCKETS + ((v >> (exp - 4)) & 15) as usize
    }
}

/// Inclusive upper bound of bucket `i` — what quantiles report, so every
/// reported quantile is ≥ the true value and within 1/16 of it.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let exp = 4 + (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u128;
        let hi = (1u128 << exp) + (sub + 1) * (1u128 << (exp - 4)) - 1;
        hi.min(u64::MAX as u128) as u64
    }
}

/// A lock-free log-linear latency histogram over microsecond values.
///
/// Fixed memory (976 atomic buckets plus count/sum/max), wait-free
/// recording, mergeable snapshots, quantile error bounded by 1/16. See the
/// [module docs](self) for the bucketing scheme.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one microsecond value. Wait-free: three relaxed atomic adds
    /// and a `fetch_max`, no locks, no allocation.
    pub fn record(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records a [`Duration`], saturating at `u64::MAX` microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy, cheap to merge/quantile offline.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`]: plain counters, mergeable and wire-encodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (same bucketing as the live histogram).
    buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values (microseconds).
    pub sum: u64,
    /// Largest value recorded (microseconds).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (merge identity).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value in microseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds: the upper bound of
    /// the bucket holding the rank-`ceil(q·count)` value, capped at the
    /// true max. Within 1/16 of the exact order statistic; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`. Merging shard snapshots is exactly the
    /// snapshot of the concatenated value streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Sparse wire encoding: count/sum/max then (index, count) pairs for
    /// non-empty buckets only.
    pub fn encode_into(&self, w: &mut amalgam_tensor::wire::Writer) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.max);
        let pairs: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect();
        w.put_u32(pairs.len() as u32);
        for (i, c) in pairs {
            w.put_u32(i as u32);
            w.put_u64(c);
        }
    }

    /// Decodes the [`encode_into`](Self::encode_into) format.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CloudError::Decode`] on truncation or an
    /// out-of-range bucket index.
    pub fn decode_from(
        r: &mut amalgam_tensor::wire::Reader,
    ) -> Result<HistogramSnapshot, crate::CloudError> {
        let err = |e: amalgam_tensor::TensorError| crate::CloudError::Decode(e.to_string());
        let mut s = HistogramSnapshot::empty();
        s.count = r.get_u64().map_err(err)?;
        s.sum = r.get_u64().map_err(err)?;
        s.max = r.get_u64().map_err(err)?;
        let pairs = r.get_u32().map_err(err)? as usize;
        if pairs > NUM_BUCKETS {
            return Err(crate::CloudError::Decode(format!(
                "{pairs} histogram buckets (max {NUM_BUCKETS})"
            )));
        }
        for _ in 0..pairs {
            let i = r.get_u32().map_err(err)? as usize;
            let c = r.get_u64().map_err(err)?;
            if i >= NUM_BUCKETS {
                return Err(crate::CloudError::Decode(format!(
                    "histogram bucket index {i} out of range"
                )));
            }
            s.buckets[i] = c;
        }
        Ok(s)
    }
}

/// A 128-bit end-to-end trace id, minted once per job at submit time.
///
/// Displayed as 32 lowercase hex digits; carried on the wire as two `u64`
/// words in the optional trace tail of a Submit or Reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u128);

/// splitmix64 finalizer: cheap, well-mixed.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceId {
    /// The absent trace (all zero) — what an untraced submit carries.
    pub const NONE: TraceId = TraceId(0);

    /// Mints a fresh id: wall-clock nanos, a process-wide counter and an
    /// ASLR-seeded constant, mixed through splitmix64. No RNG dependency;
    /// uniqueness (not unpredictability) is the goal.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // The address of a static differs per process under ASLR, keeping
        // ids from colliding across processes started the same nanosecond.
        let aslr = &COUNTER as *const _ as u64;
        let hi = mix64(t ^ aslr);
        let lo = mix64(n.wrapping_add(hi) ^ t.rotate_left(32));
        let id = ((hi as u128) << 64) | lo as u128;
        // Reserve 0 for "absent".
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Rebuilds an id from its two wire words (`hi`, `lo`).
    pub fn from_words(hi: u64, lo: u64) -> TraceId {
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    /// The id's two wire words (`hi`, `lo`).
    pub fn to_words(self) -> (u64, u64) {
        ((self.0 >> 64) as u64, self.0 as u64)
    }

    /// True for [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Declares [`Stage`] from its table. A row reads `Variant = tag, "name";`.
macro_rules! stages {
    ($($(#[$doc:meta])* $stage:ident = $tag:literal, $name:literal;)*) => {
        /// Every instrumented stage across the three tiers. The discriminant is
        /// the wire encoding and the per-stage histogram index.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Stage {
            $($(#[$doc])* $stage = $tag,)*
        }

        impl Stage {
            /// Every stage, in discriminant order.
            pub const ALL: [Stage; [$($tag),*].len()] = [$(Stage::$stage),*];

            /// Stable snake-case name (Prometheus label / table row).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Stage::$stage => $name,)*
                }
            }
        }
    };
}

stages! {
    /// Submit-to-dequeue wait in the fair dispatcher.
    QueueWait = 0, "queue_wait";
    /// The panic-catching stage (self time ≈ 0 unless a panic unwound).
    Panic = 1, "panic";
    /// Queue-depth admission control.
    Admission = 2, "admission";
    /// Content-addressed dedup / result cache write side.
    Dedup = 3, "dedup";
    /// Per-session token-bucket rate limiting.
    RateLimit = 4, "ratelimit";
    /// Session API-key check.
    Auth = 5, "auth";
    /// Has no producer; kept because the `Stats` frame carries every tag.
    Custom = 6, "custom";
    /// Wire-bytes → `CloudJob` + model decode.
    Decode = 7, "decode";
    /// The `BadJob` validation checks.
    Validate = 8, "validate";
    /// The adversary-model observer tap.
    Observer = 9, "observer";
    /// Algorithm 1 itself.
    Train = 10, "train";
    /// One reactor write-queue flush (socket write burst).
    ReactorFlush = 11, "reactor_flush";
    /// Proxy-measured backend round-trip: Submit forwarded → Reply seen.
    BackendRtt = 12, "backend_rtt";
    /// Client-measured submit-to-reply round-trip.
    Rpc = 13, "rpc";
    /// Encoding and storing one mid-training checkpoint.
    CheckpointWrite = 14, "checkpoint_write";
    /// Loading, validating and applying a checkpoint at resume.
    CheckpointRestore = 15, "checkpoint_restore";
}

impl Stage {
    /// Decodes a wire discriminant.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CloudError::Decode`] for an unknown discriminant.
    pub fn from_u8(tag: u8) -> Result<Stage, crate::CloudError> {
        Stage::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| crate::CloudError::Decode(format!("unknown stage tag {tag}")))
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed stage of one job: where a slice of the job's wall time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which stage this span timed.
    pub stage: Stage,
    /// Start offset in microseconds from the job's submit instant.
    pub start_us: u64,
    /// Inclusive duration in microseconds (contains nested spans).
    pub dur_us: u64,
    /// Whether the stage (and everything inside it) succeeded.
    pub ok: bool,
}

/// The flight-recorder record of one completed job: its trace id and
/// every span observed at this tier, in outermost-first nesting order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTrace {
    /// The job's end-to-end trace id.
    pub trace: TraceId,
    /// The tier-local job/request id.
    pub job_id: u64,
    /// Submit-to-finish wall time at this tier, microseconds.
    pub total_us: u64,
    /// Whether the job succeeded.
    pub ok: bool,
    /// Per-stage spans, outermost first.
    pub spans: Vec<SpanRecord>,
}

/// A bounded ring buffer of completed [`JobTrace`]s: the last N jobs plus
/// a separate ring of every *slow* job (total time over the threshold), so
/// a burst of fast jobs cannot evict the interesting outliers.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    slow_threshold_us: u64,
    recent: Mutex<VecDeque<JobTrace>>,
    slow: Mutex<VecDeque<JobTrace>>,
}

impl FlightRecorder {
    /// Creates a recorder keeping `capacity` recent (and up to `capacity`
    /// slow) traces; jobs over `slow_threshold` also land in the slow ring.
    pub fn new(capacity: usize, slow_threshold: Duration) -> FlightRecorder {
        FlightRecorder {
            capacity,
            slow_threshold_us: u64::try_from(slow_threshold.as_micros()).unwrap_or(u64::MAX),
            recent: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one completed job (a no-op when capacity is 0).
    pub fn push(&self, trace: JobTrace) {
        if self.capacity == 0 {
            return;
        }
        if trace.total_us >= self.slow_threshold_us {
            let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
            if slow.len() == self.capacity {
                slow.pop_front();
            }
            slow.push_back(trace.clone());
        }
        let mut recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
        if recent.len() == self.capacity {
            recent.pop_front();
        }
        recent.push_back(trace);
    }

    /// Looks a trace up by id — slow ring first (it retains longer), then
    /// the recent ring.
    pub fn find(&self, trace: TraceId) -> Option<JobTrace> {
        if let Some(t) = self
            .slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .rev()
            .find(|t| t.trace == trace)
        {
            return Some(t.clone());
        }
        self.recent
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .rev()
            .find(|t| t.trace == trace)
            .cloned()
    }

    /// The recent ring, oldest first.
    pub fn recent(&self) -> Vec<JobTrace> {
        self.recent
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The slow ring, oldest first.
    pub fn slow(&self) -> Vec<JobTrace> {
        self.slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

/// Flight-recorder ring capacity (recent and slow rings each).
const RECORDER_CAPACITY: usize = 256;
/// Jobs at least this slow also land in the slow ring.
const SLOW_THRESHOLD: Duration = Duration::from_secs(1);

/// One tier's telemetry plane: a histogram per [`Stage`] plus the
/// [`FlightRecorder`]. Lives inside [`crate::ServiceMetrics`] so every
/// component that already carries metrics gets tracing for free.
#[derive(Debug)]
pub struct Telemetry {
    hists: Vec<Histogram>,
    recorder: FlightRecorder,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Empty histograms and a flight recorder keeping the last 256 jobs
    /// (and the last 256 that took a second or more).
    pub fn new() -> Telemetry {
        Telemetry {
            hists: (0..Stage::ALL.len()).map(|_| Histogram::new()).collect(),
            recorder: FlightRecorder::new(RECORDER_CAPACITY, SLOW_THRESHOLD),
        }
    }

    /// The live histogram for `stage`.
    pub fn hist(&self, stage: Stage) -> &Histogram {
        &self.hists[stage as usize]
    }

    /// Records `d` into `stage`'s histogram.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.hist(stage).record_duration(d);
    }

    /// The tier's flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Scores a round trip that began at `sent_at` and just ended: its
    /// duration lands in `stage`'s histogram, and the flight recorder gains
    /// this tier's one-span view of `trace`.
    pub(crate) fn record_round_trip(
        &self,
        stage: Stage,
        trace: TraceId,
        job_id: u64,
        sent_at: Instant,
        ok: bool,
    ) {
        let rtt = sent_at.elapsed();
        self.record(stage, rtt);
        let dur_us = crate::pipeline::duration_us(rtt);
        self.recorder.push(JobTrace {
            trace,
            job_id,
            total_us: dur_us,
            ok,
            spans: vec![SpanRecord {
                stage,
                start_us: 0,
                dur_us,
                ok,
            }],
        });
    }

    /// Snapshots every stage histogram that recorded at least one value.
    pub fn snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        Stage::ALL
            .iter()
            .filter(|&&s| self.hist(s).count() > 0)
            .map(|&s| (s, self.hist(s).snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_upper_bound_holds() {
        let mut prev = 0usize;
        for v in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= prev || v < 4096, "index must be monotone at {v}");
            prev = prev.max(i);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let hi = bucket_upper(i);
            assert!(hi >= v, "upper bound {hi} below value {v}");
            // Relative error bound: upper ≤ v + max(1, v/16).
            assert!(
                hi - v <= (v / 16).max(1),
                "bucket too wide at {v}: upper {hi}"
            );
        }
    }

    #[test]
    fn quantiles_match_exact_order_statistics_within_bound() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..1000).map(|i| (i * i) % 7919 + i).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = s.quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                got - exact <= (exact / 16).max(1),
                "q{q}: {got} vs exact {exact}"
            );
        }
        assert_eq!(s.quantile(1.0), *values.last().unwrap());
        assert_eq!(s.max, *values.last().unwrap());
    }

    #[test]
    fn merge_of_shards_equals_whole() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for i in 0..500u64 {
            let v = i * 37 % 10007;
            if i % 2 == 0 { &a } else { &b }.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn snapshot_wire_roundtrip_is_identity() {
        let h = Histogram::new();
        for v in [0, 1, 15, 16, 17, 1000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut w = amalgam_tensor::wire::Writer::new();
        s.encode_into(&mut w);
        let mut r = amalgam_tensor::wire::Reader::new(w.finish());
        let back = HistogramSnapshot::decode_from(&mut r).unwrap();
        assert_eq!(back, s);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn trace_ids_are_unique_and_roundtrip_words() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::mint();
            assert!(!id.is_none());
            assert!(seen.insert(id), "duplicate trace id {id}");
            let (hi, lo) = id.to_words();
            assert_eq!(TraceId::from_words(hi, lo), id);
        }
        assert_eq!(format!("{}", TraceId::NONE).len(), 32);
    }

    #[test]
    fn flight_recorder_keeps_slow_jobs_past_recent_eviction() {
        let rec = FlightRecorder::new(4, Duration::from_millis(100));
        let mk = |id: u64, total_us: u64| JobTrace {
            trace: TraceId::from_words(0, id),
            job_id: id,
            total_us,
            ok: true,
            spans: vec![],
        };
        rec.push(mk(1, 200_000)); // slow
        for id in 2..=10 {
            rec.push(mk(id, 50)); // fast, evicts recents
        }
        assert_eq!(rec.recent().len(), 4);
        assert!(rec.find(TraceId::from_words(0, 1)).is_some(), "slow kept");
        assert!(
            rec.find(TraceId::from_words(0, 2)).is_none(),
            "fast evicted"
        );
        assert_eq!(rec.slow().len(), 1);
    }

    #[test]
    fn stage_tags_roundtrip() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            // The table is in tag order, gap-free, and no two rows share a name.
            assert_eq!(s as usize, i);
            assert_eq!(
                Stage::ALL
                    .iter()
                    .filter(|t| t.as_str() == s.as_str())
                    .count(),
                1
            );
            assert_eq!(Stage::from_u8(s as u8).unwrap(), s);
        }
        assert!(Stage::from_u8(200).is_err());
    }
}
