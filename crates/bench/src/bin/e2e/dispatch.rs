//! `dispatch_direct` and `dispatch_proxy`: many small pre-encoded jobs in
//! flight, so the transport, the service and the result cache do most of
//! the work.
//!
//! Closed loop at saturation: one connection (and load-generator thread)
//! per hardware thread, at most [`MAX_CONNECTIONS`], each keeping
//! [`OUTSTANDING`] submissions in flight and replacing each the moment its
//! reply is observed. Every submission is a one-step LeNet job (8×8, one
//! image, one epoch) built from its own seeded original through
//! `Amalgam::obfuscate` during set-up; the measured loop only moves
//! pre-encoded payload bytes, so `core` is bypassed entirely. A seeded coin
//! picks each submission from
//!
//! * the **hot set**: [`HOT_SET`] jobs drawn uniformly, over a result cache
//!   sized for [`CACHE_ENTRIES`] of them — shared inputs and a working set
//!   larger than the cache, so hits, coalescing and eviction all happen;
//! * the **cold cycle**: each connection visits its own
//!   [`COLD_PER_CONNECTION`] distinct jobs round-robin. A cold job comes
//!   round again only after everything that was in flight with it has been
//!   answered and many times the cache's capacity has passed through the
//!   cache, so every one executes — "unique" jobs without holding tens of
//!   thousands of 130 KB payloads in memory.
//!
//! What the workloads are judged by. With the loop this deep a
//! submission's wall is queue wait: `job_wall_p50_ms` ≈ outstanding ÷
//! `jobs_per_s`, and the harness asserts that identity. The figures that
//! carry information here are `jobs_per_s` (what the tiers sustain) and
//! `overhead_ratio` (the CPU a submission costs the box, in units of the
//! training it contains). What one request costs each tier with nothing
//! queued is the traced run's one-at-a-time replay (`layers.rs`).
//!
//! Why the loop is this deep (ISSUE 11 asked for 8 outstanding): at the
//! commit that defines the benchmark a server's reactor soon stops being
//! woken for finished replies and flushes them only when the next frame or
//! keep-alive arrives (see `cluster::KEEPALIVE`). A shallow loop then runs
//! at the pace of the keep-alive ticks — whose phase between connections
//! differs from run to run — with a bimodal latency: at 8 outstanding, six
//! seeds read `jobs_per_s` 1137-1510 and an rpc p50 of 8.9-14.6 ms, a
//! spread wider than any bound could hold. With [`OUTSTANDING`] jobs
//! queued per connection every batch of replies brings a batch of
//! submissions whose frames end the reactor's poll, the workers never run
//! dry, and the workload measures what the tiers can carry — steadily, and
//! the same way once that defect is fixed.
//!
//! `dispatch_proxy` runs the identical generator and job stream through an
//! `AmalgamProxy` in front of two `CloudServer`s holding the same total
//! number of workers. Each backend has its own cache of the same capacity:
//! a backend then sees the whole hot set at half the rate, which leaves
//! the per-submission hit probability where `dispatch_direct` has it.

use crate::cluster::{timed_setups, Cluster, Topology, SETUP_REPEATS};
use crate::jobs::{item_rng, Kind, Original, Prepared};
use crate::report::{Report, Value};
use crate::spans::{SpanId, Tracer};
use crate::stats::column;
use crate::{alloc, layers, procfs, stats};
use amalgam_cloud::{CloudService, JobResult, RemoteCloudClient, RemoteJobHandle};
use amalgam_tensor::Rng;
use bytes::Bytes;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Submissions each connection keeps in flight.
pub const OUTSTANDING: usize = 128;
/// Connections (and load-generator threads): one per hardware thread, up
/// to this many — each owns [`COLD_PER_CONNECTION`] cold payloads of 130 KB.
pub const MAX_CONNECTIONS: usize = 4;
/// Jobs in the hot set.
pub const HOT_SET: usize = 64;
/// Results the cache can hold: about half the hot set.
pub const CACHE_ENTRIES: usize = 32;
/// Distinct cold jobs each connection cycles through: twice what it has in
/// flight, and sixteen times what the cache holds.
const COLD_PER_CONNECTION: usize = 2 * OUTSTANDING;
/// Share of submissions drawn from the hot set.
const HOT_SHARE: f64 = 0.5;
/// One cold job in this many has its reply compared with the reference
/// (every hot reply is).
const COLD_CHECK_EVERY: usize = 8;
/// Untimed submissions before measuring, over all connections: enough for
/// every hot job to have been through the cache several times.
const WARMUP_SUBMISSIONS: usize = 1024;
/// Plain local training steps the traced run times (unloaded) for
/// `core.train_plain_ms`, once before its loop and once after it.
const PLAIN_REPS: usize = 200;
/// How long a generator blocks on its oldest handle when a sweep found no
/// reply. Bounds how late a reply can be stamped; three orders of magnitude
/// under the loaded rpc time.
const POLL: Duration = Duration::from_micros(100);
/// The traced loop records spans in every other stretch of this length, so
/// traced and untraced submissions each run under a regime of their own
/// (see [`trace_overhead_ratios`]). The length shares no period with the
/// system: the proxy probes its backends every 500 ms, and with 500 ms
/// stretches all of a run's ratios leaned the same way (1.02-1.07 in one
/// run, under 1 in the next).
const TRACE_SEGMENT: Duration = Duration::from_millis(370);

const STREAM_JOBS: u64 = 3;
const STREAM_GENERATOR: u64 = 4;

#[derive(Debug, Clone, Copy)]
enum Item {
    Hot(usize),
    Cold(usize),
}

/// Every payload of a run and the bytes its reply must carry.
struct Inputs {
    hot: Vec<Bytes>,
    cold: Vec<Bytes>,
    hot_reference: Vec<Bytes>,
    /// `Some` for the cold jobs whose replies are checked.
    cold_reference: Vec<Option<Bytes>>,
    /// Bytes one cached result costs, for sizing the cache.
    result_bytes: usize,
}

impl Inputs {
    /// Builds every payload and reference; also returns hot job 0 with its
    /// original, the layer probes' representative job (kept apart because
    /// a model is not `Sync` and the generators share `Inputs`).
    fn build(seed: u64, connections: usize) -> Result<(Inputs, Prepared), String> {
        let cold_jobs = connections * COLD_PER_CONNECTION;
        // The reference is the in-process path with nothing cached.
        let reference = CloudService::builder().workers(1).build();
        let client = reference.client();
        let train = |payload: &Bytes| -> Result<Bytes, String> {
            client
                .submit_payload(payload.clone())
                .and_then(|h| h.wait())
                .map(|r| r.trained_model)
                .map_err(|e| format!("reference training failed: {e}"))
        };
        let mut inputs = Inputs {
            hot: Vec::with_capacity(HOT_SET),
            cold: Vec::with_capacity(cold_jobs),
            hot_reference: Vec::with_capacity(HOT_SET),
            cold_reference: Vec::with_capacity(cold_jobs),
            result_bytes: 0,
        };
        let probe = build_job(seed, 0)?;
        for j in 0..HOT_SET + cold_jobs {
            let payload = if j == 0 {
                probe.payload.clone()
            } else {
                build_job(seed, j as u64)?.payload
            };
            if j < HOT_SET {
                inputs.hot_reference.push(train(&payload)?);
                inputs.hot.push(payload);
            } else {
                let checked = (j - HOT_SET).is_multiple_of(COLD_CHECK_EVERY);
                let reference = checked.then(|| train(&payload)).transpose()?;
                inputs.cold_reference.push(reference);
                inputs.cold.push(payload);
            }
        }
        reference.shutdown();
        // A cached result retains its model bytes plus a small fixed cost.
        inputs.result_bytes = inputs
            .hot_reference
            .iter()
            .map(Bytes::len)
            .max()
            .unwrap_or(0)
            + 256;
        Ok((inputs, probe))
    }

    fn payload(&self, item: Item) -> &Bytes {
        match item {
            Item::Hot(i) => &self.hot[i],
            Item::Cold(i) => &self.cold[i],
        }
    }

    /// Whether `result` is right for `item` (unchecked cold jobs pass).
    fn verify(&self, item: Item, result: &JobResult) -> bool {
        match item {
            Item::Hot(i) => result.trained_model == self.hot_reference[i],
            Item::Cold(i) => self.cold_reference[i]
                .as_ref()
                .is_none_or(|r| result.trained_model == *r),
        }
    }
}

fn build_job(seed: u64, j: u64) -> Result<Prepared, String> {
    let mut rng = item_rng(seed, STREAM_JOBS, j);
    let original = Original::generate(Kind::Tiny, 0, &mut rng);
    Prepared::build(original, rng.next_u64(), rng.next_u64())
}

/// One connection's seeded job stream; persists from warm-up into the
/// measured loop.
struct Generator {
    rng: Rng,
    /// First of this connection's own cold jobs: no two connections ever
    /// hold the same cold payload in flight (cold jobs must execute, not
    /// coalesce).
    cold_base: usize,
    cold_cursor: usize,
}

impl Generator {
    fn new(seed: u64, connection: usize) -> Generator {
        Generator {
            rng: item_rng(seed, STREAM_GENERATOR, connection as u64),
            cold_base: connection * COLD_PER_CONNECTION,
            cold_cursor: 0,
        }
    }

    fn next(&mut self) -> Item {
        if self.rng.chance(HOT_SHARE) {
            Item::Hot(self.rng.below(HOT_SET))
        } else {
            let i = self.cold_base + self.cold_cursor;
            self.cold_cursor = (self.cold_cursor + 1) % COLD_PER_CONNECTION;
            Item::Cold(i)
        }
    }
}

/// When a generator stops submitting (it always drains what is in flight).
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Submitted(usize),
}

/// One observed reply.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ok: bool,
    hot: bool,
    /// The [`TRACE_SEGMENT`] of the loop in which it was submitted.
    segment: usize,
    rpc_ms: f64,
    /// When the reply was observed, seconds since the loop's epoch.
    done_s: f64,
    cloud_train_ms: f64,
    upload_bytes: f64,
    download_bytes: f64,
}

struct Slot {
    handle: RemoteJobHandle,
    item: Item,
    submitted: Instant,
    segment: usize,
    /// `(job, rpc)` spans of a traced submission.
    spans: Option<(SpanId, SpanId)>,
}

/// What the loop needs besides the connection.
struct LoopPlan<'a> {
    inputs: &'a Inputs,
    epoch: Instant,
    until: Until,
    /// Whether this is the traced run's loop (see [`TRACE_SEGMENT`]).
    trace: bool,
}

impl LoopPlan<'_> {
    /// The [`TRACE_SEGMENT`] `now` falls into; the traced run records
    /// spans for submissions made in the odd ones.
    fn segment(&self, now: Instant) -> usize {
        ((now - self.epoch).as_nanos() / TRACE_SEGMENT.as_nanos()) as usize
    }
}

/// Keeps [`OUTSTANDING`] submissions in flight on `client` until `until`,
/// stamping each reply when it is observed — not when the oldest handle
/// is joined — then drains. A traced submission's `job` span runs from
/// picking the item to having checked the reply, its `rpc` child from the
/// submit call to the reply being observed.
fn drive(
    client: &RemoteCloudClient,
    generator: &mut Generator,
    plan: &LoopPlan<'_>,
    connection: usize,
) -> (Vec<Sample>, Tracer) {
    let mut tracer = Tracer::new(plan.epoch);
    let mut samples = Vec::new();
    let mut submitted = 0usize;
    let mut broken = false;
    let mut slots: Vec<Option<Slot>> = (0..OUTSTANDING).map(|_| None).collect();
    let failed = |now: Instant, item: Item, segment: usize| Sample {
        ok: false,
        hot: matches!(item, Item::Hot(_)),
        segment,
        rpc_ms: 0.0,
        done_s: (now - plan.epoch).as_secs_f64(),
        cloud_train_ms: 0.0,
        upload_bytes: 0.0,
        download_bytes: 0.0,
    };
    loop {
        let mut progressed = false;
        for slot in slots.iter_mut() {
            // Observe.
            let outcome = match slot {
                Some(s) => s.handle.try_wait(),
                None => None,
            };
            let now = Instant::now();
            let finished = outcome.map(|o| (slot.take().expect("slot was polled"), o));
            if let Some((
                Slot {
                    spans: Some((_, rpc)),
                    ..
                },
                _,
            )) = &finished
            {
                tracer.end(*rpc);
            }
            // Refill first, so the slot is idle for as short as possible.
            let wants_more = !broken
                && match plan.until {
                    Until::Deadline(d) => now < d,
                    Until::Submitted(n) => submitted < n,
                };
            if slot.is_none() && wants_more {
                let segment = plan.segment(now);
                let id = ((connection as u64) << 32) | submitted as u64;
                let job = (plan.trace && segment % 2 == 1).then(|| tracer.begin("job", id, 0));
                let item = generator.next();
                let payload = plan.inputs.payload(item).clone();
                let spans = job.map(|job| (job, tracer.begin("rpc", id, job)));
                let start = Instant::now();
                match client.submit_payload(payload) {
                    Ok(handle) => {
                        submitted += 1;
                        *slot = Some(Slot {
                            handle,
                            item,
                            submitted: start,
                            segment,
                            spans,
                        });
                    }
                    Err(e) => {
                        eprintln!("connection {connection}: submit failed: {e}");
                        samples.push(failed(now, item, segment));
                        broken = true;
                    }
                }
                progressed = true;
            }
            // Then check what came back.
            let Some((done, outcome)) = finished else {
                continue;
            };
            progressed = true;
            match outcome {
                Ok(result) => samples.push(Sample {
                    ok: plan.inputs.verify(done.item, &result),
                    hot: matches!(done.item, Item::Hot(_)),
                    segment: done.segment,
                    rpc_ms: (now - done.submitted).as_secs_f64() * 1e3,
                    done_s: (now - plan.epoch).as_secs_f64(),
                    cloud_train_ms: result.train_seconds * 1e3,
                    upload_bytes: plan.inputs.payload(done.item).len() as f64,
                    download_bytes: result.bytes_sent as f64,
                }),
                Err(e) => {
                    eprintln!("connection {connection}: job failed: {e}");
                    samples.push(failed(now, done.item, done.segment));
                }
            }
            if let Some((job, _)) = done.spans {
                tracer.end(job);
            }
        }
        if slots.iter().all(Option::is_none) {
            break;
        }
        if !progressed {
            let oldest = slots
                .iter_mut()
                .flatten()
                .min_by_key(|s| s.submitted)
                .expect("some slot is in flight");
            // The outcome is cached in the handle; the next sweep stamps it.
            let _ = oldest.handle.wait_timeout(POLL);
        }
    }
    (samples, tracer)
}

/// Everything `setup_s` covers: inputs and references, servers (and
/// proxy), pinned connections, warm-up.
struct Session {
    inputs: Inputs,
    probe: Prepared,
    cluster: Cluster,
    generators: Vec<Generator>,
}

impl Session {
    fn setup(via_proxy: bool, seed: u64) -> Result<Session, String> {
        amalgam_tensor::parallel::set_threads(1);
        let nproc = procfs::hw_threads();
        let connections = nproc.clamp(1, MAX_CONNECTIONS);
        let (inputs, probe) = Inputs::build(seed, connections)?;
        let backends = if via_proxy { 2 } else { 1 };
        let topology = Topology {
            backends,
            workers: (nproc / backends).max(1),
            cache_bytes: Some(CACHE_ENTRIES * inputs.result_bytes),
            via_proxy,
            connections,
        };
        // The placement probe is a cold job the warm-up visits anyway.
        let cluster = Cluster::start(&topology, &inputs.cold[0])?;
        let generators = (0..connections).map(|c| Generator::new(seed, c)).collect();
        let mut session = Session {
            inputs,
            probe,
            cluster,
            generators,
        };
        let per_connection = WARMUP_SUBMISSIONS.div_ceil(connections);
        let warm = session.run_loop(Instant::now(), Until::Submitted(per_connection), false);
        if warm.0.iter().any(|s| !s.ok) {
            return Err("a warm-up submission failed or returned wrong bytes".into());
        }
        Ok(session)
    }

    /// Runs every connection's generator until `until`; returns all
    /// samples and the merged spans.
    fn run_loop(&mut self, epoch: Instant, until: Until, trace: bool) -> (Vec<Sample>, Tracer) {
        let plan = LoopPlan {
            inputs: &self.inputs,
            epoch,
            until,
            trace,
        };
        let start = Barrier::new(self.cluster.clients.len());
        let per_thread: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .cluster
                .clients
                .iter()
                .zip(self.generators.iter_mut())
                .enumerate()
                .map(|(c, (client, generator))| {
                    let (plan, start) = (&plan, &start);
                    scope.spawn(move || {
                        start.wait();
                        drive(client, generator, plan, c)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load generator panicked"))
                .collect()
        });
        let mut tracer = Tracer::new(epoch);
        let mut samples = Vec::new();
        for (s, t) in per_thread {
            samples.extend(s);
            tracer.absorb(t);
        }
        (samples, tracer)
    }

    /// p50-ready sample of plain local training of the probe's
    /// un-augmented original, with nothing else running.
    fn plain_baseline(&self) -> Vec<f64> {
        let original = &self.probe.original;
        (0..PLAIN_REPS)
            .map(|_| {
                let mut model = original.model.clone();
                let t = Instant::now();
                original.train_plain(&mut model, &self.probe.train);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }

    fn outstanding(&self) -> usize {
        self.cluster.clients.len() * OUTSTANDING
    }

    fn teardown(self) {
        self.cluster.shutdown();
    }
}

/// Little's law on the closed loop: with every slot refilled the moment
/// its reply is observed, outstanding = throughput × mean rpc. A harness
/// that stamped latency when the *oldest* handle was joined, or let slots
/// idle, breaks it. Returns the violation text if it is off by over 5 %.
fn closed_loop_identity(ok: &[&Sample], outstanding: usize) -> Option<String> {
    let last = ok.iter().map(|s| s.done_s).fold(0.0, f64::max);
    if last <= 0.0 {
        return None;
    }
    let throughput = ok.len() as f64 / last;
    let mean_rpc_s = stats::mean(&column(ok, |s| s.rpc_ms)) / 1e3;
    let implied = throughput * mean_rpc_s;
    let off = (implied - outstanding as f64).abs() / outstanding as f64;
    (off > 0.05).then(|| {
        format!(
            "closed-loop identity: jobs_per_s x mean rpc = {implied:.2}, but {outstanding} were outstanding"
        )
    })
}

/// What recording spans costs, once per traced stretch of the loop: the rpc
/// p50 of the submissions made in it over the mean rpc p50 of the untraced
/// stretches on either side, which takes the slow drift of a shared box
/// out of the comparison.
fn trace_overhead_ratios(ok: &[&Sample]) -> Vec<f64> {
    let segments = ok.iter().map(|s| s.segment + 1).max().unwrap_or(0);
    let p50: Vec<Option<f64>> = (0..segments)
        .map(|k| {
            let rpcs: Vec<f64> = ok
                .iter()
                .filter(|s| s.segment == k)
                .map(|s| s.rpc_ms)
                .collect();
            (!rpcs.is_empty()).then(|| stats::median(&rpcs))
        })
        .collect();
    (1..segments.saturating_sub(1))
        .step_by(2)
        .filter_map(|k| Some(p50[k]? / ((p50[k - 1]? + p50[k + 1]?) / 2.0)))
        .collect()
}

/// The end-to-end run (tracing off).
///
/// # Errors
///
/// Harness failures, and a run too short for the percentiles it owes.
pub fn run_untraced(
    workload: &'static str,
    via_proxy: bool,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let (mut session, setup_s) =
        timed_setups(|| Session::setup(via_proxy, seed), Session::teardown)?;
    let cpu0 = procfs::cpu_seconds();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let (samples, _) = session.run_loop(epoch, Until::Deadline(deadline), false);
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let peak_rss_mb = procfs::peak_rss_mb();
    let outstanding = session.outstanding();
    session.teardown();

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    if ok.is_empty() {
        return Err("no submission returned a correct result".into());
    }
    let rpcs = column(&ok, |s| s.rpc_ms);
    let events: Vec<(f64, f64)> = ok.iter().map(|s| (s.done_s, 1.0)).collect();
    // Half-second windows.
    let groups = ((seconds * 2.0).round() as usize).max(1);
    // What the servers report as training time, for the jobs that executed
    // (a served reply carries the first execution's figure).
    let executed: Vec<&Sample> = ok.iter().copied().filter(|s| !s.hot).collect();
    if executed.is_empty() {
        return Err("no cold submission returned a correct result".into());
    }
    let trains = column(&executed, |s| s.cloud_train_ms);
    let cpu_ms_per_job = cpu_s * 1e3 / samples.len() as f64;
    let values = vec![
        Value::new("setup_s", setup_s).with_note(format!("median of {SETUP_REPEATS} set-ups")),
        Value::new("jobs_per_s", stats::windowed_rate(&events, seconds, groups))
            .with_note(format!("median of {groups} half-second windows")),
        Value::median_of("job_wall_p50_ms", &rpcs)
            .with_note("a pre-encoded job's wall is its rpc; queue wait at this depth"),
        Value::new("job_wall_p90_ms", stats::p90(&rpcs)?).with_sample(&rpcs),
        Value::new("overhead_ratio", cpu_ms_per_job / stats::median(&trains))
            .with_sample(&trains)
            .with_note(format!(
                "{cpu_ms_per_job:.4} ms of process CPU per submission / p50 of the training time \
                 inside executed jobs (sample shown)"
            )),
        Value::new("peak_rss_mb", peak_rss_mb),
    ];
    let failed = samples.len() - ok.len();
    let mut report = Report::new(workload, seed, false, samples.len(), failed, values);
    report
        .violations
        .extend(closed_loop_identity(&ok, outstanding));
    Ok(report)
}

/// The traced run: the same loop recording spans in every other
/// [`TRACE_SEGMENT`], then differential replay and the layer probes.
///
/// # Errors
///
/// Harness failures, including the span file not being writable.
pub fn run_traced(
    workload: &'static str,
    via_proxy: bool,
    seed: u64,
    seconds: f64,
    span_file: &std::path::Path,
) -> Result<Report, String> {
    let mut session = Session::setup(via_proxy, seed)?;
    let mut plains = session.plain_baseline();
    let main_s = seconds * layers::MAIN_SHARE;
    let before = session.cluster.counters();
    let cpu0 = procfs::cpu_seconds();
    alloc::set_counting(true);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(main_s);
    let (samples, tracer) = session.run_loop(epoch, Until::Deadline(deadline), true);
    alloc::set_counting(false);
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let threads = procfs::threads() as f64;
    let (allocs, alloc_bytes) = alloc::counters();
    let counters = session.cluster.counters().since(&before);
    let outstanding = session.outstanding();
    plains.extend(session.plain_baseline());

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let (hot, cold): (Vec<&Sample>, Vec<&Sample>) = ok.iter().copied().partition(|s| s.hot);
    let trace_overhead = trace_overhead_ratios(&ok);
    if cold.is_empty() || trace_overhead.is_empty() {
        return Err("the traced loop saw no cold reply, or no whole traced stretch".into());
    }
    let jobs = samples.len() as f64;
    let rpcs = column(&ok, |s| s.rpc_ms);
    let unattributed = tracer.unattributed_shares("job");
    let hot_draws = samples.iter().filter(|s| s.hot).count() as u64;
    let served = counters.cache_hits + counters.coalesced;

    let mut values = vec![
        Value::median_of("core.train_plain_ms", &plains),
        Value::median_of(
            "cloud.protocol.upload_bytes",
            &column(&ok, |s| s.upload_bytes),
        ),
        Value::median_of(
            "cloud.protocol.download_bytes",
            &column(&ok, |s| s.download_bytes),
        ),
        // Only executed jobs report their own training time; a served
        // reply carries the first execution's.
        Value::median_of(
            "cloud.service.train_ms",
            &column(&cold, |s| s.cloud_train_ms),
        ),
        Value::median_of("cloud.rpc_p50_ms", &rpcs).with_note("queue wait at this depth"),
        Value::new("cloud.rpc_p99_ms", stats::p99(&rpcs)?).with_sample(&rpcs),
        Value::new("cloud.cache.served_share", served as f64 / jobs).with_note(format!(
            "{} hits + {} coalesced of {} submissions, {hot_draws} of them hot draws",
            counters.cache_hits,
            counters.coalesced,
            samples.len()
        )),
        Value::median_of("cloud.cache.hot_rpc_p50_ms", &column(&hot, |s| s.rpc_ms)),
        Value::median_of(
            "cloud.cache.unique_rpc_p50_ms",
            &column(&cold, |s| s.rpc_ms),
        ),
        Value::new("process.cpu_s_per_job", cpu_s / jobs),
        Value::new("process.allocs_per_job", allocs as f64 / jobs),
        Value::new("process.alloc_bytes_per_job", alloc_bytes as f64 / jobs),
        Value::new("process.threads", threads),
        Value::median_of("trace.unattributed_share", &unattributed),
        Value::median_of("trace.overhead_ratio", &trace_overhead).with_note(format!(
            "per traced {} ms stretch: rpc p50 / that of the untraced stretches around it",
            TRACE_SEGMENT.as_millis()
        )),
    ];
    let mut violations: Vec<String> = closed_loop_identity(&ok, outstanding).into_iter().collect();
    if counters.jobs_failed + counters.jobs_rejected > 0 {
        violations.push(format!(
            "servers count {} failed and {} rejected jobs",
            counters.jobs_failed, counters.jobs_rejected
        ));
    }
    // The cache design, as exact counts: only a hot draw can be served (a
    // served cold job means the cold cycle is too short to stay unique),
    // and hits, coalescing and eviction must all have happened — the last
    // shows as hot draws that had to execute.
    if served > hot_draws {
        violations.push(format!(
            "self-check: {served} submissions were served but only {hot_draws} were hot draws"
        ));
    }
    if counters.cache_hits == 0 || counters.coalesced == 0 || served == hot_draws {
        violations.push(format!(
            "self-check: the cache saw {} hits, {} coalesced, {} executed hot draws; \
             the workload needs all three",
            counters.cache_hits,
            counters.coalesced,
            hot_draws.saturating_sub(served)
        ));
    }
    let probe = session.probe.clone();
    session.teardown();
    values.extend(layers::measure(
        &probe, via_proxy, seconds, tracer, span_file,
    )?);

    let failed = samples.len() - ok.len();
    let mut report = Report::new(workload, seed, true, samples.len(), failed, values);
    report.violations = violations;
    // A dispatch_* workload must stay dominated by everything that is not
    // training: of one request through the workload's own front door, with
    // nothing queued, most is not the training it carries.
    layers::check_at_least(&mut report, "cloud.rpc_overhead_share", 0.5);
    layers::check_common(&mut report);
    Ok(report)
}
