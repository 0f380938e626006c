//! `cv_train` and `lm_train`: one session, one job at a time, the whole
//! paper path per job.
//!
//! Closed loop with one client: an Amalgam user submits a job and waits for
//! the model. Each job runs augment → encode → submit → reactor → queue →
//! middleware → Algorithm 1 → reply → decode → extract against one
//! `CloudServer` (workers = 1, tensor pool = 1, cache off), and is
//! followed — outside its timed span — by plain local training of the
//! un-augmented original. That plain run is both the denominator of
//! `overhead_ratio` and, under the repo's bit-exact equivalence guarantee,
//! the reference the extracted weights must equal.

use crate::cluster::{timed_setups, Cluster, Topology, SETUP_REPEATS};
use crate::jobs::{item_rng, same_weights, Kind, Original, Prepared};
use crate::report::{Report, Value};
use crate::spans::{spanned, Tracer};
use crate::stats::column;
use crate::{alloc, layers, procfs, stats};
use amalgam_core::Amalgam;
use amalgam_nn::graph::GraphModel;
use bytes::Bytes;
use std::time::Instant;

/// Originals per input geometry; jobs reuse them under fresh obfuscation
/// and shuffle seeds, so every job's payload is distinct while set-up
/// stays cheap.
const POOL_PER_SHAPE: usize = 8;
/// A run on a box too slow to reach the p90 sample floor within
/// `--seconds` keeps going until it has the samples, but gives up here.
const HARD_STOP_FACTOR: f64 = 5.0;

/// Tensor-pool threads of the `*_train` workloads (ISSUE 11 asked for
/// nproc). On the 2-vCPU reference box the pool at two threads makes these
/// jobs 25-40 % *slower* (`lm_train` job wall 46-53 ms against 33-37 ms) and
/// three times as noisy: a job's GEMMs are small, every parallel region
/// hands work across vCPUs through a futex, and the hand-off stalls whenever
/// the hypervisor has the other vCPU descheduled (system time 3.0 s against
/// 0.3 s per 10 s run). One thread measures the kernels; the pool's own
/// cost is tracked by `tensor.gemm_conv_pool_gflops` in the traced run.
const TENSOR_POOL_THREADS: usize = 1;

const STREAM_POOL: u64 = 1;
const STREAM_JOB: u64 = 2;
/// Job indices of the untimed warm-up, disjoint from measured ones.
const WARMUP_BASE: u64 = 1 << 40;

/// What one job yielded.
#[derive(Debug, Clone)]
struct JobSample {
    traced: bool,
    /// Output was right: the reply decoded, extraction succeeded and the
    /// extracted weights equal plain local training bit for bit.
    ok: bool,
    /// augment → extract, milliseconds.
    wall_ms: f64,
    /// submit → reply observed.
    rpc_ms: f64,
    /// `JobResult::train_seconds`, in milliseconds.
    cloud_train_ms: f64,
    /// Plain local training of the original.
    plain_ms: f64,
    upload_bytes: f64,
    download_bytes: f64,
    /// Process CPU seconds spent across the job (traced runs only).
    cpu_s: f64,
}

struct Session {
    kind: Kind,
    seed: u64,
    pool: Vec<Original>,
    cluster: Cluster,
}

impl Session {
    /// Input generation, server bind, connect and warm-up: everything
    /// `setup_s` covers.
    fn setup(kind: Kind, seed: u64) -> Result<Session, String> {
        amalgam_tensor::parallel::set_threads(TENSOR_POOL_THREADS);
        let shapes = kind.shapes();
        let pool = (0..shapes * POOL_PER_SHAPE)
            .map(|p| {
                Original::generate(kind, p % shapes, &mut item_rng(seed, STREAM_POOL, p as u64))
            })
            .collect();
        let topology = Topology {
            backends: 1,
            workers: 1,
            cache_bytes: None,
            via_proxy: false,
            connections: 1,
        };
        let cluster = Cluster::start(&topology, &Bytes::new())?;
        let session = Session {
            kind,
            seed,
            pool,
            cluster,
        };
        for w in 0..shapes as u64 {
            let sample = session.run_job(WARMUP_BASE + w, None)?;
            if !sample.ok {
                return Err("warm-up job returned a wrong model".into());
            }
        }
        Ok(session)
    }

    fn original(&self, index: u64) -> &Original {
        &self.pool[(index % self.pool.len() as u64) as usize]
    }

    fn seeds(&self, index: u64) -> (u64, u64) {
        let mut rng = item_rng(self.seed, STREAM_JOB, index);
        (rng.next_u64(), rng.next_u64())
    }

    /// The untimed build of job `index`, for the layer probes.
    fn prepared(&self, index: u64) -> Result<Prepared, String> {
        let (obf_seed, train_seed) = self.seeds(index);
        Prepared::build(self.original(index).clone(), obf_seed, train_seed)
    }

    /// One job along the whole path, then its plain baseline and check.
    ///
    /// # Errors
    ///
    /// Only harness-side failures (obfuscation refusing the harness's own
    /// inputs). A job the *system* fails comes back `ok: false`.
    fn run_job(&self, index: u64, mut tracer: Option<&mut Tracer>) -> Result<JobSample, String> {
        let original = self.original(index);
        let (obf_seed, train_seed) = self.seeds(index);
        let tc = self.kind.train_config(train_seed);
        let traced = tracer.is_some();
        let cpu0 = if traced { procfs::cpu_seconds() } else { 0.0 };
        alloc::set_counting(traced);

        let job = tracer
            .as_deref_mut()
            .map_or(0, |t| t.begin("job", index, 0));
        let t0 = Instant::now();
        let (bundle, obf) = spanned(&mut tracer, "core.obfuscate", index, job, || {
            original.obfuscate(obf_seed)
        });
        let bundle = bundle?;
        if let Some(t) = tracer.as_deref_mut() {
            // The facade reports the dataset half itself; the rest of the
            // call is plan + model augmentation.
            let dataset_s = bundle.dataset_seconds();
            let model_s = t.ms(obf) / 1e3 - dataset_s;
            t.reported_child("core.obfuscate.dataset", obf, 0.0, dataset_s);
            t.reported_child("core.obfuscate.model", obf, dataset_s, model_s);
        }
        let (model_bytes, _) = spanned(&mut tracer, "nn.model_encode", index, job, || {
            bundle.model().to_bytes()
        });
        let (payload, _) = spanned(&mut tracer, "cloud.protocol.job_encode", index, job, || {
            bundle.cloud_job(model_bytes, tc).to_bytes()
        });
        let upload_bytes = payload.len() as f64;
        let t3 = Instant::now();
        let (reply, _) = spanned(&mut tracer, "rpc", index, job, || {
            self.cluster.clients[0]
                .submit_payload(payload)
                .and_then(|h| h.wait())
        });
        let t4 = Instant::now();
        let (decoded, _) = spanned(&mut tracer, "nn.model_decode", index, job, || {
            reply
                .as_ref()
                .ok()
                .and_then(|r| GraphModel::from_bytes(r.trained_model.clone()).ok())
        });
        let (extracted, _) = spanned(&mut tracer, "core.extract", index, job, || {
            decoded
                .as_ref()
                .and_then(|m| Amalgam::extract(m, &original.model, bundle.secrets()).ok())
        });
        let t6 = Instant::now();
        if let Some(t) = tracer {
            t.end(job);
        }

        alloc::set_counting(false);
        let cpu_s = if traced {
            procfs::cpu_seconds() - cpu0
        } else {
            0.0
        };

        let mut plain = original.model.clone();
        let p0 = Instant::now();
        original.train_plain(&mut plain, &tc);
        let plain_ms = p0.elapsed().as_secs_f64() * 1e3;
        let ok = extracted.is_some_and(|e| same_weights(&e.model, &plain));
        if let Err(e) = &reply {
            eprintln!("job {index} failed: {e}");
        }
        let (cloud_train_ms, download_bytes) = reply
            .map(|r| (r.train_seconds * 1e3, r.bytes_sent as f64))
            .unwrap_or((0.0, 0.0));
        Ok(JobSample {
            traced,
            ok,
            wall_ms: (t6 - t0).as_secs_f64() * 1e3,
            rpc_ms: (t4 - t3).as_secs_f64() * 1e3,
            cloud_train_ms,
            plain_ms,
            upload_bytes,
            download_bytes,
            cpu_s,
        })
    }

    fn teardown(self) {
        self.cluster.shutdown();
    }
}

/// The end-to-end run (tracing off).
///
/// # Errors
///
/// Harness failures, and a run too short for the percentiles it owes.
pub fn run_untraced(
    workload: &'static str,
    kind: Kind,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let (session, setup_s) = timed_setups(|| Session::setup(kind, seed), Session::teardown)?;
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = samples.len() >= stats::MIN_SAMPLES_P90;
        if (elapsed >= seconds && enough) || elapsed >= seconds * HARD_STOP_FACTOR {
            break;
        }
        samples.push(session.run_job(samples.len() as u64, None)?);
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    let samples_per_job = session.original(0).samples() * kind.train_config(0).epochs;
    session.teardown();

    let ok: Vec<&JobSample> = samples.iter().filter(|s| s.ok).collect();
    if ok.is_empty() {
        return Err("no job returned a correct model".into());
    }
    let walls = column(&ok, |s| s.wall_ms);
    let plains = column(&ok, |s| s.plain_ms);
    // Throughput on the session's busy clock (the sum of job walls): the
    // interleaved plain baseline is the harness's, not the user's, time.
    let mut busy = 0.0;
    let mut jobs = Vec::with_capacity(ok.len());
    for s in &ok {
        busy += s.wall_ms / 1e3;
        jobs.push((busy, 1.0));
    }
    // Nine jobs per window: three full turns of the geometry cycle.
    let groups = (ok.len() / 9).max(1);
    let values = vec![
        Value::new("setup_s", setup_s).with_note(format!("median of {SETUP_REPEATS} set-ups")),
        Value::new("jobs_per_s", stats::windowed_rate(&jobs, busy, groups)).with_note(format!(
            "median of {groups} windows of the session's busy time; every job trains \
             {samples_per_job} samples x epochs"
        )),
        Value::median_of("job_wall_p50_ms", &walls),
        Value::new("job_wall_p90_ms", stats::p90(&walls)?).with_sample(&walls),
        Value::median_of("overhead_ratio", &column(&ok, |s| s.wall_ms / s.plain_ms)).with_note(
            format!(
                "per job: wall / plain local training of its original (plain p50 {:.3} ms)",
                stats::median(&plains)
            ),
        ),
        Value::new("peak_rss_mb", peak_rss_mb),
    ];
    let failed = samples.len() - ok.len();
    Ok(Report::new(
        workload,
        seed,
        false,
        samples.len(),
        failed,
        values,
    ))
}

/// The traced run: the same loop with each job run twice, with and without
/// spans, then differential replay and the layer probes.
///
/// # Errors
///
/// Harness failures, including the span file not being writable.
pub fn run_traced(
    workload: &'static str,
    kind: Kind,
    seed: u64,
    seconds: f64,
    span_file: &std::path::Path,
) -> Result<Report, String> {
    let session = Session::setup(kind, seed)?;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut samples: Vec<JobSample> = Vec::new();
    let main_s = seconds * layers::MAIN_SHARE;
    // Every job runs twice back to back, once recording spans and once not
    // (which goes first alternates): the same work under the same
    // conditions, so the ratio of the two walls is the cost of tracing.
    // Whole turns of the geometry cycle, so both halves hold every
    // geometry.
    let turn = 2 * kind.shapes();
    while epoch.elapsed().as_secs_f64() < main_s || !samples.len().is_multiple_of(turn) {
        let index = (samples.len() / 2) as u64;
        let second = samples.len() % 2 == 1;
        let traced = second != (index % 2 == 1);
        let tr = traced.then_some(&mut tracer);
        samples.push(session.run_job(index, tr)?);
    }
    let threads = procfs::threads() as f64;
    let (allocs, alloc_bytes) = alloc::counters();
    let counters = session.cluster.counters();

    let trace_ratios: Vec<f64> = samples
        .chunks_exact(2)
        .filter(|pair| pair[0].ok && pair[1].ok)
        .map(|pair| {
            let (traced, plain) = if pair[0].traced {
                (&pair[0], &pair[1])
            } else {
                (&pair[1], &pair[0])
            };
            traced.wall_ms / plain.wall_ms
        })
        .collect();
    let ok: Vec<&JobSample> = samples.iter().filter(|s| s.ok).collect();
    let ok_traced: Vec<&JobSample> = ok.iter().copied().filter(|s| s.traced).collect();
    if ok_traced.is_empty() || trace_ratios.is_empty() {
        return Err("no traced job returned a correct model".into());
    }
    let unattributed = tracer.unattributed_shares("job");
    let rpcs = column(&ok, |s| s.rpc_ms);
    let traced_jobs = ok_traced.len() as f64;
    let cpu_s: f64 = ok_traced.iter().map(|s| s.cpu_s).sum();
    let served_share =
        (counters.cache_hits + counters.coalesced) as f64 / samples.len().max(1) as f64;

    let mut values = vec![
        Value::median_of("core.train_plain_ms", &column(&ok, |s| s.plain_ms)),
        Value::median_of(
            "cloud.protocol.upload_bytes",
            &column(&ok, |s| s.upload_bytes),
        ),
        Value::median_of(
            "cloud.protocol.download_bytes",
            &column(&ok, |s| s.download_bytes),
        ),
        Value::median_of("cloud.service.train_ms", &column(&ok, |s| s.cloud_train_ms)),
        Value::median_of("cloud.rpc_p50_ms", &rpcs),
        Value::new("cloud.rpc_p99_ms", 0.0)
            .with_note(format!("refused: {} samples, a p99 needs 1000", rpcs.len())),
        Value::new("cloud.cache.served_share", served_share).with_note("cache off"),
        Value::new("cloud.cache.hot_rpc_p50_ms", 0.0).with_note("no hot set on this workload"),
        Value::median_of("cloud.cache.unique_rpc_p50_ms", &rpcs),
        Value::new("process.cpu_s_per_job", cpu_s / traced_jobs)
            .with_note("traced jobs only, plain baseline excluded"),
        Value::new("process.allocs_per_job", allocs as f64 / traced_jobs),
        Value::new(
            "process.alloc_bytes_per_job",
            alloc_bytes as f64 / traced_jobs,
        ),
        Value::new("process.threads", threads),
        Value::median_of("trace.unattributed_share", &unattributed),
        Value::median_of("trace.overhead_ratio", &trace_ratios)
            .with_note("traced / untraced wall of the same job, run back to back"),
    ];
    // The layer probes time one representative job: the middle geometry.
    let probe = session.prepared(1)?;
    session.teardown();
    values.extend(layers::measure(&probe, false, seconds, tracer, span_file)?);

    let failed = samples.len() - ok.len();
    let mut report = Report::new(workload, seed, true, samples.len(), failed, values);
    // A *_train workload must stay compute-bound, or it no longer measures
    // what it claims: of one request to the server, with nothing queued, at
    // most 5 % is not training.
    layers::check_at_most(&mut report, "cloud.rpc_overhead_share", 0.05);
    layers::check_common(&mut report);
    Ok(report)
}
