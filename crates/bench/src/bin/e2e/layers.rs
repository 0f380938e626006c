//! Per-layer numbers of the traced run: differential replay of one payload
//! through the four public entry points, then direct timing of each layer's
//! public functions on the workload's representative job.
//!
//! Nothing here touches the program: every figure is a call made from
//! outside. What sits inside an `rpc` span is split by replaying the *same
//! payload bytes*, one submission at a time on an otherwise idle cluster,
//! through
//!
//! 1. the trainer called directly on the decoded job,
//! 2. an in-process `CloudClient` (queue + middleware, no socket),
//! 3. a `RemoteCloudClient` dialled straight at the `CloudServer`,
//! 4. a `RemoteCloudClient` dialled at an `AmalgamProxy` in front of it,
//!
//! one after the other within each repetition, so drift hits all four
//! alike. Each service tier's *overhead* is its submit-to-reply time minus
//! the training time its own reply reports, which takes the noise of the
//! training itself out of the comparison; a tier's self time is the median,
//! over the repetitions, of its overhead minus that of the tier below. A
//! self time that comes out negative fails the run: the tiers did not
//! separate, and the number is not a layer cost.

use crate::cluster::{client_config, timed_connect, Cluster, Topology};
use crate::jobs::{train_decoded, Bundle, Data, Prepared};
use crate::report::{Report, Value};
use crate::spans::Tracer;
use crate::stats;
use amalgam_cloud::{CloudJob, JobResult, RemoteCloudClient};
use amalgam_core::trainer::lm_head_loss;
use amalgam_core::{augment_cv, augment_images, augment_lm, augment_nlp, Amalgam};
use amalgam_core::{AugmentConfig, NlpTask, NoiseKind};
use amalgam_nn::graph::GraphModel;
use amalgam_nn::loss::cross_entropy;
use amalgam_nn::optim::Sgd;
use amalgam_nn::Mode;
use amalgam_tensor::gemm::{gemm, gemm_batch, BatchMat};
use amalgam_tensor::pack::MatRef;
use amalgam_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Share of `--seconds` the traced run spends in the workload's own loop;
/// the rest is split evenly between replay and the layer probes.
pub const MAIN_SHARE: f64 = 0.5;
const REPLAY_SHARE: f64 = 0.25;
const PROBE_SHARE: f64 = 0.25;
/// Connects timed per entry point, on a cluster that has served nothing yet.
const CONNECTS: usize = 10;
/// Replays one cluster serves before it is replaced by a fresh one. At the
/// commit that defines the benchmark a server's reactor stops being woken
/// for finished replies after a few hundred to a few thousand of them (see
/// `cluster::KEEPALIVE`) and from then on answers a lone submission on the
/// next keep-alive tick. Short rounds keep such stalled replies to a few
/// percent of the sample, where the medians do not see them — also on the
/// `*_train` workloads, whose replays number under ten;
/// `cloud.transport.stalled_share` counts them.
const ROUND: usize = 4;
/// A one-at-a-time remote reply whose overhead exceeds its tier's median by
/// this much (one tick of the reactor's timer wheel) waited for a timer,
/// not for the tiers.
const STALL_MS: f64 = 5.0;
/// Repetitions a probe makes at least and at most, whatever its budget.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 5000;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Calls `step` until `budget_s` is spent, at least [`MIN_REPS`] and at
/// most [`MAX_REPS`] times.
fn repeat_within(budget_s: f64, mut step: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || (start.elapsed().as_secs_f64() < budget_s && reps < MAX_REPS) {
        step();
        reps += 1;
    }
}

/// [`repeat_within`], collecting the number each call returns.
fn sample(budget_s: f64, mut step: impl FnMut() -> f64) -> Vec<f64> {
    let mut out = Vec::new();
    repeat_within(budget_s, || out.push(step()));
    out
}

/// Milliseconds each call of `op` takes, sampled within `budget_s`.
fn timed<R>(budget_s: f64, mut op: impl FnMut() -> R) -> Vec<f64> {
    sample(budget_s, || {
        let t = Instant::now();
        black_box(op());
        ms_since(t)
    })
}

/// Replay and probes for `probe`, within their shares of `seconds`; then
/// writes every span of the run (the replays' included, as jobs of their
/// own) to `span_file`. `via_proxy` says which replay tier is the workload's
/// own front door: `cloud.rpc_overhead_*` are taken there.
///
/// # Errors
///
/// Harness failures: the replay cluster not starting, a replayed job
/// failing or answering with different bytes on different tiers, the span
/// file not being writable.
pub fn measure(
    probe: &Prepared,
    via_proxy: bool,
    seconds: f64,
    mut tracer: Tracer,
    span_file: &std::path::Path,
) -> Result<Vec<Value>, String> {
    let (mut values, result) = replay(probe, via_proxy, seconds * REPLAY_SHARE, &mut tracer)?;
    values.extend(probes(probe, &result, seconds * PROBE_SHARE)?);
    tracer
        .write_tsv(span_file)
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    Ok(values)
}

/// Job ids of replayed submissions in the span file, clear of the
/// workload's own.
const REPLAY_JOB_BASE: u64 = 1 << 41;

/// What the replays yielded, one entry per repetition (milliseconds).
#[derive(Default)]
struct Tiers {
    trainer: Vec<f64>,
    /// In-process submit-to-reply minus the reply's training time.
    in_process: Vec<f64>,
    /// The same for the remote-direct and the via-proxy tier.
    remote: Vec<f64>,
    proxied: Vec<f64>,
    /// Share of the rpc that is overhead, at the workload's own front door.
    front_share: Vec<f64>,
}

impl Tiers {
    /// Per replay: `upper`'s overhead minus `lower`'s.
    fn self_ms(upper: &[f64], lower: &[f64]) -> Vec<f64> {
        upper.iter().zip(lower).map(|(u, l)| u - l).collect()
    }

    /// Remote replies (direct and via the proxy) over [`STALL_MS`] later
    /// than their tier's median.
    fn stalled(&self) -> usize {
        [&self.remote, &self.proxied]
            .iter()
            .map(|tier| {
                let late = stats::median(tier) + STALL_MS;
                tier.iter().filter(|o| **o > late).count()
            })
            .sum()
    }
}

/// Times `CONNECTS` connect + handshake round trips to `addr`.
fn connects(addr: std::net::SocketAddr, via_proxy: bool) -> Result<Vec<f64>, String> {
    (0..CONNECTS)
        .map(|_| {
            let (client, ms) = timed_connect(addr, client_config(via_proxy))?;
            client.close();
            Ok(ms)
        })
        .collect()
}

/// Returns the tier metrics and one of the replies, for the probes to
/// decode and extract from.
fn replay(
    probe: &Prepared,
    via_proxy: bool,
    budget_s: f64,
    tracer: &mut Tracer,
) -> Result<(Vec<Value>, JobResult), String> {
    let topology = Topology {
        backends: 1,
        workers: 1,
        cache_bytes: None,
        via_proxy: true,
        connections: 1,
    };
    let start = Instant::now();
    let mut tiers = Tiers::default();
    let mut kept = None;
    let (mut direct_connects, mut proxy_connects) = (Vec::new(), Vec::new());
    let wants_more = |reps: usize| {
        reps < MIN_REPS || (start.elapsed().as_secs_f64() < budget_s && reps < MAX_REPS)
    };
    while wants_more(tiers.trainer.len()) {
        let cluster = Cluster::start(&topology, &probe.payload)?;
        if direct_connects.is_empty() {
            direct_connects = connects(cluster.backend_addr(0), false)?;
            proxy_connects = connects(cluster.front_addr(), true)?;
        }
        let local = cluster.local_client();
        let proxied = &cluster.clients[0];
        let (direct, _) = timed_connect(cluster.backend_addr(0), client_config(false))?;
        let mut outcome = Ok(());
        for _ in 0..ROUND {
            if !wants_more(tiers.trainer.len()) {
                break;
            }
            outcome = replay_once(
                probe, via_proxy, &local, &direct, proxied, tracer, &mut tiers,
            )
            .map(|reply| kept = Some(reply));
            if outcome.is_err() {
                break;
            }
        }
        cluster.shutdown();
        direct.close();
        outcome?;
    }

    let result = kept.ok_or("no replay completed")?;
    let remote_replies = 2 * tiers.trainer.len();
    let stalled = tiers.stalled();
    let front = if via_proxy {
        &tiers.proxied
    } else {
        &tiers.remote
    };
    let values = vec![
        Value::median_of("core.train_local_ms", &tiers.trainer),
        Value::median_of("cloud.service.dispatch_self_ms", &tiers.in_process)
            .with_note("in-process submit->wait minus train_seconds"),
        Value::median_of("cloud.rpc_overhead_ms", front).with_note(format!(
            "rpc - train_seconds, one at a time {}",
            if via_proxy { "via the proxy" } else { "direct" }
        )),
        Value::median_of("cloud.rpc_overhead_share", &tiers.front_share),
        Value::median_of(
            "cloud.transport.self_ms",
            &Tiers::self_ms(&tiers.remote, &tiers.in_process),
        )
        .with_note("per replay: remote-direct overhead - in-process overhead"),
        Value::new(
            "cloud.transport.stalled_share",
            stalled as f64 / remote_replies as f64,
        )
        .with_note(format!(
            "{stalled} of {remote_replies} remote replies over {STALL_MS} ms later than their tier's median"
        )),
        Value::median_of("cloud.transport.connect_ms", &direct_connects),
        Value::median_of(
            "proxy.self_ms",
            &Tiers::self_ms(&tiers.proxied, &tiers.remote),
        )
        .with_note("per replay: via-proxy overhead - remote-direct overhead"),
        Value::median_of("proxy.connect_ms", &proxy_connects),
    ];
    Ok((values, result))
}

/// One repetition: the same payload through the trainer and the three
/// service tiers, one after the other.
fn replay_once(
    probe: &Prepared,
    via_proxy: bool,
    local: &amalgam_cloud::CloudClient,
    direct: &RemoteCloudClient,
    proxied: &RemoteCloudClient,
    tracer: &mut Tracer,
    tiers: &mut Tiers,
) -> Result<JobResult, String> {
    let job = CloudJob::from_bytes(probe.payload.clone()).map_err(|e| e.to_string())?;
    let mut model = GraphModel::from_bytes(job.model.clone()).map_err(|e| e.to_string())?;
    let t = Instant::now();
    train_decoded(&job, &mut model);
    tiers.trainer.push(ms_since(t));

    let id = REPLAY_JOB_BASE + tiers.trainer.len() as u64;
    let failed = |e| format!("replayed job failed: {e}");
    let span = tracer.begin("replay.in_process", id, 0);
    let a = local
        .submit_payload(probe.payload.clone())
        .and_then(|h| h.wait());
    tracer.end(span);
    let a_ms = tracer.ms(span);
    let span = tracer.begin("replay.remote_direct", id, 0);
    let b = direct
        .submit_payload(probe.payload.clone())
        .and_then(|h| h.wait());
    tracer.end(span);
    let b_ms = tracer.ms(span);
    let span = tracer.begin("replay.remote_via_proxy", id, 0);
    let c = proxied
        .submit_payload(probe.payload.clone())
        .and_then(|h| h.wait());
    tracer.end(span);
    let c_ms = tracer.ms(span);
    let (a, b, c) = (a.map_err(failed)?, b.map_err(failed)?, c.map_err(failed)?);
    if a.trained_model != b.trained_model || a.trained_model != c.trained_model {
        return Err("the same payload trained to different bytes on different tiers".into());
    }

    let overhead = |rpc_ms: f64, reply: &JobResult| rpc_ms - reply.train_seconds * 1e3;
    let (a_over, b_over, c_over) = (overhead(a_ms, &a), overhead(b_ms, &b), overhead(c_ms, &c));
    tiers.in_process.push(a_over);
    tiers.remote.push(b_over);
    tiers.proxied.push(c_over);
    tiers.front_share.push(if via_proxy {
        c_over / c_ms
    } else {
        b_over / b_ms
    });
    Ok(a)
}

/// GEMM shapes probed on every workload, so a kernel change shows against
/// the same three numbers everywhere. `(batch, m, n, k)`.
///
/// * conv: LeNet-5's second convolution on a 24 px job (36 px augmented,
///   18×18 after pooling) as an im2col product — 16 filters × (6·5·5) taps
///   × (16 images · 324 positions).
/// * attention: the LM's score product Q·Kᵀ on a 16-token job (24
///   augmented) — 8 sequences × 2 heads, head dimension 16.
/// * small: the 32³ product at the edge of the direct (non-packing) path.
const GEMM_CONV: (usize, usize, usize, usize) = (1, 16, 5184, 150);
const GEMM_ATTN: (usize, usize, usize, usize) = (16, 24, 24, 16);
const GEMM_SMALL: (usize, usize, usize, usize) = (1, 32, 32, 32);

/// GFLOP/s of one GEMM shape; plain `gemm` for a batch of one,
/// `gemm_batch` (B transposed, as attention scores use it) otherwise.
fn gemm_gflops(name: &'static str, shape: (usize, usize, usize, usize), budget_s: f64) -> Value {
    let (batch, m, n, k) = shape;
    let mut rng = Rng::seed_from(7);
    let a: Vec<f32> = (0..batch * m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..batch * k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut c = vec![0.0f32; batch * m * n];
    let flops = 2.0 * (batch * m * n * k) as f64;
    // Enough calls per sample that the clock reads are noise.
    let inner = ((2e7 / flops) as usize).clamp(1, 2000);
    let rates = sample(budget_s, || {
        let t = Instant::now();
        for _ in 0..inner {
            if batch == 1 {
                c.fill(0.0);
                gemm(
                    m,
                    n,
                    k,
                    MatRef::row_major(&a, k),
                    MatRef::row_major(&b, n),
                    &mut c,
                );
            } else {
                gemm_batch(
                    batch,
                    m,
                    n,
                    k,
                    BatchMat::row_major(&a, m, k),
                    BatchMat::transposed(&b, n, k),
                    0.25,
                    &mut c,
                );
            }
            black_box(&mut c);
        }
        flops * inner as f64 / t.elapsed().as_secs_f64() / 1e9
    });
    Value::median_of(name, &rates).with_note(format!("batch={batch} m={m} n={n} k={k}"))
}

fn probes(probe: &Prepared, result: &JobResult, budget_s: f64) -> Result<Vec<Value>, String> {
    // Fifteen timed quantities share the budget.
    let slice = budget_s / 15.0;
    let original = &probe.original;
    let bundle = &probe.bundle;
    let noise = NoiseKind::UniformRandom;
    let mut rng = Rng::seed_from(11);

    // core: the two halves of `obfuscate`, called on their own.
    let model_cfg = AugmentConfig::new(crate::jobs::AUGMENTATION)
        .with_subnets(crate::jobs::SUBNETS)
        .with_seed(13);
    let (dataset_ms, model_ms) = match (&original.data, bundle) {
        (Data::Image(pair), Bundle::Image(b)) => {
            let classes = pair.train.num_classes();
            (
                timed(slice, || {
                    augment_images(&pair.train, &b.plan, &noise, &mut rng)
                }),
                timed(slice, || {
                    augment_cv(&original.model, &b.plan, classes, &model_cfg)
                }),
            )
        }
        (Data::Lm { batches, .. }, Bundle::Lm(b)) => (
            timed(slice, || augment_lm(batches, &b.plan, &noise, &mut rng)),
            timed(slice, || {
                augment_nlp(&original.model, &b.plan, NlpTask::LanguageModel, &model_cfg)
            }),
        ),
        _ => return Err("probe bundle does not match its original".into()),
    };

    let job = CloudJob::from_bytes(probe.payload.clone()).map_err(|e| e.to_string())?;
    let trained_bytes = result.trained_model.clone();
    let trained = GraphModel::from_bytes(trained_bytes.clone()).map_err(|e| e.to_string())?;
    let result_bytes = result.to_bytes();

    let extract_ms = timed(slice, || {
        Amalgam::extract(&trained, &original.model, bundle.secrets())
    });
    let model_encode_ms = timed(slice, || bundle.model().to_bytes());
    let model_decode_ms = timed(slice, || GraphModel::from_bytes(trained_bytes.clone()));
    let job_encode_ms = timed(slice, || job.to_bytes());
    let job_decode_ms = timed(slice, || CloudJob::from_bytes(probe.payload.clone()));
    let result_decode_ms = timed(slice, || JobResult::from_bytes(result_bytes.clone()));

    // nn: one training step of the augmented model on its first batch.
    let (forward_ms, backward_ms, step_ms) = one_step(probe, 3.0 * slice);

    // The same conv product with the tensor pool at every hardware thread:
    // what the pool buys (or costs) at the size these jobs run it.
    let configured = amalgam_tensor::parallel::threads();
    amalgam_tensor::parallel::set_threads(crate::procfs::hw_threads());
    let pooled_conv = gemm_gflops("tensor.gemm_conv_pool_gflops", GEMM_CONV, slice);
    amalgam_tensor::parallel::set_threads(configured);
    let pooled_conv = pooled_conv.with_note(format!(
        "pool at {} threads; batch=1 m=16 n=5184 k=150",
        crate::procfs::hw_threads()
    ));

    Ok(vec![
        Value::median_of("core.dataset_augment_ms", &dataset_ms),
        Value::median_of("core.model_augment_ms", &model_ms),
        Value::median_of("core.extract_ms", &extract_ms),
        Value::median_of("nn.forward_ms", &forward_ms),
        Value::median_of("nn.backward_ms", &backward_ms),
        Value::median_of("nn.optim_step_ms", &step_ms),
        Value::median_of("nn.model_encode_ms", &model_encode_ms),
        Value::median_of("nn.model_decode_ms", &model_decode_ms),
        gemm_gflops("tensor.gemm_conv_gflops", GEMM_CONV, slice),
        pooled_conv,
        gemm_gflops("tensor.gemm_batch_attn_gflops", GEMM_ATTN, slice),
        gemm_gflops("tensor.gemm_small_gflops", GEMM_SMALL, slice),
        Value::median_of("cloud.protocol.job_encode_ms", &job_encode_ms),
        Value::median_of("cloud.protocol.job_decode_ms", &job_decode_ms),
        Value::median_of("cloud.protocol.result_decode_ms", &result_decode_ms),
    ])
}

/// Forward, backward and optimizer step of the augmented model on one
/// batch, each timed on its own: `(forward, backward, step)` samples in ms.
fn one_step(probe: &Prepared, budget_s: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let tc = probe.train;
    let mut model = probe.bundle.model().clone();
    let mut opt = Sgd::new(tc.lr).with_momentum(tc.momentum);
    let (x, labels, keeps): (Tensor, Vec<usize>, &[Vec<usize>]) = match &probe.bundle {
        Bundle::Image(b) => {
            let idx: Vec<usize> = (0..tc.batch_size.min(b.augmented_train.len())).collect();
            let (x, labels) = b.augmented_train.batch_at(&idx);
            (x, labels, &[])
        }
        Bundle::Lm(b) => (
            b.augmented_train.windows[0].clone(),
            Vec::new(),
            &b.secrets.head_keeps,
        ),
    };
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    repeat_within(budget_s, || {
        let t = Instant::now();
        let outs = model.forward(&[&x], Mode::Train);
        fwd.push(ms_since(t));
        let seeds: Vec<Tensor> = outs
            .iter()
            .enumerate()
            .map(|(h, out)| match keeps.get(h) {
                Some(keep) => lm_head_loss(out, &x, keep).1,
                None => cross_entropy(out, &labels).1,
            })
            .collect();
        model.zero_grad();
        let t = Instant::now();
        model.backward(&seeds);
        bwd.push(ms_since(t));
        let t = Instant::now();
        opt.step(&mut model.params_mut());
        step.push(ms_since(t));
    });
    (fwd, bwd, step)
}

fn value_of(report: &Report, name: &str) -> Option<f64> {
    report
        .values
        .iter()
        .find(|v| v.name == name)
        .map(|v| v.value)
}

/// Fails the run's self-check unless metric `name` is at most `limit`.
pub fn check_at_most(report: &mut Report, name: &str, limit: f64) {
    if let Some(v) = value_of(report, name) {
        if v > limit {
            report
                .violations
                .push(format!("self-check: {name} = {v:.4} exceeds {limit}"));
        }
    }
}

/// Fails the run's self-check unless metric `name` is at least `limit`.
pub fn check_at_least(report: &mut Report, name: &str, limit: f64) {
    if let Some(v) = value_of(report, name) {
        if v < limit {
            report
                .violations
                .push(format!("self-check: {name} = {v:.4} is below {limit}"));
        }
    }
}

/// The self-checks every traced run owes: the spans account for the job
/// (unattributed share ≤ 10 %), recording them is cheap, and the replay
/// separated the tiers (no negative self time).
///
/// `trace.overhead_ratio` is a median of a few tens of traced/untraced
/// ratios that each carry the run-to-run noise of the box (several percent),
/// so its check asks for an excess that is *resolved*: it fails when three
/// quarters of the ratios exceed 1.05.
pub fn check_common(report: &mut Report) {
    check_at_most(report, "trace.unattributed_share", 0.10);
    let overhead = report
        .values
        .iter()
        .find(|v| v.name == "trace.overhead_ratio")
        .and_then(|v| v.sample);
    if let Some(s) = overhead.filter(|s| s.q1 > 1.05) {
        report.violations.push(format!(
            "self-check: trace.overhead_ratio exceeds 1.05 in three quarters of {} pairs (q1 = {:.4})",
            s.n, s.q1
        ));
    }
    check_at_least(report, "cloud.transport.self_ms", 0.0);
    check_at_least(report, "proxy.self_ms", 0.0);
}
