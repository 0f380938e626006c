//! Quick dedup-regression smoke: times a result-cache hit against cold
//! execution of the same job, times an 8-deep coalesced wave, verifies the
//! served bytes are bitwise identical to uncached training, and emits a
//! `BENCH_cloud.json` baseline.
//!
//! ```text
//! cloud-quick [--out DIR] [--check]
//! ```
//!
//! `--check` turns the run into a pass/fail gate (used by CI): it fails if
//! a cache hit is not ≥ 10x faster than cold dispatch of the same job, if
//! a hit or coalesced wave executes the training pipeline more than once,
//! if any served result diverges bitwise from an uncached run, if the
//! transport's thread count scales with the number of open connections
//! (64 concurrent sessions must run on the fixed reactor pool alone), if
//! killing one of three proxied backends mid-flight loses or corrupts
//! a single accepted job (the `cloud_proxy_failover` entry), if a run
//! resumed from a mid-job checkpoint diverges bitwise from the
//! uninterrupted run or recomputes all of its epochs instead of just the
//! tail (the `cloud_resume` entry), if a traced served job diverges
//! bitwise or the Prometheus endpoint fails to serve the
//! per-stage quantile series (the `cloud_scrape` entry), or if the bulk
//! digest behind every content address is not ≥ 2x the single `siphash128`
//! chain it replaced on a 128 KB job encoding (the `cloud_address` entry;
//! judged in a build for AVX-512, where the compiler vectorises the
//! digest's eight lanes, reported as skipped in any other).
//!
//! Like the kernel gates, every service runs one worker: the criteria are
//! per-core ratios, and CI runners have unpredictable core counts.

use amalgam_cloud::hash::{digest128, siphash128};
use amalgam_cloud::transport::TransportConfig;
use amalgam_cloud::{
    CheckpointStore, CloudJob, CloudServer, CloudService, ContentAddress, MemoryCheckpointStore,
    RemoteCloudClient, TaskPayload,
};
use amalgam_core::TrainConfig;
use amalgam_models::lenet5;
use amalgam_tensor::{Rng, Tensor};
use bytes::Bytes;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Throughput in GB/s of `hash` over `payload`: best of 9 timed batches of
/// 32 calls (a batch is ≈ 1 ms, well above the clock's resolution).
fn hash_gbps(payload: &[u8], hash: fn(u64, u64, &[u8]) -> u128) -> f64 {
    const CALLS: usize = 32;
    let ms = time_ms(9, || {
        for _ in 0..CALLS {
            black_box(hash(1, 2, black_box(payload)));
        }
    });
    (CALLS * payload.len()) as f64 / (ms * 1e6)
}

/// Small but representative: 2 epochs over 16 images keep cold dispatch
/// in real-training territory (~ms) while the whole gate stays quick.
fn tiny_job(seed: u64) -> CloudJob {
    lenet_job(seed, 8)
}

/// [`tiny_job`] at `hw` × `hw` pixels; 12 px encodes to 131 293 bytes,
/// within 3 % of the benchmark's `dispatch_*` submissions (127 828).
fn lenet_job(seed: u64, hw: usize) -> CloudJob {
    let mut rng = Rng::seed_from(21 + seed);
    let model = lenet5(1, hw, 2, &mut rng);
    let inputs = Tensor::randn(&[16, 1, hw, hw], &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(2, 8, 0.05).with_seed(seed),
    }
}

struct Entry {
    name: &'static str,
    fields: Vec<(&'static str, f64)>,
}

/// A [`CheckpointStore`] that also logs every snapshot ever written —
/// the deterministic stand-in for "the process died right after epoch k"
/// used by the `cloud_resume` gate.
#[derive(Debug, Default)]
struct SnapshotLog {
    inner: MemoryCheckpointStore,
    log: Mutex<Vec<Bytes>>,
}

impl CheckpointStore for SnapshotLog {
    fn load(&self, addr: ContentAddress) -> Option<Bytes> {
        self.inner.load(addr)
    }

    fn store(&self, addr: ContentAddress, bytes: Bytes) {
        self.log.lock().expect("snapshot log").push(bytes.clone());
        self.inner.store(addr, bytes);
    }

    fn remove(&self, addr: ContentAddress) {
        self.inner.remove(addr);
    }
}

/// Count of live threads whose name starts with `prefix`, from
/// `/proc/self/task` (Linux; names kernel-truncated to 15 bytes).
fn threads_with_prefix(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim().starts_with(prefix))
        .count()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--check" => check = true,
            other => panic!("unknown option {other} (usage: cloud-quick [--out DIR] [--check])"),
        }
    }

    let job = tiny_job(0);
    let mut entries = Vec::new();
    let mut failures = Vec::new();

    // Content address: the bulk digest against the one SipHash chain it
    // replaced, over a 128 KB job encoding. The digest is plain Rust, and
    // its ≥ 2x is the compiler running the eight lanes in vector registers
    // — which it does where the target has a 64-bit vector rotate. Built
    // for an AVX2-only x86 it prefers scalar `rorx` and the digest reads
    // 1.0–1.5x the chain, so only an AVX-512 build is held to the 2x.
    let lanes_vectorise = cfg!(target_feature = "avx512f");
    let payload = lenet_job(0, 12).to_bytes();
    let siphash128_gbps = hash_gbps(&payload, siphash128);
    let digest_gbps = hash_gbps(&payload, digest128);
    let address_speedup = digest_gbps / siphash128_gbps;
    entries.push(Entry {
        name: "cloud_address",
        fields: vec![
            ("bytes", payload.len() as f64),
            ("siphash128_gbps", siphash128_gbps),
            ("digest_gbps", digest_gbps),
            ("speedup", address_speedup),
        ],
    });
    if lanes_vectorise && address_speedup < 2.0 {
        failures.push(format!(
            "content address digests {digest_gbps:.2} GB/s, only {address_speedup:.2}x the \
             siphash128 chain's {siphash128_gbps:.2} (want ≥ 2x in an AVX-512 build)"
        ));
    }

    // Uncached ground truth: every dispatch trains.
    let cold = CloudService::builder().workers(1).build();
    let cold_client = cold.client();
    let expected = cold_client.train(&job).expect("cold train").trained_model;
    let cold_ms = time_ms(5, || {
        cold_client.train(&job).expect("cold train");
    });
    cold.shutdown();

    // Warmed result cache: dispatch is a hash plus a lookup.
    let cached = CloudService::builder()
        .workers(1)
        .result_cache(1 << 20, Duration::from_secs(3600))
        .build();
    let hit_client = cached.client();
    let warm = hit_client.train(&job).expect("warming train");
    if warm.trained_model != expected {
        failures.push("cached service's execution diverged from the uncached run".to_string());
    }
    let hit_ms = time_ms(20, || {
        let hit = hit_client.train(&job).expect("cache hit");
        if hit.trained_model != expected {
            panic!("a cache hit served bytes that diverge from uncached training");
        }
    });
    let hit_speedup = cold_ms / hit_ms;
    entries.push(Entry {
        name: "cloud_cache_hit",
        fields: vec![
            ("cold_ms", cold_ms),
            ("hit_ms", hit_ms),
            ("speedup", hit_speedup),
        ],
    });
    if hit_speedup < 10.0 {
        failures.push(format!(
            "cache hit only {hit_speedup:.1}x faster than cold dispatch (want ≥ 10x)"
        ));
    }
    let stats = cached.stats();
    if stats.jobs_completed != 1 {
        failures.push(format!(
            "hit path executed training {} times (want exactly the warming run)",
            stats.jobs_completed
        ));
    }
    cached.shutdown();

    // Coalesced wave: capacity 0 caches nothing, so each wave's first
    // submission executes and the other 7 coalesce onto it in flight.
    let coalescing = CloudService::builder()
        .workers(1)
        .result_cache(0, Duration::ZERO)
        .build();
    let wave_client = coalescing.client();
    let wave_ms = time_ms(5, || {
        let handles: Vec<_> = (0..8)
            .map(|_| wave_client.submit(&job).expect("wave submit"))
            .collect();
        for handle in handles {
            let result = handle.wait().expect("wave job");
            if result.trained_model != expected {
                panic!("a coalesced result diverged from uncached training");
            }
        }
    });
    let stats = coalescing.stats();
    entries.push(Entry {
        name: "cloud_coalesced_wave8",
        fields: vec![
            ("wave_ms", wave_ms),
            ("per_submission_ms", wave_ms / 8.0),
            ("executions", stats.jobs_completed as f64),
            ("coalesced", stats.coalesced as f64),
        ],
    });
    // Each timed wave should execute once; submits are pipelined far
    // faster than training, so anything close to 8 executions per wave
    // means coalescing is broken. Allow slack for waves whose first job
    // finishes mid-burst (the next submission then starts a second
    // execution legitimately).
    let waves = 5; // the timing reps
    if stats.jobs_completed > 2 * waves {
        failures.push(format!(
            "{} executions across {} waves of 8 identical submissions — duplicates are not coalescing",
            stats.jobs_completed, waves
        ));
    }
    coalescing.shutdown();

    // Connection scale: 64 concurrent loopback sessions against the
    // reactor transport. The per-submission latency is one job routed
    // through a pooled session, and the thread gauge proves the transport
    // runs on a fixed pool — O(io_threads), not O(connections).
    const SESSIONS: usize = 64;
    const IO_THREADS: usize = 2;
    let service = CloudService::builder().workers(1).build();
    let config = TransportConfig::default()
        .io_threads(IO_THREADS)
        .max_connections(SESSIONS + 8);
    let server = CloudServer::bind_with(service, "127.0.0.1:0", config).expect("bind loopback");
    let clients: Vec<RemoteCloudClient> = (0..SESSIONS)
        .map(|i| {
            RemoteCloudClient::connect(server.local_addr())
                .unwrap_or_else(|e| panic!("connect session {i}: {e}"))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.session_count() < SESSIONS {
        assert!(
            Instant::now() < deadline,
            "only {}/{SESSIONS} sessions established",
            server.session_count()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let per_conn_threads = threads_with_prefix("cloud-session");
    let transport_threads = threads_with_prefix("cloud-reactor") + per_conn_threads;
    let wave_ms = time_ms(3, || {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| c.submit(&job).expect("scale submit"))
            .collect();
        for handle in handles {
            let result = handle.wait().expect("scale job");
            if result.trained_model != expected {
                panic!("a pooled-session result diverged from uncached training");
            }
        }
    });
    entries.push(Entry {
        name: "cloud_conn_scale",
        fields: vec![
            ("sessions", SESSIONS as f64),
            ("per_submission_ms", wave_ms / SESSIONS as f64),
            ("transport_threads", transport_threads as f64),
            ("io_threads", IO_THREADS as f64),
        ],
    });
    // With per-connection threads the transport side alone would be 2×64;
    // the reactor pool, whose reactor 0 accepts, must stay at io_threads
    // regardless.
    if per_conn_threads != 0 {
        failures.push(format!(
            "{per_conn_threads} per-connection transport threads exist (want a fixed reactor pool)"
        ));
    }
    if transport_threads > IO_THREADS {
        failures.push(format!(
            "transport runs {transport_threads} threads for {SESSIONS} connections \
             (want ≤ {IO_THREADS} reactors)"
        ));
    }
    for client in clients {
        client.close();
    }
    server.shutdown();

    // Proxy failover: 3 single-worker backends behind fault injectors, a
    // front door routing 4 tenant sessions, and the busiest backend killed
    // the moment every submit is accepted. The gate is absolute: every
    // accepted job must complete, bitwise identical to uncached training —
    // a single lost or diverged job fails `--check`.
    {
        use amalgam_proxy::{AmalgamProxy, Fault, FaultInjector, HashRing, ProxyConfig};

        const TENANTS: usize = 4;
        const JOBS_PER_TENANT: u64 = 2;
        let mut servers = Vec::new();
        let mut injectors = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..3 {
            let service = CloudService::builder().workers(1).build();
            let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
            let injector = FaultInjector::spawn(server.local_addr()).expect("spawn injector");
            addrs.push(injector.addr().to_string());
            servers.push(server);
            injectors.push(injector);
        }
        let proxy =
            AmalgamProxy::bind("127.0.0.1:0", &addrs, ProxyConfig::default()).expect("bind proxy");

        let ring = HashRing::new(&addrs, 64);
        let victim = (0..addrs.len())
            .max_by_key(|&i| {
                (0..TENANTS)
                    .filter(|t| ring.route(&format!("tenant-{t}")) == addrs[i])
                    .count()
            })
            .expect("non-empty fleet");

        let clients: Vec<RemoteCloudClient> = (0..TENANTS)
            .map(|t| {
                let config = TransportConfig::default().api_key(format!("tenant-{t}"));
                RemoteCloudClient::connect_with(proxy.addr(), config)
                    .unwrap_or_else(|e| panic!("connect tenant {t} via proxy: {e}"))
            })
            .collect();
        let start = Instant::now();
        let handles: Vec<_> = clients
            .iter()
            .flat_map(|c| (0..JOBS_PER_TENANT).map(|_| c.submit(&job).expect("proxy submit")))
            .collect();
        injectors[victim].set_fault(Fault::Kill);
        let mut lost = 0usize;
        let mut diverged = 0usize;
        for handle in handles {
            match handle.wait() {
                Ok(result) => {
                    if result.trained_model != expected {
                        diverged += 1;
                    }
                }
                Err(_) => lost += 1,
            }
        }
        let failover_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = proxy.stats();
        entries.push(Entry {
            name: "cloud_proxy_failover",
            fields: vec![
                ("jobs", (TENANTS as u64 * JOBS_PER_TENANT) as f64),
                ("lost", lost as f64),
                ("diverged", diverged as f64),
                ("wall_ms", failover_ms),
                ("failovers", stats.failovers as f64),
                ("jobs_resubmitted", stats.jobs_resubmitted as f64),
            ],
        });
        if lost > 0 {
            failures.push(format!(
                "killing one of three backends lost {lost} accepted job(s) (want 0)"
            ));
        }
        if diverged > 0 {
            failures.push(format!(
                "{diverged} failed-over job(s) diverged from uncached training (want 0)"
            ));
        }
        for client in clients {
            client.close();
        }
        proxy.shutdown();
        for injector in injectors {
            injector.shutdown();
        }
        for server in servers {
            server.shutdown();
        }
    }

    // Checkpoint/resume: run a multi-epoch job once with per-epoch
    // checkpointing, logging every snapshot; then replay "the daemon died
    // after epoch k" by planting the mid-run snapshot in a fresh service's
    // store and resubmitting. The gate is absolute: the resumed run must
    // be bitwise identical to the uninterrupted one and must recompute
    // exactly the tail — epoch-conservation, not merely "fewer epochs".
    {
        const EPOCHS: usize = 6;
        const RESUME_AT: usize = 4; // snapshot taken after epoch 4 of 6
        let long_job = {
            let mut rng = Rng::seed_from(77);
            let model = lenet5(1, 8, 2, &mut rng);
            let inputs = Tensor::randn(&[16, 1, 8, 8], &mut rng);
            let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
            CloudJob {
                model: model.to_bytes(),
                task: TaskPayload::Classification {
                    inputs,
                    labels,
                    val_inputs: None,
                    val_labels: vec![],
                },
                train: TrainConfig::new(EPOCHS, 8, 0.05)
                    .with_momentum(0.9)
                    .with_seed(7),
            }
        };
        let addr = ContentAddress::of(&long_job.to_bytes());

        let recorder = Arc::new(SnapshotLog::default());
        let full_service = CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&recorder) as Arc<dyn CheckpointStore>)
            .build();
        let full_start = Instant::now();
        let uninterrupted = full_service.client().train(&long_job).expect("full run");
        let full_ms = full_start.elapsed().as_secs_f64() * 1e3;
        full_service.shutdown();
        let snapshot = recorder.log.lock().expect("snapshot log")[RESUME_AT - 1].clone();

        let store = Arc::new(MemoryCheckpointStore::new());
        store.store(addr, snapshot);
        let resumed_service = CloudService::builder()
            .workers(1)
            .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .build();
        let resume_start = Instant::now();
        let resumed = resumed_service
            .client()
            .train(&long_job)
            .expect("resumed run");
        let resume_ms = resume_start.elapsed().as_secs_f64() * 1e3;
        let stats = resumed_service.stats();
        resumed_service.shutdown();

        let diverged = resumed.trained_model != uninterrupted.trained_model
            || resumed.history.train_loss != uninterrupted.history.train_loss;
        entries.push(Entry {
            name: "cloud_resume",
            fields: vec![
                ("epochs_total", EPOCHS as f64),
                ("epochs_recomputed", stats.epochs_trained as f64),
                ("full_ms", full_ms),
                ("resume_ms", resume_ms),
                ("diverged", diverged as u64 as f64),
            ],
        });
        if diverged {
            failures.push(
                "a run resumed from the epoch-4 checkpoint diverged bitwise from the \
                 uninterrupted run"
                    .to_string(),
            );
        }
        if stats.jobs_resumed != 1 {
            failures.push(format!(
                "resumed service reports jobs_resumed = {} (want 1 — the snapshot was ignored)",
                stats.jobs_resumed
            ));
        }
        if stats.epochs_trained as usize != EPOCHS - RESUME_AT {
            failures.push(format!(
                "resume recomputed {} epochs (want exactly the {}-epoch tail of {})",
                stats.epochs_trained,
                EPOCHS - RESUME_AT,
                EPOCHS
            ));
        }
        if !store.is_empty() {
            failures.push("completion must retire the checkpoint from the store".to_string());
        }
    }

    // Telemetry plane, on a served remote job: the server (which always
    // traces) trains bit-equal to uncached training, its Prometheus
    // exporter answers a raw-HTTP scrape, and `GetStats` renders over the
    // wire. What telemetry costs is inside every end-to-end benchmark
    // metric.
    {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        let service = CloudService::builder()
            .workers(1)
            .metrics_exporter("127.0.0.1:0".parse().unwrap())
            .build();
        let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind");
        let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
        let served = client.submit(&job).expect("submit").wait().expect("job");
        let diverged = served.trained_model != expected;
        if diverged {
            failures.push("traced training diverged from uncached training".to_string());
        }

        // Prometheus endpoint smoke: one scrape must answer 200 with the
        // per-stage quantile series the dashboards key on.
        let scrape_addr = server.metrics_addr().expect("exporter bound");
        let mut scrape_ok = 0.0;
        let mut sock = TcpStream::connect(scrape_addr).expect("dial exporter");
        sock.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("send scrape");
        let mut response = String::new();
        sock.read_to_string(&mut response).expect("read scrape");
        if response.starts_with("HTTP/1.0 200 OK")
            && response.contains("amalgam_latency_microseconds{stage=\"train\",quantile=\"0.5\"}")
            && response.contains("amalgam_jobs_completed_total")
        {
            scrape_ok = 1.0;
        } else {
            failures.push(format!(
                "Prometheus scrape missing expected series; got:\n{response}"
            ));
        }
        entries.push(Entry {
            name: "cloud_scrape",
            fields: vec![
                ("diverged", diverged as u64 as f64),
                ("scrape_ok", scrape_ok),
            ],
        });

        // The operator tables, straight off the wire: the service snapshot
        // via the `GetStats` admin frame, and the client's own healing/RTT
        // counters — both through their `Display` impls.
        match client.fetch_stats() {
            Ok(stats) => {
                println!("--- service stats (GetStats frame) ---");
                println!("{stats}");
            }
            Err(e) => failures.push(format!("GetStats over the wire failed: {e}")),
        }
        println!("--- client stats ---");
        println!("{}", client.stats());
        client.close();
        server.shutdown();
    }

    let mut json = String::from("{\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(json, "  \"{}\": {{", e.name);
        for (j, (key, value)) in e.fields.iter().enumerate() {
            let _ = write!(json, "\"{key}\": {value:.4}");
            if j + 1 < e.fields.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        if i + 1 < entries.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("}\n");

    let path = format!("{out_dir}/BENCH_cloud.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    print!("{json}");
    println!("wrote {path} (cache hit: {hit_speedup:.0}x over cold dispatch)");
    if !lanes_vectorise {
        println!("content-address ≥ 2x gate: SKIPPED (not an AVX-512 build)");
    }

    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
