//! Fault-injection proof of the cluster front door: a backend dying
//! mid-flight must lose nothing.
//!
//! Every test here builds the real topology — `RemoteCloudClient`s →
//! `AmalgamProxy` → `FaultInjector`s → `CloudServer`s — and then breaks it
//! on purpose. The acceptance bar is the same bitwise one the transport
//! tests hold: every accepted job's trained model must equal its
//! in-process twin byte for byte, through kills, hangs, black holes and
//! torn writes, with the breaker lifecycle (closed → open → half-open →
//! closed) observable in the proxy's stats the whole way.

use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use amalgam_cloud::{
    BackendHealth, BackendStats, CloudJob, CloudObserver, CloudServer, CloudService,
    RemoteCloudClient, ServiceStats, TaskPayload, TransportConfig,
};
use amalgam_core::TrainConfig;
use amalgam_nn::graph::GraphModel;
use amalgam_proxy::{AmalgamProxy, BreakerConfig, Fault, FaultInjector, HashRing, ProxyConfig};
use amalgam_tensor::{Rng, Tensor};

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam_models::lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(seed),
    }
}

/// While closed, holds a backend's worker at the start of every job, so a
/// test can kill the backend with its jobs provably still in flight rather
/// than hoping its worker is too slow to have finished them.
#[derive(Default)]
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    /// Closes the gate until the returned guard drops — on a failing
    /// assertion too, so a server's shutdown never joins a worker held here.
    fn close(&self) -> ClosedGate<'_> {
        self.set_closed(true);
        ClosedGate(self)
    }

    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap_or_else(PoisonError::into_inner) = closed;
        self.opened.notify_all();
    }
}

struct ClosedGate<'a>(&'a Gate);

impl Drop for ClosedGate<'_> {
    fn drop(&mut self) {
        self.0.set_closed(false);
    }
}

struct GateObserver(Arc<Gate>);

impl CloudObserver for GateObserver {
    fn on_model(&mut self, _model: &GraphModel) {
        let mut closed = self.0.closed.lock().expect("gate lock");
        while *closed {
            closed = self.0.opened.wait(closed).expect("gate lock");
        }
    }
}

/// One backend `CloudServer` behind its own `FaultInjector`.
struct Backend {
    server: CloudServer,
    injector: FaultInjector,
    gate: Arc<Gate>,
}

/// Boots `n` single-worker backends, each behind an injector, and returns
/// them with the injector (dial) addresses the proxy should route over.
/// Every gate starts open.
fn fleet(n: usize) -> (Vec<Backend>, Vec<String>) {
    let mut backends = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let gate = Arc::new(Gate::default());
        let service = CloudService::builder()
            .workers(1)
            .observer(Arc::new(Mutex::new(GateObserver(Arc::clone(&gate)))))
            .build();
        let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
        let injector = FaultInjector::spawn(server.local_addr()).expect("spawn injector");
        addrs.push(injector.addr().to_string());
        backends.push(Backend {
            server,
            injector,
            gate,
        });
    }
    (backends, addrs)
}

/// The conservation laws of a quiescent snapshot
/// ([`ServiceStats::check_invariants`]).
fn assert_invariants(stats: &ServiceStats) {
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
}

fn backend_row<'s>(stats: &'s ServiceStats, addr: &str) -> &'s BackendStats {
    stats
        .backends
        .iter()
        .find(|b| b.addr == addr)
        .expect("backend row present")
}

/// Polls the proxy until `pred` holds for `addr`'s row (or panics at the
/// deadline), returning every health state observed on the way.
fn await_backend(
    proxy: &AmalgamProxy,
    addr: &str,
    deadline: Duration,
    pred: impl Fn(&BackendStats) -> bool,
) -> Vec<BackendHealth> {
    let t0 = Instant::now();
    let mut seen = Vec::new();
    loop {
        let stats = proxy.stats();
        let row = backend_row(&stats, addr);
        if seen.last() != Some(&row.health) {
            seen.push(row.health);
        }
        if pred(row) {
            return seen;
        }
        assert!(
            t0.elapsed() < deadline,
            "backend {addr} never reached the awaited state; health trail {seen:?}, row {row:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline acceptance test: 3 backends, 8 concurrent sessions, one
/// backend killed mid-flight and later revived. Every accepted job must
/// complete with bytes identical to in-process training, and the killed
/// backend's breaker must walk closed → open → half-open → closed.
#[test]
fn killed_backend_mid_flight_loses_nothing() {
    const SESSIONS: usize = 8;
    const JOBS_PER_SESSION: u64 = 3;

    let (backends, addrs) = fleet(3);
    let config = ProxyConfig::default()
        .breaker(
            BreakerConfig::default()
                .failure_threshold(2)
                .cooldown(Duration::from_millis(300))
                .success_threshold(3),
        )
        .probe_interval(Duration::from_millis(100))
        .probe_timeout(Duration::from_millis(500));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, config).expect("bind proxy");
    let proxy_addr = proxy.addr();

    // In-process ground truth for every job, straight into the pool.
    let local = backends[0].server.local_client();
    let expected: Vec<Vec<u8>> = (0..SESSIONS as u64 * JOBS_PER_SESSION)
        .map(|seed| {
            local
                .train(&tiny_job(seed))
                .expect("local train")
                .trained_model
                .to_vec()
        })
        .collect();

    // The victim: whichever backend the ring gives the most sessions, so
    // the kill is guaranteed to strand in-flight work.
    let ring = HashRing::new(&addrs, 64);
    let mut per_backend = vec![0usize; addrs.len()];
    for s in 0..SESSIONS {
        let home = ring.route(&format!("tenant-{s}"));
        per_backend[addrs.iter().position(|a| a == home).unwrap()] += 1;
    }
    let victim = (0..addrs.len()).max_by_key(|&i| per_backend[i]).unwrap();
    assert!(per_backend[victim] > 0, "victim must own sessions");
    let closed = backends[victim].gate.close();

    // 8 sessions, each its own tenant key, each pipelining 3 jobs. The
    // barrier releases the main thread to kill only after every job has
    // been accepted into a session.
    let submitted = Arc::new(Barrier::new(SESSIONS + 1));
    let workers: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let config = TransportConfig::default().api_key(format!("tenant-{s}"));
                let client =
                    RemoteCloudClient::connect_with(proxy_addr, config).expect("connect via proxy");
                let handles: Vec<_> = (0..JOBS_PER_SESSION)
                    .map(|j| {
                        let seed = s as u64 * JOBS_PER_SESSION + j;
                        (seed, client.submit(&tiny_job(seed)).expect("submit"))
                    })
                    .collect();
                submitted.wait();
                handles
                    .into_iter()
                    .map(|(seed, mut handle)| {
                        let result = handle
                            .wait_timeout(Duration::from_secs(120))
                            .expect("no reply within 120s — job lost")
                            .unwrap_or_else(|e| panic!("job {seed} failed: {e}"));
                        (seed, result.trained_model.to_vec())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    submitted.wait();

    // Kill the victim the moment every submit is accepted — its gate holds
    // its worker, so none of its share of 24 jobs has finished — then wait
    // for its ejection, open the gate, revive it, and wait for readmission.
    backends[victim].injector.set_fault(Fault::Kill);
    let trail_down = await_backend(&proxy, &addrs[victim], Duration::from_secs(20), |row| {
        row.health == BackendHealth::Open
    });
    assert_eq!(
        *trail_down.last().unwrap(),
        BackendHealth::Open,
        "kill must eject the victim; trail {trail_down:?}"
    );
    drop(closed);
    backends[victim].injector.set_fault(Fault::None);
    let trail_up = await_backend(&proxy, &addrs[victim], Duration::from_secs(20), |row| {
        row.health == BackendHealth::Closed && row.readmissions >= 1
    });
    assert!(
        trail_up.contains(&BackendHealth::HalfOpen),
        "readmission must pass through probation; trail {trail_up:?}"
    );

    // Zero loss, bitwise: every session's every job, identical to local.
    for worker in workers {
        for (seed, bytes) in worker.join().expect("session thread") {
            assert_eq!(
                bytes, expected[seed as usize],
                "job {seed} diverged from in-process training"
            );
        }
    }

    let stats = proxy.stats();
    let row = backend_row(&stats, &addrs[victim]);
    assert!(row.ejections >= 1, "victim was never ejected: {row:?}");
    assert!(
        row.readmissions >= 1,
        "victim was never readmitted: {row:?}"
    );
    assert_eq!(row.health, BackendHealth::Closed);
    assert!(
        stats.failovers >= 1,
        "killing an owning backend must fail sessions over: {stats:?}"
    );
    assert!(
        stats.jobs_resubmitted >= 1,
        "failover must resubmit retained in-flight jobs"
    );
    assert!(
        stats.reconnects >= 1,
        "failover re-links count as reconnects"
    );
    assert_invariants(&stats);

    proxy.shutdown();
    for b in backends {
        b.injector.shutdown();
        b.server.shutdown();
    }
}

/// Shutdown returns with nobody connected and with a peer that connected
/// and has said nothing yet.
#[test]
fn shutdown_returns_with_no_client_and_with_one_mid_handshake() {
    let (backends, addrs) = fleet(1);
    let idle = AmalgamProxy::bind("127.0.0.1:0", &addrs, ProxyConfig::default()).expect("bind");
    idle.shutdown();

    let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, ProxyConfig::default()).expect("bind");
    let mut silent = std::net::TcpStream::connect(proxy.addr()).expect("connect");
    proxy.shutdown();
    let mut buf = [0u8; 16];
    let closed = std::io::Read::read(&mut silent, &mut buf);
    assert!(
        matches!(closed, Ok(0) | Err(_)),
        "peer still served: {closed:?}"
    );
    for b in backends {
        b.injector.shutdown();
        b.server.shutdown();
    }
}

/// Stickiness: the same API key, across separate connections, always lands
/// on the same backend — the invariant per-session QoS and dedup rely on.
#[test]
fn sessions_with_one_key_stick_to_one_backend() {
    let (backends, addrs) = fleet(3);
    let proxy =
        AmalgamProxy::bind("127.0.0.1:0", &addrs, ProxyConfig::default()).expect("bind proxy");

    for _ in 0..3 {
        let config = TransportConfig::default().api_key("alice");
        let client =
            RemoteCloudClient::connect_with(proxy.addr(), config).expect("connect via proxy");
        let result = client.train(&tiny_job(1)).expect("train via proxy");
        assert!(!result.trained_model.is_empty());
        client.close();
    }

    let stats = proxy.stats();
    let routed: Vec<u64> = stats.backends.iter().map(|b| b.sessions_routed).collect();
    assert_eq!(
        routed.iter().sum::<u64>(),
        3,
        "three sessions were routed: {stats:?}"
    );
    assert!(
        routed.contains(&3),
        "all three of alice's sessions must share one backend, got {routed:?}"
    );
    assert_invariants(&stats);

    proxy.shutdown();
    for b in backends {
        assert_invariants(&b.server.stats());
        b.injector.shutdown();
        b.server.shutdown();
    }
}

/// Silent faults — a hang, a black hole, a torn write — don't close the
/// TCP link, so only the proxy's reply-stall detector can catch them. Each
/// variant must end in a failover that completes every job bitwise-intact.
#[test]
fn silent_faults_trigger_stall_failover() {
    for fault in [Fault::Hang, Fault::BlackHole, Fault::PartialWrite(8)] {
        let (backends, addrs) = fleet(2);
        let config = ProxyConfig::default()
            .reply_timeout(Duration::from_millis(800))
            .probe_interval(Duration::from_millis(150))
            .probe_timeout(Duration::from_millis(300));
        let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, config).expect("bind proxy");

        let expected: Vec<Vec<u8>> = (0..2)
            .map(|seed| {
                backends[0]
                    .server
                    .local_client()
                    .train(&tiny_job(seed))
                    .expect("local train")
                    .trained_model
                    .to_vec()
            })
            .collect();

        let client = RemoteCloudClient::connect_with(
            proxy.addr(),
            TransportConfig::default().api_key("stall-tenant"),
        )
        .expect("connect via proxy");

        // The session's home backend is routed at handshake time; wedge its
        // injector *before* submitting, so every job's bytes meet the fault
        // (no race against fast jobs finishing first). Note stats rows are
        // sorted by address, not construction order — map via the addr.
        let stats = proxy.stats();
        let home_addr = &stats
            .backends
            .iter()
            .find(|b| b.sessions_routed > 0)
            .expect("session routed somewhere")
            .addr;
        let home = addrs
            .iter()
            .position(|a| a == home_addr)
            .expect("home addr in fleet");
        backends[home].injector.set_fault(fault);
        std::thread::sleep(Duration::from_millis(60)); // let relays observe it

        let handles: Vec<_> = (0..2)
            .map(|seed| client.submit(&tiny_job(seed)).expect("submit"))
            .collect();

        for (seed, mut handle) in handles.into_iter().enumerate() {
            let result = handle
                .wait_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("{fault:?}: job {seed} got no reply"))
                .unwrap_or_else(|e| panic!("{fault:?}: job {seed} failed: {e}"));
            assert_eq!(
                result.trained_model.to_vec(),
                expected[seed],
                "{fault:?}: job {seed} diverged from in-process training"
            );
        }
        let stats = proxy.stats();
        assert!(
            stats.failovers >= 1,
            "{fault:?} must be caught by the stall detector"
        );
        assert_invariants(&stats);

        proxy.shutdown();
        for b in backends {
            b.injector.shutdown();
            b.server.shutdown();
        }
    }
}

/// Probes alone judge a backend no session uses: one that accepts and then
/// says nothing (`Fault::Hang`) is ejected, and readmitted once it answers
/// again. Meanwhile the healthy backend holds no probe session between
/// sweeps — each probe says `Goodbye`.
#[test]
fn probes_alone_eject_a_hung_backend_and_readmit_it() {
    let (backends, addrs) = fleet(2);
    let (healthy, hung) = (&backends[0], &backends[1]);
    hung.injector.set_fault(Fault::Hang);
    let config = ProxyConfig::default()
        .breaker(
            BreakerConfig::default()
                .failure_threshold(2)
                .cooldown(Duration::from_millis(300))
                .success_threshold(2),
        )
        .probe_interval(Duration::from_millis(100))
        .probe_timeout(Duration::from_millis(300));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, config).expect("bind proxy");

    let down = await_backend(&proxy, &addrs[1], Duration::from_secs(20), |row| {
        row.health == BackendHealth::Open
    });
    assert_eq!(*down.last().unwrap(), BackendHealth::Open, "trail {down:?}");
    let probed_ok = |n: u64| {
        await_backend(&proxy, &addrs[0], Duration::from_secs(20), |row| {
            row.probes_ok >= n
        });
    };
    probed_ok(3);
    let t0 = Instant::now();
    while healthy.server.session_count() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a probe session outlived its sweep"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    hung.injector.set_fault(Fault::None);
    let up = await_backend(&proxy, &addrs[1], Duration::from_secs(20), |row| {
        row.health == BackendHealth::Closed && row.readmissions >= 1
    });
    assert!(up.contains(&BackendHealth::HalfOpen), "trail {up:?}");
    let stats = proxy.stats();
    let row = backend_row(&stats, &addrs[1]);
    assert_eq!(row.sessions_routed, 0, "{row:?}");
    assert!(row.probes_failed >= 2, "{row:?}");
    assert_eq!(backend_row(&stats, &addrs[0]).health, BackendHealth::Closed);
    assert_invariants(&stats);

    proxy.shutdown();
    for b in backends {
        b.injector.shutdown();
        b.server.shutdown();
    }
}

/// A hung backend's probes hold up no other session. Three backends, one
/// behind `Fault::Hang`, the default config (a probe waits up to 1 s on
/// it, every 500 ms sweep): sessions arriving open-loop every 20 ms for
/// 4 s, each on a key whose first ring choice is healthy, are all welcomed
/// — with a p99 time to `Welcome` of 50 ms at most.
#[test]
fn a_hung_backend_stalls_no_other_session() {
    const ARRIVAL: Duration = Duration::from_millis(20);
    const ARRIVALS: usize = 200;

    let (backends, addrs) = fleet(3);
    backends[2].injector.set_fault(Fault::Hang);
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, ProxyConfig::default()).expect("bind");
    let proxy_addr = proxy.addr();
    let ring = HashRing::new(&addrs, ProxyConfig::default().vnodes);
    let keys: Vec<String> = (0..)
        .map(|i| format!("bystander-{i}"))
        .filter(|key| ring.ordered(key)[0] != addrs[2])
        .take(ARRIVALS)
        .collect();

    let t0 = Instant::now();
    let arrivals: Vec<_> = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            if let Some(wait) = (t0 + ARRIVAL * i as u32).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            std::thread::spawn(move || {
                let started = Instant::now();
                let config = TransportConfig::default().api_key(key);
                let client = RemoteCloudClient::connect_with(proxy_addr, config);
                let welcomed = started.elapsed();
                client.map(|client| {
                    client.close();
                    welcomed
                })
            })
        })
        .collect();
    let (mut welcomed, mut refused) = (Vec::new(), Vec::new());
    for arrival in arrivals {
        match arrival.join().expect("arrival thread") {
            Ok(took) => welcomed.push(took),
            Err(e) => refused.push(e),
        }
    }
    welcomed.sort();
    let at = |q: f64| welcomed[((welcomed.len() - 1) as f64 * q).round() as usize];
    let slow = welcomed
        .iter()
        .filter(|d| **d > Duration::from_millis(500))
        .count();
    let reading = format!(
        "time to Welcome p50 {:?}, p99 {:?}, max {:?}; {slow}/{} over 500 ms; \
         {} refused: {:?}",
        at(0.5),
        at(0.99),
        at(1.0),
        welcomed.len(),
        refused.len(),
        refused.first()
    );
    eprintln!("{reading}");
    assert!(refused.is_empty(), "{reading}");
    assert!(at(0.99) <= Duration::from_millis(50), "{reading}");
    assert_eq!(backend_row(&proxy.stats(), &addrs[2]).sessions_routed, 0);

    proxy.shutdown();
    for b in backends {
        b.injector.shutdown();
        b.server.shutdown();
    }
}

/// Pins each training batch to a fixed floor so a job submitted just
/// before a fault is still in flight when the fault lands — release-mode
/// training would otherwise outrun the injector's timeline.
struct SlowBatches(Duration);

impl amalgam_cloud::CloudObserver for SlowBatches {
    fn on_model(&mut self, _model: &amalgam_nn::graph::GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

/// The self-healing client against a dying *direct* link (no proxy): on a
/// kill it must re-handshake with decorrelated-jitter backoff and resubmit
/// its in-flight jobs, losing nothing.
#[test]
fn reconnecting_client_survives_link_kill() {
    use amalgam_cloud::ReconnectPolicy;

    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SlowBatches(Duration::from_millis(20)))))
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let injector = FaultInjector::spawn(server.local_addr()).expect("spawn injector");

    let expected: Vec<Vec<u8>> = (0..3)
        .map(|seed| {
            server
                .local_client()
                .train(&tiny_job(seed))
                .expect("local train")
                .trained_model
                .to_vec()
        })
        .collect();

    let policy = ReconnectPolicy::default()
        .base(Duration::from_millis(20))
        .cap(Duration::from_millis(300))
        .seed(7);
    let config = TransportConfig::default().reconnect(policy);
    let client = RemoteCloudClient::connect_with(injector.addr(), config).expect("connect");
    let handles: Vec<_> = (0..3)
        .map(|seed| client.submit(&tiny_job(seed)).expect("submit"))
        .collect();

    // Sever the link mid-flight; revive the path shortly after so the
    // client's dial loop can land.
    std::thread::sleep(Duration::from_millis(30));
    injector.set_fault(Fault::Kill);
    std::thread::sleep(Duration::from_millis(150));
    injector.set_fault(Fault::None);

    for (seed, mut handle) in handles.into_iter().enumerate() {
        let result = handle
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("job {seed} got no reply"))
            .unwrap_or_else(|e| panic!("job {seed} failed: {e}"));
        assert_eq!(
            result.trained_model.to_vec(),
            expected[seed],
            "job {seed} diverged after reconnect"
        );
    }

    let stats = client.stats();
    assert!(stats.reconnects >= 1, "link kill must force a reconnect");
    assert!(
        stats.jobs_resubmitted >= 1,
        "in-flight jobs must ride the new link: {stats:?}"
    );

    client.close();
    injector.shutdown();
    server.shutdown();
}
