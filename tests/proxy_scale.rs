//! The relay's thread gate: the routing tier runs on a fixed pool, not a
//! thread per session. At 128 live sessions through an `AmalgamProxy`, its
//! threads are exactly the reactors and the dialer, no acceptor — the
//! thread-per-session relay this replaced ran 2N + 2 (a session thread and
//! a backend reader per session). Its own test binary, since a binary is
//! one process and `transport_scale.rs` counts every `cloud-*` thread in
//! its own.

use amalgam::cloud::CloudService;
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::time::{Duration, Instant};

/// Thread names of this process, read from /proc (Linux); the kernel keeps
/// 15 bytes of each, enough for every `proxy-*` name.
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let comm = entry.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            names.push(name.trim().to_string());
        }
    }
    names
}

fn count_prefix(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

#[test]
fn a_hundred_and_twenty_eight_proxied_sessions_run_on_a_fixed_thread_pool() {
    const SESSIONS: usize = 128;
    const IO_THREADS: usize = 2;

    // The backend holds one link per session, plus the health probes.
    let backend_config = TransportConfig::default().max_connections(SESSIONS + 16);
    let service = CloudService::builder().workers(2).build();
    let backend =
        CloudServer::bind_with(service, "127.0.0.1:0", backend_config).expect("bind backend");
    let config = ProxyConfig::default().transport(
        TransportConfig::default()
            .io_threads(IO_THREADS)
            .max_connections(SESSIONS + 8),
    );
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend.local_addr().to_string()], config)
        .expect("bind proxy");

    // Every session routed and welcomed, all held live at once.
    let clients: Vec<RemoteCloudClient> = (0..SESSIONS)
        .map(|i| RemoteCloudClient::connect(proxy.addr()).unwrap_or_else(|e| panic!("{i}: {e}")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while proxy.stats().connections_active < SESSIONS {
        assert!(Instant::now() < deadline, "sessions never all opened");
        std::thread::sleep(Duration::from_millis(5));
    }

    // (no acceptor, the reactors, the dialer, every proxy thread)
    let names = thread_names();
    let counted = ["proxy-acceptor", "proxy-reactor-", "proxy-dialer", "proxy-"]
        .map(|prefix| count_prefix(&names, prefix));
    assert_eq!(
        counted,
        [0, IO_THREADS, 1, IO_THREADS + 1],
        "proxy threads at {SESSIONS} sessions"
    );

    // The sessions are real: a sample trains end to end through the relay.
    let mut rng = Rng::seed_from(70);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    let job = CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: Tensor::randn(&[8, 1, 8, 8], &mut rng),
            labels: (0..8).map(|i| i % 2).collect(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(1),
    };
    let handles: Vec<_> = clients
        .iter()
        .step_by(16)
        .map(|c| c.submit(&job).expect("submit"))
        .collect();
    for handle in handles {
        let id = handle.id();
        let result = handle.wait().expect("train through the relay");
        assert_eq!(result.job_id, id);
    }
    let stats = proxy.stats();
    assert_eq!(stats.connections_accepted as usize, SESSIONS);
    assert_eq!(stats.backends[0].sessions_routed as usize, SESSIONS);

    for client in clients {
        client.close();
    }
    proxy.shutdown();
    backend.shutdown();
}
