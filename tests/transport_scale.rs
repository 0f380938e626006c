//! The reactor's headline claim, asserted on both sides of the wire: thread
//! count is O(io_threads), not O(connections). 128 concurrent loopback
//! sessions must not add a single server transport thread beyond the fixed
//! reactor pool — the thread-per-connection transport this replaced would
//! have spawned 256 (a reader and a writer per session) — and their 128
//! clients run on the process's one client loop: a `client-reactor` and a
//! `client-dialer`, where the thread-per-client client ran 256 (a reader
//! and a keep-alive per client), gone once the last client closes.

use amalgam::cloud::transport::TransportConfig;
use amalgam::cloud::CloudService;
use amalgam::prelude::*;
use std::time::Duration;

/// Thread names of this process, read from /proc (Linux). Names are
/// truncated to 15 bytes by the kernel, which still separates every
/// `cloud-*` family this test cares about.
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
fn a_hundred_and_twenty_eight_connections_run_on_a_fixed_thread_pool() {
    const CONNECTIONS: usize = 128;
    const IO_THREADS: usize = 2;
    const WORKERS: usize = 2;

    let service = CloudService::builder().workers(WORKERS).build();
    let config = TransportConfig::default()
        .io_threads(IO_THREADS)
        .max_connections(CONNECTIONS + 8);
    let server = CloudServer::bind_with(service, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Open every session up front and hold them all live at once.
    let clients: Vec<RemoteCloudClient> = (0..CONNECTIONS)
        .map(|i| RemoteCloudClient::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();

    // Wait until the server has adopted all of them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.session_count() < CONNECTIONS {
        assert!(
            std::time::Instant::now() < deadline,
            "only {}/{CONNECTIONS} sessions established",
            server.session_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let names = thread_names();
    // The old transport's per-connection threads must not exist at all.
    assert_eq!(
        count_prefix(&names, "cloud-session"),
        0,
        "per-connection session threads resurrected: {names:?}"
    );
    // The server side is exactly the reactor pool, whose reactor 0 polls
    // the listener, and the service's worker pool — independent of the 128
    // open connections.
    assert_eq!(
        count_prefix(&names, "cloud-acceptor"),
        0,
        "an acceptor thread: {names:?}"
    );
    assert_eq!(count_prefix(&names, "cloud-reactor"), IO_THREADS);
    let server_threads =
        count_prefix(&names, "cloud-reactor") + count_prefix(&names, "cloud-worker");
    assert_eq!(
        server_threads,
        IO_THREADS + WORKERS,
        "server thread count scales with connections: {server_threads} threads ({names:?})"
    );
    // The client side is the client loop's two threads, whatever the count.
    assert_eq!(
        count_prefix(&names, "cloud-remote"),
        0,
        "per-client threads resurrected: {names:?}"
    );
    assert_eq!(count_prefix(&names, "client-reactor"), 1);
    assert_eq!(count_prefix(&names, "client-dialer"), 1);

    // The sessions are real, not just sockets in a backlog: a sample of
    // them trains end-to-end with per-submission results routed back.
    let mut rng = Rng::seed_from(70);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    let job = CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
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
        let result = handle.wait().expect("train over a pooled session");
        assert_eq!(result.job_id, id);
    }

    let stats = server.stats();
    assert_eq!(stats.connections_accepted as usize, CONNECTIONS);
    assert!(
        stats.reactor_registered_fds >= CONNECTIONS,
        "reactor gauge missed connections: {}",
        stats.reactor_registered_fds
    );
    assert!(stats.reactor_events > 0);

    for client in clients {
        client.close();
    }
    // The last client out joins the client loop.
    let closed = std::time::Instant::now();
    while count_prefix(&thread_names(), "client-") > 0 {
        assert!(
            closed.elapsed() < Duration::from_secs(1),
            "the client loop outlived its last client: {:?}",
            thread_names()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
