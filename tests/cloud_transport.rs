//! Loopback integration tests of the `amalgam-rpc` transport: the framed
//! TCP wire in front of the cloud's job pipeline.
//!
//! The acceptance bar is bitwise equivalence — the same job submitted via
//! a [`RemoteCloudClient`] over loopback and via the in-process
//! [`CloudClient`] must produce identical trained-model bytes — plus the
//! session guarantees: no hung handles across graceful shutdown, malformed
//! frames rejected as errors, API keys enforced, idle sessions kept alive
//! by pings.

use amalgam::cloud::transport::Frame;
use amalgam::cloud::{
    CheckpointStore, CloudObserver, CloudService, MemoryCheckpointStore, ServiceStats,
};
use amalgam::prelude::*;
use amalgam::proxy::{Fault, FaultInjector};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
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

/// N remote clients × M jobs over loopback, against the in-process client
/// of the *same* pool: every trained model must be bitwise identical to its
/// in-process twin, and every reply must route to the right handle.
#[test]
fn loopback_training_is_bitwise_identical_to_in_process() {
    let service = CloudService::builder().workers(2).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // In-process ground truth, one result per job seed.
    let local = server.local_client();
    let jobs: Vec<CloudJob> = (0..6).map(tiny_job).collect();
    let expected: Vec<Vec<u8>> = jobs
        .iter()
        .map(|job| {
            local
                .train(job)
                .expect("local train")
                .trained_model
                .to_vec()
        })
        .collect();

    // 3 concurrent remote clients, 2 jobs each, submitted pipelined.
    let threads: Vec<_> = jobs
        .chunks(2)
        .enumerate()
        .map(|(who, chunk)| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let client = RemoteCloudClient::connect(addr).expect("connect");
                let handles: Vec<_> = chunk
                    .iter()
                    .map(|job| client.submit(job).expect("submit"))
                    .collect();
                let results: Vec<JobResult> = handles
                    .into_iter()
                    .map(|handle| {
                        let id = handle.id();
                        let result = handle.wait().expect("remote train");
                        assert_eq!(result.job_id, id, "reply routed to the wrong handle");
                        result
                    })
                    .collect();
                (who, results)
            })
        })
        .collect();
    let mut results: Vec<(usize, Vec<JobResult>)> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();
    results.sort_by_key(|(who, _)| *who);

    for (who, batch) in results {
        for (j, result) in batch.iter().enumerate() {
            assert_eq!(
                result.trained_model.to_vec(),
                expected[who * 2 + j],
                "remote and in-process training diverged for job {}",
                who * 2 + j
            );
            assert_eq!(result.history.epochs(), 1);
            assert!(result.bytes_received > 0);
        }
    }

    let stats = server.stats();
    assert_eq!(stats.jobs_completed, 12); // 6 local + 6 remote
    assert_eq!(stats.connections_accepted, 3);
    assert!(stats.frames_received >= 9, "3 hellos + 6 submits at least");
    assert!(stats.frames_sent >= 9, "3 welcomes + 6 replies at least");
    assert!(stats.transport_bytes_received > 0 && stats.transport_bytes_sent > 0);
    assert_invariants(&stats);
    server.shutdown();
}

/// Graceful shutdown with jobs still queued/in flight: every remote handle
/// gets an answer (a real result for drained jobs, an error otherwise) —
/// none may hang.
#[test]
fn shutdown_while_in_flight_strands_no_remote_handle() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    let handles: Vec<_> = (0..5)
        .map(|s| client.submit(&tiny_job(s)).expect("submit"))
        .collect();
    // Make sure the session accepted all five before pulling the plug, so
    // the shutdown really does race in-flight work.
    while server.stats().jobs_submitted < 5 {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
    let mut completed = 0;
    for handle in handles {
        match handle.wait() {
            Ok(result) => {
                assert!(!result.trained_model.is_empty());
                completed += 1;
            }
            Err(CloudError::ServiceUnavailable) => {}
            Err(other) => panic!("unexpected shutdown answer: {other:?}"),
        }
    }
    // Graceful drain: everything the service accepted trains to completion.
    assert_eq!(completed, 5, "accepted jobs must drain, not drop");
    // The connection died with the server: new submissions fail cleanly
    // once the client has observed the close (and even a submission that
    // races the close must resolve, not hang).
    let mut saw_error = false;
    for _ in 0..100 {
        match client.submit(&tiny_job(9)) {
            Err(_) => {
                saw_error = true;
                break;
            }
            Ok(handle) => assert!(handle.wait().is_err(), "job trained on a dead server"),
        }
    }
    assert!(saw_error, "submissions must start failing after shutdown");
}

/// try_wait/wait_timeout parity with the in-process handle API.
#[test]
fn remote_handle_polling_parity() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    let mut handle = client.submit(&tiny_job(0)).expect("submit");
    let mut polled = handle.try_wait();
    while polled.is_none() {
        polled = handle.wait_timeout(Duration::from_millis(20));
    }
    let result = polled.unwrap().unwrap();
    assert_eq!(result.job_id, handle.id());
    // Cached: polling again still returns the outcome.
    handle.try_wait().unwrap().unwrap();
    assert!(handle
        .wait_timeout(Duration::from_millis(1))
        .unwrap()
        .is_ok());
    client.close();
    server.shutdown();
}

/// Writes one length-prefixed frame on a raw socket.
fn write_raw_frame(stream: &mut TcpStream, frame: &Frame) {
    let body = frame.encode();
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&body).unwrap();
}

/// Reads one length-prefixed frame from a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> Option<Frame> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut body).ok()?;
    Frame::decode(body.into()).ok()
}

/// An adversarial length prefix (4 GiB frame) must kill only that
/// connection — as an error, without a giant allocation — and the server
/// must keep serving well-behaved clients.
#[test]
fn malformed_frames_are_rejected_and_contained() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // Oversized length prefix straight at the handshake reader.
    let mut evil = TcpStream::connect(addr).unwrap();
    evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
    evil.write_all(b"junk").unwrap();
    let mut buf = [0u8; 16];
    // Server closes the connection (EOF) without welcoming us.
    evil.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(evil.read(&mut buf).unwrap_or(0), 0, "evil peer must be cut");

    // Garbage bytes that parse as a length but not as a frame.
    let mut garbled = TcpStream::connect(addr).unwrap();
    garbled.write_all(&3u32.to_le_bytes()).unwrap();
    garbled.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    garbled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(garbled.read(&mut buf).unwrap_or(0), 0);

    // A proper client still gets served.
    let client = RemoteCloudClient::connect(addr).expect("connect after attacks");
    let result = client.train(&tiny_job(3)).expect("train after attacks");
    assert!(!result.trained_model.is_empty());
    let stats = server.stats();
    assert!(stats.connections_rejected >= 2);
    assert_invariants(&stats);
    server.shutdown();
}

/// A bulk frame cut short by EOF — after a complete submit, so a job is in
/// flight when the peer vanishes — must not strand its half-received body
/// or the job's slot: the reactor drains, the in-flight count reaches
/// zero, and the connection closes on its own.
#[test]
fn bulk_frame_cut_by_eof_drains_the_connection() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write_raw_frame(
        &mut stream,
        &Frame::Hello {
            min_version: 1,
            max_version: 2,
            api_key: None,
        },
    );
    assert!(matches!(
        read_raw_frame(&mut stream),
        Some(Frame::Welcome { .. })
    ));
    write_raw_frame(
        &mut stream,
        &Frame::Submit {
            request_id: 1,
            payload: tiny_job(5).to_bytes(),
            trace: None,
        },
    );
    // Three read chunks claimed, one and a bit delivered, then EOF.
    let body = Frame::Submit {
        request_id: 2,
        payload: vec![7u8; 3 * 64 * 1024].into(),
        trace: None,
    }
    .encode();
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&body[..70_000]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    // The server settles what it owes (request 1's reply, or nothing if
    // the orphaned job cancelled itself) and closes: we read to EOF.
    let mut sink = Vec::new();
    stream
        .read_to_end(&mut sink)
        .expect("server must close the connection, not hold it");
    assert!(
        wait_until(Duration::from_secs(20), || {
            let s = server.stats();
            s.connections_active == 0 && s.reactor_write_queue_bytes == 0
        }),
        "cut-off bulk frame left the connection open: {:?}",
        server.stats().connections_active
    );
    // Only the complete submit ever counted as a job frame.
    let stats = server.stats();
    assert_eq!(stats.frames_received - stats.control_frames_received, 1);
    // And a well-behaved client is still served.
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect after");
    client.train(&tiny_job(6)).expect("train after");
    assert_invariants(&server.stats());
    server.shutdown();
}

/// Version negotiation: a client advertising a range without protocol 2 —
/// an older one or a newer one — is refused with a Reject frame, not
/// silently dropped.
#[test]
fn incompatible_protocol_version_is_rejected() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    for (min_version, max_version) in [(999, 1000), (1, 1)] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_raw_frame(
            &mut stream,
            &Frame::Hello {
                min_version,
                max_version,
                api_key: None,
            },
        );
        match read_raw_frame(&mut stream) {
            Some(Frame::Reject { reason }) => {
                assert!(reason.contains("protocol version"), "{reason}");
            }
            other => panic!("expected Reject, got {other:?}"),
        }
    }
    server.shutdown();
}

/// The auth stage sees the session key from the transport handshake: a
/// keyless session is refused per job, a keyed one trains, and the
/// in-process client can present the same key.
#[test]
fn api_keys_gate_remote_and_local_sessions() {
    let service = CloudService::builder()
        .workers(1)
        .api_keys(["amalgam-secret"])
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    let anon = RemoteCloudClient::connect(addr).expect("connect");
    assert!(matches!(
        anon.train(&tiny_job(0)),
        Err(CloudError::Unauthorized(_))
    ));

    let wrong =
        RemoteCloudClient::connect_with(addr, TransportConfig::default().api_key("nope")).unwrap();
    assert!(matches!(
        wrong.train(&tiny_job(0)),
        Err(CloudError::Unauthorized(_))
    ));

    let keyed =
        RemoteCloudClient::connect_with(addr, TransportConfig::default().api_key("amalgam-secret"))
            .unwrap();
    let remote = keyed.train(&tiny_job(0)).expect("authorized train");

    // The in-process path uses the same gate and produces the same bytes.
    assert!(matches!(
        server.local_client().train(&tiny_job(0)),
        Err(CloudError::Unauthorized(_))
    ));
    let local = server
        .local_client()
        .with_api_key("amalgam-secret")
        .train(&tiny_job(0))
        .expect("authorized local train");
    assert_eq!(remote.trained_model, local.trained_model);
    server.shutdown();
}

/// Keep-alive pings hold an otherwise idle session open across the
/// server's idle timeout; a silent raw connection is reaped.
#[test]
fn keepalive_outlives_idle_timeout() {
    let service = CloudService::builder().workers(1).build();
    let config = TransportConfig::default()
        .idle_timeout(Duration::from_millis(250))
        .keepalive_interval(Duration::from_millis(50));
    let server =
        CloudServer::bind_with(service, "127.0.0.1:0", config.clone()).expect("bind loopback");
    let addr = server.local_addr();

    // A session that handshakes and then goes silent (no pings) is closed.
    let mut silent = TcpStream::connect(addr).unwrap();
    write_raw_frame(
        &mut silent,
        &Frame::Hello {
            min_version: 2,
            max_version: 2,
            api_key: None,
        },
    );
    assert!(matches!(
        read_raw_frame(&mut silent),
        Some(Frame::Welcome { .. })
    ));
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        silent.read(&mut buf).unwrap_or(0),
        0,
        "idle session must be closed by the server"
    );

    // A pinging client sails across several idle windows and still trains.
    let client = RemoteCloudClient::connect_with(addr, config).expect("connect");
    std::thread::sleep(Duration::from_millis(800));
    let result = client.train(&tiny_job(5)).expect("train after idling");
    assert!(!result.trained_model.is_empty());
    server.shutdown();
}

/// The QoS acceptance gate: a flooding session and a polite session share
/// a 2-worker server. Deficit-round-robin dispatch must keep the polite
/// session's completed share within 2x of its fair share — the flood buys
/// itself queue depth, never the whole pool — and every polite job must
/// complete without timing out behind the flood.
#[test]
fn fair_scheduling_protects_polite_session_from_flood() {
    const FLOOD_JOBS: u64 = 30;
    const POLITE_JOBS: u64 = 8;
    let service = CloudService::builder()
        .workers(2)
        .api_keys(["flood", "polite"])
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // The flood pipelines its whole backlog first — worst case for the
    // polite session, which joins with every worker already busy.
    let flood =
        RemoteCloudClient::connect_with(addr, TransportConfig::default().api_key("flood")).unwrap();
    let flood_handles: Vec<_> = (0..FLOOD_JOBS)
        .map(|s| flood.submit(&tiny_job(s)).expect("flood submit"))
        .collect();
    while server.stats().jobs_submitted < FLOOD_JOBS {
        std::thread::sleep(Duration::from_millis(1));
    }
    let flood_before = session_completed(&server.stats(), "flood");

    let polite =
        RemoteCloudClient::connect_with(addr, TransportConfig::default().api_key("polite"))
            .unwrap();
    let polite_handles: Vec<_> = (0..POLITE_JOBS)
        .map(|s| polite.submit(&tiny_job(100 + s)).expect("polite submit"))
        .collect();
    for mut handle in polite_handles {
        let outcome = handle
            .wait_timeout(Duration::from_secs(120))
            .expect("polite job timed out behind the flood");
        outcome.expect("polite job failed");
    }
    // Snapshot the instant the polite session got its last answer: from
    // the polite session's arrival to now, DRR should have split the two
    // workers about evenly. Fair share = 1/2 of completions; within 2x
    // means the polite share stays >= 1/4, i.e. the flood completed at
    // most 3x the polite count (plus one in-flight job per worker).
    let stats = server.stats();
    let flood_during = session_completed(&stats, "flood") - flood_before;
    assert_eq!(session_completed(&stats, "polite"), POLITE_JOBS);
    assert!(
        flood_during <= 3 * POLITE_JOBS + 2,
        "flood completed {flood_during} jobs while polite completed {POLITE_JOBS}: \
         polite share fell below half its fair share"
    );

    // The flood is throttled, not starved: its whole backlog still trains.
    for handle in flood_handles {
        handle.wait().expect("flood job failed");
    }
    let stats = server.stats();
    assert_eq!(session_completed(&stats, "flood"), FLOOD_JOBS);
    let flood_row = session_row(&stats, "flood");
    assert_eq!(flood_row.jobs_dispatched, FLOOD_JOBS);
    assert_eq!(flood_row.jobs_shed, 0);
    assert_invariants(&stats);
    server.shutdown();
}

/// The dedup acceptance gate: 8 remote clients race the *same* job at a
/// result-cached server. Exactly one execution may happen — every other
/// submission must be coalesced onto it or served from the cache — and all
/// 8 results must be bitwise identical to an uncached in-process run. A
/// second wave after the TTL expires re-executes exactly once more.
#[test]
fn concurrent_identical_remote_jobs_execute_once_and_reexecute_after_ttl() {
    const CLIENTS: u64 = 8;
    let ttl = Duration::from_millis(900);
    let service = CloudService::builder()
        .workers(2)
        .result_cache(1 << 20, ttl)
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let job = tiny_job(42);

    // Uncached in-process ground truth for the bitwise check.
    let expected = CloudService::start()
        .client()
        .train(&job)
        .expect("ground-truth train")
        .trained_model;

    let wave = |start: std::sync::Arc<std::sync::Barrier>| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let job = job.clone();
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    let client = RemoteCloudClient::connect(addr).expect("connect");
                    start.wait();
                    client.train(&job).expect("deduped train")
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect::<Vec<JobResult>>()
    };

    for result in wave(std::sync::Arc::new(std::sync::Barrier::new(
        CLIENTS as usize,
    ))) {
        assert_eq!(
            result.trained_model, expected,
            "a deduped result diverged from uncached in-process training"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.jobs_completed, 1, "identical work must execute once");
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        CLIENTS - 1,
        "every duplicate must be a hit or a coalesce (hits {}, coalesced {})",
        stats.cache_hits,
        stats.coalesced
    );
    // Each remote connection is its own session; the dedup counters land
    // on the session that submitted the duplicate.
    let session_served: u64 = stats
        .sessions
        .iter()
        .map(|s| s.cache_hits + s.coalesced)
        .sum();
    assert_eq!(session_served, CLIENTS - 1);
    assert_invariants(&stats);

    // Second wave strictly after expiry: the entry was inserted no later
    // than the moment the first wave's last result arrived, so a full TTL
    // (plus margin) from here is past it. The address must re-execute —
    // exactly once, however the 8 clients race.
    std::thread::sleep(ttl + Duration::from_millis(100));
    for result in wave(std::sync::Arc::new(std::sync::Barrier::new(
        CLIENTS as usize,
    ))) {
        assert_eq!(result.trained_model, expected);
    }
    let stats = server.stats();
    assert_eq!(
        stats.jobs_completed, 2,
        "an expired address must re-execute, once"
    );
    assert_eq!(stats.cache_hits + stats.coalesced, 2 * (CLIENTS - 1));
    assert_invariants(&stats);
    server.shutdown();
}

fn session_row<'s>(stats: &'s ServiceStats, key: &str) -> &'s amalgam::cloud::SessionStats {
    stats
        .sessions
        .iter()
        .find(|s| s.key == key)
        .unwrap_or_else(|| panic!("no session row for {key}"))
}

fn session_completed(stats: &ServiceStats, key: &str) -> u64 {
    stats
        .sessions
        .iter()
        .find(|s| s.key == key)
        .map_or(0, |s| s.jobs_completed)
}

/// Per-session rate limiting across the wire: over-budget submits resolve
/// to `CloudError::RateLimited` with a positive retry-after on the remote
/// handle, the in-process client sees the same policy, and the admitted
/// job's trained bytes stay bitwise identical to an unthrottled in-process
/// run.
#[test]
fn rate_limited_submits_surface_retry_after_on_remote_and_local_clients() {
    // One token per 20 s, burst 1: of a quick burst of 4, exactly the
    // first job per session is admitted (unless the test machine stalls
    // 20 s between two submits, which the generous rate makes moot).
    let service = CloudService::builder()
        .workers(1)
        .rate_limit(0.05, 1.0)
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let job = tiny_job(11);

    // Unthrottled ground truth for the bitwise check.
    let expected = CloudService::start()
        .client()
        .train(&job)
        .expect("ground-truth train")
        .trained_model;

    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    let handles: Vec<_> = (0..4)
        .map(|_| client.submit(&job).expect("submit"))
        .collect();
    let mut admitted = 0;
    let mut limited = 0;
    for handle in handles {
        match handle.wait() {
            Ok(result) => {
                admitted += 1;
                assert_eq!(
                    result.trained_model, expected,
                    "an admitted rate-limited-session job diverged from in-process training"
                );
            }
            Err(err @ CloudError::RateLimited { retry_after_ms }) => {
                limited += 1;
                assert!(retry_after_ms > 0, "retry-after must be positive");
                // The helper surfaces the same back-off as a Duration.
                assert_eq!(
                    err.retry_after(),
                    Some(Duration::from_millis(retry_after_ms))
                );
            }
            Err(other) => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(admitted, 1, "burst of 1 admits exactly one of the burst");
    assert_eq!(limited, 3);

    // The in-process client is its own session with its own bucket, under
    // the same policy.
    let local = server.local_client();
    local
        .submit(&job)
        .expect("local submit")
        .wait()
        .expect("first local job is within budget");
    match local.submit(&job).expect("local submit").wait() {
        Err(CloudError::RateLimited { retry_after_ms }) => {
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected local RateLimited, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.jobs_rate_limited, 4); // 3 remote + 1 local
    assert!(stats
        .sessions
        .iter()
        .any(|s| s.jobs_rate_limited == 3 && s.jobs_shed == 3));
    assert_invariants(&stats);
    server.shutdown();
}

/// The per-connection in-flight cap answers excess pipelined submits with
/// Overloaded instead of queueing without bound.
#[test]
fn per_connection_in_flight_cap_sheds_excess_submits() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind_with(
        service,
        "127.0.0.1:0",
        TransportConfig::default().max_in_flight(2),
    )
    .expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.max_in_flight(), 2);
    // Fire a burst well past the cap without waiting.
    let handles: Vec<_> = (0..8)
        .map(|s| client.submit(&tiny_job(s)).expect("submit"))
        .collect();
    let mut shed = 0;
    let mut trained = 0;
    for handle in handles {
        match handle.wait() {
            Ok(_) => trained += 1,
            Err(CloudError::Overloaded { .. }) => shed += 1,
            Err(other) => panic!("unexpected burst answer: {other:?}"),
        }
    }
    assert!(trained >= 2, "the in-flight window must still train");
    assert!(shed >= 1, "a burst of 8 over a cap of 2 must shed");
    assert_invariants(&server.stats());
    server.shutdown();
}

/// The dial path must respect `connect_timeout`: a black-holed address
/// (SYNs vanish, no RST) fails promptly instead of hanging in the OS
/// default connect (minutes on most systems). On locked-down hosts the
/// dial may instead fail instantly with a routing/permission error — both
/// outcomes satisfy the contract: an error, fast.
#[test]
fn connect_timeout_bounds_blackholed_dial() {
    let config = TransportConfig::default().connect_timeout(Duration::from_millis(250));
    let t0 = std::time::Instant::now();
    // TEST-NET-1 (RFC 5737) is reserved and never routed.
    let result = RemoteCloudClient::connect_with("192.0.2.1:9", config);
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a reserved address must not accept");
    assert!(
        elapsed < Duration::from_secs(5),
        "dial must fail within the configured timeout, took {elapsed:?}"
    );
}

// ---------------------------------------------------------------------------
// Durable lifecycle: progress streaming, cancellation races, kill-and-resume.
// ---------------------------------------------------------------------------

/// A [`CloudObserver`] that sleeps on every batch. Training math is
/// untouched — the hook only stretches epochs to a controllable wall-clock
/// duration so fault injection can land *mid-job* instead of racing a
/// microsecond-scale run.
struct SleepyObserver(Duration);

impl CloudObserver for SleepyObserver {
    fn on_model(&mut self, _model: &GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

/// A multi-epoch job: 16 samples over batch size 8 gives two batches per
/// epoch, so a [`SleepyObserver`] of `d` makes each epoch take `2 * d`.
fn slow_job(seed: u64, epochs: usize) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
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
        train: TrainConfig::new(epochs, 8, 0.05).with_seed(seed),
    }
}

/// Polls `pred` every 2ms until it holds or `deadline` passes.
fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// The conservation laws of a quiescent snapshot
/// ([`ServiceStats::check_invariants`]): every submission answered or still
/// waiting, every progress frame delivered or dropped, control frames a
/// sub-count of the frame totals.
fn assert_invariants(stats: &ServiceStats) {
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
}

/// A self-healing client that gives up dialing only after a generous
/// budget — fault-injection tests heal the link well before it runs out.
fn patient_reconnect() -> TransportConfig {
    TransportConfig::default().reconnect(
        ReconnectPolicy::default()
            .base(Duration::from_millis(10))
            .cap(Duration::from_millis(40))
            .max_dial_attempts(500)
            .max_resubmits(4)
            .seed(7),
    )
}

/// Progress frames stream one per epoch, in order, carrying the *same*
/// per-epoch train loss the final history reports — the live view and the
/// durable record are bitwise the same curve. The iterator ends exactly
/// when the reply retires the job, and the handle still yields the result.
#[test]
fn progress_frames_stream_in_epoch_order_then_reply() {
    let job = slow_job(3, 5);
    let truth_service = CloudService::builder().workers(1).build();
    let truth = truth_service.client().train(&job).expect("ground truth");

    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    let handle = client.submit(&job).expect("submit");

    let updates: Vec<_> = handle.progress().collect();
    let result = handle.wait().expect("job after progress drain");

    assert_eq!(updates.len(), 5, "one progress frame per epoch");
    for (i, update) in updates.iter().enumerate() {
        assert_eq!(update.epoch, i as u64 + 1, "epochs arrive in order");
        assert_eq!(update.total_epochs, 5);
        assert_eq!(
            update.train_loss.to_bits(),
            truth.history.train_loss[i].to_bits(),
            "streamed loss at epoch {} must match the final history bitwise",
            i + 1,
        );
    }
    assert_eq!(result.trained_model, truth.trained_model);
    assert_eq!(result.history.train_loss, truth.history.train_loss);

    let stats = server.stats();
    assert!(stats.progress_frames_delivered >= 5);
    assert_invariants(&stats);
    server.shutdown();
}

/// THE tentpole proof: kill the backend mid-job after at least one
/// checkpoint, restart a fresh backend on the same store, and let the
/// self-healing client resubmit. The resumed run must be bitwise identical
/// to an uninterrupted one, and the two servers' epoch counters must sum
/// to exactly the job's total — resume recomputed only the tail.
#[test]
fn kill_and_resume_is_bitwise_identical_with_partial_recompute() {
    const EPOCHS: usize = 10;
    let job = slow_job(1, EPOCHS);

    // Uninterrupted ground truth, computed in-process with no checkpoints.
    let truth_service = CloudService::builder().workers(1).build();
    let truth = truth_service.client().train(&job).expect("ground truth");

    let store: Arc<MemoryCheckpointStore> = Arc::new(MemoryCheckpointStore::new());

    // Backend #1: checkpoint every epoch, ~30ms per epoch.
    let service1 = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SleepyObserver(Duration::from_millis(
            15,
        )))))
        .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .build();
    let server1 = CloudServer::bind(service1, "127.0.0.1:0").expect("bind backend 1");
    let injector = FaultInjector::spawn(server1.local_addr()).expect("spawn injector");
    let client =
        RemoteCloudClient::connect_with(injector.addr(), patient_reconnect()).expect("connect");
    let mut handle = client.submit(&job).expect("submit");

    // Let it train past two checkpoints, then pull the plug.
    assert!(
        wait_until(Duration::from_secs(20), || {
            server1.stats().checkpoints_written >= 2
        }),
        "backend 1 never wrote two checkpoints"
    );
    injector.set_fault(Fault::Kill);

    // The orphaned execution notices nobody can hear it at the next epoch
    // boundary and cancels itself — keeping its checkpoint.
    assert!(
        wait_until(Duration::from_secs(20), || {
            server1.stats().jobs_cancelled >= 1
        }),
        "backend 1 never abandoned the orphaned job"
    );
    let killed = server1.stats();
    assert!(killed.checkpoints_written >= 2);
    assert!(
        killed.epochs_trained < EPOCHS as u64,
        "the kill must land mid-job, trained {}",
        killed.epochs_trained
    );
    assert_eq!(store.len(), 1, "the abandoned job keeps its checkpoint");
    assert_invariants(&killed);
    server1.shutdown();

    // Backend #2: same store, fresh process (no sleepy observer — the
    // restart should finish the tail fast).
    let service2 = CloudService::builder()
        .workers(1)
        .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .build();
    let server2 = CloudServer::bind(service2, "127.0.0.1:0").expect("bind backend 2");
    injector.retarget(server2.local_addr());
    injector.set_fault(Fault::None);

    // The client reconnects through the same front door, resubmits the
    // pending job verbatim, and the new backend resumes from the
    // checkpoint instead of starting over.
    let result = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("handle hung across the restart")
        .expect("resumed job must succeed");

    assert_eq!(
        result.trained_model, truth.trained_model,
        "resumed model diverged from the uninterrupted run"
    );
    assert_eq!(result.history.train_loss, truth.history.train_loss);
    assert_eq!(result.history.train_acc, truth.history.train_acc);
    assert_eq!(result.history.epochs(), EPOCHS);

    let resumed = server2.stats();
    assert_eq!(
        resumed.jobs_resumed, 1,
        "backend 2 must resume, not recompute"
    );
    assert_eq!(resumed.jobs_completed, 1);
    assert!(
        resumed.epochs_trained >= 1 && resumed.epochs_trained < EPOCHS as u64,
        "resume must recompute only the tail, recomputed {}",
        resumed.epochs_trained
    );
    assert_eq!(
        killed.epochs_trained + resumed.epochs_trained,
        EPOCHS as u64,
        "no epoch may be trained twice or skipped across the restart"
    );
    assert!(store.is_empty(), "success retires the checkpoint");
    assert_invariants(&resumed);

    let cs = client.stats();
    assert!(cs.reconnects >= 1, "client must have healed the link");
    assert!(
        cs.jobs_resubmitted >= 1,
        "client must have replayed the job"
    );
    server2.shutdown();
    injector.shutdown();
}

/// Cancel racing completion at every offset: whichever wins, the handle
/// always resolves — `Ok` if the reply beat the cancel, `Cancelled`
/// otherwise — and never hangs or sees a third outcome.
#[test]
fn cancel_racing_completion_never_hangs_a_handle() {
    let service = CloudService::builder().workers(2).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");

    for round in 0..24u64 {
        let mut handle = client.submit(&slow_job(round, 2)).expect("submit");
        // Sweep the cancel across the job's lifetime, from "immediately"
        // to "well after completion".
        std::thread::sleep(Duration::from_micros(150 * round));
        handle.cancel();
        match handle
            .wait_timeout(Duration::from_secs(20))
            .expect("cancel race stranded the handle")
        {
            Ok(_) | Err(CloudError::Cancelled) => {}
            Err(other) => panic!("round {round}: unexpected outcome {other:?}"),
        }
    }
    assert_invariants(&server.stats());
    server.shutdown();
}

/// One waiter's cancel stops a dedup-coalesced execution and resolves
/// EVERY attached handle with `Cancelled` — and because the abandoned run
/// keeps its checkpoint, a later resubmission resumes the tail and still
/// lands bitwise on the uninterrupted answer.
#[test]
fn cancelling_a_coalesced_job_resolves_every_waiter_and_leaves_a_resumable_checkpoint() {
    const EPOCHS: usize = 60;
    let job = slow_job(42, EPOCHS);
    let truth_service = CloudService::builder().workers(1).build();
    let truth = truth_service.client().train(&job).expect("ground truth");

    let store: Arc<MemoryCheckpointStore> = Arc::new(MemoryCheckpointStore::new());
    let service = CloudService::builder()
        .workers(1)
        .result_cache(1 << 20, Duration::from_secs(60))
        .observer(Arc::new(Mutex::new(SleepyObserver(Duration::from_millis(
            10,
        )))))
        .checkpoint_store(Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // Four clients submit the identical job: one executes, three coalesce.
    let clients: Vec<RemoteCloudClient> = (0..4)
        .map(|_| RemoteCloudClient::connect(addr).expect("connect"))
        .collect();
    let mut handles: Vec<JobHandle> = clients
        .iter()
        .map(|c| c.submit(&job).expect("submit"))
        .collect();
    assert!(
        wait_until(Duration::from_secs(20), || {
            let s = server.stats();
            s.coalesced == 3 && s.checkpoints_written >= 1
        }),
        "waiters never coalesced onto the in-flight execution"
    );

    // A *waiter* — not the primary submitter — pulls the plug.
    handles[2].cancel();
    for (i, handle) in handles.iter_mut().enumerate() {
        match handle
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("handle {i} stranded by a coalesced cancel"))
        {
            Err(CloudError::Cancelled) => {}
            other => panic!("handle {i}: expected Cancelled, got {other:?}"),
        }
    }
    let cancelled = server.stats();
    assert_eq!(cancelled.jobs_cancelled, 1, "one execution, one cancel");
    assert_eq!(store.len(), 1, "the cancelled run keeps its checkpoint");
    assert!(cancelled.epochs_trained < EPOCHS as u64);

    // A fresh submission of the same job resumes the retained checkpoint
    // and finishes bitwise identical to the uninterrupted run.
    let retry = RemoteCloudClient::connect(addr).expect("connect");
    let result = retry
        .submit(&job)
        .expect("resubmit")
        .wait()
        .expect("resumed job");
    assert_eq!(result.trained_model, truth.trained_model);
    assert_eq!(result.history.train_loss, truth.history.train_loss);
    assert_eq!(result.history.epochs(), EPOCHS);

    let finished = server.stats();
    assert_eq!(finished.jobs_resumed, 1);
    assert_eq!(
        finished.epochs_trained, EPOCHS as u64,
        "cancelled prefix + resumed tail must cover each epoch exactly once"
    );
    assert!(store.is_empty(), "success retires the checkpoint");
    assert_invariants(&finished);
    server.shutdown();
}

/// Cancelling while the link is down (mid-failover) resolves the handle
/// with `Cancelled` at the next reconnect instead of hanging — and the
/// job is never resurrected by the resubmit machinery.
#[test]
fn cancel_while_disconnected_resolves_and_is_never_revived() {
    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SleepyObserver(Duration::from_millis(
            15,
        )))))
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let injector = FaultInjector::spawn(server.local_addr()).expect("spawn injector");
    let client =
        RemoteCloudClient::connect_with(injector.addr(), patient_reconnect()).expect("connect");

    let mut handle = client.submit(&slow_job(7, 40)).expect("submit");
    assert!(
        wait_until(Duration::from_secs(20), || {
            server.stats().epochs_trained >= 1
        }),
        "job never started training"
    );

    // Sever the link, cancel into the void, then heal.
    injector.set_fault(Fault::Kill);
    handle.cancel();
    injector.set_fault(Fault::None);

    match handle
        .wait_timeout(Duration::from_secs(20))
        .expect("cancel during failover stranded the handle")
    {
        Err(CloudError::Cancelled) => {}
        other => panic!("expected Cancelled after mid-failover cancel, got {other:?}"),
    }

    // The dead link orphaned the server-side run; abandonment detection
    // cancels it at the next epoch boundary.
    assert!(
        wait_until(Duration::from_secs(20), || {
            server.stats().jobs_cancelled >= 1
        }),
        "orphaned execution never self-cancelled"
    );

    // The reconnect must settle the cancelled job, not replay it.
    std::thread::sleep(Duration::from_millis(200));
    let stats = server.stats();
    assert_eq!(
        stats.jobs_submitted, 1,
        "a cancelled job must never be resubmitted"
    );
    assert!(client.stats().reconnects >= 1);
    assert_invariants(&stats);
    server.shutdown();
    injector.shutdown();
}

/// Dropping the last clone of a client, without `close()`, ends its server
/// session promptly, and a handle that outlives the client is answered
/// `ServiceUnavailable` instead of hanging.
#[test]
fn dropping_the_last_client_ends_its_session_and_answers_its_handles() {
    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SleepyObserver(Duration::from_millis(
            15,
        )))))
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    let twin = client.clone();
    let mut handle = client.submit(&slow_job(9, 40)).expect("submit");
    assert!(
        wait_until(Duration::from_secs(20), || {
            server.stats().epochs_trained >= 1
        }),
        "job never started training"
    );

    drop(client);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.session_count(), 1, "a live clone keeps the session");
    drop(twin);
    assert!(
        wait_until(Duration::from_secs(1), || server.session_count() == 0),
        "a dropped client's session outlived it by a second"
    );
    match handle
        .wait_timeout(Duration::from_secs(5))
        .expect("a dropped client's handle hung")
    {
        Err(CloudError::ServiceUnavailable) => {}
        other => panic!("expected ServiceUnavailable, got {other:?}"),
    }
    assert!(
        wait_until(Duration::from_secs(20), || {
            server.stats().jobs_cancelled >= 1
        }),
        "the orphaned execution never self-cancelled"
    );
    assert_invariants(&server.stats());
    server.shutdown();
}

/// A self-healing client turns `RateLimited` into a retry at the server's
/// `retry_after`, never earlier: the retried submit finds the bucket
/// refilled and trains, so the server refuses it exactly once.
#[test]
fn a_rate_limited_submit_is_retried_at_its_retry_after() {
    // One token per 500 ms, burst 1.
    let service = CloudService::builder()
        .workers(1)
        .rate_limit(2.0, 1.0)
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let config = TransportConfig::default().reconnect(ReconnectPolicy::default().max_resubmits(4));
    let client = RemoteCloudClient::connect_with(server.local_addr(), config).expect("connect");

    let t0 = Instant::now();
    let first = client.submit(&tiny_job(21)).expect("submit");
    let second = client.submit(&tiny_job(22)).expect("submit");
    first.wait().expect("the first submit spends the burst");
    second
        .wait()
        .expect("the retry trains once the bucket refills");
    assert!(
        t0.elapsed() >= Duration::from_millis(500),
        "the retry beat the bucket's refill: {:?}",
        t0.elapsed()
    );

    let cs = client.stats();
    assert_eq!(cs.retries_scheduled, 1);
    assert_eq!(cs.jobs_resubmitted, 1);
    let stats = server.stats();
    assert_eq!(
        stats.jobs_rate_limited, 1,
        "a retry sent before retry_after is refused again"
    );
    assert_eq!(stats.jobs_completed, 2);
    assert_invariants(&stats);
    client.close();
    server.shutdown();
}

/// A `fetch_stats` pending when the link dies answers `ServiceUnavailable`
/// (a snapshot is not resubmitted), and the healed link serves the next.
#[test]
fn fetch_stats_across_a_link_loss() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");
    let injector = FaultInjector::spawn(server.local_addr()).expect("spawn injector");
    let client =
        RemoteCloudClient::connect_with(injector.addr(), patient_reconnect()).expect("connect");
    client.fetch_stats().expect("stats over a live link");

    // The request reaches a link that no longer relays; then the link dies.
    injector.set_fault(Fault::Hang);
    std::thread::sleep(Duration::from_millis(100));
    let pending = {
        let client = client.clone();
        std::thread::spawn(move || client.fetch_stats())
    };
    std::thread::sleep(Duration::from_millis(200));
    injector.set_fault(Fault::Kill);
    match pending.join().expect("stats thread") {
        Err(CloudError::ServiceUnavailable) => {}
        other => panic!("expected ServiceUnavailable, got {other:?}"),
    }

    injector.set_fault(Fault::None);
    assert!(
        wait_until(Duration::from_secs(20), || client.stats().reconnects >= 1),
        "the client never healed its link"
    );
    let stats = client.fetch_stats().expect("stats after the reconnect");
    assert!(stats.connections_accepted >= 2);
    client.close();
    server.shutdown();
    injector.shutdown();
}

/// At `max_connections` a new socket is refused before its handshake: one
/// `Reject` naming capacity, counted once, while the session already there
/// keeps training. Once `shutdown` returns the port refuses connections.
#[test]
fn a_connection_over_capacity_is_rejected_and_the_port_closes_at_shutdown() {
    let service = CloudService::builder().workers(1).build();
    let config = TransportConfig::default().max_connections(1);
    let server = CloudServer::bind_with(service, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let first = RemoteCloudClient::connect(addr).expect("first session");

    let mut second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_raw_frame(&mut second) {
        Some(Frame::Reject { reason }) => assert!(reason.contains("capacity"), "{reason}"),
        other => panic!("expected Reject, got {other:?}"),
    }
    let mut buf = [0u8; 16];
    assert_eq!(second.read(&mut buf).unwrap_or(0), 0, "refused peer kept");
    assert_eq!(server.stats().connections_rejected, 1);

    let result = first.train(&tiny_job(7)).expect("first session trains");
    assert!(!result.trained_model.is_empty());
    first.close();
    assert_invariants(&server.stats());
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port still accepts after shutdown"
    );
}
