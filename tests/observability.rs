//! End-to-end proof of the telemetry plane: one remote job submitted
//! through the full topology — `RemoteCloudClient` → `AmalgamProxy` →
//! `CloudServer` — must leave a *single* trace id findable in all three
//! tiers' flight recorders, with each tier's spans telling a consistent
//! nesting story (the client's round trip contains the proxy's backend
//! round trip, which contains the backend's queue wait and training).
//! On top of the trace, both export paths must serve real quantiles: the
//! `GetStats` admin frame over the job wire, and the Prometheus text
//! endpoint over plain HTTP.

use amalgam::cloud::{
    BackendHealth, BackendStats, Histogram, HistogramSnapshot, ServiceStats, SessionStats, Stage,
    TraceId,
};
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

/// The conservation laws of a quiescent snapshot
/// ([`ServiceStats::check_invariants`]).
fn assert_invariants(stats: &ServiceStats) {
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
}

/// One job through client → proxy → backend: the same trace id must be
/// findable in all three flight recorders, with per-stage spans at each
/// tier and the intervals nested client ⊇ proxy ⊇ backend.
#[test]
fn one_trace_id_spans_client_proxy_and_backend() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let backend_addr = server.local_addr().to_string();
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend_addr], ProxyConfig::default())
        .expect("bind proxy");

    let client = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");
    let result = client
        .submit(&tiny_job(1))
        .expect("submit")
        .wait()
        .expect("train via proxy");
    assert!(result.bytes_received > 0);

    // The client minted the trace: pull it out of its own recorder.
    let recent = client.telemetry().recorder().recent();
    assert_eq!(recent.len(), 1, "one job, one client-side trace record");
    let record = &recent[0];
    let trace = record.trace;
    assert!(!trace.is_none(), "client must mint a real trace id");
    assert!(record.ok);
    let rpc = record
        .spans
        .iter()
        .find(|s| s.stage == Stage::Rpc)
        .expect("client records the submit-to-reply span");

    // Same id at the proxy, wrapped around the backend round trip.
    let at_proxy = proxy
        .telemetry()
        .recorder()
        .find(trace)
        .expect("proxy recorder holds the same trace id");
    assert!(at_proxy.ok);
    let backend_rtt = at_proxy
        .spans
        .iter()
        .find(|s| s.stage == Stage::BackendRtt)
        .expect("proxy records the backend round trip");
    assert!(
        rpc.dur_us >= backend_rtt.dur_us,
        "client RTT {}µs must contain the proxy's backend RTT {}µs",
        rpc.dur_us,
        backend_rtt.dur_us
    );

    // Same id at the backend, with the innermost per-stage story.
    let at_backend = server
        .telemetry()
        .recorder()
        .find(trace)
        .expect("backend recorder holds the same trace id");
    assert!(at_backend.ok);
    let stage_of = |want: Stage| at_backend.spans.iter().find(|s| s.stage == want);
    let queue = stage_of(Stage::QueueWait).expect("backend times queue wait");
    let train = stage_of(Stage::Train).expect("backend times training");
    assert!(
        queue.start_us <= train.start_us,
        "queue wait starts before training"
    );
    for span in &at_backend.spans {
        assert!(span.ok, "every backend stage succeeded: {span:?}");
        assert!(
            span.start_us + span.dur_us <= at_backend.total_us + 1,
            "span {span:?} escapes the job's total {}µs",
            at_backend.total_us
        );
    }
    assert!(
        backend_rtt.dur_us >= train.dur_us,
        "proxy's backend RTT {}µs must contain training {}µs",
        backend_rtt.dur_us,
        train.dur_us
    );

    // A second job reuses nothing: distinct ids, no collisions.
    client
        .submit(&tiny_job(2))
        .expect("submit second")
        .wait()
        .expect("train second");
    let traces: Vec<TraceId> = client
        .telemetry()
        .recorder()
        .recent()
        .iter()
        .map(|t| t.trace)
        .collect();
    assert_eq!(traces.len(), 2);
    assert_ne!(traces[0], traces[1], "each submit mints a fresh trace id");

    drop(client);
    assert_invariants(&proxy.stats());
    assert_invariants(&server.stats());
    proxy.shutdown();
    server.shutdown();
}

/// The `GetStats` admin frame works at both tiers: asked through the
/// proxy it answers with the routing-tier snapshot (backend RTT
/// quantiles, per-backend health); asked directly it answers with the
/// backend's per-stage histograms.
#[test]
fn get_stats_frame_returns_quantiles_at_both_tiers() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let backend_addr = server.local_addr().to_string();
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend_addr], ProxyConfig::default())
        .expect("bind proxy");

    let via_proxy = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");
    via_proxy
        .submit(&tiny_job(3))
        .expect("submit")
        .wait()
        .expect("train");

    // Through the proxy: the routing tier intercepts and answers with its
    // own view — the backend round trip it measured.
    let proxy_stats = via_proxy.fetch_stats().expect("stats via proxy");
    let rtt = proxy_stats
        .hist(Stage::BackendRtt)
        .expect("proxy snapshot carries backend RTT");
    assert!(rtt.count >= 1);
    assert!(rtt.quantile(0.50) <= rtt.quantile(0.99));
    assert_eq!(proxy_stats.backends.len(), 1, "one backend registered");

    // Straight at the backend: the per-stage middleware histograms.
    let direct = RemoteCloudClient::connect(server.local_addr()).expect("connect direct");
    let stats = direct.fetch_stats().expect("stats direct");
    for stage in [Stage::QueueWait, Stage::Train] {
        let hist = stats
            .hist(stage)
            .unwrap_or_else(|| panic!("backend snapshot missing {stage}"));
        assert!(hist.count >= 1, "{stage} histogram must have samples");
        assert!(hist.quantile(0.99) >= hist.quantile(0.50));
        assert!(hist.max >= hist.quantile(0.99));
    }
    assert!(stats.jobs_completed >= 1);

    // The client-side table renders the same numbers (smoke, not golden).
    let shown = format!("{stats}");
    assert!(
        shown.contains("queue_wait"),
        "Display table lists stages:\n{shown}"
    );
    let client_stats = direct.stats();
    let shown = format!("{client_stats}");
    assert!(
        shown.contains("rpc rtt"),
        "ClientStats table shows RTT:\n{shown}"
    );

    drop(via_proxy);
    drop(direct);
    assert_invariants(&proxy.stats());
    assert_invariants(&server.stats());
    proxy.shutdown();
    server.shutdown();
}

/// The Prometheus endpoint rides the existing reactor: a plain-HTTP GET
/// against [`CloudServer::metrics_addr`] must return the text exposition
/// format with per-stage quantile series for at least queue wait and
/// training.
#[test]
fn prometheus_exporter_serves_stage_quantiles() {
    let service = CloudService::builder()
        .workers(1)
        .metrics_exporter("127.0.0.1:0".parse().unwrap())
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let scrape_addr = server.metrics_addr().expect("exporter bound");

    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    client
        .submit(&tiny_job(4))
        .expect("submit")
        .wait()
        .expect("train");

    let mut sock = TcpStream::connect(scrape_addr).expect("dial exporter");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read scrape");

    assert!(
        response.starts_with("HTTP/1.0 200 OK"),
        "exporter must answer 200:\n{response}"
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response carries a body");
    assert!(
        body.contains("amalgam_jobs_completed_total 1"),
        "body:\n{body}"
    );
    for stage in ["queue_wait", "train"] {
        for q in ["0.5", "0.95", "0.99"] {
            let series =
                format!("amalgam_latency_microseconds{{stage=\"{stage}\",quantile=\"{q}\"}}");
            assert!(body.contains(&series), "missing {series} in body:\n{body}");
        }
        let count = format!("amalgam_latency_microseconds_count{{stage=\"{stage}\"}}");
        assert!(body.contains(&count), "missing {count} in body:\n{body}");
    }

    // A second scrape on a fresh connection works (no keep-alive state).
    let mut sock = TcpStream::connect(scrape_addr).expect("re-dial exporter");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut again = String::new();
    sock.read_to_string(&mut again).expect("read second scrape");
    assert!(again.starts_with("HTTP/1.0 200 OK"));

    drop(client);
    assert_invariants(&server.stats());
    server.shutdown();
}

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// A snapshot with a distinct value in every field, two backend rows, two
/// session rows and two stage histograms: what the two goldens below
/// render.
fn golden_stats() -> ServiceStats {
    ServiceStats {
        queue_depth: 101,
        in_flight: 102,
        jobs_submitted: 103,
        jobs_completed: 104,
        jobs_failed: 105,
        jobs_rejected: 106,
        jobs_panicked: 107,
        bytes_received: 108,
        bytes_sent: 109,
        mean_job_seconds: 0.0625,
        jobs_per_second: 3.5,
        uptime_seconds: 1234.75,
        connections_accepted: 113,
        connections_rejected: 114,
        connections_active: 115,
        frames_received: 116,
        frames_sent: 117,
        control_frames_received: 118,
        control_frames_sent: 119,
        relay_frames_received: 120,
        relay_frames_sent: 121,
        transport_bytes_received: 122,
        transport_bytes_sent: 123,
        jobs_rate_limited: 124,
        reactor_registered_fds: 125,
        reactor_wakeups: 126,
        reactor_events: 127,
        reactor_write_queue_bytes: 128,
        cache_hits: 129,
        coalesced: 130,
        reconnects: 131,
        jobs_resubmitted: 132,
        failovers: 133,
        progress_frames_emitted: 134,
        progress_frames_delivered: 135,
        progress_frames_dropped: 136,
        jobs_cancelled: 137,
        jobs_resumed: 138,
        checkpoints_written: 139,
        checkpoints_rejected: 140,
        epochs_trained: 141,
        backends: vec![
            BackendStats {
                addr: "10.0.0.1:4000".into(),
                health: BackendHealth::Open,
                sessions_routed: 201,
                ejections: 202,
                readmissions: 203,
                probes_ok: 204,
                probes_failed: 205,
                failovers: 206,
                jobs_resubmitted: 207,
            },
            BackendStats {
                addr: "10.0.0.2:4000".into(),
                health: BackendHealth::HalfOpen,
                sessions_routed: 211,
                ejections: 212,
                readmissions: 213,
                probes_ok: 214,
                probes_failed: 215,
                failovers: 216,
                jobs_resubmitted: 217,
            },
        ],
        sessions: vec![
            SessionStats {
                key: "alpha".into(),
                weight: 2.5,
                queue_depth: 301,
                jobs_submitted: 302,
                jobs_dispatched: 303,
                jobs_completed: 304,
                jobs_failed: 305,
                jobs_rate_limited: 306,
                jobs_shed: 307,
                cache_hits: 308,
                coalesced: 309,
                progress_frames: 310,
            },
            SessionStats {
                key: "session-7".into(),
                weight: 1.0,
                queue_depth: 311,
                jobs_submitted: 312,
                jobs_dispatched: 313,
                jobs_completed: 314,
                jobs_failed: 315,
                jobs_rate_limited: 316,
                jobs_shed: 317,
                cache_hits: 318,
                coalesced: 319,
                progress_frames: 320,
            },
        ],
        histograms: vec![
            (Stage::QueueWait, hist_of(&[3, 17, 40, 40, 1_000])),
            (Stage::Train, hist_of(&[850, 900, 123_456])),
        ],
    }
}

/// `golden_stats().to_bytes()`, the body of a `Stats` frame, in hex. The
/// wire format is pinned: a change here is a protocol change.
const GOLDEN_STATS_HEX: &str = "\
6500000000000000660000000000000067000000000000006800000000000000\
69000000000000006a000000000000006b000000000000006c00000000000000\
6d00000000000000000000000000b03f0000000000000c4000000000004b9340\
7100000000000000720000000000000073000000000000007400000000000000\
7500000000000000760000000000000077000000000000007800000000000000\
79000000000000007a000000000000007b000000000000007c00000000000000\
7d000000000000007e000000000000007f000000000000008000000000000000\
8100000000000000820000000000000083000000000000008400000000000000\
8500000000000000860000000000000087000000000000008800000000000000\
89000000000000008a000000000000008b000000000000008c00000000000000\
8d00000000000000020000000d00000031302e302e302e313a3430303001c900\
000000000000ca00000000000000cb00000000000000cc00000000000000cd00\
000000000000ce00000000000000cf000000000000000d00000031302e302e30\
2e323a3430303002d300000000000000d400000000000000d500000000000000\
d600000000000000d700000000000000d800000000000000d900000000000000\
0200000005000000616c70686100000000000004402d010000000000002e0100\
00000000002f0100000000000030010000000000003101000000000000320100\
0000000000330100000000000034010000000000003501000000000000360100\
00000000000900000073657373696f6e2d37000000000000f03f370100000000\
0000380100000000000039010000000000003a010000000000003b0100000000\
00003c010000000000003d010000000000003e010000000000003f0100000000\
00004001000000000000020000000005000000000000004c04000000000000e8\
0300000000000004000000030000000100000000000000110000000100000000\
0000002400000002000000000000006f00000001000000000000000a03000000\
0000000016e901000000000040e2010000000000030000006a00000001000000\
000000006c0000000100000000000000de0000000100000000000000";

/// `golden_stats().to_prometheus()`, sorted by line. Series may be emitted
/// in any order; their names, help, types and values are pinned.
const GOLDEN_SCRAPE_SORTED: &[&str] = &[
    "# HELP amalgam_backend_ejections_total Times the breaker opened (closed/half-open → open).",
    "# HELP amalgam_backend_failovers_total Live sessions that abandoned this backend mid-flight.",
    "# HELP amalgam_backend_health Current circuit-breaker position.",
    "# HELP amalgam_backend_jobs_resubmitted_total In-flight jobs replayed onto this backend after failovers.",
    "# HELP amalgam_backend_probes_failed_total Health probes that failed.",
    "# HELP amalgam_backend_probes_ok_total Health probes that succeeded.",
    "# HELP amalgam_backend_readmissions_total Times the breaker closed again after probation.",
    "# HELP amalgam_backend_sessions_routed_total Sessions ever routed (or failed over) to this backend.",
    "# HELP amalgam_cache_hits_total Submissions answered from the result cache.",
    "# HELP amalgam_checkpoints_rejected_total Corrupt or stale checkpoints scrubbed before recompute.",
    "# HELP amalgam_checkpoints_written_total Mid-training checkpoints stored.",
    "# HELP amalgam_coalesced_total Submissions coalesced onto in-flight duplicates.",
    "# HELP amalgam_connections_accepted_total Sessions that completed a handshake.",
    "# HELP amalgam_connections_active Sessions open right now.",
    "# HELP amalgam_connections_rejected_total Connections refused before a session existed.",
    "# HELP amalgam_control_frames_received_total Protocol-overhead frames received (subset of frames_received_total).",
    "# HELP amalgam_control_frames_sent_total Protocol-overhead frames sent (subset of frames_sent_total).",
    "# HELP amalgam_epochs_trained_total Training epochs actually executed.",
    "# HELP amalgam_failovers_total Sessions that abandoned a dying backend.",
    "# HELP amalgam_frames_received_total Frames received (client face).",
    "# HELP amalgam_frames_sent_total Frames sent (client face).",
    "# HELP amalgam_in_flight Jobs inside the stack right now.",
    "# HELP amalgam_job_bytes_received_total Uploaded job bytes.",
    "# HELP amalgam_job_bytes_sent_total Result bytes returned.",
    "# HELP amalgam_jobs_cancelled_total Jobs resolved with Cancelled at the submitter's request.",
    "# HELP amalgam_jobs_completed_total Jobs trained to completion.",
    "# HELP amalgam_jobs_failed_total Jobs answered with an error.",
    "# HELP amalgam_jobs_panicked_total Jobs whose processing panicked.",
    "# HELP amalgam_jobs_per_second Completed jobs per uptime second.",
    "# HELP amalgam_jobs_rate_limited_total Jobs refused by the per-session rate limiter.",
    "# HELP amalgam_jobs_rejected_total Jobs shed by admission control.",
    "# HELP amalgam_jobs_resubmitted_total In-flight jobs replayed after failover.",
    "# HELP amalgam_jobs_resumed_total Jobs resumed from a checkpoint instead of epoch 0.",
    "# HELP amalgam_jobs_submitted_total Jobs ever submitted.",
    "# HELP amalgam_latency_microseconds Per-stage latency quantiles (log-linear histogram, error <= 1/16).",
    "# HELP amalgam_mean_job_seconds Mean wall-clock seconds per completed job.",
    "# HELP amalgam_progress_frames_delivered_total Progress frames that reached their sink.",
    "# HELP amalgam_progress_frames_dropped_total Progress frames dropped (dead sink).",
    "# HELP amalgam_progress_frames_emitted_total Progress frames emitted toward any sink.",
    "# HELP amalgam_queue_depth Jobs waiting right now.",
    "# HELP amalgam_reactor_events_total Readiness events processed.",
    "# HELP amalgam_reactor_registered_fds Sockets registered with the event-loop pollers.",
    "# HELP amalgam_reactor_wakeups_total Cross-thread event-loop wake-ups.",
    "# HELP amalgam_reactor_write_queue_bytes Bytes parked in write queues (backpressure gauge).",
    "# HELP amalgam_reconnects_total Lost links re-established.",
    "# HELP amalgam_relay_frames_received_total Frames received on backend-face links (routing tier).",
    "# HELP amalgam_relay_frames_sent_total Frames sent on backend-face links (routing tier).",
    "# HELP amalgam_transport_bytes_received_total Wire bytes received.",
    "# HELP amalgam_transport_bytes_sent_total Wire bytes sent.",
    "# HELP amalgam_uptime_seconds Seconds since service start.",
    "# TYPE amalgam_backend_ejections_total counter",
    "# TYPE amalgam_backend_failovers_total counter",
    "# TYPE amalgam_backend_health gauge",
    "# TYPE amalgam_backend_jobs_resubmitted_total counter",
    "# TYPE amalgam_backend_probes_failed_total counter",
    "# TYPE amalgam_backend_probes_ok_total counter",
    "# TYPE amalgam_backend_readmissions_total counter",
    "# TYPE amalgam_backend_sessions_routed_total counter",
    "# TYPE amalgam_cache_hits_total counter",
    "# TYPE amalgam_checkpoints_rejected_total counter",
    "# TYPE amalgam_checkpoints_written_total counter",
    "# TYPE amalgam_coalesced_total counter",
    "# TYPE amalgam_connections_accepted_total counter",
    "# TYPE amalgam_connections_active gauge",
    "# TYPE amalgam_connections_rejected_total counter",
    "# TYPE amalgam_control_frames_received_total counter",
    "# TYPE amalgam_control_frames_sent_total counter",
    "# TYPE amalgam_epochs_trained_total counter",
    "# TYPE amalgam_failovers_total counter",
    "# TYPE amalgam_frames_received_total counter",
    "# TYPE amalgam_frames_sent_total counter",
    "# TYPE amalgam_in_flight gauge",
    "# TYPE amalgam_job_bytes_received_total counter",
    "# TYPE amalgam_job_bytes_sent_total counter",
    "# TYPE amalgam_jobs_cancelled_total counter",
    "# TYPE amalgam_jobs_completed_total counter",
    "# TYPE amalgam_jobs_failed_total counter",
    "# TYPE amalgam_jobs_panicked_total counter",
    "# TYPE amalgam_jobs_per_second gauge",
    "# TYPE amalgam_jobs_rate_limited_total counter",
    "# TYPE amalgam_jobs_rejected_total counter",
    "# TYPE amalgam_jobs_resubmitted_total counter",
    "# TYPE amalgam_jobs_resumed_total counter",
    "# TYPE amalgam_jobs_submitted_total counter",
    "# TYPE amalgam_latency_microseconds summary",
    "# TYPE amalgam_mean_job_seconds gauge",
    "# TYPE amalgam_progress_frames_delivered_total counter",
    "# TYPE amalgam_progress_frames_dropped_total counter",
    "# TYPE amalgam_progress_frames_emitted_total counter",
    "# TYPE amalgam_queue_depth gauge",
    "# TYPE amalgam_reactor_events_total counter",
    "# TYPE amalgam_reactor_registered_fds gauge",
    "# TYPE amalgam_reactor_wakeups_total counter",
    "# TYPE amalgam_reactor_write_queue_bytes gauge",
    "# TYPE amalgam_reconnects_total counter",
    "# TYPE amalgam_relay_frames_received_total counter",
    "# TYPE amalgam_relay_frames_sent_total counter",
    "# TYPE amalgam_transport_bytes_received_total counter",
    "# TYPE amalgam_transport_bytes_sent_total counter",
    "# TYPE amalgam_uptime_seconds gauge",
    "amalgam_backend_ejections_total{backend=\"10.0.0.1:4000\"} 202",
    "amalgam_backend_ejections_total{backend=\"10.0.0.2:4000\"} 212",
    "amalgam_backend_failovers_total{backend=\"10.0.0.1:4000\"} 206",
    "amalgam_backend_failovers_total{backend=\"10.0.0.2:4000\"} 216",
    "amalgam_backend_health{backend=\"10.0.0.1:4000\"} 1",
    "amalgam_backend_health{backend=\"10.0.0.2:4000\"} 2",
    "amalgam_backend_jobs_resubmitted_total{backend=\"10.0.0.1:4000\"} 207",
    "amalgam_backend_jobs_resubmitted_total{backend=\"10.0.0.2:4000\"} 217",
    "amalgam_backend_probes_failed_total{backend=\"10.0.0.1:4000\"} 205",
    "amalgam_backend_probes_failed_total{backend=\"10.0.0.2:4000\"} 215",
    "amalgam_backend_probes_ok_total{backend=\"10.0.0.1:4000\"} 204",
    "amalgam_backend_probes_ok_total{backend=\"10.0.0.2:4000\"} 214",
    "amalgam_backend_readmissions_total{backend=\"10.0.0.1:4000\"} 203",
    "amalgam_backend_readmissions_total{backend=\"10.0.0.2:4000\"} 213",
    "amalgam_backend_sessions_routed_total{backend=\"10.0.0.1:4000\"} 201",
    "amalgam_backend_sessions_routed_total{backend=\"10.0.0.2:4000\"} 211",
    "amalgam_cache_hits_total 129",
    "amalgam_checkpoints_rejected_total 140",
    "amalgam_checkpoints_written_total 139",
    "amalgam_coalesced_total 130",
    "amalgam_connections_accepted_total 113",
    "amalgam_connections_active 115",
    "amalgam_connections_rejected_total 114",
    "amalgam_control_frames_received_total 118",
    "amalgam_control_frames_sent_total 119",
    "amalgam_epochs_trained_total 141",
    "amalgam_failovers_total 133",
    "amalgam_frames_received_total 116",
    "amalgam_frames_sent_total 117",
    "amalgam_in_flight 102",
    "amalgam_job_bytes_received_total 108",
    "amalgam_job_bytes_sent_total 109",
    "amalgam_jobs_cancelled_total 137",
    "amalgam_jobs_completed_total 104",
    "amalgam_jobs_failed_total 105",
    "amalgam_jobs_panicked_total 107",
    "amalgam_jobs_per_second 3.5",
    "amalgam_jobs_rate_limited_total 124",
    "amalgam_jobs_rejected_total 106",
    "amalgam_jobs_resubmitted_total 132",
    "amalgam_jobs_resumed_total 138",
    "amalgam_jobs_submitted_total 103",
    "amalgam_latency_microseconds_count{stage=\"queue_wait\"} 5",
    "amalgam_latency_microseconds_count{stage=\"train\"} 3",
    "amalgam_latency_microseconds_max{stage=\"queue_wait\"} 1000",
    "amalgam_latency_microseconds_max{stage=\"train\"} 123456",
    "amalgam_latency_microseconds_sum{stage=\"queue_wait\"} 1100",
    "amalgam_latency_microseconds_sum{stage=\"train\"} 125206",
    "amalgam_latency_microseconds{stage=\"queue_wait\",quantile=\"0.5\"} 41",
    "amalgam_latency_microseconds{stage=\"queue_wait\",quantile=\"0.95\"} 1000",
    "amalgam_latency_microseconds{stage=\"queue_wait\",quantile=\"0.99\"} 1000",
    "amalgam_latency_microseconds{stage=\"train\",quantile=\"0.5\"} 927",
    "amalgam_latency_microseconds{stage=\"train\",quantile=\"0.95\"} 123456",
    "amalgam_latency_microseconds{stage=\"train\",quantile=\"0.99\"} 123456",
    "amalgam_mean_job_seconds 0.0625",
    "amalgam_progress_frames_delivered_total 135",
    "amalgam_progress_frames_dropped_total 136",
    "amalgam_progress_frames_emitted_total 134",
    "amalgam_queue_depth 101",
    "amalgam_reactor_events_total 127",
    "amalgam_reactor_registered_fds 125",
    "amalgam_reactor_wakeups_total 126",
    "amalgam_reactor_write_queue_bytes 128",
    "amalgam_reconnects_total 131",
    "amalgam_relay_frames_received_total 120",
    "amalgam_relay_frames_sent_total 121",
    "amalgam_transport_bytes_received_total 122",
    "amalgam_transport_bytes_sent_total 123",
    "amalgam_uptime_seconds 1234.75",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `Stats` frame body is byte-for-byte what it was, it decodes to the
/// snapshot it encoded, and the scrape is the pinned set of lines.
#[test]
fn stats_frame_bytes_and_scrape_lines_are_pinned() {
    let stats = golden_stats();
    let bytes = stats.to_bytes();
    assert_eq!(hex(&bytes), GOLDEN_STATS_HEX, "Stats frame bytes moved");
    assert_eq!(ServiceStats::from_bytes(bytes).expect("decode"), stats);

    let text = stats.to_prometheus();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    for (i, (got, want)) in lines.iter().zip(GOLDEN_SCRAPE_SORTED).enumerate() {
        assert_eq!(got, want, "sorted scrape line {i}");
    }
    assert_eq!(lines.len(), GOLDEN_SCRAPE_SORTED.len(), "scrape line count");
}

/// The scrape obeys the text exposition format where a scraper would trip:
/// every sample has exactly one `HELP` and one `TYPE` ahead of it, no
/// series is declared twice, and a series is a `counter` exactly when its
/// name ends in `_total` (so `rate()` is typed right).
#[test]
fn scrape_obeys_the_exposition_format() {
    let text = golden_stats().to_prometheus();
    let mut declared: Vec<(String, Option<String>)> = Vec::new(); // (series, TYPE) by HELP
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(!help.is_empty(), "{name} has no help");
            assert!(
                declared.iter().all(|(seen, _)| seen != name),
                "{name} declared twice"
            );
            declared.push((name.to_string(), None));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            let (last, slot) = declared.last_mut().expect("TYPE follows its HELP");
            assert_eq!(last, name, "TYPE follows its own HELP");
            assert!(slot.is_none(), "{name} typed twice");
            assert!(["counter", "gauge", "summary"].contains(&kind), "{line}");
            assert_eq!(kind == "counter", name.ends_with("_total"), "{line}");
            *slot = Some(kind.to_string());
        } else {
            let series = line
                .split(['{', ' '])
                .next()
                .expect("a sample names its series");
            let (family, kind) = declared.last().expect("a sample follows its HELP");
            let kind = kind.as_deref().expect("a sample follows its TYPE");
            // A summary's samples are the family itself or its _sum/_count/_max.
            let owns = match kind {
                "summary" => series.starts_with(family.as_str()),
                _ => series == family,
            };
            assert!(owns, "{series} sampled under {family}'s declaration");
            let value = line.rsplit(' ').next().expect("a sample has a value");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }
    assert!(declared.len() > 40, "{} series", declared.len());
}
