//! The routing tier's front door, pinned from the client's side: who is
//! refused before a session exists, with which reason, counted once each —
//! and which frames the proxy answers itself instead of relaying.

use amalgam::cloud::transport::{write_frame, Frame, FrameDecoder};
use amalgam::cloud::{CloudObserver, CloudService};
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, BreakerConfig, Fault, FaultInjector, HashRing, ProxyConfig};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The conservation laws of a quiescent snapshot
/// ([`ServiceStats::check_invariants`]).
fn assert_invariants(stats: &ServiceStats) {
    if let Err(broken) = stats.check_invariants() {
        panic!("{broken}");
    }
}

/// Polls `pred` every 2 ms until it holds or `deadline` passes.
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

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs: Tensor::randn(&[8, 1, 8, 8], &mut rng),
            labels: (0..8).map(|i| i % 2).collect(),
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(seed),
    }
}

fn live_backend() -> CloudServer {
    CloudServer::bind(CloudService::builder().workers(1).build(), "127.0.0.1:0")
        .expect("bind backend")
}

/// Every frame the peer sends on `stream` until it closes the connection
/// (a hang fails the test instead of blocking it).
fn frames_until_closed(stream: &mut TcpStream) -> Vec<Frame> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut decoder = FrameDecoder::new();
    loop {
        match decoder.read_from(stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the connection was left open: {e}"),
        }
    }
    let mut frames = Vec::new();
    while let Some((frame, _)) = decoder.next_frame(1 << 20).expect("well-formed frames") {
        frames.push(frame);
    }
    frames
}

/// Reads exactly one frame (the session stays open).
fn next_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Frame {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loop {
        if let Some((frame, _)) = decoder.next_frame(1 << 20).expect("well-formed frame") {
            return frame;
        }
        assert!(decoder.read_from(stream).expect("read") > 0, "closed");
    }
}

/// A fleet that refuses every dial: the session is refused at its
/// handshake, and `connect` says why.
#[test]
fn an_unroutable_session_is_rejected_at_the_handshake() {
    let refusing: Vec<String> = (0..2)
        .map(|_| {
            let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
            gone.local_addr().expect("addr").to_string()
        })
        .collect();
    let proxy =
        AmalgamProxy::bind("127.0.0.1:0", &refusing, ProxyConfig::default()).expect("bind proxy");
    match RemoteCloudClient::connect(proxy.addr()) {
        Err(CloudError::Handshake(reason)) => {
            assert!(reason.contains("no healthy backend"), "{reason}");
        }
        Err(other) => panic!("expected a handshake refusal, got {other:?}"),
        Ok(_) => panic!("a session with nowhere to go was welcomed"),
    }
    let stats = proxy.stats();
    assert_eq!(stats.connections_rejected, 1, "{stats}");
    assert_eq!(stats.connections_accepted, 0, "{stats}");
    assert_invariants(&stats);
    proxy.shutdown();
}

/// Backends are resolved once, at bind: a name that resolves to no address
/// is refused there, not on a reactor later.
#[test]
fn an_unresolvable_backend_is_a_bind_error() {
    let backends = ["no port here".to_string()];
    let err = AmalgamProxy::bind("127.0.0.1:0", &backends, ProxyConfig::default())
        .expect_err("a backend with no address was accepted");
    assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
}

/// A session whose first ring choice refuses the dial is routed to the
/// next: it trains bit for bit as in process, the refusing backend is
/// never routed to, and its breaker counts the refusal — with one probe
/// failure (the start-up sweep's) it takes both to eject it at a threshold
/// of two.
#[test]
fn a_refused_first_choice_is_passed_over_for_the_next() {
    let backend = live_backend();
    let dead = TcpListener::bind("127.0.0.1:0")
        .and_then(|gone| gone.local_addr())
        .expect("a free port")
        .to_string();
    let live = backend.local_addr().to_string();
    let fleet = [dead.clone(), live.clone()];
    let ring = HashRing::new(&fleet, ProxyConfig::default().vnodes);
    let key = (0..)
        .map(|i| format!("tenant-{i}"))
        .find(|key| ring.ordered(key)[0] == dead)
        .expect("some key starts at the dead backend");
    let config = ProxyConfig::default()
        .breaker(BreakerConfig::default().failure_threshold(2))
        .probe_interval(Duration::from_secs(3600));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &fleet, config).expect("bind proxy");
    let expected = backend
        .local_client()
        .train(&tiny_job(5))
        .expect("local train")
        .trained_model;

    let client =
        RemoteCloudClient::connect_with(proxy.addr(), TransportConfig::default().api_key(key))
            .expect("routed past the dead backend");
    let result = client.train(&tiny_job(5)).expect("train via the proxy");
    assert_eq!(result.trained_model, expected);
    client.close();

    let row = |stats: &ServiceStats, addr: &str| {
        let row = stats.backends.iter().find(|b| b.addr == addr);
        row.expect("a backend row").clone()
    };
    assert!(
        wait_until(Duration::from_secs(10), || {
            let dead = row(&proxy.stats(), &dead);
            dead.ejections == 1 && dead.probes_failed == 1
        }),
        "the refused dial was not counted: {:?}",
        row(&proxy.stats(), &dead)
    );
    let stats = proxy.stats();
    assert_eq!(row(&stats, &dead).sessions_routed, 0, "{stats}");
    assert_eq!(row(&stats, &live).sessions_routed, 1, "{stats}");
    assert!(wait_until(Duration::from_secs(10), || proxy
        .stats()
        .connections_active
        == 0));
    assert_invariants(&proxy.stats());
    proxy.shutdown();
    backend.shutdown();
}

/// A version range the proxy does not speak — newer or older — gets a
/// `Reject` naming the protocol version, and an opener that is not a
/// `Hello` gets the connection closed; each counts once as a rejected
/// connection.
#[test]
fn bad_openers_are_refused_and_counted_once() {
    let backend = live_backend();
    let proxy = AmalgamProxy::bind(
        "127.0.0.1:0",
        &[backend.local_addr().to_string()],
        ProxyConfig::default(),
    )
    .expect("bind proxy");

    for (min_version, max_version) in [(999, 1000), (1, 1)] {
        let mut unspoken = TcpStream::connect(proxy.addr()).expect("connect");
        let hello = Frame::Hello {
            min_version,
            max_version,
            api_key: None,
        };
        write_frame(&mut unspoken, &hello).expect("write Hello");
        match frames_until_closed(&mut unspoken).as_slice() {
            [Frame::Reject { reason }] => assert!(reason.contains("protocol version"), "{reason}"),
            other => panic!("expected one Reject, got {other:?}"),
        }
    }

    let mut rude = TcpStream::connect(proxy.addr()).expect("connect");
    write_frame(&mut rude, &Frame::Ping { nonce: 1 }).expect("write Ping");
    let said = frames_until_closed(&mut rude);
    assert!(
        said.iter().all(|f| matches!(f, Frame::Reject { .. })),
        "a non-Hello opener was answered: {said:?}"
    );

    let stats = proxy.stats();
    assert_eq!(stats.connections_rejected, 3, "{stats}");
    assert_eq!(stats.connections_accepted, 0, "{stats}");
    assert_invariants(&stats);
    proxy.shutdown();
    backend.shutdown();
}

/// One session past `max_connections` is refused before it says anything.
#[test]
fn a_session_over_capacity_is_refused() {
    let backend = live_backend();
    let config = ProxyConfig::default().transport(TransportConfig::default().max_connections(1));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend.local_addr().to_string()], config)
        .expect("bind proxy");
    let admitted = RemoteCloudClient::connect(proxy.addr()).expect("the first session fits");

    let mut excess = TcpStream::connect(proxy.addr()).expect("connect");
    match frames_until_closed(&mut excess).as_slice() {
        [Frame::Reject { reason }] => assert!(reason.contains("capacity"), "{reason}"),
        other => panic!("expected one Reject, got {other:?}"),
    }
    let stats = proxy.stats();
    assert_eq!(stats.connections_rejected, 1, "{stats}");
    assert_eq!(stats.connections_accepted, 1, "{stats}");

    admitted.close();
    proxy.shutdown();
    backend.shutdown();
}

/// `Ping` and `GetStats` are the routing tier's to answer: the backend
/// sees neither, and the stats are the proxy's own (its backend table).
#[test]
fn ping_and_get_stats_are_answered_by_the_proxy() {
    let backend = live_backend();
    // One health sweep at start-up and no keep-alive within the test, so
    // every control frame the backend counts afterwards would be relayed.
    let hour = Duration::from_secs(3600);
    let config = ProxyConfig::default()
        .probe_interval(hour)
        .transport(TransportConfig::default().keepalive_interval(hour));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend.local_addr().to_string()], config)
        .expect("bind proxy");
    assert!(
        wait_until(Duration::from_secs(10), || {
            proxy.stats().backends[0].probes_ok >= 1 && backend.session_count() == 0
        }),
        "the start-up probe never finished"
    );

    let mut session = TcpStream::connect(proxy.addr()).expect("connect");
    let mut decoder = FrameDecoder::new();
    let hello = Frame::Hello {
        min_version: 1,
        max_version: 2,
        api_key: None,
    };
    write_frame(&mut session, &hello).expect("write Hello");
    match next_frame(&mut session, &mut decoder) {
        Frame::Welcome { version: 2, .. } => {}
        other => panic!("expected a v2 Welcome, got {other:?}"),
    }
    let before = backend.stats().control_frames_received;

    write_frame(&mut session, &Frame::Ping { nonce: 41 }).expect("write Ping");
    assert_eq!(
        next_frame(&mut session, &mut decoder),
        Frame::Pong { nonce: 41 }
    );
    write_frame(&mut session, &Frame::GetStats { request_id: 5 }).expect("write GetStats");
    match next_frame(&mut session, &mut decoder) {
        Frame::Stats {
            request_id: 5,
            body: Ok(body),
        } => {
            let stats = ServiceStats::from_bytes(body).expect("decode stats");
            assert_eq!(stats.backends.len(), 1, "the routing tier's table");
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    assert_eq!(
        backend.stats().control_frames_received,
        before,
        "a Ping or GetStats reached the backend"
    );

    drop(session);
    assert!(wait_until(Duration::from_secs(10), || proxy
        .stats()
        .connections_active
        == 0));
    assert_invariants(&proxy.stats());
    proxy.shutdown();
    backend.shutdown();
}

/// Stretches each batch to a controllable wall-clock time, so a fault can
/// land mid-job; the training math is untouched.
struct SleepyObserver(Duration);

impl CloudObserver for SleepyObserver {
    fn on_model(&mut self, _model: &GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

/// The only backend dies mid-job: the relay's link to it fails, the one
/// candidate left is the one that just failed the session, so the retained
/// job is answered `ServiceUnavailable` (a client without a reconnect
/// policy sees it) instead of hanging, and the proxy's counters conserve.
#[test]
fn the_only_backend_dying_mid_job_answers_the_job_service_unavailable() {
    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(Mutex::new(SleepyObserver(Duration::from_millis(
            15,
        )))))
        .build();
    let backend = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let injector = FaultInjector::spawn(backend.local_addr()).expect("spawn injector");
    let config = ProxyConfig::default().probe_interval(Duration::from_secs(3600));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[injector.addr().to_string()], config)
        .expect("bind proxy");
    let client = RemoteCloudClient::connect(proxy.addr()).expect("connect");
    let mut job = tiny_job(11);
    job.train = TrainConfig::new(40, 4, 0.05).with_seed(11);
    let mut handle = client.submit(&job).expect("submit");
    assert!(
        wait_until(Duration::from_secs(20), || {
            backend.stats().epochs_trained >= 1
        }),
        "the job never started training"
    );

    injector.set_fault(Fault::Kill);
    let t0 = Instant::now();
    match handle
        .wait_timeout(Duration::from_secs(5))
        .expect("the handle hung after its backend died")
    {
        Err(CloudError::ServiceUnavailable) => {}
        other => panic!("expected ServiceUnavailable, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());

    client.close();
    assert!(wait_until(Duration::from_secs(10), || proxy
        .stats()
        .connections_active
        == 0));
    assert_invariants(&proxy.stats());
    proxy.shutdown();
    injector.shutdown();
    backend.shutdown();
}

/// A loopback address whose SYNs go unanswered: a listener whose accept
/// queue is full (Linux drops a SYN it has no room for), with the sockets
/// that fill it. Keep both alive while the address is dialed.
fn unanswered_address() -> (TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut queued = Vec::new();
    while let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        queued.push(stream);
    }
    (listener, queued)
}

/// A session whose first ring choice never completes a connect is still
/// welcomed: while its route is being found it has no deadline of its own
/// (each dial is bounded by the link's handshake timeout), so it is not
/// closed just as its link fails over to the next backend.
#[test]
fn a_session_outlives_a_first_choice_whose_connect_never_completes() {
    let backend = live_backend();
    let (unanswered, _queued) = unanswered_address();
    let unanswered = unanswered.local_addr().expect("addr").to_string();
    let fleet = [unanswered.clone(), backend.local_addr().to_string()];
    let ring = HashRing::new(&fleet, ProxyConfig::default().vnodes);
    let key = (0..)
        .map(|i| format!("tenant-{i}"))
        .find(|key| ring.ordered(key)[0] == unanswered)
        .expect("some key starts at the unanswered backend");
    let config = ProxyConfig::default()
        .breaker(BreakerConfig::default().failure_threshold(100))
        .probe_interval(Duration::from_secs(3600))
        .transport(TransportConfig::default().handshake_timeout(Duration::from_millis(300)));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &fleet, config).expect("bind proxy");
    let expected = backend
        .local_client()
        .train(&tiny_job(6))
        .expect("local train")
        .trained_model;

    let client =
        RemoteCloudClient::connect_with(proxy.addr(), TransportConfig::default().api_key(key))
            .expect("welcomed once the route passed over the unanswered backend");
    let result = client.train(&tiny_job(6)).expect("train via the proxy");
    assert_eq!(result.trained_model, expected);
    client.close();
    assert!(wait_until(Duration::from_secs(10), || proxy
        .stats()
        .connections_active
        == 0));
    assert_invariants(&proxy.stats());
    proxy.shutdown();
    backend.shutdown();
}
