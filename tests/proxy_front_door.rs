//! The routing tier's front door, pinned from the client's side: who is
//! refused before a session exists, with which reason, counted once each —
//! and which frames the proxy answers itself instead of relaying.

use amalgam::cloud::transport::{write_frame, Frame, FrameDecoder};
use amalgam::cloud::CloudService;
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
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
