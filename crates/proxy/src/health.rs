//! Active health checking: the sweep that walks the fleet, exercises each
//! backend end-to-end, and drives the circuit breakers. It runs on the
//! relay's dialer thread, between dials, once per
//! [`ProxyConfig::probe_interval`](crate::ProxyConfig::probe_interval).
//!
//! A probe is not a TCP connect — a wedged server accepts connects
//! happily. Each probe is a full protocol transaction: dial, Hello →
//! Welcome handshake, Ping → Pong round-trip, Goodbye. Anything less than
//! a well-formed Welcome *and* a matching Pong inside the probe deadline
//! counts as a failure. Probe outcomes are the breakers' second event
//! stream (alongside data-path link deaths): failures accumulate toward
//! ejection, cooldown expiry moves an open breaker to half-open, and
//! consecutive half-open successes readmit the backend — all mirrored
//! into [`amalgam_cloud::ServiceMetrics`] as it happens.
//!
//! Closed (healthy) backends are probed too: their successes reset stale
//! failure counts, so two isolated link deaths an hour apart never add up
//! to an ejection.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Instant;

use amalgam_cloud::transport::{handshake, write_frame, Frame, FrameDecoder, TransportConfig};
use amalgam_cloud::BackendHealth;

use crate::breaker::Transition;
use crate::proxy::Fleet;

/// The nonce probes ride on; echoed back by an honest backend.
const PROBE_NONCE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Probes every backend whose breaker admits a probe now.
pub(crate) fn sweep(fleet: &Fleet) {
    for addr in fleet.ring.backends() {
        let (probe, transition) = fleet.breakers.with(addr, |b| b.probe_gate(Instant::now()));
        if transition == Transition::Probation {
            fleet.metrics.backend_health(addr, BackendHealth::HalfOpen);
        }
        if !probe {
            continue;
        }
        let ok = probe_once(fleet, addr);
        fleet.metrics.backend_probe(addr, ok);
        if ok {
            fleet.record_backend_success(addr);
        } else {
            fleet.record_backend_failure(addr);
        }
    }
}

/// One end-to-end probe transaction against `addr`, bounded by the probe
/// deadline at every step.
fn probe_once(fleet: &Fleet, addr: &str) -> bool {
    let deadline = fleet.config.probe_timeout;
    let config = TransportConfig {
        api_key: None,
        handshake_timeout: deadline,
        write_timeout: deadline,
        ..fleet.config.transport.clone()
    };
    let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return false;
    };
    let Ok(stream) = TcpStream::connect_timeout(&sock_addr, deadline) else {
        return false;
    };
    // The handshake leaves the deadline on the socket's reads and writes.
    if handshake(&stream, &config).is_err() {
        return false;
    }
    let mut s = &stream;
    let mut pong = FrameDecoder::new();
    let pong_ok = write_frame(&mut s, &Frame::Ping { nonce: PROBE_NONCE }).is_ok()
        && loop {
            match pong.next_frame(config.max_frame_len) {
                Ok(Some((Frame::Pong { nonce }, _))) => break nonce == PROBE_NONCE,
                Ok(None) if matches!(pong.read_from(&mut s), Ok(n) if n > 0) => {}
                _ => break false,
            }
        };
    // Polite hang-up either way; the verdict is already in.
    let _ = write_frame(&mut s, &Frame::Goodbye);
    let _ = stream.shutdown(Shutdown::Both);
    pong_ok
}
