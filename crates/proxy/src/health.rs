//! Active health checking: the prober that walks the fleet, exercises
//! each backend end-to-end, and drives the circuit breakers.
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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amalgam_cloud::transport::{
    handshake, read_frame_blocking, write_frame, Frame, FrameOrigin, TransportConfig,
};
use amalgam_cloud::BackendHealth;

use crate::breaker::Transition;
use crate::proxy::ProxyShared;

/// How often the prober wakes to check for shutdown between sweeps.
const TICK: Duration = Duration::from_millis(25);

/// The nonce probes ride on; echoed back by an honest backend.
const PROBE_NONCE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starts the prober thread sweeping the fleet every
/// `probe_interval`.
pub(crate) fn spawn_prober(shared: Arc<ProxyShared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("proxy-prober".into())
        .spawn(move || prober_loop(&shared))
        .expect("spawn proxy prober")
}

fn prober_loop(shared: &Arc<ProxyShared>) {
    loop {
        for addr in shared.ring.backends() {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let (probe, transition) = shared.breakers.with(addr, |b| b.probe_gate(Instant::now()));
            if transition == Transition::Probation {
                shared.metrics.backend_health(addr, BackendHealth::HalfOpen);
            }
            if !probe {
                continue;
            }
            let ok = probe_once(shared, addr);
            shared.metrics.backend_probe(addr, ok);
            if ok {
                shared.record_backend_success(addr);
            } else {
                shared.record_backend_failure(addr);
            }
        }
        // Sleep one sweep interval in small ticks so shutdown is prompt.
        let until = Instant::now() + shared.config.probe_interval;
        while Instant::now() < until {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(TICK);
        }
    }
}

/// One end-to-end probe transaction against `addr`, bounded by the probe
/// deadline at every step.
fn probe_once(shared: &Arc<ProxyShared>, addr: &str) -> bool {
    let deadline = shared.config.probe_timeout;
    let config = TransportConfig {
        api_key: None,
        handshake_timeout: deadline,
        write_timeout: deadline,
        ..shared.config.transport.clone()
    };
    let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        return false;
    };
    let Ok(stream) = TcpStream::connect_timeout(&sock_addr, deadline) else {
        return false;
    };
    if handshake(&stream, &config).is_err() {
        return false;
    }
    let mut s = &stream;
    if write_frame(&mut s, &Frame::Ping { nonce: PROBE_NONCE }).is_err() {
        return false;
    }
    let pong_ok = matches!(
        read_frame_blocking(&mut s, config.max_frame_len, FrameOrigin::Server),
        Ok(Some((Frame::Pong { nonce: PROBE_NONCE }, _)))
    );
    // Polite hang-up either way; the verdict is already in.
    let _ = write_frame(&mut s, &Frame::Goodbye);
    let _ = stream.shutdown(Shutdown::Both);
    pong_ok
}
