//! Active health checking, the policy half: which backends a sweep probes,
//! and what a probe's verdict does to their breakers. The probe itself is
//! the relay's mechanism (`amalgam_cloud`'s `transport::event_loop::relay`):
//! a link on the relay's reactor 0 that dials, says `Hello`, waits for
//! `Welcome`, sends a `Ping`, waits for its `Pong` and says `Goodbye`, all
//! within [`ProxyConfig::probe_timeout`](crate::ProxyConfig::probe_timeout),
//! once per [`ProxyConfig::probe_interval`](crate::ProxyConfig::probe_interval).
//!
//! A probe is not a TCP connect — a wedged server accepts connects
//! happily. Anything less than a well-formed Welcome *and* a matching Pong
//! inside the probe deadline counts as a failure. Probe outcomes are the
//! breakers' second event stream (alongside data-path link deaths):
//! failures accumulate toward ejection, cooldown expiry moves an open
//! breaker to half-open, and consecutive half-open successes readmit the
//! backend — all mirrored into [`amalgam_cloud::ServiceMetrics`] as it
//! happens.
//!
//! Closed (healthy) backends are probed too: their successes reset stale
//! failure counts, so two isolated link deaths an hour apart never add up
//! to an ejection.

use std::net::SocketAddr;
use std::time::Instant;

use amalgam_cloud::BackendHealth;

use crate::breaker::Transition;
use crate::proxy::Fleet;

/// The backends whose breaker admits a probe now, by name and address.
pub(crate) fn due(fleet: &Fleet) -> Vec<(String, SocketAddr)> {
    let mut due = Vec::new();
    for name in fleet.ring.backends() {
        let (probe, transition) = fleet.breakers.with(name, |b| b.probe_gate(Instant::now()));
        if transition == Transition::Probation {
            fleet.metrics.backend_health(name, BackendHealth::HalfOpen);
        }
        if probe {
            due.push((name.clone(), fleet.resolved[name]));
        }
    }
    due
}

/// A probe of `name` ended: `ok`, or it failed.
pub(crate) fn probed(fleet: &Fleet, name: &str, ok: bool) {
    fleet.metrics.backend_probe(name, ok);
    if ok {
        fleet.record_backend_success(name);
    } else {
        fleet.record_backend_failure(name);
    }
}
