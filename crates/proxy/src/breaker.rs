//! Per-backend circuit breakers: the closed → open → half-open → closed
//! state machine that ejects a dying backend, probes it on a cooldown,
//! and readmits it without operator action.
//!
//! The breaker is deliberately *passive about time*: every method takes an
//! explicit `now`, so the state machine is a pure function of the event
//! sequence and deterministic under test. The proxy feeds it two event
//! streams — data-path failures (a session's backend link died) and the
//! health prober's probe outcomes — and mirrors each transition into
//! [`amalgam_cloud::ServiceMetrics`] so failover is observable, not
//! silent.
//!
//! State semantics:
//!
//! * **Closed** — traffic flows; `failure_threshold` *consecutive*
//!   failures open the breaker. Any success resets the count (routine
//!   probes of a healthy backend keep old, isolated failures from
//!   accumulating into an ejection).
//! * **Open** — the backend is ejected: the router skips it and sessions
//!   fail over. Only after `cooldown` does [`CircuitBreaker::probe_gate`]
//!   move it to half-open and admit one probe stream.
//! * **HalfOpen** — probation. `success_threshold` consecutive probe
//!   successes close the breaker (readmission); a single failure re-opens
//!   it and restarts the cooldown.

use std::time::{Duration, Instant};

use amalgam_cloud::BackendHealth;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Where a breaker stands. Mirrors [`BackendHealth`] one-to-one; the
/// separate type keeps the state *machine* (here) distinct from the
/// reported telemetry (in `amalgam-cloud`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures are being counted.
    Closed,
    /// Ejected: routing skips this backend until the cooldown elapses.
    Open,
    /// Probation: probe outcomes decide readmission or re-ejection.
    HalfOpen,
}

impl From<BreakerState> for BackendHealth {
    fn from(state: BreakerState) -> BackendHealth {
        match state {
            BreakerState::Closed => BackendHealth::Closed,
            BreakerState::Open => BackendHealth::Open,
            BreakerState::HalfOpen => BackendHealth::HalfOpen,
        }
    }
}

/// What one recorded event did to the state machine — the hook for
/// mirroring transitions into metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// Closed or half-open → open: the backend is ejected.
    Ejected,
    /// Open → half-open: the cooldown elapsed, probation begins.
    Probation,
    /// Half-open → closed: the backend is readmitted.
    Readmitted,
}

/// Breaker tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open a closed breaker (default 3).
    pub failure_threshold: u32,
    /// How long an open breaker refuses even probes (default 2 s).
    pub cooldown: Duration,
    /// Consecutive half-open probe successes that close the breaker
    /// (default 2).
    pub success_threshold: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
            success_threshold: 2,
        }
    }
}

impl BreakerConfig {
    /// Sets the consecutive-failure threshold.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (a breaker that opens on zero failures never
    /// routes anything).
    #[must_use]
    pub fn failure_threshold(mut self, n: u32) -> BreakerConfig {
        assert!(n > 0, "failure threshold must be at least 1");
        self.failure_threshold = n;
        self
    }

    /// Sets the open-state cooldown before probation.
    #[must_use]
    pub fn cooldown(mut self, cooldown: Duration) -> BreakerConfig {
        self.cooldown = cooldown;
        self
    }

    /// Sets the probe successes required for readmission.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (readmission must be earned by at least one
    /// probe).
    #[must_use]
    pub fn success_threshold(mut self, n: u32) -> BreakerConfig {
        assert!(n > 0, "success threshold must be at least 1");
        self.success_threshold = n;
        self
    }
}

/// One backend's breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker with zeroed counts.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            opened_at: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the data path may route new sessions here. Only a closed
    /// breaker takes traffic: half-open capacity is reserved for probes,
    /// so a still-sick backend never eats a real session to find out.
    pub fn admits_traffic(&self) -> bool {
        self.state == BreakerState::Closed
    }

    /// Records a success (a probe round-trip, or any event the caller
    /// trusts as evidence of health).
    pub fn record_success(&mut self) -> Transition {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                Transition::None
            }
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.config.success_threshold {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    Transition::Readmitted
                } else {
                    Transition::None
                }
            }
            // A late success against an open breaker proves nothing about
            // the backend *now*; probation still has to be earned.
            BreakerState::Open => Transition::None,
        }
    }

    /// Records a failure (failed dial, dead link, failed probe) observed
    /// at `now`.
    pub fn record_failure(&mut self, now: Instant) -> Transition {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.open(now);
                    Transition::Ejected
                } else {
                    Transition::None
                }
            }
            BreakerState::HalfOpen => {
                // One bad probe ends probation immediately.
                self.open(now);
                Transition::Ejected
            }
            BreakerState::Open => Transition::None,
        }
    }

    /// The prober's gate: whether a probe should run at `now`, advancing
    /// open → half-open once the cooldown has elapsed.
    ///
    /// Closed backends are probed routinely (their successes reset the
    /// failure count), open ones refuse probes until the cooldown is up,
    /// half-open ones are probed toward readmission.
    pub fn probe_gate(&mut self, now: Instant) -> (bool, Transition) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, Transition::None),
            BreakerState::Open => {
                let elapsed = self
                    .opened_at
                    .map(|at| now.saturating_duration_since(at))
                    .unwrap_or(Duration::ZERO);
                if elapsed >= self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_successes = 0;
                    (true, Transition::Probation)
                } else {
                    (false, Transition::None)
                }
            }
        }
    }

    fn open(&mut self, now: Instant) {
        self.state = BreakerState::Open;
        self.opened_at = Some(now);
        self.consecutive_failures = 0;
        self.half_open_successes = 0;
    }
}

/// All backends' breakers under one lock, keyed by dial address.
#[derive(Debug)]
pub struct BreakerRegistry {
    config: BreakerConfig,
    inner: Mutex<HashMap<String, CircuitBreaker>>,
}

impl BreakerRegistry {
    /// A registry with a breaker (closed) for each of `backends`.
    pub fn new(config: BreakerConfig, backends: &[String]) -> BreakerRegistry {
        let inner = backends
            .iter()
            .map(|addr| (addr.clone(), CircuitBreaker::new(config)))
            .collect();
        BreakerRegistry {
            config,
            inner: Mutex::new(inner),
        }
    }

    /// Runs `f` on `addr`'s breaker (created closed if unknown).
    pub fn with<R>(&self, addr: &str, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let breaker = inner
            .entry(addr.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config));
        f(breaker)
    }

    /// `addr`'s current state (closed if unknown).
    pub fn state(&self, addr: &str) -> BreakerState {
        self.with(addr, |b| b.state())
    }

    /// Whether the data path may route new sessions to `addr`.
    pub fn admits_traffic(&self, addr: &str) -> bool {
        self.with(addr, |b| b.admits_traffic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig::default()
                .failure_threshold(3)
                .cooldown(Duration::from_millis(100))
                .success_threshold(2),
        )
    }

    #[test]
    fn full_lifecycle_closed_open_half_open_closed() {
        let t0 = Instant::now();
        let mut b = breaker();
        assert!(b.admits_traffic());
        assert_eq!(b.record_failure(t0), Transition::None);
        assert_eq!(b.record_failure(t0), Transition::None);
        assert_eq!(b.record_failure(t0), Transition::Ejected);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admits_traffic());
        // Cooldown not yet elapsed: no probes.
        assert_eq!(
            b.probe_gate(t0 + Duration::from_millis(50)),
            (false, Transition::None)
        );
        // Cooldown elapsed: probation begins.
        assert_eq!(
            b.probe_gate(t0 + Duration::from_millis(100)),
            (true, Transition::Probation)
        );
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admits_traffic(), "probation takes probes, not sessions");
        assert_eq!(b.record_success(), Transition::None);
        assert_eq!(b.record_success(), Transition::Readmitted);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admits_traffic());
    }

    #[test]
    fn half_open_failure_reopens_and_restarts_cooldown() {
        let t0 = Instant::now();
        let mut b = breaker();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert_eq!(b.probe_gate(t1), (true, Transition::Probation));
        assert_eq!(b.record_success(), Transition::None);
        // One bad probe ends probation; the earlier success is forgotten.
        assert_eq!(b.record_failure(t1), Transition::Ejected);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(
            b.probe_gate(t1 + Duration::from_millis(99)),
            (false, Transition::None)
        );
        let (probe, t) = b.probe_gate(t1 + Duration::from_millis(100));
        assert!(probe);
        assert_eq!(t, Transition::Probation);
        assert_eq!(b.record_success(), Transition::None);
        assert_eq!(b.record_success(), Transition::Readmitted);
    }

    #[test]
    fn successes_reset_the_consecutive_failure_count() {
        let t0 = Instant::now();
        let mut b = breaker();
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.record_success(), Transition::None);
        // The count restarted: two more failures are not enough.
        b.record_failure(t0);
        assert_eq!(b.record_failure(t0), Transition::None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.record_failure(t0), Transition::Ejected);
    }

    #[test]
    fn registry_tracks_backends_independently() {
        let reg = BreakerRegistry::new(
            BreakerConfig::default().failure_threshold(1),
            &["a:1".into(), "b:2".into()],
        );
        let now = Instant::now();
        assert_eq!(
            reg.with("a:1", |b| b.record_failure(now)),
            Transition::Ejected
        );
        assert!(!reg.admits_traffic("a:1"));
        assert!(reg.admits_traffic("b:2"));
    }
}
