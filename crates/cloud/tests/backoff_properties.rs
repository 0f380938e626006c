//! Property tests of the self-healing client's retry machinery: the
//! decorrelated-jitter backoff and the `retry_after` scheduling queue.
//!
//! The contracts under test are exactly the ones a thundering herd or a
//! hot-loop would violate:
//!
//! * every backoff delay stays inside `[base, cap]` — never zero, never
//!   runaway — for *any* base/cap/seed and any number of steps;
//! * each delay respects the decorrelated-jitter envelope
//!   `delay ≤ min(cap, 3 · prev)`, so one unlucky draw can't jump the
//!   backoff straight to the cap from a cold start;
//! * the jitter is deterministic per seed (reproducible incidents) and
//!   seeds actually decorrelate (different seeds, different schedules);
//! * a retry scheduled for `retry_after` never fires early, no matter how
//!   aggressively the client loop polls the queue.

use amalgam_cloud::transport::{DecorrelatedJitter, RetryQueue};
use proptest::collection;
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// All delays stay within `[base, cap]` and are never zero — the
    /// "never hot-loop, never stall forever" invariant.
    #[test]
    fn delays_stay_within_base_and_cap(
        base_ms in 1u64..2_000,
        extra_ms in 0u64..10_000,
        seed in any::<u64>(),
        steps in 1usize..64,
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = base + Duration::from_millis(extra_ms);
        let mut jitter = DecorrelatedJitter::new(base, cap, seed);
        for step in 0..steps {
            let d = jitter.next_delay();
            prop_assert!(d >= base, "step {step}: delay {d:?} under base {base:?}");
            prop_assert!(d <= cap, "step {step}: delay {d:?} over cap {cap:?}");
            prop_assert!(!d.is_zero(), "step {step}: zero delay");
        }
    }

    /// Degenerate configurations (zero base, cap under base) are clamped
    /// into a sane band instead of producing zero or inverted delays.
    #[test]
    fn degenerate_configs_are_clamped_sane(
        base_ms in 0u64..5,
        cap_ms in 0u64..5,
        seed in any::<u64>(),
    ) {
        let mut jitter = DecorrelatedJitter::new(
            Duration::from_millis(base_ms),
            Duration::from_millis(cap_ms),
            seed,
        );
        for _ in 0..16 {
            let d = jitter.next_delay();
            prop_assert!(!d.is_zero(), "clamping must forbid zero delays");
            prop_assert!(d <= Duration::from_millis(5));
        }
    }

    /// Each delay obeys the decorrelated-jitter growth envelope:
    /// `delay ≤ min(cap, 3 · previous delay)`.
    #[test]
    fn growth_is_bounded_by_three_times_previous(
        base_ms in 1u64..500,
        extra_ms in 0u64..5_000,
        seed in any::<u64>(),
        steps in 2usize..48,
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = base + Duration::from_millis(extra_ms);
        let mut jitter = DecorrelatedJitter::new(base, cap, seed);
        let mut prev = base;
        for step in 0..steps {
            let d = jitter.next_delay();
            let envelope = cap.min(prev * 3);
            prop_assert!(
                d <= envelope,
                "step {step}: delay {d:?} outside envelope {envelope:?} (prev {prev:?})"
            );
            prev = d;
        }
    }

    /// Same seed, same schedule; and a reset replays it from the start —
    /// incidents are reproducible offline.
    #[test]
    fn schedules_are_deterministic_per_seed(
        base_ms in 1u64..200,
        extra_ms in 1u64..2_000,
        seed in any::<u64>(),
    ) {
        let base = Duration::from_millis(base_ms);
        let cap = base + Duration::from_millis(extra_ms);
        let mut a = DecorrelatedJitter::new(base, cap, seed);
        let mut b = DecorrelatedJitter::new(base, cap, seed);
        let first: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        let second: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        prop_assert_eq!(&first, &second);
    }

    /// A `retry_after`-scheduled retry never pops before its due time, for
    /// any schedule and any polling pattern.
    #[test]
    fn scheduled_retries_never_fire_early(
        delays_ms in collection::vec(0u64..500, 1..32),
        polls_ms in collection::vec(0u64..600, 1..64),
    ) {
        let t0 = Instant::now();
        let mut queue = RetryQueue::new();
        let mut due_by_id = std::collections::HashMap::new();
        for (id, delay) in delays_ms.iter().enumerate() {
            let at = t0 + Duration::from_millis(*delay);
            queue.schedule(id as u64, at);
            due_by_id.insert(id as u64, at);
        }
        let mut polls: Vec<Duration> = polls_ms.iter().map(|ms| Duration::from_millis(*ms)).collect();
        polls.sort_unstable();
        let mut fired = 0usize;
        for poll in polls {
            let now = t0 + poll;
            for id in queue.pop_due(now) {
                let due = due_by_id[&id];
                prop_assert!(
                    due <= now,
                    "retry {id} fired {:?} early",
                    due.saturating_duration_since(now)
                );
                fired += 1;
            }
        }
        // Everything due by the last poll must also have fired — the queue
        // may not sit on ripe retries.
        let last = t0 + polls_ms.iter().map(|ms| Duration::from_millis(*ms)).max().unwrap();
        let ripe = due_by_id.values().filter(|at| **at <= last).count();
        prop_assert_eq!(fired, ripe, "queue sat on ripe retries");
    }

    /// `next_due` is exactly the earliest outstanding deadline — what the
    /// client loop arms its session's deadline with.
    #[test]
    fn next_due_tracks_the_earliest_deadline(
        delays_ms in collection::vec(1u64..500, 1..32),
    ) {
        let t0 = Instant::now();
        let mut queue = RetryQueue::new();
        for (id, delay) in delays_ms.iter().enumerate() {
            queue.schedule(id as u64, t0 + Duration::from_millis(*delay));
        }
        let earliest = t0 + Duration::from_millis(*delays_ms.iter().min().unwrap());
        prop_assert_eq!(queue.next_due(), Some(earliest));
        prop_assert_eq!(queue.len(), delays_ms.len());
    }
}

/// Different seeds must actually decorrelate: across a handful of seeds at
/// least two distinct schedules appear (a constant-schedule "jitter" would
/// synchronize a reconnect stampede).
#[test]
fn distinct_seeds_decorrelate() {
    let base = Duration::from_millis(50);
    let cap = Duration::from_secs(5);
    let schedules: std::collections::HashSet<Vec<Duration>> = (0..8u64)
        .map(|seed| {
            let mut j = DecorrelatedJitter::new(base, cap, seed);
            (0..8).map(|_| j.next_delay()).collect()
        })
        .collect();
    assert!(
        schedules.len() >= 2,
        "8 seeds produced {} unique schedules",
        schedules.len()
    );
}
