//! Hashed timer wheel for connection deadlines.
//!
//! Each connection keeps one deadline, the earliest of what it waits for —
//! a server-role connection its handshake or idle timeout, a link its
//! `Welcome`, replies, a keep-alive ping and its role's own deadlines, and
//! every socket a stalled write queue. Instead of one thread-per-connection
//! `read_timeout` tick, all deadlines live in one wheel per reactor thread;
//! the wheel's [`TimerWheel::next_deadline`] bounds the `epoll_wait`
//! timeout, so an idle reactor sleeps until the earliest deadline and a busy
//! one never pays more than an O(slots) scan per wake.
//!
//! Cancellation is lazy, and the driver — the reactor, through its wheel —
//! is the one holder of generations: each entry carries the generation it
//! was armed with, the wheel remembers the live one per owner, and a fired
//! entry whose generation is stale is simply dropped — no removal when a
//! deadline moves. One arming rule holds for every owner
//! ([`TimerWheel::arm`]): an earlier deadline supersedes the armed one, a
//! later one waits for it to fire and is then armed, so activity that only
//! pushes a deadline later adds no entries.

use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Entry {
    fire_tick: u64,
    token: u64,
    generation: u64,
}

/// Hashed timer wheel: `slots` buckets of `tick`-sized time, entries hashed
/// by `fire_tick % slots`. Deadlines beyond one wheel revolution simply stay
/// in their bucket for extra laps (each entry records its absolute tick).
#[derive(Debug)]
pub(super) struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    base: Instant,
    /// Next tick index to sweep; every tick below this has been processed.
    cursor: u64,
    /// Entries armed for ticks the sweep already passed; they fire on the
    /// very next [`TimerWheel::advance`], whatever `now` it is given.
    overdue: Vec<Entry>,
    /// Each owner's armed deadline and the generation of its live entry.
    armed: HashMap<u64, (Instant, u64)>,
    generation: u64,
}

impl TimerWheel {
    pub(super) fn new(tick: Duration, slots: usize) -> TimerWheel {
        assert!(!tick.is_zero() && slots > 0);
        TimerWheel {
            slots: vec![Vec::new(); slots],
            tick,
            base: Instant::now(),
            cursor: 0,
            overdue: Vec::new(),
            armed: HashMap::new(),
            generation: 0,
        }
    }

    /// Tick index containing `at` (saturating at 0 before `base`).
    fn tick_of(&self, at: Instant) -> u64 {
        let dt = at.saturating_duration_since(self.base);
        (dt.as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Arms `token`'s next deadline `at`, unless one no later is armed
    /// already: that one fires first, and the owner is armed again then. A
    /// deadline in the past (or inside the current tick) fires on the next
    /// [`TimerWheel::advance`].
    pub(super) fn arm(&mut self, token: u64, at: Option<Instant>) {
        let armed = self.armed.get(&token).map(|&(armed, _)| armed);
        let Some(at) = at.filter(|&at| armed.is_none_or(|armed| at < armed)) else {
            return;
        };
        self.generation += 1;
        self.armed.insert(token, (at, self.generation));
        let entry = Entry {
            fire_tick: self.tick_of(at),
            token,
            generation: self.generation,
        };
        if entry.fire_tick < self.cursor {
            // The sweep already passed that tick; park it where the next
            // advance is guaranteed to see it.
            self.overdue.push(entry);
        } else {
            let slot = (entry.fire_tick % self.slots.len() as u64) as usize;
            self.slots[slot].push(entry);
        }
    }

    /// Sweeps every tick up to `now`, appending to `due` each owner whose
    /// armed deadline fell due (it is disarmed); stale entries are dropped.
    pub(super) fn advance(&mut self, now: Instant, due: &mut Vec<u64>) {
        let mut fired = std::mem::take(&mut self.overdue);
        let target = self.tick_of(now);
        if target >= self.cursor {
            let nslots = self.slots.len() as u64;
            // Sweeping more ticks than slots revisits buckets; one full lap
            // covers them all.
            let sweeps = (target - self.cursor + 1).min(nslots);
            for i in 0..sweeps {
                let slot = ((self.cursor + i) % nslots) as usize;
                self.slots[slot].retain(|e| {
                    let due = e.fire_tick <= target;
                    if due {
                        fired.push(*e);
                    }
                    !due
                });
            }
            self.cursor = target + 1;
        }
        for e in fired.drain(..) {
            if self
                .armed
                .get(&e.token)
                .is_some_and(|&(_, g)| g == e.generation)
            {
                self.armed.remove(&e.token);
                due.push(e.token);
            }
        }
        self.overdue = fired;
    }

    /// Earliest armed deadline, if any — the bound for the poller timeout.
    pub(super) fn next_deadline(&self) -> Option<Instant> {
        if !self.overdue.is_empty() {
            // Already due: the caller should not sleep at all.
            return Some(self.base + self.tick * self.cursor.min(u32::MAX as u64) as u32);
        }
        let min_tick = self.slots.iter().flatten().map(|e| e.fire_tick).min();
        // Fire at the *end* of the tick so deadlines are never early.
        min_tick.map(|t| self.base + self.tick * (t as u32 + 1))
    }

    /// Entries held, stale ones included.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum::<usize>() + self.overdue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(5);

    fn drain(wheel: &mut TimerWheel, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        wheel.advance(now, &mut due);
        due
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        wheel.arm(1, Some(base + Duration::from_millis(50)));

        assert!(drain(&mut wheel, base + Duration::from_millis(40)).is_empty());
        assert_eq!(drain(&mut wheel, base + Duration::from_millis(55)), [1]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        // Move the cursor forward first.
        drain(&mut wheel, base + Duration::from_millis(100));
        // Then arm something "in the past".
        wheel.arm(2, Some(base + Duration::from_millis(20)));
        assert_eq!(drain(&mut wheel, base + Duration::from_millis(101)), [2]);
    }

    #[test]
    fn deadline_beyond_one_revolution_waits_extra_laps() {
        let mut wheel = TimerWheel::new(TICK, 8); // revolution = 40ms
        let base = wheel.base;
        wheel.arm(3, Some(base + Duration::from_millis(100)));
        // Sweep a full revolution early: must not fire.
        assert!(drain(&mut wheel, base + Duration::from_millis(45)).is_empty());
        assert!(drain(&mut wheel, base + Duration::from_millis(90)).is_empty());
        assert_eq!(drain(&mut wheel, base + Duration::from_millis(110)), [3]);
    }

    #[test]
    fn advance_after_long_sleep_fires_everything_due() {
        let mut wheel = TimerWheel::new(TICK, 8);
        let base = wheel.base;
        for t in 0..20u64 {
            wheel.arm(t, Some(base + Duration::from_millis(t * 7)));
        }
        let mut tokens = drain(&mut wheel, base + Duration::from_secs(1));
        tokens.sort_unstable();
        assert_eq!(tokens, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn next_deadline_bounds_the_sleep() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        assert!(wheel.next_deadline().is_none());
        wheel.arm(1, Some(base + Duration::from_millis(30)));
        wheel.arm(2, Some(base + Duration::from_millis(10)));
        let next = wheel.next_deadline().unwrap();
        // Earliest deadline, rounded up to a tick boundary.
        assert!(next >= base + Duration::from_millis(10));
        assert!(next <= base + Duration::from_millis(15 + 5));
        drain(&mut wheel, next);
        // Only the 30ms entry remains.
        assert!(wheel.next_deadline().unwrap() >= base + Duration::from_millis(30));
    }

    /// The one arming rule: a stale fire is ignored, an earlier deadline
    /// supersedes a later one, a later one waits for the armed one to fire,
    /// and an owner whose deadline fires keeps no duplicate entries.
    #[test]
    fn one_deadline_per_owner_and_stale_fires_ignored() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        let at = |ms| Some(base + Duration::from_millis(ms));

        wheel.arm(1, at(50));
        wheel.arm(1, at(20));
        assert_eq!(wheel.len(), 2, "an earlier deadline is armed");
        assert_eq!(drain(&mut wheel, base + Duration::from_millis(30)), [1]);
        assert!(
            drain(&mut wheel, base + Duration::from_millis(60)).is_empty(),
            "the superseded entry fired stale"
        );
        assert_eq!(wheel.len(), 0);

        wheel.arm(1, at(100));
        for later in 101..120 {
            wheel.arm(1, at(later));
        }
        assert_eq!(wheel.len(), 1, "later deadlines add no entries");
        assert_eq!(
            drain(&mut wheel, base + Duration::from_millis(110)),
            [1],
            "the armed one fires"
        );
        wheel.arm(1, at(119));
        assert_eq!(wheel.len(), 1, "and the later one is armed then");
        assert_eq!(drain(&mut wheel, base + Duration::from_millis(130)), [1]);
        assert_eq!(wheel.len(), 0);

        wheel.arm(2, None);
        assert_eq!(wheel.next_deadline(), None, "nothing to arm");
    }
}
