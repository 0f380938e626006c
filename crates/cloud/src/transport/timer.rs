//! Hashed timer wheel for connection deadlines.
//!
//! Each connection keeps one deadline, the earliest of what it waits for —
//! a server-role connection its handshake or idle timeout and a stalled
//! write queue, a link (its owner's token with the link bit set) a
//! `Welcome`, replies, a keep-alive ping and its role's own deadlines.
//! Instead of one thread-per-connection `read_timeout` tick, all deadlines
//! live in one wheel per reactor thread; the wheel's
//! [`TimerWheel::next_deadline`] bounds the `epoll_wait` timeout, so an idle
//! reactor sleeps until the earliest deadline and a busy one never pays more
//! than an O(slots) scan per wake.
//!
//! Cancellation is lazy: timers carry a generation counter, and the owner
//! bumps its generation whenever it arms a new deadline. A fired entry whose
//! generation is stale is simply dropped — no lookup or removal on the hot
//! path.

use std::time::{Duration, Instant};

/// A deadline that fell due, returned by [`TimerWheel::advance`].
#[derive(Debug, Clone, Copy)]
pub(super) struct Fired {
    /// Connection token the timer was armed for.
    pub token: u64,
    /// Generation the timer was armed with; stale generations are ignored by
    /// the owner.
    pub generation: u64,
}

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
    len: usize,
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
            len: 0,
        }
    }

    /// Tick index containing `at` (saturating at 0 before `base`).
    fn tick_of(&self, at: Instant) -> u64 {
        let dt = at.saturating_duration_since(self.base);
        (dt.as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Arms a deadline. A deadline in the past (or inside the current tick)
    /// fires on the next [`TimerWheel::advance`].
    pub(super) fn insert(&mut self, at: Instant, token: u64, generation: u64) {
        let fire_tick = self.tick_of(at);
        let entry = Entry {
            fire_tick,
            token,
            generation,
        };
        if fire_tick < self.cursor {
            // The sweep already passed that tick; park it where the next
            // advance is guaranteed to see it.
            self.overdue.push(entry);
        } else {
            let slot = (fire_tick % self.slots.len() as u64) as usize;
            self.slots[slot].push(entry);
        }
        self.len += 1;
    }

    /// Sweeps every tick up to `now`, appending due entries to `fired`.
    pub(super) fn advance(&mut self, now: Instant, fired: &mut Vec<Fired>) {
        for e in self.overdue.drain(..) {
            self.len -= 1;
            fired.push(Fired {
                token: e.token,
                generation: e.generation,
            });
        }
        let target = self.tick_of(now);
        if target < self.cursor {
            return;
        }
        let nslots = self.slots.len() as u64;
        // Sweeping more ticks than slots revisits buckets; one full lap
        // covers them all.
        let sweeps = (target - self.cursor + 1).min(nslots);
        for i in 0..sweeps {
            let slot = ((self.cursor + i) % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].fire_tick <= target {
                    let e = bucket.swap_remove(j);
                    self.len -= 1;
                    fired.push(Fired {
                        token: e.token,
                        generation: e.generation,
                    });
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = target + 1;
    }

    /// Earliest armed deadline, if any — the bound for the poller timeout.
    pub(super) fn next_deadline(&self) -> Option<Instant> {
        if !self.overdue.is_empty() {
            // Already due: the caller should not sleep at all.
            return Some(self.base + self.tick * self.cursor.min(u32::MAX as u64) as u32);
        }
        let mut min_tick = None;
        for bucket in &self.slots {
            for e in bucket {
                min_tick = Some(match min_tick {
                    None => e.fire_tick,
                    Some(m) if e.fire_tick < m => e.fire_tick,
                    Some(m) => m,
                });
            }
        }
        // Fire at the *end* of the tick so deadlines are never early.
        min_tick.map(|t| self.base + self.tick * (t as u32 + 1))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(5);

    fn drain(wheel: &mut TimerWheel, now: Instant) -> Vec<Fired> {
        let mut fired = Vec::new();
        wheel.advance(now, &mut fired);
        fired
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        wheel.insert(base + Duration::from_millis(50), 1, 0);

        assert!(drain(&mut wheel, base + Duration::from_millis(40)).is_empty());
        let fired = drain(&mut wheel, base + Duration::from_millis(55));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 1);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        // Move the cursor forward first.
        drain(&mut wheel, base + Duration::from_millis(100));
        // Then arm something "in the past".
        wheel.insert(base + Duration::from_millis(20), 2, 7);
        let fired = drain(&mut wheel, base + Duration::from_millis(101));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].generation, 7);
    }

    #[test]
    fn deadline_beyond_one_revolution_waits_extra_laps() {
        let mut wheel = TimerWheel::new(TICK, 8); // revolution = 40ms
        let base = wheel.base;
        wheel.insert(base + Duration::from_millis(100), 3, 0);
        // Sweep a full revolution early: must not fire.
        assert!(drain(&mut wheel, base + Duration::from_millis(45)).is_empty());
        assert!(drain(&mut wheel, base + Duration::from_millis(90)).is_empty());
        assert_eq!(
            drain(&mut wheel, base + Duration::from_millis(110)).len(),
            1
        );
    }

    #[test]
    fn advance_after_long_sleep_fires_everything_due() {
        let mut wheel = TimerWheel::new(TICK, 8);
        let base = wheel.base;
        for t in 0..20u64 {
            wheel.insert(base + Duration::from_millis(t * 7), t, t);
        }
        let fired = drain(&mut wheel, base + Duration::from_secs(1));
        assert_eq!(fired.len(), 20);
        let mut tokens: Vec<u64> = fired.iter().map(|f| f.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn next_deadline_bounds_the_sleep() {
        let mut wheel = TimerWheel::new(TICK, 64);
        let base = wheel.base;
        assert!(wheel.next_deadline().is_none());
        wheel.insert(base + Duration::from_millis(30), 1, 0);
        wheel.insert(base + Duration::from_millis(10), 2, 0);
        let next = wheel.next_deadline().unwrap();
        // Earliest deadline, rounded up to a tick boundary.
        assert!(next >= base + Duration::from_millis(10));
        assert!(next <= base + Duration::from_millis(15 + 5));
        drain(&mut wheel, next);
        // Only the 30ms entry remains.
        assert!(wheel.next_deadline().unwrap() >= base + Duration::from_millis(30));
    }
}
