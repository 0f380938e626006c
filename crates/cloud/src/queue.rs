//! The fairness-aware dispatch queue: per-session FIFOs drained by
//! deficit round robin.
//!
//! PR 1's scheduler was one shared FIFO channel — correct, but a session
//! that submits faster than the pool drains gets every worker, and a
//! polite session's jobs wait behind the whole flood. This queue replaces
//! it: each [`SessionKey`] owns a FIFO of its still-queued jobs, and
//! workers pop by **deficit round robin** over the non-empty sessions. On a
//! session's turn its deficit grows by its weight (the DRR quantum, default
//! 1.0) and it may dispatch one job per whole unit of deficit, so over any
//! contended interval sessions receive worker turns proportional to their
//! weights — a session's *submit* rate buys it queue depth, never a larger
//! share of the pool.
//!
//! Per-session order stays strictly FIFO (a session cannot starve or
//! reorder itself), which is also what keeps the [`crate::ratelimit`]
//! buckets' submit-timestamp math monotone. Empty sessions leave the
//! rotation (and the map) entirely: an idle service holds no per-session
//! state, and a freshly active session starts at deficit zero just like
//! everyone else in the round.

use crate::middleware::SessionKey;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

/// One queued unit of work, generic so the queue stays decoupled from the
/// service's envelope type (and unit-testable without one).
struct SessionQueue<T> {
    jobs: VecDeque<T>,
    /// Accumulated DRR credit; one whole unit buys one dispatch.
    deficit: f64,
    /// The DRR quantum added on each of this session's turns.
    weight: f64,
}

struct QueueState<T> {
    sessions: HashMap<SessionKey, SessionQueue<T>>,
    /// Round-robin order over non-empty sessions; the front is next to be
    /// offered a turn.
    rotation: VecDeque<SessionKey>,
    /// Total queued jobs across all sessions.
    len: usize,
    closed: bool,
    /// Workers blocked in [`FairDispatcher::pop`] right now: a push signals
    /// only when one is.
    parked: usize,
}

/// A multi-producer, multi-consumer job queue with per-session DRR
/// scheduling. Producers are client handles and transport sessions;
/// consumers are the pool's worker threads.
pub(crate) struct FairDispatcher<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    /// Per-key DRR weights (keyed by API key); sessions without an entry
    /// weigh 1.0.
    weights: HashMap<String, f64>,
}

impl<T> FairDispatcher<T> {
    /// An open, empty queue with the given per-API-key weights.
    pub(crate) fn new(weights: HashMap<String, f64>) -> FairDispatcher<T> {
        FairDispatcher {
            state: Mutex::new(QueueState {
                sessions: HashMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
            weights,
        }
    }

    fn weight_for(&self, session: &SessionKey) -> f64 {
        match session {
            SessionKey::ApiKey(key) => self.weights.get(key.as_ref()).copied().unwrap_or(1.0),
            SessionKey::Anonymous(_) => 1.0,
        }
    }

    /// Enqueues one job onto its session's FIFO, returning the job back if
    /// the queue is closed (so the caller can answer it).
    pub(crate) fn push(&self, session: &SessionKey, job: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(job);
        }
        match state.sessions.get_mut(session) {
            Some(queue) => queue.jobs.push_back(job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(job);
                state.sessions.insert(
                    session.clone(),
                    SessionQueue {
                        jobs,
                        deficit: 0.0,
                        weight: self.weight_for(session),
                    },
                );
                state.rotation.push_back(session.clone());
            }
        }
        state.len += 1;
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.available.notify_one();
        }
        Ok(())
    }

    /// Blocks for the next job in DRR order. Returns `None` only once the
    /// queue is closed **and** empty, so already-accepted jobs always drain
    /// before workers exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.len > 0 {
                return Some(Self::pop_drr(&mut state));
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// One DRR dispatch; `state.len > 0` must hold.
    ///
    /// Runs O(sessions) per dispatch regardless of the configured weights:
    /// each outer pass rotates through the round at most once, and if a
    /// whole round of quantum grants produced no dispatch (pathologically
    /// small weights), the remaining rounds are granted arithmetically
    /// instead of by spinning — all with the queue mutex held, so this
    /// bound is what keeps submitters and other workers unblocked.
    fn pop_drr(state: &mut QueueState<T>) -> T {
        loop {
            // One rotation (plus the front revisit): dispatch the first
            // session whose deficit covers a job, granting quanta as we go.
            for _ in 0..=state.rotation.len() {
                let key = state
                    .rotation
                    .front()
                    .expect("non-empty queue has a rotation")
                    .clone();
                let queue = state
                    .sessions
                    .get_mut(&key)
                    .expect("rotated session exists");
                if queue.deficit >= 1.0 {
                    queue.deficit -= 1.0;
                    let job = queue.jobs.pop_front().expect("rotated session has jobs");
                    state.len -= 1;
                    if queue.jobs.is_empty() {
                        // An emptied session leaves the round entirely;
                        // unspent deficit is forfeited (standard DRR), so
                        // bursty sessions cannot bank credit across idle
                        // gaps.
                        state.sessions.remove(&key);
                        state.rotation.pop_front();
                    }
                    return job;
                }
                // Not this session's dispatch yet: grant its quantum and
                // move it to the back of the round.
                queue.deficit += queue.weight;
                state.rotation.rotate_left(1);
            }
            // A whole round granted quanta without any dispatch: jump every
            // session forward by the rounds the closest one still needs.
            let rounds = state
                .rotation
                .iter()
                .map(|key| {
                    let queue = &state.sessions[key];
                    ((1.0 - queue.deficit) / queue.weight).ceil()
                })
                .fold(f64::INFINITY, f64::min);
            if rounds.is_finite() && rounds > 0.0 {
                let keys: Vec<SessionKey> = state.rotation.iter().cloned().collect();
                for key in keys {
                    let queue = state
                        .sessions
                        .get_mut(&key)
                        .expect("rotated session exists");
                    queue.deficit += rounds * queue.weight;
                }
            }
        }
    }

    /// Closes the queue: further [`push`](Self::push)es are refused, and
    /// blocked [`pop`](Self::pop)s return `None` once the backlog drains.
    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }

    /// Removes and returns every still-queued job (used after the workers
    /// are joined, to answer jobs stranded behind a dead worker).
    pub(crate) fn drain(&self) -> Vec<T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stranded = Vec::with_capacity(state.len);
        // Drain in rotation order so stranded jobs are still answered in a
        // fair, deterministic order.
        while state.len > 0 {
            stranded.push(Self::pop_drr(&mut state));
        }
        stranded
    }

    /// Jobs queued right now for `session`.
    #[cfg(test)]
    pub(crate) fn session_depth(&self, session: &SessionKey) -> usize {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.sessions.get(session).map_or(0, |q| q.jobs.len())
    }

    /// The DRR quantum `session` would be scheduled with.
    pub(crate) fn weight_for_session(&self, session: &SessionKey) -> f64 {
        self.weight_for(session)
    }
}

impl<T> std::fmt::Debug for FairDispatcher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("FairDispatcher")
            .field("sessions", &state.sessions.len())
            .field("len", &state.len)
            .field("closed", &state.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon(id: u64) -> SessionKey {
        SessionKey::Anonymous(id)
    }

    fn keyed(key: &str) -> SessionKey {
        SessionKey::ApiKey(std::sync::Arc::from(key))
    }

    #[test]
    fn single_session_is_fifo() {
        let q: FairDispatcher<u32> = FairDispatcher::new(HashMap::new());
        for i in 0..5 {
            q.push(&anon(0), i).unwrap();
        }
        assert_eq!(q.session_depth(&anon(0)), 5);
        let order: Vec<u32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_sessions_interleave_regardless_of_backlog() {
        let q: FairDispatcher<(u64, u32)> = FairDispatcher::new(HashMap::new());
        // Session 0 floods 10 jobs before session 1 queues its 3.
        for i in 0..10 {
            q.push(&anon(0), (0, i)).unwrap();
        }
        for i in 0..3 {
            q.push(&anon(1), (1, i)).unwrap();
        }
        let order: Vec<(u64, u32)> = (0..13).map(|_| q.pop().unwrap()).collect();
        // While both sessions are non-empty the round alternates, so the
        // polite session's last job leaves within the first 6 dispatches.
        let last_polite = order.iter().rposition(|&(s, _)| s == 1).unwrap();
        assert!(last_polite <= 5, "polite starved: order {order:?}");
        // Per-session FIFO holds on both sides.
        let polite: Vec<u32> = order.iter().filter(|(s, _)| *s == 1).map(|j| j.1).collect();
        let flood: Vec<u32> = order.iter().filter(|(s, _)| *s == 0).map(|j| j.1).collect();
        assert_eq!(polite, vec![0, 1, 2]);
        assert_eq!(flood, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn weights_buy_proportional_turns() {
        let weights = HashMap::from([("heavy".to_string(), 2.0)]);
        let q: FairDispatcher<&'static str> = FairDispatcher::new(weights);
        for _ in 0..20 {
            q.push(&keyed("heavy"), "heavy").unwrap();
            q.push(&keyed("light"), "light").unwrap();
        }
        // Over the first 12 dispatches, heavy should get ~2x light's share.
        let first: Vec<&str> = (0..12).map(|_| q.pop().unwrap()).collect();
        let heavy = first.iter().filter(|s| **s == "heavy").count();
        assert_eq!(heavy, 8, "weight-2 session should take 2/3: {first:?}");
    }

    #[test]
    fn pathologically_small_weights_dispatch_without_spinning() {
        // A 1e-9 weight needs ~1e9 quantum grants per dispatch; the
        // arithmetic jump must deliver that in O(sessions), not by looping
        // (this test hangs for minutes if it regresses).
        let weights = HashMap::from([("slow".to_string(), 1e-9), ("fast".to_string(), 1.0)]);
        let q: FairDispatcher<&'static str> = FairDispatcher::new(weights);
        for _ in 0..4 {
            q.push(&keyed("slow"), "slow").unwrap();
        }
        // Alone in the queue, the slow session still drains immediately.
        assert_eq!(q.pop(), Some("slow"));
        // Against a weight-1.0 session, fast dominates but slow is not
        // starved forever once fast empties.
        for _ in 0..3 {
            q.push(&keyed("fast"), "fast").unwrap();
        }
        let order: Vec<&str> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order.iter().filter(|s| **s == "fast").count(), 3);
        assert_eq!(order.iter().filter(|s| **s == "slow").count(), 3);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q: FairDispatcher<u32> = FairDispatcher::new(HashMap::new());
        q.push(&anon(0), 7).unwrap();
        q.close();
        assert!(q.push(&anon(0), 8).is_err(), "closed queue must refuse");
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: std::sync::Arc<FairDispatcher<u32>> =
            std::sync::Arc::new(FairDispatcher::new(HashMap::new()));
        let waiter = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    /// The wake-only-a-parked-worker rule of `push`, raced: every round
    /// pushes two jobs, the second racing the worker's wake-up for the
    /// first, and the pusher spins (no sleeps) until both are taken. A lost
    /// wake-up leaves the worker parked with a job queued; the watchdog then
    /// closes the queue, which releases the worker and fails the test.
    #[test]
    fn no_wake_up_is_lost_while_a_worker_parks() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        const ROUNDS: u64 = 100_000;
        const STALL: Duration = Duration::from_secs(2);

        let q: Arc<FairDispatcher<u64>> = Arc::new(FairDispatcher::new(HashMap::new()));
        let taken = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let worker = {
            let (q, taken) = (Arc::clone(&q), Arc::clone(&taken));
            std::thread::spawn(move || {
                while let Some(job) = q.pop() {
                    taken.store(job, Ordering::SeqCst);
                }
            })
        };
        let watchdog = {
            let (q, taken, done) = (Arc::clone(&q), Arc::clone(&taken), Arc::clone(&done));
            std::thread::spawn(move || {
                let (mut seen, mut since) = (0, Instant::now());
                while !done.load(Ordering::SeqCst) {
                    let now = taken.load(Ordering::SeqCst);
                    if now != seen {
                        (seen, since) = (now, Instant::now());
                    } else if since.elapsed() >= STALL {
                        q.close();
                        return Some(now);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                None
            })
        };
        for round in 1..=ROUNDS {
            if q.push(&anon(0), 2 * round - 1).is_err() || q.push(&anon(0), 2 * round).is_err() {
                break;
            }
            while taken.load(Ordering::SeqCst) < 2 * round {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::SeqCst);
        q.close();
        worker.join().unwrap();
        if let Some(stalled) = watchdog.join().unwrap() {
            panic!(
                "a wake-up was lost: the worker parked with job {} queued",
                stalled + 1
            );
        }
    }

    #[test]
    fn drain_empties_every_session() {
        let q: FairDispatcher<u32> = FairDispatcher::new(HashMap::new());
        q.push(&anon(0), 1).unwrap();
        q.push(&anon(1), 2).unwrap();
        q.push(&anon(0), 3).unwrap();
        let mut left = q.drain();
        left.sort_unstable();
        assert_eq!(left, vec![1, 2, 3]);
        assert_eq!(q.session_depth(&anon(0)), 0);
    }
}
