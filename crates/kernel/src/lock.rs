//! Simulated global kernel spinlocks.
//!
//! These are *model objects*, not synchronisation primitives: the simulator
//! is single-threaded and uses them to decide who waits for whom. A holder
//! runs its critical section as a CPU segment; if interrupts preempt that
//! segment (allowed unless the section is `irqs_off`), the hold stretches —
//! which is exactly the §6.2 mechanism that put a ~0.5 ms tail on the
//! shielded `/dev/rtc` latency in Figure 6.

use crate::ids::{LockId, Pid};
use serde::{Deserialize, Serialize};
use simcore::{Instant, Nanos};
use std::collections::VecDeque;

/// State of one global spinlock.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LockState {
    pub holder: Option<Pid>,
    /// Spinning waiters, FIFO. (Real 2.4 spinlocks were unfair; FIFO keeps
    /// the simulation deterministic and models later ticket-lock fairness.
    /// The distinction does not affect the paper's measured quantities.)
    pub waiters: VecDeque<Pid>,
    /// Contention statistics.
    pub acquisitions: u64,
    pub contended_acquisitions: u64,
    pub total_spin_time: Nanos,
    held_since: Option<Instant>,
    pub max_hold: Nanos,
}

impl LockState {
    /// Try to take the lock for `pid`; on failure the caller becomes a
    /// spinning waiter.
    pub fn acquire_or_wait(&mut self, pid: Pid, now: Instant) -> AcquireResult {
        debug_assert!(self.holder != Some(pid), "recursive lock on {pid}");
        debug_assert!(!self.waiters.contains(&pid), "{pid} already waiting");
        if self.holder.is_none() {
            self.holder = Some(pid);
            self.acquisitions += 1;
            self.held_since = Some(now);
            AcquireResult::Acquired
        } else {
            self.waiters.push_back(pid);
            self.contended_acquisitions += 1;
            AcquireResult::MustSpin
        }
    }

    /// Release by the current holder; hands off to a waiter chosen by
    /// `prefer` (real 2.4 spinlocks are unfair: whoever is *actively*
    /// spinning at release time wins, not necessarily the oldest waiter —
    /// a waiter whose CPU is busy servicing an interrupt isn't test-and-
    /// setting and cannot grab the lock). Falls back to FIFO when no waiter
    /// is preferred. Returns the new holder.
    pub fn release(
        &mut self,
        pid: Pid,
        now: Instant,
        prefer: impl Fn(Pid) -> bool,
    ) -> Option<Pid> {
        assert_eq!(self.holder, Some(pid), "release by non-holder {pid}");
        if let Some(since) = self.held_since.take() {
            self.max_hold = self.max_hold.max(now.since(since));
        }
        if self.waiters.is_empty() {
            self.holder = None;
            return None;
        }
        let idx = self
            .waiters
            .iter()
            .position(|&w| prefer(w))
            .unwrap_or(0);
        let next = self.waiters.remove(idx).expect("index in range");
        self.holder = Some(next);
        self.acquisitions += 1;
        self.held_since = Some(now);
        Some(next)
    }

    pub fn is_held(&self) -> bool {
        self.holder.is_some()
    }

    pub fn add_spin_time(&mut self, d: Nanos) {
        self.total_spin_time += d;
    }
}

/// All global locks, indexed by [`LockId`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockTable {
    locks: Vec<LockState>,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LockTable {
    pub fn new() -> Self {
        LockTable { locks: (0..LockId::COUNT).map(|_| LockState::default()).collect() }
    }

    pub fn get(&self, id: LockId) -> &LockState {
        &self.locks[id.index()]
    }

    pub fn get_mut(&mut self, id: LockId) -> &mut LockState {
        &mut self.locks[id.index()]
    }

    pub fn iter(&self) -> impl Iterator<Item = (LockId, &LockState)> {
        self.locks.iter().enumerate().map(|(i, l)| (LockId(i as u32), l))
    }
}

/// Outcome of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireResult {
    Acquired,
    MustSpin,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_release() {
        let mut l = LockState::default();
        assert_eq!(l.acquire_or_wait(Pid(1), Instant(0)), AcquireResult::Acquired);
        assert!(l.is_held());
        assert_eq!(l.release(Pid(1), Instant(100), |_| true), None);
        assert!(!l.is_held());
        assert_eq!(l.acquisitions, 1);
        assert_eq!(l.contended_acquisitions, 0);
        assert_eq!(l.max_hold, Nanos(100));
    }

    #[test]
    fn fifo_handoff() {
        let mut l = LockState::default();
        l.acquire_or_wait(Pid(1), Instant(0));
        assert_eq!(l.acquire_or_wait(Pid(2), Instant(5)), AcquireResult::MustSpin);
        assert_eq!(l.acquire_or_wait(Pid(3), Instant(6)), AcquireResult::MustSpin);
        assert_eq!(l.release(Pid(1), Instant(10), |_| true), Some(Pid(2)));
        assert_eq!(l.holder, Some(Pid(2)));
        assert_eq!(l.release(Pid(2), Instant(20), |_| true), Some(Pid(3)));
        assert_eq!(l.release(Pid(3), Instant(30), |_| true), None);
        assert_eq!(l.acquisitions, 3);
        assert_eq!(l.contended_acquisitions, 2);
    }

    #[test]
    fn release_prefers_active_spinners() {
        let mut l = LockState::default();
        l.acquire_or_wait(Pid(1), Instant(0));
        l.acquire_or_wait(Pid(2), Instant(1)); // older, but "interrupted"
        l.acquire_or_wait(Pid(3), Instant(2)); // actively spinning
        assert_eq!(l.release(Pid(1), Instant(5), |w| w == Pid(3)), Some(Pid(3)));
        // Nobody actively spinning: FIFO fallback.
        assert_eq!(l.release(Pid(3), Instant(6), |_| false), Some(Pid(2)));
        assert_eq!(l.release(Pid(2), Instant(7), |_| false), None);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_stranger_panics() {
        let mut l = LockState::default();
        l.acquire_or_wait(Pid(1), Instant(0));
        l.release(Pid(2), Instant(1), |_| true);
    }

    #[test]
    fn table_has_all_named_locks() {
        let t = LockTable::new();
        assert_eq!(t.iter().count(), LockId::COUNT);
        assert!(!t.get(LockId::BKL).is_held());
    }
}
