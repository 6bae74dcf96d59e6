//! The simulation event queue.
//!
//! [`WheelQueue`] orders events by `(Instant, seq)`. The monotonically
//! increasing sequence number makes event ordering total and *stable*: two
//! events scheduled for the same instant fire in the order they were
//! scheduled, which keeps the whole simulation deterministic for a given
//! seed. It is one vector sorted by descending key: the simulator queues
//! only ticks, device timers and sleep wakes, at most a dozen or so at a
//! time, where a shifting insert is cheap (`docs/MODELING.md` §9).

use crate::time::Instant;

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// It is the event's packed [`pack_key`] `(at, seq)` key. Sequence numbers
/// are never reused, so the key of an event that already fired or was
/// cancelled matches nothing, and a key stays valid across a clone of the
/// queue (a simulator checkpoint and restore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u128);

/// Pack an `(at, seq)` ordering key into one `u128`: `at` in the high 64
/// bits dominates and `seq` breaks ties, so integer order is key order.
#[inline]
pub const fn pack_key(at: Instant, seq: u64) -> u128 {
    ((at.0 as u128) << 64) | seq as u128
}

/// The pending events in exact `(at, seq)` order.
///
/// Pops come out in [`pack_key`] order, and every key is unique because
/// every push draws a fresh `seq` from one monotone counter, which
/// [`WheelQueue::reserve_seq`] shares with deadlines held outside the queue.
#[derive(Clone)]
pub struct WheelQueue<E> {
    /// `(packed key, event)`, sorted by strictly descending key: the next
    /// event to fire is the last element, so a pop never shifts.
    events: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        WheelQueue { events: Vec::new(), next_seq: 0 }
    }

    /// Schedule `event` to fire at `at`. Returns a key usable with
    /// [`WheelQueue::cancel`].
    pub fn push(&mut self, at: Instant, event: E) -> EventKey {
        let key = pack_key(at, self.reserve_seq());
        let pos = self.events.partition_point(|&(k, _)| k > key);
        self.events.insert(pos, (key, event));
        EventKey(key)
    }

    /// Take the next sequence number without queueing anything, for a
    /// deadline the caller holds outside the queue. It comes from the same
    /// counter as [`WheelQueue::push`], so the caller's `(at, seq)` keys and
    /// the queued ones form one total order with unique keys, which
    /// [`WheelQueue::pop_until`] merges exactly.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.events.binary_search_by(|&(k, _)| key.0.cmp(&k)) {
            Ok(pos) => {
                self.events.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove and return the earliest live event.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.pop_until(u128::MAX)
    }

    /// Remove and return the earliest live event if its packed
    /// [`pack_key`] `(at, seq)` key is at or below `bound`; otherwise leave
    /// the queue untouched and return `None`.
    ///
    /// This is the hot-loop entry point and the queue's one pop. A time
    /// bound `t` is `pack_key(t, u64::MAX)`. A caller holding its own
    /// deadlines outside the queue (keyed with [`WheelQueue::reserve_seq`])
    /// passes the earliest of them as the bound, so whichever of the two
    /// sides holds the smaller exact key fires first.
    pub fn pop_until(&mut self, bound: u128) -> Option<(Instant, E)> {
        let (key, event) = self.events.pop_if(|(k, _)| *k <= bound)?;
        Some((Instant((key >> 64) as u64), event))
    }

    /// Number of live (non-cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue holds no live events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys strictly descend, so the last entry is the unique minimum and
    /// every key is distinct.
    fn assert_sorted<E>(q: &WheelQueue<E>) {
        assert!(q.events.windows(2).all(|w| w[0].0 > w[1].0), "keys not strictly descending");
    }

    /// The ordering contract: for any operation sequence, pops come out
    /// exactly as from an ordered `(at, seq)` model, and cancel succeeds iff
    /// the model still holds the event. Pushes mix near events, far ones
    /// (~50 ms out), exact ties and late pushes behind the last popped time;
    /// cancels retarget any key ever issued, so keys of fired and cancelled
    /// events are tried too.
    #[test]
    fn queue_matches_ordered_model_on_random_workload() {
        use crate::rng::SimRng;
        use std::collections::BTreeMap;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0x7EE1 + seed);
            let mut model: BTreeMap<(Instant, u64), u64> = BTreeMap::new();
            let mut q = WheelQueue::new();
            let mut keys: Vec<(EventKey, (Instant, u64))> = Vec::new();
            let mut floor = 0u64;
            let mut next_id = 0u64;
            for _ in 0..4_000 {
                match rng.next_u64() % 10 {
                    0..=4 => {
                        let at = match rng.next_u64() % 6 {
                            0 => Instant(floor + rng.next_u64() % 2_000),
                            1 => Instant(floor + rng.next_u64() % 200_000),
                            2 => Instant(floor + rng.next_u64() % 40_000_000),
                            3 => Instant(floor + 50_331_648 + rng.next_u64() % 1_000),
                            4 => Instant(floor.saturating_sub(rng.next_u64() % 200_000)),
                            _ => Instant(floor), // tie on the current floor
                        };
                        let id = next_id;
                        next_id += 1;
                        model.insert((at, id), id);
                        keys.push((q.push(at, id), (at, id)));
                    }
                    5..=7 => {
                        let m = model.pop_first().map(|((at, _), id)| (at, id));
                        let got = q.pop();
                        assert_eq!(m, got, "pop divergence (seed {seed})");
                        if let Some((at, _)) = m {
                            floor = floor.max(at.as_ns());
                        }
                    }
                    _ => {
                        if !keys.is_empty() {
                            let i = (rng.next_u64() % keys.len() as u64) as usize;
                            let (qk, mk) = keys[i];
                            assert_eq!(model.remove(&mk).is_some(), q.cancel(qk));
                        }
                    }
                }
                assert_eq!(model.len(), q.len());
                assert_sorted(&q);
            }
            let rest: Vec<_> = model.into_iter().map(|((at, _), id)| (at, id)).collect();
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(rest, drained);
        }
    }

    #[test]
    fn queue_ties_break_by_insertion_order() {
        let mut q = WheelQueue::new();
        for i in 0..100 {
            q.push(Instant(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Instant(5), i)));
        }
    }

    #[test]
    fn queue_cancel_after_fire_is_noop() {
        let mut q = WheelQueue::new();
        let a = q.push(Instant(1), "a");
        q.push(Instant(2), "b");
        assert_eq!(q.pop(), Some((Instant(1), "a")));
        // `a` has fired; cancelling it now must not eat `b`.
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Instant(2), "b")));
    }

    #[test]
    fn queue_cancel_bogus_key_is_false() {
        let mut q: WheelQueue<()> = WheelQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn queue_stale_key_never_matches_a_later_event() {
        let mut q = WheelQueue::new();
        let a = q.push(Instant(1), "a");
        assert_eq!(q.pop(), Some((Instant(1), "a")));
        q.push(Instant(1), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Instant(1), "b")));
    }

    #[test]
    fn queue_clone_is_independent_and_identical() {
        let mut q = WheelQueue::new();
        for i in 0..50u64 {
            q.push(Instant(i * 37_000), i);
        }
        q.pop();
        let mut fork = q.clone();
        // Divergent operations on the fork leave the original untouched.
        fork.push(Instant(1), 999);
        assert_eq!(fork.len(), q.len() + 1);
        let mut a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| fork.pop()).collect();
        a.insert(0, (Instant(1), 999));
        assert_eq!(a, b);
    }
}
