//! The simulation event queue.
//!
//! [`WheelQueue`] orders events by `(Instant, seq)`. The monotonically
//! increasing sequence number makes event ordering total and *stable*: two
//! events scheduled for the same instant fire in the order they were
//! scheduled, which keeps the whole simulation deterministic for a given
//! seed.
//!
//! Every scheduled event owns a slot in an arena, and each slot tracks where
//! its entry lives (a wheel bucket or an overflow-heap position), so
//! [`WheelQueue::cancel`] removes the entry outright instead of leaving a
//! tombstone to be skipped later. Slots are recycled through a free list and
//! carry a generation counter, so a stale [`EventKey`] (for an event that
//! already fired or was cancelled) can never affect a recycled slot.

use crate::time::Instant;

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// Packs the arena slot index (high 32 bits) and the slot's generation at
/// push time (low 32 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u64);

impl EventKey {
    fn new(slot: u32, generation: u32) -> Self {
        EventKey((slot as u64) << 32 | generation as u64)
    }

    fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// Pack an `(at, seq)` ordering key into one `u128`: `at` in the high 64
/// bits dominates and `seq` breaks ties, so integer order is key order.
#[inline]
pub const fn pack_key(at: Instant, seq: u64) -> u128 {
    ((at.0 as u128) << 64) | seq as u128
}

/// Location-word marker for slots that are not currently queued.
const FREE: u32 = u32::MAX;

/// Heap arity. Four children per node keeps the tree shallow and the child
/// scan within one cache line of slot indices.
const D: usize = 4;

#[derive(Clone)]
struct Slot<E> {
    /// Bumped every time the slot is released, invalidating old keys.
    generation: u32,
    /// Location word: overflow-heap position, `WHEEL_LOC | bucket` for
    /// events resident in a wheel bucket, or [`FREE`] when not queued.
    heap_pos: u32,
    event: Option<E>,
}

/// One overflow-heap node. The ordering key lives here, inline, so sift
/// comparisons stay within the heap array instead of chasing slot-arena
/// pointers.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: Instant,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Wheel bucket granularity: 2^14 ns ≈ 16.4 µs per bucket.
const WHEEL_SHIFT: u32 = 14;
/// Number of wheel buckets; horizon = `WHEEL_BUCKETS << WHEEL_SHIFT` ≈ 16.8 ms.
const WHEEL_BUCKETS: usize = 1024;
/// Location-word tag marking a slot as resident in a wheel bucket (low bits
/// then hold the bucket index). Heap positions never reach this bit.
const WHEEL_LOC: u32 = 1 << 31;

/// One wheel-bucket entry; same inline ordering key as [`HeapEntry`].
#[derive(Clone, Copy)]
struct WheelEntry {
    at: Instant,
    seq: u64,
    slot: u32,
}

/// A hierarchical timing-wheel event queue: a single-level wheel of
/// `WHEEL_BUCKETS` (1024) buckets covering the near future (dense timer and
/// device traffic), backed by an indexed 4-ary min-heap as overflow for events
/// beyond the horizon. Events migrate heap → wheel as the wheel's
/// base time advances past their window.
///
/// The contract is *exact* `(at, seq)` order: pops come out in that order,
/// globally — bucket granularity only changes where an
/// event is stored, never when it fires relative to its peers. Buckets
/// partition time, so every event in an earlier bucket precedes every event
/// in a later one; within the first non-empty bucket a linear `(at, seq)`
/// min-scan (buckets are small by construction) selects the global minimum;
/// and overflow-heap events all lie beyond the horizon, hence after every
/// wheel event. The shared monotone `seq` preserves FIFO ordering of ties
/// across both halves.
///
/// Keys follow a slot-arena, generation and free-list discipline, so a
/// stale [`EventKey`] can never touch a recycled slot.
pub struct WheelQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Ring of near-future buckets; `buckets[cursor]` covers
    /// `[base, base + G)`.
    buckets: Vec<Vec<WheelEntry>>,
    /// Bitmap of non-empty buckets (absolute indices).
    occupied: [u64; WHEEL_BUCKETS / 64],
    /// Start of `buckets[cursor]`'s window, in ns, multiple of the
    /// granularity. Monotone.
    base: u64,
    cursor: usize,
    /// Live events resident in wheel buckets.
    wheel_len: usize,
    /// Overflow min-heap ordered by `(at, seq)`, for events at or beyond
    /// `base + horizon`.
    heap: Vec<HeapEntry>,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> Clone for WheelQueue<E> {
    fn clone(&self) -> Self {
        WheelQueue {
            slots: self.slots.clone(),
            free: self.free.clone(),
            next_seq: self.next_seq,
            buckets: self.buckets.clone(),
            occupied: self.occupied,
            base: self.base,
            cursor: self.cursor,
            wheel_len: self.wheel_len,
            heap: self.heap.clone(),
        }
    }

    /// Allocation-reusing copy: `Vec::clone_from` keeps the slot arena, the
    /// free list, all `WHEEL_BUCKETS` bucket vectors and the overflow heap's
    /// capacity in place, so restoring a simulator from a checkpoint in a
    /// fork loop copies bytes instead of churning the allocator (a fresh
    /// `clone()` allocates 1024 bucket vectors every time).
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.free.clone_from(&source.free);
        self.next_seq = source.next_seq;
        self.buckets.clone_from(&source.buckets);
        self.occupied = source.occupied;
        self.base = source.base;
        self.cursor = source.cursor;
        self.wheel_len = source.wheel_len;
        self.heap.clone_from(&source.heap);
    }
}

impl<E> WheelQueue<E> {
    const HORIZON: u64 = (WHEEL_BUCKETS as u64) << WHEEL_SHIFT;

    /// An empty queue.
    pub fn new() -> Self {
        WheelQueue {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_BUCKETS / 64],
            base: 0,
            cursor: 0,
            wheel_len: 0,
            heap: Vec::new(),
        }
    }

    /// Schedule `event` to fire at `at`. Returns a key usable with
    /// [`WheelQueue::cancel`].
    pub fn push(&mut self, at: Instant, event: E) -> EventKey {
        let seq = self.reserve_seq();
        // Decide the destination up front so the slot's location word is
        // written in the same touch that stores the event (one arena index
        // per push instead of three).
        let ns = at.as_ns();
        let in_wheel = ns < self.base + Self::HORIZON;
        let loc = if in_wheel {
            // In (or before — clamped to the current bucket) the window.
            let off = (ns.max(self.base) - self.base) >> WHEEL_SHIFT;
            WHEEL_LOC | ((self.cursor + off as usize) % WHEEL_BUCKETS) as u32
        } else {
            // Beyond the horizon: overflow heap.
            self.heap.len() as u32
        };
        let (slot, generation) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.event = Some(event);
                s.heap_pos = loc;
                (slot, s.generation)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot { generation: 0, heap_pos: loc, event: Some(event) });
                (slot, 0)
            }
        };
        if in_wheel {
            let idx = (loc & !WHEEL_LOC) as usize;
            self.buckets[idx].push(WheelEntry { at, seq, slot });
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        } else {
            let pos = self.heap.len();
            self.heap.push(HeapEntry { at, seq, slot });
            self.heap_sift_up(pos);
        }
        EventKey::new(slot, generation)
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
        let slot = key.slot() as usize;
        let Some(s) = self.slots.get(slot) else {
            return false;
        };
        if s.generation != key.generation() || s.heap_pos == FREE {
            return false;
        }
        let loc = s.heap_pos;
        if loc & WHEEL_LOC != 0 {
            let idx = (loc & !WHEEL_LOC) as usize;
            let bucket = &mut self.buckets[idx];
            let pos = bucket
                .iter()
                .position(|e| e.slot == slot as u32)
                .expect("wheel location word points at a bucket holding the slot");
            bucket.swap_remove(pos);
            if bucket.is_empty() {
                self.occupied[idx / 64] &= !(1 << (idx % 64));
            }
            self.wheel_len -= 1;
        } else {
            self.heap_remove_at(loc as usize);
        }
        self.release(slot as u32);
        true
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
    /// sides holds the smaller exact key fires first. One `settle` and one
    /// bucket min-scan decide both "is there an event due?" and "which
    /// one?", where a `peek_time` + `pop` pair would pay for each twice.
    pub fn pop_until(&mut self, bound: u128) -> Option<(Instant, E)> {
        self.settle();
        if self.wheel_len == 0 {
            return None;
        }
        let bucket = &mut self.buckets[self.cursor];
        // The min-scan is a single integer compare per entry.
        let mut best = 0;
        let mut best_key = pack_key(bucket[0].at, bucket[0].seq);
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let key = pack_key(e.at, e.seq);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        if best_key > bound {
            return None;
        }
        let WheelEntry { at, slot, .. } = bucket.swap_remove(best);
        if bucket.is_empty() {
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        }
        self.wheel_len -= 1;
        let s = &mut self.slots[slot as usize];
        let event = s.event.take().expect("queued slot holds an event");
        s.generation = s.generation.wrapping_add(1);
        s.heap_pos = FREE;
        self.free.push(slot);
        Some((at, event))
    }

    /// The instant of the earliest live event, if any. Advances the wheel
    /// cursor internally (hence `&mut`), which never changes event order.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.settle();
        if self.wheel_len == 0 {
            return None;
        }
        self.buckets[self.cursor].iter().map(|e| e.at).min()
    }

    /// Number of live (non-cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// Whether the queue holds no live events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advance the cursor to the first non-empty bucket, migrating overflow
    /// events into the wheel as the horizon moves. After this, the earliest
    /// live event (if any) is in `buckets[cursor]`.
    fn settle(&mut self) {
        loop {
            if self.wheel_len > 0 {
                let j = self.first_occupied_offset();
                if j > 0 {
                    self.base += (j as u64) << WHEEL_SHIFT;
                    self.cursor = (self.cursor + j) % WHEEL_BUCKETS;
                    self.migrate();
                }
                return;
            }
            if self.heap.is_empty() {
                return;
            }
            // Wheel empty: jump the window straight to the overflow minimum.
            let min_ns = self.heap[0].at.as_ns();
            self.base = (min_ns >> WHEEL_SHIFT) << WHEEL_SHIFT;
            self.migrate();
        }
    }

    /// Offset (in buckets, from `cursor`) of the first non-empty bucket.
    /// Caller guarantees `wheel_len > 0`.
    fn first_occupied_offset(&self) -> usize {
        let words = WHEEL_BUCKETS / 64;
        let (start_word, start_bit) = (self.cursor / 64, self.cursor % 64);
        // First word: mask off bits below the cursor.
        let w = self.occupied[start_word] & (!0u64 << start_bit);
        if w != 0 {
            let idx = start_word * 64 + w.trailing_zeros() as usize;
            return idx - self.cursor;
        }
        for step in 1..=words {
            let word = (start_word + step) % words;
            let mut bits = self.occupied[word];
            if step == words {
                // Wrapped back to the start word: only bits below the cursor.
                bits &= !(!0u64 << start_bit);
            }
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                return (idx + WHEEL_BUCKETS - self.cursor) % WHEEL_BUCKETS;
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket");
    }

    /// Move overflow events whose time has fallen under the horizon into
    /// their wheel buckets. Migrated events always land at or after the
    /// cursor's bucket, so they can never pre-empt an already-resident event.
    fn migrate(&mut self) {
        let horizon = self.base + Self::HORIZON;
        while let Some(&HeapEntry { at, seq, slot }) = self.heap.first() {
            if at.as_ns() >= horizon {
                break;
            }
            self.heap_remove_at(0);
            let off = (at.as_ns().max(self.base) - self.base) >> WHEEL_SHIFT;
            let idx = (self.cursor + off as usize) % WHEEL_BUCKETS;
            self.buckets[idx].push(WheelEntry { at, seq, slot });
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
            self.slots[slot as usize].heap_pos = WHEEL_LOC | idx as u32;
        }
    }

    /// Release a slot back to the free list, invalidating outstanding keys.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.event = None;
        s.generation = s.generation.wrapping_add(1);
        s.heap_pos = FREE;
        self.free.push(slot);
    }

    // Overflow-heap maintenance: indexed 4-ary hole-based sifts, with
    // positions written through the slot arena.

    fn heap_remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.slots[self.heap[pos].slot as usize].heap_pos = pos as u32;
        self.heap.pop();
        if pos < self.heap.len() {
            self.heap_sift_down(pos);
            self.heap_sift_up(pos);
        }
    }

    fn heap_sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / D;
            let p = self.heap[parent];
            if entry.before(&p) {
                self.heap[pos] = p;
                self.slots[p.slot as usize].heap_pos = pos as u32;
                pos = parent;
            } else {
                break;
            }
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].heap_pos = pos as u32;
    }

    fn heap_sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        let entry = self.heap[pos];
        loop {
            let first_child = pos * D + 1;
            if first_child >= len {
                break;
            }
            let child_end = (first_child + D).min(len);
            let mut best = first_child;
            let mut best_entry = self.heap[first_child];
            for child in first_child + 1..child_end {
                let c = self.heap[child];
                if c.before(&best_entry) {
                    best = child;
                    best_entry = c;
                }
            }
            if best_entry.before(&entry) {
                self.heap[pos] = best_entry;
                self.slots[best_entry.slot as usize].heap_pos = pos as u32;
                pos = best;
            } else {
                break;
            }
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].heap_pos = pos as u32;
    }

    /// Debug check: location words round-trip, bitmap matches bucket
    /// occupancy, bucket windows are in range, and the overflow heap holds
    /// the heap property beyond the horizon.
    #[cfg(test)]
    fn assert_invariants(&self) {
        let mut in_wheel = 0usize;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let bit = self.occupied[idx / 64] & (1 << (idx % 64)) != 0;
            assert_eq!(bit, !bucket.is_empty(), "bitmap mismatch at bucket {idx}");
            for e in bucket {
                in_wheel += 1;
                let s = &self.slots[e.slot as usize];
                assert_eq!(s.heap_pos, WHEEL_LOC | idx as u32);
                assert!(s.event.is_some());
                // Every wheel event lies under the horizon.
                assert!(e.at.as_ns() < self.base + Self::HORIZON);
            }
        }
        assert_eq!(in_wheel, self.wheel_len);
        for (pos, e) in self.heap.iter().enumerate() {
            assert_eq!(self.slots[e.slot as usize].heap_pos as usize, pos);
            assert!(self.slots[e.slot as usize].event.is_some());
            assert!(e.at.as_ns() >= self.base + Self::HORIZON, "heap event under horizon");
            if pos > 0 {
                let parent = (pos - 1) / D;
                assert!(!e.before(&self.heap[parent]), "heap property violated at {pos}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wheel's ordering contract: for any operation sequence, pops come
    /// out exactly as from an ordered `(at, seq)` model, and cancel succeeds
    /// iff the model still holds the event — bucket granularity never
    /// reorders events.
    #[test]
    fn wheel_matches_ordered_model_on_random_workload() {
        use crate::rng::SimRng;
        use std::collections::BTreeMap;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0x7EE1 + seed);
            let mut model: BTreeMap<(Instant, u64), u64> = BTreeMap::new();
            let mut wheel = WheelQueue::new();
            let mut keys: Vec<(EventKey, (Instant, u64))> = Vec::new();
            let mut floor = 0u64;
            let mut next_id = 0u64;
            for _ in 0..4_000 {
                match rng.next_u64() % 10 {
                    // Push: mixed near (same-bucket to a few buckets out) and
                    // far (beyond the horizon) events, plus exact ties.
                    0..=4 => {
                        let at = match rng.next_u64() % 4 {
                            0 => Instant(floor + rng.next_u64() % 2_000),
                            1 => Instant(floor + rng.next_u64() % 200_000),
                            2 => Instant(floor + rng.next_u64() % 40_000_000),
                            _ => Instant(floor), // tie on the current floor
                        };
                        let id = next_id;
                        next_id += 1;
                        model.insert((at, id), id);
                        keys.push((wheel.push(at, id), (at, id)));
                    }
                    5..=7 => {
                        let m = model.pop_first().map(|((at, _), id)| (at, id));
                        let w = wheel.pop();
                        assert_eq!(m, w, "pop divergence (seed {seed})");
                        if let Some((at, _)) = m {
                            floor = floor.max(at.as_ns());
                        }
                    }
                    _ => {
                        if !keys.is_empty() {
                            let i = (rng.next_u64() % keys.len() as u64) as usize;
                            let (wk, mk) = keys.swap_remove(i);
                            assert_eq!(model.remove(&mk).is_some(), wheel.cancel(wk));
                        }
                    }
                }
                assert_eq!(model.len(), wheel.len());
                wheel.assert_invariants();
            }
            let rest: Vec<_> = model.into_iter().map(|((at, _), id)| (at, id)).collect();
            let drained: Vec<_> = std::iter::from_fn(|| wheel.pop()).collect();
            assert_eq!(rest, drained);
        }
    }

    #[test]
    fn wheel_ties_break_by_insertion_order() {
        let mut q = WheelQueue::new();
        for i in 0..100 {
            q.push(Instant(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Instant(5), i)));
        }
    }

    #[test]
    fn wheel_cancel_after_fire_is_noop() {
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
    fn wheel_cancel_bogus_key_is_false() {
        let mut q: WheelQueue<()> = WheelQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn wheel_peek_time_sees_through_cancellations_and_keeps_order() {
        let mut q = WheelQueue::new();
        assert_eq!(q.peek_time(), None);
        let a = q.push(Instant(1), "a");
        q.push(Instant(2), "b");
        q.push(Instant(3), "c");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Instant(2)));
        assert_eq!(q.peek_time(), Some(Instant(2)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Instant(2), "b")));
        assert_eq!(q.pop(), Some((Instant(3), "c")));
    }

    #[test]
    fn wheel_pops_in_time_order_with_stable_ties() {
        let mut q = WheelQueue::new();
        q.push(Instant(30), "c");
        q.push(Instant(10), "a");
        q.push(Instant(10), "a2");
        q.push(Instant(20), "b");
        assert_eq!(q.peek_time(), Some(Instant(10)));
        assert_eq!(q.pop(), Some((Instant(10), "a")));
        assert_eq!(q.pop(), Some((Instant(10), "a2")));
        assert_eq!(q.pop(), Some((Instant(20), "b")));
        assert_eq!(q.pop(), Some((Instant(30), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn wheel_orders_across_the_horizon() {
        let mut q = WheelQueue::new();
        let horizon = (WHEEL_BUCKETS as u64) << WHEEL_SHIFT;
        // One event far beyond the horizon, one just inside, one in between
        // pushed after the far one (exercising heap → wheel migration).
        q.push(Instant(3 * horizon), "far");
        q.push(Instant(5), "near");
        q.push(Instant(2 * horizon), "mid");
        q.assert_invariants();
        assert_eq!(q.pop(), Some((Instant(5), "near")));
        assert_eq!(q.pop(), Some((Instant(2 * horizon), "mid")));
        q.assert_invariants();
        // Push behind the advanced base: clamps into the current bucket but
        // still pops by its own (at, seq) key first.
        q.push(Instant(7), "late");
        assert_eq!(q.pop(), Some((Instant(7), "late")));
        assert_eq!(q.pop(), Some((Instant(3 * horizon), "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_stale_key_for_recycled_slot_is_false() {
        let mut q = WheelQueue::new();
        let a = q.push(Instant(1), "a");
        assert_eq!(q.pop(), Some((Instant(1), "a")));
        q.push(Instant(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Instant(2), "b")));
    }

    #[test]
    fn wheel_cancel_in_bucket_and_overflow() {
        let mut q = WheelQueue::new();
        let horizon = (WHEEL_BUCKETS as u64) << WHEEL_SHIFT;
        let near = q.push(Instant(100), "near");
        let far = q.push(Instant(horizon + 100), "far");
        let keep = q.push(Instant(200), "keep");
        assert!(q.cancel(near));
        assert!(!q.cancel(near));
        assert!(q.cancel(far));
        q.assert_invariants();
        assert_eq!(q.pop(), Some((Instant(200), "keep")));
        assert_eq!(q.pop(), None);
        let _ = keep;
    }

    #[test]
    fn wheel_clone_is_independent_and_identical() {
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

    #[test]
    fn wheel_interleaved_ops_keep_invariants() {
        let mut q = WheelQueue::new();
        let mut keys = Vec::new();
        for round in 0..50u64 {
            for i in 0..20u64 {
                // Deliberately non-monotone times with plenty of ties.
                keys.push(q.push(Instant((i * 7 + round * 3) % 40), (round, i)));
            }
            q.assert_invariants();
            for (n, key) in keys.iter().enumerate() {
                if n % 3 == 0 {
                    q.cancel(*key);
                }
            }
            q.assert_invariants();
            let mut last = None;
            for _ in 0..10 {
                if let Some((at, _)) = q.pop() {
                    if let Some(prev) = last {
                        assert!(at >= prev);
                    }
                    last = Some(at);
                }
            }
            q.assert_invariants();
            keys.clear();
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }
}
