//! Property tests for the simulation core.

use proptest::prelude::*;
use simcore::{DurationDist, Instant, Nanos, SimRng, WheelQueue};

/// A zoo of distributions covering every `DurationDist` arm, including the
/// nested Mix / LogNormal / Shifted shapes the prepared sampler fuses.
fn dist_zoo(pick: u8) -> DurationDist {
    match pick % 8 {
        0 => DurationDist::constant(Nanos(777)),
        1 => DurationDist::uniform(Nanos(10), Nanos(500)),
        2 => DurationDist::exponential(Nanos(1_000)),
        3 => DurationDist::bounded_pareto(Nanos(100), Nanos(10_000), 1.2),
        4 => DurationDist::log_normal(Nanos(2_000), 0.7),
        5 => DurationDist::mix(vec![
            (0.2, DurationDist::constant(Nanos(5))),
            (0.5, DurationDist::bounded_pareto(Nanos(50), Nanos(5_000), 1.1)),
            (0.3, DurationDist::log_normal(Nanos(300), 0.4)),
        ]),
        6 => DurationDist::shifted(
            Nanos(1_000),
            DurationDist::bounded_pareto(Nanos(30), Nanos(900), 1.4),
        ),
        _ => DurationDist::shifted(
            Nanos(250),
            DurationDist::mix(vec![
                (1.0, DurationDist::exponential(Nanos(90))),
                (2.0, DurationDist::uniform(Nanos(5), Nanos(15))),
            ]),
        ),
    }
}

proptest! {
    /// Popping always yields a nondecreasing time sequence, regardless of
    /// push order and interleaved cancellations.
    #[test]
    fn queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..40_000_000, 1..300),
        cancel_every in 1usize..10,
    ) {
        let mut q = WheelQueue::new();
        let keys: Vec<_> = times.iter().map(|&t| q.push(Instant(t), t)).collect();
        for key in keys.iter().step_by(cancel_every) {
            q.cancel(*key);
        }
        let mut last = 0u64;
        let mut popped = 0usize;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at.as_ns() >= last, "time went backwards");
            last = at.as_ns();
            popped += 1;
        }
        let cancelled = keys.iter().step_by(cancel_every).count();
        prop_assert_eq!(popped, times.len() - cancelled);
    }

    /// `len()` tracks pushes, pops and cancels exactly.
    #[test]
    fn queue_len_is_exact(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let mut q = WheelQueue::new();
        let mut live_keys = Vec::new();
        let mut expected = 0usize;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    live_keys.push(q.push(Instant(i as u64), ()));
                    expected += 1;
                }
                1 => {
                    if q.pop().is_some() {
                        expected -= 1;
                    }
                    // pop invalidates an arbitrary live key; rebuild lazily by
                    // clearing (cancel on a fired key is a no-op anyway).
                }
                _ => {
                    if let Some(k) = live_keys.pop() {
                        if q.cancel(k) {
                            expected -= 1;
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), expected);
        }
    }

    /// Same-time events preserve insertion order (determinism backbone).
    #[test]
    fn queue_ties_are_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = WheelQueue::new();
        for i in 0..n {
            q.push(Instant(t), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().map(|(_, v)| v), Some(i));
        }
    }

    /// Random push/cancel/pop sequences behave exactly like a sorted-vec
    /// reference model: pops come out in `(time, insertion order)` order and
    /// cancel succeeds iff the event is still pending. Push times spread
    /// over ~40 ms, so events land in many wheel buckets and beyond the
    /// wheel's ~16.8 ms horizon in the overflow heap.
    #[test]
    fn queue_matches_sorted_vec_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..5_000), 1..400),
    ) {
        let mut q = WheelQueue::new();
        // Reference model: (time, seq) pairs still pending, plus every key
        // ever issued so cancels can target fired/cancelled events too.
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut keys = Vec::new();
        for (op, val) in ops {
            match op {
                // Push twice as often as the other ops so the queue grows.
                0 | 1 => {
                    let (at, seq) = (val * 8_000, keys.len());
                    keys.push(q.push(Instant(at), seq));
                    pending.push((at, seq));
                }
                2 => {
                    if keys.is_empty() {
                        continue;
                    }
                    let target = val as usize % keys.len();
                    let model_hit = pending.iter().position(|&(_, s)| s == target);
                    prop_assert_eq!(q.cancel(keys[target]), model_hit.is_some());
                    if let Some(i) = model_hit {
                        pending.remove(i);
                    }
                }
                _ => {
                    let expect = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(t, s))| (t, s))
                        .map(|(i, _)| i);
                    match expect {
                        Some(i) => {
                            let (t, s) = pending.remove(i);
                            prop_assert_eq!(q.pop(), Some((Instant(t), s)));
                        }
                        None => prop_assert_eq!(q.pop(), None),
                    }
                }
            }
            prop_assert_eq!(q.len(), pending.len());
            prop_assert_eq!(q.peek_time(), pending.iter().map(|&(t, _)| t).min().map(Instant));
        }
        // Drain: the remaining pops must replay the model in sorted order.
        pending.sort_unstable();
        for (t, s) in pending {
            prop_assert_eq!(q.pop(), Some((Instant(t), s)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Every distribution respects its reported bounds.
    #[test]
    fn distributions_respect_bounds(seed in 0u64..10_000, pick in 0u8..5) {
        let dist = match pick {
            0 => DurationDist::constant(Nanos(1234)),
            1 => DurationDist::uniform(Nanos(10), Nanos(500)),
            2 => DurationDist::bounded_pareto(Nanos(100), Nanos(10_000), 1.1),
            3 => DurationDist::mix(vec![
                (0.3, DurationDist::constant(Nanos(5))),
                (0.7, DurationDist::uniform(Nanos(50), Nanos(60))),
            ]),
            _ => DurationDist::shifted(Nanos(1_000), DurationDist::uniform(Nanos(0), Nanos(9))),
        };
        let lo = dist.lower_bound();
        let hi = dist.upper_bound();
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let v = dist.sample(&mut rng);
            prop_assert!(v >= lo, "{v} < lower bound {lo}");
            if let Some(hi) = hi {
                prop_assert!(v <= hi, "{v} > upper bound {hi}");
            }
        }
    }

    /// The RNG stream is stable across clones (checkpointing correctness).
    #[test]
    fn rng_clone_preserves_stream(seed in any::<u64>(), skip in 0usize..50) {
        let mut a = SimRng::new(seed);
        for _ in 0..skip {
            a.next_u64();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `fill_u64` consumes exactly `len` stream positions in stream order —
    /// the foundation of every batched sampler.
    #[test]
    fn fill_u64_matches_next_u64(seed in any::<u64>(), n in 0usize..130) {
        let mut scalar = SimRng::new(seed);
        let mut batch = SimRng::new(seed);
        let mut buf = vec![0u64; n];
        batch.fill_u64(&mut buf);
        for (i, &b) in buf.iter().enumerate() {
            prop_assert_eq!(scalar.next_u64(), b, "draw {} diverged", i);
        }
        // Both generators must land on the same stream position.
        prop_assert_eq!(scalar.next_u64(), batch.next_u64());
    }

    /// Batched sampling is bit-identical to the scalar loop for arbitrary
    /// batch sizes — including sizes that cross the internal refill chunk —
    /// and leaves the generator at exactly the same stream position.
    #[test]
    fn batched_draws_match_scalar(seed in any::<u64>(), pick in 0u8..8, n in 0usize..200) {
        let dist = dist_zoo(pick);
        let mut scalar_rng = SimRng::new(seed);
        let mut batch_rng = SimRng::new(seed);
        let scalar: Vec<Nanos> = (0..n).map(|_| dist.sample(&mut scalar_rng)).collect();
        let mut batched = vec![Nanos::ZERO; n];
        dist.sample_into(&mut batch_rng, &mut batched);
        prop_assert_eq!(&scalar, &batched);
        prop_assert_eq!(scalar_rng.next_u64(), batch_rng.next_u64());
    }

    /// Chopping one logical draw sequence into arbitrary batched pieces —
    /// with a checkpoint/restore exercised at one boundary and a reseed at
    /// another — reproduces the scalar per-draw stream bit-for-bit. Chunk
    /// sizes exceed the internal refill chunk, so the checkpoint and reseed
    /// boundaries land mid-refill relative to the batch partitioning.
    #[test]
    fn batched_draws_survive_checkpoint_and_reseed(
        seed in any::<u64>(),
        reseed in any::<u64>(),
        pick in 0u8..8,
        chunks in proptest::collection::vec(0usize..70, 1..6),
        checkpoint_at in 0usize..6,
        reseed_at in 0usize..6,
    ) {
        let dist = dist_zoo(pick);

        // Reference: pure scalar draws, reseeding at the same cumulative
        // draw index the batched path reseeds at. A boundary index of
        // `chunks.len()` means "after every chunk", which is still a valid
        // reseed point; anything beyond that means no reseed at all.
        let reseeds = reseed_at <= chunks.len();
        let reseed_index: usize = chunks.iter().take(reseed_at).sum();
        let mut rng = SimRng::new(seed);
        let total: usize = chunks.iter().sum();
        let mut reference = Vec::with_capacity(total);
        for i in 0..total {
            if reseeds && i == reseed_index {
                rng = SimRng::new(reseed);
            }
            reference.push(dist.sample(&mut rng));
        }
        // A reseed boundary that falls after the final draw (trailing
        // zero-length chunks included) never fires inside the loop; mirror
        // it so the final-position check still holds.
        if reseeds && reseed_index == total {
            rng = SimRng::new(reseed);
        }

        // Candidate: batched chunks with checkpoint/restore and reseed at
        // chunk boundaries.
        let mut brng = SimRng::new(seed);
        let mut candidate = Vec::with_capacity(total);
        for (i, &len) in chunks.iter().enumerate() {
            if i == reseed_at {
                brng = SimRng::new(reseed);
            }
            if i == checkpoint_at {
                // Checkpoint, diverge (a discarded speculative future), then
                // restore: the stream must continue exactly where it left off.
                let saved = brng.clone();
                for _ in 0..17 {
                    brng.next_u64();
                }
                brng = saved;
            }
            let mut buf = vec![Nanos::ZERO; len];
            dist.sample_into(&mut brng, &mut buf);
            candidate.extend_from_slice(&buf);
        }
        if reseed_at == chunks.len() {
            brng = SimRng::new(reseed);
        }
        prop_assert_eq!(&reference, &candidate);
        prop_assert_eq!(rng.next_u64(), brng.next_u64());
    }

    /// Prepared distributions are bit-identical to their source for every
    /// arm — including the Mix, LogNormal and Shifted shapes — on both the
    /// scalar and batched paths.
    #[test]
    fn prepared_matches_scalar_all_arms(seed in any::<u64>(), pick in 0u8..8, n in 0usize..100) {
        let dist = dist_zoo(pick);
        let prepared = dist.prepare();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for i in 0..n {
            prop_assert_eq!(dist.sample(&mut a), prepared.sample(&mut b), "draw {} diverged", i);
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());

        let mut pa = SimRng::new(seed.wrapping_add(1));
        let mut pb = SimRng::new(seed.wrapping_add(1));
        let scalar: Vec<Nanos> = (0..n).map(|_| dist.sample(&mut pa)).collect();
        let mut batched = vec![Nanos::ZERO; n];
        prepared.sample_into(&mut pb, &mut batched);
        prop_assert_eq!(scalar, batched);
        prop_assert_eq!(pa.next_u64(), pb.next_u64());
    }

    /// Instant/Nanos arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Instant(t);
        let d = Nanos(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), Nanos::ZERO);
    }
}
