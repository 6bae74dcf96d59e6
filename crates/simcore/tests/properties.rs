//! Property tests for the simulation core.

use proptest::prelude::*;
use simcore::{pack_key, DistShape, DurationDist, Instant, Nanos, SimRng, WheelQueue};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Number of distributions in [`dist_zoo`].
const ZOO: u8 = 11;

/// A zoo of distributions covering every `DistShape` arm, including the
/// nested Mix / LogNormal / Shifted shapes the compiled sampler fuses and
/// the narrow bounded Paretos it answers from a lookup table.
fn dist_zoo(pick: u8) -> DurationDist {
    match pick % ZOO {
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
        7 => DurationDist::shifted(
            Nanos(250),
            DurationDist::mix(vec![
                (1.0, DurationDist::exponential(Nanos(90))),
                (2.0, DurationDist::uniform(Nanos(5), Nanos(15))),
            ]),
        ),
        8 => DurationDist::bounded_pareto(Nanos(50), Nanos(1_600), 1.3),
        9 => DurationDist::bounded_pareto(Nanos(1), Nanos(10), 1.4),
        _ => DurationDist::shifted(
            Nanos(45),
            DurationDist::bounded_pareto(Nanos(5), Nanos(55), 1.3),
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
    /// over ~40 ms with many exact ties.
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
        }
        // Drain: the remaining pops must replay the model in sorted order.
        pending.sort_unstable();
        for (t, s) in pending {
            prop_assert_eq!(q.pop(), Some((Instant(t), s)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Deadlines held outside the queue merge with queued events in exact
    /// `(at, seq)` order. Four deadline slots each hold one packed key whose
    /// `seq` comes from `reserve_seq`; re-arming a slot overwrites its key.
    /// A merge step pops the queue through `pop_until` bounded by the
    /// earliest deadline (and a time limit), and otherwise fires that
    /// deadline. The merge must replay a sorted `(at, seq)` model of both
    /// sides. Most times fall on the current instant, so same-nanosecond
    /// ties are won by a deadline and by a queued event alike.
    #[test]
    fn deadline_merge_matches_sorted_model(
        ops in proptest::collection::vec((0u8..6, 0usize..4, 0usize..4), 1..400),
    ) {
        // Offsets from `now`: a tie, the next nanosecond, 50 µs and 20 ms.
        const OFFSET: [u64; 4] = [0, 1, 50_000, 20_000_000];
        let mut q = WheelQueue::new();
        let mut deadlines = [u128::MAX; 4];
        // (at, seq) -> the deadline slot, or `None` for a queued event.
        let mut model: BTreeMap<(u64, u64), Option<usize>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut now = 0u64;
        let unpack = |key: u128| ((key >> 64) as u64, key as u64);
        for (op, slot, pick) in ops {
            let at = now + OFFSET[pick];
            match op {
                0 | 1 => {
                    q.push(Instant(at), next_seq);
                    model.insert((at, next_seq), None);
                    next_seq += 1;
                }
                2 | 3 => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, next_seq, "push and reserve_seq share one counter");
                    next_seq += 1;
                    if deadlines[slot] != u128::MAX {
                        model.remove(&unpack(deadlines[slot]));
                    }
                    deadlines[slot] = pack_key(Instant(at), seq);
                    model.insert((at, seq), Some(slot));
                }
                _ => {
                    let limit = pack_key(Instant(at), u64::MAX);
                    let merged = merge_pop(&mut q, &mut deadlines, limit);
                    let expect = match model.first_key_value() {
                        Some((&(t, seq), &src)) if t <= at => {
                            model.pop_first();
                            Some((t, seq, src))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(merged, expect);
                    if let Some((t, _, _)) = merged {
                        now = t;
                    }
                }
            }
        }
        while let Some(((t, seq), src)) = model.pop_first() {
            prop_assert_eq!(merge_pop(&mut q, &mut deadlines, u128::MAX), Some((t, seq, src)));
        }
        prop_assert_eq!(merge_pop(&mut q, &mut deadlines, u128::MAX), None);
        prop_assert!(q.is_empty());
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

    /// Batched sampling is bit-identical to the reference scalar loop for
    /// arbitrary batch sizes — including sizes that cross the internal
    /// refill chunk — and leaves the generator at exactly the same stream
    /// position.
    #[test]
    fn batched_draws_match_scalar(seed in any::<u64>(), pick in 0u8..ZOO, n in 0usize..200) {
        let dist = dist_zoo(pick);
        let mut scalar_rng = SimRng::new(seed);
        let mut batch_rng = SimRng::new(seed);
        let scalar: Vec<Nanos> = (0..n).map(|_| dist.shape().sample(&mut scalar_rng)).collect();
        let mut batched = vec![Nanos::ZERO; n];
        dist.sample_into(&mut batch_rng, &mut batched);
        prop_assert_eq!(&scalar, &batched);
        prop_assert_eq!(scalar_rng.next_u64(), batch_rng.next_u64());
    }

    /// Chopping one logical draw sequence into arbitrary batched pieces —
    /// with a checkpoint/restore exercised at one boundary and a reseed at
    /// another — reproduces the scalar per-draw stream bit-for-bit. Chunk
    /// sizes exceed the internal refill chunk, so the checkpoint and reseed
    /// boundaries land mid-refill relative to the batch partitioning. Every
    /// chunk goes through the compiled sampler, lookup tables included.
    #[test]
    fn batched_draws_survive_checkpoint_and_reseed(
        seed in any::<u64>(),
        reseed in any::<u64>(),
        pick in 0u8..ZOO,
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
            reference.push(dist.shape().sample(&mut rng));
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

    /// The compiled sampler is bit-identical to its shape's reference
    /// sampler for every arm — including the Mix, LogNormal and Shifted
    /// shapes — on both the scalar and batched paths.
    #[test]
    fn compiled_matches_reference_all_arms(seed in any::<u64>(), pick in 0u8..ZOO, n in 0usize..100) {
        let dist = dist_zoo(pick);
        let shape = dist.shape();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for i in 0..n {
            prop_assert_eq!(shape.sample(&mut a), dist.sample(&mut b), "draw {} diverged", i);
        }
        prop_assert_eq!(a.next_u64(), b.next_u64());

        let mut pa = SimRng::new(seed.wrapping_add(1));
        let mut pb = SimRng::new(seed.wrapping_add(1));
        let scalar: Vec<Nanos> = (0..n).map(|_| shape.sample(&mut pa)).collect();
        let mut batched = vec![Nanos::ZERO; n];
        dist.sample_into(&mut pb, &mut batched);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A bounded Pareto gets a lookup table exactly when its span is at most
    /// 4096 ns; every distribution built with the same parameters shares
    /// that one table, and its draws equal the reference sampler's.
    #[test]
    fn narrow_paretos_share_one_exact_table(
        lo in 1u64..5_000,
        span in 1u64..6_000,
        alpha_centi in 30u32..300,
        seed in any::<u64>(),
    ) {
        let alpha = alpha_centi as f64 / 100.0;
        let dist = DurationDist::bounded_pareto(Nanos(lo), Nanos(lo + span), alpha);
        let (a, b) = (&dist, DurationDist::from(dist.shape().clone()));
        prop_assert_eq!(a.pareto_table().is_some(), span <= 4096);
        if let (Some(x), Some(y)) = (a.pareto_table(), b.pareto_table()) {
            prop_assert!(Arc::ptr_eq(x, y));
        }
        let mut ra = SimRng::new(seed);
        let mut rb = SimRng::new(seed);
        for _ in 0..2_000 {
            prop_assert_eq!(dist.shape().sample(&mut ra), a.sample(&mut rb));
        }
    }
}

/// One simulated day in nanoseconds: the widest span a spec may ask for.
const DAY_NS: u64 = 86_400_000_000_000;

/// Scalar draws, batched draws and the final generator state of `dist`
/// all equal its shape's reference sampler.
fn assert_draws_match_reference(dist: &DurationDist, seed: u64, n: usize) {
    let shape = dist.shape();
    let (mut reference, mut scalar) = (SimRng::new(seed), SimRng::new(seed));
    let expected: Vec<Nanos> = (0..n).map(|_| shape.sample(&mut reference)).collect();
    let drawn: Vec<Nanos> = (0..n).map(|_| dist.sample(&mut scalar)).collect();
    assert_eq!(drawn, expected, "{shape:?}: scalar draws diverged");
    assert_eq!(format!("{reference:?}"), format!("{scalar:?}"));
    let mut batched_rng = SimRng::new(seed);
    let mut batched = vec![Nanos::ZERO; n];
    dist.sample_into(&mut batched_rng, &mut batched);
    assert_eq!(batched, expected, "{shape:?}: batched draws diverged");
    assert_eq!(format!("{reference:?}"), format!("{batched_rng:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A bounded Pareto too wide for a table answers through the guarded
    /// `y^(-1/α)` kernel, bit-identically to the reference, over `lo` up to
    /// 10⁶ ns, `hi` up to a day and `α` in 0.3..3.
    #[test]
    fn wide_paretos_draw_the_reference_bits(
        lo in 1u64..1_000_000,
        hi_milli in 0u32..=1_000,
        alpha_milli in 300u32..3_000,
        base in 0u64..1_000,
        seed in any::<u64>(),
    ) {
        let alpha = alpha_milli as f64 / 1000.0;
        // Log-uniform from just past a table's span out to one day.
        let (min_hi, max_hi) = ((lo + 4097) as f64, DAY_NS as f64);
        let hi = (min_hi * (max_hi / min_hi).powf(hi_milli as f64 / 1000.0)) as u64;
        let tail = DurationDist::bounded_pareto(Nanos(lo), Nanos(hi), alpha);
        prop_assert!(tail.pareto_table().is_none());
        prop_assert!(tail.guarded_arm().unwrap().has_kernel(), "{:?}", tail);
        assert_draws_match_reference(&tail, seed, 2_000);
        assert_draws_match_reference(&DurationDist::shifted(Nanos(base), tail), seed, 100);
    }

    /// An exponential answers through the guarded `−ln u` kernel,
    /// bit-identically to the reference, for means from 1 ns to a day.
    #[test]
    fn exponentials_draw_the_reference_bits(mean_milli in 0u32..=1_000, seed in any::<u64>()) {
        let mean = (DAY_NS as f64).powf(mean_milli as f64 / 1000.0) as u64;
        let dist = DurationDist::exponential(Nanos(mean));
        prop_assert!(dist.guarded_arm().unwrap().has_kernel());
        assert_draws_match_reference(&dist, seed, 2_000);
    }

    /// Shapes `validate` rejects still compile, get no kernel, and send
    /// every draw to the libm expression.
    #[test]
    fn hostile_paretos_compile_and_take_the_libm_path(
        lo in 0u64..1_000_000,
        below in 0u64..10_000,
        alpha_pick in 0usize..5,
        seed in any::<u64>(),
    ) {
        let alpha = [0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][alpha_pick];
        let inverted = DistShape::BoundedPareto { lo, hi: lo.saturating_sub(below), alpha: 1.2 };
        for shape in [inverted, DistShape::BoundedPareto { lo, hi: lo + 5_000, alpha }] {
            let dist = DurationDist::from(shape.clone());
            let arm = dist.guarded_arm().unwrap();
            prop_assert!(!arm.has_kernel(), "{:?}", shape);
            let mut rng = SimRng::new(seed);
            for _ in 0..64 {
                prop_assert_eq!(arm.kernel(rng.next_u64() >> 11), None);
            }
        }
    }
}

/// Random valid [`DistShape`]s: every arm, with `Mix` and `Shifted` nested
/// up to `depth` levels, and bounded-Pareto spans both narrow enough for a
/// lookup table and wider.
struct ValidShape {
    depth: u32,
}

impl Strategy for ValidShape {
    type Value = DistShape;

    fn generate(&self, rng: &mut TestRng) -> DistShape {
        let arms = if self.depth == 0 { 5 } else { 7 };
        match below(rng, arms) {
            0 => DistShape::Constant(below(rng, 1_000_000)),
            1 => {
                let lo = below(rng, 1_000_000);
                DistShape::Uniform { lo, hi: lo + below(rng, 1_000_000) }
            }
            2 => DistShape::Exponential { mean: 1 + below(rng, 1_000_000) },
            3 => DistShape::LogNormal {
                median: below(rng, 1_000_000),
                sigma: below(rng, 200) as f64 / 100.0,
            },
            4 => {
                let lo = 1 + below(rng, 100_000);
                let span =
                    1 + if below(rng, 2) == 0 { below(rng, 4_096) } else { below(rng, 10_000_000) };
                DistShape::BoundedPareto {
                    lo,
                    hi: lo + span,
                    alpha: (1 + below(rng, 300)) as f64 / 100.0,
                }
            }
            5 => {
                let child = ValidShape { depth: self.depth - 1 };
                let n = 1 + below(rng, 3);
                let mut branches = Vec::new();
                for i in 0..n {
                    // The first weight is positive, so the total is too.
                    let w = (below(rng, 100) + u64::from(i == 0)) as f64 / 10.0;
                    branches.push((w, child.generate(rng)));
                }
                DistShape::Mix(branches)
            }
            _ => {
                let base = below(rng, 1_000_000);
                let rest = ValidShape { depth: self.depth - 1 }.generate(rng);
                DistShape::Shifted { base, rest: Box::new(rest) }
            }
        }
    }
}

/// A uniform draw from `0..n`.
fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid shape written as JSON and read back as a `DurationDist`
    /// prints the same bytes, and its compiled sampler draws the shape's
    /// reference sequence bit for bit, leaving the generator in the same
    /// state.
    #[test]
    fn deserialized_dists_keep_their_bytes_and_draws(
        shape in ValidShape { depth: 3 },
        seed in any::<u64>(),
        n in 0usize..200,
    ) {
        prop_assert_eq!(shape.validate(), Ok(()));
        let json = serde_json::to_string(&shape).unwrap();
        let dist: DurationDist = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&dist).unwrap(), json);
        prop_assert_eq!(dist.shape(), &shape);
        let (mut reference, mut compiled) = (SimRng::new(seed), SimRng::new(seed));
        for i in 0..n {
            prop_assert_eq!(
                shape.sample(&mut reference),
                dist.sample(&mut compiled),
                "draw {} diverged",
                i
            );
        }
        prop_assert_eq!(format!("{reference:?}"), format!("{compiled:?}"));
    }
}

/// One step of a deadline/queue merge: fire whichever of the earliest
/// armed deadline (`u128::MAX` = disarmed) and the queue head holds the
/// smaller packed key, if that key is at or below `limit`. Returns
/// `(at, seq, deadline slot or None for a queued event)`.
fn merge_pop(
    q: &mut WheelQueue<u64>,
    deadlines: &mut [u128; 4],
    limit: u128,
) -> Option<(u64, u64, Option<usize>)> {
    let (slot, key) = deadlines.iter().copied().enumerate().min_by_key(|&(_, k)| k)?;
    if let Some((at, seq)) = q.pop_until(key.min(limit)) {
        return Some((at.0, seq, None));
    }
    if key != u128::MAX && key <= limit {
        deadlines[slot] = u128::MAX;
        return Some(((key >> 64) as u64, key as u64, Some(slot)));
    }
    None
}
