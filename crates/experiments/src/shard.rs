//! Deterministic sharding of a latency-run sample budget.
//!
//! The deep-tail experiments (Figures 5–7) need hundreds of thousands to
//! millions of samples to expose the paper's worst cases. One discrete-event
//! simulation is inherently serial, but the *samples* are not: K independent
//! simulations with forked seeds sample the same stationary latency
//! distribution, and their histograms merge exactly (`LatencyHistogram::merge`
//! is lossless). This module holds the seed-forking and budget-splitting
//! the measured-path studies share; the fan-out itself is
//! [`sp_fleet::run_indexed`].
//!
//! # Determinism contract
//!
//! * Output is bit-for-bit reproducible for a given `(seed, shards)` pair —
//!   shard seeds and per-shard budgets are pure functions of it, and merge
//!   order is shard-index order regardless of thread completion order.
//! * `shards == 1` runs the simulation on `seed` itself, reproducing the
//!   pre-sharding single-simulation output exactly.
//! * Different shard counts sample different (equally valid) draws from the
//!   model, so summaries for K=2 and K=8 differ in the same way two root
//!   seeds differ.
//! * Worker count is *not* part of the contract's key: the fan-out runs on
//!   the `sp-fleet` work-stealing pool, and the pool returns results in
//!   index order whatever `SP_WORKERS` (or `sp_fleet::with_workers`) says.

use simcore::SimRng;

/// Clamp a requested shard count so every shard gets at least one sample.
pub fn effective_shards(requested: u32, samples: u64) -> u32 {
    requested.clamp(1, samples.clamp(1, u32::MAX as u64) as u32)
}

/// Per-shard simulator seeds for a root seed.
///
/// A single shard runs on the root seed itself so `shards == 1` is the
/// classic path bit-for-bit. For K > 1, shard i's seed is drawn by forking a
/// root `SimRng::new(seed)` with the shard index as the fork label and taking
/// the fork's first `u64` — the same labelled-fork scheme the simulator uses
/// to give each stochastic component its own stream (see docs/MODELING.md).
pub fn shard_seeds(seed: u64, shards: u32) -> Vec<u64> {
    if shards <= 1 {
        return vec![seed];
    }
    let mut root = SimRng::new(seed);
    (0..shards).map(|i| root.fork(i as u64).next_u64()).collect()
}

/// Split a sample budget across shards: every shard gets `total / shards`,
/// and the first `total % shards` shards get one extra, so the counts sum to
/// `total` exactly.
pub fn split_samples(total: u64, shards: u32) -> Vec<u64> {
    let shards = effective_shards(shards, total) as u64;
    let base = total / shards;
    let extra = total % shards;
    (0..shards).map(|i| base + u64::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_uses_the_root_seed() {
        assert_eq!(shard_seeds(0xDEAD_BEEF, 1), vec![0xDEAD_BEEF]);
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let a = shard_seeds(42, 8);
        let b = shard_seeds(42, 8);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "seed collision in {a:?}");
        assert_ne!(shard_seeds(42, 8), shard_seeds(43, 8));
    }

    #[test]
    fn split_preserves_totals() {
        for (total, shards) in [(10u64, 3u32), (400_000, 8), (7, 7), (5, 16), (1, 4)] {
            let parts = split_samples(total, shards);
            assert_eq!(parts.iter().sum::<u64>(), total);
            assert!(parts.iter().all(|&p| p >= 1), "{parts:?}");
            assert!(parts.iter().max().unwrap() - parts.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn effective_shards_clamps() {
        assert_eq!(effective_shards(0, 100), 1);
        assert_eq!(effective_shards(8, 100), 8);
        assert_eq!(effective_shards(8, 3), 3);
        assert_eq!(effective_shards(4, 0), 1);
    }
}
