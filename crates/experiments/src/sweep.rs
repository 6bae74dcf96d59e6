//! Million-config sweep engine: stream a huge realfeel grid through the
//! fleet in bounded memory.
//!
//! A sweep is a cross-product of `(kernel variant, shield)` *groups* with a
//! per-group axis of forked seeds. Three mechanisms keep a run with a
//! million cells tractable:
//!
//! * **warm-checkpoint cache** — every cell in a group forks from the same
//!   warmed simulation, so the build + warm-up cost is paid once per
//!   *group*, not once per cell. The cache ([`WarmCache`]) is content-keyed
//!   on the warm configuration's fingerprint; entries are copy-on-write
//!   [`Checkpoint`](sp_kernel::Checkpoint)s, so handing one to a cell is an
//!   `Arc` bump.
//! * **lazy cell generation** — cells come from an iterator
//!   ([`SweepConfig::cells`]), never a materialized spec list. Cell seeds
//!   use the same labelled-fork scheme as [`crate::shard::shard_seeds`],
//!   drawn on demand.
//! * **streaming reduction** — results flow through
//!   [`sp_fleet::run_stream`]'s index-ordered online reducer into per-group
//!   aggregates and a bounded worst-cell list. No per-cell result vector
//!   ever exists; peak memory is the pool's reorder window times one
//!   histogram.
//!
//! # Determinism contract
//!
//! [`SweepReport`] is a pure function of the [`SweepConfig`]: cell seeds are
//! forked deterministically, every cell forks from a checkpoint that is
//! itself a pure function of the group's warm config, and the reducer folds
//! in strict cell-index order whatever the worker count. `reproduce_all
//! --sweep` serializes the report as `SWEEP_study.json`, and CI `cmp`s the
//! bytes across worker counts. Wall-clock facts (cells/sec, peak RSS,
//! physical cache hits) live in [`SweepTelemetry`] and stay out of the
//! artifact.

use crate::realfeel::RealfeelConfig;
use crate::study::{self, Rig, Warm};
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use sp_fleet::PoolConfig;
use sp_kernel::KernelVariant;
use sp_metrics::{LatencyHistogram, LatencySummary};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One `(variant, shield)` sweep group. All of a group's cells share a warm
/// checkpoint; the seed axis runs inside the group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepGroup {
    pub variant: KernelVariant,
    /// Fully shield this CPU (and bind realfeel + the RTC interrupt to it).
    pub shield: Option<u32>,
}

impl SweepGroup {
    /// Human label, stable across runs (used in the artifact).
    pub fn label(&self) -> String {
        match self.shield {
            Some(c) => format!("{} shielded cpu{c}", self.variant),
            None => format!("{} unshielded", self.variant),
        }
    }
}

/// Configuration of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The `(variant, shield)` groups; the grid is `groups × seeds_per_group`.
    pub groups: Vec<SweepGroup>,
    /// Seeds (cells) per group.
    pub seeds_per_group: u64,
    /// Root seed: warm-up streams and the per-group cell-seed forks all
    /// derive from it.
    pub base_seed: u64,
    /// Latency samples each cell collects after its fork.
    pub samples_per_cell: u64,
    /// Samples the shared warm-up runs before checkpointing.
    pub warm_samples: u64,
    /// Worst cells kept in the report (bounded, merged online).
    pub top_worst: usize,
    /// Fleet worker threads (never part of the determinism key).
    pub workers: u32,
}

impl SweepConfig {
    /// The canonical sweep shape: the paper's three interesting
    /// configurations (stock 2.4.18, RedHawk unshielded, RedHawk with CPU 1
    /// fully shielded), sized to roughly `cells` total cells.
    pub fn canonical(cells: u64) -> Self {
        let groups = vec![
            SweepGroup { variant: KernelVariant::Vanilla24, shield: None },
            SweepGroup { variant: KernelVariant::RedHawk, shield: None },
            SweepGroup { variant: KernelVariant::RedHawk, shield: Some(1) },
        ];
        let seeds_per_group = (cells.max(1)).div_ceil(groups.len() as u64);
        SweepConfig {
            groups,
            seeds_per_group,
            base_seed: 0x5EED_5EED,
            samples_per_cell: 1_500,
            warm_samples: 512,
            top_worst: 8,
            workers: sp_fleet::default_workers(),
        }
    }

    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Total cells in the grid.
    pub fn cell_count(&self) -> u64 {
        self.groups.len() as u64 * self.seeds_per_group
    }

    /// The warm configuration a group's cells fork from. Every field that
    /// shapes the warm trajectory is here, which is why its fingerprint is
    /// the cache key.
    fn warm_config(&self, group: &SweepGroup) -> RealfeelConfig {
        RealfeelConfig {
            variant: group.variant,
            shield: group.shield,
            rtc_hz: 2048,
            samples: self.samples_per_cell,
            seed: self.base_seed,
            shards: 1,
        }
    }

    /// Lazy cell stream, group-major. Cell seeds fork off
    /// `SimRng::new(base_seed).fork(group)` with the in-group index as the
    /// fork label — the shard-seed scheme, but drawn on demand so a
    /// million-seed axis never materializes.
    pub fn cells(&self) -> impl Iterator<Item = SweepCell> + Send + '_ {
        let base = self.base_seed;
        let per_group = self.seeds_per_group;
        (0..self.groups.len()).flat_map(move |group| {
            let mut stream = SimRng::new(base).fork(group as u64);
            (0..per_group).map(move |i| SweepCell {
                group,
                seed: stream.fork(i).next_u64(),
            })
        })
    }
}

/// One grid cell: a group plus the forked seed its run reseeds with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Index into [`SweepConfig::groups`].
    pub group: usize,
    /// Seed this cell's fork reseeds every RNG stream with.
    pub seed: u64,
}

/// Content-keyed warm-checkpoint cache: `fingerprint → shared entry`.
/// `get_or_warm` computes each key's entry exactly once per process —
/// concurrent requesters for the same key block on the in-flight warm-up
/// rather than duplicating it — and hands every caller a clone (an `Arc`
/// bump for checkpoint-bearing entries). Generic so tests can exercise the
/// once-per-key contract with cheap values.
pub struct WarmCache<V> {
    map: Mutex<HashMap<u64, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for WarmCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> WarmCache<V> {
    pub fn new() -> Self {
        WarmCache { map: Mutex::new(HashMap::new()), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// Look up `key`, warming it with `warm` on first use. Exactly one
    /// caller per key runs `warm`; everyone else reuses (or waits for) that
    /// result.
    pub fn get_or_warm(&self, key: u64, warm: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        let slot = {
            let mut map = self.map.lock().expect("warm cache poisoned");
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let mut warmed_here = false;
        let value = slot.get_or_init(|| {
            warmed_here = true;
            warm()
        });
        if warmed_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }

    /// Distinct keys warmed so far.
    pub fn unique_keys(&self) -> u64 {
        self.map.lock().expect("warm cache poisoned").len() as u64
    }

    /// Physical `(hits, misses)`: lookups served from a warmed entry vs
    /// lookups that ran the warm-up. With this cache's once-per-key
    /// guarantee, `misses == unique_keys` whatever the worker count.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Fold every warmed entry into an accumulator (key order is not
    /// deterministic; fold something commutative).
    pub fn fold_entries<A>(&self, init: A, f: impl FnMut(A, &V) -> A) -> A {
        let map = self.map.lock().expect("warm cache poisoned");
        map.values().filter_map(|slot| slot.get()).fold(init, f)
    }
}

/// FNV-1a over the warm config's shape: the warm-checkpoint cache key.
/// Stable within a process run, which is all a per-process cache needs.
fn warm_fingerprint(cfg: &RealfeelConfig, warm_samples: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut put = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    put(format!("{:?}", cfg.variant).as_bytes());
    put(&[cfg.shield.is_some() as u8]);
    put(&cfg.shield.unwrap_or(u32::MAX).to_le_bytes());
    put(&cfg.rtc_hz.to_le_bytes());
    put(&cfg.seed.to_le_bytes());
    put(&warm_samples.to_le_bytes());
    h
}

/// Per-group aggregate in the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepGroupReport {
    pub label: String,
    pub cells: u64,
    /// Latency samples merged across the group's cells.
    pub samples: u64,
    pub overruns: u64,
    /// Simulator events the group's cells dispatched (forks only; the
    /// shared warm-ups are accounted once in [`SweepReport::warm_events`]).
    pub events: u64,
    /// Summary of the group's merged histogram.
    pub summary: LatencySummary,
}

/// One of the sweep's worst cells (by per-cell max latency).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepWorstCell {
    pub label: String,
    pub seed: u64,
    pub max_ns: u64,
}

/// The deterministic sweep artifact (`SWEEP_study.json`): a pure function
/// of the [`SweepConfig`], byte-identical across worker counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    pub cells: u64,
    pub seeds_per_group: u64,
    pub samples_per_cell: u64,
    pub warm_samples: u64,
    pub base_seed: u64,
    pub groups: Vec<SweepGroupReport>,
    /// The grid's worst cells, worst first (ties broken by cell order).
    pub worst: Vec<SweepWorstCell>,
    /// Distinct warm checkpoints the grid needed (= number of groups).
    pub warm_unique: u64,
    /// Cells that logically reused a warm checkpoint: `cells - warm_unique`.
    pub warm_logical_hits: u64,
    /// `warm_logical_hits / cells`.
    pub warm_logical_hit_rate: f64,
    /// Events the shared warm-ups dispatched, once per unique checkpoint.
    pub warm_events: u64,
    /// Total events: cell forks plus the warm-ups.
    pub total_events: u64,
}

/// Wall-clock facts about a sweep run. Everything here may vary run to run
/// (machine load, worker count, which worker warmed a group first) and is
/// therefore excluded from the artifact.
#[derive(Debug, Clone, Serialize)]
pub struct SweepTelemetry {
    pub wall_ms: f64,
    pub cells_per_sec: f64,
    pub workers: u32,
    /// Physical cache lookups served from an existing entry.
    pub warm_physical_hits: u64,
    /// Physical lookups that ran a warm-up (== unique keys).
    pub warm_physical_misses: u64,
    /// Process peak RSS (`VmHWM`) after the sweep, if the platform exposes
    /// it. An upper bound for the sweep itself, since it includes whatever
    /// ran before.
    pub peak_rss_kb: Option<u64>,
    /// Fleet work charged to this sweep (scoped, not process-global).
    pub fleet_batches: u64,
    pub fleet_jobs: u64,
    pub fleet_steals: u64,
    pub fleet_stolen_jobs: u64,
}

/// Process peak RSS in kB from `/proc/self/status` (`VmHWM`). `None` where
/// procfs is absent.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

struct GroupAgg {
    histogram: LatencyHistogram,
    cells: u64,
    overruns: u64,
    events: u64,
}

struct CellOutput {
    group: usize,
    seed: u64,
    max_ns: u64,
    histogram: LatencyHistogram,
    overruns: u64,
    events: u64,
}

/// Run the sweep: stream every cell through the fleet, folding results into
/// per-group aggregates and the bounded worst-cell list as they arrive.
pub fn run_sweep(cfg: &SweepConfig) -> (SweepReport, SweepTelemetry) {
    let t0 = std::time::Instant::now();
    let cache: WarmCache<Warm> = WarmCache::new();
    // Per group: the warm config's cache key and the rig its cells fork.
    let rigs: Vec<(u64, Rig)> = cfg
        .groups
        .iter()
        .map(|g| {
            let wcfg = cfg.warm_config(g);
            (warm_fingerprint(&wcfg, cfg.warm_samples), wcfg.rig())
        })
        .collect();

    let mut groups: Vec<GroupAgg> = cfg
        .groups
        .iter()
        .map(|_| GroupAgg { histogram: LatencyHistogram::new(), cells: 0, overruns: 0, events: 0 })
        .collect();
    // (max_ns, group, seed), worst first. Stable sort + strict index-order
    // arrival makes the tie-break (first cell wins) deterministic.
    let mut worst: Vec<(u64, usize, u64)> = Vec::new();

    let ((cells_run, _pool_stats), scoped) = sp_fleet::counter_scope(|| {
        sp_fleet::run_stream(
            PoolConfig::auto(cfg.workers.max(1)),
            cfg.cells(),
            |cell: SweepCell, _| {
                let (key, rig) = &rigs[cell.group];
                let warm_samples = cfg.warm_samples.max(1);
                let warm = cache.get_or_warm(*key, || rig.warm(cfg.base_seed, warm_samples));
                let reseed = |sim: &mut _, armory: &mut _| study::reseed(&cell.seed, sim, armory);
                let out = rig.fork(&warm, reseed, cfg.samples_per_cell, 0);
                CellOutput {
                    group: cell.group,
                    seed: cell.seed,
                    max_ns: out.histogram.max().as_ns(),
                    histogram: out.histogram,
                    overruns: out.overruns,
                    events: out.events,
                }
            },
            |_, out: CellOutput| {
                let agg = &mut groups[out.group];
                agg.histogram.merge(&out.histogram);
                agg.cells += 1;
                agg.overruns += out.overruns;
                agg.events += out.events;
                worst.push((out.max_ns, out.group, out.seed));
                worst.sort_by_key(|cell| std::cmp::Reverse(cell.0));
                worst.truncate(cfg.top_worst);
            },
        )
    });
    let wall = t0.elapsed().as_secs_f64();

    let cell_events: u64 = groups.iter().map(|g| g.events).sum();
    let warm_events = cache.fold_entries(0u64, |acc, w| acc + w.events);
    let (hits, misses) = cache.counters();
    let cells = cells_run as u64;
    let warm_unique = cache.unique_keys();
    let warm_logical_hits = cells.saturating_sub(warm_unique);

    let report = SweepReport {
        cells,
        seeds_per_group: cfg.seeds_per_group,
        samples_per_cell: cfg.samples_per_cell,
        warm_samples: cfg.warm_samples,
        base_seed: cfg.base_seed,
        groups: cfg
            .groups
            .iter()
            .zip(&groups)
            .map(|(g, agg)| SweepGroupReport {
                label: g.label(),
                cells: agg.cells,
                samples: agg.histogram.count(),
                overruns: agg.overruns,
                events: agg.events,
                summary: LatencySummary::from_histogram(&agg.histogram),
            })
            .collect(),
        worst: worst
            .iter()
            .map(|&(max_ns, group, seed)| SweepWorstCell {
                label: cfg.groups[group].label(),
                seed,
                max_ns,
            })
            .collect(),
        warm_unique,
        warm_logical_hits,
        warm_logical_hit_rate: if cells > 0 { warm_logical_hits as f64 / cells as f64 } else { 0.0 },
        warm_events,
        total_events: cell_events + warm_events,
    };
    let telemetry = SweepTelemetry {
        wall_ms: wall * 1e3,
        cells_per_sec: cells as f64 / wall.max(1e-9),
        workers: cfg.workers.max(1),
        warm_physical_hits: hits,
        warm_physical_misses: misses,
        peak_rss_kb: peak_rss_kb(),
        fleet_batches: scoped.batches,
        fleet_jobs: scoped.jobs,
        fleet_steals: scoped.steals,
        fleet_stolen_jobs: scoped.stolen_jobs,
    };
    (report, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cells: u64) -> SweepConfig {
        SweepConfig {
            samples_per_cell: 300,
            warm_samples: 128,
            ..SweepConfig::canonical(cells)
        }
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let reference = run_sweep(&tiny(6).with_workers(1)).0;
        let bytes = serde_json::to_string(&reference).unwrap();
        assert_eq!(reference.cells, 6);
        for workers in [2, 8] {
            let (report, telemetry) = run_sweep(&tiny(6).with_workers(workers));
            assert_eq!(serde_json::to_string(&report).unwrap(), bytes, "workers={workers}");
            assert_eq!(telemetry.workers, workers);
        }
    }

    #[test]
    fn groups_warm_once_and_cells_share_the_checkpoint() {
        let cfg = tiny(9);
        let (report, telemetry) = run_sweep(&cfg);
        assert_eq!(report.cells, 9);
        assert_eq!(report.warm_unique, 3, "one warm checkpoint per group");
        assert_eq!(report.warm_logical_hits, 6);
        assert!((report.warm_logical_hit_rate - 6.0 / 9.0).abs() < 1e-12);
        // The once-per-key cache makes the physical counters deterministic
        // too: every key misses exactly once.
        assert_eq!(telemetry.warm_physical_misses, 3);
        assert_eq!(telemetry.warm_physical_hits, 6);
        for g in &report.groups {
            assert_eq!(g.cells, 3);
            assert!(g.samples >= 3 * cfg.samples_per_cell, "{} samples", g.samples);
        }
    }

    #[test]
    fn cache_hit_equals_cache_miss() {
        // A cell computed against a shared (hit) warm entry must be
        // bit-identical to the same cell warming its own checkpoint from
        // scratch — the warm-up is a pure function of the warm config.
        let cfg = tiny(3);
        let group = &cfg.groups[2];
        let rig = cfg.warm_config(group).rig();
        let seed = cfg.cells().find(|c| c.group == 2).unwrap().seed;
        let fork = |warm: &Warm| {
            rig.fork(warm, |sim, armory| study::reseed(&seed, sim, armory), cfg.samples_per_cell, 0)
        };

        let shared = rig.warm(cfg.base_seed, cfg.warm_samples);
        let via_hit = fork(&shared);
        let fresh = rig.warm(cfg.base_seed, cfg.warm_samples);
        let via_miss = fork(&fresh);

        assert_eq!(
            serde_json::to_string(&via_hit.histogram).unwrap(),
            serde_json::to_string(&via_miss.histogram).unwrap()
        );
        assert_eq!(via_hit.overruns, via_miss.overruns);
        assert_eq!(via_hit.events, via_miss.events);
    }

    #[test]
    fn warm_cache_runs_each_key_once_under_contention() {
        let cache: WarmCache<u64> = WarmCache::new();
        let calls = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..4u64 {
                        let v = cache.get_or_warm(key, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            key * 10
                        });
                        assert_eq!(v, key * 10);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4, "one warm per key");
        assert_eq!(cache.unique_keys(), 4);
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 4);
        assert_eq!(hits, 8 * 4 - 4);
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let cfg = tiny(30);
        let a: Vec<SweepCell> = cfg.cells().collect();
        let b: Vec<SweepCell> = cfg.cells().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.cell_count() as usize);
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "cell seed collision");
    }

    #[test]
    fn worst_cells_are_sorted_and_bounded() {
        let cfg = SweepConfig { top_worst: 2, ..tiny(9) };
        let (report, _) = run_sweep(&cfg);
        assert_eq!(report.worst.len(), 2);
        assert!(report.worst[0].max_ns >= report.worst[1].max_ns);
        // The global worst cell should come from the noisiest group —
        // everything beats a fully shielded CPU.
        let shielded = cfg.groups[2].label();
        assert!(shielded.contains("shielded cpu1"), "{shielded}");
        assert_ne!(report.worst[0].label, shielded);
    }
}
