//! Million-config sweeps: stream a huge realfeel grid through the fleet in
//! bounded memory.
//!
//! A sweep is a cross-product of `(kernel variant, shield)` *groups* with a
//! per-group axis of forked seeds. It runs on `study::run_groups`, the
//! warm → fork → reduce engine the figures and matrices share, which gives
//! it three mechanisms that keep a run with a million cells tractable:
//!
//! * **warm up front** — every distinct group is warmed once, in one fleet
//!   batch, before any cell runs; every cell in a group forks from that
//!   warmed simulation, so the build + warm-up cost is paid once per
//!   *group*, not once per cell. The warm simulators are shared by
//!   reference, and each cell runs on its own clone of one.
//! * **lazy cell generation** — cells come from an iterator
//!   ([`SweepConfig::cells`]), never a materialized spec list. Cell seeds
//!   use the same labelled-fork scheme as [`crate::shard::shard_seeds`],
//!   drawn on demand.
//! * **streaming reduction** — forks flow through
//!   [`sp_fleet::run_stream`]'s index-ordered online reducer, and each cell
//!   folds into per-group aggregates and a bounded worst-cell list as it
//!   lands. No per-cell result vector ever exists; peak memory is the
//!   pool's reorder window times one histogram.
//!
//! # Determinism contract
//!
//! [`SweepReport`] is a pure function of the [`SweepConfig`]: cell seeds are
//! forked deterministically, every cell clones a warm simulation that is
//! itself a pure function of the group's warm config, and the reducer folds
//! in strict cell-index order whatever the worker count. `reproduce_all
//! --sweep` serializes the report as `SWEEP_study.json`, and CI `cmp`s the
//! bytes across worker counts. Wall-clock facts (cells/sec, peak RSS) live
//! in [`SweepTelemetry`] and stay out of the artifact.

use crate::realfeel::RealfeelConfig;
use crate::study::{self, Rig};
use serde::{Deserialize, Serialize};
use simcore::SimRng;
use sp_kernel::KernelVariant;
use sp_metrics::{LatencyHistogram, LatencySummary};

/// One `(variant, shield)` sweep group. All of a group's cells fork from one
/// warm simulation; the seed axis runs inside the group.
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
    /// Samples the shared warm-up runs before the cells fork.
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

    /// The warm configuration a group's cells fork from: a pure function of
    /// the group, so equal groups share one warm-up.
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
    /// Distinct warm simulations the grid needed (= distinct groups).
    pub warm_unique: u64,
    /// Cells that logically reused a warm simulation: `cells - warm_unique`.
    pub warm_logical_hits: u64,
    /// `warm_logical_hits / cells`.
    pub warm_logical_hit_rate: f64,
    /// Events the shared warm-ups dispatched, once per unique warm-up.
    pub warm_events: u64,
    /// Total events: cell forks plus the warm-ups.
    pub total_events: u64,
}

/// Wall-clock facts about a sweep run. Everything here may vary run to run
/// (machine load, worker count) and is therefore excluded from the
/// artifact.
#[derive(Debug, Clone, Serialize)]
pub struct SweepTelemetry {
    pub wall_ms: f64,
    pub cells_per_sec: f64,
    pub workers: u32,
    /// Process peak RSS (`VmHWM`) after the sweep, if the platform exposes
    /// it. An upper bound for the sweep itself, since it includes whatever
    /// ran before.
    pub peak_rss_kb: Option<u64>,
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

/// Run the sweep through `study::run_groups`: every distinct group is one
/// warm simulation, [`SweepConfig::cells`] is the lazy cell stream (one fork
/// per cell), and each cell folds into its group's aggregate and the
/// bounded worst-cell list as it lands, in cell order.
pub fn run_sweep(cfg: &SweepConfig) -> (SweepReport, SweepTelemetry) {
    let t0 = std::time::Instant::now();
    // The distinct groups, and per group the index of its warm-up.
    let mut distinct: Vec<SweepGroup> = Vec::new();
    let warm_of: Vec<usize> = cfg
        .groups
        .iter()
        .map(|g| {
            distinct.iter().position(|d| d == g).unwrap_or_else(|| {
                distinct.push(*g);
                distinct.len() - 1
            })
        })
        .collect();
    let rigs: Vec<Rig> = distinct.iter().map(|g| cfg.warm_config(g).rig()).collect();
    // A grid without cells needs no warm-up.
    let warm_count = if cfg.seeds_per_group > 0 { rigs.len() } else { 0 };
    let warms: Vec<_> = rigs[..warm_count]
        .iter()
        .map(|rig| (rig, cfg.base_seed, cfg.warm_samples.max(1)))
        .collect();

    let mut groups: Vec<GroupAgg> = cfg
        .groups
        .iter()
        .map(|_| GroupAgg { histogram: LatencyHistogram::new(), cells: 0, overruns: 0, events: 0 })
        .collect();
    // (max_ns, group, seed), worst first. Stable sort + strict index-order
    // arrival makes the tie-break (first cell wins) deterministic.
    let mut worst: Vec<(u64, usize, u64)> = Vec::new();

    let cells = cfg
        .cells()
        .map(|cell| (cell, vec![(warm_of[cell.group], cfg.samples_per_cell, cell.seed)]));
    let warm_ups = sp_fleet::with_workers(cfg.workers.max(1), || {
        study::run_groups(&warms, cells, 0, study::reseed, |cell: SweepCell, out| {
            let agg = &mut groups[cell.group];
            agg.histogram.merge(&out.histogram);
            agg.cells += 1;
            agg.overruns += out.overruns;
            agg.events += out.events;
            worst.push((out.histogram.max().as_ns(), cell.group, cell.seed));
            worst.sort_by_key(|cell| std::cmp::Reverse(cell.0));
            worst.truncate(cfg.top_worst);
        })
    });
    // The engine charges each warm-up to its first cell, which
    // belongs to the first group using it; the report counts warm-ups apart.
    for (w, events) in warm_ups.iter().enumerate() {
        let first = warm_of.iter().position(|&g| g == w).expect("a warm-up has a group");
        groups[first].events -= events;
    }
    let wall = t0.elapsed().as_secs_f64();

    let cell_events: u64 = groups.iter().map(|g| g.events).sum();
    let cells: u64 = groups.iter().map(|g| g.cells).sum();
    let warm_unique = warm_ups.len() as u64;
    let warm_events: u64 = warm_ups.iter().sum();
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
        peak_rss_kb: peak_rss_kb(),
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
        let (report, _) = run_sweep(&cfg);
        assert_eq!(report.cells, 9);
        assert_eq!(report.warm_unique, 3, "one warm checkpoint per group");
        assert_eq!(report.warm_logical_hits, 6);
        assert!((report.warm_logical_hit_rate - 6.0 / 9.0).abs() < 1e-12);
        for g in &report.groups {
            assert_eq!(g.cells, 3);
            assert!(g.samples >= 3 * cfg.samples_per_cell, "{} samples", g.samples);
        }
    }

    #[test]
    fn warm_up_is_a_pure_function_of_its_config() {
        // Two independent warm-ups of one config must fork bit-identical
        // cells: that is what lets every cell of a group (and every repeat
        // of a group) share one warm-up.
        let cfg = tiny(3);
        let group = &cfg.groups[2];
        let rig = cfg.warm_config(group).rig();
        let seed = cfg.cells().find(|c| c.group == 2).unwrap().seed;
        let fork = |warm: &study::Warm| {
            rig.fork(warm, |sim, armory| study::reseed(&seed, sim, armory), cfg.samples_per_cell, 0)
        };

        let a = fork(&rig.warm(cfg.base_seed, cfg.warm_samples));
        let b = fork(&rig.warm(cfg.base_seed, cfg.warm_samples));

        assert_eq!(
            serde_json::to_string(&a.histogram).unwrap(),
            serde_json::to_string(&b.histogram).unwrap()
        );
        assert_eq!(a.overruns, b.overruns);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn duplicated_groups_warm_once() {
        let base = tiny(6);
        let (a, b) = (base.groups[0], base.groups[2]);
        let dup = SweepConfig { groups: vec![a, b, a], ..base.clone() };
        let distinct = SweepConfig { groups: vec![a, b], ..base };
        let (d, _) = run_sweep(&dup);
        let (u, _) = run_sweep(&distinct);
        assert_eq!(d.cells, 6);
        assert_eq!(d.warm_unique, 2, "a repeated group shares one warm-up");
        assert_eq!(d.warm_logical_hits, d.cells - 2);
        assert_eq!(d.warm_events, u.warm_events, "a repeated group's warm-up counts once");
        assert_eq!(d.total_events - d.warm_events, d.groups.iter().map(|g| g.events).sum::<u64>());
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
