//! The measured-path study rig: realfeel on the RTC (Figures 5–6) and the
//! RCIM `ioctl()` waiter (Figure 7), as run by the figures, both fault
//! matrices and the sweep. It owns the three decisions they share:
//!
//! 1. **Assembly** — a [`Rig`] is a [`ScenarioSpec`] plus its sampling, and
//!    [`Rig::build`] goes through [`ScenarioSpec::build`], the one builder.
//! 2. **Sampling** — [`Rig::collect`] is the one sample-collection loop; its
//!    [`Sampling`] data decides where `run_for` stops, so it decides the
//!    histogram.
//! 3. **Warm → fork → reduce** — [`run_groups`] is the one engine: it warms
//!    every simulation in one fleet batch, then streams the forks through
//!    [`sp_fleet::run_stream`] and merges each cell the moment its last fork
//!    lands, in cell order. A fork is a clone of the warm simulator and its
//!    fault registry; nothing is rebuilt. Cells come from a lazy iterator,
//!    so memory stays bounded by the reorder window however many cells run.
//!    Each fork reports its events as the delta since the fork; the
//!    warm-up's events are charged once, to the first fork of that warm
//!    simulation. The per-fork step and the per-cell fold are the caller's:
//!    [`reseed`] for figure shards and sweep cells, a fault arm for matrix
//!    cells.

use crate::scenario::{DeviceKind, MeasuredKind, ScenarioSpec};
use crate::shard::{effective_shards, shard_seeds, split_samples};
use simcore::Nanos;
use sp_fleet::{default_workers, run_indexed, run_stream, PoolConfig};
use sp_inject::Armory;
use sp_kernel::{Pid, Simulator, WorstCaseTrace};
use sp_metrics::LatencyHistogram;

/// Where [`Rig::collect`] stops. The starvation deadline is
/// `deadline_periods` interrupt periods per requested sample, counted from
/// the call; each `run_for` chunk covers the remaining samples' periods,
/// clamped to `chunk`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sampling {
    pub(crate) deadline_periods: f64,
    pub(crate) chunk: (u64, u64),
}

/// A measured simulation minus its seed: a spec whose first measured task
/// waits on a periodic interrupt (the RTC or the RCIM timer), and where
/// sampling it stops. Faults in the spec are registered disarmed in every
/// build, so one warm simulation forks into every cell of its group, each
/// arming its own fault.
#[derive(Debug, Clone)]
pub(crate) struct Rig {
    pub(crate) spec: ScenarioSpec,
    pub(crate) sampling: Sampling,
}

/// One run's (or one merged cell's) measurements.
#[derive(Default)]
pub(crate) struct RunOut {
    pub(crate) histogram: LatencyHistogram,
    /// Periods that passed without a fresh sample.
    pub(crate) overruns: u64,
    pub(crate) events: u64,
    /// Worst-case windows captured by the flight recorder, worst first.
    pub(crate) traces: Vec<WorstCaseTrace>,
}

/// A warmed simulation: the simulator, its fault registry and the measured
/// task. Forks borrow it and clone it, so thousands of cells share one warm
/// simulator across the fleet's workers.
pub(crate) struct Warm {
    sim: Simulator,
    armory: Armory,
    pid: Pid,
    /// Events the warm-up dispatched.
    pub(crate) events: u64,
}

impl Rig {
    /// Build a ready-to-sample simulation on `seed` through
    /// [`ScenarioSpec::build`]; returns the measured task's pid.
    pub(crate) fn build(&self, seed: u64) -> (Simulator, Armory, Pid) {
        let built = self.spec.build(seed).expect("rig spec builds");
        let pid = built.tasks[&self.spec.measured[0].name];
        (built.sim, built.armory, pid)
    }

    /// The measured task's interrupt period; a healthy waiter samples once
    /// per period.
    fn period(&self) -> Nanos {
        let MeasuredKind::IrqWait { device, .. } = &self.spec.measured[0].kind else {
            panic!("a rig measures an interrupt waiter");
        };
        match self.spec.devices.iter().find(|d| d.name == *device).map(|d| &d.kind) {
            Some(DeviceKind::Rtc { hz }) => Nanos(1_000_000_000 / *hz as u64),
            Some(DeviceKind::Rcim { period_us, .. }) => Nanos::from_us(*period_us),
            _ => panic!("a rig's waiter waits on a periodic timer"),
        }
    }

    /// Advance `sim` until `pid` holds at least `samples` latency samples in
    /// total (samples taken before a fork count).
    pub(crate) fn collect(&self, sim: &mut Simulator, pid: Pid, samples: u64) {
        let period = self.period();
        let (lo, hi) = self.sampling.chunk;
        let deadline = sim.now() + period.scale(self.sampling.deadline_periods * samples as f64);
        loop {
            let have = sim.obs.latencies(pid).len() as u64;
            if have >= samples {
                break;
            }
            assert!(sim.now() < deadline, "{} starved: {have} samples", self.spec.measured[0].name);
            // Chunking never affects the trajectory; tracking the remaining
            // budget keeps small runs from overshooting by a whole chunk.
            sim.run_for(period * (samples - have).clamp(lo, hi));
        }
    }

    /// Build on `seed` and run to `samples` samples of steady state. A pure
    /// function of `(rig, seed, samples)`.
    pub(crate) fn warm(&self, seed: u64, samples: u64) -> Warm {
        let (mut sim, armory, pid) = self.build(seed);
        self.collect(&mut sim, pid, samples);
        let events = sim.events_dispatched();
        // Keep a clone: cloned vectors carry none of the spare capacity the
        // warm-up grew, and a warm simulator lives for the whole batch.
        Warm { sim: sim.clone(), armory, pid, events }
    }

    /// Fork one run off `warm`: clone the warm simulator and its armory,
    /// apply the caller's per-fork step, then collect `budget` more
    /// samples. The output's events are the delta since the fork.
    pub(crate) fn fork(
        &self,
        warm: &Warm,
        prep: impl FnOnce(&mut Simulator, &mut Armory),
        budget: u64,
        top_k: usize,
    ) -> RunOut {
        let (mut sim, mut armory) = (warm.sim.clone(), warm.armory.clone());
        prep(&mut sim, &mut armory);
        self.sample(sim, warm.pid, budget, top_k)
    }

    /// Arm the recorder (`top_k > 0`; pure observation), collect `budget`
    /// samples past the current count and distill the run. Arming here,
    /// after the fork, keeps each fork's windows on its own stretch.
    pub(crate) fn sample(&self, mut sim: Simulator, pid: Pid, budget: u64, top_k: usize) -> RunOut {
        if top_k > 0 {
            sim.arm_flight(top_k);
        }
        let (t0, events0) = (sim.now(), sim.events_dispatched());
        let had = sim.obs.latencies(pid).len() as u64;
        self.collect(&mut sim, pid, had + budget);

        let histogram: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
        let expected = sim.now().since(t0).as_ns() / self.period().as_ns();
        RunOut {
            overruns: expected.saturating_sub(histogram.count() - had),
            histogram,
            events: sim.events_dispatched() - events0,
            traces: sim.flight.top().to_vec(),
        }
    }
}

/// The shard and sweep-cell fork step: reseed every RNG stream and drop the
/// warm-up's samples, which were drawn on shared randomness.
pub(crate) fn reseed(seed: &u64, sim: &mut Simulator, _armory: &mut Armory) {
    sim.reseed(*seed);
    sim.obs.reset_samples();
}

/// One fork: the index of the warm simulation it clones, its sample budget
/// and the data the caller's per-fork step applies.
pub(crate) type Fork<C> = (usize, u64, C);

/// A figure run's sample budget split across `shards` (clamped by
/// [`effective_shards`]), one output per shard in shard order. One shard is
/// the cold direct run on `seed`. K > 1 warms one simulation on `seed` and
/// forks it K times, each fork [`reseed`]ed from its shard seed and sampling
/// its share of the budget, so the build + warm-up cost is paid once.
pub(crate) fn run_shards(
    rig: Rig,
    seed: u64,
    samples: u64,
    shards: u32,
    top_k: usize,
) -> Vec<RunOut> {
    let shards = effective_shards(shards, samples);
    if shards <= 1 {
        let (sim, _armory, pid) = rig.build(seed);
        return vec![rig.sample(sim, pid, samples, top_k)];
    }
    let warm = (&rig, seed, (samples / shards as u64 / 8).clamp(256, 4_096));
    let forks = shard_seeds(seed, shards).into_iter().zip(split_samples(samples, shards));
    let mut out = Vec::new();
    run_groups(&[warm], forks.map(|(s, b)| ((), vec![(0, b, s)])), top_k, reseed, |(), run| {
        out.push(run)
    });
    out
}

/// The one warm → fork → reduce engine. Warm every simulation
/// (`warms[i] = (rig, seed, warm-up samples)`) in one fleet batch, then
/// stream the cells' forks through [`sp_fleet::run_stream`]: a cell is a key
/// and its forks, pulled lazily from `cells`, and `finish` gets each cell's
/// key and merged output in cell order, the moment its last fork lands. So
/// at most a reorder window of fork outputs is alive at once, however many
/// cells there are. A fork clones warm simulation `i`, applies `prep` and
/// samples its budget; the first fork of each warm simulation also carries
/// its warm-up events. Bit-identical whatever the worker count. Returns each
/// warm-up's events.
pub(crate) fn run_groups<K: Send, C: Send>(
    warms: &[(&Rig, u64, u64)],
    cells: impl Iterator<Item = (K, Vec<Fork<C>>)> + Send,
    top_k: usize,
    prep: impl Fn(&C, &mut Simulator, &mut Armory) + Sync,
    mut finish: impl FnMut(K, RunOut) + Send,
) -> Vec<u64> {
    let warmed = run_indexed(warms.len(), |j| {
        let (rig, seed, samples) = warms[j];
        rig.warm(seed, samples)
    });

    // One job per fork, the cell's last carrying its key; a cell without
    // forks is one job that runs nothing and closes it.
    let jobs = cells.flat_map(|(key, forks)| {
        let (n, mut key) = (forks.len(), Some(key));
        let forks = forks.into_iter().map(Some).chain((n == 0).then_some(None));
        forks.enumerate().map(move |(i, fork)| (fork, if i + 1 >= n { key.take() } else { None }))
    });
    let run = |(fork, key): (Option<Fork<C>>, Option<K>), _| {
        let out = fork.map(|(w, budget, data)| {
            let prep = |sim: &mut _, armory: &mut _| prep(&data, sim, armory);
            (w, warms[w].0.fork(&warmed[w], prep, budget, top_k))
        });
        (out, key)
    };
    let (mut charged, mut cell) = (vec![false; warmed.len()], RunOut::default());
    let reduce = |_, (out, key): (Option<(usize, RunOut)>, Option<K>)| {
        if let Some((w, mut out)) = out {
            if !std::mem::replace(&mut charged[w], true) {
                out.events += warmed[w].events;
            }
            cell.absorb(out, top_k);
        }
        if let Some(key) = key {
            finish(key, std::mem::take(&mut cell));
        }
    };
    run_stream(PoolConfig::auto(default_workers()), jobs, run, reduce);
    warmed.iter().map(|w| w.events).collect()
}

impl RunOut {
    /// Fold `run` in after everything merged so far: histograms and counters
    /// add, captured windows merge into the global top-`top_k`.
    fn absorb(&mut self, run: RunOut, top_k: usize) {
        self.histogram.merge(&run.histogram);
        self.overruns += run.overruns;
        self.events += run.events;
        let traces = std::mem::take(&mut self.traces);
        self.traces = crate::flight::merge_top(vec![traces, run.traces], top_k);
    }
}

/// Merge runs in order (see [`RunOut::absorb`]).
pub(crate) fn merge(runs: impl IntoIterator<Item = RunOut>, top_k: usize) -> RunOut {
    let mut merged = RunOut::default();
    for run in runs {
        merged.absorb(run, top_k);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultmatrix::MatrixPath;
    use crate::modernmax::ModernVariant;
    use crate::rcim::RcimConfig;
    use crate::realfeel::RealfeelConfig;
    use proptest::prelude::*;
    use sp_kernel::{KernelConfig, KernelVariant};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// A realfeel (`kind` even) or RCIM rig whose `run_for` chunks are
    /// short, so tiny budgets stop close to their sample count.
    fn rig(kind: usize) -> Rig {
        let rig = match kind % 2 {
            0 => RealfeelConfig::fig5_vanilla().rig(),
            _ => RcimConfig::fig7_redhawk_shielded().rig(),
        };
        Rig { sampling: Sampling { chunk: (1, 64), ..rig.sampling }, ..rig }
    }

    /// Everything a merged cell reports, as one comparable string.
    fn key(out: &RunOut) -> String {
        format!("{:?}", (&out.histogram, out.overruns, out.events, &out.traces))
    }

    /// Reseed when the fork carries a seed; otherwise run on as forked.
    fn prep(seed: &Option<u64>, sim: &mut Simulator, armory: &mut Armory) {
        if let Some(seed) = seed {
            reseed(seed, sim, armory);
        }
    }

    /// Warm-ups and cells drawn from raw group shapes: per group a rig
    /// kind and warm-up count (`shape`), and per cell its forks as
    /// `(raw, budget)`. `raw` picks one of the group's warm-ups and
    /// whether the fork reseeds.
    type RawGroup = (usize, Vec<Vec<(u64, u64)>>);
    type Shape = (Vec<(Rig, u64, u64)>, Vec<Vec<Fork<Option<u64>>>>);

    fn shape(raw: Vec<RawGroup>) -> Shape {
        let (mut warms, mut cells) = (Vec::new(), Vec::new());
        for (g, (shape, raw_cells)) in raw.into_iter().enumerate() {
            let (first, count) = (warms.len(), 1 + shape / 2);
            let warm = |i| (rig(shape), g as u64 * 7 + i as u64 + 1, 24 + 8 * i as u64);
            warms.extend((0..count).map(warm));
            let fork = |(raw, budget): (u64, u64)| {
                (first + (raw % count as u64) as usize, budget, (raw % 3 != 0).then_some(raw))
            };
            cells.extend(raw_cells.into_iter().map(|forks| forks.into_iter().map(fork).collect()));
        }
        (warms, cells)
    }

    /// The engine's contract, one simulation at a time: warm every
    /// simulation, run every fork in order, charge each warm-up's
    /// events to its first fork and merge each cell's forks.
    fn serial((warms, cells): &Shape, top_k: usize) -> Vec<String> {
        let warmed: Vec<Warm> = warms.iter().map(|(rig, s, n)| rig.warm(*s, *n)).collect();
        let mut charged = vec![false; warms.len()];
        let mut out = Vec::new();
        for forks in cells {
            let mut runs = Vec::new();
            for (w, budget, seed) in forks {
                let prep = |sim: &mut _, armory: &mut _| prep(seed, sim, armory);
                let mut run = warms[*w].0.fork(&warmed[*w], prep, *budget, top_k);
                if !std::mem::replace(&mut charged[*w], true) {
                    run.events += warmed[*w].events;
                }
                runs.push(run);
            }
            out.push(key(&merge(runs, top_k)));
        }
        out
    }

    /// [`run_groups`] on `workers` threads, each cell keyed by its index.
    fn engine((warms, cells): &Shape, top_k: usize, workers: u32) -> Vec<String> {
        let warms: Vec<_> = warms.iter().map(|(rig, s, n)| (rig, *s, *n)).collect();
        let mut out = Vec::new();
        sp_fleet::with_workers(workers, || {
            run_groups(&warms, cells.iter().cloned().enumerate(), top_k, prep, |i, run| {
                assert_eq!(i, out.len(), "cells finish in order");
                out.push(key(&run));
            })
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Whatever the group shapes (cells without forks, cells with
        /// several, warm-ups no fork uses) and worker count, the fleet
        /// engine reports exactly what the serial reference computes.
        #[test]
        fn run_groups_equals_the_serial_reference(
            raw in proptest::collection::vec(
                (
                    0usize..4,
                    proptest::collection::vec(
                        proptest::collection::vec((any::<u64>(), 8u64..40), 0..=3),
                        0..=3,
                    ),
                ),
                1..=3,
            ),
        ) {
            let shape = shape(raw);
            let expect = serial(&shape, 2);
            for workers in [1, 2, 8] {
                prop_assert_eq!(&engine(&shape, 2, workers), &expect, "workers={}", workers);
            }
        }
    }

    /// Streaming bounds what is alive: a fork starts only while fewer than
    /// the reorder window (`max(4 × workers, 16)`) of forks are unreduced,
    /// so no fork starts more than that window, plus one fork per worker of
    /// slack, ahead of the last finished cell. A batch engine that runs every
    /// fork before merging any would start all of them first.
    #[test]
    fn forks_stay_within_a_window_of_the_last_finished_cell() {
        let rig = rig(1);
        for workers in [2u32, 4] {
            let window = u64::from(4 * workers).max(16);
            let (started, finished, peak) =
                (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
            let prep = |seed: &u64, sim: &mut Simulator, armory: &mut Armory| {
                // A stale `finished` only overstates the lead; saturate in
                // case a worker's read runs ahead of its own `started`.
                let lead =
                    (started.fetch_add(1, Relaxed) + 1).saturating_sub(finished.load(Relaxed));
                peak.fetch_max(lead, Relaxed);
                reseed(seed, sim, armory);
            };
            let cells = (0..64u64).map(|i| (i, vec![(0, 4, i)]));
            sp_fleet::with_workers(workers, || {
                run_groups(&[(&rig, 1, 16)], cells, 0, prep, |_, _| {
                    finished.fetch_add(1, Relaxed);
                })
            });
            assert_eq!(finished.into_inner(), 64);
            let peak = peak.into_inner();
            assert!(peak <= window + u64::from(workers), "workers={workers}: lead {peak}");
        }
    }

    /// A fork through [`Rig::warm`] + [`Rig::fork`] starts at the warm
    /// simulator's clock and is bit-identical to continuing the warm
    /// simulator itself with the same fault armed at the fork point:
    /// histogram, overruns, events and captured windows alike. Rows: the
    /// fig-6 realfeel rig, both fault-matrix paths with a fault armed (a
    /// device fault and a task fault), and every modern variant's RCIM rig,
    /// whose knobs must all survive the fork.
    #[test]
    fn a_fork_is_bit_identical_to_continuing_the_warm_sim() {
        let fig6 = RealfeelConfig::fig6_redhawk_shielded();
        let matrix = |path: MatrixPath, shielded| {
            path.rig(KernelConfig::new(KernelVariant::RedHawk), shielded)
        };
        let (matrix_seed, modern_seed) = (0xFA17_5EED, 0xA0DE_125EED);
        let (storm, hog) = (Some("irq_storm"), Some("cpu_hog"));
        let mut table = vec![
            ("fig6 realfeel", fig6.rig(), fig6.seed, 1_000, 3_000, None),
            ("matrix realfeel", matrix(MatrixPath::Realfeel, false), matrix_seed, 400, 800, storm),
            ("matrix rcim", matrix(MatrixPath::Rcim, true), matrix_seed, 400, 800, hog),
        ];
        for v in ModernVariant::ALL {
            table.push((v.name(), v.rig(MatrixPath::Rcim), modern_seed, 300, 600, storm));
        }
        for (label, rig, seed, warm_samples, budget, fault) in table {
            let arm = |sim: &mut Simulator, armory: &mut Armory| {
                if let Some(name) = fault {
                    armory.arm(sim, name).expect("arm");
                }
            };
            let warm = rig.warm(seed, warm_samples);
            let at = warm.sim.now();
            let prep = |sim: &mut Simulator, armory: &mut Armory| {
                assert_eq!(sim.now(), at, "{label}: the fork starts at the warm clock");
                arm(sim, armory);
            };
            let fork = rig.fork(&warm, prep, budget, 2);

            let Warm { mut sim, mut armory, pid, .. } = warm;
            arm(&mut sim, &mut armory);
            let continued = rig.sample(sim, pid, budget, 2);
            assert!(continued.histogram.count() >= warm_samples + budget, "{label}");
            assert!(!continued.traces.is_empty(), "{label}: no window captured");
            assert_eq!(key(&fork), key(&continued), "{label}");
        }
    }
}
