//! The measured-path study rig: realfeel on the RTC (Figures 5–6) and the
//! RCIM `ioctl()` waiter (Figure 7), as run by the figures, both fault
//! matrices and the sweep. It owns the three decisions they share:
//!
//! 1. **Assembly** — a [`Rig`] is everything that shapes a measured
//!    simulation except its seed, and [`Rig::build`] is the one builder.
//! 2. **Sampling** — [`Rig::collect`] is the one sample-collection loop; its
//!    [`Sampling`] data decides where `run_for` stops, so it decides the
//!    histogram.
//! 3. **Warm → fork → merge** — [`run_groups`] warms checkpoints, forks cells
//!    off them and merges in index order. Each fork reports its events as
//!    the delta since its restore; the warm-up's events are charged once, to
//!    the first fork of that checkpoint. The per-fork step is the caller's:
//!    [`reseed`] for shards and sweep cells, a fault arm for matrix cells.

use crate::shard::{effective_shards, shard_seeds, split_samples};
use sp_fleet::run_indexed;
use simcore::Nanos;
use sp_core::ShieldPlan;
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_inject::{Armory, FaultSpec};
use sp_kernel::devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_kernel::{
    Checkpoint, KernelConfig, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
    WorstCaseTrace,
};
use sp_metrics::LatencyHistogram;
use sp_workloads::{stress_kernel, ttcp_ethernet_profile, x11perf_driver, StressDevices};

/// The measured interrupt source. It also fixes the machine and the
/// background load, as in the paper: each path has its own testbed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// §6.1: RTC periodic interrupts at `hz`, waited on with `read()`, on
    /// the dual P3 under stress-kernel.
    Rtc { hz: u32 },
    /// §6.3: the RCIM periodic timer, waited on with `ioctl()`, on the dual
    /// 2 GHz P4 under stress-kernel, X11perf and a ttcp stream. `pcie` swaps
    /// in the modern PCIe-attached card.
    Rcim { period: Nanos, pcie: bool, bkl_free: bool },
}

impl Source {
    /// One interrupt period; a healthy waiter samples once per period.
    fn period(self) -> Nanos {
        match self {
            Source::Rtc { hz } => Nanos(1_000_000_000 / hz as u64),
            Source::Rcim { period, .. } => period,
        }
    }
}

/// Where [`Rig::collect`] stops. The starvation deadline is
/// `deadline_periods` source periods per requested sample, counted from the
/// call; each `run_for` chunk covers the remaining samples' periods,
/// clamped to `chunk`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sampling {
    pub(crate) deadline_periods: f64,
    pub(crate) chunk: (u64, u64),
}

/// Everything that shapes a measured simulation except its seed. Two builds
/// of one rig on one seed are interchangeable, the property warm-checkpoint
/// forking relies on.
#[derive(Debug, Clone)]
pub(crate) struct Rig {
    pub(crate) kernel: KernelConfig,
    pub(crate) source: Source,
    /// The measured task's name.
    pub(crate) task: &'static str,
    /// The measured CPU: the measured task is pinned to it, and without a
    /// shield the measured interrupt is routed to it.
    pub(crate) cpu: Option<CpuId>,
    /// Applied after start with the measured task and interrupt bound in.
    pub(crate) shield: Option<ShieldPlan>,
    /// Faults registered disarmed in every build, so a checkpoint taken in
    /// one cell restores into any sibling cell's simulator. A disarmed
    /// injector schedules no events, so it costs the hot loop nothing.
    pub(crate) faults: Vec<FaultSpec>,
    pub(crate) sampling: Sampling,
}

/// One run's (or one merged cell's) measurements.
pub(crate) struct RunOut {
    pub(crate) histogram: LatencyHistogram,
    /// Periods that passed without a fresh sample.
    pub(crate) overruns: u64,
    pub(crate) events: u64,
    /// Worst-case windows captured by the flight recorder, worst first.
    pub(crate) traces: Vec<WorstCaseTrace>,
}

/// A warmed simulation distilled to what a fork needs. Forks borrow it, so
/// thousands of cells share one copy-on-write checkpoint.
pub(crate) struct Warm {
    /// The seed the warm simulation was built on; forks rebuild on it.
    seed: u64,
    ck: Checkpoint,
    /// Events the warm-up dispatched.
    pub(crate) events: u64,
}

impl Rig {
    /// Build a ready-to-sample simulation on `seed`: devices and load, the
    /// fault arsenal, the measured waiter (watched), started and isolated.
    pub(crate) fn build(&self, seed: u64) -> (Simulator, Armory, Pid) {
        let machine = match self.source {
            Source::Rtc { .. } => MachineConfig::dual_xeon_p3(),
            Source::Rcim { .. } => MachineConfig::dual_xeon_p4_2ghz(),
        };
        let mut sim = Simulator::new(machine, self.kernel.clone(), seed);
        let (device, api) = match self.source {
            Source::Rtc { hz } => {
                let rtc = sim.add_device(RtcDevice::new(hz));
                // §6.1: no generated Ethernet load, but the box stays on a
                // live network segment handling broadcast traffic.
                let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
                    Nanos::from_ms(20),
                ))));
                let disk = sim.add_device(DiskDevice::new());
                stress_kernel(&mut sim, StressDevices { nic, disk });
                (rtc, WaitApi::ReadDevice)
            }
            Source::Rcim { period, pcie, bkl_free } => {
                let card = if pcie { RcimDevice::modern(period) } else { RcimDevice::new(period) };
                let rcim = sim.add_device(card);
                // §6.3 load: ttcp across a real 10BaseT link + graphics.
                let nic = sim.add_device(NicDevice::new(Some(ttcp_ethernet_profile())));
                let disk = sim.add_device(DiskDevice::new());
                sim.add_device(GpuDevice::x11perf());
                stress_kernel(&mut sim, StressDevices { nic, disk });
                x11perf_driver(&mut sim);
                (rcim, WaitApi::IoctlWait { driver_bkl_free: bkl_free })
            }
        };

        let mut armory = Armory::new();
        for f in &self.faults {
            armory.register(&mut sim, f).expect("fault registers");
        }

        let prog = Program::forever(vec![Op::WaitIrq { device, api }]);
        let mut spec = TaskSpec::new(self.task, SchedPolicy::fifo(90), prog).mlockall();
        if let Some(cpu) = self.cpu {
            spec = spec.pinned(CpuMask::single(cpu));
        }
        let pid = sim.spawn(spec);
        sim.watch_latency(pid);
        sim.start();

        match (&self.shield, self.cpu) {
            (Some(plan), _) => {
                plan.clone().bind_task(pid).bind_irq(device).apply(&mut sim).expect("shield plan");
            }
            (None, Some(cpu)) => {
                sim.set_irq_affinity(device, CpuMask::single(cpu)).expect("irq affinity");
            }
            (None, None) => {}
        }
        (sim, armory, pid)
    }

    /// Advance `sim` until `pid` holds at least `samples` latency samples in
    /// total (samples restored from a checkpoint count).
    pub(crate) fn collect(&self, sim: &mut Simulator, pid: Pid, samples: u64) {
        let period = self.source.period();
        let (lo, hi) = self.sampling.chunk;
        let deadline = sim.now() + period.scale(self.sampling.deadline_periods * samples as f64);
        loop {
            let have = sim.obs.latencies(pid).len() as u64;
            if have >= samples {
                break;
            }
            assert!(sim.now() < deadline, "{} starved: {have} samples", self.task);
            // Chunking never affects the trajectory; tracking the remaining
            // budget keeps small runs from overshooting by a whole chunk.
            sim.run_for(period * (samples - have).clamp(lo, hi));
        }
    }

    /// Build on `seed`, run to `samples` samples of steady state, checkpoint.
    /// A pure function of `(rig, seed, samples)`.
    pub(crate) fn warm(&self, seed: u64, samples: u64) -> Warm {
        let (mut sim, _armory, pid) = self.build(seed);
        self.collect(&mut sim, pid, samples);
        Warm { seed, ck: sim.checkpoint(), events: sim.events_dispatched() }
    }

    /// Fork one run off `warm`: rebuild the shell, restore, apply the
    /// caller's per-fork step, then collect `budget` more samples. The
    /// output's events are the delta since the restore.
    pub(crate) fn fork(
        &self,
        warm: &Warm,
        prep: impl FnOnce(&mut Simulator, &mut Armory),
        budget: u64,
        top_k: usize,
    ) -> RunOut {
        let (mut sim, mut armory, pid) = self.build(warm.seed);
        sim.restore(&warm.ck);
        prep(&mut sim, &mut armory);
        self.sample(sim, pid, budget, top_k)
    }

    /// Arm the recorder (`top_k > 0`; pure observation), collect `budget`
    /// samples past the current count and distill the run. Arming here,
    /// after any restore, keeps each fork's windows on its own stretch.
    pub(crate) fn sample(&self, mut sim: Simulator, pid: Pid, budget: u64, top_k: usize) -> RunOut {
        if top_k > 0 {
            sim.arm_flight(top_k);
        }
        let (t0, events0) = (sim.now(), sim.events_dispatched());
        let had = sim.obs.latencies(pid).len() as u64;
        self.collect(&mut sim, pid, had + budget);

        let histogram: LatencyHistogram = sim.obs.latencies(pid).iter().copied().collect();
        let expected = sim.now().since(t0).as_ns() / self.source.period().as_ns();
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

/// Warm checkpoints and the forks taken from them, grouped into cells. A
/// cell's forks merge, in order, into one output.
pub(crate) struct Group<C> {
    pub(crate) rig: Rig,
    /// `(seed, warm-up samples)` per checkpoint.
    pub(crate) warms: Vec<(u64, u64)>,
    /// Per cell, its forks: `(checkpoint index, sample budget, fork data)`.
    pub(crate) cells: Vec<Vec<(usize, u64, C)>>,
}

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
    let (seeds, budgets) = (shard_seeds(seed, shards), split_samples(samples, shards));
    let group = Group {
        rig,
        warms: vec![(seed, (samples / shards as u64 / 8).clamp(256, 4_096))],
        cells: seeds.into_iter().zip(budgets).map(|(s, b)| vec![(0, b, s)]).collect(),
    };
    run_groups(&[group], top_k, reseed, |out| out).remove(0)
}

/// Run every group: phase A warms all checkpoints in one fleet batch, phase
/// B runs all forks in a second, phase C merges each group's cells in index
/// order. Bit-identical whatever the worker count. `finish` maps each cell
/// as soon as it is merged, so a caller that keeps only a summary never
/// holds every cell's histogram at once.
pub(crate) fn run_groups<C: Sync, T>(
    groups: &[Group<C>],
    top_k: usize,
    prep: impl Fn(&C, &mut Simulator, &mut Armory) + Sync,
    mut finish: impl FnMut(RunOut) -> T,
) -> Vec<Vec<T>> {
    // Flatten every group's checkpoints and forks; a fork names its
    // checkpoint by flat index.
    let (mut warm_at, mut fork_at) = (Vec::new(), Vec::new());
    for g in groups {
        let first = warm_at.len();
        let forks = g.cells.iter().flatten();
        fork_at.extend(forks.map(|(w, budget, data)| (&g.rig, first + w, *budget, data)));
        warm_at.extend(g.warms.iter().map(|&(seed, samples)| (&g.rig, seed, samples)));
    }

    let warms = run_indexed(warm_at.len(), |j| {
        let (rig, seed, samples) = warm_at[j];
        rig.warm(seed, samples)
    });
    let forks = run_indexed(fork_at.len(), |j| {
        let (rig, w, budget, data) = fork_at[j];
        rig.fork(&warms[w], |sim, armory| prep(data, sim, armory), budget, top_k)
    });

    let mut charged = vec![false; warms.len()];
    let mut runs = forks.into_iter().zip(&fork_at).map(|(mut out, &(_, w, ..))| {
        if !std::mem::replace(&mut charged[w], true) {
            out.events += warms[w].events;
        }
        out
    });
    let mut merge_cell = |forks: &Vec<_>| finish(merge(runs.by_ref().take(forks.len()), top_k));
    groups.iter().map(|g| g.cells.iter().map(&mut merge_cell).collect()).collect()
}

/// Merge runs in order: histograms and counters add, captured windows merge
/// into the global top-`top_k`.
pub(crate) fn merge(runs: impl IntoIterator<Item = RunOut>, top_k: usize) -> RunOut {
    let mut merged =
        RunOut { histogram: LatencyHistogram::new(), overruns: 0, events: 0, traces: Vec::new() };
    let mut per_run = Vec::new();
    for run in runs {
        merged.histogram.merge(&run.histogram);
        merged.overruns += run.overruns;
        merged.events += run.events;
        per_run.push(run.traces);
    }
    merged.traces = crate::flight::merge_top(per_run, top_k);
    merged
}
