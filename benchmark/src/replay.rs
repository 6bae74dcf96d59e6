//! Public-call replays of the two studies whose layer boundaries sit inside
//! private functions: the sweep (`run_sweep`) and the closed-loop autopilot
//! run (`run_autopilot`).
//!
//! Each replay makes the same calls in the same order as the study, with a
//! span around every call into a layer, and returns the same output key. A
//! replay only counts when that key equals the real entry point's for the
//! same seed, which the benchmark checks on every traced run.

use crate::builders;
use crate::trace::{self, span, within};
use crate::workloads::{sweep_warm_configs, PlantRunKey};
use simcore::Nanos;
use sp_autopilot::{Autopilot, PlantBindings};
use sp_experiments::{
    AutopilotConfig, RealfeelConfig, SweepConfig, SweepGroupReport, SweepReport, SweepWorstCell,
};
use sp_fleet::PoolConfig;
use sp_kernel::{AnyDevice, Checkpoint, Pid, Simulator};
use sp_metrics::{LatencyHistogram, LatencySummary};

/// Advance `sim` until `pid` holds `samples` latency samples, in exactly
/// the realfeel study's `run_for` chunks.
fn collect_samples(sim: &mut Simulator, pid: Pid, period: Nanos, samples: u64) {
    let deadline = sim.now() + period.scale(4.0 * samples as f64);
    loop {
        let have = sim.obs.latencies(pid).len() as u64;
        if have >= samples {
            break;
        }
        assert!(sim.now() < deadline, "realfeel starved: {have} samples");
        sim.run_for(period * (samples - have).clamp(1_024, 32_768));
    }
}

struct Warm {
    ck: Checkpoint,
    pid: Pid,
    events: u64,
}

struct Cell {
    group: usize,
    seed: u64,
    histogram: LatencyHistogram,
    overruns: u64,
    events: u64,
}

fn period(cfg: &RealfeelConfig) -> Nanos {
    Nanos(1_000_000_000 / cfg.rtc_hz as u64)
}

fn warm(cfg: &RealfeelConfig, warm_samples: u64) -> Warm {
    span("experiments", "warm", || {
        let mut shell = span("kernel", "build", || builders::realfeel(cfg, cfg.seed));
        span("core", "shield_apply", || shell.apply_shield());
        let pid = shell.pid;
        span("kernel", "run", || {
            collect_samples(&mut shell.sim, pid, period(cfg), warm_samples.max(1))
        });
        let ck = span("kernel", "checkpoint", || shell.sim.checkpoint());
        Warm { ck, pid, events: shell.sim.events_dispatched() }
    })
}

fn fork(cfg: &RealfeelConfig, warm: &Warm, group: usize, seed: u64, samples: u64) -> Cell {
    span("experiments", "cell", || {
        let mut shell = span("kernel", "build", || builders::realfeel(cfg, cfg.seed));
        span("core", "shield_apply", || shell.apply_shield());
        assert_eq!(shell.pid, warm.pid, "warm and fork builds agree on the measured task");
        let sim = &mut shell.sim;
        span("kernel", "restore", || sim.restore(&warm.ck));
        span("kernel", "reseed", || sim.reseed(seed));
        sim.obs.reset_samples();
        let forked_at = sim.now();
        let fork_events = sim.events_dispatched();
        span("kernel", "run", || collect_samples(sim, warm.pid, period(cfg), samples));
        let histogram = span("metrics", "record", || {
            let mut h = LatencyHistogram::new();
            for &l in sim.obs.latencies(warm.pid) {
                h.record(l);
            }
            h
        });
        let expected = sim.now().since(forked_at).as_ns() / period(cfg).as_ns();
        let overruns = expected.saturating_sub(histogram.count());
        Cell { group, seed, histogram, overruns, events: sim.events_dispatched() - fork_events }
    })
}

/// Replay `run_sweep`: warm each group once, stream every cell through the
/// fleet, fold in cell order. Returns the report `run_sweep` returns.
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let warm_cfgs = sweep_warm_configs(cfg);
    let warms: Vec<Warm> = warm_cfgs.iter().map(|w| warm(w, cfg.warm_samples)).collect();

    struct Agg {
        histogram: LatencyHistogram,
        cells: u64,
        overruns: u64,
        events: u64,
    }
    let mut groups: Vec<Agg> = cfg
        .groups
        .iter()
        .map(|_| Agg { histogram: LatencyHistogram::new(), cells: 0, overruns: 0, events: 0 })
        .collect();
    let mut worst: Vec<(u64, usize, u64)> = Vec::new();

    let cells = span("fleet", "run_stream", || {
        let batch = trace::current();
        sp_fleet::run_stream(
            PoolConfig::auto(cfg.workers.max(1)),
            cfg.cells(),
            |cell, _| {
                within(batch, || {
                    let w = &warm_cfgs[cell.group];
                    fork(w, &warms[cell.group], cell.group, cell.seed, cfg.samples_per_cell)
                })
            },
            |_, out: Cell| {
                within(batch, || {
                    span("metrics", "merge", || {
                        let agg = &mut groups[out.group];
                        agg.histogram.merge(&out.histogram);
                        agg.cells += 1;
                        agg.overruns += out.overruns;
                        agg.events += out.events;
                        worst.push((out.histogram.max().as_ns(), out.group, out.seed));
                        worst.sort_by_key(|cell| std::cmp::Reverse(cell.0));
                        worst.truncate(cfg.top_worst);
                    })
                })
            },
        )
        .0 as u64
    });

    let warm_events: u64 = warms.iter().map(|w| w.events).sum();
    let cell_events: u64 = groups.iter().map(|g| g.events).sum();
    let warm_unique = warms.len() as u64;
    let warm_logical_hits = cells.saturating_sub(warm_unique);
    SweepReport {
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
        warm_logical_hit_rate: if cells > 0 {
            warm_logical_hits as f64 / cells as f64
        } else {
            0.0
        },
        warm_events,
        total_events: cell_events + warm_events,
    }
}

/// Replay `run_autopilot`: build the plant, engage the controller, then
/// alternate `sim.run_until(tick)` and `Autopilot::step` to the end of the
/// day. Returns the run's comparable key and the kernel events it
/// dispatched.
pub fn autopilot(cfg: &AutopilotConfig) -> (u64, u64) {
    let (key, events) = span("experiments", "plant_run", || plant_run(cfg));
    (key.digest(), events)
}

pub fn plant_run(cfg: &AutopilotConfig) -> (PlantRunKey, u64) {
    let ctl = cfg.controller();
    let (mut sim, svc) = span("kernel", "build", || builders::plant(cfg));
    let period = ctl.period;
    let plant = PlantBindings {
        server: svc.server,
        server_irq: svc.device,
        server_cpu: svc.server_cpu,
        best_effort: svc.best_effort.clone(),
    };
    let mut ap = Autopilot::new(ctl, plant).expect("controller config validates");
    span("autopilot", "engage", || ap.engage(&mut sim)).expect("engage actuates");
    let end = sim.now() + Nanos::from_secs_f64(cfg.run_secs());
    let mut tick = sim.now() + period;
    while tick <= end {
        span("kernel", "run", || sim.run_until(tick));
        span("autopilot", "step", || ap.step(&mut sim)).expect("controller steps");
        tick += period;
    }
    span("kernel", "run", || sim.run_until(end));

    let latency = span("metrics", "record", || {
        let mut h = LatencyHistogram::new();
        for &l in sim.obs.latencies(svc.server) {
            h.record(l);
        }
        LatencySummary::from_histogram(&h)
    });
    let be_cpu: Nanos = svc.best_effort.iter().map(|&p| sim.task(p).cpu_time).sum();
    let AnyDevice::Traffic(traffic) = sim.device(svc.device) else {
        panic!("request plant registers a traffic device");
    };
    let key = PlantRunKey {
        trace: ap.trace(),
        latency,
        be_cpu_secs: be_cpu.as_secs_f64(),
        requests: traffic.requests,
        irqs_fired: traffic.irqs_fired,
        missed_irqs: traffic.missed,
    };
    (key, sim.events_dispatched())
}
