//! Layer probes for the traced pass: timed calls into one layer's public
//! functions from outside.
//!
//! The fork probe runs at the workload's own operating point (its simulator
//! configs); the others run at a fixed operating point and price the layer
//! the same way on every workload, so a change to a layer the workload does
//! not use shows up as "no change" there.

use crate::builders::{self, run_events, SimConfig};
use crate::stats::{median, quantile};
use crate::workloads::derive_seed;
use simcore::{DurationDist, Instant as SimInstant, Nanos, SimRng, WheelQueue};
use sp_autopilot::{Autopilot, PlantBindings};
use sp_experiments::{run_realfeel_with_flight, AutopilotConfig, RealfeelConfig};
use sp_metrics::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics as `(name, value)`, units fixed by `BENCHMARK.json`.
pub type Metrics = Vec<(&'static str, f64)>;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

const PROBE_EVENTS: u64 = 20_000;
const FORK_SAMPLES: usize = 24;

/// Build, shield, run, checkpoint, fork, restore, reseed and run again, on
/// each of the workload's simulator configs until every step has at least
/// `FORK_SAMPLES` timings.
pub fn fork_probe(configs: &[SimConfig], seed: u64) -> Metrics {
    let (mut build, mut shield, mut ckpt, mut restore, mut reseed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut straight, mut post) = (Vec::new(), Vec::new());
    let rounds = FORK_SAMPLES.div_ceil(configs.len());
    for round in 0..rounds {
        for cfg in configs {
            let t = Instant::now();
            let mut shell = cfg.build();
            build.push(us(t));
            let shielded = !matches!(shell.shield, builders::Shield::None);
            let t = Instant::now();
            shell.apply_shield();
            if shielded {
                shield.push(us(t));
            }
            let t = Instant::now();
            let n = run_events(&mut shell.sim, PROBE_EVENTS);
            straight.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
            let t = Instant::now();
            let ck = shell.sim.checkpoint();
            ckpt.push(us(t));

            let mut fork = cfg.build().shielded();
            let t = Instant::now();
            fork.sim.restore(&ck);
            restore.push(us(t));
            let t = Instant::now();
            fork.sim.reseed(derive_seed(seed, round as u64));
            reseed.push(us(t));
            let t = Instant::now();
            let n = run_events(&mut fork.sim, PROBE_EVENTS);
            post.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
        }
    }
    vec![
        ("kernel.run.ns_per_event", median(&straight)),
        ("kernel.post_restore.ns_per_event", median(&post)),
        ("kernel.build.us.p50", median(&build)),
        ("kernel.build.us.p90", quantile(&build, 0.9)),
        ("kernel.checkpoint.us.p50", median(&ckpt)),
        ("kernel.restore.us.p50", median(&restore)),
        ("kernel.restore.us.p90", quantile(&restore, 0.9)),
        ("kernel.reseed.us.p50", median(&reseed)),
        ("core.shield_apply.us.p50", median(&shield)),
    ]
}

/// Flight-recorder price: paired realfeel runs with the recorder disarmed
/// and armed (top 3), alternating which goes first; median per-pair delta.
pub fn flight_probe(seed: u64) -> Metrics {
    let cfg = RealfeelConfig::fig6_redhawk_shielded()
        .with_samples(40_000)
        .with_seed(derive_seed(seed, 11));
    let timed = |top_k| {
        let t = Instant::now();
        let (r, _) = run_realfeel_with_flight(&cfg, top_k);
        t.elapsed().as_secs_f64() * 1e9 / r.events as f64
    };
    let deltas: Vec<f64> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                let plain = timed(0);
                timed(3) - plain
            } else {
                let armed = timed(3);
                armed - timed(0)
            }
        })
        .collect();
    vec![("kernel.flight.armed_delta.ns_per_event", median(&deltas))]
}

/// Controller cost: the canonical closed loop for 128 control windows,
/// timing each window's `run_until` and each `Autopilot::step`.
pub fn autopilot_probe(seed: u64) -> Metrics {
    const WINDOWS: usize = 128;
    let cfg = AutopilotConfig { seed: derive_seed(seed, 9), ..AutopilotConfig::canonical() };
    let ctl = cfg.controller();
    let period = ctl.period;
    let (mut sim, svc) = builders::plant(&cfg);
    let plant = PlantBindings {
        server: svc.server,
        server_irq: svc.device,
        server_cpu: svc.server_cpu,
        best_effort: svc.best_effort.clone(),
    };
    let mut ap = Autopilot::new(ctl, plant).expect("controller config validates");
    ap.engage(&mut sim).expect("engage actuates");
    let mut tick = sim.now();
    let (mut window, mut step) = (Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        tick += period;
        let t = Instant::now();
        sim.run_until(tick);
        window.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        ap.step(&mut sim).expect("controller steps");
        step.push(us(t));
    }
    vec![
        ("autopilot.step.us.p50", median(&step)),
        ("autopilot.step.us.p90", quantile(&step, 0.9)),
        ("autopilot.window_run.ms.p50", median(&window)),
        ("autopilot.windows", WINDOWS as f64),
        ("autopilot.reconfigs", ap.telemetry().reconfigs as f64),
    ]
}

/// Median over five rounds of `f`'s per-operation nanoseconds.
fn rounds(f: impl Fn(u64) -> f64) -> f64 {
    median(&(0..5).map(f).collect::<Vec<_>>())
}

/// Timing-wheel push+pop at ~4k pending (the simulator's live-timer
/// operating point), cancel at ~8k pending, and batched bounded-Pareto
/// draws.
pub fn simcore_probe() -> Metrics {
    let push_pop = rounds(|round| {
        const LIVE: usize = 4_096;
        const OPS: usize = 200_000;
        let mut rng = SimRng::new(0xBEC4 + round);
        let mut q = WheelQueue::new();
        for _ in 0..LIVE {
            q.push(SimInstant(rng.next_u64() % 12_000_000), 0u32);
        }
        let t = Instant::now();
        let mut floor = 0;
        for _ in 0..OPS {
            let (at, _) = q.pop().expect("queue kept full");
            floor = floor.max(at.as_ns());
            q.push(SimInstant(floor + rng.next_u64() % 4_000_000), 0u32);
        }
        t.elapsed().as_secs_f64() * 1e9 / OPS as f64
    });
    let cancel = rounds(|round| {
        const LIVE: usize = 8_192;
        let mut rng = SimRng::new(0xCA9C + round);
        let mut q = WheelQueue::new();
        let keys: Vec<_> =
            (0..LIVE).map(|_| q.push(SimInstant(rng.next_u64() % 12_000_000), 0u32)).collect();
        let t = Instant::now();
        let hits = keys.iter().step_by(2).filter(|k| q.cancel(**k)).count();
        let ns = t.elapsed().as_secs_f64() * 1e9 / (LIVE / 2) as f64;
        assert_eq!(hits, LIVE / 2);
        ns
    });
    let pareto = rounds(|round| {
        const DRAWS: usize = 1 << 20;
        let dist =
            DurationDist::bounded_pareto(Nanos::from_us(2), Nanos::from_ms(5), 1.3).prepare();
        let mut rng = SimRng::new(0x9A2E + round);
        let mut buf = vec![Nanos::ZERO; 32];
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..DRAWS / buf.len() {
            dist.sample_into(&mut rng, &mut buf);
            acc = acc.wrapping_add(buf[0].as_ns());
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e9 / DRAWS as f64
    });
    vec![
        ("simcore.queue.push_pop.ns", push_pop),
        ("simcore.queue.cancel.ns", cancel),
        ("simcore.dist.pareto.ns", pareto),
    ]
}

/// `LatencyHistogram::record` across the full magnitude range, and `merge`
/// of a histogram filled that way into an accumulator.
pub fn metrics_probe() -> Metrics {
    const OPS: usize = 400_000;
    let values = |round: u64| -> Vec<u64> {
        let mut rng = SimRng::new(0x4157 + round);
        (0..OPS).map(|_| rng.next_u64() >> (rng.next_u64() % 40)).collect()
    };
    let record = rounds(|round| {
        let values = values(round);
        let mut h = LatencyHistogram::new();
        let t = Instant::now();
        for &v in &values {
            h.record(Nanos(v));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / OPS as f64;
        assert_eq!(h.count(), OPS as u64);
        ns
    });
    let merge = rounds(|round| {
        let mut acc = LatencyHistogram::new();
        let mut h = LatencyHistogram::new();
        for v in values(round) {
            h.record(Nanos(v));
        }
        const MERGES: usize = 1_000;
        let t = Instant::now();
        for _ in 0..MERGES {
            acc.merge(black_box(&h));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / MERGES as f64;
        assert_eq!(acc.count(), (MERGES * OPS) as u64);
        ns
    }) / 1e3;
    vec![("metrics.record.ns", record), ("metrics.merge.us", merge)]
}

/// `sp-fleet` overhead per no-op job through the injector on two workers.
pub fn fleet_probe() -> Metrics {
    const JOBS: usize = 8_192;
    let ns = rounds(|_| {
        let cfg = sp_fleet::PoolConfig::auto(2);
        let t = Instant::now();
        let (out, _) = sp_fleet::run_with(cfg, JOBS, |i| i as u64);
        let ns = t.elapsed().as_secs_f64() * 1e9 / JOBS as f64;
        assert_eq!(out.len(), JOBS);
        ns
    });
    vec![("fleet.dispatch.ns_per_job", ns)]
}
