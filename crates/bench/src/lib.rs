//! # sp-bench — reproduction harness
//!
//! `figure <fig1..fig7>` regenerates one paper figure, ablation binaries
//! cover the design choices the paper calls out, and `reproduce_all` runs
//! the whole suite and rewrites the measured columns of `EXPERIMENTS.md`.
//!
//! Every binary accepts an optional scale factor as its first argument
//! (after the figure id for `figure`; default 1.0; also settable via
//! `SP_SCALE`): sample counts and iteration counts multiply by it.

use simcore::Nanos;
use sp_experiments::{DeterminismResult, RcimResult, RealfeelResult};

/// Resolve the run scale: first CLI argument, then `SP_SCALE`, then 1.0. A
/// leading figure id (`figure fig5 0.1`) is skipped.
pub fn scale_from_args() -> f64 {
    let mut args = std::env::args().skip(1).peekable();
    args.next_if(|a| a.starts_with("fig"));
    let from_arg = args.next().and_then(|a| a.parse::<f64>().ok());
    let from_env = std::env::var("SP_SCALE").ok().and_then(|v| v.parse::<f64>().ok());
    let scale = from_arg.or(from_env).unwrap_or(1.0);
    assert!(scale > 0.0, "scale must be positive");
    scale
}

/// Resolve the shard count for the latency figures: `--shards <n>` argument,
/// then `SP_SHARDS`, then `fallback`. Runs are bit-for-bit reproducible per
/// `(seed, shards)` pair; see `sp_experiments::shard`.
pub fn shards_from_args(fallback: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    let from_arg = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok());
    let from_env = std::env::var("SP_SHARDS").ok().and_then(|v| v.parse::<u32>().ok());
    from_arg.or(from_env).unwrap_or(fallback).max(1)
}

/// Number of hardware threads, for the default shard count of deep runs.
pub fn available_threads() -> u32 {
    std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1)
}

/// Resolve the fleet worker-thread count: `--workers <n>` argument, then
/// `SP_WORKERS`, then every hardware thread. A `--workers` argument is
/// applied by setting `SP_WORKERS`, so fan-outs on *any* thread (fleet
/// workers included) agree on the count. Worker count never changes results
/// — only wall-clock — so this is a throughput knob, not part of the
/// reproducibility key.
pub fn workers_from_args() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    let from_arg = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok());
    if let Some(w) = from_arg {
        std::env::set_var("SP_WORKERS", w.max(1).to_string());
    }
    sp_fleet::default_workers()
}

/// Resolve the flight-recorder top-K knob: `--topk <n>` argument, then
/// `SP_TRACE_TOPK`, then `fallback`. `0` disables worst-case trace capture.
pub fn topk_from_args(fallback: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let from_arg = args
        .iter()
        .position(|a| a == "--topk")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let from_env = std::env::var("SP_TRACE_TOPK").ok().and_then(|v| v.parse::<usize>().ok());
    from_arg.or(from_env).unwrap_or(fallback)
}

/// Worst-case trace artifacts: Perfetto JSON files plus the one-screen
/// "why was the max the max" cause-chain report.
pub mod flightout {
    use simcore::flight::FlightEvent;
    use sp_experiments::trace_meta;
    use sp_kernel::WorstCaseTrace;
    use sp_metrics::{perfetto, render_cause_chain};

    /// Number of per-CPU tracks a window needs: one per CPU that appears in
    /// it (the exporter adds the `global` track itself).
    fn track_cpus(events: &[FlightEvent]) -> u32 {
        events.iter().filter_map(|e| e.cpu).max().map_or(1, |c| c + 1)
    }

    /// Serialize one captured worst-case window as Perfetto `trace_event`
    /// JSON, annotated with the experiment label and the sample's headline
    /// numbers.
    pub fn perfetto_json(label: &str, trace: &WorstCaseTrace) -> String {
        let annotations = [
            ("experiment", label.to_string()),
            ("wake_to_user_latency", trace.latency.to_string()),
            ("pid", trace.pid.0.to_string()),
            ("window_truncated", trace.truncated.to_string()),
        ];
        perfetto::export_flight(label, track_cpus(&trace.events), &trace.events, &annotations)
    }

    /// Write `worst_case_trace_<id>.json` for the worst captured window and
    /// return the rendered cause chain for the terminal. `traces` is a
    /// merged top-K set, worst first; only the worst is exported (the JSON
    /// artifact explains *the* max), the chain mentions how many runners-up
    /// were captured.
    pub fn emit_worst_case(
        id: &str,
        label: &str,
        traces: &[WorstCaseTrace],
    ) -> std::io::Result<Option<String>> {
        let Some(worst) = traces.first() else {
            return Ok(None);
        };
        let path = format!("worst_case_trace_{id}.json");
        std::fs::write(&path, perfetto_json(label, worst))?;
        let mut chain = render_cause_chain(&trace_meta(label, worst), &worst.events);
        if worst.truncated {
            chain.push_str("  (window truncated: the ring had already evicted its start)\n");
        }
        if traces.len() > 1 {
            chain.push_str(&format!(
                "  ({} runner-up window(s) captured; worst exported to {path})\n",
                traces.len() - 1
            ));
        } else {
            chain.push_str(&format!("  (worst window exported to {path})\n"));
        }
        Ok(Some(chain))
    }
}

/// In-process microbenchmarks of the two data structures on the simulator's
/// per-event path, for `BENCH_simulator.json`. Self-timed with wall-clock
/// medians — coarser than the criterion benches but dependency-free and cheap
/// enough to run on every `reproduce_all` invocation.
pub mod microbench {
    use simcore::{EventQueue, Instant, SimRng, WheelQueue};
    use sp_metrics::LatencyHistogram;

    fn median_ns(mut runs: Vec<f64>) -> f64 {
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[runs.len() / 2]
    }

    /// ns per push+pop over a queue kept at ~4k pending events. Pending
    /// times spread over ~12 ms with ~4 ms re-arm offsets — the simulator's
    /// live-timer operating point (ticks, device timers and sleeps land
    /// µs–ms ahead), which is what the timing wheel's bucket width targets.
    pub fn event_queue_push_pop_ns() -> f64 {
        const LIVE: usize = 4_096;
        const OPS: usize = 200_000;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xBEC4 + round);
                let mut q = EventQueue::new();
                for _ in 0..LIVE {
                    q.push(Instant(rng.next_u64() % 12_000_000), 0u32);
                }
                let t = std::time::Instant::now();
                let mut floor = 0;
                for _ in 0..OPS {
                    let (at, _) = q.pop().expect("queue kept full");
                    floor = floor.max(at.as_ns());
                    q.push(Instant(floor + rng.next_u64() % 4_000_000), 0u32);
                }
                t.elapsed().as_secs_f64() * 1e9 / OPS as f64
            })
            .collect();
        median_ns(runs)
    }

    /// ns per cancel on a queue where every second pending event is removed
    /// (the timer re-arm pattern that motivated the indexed heap).
    pub fn event_queue_cancel_ns() -> f64 {
        const LIVE: usize = 8_192;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xCA9C + round);
                let mut q = EventQueue::new();
                let keys: Vec<_> = (0..LIVE)
                    .map(|_| q.push(Instant(rng.next_u64() % 12_000_000), 0u32))
                    .collect();
                let t = std::time::Instant::now();
                let mut hits = 0usize;
                for k in keys.iter().step_by(2) {
                    hits += q.cancel(*k) as usize;
                }
                let ns = t.elapsed().as_secs_f64() * 1e9 / (LIVE / 2) as f64;
                assert_eq!(hits, LIVE / 2);
                ns
            })
            .collect();
        median_ns(runs)
    }

    /// ns per push+pop on the hierarchical timing wheel, same workload as
    /// [`event_queue_push_pop_ns`] so the two numbers are directly
    /// comparable. The wheel is the simulator's live queue; the 4-ary heap
    /// survives as its far-future overflow structure.
    pub fn queue_wheel_push_pop_ns() -> f64 {
        const LIVE: usize = 4_096;
        const OPS: usize = 200_000;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xBEC4 + round);
                let mut q = WheelQueue::new();
                for _ in 0..LIVE {
                    q.push(Instant(rng.next_u64() % 12_000_000), 0u32);
                }
                let t = std::time::Instant::now();
                let mut floor = 0;
                for _ in 0..OPS {
                    let (at, _) = q.pop().expect("queue kept full");
                    floor = floor.max(at.as_ns());
                    q.push(Instant(floor + rng.next_u64() % 4_000_000), 0u32);
                }
                t.elapsed().as_secs_f64() * 1e9 / OPS as f64
            })
            .collect();
        median_ns(runs)
    }

    /// ns per cancel on the timing wheel, same workload as
    /// [`event_queue_cancel_ns`].
    pub fn queue_wheel_cancel_ns() -> f64 {
        const LIVE: usize = 8_192;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xCA9C + round);
                let mut q = WheelQueue::new();
                let keys: Vec<_> = (0..LIVE)
                    .map(|_| q.push(Instant(rng.next_u64() % 12_000_000), 0u32))
                    .collect();
                let t = std::time::Instant::now();
                let mut hits = 0usize;
                for k in keys.iter().step_by(2) {
                    hits += q.cancel(*k) as usize;
                }
                let ns = t.elapsed().as_secs_f64() * 1e9 / (LIVE / 2) as f64;
                assert_eq!(hits, LIVE / 2);
                ns
            })
            .collect();
        median_ns(runs)
    }

    /// The pre-optimisation queue design, kept as a baseline: binary heap
    /// plus a tombstone set, where cancel only marks and pop skips corpses.
    struct TombstoneQueue {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
        dead: std::collections::HashSet<u64>,
        next_seq: u64,
    }

    impl TombstoneQueue {
        fn new() -> Self {
            TombstoneQueue {
                heap: std::collections::BinaryHeap::new(),
                dead: std::collections::HashSet::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, at: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(std::cmp::Reverse((at, seq)));
            seq
        }

        fn cancel(&mut self, seq: u64) {
            self.dead.insert(seq);
        }

        fn pop(&mut self) -> Option<u64> {
            while let Some(std::cmp::Reverse((at, seq))) = self.heap.pop() {
                if !self.dead.remove(&seq) {
                    return Some(at);
                }
            }
            None
        }
    }

    /// Baseline ns per push+pop on the tombstone design, same workload as
    /// [`event_queue_push_pop_ns`]. The interesting comparison is
    /// [`event_queue_cancel_ns`] vs [`tombstone_cancel_ns`]: tombstones make
    /// cancel itself cheap but every corpse is paid for again at pop time —
    /// this baseline charges that cost where it lands, in pop.
    pub fn tombstone_push_pop_ns() -> f64 {
        const LIVE: usize = 4_096;
        const OPS: usize = 200_000;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xBEC4 + round);
                let mut q = TombstoneQueue::new();
                for _ in 0..LIVE {
                    q.push(rng.next_u64() % 12_000_000);
                }
                let t = std::time::Instant::now();
                let mut floor = 0;
                for _ in 0..OPS {
                    let at = q.pop().expect("queue kept full");
                    floor = floor.max(at);
                    q.push(floor + rng.next_u64() % 4_000_000);
                }
                t.elapsed().as_secs_f64() * 1e9 / OPS as f64
            })
            .collect();
        median_ns(runs)
    }

    /// Baseline ns per cancel *including the deferred pop-side cost* of the
    /// tombstones: cancel half the pending events, then drain and charge the
    /// skip work back to the cancels that caused it.
    pub fn tombstone_cancel_ns() -> f64 {
        const LIVE: usize = 8_192;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0xCA9C + round);
                let mut q = TombstoneQueue::new();
                let keys: Vec<u64> = (0..LIVE).map(|_| q.push(rng.next_u64() % 12_000_000)).collect();
                let t = std::time::Instant::now();
                for k in keys.iter().step_by(2) {
                    q.cancel(*k);
                }
                let mut popped = 0usize;
                while q.pop().is_some() {
                    popped += 1;
                }
                let dirty_ns = t.elapsed().as_secs_f64() * 1e9;
                assert_eq!(popped, LIVE - LIVE / 2);
                // Subtract the drain cost a tombstone-free queue would pay
                // anyway, approximated by popping a same-size clean queue.
                let mut clean = TombstoneQueue::new();
                for _ in 0..popped {
                    clean.push(rng.next_u64() % 12_000_000);
                }
                let t2 = std::time::Instant::now();
                while clean.pop().is_some() {}
                let clean_ns = t2.elapsed().as_secs_f64() * 1e9;
                ((dirty_ns - clean_ns.min(dirty_ns)) / (LIVE / 2) as f64).max(0.0)
            })
            .collect();
        median_ns(runs)
    }

    /// Build the fig-6-style scenario slice used by the hot-loop overhead
    /// microbenchmarks, optionally with every `sp-inject` matrix preset
    /// registered (but never armed) and/or the flight recorder armed, and
    /// run it for `sim_ms` of simulated time. Returns (wall seconds, events
    /// dispatched).
    fn injection_probe(
        seed: u64,
        sim_ms: u64,
        disarmed_injectors: bool,
        armed_flight: bool,
    ) -> (f64, u64) {
        use simcore::Nanos;
        use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
        use sp_hw::MachineConfig;
        use sp_inject::{matrix_presets, Armory};
        use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
        use sp_workloads::{stress_kernel, StressDevices};

        let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
        let rtc = sim.add_device(RtcDevice::new(2048));
        let nic = sim
            .add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(
                20,
            )))));
        let disk = sim.add_device(DiskDevice::new());
        stress_kernel(&mut sim, StressDevices { nic, disk });
        if disarmed_injectors {
            let mut armory = Armory::new();
            for spec in matrix_presets() {
                armory.register(&mut sim, &spec).expect("register preset");
            }
        }
        let prog = Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]);
        let pid = sim.spawn(TaskSpec::new("waiter", SchedPolicy::fifo(90), prog).mlockall());
        sim.watch_latency(pid);
        if armed_flight {
            sim.arm_flight(3);
        }
        sim.start();
        let t = std::time::Instant::now();
        sim.run_for(Nanos::from_ms(sim_ms));
        (t.elapsed().as_secs_f64(), sim.events_dispatched())
    }

    /// Same scenario as [`injection_probe`] plus a fleet of low-priority
    /// compute/sleep tasks — enough live tasks that the per-event cost is
    /// dominated by walking the struct-of-arrays task state (run queues,
    /// accounting columns, per-task timer slots) rather than by the two or
    /// three tasks the base probe keeps. This is the workload the SoA layout
    /// refactor targets; its paired delta over the baseline probe prices the
    /// marginal per-event cost of a busy task table.
    fn soa_probe(seed: u64, sim_ms: u64) -> (f64, u64) {
        use simcore::{DurationDist, Nanos};
        use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
        use sp_hw::MachineConfig;
        use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
        use sp_workloads::{stress_kernel, StressDevices};

        let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
        let rtc = sim.add_device(RtcDevice::new(2048));
        let nic = sim
            .add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(
                20,
            )))));
        let disk = sim.add_device(DiskDevice::new());
        stress_kernel(&mut sim, StressDevices { nic, disk });
        for i in 0..24u32 {
            let prog = Program::forever(vec![
                Op::Compute(DurationDist::uniform(Nanos::from_us(20), Nanos::from_us(120))),
                Op::Sleep(DurationDist::uniform(Nanos::from_us(50), Nanos::from_us(400))),
            ]);
            sim.spawn(TaskSpec::new(
                format!("soa{i}"),
                SchedPolicy::nice((i % 20) as i8 - 10),
                prog,
            ));
        }
        let prog = Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]);
        let pid = sim.spawn(TaskSpec::new("waiter", SchedPolicy::fifo(90), prog).mlockall());
        sim.watch_latency(pid);
        sim.start();
        let t = std::time::Instant::now();
        sim.run_for(Nanos::from_ms(sim_ms));
        (t.elapsed().as_secs_f64(), sim.events_dispatched())
    }

    /// The four hot-loop variants, measured *paired*: every round runs
    /// baseline, disarmed-injectors, armed-recorder and busy-task-table
    /// probes back-to-back on the same seed, and each variant is reported as
    /// the baseline median plus its median per-round delta, clamped at zero.
    /// Independent self-timed rounds used to let wall-clock noise report the
    /// disarmed-injector loop as *faster* than the baseline — a nonsense
    /// ordering for a strict superset of the same work. Pairing charges each
    /// variant exactly its own marginal cost, so the report is monotone by
    /// construction.
    struct SimEventCosts {
        baseline: f64,
        disarmed: f64,
        armed: f64,
        soa: f64,
    }

    fn sim_event_costs() -> &'static SimEventCosts {
        static COSTS: std::sync::OnceLock<SimEventCosts> = std::sync::OnceLock::new();
        COSTS.get_or_init(|| {
            let (mut base, mut d_dis, mut d_arm, mut d_soa) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for round in 0..5u64 {
                let seed = 0x1D7E + round;
                let per_event = |(wall, events): (f64, u64)| wall * 1e9 / events.max(1) as f64;
                let b = per_event(injection_probe(seed, 400, false, false));
                let d = per_event(injection_probe(seed, 400, true, false));
                let a = per_event(injection_probe(seed, 400, false, true));
                let s = per_event(soa_probe(seed, 400));
                base.push(b);
                d_dis.push(d - b);
                d_arm.push(a - b);
                d_soa.push(s - b);
            }
            let baseline = median_ns(base);
            SimEventCosts {
                baseline,
                disarmed: baseline + median_ns(d_dis).max(0.0),
                armed: baseline + median_ns(d_arm).max(0.0),
                soa: baseline + median_ns(d_soa).max(0.0),
            }
        })
    }

    /// ns per simulator event on the fig-6 hot loop, with no injection
    /// subsystem in the picture and the flight recorder disarmed (its
    /// default state — a disarmed recorder is one predicted branch per
    /// accounting flush, so this number doubles as the recorder's
    /// zero-overhead-disarmed baseline). Measured paired with the other two
    /// `sim_event_*` variants; see `SimEventCosts`.
    pub fn sim_event_baseline_ns() -> f64 {
        sim_event_costs().baseline
    }

    /// ns per simulator event on the same loop with the worst-case flight
    /// recorder armed (every activity span streamed into the rolling ring,
    /// every watched sample offered to the top-K set). Compare against
    /// [`sim_event_baseline_ns`] for the price of capture when it *is* on:
    /// the paired harness guarantees this is never reported below baseline.
    pub fn sim_event_armed_recorder_ns() -> f64 {
        sim_event_costs().armed
    }

    /// ns per simulator event on the same loop with every `sp-inject` matrix
    /// preset registered but disarmed. The subsystem's contract is zero
    /// hot-loop cost while disarmed (a disarmed `StormDevice` schedules no
    /// events), so the paired delta over [`sim_event_baseline_ns`] should be
    /// ~0 — and can no longer be *negative*, which the old independently
    /// timed rounds occasionally produced.
    pub fn sim_event_disarmed_injector_ns() -> f64 {
        sim_event_costs().disarmed
    }

    /// ns per simulator event with ~24 extra live compute/sleep tasks — the
    /// busy-task-table workload the struct-of-arrays state layout targets.
    /// The paired delta over [`sim_event_baseline_ns`] prices what each
    /// event pays for a populated task table (scheduler scans, accounting
    /// columns, per-task timers); a layout regression shows up here first.
    pub fn sim_event_soa_ns() -> f64 {
        sim_event_costs().soa
    }

    /// Build the fig-6-style simulator the checkpoint benches fork.
    fn checkpoint_probe_sim(seed: u64) -> sp_kernel::Simulator {
        use simcore::Nanos;
        use sp_devices::{DiskDevice, NicDevice, OnOffPoisson, RtcDevice};
        use sp_hw::MachineConfig;
        use sp_kernel::{KernelConfig, Op, Program, SchedPolicy, Simulator, TaskSpec, WaitApi};
        use sp_workloads::{stress_kernel, StressDevices};

        let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), KernelConfig::redhawk(), seed);
        let rtc = sim.add_device(RtcDevice::new(2048));
        let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
            Nanos::from_ms(20),
        ))));
        let disk = sim.add_device(DiskDevice::new());
        stress_kernel(&mut sim, StressDevices { nic, disk });
        let prog = Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]);
        let pid = sim.spawn(TaskSpec::new("waiter", SchedPolicy::fifo(90), prog).mlockall());
        sim.watch_latency(pid);
        sim.start();
        sim
    }

    /// ns per *deep* checkpoint+restore round trip of a warm fig-6-style
    /// simulator: the warm sim is dirtied (`reseed` with its own seed — a
    /// state no-op that invalidates the checkpoint cache) before every
    /// checkpoint, so each round trip rebuilds the full snapshot image. This
    /// is the pre-COW fork cost, kept measured as the baseline the COW path
    /// ([`checkpoint_fork_cow_ns`]) is ratioed against.
    pub fn checkpoint_fork_ns() -> f64 {
        use simcore::Nanos;

        const OPS: usize = 200;
        let runs = (0..5u64)
            .map(|round| {
                let seed = 0xF04C + round;
                let mut warm = checkpoint_probe_sim(seed);
                warm.run_for(Nanos::from_ms(200));
                let mut fork = checkpoint_probe_sim(seed);
                let t = std::time::Instant::now();
                for _ in 0..OPS {
                    warm.reseed(seed);
                    let ck = warm.checkpoint();
                    fork.restore(&ck);
                }
                assert_eq!(fork.now(), warm.now());
                t.elapsed().as_secs_f64() * 1e9 / OPS as f64
            })
            .collect();
        median_ns(runs)
    }

    /// ns per copy-on-write fork round trip: checkpoint the *unmodified*
    /// warm simulator (a cache hit — an `Arc` bump) and restore into an
    /// already-warm fork (`clone_from` into existing allocations). This is
    /// the cost a sweep cell actually pays per fork; `reproduce_all
    /// --strict` gates it under `FORK_NS_CEILING`, ≥3x below the committed
    /// deep-copy median.
    pub fn checkpoint_fork_cow_ns() -> f64 {
        use simcore::Nanos;

        const OPS: usize = 200;
        let runs = (0..5u64)
            .map(|round| {
                let seed = 0xF04C + round;
                let mut warm = checkpoint_probe_sim(seed);
                warm.run_for(Nanos::from_ms(200));
                let mut fork = checkpoint_probe_sim(seed);
                fork.restore(&warm.checkpoint());
                let t = std::time::Instant::now();
                for _ in 0..OPS {
                    let ck = warm.checkpoint();
                    fork.restore(&ck);
                }
                assert_eq!(fork.now(), warm.now());
                t.elapsed().as_secs_f64() * 1e9 / OPS as f64
            })
            .collect();
        median_ns(runs)
    }

    /// ns per sweep-engine cell, end to end: warm-cache lookup (always a
    /// hit after the first cell), simulator shell build, COW restore,
    /// reseed, and a small per-cell sample budget. Prices what a
    /// million-cell `--sweep` run pays per cell beyond the simulation
    /// itself; dominated by the shell build + sampling, which is why the
    /// warm cache and COW fork matter.
    pub fn sweep_cell_ns() -> f64 {
        use sp_experiments::sweep::{run_sweep, SweepConfig};

        let runs = (0..3u64)
            .map(|round| {
                let cfg = SweepConfig {
                    samples_per_cell: 96,
                    warm_samples: 128,
                    base_seed: 0x5EED_5EED + round,
                    ..SweepConfig::canonical(24)
                }
                .with_workers(1);
                let (report, telemetry) = run_sweep(&cfg);
                assert_eq!(report.cells, 24);
                telemetry.wall_ms * 1e6 / report.cells as f64
            })
            .collect();
        median_ns(runs)
    }

    /// ns of `sp-fleet` pool overhead per job: no-op jobs pushed through the
    /// global injector to a two-worker pool, so the number prices the whole
    /// dispatch path — injector batch grab, deque traffic, index-ordered
    /// result reassembly and thread start/join, amortised over the batch.
    /// Real fleet jobs are multi-millisecond simulations, so per-job
    /// overhead in the low microseconds is invisible in suite wall-clock.
    pub fn fleet_dispatch_ns() -> f64 {
        const JOBS: usize = 8_192;
        let runs = (0..5u64)
            .map(|_| {
                let cfg = sp_fleet::PoolConfig {
                    workers: 2,
                    grab: 0,
                    placement: sp_fleet::Placement::Injector,
                };
                let t = std::time::Instant::now();
                let (out, _) = sp_fleet::run_with(cfg, JOBS, |i| i as u64);
                let ns = t.elapsed().as_secs_f64() * 1e9 / JOBS as f64;
                assert_eq!(out.len(), JOBS);
                ns
            })
            .collect();
        median_ns(runs)
    }

    /// ns of pool overhead per job on the adversarial topology: every job
    /// pre-seeded into worker 0's deque ([`sp_fleet::Placement::Worker0`])
    /// so the other three workers get work *only* by stealing. Compare
    /// against [`fleet_dispatch_ns`] for what cross-worker stealing adds on
    /// top of the plain dispatch path.
    pub fn fleet_steal_overhead_ns() -> f64 {
        const JOBS: usize = 8_192;
        let runs = (0..5u64)
            .map(|_| {
                let cfg = sp_fleet::PoolConfig {
                    workers: 4,
                    grab: 0,
                    placement: sp_fleet::Placement::Worker0,
                };
                let t = std::time::Instant::now();
                let (out, _) = sp_fleet::run_with(cfg, JOBS, |i| i as u64);
                let ns = t.elapsed().as_secs_f64() * 1e9 / JOBS as f64;
                assert_eq!(out.len(), JOBS);
                ns
            })
            .collect();
        median_ns(runs)
    }

    /// ns per `LatencyHistogram::record` across the full magnitude range.
    pub fn histogram_record_ns() -> f64 {
        const OPS: usize = 400_000;
        let runs = (0..5u64)
            .map(|round| {
                let mut rng = SimRng::new(0x4157 + round);
                let values: Vec<u64> =
                    (0..OPS).map(|_| rng.next_u64() >> (rng.next_u64() % 40)).collect();
                let mut h = LatencyHistogram::new();
                let t = std::time::Instant::now();
                for &v in &values {
                    h.record(simcore::Nanos(v));
                }
                let ns = t.elapsed().as_secs_f64() * 1e9 / OPS as f64;
                assert_eq!(h.count(), OPS as u64);
                ns
            })
            .collect();
        median_ns(runs)
    }
}

/// What the paper reports for each figure, for the side-by-side tables.
pub struct PaperTarget {
    pub id: &'static str,
    pub description: &'static str,
    pub paper: &'static str,
}

pub const PAPER_TARGETS: [PaperTarget; 7] = [
    PaperTarget {
        id: "fig1",
        description: "determinism, kernel.org 2.4.18, HT on",
        paper: "ideal 1.148 s, max 1.449 s, jitter 26.17 %",
    },
    PaperTarget {
        id: "fig2",
        description: "determinism, RedHawk 1.4, shielded CPU",
        paper: "ideal 1.148 s, max 1.170 s, jitter 1.87 %",
    },
    PaperTarget {
        id: "fig3",
        description: "determinism, RedHawk 1.4, unshielded",
        paper: "jitter 14.82 %",
    },
    PaperTarget {
        id: "fig4",
        description: "determinism, kernel.org 2.4.18, HT off",
        paper: "jitter 13.15 %",
    },
    PaperTarget {
        id: "fig5",
        description: "realfeel /dev/rtc, kernel.org 2.4.18",
        paper: "max 92.3 ms; 99.14 % < 0.1 ms",
    },
    PaperTarget {
        id: "fig6",
        description: "realfeel /dev/rtc, RedHawk shielded",
        paper: "max 0.565 ms; ~100 % < 0.1 ms",
    },
    PaperTarget {
        id: "fig7",
        description: "RCIM ioctl, RedHawk shielded",
        paper: "min 11 µs, avg 11.3 µs, max 27 µs",
    },
];

/// Measured one-line summary for a determinism figure.
pub fn determinism_measured(r: &DeterminismResult) -> String {
    format!(
        "ideal {:.3} s, max {:.3} s, jitter {:.2} %",
        r.summary.ideal.as_secs_f64(),
        r.summary.max.as_secs_f64(),
        r.summary.jitter_pct()
    )
}

/// Measured one-line summary for a realfeel figure.
pub fn realfeel_measured(r: &RealfeelResult) -> String {
    let sub_100us =
        r.histogram.count_below(Nanos::from_us(100)) as f64 / r.histogram.count().max(1) as f64;
    format!("max {}; {:.2} % < 0.1 ms (n={})", r.summary.max, sub_100us * 100.0, r.summary.count)
}

/// Measured one-line summary for the RCIM figure.
pub fn rcim_measured(r: &RcimResult) -> String {
    format!(
        "min {}, avg {}, max {} (n={})",
        r.summary.min, r.summary.mean, r.summary.max, r.summary.count
    )
}

/// Shape verdicts for EXPERIMENTS.md: did the reproduction land in band?
pub mod verdict {
    use super::*;

    pub fn determinism(r: &DeterminismResult, lo_pct: f64, hi_pct: f64) -> &'static str {
        let j = r.summary.jitter_pct();
        if j >= lo_pct && j <= hi_pct {
            "in band"
        } else {
            "OUT OF BAND"
        }
    }

    pub fn latency_max(max: Nanos, lo: Nanos, hi: Nanos) -> &'static str {
        if max >= lo && max <= hi {
            "in band"
        } else {
            "OUT OF BAND"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_targets_cover_all_figures() {
        assert_eq!(PAPER_TARGETS.len(), 7);
        for (i, t) in PAPER_TARGETS.iter().enumerate() {
            assert_eq!(t.id, format!("fig{}", i + 1));
        }
    }

    #[test]
    fn verdict_bands() {
        assert_eq!(
            verdict::latency_max(Nanos::from_us(20), Nanos::from_us(10), Nanos::from_us(30)),
            "in band"
        );
        assert_eq!(
            verdict::latency_max(Nanos::from_ms(5), Nanos::from_us(10), Nanos::from_us(30)),
            "OUT OF BAND"
        );
    }
}
