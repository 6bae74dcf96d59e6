//! Determinism contract of experiment batches on the `sp-fleet` pool.
//!
//! The reproducibility key is `(seed, shards)` — never the worker count.
//! For a fixed key, every fleet product (histograms, verdicts, merged
//! flight traces, matrix cells) must be bit-identical across worker counts
//! {1, 2, 8}, across repeated runs, and `shards = 1` on one worker must
//! equal the classic serial path.

use proptest::prelude::*;
use simcore::Nanos;
use sp_autopilot::{Autopilot, ControllerConfig, DecisionCause, PlantBindings, ShieldLevel};
use sp_experiments::{
    run_autopilot, run_autopilot_forked, run_autopilot_study, run_determinism,
    run_fault_matrix_with_flight, run_rcim_with_flight, run_realfeel, run_realfeel_with_flight,
    run_sweep, AutopilotConfig, DeterminismConfig, FaultMatrixConfig, RcimConfig, RealfeelConfig,
    SweepConfig,
};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::devices::{TrafficPhase, TrafficProfile};
use sp_kernel::{Simulator, WorstCaseTrace};
use sp_workloads::{request_kernel_config, request_serving, RequestService};

/// A job's serialized result followed by the latencies of its captured
/// worst-case traces.
fn with_traces(result: &impl serde::Serialize, traces: &[WorstCaseTrace]) -> String {
    let latencies: Vec<u64> = traces.iter().map(|t| t.latency.as_ns()).collect();
    format!("{} {latencies:?}", serde_json::to_string(result).unwrap())
}

/// A mixed batch on the pool: a sharded realfeel run and a sharded RCIM run,
/// each with its merged top-2 flight traces, and a determinism loop.
fn mixed_batch() -> Vec<String> {
    sp_fleet::run_indexed(3, |i| match i {
        0 => {
            let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(2_500).with_shards(3);
            let (r, traces) = run_realfeel_with_flight(&cfg, 2);
            with_traces(&r, &traces)
        }
        1 => {
            let cfg = RcimConfig::fig7_redhawk_shielded().with_samples(2_500).with_shards(2);
            let (r, traces) = run_rcim_with_flight(&cfg, 2);
            with_traces(&r, &traces)
        }
        _ => {
            let cfg = DeterminismConfig::fig2_redhawk_shielded().with_iterations(8);
            serde_json::to_string(&run_determinism(&cfg)).unwrap()
        }
    })
}

/// Satellite: fixed `(seed, shards)` ⇒ a mixed batch's output — result
/// payloads and captured trace latencies — is bit-identical across worker
/// counts {1, 2, 8} *and* across two repeated runs at each count. Pool
/// workers inherit the `with_workers` count, so the nested shard batches
/// run at each count too.
#[test]
fn mixed_batch_is_identical_across_worker_counts_and_repeats() {
    let reference = sp_fleet::with_workers(1, mixed_batch);
    assert!(reference[..2].iter().all(|job| !job.ends_with("[]")), "no trace captured");
    for workers in [1u32, 2, 8] {
        for repeat in 0..2 {
            assert_eq!(
                sp_fleet::with_workers(workers, mixed_batch),
                reference,
                "drift at workers={workers} repeat={repeat}"
            );
        }
    }
}

/// `shards = 1` on one worker is the classic serial path: a single-shard
/// experiment run on a one-worker pool equals calling it directly.
#[test]
fn single_shard_on_one_worker_matches_classic_serial_run() {
    let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(3_000).with_shards(1);
    let serial = serde_json::to_string(&run_realfeel(&cfg)).unwrap();
    let pooled = sp_fleet::with_workers(1, || run_realfeel(&cfg));
    assert_eq!(serde_json::to_string(&pooled).unwrap(), serial);
}

/// Satellite: merged top-K flight traces under concurrent shards — the
/// merged worst sample equals the histogram max regardless of which worker
/// found it, and the whole merged top-K list is worker-count invariant.
#[test]
fn merged_worst_trace_explains_the_max_for_every_worker_count() {
    let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(4_000).with_shards(4);
    let mut all_latency_lists = Vec::new();
    for workers in [1u32, 2, 8] {
        let (result, traces) =
            sp_fleet::with_workers(workers, || run_realfeel_with_flight(&cfg, 3));
        assert!(!traces.is_empty(), "no window captured at workers={workers}");
        assert_eq!(
            traces[0].latency, result.summary.max,
            "merged worst must explain the histogram max (workers={workers})"
        );
        for pair in traces.windows(2) {
            assert!(pair[0].latency >= pair[1].latency, "merged top-K not worst-first");
        }
        all_latency_lists.push(traces.iter().map(|t| t.latency).collect::<Vec<_>>());
    }
    assert_eq!(all_latency_lists[0], all_latency_lists[1]);
    assert_eq!(all_latency_lists[1], all_latency_lists[2]);
}

/// An autopilot study beside a determinism loop, as one pool batch.
fn autopilot_batch() -> Vec<String> {
    sp_fleet::run_indexed(2, |i| {
        if i == 0 {
            let cfg = AutopilotConfig { seed: 11, cycles: 1, ..AutopilotConfig::canonical() };
            serde_json::to_string(&run_autopilot_study(&cfg)).unwrap()
        } else {
            let cfg = DeterminismConfig::fig2_redhawk_shielded().with_iterations(8);
            serde_json::to_string(&run_determinism(&cfg)).unwrap()
        }
    })
}

/// Satellite: the autopilot study — decision trace, telemetry, static
/// baselines and verdict — run as a pool job is bit-identical across worker
/// counts {1, 2, 8}. The `workers=1` pass doubles as the repeat check: it
/// rebuilds everything the reference run built and must land on the same
/// bytes.
#[test]
fn autopilot_batch_is_identical_across_worker_counts_and_repeats() {
    let reference = sp_fleet::with_workers(1, autopilot_batch);
    for workers in [1u32, 2, 8] {
        assert_eq!(
            sp_fleet::with_workers(workers, autopilot_batch),
            reference,
            "autopilot batch drift at workers={workers}"
        );
    }
}

/// Satellite: a warm-checkpoint fork taken mid-run finishes with the same
/// decision trace (and the same full run payload) as the straight-through
/// run, regardless of the ambient fleet worker pool. Seed 12 escalates
/// during its burst, so the compared traces contain a real reconfiguration.
#[test]
fn autopilot_fork_matches_straight_run_for_every_worker_count() {
    let cfg = AutopilotConfig { seed: 12, cycles: 1, ..AutopilotConfig::canonical() };
    let straight = sp_fleet::with_workers(1, || run_autopilot(&cfg));
    assert!(
        straight.trace.decisions.iter().any(|d| d.cause != DecisionCause::Engage),
        "seed 12 should reconfigure at least once, or this comparison is vacuous"
    );
    let reference = serde_json::to_string(&straight).unwrap();
    for workers in [2u32, 8] {
        let forked = sp_fleet::with_workers(workers, || run_autopilot_forked(&cfg));
        assert_eq!(
            serde_json::to_string(&forked).unwrap(),
            reference,
            "fork diverged from the straight run at workers={workers}"
        );
    }
}

// ---------------------------------------------------------------------
// Controller purity, property-tested on a compressed plant.
// ---------------------------------------------------------------------

/// A two-phase calm/slam profile at the canonical 8 kHz coalescing rate:
/// enough traffic shape to provoke real escalations and relaxes, but 1.5 s
/// of it runs in well under a second of wall time.
fn mini_profile() -> TrafficProfile {
    TrafficProfile {
        phases: vec![
            TrafficPhase {
                name: "calm".into(),
                duration: Nanos::from_ms(250),
                irq_hz: 8_000,
                batch: 25,
            },
            TrafficPhase {
                name: "slam".into(),
                duration: Nanos::from_ms(250),
                irq_hz: 8_000,
                batch: 1_500,
            },
        ],
        cycle: true,
    }
}

fn mini_plant(seed: u64) -> (Simulator, RequestService) {
    let mut sim =
        Simulator::new(MachineConfig::quad_xeon_server(), request_kernel_config(), seed);
    let svc = request_serving(&mut sim, mini_profile(), CpuId(3), 3);
    sim.start();
    (sim, svc)
}

fn mini_controller(trip: u32, span_extra: u32, relax: u32, cooldown: u32) -> ControllerConfig {
    ControllerConfig {
        sla: Nanos::from_us(100),
        period: Nanos::from_ms(100),
        trip,
        trip_span: trip + span_extra,
        relax,
        relax_margin_pct: 65,
        cooldown,
        min_window: 200,
        levels: ShieldLevel::ladder(CpuMask::first_n(4), CpuId(3)),
        start_level: 0,
    }
}

fn mini_run(
    seed: u64,
    ctl: &ControllerConfig,
    total: Nanos,
    fork_at: Option<Nanos>,
) -> String {
    let (mut sim, svc) = mini_plant(seed);
    let plant = PlantBindings {
        server: svc.server,
        server_irq: svc.device,
        server_cpu: svc.server_cpu,
        best_effort: svc.best_effort.clone(),
    };
    let t0 = sim.now();
    let mut ap = Autopilot::new(ctl.clone(), plant).unwrap();
    ap.engage(&mut sim).unwrap();
    if let Some(at) = fork_at {
        ap.run_until(&mut sim, t0 + at).unwrap();
        let ck = sim.checkpoint();
        let (mut fork, _) = mini_plant(seed);
        fork.restore(&ck);
        let mut fork_ap = ap.clone();
        fork_ap.run_until(&mut fork, t0 + total).unwrap();
        return serde_json::to_string(&fork_ap.trace()).unwrap();
    }
    ap.run_until(&mut sim, t0 + total).unwrap();
    serde_json::to_string(&ap.trace()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: for random seeds and control-law shapes, the serialized
    /// decision trace is a pure function of `(config, seed)` — byte-equal
    /// across a straight rerun and across a warm-checkpoint fork taken
    /// mid-flight.
    #[test]
    fn autopilot_trace_is_a_pure_function_of_config_and_seed(
        seed in 0u64..1_000,
        trip in 1u32..=2,
        span_extra in 0u32..=2,
        relax in 1u32..=2,
        cooldown in 0u32..=1,
    ) {
        let ctl = mini_controller(trip, span_extra, relax, cooldown);
        let total = Nanos::from_ms(1_500);
        let straight = mini_run(seed, &ctl, total, None);
        let repeat = mini_run(seed, &ctl, total, None);
        prop_assert_eq!(&straight, &repeat, "straight rerun drifted");
        let forked = mini_run(seed, &ctl, total, Some(Nanos::from_ms(750)));
        prop_assert_eq!(&straight, &forked, "checkpoint fork drifted");
    }
}

/// Satellite: the streamed sweep artifact (`SWEEP_study.json` content) is
/// byte-identical across worker counts {1, 2, 8} — the online reducer folds
/// in strict cell-index order whatever the pool's thread count, and warm
/// cache behaviour (who warms, who hits) never leaks into the report.
#[test]
fn sweep_artifact_is_identical_across_worker_counts() {
    let cfg = |workers: u32| {
        SweepConfig { samples_per_cell: 250, warm_samples: 96, ..SweepConfig::canonical(6) }
            .with_workers(workers)
    };
    let reference = serde_json::to_string_pretty(&run_sweep(&cfg(1)).0).unwrap();
    for workers in [2u32, 8] {
        let bytes = serde_json::to_string_pretty(&run_sweep(&cfg(workers)).0).unwrap();
        assert_eq!(bytes, reference, "sweep artifact drift at workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: warm-cache hits are invisible for random grid shapes —
    /// a sweep whose groups share warm checkpoints produces the same report
    /// as one whose cache is defeated by running each group's cells in a
    /// fresh process-like cache (here: two fresh `run_sweep` calls, which
    /// rebuild the cache from scratch each time, must agree with each other
    /// and with a reordered-workers run). Random seeds, budgets and grid
    /// sizes keep the equality from being a fixture accident.
    #[test]
    fn sweep_report_is_a_pure_function_of_its_config(
        base_seed in 0u64..10_000,
        cells in 3u64..8,
        samples in 150u64..400,
        warm in 48u64..160,
    ) {
        let cfg = |workers: u32| {
            SweepConfig {
                base_seed,
                samples_per_cell: samples,
                warm_samples: warm,
                ..SweepConfig::canonical(cells)
            }
            .with_workers(workers)
        };
        let a = serde_json::to_string(&run_sweep(&cfg(1)).0).unwrap();
        let b = serde_json::to_string(&run_sweep(&cfg(1)).0).unwrap();
        prop_assert_eq!(&a, &b, "rerun drifted (cache rebuild changed the bytes)");
        let c = serde_json::to_string(&run_sweep(&cfg(4)).0).unwrap();
        prop_assert_eq!(&a, &c, "worker count leaked into the artifact");
    }
}

/// The flattened fault-matrix batch is worker-count invariant too: cells,
/// verdicts and captured per-cell traces all agree between a single-worker
/// and a four-worker run, the nested cell batch included.
#[test]
fn fault_matrix_is_worker_count_invariant() {
    let cfg = FaultMatrixConfig { samples_per_cell: 800, shards: 2, seed: 0xFA17_5EED };
    let runs: Vec<_> = [1u32, 4]
        .iter()
        .map(|&w| sp_fleet::with_workers(w, || run_fault_matrix_with_flight(&cfg, 1)))
        .collect();
    let (ra, fa) = &runs[0];
    let (rb, fb) = &runs[1];
    assert_eq!(
        serde_json::to_string(&ra.cells).unwrap(),
        serde_json::to_string(&rb.cells).unwrap()
    );
    assert_eq!(ra.violations, rb.violations);
    let key = |flights: &[sp_experiments::CellFlight]| {
        flights
            .iter()
            .map(|f| {
                let lat: Vec<_> = f.traces.iter().map(|t| t.latency).collect();
                (f.fault.clone(), f.path.clone(), f.shielded, lat)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(fa), key(fb));
}
