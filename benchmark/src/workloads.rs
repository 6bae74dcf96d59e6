//! The four workloads: inputs generated from the seed, one job per workload
//! through the crates' public entry points, and the oracle that checks each
//! job's simulated output.
//!
//! A job is a fixed amount of work (same seed → same inputs → same output
//! digest), sized to run for about a second or a few, so a measured run
//! repeats it and reports medians.

use crate::builders::{run_events, SimConfig};
use crate::clock::cpu_timed;
use crate::trace;
use serde::{Serialize, Value};
use simcore::{Nanos, SimRng};
use sp_autopilot::DecisionTrace;
use sp_experiments::faultmatrix::MatrixPath;
use sp_experiments::{
    run_autopilot, run_determinism, run_modern_matrix_with_flight, run_rcim, run_realfeel,
    run_sweep, AutopilotConfig, DeterminismConfig, ModernConfig, ModernVariant, RcimConfig,
    RealfeelConfig, SweepConfig,
};
use sp_metrics::LatencySummary;

/// Determinism-figure iterations per job (the figures' default).
pub const DET_ITERATIONS: u32 = 60;
/// Latency samples per job for each of Figures 5–7.
pub const LATENCY_SAMPLES: u64 = 25_000;
/// Sweep grid per job: cells over the canonical three groups.
pub const SWEEP_CELLS: u64 = 300;
pub const SWEEP_SAMPLES: u64 = 1_024;
pub const SWEEP_WARM: u64 = 512;
/// Diurnal cycles (16 plant-seconds each) per closed-loop autopilot run.
pub const AUTOPILOT_CYCLES: u32 = 1;
/// Samples per modern-matrix cell (60 cells per job).
pub const MODERN_SAMPLES: u64 = 5_000;
/// Worst-case windows the modern matrix's flight recorder keeps per cell.
pub const MODERN_TOP_K: usize = 3;
/// Fleet workers for the parallel workloads. Results never depend on it.
pub const WORKERS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFigures,
    SweepForks,
    AutopilotDay,
    ModernFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::SweepForks,
        Workload::AutopilotDay,
        Workload::ModernFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper_figures",
            Workload::SweepForks => "sweep_forks",
            Workload::AutopilotDay => "autopilot_day",
            Workload::ModernFaults => "modern_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// OS threads the job runs on.
    pub fn threads(self) -> u32 {
        match self {
            Workload::PaperFigures | Workload::AutopilotDay => 1,
            Workload::SweepForks | Workload::ModernFaults => WORKERS,
        }
    }

    /// One-line size description, recorded in result files.
    pub fn size(self) -> String {
        match self {
            Workload::PaperFigures => format!(
                "fig1-4 {DET_ITERATIONS} iterations, fig5-7 {LATENCY_SAMPLES} samples, shards 1"
            ),
            Workload::SweepForks => {
                format!("{SWEEP_CELLS} cells x {SWEEP_SAMPLES} samples, {SWEEP_WARM} warm samples")
            }
            Workload::AutopilotDay => {
                format!("closed loop over {AUTOPILOT_CYCLES} diurnal cycle(s)")
            }
            Workload::ModernFaults => {
                format!("60 cells x {MODERN_SAMPLES} samples, flight top-{MODERN_TOP_K}")
            }
        }
    }
}

/// Derive a component seed from the benchmark seed (SplitMix64 of the
/// pair), so every study of a workload gets its own stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SimRng::new(seed).fork(salt).next_u64()
}

/// A workload's generated inputs: every config its job runs.
#[derive(Debug, Clone)]
pub enum Inputs {
    Figures { det: [DeterminismConfig; 4], real: [RealfeelConfig; 2], rcim: RcimConfig },
    Sweep(SweepConfig),
    Autopilot(AutopilotConfig),
    Modern(ModernConfig),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::PaperFigures => {
                let det = [
                    DeterminismConfig::fig1_vanilla_ht(),
                    DeterminismConfig::fig2_redhawk_shielded(),
                    DeterminismConfig::fig3_redhawk_unshielded(),
                    DeterminismConfig::fig4_vanilla_noht(),
                ];
                let mut salt = 0;
                let det = det.map(|c| {
                    salt += 1;
                    c.with_iterations(DET_ITERATIONS).with_seed(derive_seed(seed, salt))
                });
                let real =
                    [RealfeelConfig::fig5_vanilla(), RealfeelConfig::fig6_redhawk_shielded()].map(
                        |c| {
                            salt += 1;
                            c.with_samples(LATENCY_SAMPLES).with_seed(derive_seed(seed, salt))
                        },
                    );
                let rcim = RcimConfig::fig7_redhawk_shielded()
                    .with_samples(LATENCY_SAMPLES)
                    .with_seed(derive_seed(seed, salt + 1));
                Inputs::Figures { det, real, rcim }
            }
            Workload::SweepForks => Inputs::Sweep(SweepConfig {
                samples_per_cell: SWEEP_SAMPLES,
                warm_samples: SWEEP_WARM,
                base_seed: derive_seed(seed, 8),
                ..SweepConfig::canonical(SWEEP_CELLS).with_workers(WORKERS)
            }),
            Workload::AutopilotDay => Inputs::Autopilot(AutopilotConfig {
                seed: derive_seed(seed, 9),
                cycles: AUTOPILOT_CYCLES,
                ..AutopilotConfig::canonical()
            }),
            Workload::ModernFaults => Inputs::Modern(ModernConfig {
                samples_per_cell: MODERN_SAMPLES,
                shards: 1,
                seed: derive_seed(seed, 10),
            }),
        }
    }

    /// Every distinct simulator config the job builds (what set-up builds
    /// once and the fork probe forks).
    pub fn sim_configs(&self) -> Vec<SimConfig> {
        match self {
            Inputs::Figures { det, real, rcim } => det
                .iter()
                .cloned()
                .map(SimConfig::Determinism)
                .chain(real.iter().cloned().map(SimConfig::Realfeel))
                .chain([SimConfig::Rcim(rcim.clone())])
                .collect(),
            Inputs::Sweep(cfg) => {
                sweep_warm_configs(cfg).into_iter().map(SimConfig::Realfeel).collect()
            }
            Inputs::Autopilot(cfg) => vec![SimConfig::Plant(cfg.clone())],
            Inputs::Modern(cfg) => ModernVariant::ALL
                .iter()
                .flat_map(|&variant| MatrixPath::ALL.map(|path| (variant, path)))
                .enumerate()
                .map(|(i, (variant, path))| SimConfig::Modern {
                    variant,
                    path,
                    seed: derive_seed(cfg.seed, i as u64),
                })
                .collect(),
        }
    }
}

/// The warm config of each sweep group (mirrors `SweepConfig`'s own).
pub fn sweep_warm_configs(cfg: &SweepConfig) -> Vec<RealfeelConfig> {
    cfg.groups
        .iter()
        .map(|g| RealfeelConfig {
            variant: g.variant,
            shield: g.shield,
            rtc_hz: 2048,
            samples: cfg.samples_per_cell,
            seed: cfg.base_seed,
            shards: 1,
        })
        .collect()
}

/// One named oracle check on a job's output.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    /// A paper verdict band or study gate: a statistical statement that a
    /// particular seed can legitimately miss (see README.md), as opposed to
    /// a structural fact of the output.
    pub band: bool,
}

fn check(name: impl Into<String>, ok: bool) -> Check {
    Check { name: name.into(), ok, band: false }
}

fn band(name: impl Into<String>, ok: bool) -> Check {
    Check { name: name.into(), ok, band: true }
}

/// What one job produced, reduced to what the benchmark checks and counts.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// FNV-1a over the serialized study output.
    pub digest: u64,
    /// Digest of the part of the output a public-call replay can rebuild
    /// (equal to `digest` where the replay rebuilds all of it).
    pub replay_key: u64,
    /// Simulated kernel events, when the entry point reports them.
    pub events: Option<u64>,
    /// Independent simulations the job ran (figures, forks, plant runs,
    /// matrix cells).
    pub cells: u64,
    /// Structural checks, paper verdict bands and study gates.
    pub checks: Vec<Check>,
    /// Host CPU seconds of each of the job's stages: the seven figure
    /// studies for `paper_figures`, the single entry-point call elsewhere.
    pub stage_cpu_s: Vec<f64>,
}

/// FNV-1a 64 over the compact JSON of `value`.
pub fn digest<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("study output serializes");
    fnv1a(json.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FIGURE_IDS: [&str; 7] = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"];

/// The paper verdict bands, as `reproduce_all` grades them: jitter percent
/// for Figures 1–4, worst-case latency for Figures 5–7.
const JITTER_BANDS: [(f64, f64); 4] = [(16.0, 45.0), (0.2, 4.0), (8.0, 22.0), (8.0, 20.0)];
const LATENCY_BANDS: [(Nanos, Nanos); 3] = [
    (Nanos::from_ms(2), Nanos::from_ms(200)),
    (Nanos::from_us(15), Nanos::from_ms(1)),
    (Nanos::from_us(15), Nanos::from_us(30)),
];

/// Time one stage of a job in CPU seconds; a span of the `experiments`
/// layer when tracing is on.
fn stage<T>(cpu_s: &mut Vec<f64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, s) = cpu_timed(|| trace::span("experiments", name, f));
    cpu_s.push(s);
    out
}

/// Run one job through the crates' public entry points.
pub fn run_job(inputs: &Inputs) -> JobOutput {
    let mut cpu_s = Vec::new();
    match inputs {
        Inputs::Figures { det, real, rcim } => {
            let det: Vec<_> = det
                .iter()
                .zip(FIGURE_IDS)
                .map(|(c, id)| stage(&mut cpu_s, id, || run_determinism(c)))
                .collect();
            let real: Vec<_> = real
                .iter()
                .zip(&FIGURE_IDS[4..6])
                .map(|(c, id)| stage(&mut cpu_s, id, || run_realfeel(c)))
                .collect();
            let rcim = stage(&mut cpu_s, FIGURE_IDS[6], || run_rcim(rcim));

            let mut checks = Vec::new();
            for (r, id) in det.iter().zip(FIGURE_IDS) {
                let n = r.summary.iterations;
                checks.push(check(format!("{id}: {n} iterations"), n >= DET_ITERATIONS as u64));
            }
            let counts = [real[0].summary.count, real[1].summary.count, rcim.summary.count];
            for (n, id) in counts.iter().zip(&FIGURE_IDS[4..]) {
                checks.push(check(format!("{id}: {n} samples"), *n >= LATENCY_SAMPLES));
            }
            for ((r, (lo, hi)), id) in det.iter().zip(JITTER_BANDS).zip(FIGURE_IDS) {
                let j = r.summary.jitter_pct();
                checks
                    .push(band(format!("{id} jitter {j:.2}% in [{lo}, {hi}]"), j >= lo && j <= hi));
            }
            let maxima = [real[0].summary.max, real[1].summary.max, rcim.summary.max];
            for ((max, (lo, hi)), id) in maxima.iter().zip(LATENCY_BANDS).zip(&FIGURE_IDS[4..]) {
                checks.push(band(
                    format!("{id} max {max} in [{lo}, {hi}]"),
                    *max >= lo && *max <= hi,
                ));
            }
            let events = det.iter().map(|r| r.events).sum::<u64>()
                + real.iter().map(|r| r.events).sum::<u64>()
                + rcim.events;
            let all = Value::Array(
                det.iter()
                    .map(Serialize::to_value)
                    .chain(real.iter().map(Serialize::to_value))
                    .chain([rcim.to_value()])
                    .collect(),
            );
            let d = digest(&all);
            JobOutput {
                digest: d,
                replay_key: d,
                events: Some(events),
                cells: 7,
                checks,
                stage_cpu_s: cpu_s,
            }
        }
        Inputs::Sweep(cfg) => {
            let (report, _) = stage(&mut cpu_s, "run_sweep", || run_sweep(cfg));
            let mut checks = vec![check(
                format!("sweep ran {} of {} cells", report.cells, cfg.cell_count()),
                report.cells == cfg.cell_count(),
            )];
            for g in &report.groups {
                checks.push(check(
                    format!("{}: {} cells, {} samples", g.label, g.cells, g.samples),
                    g.cells == cfg.seeds_per_group && g.samples >= g.cells * cfg.samples_per_cell,
                ));
            }
            let d = digest(&report);
            JobOutput {
                digest: d,
                replay_key: d,
                events: Some(report.total_events),
                cells: report.cells,
                checks,
                stage_cpu_s: cpu_s,
            }
        }
        Inputs::Autopilot(cfg) => {
            let run = stage(&mut cpu_s, "run_autopilot", || run_autopilot(cfg));
            let steady = run.trace.telemetry.steady_violations;
            let recovered = run
                .recoveries
                .iter()
                .all(|r| r.recovery_secs.is_some_and(|s| s <= cfg.recovery_budget_secs));
            let checks = vec![
                band(format!("autopilot steady violations {steady}"), steady == 0),
                band("autopilot transients recovered in budget", recovered),
            ];
            let key = PlantRunKey {
                trace: run.trace.clone(),
                latency: run.latency,
                be_cpu_secs: run.be_cpu_secs,
                requests: run.requests,
                irqs_fired: run.irqs_fired,
                missed_irqs: run.missed_irqs,
            };
            JobOutput {
                digest: digest(&run),
                replay_key: key.digest(),
                events: None,
                cells: 1,
                checks,
                stage_cpu_s: cpu_s,
            }
        }
        Inputs::Modern(cfg) => {
            let (report, _) = stage(&mut cpu_s, "run_modern_matrix", || {
                sp_fleet::with_workers(WORKERS, || run_modern_matrix_with_flight(cfg, MODERN_TOP_K))
            });
            let mut checks = vec![check(
                format!("modern matrix {} cells", report.cells.len()),
                report.cells.len() == 60,
            )];
            checks.extend(report.violations.iter().map(|v| band(v.clone(), false)));
            let d = digest(&report);
            JobOutput {
                digest: d,
                replay_key: d,
                events: Some(report.cells.iter().map(|c| c.events).sum()),
                cells: report.cells.len() as u64,
                checks,
                stage_cpu_s: cpu_s,
            }
        }
    }
}

/// The part of a closed-loop run that a replay through public calls
/// rebuilds exactly (the recovery verdicts need crate-private code).
#[derive(Debug, Clone)]
pub struct PlantRunKey {
    pub trace: DecisionTrace,
    pub latency: LatencySummary,
    pub be_cpu_secs: f64,
    pub requests: u64,
    pub irqs_fired: u64,
    pub missed_irqs: u64,
}

impl PlantRunKey {
    pub fn digest(&self) -> u64 {
        digest(&Value::Object(vec![
            ("trace".into(), self.trace.to_value()),
            ("latency".into(), self.latency.to_value()),
            ("be_cpu_secs".into(), self.be_cpu_secs.to_value()),
            ("requests".into(), self.requests.to_value()),
            ("irqs_fired".into(), self.irqs_fired.to_value()),
            ("missed_irqs".into(), self.missed_irqs.to_value()),
        ]))
    }
}

/// Events each set-up simulator runs: enough to warm the event loop's
/// caches and the allocator before the first measured job.
const SETUP_EVENTS: u64 = 20_000;

/// Set-up: generate the inputs, then build, start and shield one simulator
/// of every distinct config and run it briefly.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let inputs = Inputs::generate(workload, seed);
    for cfg in inputs.sim_configs() {
        let mut shell = cfg.build().shielded();
        run_events(&mut shell.sim, SETUP_EVENTS);
    }
    inputs
}
