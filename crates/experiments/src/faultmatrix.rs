//! The shield-robustness fault matrix: the fig-6 (realfeel/RTC) and fig-7
//! (RCIM/ioctl) measured tasks re-run under each [`sp_inject`] perturbation,
//! shielded and unshielded, plus no-fault baselines.
//!
//! Both cells of a pair bind the measured task and its interrupt to CPU 1 —
//! the *only* difference is whether `/proc/shield/*` covers that CPU. Device
//! faults assert on a free line with default (all-CPU) affinity: round-robin
//! delivery drags them onto the measured CPU in the unshielded cell, while
//! the shield's affinity-stripping keeps them off in the shielded cell. Task
//! faults are pinned onto the measured CPU when unshielded (a rogue you
//! cannot keep off without a shield) and left floating when shielded (the
//! shield strips them automatically).
//!
//! The report asserts the paper's qualitative claim as hard bands: every
//! fault degrades the unshielded worst case ≥ 5× over baseline, the
//! shielded realfeel worst case stays < 1 ms, the shielded RCIM worst case
//! stays < 30 µs, and the mid-run reshield scenario recovers its bound in
//! finite time. Violations are collected, not panicked, so the binary can
//! print the whole matrix before failing.

use crate::scenario::{reshield_transient_scenario, run_scenario, RecoveryReport, ScenarioSpec};
use crate::shard::{effective_shards, shard_seeds, split_samples};
use crate::study::{self, Rig, Sampling};
use serde::{Deserialize, Serialize};
use simcore::Nanos;
use sp_hw::{CpuId, CpuMask};
use sp_inject::{matrix_presets, Armory, FaultKind, FaultSpec};
use sp_kernel::{KernelConfig, KernelVariant, Simulator, WorstCaseTrace};
use sp_metrics::LatencySummary;

/// The CPU every cell binds its measured task and interrupt to (shared with
/// the modern-isolation matrix in [`crate::modernmax`]).
pub(crate) const MEASURED_CPU: CpuId = CpuId(1);

/// Acceptance bands (see EXPERIMENTS.md).
const DEGRADATION_FACTOR: u64 = 5;
const SHIELDED_REALFEEL_BOUND: Nanos = Nanos::from_ms(1);
const SHIELDED_RCIM_BOUND: Nanos = Nanos::from_us(30);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixConfig {
    /// Latency samples collected per cell.
    pub samples_per_cell: u64,
    /// Shards per cell (same PR-1 determinism contract as the figures).
    pub shards: u32,
    pub seed: u64,
}

impl FaultMatrixConfig {
    pub fn full() -> Self {
        FaultMatrixConfig { samples_per_cell: 40_000, shards: 1, seed: 0xFA17_5EED }
    }

    /// Scale the per-cell sample budget (the bench `scale` argument). The
    /// floor keeps enough faulted samples per cell for the heavy-tailed
    /// injectors (pareto softirq bursts, exponential storm gaps) to express
    /// their worst case, which the degradation band measures.
    pub fn scaled(scale: f64) -> Self {
        let full = Self::full();
        FaultMatrixConfig {
            samples_per_cell: ((full.samples_per_cell as f64 * scale) as u64).max(4_000),
            ..full
        }
    }

    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Which measured path a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixPath {
    /// Fig-6: realfeel blocking in `read(/dev/rtc)` at 2048 Hz.
    Realfeel,
    /// Fig-7: RCIM waiter blocking in a BKL-free `ioctl()` at 1 kHz.
    Rcim,
}

impl MatrixPath {
    pub const ALL: [MatrixPath; 2] = [MatrixPath::Realfeel, MatrixPath::Rcim];

    pub fn name(self) -> &'static str {
        match self {
            MatrixPath::Realfeel => "realfeel",
            MatrixPath::Rcim => "rcim",
        }
    }

    /// This path's matrix rig on `kernel`: the paper testbed, the measured
    /// task pinned to [`MEASURED_CPU`] (shielded or not), and every matrix
    /// fault registered disarmed in its shielded or unshielded cell shape
    /// (see [`cell_fault`]).
    pub(crate) fn rig(self, kernel: KernelConfig, shielded: bool) -> Rig {
        let testbed = match self {
            MatrixPath::Realfeel => ScenarioSpec::rtc_testbed("measured", 2048),
            MatrixPath::Rcim => ScenarioSpec::rcim_testbed("measured", 1_000),
        };
        let spec = ScenarioSpec {
            kernel: kernel.variant,
            kernel_overrides: Some(kernel),
            faults: matrix_presets().iter().map(|f| cell_fault(f, shielded)).collect(),
            ..testbed.on_cpu(MEASURED_CPU, shielded)
        };
        // Generous deadline: faulted unshielded cells legitimately lose
        // long stretches to the injector.
        Rig { spec, sampling: Sampling { deadline_periods: 64.0, chunk: (512, 16_384) } }
    }
}

/// One (fault, path, shield) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Fault name, or `"baseline"`.
    pub fault: String,
    pub path: String,
    pub shielded: bool,
    pub summary: LatencySummary,
    pub events: u64,
}

/// The full matrix plus its band verdicts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultMatrixReport {
    pub config: FaultMatrixConfig,
    pub cells: Vec<MatrixCell>,
    /// The mid-run reshield transient (from
    /// [`crate::scenario::reshield_transient_scenario`]).
    pub reshield: RecoveryReport,
    /// Human-readable band violations; empty means the paper's claim held.
    pub violations: Vec<String>,
}

impl FaultMatrixReport {
    pub fn cell(&self, fault: &str, path: MatrixPath, shielded: bool) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.fault == fault && c.path == path.name() && c.shielded == shielded)
            .expect("cell exists")
    }

    /// Render the worst-case/percentile matrix as a markdown table.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| fault | path | shielded p99.9 | shielded max | unshielded p99.9 | \
             unshielded max | worst vs baseline p99.9 |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|\n");
        let mut names = vec!["baseline".to_string()];
        names.extend(matrix_presets().iter().map(|f| f.name.clone()));
        for path in MatrixPath::ALL {
            let base = self.cell("baseline", path, false).summary.p999;
            for name in &names {
                let s = &self.cell(name, path, true).summary;
                let u = &self.cell(name, path, false).summary;
                let factor = if base.0 > 0 { u.max.0 as f64 / base.0 as f64 } else { f64::NAN };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.1}× |\n",
                    name,
                    path.name(),
                    s.p999,
                    s.max,
                    u.p999,
                    u.max,
                    factor
                ));
            }
        }
        out.push_str(&format!(
            "\nreshield transient: degraded samples before reshield {}, recovery {}, \
             post-recovery worst {}\n",
            self.reshield.out_of_bound_before,
            match self.reshield.recovery_secs {
                Some(s) => format!("{:.1} ms", s * 1e3),
                None => "never".into(),
            },
            match self.reshield.worst_after_us {
                Some(w) => format!("{w:.1} µs"),
                None => "n/a".into(),
            },
        ));
        out
    }
}

/// Per-cell fault adaptation: task faults pin onto the measured CPU in the
/// unshielded cell (without a shield nothing keeps a rogue off your CPU) and
/// float in the shielded cell (the shield strips them). Device faults are
/// identical in both cells — affinity-stripping does all the work.
fn cell_fault(spec: &FaultSpec, shielded: bool) -> FaultSpec {
    let mut out = spec.clone();
    if !shielded {
        let measured = CpuMask::single(MEASURED_CPU).to_string();
        match &mut out.kind {
            FaultKind::LockHolder { pin, .. } | FaultKind::CpuHog { pin, .. } => {
                *pin = Some(measured);
            }
            _ => {}
        }
    }
    out
}

/// Deterministic per-group root seed (groups are independent experiments;
/// each then applies the PR-1 shard-seed contract internally).
pub(crate) fn cell_seed(base: u64, index: u64) -> u64 {
    base ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One merged matrix cell: its group index, fault label, summary, events
/// and captured windows.
pub(crate) type LabelledCell = (usize, String, LatencySummary, u64, Vec<WorstCaseTrace>);

/// Run a matrix flattened across its groups, group `g` on
/// `rigs[g] = (root seed, rig)`. Per shard, each group warms one simulation
/// fault-free to a quarter of the shard budget; then, cell-major, the
/// baseline and every fault of the group's rig fork from each shard's
/// warm simulation. Each fork arms its cell's fault (the baseline arms nothing)
/// and samples the remaining three quarters on top of whatever the warm-up
/// collected, so every cell samples its faulted regime even when the warm-up
/// overshot its quarter. Warm-up samples count toward every cell's
/// histogram; they are drawn under exactly the cell's no-fault conditions,
/// so the baseline percentiles the bands compare against are unaffected and
/// the faulted cells' worst cases still come from their faulted stretches.
///
/// Every group's warms share one fleet batch and every group's forks one
/// stream ([`study::run_groups`]). Returns the merged cells in group then
/// cell order, the baseline first.
pub(crate) fn run_matrix(
    rigs: Vec<(u64, Rig)>,
    shards: u32,
    samples: u64,
    top_k: usize,
) -> Vec<LabelledCell> {
    let shards = effective_shards(shards, samples);
    let budgets = &split_samples(samples, shards);
    // Group `g`'s shard `s` clones warm simulation `g * shards + s`.
    let warms: Vec<_> = rigs
        .iter()
        .flat_map(|(seed, rig)| {
            let seeds = shard_seeds(*seed, shards).into_iter().zip(budgets);
            seeds.map(move |(s, b)| (rig, s, b / 4))
        })
        .collect();
    let cells = rigs.iter().enumerate().flat_map(|(g, (_, rig))| {
        let faults = rig.spec.faults.iter().map(|f| Some(f.name.clone()));
        std::iter::once(None).chain(faults).map(move |fault| {
            let first = g * shards as usize;
            let forks = budgets.iter().enumerate();
            let forks = forks.map(|(s, b)| (first + s, b - b / 4, fault.clone())).collect();
            ((g, fault.unwrap_or_else(|| "baseline".to_string())), forks)
        })
    });
    let arm = |fault: &Option<String>, sim: &mut Simulator, armory: &mut Armory| {
        if let Some(name) = fault {
            armory.arm(sim, name).expect("arm");
        }
    };
    let mut out = Vec::new();
    study::run_groups(&warms, cells, top_k, arm, |(g, fault), run| {
        let summary = LatencySummary::from_histogram(&run.histogram);
        out.push((g, fault, summary, run.events, run.traces));
    });
    out
}

/// Group `g`'s root seed (see [`cell_seed`]) and rig. Both cells of a pair
/// bind the measured task and its interrupt to the measured CPU; the shield
/// is the only variable.
fn group_rig(cfg: &FaultMatrixConfig, g: usize, key: (MatrixPath, bool)) -> (u64, Rig) {
    let (path, shielded) = key;
    let rig = path.rig(KernelConfig::new(KernelVariant::RedHawk), shielded);
    (cell_seed(cfg.seed, g as u64), rig)
}

/// One merged cell of a `(path, shielded)` group, with its captures.
fn matrix_cell(key: (MatrixPath, bool), cell: LabelledCell) -> (MatrixCell, Vec<WorstCaseTrace>) {
    let ((path, shielded), (_, fault, summary, events, traces)) = (key, cell);
    (MatrixCell { fault, path: path.name().into(), shielded, summary, events }, traces)
}

/// Run the full matrix: `(1 baseline + 5 faults) × 2 paths × 2 shield
/// states` = 24 cells, plus the reshield-transient scenario, then check
/// every band. Each `(path, shielded)` group warms once per shard and forks
/// its six cells from the shared warm simulation (see `run_matrix`).
pub fn run_fault_matrix(cfg: &FaultMatrixConfig) -> FaultMatrixReport {
    run_fault_matrix_with_flight(cfg, 0).0
}

/// [`run_fault_matrix`] with the flight recorder armed in every cell's
/// forks: each cell additionally reports the causal windows behind its
/// `top_k` worst samples *from the faulted (post-warm-up) stretch*, worst
/// first. The window lists are index-aligned with the report's `cells`. Warm-up
/// samples carried over from the shared warm-up still count toward the cell
/// histograms, so a quiet cell's histogram max can predate its capture
/// window; the faulted cells the bands judge take their worst case from the
/// faulted stretch the recorder covers. The report itself is bit-identical
/// to [`run_fault_matrix`]'s. With `top_k == 0` nothing is armed.
///
/// Execution is flattened across the whole matrix rather than group by
/// group (see `run_matrix`): every `(group, shard)` warm-up runs in one
/// fleet batch, then all `groups × cells × shards` forks stream through one
/// pull loop, and each cell merges, in order, as its last fork lands. The
/// pool sees `4 × 6 × shards` forks in one stream instead of four serial
/// six-job bursts, while every cell stays bit-identical to running its
/// group alone (asserted in tests).
pub fn run_fault_matrix_with_flight(
    cfg: &FaultMatrixConfig,
    top_k: usize,
) -> (FaultMatrixReport, Vec<Vec<WorstCaseTrace>>) {
    let keys = MatrixPath::ALL.map(|path| [(path, true), (path, false)]).concat();
    let rigs: Vec<_> = keys.iter().enumerate().map(|(g, &key)| group_rig(cfg, g, key)).collect();
    // The reshield scenario rides along as a second fleet job, so an idle
    // worker picks it up instead of it serializing after the cells.
    enum Part {
        Cells(Vec<LabelledCell>),
        Reshield(Option<RecoveryReport>),
    }
    let mut parts = sp_fleet::run_indexed(2, |i| match i {
        0 => Part::Cells(run_matrix(rigs.clone(), cfg.shards, cfg.samples_per_cell, top_k)),
        _ => Part::Reshield(
            run_scenario(&reshield_transient_scenario()).expect("reshield scenario runs").recovery,
        ),
    });
    let (Some(Part::Reshield(reshield)), Some(Part::Cells(cells))) = (parts.pop(), parts.pop())
    else {
        unreachable!("two parts, in index order")
    };
    let (cells, flights) = cells.into_iter().map(|cell| matrix_cell(keys[cell.0], cell)).unzip();
    let reshield = reshield.expect("reshield scenario requests a transient");

    let mut report = FaultMatrixReport { config: cfg.clone(), cells, reshield, violations: vec![] };
    report.violations = check_bands(&report, &matrix_presets());
    (report, flights)
}

fn check_bands(report: &FaultMatrixReport, faults: &[FaultSpec]) -> Vec<String> {
    let mut violations = Vec::new();
    for path in MatrixPath::ALL {
        // Degradation is judged against the baseline's 99.9th percentile: the
        // baseline *max* is itself a heavy-tail draw (the stress NIC's rare
        // multi-ms softirq bursts) that grows with sample count, which would
        // make a max-vs-max ratio shrink as runs get deeper.
        let baseline = report.cell("baseline", path, false).summary.p999;
        let shielded_bound = match path {
            MatrixPath::Realfeel => SHIELDED_REALFEEL_BOUND,
            MatrixPath::Rcim => SHIELDED_RCIM_BOUND,
        };
        for f in faults {
            let unshielded = report.cell(&f.name, path, false).summary.max;
            if unshielded < baseline * DEGRADATION_FACTOR {
                violations.push(format!(
                    "{}/{}: unshielded worst {} under {DEGRADATION_FACTOR}x baseline p99.9 {}",
                    f.name,
                    path.name(),
                    unshielded,
                    baseline
                ));
            }
            let shielded = report.cell(&f.name, path, true).summary.max;
            if shielded >= shielded_bound {
                violations.push(format!(
                    "{}/{}: shielded worst {} breaks the {} bound",
                    f.name,
                    path.name(),
                    shielded,
                    shielded_bound
                ));
            }
        }
        let shielded_base = report.cell("baseline", path, true).summary.max;
        if shielded_base >= shielded_bound {
            violations.push(format!(
                "baseline/{}: shielded worst {} breaks the {} bound",
                path.name(),
                shielded_base,
                shielded_bound
            ));
        }
    }
    if report.reshield.recovery_secs.is_none() {
        violations.push("reshield transient: bound never recovered".into());
    }
    if report.reshield.out_of_bound_before == 0 {
        violations.push("reshield transient: fault never degraded the unshielded phase".into());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-scale matrix — the same configuration CI runs via
    /// `fault_matrix -- 0.02` — must hold every band.
    #[test]
    fn smoke_matrix_holds_every_band() {
        let report = run_fault_matrix(&FaultMatrixConfig::scaled(0.02));
        assert_eq!(report.cells.len(), 24);
        assert!(
            report.violations.is_empty(),
            "band violations:\n{}\n{}",
            report.violations.join("\n"),
            report.markdown()
        );
    }

    /// One matrix group through the shared engine on its own: the
    /// reference the flattened all-groups batch must match cell for cell.
    fn run_one_group(
        cfg: &FaultMatrixConfig,
        index: usize,
        path: MatrixPath,
        shielded: bool,
        top_k: usize,
    ) -> (Vec<MatrixCell>, Vec<Vec<WorstCaseTrace>>) {
        let rig = vec![group_rig(cfg, index, (path, shielded))];
        let cells = run_matrix(rig, cfg.shards, cfg.samples_per_cell, top_k);
        cells.into_iter().map(|cell| matrix_cell((path, shielded), cell)).unzip()
    }

    /// The warm-fork group path is deterministic: two runs of the same group
    /// produce bit-identical summaries and event counts for all six cells.
    #[test]
    fn forked_groups_are_deterministic_across_runs() {
        let cfg = FaultMatrixConfig { samples_per_cell: 1_200, shards: 1, seed: 0xFA17_5EED };
        let faults = matrix_presets();
        let (a, _) = run_one_group(&cfg, 1, MatrixPath::Rcim, true, 0);
        let (b, flights) = run_one_group(&cfg, 1, MatrixPath::Rcim, true, 1);
        assert_eq!(flights.len(), faults.len() + 1);
        assert!(flights.iter().all(|t| !t.is_empty()), "every cell captured a worst window");
        assert_eq!(a.len(), faults.len() + 1);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// The flattened all-groups run (warms, then the streamed cells beside
    /// the reshield scenario) must produce exactly the cells each group
    /// produces when run through the engine alone — whatever the worker
    /// count.
    #[test]
    fn flattened_matrix_matches_group_by_group() {
        let cfg = FaultMatrixConfig { samples_per_cell: 800, shards: 2, seed: 0xFA17_5EED };
        let mut expected = Vec::new();
        let mut group = 0;
        for path in MatrixPath::ALL {
            for shielded in [true, false] {
                expected.extend(run_one_group(&cfg, group, path, shielded, 0).0);
                group += 1;
            }
        }
        let (report, _) = run_fault_matrix_with_flight(&cfg, 0);
        assert_eq!(
            serde_json::to_string(&report.cells).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
    }
}
