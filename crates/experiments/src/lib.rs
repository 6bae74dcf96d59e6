//! # sp-experiments — the paper's evaluation, as runnable scenarios
//!
//! One builder per figure of *Shielded Processors* (IPPS 2003):
//!
//! | figure | module | paper result |
//! |---|---|---|
//! | Fig. 1 | [`determinism`] (`fig1_vanilla_ht`) | jitter 26.17 % |
//! | Fig. 2 | [`determinism`] (`fig2_redhawk_shielded`) | jitter 1.87 % |
//! | Fig. 3 | [`determinism`] (`fig3_redhawk_unshielded`) | jitter 14.82 % |
//! | Fig. 4 | [`determinism`] (`fig4_vanilla_noht`) | jitter 13.15 % |
//! | Fig. 5 | [`realfeel`] (`fig5_vanilla`) | max 92.3 ms |
//! | Fig. 6 | [`realfeel`] (`fig6_redhawk_shielded`) | max 0.565 ms |
//! | Fig. 7 | [`rcim`] (`fig7_redhawk_shielded`) | min 11 µs, max 27 µs |
//!
//! [`runner::run_all_figures_flight`] executes the whole suite (in parallel);
//! [`report`] renders paper-style text figures.

pub mod autopilot;
pub mod determinism;
pub mod faultmatrix;
pub mod flight;
pub mod modernmax;
pub mod rcim;
pub mod realfeel;
pub mod replication;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shard;
mod study;
pub mod sweep;

pub use autopilot::{
    run_autopilot, run_autopilot_forked, run_autopilot_study, run_static_level, AutopilotConfig,
    AutopilotRun, AutopilotStudy, AutopilotVerdict,
};
pub use determinism::{run_determinism, DeterminismConfig, DeterminismResult};
pub use flight::{merge_top, trace_meta};
pub use rcim::{run_rcim, run_rcim_with_flight, RcimConfig, RcimResult};
pub use realfeel::{run_realfeel, run_realfeel_with_flight, RealfeelConfig, RealfeelResult};
pub use replication::{
    replicate_determinism, replicate_rcim_max, replicate_realfeel_max, Replicated,
};
pub use faultmatrix::{
    run_fault_matrix, run_fault_matrix_with_flight, CellFlight, FaultMatrixConfig,
    FaultMatrixReport, MatrixCell,
};
pub use modernmax::{
    run_modern_matrix, run_modern_matrix_with_flight, ModernCell, ModernCellFlight, ModernConfig,
    ModernReport, ModernVariant, MODERN_RCIM_BOUND,
};
pub use runner::{run_all_figures_flight, FigureSuite, SuiteFlight};
pub use scenario::{
    run_scenario, MeasuredResult, RecoveryReport, ScenarioError,
    ScenarioReport, ScenarioSpec,
};
pub use sweep::{
    run_sweep, SweepCell, SweepConfig, SweepGroup, SweepGroupReport, SweepReport, SweepTelemetry,
    SweepWorstCell,
};
