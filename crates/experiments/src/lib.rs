//! # sp-experiments — the paper's evaluation, as runnable scenarios
//!
//! [`Figure`] is the table of the seven figures of *Shielded Processors*
//! (IPPS 2003): each names its experiment — [`determinism`] for Figures
//! 1–4, [`realfeel`] for Figures 5–6, [`rcim`] for Figure 7 — what the
//! paper reports and the band a reproduction must land in.
//! [`run_figures`] runs the whole suite (in parallel) and
//! [`FigureResult::render`] draws paper-style text figures.

pub mod autopilot;
pub mod determinism;
pub mod faultmatrix;
pub mod figure;
pub mod flight;
pub mod modernmax;
pub mod rcim;
pub mod realfeel;
pub mod replication;
pub mod scenario;
pub mod shard;
mod study;
pub mod sweep;

pub use autopilot::{
    run_autopilot, run_autopilot_forked, run_autopilot_study, run_static_level, AutopilotConfig,
    AutopilotRun, AutopilotStudy, AutopilotVerdict,
};
pub use determinism::{run_determinism, DeterminismConfig, DeterminismResult};
pub use figure::{run_figures, Band, Experiment, Figure, FigureResult, FigureRun, FigureSuite};
pub use flight::{merge_top, trace_meta};
pub use rcim::{run_rcim, run_rcim_with_flight, RcimConfig, RcimResult};
pub use realfeel::{run_realfeel, run_realfeel_with_flight, RealfeelConfig, RealfeelResult};
pub use replication::{replicate, Merit, Replicated};
pub use faultmatrix::{
    run_fault_matrix, run_fault_matrix_with_flight, FaultMatrixConfig,
    FaultMatrixReport, MatrixCell,
};
pub use modernmax::{
    run_modern_matrix, run_modern_matrix_with_flight, ModernCell, ModernConfig,
    ModernReport, ModernVariant, MODERN_RCIM_BOUND,
};
pub use scenario::{
    run_scenario, MeasuredResult, RecoveryReport, ScenarioError,
    ScenarioReport, ScenarioSpec,
};
pub use sweep::{
    run_sweep, SweepCell, SweepConfig, SweepGroup, SweepGroupReport, SweepReport, SweepTelemetry,
    SweepWorstCell,
};
