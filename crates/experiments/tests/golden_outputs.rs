//! Golden digests of the measured-path studies' outputs.
//!
//! Each entry is an FNV-1a digest of a study's serialized result (plus, for
//! flight-armed runs, every captured window's latency and event count). The
//! digests were recorded before the study pipeline was consolidated (the
//! suite's before the figure table replaced the hand-unpacked runner), and
//! they cover what the per-module tests do not pin byte for byte: the
//! sharded (K > 1) fork paths, the fault matrix, the modern-isolation
//! matrix, a small sweep and the seven-figure suite JSON. A change that
//! moves one of these digests has changed a simulated output, not just
//! refactored how it is produced.

use serde::Serialize;
use sp_experiments::{
    run_fault_matrix_with_flight, run_figures, run_modern_matrix_with_flight,
    run_rcim_with_flight, run_realfeel_with_flight, run_sweep, FaultMatrixConfig, ModernConfig,
    RcimConfig, RealfeelConfig, SweepConfig,
};
use sp_kernel::WorstCaseTrace;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest<T: Serialize>(value: &T) -> u64 {
    fnv1a(serde_json::to_string(value).expect("serializes").as_bytes())
}

/// What a captured window contributes to a digest: its latency and the
/// number of flight events that explain it.
fn trace_key(traces: &[WorstCaseTrace]) -> Vec<(u64, usize)> {
    traces.iter().map(|t| (t.latency.as_ns(), t.events.len())).collect()
}

#[test]
fn realfeel_outputs_are_pinned() {
    let mut got = Vec::new();
    for (name, base) in [
        ("fig5", RealfeelConfig::fig5_vanilla()),
        ("fig6", RealfeelConfig::fig6_redhawk_shielded()),
    ] {
        for shards in [1, 3] {
            let cfg = base.clone().with_samples(6_000).with_shards(shards);
            let (result, traces) = run_realfeel_with_flight(&cfg, 1);
            got.push((format!("{name}/k{shards}"), digest(&(&result, trace_key(&traces)))));
        }
    }
    let expected: Vec<(String, u64)> = vec![
        ("fig5/k1".into(), 0xfe499a3cb2052af6),
        ("fig5/k3".into(), 0x30efcfd543b564c6),
        ("fig6/k1".into(), 0x7ea44528d6b0a81e),
        ("fig6/k3".into(), 0xf896e24099a941a1),
    ];
    assert_eq!(got, expected);
}

#[test]
fn rcim_outputs_are_pinned() {
    let base = RcimConfig::fig7_redhawk_shielded().with_samples(6_000);
    let mut got = Vec::new();
    for (name, cfg) in [
        ("fig7/k1", base.clone()),
        ("fig7/k2", base.clone().with_shards(2)),
        ("fig7-bkl/k1", base.clone().with_bkl()),
    ] {
        let (result, traces) = run_rcim_with_flight(&cfg, 1);
        got.push((name.to_string(), digest(&(&result, trace_key(&traces)))));
    }
    let expected: Vec<(String, u64)> = vec![
        ("fig7/k1".into(), 0xe57c5b4e11c8b7b1),
        ("fig7/k2".into(), 0x013b7121faeef1bb),
        ("fig7-bkl/k1".into(), 0x29225c1a8d9d2bad),
    ];
    assert_eq!(got, expected);
}

#[test]
fn fault_matrix_output_is_pinned() {
    let cfg = FaultMatrixConfig { samples_per_cell: 800, shards: 2, seed: 0xFA17_5EED };
    let (report, flights) = run_fault_matrix_with_flight(&cfg, 1);
    let flights: Vec<_> = report
        .cells
        .iter()
        .zip(&flights)
        .map(|(c, traces)| ((&c.fault, &c.path, c.shielded), trace_key(traces)))
        .collect();
    assert_eq!((digest(&report), digest(&flights)), (0xe666eea75bf931d8, 0x5c72df3ea15da461));
}

#[test]
fn modern_matrix_output_is_pinned() {
    let cfg = ModernConfig { samples_per_cell: 600, shards: 2, seed: 0xA0DE_125EED };
    let (report, flights) = run_modern_matrix_with_flight(&cfg, 1);
    let flights: Vec<_> = report
        .cells
        .iter()
        .zip(&flights)
        .map(|(c, traces)| ((&c.variant, &c.fault, &c.path), trace_key(traces)))
        .collect();
    assert_eq!((digest(&report), digest(&flights)), (0x593b736580e9870d, 0x35d4c7a9af05db6e));
}

#[test]
fn sweep_output_is_pinned() {
    let cfg = SweepConfig { samples_per_cell: 300, warm_samples: 128, ..SweepConfig::canonical(6) };
    let (report, _) = run_sweep(&cfg);
    assert_eq!(report.cells, 6);
    assert_eq!(digest(&report), 0xb9883af36dc2114c);
}

/// The suite JSON `reproduce_all --json` writes (an object keyed `fig1` …
/// `fig7`) and each figure's captured windows, at floor scale: 60
/// determinism iterations and 1,000 latency samples over two shards.
#[test]
fn figure_suite_output_is_pinned() {
    let suite = run_figures(0.002, 2, 1);
    let windows: Vec<_> = suite.runs.iter().map(|r| trace_key(&r.traces)).collect();
    assert_eq!((digest(&suite), digest(&windows)), (0x9bf6266eb5149a80, 0xb4fa42bba0d2f326));
}
