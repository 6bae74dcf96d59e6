//! Run the full figure suite on the `sp-fleet` pool: each figure is one
//! fleet job, and the latency figures' internal shard fan-outs are nested
//! fleet batches at the same worker count, so the whole suite saturates the
//! machine without spawning a thread per shard.

use crate::determinism::{run_determinism, DeterminismConfig, DeterminismResult};
use crate::rcim::{run_rcim_with_flight, RcimConfig, RcimResult};
use crate::realfeel::{run_realfeel_with_flight, RealfeelConfig, RealfeelResult};
use sp_kernel::WorstCaseTrace;

/// Results of the complete figure suite.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct FigureSuite {
    pub fig1: DeterminismResult,
    pub fig2: DeterminismResult,
    pub fig3: DeterminismResult,
    pub fig4: DeterminismResult,
    pub fig5: RealfeelResult,
    pub fig6: RealfeelResult,
    pub fig7: RcimResult,
}

/// Flight-recorder captures for the latency figures (empty when the suite
/// ran without capture). Each entry is that figure's merged top-K worst
/// wake-to-user windows, worst first; the worst entry's latency equals the
/// figure's summary `max`.
#[derive(Debug, Default)]
pub struct SuiteFlight {
    /// Figure 5 (vanilla realfeel) captures.
    pub fig5: Vec<WorstCaseTrace>,
    /// Figure 6 (shielded realfeel) captures.
    pub fig6: Vec<WorstCaseTrace>,
    /// Figure 7 (shielded RCIM) captures.
    pub fig7: Vec<WorstCaseTrace>,
}

enum FigJob {
    Det(DeterminismConfig),
    Real(RealfeelConfig),
    Rcim(RcimConfig),
}

enum FigOut {
    Det(DeterminismResult),
    Real(RealfeelResult, Vec<WorstCaseTrace>),
    Rcim(RcimResult, Vec<WorstCaseTrace>),
}

/// Run all seven figures at `scale`.
///
/// `scale` multiplies every figure's sample count or iteration count: 1.0
/// reproduces the defaults, smaller is faster (smoke runs), larger digs
/// deeper into the tails. The Figure 5–7 sample budgets are split across
/// `shards` forked-seed simulations each (see [`crate::shard`]); `shards = 1`
/// is the historical single-simulation output. With `top_k > 0` the flight
/// recorder is armed on the latency figures, and each of Figures 5–7 also
/// returns its merged top-`top_k` worst-case windows (see [`SuiteFlight`]).
/// The recorder is pure observation, so the [`FigureSuite`] is bit-identical
/// to a `top_k == 0` run with the same `(scale, shards)`.
pub fn run_all_figures_flight(
    scale: f64,
    shards: u32,
    top_k: usize,
) -> (FigureSuite, SuiteFlight) {
    assert!(scale > 0.0);
    // Floors keep smoke runs statistically meaningful: worst-iteration jitter
    // needs ~60 iterations before the tail bands are reachable at all, and
    // the latency verdicts need a few thousand samples.
    let iters = |base: u32| ((base as f64 * scale).ceil() as u32).max(60);
    let samples = |base: u64| ((base as f64 * scale).ceil() as u64).max(1_000);

    let d_cfgs = [
        DeterminismConfig::fig1_vanilla_ht(),
        DeterminismConfig::fig2_redhawk_shielded(),
        DeterminismConfig::fig3_redhawk_unshielded(),
        DeterminismConfig::fig4_vanilla_noht(),
    ]
    .map(|c| {
        let n = iters(c.iterations);
        c.with_iterations(n)
    });
    let f5 = RealfeelConfig::fig5_vanilla();
    let f5 = f5.clone().with_samples(samples(f5.samples)).with_shards(shards);
    let f6 = RealfeelConfig::fig6_redhawk_shielded();
    let f6 = f6.clone().with_samples(samples(f6.samples)).with_shards(shards);
    let f7 = RcimConfig::fig7_redhawk_shielded();
    let f7 = f7.clone().with_samples(samples(f7.samples)).with_shards(shards);

    let [d1, d2, d3, d4] = d_cfgs;
    let jobs = [
        FigJob::Det(d1),
        FigJob::Det(d2),
        FigJob::Det(d3),
        FigJob::Det(d4),
        FigJob::Real(f5),
        FigJob::Real(f6),
        FigJob::Rcim(f7),
    ];

    let outs = sp_fleet::run_indexed(jobs.len(), |i| match &jobs[i] {
        FigJob::Det(cfg) => FigOut::Det(run_determinism(cfg)),
        FigJob::Real(cfg) => {
            let (r, tr) = run_realfeel_with_flight(cfg, top_k);
            FigOut::Real(r, tr)
        }
        FigJob::Rcim(cfg) => {
            let (r, tr) = run_rcim_with_flight(cfg, top_k);
            FigOut::Rcim(r, tr)
        }
    });

    let mut det = Vec::new();
    let mut real = Vec::new();
    let mut rcim = None;
    for out in outs {
        match out {
            FigOut::Det(r) => det.push(r),
            FigOut::Real(r, tr) => real.push((r, tr)),
            FigOut::Rcim(r, tr) => rcim = Some((r, tr)),
        }
    }

    let mut det = det.into_iter();
    let mut real = real.into_iter();
    let (lat5, fl5) = real.next().expect("fig5");
    let (lat6, fl6) = real.next().expect("fig6");
    let (lat7, fl7) = rcim.expect("fig7");
    let suite = FigureSuite {
        fig1: det.next().expect("fig1"),
        fig2: det.next().expect("fig2"),
        fig3: det.next().expect("fig3"),
        fig4: det.next().expect("fig4"),
        fig5: lat5,
        fig6: lat6,
        fig7: lat7,
    };
    let flight = SuiteFlight { fig5: fl5, fig6: fl6, fig7: fl7 };
    (suite, flight)
}
