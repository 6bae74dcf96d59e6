//! The paper's seven figures as one table.
//!
//! Figures 1–4 time the §5 determinism loop, Figures 5–6 measure realfeel on
//! `/dev/rtc` and Figure 7 the RCIM `ioctl()`. Each [`Figure`] names its
//! canonical [`Experiment`], what the paper reports, and the band a
//! reproduction must land in; [`run_figures`] runs all seven on the
//! `sp-fleet` pool and [`FigureResult::render`] draws them paper-style.

use crate::determinism::{run_determinism, DeterminismConfig, DeterminismResult};
use crate::rcim::{run_rcim_with_flight, RcimConfig, RcimResult};
use crate::realfeel::{run_realfeel_with_flight, RealfeelConfig, RealfeelResult};
use serde::{Serialize, Value};
use simcore::Nanos;
use sp_kernel::WorstCaseTrace;
use sp_metrics::{ascii_histogram, LatencyHistogram, PlotOptions};
use std::fmt::{self, Write as _};

/// One figure of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
}

/// The range a reproduced figure's headline number must fall in.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// Worst-iteration jitter, in percent of the ideal loop time.
    Jitter { lo_pct: f64, hi_pct: f64 },
    /// Worst-case interrupt-response latency.
    Max { lo: Nanos, hi: Nanos },
}

/// A figure's experiment: one of the three measured configurations.
#[derive(Debug, Clone)]
pub enum Experiment {
    Determinism(DeterminismConfig),
    Realfeel(RealfeelConfig),
    Rcim(RcimConfig),
}

/// A figure's measured result.
#[derive(Debug)]
pub enum FigureResult {
    Determinism(DeterminismResult),
    Realfeel(RealfeelResult),
    Rcim(RcimResult),
}

/// One figure of a suite run: its result and, for the latency figures run
/// with capture on, the merged worst-case windows (worst first).
#[derive(Debug)]
pub struct FigureRun {
    pub figure: Figure,
    pub result: FigureResult,
    pub traces: Vec<WorstCaseTrace>,
}

/// All seven figures, in [`Figure::ALL`] order. Serializes as an object
/// keyed `fig1`…`fig7`, each value the figure's own result.
#[derive(Debug)]
pub struct FigureSuite {
    pub runs: Vec<FigureRun>,
}

/// What the table holds for one figure.
struct Row {
    id: &'static str,
    description: &'static str,
    paper: &'static str,
    band: Band,
    experiment: Experiment,
}

impl Figure {
    pub const ALL: [Figure; 7] = [
        Figure::Fig1,
        Figure::Fig2,
        Figure::Fig3,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
    ];

    fn row(self) -> Row {
        use Experiment::{Determinism, Rcim, Realfeel};
        let jitter = |lo_pct, hi_pct| Band::Jitter { lo_pct, hi_pct };
        let max = |lo, hi| Band::Max { lo, hi };
        match self {
            Figure::Fig1 => Row {
                id: "fig1",
                description: "determinism, kernel.org 2.4.18, HT on",
                paper: "ideal 1.148 s, max 1.449 s, jitter 26.17 %",
                band: jitter(16.0, 45.0),
                experiment: Determinism(DeterminismConfig::fig1_vanilla_ht()),
            },
            Figure::Fig2 => Row {
                id: "fig2",
                description: "determinism, RedHawk 1.4, shielded CPU",
                paper: "ideal 1.148 s, max 1.170 s, jitter 1.87 %",
                band: jitter(0.2, 4.0),
                experiment: Determinism(DeterminismConfig::fig2_redhawk_shielded()),
            },
            Figure::Fig3 => Row {
                id: "fig3",
                description: "determinism, RedHawk 1.4, unshielded",
                paper: "jitter 14.82 %",
                band: jitter(8.0, 22.0),
                experiment: Determinism(DeterminismConfig::fig3_redhawk_unshielded()),
            },
            Figure::Fig4 => Row {
                id: "fig4",
                description: "determinism, kernel.org 2.4.18, HT off",
                paper: "jitter 13.15 %",
                band: jitter(8.0, 20.0),
                experiment: Determinism(DeterminismConfig::fig4_vanilla_noht()),
            },
            Figure::Fig5 => Row {
                id: "fig5",
                description: "realfeel /dev/rtc, kernel.org 2.4.18",
                paper: "max 92.3 ms; 99.14 % < 0.1 ms",
                band: max(Nanos::from_ms(2), Nanos::from_ms(200)),
                experiment: Realfeel(RealfeelConfig::fig5_vanilla()),
            },
            Figure::Fig6 => Row {
                id: "fig6",
                description: "realfeel /dev/rtc, RedHawk shielded",
                paper: "max 0.565 ms; ~100 % < 0.1 ms",
                band: max(Nanos::from_us(15), Nanos::from_ms(1)),
                experiment: Realfeel(RealfeelConfig::fig6_redhawk_shielded()),
            },
            Figure::Fig7 => Row {
                id: "fig7",
                description: "RCIM ioctl, RedHawk shielded",
                paper: "min 11 µs, avg 11.3 µs, max 27 µs",
                band: max(Nanos::from_us(15), Nanos::from_us(30)),
                experiment: Rcim(RcimConfig::fig7_redhawk_shielded()),
            },
        }
    }

    /// `fig1` … `fig7`.
    pub fn id(self) -> &'static str {
        self.row().id
    }

    /// What the figure measures, on which kernel.
    pub fn description(self) -> &'static str {
        self.row().description
    }

    /// What the paper reports for the figure.
    pub fn paper(self) -> &'static str {
        self.row().paper
    }

    /// The band a reproduction of the figure must land in.
    pub fn band(self) -> Band {
        self.row().band
    }

    /// The figure's experiment at its full-scale defaults.
    pub fn experiment(self) -> Experiment {
        self.row().experiment
    }

    /// The figure with this [`id`](Self::id), if any.
    pub fn from_id(id: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.id() == id)
    }
}

impl Band {
    /// The band's figure of merit as measured in `r`, and whether it lies
    /// inside the band.
    pub fn judge(self, r: &FigureResult) -> (String, bool) {
        match self {
            Band::Jitter { lo_pct, hi_pct } => {
                let FigureResult::Determinism(d) = r else {
                    panic!("a jitter band judges a determinism result")
                };
                let j = d.summary.jitter_pct();
                (format!("{j:.2} % jitter"), j >= lo_pct && j <= hi_pct)
            }
            Band::Max { lo, hi } => {
                let max = r.latency_max().expect("a max band judges a latency result");
                (format!("max {max}"), max >= lo && max <= hi)
            }
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Jitter { lo_pct, hi_pct } => write!(f, "{lo_pct}–{hi_pct} %"),
            Band::Max { lo, hi } => write!(f, "{lo}–{hi}"),
        }
    }
}

impl Experiment {
    /// The experiment on its seed plus `offset` (wrapping).
    pub fn with_seed_offset(mut self, offset: u64) -> Experiment {
        let seed = match &mut self {
            Experiment::Determinism(c) => &mut c.seed,
            Experiment::Realfeel(c) => &mut c.seed,
            Experiment::Rcim(c) => &mut c.seed,
        };
        *seed = seed.wrapping_add(offset);
        self
    }

    /// The experiment with `iterations` determinism iterations or `samples`
    /// latency samples, whichever it counts.
    pub fn sized(self, iterations: u32, samples: u64) -> Experiment {
        match self {
            Experiment::Determinism(c) => Experiment::Determinism(c.with_iterations(iterations)),
            Experiment::Realfeel(c) => Experiment::Realfeel(c.with_samples(samples)),
            Experiment::Rcim(c) => Experiment::Rcim(c.with_samples(samples)),
        }
    }

    /// The experiment with its iteration or sample count multiplied by
    /// `scale` (rounded up): at least `min_iterations` determinism
    /// iterations, or at least 1,000 latency samples split across `shards`.
    pub fn scaled(self, scale: f64, min_iterations: u32, shards: u32) -> Experiment {
        let samples = |base: u64| ((base as f64 * scale).ceil() as u64).max(1_000);
        match self {
            Experiment::Determinism(c) => {
                let n = ((c.iterations as f64 * scale).ceil() as u32).max(min_iterations);
                Experiment::Determinism(c.with_iterations(n))
            }
            Experiment::Realfeel(c) => {
                let n = samples(c.samples);
                Experiment::Realfeel(c.with_samples(n).with_shards(shards))
            }
            Experiment::Rcim(c) => {
                let n = samples(c.samples);
                Experiment::Rcim(c.with_samples(n).with_shards(shards))
            }
        }
    }

    /// Run the experiment. With `top_k > 0` the latency experiments arm the
    /// flight recorder and return their merged top-`top_k` worst windows;
    /// the recorder is pure observation, so the result does not depend on
    /// `top_k`. Determinism runs capture nothing.
    pub fn run(&self, top_k: usize) -> (FigureResult, Vec<WorstCaseTrace>) {
        match self {
            Experiment::Determinism(c) => (FigureResult::Determinism(run_determinism(c)), vec![]),
            Experiment::Realfeel(c) => {
                let (r, traces) = run_realfeel_with_flight(c, top_k);
                (FigureResult::Realfeel(r), traces)
            }
            Experiment::Rcim(c) => {
                let (r, traces) = run_rcim_with_flight(c, top_k);
                (FigureResult::Rcim(r), traces)
            }
        }
    }
}

fn header(id: &str, title: &str, label: &str) -> String {
    let rule = "=".repeat(72);
    format!("{rule}\n{id}: {title}\n  configuration: {label}\n{rule}\n")
}

/// The log-count ASCII histogram every figure draws, from zero to the
/// larger of the data's maximum and `floor`.
fn plot(h: &LatencyHistogram, floor: Nanos) -> String {
    let hi = h.max().max(floor);
    ascii_histogram(h, Nanos::ZERO, hi, &PlotOptions { bins: 24, width: 40, log_counts: true })
}

impl FigureResult {
    /// The experiment's configuration label.
    pub fn label(&self) -> String {
        match self {
            FigureResult::Determinism(r) => r.config.label(),
            FigureResult::Realfeel(r) => r.config.label(),
            FigureResult::Rcim(r) => r.config.label(),
        }
    }

    /// Simulator events dispatched.
    pub fn events(&self) -> u64 {
        match self {
            FigureResult::Determinism(r) => r.events,
            FigureResult::Realfeel(r) => r.events,
            FigureResult::Rcim(r) => r.events,
        }
    }

    /// The figure's histogram: per-iteration variance from ideal for the
    /// determinism figures, interrupt-response latency for the others.
    pub fn histogram(&self) -> &LatencyHistogram {
        match self {
            FigureResult::Determinism(r) => &r.variance_histogram,
            FigureResult::Realfeel(r) => &r.histogram,
            FigureResult::Rcim(r) => &r.histogram,
        }
    }

    /// Worst interrupt-response latency; `None` for a determinism figure.
    pub fn latency_max(&self) -> Option<Nanos> {
        match self {
            FigureResult::Determinism(_) => None,
            FigureResult::Realfeel(r) => Some(r.summary.max),
            FigureResult::Rcim(r) => Some(r.summary.max),
        }
    }

    /// One-line summary in the terms the paper reports the figure in.
    pub fn measured(&self) -> String {
        match self {
            FigureResult::Determinism(r) => format!(
                "ideal {:.3} s, max {:.3} s, jitter {:.2} %",
                r.summary.ideal.as_secs_f64(),
                r.summary.max.as_secs_f64(),
                r.summary.jitter_pct()
            ),
            FigureResult::Realfeel(r) => {
                let sub_100us = r.histogram.count_below(Nanos::from_us(100)) as f64
                    / r.histogram.count().max(1) as f64;
                format!(
                    "max {}; {:.2} % < 0.1 ms (n={})",
                    r.summary.max,
                    sub_100us * 100.0,
                    r.summary.count
                )
            }
            FigureResult::Rcim(r) => format!(
                "min {}, avg {}, max {} (n={})",
                r.summary.min, r.summary.mean, r.summary.max, r.summary.count
            ),
        }
    }

    /// Render the figure paper-style under the heading `id`: Figures 1–4 as
    /// a variance-from-ideal histogram plus the ideal/max/jitter legend,
    /// Figures 5–6 as a log histogram plus the cumulative "samples < X"
    /// block, Figure 7 likewise with the min/max/average legend.
    pub fn render(&self, id: &str) -> String {
        match self {
            FigureResult::Determinism(r) => {
                let mut out = header(id, "execution determinism", &r.config.label());
                out.push_str("  variance from ideal (log-scaled sample counts)\n");
                out.push_str(&plot(&r.variance_histogram, Nanos::from_ms(1)));
                let _ = writeln!(out, "\n  {}", r.summary);
                let _ = writeln!(
                    out,
                    "  interrupt-context share of the loop CPU: {:.2}%",
                    r.steal_fraction * 100.0
                );
                out
            }
            FigureResult::Realfeel(r) => {
                let title = "realfeel interrupt response (/dev/rtc read)";
                let mut out = header(id, title, &r.config.label());
                out.push_str(&plot(&r.histogram, Nanos::from_us(100)));
                let _ = writeln!(out, "\n  {} measured rtc interrupts", r.summary.count);
                let _ = writeln!(out, "  max latency: {}", r.summary.max);
                let _ = writeln!(out, "  overrun interrupts (reader not waiting): {}", r.overruns);
                out.push_str(&r.cumulative.to_string());
                out
            }
            FigureResult::Rcim(r) => {
                let title = "RCIM interrupt response (BKL-free ioctl)";
                let mut out = header(id, title, &r.config.label());
                out.push_str(&plot(&r.histogram, Nanos::from_us(40)));
                let _ = writeln!(out, "\n  {} measured RCIM interrupts", r.summary.count);
                let _ = writeln!(out, "  minimum latency: {}", r.summary.min);
                let _ = writeln!(out, "  maximum latency: {}", r.summary.max);
                let _ = writeln!(out, "  average latency: {}", r.summary.mean);
                out.push_str(&r.cumulative.to_string());
                out
            }
        }
    }
}

impl Serialize for FigureResult {
    fn to_value(&self) -> Value {
        match self {
            FigureResult::Determinism(r) => r.to_value(),
            FigureResult::Realfeel(r) => r.to_value(),
            FigureResult::Rcim(r) => r.to_value(),
        }
    }
}

impl Serialize for FigureSuite {
    fn to_value(&self) -> Value {
        let fields = self.runs.iter().map(|r| (r.figure.id().to_string(), r.result.to_value()));
        Value::Object(fields.collect())
    }
}

/// Determinism iterations the suite runs at any scale: worst-iteration
/// jitter needs about 60 before the tail bands are reachable at all.
const SUITE_MIN_ITERATIONS: u32 = 60;

/// Run all seven figures at `scale`, each figure one fleet job.
///
/// `scale` multiplies every figure's sample count or iteration count: 1.0
/// reproduces the defaults, smaller is faster (smoke runs), larger digs
/// deeper into the tails. Floors keep smoke runs statistically meaningful:
/// 60 determinism iterations and 1,000 latency samples. The Figure 5–7
/// sample budgets are split across `shards` forked-seed simulations each
/// (see [`crate::shard`]), whose fan-outs are nested fleet batches at the
/// same worker count; `shards = 1` is the historical single-simulation
/// output. With `top_k > 0` each of Figures 5–7 also returns its merged
/// top-`top_k` worst-case windows; the worst one's latency equals the
/// figure's summary `max`, and the results are bit-identical to a
/// `top_k == 0` run with the same `(scale, shards)`.
pub fn run_figures(scale: f64, shards: u32, top_k: usize) -> FigureSuite {
    assert!(scale > 0.0);
    let jobs = Figure::ALL.map(|f| f.experiment().scaled(scale, SUITE_MIN_ITERATIONS, shards));
    let outs = sp_fleet::run_indexed(jobs.len(), |i| jobs[i].run(top_k));
    let runs = Figure::ALL.into_iter().zip(outs);
    let runs = runs.map(|(figure, (result, traces))| FigureRun { figure, result, traces });
    FigureSuite { runs: runs.collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_names_every_figure_in_order() {
        for (i, fig) in Figure::ALL.into_iter().enumerate() {
            assert_eq!(fig.id(), format!("fig{}", i + 1));
            assert_eq!(Figure::from_id(fig.id()), Some(fig));
            let jitter = matches!(fig.band(), Band::Jitter { .. });
            assert_eq!(jitter, matches!(fig.experiment(), Experiment::Determinism(_)), "{fig:?}");
        }
        assert_eq!(Figure::from_id("fig8"), None);
    }

    #[test]
    fn renders_carry_the_paper_numbers() {
        let mut cfg = DeterminismConfig::fig2_redhawk_shielded().with_iterations(4);
        cfg.loop_work = Nanos::from_ms(100);
        let (d, _) = Experiment::Determinism(cfg).run(0);
        let text = d.render("fig2");
        assert!(text.contains("fig2: execution determinism"), "{text}");
        assert!(text.contains("ideal:"), "{text}");
        assert!(text.contains("jitter:"), "{text}");
        assert!(text.contains("interrupt-context share"), "{text}");

        let fig6 = RealfeelConfig::fig6_redhawk_shielded().with_samples(3_000);
        let (r, _) = Experiment::Realfeel(fig6).run(0);
        let text = r.render("fig6");
        assert!(text.contains("measured rtc interrupts"), "{text}");
        assert!(text.contains("max latency:"), "{text}");
        assert!(text.contains("samples <"), "{text}");

        let fig7 = RcimConfig::fig7_redhawk_shielded().with_samples(3_000);
        let (r, _) = Experiment::Rcim(fig7).run(0);
        let text = r.render("fig7");
        assert!(text.contains("minimum latency:"), "{text}");
        assert!(text.contains("average latency:"), "{text}");
    }

    #[test]
    fn bands_judge_their_figure_of_merit() {
        let fig7 = RcimConfig::fig7_redhawk_shielded().with_samples(2_000);
        let (r, _) = Experiment::Rcim(fig7).run(0);
        let max = r.latency_max().expect("a latency figure");
        let wide = Band::Max { lo: Nanos::ZERO, hi: Nanos::from_ms(1) };
        let narrow = Band::Max { lo: Nanos::from_ms(5), hi: Nanos::from_ms(6) };
        assert_eq!(wide.judge(&r), (format!("max {max}"), true));
        assert_eq!(narrow.judge(&r), (format!("max {max}"), false));
        assert_eq!(narrow.to_string(), "5.000ms–6.000ms");
        assert_eq!(Band::Jitter { lo_pct: 0.2, hi_pct: 4.0 }.to_string(), "0.2–4 %");
    }
}
