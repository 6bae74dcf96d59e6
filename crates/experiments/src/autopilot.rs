//! The autopilot experiment family: closed-loop adaptive shielding under
//! the production request-serving workload.
//!
//! The paper's evaluation freezes the shield configuration per run; the
//! autopilot experiment instead puts an [`sp_autopilot::Autopilot`] in the
//! loop and drives the [`sp_workloads::request_serving`] plant through the
//! canonical diurnal-burst day ([`sp_workloads::diurnal_burst_profile`]):
//! 200 k requests/s at night up to 12 M/s in the flash-crowd burst, all
//! through one coalescing 8 kHz queue.
//!
//! [`run_autopilot_study`] additionally replays the *same* plant under every
//! static rung of the ladder — each monitored by a single-rung controller,
//! so static runs are judged by exactly the same windowing — and grades the
//! closed loop on three axes:
//!
//! 1. **SLA**: zero steady-state violating windows (violations are allowed
//!    only while the controller is demonstrably reacting: trip ring arming,
//!    cooldown, or the reconfig window itself);
//! 2. **throughput**: best-effort CPU-seconds per second at least
//!    [`AutopilotConfig::min_throughput_ratio`] × the best static
//!    configuration (the fastest rung with no violating windows — in
//!    practice the full shield, since the diurnal burst disqualifies every
//!    lighter rung);
//! 3. **transients**: every reconfiguration's latency transient recovers
//!    within [`AutopilotConfig::recovery_budget_secs`], graded by the same
//!    recovery verdict scripted scenario timelines get.
//!
//! A run never keeps the server's whole latency log. After every control
//! step it folds the window's samples into the run histogram and the
//! recovery verdicts, then discards them from the simulator's log
//! ([`sp_kernel::Observations::discard_latencies`]), so memory is bounded
//! by one control window, not by the length of the day.
//!
//! Everything here is a pure function of the config (seed included):
//! [`run_autopilot_forked`] proves it by forking mid-flight and returning a
//! bit-identical result.

use crate::scenario::{RecoveryReport, RecoveryTracker, TransientSpec};
use serde::{Deserialize, Serialize};
use simcore::{Instant, Nanos};
use sp_autopilot::{
    Autopilot, ControllerConfig, DecisionCause, DecisionTrace, PlantBindings, ShieldLevel,
};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::{AnyDevice, Pid, Simulator};
use sp_metrics::{LatencyHistogram, LatencySummary};
use sp_workloads::{
    diurnal_burst_profile, request_kernel_config, request_serving, RequestService,
};

/// Configuration of one autopilot experiment (and its static baselines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutopilotConfig {
    /// Root seed; the whole result is a pure function of this config.
    pub seed: u64,
    /// Diurnal cycles to run (16 s each).
    pub cycles: u32,
    /// The p99.9 response bound (µs) the server must hold.
    pub sla_us: u64,
    /// Best-effort analytics tasks in the plant.
    pub analytics: usize,
    /// Budget (s) for every reconfig transient to recover within.
    pub recovery_budget_secs: f64,
    /// Consecutive in-bound samples that count as "recovered".
    pub settle: usize,
    /// The throughput gate: autopilot ≥ this × the best static rung.
    pub min_throughput_ratio: f64,
}

impl AutopilotConfig {
    /// The canonical study: seed 13, two full diurnal cycles, 100 µs SLA.
    pub fn canonical() -> Self {
        AutopilotConfig {
            seed: 13,
            cycles: 2,
            sla_us: 100,
            analytics: 6,
            recovery_budget_secs: 2.5,
            settle: 50,
            min_throughput_ratio: 1.5,
        }
    }

    /// Scale the run length: `scale < 1` drops to a single cycle (the CI
    /// smoke), `scale >= 1` runs `round(2 × scale)` cycles. The per-cycle
    /// traffic shape is never compressed — control windows need their full
    /// sample budget to judge a p99.9.
    pub fn scaled(mut self, scale: f64) -> Self {
        self.cycles = if scale < 1.0 { 1 } else { (2.0 * scale).round().max(2.0) as u32 };
        self
    }

    /// Display label, used in fleet specs and artifacts.
    pub fn label(&self) -> String {
        format!(
            "autopilot sla={}us cycles={} seed={:#x}",
            self.sla_us, self.cycles, self.seed
        )
    }

    /// Simulated run length in seconds.
    pub fn run_secs(&self) -> f64 {
        self.cycles as f64 * diurnal_burst_profile().cycle_len().as_secs_f64()
    }

    /// The default closed-loop controller for the quad-core plant: 250 ms
    /// windows (~2 000 samples at 8 kHz — enough for a statistical p99.9),
    /// 2-of-3 trip, 3-window relax guarded at 65 % of the SLA, one cooldown
    /// window per reconfig.
    pub fn controller(&self) -> ControllerConfig {
        ControllerConfig {
            sla: Nanos::from_us(self.sla_us),
            period: Nanos::from_ms(250),
            trip: 2,
            trip_span: 3,
            relax: 3,
            relax_margin_pct: 65,
            cooldown: 1,
            min_window: 200,
            levels: ShieldLevel::ladder(CpuMask::first_n(4), CpuId(3)),
            start_level: 0,
        }
    }
}

/// One run of the plant under one controller (closed-loop or single-rung
/// static monitor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutopilotRun {
    /// Display label ("autopilot", "static:off", …).
    pub label: String,
    /// The controller's decision trace — the `cmp`-able CI artifact.
    pub trace: DecisionTrace,
    /// Whole-run server wake-to-user latency summary.
    pub latency: LatencySummary,
    /// Best-effort CPU-seconds accumulated over the run.
    pub be_cpu_secs: f64,
    /// Best-effort CPU-seconds per simulated second (the throughput metric).
    pub be_rate: f64,
    /// Requests delivered by the traffic queue.
    pub requests: u64,
    /// Coalesced interrupts fired.
    pub irqs_fired: u64,
    /// Interrupts that found no waiting server (overrun windows).
    pub missed_irqs: u64,
    /// One recovery verdict per reconfiguration (engage excluded).
    pub recoveries: Vec<RecoveryReport>,
}

/// The three verdict axes and their conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutopilotVerdict {
    /// No steady-state SLA violations anywhere in the closed-loop run.
    pub zero_steady: bool,
    /// Throughput ratio vs the best static rung met the configured floor.
    pub throughput_ok: bool,
    /// Every reconfig transient recovered within budget.
    pub transients_recovered: bool,
    /// All of the above.
    pub pass: bool,
}

/// The full study: the closed loop, every static rung, and the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutopilotStudy {
    /// Config echo.
    pub config: AutopilotConfig,
    /// The closed-loop run.
    pub autopilot: AutopilotRun,
    /// One static run per ladder rung, weakest first.
    pub statics: Vec<AutopilotRun>,
    /// Index into `statics` of the best SLA-compliant rung (fastest rung
    /// with zero violating windows; if none complies, the least-violating).
    pub best_static: usize,
    /// `autopilot.be_rate / statics[best_static].be_rate`.
    pub throughput_ratio: f64,
    /// The graded gates.
    pub verdict: AutopilotVerdict,
}

fn build_plant(cfg: &AutopilotConfig) -> (Simulator, RequestService) {
    let mut sim = Simulator::new(
        MachineConfig::quad_xeon_server(),
        request_kernel_config(),
        cfg.seed,
    );
    let svc = request_serving(&mut sim, diurnal_burst_profile(), CpuId(3), cfg.analytics);
    // The recovery verdicts place each sample before or after a decision.
    sim.watch_latency_times(svc.server);
    sim.start();
    (sim, svc)
}

fn engage(ctl: ControllerConfig, sim: &mut Simulator, svc: &RequestService) -> Autopilot {
    let plant = PlantBindings {
        server: svc.server,
        server_irq: svc.device,
        server_cpu: svc.server_cpu,
        best_effort: svc.best_effort.clone(),
    };
    let mut ap = Autopilot::new(ctl, plant).expect("controller config validates");
    ap.engage(sim).expect("engage actuates");
    ap
}

/// What a run keeps of the server's latency log. After each control step
/// the window's samples are folded into the run histogram, the over-SLA
/// count and one recovery tracker per reconfiguration, then discarded from
/// the simulator, which therefore holds at most one window of samples.
/// Cloned with the controller when a run is forked.
#[derive(Debug, Clone)]
struct LatencyFold {
    server: Pid,
    /// Absolute feed cursor: every sample below it is folded and discarded.
    /// Starts at 0, so samples recorded before the engage count too.
    cursor: usize,
    hist: LatencyHistogram,
    /// Over-SLA samples folded so far.
    out_of_bound: u64,
    /// Controller decisions already seen (the engage included).
    decisions_seen: usize,
    recoveries: Vec<RecoveryTracker>,
}

impl LatencyFold {
    fn new(server: Pid) -> Self {
        LatencyFold {
            server,
            cursor: 0,
            hist: LatencyHistogram::new(),
            out_of_bound: 0,
            decisions_seen: 0,
            recoveries: Vec::new(),
        }
    }

    /// Advance the run to `t`, folding after every control step.
    fn run_until(
        &mut self,
        cfg: &AutopilotConfig,
        ap: &mut Autopilot,
        sim: &mut Simulator,
        t: Instant,
    ) {
        ap.run_until_with(sim, t, |sim, ap| self.fold(cfg, sim, ap)).expect("controller runs");
    }

    /// Open a tracker for each reconfiguration made since the last fold,
    /// fold every sample not yet folded, and discard them.
    fn fold(&mut self, cfg: &AutopilotConfig, sim: &mut Simulator, ap: &Autopilot) {
        for d in &ap.decisions()[self.decisions_seen..] {
            if d.cause == DecisionCause::Engage {
                continue;
            }
            let spec = TransientSpec {
                task: "req-server".into(),
                bound_us: cfg.sla_us,
                from_secs: d.at_ns as f64 / 1e9,
                settle: cfg.settle,
            };
            // Decisions are taken at control ticks, and every sample folded
            // so far completed by the previous tick: all lie before this
            // decision. Its rounded `from` may land a nanosecond either side
            // of the tick, so the tracker splits the unfolded samples itself.
            self.recoveries.push(RecoveryTracker::new(spec, Instant::ZERO, self.out_of_bound));
        }
        self.decisions_seen = ap.decisions().len();

        let bound = Nanos::from_us(cfg.sla_us);
        let (lats, end) = sim.obs.latency_feed(self.server, self.cursor);
        let times = sim.obs.latency_time_feed(self.server, self.cursor);
        for &l in lats {
            self.hist.record(l);
            self.out_of_bound += u64::from(l > bound);
        }
        for r in &mut self.recoveries {
            r.fold(lats, times);
        }
        self.cursor = end;
        sim.obs.discard_latencies(self.server, end);
    }

    /// Fold what the last step left and report the run.
    fn finish(
        mut self,
        cfg: &AutopilotConfig,
        label: &str,
        sim: &mut Simulator,
        svc: &RequestService,
        ap: &Autopilot,
    ) -> AutopilotRun {
        self.fold(cfg, sim, ap);
        let be_cpu: Nanos = svc.best_effort.iter().map(|&p| sim.task(p).cpu_time).sum();
        let AnyDevice::Traffic(traffic) = sim.device(svc.device) else {
            panic!("request plant registers a traffic device");
        };
        AutopilotRun {
            label: label.into(),
            trace: ap.trace(),
            latency: LatencySummary::from_histogram(&self.hist),
            be_cpu_secs: be_cpu.as_secs_f64(),
            be_rate: be_cpu.as_secs_f64() / cfg.run_secs(),
            requests: traffic.requests,
            irqs_fired: traffic.irqs_fired,
            missed_irqs: traffic.missed,
            recoveries: self.recoveries.into_iter().map(RecoveryTracker::report).collect(),
        }
    }
}

fn run_with_controller(
    cfg: &AutopilotConfig,
    ctl: ControllerConfig,
    label: &str,
) -> AutopilotRun {
    let (mut sim, svc) = build_plant(cfg);
    let mut ap = engage(ctl, &mut sim, &svc);
    let mut fold = LatencyFold::new(svc.server);
    let end = sim.now() + Nanos::from_secs_f64(cfg.run_secs());
    fold.run_until(cfg, &mut ap, &mut sim, end);
    fold.finish(cfg, label, &mut sim, &svc, &ap)
}

/// Run the closed-loop autopilot over the diurnal-burst day.
pub fn run_autopilot(cfg: &AutopilotConfig) -> AutopilotRun {
    run_with_controller(cfg, cfg.controller(), "autopilot")
}

/// Run the plant pinned to one static ladder rung, monitored by a
/// single-rung controller: same windows, same SLA judgment, but no headroom
/// to reconfigure — every violating window is a steady violation.
pub fn run_static_level(cfg: &AutopilotConfig, level: usize) -> AutopilotRun {
    let full = cfg.controller();
    let rung = full.levels[level].clone();
    let label = format!("static:{}", rung.name);
    let ctl = ControllerConfig { levels: vec![rung], start_level: 0, ..full };
    run_with_controller(cfg, ctl, &label)
}

/// Like [`run_autopilot`], but forks the warmed simulation (a clone of it,
/// the controller and the latency fold) halfway through, drops the original
/// and finishes the run in the fork. Decisions are taken purely from the
/// cloned state, so the result is bit-identical to the straight-through
/// run — the determinism suite holds the two traces byte-for-byte equal.
pub fn run_autopilot_forked(cfg: &AutopilotConfig) -> AutopilotRun {
    let (mut sim, svc) = build_plant(cfg);
    let mut ap = engage(cfg.controller(), &mut sim, &svc);
    let mut fold = LatencyFold::new(svc.server);
    let t0 = sim.now();
    let half = t0 + Nanos::from_secs_f64(cfg.run_secs() / 2.0);
    let end = t0 + Nanos::from_secs_f64(cfg.run_secs());
    fold.run_until(cfg, &mut ap, &mut sim, half);

    let (mut fork, mut fork_ap, mut fork_fold) = (sim.clone(), ap.clone(), fold.clone());
    drop(sim);
    fork_fold.run_until(cfg, &mut fork_ap, &mut fork, end);
    fork_fold.finish(cfg, "autopilot", &mut fork, &svc, &fork_ap)
}

/// The full study: closed loop + every static rung + graded verdict.
pub fn run_autopilot_study(cfg: &AutopilotConfig) -> AutopilotStudy {
    let autopilot = run_autopilot(cfg);
    let statics: Vec<AutopilotRun> =
        (0..cfg.controller().levels.len()).map(|l| run_static_level(cfg, l)).collect();

    // Best static rung: fastest with zero violating windows; least-violating
    // (throughput tie-break) when nothing complies.
    let compliant = statics
        .iter()
        .enumerate()
        .filter(|(_, r)| r.trace.telemetry.violating_windows == 0)
        .max_by(|a, b| a.1.be_rate.total_cmp(&b.1.be_rate))
        .map(|(i, _)| i);
    let best_static = compliant.unwrap_or_else(|| {
        statics
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.trace
                    .telemetry
                    .violating_windows
                    .cmp(&b.1.trace.telemetry.violating_windows)
                    .then(b.1.be_rate.total_cmp(&a.1.be_rate))
            })
            .map(|(i, _)| i)
            .expect("ladder is nonempty")
    });
    let throughput_ratio = autopilot.be_rate / statics[best_static].be_rate;

    let zero_steady = autopilot.trace.telemetry.steady_violations == 0;
    let throughput_ok = throughput_ratio >= cfg.min_throughput_ratio;
    let transients_recovered = autopilot
        .recoveries
        .iter()
        .all(|r| r.recovery_secs.is_some_and(|s| s <= cfg.recovery_budget_secs));
    let verdict = AutopilotVerdict {
        zero_steady,
        throughput_ok,
        transients_recovered,
        pass: zero_steady && throughput_ok && transients_recovered,
    };
    AutopilotStudy {
        config: cfg.clone(),
        autopilot,
        statics,
        best_static,
        throughput_ratio,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> AutopilotConfig {
        AutopilotConfig::canonical().scaled(0.02)
    }

    #[test]
    fn scaled_config_floors_at_one_cycle() {
        assert_eq!(smoke_cfg().cycles, 1);
        assert_eq!(AutopilotConfig::canonical().scaled(1.0).cycles, 2);
        assert_eq!(AutopilotConfig::canonical().scaled(2.0).cycles, 4);
    }

    #[test]
    fn study_passes_all_gates_at_smoke_scale() {
        let study = run_autopilot_study(&smoke_cfg());
        assert!(study.verdict.zero_steady, "steady violations: {:?}", study.autopilot.trace);
        assert!(
            study.verdict.throughput_ok,
            "ratio {} vs best static {}",
            study.throughput_ratio, study.statics[study.best_static].label
        );
        assert!(study.verdict.transients_recovered, "{:?}", study.autopilot.recoveries);
        assert!(study.verdict.pass);
        // The diurnal burst must disqualify the light rungs, or the
        // throughput gate would be comparing against an unshielded run.
        for light in &study.statics[..2] {
            assert!(
                light.trace.telemetry.violating_windows > 0,
                "{} should violate somewhere in the day",
                light.label
            );
        }
        assert!(study.autopilot.requests > 0);
        assert!(study.autopilot.irqs_fired > 0);
    }

    #[test]
    fn latency_log_holds_at_most_one_control_window() {
        let cfg = smoke_cfg();
        let (mut sim, svc) = build_plant(&cfg);
        let mut ap = engage(cfg.controller(), &mut sim, &svc);
        let mut fold = LatencyFold::new(svc.server);
        let end = sim.now() + Nanos::from_secs_f64(cfg.run_secs());
        let (mut windows, mut most) = (0, 0);
        ap.run_until_with(&mut sim, end, |sim, ap| {
            let retained = sim.obs.latencies(svc.server).len();
            // Just the window the step judged, each sample with its instant.
            assert_eq!(retained, sim.obs.latency_count(svc.server) - fold.cursor);
            assert_eq!(sim.obs.latency_times(svc.server).len(), retained);
            fold.fold(&cfg, sim, ap);
            assert!(sim.obs.latencies(svc.server).is_empty());
            assert!(sim.obs.latency_times(svc.server).is_empty());
            windows += 1;
            most = most.max(retained);
        })
        .unwrap();
        assert_eq!(windows, 64, "one 16 s day of 250 ms windows");
        // The coalescing timer's gaps never drop below 87.5 µs (70 % of the
        // 8 kHz mean), so a 250 ms window holds at most 2 858 wakes, while
        // the day logs far more than one window's worth.
        assert!((1_000..=2_858).contains(&most), "largest window {most}");
        assert!(sim.obs.latency_count(svc.server) > 60 * most);
    }

    #[test]
    fn forked_run_matches_straight_run() {
        let cfg = smoke_cfg();
        let straight = run_autopilot(&cfg);
        let forked = run_autopilot_forked(&cfg);
        assert_eq!(
            serde_json::to_string(&straight).unwrap(),
            serde_json::to_string(&forked).unwrap()
        );
    }
}
