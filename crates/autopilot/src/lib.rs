//! # sp-autopilot — closed-loop adaptive shielding
//!
//! The paper treats shielding as a static operator decision: write
//! `/proc/shield` once, run the workload. This crate closes the loop. An
//! [`Autopilot`] is a deterministic feedback controller that runs *inside*
//! the simulation as a periodic control task: every control period it drains
//! the new wake-to-user latency samples from the live observation feed
//! ([`sp_kernel::Observations::latency_feed`]), folds them into a
//! per-window [`LatencyHistogram`], compares the window p99.9 against the
//! SLA, and — through hysteresis and a cooldown — walks a ladder of shield
//! configurations using the same actuators an operator has:
//! `/proc/shield` rewrites ([`sp_core::ProcShield`]), IRQ affinity moves and
//! task placement.
//!
//! # Control law
//!
//! The ladder is a list of [`ShieldLevel`]s ordered from "no shield" (all
//! CPUs serve best-effort throughput) to "maximum shield" (most CPUs
//! reserved for the latency-critical work). Each control window with enough
//! samples is judged against the SLA:
//!
//! * **escalate** once [`trip`](ControllerConfig::trip) of the last
//!   [`trip_span`](ControllerConfig::trip_span) windows violated the SLA
//!   (p99.9 > SLA) — one bad window never reconfigures, but an alternating
//!   bad/good pattern (common when a phase sits right on the bound) still
//!   trips;
//! * **relax** after [`relax`](ControllerConfig::relax) consecutive
//!   comfortable windows (p99.9 below the SLA by the
//!   [`relax_margin_pct`](ControllerConfig::relax_margin_pct) guard band) —
//!   so the controller does not bounce on the SLA boundary;
//! * after every reconfiguration, [`cooldown`](ControllerConfig::cooldown)
//!   windows pass with no further action, bounding reconfig transients and
//!   letting the migration settle before it is judged.
//!
//! # Determinism
//!
//! Every decision input lives in the simulator's checkpoint image (the
//! observation feed is checkpointed; the flight recorder, which is *not*, is
//! deliberately excluded from the control path and used only as telemetry).
//! Control ticks fire at precomputed absolute instants. The resulting
//! [`DecisionTrace`] is therefore a pure function of `(config, seed)`:
//! bit-identical across fleet worker counts, across repeats, and across
//! warm-checkpoint forks that carry the controller state.

#![deny(missing_docs)]

use serde::{Deserialize, Serialize};
use simcore::{Instant, Nanos};
use sp_core::ProcShield;
use sp_hw::{CpuId, CpuMask};
use sp_kernel::{DeviceId, Pid, Simulator};
use sp_metrics::LatencyHistogram;

/// One rung of the shield ladder: a name and the mask written to all three
/// `/proc/shield` files (procs, irqs, ltmrs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShieldLevel {
    /// Display name ("off", "cpu3", "cpu2-3", …).
    pub name: String,
    /// CPUs shielded at this level (may be empty = shield off).
    pub mask: CpuMask,
}

impl ShieldLevel {
    /// The canonical ladder for a machine: level 0 shields nothing, level 1
    /// shields `server_cpu`, and each further level adds the next
    /// highest-numbered unshielded CPU — always leaving CPU 0 unshielded
    /// (the kernel rejects shielding every online CPU).
    pub fn ladder(online: CpuMask, server_cpu: CpuId) -> Vec<ShieldLevel> {
        let mut levels =
            vec![ShieldLevel { name: "off".into(), mask: CpuMask::EMPTY }];
        let mut mask = CpuMask::single(server_cpu);
        levels.push(ShieldLevel { name: format!("cpu{}", server_cpu.0), mask });
        let mut candidates: Vec<CpuId> = (online - mask).iter().collect();
        candidates.retain(|c| c.0 != 0);
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        for cpu in candidates {
            mask.insert(cpu);
            levels.push(ShieldLevel { name: format!("+cpu{}", cpu.0), mask });
        }
        levels
    }
}

/// Static configuration of the feedback controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// The p99.9 wake-to-user response bound the shielded work must hold.
    pub sla: Nanos,
    /// Control period: how often the observation feed is drained and judged.
    pub period: Nanos,
    /// Violating windows among the last [`trip_span`](Self::trip_span)
    /// before escalating one level.
    pub trip: u32,
    /// Sliding span (in judged windows) over which violations are counted
    /// toward [`trip`](Self::trip). `trip_span == trip` means strictly
    /// consecutive.
    pub trip_span: u32,
    /// Consecutive comfortable windows before relaxing one level.
    pub relax: u32,
    /// Comfort guard band: relax only while p99.9 < `sla × pct / 100`.
    pub relax_margin_pct: u32,
    /// Windows after a reconfiguration during which no action fires.
    pub cooldown: u32,
    /// Minimum samples a window needs before it is judged at all.
    pub min_window: usize,
    /// The shield ladder, weakest first.
    pub levels: Vec<ShieldLevel>,
    /// Ladder rung applied by [`Autopilot::engage`].
    pub start_level: usize,
}

impl ControllerConfig {
    /// Validate structural invariants (ladder shape, counter floors).
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("controller needs at least one shield level".into());
        }
        if self.start_level >= self.levels.len() {
            return Err(format!(
                "start level {} out of range (ladder has {} rungs)",
                self.start_level,
                self.levels.len()
            ));
        }
        if self.period.is_zero() {
            return Err("control period must be nonzero".into());
        }
        if self.trip == 0 || self.relax == 0 {
            return Err("trip and relax must be at least 1".into());
        }
        if self.trip_span < self.trip || self.trip_span > 32 {
            return Err(format!(
                "trip span must be in {}..=32, got {}",
                self.trip, self.trip_span
            ));
        }
        if self.relax_margin_pct == 0 || self.relax_margin_pct > 100 {
            return Err(format!(
                "relax margin must be in 1..=100 %, got {}",
                self.relax_margin_pct
            ));
        }
        if self.sla.is_zero() {
            return Err("SLA bound must be nonzero".into());
        }
        Ok(())
    }
}

/// What the controller is wired to: the latency-critical server, its
/// interrupt source, its home CPU and the best-effort task set whose
/// placement the controller manages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantBindings {
    /// The latency-measured request server (must be latency-watched).
    pub server: Pid,
    /// The device whose IRQ wakes the server (kept bound to `server_cpu`).
    pub server_irq: DeviceId,
    /// The server's home CPU (innermost ladder rung).
    pub server_cpu: CpuId,
    /// Best-effort throughput tasks, re-placed onto the unshielded
    /// complement at every reconfiguration.
    pub best_effort: Vec<Pid>,
}

/// Why a reconfiguration happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionCause {
    /// Initial engagement of the starting level, before any traffic.
    Engage,
    /// `trip` consecutive windows violated the SLA.
    Escalate,
    /// `relax` consecutive windows were comfortably inside the SLA.
    Relax,
}

/// One reconfiguration, as recorded in the decision trace. Every field is an
/// integer so serialized traces compare byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Simulated time of the action, ns since boot.
    pub at_ns: u64,
    /// Control window index (0 = the engage action before window 1).
    pub window: u64,
    /// Ladder rung before the action.
    pub from: usize,
    /// Ladder rung after the action.
    pub to: usize,
    /// What triggered it.
    pub cause: DecisionCause,
    /// The judged window p99.9 (ns); `None` for the engage action and for
    /// windows judged on too few samples.
    pub p99_9_ns: Option<u64>,
    /// Samples in the judged window.
    pub window_samples: u64,
}

/// Controller telemetry accumulated over a run. Deterministic (window
/// verdicts are part of the trajectory), so it ships inside the artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerTelemetry {
    /// Control windows judged (with or without enough samples).
    pub windows: u64,
    /// Windows whose p99.9 violated the SLA.
    pub violating_windows: u64,
    /// Violating windows attributable to a reconfig in flight: cooldown
    /// active, escalation pending (trip counter still arming) or fired.
    pub transient_violations: u64,
    /// Violating windows with no excuse: the controller was at steady state
    /// (or already at the top rung) and the SLA still broke. The strict CI
    /// gate requires zero of these.
    pub steady_violations: u64,
    /// Total simulated time spent in violating windows, ns.
    pub time_in_violation_ns: u64,
    /// Reconfigurations performed (engage excluded).
    pub reconfigs: u64,
}

/// The serialized product of a run: config echo, every decision, telemetry.
/// A pure function of `(config, seed)` — the CI artifact that is `cmp`ed
/// across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// SLA bound, ns.
    pub sla_ns: u64,
    /// Control period, ns.
    pub period_ns: u64,
    /// Ladder rung names, weakest first.
    pub levels: Vec<String>,
    /// Every reconfiguration, in order.
    pub decisions: Vec<Decision>,
    /// Rung active when the trace was taken.
    pub final_level: usize,
    /// Shield mask active when the trace was taken (bits).
    pub final_shield_mask: u64,
    /// Accumulated controller telemetry.
    pub telemetry: ControllerTelemetry,
}

/// The feedback controller. Drive it with [`Autopilot::engage`] once after
/// `sim.start()`, then [`Autopilot::run_until`] (or manual
/// `sim.run_until(tick)` + [`Autopilot::step`] alternation, the same pattern
/// scenario timelines use).
#[derive(Debug, Clone)]
pub struct Autopilot {
    cfg: ControllerConfig,
    plant: PlantBindings,
    level: usize,
    cursor: usize,
    recent: u64,
    below: u32,
    cooldown_left: u32,
    window: u64,
    next_tick: Option<Instant>,
    decisions: Vec<Decision>,
    telemetry: ControllerTelemetry,
}

impl Autopilot {
    /// Build a controller; fails on a structurally invalid config.
    pub fn new(cfg: ControllerConfig, plant: PlantBindings) -> Result<Self, String> {
        cfg.validate()?;
        let level = cfg.start_level;
        Ok(Autopilot {
            cfg,
            plant,
            level,
            cursor: 0,
            recent: 0,
            below: 0,
            cooldown_left: 0,
            window: 0,
            next_tick: None,
            decisions: Vec::new(),
            telemetry: ControllerTelemetry::default(),
        })
    }

    /// The active ladder rung.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The shield mask of the active rung.
    pub fn shield_mask(&self) -> CpuMask {
        self.cfg.levels[self.level].mask
    }

    /// Accumulated telemetry.
    pub fn telemetry(&self) -> &ControllerTelemetry {
        &self.telemetry
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Apply the starting level and schedule the first control tick. Call
    /// once, after `sim.start()`.
    pub fn engage(&mut self, sim: &mut Simulator) -> Result<(), String> {
        assert!(self.next_tick.is_none(), "engage() called twice");
        self.cursor = sim.obs.latency_count(self.plant.server);
        self.apply_level(sim, self.cfg.start_level)?;
        self.decisions.push(Decision {
            at_ns: sim.now().as_ns(),
            window: 0,
            from: self.cfg.start_level,
            to: self.cfg.start_level,
            cause: DecisionCause::Engage,
            p99_9_ns: None,
            window_samples: 0,
        });
        self.next_tick = Some(sim.now() + self.cfg.period);
        Ok(())
    }

    /// Advance the simulation to `t`, stepping the controller at every
    /// control tick on the way. The tick schedule is a precomputed arithmetic
    /// sequence, so splitting a run into several `run_until` calls (or
    /// checkpoint-forking between them) changes nothing.
    pub fn run_until(&mut self, sim: &mut Simulator, t: Instant) -> Result<(), String> {
        self.run_until_with(sim, t, |_, _| {})
    }

    /// [`Autopilot::run_until`], calling `after_step` right after every
    /// control step (a decision made at the tick is already in
    /// [`Autopilot::decisions`]). An observer that folds the latency feed
    /// window by window hooks in here.
    pub fn run_until_with(
        &mut self,
        sim: &mut Simulator,
        t: Instant,
        mut after_step: impl FnMut(&mut Simulator, &Autopilot),
    ) -> Result<(), String> {
        let mut tick = self.next_tick.expect("engage() before run_until()");
        while tick <= t {
            sim.run_until(tick);
            self.step(sim)?;
            after_step(sim, self);
            tick += self.cfg.period;
            self.next_tick = Some(tick);
        }
        sim.run_until(t);
        Ok(())
    }

    /// Judge one control window and maybe reconfigure. Returns the decision
    /// made this window, if any.
    pub fn step(&mut self, sim: &mut Simulator) -> Result<Option<Decision>, String> {
        let (samples, new_cursor) = sim.obs.latency_feed(self.plant.server, self.cursor);
        let hist: LatencyHistogram = samples.iter().copied().collect();
        let window_samples = samples.len() as u64;
        self.cursor = new_cursor;
        self.window += 1;
        self.telemetry.windows += 1;

        let judged = window_samples as usize >= self.cfg.min_window;
        let p99_9 = judged.then(|| hist.quantile(0.999));
        let violating = p99_9.is_some_and(|p| p > self.cfg.sla);
        let comfort =
            self.cfg.sla.scale(self.cfg.relax_margin_pct as f64 / 100.0);
        let comfortable = p99_9.is_some_and(|p| p < comfort);
        if violating {
            self.telemetry.violating_windows += 1;
            self.telemetry.time_in_violation_ns += self.cfg.period.as_ns();
        }

        let in_cooldown = self.cooldown_left > 0;
        let mut decision = None;
        if in_cooldown {
            // Windows inside the cooldown are distorted by the migration
            // itself — absorb them without feeding the trip ring.
            self.cooldown_left -= 1;
        } else {
            self.recent = ((self.recent << 1) | violating as u64)
                & ((1u64 << self.cfg.trip_span) - 1);
            if violating {
                self.below = 0;
                if self.level + 1 < self.cfg.levels.len()
                    && self.recent.count_ones() >= self.cfg.trip
                {
                    decision = Some(self.reconfigure(
                        sim,
                        self.level + 1,
                        DecisionCause::Escalate,
                        p99_9,
                        window_samples,
                    )?);
                }
            } else if comfortable {
                self.below += 1;
                if self.level > 0 && self.below >= self.cfg.relax {
                    decision = Some(self.reconfigure(
                        sim,
                        self.level - 1,
                        DecisionCause::Relax,
                        p99_9,
                        window_samples,
                    )?);
                }
            } else {
                // In the hysteresis band (or an unjudged window): hold
                // state, reset the relax streak.
                self.below = 0;
            }
        }

        if violating {
            // A violation is transient when the controller is reacting to
            // it: reconfig just fired, cooldown still absorbing one, or the
            // trip ring is still arming with ladder headroom left.
            // Anything else is a steady-state violation.
            let escalation_arming = self.level + 1 < self.cfg.levels.len()
                && self.recent.count_ones() < self.cfg.trip;
            if decision.is_some() || in_cooldown || escalation_arming {
                self.telemetry.transient_violations += 1;
            } else {
                self.telemetry.steady_violations += 1;
            }
        }
        Ok(decision)
    }

    /// Serialize the run so far as the comparable artifact.
    pub fn trace(&self) -> DecisionTrace {
        DecisionTrace {
            sla_ns: self.cfg.sla.as_ns(),
            period_ns: self.cfg.period.as_ns(),
            levels: self.cfg.levels.iter().map(|l| l.name.clone()).collect(),
            decisions: self.decisions.clone(),
            final_level: self.level,
            final_shield_mask: self.shield_mask().0,
            telemetry: self.telemetry.clone(),
        }
    }

    fn reconfigure(
        &mut self,
        sim: &mut Simulator,
        to: usize,
        cause: DecisionCause,
        p99_9: Option<Nanos>,
        window_samples: u64,
    ) -> Result<Decision, String> {
        let from = self.level;
        self.apply_level(sim, to)?;
        self.cooldown_left = self.cfg.cooldown;
        self.recent = 0;
        self.below = 0;
        self.telemetry.reconfigs += 1;
        let d = Decision {
            at_ns: sim.now().as_ns(),
            window: self.window,
            from,
            to,
            cause,
            p99_9_ns: p99_9.map(|p| p.as_ns()),
            window_samples,
        };
        self.decisions.push(d.clone());
        Ok(d)
    }

    /// Actuate one ladder rung through the operator interfaces: rewrite all
    /// three `/proc/shield` files, keep the server's IRQ bound to its home
    /// CPU, and place the best-effort set on the unshielded complement.
    fn apply_level(&mut self, sim: &mut Simulator, to: usize) -> Result<(), String> {
        let mask = self.cfg.levels[to].mask;
        ProcShield::write_all(sim, mask).map_err(|e| e.to_string())?;
        sim.set_irq_affinity(self.plant.server_irq, CpuMask::single(self.plant.server_cpu))?;
        let open = sim.machine().online_mask() - mask;
        for &pid in &self.plant.best_effort {
            sim.set_task_affinity(pid, open)?;
        }
        self.level = to;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_ladder() -> Vec<ShieldLevel> {
        ShieldLevel::ladder(CpuMask::first_n(4), CpuId(3))
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            sla: Nanos::from_us(200),
            period: Nanos::from_ms(50),
            trip: 2,
            trip_span: 3,
            relax: 3,
            relax_margin_pct: 60,
            cooldown: 2,
            min_window: 8,
            levels: quad_ladder(),
            start_level: 1,
        }
    }

    #[test]
    fn ladder_grows_inward_and_spares_cpu0() {
        let ladder = quad_ladder();
        let masks: Vec<u64> = ladder.iter().map(|l| l.mask.0).collect();
        assert_eq!(masks, vec![0b0000, 0b1000, 0b1100, 0b1110]);
        assert_eq!(ladder[0].name, "off");
        assert_eq!(ladder[1].name, "cpu3");
    }

    #[test]
    fn config_validation() {
        assert!(cfg().validate().is_ok());
        let mut c = cfg();
        c.levels.clear();
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.start_level = 9;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.trip = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.trip_span = 1;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.relax_margin_pct = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn trace_serializes_deterministically() {
        let plant = PlantBindings {
            server: Pid(7),
            server_irq: DeviceId(0),
            server_cpu: CpuId(3),
            best_effort: vec![Pid(1), Pid(2)],
        };
        let ap = Autopilot::new(cfg(), plant).unwrap();
        let a = serde_json::to_string(&ap.trace()).unwrap();
        let b = serde_json::to_string(&ap.trace()).unwrap();
        assert_eq!(a, b);
        let parsed: DecisionTrace = serde_json::from_str(&a).unwrap();
        assert_eq!(parsed, ap.trace());
    }
}
