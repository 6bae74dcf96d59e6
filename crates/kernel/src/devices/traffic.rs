//! A production request-serving traffic source: a front-end NIC queue whose
//! interrupts carry *coalesced batches* of user requests.
//!
//! Real request-serving boxes take millions of requests per second but
//! nothing interrupts the host once per request — the NIC coalesces, so one
//! IRQ hands the server a batch. The device models exactly that: a
//! time-varying Poisson process of coalesced interrupts walking through a
//! declarative [`TrafficProfile`] (diurnal ramp phases plus bursts), where
//! each interrupt represents `batch` requests. Per-request deadline
//! accounting is therefore `samples × batch`: one wake-to-user latency
//! sample speaks for every request in its batch.

use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::Pid;
use serde::{Deserialize, Serialize};
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

/// One phase of a traffic profile: a coalesced-interrupt rate held for a
/// duration, each interrupt carrying `batch` requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficPhase {
    /// Display name ("night", "peak", "burst", …).
    pub name: String,
    /// How long the phase lasts.
    pub duration: Nanos,
    /// Mean coalesced-interrupt rate while the phase is active (Poisson).
    pub irq_hz: u64,
    /// Requests each coalesced interrupt represents.
    pub batch: u64,
}

impl TrafficPhase {
    /// Offered load in requests per second.
    pub fn requests_per_sec(&self) -> u64 {
        self.irq_hz * self.batch
    }
}

/// A declarative open-loop traffic shape: phases played in order, optionally
/// cycling (a diurnal day repeated) or holding the final phase forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficProfile {
    pub phases: Vec<TrafficPhase>,
    /// Loop back to phase 0 after the last phase (`true` = diurnal cycle).
    pub cycle: bool,
}

impl TrafficProfile {
    /// One full pass over all phases.
    pub fn cycle_len(&self) -> Nanos {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Peak offered load across phases, in requests per second.
    pub fn peak_requests_per_sec(&self) -> u64 {
        self.phases.iter().map(|p| p.requests_per_sec()).max().unwrap_or(0)
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("traffic profile needs at least one phase".into());
        }
        for p in &self.phases {
            if p.irq_hz == 0 || p.batch == 0 {
                return Err(format!("phase '{}' must have nonzero irq_hz and batch", p.name));
            }
            if p.duration.is_zero() {
                return Err(format!("phase '{}' must have nonzero duration", p.name));
            }
        }
        Ok(())
    }
}

const TAG_PHASE: u64 = 0;
const TAG_ARRIVAL: u64 = 1;

/// Ring-reap cost per request in the ISR: walking and acking one coalesced
/// descriptor. Makes interrupt cost scale with the batch the IRQ carries.
const REAP_PER_REQ_NS: u64 = 10;
/// Copy-out cost per request on the `read()` exit path back to user mode.
const COPYOUT_PER_REQ_NS: u64 = 12;

/// The front-end traffic NIC: walks a [`TrafficProfile`], asserting one
/// coalesced interrupt per Poisson arrival and counting the requests each
/// one carried.
#[derive(Debug, Clone)]
pub struct TrafficDevice {
    profile: TrafficProfile,
    /// Per-phase arrival-gap distributions, derived from `profile`.
    gaps: Vec<DurationDist>,
    phase: usize,
    isr: DurationDist,
    exit_work: DurationDist,
    /// Coalesced interrupts asserted.
    pub irqs_fired: u64,
    /// Requests represented by those interrupts (per-request accounting).
    pub requests: u64,
    /// Interrupts that found no waiter blocked (the server was still busy
    /// with the previous batch — those requests queue in the ring).
    pub missed: u64,
}

impl TrafficDevice {
    pub fn new(profile: TrafficProfile) -> Self {
        profile.validate().expect("valid traffic profile");
        // The coalescing timer makes arrivals quasi-periodic: a hard floor
        // (the ring must fill / the timer must expire) plus an exponential
        // jitter term, with mean 1/irq_hz.
        let gaps = profile
            .phases
            .iter()
            .map(|p| {
                let mean = 1_000_000_000 / p.irq_hz;
                DurationDist::shifted(
                    Nanos(mean * 7 / 10),
                    DurationDist::exponential(Nanos(mean * 3 / 10)),
                )
            })
            .collect();
        TrafficDevice {
            profile,
            gaps,
            phase: 0,
            // Fixed part of the coalesced-ring ISR (irq ack, queue doorbell);
            // the per-descriptor reap is added per batch in `isr_cost`.
            isr: DurationDist::shifted(
                Nanos::from_ns(2_000),
                DurationDist::bounded_pareto(Nanos(200), Nanos::from_us(6), 1.2),
            ),
            // Fixed part of the driver return path; the per-request copy-out
            // is added per batch in `reader_exit_work`.
            exit_work: DurationDist::shifted(
                Nanos::from_ns(600),
                DurationDist::bounded_pareto(Nanos(50), Nanos::from_ns(900), 1.4),
            ),
            irqs_fired: 0,
            requests: 0,
            missed: 0,
        }
    }

    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// Phase currently being played.
    pub fn current_phase(&self) -> &TrafficPhase {
        &self.profile.phases[self.phase]
    }
}

impl Device for TrafficDevice {
    fn name(&self) -> &str {
        "traffic"
    }

    fn line(&self) -> IrqLine {
        IrqLine::TRAFFIC
    }

    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        ctx.schedule(self.profile.phases[0].duration, TAG_PHASE);
        ctx.schedule(self.gaps[0].sample(rng), TAG_ARRIVAL);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        match tag {
            TAG_PHASE => {
                let last = self.profile.phases.len() - 1;
                if self.phase < last {
                    self.phase += 1;
                } else if self.profile.cycle {
                    self.phase = 0;
                } else {
                    return; // hold the final phase forever
                }
                ctx.schedule(self.profile.phases[self.phase].duration, TAG_PHASE);
            }
            TAG_ARRIVAL => {
                self.irqs_fired += 1;
                self.requests += self.profile.phases[self.phase].batch;
                ctx.assert_irq();
                // The next gap is drawn from the *current* phase's rate;
                // a phase switch takes effect at the next arrival.
                ctx.schedule(self.gaps[self.phase].sample(rng), TAG_ARRIVAL);
            }
            other => unreachable!("unknown traffic tag {other}"),
        }
    }

    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("the traffic queue accepts no block I/O");
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        // Reaping the ring costs time per coalesced descriptor, so heavier
        // phases make each interrupt — and the measured response — costlier.
        let batch = self.profile.phases[self.phase].batch;
        self.isr.sample(rng) + Nanos(REAP_PER_REQ_NS * batch)
    }

    fn on_isr(&mut self, ctx: &mut DeviceCtx, _rng: &mut SimRng) -> IsrOutcome {
        if ctx.waiters() == 0 {
            self.missed += 1;
        }
        IsrOutcome::none()
    }

    fn reader_exit_work(&self) -> Option<DurationDist> {
        // Copying the batch out to user memory scales with its size.
        let batch = self.profile.phases[self.phase].batch;
        Some(DurationDist::shifted(
            Nanos(COPYOUT_PER_REQ_NS * batch),
            self.exit_work.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> TrafficProfile {
        TrafficProfile {
            phases: vec![
                TrafficPhase {
                    name: "quiet".into(),
                    duration: Nanos::from_ms(100),
                    irq_hz: 1_000,
                    batch: 500,
                },
                TrafficPhase {
                    name: "burst".into(),
                    duration: Nanos::from_ms(50),
                    irq_hz: 4_000,
                    batch: 1_000,
                },
            ],
            cycle: true,
        }
    }

    #[test]
    fn profile_arithmetic() {
        let p = two_phase();
        assert_eq!(p.cycle_len(), Nanos::from_ms(150));
        assert_eq!(p.peak_requests_per_sec(), 4_000_000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_phases() {
        let mut p = two_phase();
        p.phases[0].irq_hz = 0;
        assert!(p.validate().is_err());
        let mut p = two_phase();
        p.phases[1].duration = Nanos::ZERO;
        assert!(p.validate().is_err());
        assert!(TrafficProfile { phases: vec![], cycle: false }.validate().is_err());
    }

    #[test]
    fn arrivals_count_requests_by_batch() {
        let mut dev = TrafficDevice::new(two_phase());
        let mut rng = SimRng::new(7);
        let mut ctx = DeviceCtx::default();
        dev.start(&mut ctx, &mut rng);
        dev.on_timer(TAG_ARRIVAL, &mut ctx, &mut rng);
        dev.on_timer(TAG_ARRIVAL, &mut ctx, &mut rng);
        assert_eq!(dev.irqs_fired, 2);
        assert_eq!(dev.requests, 1_000);
        dev.on_timer(TAG_PHASE, &mut ctx, &mut rng); // -> burst
        dev.on_timer(TAG_ARRIVAL, &mut ctx, &mut rng);
        assert_eq!(dev.requests, 2_000);
        assert_eq!(dev.current_phase().name, "burst");
        dev.on_timer(TAG_PHASE, &mut ctx, &mut rng); // cycles back
        assert_eq!(dev.current_phase().name, "quiet");
    }

    #[test]
    fn non_cycling_profile_holds_last_phase() {
        let mut profile = two_phase();
        profile.cycle = false;
        let mut dev = TrafficDevice::new(profile);
        let mut rng = SimRng::new(9);
        let mut ctx = DeviceCtx::default();
        dev.on_timer(TAG_PHASE, &mut ctx, &mut rng);
        dev.on_timer(TAG_PHASE, &mut ctx, &mut rng);
        assert_eq!(dev.current_phase().name, "burst");
    }

    #[test]
    fn interrupt_costs_scale_with_batch() {
        let mut dev = TrafficDevice::new(two_phase());
        let mut rng = SimRng::new(3);
        // quiet phase: batch 500 — the reap floor alone is 9 µs.
        assert!(dev.isr_cost(&mut rng) >= Nanos(REAP_PER_REQ_NS * 500));
        let quiet_copyout = dev.reader_exit_work().unwrap().sample(&mut rng);
        assert!(quiet_copyout >= Nanos(COPYOUT_PER_REQ_NS * 500));
        dev.phase = 1; // burst: batch 1000
        assert!(dev.isr_cost(&mut rng) >= Nanos(REAP_PER_REQ_NS * 1_000));
        let burst_copyout = dev.reader_exit_work().unwrap().sample(&mut rng);
        assert!(burst_copyout >= Nanos(COPYOUT_PER_REQ_NS * 1_000));
    }

    #[test]
    fn missed_interrupts_are_counted() {
        let mut dev = TrafficDevice::new(two_phase());
        let mut rng = SimRng::new(1);
        dev.on_isr(&mut DeviceCtx::default(), &mut rng);
        assert_eq!(dev.missed, 1);
        let mut waiting = DeviceCtx { waiters: 1, ..DeviceCtx::default() };
        dev.on_isr(&mut waiting, &mut rng);
        assert_eq!(dev.missed, 1);
    }
}
