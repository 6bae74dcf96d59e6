//! Device-based injectors: IRQ storm, softirq flood, stuck ISR.
//!
//! One device type covers all three — they differ only in assert rate, ISR
//! cost and bottom-half payload. The device is registered *disarmed*: its
//! `start()` schedules nothing, so an un-armed injector is invisible to the
//! event loop. Arming (via [`crate::Simulator::device_control`] with
//! [`CTRL_ARM`]) schedules the first assert; disarming flips a flag and the
//! at most one in-flight timer event retires without rescheduling. An epoch
//! counter in the event tag makes stale timer events from a previous arm
//! harmless across rapid disarm/re-arm cycles.

use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

/// `device_control` command: start asserting.
pub const CTRL_ARM: u64 = 1;
/// `device_control` command: stop asserting.
pub const CTRL_DISARM: u64 = 2;

/// A configurable interrupt source used as a fault injector.
#[derive(Debug, Clone)]
pub struct StormDevice {
    label: &'static str,
    line: IrqLine,
    /// Inter-assert gap while armed.
    gap: DurationDist,
    /// Per-interrupt handler cost.
    isr: DurationDist,
    /// Bottom-half payload raised by each interrupt.
    softirq: Option<(SoftirqClass, DurationDist)>,
    armed: bool,
    /// Bumped on every arm; scheduled events carry it as their tag so events
    /// scheduled before a disarm can't re-seed a later arm cycle.
    epoch: u64,
    /// Interrupts asserted over the device's lifetime (test observability).
    pub asserted: u64,
}

impl StormDevice {
    /// An interrupt storm: NIC-grade ISR and a per-interrupt receive softirq,
    /// asserting at `rate_hz` (exponential gaps).
    pub fn irq_storm(line: IrqLine, rate_hz: f64) -> Self {
        StormDevice {
            label: "inject-irq-storm",
            line,
            gap: rate_to_gap(rate_hz),
            // NIC-class handler: ring walk + ack, microseconds.
            isr: DurationDist::shifted(
                Nanos::from_us(5),
                DurationDist::bounded_pareto(Nanos(200), Nanos::from_us(6), 1.2),
            ),
            softirq: Some((
                SoftirqClass::NetRx,
                DurationDist::bounded_pareto(Nanos::from_us(40), Nanos::from_us(1_200), 1.1),
            )),
            armed: false,
            epoch: 0,
            asserted: 0,
        }
    }

    /// A bottom-half flood: cheap ISRs, each raising a heavy-tailed softirq
    /// bolus of up to `burst` (lower bound one tenth of that).
    pub fn softirq_flood(line: IrqLine, rate_hz: f64, burst: Nanos) -> Self {
        let lo = Nanos((burst.0 / 10).max(1_000));
        StormDevice {
            label: "inject-softirq-flood",
            line,
            gap: rate_to_gap(rate_hz),
            isr: DurationDist::constant(Nanos::from_us(2)),
            softirq: Some((
                SoftirqClass::Tasklet,
                DurationDist::bounded_pareto(lo, burst, 1.1),
            )),
            armed: false,
            epoch: 0,
            asserted: 0,
        }
    }

    /// Device misbehaviour: a handler stuck polling wedged hardware for
    /// `stuck` per interrupt, at a constant `rate_hz`.
    pub fn stuck_isr(line: IrqLine, rate_hz: u64, stuck: Nanos) -> Self {
        assert!(rate_hz > 0, "stuck ISR needs a positive rate");
        StormDevice {
            label: "inject-stuck-isr",
            line,
            gap: DurationDist::constant(Nanos(1_000_000_000 / rate_hz)),
            isr: DurationDist::constant(stuck),
            softirq: None,
            armed: false,
            epoch: 0,
            asserted: 0,
        }
    }

    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

fn rate_to_gap(rate_hz: f64) -> DurationDist {
    assert!(rate_hz > 0.0, "storm rate must be positive");
    DurationDist::exponential(Nanos((1e9 / rate_hz) as u64))
}

impl Device for StormDevice {
    fn name(&self) -> &str {
        self.label
    }

    fn line(&self) -> IrqLine {
        self.line
    }

    /// Disarmed at start: schedule nothing, cost nothing.
    fn start(&mut self, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {}

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        if !self.armed || tag != self.epoch {
            return; // stale event from before a disarm
        }
        self.asserted += 1;
        ctx.assert_irq();
        ctx.schedule(self.gap.sample(rng), self.epoch);
    }

    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("fault injectors accept no blocking I/O");
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        self.isr.sample(rng)
    }

    fn on_isr(&mut self, _ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome {
        match &self.softirq {
            Some((class, work)) => IsrOutcome::none().with_softirq(*class, work.sample(rng)),
            None => IsrOutcome::none(),
        }
    }

    fn control(&mut self, cmd: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        match cmd {
            CTRL_ARM => {
                if !self.armed {
                    self.armed = true;
                    self.epoch += 1;
                    ctx.schedule(self.gap.sample(rng), self.epoch);
                }
            }
            CTRL_DISARM => self.armed = false,
            other => unreachable!("unknown injector control {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(dev: &mut StormDevice, ctx: &mut DeviceCtx, rng: &mut SimRng, tag: u64) {
        dev.on_timer(tag, ctx, rng);
    }

    #[test]
    fn disarmed_device_schedules_nothing() {
        let mut dev = StormDevice::irq_storm(IrqLine(24), 1_000.0);
        let mut rng = SimRng::new(1);
        let mut ctx = DeviceCtx::default();
        dev.start(&mut ctx, &mut rng);
        assert_eq!(ctx.issued(), 0, "disarmed injector must be event-free");
        // A stray stale timer event also dies quietly.
        drive(&mut dev, &mut ctx, &mut rng, 0);
        assert_eq!(ctx.issued(), 0);
        assert_eq!(dev.asserted, 0);
    }

    #[test]
    fn arm_starts_the_storm_and_disarm_retires_it() {
        let mut dev = StormDevice::irq_storm(IrqLine(24), 1_000.0);
        let mut rng = SimRng::new(1);

        let mut ctx = DeviceCtx::default();
        dev.control(CTRL_ARM, &mut ctx, &mut rng);
        assert!(dev.is_armed());
        assert_eq!(ctx.issued(), 1, "arm schedules the first assert");

        // The armed tick asserts and reschedules.
        let mut ctx = DeviceCtx::default();
        drive(&mut dev, &mut ctx, &mut rng, 1);
        assert_eq!(dev.asserted, 1);
        assert_eq!(ctx.issued(), 2, "assert_irq + next tick");

        // Disarm: the in-flight tick retires without rescheduling.
        let mut ctx = DeviceCtx::default();
        dev.control(CTRL_DISARM, &mut ctx, &mut rng);
        drive(&mut dev, &mut ctx, &mut rng, 1);
        assert_eq!(ctx.issued(), 0);
        assert_eq!(dev.asserted, 1);
    }

    #[test]
    fn rearm_invalidates_stale_events_via_epoch() {
        let mut dev = StormDevice::softirq_flood(IrqLine(25), 500.0, Nanos::from_ms(2));
        let mut rng = SimRng::new(2);

        let mut ctx = DeviceCtx::default();
        dev.control(CTRL_ARM, &mut ctx, &mut rng);
        dev.control(CTRL_DISARM, &mut ctx, &mut rng);
        dev.control(CTRL_ARM, &mut ctx, &mut rng);

        // The epoch-1 event from the first arm is now stale.
        let mut stale = DeviceCtx::default();
        drive(&mut dev, &mut stale, &mut rng, 1);
        assert_eq!(stale.issued(), 0, "stale epoch must not assert");

        // The current epoch (2) still fires.
        let mut live = DeviceCtx::default();
        drive(&mut dev, &mut live, &mut rng, 2);
        assert_eq!(dev.asserted, 1);
    }

    #[test]
    fn double_arm_is_idempotent() {
        let mut dev = StormDevice::stuck_isr(IrqLine(26), 100, Nanos::from_ms(2));
        let mut rng = SimRng::new(3);
        let mut ctx = DeviceCtx::default();
        dev.control(CTRL_ARM, &mut ctx, &mut rng);
        dev.control(CTRL_ARM, &mut ctx, &mut rng);
        assert_eq!(ctx.issued(), 1, "second arm must not double the event rate");
    }

    #[test]
    fn isr_payloads_match_the_class() {
        let mut rng = SimRng::new(4);
        let mut ctx = DeviceCtx::default();

        let mut stuck = StormDevice::stuck_isr(IrqLine(26), 100, Nanos::from_ms(2));
        assert_eq!(stuck.isr_cost(&mut rng), Nanos::from_ms(2));
        assert!(stuck.on_isr(&mut ctx, &mut rng).softirq.is_none());

        let mut flood = StormDevice::softirq_flood(IrqLine(25), 500.0, Nanos::from_ms(3));
        let out = flood.on_isr(&mut ctx, &mut rng);
        let (class, work) = out.softirq.expect("flood raises bottom-half work");
        assert_eq!(class, SoftirqClass::Tasklet);
        assert!(work <= Nanos::from_ms(3) && work >= Nanos::from_us(300));
    }
}
