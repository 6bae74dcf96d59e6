//! The CMOS real-time clock — the interrupt source of the paper's `realfeel`
//! benchmark (§6.1): programmed for periodic interrupts at 2048 Hz, consumed
//! through `read()` on `/dev/rtc`.

use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::Pid;
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

const TAG_PERIOD: u64 = 0;

/// Periodic RTC at a fixed rate.
#[derive(Debug, Clone)]
pub struct RtcDevice {
    period: Nanos,
    isr: DurationDist,
    /// Interrupts fired (including ones nobody was waiting for).
    pub fired: u64,
    /// Fired while no reader was waiting — the benchmark missed them.
    pub missed: u64,
}

impl RtcDevice {
    /// `hz` as accepted by the RTC driver (a power of two up to 8192).
    pub fn new(hz: u32) -> Self {
        assert!(hz.is_power_of_two() && (2..=8192).contains(&hz), "bad RTC rate {hz}");
        RtcDevice {
            period: Nanos(1_000_000_000 / hz as u64),
            // Tiny handler: ack the CMOS, timestamp, wake the reader.
            isr: DurationDist::shifted(
                Nanos::from_ns(1_800),
                DurationDist::bounded_pareto(Nanos(100), Nanos::from_us(3), 1.3),
            ),
            fired: 0,
            missed: 0,
        }
    }

    pub fn period(&self) -> Nanos {
        self.period
    }
}

impl Device for RtcDevice {
    fn name(&self) -> &str {
        "rtc"
    }

    fn line(&self) -> IrqLine {
        IrqLine::RTC
    }

    fn start(&mut self, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        ctx.schedule(self.period, TAG_PERIOD);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        debug_assert_eq!(tag, TAG_PERIOD);
        self.fired += 1;
        ctx.assert_irq();
        ctx.schedule(self.period, TAG_PERIOD);
    }

    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("the RTC accepts no block I/O");
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        self.isr.sample(rng)
    }

    fn on_isr(&mut self, ctx: &mut DeviceCtx, _rng: &mut SimRng) -> IsrOutcome {
        if ctx.waiters() == 0 {
            self.missed += 1;
        }
        IsrOutcome::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_matches_rate() {
        assert_eq!(RtcDevice::new(2048).period(), Nanos(488_281));
        assert_eq!(RtcDevice::new(64).period(), Nanos(15_625_000));
    }

    #[test]
    #[should_panic(expected = "bad RTC rate")]
    fn non_power_of_two_rejected() {
        RtcDevice::new(1000);
    }

    #[test]
    fn isr_cost_is_microsecond_scale() {
        let mut rtc = RtcDevice::new(2048);
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let c = rtc.isr_cost(&mut rng);
            assert!(c >= Nanos(1_900) && c <= Nanos(4_800), "{c}");
        }
    }
}
