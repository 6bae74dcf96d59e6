//! Graphics controller (the paper's nVidia GeForce2, driven by `X11perf` in
//! the §6.3 load): an autonomous ON/OFF interrupt source whose ISRs raise
//! tasklet work (fence/vblank processing).

use super::profile::{OnOffPoisson, OnOffState};
use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

const TAG_PHASE: u64 = 0;
const TAG_ARRIVAL: u64 = 1;

#[derive(Debug, Clone)]
pub struct GpuDevice {
    profile: OnOffPoisson,
    state: OnOffState,
    isr: DurationDist,
    tasklet: DurationDist,
    pub irqs: u64,
}

impl GpuDevice {
    pub fn new(profile: OnOffPoisson) -> Self {
        GpuDevice {
            profile,
            state: OnOffState::default(),
            isr: DurationDist::shifted(
                Nanos::from_us(3),
                DurationDist::bounded_pareto(Nanos(200), Nanos::from_us(6), 1.2),
            ),
            tasklet: DurationDist::bounded_pareto(Nanos::from_us(15), Nanos::from_us(400), 1.1),
            irqs: 0,
        }
    }

    /// The X11perf-style load of §6.3: batches of rendering at ~600 irq/s.
    pub fn x11perf() -> Self {
        Self::new(OnOffPoisson::bursty(
            600,
            Nanos::from_ms(800),
            Nanos::from_ms(400),
        ))
    }
}

impl Device for GpuDevice {
    fn name(&self) -> &str {
        "gpu"
    }

    fn line(&self) -> IrqLine {
        IrqLine::GPU
    }

    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        let off = self.profile.off_len.sample(rng);
        ctx.schedule(off, TAG_PHASE);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        match tag {
            TAG_PHASE => {
                let len = self.state.flip(&self.profile, rng);
                ctx.schedule(len, TAG_PHASE);
                if self.state.on {
                    let gap = self.state.next_gap(&self.profile, rng);
                    ctx.schedule(gap, TAG_ARRIVAL);
                }
            }
            TAG_ARRIVAL => {
                if self.state.on {
                    self.irqs += 1;
                    ctx.assert_irq();
                    let gap = self.state.next_gap(&self.profile, rng);
                    ctx.schedule(gap, TAG_ARRIVAL);
                }
            }
            other => unreachable!("unknown gpu tag {other}"),
        }
    }

    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("the GPU model accepts no block I/O");
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        self.isr.sample(rng)
    }

    fn on_isr(&mut self, _ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome {
        IsrOutcome::none().with_softirq(SoftirqClass::Tasklet, self.tasklet.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isr_raises_tasklet_work() {
        let mut gpu = GpuDevice::x11perf();
        let mut rng = SimRng::new(11);
        let mut ctx = DeviceCtx::default();
        let out = gpu.on_isr(&mut ctx, &mut rng);
        let (class, work) = out.softirq.unwrap();
        assert_eq!(class, SoftirqClass::Tasklet);
        assert!(work >= Nanos::from_us(15) && work <= Nanos::from_us(400));
        assert!(out.wake.is_none());
    }
}
