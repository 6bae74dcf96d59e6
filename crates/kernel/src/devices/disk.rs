//! SCSI disk: a single-spindle FIFO request queue. Tasks block in write/read
//! syscalls (`IoSpec`), the controller interrupts on each completion, and the
//! ISR raises a small block bottom half (request-queue maintenance).

use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;
use std::collections::VecDeque;

const TAG_COMPLETE: u64 = 0;

#[derive(Debug, Clone)]
pub struct DiskDevice {
    queue: VecDeque<Pid>,
    busy: bool,
    service: DurationDist,
    isr: DurationDist,
    bh: DurationDist,
    pub completions: u64,
}

impl DiskDevice {
    pub fn new() -> Self {
        DiskDevice {
            queue: VecDeque::new(),
            busy: false,
            // 2002-era SCSI with cache hits and seeks: 0.3–20 ms.
            service: DurationDist::mix(vec![
                (0.6, DurationDist::uniform(Nanos::from_us(300), Nanos::from_ms(2))),
                (0.4, DurationDist::uniform(Nanos::from_ms(2), Nanos::from_ms(20))),
            ]),
            isr: DurationDist::shifted(
                Nanos::from_us(5),
                DurationDist::bounded_pareto(Nanos(300), Nanos::from_us(12), 1.2),
            ),
            bh: DurationDist::bounded_pareto(Nanos::from_us(10), Nanos::from_us(150), 1.2),
            completions: 0,
        }
    }
}

impl Default for DiskDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for DiskDevice {
    fn name(&self) -> &str {
        "sda"
    }

    fn line(&self) -> IrqLine {
        IrqLine::DISK
    }

    fn start(&mut self, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {}

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        debug_assert_eq!(tag, TAG_COMPLETE);
        // The request at the head is done; interrupt the host.
        ctx.assert_irq();
    }

    fn submit_io(&mut self, pid: Pid, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        self.queue.push_back(pid);
        if !self.busy {
            self.busy = true;
            let service = self.service.sample(rng);
            ctx.schedule(service, TAG_COMPLETE);
        }
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        self.isr.sample(rng)
    }

    fn on_isr(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome {
        let wake = self.queue.pop_front();
        if wake.is_some() {
            self.completions += 1;
        }
        if self.queue.is_empty() {
            self.busy = false;
        } else {
            // Start the next request.
            let service = self.service.sample(rng);
            ctx.schedule(service, TAG_COMPLETE);
        }
        IsrOutcome { wake, softirq: Some((SoftirqClass::Block, self.bh.sample(rng))) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_complete_in_order() {
        let mut disk = DiskDevice::new();
        let mut rng = SimRng::new(7);
        let mut ctx = DeviceCtx::default();
        disk.submit_io(Pid(1), &mut ctx, &mut rng);
        disk.submit_io(Pid(2), &mut ctx, &mut rng);
        // Only one completion is scheduled while the spindle is busy.
        assert_eq!(ctx.issued(), 1);
        let out = disk.on_isr(&mut ctx, &mut rng);
        assert_eq!(out.wake, Some(Pid(1)));
        let out2 = disk.on_isr(&mut ctx, &mut rng);
        assert_eq!(out2.wake, Some(Pid(2)));
        assert!(!disk.busy);
        assert_eq!(disk.completions, 2);
    }

    #[test]
    fn isr_raises_block_bottom_half() {
        let mut disk = DiskDevice::new();
        let mut rng = SimRng::new(8);
        let mut ctx = DeviceCtx::default();
        let out = disk.on_isr(&mut ctx, &mut rng);
        assert_eq!(out.softirq.unwrap().0, SoftirqClass::Block);
    }
}
