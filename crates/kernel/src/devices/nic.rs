//! Ethernet controller (the paper's 3Com 3c905C).
//!
//! Two roles:
//! * **external traffic** — the `scp` copy from a foreign machine and the
//!   stress TTCP streams arrive regardless of what local tasks do; modelled
//!   as an ON/OFF Poisson interrupt source whose ISRs raise `net_rx`
//!   bottom-half work (the multi-hundred-microsecond bursts that stretch
//!   spinlock holds in §6.2);
//! * **local I/O** — tasks that block in `send()` are completed by a later
//!   TX interrupt.

use super::profile::{OnOffPoisson, OnOffState};
use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;
use std::collections::VecDeque;

const TAG_PHASE: u64 = 0;
const TAG_ARRIVAL: u64 = 1;
const TAG_TX_DONE: u64 = 2;

/// NIC with optional autonomous RX traffic.
#[derive(Debug, Clone)]
pub struct NicDevice {
    /// Boxed: three distributions would make the NIC the one oversized
    /// [`super::AnyDevice`] variant.
    external: Option<Box<OnOffPoisson>>,
    state: OnOffState,
    /// Tasks blocked in a send, FIFO.
    tx_waiters: VecDeque<Pid>,
    /// TX completions that have interrupted but not yet been matched.
    tx_done_pending: u32,
    isr: DurationDist,
    /// net_rx bottom-half work raised per RX interrupt (covers a coalesced
    /// batch of frames — protocol processing, copies, socket wakeups).
    rx_softirq: DurationDist,
    tx_service: DurationDist,
    /// net_tx bottom-half work per TX-completion interrupt (ring cleanup).
    tx_softirq: DurationDist,
    pub rx_irqs: u64,
    pub tx_irqs: u64,
}

impl NicDevice {
    pub fn new(external: Option<OnOffPoisson>) -> Self {
        NicDevice {
            external: external.map(Box::new),
            state: OnOffState::default(),
            tx_waiters: VecDeque::new(),
            tx_done_pending: 0,
            isr: DurationDist::shifted(
                Nanos::from_us(4),
                DurationDist::bounded_pareto(Nanos(200), Nanos::from_us(8), 1.2),
            ),
            rx_softirq: DurationDist::mix(vec![
                // Typical coalesced batch...
                (0.93, DurationDist::bounded_pareto(Nanos::from_us(20), Nanos::from_us(200), 1.1)),
                // ...and the occasional heavy burst (backlog drain) that 2.4
                // bottom halves were notorious for.
                (0.07, DurationDist::bounded_pareto(Nanos::from_us(200), Nanos::from_ms(3), 1.1)),
            ]),
            tx_service: DurationDist::exponential(Nanos::from_us(400)),
            tx_softirq: DurationDist::bounded_pareto(Nanos::from_us(5), Nanos::from_us(40), 1.2),
            rx_irqs: 0,
            tx_irqs: 0,
        }
    }
}

impl Device for NicDevice {
    fn name(&self) -> &str {
        "eth0"
    }

    fn line(&self) -> IrqLine {
        IrqLine::NIC
    }

    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        if let Some(profile) = &self.external {
            // Begin in the OFF phase; flip into ON after it elapses.
            let off = profile.off_len.sample(rng);
            ctx.schedule(off, TAG_PHASE);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        match tag {
            TAG_PHASE => {
                let profile = self.external.as_deref().expect("phase without profile");
                let len = self.state.flip(profile, rng);
                ctx.schedule(len, TAG_PHASE);
                if self.state.on {
                    let gap = self.state.next_gap(profile, rng);
                    ctx.schedule(gap, TAG_ARRIVAL);
                }
            }
            TAG_ARRIVAL => {
                if self.state.on {
                    self.rx_irqs += 1;
                    ctx.assert_irq();
                    let profile = self.external.as_deref().expect("arrival without profile");
                    let gap = self.state.next_gap(profile, rng);
                    ctx.schedule(gap, TAG_ARRIVAL);
                }
            }
            TAG_TX_DONE => {
                self.tx_done_pending += 1;
                self.tx_irqs += 1;
                ctx.assert_irq();
            }
            other => unreachable!("unknown nic tag {other}"),
        }
    }

    fn submit_io(&mut self, pid: Pid, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        self.tx_waiters.push_back(pid);
        let service = self.tx_service.sample(rng);
        ctx.schedule(service, TAG_TX_DONE);
    }

    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        self.isr.sample(rng)
    }

    fn on_isr(&mut self, _ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome {
        if self.tx_done_pending > 0 {
            // TX completion: light ring cleanup, wake the sender.
            self.tx_done_pending -= 1;
            let wake = self.tx_waiters.pop_front();
            return IsrOutcome { wake, softirq: Some((SoftirqClass::NetTx, self.tx_softirq.sample(rng))) };
        }
        // RX: protocol processing for the coalesced batch.
        IsrOutcome::none().with_softirq(SoftirqClass::NetRx, self.rx_softirq.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_completion_wakes_in_fifo_order() {
        let mut nic = NicDevice::new(None);
        let mut rng = SimRng::new(4);
        let mut ctx = DeviceCtx::default();
        nic.submit_io(Pid(1), &mut ctx, &mut rng);
        nic.submit_io(Pid(2), &mut ctx, &mut rng);
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert_eq!(out.wake, Some(Pid(1)));
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        let out2 = nic.on_isr(&mut ctx, &mut rng);
        assert_eq!(out2.wake, Some(Pid(2)));
    }

    #[test]
    fn tx_done_pending_never_leaks_without_a_waiter() {
        let mut nic = NicDevice::new(None);
        let mut rng = SimRng::new(7);
        let mut ctx = DeviceCtx::default();
        // One real send, but two TX-completion interrupts (a spurious
        // completion, as real 3c905 rings produce under error paths).
        nic.submit_io(Pid(9), &mut ctx, &mut rng);
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        assert_eq!(nic.tx_done_pending, 2);

        // First ISR: matched to the waiter.
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert_eq!(out.wake, Some(Pid(9)));
        assert_eq!(out.softirq.expect("softirq").0, SoftirqClass::NetTx);

        // Second ISR: no waiter left — the pending count must still drain
        // (ring cleanup happens, nobody is woken), not stick at 1 forever.
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert!(out.wake.is_none());
        assert_eq!(out.softirq.expect("softirq").0, SoftirqClass::NetTx);
        assert_eq!(nic.tx_done_pending, 0, "spurious completion leaked");

        // With the books clean, the next ISR is classified as RX again.
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert!(out.wake.is_none());
        assert_eq!(out.softirq.expect("softirq").0, SoftirqClass::NetRx);
    }

    #[test]
    fn interleaved_rx_isrs_do_not_steal_tx_completions() {
        let mut nic = NicDevice::new(None);
        let mut rng = SimRng::new(8);
        let mut ctx = DeviceCtx::default();
        nic.submit_io(Pid(1), &mut ctx, &mut rng);
        nic.submit_io(Pid(2), &mut ctx, &mut rng);

        // An RX interrupt before any completion: nobody may be woken and the
        // waiter queue must be left alone.
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert!(out.wake.is_none());
        assert_eq!(out.softirq.expect("softirq").0, SoftirqClass::NetRx);
        assert_eq!(nic.tx_waiters.len(), 2);

        // Completions then drain strictly FIFO, one per interrupt, with RX
        // traffic interleaved between them.
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        assert_eq!(nic.on_isr(&mut ctx, &mut rng).wake, Some(Pid(1)));
        let out = nic.on_isr(&mut ctx, &mut rng);
        assert!(out.wake.is_none(), "RX between completions woke {:?}", out.wake);
        nic.on_timer(TAG_TX_DONE, &mut ctx, &mut rng);
        assert_eq!(nic.on_isr(&mut ctx, &mut rng).wake, Some(Pid(2)));
        assert_eq!(nic.tx_done_pending, 0);
        assert!(nic.tx_waiters.is_empty());
    }

    #[test]
    fn every_isr_raises_net_rx_work() {
        let mut nic = NicDevice::new(None);
        let mut rng = SimRng::new(5);
        let mut ctx = DeviceCtx::default();
        let out = nic.on_isr(&mut ctx, &mut rng);
        let (class, work) = out.softirq.expect("softirq raised");
        assert_eq!(class, SoftirqClass::NetRx);
        assert!(work >= Nanos::from_us(20));
    }

    #[test]
    fn softirq_bursts_reach_milliseconds() {
        let mut nic = NicDevice::new(None);
        let mut rng = SimRng::new(6);
        let mut ctx = DeviceCtx::default();
        let max = (0..20_000)
            .map(|_| nic.on_isr(&mut ctx, &mut rng).softirq.unwrap().1)
            .max()
            .unwrap();
        assert!(max > Nanos::from_ms(1), "tail burst: {max}");
        assert!(max <= Nanos::from_ms(3));
    }
}
