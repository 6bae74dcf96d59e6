//! The Concurrent Real-Time Clock and Interrupt Module (RCIM) — the PCI card
//! of §6.3. A high-resolution periodic timer whose count register is mapped
//! straight into the measuring program, waited on with `ioctl()` through a
//! fully multithreaded (BKL-free) driver.
//!
//! The latency the benchmark reports is "initial count − count register at
//! the moment the woken program reads it", so the user-mode register read is
//! part of the measured path: we model it (plus the driver's return path) as
//! [`Device::reader_exit_work`].

use super::profile::{OnOffPoisson, OnOffState};
use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::Pid;
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

const TAG_PERIOD: u64 = 0;

/// The RCIM's periodic timer function.
#[derive(Debug, Clone)]
pub struct RcimDevice {
    period: Nanos,
    isr: DurationDist,
    exit_work: DurationDist,
    pub fired: u64,
    pub missed: u64,
}

impl RcimDevice {
    pub fn new(period: Nanos) -> Self {
        assert!(period >= Nanos::from_us(10), "RCIM period too short: {period}");
        RcimDevice {
            period,
            // Edge-triggered PCI interrupt: ack the card, reload bookkeeping,
            // wake the waiter. Calibrated (with the fixed kernel path costs)
            // so the shielded wake-to-read floor lands at Figure 7's 11 µs.
            isr: DurationDist::shifted(
                Nanos::from_ns(5_300),
                DurationDist::bounded_pareto(Nanos(100), Nanos::from_us(9), 1.15),
            ),
            // Driver return + mapped count-register read (PCI read, ~µs).
            exit_work: DurationDist::shifted(
                Nanos::from_ns(500),
                DurationDist::bounded_pareto(Nanos(50), Nanos::from_ns(900), 1.4),
            ),
            fired: 0,
            missed: 0,
        }
    }

    /// An RCIM driven by a current-generation PCIe host: MMIO acks and the
    /// mapped count-register read are tens of nanoseconds instead of the
    /// paper's microsecond-scale PCI transactions. Used by the modern
    /// isolation experiments, where the whole wake-to-read path must close
    /// under half a microsecond.
    pub fn modern(period: Nanos) -> Self {
        let mut d = Self::new(period);
        d.isr = DurationDist::shifted(
            Nanos::from_ns(40),
            DurationDist::bounded_pareto(Nanos(5), Nanos::from_ns(40), 1.2),
        );
        d.exit_work = DurationDist::shifted(
            Nanos::from_ns(25),
            DurationDist::bounded_pareto(Nanos(3), Nanos::from_ns(30), 1.3),
        );
        d
    }

    pub fn period(&self) -> Nanos {
        self.period
    }
}

impl Device for RcimDevice {
    fn name(&self) -> &str {
        "rcim"
    }

    fn line(&self) -> IrqLine {
        IrqLine::RCIM
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
        unreachable!("the RCIM accepts no block I/O");
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

    fn reader_exit_work(&self) -> Option<DurationDist> {
        Some(self.exit_work.clone())
    }
}

/// The RCIM's second function (§4): external edge-triggered interrupt
/// inputs. Field wiring connects real-world signals to the card; each edge
/// interrupts the host and wakes whoever armed the input. Edges are modelled
/// as an [`OnOffPoisson`] arrival process (the external world's behaviour).
#[derive(Debug, Clone)]
pub struct RcimExternalInput {
    line: IrqLine,
    edges: OnOffPoisson,
    state: OnOffState,
    isr: DurationDist,
    exit_work: DurationDist,
    pub edges_seen: u64,
    pub missed: u64,
}

const EXT_TAG_PHASE: u64 = 10;
const EXT_TAG_EDGE: u64 = 11;

impl RcimExternalInput {
    /// An input on its own RCIM line (the card exposes several; pick a
    /// distinct line per input).
    pub fn new(line: IrqLine, edges: OnOffPoisson) -> Self {
        RcimExternalInput {
            line,
            edges,
            state: OnOffState::default(),
            isr: DurationDist::shifted(
                Nanos::from_ns(4_000),
                DurationDist::bounded_pareto(Nanos(100), Nanos::from_us(5), 1.2),
            ),
            exit_work: DurationDist::shifted(
                Nanos::from_ns(500),
                DurationDist::bounded_pareto(Nanos(50), Nanos::from_ns(900), 1.4),
            ),
            edges_seen: 0,
            missed: 0,
        }
    }
}

impl Device for RcimExternalInput {
    fn name(&self) -> &str {
        "rcim-ext"
    }

    fn line(&self) -> IrqLine {
        self.line
    }

    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        let off = self.edges.off_len.sample(rng);
        ctx.schedule(off, EXT_TAG_PHASE);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        match tag {
            EXT_TAG_PHASE => {
                let len = self.state.flip(&self.edges, rng);
                ctx.schedule(len, EXT_TAG_PHASE);
                if self.state.on {
                    let gap = self.state.next_gap(&self.edges, rng);
                    ctx.schedule(gap, EXT_TAG_EDGE);
                }
            }
            EXT_TAG_EDGE => {
                if self.state.on {
                    self.edges_seen += 1;
                    ctx.assert_irq();
                    let gap = self.state.next_gap(&self.edges, rng);
                    ctx.schedule(gap, EXT_TAG_EDGE);
                }
            }
            other => unreachable!("unknown rcim-ext tag {other}"),
        }
    }

    fn submit_io(&mut self, _pid: Pid, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {
        unreachable!("external inputs accept no block I/O");
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

    fn reader_exit_work(&self) -> Option<DurationDist> {
        Some(self.exit_work.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_work_is_sub_microsecond_scale() {
        let dev = RcimDevice::new(Nanos::from_ms(1));
        let d = dev.reader_exit_work().unwrap();
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let w = d.sample(&mut rng);
            assert!(w >= Nanos(550) && w <= Nanos(1_400), "{w}");
        }
    }

    #[test]
    fn modern_rcim_costs_are_tens_of_nanoseconds() {
        let mut dev = RcimDevice::modern(Nanos::from_ms(1));
        let exit = dev.reader_exit_work().unwrap();
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let w = exit.sample(&mut rng);
            assert!(w >= Nanos(28) && w <= Nanos(55), "exit {w}");
            let i = dev.isr_cost(&mut rng);
            assert!(i >= Nanos(45) && i <= Nanos(80), "isr {i}");
        }
    }

    #[test]
    #[should_panic(expected = "period too short")]
    fn rejects_absurd_period() {
        RcimDevice::new(Nanos(100));
    }

    #[test]
    fn external_input_counts_edges_and_misses() {
        let mut dev =
            RcimExternalInput::new(IrqLine(21), OnOffPoisson::continuous(Nanos::from_ms(1)));
        let mut rng = SimRng::new(3);
        let mut waiting = DeviceCtx { waiters: 1, ..DeviceCtx::default() };
        dev.on_isr(&mut waiting, &mut rng);
        assert_eq!(dev.missed, 0);
        dev.on_isr(&mut DeviceCtx::default(), &mut rng);
        assert_eq!(dev.missed, 1);
    }
}
