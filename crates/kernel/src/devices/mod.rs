//! Concrete device models for the paper's testbeds, plus [`AnyDevice`] — the
//! closed enum the simulator dispatches through.
//!
//! * [`RtcDevice`] — the CMOS RTC behind `/dev/rtc` and the realfeel test,
//! * [`RcimDevice`] / [`RcimExternalInput`] — Concurrent's RCIM PCI card:
//!   high-resolution timers and external edge-triggered inputs,
//! * [`NicDevice`] — the Ethernet controller (scp/ttcp traffic, `net_rx`
//!   bottom halves),
//! * [`DiskDevice`] — the SCSI disk (blocking I/O, completion interrupts),
//! * [`GpuDevice`] — the graphics controller under X11perf,
//! * [`StormDevice`] — the arm/disarm fault injector (IRQ storm, softirq
//!   flood, stuck ISR),
//! * [`TrafficDevice`] — the coalesced request-serving traffic queue driven
//!   by a declarative diurnal/burst [`TrafficProfile`],
//! * [`OnOffPoisson`] — the bursty arrival process they share.

pub mod disk;
pub mod gpu;
pub mod nic;
pub mod profile;
pub mod rcim;
pub mod rtc;
pub mod storm;
pub mod traffic;

pub use disk::DiskDevice;
pub use gpu::GpuDevice;
pub use nic::NicDevice;
pub use profile::{OnOffPoisson, OnOffState};
pub use rcim::{RcimDevice, RcimExternalInput};
pub use rtc::RtcDevice;
pub use storm::{StormDevice, CTRL_ARM, CTRL_DISARM};
pub use traffic::{TrafficDevice, TrafficPhase, TrafficProfile};

use crate::device::{Device, DeviceCtx, IsrOutcome};
use crate::ids::Pid;
use simcore::{DurationDist, Nanos, SimRng};
use sp_hw::IrqLine;

/// The closed set of device implementations, devirtualizing the simulator's
/// hot-path dispatch. Constructed via `From` impls (`sim.add_device(rtc)`)
/// or [`AnyDevice::custom`] for foreign [`Device`] implementations.
/// `Clone` copies the whole device, so a checkpoint image holds its devices
/// as plain values.
#[derive(Debug, Clone)]
pub enum AnyDevice {
    Rtc(RtcDevice),
    Rcim(RcimDevice),
    RcimExt(RcimExternalInput),
    Nic(NicDevice),
    Disk(DiskDevice),
    Gpu(GpuDevice),
    Storm(StormDevice),
    Traffic(TrafficDevice),
    /// Escape hatch for out-of-tree devices (test mocks, experiments);
    /// dispatches through the vtable.
    Custom(Box<dyn Device>),
}

impl AnyDevice {
    /// Wrap a foreign [`Device`] implementation.
    pub fn custom(dev: impl Device + 'static) -> Self {
        AnyDevice::Custom(Box::new(dev))
    }
}

/// Each arm is a static call the compiler can inline; only `Custom` pays a
/// vtable hop.
macro_rules! dispatch {
    ($self:ident, $method:ident ( $($arg:expr),* )) => {
        match $self {
            AnyDevice::Rtc(d) => d.$method($($arg),*),
            AnyDevice::Rcim(d) => d.$method($($arg),*),
            AnyDevice::RcimExt(d) => d.$method($($arg),*),
            AnyDevice::Nic(d) => d.$method($($arg),*),
            AnyDevice::Disk(d) => d.$method($($arg),*),
            AnyDevice::Gpu(d) => d.$method($($arg),*),
            AnyDevice::Storm(d) => d.$method($($arg),*),
            AnyDevice::Traffic(d) => d.$method($($arg),*),
            AnyDevice::Custom(d) => d.$method($($arg),*),
        }
    };
}

impl Device for AnyDevice {
    #[inline]
    fn name(&self) -> &str {
        dispatch!(self, name())
    }

    #[inline]
    fn line(&self) -> IrqLine {
        dispatch!(self, line())
    }

    #[inline]
    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        dispatch!(self, start(ctx, rng))
    }

    #[inline]
    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        dispatch!(self, on_timer(tag, ctx, rng))
    }

    #[inline]
    fn submit_io(&mut self, pid: Pid, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        dispatch!(self, submit_io(pid, ctx, rng))
    }

    #[inline]
    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos {
        dispatch!(self, isr_cost(rng))
    }

    #[inline]
    fn on_isr(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome {
        dispatch!(self, on_isr(ctx, rng))
    }

    #[inline]
    fn reader_exit_work(&self) -> Option<DurationDist> {
        dispatch!(self, reader_exit_work())
    }

    #[inline]
    fn control(&mut self, cmd: u64, ctx: &mut DeviceCtx, rng: &mut SimRng) {
        dispatch!(self, control(cmd, ctx, rng))
    }
}

impl From<RtcDevice> for AnyDevice {
    fn from(d: RtcDevice) -> Self {
        AnyDevice::Rtc(d)
    }
}

impl From<RcimDevice> for AnyDevice {
    fn from(d: RcimDevice) -> Self {
        AnyDevice::Rcim(d)
    }
}

impl From<RcimExternalInput> for AnyDevice {
    fn from(d: RcimExternalInput) -> Self {
        AnyDevice::RcimExt(d)
    }
}

impl From<NicDevice> for AnyDevice {
    fn from(d: NicDevice) -> Self {
        AnyDevice::Nic(d)
    }
}

impl From<DiskDevice> for AnyDevice {
    fn from(d: DiskDevice) -> Self {
        AnyDevice::Disk(d)
    }
}

impl From<GpuDevice> for AnyDevice {
    fn from(d: GpuDevice) -> Self {
        AnyDevice::Gpu(d)
    }
}

impl From<StormDevice> for AnyDevice {
    fn from(d: StormDevice) -> Self {
        AnyDevice::Storm(d)
    }
}

impl From<TrafficDevice> for AnyDevice {
    fn from(d: TrafficDevice) -> Self {
        AnyDevice::Traffic(d)
    }
}

impl From<Box<dyn Device>> for AnyDevice {
    fn from(d: Box<dyn Device>) -> Self {
        AnyDevice::Custom(d)
    }
}
