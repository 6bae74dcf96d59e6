//! The device model interface.
//!
//! Devices are state machines that (a) schedule their own future events
//! (timer expiries, packet arrivals, I/O completions), (b) assert their IRQ
//! line, and (c) tell the kernel what their ISR found: which sleeping tasks
//! to wake and how much bottom-half work to raise. Concrete devices (RTC,
//! RCIM, NIC, disk, GPU, fault injectors) live in [`crate::devices`] and are
//! dispatched through the closed [`crate::devices::AnyDevice`] enum; foreign
//! implementations ride along in its `Custom` variant.

use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Instant, Nanos, SimRng};
use sp_hw::IrqLine;

/// Deferred commands a device issues during a callback; the simulator
/// executes them when the callback returns (the device is temporarily
/// detached from the simulator while being called).
#[derive(Debug, Default)]
pub struct DeviceCtx {
    pub(crate) now: Instant,
    pub(crate) commands: Vec<DeviceCmd>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeviceCmd {
    /// Re-enter `on_timer(tag)` after `delay`.
    Schedule { delay: Nanos, tag: u64 },
    /// Assert the device's interrupt line.
    AssertIrq,
}

impl DeviceCtx {
    /// Build a context around a recycled command buffer so the dispatch hot
    /// loop doesn't allocate a fresh `Vec` per device callback. The buffer
    /// is handed back (drained) via [`DeviceCtx::recycle`].
    pub(crate) fn with_buffer(now: Instant, mut buf: Vec<DeviceCmd>) -> Self {
        buf.clear();
        DeviceCtx { now, commands: buf }
    }

    /// Take the (already drained) buffer back for reuse.
    pub(crate) fn recycle(self) -> Vec<DeviceCmd> {
        self.commands
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Arrange for `on_timer(tag)` to be called after `delay`.
    pub fn schedule(&mut self, delay: Nanos, tag: u64) {
        self.commands.push(DeviceCmd::Schedule { delay, tag });
    }

    /// Assert this device's interrupt line now.
    pub fn assert_irq(&mut self) {
        self.commands.push(DeviceCmd::AssertIrq);
    }

    /// Number of commands issued so far (inspection hook for device tests).
    pub fn issued(&self) -> usize {
        self.commands.len()
    }
}

/// What the ISR discovered.
#[derive(Debug, Default)]
pub struct IsrOutcome {
    /// Sleeping tasks to wake (I/O completions, interrupt subscribers).
    pub wake: Vec<Pid>,
    /// Bottom-half work raised by this interrupt.
    pub softirq: Option<(SoftirqClass, Nanos)>,
}

impl IsrOutcome {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_softirq(mut self, class: SoftirqClass, work: Nanos) -> Self {
        self.softirq = Some((class, work));
        self
    }
}

/// A simulated interrupt-driven device.
///
/// A device is checkpointed by cloning it whole (see [`DeviceClone`]), so
/// every field — counters, queues, phase state and configuration alike —
/// crosses a [`crate::Checkpoint`] without a per-device serializer.
pub trait Device: std::fmt::Debug + Send + Sync + DeviceClone {
    fn name(&self) -> &str;

    /// The IRQ line this device asserts.
    fn line(&self) -> IrqLine;

    /// Called once when the simulation starts; arm initial events here.
    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// A previously scheduled device event fired.
    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// A task submitted blocking I/O; the device must eventually assert its
    /// IRQ and report the pid in a subsequent [`Device::on_isr`] wake list.
    fn submit_io(&mut self, pid: Pid, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// A task went to sleep waiting for this device's interrupt
    /// (the `WaitIrq` op). The device wakes all subscribers on each fire.
    fn subscribe(&mut self, pid: Pid);

    /// CPU time the ISR will consume (includes the wakeup work it performs).
    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos;

    /// ISR body: decide what this interrupt means.
    fn on_isr(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome;

    /// Extra kernel work executed in a woken subscriber's syscall-exit path,
    /// beyond the generic file-layer/ioctl costs (e.g. the RCIM's mapped
    /// count-register read is ~nothing; a PIO device might add more).
    fn reader_exit_work(&self) -> Option<DurationDist> {
        None
    }

    /// The simulator hands the drained [`IsrOutcome::wake`] buffer back
    /// (cleared, capacity intact) after processing the wakes, so devices
    /// that `mem::take` a subscriber list on each fire can store it and
    /// reuse the allocation for the next subscription round instead of
    /// growing a fresh `Vec` per interrupt. Purely an allocation-recycling
    /// hook — ignoring it (the default) is always correct.
    fn reclaim_wake_buf(&mut self, _buf: Vec<Pid>) {}

    /// Out-of-band control message delivered through
    /// [`crate::Simulator::device_control`] — the fault-injection arm/disarm
    /// path. The device may schedule events or assert its IRQ in response,
    /// exactly as from `on_timer`. Default: ignore. Because injectors drive
    /// themselves entirely through scheduled events, a device that is never
    /// sent a control message (or is disarmed) contributes no events and the
    /// dispatch hot loop pays nothing for the hook's existence.
    fn control(&mut self, _cmd: u64, _ctx: &mut DeviceCtx, _rng: &mut SimRng) {}
}

/// Object-safe cloning for devices, so a boxed foreign device
/// ([`crate::devices::AnyDevice::Custom`]) clones like the built-in ones.
/// Blanket-implemented for every `Clone` device: implementors only derive
/// `Clone`.
pub trait DeviceClone {
    /// A boxed copy of this device.
    fn box_clone(&self) -> Box<dyn Device>;
}

impl<T: Device + Clone + 'static> DeviceClone for T {
    fn box_clone(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Device> {
    fn clone(&self) -> Self {
        (**self).box_clone()
    }
}

/// Handle the simulator keeps per registered device.
#[derive(Debug, Clone)]
pub(crate) struct DeviceSlot {
    /// `None` only while a callback is in flight (re-entrancy guard).
    pub dev: Option<crate::devices::AnyDevice>,
    /// Private random stream so one device's draws don't perturb another's.
    pub rng: SimRng,
    /// [`Device::reader_exit_work`] cached at registration, so the wake path
    /// doesn't clone a `DurationDist` (mix/shifted variants heap-allocate)
    /// per wake.
    pub exit_work: Option<DurationDist>,
}
