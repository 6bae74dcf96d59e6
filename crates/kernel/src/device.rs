//! The device model interface.
//!
//! Devices are state machines that (a) schedule their own future events
//! (timer expiries, packet arrivals, I/O completions), (b) assert their IRQ
//! line, and (c) tell the kernel what their ISR found: which I/O submitter
//! to wake and how much bottom-half work to raise. Concrete devices (RTC,
//! RCIM, NIC, disk, GPU, fault injectors) live in [`crate::devices`] and are
//! dispatched through the closed [`crate::devices::AnyDevice`] enum; foreign
//! implementations ride along in its `Custom` variant.

use crate::ids::{Pid, SoftirqClass};
use simcore::{DurationDist, Instant, Nanos, SimRng};
use sp_hw::{CpuMask, IrqLine, IrqRouting};

/// What a device callback sees of the simulator, and the commands it
/// issues; the simulator executes the commands when the callback returns.
#[derive(Debug, Default, Clone)]
pub struct DeviceCtx {
    pub(crate) now: Instant,
    pub(crate) waiters: usize,
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
    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Tasks blocked in a `WaitIrq` on this device (see [`Device`]). In
    /// [`Device::on_isr`] these are the tasks the interrupt is about to wake.
    pub fn waiters(&self) -> usize {
        self.waiters
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
    /// The I/O submitter this interrupt completes, if any (a disk or NIC TX
    /// completion). Interrupt waiters are not listed: the simulator wakes
    /// them itself.
    pub wake: Option<Pid>,
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
///
/// Interrupt waiters belong to the simulator, not the device. A task whose
/// `WaitIrq` op blocks on a device joins that device's one FIFO wait queue
/// in the simulator; after every [`Device::on_isr`] the simulator wakes
/// each queued task in arrival order and empties the queue. A device only
/// reads the queue's length, [`DeviceCtx::waiters`], for example to count an
/// interrupt that found nobody waiting.
pub trait Device: std::fmt::Debug + Send + Sync + DeviceClone {
    fn name(&self) -> &str;

    /// The IRQ line this device asserts.
    fn line(&self) -> IrqLine;

    /// Called once when the simulation starts; arm initial events here.
    fn start(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// A previously scheduled device event fired.
    fn on_timer(&mut self, tag: u64, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// A task submitted blocking I/O; the device must eventually assert its
    /// IRQ and report the pid as a later [`Device::on_isr`]'s
    /// [`IsrOutcome::wake`].
    fn submit_io(&mut self, pid: Pid, ctx: &mut DeviceCtx, rng: &mut SimRng);

    /// CPU time the ISR will consume (includes the wakeup work it performs).
    fn isr_cost(&mut self, rng: &mut SimRng) -> Nanos;

    /// ISR body: decide what this interrupt means.
    fn on_isr(&mut self, ctx: &mut DeviceCtx, rng: &mut SimRng) -> IsrOutcome;

    /// Extra kernel work executed in a woken waiter's syscall-exit path,
    /// beyond the generic file-layer/ioctl costs (e.g. the RCIM's mapped
    /// count-register read is ~nothing; a PIO device might add more).
    fn reader_exit_work(&self) -> Option<DurationDist> {
        None
    }

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

/// Everything the simulator keeps per registered device.
#[derive(Debug, Clone)]
pub(crate) struct DeviceSlot {
    pub dev: crate::devices::AnyDevice,
    /// Private random stream so one device's draws don't perturb another's.
    pub rng: SimRng,
    /// What was written to the line's `smp_affinity`.
    pub requested: CpuMask,
    /// The line's routing, with the effective (shield-adjusted) affinity.
    pub routing: IrqRouting,
    /// Interrupts handled, per CPU (the /proc/interrupts row).
    pub irq_counts: Vec<u64>,
    /// [`Device::reader_exit_work`] cached at registration, so the wake path
    /// doesn't clone a `DurationDist` (mix/shifted variants heap-allocate)
    /// per wake.
    pub exit_work: Option<DurationDist>,
    /// Tasks blocked in a `WaitIrq` on this device, in arrival order.
    pub waiters: Vec<Pid>,
}
