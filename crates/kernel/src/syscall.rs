//! Syscall service profiles.
//!
//! Workloads don't model real syscall semantics; what matters for latency is
//! *where a syscall spends kernel time and which locks it holds while doing
//! so*. A [`SyscallService`] is that shape: a sequence of kernel segments
//! (each optionally under a spinlock, optionally with interrupts disabled),
//! optionally followed by blocking I/O submitted to a device.

use crate::ids::{DeviceId, LockId};
use serde::{Deserialize, Serialize};
use simcore::DurationDist;

/// One stretch of kernel execution within a syscall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSegment {
    /// CPU work for the segment.
    pub dur: DurationDist,
    /// Spinlock held for the duration of the segment.
    pub lock: Option<LockId>,
    /// `spin_lock_irqsave` semantics: local interrupts disabled while the
    /// segment runs (delays even IRQ delivery on this CPU).
    pub irqs_off: bool,
    /// Probability the segment is executed at all (slow paths < 1.0).
    pub prob: f64,
}

impl KernelSegment {
    pub fn work(dur: DurationDist) -> Self {
        KernelSegment { dur, lock: None, irqs_off: false, prob: 1.0 }
    }

    pub fn locked(lock: LockId, dur: DurationDist) -> Self {
        KernelSegment { dur, lock: Some(lock), irqs_off: false, prob: 1.0 }
    }

    pub fn locked_irqsave(lock: LockId, dur: DurationDist) -> Self {
        KernelSegment { dur, lock: Some(lock), irqs_off: true, prob: 1.0 }
    }

    pub fn with_prob(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range: {prob}");
        self.prob = prob;
        self
    }
}

/// Blocking I/O at the end of a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoSpec {
    pub device: DeviceId,
}

/// A registered syscall shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyscallService {
    pub name: String,
    pub segments: Vec<KernelSegment>,
    /// If set, the task submits a request to the device after the segments
    /// and blocks until the device's completion interrupt wakes it.
    pub io: Option<IoSpec>,
    /// Whether the syscall enters through the BKL-taking generic paths
    /// (ioctl/open on legacy drivers).
    pub takes_bkl: bool,
    /// Whether the variant-specific "long section" can be injected into this
    /// syscall (true for ordinary background work; false for the measurement
    /// paths whose length the paper pins down explicitly).
    pub injectable: bool,
}

impl SyscallService {
    pub fn new(name: impl Into<String>) -> Self {
        SyscallService {
            name: name.into(),
            segments: Vec::new(),
            io: None,
            takes_bkl: false,
            injectable: true,
        }
    }

    pub fn segment(mut self, seg: KernelSegment) -> Self {
        self.segments.push(seg);
        self
    }

    pub fn blocking_io(mut self, device: DeviceId) -> Self {
        self.io = Some(IoSpec { device });
        self
    }

    pub fn with_bkl(mut self) -> Self {
        self.takes_bkl = true;
        self
    }

    pub fn not_injectable(mut self) -> Self {
        self.injectable = false;
        self
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("syscall needs a name".into());
        }
        for (i, seg) in self.segments.iter().enumerate() {
            if !(0.0..=1.0).contains(&seg.prob) {
                return Err(format!("{}: segment {i} probability {}", self.name, seg.prob));
            }
            if seg.irqs_off && seg.lock.is_none() {
                return Err(format!(
                    "{}: segment {i} disables irqs without a lock (unmodelled)",
                    self.name
                ));
            }
            seg.dur.validate().map_err(|e| format!("{}: segment {i}: {e}", self.name))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Nanos;

    #[test]
    fn builder_composes() {
        let s = SyscallService::new("write_disk")
            .segment(KernelSegment::work(DurationDist::constant(Nanos::from_us(5))))
            .segment(KernelSegment::locked(LockId::MM, DurationDist::constant(Nanos::from_us(2))))
            .blocking_io(DeviceId(0));
        assert_eq!(s.segments.len(), 2);
        assert_eq!(s.io, Some(IoSpec { device: DeviceId(0) }));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn irqsave_requires_lock() {
        let mut seg = KernelSegment::work(DurationDist::constant(Nanos(1)));
        seg.irqs_off = true;
        let s = SyscallService::new("bad").segment(seg);
        assert!(s.validate().is_err());
    }

    #[test]
    fn probability_validation() {
        let seg = KernelSegment::work(DurationDist::constant(Nanos(1)));
        let mut s = SyscallService::new("p").segment(seg);
        s.segments[0].prob = 1.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn segment_duration_validation() {
        let seg = KernelSegment::work(DurationDist::BoundedPareto { lo: 10, hi: 5, alpha: 1.2 });
        let err = SyscallService::new("d").segment(seg).validate().unwrap_err();
        assert!(err.starts_with("d: segment 0:"), "{err}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn with_prob_asserts() {
        KernelSegment::work(DurationDist::constant(Nanos(1))).with_prob(-0.1);
    }
}
