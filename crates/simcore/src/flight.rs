//! Structured flight-recorder events.
//!
//! The flight recorder is the simulator's one event record. A [`FlightEvent`]
//! is a fixed-size record — no heap allocation per event — describing either
//! a *span* of CPU activity (an ISR body, a softirq burst, a lock spin, a
//! scheduler switch…) or an *instant* (an interrupt assert, a wakeup, a
//! sample completion, a shield reconfiguration). The kernel simulator pushes
//! these into a bounded [`FlightRing`]; when a latency sample turns out to be
//! among the worst seen, the window of events behind it is copied out and
//! becomes the sample's causal explanation.
//!
//! Downstream, `sp-metrics` renders these events as Chrome / Perfetto
//! `trace_event` JSON, as one-screen ASCII cause chains and as a per-CPU
//! ASCII timeline; the category names come from [`ActivityClass::name`] and
//! [`TraceKind::name`] so the timeline view, the exporter and the docs can
//! never drift apart.

use crate::time::{Instant, Nanos};
use std::collections::VecDeque;
use std::fmt;

/// Category of a [`FlightEvent`]: the Perfetto `cat` field and the glyph of
/// the ASCII timeline. Every category is the target of some
/// [`ActivityClass::trace_kind`] or [`FlightEventKind::trace_kind`].
///
/// The taxonomy is documented in `docs/OBSERVABILITY.md`; [`TraceKind::name`]
/// is the single source of truth for the printed name, shared by the ASCII
/// timeline (`sp-metrics::timeline`) and the Perfetto exporter
/// (`sp-metrics::perfetto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Scheduler decisions: context switches and wakeups.
    Sched,
    /// Hardware interrupt delivery, service routines and irq threads.
    Irq,
    /// Softirq / bottom-half processing.
    Softirq,
    /// Spinlock contention.
    Lock,
    /// Kernel-mode task execution (syscall bodies, wake-exit paths).
    Syscall,
    /// Local timer ticks and elided nohz ticks.
    Timer,
    /// CPU shield reconfiguration (`/proc/shield` writes).
    Shield,
    /// User-mode workload execution and latency sample completion.
    Workload,
}

impl TraceKind {
    /// Stable lower-case name — the one mapping shared by the timeline view,
    /// the Perfetto `cat` field, and the docs.
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::Sched => "sched",
            TraceKind::Irq => "irq",
            TraceKind::Softirq => "softirq",
            TraceKind::Lock => "lock",
            TraceKind::Syscall => "syscall",
            TraceKind::Timer => "timer",
            TraceKind::Shield => "shield",
            TraceKind::Workload => "workload",
        }
    }
}

/// What a CPU was doing during a [`FlightEvent`] span.
///
/// Mirrors the buckets of the kernel's per-CPU time accounting
/// (`CpuAccounting` in `sp-kernel`), so a trace window can be attributed to
/// exactly the categories the steal-fraction reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActivityClass {
    /// User-mode task execution.
    User,
    /// Kernel-mode task execution (syscall bodies, wake-exit paths).
    Kernel,
    /// Busy-waiting on a contended spinlock.
    Spin,
    /// Hardware interrupt service routine.
    Isr,
    /// Softirq / bottom-half burst.
    Softirq,
    /// Local timer tick processing.
    Tick,
    /// Scheduler pick plus context switch.
    Switch,
    /// Threaded-IRQ handler body (the schedulable half of a split ISR).
    IrqThread,
}

impl ActivityClass {
    /// Every class, in accounting order.
    pub const ALL: [ActivityClass; 8] = [
        ActivityClass::User,
        ActivityClass::Kernel,
        ActivityClass::Spin,
        ActivityClass::Isr,
        ActivityClass::Softirq,
        ActivityClass::Tick,
        ActivityClass::Switch,
        ActivityClass::IrqThread,
    ];

    /// Stable lower-case name, used as the Perfetto event name.
    pub const fn name(self) -> &'static str {
        match self {
            ActivityClass::User => "user",
            ActivityClass::Kernel => "kernel",
            ActivityClass::Spin => "spin",
            ActivityClass::Isr => "isr",
            ActivityClass::Softirq => "softirq",
            ActivityClass::Tick => "tick",
            ActivityClass::Switch => "switch",
            ActivityClass::IrqThread => "irqthread",
        }
    }

    /// The [`TraceKind`] category this class files under — the Perfetto
    /// `cat` field shares [`TraceKind::name`] with the ASCII timeline.
    pub const fn trace_kind(self) -> TraceKind {
        match self {
            ActivityClass::User => TraceKind::Workload,
            ActivityClass::Kernel => TraceKind::Syscall,
            ActivityClass::Spin => TraceKind::Lock,
            ActivityClass::Isr => TraceKind::Irq,
            ActivityClass::Softirq => TraceKind::Softirq,
            ActivityClass::Tick => TraceKind::Timer,
            ActivityClass::Switch => TraceKind::Sched,
            ActivityClass::IrqThread => TraceKind::Irq,
        }
    }
}

impl fmt::Display for ActivityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload discriminator of a [`FlightEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A span of CPU activity; `dur` is its length, `detail` is a
    /// class-specific id (device for ISRs, lock for spins, pid for
    /// switches, 0 otherwise).
    Span(ActivityClass),
    /// A device asserted its interrupt line (instant; `detail` = device id,
    /// `cpu` = the CPU the line routed to).
    IrqAssert,
    /// A blocked task was made runnable (instant; `detail` = pid).
    Wake,
    /// A watched wake-to-user latency sample completed (instant;
    /// `detail` = the sample's latency in ns).
    SampleDone,
    /// The shield configuration changed (instant; `detail` = number of
    /// process-shielded CPUs — the Perfetto counter-track value).
    ShieldSet,
    /// A hard-IRQ ack handed its device body to an irq thread (instant;
    /// `detail` = device id, `cpu` = the CPU the thread was queued on).
    IrqThreadWake,
    /// A nohz re-arm skipped ticks on the original grid (instant;
    /// `detail` = number of ticks elided by this re-arm).
    TicksElided,
}

impl FlightEventKind {
    /// Stable event name for exports and reports.
    pub const fn name(self) -> &'static str {
        match self {
            FlightEventKind::Span(class) => class.name(),
            FlightEventKind::IrqAssert => "irq_assert",
            FlightEventKind::Wake => "wake",
            FlightEventKind::SampleDone => "sample_done",
            FlightEventKind::ShieldSet => "shielded_cpus",
            FlightEventKind::IrqThreadWake => "irq_thread_wake",
            FlightEventKind::TicksElided => "ticks_elided",
        }
    }

    /// The [`TraceKind`] category for the `cat` field of exports.
    pub const fn trace_kind(self) -> TraceKind {
        match self {
            FlightEventKind::Span(class) => class.trace_kind(),
            FlightEventKind::IrqAssert => TraceKind::Irq,
            FlightEventKind::Wake => TraceKind::Sched,
            FlightEventKind::SampleDone => TraceKind::Workload,
            FlightEventKind::ShieldSet => TraceKind::Shield,
            FlightEventKind::IrqThreadWake => TraceKind::Irq,
            FlightEventKind::TicksElided => TraceKind::Timer,
        }
    }
}

/// One structured flight-recorder record: a span (`dur > 0` possible) or an
/// instant (`dur == 0` always). `Copy` and allocation-free so the armed
/// recorder's per-event cost stays bounded.
///
/// ```
/// use simcore::{ActivityClass, FlightEvent, FlightEventKind, Instant, Nanos};
///
/// let isr = FlightEvent::span(Instant(1_000), Nanos(350), 1, ActivityClass::Isr, 0);
/// assert_eq!(isr.end(), Instant(1_350));
/// assert!(isr.overlaps(Instant(1_200), Instant(2_000)));
/// assert!(!isr.overlaps(Instant(1_350), Instant(2_000))); // half-open
/// assert_eq!(isr.kind.name(), "isr");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Span start (or the instant itself).
    pub at: Instant,
    /// Span length; [`Nanos::ZERO`] for instants.
    pub dur: Nanos,
    /// CPU the event happened on, when it is CPU-local.
    pub cpu: Option<u32>,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific payload (see [`FlightEventKind`]).
    pub detail: u64,
}

impl FlightEvent {
    /// Build a span event.
    pub const fn span(
        at: Instant,
        dur: Nanos,
        cpu: u32,
        class: ActivityClass,
        detail: u64,
    ) -> FlightEvent {
        FlightEvent { at, dur, cpu: Some(cpu), kind: FlightEventKind::Span(class), detail }
    }

    /// Build an instant event.
    pub const fn instant(
        at: Instant,
        cpu: Option<u32>,
        kind: FlightEventKind,
        detail: u64,
    ) -> FlightEvent {
        FlightEvent { at, dur: Nanos::ZERO, cpu, kind, detail }
    }

    /// End of the span (`at` itself for instants).
    pub fn end(&self) -> Instant {
        self.at + self.dur
    }

    /// Does this event intersect the half-open window `[from, to)`?
    /// Instants count as contained when `from <= at < to`.
    pub fn overlaps(&self, from: Instant, to: Instant) -> bool {
        if self.dur.is_zero() {
            self.at >= from && self.at < to
        } else {
            self.at < to && self.end() > from
        }
    }
}

/// Bounded ring of [`FlightEvent`]s — the recorder's rolling memory.
///
/// Pushing beyond capacity evicts the oldest record and counts it in
/// [`FlightRing::dropped`]; a worst-case window whose start predates the
/// oldest held record is therefore explicitly truncated, never silently
/// wrong.
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
    /// Some push ended before its predecessor since the last clear, so end
    /// times may decrease along the ring.
    unordered: bool,
}

impl FlightRing {
    /// A ring holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring needs capacity");
        FlightRing {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            dropped: 0,
            unordered: false,
        }
    }

    /// Append an event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: FlightEvent) {
        if self.ring.back().is_some_and(|last| ev.end() < last.end()) {
            self.unordered = true;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Events intersecting the half-open window `[from, to)`, oldest first.
    ///
    /// The simulator records every event when it ends, so end times never
    /// decrease along the ring and no record ending before `from` can follow
    /// one that overlaps: the scan starts at the first record ending at or
    /// after `from`. A ring pushed out of end order scans every record.
    pub fn window(&self, from: Instant, to: Instant) -> Vec<FlightEvent> {
        let start = if self.unordered { 0 } else { self.ring.partition_point(|e| e.end() < from) };
        self.ring.range(start..).filter(|e| e.overlaps(from, to)).copied().collect()
    }

    /// Records currently held, in push order (oldest first). Spans are
    /// pushed when they end, so this is not start order.
    pub fn records(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn class_names_are_distinct_and_stable() {
        let mut names: Vec<&str> = ActivityClass::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ActivityClass::ALL.len());
        assert_eq!(ActivityClass::Isr.to_string(), "isr");
        assert_eq!(ActivityClass::Softirq.trace_kind(), TraceKind::Softirq);
    }

    #[test]
    fn overlap_is_half_open() {
        let span = FlightEvent::span(Instant(100), Nanos(50), 0, ActivityClass::Isr, 0);
        assert!(span.overlaps(Instant(0), Instant(101)));
        assert!(span.overlaps(Instant(149), Instant(200)));
        assert!(!span.overlaps(Instant(150), Instant(200)));
        assert!(!span.overlaps(Instant(0), Instant(100)));

        let inst = FlightEvent::instant(Instant(100), None, FlightEventKind::Wake, 7);
        assert!(inst.overlaps(Instant(100), Instant(101)));
        assert!(!inst.overlaps(Instant(0), Instant(100)));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = FlightRing::new(3);
        for i in 0..5u64 {
            r.push(FlightEvent::instant(Instant(i), None, FlightEventKind::Wake, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let held: Vec<u64> = r.records().map(|e| e.detail).collect();
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn window_extracts_intersecting_events() {
        let mut r = FlightRing::new(16);
        r.push(FlightEvent::span(Instant(0), Nanos(10), 0, ActivityClass::User, 0));
        r.push(FlightEvent::span(Instant(10), Nanos(10), 0, ActivityClass::Isr, 1));
        r.push(FlightEvent::instant(Instant(15), Some(0), FlightEventKind::Wake, 2));
        r.push(FlightEvent::span(Instant(40), Nanos(5), 1, ActivityClass::Softirq, 0));
        let w = r.window(Instant(12), Instant(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].kind, FlightEventKind::Span(ActivityClass::Isr));
        assert_eq!(w[1].kind, FlightEventKind::Wake);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// `window` equals the brute-force filter over every held record,
        /// for rings pushed in end order (the simulator's case, where the
        /// scan skips the records ending before the window) and out of it,
        /// eviction included.
        #[test]
        fn window_equals_the_brute_force_filter(
            capacity in 1usize..12,
            pushes in proptest::collection::vec((0u64..20, 0u64..15, 0u64..8), 0..40),
            queries in proptest::collection::vec((any::<u64>(), 0u64..3, 0u64..60), 1..8),
            out_of_order in any::<bool>(),
        ) {
            let mut ring = FlightRing::new(capacity);
            let (mut now, mut last_end, mut unordered) = (0, 0, false);
            for (i, &(gap, dur, back)) in pushes.iter().enumerate() {
                now += gap;
                let end = if out_of_order { now.saturating_sub(back * 5) } else { now };
                unordered |= end < last_end;
                last_end = end;
                let ev = if dur == 0 {
                    FlightEvent::instant(Instant(end), None, FlightEventKind::Wake, i as u64)
                } else {
                    let dur = dur.min(end);
                    FlightEvent::span(Instant(end - dur), Nanos(dur), 0, ActivityClass::Isr, i as u64)
                };
                ring.push(ev);
            }
            prop_assert_eq!(ring.unordered, unordered);
            // Windows start just before, at or just after a held record's
            // end, where an off-by-one in the skipped prefix would show.
            let ends: Vec<u64> = ring.records().map(|e| e.end().0).collect();
            for &(pick, shift, len) in &queries {
                let end = if ends.is_empty() { 0 } else { ends[pick as usize % ends.len()] };
                let from = (end + shift).saturating_sub(1);
                let (from, to) = (Instant(from), Instant(from + len));
                let brute: Vec<FlightEvent> =
                    ring.records().filter(|e| e.overlaps(from, to)).copied().collect();
                prop_assert_eq!(ring.window(from, to), brute, "[{:?}, {:?})", from, to);
            }
        }
    }
}
