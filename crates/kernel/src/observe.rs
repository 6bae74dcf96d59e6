//! Measurement collectors.
//!
//! The two paper benchmarks watch tasks from outside the model: the
//! interrupt-response tests record wake-to-user latencies, the determinism
//! test records lap timestamps. Per-CPU time accounting backs the ablation
//! reports and the test suite's steal-fraction assertions.

use crate::ids::Pid;
use simcore::{Instant, Nanos};
use std::collections::HashMap;

/// Where one wake-to-user latency sample was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WakeBreakdown {
    /// Interrupt assert → wakeup performed (delivery delay + ISR).
    pub to_wake: Nanos,
    /// Wakeup → the task first executes (softirq-ahead, non-preemptible
    /// sections, scheduler pick, context switch).
    pub to_run: Nanos,
    /// First execution → back in user mode (driver + file-layer exit path,
    /// including any lock spins).
    pub exit_path: Nanos,
}

impl WakeBreakdown {
    pub fn total(&self) -> Nanos {
        self.to_wake + self.to_run + self.exit_path
    }
}

/// Where a CPU's time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuAccounting {
    /// User-mode task execution.
    pub user: Nanos,
    /// Kernel-mode task execution (syscalls, wake-exit paths).
    pub kernel: Nanos,
    /// Busy-waiting on contended spinlocks.
    pub spin: Nanos,
    /// Hardware interrupt service.
    pub isr: Nanos,
    /// Softirq / bottom-half execution.
    pub softirq: Nanos,
    /// Local timer tick processing.
    pub tick: Nanos,
    /// Scheduler picks + context switches.
    pub switching: Nanos,
    /// Threaded-IRQ handler bodies (`threaded_irqs`); always zero with the
    /// knob off.
    pub irq_thread: Nanos,
    /// Interrupts handled.
    pub irqs: u64,
    /// Context switches performed.
    pub switches: u64,
    /// Local timer ticks processed.
    pub ticks: u64,
    /// Grid ticks elided by `nohz_full` on a quiescent shielded CPU; always
    /// zero with the knob off.
    pub ticks_elided: u64,
}

impl CpuAccounting {
    /// Total accounted busy time.
    pub fn busy(&self) -> Nanos {
        self.user
            + self.kernel
            + self.spin
            + self.isr
            + self.softirq
            + self.tick
            + self.switching
            + self.irq_thread
    }

    /// Time stolen from tasks by interrupt-context work.
    pub fn stolen(&self) -> Nanos {
        self.isr + self.softirq + self.tick + self.irq_thread
    }
}

/// All collectors for one simulation run.
#[derive(Debug, Default, Clone)]
pub struct Observations {
    watched_latency: HashMap<Pid, Vec<Nanos>>,
    watched_latency_times: HashMap<Pid, Vec<Instant>>,
    /// Per-pid count of leading latency samples (and their instants)
    /// dropped by [`Observations::discard_latencies`]; feed cursors are
    /// absolute, so a retained sample's cursor is `dropped + index`.
    discarded_latency: HashMap<Pid, usize>,
    watched_breakdown: HashMap<Pid, Vec<WakeBreakdown>>,
    watched_laps: HashMap<Pid, Vec<Instant>>,
    pub cpu: Vec<CpuAccounting>,
    /// Softirq work dropped because the pending queue overflowed (a starving
    /// configuration; nonzero values mean the load exceeds the model's cap).
    pub softirq_dropped: u64,
}

impl Observations {
    pub fn new(cpus: usize) -> Self {
        Observations {
            watched_latency: HashMap::new(),
            watched_latency_times: HashMap::new(),
            discarded_latency: HashMap::new(),
            watched_breakdown: HashMap::new(),
            watched_laps: HashMap::new(),
            cpu: vec![CpuAccounting::default(); cpus],
            softirq_dropped: 0,
        }
    }

    /// Start recording wake-to-user latencies for `pid`'s `WaitIrq` ops.
    pub fn watch_latency(&mut self, pid: Pid) {
        self.watched_latency.entry(pid).or_default();
    }

    /// Also record the completion instant of each latency sample for `pid`
    /// (index-aligned with [`Observations::latencies`]); used to locate
    /// samples relative to mid-run reconfiguration actions.
    pub fn watch_latency_times(&mut self, pid: Pid) {
        self.watched_latency_times.entry(pid).or_default();
    }

    /// Start recording `MarkLap` timestamps for `pid`.
    pub fn watch_laps(&mut self, pid: Pid) {
        self.watched_laps.entry(pid).or_default();
    }

    /// Start recording per-sample latency breakdowns for `pid`.
    pub fn watch_breakdown(&mut self, pid: Pid) {
        self.watched_breakdown.entry(pid).or_default();
    }

    /// Drop every recorded sample while keeping the watch registrations.
    /// Feed cursors restart at zero (the discard offsets are cleared too).
    ///
    /// Used by warm-checkpoint forks that warmed up on shared randomness:
    /// the fork discards the warm-up samples so only its own (reseeded)
    /// draws are reported.
    pub fn reset_samples(&mut self) {
        self.discarded_latency.clear();
        for v in self.watched_latency.values_mut() {
            v.clear();
        }
        for v in self.watched_latency_times.values_mut() {
            v.clear();
        }
        for v in self.watched_breakdown.values_mut() {
            v.clear();
        }
        for v in self.watched_laps.values_mut() {
            v.clear();
        }
    }

    pub(crate) fn wants_breakdown(&self, pid: Pid) -> bool {
        self.watched_breakdown.contains_key(&pid)
    }

    /// Whether `pid`'s wake-to-user latencies are being recorded (the flight
    /// recorder only captures windows for watched tasks).
    pub fn watches_latency(&self, pid: Pid) -> bool {
        self.watched_latency.contains_key(&pid)
    }

    pub(crate) fn record_breakdown(&mut self, pid: Pid, b: WakeBreakdown) {
        if let Some(v) = self.watched_breakdown.get_mut(&pid) {
            v.push(b);
        }
    }

    /// Recorded breakdowns for a watched task.
    pub fn breakdowns(&self, pid: Pid) -> &[WakeBreakdown] {
        self.watched_breakdown.get(&pid).map(Vec::as_slice).unwrap_or(&[])
    }

    pub(crate) fn record_latency(&mut self, pid: Pid, lat: Nanos, at: Instant) {
        if let Some(v) = self.watched_latency.get_mut(&pid) {
            v.push(lat);
        }
        if let Some(v) = self.watched_latency_times.get_mut(&pid) {
            v.push(at);
        }
    }

    pub(crate) fn record_lap(&mut self, pid: Pid, at: Instant) {
        if let Some(v) = self.watched_laps.get_mut(&pid) {
            v.push(at);
        }
    }

    /// Retained latencies for a watched task: every sample recorded since
    /// the last [`Observations::discard_latencies`] cut (all of them if the
    /// log was never cut). [`Observations::latency_count`] counts the
    /// discarded ones too.
    pub fn latencies(&self, pid: Pid) -> &[Nanos] {
        self.watched_latency.get(&pid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Retained completion instants for a task watched with
    /// [`Observations::watch_latency_times`], index-aligned with
    /// [`Observations::latencies`].
    pub fn latency_times(&self, pid: Pid) -> &[Instant] {
        self.watched_latency_times.get(&pid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Samples ever recorded for `pid`: the discarded prefix plus the
    /// retained [`Observations::latencies`]. This is the absolute cursor of
    /// the next sample.
    pub fn latency_count(&self, pid: Pid) -> usize {
        self.discarded(pid) + self.latencies(pid).len()
    }

    fn discarded(&self, pid: Pid) -> usize {
        self.discarded_latency.get(&pid).copied().unwrap_or(0)
    }

    /// Cursor-based feed of latency samples for in-simulation consumers (the
    /// `sp-autopilot` control task): returns the samples recorded for `pid`
    /// since `cursor` plus the advanced cursor to pass next time. Reading
    /// never mutates anything, so a feed consumer is pure observation — the
    /// trajectory is bit-identical with or without it. The cursor is an
    /// absolute sample count ([`Observations::latency_count`]), unchanged by
    /// [`Observations::discard_latencies`]; a cursor inside the discarded
    /// prefix sees the retained samples only. The log and its discard
    /// offset are part of the checkpoint image, so feed state survives
    /// warm-checkpoint forks (a consumer that carries its cursor across
    /// `restore` sees exactly the samples a straight run would).
    pub fn latency_feed(&self, pid: Pid, cursor: usize) -> (&[Nanos], usize) {
        let all = self.latencies(pid);
        let start = cursor.saturating_sub(self.discarded(pid)).min(all.len());
        (&all[start..], self.discarded(pid) + all.len())
    }

    /// Completion-instant window matching [`Observations::latency_feed`]:
    /// the instants for the same `cursor..` sample range (requires
    /// [`Observations::watch_latency_times`], empty otherwise).
    pub fn latency_time_feed(&self, pid: Pid, cursor: usize) -> &[Instant] {
        let all = self.latency_times(pid);
        &all[cursor.saturating_sub(self.discarded(pid)).min(all.len())..]
    }

    /// Drop `pid`'s retained latency samples (and their instants) below the
    /// absolute cursor `upto`, keeping later ones. A consumer that has
    /// folded the feed up to `upto` calls this so the log holds one window,
    /// not the whole run; cursors stay absolute, so other feed readers are
    /// unaffected as long as they have read past `upto`.
    pub fn discard_latencies(&mut self, pid: Pid, upto: usize) {
        let n = upto.saturating_sub(self.discarded(pid)).min(self.latencies(pid).len());
        if n == 0 {
            return;
        }
        if let Some(v) = self.watched_latency.get_mut(&pid) {
            v.drain(..n);
        }
        if let Some(v) = self.watched_latency_times.get_mut(&pid) {
            v.drain(..n.min(v.len()));
        }
        *self.discarded_latency.entry(pid).or_default() += n;
    }

    /// Recorded lap instants for a watched task.
    pub fn laps(&self, pid: Pid) -> &[Instant] {
        self.watched_laps.get(&pid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Lap-to-lap wall times (the determinism test's iteration durations).
    pub fn lap_durations(&self, pid: Pid) -> Vec<Nanos> {
        let laps = self.laps(pid);
        laps.windows(2).map(|w| w[1].since(w[0])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwatched_pids_record_nothing() {
        let mut o = Observations::new(2);
        o.record_latency(Pid(1), Nanos(5), Instant(100));
        o.record_lap(Pid(1), Instant(5));
        assert!(o.latencies(Pid(1)).is_empty());
        assert!(o.latency_times(Pid(1)).is_empty());
        assert!(o.laps(Pid(1)).is_empty());
    }

    #[test]
    fn breakdown_totals_add_up() {
        let mut o = Observations::new(1);
        o.watch_breakdown(Pid(2));
        assert!(o.wants_breakdown(Pid(2)));
        assert!(!o.wants_breakdown(Pid(3)));
        let b = WakeBreakdown { to_wake: Nanos(5), to_run: Nanos(7), exit_path: Nanos(8) };
        o.record_breakdown(Pid(2), b);
        assert_eq!(o.breakdowns(Pid(2)), &[b]);
        assert_eq!(b.total(), Nanos(20));
    }

    #[test]
    fn watched_pids_accumulate() {
        let mut o = Observations::new(1);
        o.watch_latency(Pid(3));
        o.record_latency(Pid(3), Nanos(10), Instant(500));
        o.record_latency(Pid(3), Nanos(20), Instant(900));
        assert_eq!(o.latencies(Pid(3)), &[Nanos(10), Nanos(20)]);
        // Instants are only kept when explicitly requested.
        assert!(o.latency_times(Pid(3)).is_empty());
    }

    #[test]
    fn latency_times_align_with_latencies() {
        let mut o = Observations::new(1);
        o.watch_latency(Pid(4));
        o.watch_latency_times(Pid(4));
        o.record_latency(Pid(4), Nanos(10), Instant(500));
        o.record_latency(Pid(4), Nanos(20), Instant(900));
        assert_eq!(o.latencies(Pid(4)), &[Nanos(10), Nanos(20)]);
        assert_eq!(o.latency_times(Pid(4)), &[Instant(500), Instant(900)]);
    }

    fn logged(n: u64) -> Observations {
        let mut o = Observations::new(1);
        o.watch_latency(Pid(5));
        o.watch_latency_times(Pid(5));
        for i in 0..n {
            o.record_latency(Pid(5), Nanos(10 * i), Instant(100 * i));
        }
        o
    }

    #[test]
    fn feed_without_discard_indexes_the_whole_log() {
        let o = logged(4);
        assert_eq!(o.latency_count(Pid(5)), 4);
        assert_eq!(
            o.latency_feed(Pid(5), 0),
            (&[Nanos(0), Nanos(10), Nanos(20), Nanos(30)][..], 4)
        );
        assert_eq!(o.latency_feed(Pid(5), 3), (&[Nanos(30)][..], 4));
        assert_eq!(o.latency_feed(Pid(5), 9), (&[][..], 4));
        assert_eq!(o.latency_time_feed(Pid(5), 2), &[Instant(200), Instant(300)]);
        assert_eq!(o.latency_feed(Pid(6), 0), (&[][..], 0));
    }

    #[test]
    fn feed_cursors_stay_absolute_across_a_discard() {
        let mut o = logged(5);
        o.discard_latencies(Pid(5), 3);
        assert_eq!(o.latencies(Pid(5)), &[Nanos(30), Nanos(40)]);
        assert_eq!(o.latency_times(Pid(5)), &[Instant(300), Instant(400)]);
        assert_eq!(o.latency_count(Pid(5)), 5);
        assert_eq!(o.latency_feed(Pid(5), 4), (&[Nanos(40)][..], 5));
        assert_eq!(o.latency_time_feed(Pid(5), 4), &[Instant(400)]);
        // A cursor inside the dropped prefix sees what is retained.
        assert_eq!(o.latency_feed(Pid(5), 1), (&[Nanos(30), Nanos(40)][..], 5));
        o.record_latency(Pid(5), Nanos(50), Instant(500));
        assert_eq!(o.latency_feed(Pid(5), 5), (&[Nanos(50)][..], 6));
        // Cutting below the offset, or past the end, drops only what exists.
        o.discard_latencies(Pid(5), 2);
        assert_eq!(o.latency_count(Pid(5)), 6);
        o.discard_latencies(Pid(5), 99);
        assert!(o.latencies(Pid(5)).is_empty());
        assert!(o.latency_times(Pid(5)).is_empty());
        assert_eq!(o.latency_feed(Pid(5), 6), (&[][..], 6));
    }

    #[test]
    fn reset_samples_clears_the_discard_offset() {
        let mut o = logged(4);
        o.discard_latencies(Pid(5), 4);
        o.reset_samples();
        assert_eq!(o.latency_count(Pid(5)), 0);
        o.record_latency(Pid(5), Nanos(7), Instant(9));
        assert_eq!(o.latency_feed(Pid(5), 0), (&[Nanos(7)][..], 1));
    }

    #[test]
    fn lap_durations_are_diffs() {
        let mut o = Observations::new(1);
        o.watch_laps(Pid(0));
        for t in [0u64, 100, 250, 500] {
            o.record_lap(Pid(0), Instant(t));
        }
        assert_eq!(o.lap_durations(Pid(0)), vec![Nanos(100), Nanos(150), Nanos(250)]);
    }

    #[test]
    fn accounting_sums() {
        let acc = CpuAccounting {
            user: Nanos(100),
            kernel: Nanos(50),
            spin: Nanos(5),
            isr: Nanos(10),
            softirq: Nanos(20),
            tick: Nanos(2),
            switching: Nanos(3),
            irq_thread: Nanos(4),
            irqs: 1,
            switches: 1,
            ticks: 1,
            ticks_elided: 0,
        };
        assert_eq!(acc.busy(), Nanos(194));
        assert_eq!(acc.stolen(), Nanos(36));
    }
}
