//! Worst-case flight recorder.
//!
//! A bounded-overhead causal recorder for wake-to-user latency samples, and
//! the simulator's one event record. While armed, the simulator streams
//! every activity span and causal instant (interrupt asserts, wakeups,
//! shield changes) into a rolling [`FlightRing`], readable as a whole
//! through [`FlightRecorder::records`]. Each time a watched latency sample
//! completes, the recorder is *offered* the sample, and if it ranks among
//! the top-K worst seen so far the window of events behind it is copied out
//! into a [`WorstCaseTrace`] — the full chain from interrupt assert to
//! user-space delivery, attributed to accounting classes.
//!
//! Properties the tests pin down:
//!
//! * **Disarmed is free.** Every hook is behind an `is_armed()` branch; a
//!   disarmed recorder records nothing and the simulation's event stream,
//!   RNG draws, and verdicts are bit-identical either way (the recorder is
//!   pure observation — it never touches the event queue or RNG).
//! * **Checkpoint-transparent.** A [`Checkpoint`](crate::Checkpoint) holds
//!   its simulator with the recorder disarmed, and `restore` keeps the
//!   restoring simulator's own recorder. A fork (a clone of the warm
//!   simulator, or a restore) arms a fresh recorder before it samples, so
//!   its traces cover exactly the samples that fork reports.
//! * **Bounded.** The ring holds a fixed number of events; a window older
//!   than the ring's memory is flagged `truncated`, never silently wrong.

use crate::ids::Pid;
use crate::observe::WakeBreakdown;
use simcore::flight::{FlightEvent, FlightRing};
use simcore::{Instant, Nanos};

/// Default rolling-ring capacity (events). At realfeel's event rates this
/// spans far more than the worst observed wake-to-user window.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Default number of worst samples whose windows are kept.
pub const DEFAULT_TOP_K: usize = 3;

/// The captured causal window behind one worst-case latency sample.
#[derive(Debug, Clone)]
pub struct WorstCaseTrace {
    /// The watched task the sample belongs to.
    pub pid: Pid,
    /// The sample's wake-to-user latency.
    pub latency: Nanos,
    /// When the device asserted the interrupt that started the sample.
    pub asserted: Instant,
    /// When the sample completed (task back in user mode).
    pub completed: Instant,
    /// Stage split of the latency, when breakdown capture was available.
    pub breakdown: Option<WakeBreakdown>,
    /// Flight events overlapping `[asserted, completed]`, sorted by start.
    pub events: Vec<FlightEvent>,
    /// True when the ring had already evicted events from the start of the
    /// window, i.e. `events` is missing the oldest part of the story.
    pub truncated: bool,
}

/// The recorder itself; owned by the simulator, off unless armed.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    armed: bool,
    top_k: usize,
    ring: FlightRing,
    /// Worst samples seen, sorted by descending latency, at most `top_k`.
    top: Vec<WorstCaseTrace>,
}

impl FlightRecorder {
    /// A recorder that records nothing (the default configuration).
    pub fn disarmed() -> Self {
        FlightRecorder::default()
    }

    /// Arm with the default ring capacity, keeping the `top_k` worst
    /// samples' windows.
    pub fn armed(top_k: usize) -> Self {
        Self::armed_with_capacity(top_k, DEFAULT_RING_CAPACITY)
    }

    /// Arm with an explicit ring capacity.
    pub fn armed_with_capacity(top_k: usize, ring_capacity: usize) -> Self {
        assert!(top_k > 0, "flight recorder needs top_k >= 1");
        FlightRecorder {
            armed: true,
            top_k,
            ring: FlightRing::new(ring_capacity),
            top: Vec::with_capacity(top_k),
        }
    }

    /// Whether hooks should record. One branch on the hot path.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Number of worst windows kept (0 when disarmed).
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Stream one event into the rolling ring. Callers must guard with
    /// [`FlightRecorder::is_armed`]; calling disarmed is a debug error.
    #[inline]
    pub fn record(&mut self, ev: FlightEvent) {
        debug_assert!(self.armed, "record() on a disarmed recorder");
        self.ring.push(ev);
    }

    /// The latency a new sample must exceed to enter the top set, once the
    /// set is full.
    fn threshold(&self) -> Option<Nanos> {
        if self.top.len() < self.top_k {
            None
        } else {
            self.top.last().map(|t| t.latency)
        }
    }

    /// Offer a completed latency sample. If it ranks among the top-K worst,
    /// the ring window `[asserted, completed]` is captured. Returns whether
    /// the sample was kept.
    pub fn offer(
        &mut self,
        pid: Pid,
        latency: Nanos,
        asserted: Instant,
        completed: Instant,
        breakdown: Option<WakeBreakdown>,
    ) -> bool {
        if !self.armed {
            return false;
        }
        if let Some(min) = self.threshold() {
            if latency <= min {
                return false;
            }
        }
        // Window end is exclusive; extend one nanosecond so instants stamped
        // exactly at completion (the SampleDone marker) are included.
        let mut events = self.ring.window(asserted, completed + Nanos(1));
        events.sort_by_key(|e| (e.at, e.dur));
        let truncated = match self.ring.records().next() {
            Some(oldest) => self.ring.dropped() > 0 && oldest.at > asserted,
            None => false,
        };
        let trace =
            WorstCaseTrace { pid, latency, asserted, completed, breakdown, events, truncated };
        let pos = self
            .top
            .iter()
            .position(|t| t.latency < latency)
            .unwrap_or(self.top.len());
        self.top.insert(pos, trace);
        self.top.truncate(self.top_k);
        true
    }

    /// The single worst captured sample, if any.
    pub fn worst(&self) -> Option<&WorstCaseTrace> {
        self.top.first()
    }

    /// All captured samples, worst first.
    pub fn top(&self) -> &[WorstCaseTrace] {
        &self.top
    }

    /// The rolling ring's current contents, in push order: instants when
    /// they happen, spans when they end — so not in start order. Empty
    /// while disarmed.
    pub fn records(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.records()
    }

    /// Events evicted from the rolling ring so far.
    pub fn ring_dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::flight::{ActivityClass, FlightEventKind};

    fn ev(at: u64, dur: u64) -> FlightEvent {
        FlightEvent::span(Instant(at), Nanos(dur), 0, ActivityClass::Isr, 1)
    }

    #[test]
    fn disarmed_recorder_keeps_nothing() {
        let mut r = FlightRecorder::disarmed();
        assert!(!r.is_armed());
        assert!(!r.offer(Pid(1), Nanos(100), Instant(0), Instant(100), None));
        assert!(r.worst().is_none());
    }

    #[test]
    fn top_k_keeps_the_worst_sorted() {
        let mut r = FlightRecorder::armed_with_capacity(2, 64);
        r.record(ev(10, 5));
        assert!(r.offer(Pid(1), Nanos(50), Instant(0), Instant(50), None));
        r.record(ev(110, 5));
        assert!(r.offer(Pid(1), Nanos(90), Instant(100), Instant(190), None));
        r.record(ev(210, 5));
        assert!(r.offer(Pid(1), Nanos(70), Instant(200), Instant(270), None));
        // 50ns fell off; order is 90, 70.
        let lats: Vec<u64> = r.top().iter().map(|t| t.latency.as_ns()).collect();
        assert_eq!(lats, vec![90, 70]);
        // A sample no worse than the current floor is rejected outright.
        assert!(!r.offer(Pid(1), Nanos(70), Instant(300), Instant(370), None));
    }

    #[test]
    fn window_is_scoped_to_the_sample() {
        let mut r = FlightRecorder::armed_with_capacity(1, 64);
        r.record(ev(10, 5)); // before the window
        r.record(ev(105, 20)); // inside
        r.record(FlightEvent::instant(
            Instant(150),
            Some(0),
            FlightEventKind::Wake,
            7,
        )); // inside
        r.record(ev(500, 5)); // after
        r.offer(Pid(2), Nanos(100), Instant(100), Instant(200), None);
        let t = r.worst().unwrap();
        assert_eq!(t.events.len(), 2);
        assert!(!t.truncated);
        assert_eq!(t.pid, Pid(2));
    }

    #[test]
    fn eviction_marks_truncation() {
        let mut r = FlightRecorder::armed_with_capacity(1, 4);
        for i in 0..10u64 {
            r.record(ev(i * 10, 1));
        }
        // Window starts at 0, but the ring only remembers from t=60.
        r.offer(Pid(1), Nanos(100), Instant(0), Instant(100), None);
        let t = r.worst().unwrap();
        assert!(t.truncated);
        assert!(!t.events.is_empty());
    }
}
