//! Flight-ring analysis: turn the simulator's event ring into summaries and
//! a compact per-CPU ASCII timeline — the post-mortem view for "what was
//! this CPU doing while my task waited?".
//!
//! Flight spans are pushed when they *end*, so a ring is not in start order:
//! the window runs from the earliest start to the latest end, whatever the
//! order the events arrive in.

use simcore::{FlightEvent, Instant, Nanos, TraceKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics over a window of flight events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Earliest event start, if any.
    pub first: Option<Instant>,
    /// Latest event end (a span's end, an instant's time), if any.
    pub last: Option<Instant>,
    /// Total number of events in the window.
    pub total: usize,
    /// Events per category, keyed by [`TraceKind::name`].
    pub per_kind: BTreeMap<&'static str, usize>,
    /// Events per CPU (events without a CPU are not counted here).
    pub per_cpu: BTreeMap<u32, usize>,
}

impl TraceStats {
    /// Time covered by the window (zero when empty).
    pub fn span(&self) -> Nanos {
        match (self.first, self.last) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => Nanos::ZERO,
        }
    }
}

fn kind_glyph(kind: TraceKind) -> char {
    match kind {
        TraceKind::Sched => 's',
        TraceKind::Irq => 'I',
        TraceKind::Softirq => 'b',
        TraceKind::Lock => 'L',
        TraceKind::Syscall => 'y',
        TraceKind::Timer => 't',
        TraceKind::Shield => 'S',
        TraceKind::Workload => 'w',
    }
}

/// Summarise a window of flight events, in any order.
pub fn analyze<'a>(events: impl IntoIterator<Item = &'a FlightEvent>) -> TraceStats {
    let mut stats = TraceStats::default();
    for e in events {
        stats.first = Some(stats.first.map_or(e.at, |t| t.min(e.at)));
        stats.last = Some(stats.last.map_or(e.end(), |t| t.max(e.end())));
        stats.total += 1;
        *stats.per_kind.entry(e.kind.trace_kind().name()).or_default() += 1;
        if let Some(cpu) = e.cpu {
            *stats.per_cpu.entry(cpu).or_default() += 1;
        }
    }
    stats
}

/// Render a per-CPU timeline: one row per CPU, one column per time bucket.
/// An event counts in every bucket it covers (an instant in one), and each
/// cell shows the glyph of the *most frequent* category there (capital `I`
/// = irq, `b` = bottom half, `s` = sched, `L` = lock, space = quiet).
pub fn render_timeline<'a>(
    events: impl IntoIterator<Item = &'a FlightEvent>,
    cpus: u32,
    columns: usize,
) -> String {
    assert!(columns > 0 && cpus > 0);
    let events: Vec<&FlightEvent> = events.into_iter().collect();
    let stats = analyze(events.iter().copied());
    let (Some(first), Some(last)) = (stats.first, stats.last) else {
        return String::from("(empty trace)\n");
    };
    let span = last.saturating_since(first).as_ns().max(1);
    let col =
        |ns: u64| ((ns - first.as_ns()) as u128 * columns as u128 / (span as u128 + 1)) as usize;
    // counts[cpu][column][glyph]
    let mut counts = vec![vec![BTreeMap::<char, usize>::new(); columns]; cpus as usize];
    for e in &events {
        let Some(cpu) = e.cpu else { continue };
        if cpu >= cpus {
            continue;
        }
        // A span covers [at, end); its last nanosecond is end - 1.
        let end = e.end().as_ns().saturating_sub(1).max(e.at.as_ns());
        let glyph = kind_glyph(e.kind.trace_kind());
        for bucket in &mut counts[cpu as usize][col(e.at.as_ns())..=col(end)] {
            *bucket.entry(glyph).or_default() += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {} .. {} ({}), {} events",
        first,
        last,
        stats.span(),
        stats.total
    );
    for (cpu, row) in counts.iter().enumerate() {
        let cells: String = row
            .iter()
            .map(|bucket| {
                bucket
                    .iter()
                    .max_by_key(|(_, &c)| c)
                    .map(|(&g, _)| g)
                    .unwrap_or(' ')
            })
            .collect();
        let _ = writeln!(out, "cpu{cpu} |{cells}|");
    }
    out.push_str("       I=irq b=softirq s=sched L=lock y=syscall t=timer S=shield w=workload\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ActivityClass, FlightEventKind};

    fn span(at: u64, dur: u64, class: ActivityClass, cpu: u32) -> FlightEvent {
        FlightEvent::span(Instant(at), Nanos(dur), cpu, class, 0)
    }

    fn instant(at: u64, kind: FlightEventKind, cpu: Option<u32>) -> FlightEvent {
        FlightEvent::instant(Instant(at), cpu, kind, 0)
    }

    #[test]
    fn analyze_counts_kinds_and_cpus() {
        let events = vec![
            span(10, 5, ActivityClass::Isr, 0),
            instant(20, FlightEventKind::IrqAssert, Some(1)),
            span(30, 5, ActivityClass::Switch, 0),
            instant(40, FlightEventKind::ShieldSet, None),
        ];
        let s = analyze(&events);
        assert_eq!(s.total, 4);
        assert_eq!(s.per_kind["irq"], 2);
        assert_eq!(s.per_kind["sched"], 1);
        assert_eq!(s.per_kind["shield"], 1);
        assert_eq!(s.per_cpu[&0], 2);
        assert_eq!(s.per_cpu.get(&2), None);
        assert_eq!(s.span(), Nanos(30));
    }

    #[test]
    fn timeline_places_events_in_buckets() {
        let events = vec![
            instant(0, FlightEventKind::IrqAssert, Some(0)),
            instant(999, FlightEventKind::Wake, Some(1)),
        ];
        let text = render_timeline(&events, 2, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("cpu0 |I "), "{text}");
        assert!(lines[2].ends_with(" s|"), "{text}");
    }

    #[test]
    fn timeline_majority_vote_per_cell() {
        let events = vec![
            instant(5, FlightEventKind::Wake, Some(0)),
            span(6, 1, ActivityClass::Isr, 0),
            instant(7, FlightEventKind::IrqAssert, Some(0)),
            instant(1_000, FlightEventKind::SampleDone, Some(0)), // stretches the span
        ];
        let text = render_timeline(&events, 1, 4);
        assert!(text.lines().nth(1).unwrap().starts_with("cpu0 |I"), "{text}");
    }

    #[test]
    fn spans_out_of_start_order_bound_the_window() {
        // Push order as the ring holds it: a wake, then the long user span
        // it interrupted (pushed when it ended), then a late ISR. The user
        // span starts first and ends last, so it alone sets both bounds.
        let events = vec![
            instant(50, FlightEventKind::Wake, Some(0)),
            span(0, 100, ActivityClass::User, 1),
            span(60, 10, ActivityClass::Isr, 0),
        ];
        let s = analyze(&events);
        assert_eq!((s.first, s.last), (Some(Instant(0)), Some(Instant(100))));
        let text = render_timeline(&events, 2, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "trace t=0ns .. t=100ns (100ns), 3 events", "{text}");
        assert_eq!(lines[1], "cpu0 |    sII   |", "{text}");
        assert_eq!(lines[2], "cpu1 |wwwwwwwwww|", "{text}");
    }

    #[test]
    fn empty_trace_is_handled() {
        let text = render_timeline(&[], 2, 10);
        assert_eq!(text, "(empty trace)\n");
    }
}
