//! Chrome / Perfetto `trace_event` JSON export.
//!
//! Serializes a flight-recorder window ([`FlightEvent`]s) into the
//! [Trace Event Format] consumed by `chrome://tracing` and
//! <https://ui.perfetto.dev>. The output is a single JSON object with:
//!
//! - one *track per CPU* (`pid` 0, `tid` = CPU index, named via
//!   `thread_name` metadata), plus a `global` track for events that are not
//!   CPU-local,
//! - `ph:"X"` *complete* events for activity spans (ISR bodies, softirq
//!   bursts, lock spins, …), `ph:"i"` *instant* events for point events
//!   (interrupt asserts, wakeups, sample completions),
//! - a `ph:"C"` *counter* track tracking the number of process-shielded
//!   CPUs across shield reconfigurations.
//!
//! Timestamps are microseconds with nanosecond precision (three decimals),
//! exactly as the format expects. The builder is deterministic: the same
//! events in the same order produce byte-identical JSON, which the golden
//! test pins down.
//!
//! The vendored `serde` stubs cannot rename or skip fields, so the JSON is
//! assembled by hand here; field order is part of the golden contract.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use simcore::{ActivityClass, FlightEvent, Instant, Nanos};
//! use sp_metrics::perfetto;
//!
//! let events = [FlightEvent::span(Instant(1_000), Nanos(350), 0, ActivityClass::Isr, 2)];
//! let json = perfetto::export_flight("demo", 1, &events, &[]);
//! assert!(json.contains("\"ph\":\"X\""));
//! assert!(json.contains("\"ts\":1.000"));
//! assert!(json.contains("\"dur\":0.350"));
//! ```

use simcore::flight::{FlightEvent, FlightEventKind};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Format nanoseconds as fractional microseconds with exactly three
/// decimals — the `ts`/`dur` unit of the trace-event format.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Track id used for events that are not CPU-local: one past the last CPU.
fn global_tid(cpus: u32) -> u32 {
    cpus
}

fn push_metadata(out: &mut String, label: &str, cpus: u32) {
    out.push_str("    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"");
    escape_json(label, out);
    out.push_str("\"}}");
    for cpu in 0..cpus {
        let _ = write!(
            out,
            ",\n    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{cpu},\"args\":{{\"name\":\"cpu{cpu}\"}}}}"
        );
    }
    let _ = write!(
        out,
        ",\n    {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"global\"}}}}",
        global_tid(cpus)
    );
}

/// The `args` key a [`FlightEvent`]'s `detail` payload is exported under.
fn detail_key(kind: FlightEventKind) -> &'static str {
    use simcore::flight::ActivityClass as A;
    match kind {
        FlightEventKind::Span(A::Isr) => "device",
        FlightEventKind::Span(A::Spin) => "lock",
        FlightEventKind::Span(A::Switch) => "to_pid",
        FlightEventKind::Span(_) => "detail",
        FlightEventKind::IrqAssert => "device",
        FlightEventKind::Wake => "pid",
        FlightEventKind::SampleDone => "latency_ns",
        FlightEventKind::ShieldSet => "shielded_cpus",
        FlightEventKind::IrqThreadWake => "device",
        FlightEventKind::TicksElided => "ticks",
    }
}

/// Serialize a flight-recorder window as Perfetto `trace_event` JSON.
///
/// `label` names the process track (shown as the trace's title row); `cpus`
/// is the number of per-CPU tracks to declare; `annotations` are free-form
/// key/value pairs recorded as trace-level metadata (experiment name, seed,
/// latency of the sample being explained, ...). Events are emitted in the
/// order given — pass them chronologically sorted for a tidy viewer layout.
pub fn export_flight(
    label: &str,
    cpus: u32,
    events: &[FlightEvent],
    annotations: &[(&str, String)],
) -> String {
    let mut out = String::with_capacity(256 + events.len() * 96);
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n");
    for (k, v) in annotations {
        out.push_str("  \"");
        escape_json(k, &mut out);
        out.push_str("\": \"");
        escape_json(v, &mut out);
        out.push_str("\",\n");
    }
    out.push_str("  \"traceEvents\": [\n");
    push_metadata(&mut out, label, cpus);
    for ev in events {
        out.push_str(",\n    {\"name\":\"");
        out.push_str(ev.kind.name());
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.kind.trace_kind().name());
        let tid = ev.cpu.unwrap_or_else(|| global_tid(cpus));
        match ev.kind {
            FlightEventKind::ShieldSet => {
                // Counter sample: value lives in args under the counter name.
                let _ = write!(
                    out,
                    "\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{{\"{}\":{}}}}}",
                    us(ev.at.as_ns()),
                    detail_key(ev.kind),
                    ev.detail
                );
            }
            kind if ev.dur.is_zero() => {
                let _ = write!(
                    out,
                    "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{{\"{}\":{}}}}}",
                    us(ev.at.as_ns()),
                    detail_key(kind),
                    ev.detail
                );
            }
            kind => {
                let _ = write!(
                    out,
                    "\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"{}\":{}}}}}",
                    us(ev.at.as_ns()),
                    us(ev.dur.as_ns()),
                    detail_key(kind),
                    ev.detail
                );
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::flight::ActivityClass;
    use simcore::{Instant, Nanos};

    #[test]
    fn microsecond_formatting_is_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1), "0.001");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn flight_export_emits_all_phases() {
        let events = [
            FlightEvent::span(Instant(1_000), Nanos(350), 0, ActivityClass::Isr, 2),
            FlightEvent::instant(Instant(1_350), Some(0), simcore::FlightEventKind::Wake, 12),
            FlightEvent::instant(Instant(2_000), None, simcore::FlightEventKind::ShieldSet, 1),
        ];
        let json = export_flight("t", 2, &events, &[("seed", "42".to_string())]);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"seed\": \"42\""), "{json}");
        // ShieldSet has no CPU -> lands on the global track (tid == cpus).
        assert!(json.contains("\"tid\":2,\"ts\":2.000"), "{json}");
        // Valid JSON by the vendored parser.
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + 1 global + 3 events.
        assert_eq!(evs.len(), 7);
        assert_eq!(evs[4].get("name").unwrap().as_str(), Some("isr"));
        assert_eq!(evs[4].get("cat").unwrap().as_str(), Some("irq"));
        let detail = evs[4].get("args").unwrap().get("device").unwrap();
        assert_eq!(*detail, serde::Value::U64(2));
    }

    #[test]
    fn export_is_deterministic() {
        let events = [FlightEvent::span(Instant(7), Nanos(9), 1, ActivityClass::Softirq, 0)];
        let a = export_flight("x", 2, &events, &[]);
        let b = export_flight("x", 2, &events, &[]);
        assert_eq!(a, b);
    }
}
