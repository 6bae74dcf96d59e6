//! Flight-capture plumbing shared by the latency experiments.
//!
//! The kernel's [`FlightRecorder`](sp_kernel::FlightRecorder) captures the
//! causal window behind each run's worst wake-to-user samples. The sharded
//! experiments arm one recorder per fork; this module merges the per-shard
//! top-K sets (the merged worst is exactly the run's histogram maximum — the
//! recorder is offered every watched sample) and converts a kernel
//! [`WorstCaseTrace`] into the kernel-independent metadata
//! [`sp_metrics::WorstCaseMeta`] that the cause-chain renderer and Perfetto
//! exporter consume.

use sp_kernel::WorstCaseTrace;
use sp_metrics::WorstCaseMeta;

/// Merge per-shard top-K capture sets into one top-K set, worst first.
///
/// Ties break toward the earlier shard (stable sort), so the output is
/// deterministic for a given shard order — which [`sp_fleet::run_indexed`]
/// already guarantees is index order.
pub fn merge_top(per_shard: Vec<Vec<WorstCaseTrace>>, top_k: usize) -> Vec<WorstCaseTrace> {
    let mut all: Vec<WorstCaseTrace> = per_shard.into_iter().flatten().collect();
    all.sort_by_key(|t| std::cmp::Reverse(t.latency));
    all.truncate(top_k);
    all
}

/// Build the renderer/exporter metadata for a captured trace.
pub fn trace_meta(label: &str, t: &WorstCaseTrace) -> WorstCaseMeta {
    WorstCaseMeta {
        label: label.to_string(),
        pid: t.pid.0,
        latency: t.latency,
        asserted: t.asserted,
        completed: t.completed,
        to_wake: t.breakdown.map(|b| b.to_wake),
        to_run: t.breakdown.map(|b| b.to_run),
        exit_path: t.breakdown.map(|b| b.exit_path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Instant, Nanos};
    use sp_kernel::{Pid, WakeBreakdown};

    fn trace(lat: u64) -> WorstCaseTrace {
        WorstCaseTrace {
            pid: Pid(7),
            latency: Nanos(lat),
            asserted: Instant(1_000),
            completed: Instant(1_000 + lat),
            breakdown: Some(WakeBreakdown {
                to_wake: Nanos(lat / 2),
                to_run: Nanos(lat / 4),
                exit_path: Nanos(lat - lat / 2 - lat / 4),
            }),
            events: vec![],
            truncated: false,
        }
    }

    #[test]
    fn merge_keeps_the_global_worst_sorted() {
        let merged = merge_top(
            vec![vec![trace(50), trace(30)], vec![trace(90), trace(10)], vec![trace(40)]],
            3,
        );
        let lats: Vec<u64> = merged.iter().map(|t| t.latency.as_ns()).collect();
        assert_eq!(lats, vec![90, 50, 40]);
    }

    #[test]
    fn meta_carries_the_breakdown() {
        let t = trace(100);
        let m = trace_meta("fig6", &t);
        assert_eq!(m.label, "fig6");
        assert_eq!(m.pid, 7);
        assert_eq!(m.latency, Nanos(100));
        assert_eq!(m.to_wake, Some(Nanos(50)));
        assert_eq!(m.to_run, Some(Nanos(25)));
        assert_eq!(m.exit_path, Some(Nanos(25)));
    }
}
