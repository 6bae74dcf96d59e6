//! The pull-based pool: scoped OS threads that each pull the next job from
//! one shared source, and an in-order reducer behind a reorder buffer.
//!
//! # Scheduling model
//!
//! Every batch, [`run_with`]'s and [`run_stream`]'s alike, runs on one
//! worker loop. The jobs come from one iterator behind one mutex, and each
//! of the `W` workers loops:
//!
//! 1. take the next job and its index from the source (waiting while the
//!    reorder window is full);
//! 2. run it;
//! 3. put the output in the reorder buffer and reduce every buffered
//!    output whose predecessors have all been reduced.
//!
//! A worker exits when the source is empty. A worker that finishes early
//! just pulls again, so a long job never strands short ones behind it and
//! every worker stays busy to the end of the batch.
//!
//! One mutex rather than lock-free queues: fleet jobs are entire
//! simulations (milliseconds to seconds each), so the lock is nanoseconds
//! against millisecond jobs and never becomes the bottleneck. The repo
//! benchmark's `fleet.dispatch.ns_per_job` probe measures the per-job
//! overhead (see `benchmark/README.md`).
//!
//! # Determinism
//!
//! The reducer sees outputs in job-index order, whichever worker ran a job
//! and whenever it finished; [`run_with`]'s reducer pushes them into the
//! result `Vec`. Worker count and finish order are therefore invisible in
//! the output: `run_with` is a pure function of `(n, f)`.

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration of one batch execution.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads to run the batch on (clamped to at least 1; [`run_with`]
    /// also caps it at the job count, since extra workers would just idle).
    pub workers: u32,
}

impl PoolConfig {
    /// A batch on `workers` threads.
    pub fn auto(workers: u32) -> Self {
        PoolConfig { workers }
    }
}

/// What one batch execution did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Worker threads the batch actually used.
    pub workers: u32,
    /// Jobs executed (equals the batch size).
    pub jobs: u64,
}

/// Fleet counters accumulated by a [`counter_scope`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Batches executed.
    pub batches: u64,
    /// Jobs executed across all batches.
    pub jobs: u64,
    /// Always 0: the pool has no steal path. Kept only because the
    /// benchmark's `fleet.steals` row reads it.
    pub steals: u64,
    /// Always 0: the pool has no steal path. Kept only because the
    /// benchmark's `fleet.stolen_jobs` row reads it.
    pub stolen_jobs: u64,
}

/// One scope's accumulating counters (atomics: nested fan-outs bump them
/// from worker threads).
#[derive(Default)]
struct ScopeCell {
    batches: AtomicU64,
    jobs: AtomicU64,
}

std::thread_local! {
    // Scopes active on this thread. Pool workers inherit the spawning
    // batch's scope list, so nested fan-outs issued from inside a job are
    // credited to the scopes that were active at the outer call site.
    static SCOPES: RefCell<Vec<Arc<ScopeCell>>> = const { RefCell::new(Vec::new()) };
    // The scoped `with_workers` override. Pool workers inherit it too, so
    // nested fan-outs run at the caller's worker count.
    static WORKER_OVERRIDE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Run `f` and return its result together with the fleet counters for
/// exactly the pool activity `f` caused: batches issued on this thread
/// while the scope is active, plus any nested fan-outs their jobs issued on
/// worker threads. The counts are immune to concurrent fleet users in the
/// same process — each consumer gets its own scope. Scopes nest: an inner
/// scope's activity is also credited to the enclosing one.
pub fn counter_scope<T>(f: impl FnOnce() -> T) -> (T, GlobalStats) {
    let cell = Arc::new(ScopeCell::default());
    SCOPES.with(|s| s.borrow_mut().push(Arc::clone(&cell)));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    let out = f();
    let stats = GlobalStats {
        batches: cell.batches.load(Ordering::Relaxed),
        jobs: cell.jobs.load(Ordering::Relaxed),
        ..GlobalStats::default()
    };
    (out, stats)
}

/// Default worker count: the scoped [`with_workers`] override if one is
/// active on this thread, else `SP_WORKERS`, else the machine's available
/// parallelism. Always at least 1.
pub fn default_workers() -> u32 {
    if let Some(w) = WORKER_OVERRIDE.with(Cell::get) {
        return w.max(1);
    }
    if let Some(w) = std::env::var("SP_WORKERS").ok().and_then(|v| v.parse::<u32>().ok()) {
        return w.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1)
}

/// Run `f` with [`default_workers`] pinned to `workers` on this thread —
/// every `run_indexed` call made inside `f`, including those in nested
/// fan-outs on pool workers, uses that worker count. The override is
/// scoped: it is restored on exit, panics included. This is how the
/// determinism tests hold `(seed, shards)` fixed while sweeping worker
/// counts.
pub fn with_workers<R>(workers: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u32>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.with(|c| c.replace(Some(workers))));
    f()
}

/// Run `f(0), …, f(n-1)` on the pool with [`default_workers`] threads and
/// return the outputs in index order.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_with(PoolConfig::auto(default_workers()), n, f).0
}

/// Run a batch under an explicit [`PoolConfig`], also returning the batch's
/// [`FleetStats`]. Output order is job-index order whatever the worker
/// count.
pub fn run_with<T, F>(cfg: PoolConfig, n: usize, f: F) -> (Vec<T>, FleetStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = (cfg.workers.max(1) as usize).min(n.max(1));
    let mut out = Vec::with_capacity(n);
    // The caller keeps every output anyway, so the window is the batch.
    let stats = pull_loop(workers, n, 0..n, |i, _| f(i), |_, v| out.push(v));
    (out, stats)
}

/// Run every job a lazy iterator yields and fold the outputs through
/// `reduce` **in job-index order**, without ever materializing the job list
/// or the result list: memory is bounded by the reorder window
/// (`max(4 × workers, 16)` in-flight jobs), whatever the stream length.
///
/// `f(job, index)` runs on the pool's workers, which pull from the shared
/// iterator on demand. `reduce(index, output)` observes exactly the
/// sequence `(0, f(j₀,0)), (1, f(j₁,1)), …` regardless of worker count,
/// completion order or repeat — the reorder buffer holds early finishers
/// until their predecessors arrive. A deterministic `f` therefore makes the
/// reduction bit-identical across worker counts, the same contract
/// [`run_with`] gives for its output `Vec`.
///
/// Returns the number of jobs executed and the batch's [`FleetStats`].
pub fn run_stream<J, T, F, G>(
    cfg: PoolConfig,
    jobs: impl IntoIterator<Item = J, IntoIter: Send>,
    f: F,
    reduce: G,
) -> (usize, FleetStats)
where
    J: Send,
    T: Send,
    F: Fn(J, usize) -> T + Sync,
    G: FnMut(usize, T) + Send,
{
    let workers = cfg.workers.max(1) as usize;
    let stats = pull_loop(workers, (workers * 4).max(16), jobs.into_iter(), f, reduce);
    (stats.jobs as usize, stats)
}

/// Shared state of one batch: the job source on the front end, the reorder
/// buffer and in-order reducer on the back end. One mutex on purpose — the
/// window condition ("don't issue more than `window` jobs ahead of the
/// reducer") spans both ends.
struct PullState<I, G, T> {
    /// Job source; `None` once exhausted.
    iter: Option<I>,
    /// Index the next pulled job will get.
    next_issue: usize,
    /// Index the reducer expects next; everything below it is reduced.
    next_reduce: usize,
    /// Completed `(index, output)` pairs waiting for `next_reduce` to catch
    /// up. Never holds more than `window` items.
    pending: BinaryHeap<std::cmp::Reverse<(usize, OrdIgnored<T>)>>,
    /// The reducer, invoked in strict index order.
    reduce: G,
    /// A worker panicked: wake everyone and bail so the panic propagates.
    poisoned: bool,
}

/// Wrapper giving `T` a vacuous order so `(usize, T)` can live in the
/// reorder heap; indices are unique, so the payload is never compared.
struct OrdIgnored<T>(T);
impl<T> PartialEq for OrdIgnored<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for OrdIgnored<T> {}
impl<T> PartialOrd for OrdIgnored<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OrdIgnored<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// The pool's one engine: run every job `jobs` yields on `workers` threads
/// and hand each output to `reduce` in job-index order, with at most
/// `window` jobs issued ahead of the reducer. Credits the batch to the
/// caller's counter scopes.
fn pull_loop<I, J, T, F, G>(
    workers: usize,
    window: usize,
    jobs: I,
    f: F,
    mut reduce: G,
) -> FleetStats
where
    I: Iterator<Item = J> + Send,
    J: Send,
    T: Send,
    F: Fn(J, usize) -> T + Sync,
    G: FnMut(usize, T) + Send,
{
    let scopes = SCOPES.with(|s| s.borrow().clone());
    let overridden = WORKER_OVERRIDE.with(Cell::get);

    // Single worker: pull–run–reduce inline on the caller thread, trivially
    // in index order. No spawn cost, and `shards == 1` keeps the classic
    // serial profile exactly.
    let n = if workers == 1 {
        let mut n = 0;
        for (i, job) in jobs.enumerate() {
            reduce(i, f(job, i));
            n += 1;
        }
        n
    } else {
        let state = Mutex::new(PullState {
            iter: Some(jobs),
            next_issue: 0,
            next_reduce: 0,
            pending: BinaryHeap::new(),
            reduce,
            poisoned: false,
        });
        let cond = Condvar::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (state, cond, f, scopes) = (&state, &cond, &f, &scopes);
                    scope.spawn(move || {
                        SCOPES.with(|s| s.borrow_mut().clone_from(scopes));
                        WORKER_OVERRIDE.with(|c| c.set(overridden));
                        // On panic (in `f` or `reduce`), poison the batch so
                        // blocked peers exit and the join propagates the panic.
                        struct Poison<'a, I, G, T> {
                            state: &'a Mutex<PullState<I, G, T>>,
                            cond: &'a Condvar,
                            armed: bool,
                        }
                        impl<I, G, T> Drop for Poison<'_, I, G, T> {
                            fn drop(&mut self) {
                                if self.armed {
                                    if let Ok(mut st) = self.state.lock() {
                                        st.poisoned = true;
                                    }
                                    self.cond.notify_all();
                                }
                            }
                        }
                        let mut guard = Poison { state, cond, armed: true };
                        loop {
                            // Pull the next job, honouring the reorder window.
                            let (job, idx) = {
                                let mut st = state.lock().unwrap();
                                loop {
                                    if st.poisoned || st.iter.is_none() {
                                        guard.armed = false;
                                        return;
                                    }
                                    if st.next_issue - st.next_reduce < window {
                                        break;
                                    }
                                    st = cond.wait(st).unwrap();
                                }
                                match st.iter.as_mut().unwrap().next() {
                                    Some(job) => {
                                        let idx = st.next_issue;
                                        st.next_issue += 1;
                                        (job, idx)
                                    }
                                    None => {
                                        st.iter = None;
                                        cond.notify_all();
                                        guard.armed = false;
                                        return;
                                    }
                                }
                            };
                            let out = f(job, idx);
                            // Submit; drain the buffer if we unblocked it.
                            let mut st = state.lock().unwrap();
                            st.pending.push(std::cmp::Reverse((idx, OrdIgnored(out))));
                            while st
                                .pending
                                .peek()
                                .is_some_and(|std::cmp::Reverse((i, _))| *i == st.next_reduce)
                            {
                                let std::cmp::Reverse((i, OrdIgnored(v))) =
                                    st.pending.pop().unwrap();
                                st.next_reduce += 1;
                                // Call with the state lock held: reducers are
                                // cheap merges, and the lock is what serializes
                                // them into index order.
                                (st.reduce)(i, v);
                            }
                            drop(st);
                            cond.notify_all();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("fleet worker panicked");
            }
        });
        let st = state.into_inner().unwrap();
        assert!(st.pending.is_empty() && st.next_reduce == st.next_issue, "fleet reducer starved");
        st.next_reduce
    };

    for cell in &scopes {
        cell.batches.fetch_add(1, Ordering::Relaxed);
        cell.jobs.fetch_add(n as u64, Ordering::Relaxed);
    }
    FleetStats { workers: workers as u32, jobs: n as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Busy-wait for `iters` rounds of a cheap hash, so jobs take uneven
    /// wall-clock without sleeping.
    fn spin(iters: u32) -> u64 {
        (0..iters).fold(u64::from(iters), |h, k| {
            std::hint::black_box(h.rotate_left(5) ^ u64::from(k)).wrapping_mul(0x9E37_79B9)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever the job costs and worker count, both entry points give
        /// the serial map in index order, and a counter scope charges
        /// exactly the jobs issued, nested fan-outs included.
        #[test]
        fn both_entry_points_equal_the_serial_map(
            costs in proptest::collection::vec(0u32..4_000, 0..40),
            pick in 0usize..4,
        ) {
            let workers = [1u32, 2, 3, 8][pick];
            // Every third job issues a nested fan-out of two jobs.
            let nested = |i: usize| if i.is_multiple_of(3) { 2 } else { 0 };
            let job = |i: usize| {
                let (inner, _) = run_with(PoolConfig::auto(2), nested(i), |k| k as u64);
                spin(costs[i]) ^ inner.iter().sum::<u64>() ^ i as u64
            };
            let n = costs.len();
            let serial: Vec<u64> = (0..n).map(job).collect();
            let expect_jobs = (n + (0..n).map(nested).sum::<usize>()) as u64;

            let (out, scoped) = counter_scope(|| run_with(PoolConfig::auto(workers), n, job).0);
            prop_assert_eq!(&out, &serial, "run_with, workers={}", workers);
            prop_assert_eq!(scoped.jobs, expect_jobs, "run_with, workers={}", workers);

            let mut seen = Vec::new();
            let (streamed, scoped) = counter_scope(|| {
                run_stream(PoolConfig::auto(workers), 0..n, |j, _| job(j), |_, v| seen.push(v)).0
            });
            prop_assert_eq!(streamed, n);
            prop_assert_eq!(&seen, &serial, "run_stream, workers={}", workers);
            prop_assert_eq!(scoped.jobs, expect_jobs, "run_stream, workers={}", workers);
        }
    }

    #[test]
    fn outputs_are_index_ordered_for_every_worker_count() {
        for workers in [1u32, 2, 3, 8, 17] {
            let (out, stats) = run_with(PoolConfig::auto(workers), 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(stats.jobs, 100);
        }
    }

    #[test]
    fn empty_and_tiny_batches_work() {
        let (out, _) = run_with::<u32, _>(PoolConfig::auto(8), 0, |_| unreachable!());
        assert!(out.is_empty());
        let (out, stats) = run_with(PoolConfig::auto(8), 1, |i| i + 41);
        assert_eq!(out, vec![41]);
        assert_eq!(stats.workers, 1, "workers cap at the job count");
    }

    #[test]
    fn uneven_jobs_still_complete_and_balance() {
        // One job is 100x the others; the other workers must keep the rest
        // flowing.
        let (out, stats) = run_with(PoolConfig::auto(4), 40, |i| {
            let us = if i == 0 { 5_000 } else { 50 };
            std::thread::sleep(std::time::Duration::from_micros(us));
            i as u64
        });
        assert_eq!(out.iter().sum::<u64>(), (0..40).sum::<u64>());
        assert_eq!(stats.jobs, 40);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let reference = run_with(PoolConfig::auto(1), 64, |i| i.wrapping_mul(0x9E37)).0;
        for workers in [2u32, 4, 8] {
            let got = run_with(PoolConfig::auto(workers), 64, |i| i.wrapping_mul(0x9E37)).0;
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_follows_with_workers_and_keeps_index_order() {
        let reference = with_workers(1, || run_indexed(16, |i| i.wrapping_mul(31)));
        assert_eq!(reference, (0..16usize).map(|i| i.wrapping_mul(31)).collect::<Vec<_>>());
        for workers in [2, 8] {
            let got = with_workers(workers, || run_indexed(16, |i| i.wrapping_mul(31)));
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn with_workers_scopes_the_override() {
        assert_eq!(with_workers(3, default_workers), 3);
        let nested = with_workers(5, || (default_workers(), with_workers(2, default_workers)));
        assert_eq!(nested, (5, 2));
        // Restored after the scope (whatever the ambient default is, it is
        // not the override).
        let ambient = default_workers();
        assert_ne!(with_workers(ambient + 7, default_workers), ambient);
        assert_eq!(default_workers(), ambient);
    }

    #[test]
    fn pool_workers_inherit_with_workers() {
        // Without the inherited override, the jobs' own fan-outs would fall
        // back to `SP_WORKERS` or the machine's thread count.
        assert_eq!(with_workers(3, || run_indexed(2, |_| default_workers())), [3, 3]);
    }

    #[test]
    fn stream_reduces_in_index_order_for_every_worker_count() {
        for workers in [1u32, 2, 3, 8] {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            let (n, stats) = run_stream(
                PoolConfig::auto(workers),
                (0..200u64).map(|j| j * 7),
                |job, i| job + i as u64,
                |i, v| seen.push((i, v)),
            );
            assert_eq!(n, 200);
            assert_eq!(stats.jobs, 200);
            let expect: Vec<(usize, u64)> = (0..200).map(|i| (i, i as u64 * 8)).collect();
            assert_eq!(seen, expect, "workers={workers}");
        }
    }

    #[test]
    fn stream_handles_empty_and_short_sources() {
        let (n, _) = run_stream(PoolConfig::auto(8), std::iter::empty::<u32>(), |j, _| j, |_, _| {});
        assert_eq!(n, 0);
        let mut got = Vec::new();
        let (n, _) = run_stream(PoolConfig::auto(8), [5u32, 6], |j, _| j, |_, v| got.push(v));
        assert_eq!((n, got), (2, vec![5, 6]));
    }

    #[test]
    fn stream_memory_stays_bounded_by_the_reorder_window() {
        // A million-index source with a tiny payload: if the runner
        // materialized specs or results, this would allocate two
        // million-entry vectors. Instead track the high-water mark of
        // issued-but-unreduced jobs, which the window must cap.
        let workers = 4u32;
        let window = (workers as usize * 4).max(16);
        let issued = AtomicU64::new(0);
        let reduced = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let (n, _) = run_stream(
            PoolConfig::auto(workers),
            0..1_000_000u64,
            |j, _| {
                // A worker preempted between these two reads can see
                // `reduced` run past its `issued` value; that only
                // underestimates in-flight jobs, so saturate at zero.
                let issued_now = issued.fetch_add(1, Ordering::Relaxed) + 1;
                let in_flight = issued_now.saturating_sub(reduced.load(Ordering::Relaxed));
                peak.fetch_max(in_flight, Ordering::Relaxed);
                j
            },
            |_, _| {
                reduced.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(n, 1_000_000);
        assert!(
            peak.load(Ordering::Relaxed) <= window as u64 + workers as u64,
            "reorder window overrun: peak {} > window {}",
            peak.load(Ordering::Relaxed),
            window
        );
    }

    #[test]
    fn stream_panics_propagate() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stream(
                PoolConfig::auto(3),
                0..64u64,
                |j, _| {
                    if j == 11 {
                        panic!("stream job 11 exploded");
                    }
                    j
                },
                |_, _| {},
            )
        }));
        assert!(r.is_err());
    }

    #[test]
    fn counter_scope_isolates_concurrent_consumers() {
        // Two threads each run their own batches inside their own scope;
        // each scope must see exactly its own jobs even though both hit the
        // same process-wide pool.
        let counts: Vec<GlobalStats> = std::thread::scope(|s| {
            let handles: Vec<_> = [10usize, 24]
                .into_iter()
                .map(|n| {
                    s.spawn(move || {
                        counter_scope(|| {
                            run_with(PoolConfig::auto(2), n, |i| i);
                        })
                        .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts[0].jobs, 10, "{:?}", counts[0]);
        assert_eq!(counts[1].jobs, 24, "{:?}", counts[1]);
        assert_eq!(counts[0].batches, 1);
        assert_eq!(counts[1].batches, 1);
    }

    #[test]
    fn counter_scope_includes_nested_fanouts_from_worker_threads() {
        let ((), stats) = counter_scope(|| {
            // Outer batch of 2 jobs; each job issues a nested batch of 5.
            run_with(PoolConfig::auto(2), 2, |_| {
                run_with(PoolConfig::auto(2), 5, |i| i);
            });
        });
        assert_eq!(stats.batches, 3, "{stats:?}");
        assert_eq!(stats.jobs, 2 + 10, "{stats:?}");
    }

    #[test]
    fn counter_scope_covers_streamed_batches() {
        let (n, stats) = counter_scope(|| {
            run_stream(PoolConfig::auto(2), 0..17u32, |j, _| j, |_, _| {}).0
        });
        assert_eq!(n, 17);
        assert_eq!(stats.jobs, 17);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn panics_propagate() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with(PoolConfig::auto(2), 8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        assert!(r.is_err());
    }
}
