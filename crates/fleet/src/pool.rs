//! The work-stealing pool: per-worker deques, a global injector, scoped OS
//! threads, and index-ordered result collection.
//!
//! # Scheduling model
//!
//! A batch of `n` jobs (indices `0..n`) runs on `W` worker threads. All
//! indices start in the **injector** (a global FIFO). Each worker loops:
//!
//! 1. pop a job from the *back* of its own deque and run it;
//! 2. if the deque is empty, grab a batch from the injector into the deque;
//! 3. if the injector is empty too, scan the other workers and **steal the
//!    front half** of the first non-empty deque found;
//! 4. if a full scan finds nothing, the batch is finished — jobs never
//!    spawn jobs, so total pending work is monotonically decreasing and
//!    an empty scan is a sound termination condition.
//!
//! Queues are mutex-protected `VecDeque`s rather than lock-free Chase–Lev
//! deques: fleet jobs are entire simulations (milliseconds to seconds
//! each), so queue operations are nanoseconds against millisecond jobs and
//! the mutex never becomes the bottleneck. The repo benchmark's
//! `fleet.dispatch.ns_per_job` probe measures the per-job overhead (see
//! `benchmark/README.md`).
//!
//! # Determinism
//!
//! Workers record `(index, output)` pairs privately and the pool reassembles
//! them in index order after the scope joins. Steal order, worker count and
//! finish order are therefore invisible in the output: `run_with` is a pure
//! function of `(n, f)`.

use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How a batch's job indices are initially placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All jobs start in the global injector (the default): workers pull
    /// batches on demand, so early finishers naturally take more work.
    Injector,
    /// All jobs start in worker 0's deque: every job another worker runs
    /// must be stolen. Used by tests to force the steal path; not useful
    /// for real workloads.
    Worker0,
}

/// Configuration of one batch execution.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads to run the batch on (clamped to at least 1; also
    /// capped at the job count, since extra workers would just idle).
    pub workers: u32,
    /// Jobs a worker grabs from the injector per refill; `0` picks
    /// `clamp(n / (workers * 4), 1, 32)` so refills stay frequent enough
    /// for stealing to balance uneven tails.
    pub grab: usize,
    /// Initial placement of the job indices.
    pub placement: Placement,
}

impl PoolConfig {
    /// Injector placement with automatic grab sizing on `workers` threads.
    pub fn auto(workers: u32) -> Self {
        PoolConfig { workers, grab: 0, placement: Placement::Injector }
    }
}

/// What one batch execution did, for telemetry and the overhead benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStats {
    /// Worker threads the batch actually used.
    pub workers: u32,
    /// Jobs executed (equals the batch size).
    pub jobs: u64,
    /// Jobs run straight off the owning worker's deque.
    pub local_pops: u64,
    /// Injector→deque refill operations.
    pub injector_batches: u64,
    /// Steal operations (each moves up to half a victim's deque).
    pub steals: u64,
    /// Jobs that arrived on their executing worker via a steal.
    pub stolen_jobs: u64,
    /// Sum of per-job execution wall-clock, in nanoseconds. On `W` busy
    /// workers a batch's wall-clock approaches `busy_ns / W`; the ratio is
    /// the batch's effective parallel speedup.
    pub busy_ns: u64,
}

/// Process-wide cumulative fleet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Batches executed since process start.
    pub batches: u64,
    /// Jobs executed across all batches.
    pub jobs: u64,
    /// Steal operations across all batches.
    pub steals: u64,
    /// Jobs that arrived via a steal.
    pub stolen_jobs: u64,
}

static G_BATCHES: AtomicU64 = AtomicU64::new(0);
static G_JOBS: AtomicU64 = AtomicU64::new(0);
static G_STEALS: AtomicU64 = AtomicU64::new(0);
static G_STOLEN_JOBS: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide cumulative counters. Prefer [`counter_scope`]
/// for telemetry: a global snapshot diff counts every batch in the process,
/// so two concurrent fleet consumers (e.g. a sweep and an autopilot study)
/// contaminate each other's numbers.
pub fn stats_snapshot() -> GlobalStats {
    GlobalStats {
        batches: G_BATCHES.load(Ordering::Relaxed),
        jobs: G_JOBS.load(Ordering::Relaxed),
        steals: G_STEALS.load(Ordering::Relaxed),
        stolen_jobs: G_STOLEN_JOBS.load(Ordering::Relaxed),
    }
}

/// One scope's accumulating counters (atomics: nested fan-outs bump them
/// from worker threads).
#[derive(Default)]
struct ScopeCell {
    batches: AtomicU64,
    jobs: AtomicU64,
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
}

impl ScopeCell {
    fn snapshot(&self) -> GlobalStats {
        GlobalStats {
            batches: self.batches.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            stolen_jobs: self.stolen_jobs.load(Ordering::Relaxed),
        }
    }
}

std::thread_local! {
    // Scopes active on this thread. Pool workers inherit the spawning
    // batch's scope list, so nested fan-outs issued from inside a job are
    // credited to the scopes that were active at the outer call site.
    static SCOPES: RefCell<Vec<Arc<ScopeCell>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` and return its result together with the fleet counters for
/// exactly the pool activity `f` caused: batches issued on this thread
/// while the scope is active, plus any nested fan-outs their jobs issued on
/// worker threads. Unlike a [`stats_snapshot`] diff, the counts are immune
/// to concurrent fleet users in the same process — each consumer gets its
/// own scope. Scopes nest: an inner scope's activity is also credited to
/// the enclosing one.
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
    let stats = cell.snapshot();
    (out, stats)
}

/// The scope list active on the calling thread, captured at batch start so
/// worker threads (and `bump_globals`) can credit the right scopes.
fn active_scopes() -> Vec<Arc<ScopeCell>> {
    SCOPES.with(|s| s.borrow().clone())
}

std::thread_local! {
    static WORKER_OVERRIDE: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// Default worker count: the scoped [`with_workers`] override if one is
/// active on this thread, else `SP_WORKERS`, else the machine's available
/// parallelism. Always at least 1.
pub fn default_workers() -> u32 {
    if let Some(w) = WORKER_OVERRIDE.with(|c| c.get()) {
        return w.max(1);
    }
    if let Some(w) = std::env::var("SP_WORKERS").ok().and_then(|v| v.parse::<u32>().ok()) {
        return w.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get() as u32).unwrap_or(1)
}

/// Run `f` with [`default_workers`] pinned to `workers` on this thread —
/// every `run_indexed` call made (directly) inside `f` uses that worker
/// count. The override is scoped: it is restored on exit, panics included.
/// This is how the determinism tests hold `(seed, shards)` fixed while
/// sweeping worker counts.
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

/// Run `f(0), …, f(n-1)` on the work-stealing pool with [`default_workers`]
/// threads and return the outputs in index order. Drop-in replacement for
/// the old thread-per-job fan-out, minus the oversubscription.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_with(PoolConfig::auto(default_workers()), n, f).0
}

/// Run a batch under an explicit [`PoolConfig`], also returning the batch's
/// [`FleetStats`]. Output order is job-index order; the stats are the only
/// thing the scheduling can influence.
pub fn run_with<T, F>(cfg: PoolConfig, n: usize, f: F) -> (Vec<T>, FleetStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = (cfg.workers.max(1) as usize).min(n.max(1));
    let mut stats = FleetStats { workers: workers as u32, jobs: n as u64, ..Default::default() };
    if n == 0 {
        return (Vec::new(), stats);
    }
    let scopes = active_scopes();

    // Single worker: run inline on the caller thread. Same results by
    // construction; no spawn cost, and `shards == 1` keeps the classic
    // serial profile exactly.
    if workers == 1 {
        let t0 = std::time::Instant::now();
        let out: Vec<T> = (0..n).map(&f).collect();
        stats.local_pops = n as u64;
        stats.busy_ns = t0.elapsed().as_nanos() as u64;
        bump_globals(&stats, &scopes);
        return (out, stats);
    }

    let injector: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    match cfg.placement {
        Placement::Injector => injector.lock().unwrap().extend(0..n),
        Placement::Worker0 => deques[0].lock().unwrap().extend(0..n),
    }
    let grab = if cfg.grab == 0 { (n / (workers * 4)).clamp(1, 32) } else { cfg.grab.max(1) };

    let local_pops = AtomicU64::new(0);
    let injector_batches = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let stolen_jobs = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);

    let mut per_worker: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let injector = &injector;
                let deques = &deques;
                let f = &f;
                let (local_pops, injector_batches, steals, stolen_jobs, busy_ns) =
                    (&local_pops, &injector_batches, &steals, &stolen_jobs, &busy_ns);
                let scopes = &scopes;
                scope.spawn(move || {
                    // Inherit the caller's counter scopes so nested
                    // fan-outs issued from inside jobs credit them.
                    SCOPES.with(|s| s.borrow_mut().clone_from(scopes));
                    let mut out: Vec<(usize, T)> = Vec::new();
                    // Jobs taken in a steal run before the next local pop;
                    // counted separately so the telemetry can say how much
                    // work moved between workers.
                    let mut stolen_run = 0u64;
                    loop {
                        let job = {
                            let mut mine = deques[me].lock().unwrap();
                            mine.pop_back()
                        };
                        if let Some(i) = job {
                            if stolen_run > 0 {
                                stolen_run -= 1;
                                stolen_jobs.fetch_add(1, Ordering::Relaxed);
                            } else {
                                local_pops.fetch_add(1, Ordering::Relaxed);
                            }
                            let t0 = std::time::Instant::now();
                            out.push((i, f(i)));
                            busy_ns
                                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            continue;
                        }
                        // Refill from the injector.
                        {
                            let mut inj = injector.lock().unwrap();
                            if !inj.is_empty() {
                                let take = grab.min(inj.len());
                                let batch: Vec<usize> = inj.drain(..take).collect();
                                drop(inj);
                                deques[me].lock().unwrap().extend(batch);
                                injector_batches.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                        // Steal the front half of the first non-empty
                        // victim deque, scanning from our right neighbour.
                        let mut found = false;
                        for k in 1..workers {
                            let victim = (me + k) % workers;
                            let batch: Vec<usize> = {
                                let mut v = deques[victim].lock().unwrap();
                                let take = v.len().div_ceil(2);
                                v.drain(..take).collect()
                            };
                            if !batch.is_empty() {
                                stolen_run = batch.len() as u64;
                                deques[me].lock().unwrap().extend(batch);
                                steals.fetch_add(1, Ordering::Relaxed);
                                found = true;
                                break;
                            }
                        }
                        if !found {
                            // Injector and every deque were empty on a full
                            // scan; no job creates jobs, so we are done.
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("fleet worker panicked"));
        }
    });

    stats.local_pops = local_pops.into_inner();
    stats.injector_batches = injector_batches.into_inner();
    stats.steals = steals.into_inner();
    stats.stolen_jobs = stolen_jobs.into_inner();
    stats.busy_ns = busy_ns.into_inner();
    bump_globals(&stats, &scopes);

    // Reassemble in index order, independent of scheduling.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for chunk in per_worker {
        for (i, v) in chunk {
            debug_assert!(slots[i].is_none(), "job {i} ran twice");
            slots[i] = Some(v);
        }
    }
    let out = slots.into_iter().map(|s| s.expect("fleet job produced no output")).collect();
    (out, stats)
}

/// Shared state of one streaming batch: the lazy job source on the front
/// end, the reorder buffer and in-order reducer on the back end. One mutex
/// on purpose — the window condition ("don't issue more than `window` jobs
/// ahead of the reducer") spans both ends, and fleet jobs are whole
/// simulations, so the lock is nanoseconds against millisecond holds.
struct StreamState<I, G, T> {
    /// Lazy job source; `None` once exhausted.
    iter: Option<I>,
    /// Index the next pulled job will get.
    next_issue: usize,
    /// Index the reducer expects next; everything below it is reduced.
    next_reduce: usize,
    /// Completed `(index, output)` pairs waiting for `next_reduce` to catch
    /// up. Never holds more than `window` items.
    pending: BinaryHeap<std::cmp::Reverse<(usize, OrdIgnored<T>)>>,
    /// The online reducer, invoked in strict index order.
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

/// Run every job a lazy iterator yields and fold the outputs through
/// `reduce` **in job-index order**, without ever materializing the job list
/// or the result list: memory is bounded by the reorder window
/// (`max(4 × workers, 16)` in-flight jobs), whatever the stream length.
///
/// `f(job, index)` runs on the pool's workers, which pull from the shared
/// iterator on demand (a lazy source self-balances, so there are no deques
/// or steals on this path). `reduce(index, output)` observes exactly the
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
    let mut stats = FleetStats { workers: workers as u32, ..Default::default() };
    let scopes = active_scopes();
    let t0 = std::time::Instant::now();

    // Single worker: pull–run–reduce inline, trivially in index order.
    if workers == 1 {
        let mut reduce = reduce;
        let mut n = 0usize;
        for (i, job) in jobs.into_iter().enumerate() {
            reduce(i, f(job, i));
            n += 1;
        }
        stats.jobs = n as u64;
        stats.local_pops = n as u64;
        stats.busy_ns = t0.elapsed().as_nanos() as u64;
        stats.workers = 1;
        bump_globals(&stats, &scopes);
        return (n, stats);
    }

    let window = (workers * 4).max(16);
    let state = Mutex::new(StreamState {
        iter: Some(jobs.into_iter()),
        next_issue: 0,
        next_reduce: 0,
        pending: BinaryHeap::new(),
        reduce,
        poisoned: false,
    });
    let cond = Condvar::new();
    let busy_ns = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let state = &state;
                let cond = &cond;
                let f = &f;
                let busy_ns = &busy_ns;
                let scopes = &scopes;
                scope.spawn(move || {
                    SCOPES.with(|s| s.borrow_mut().clone_from(scopes));
                    // On panic (in `f` or `reduce`), poison the batch so
                    // blocked peers exit and the join propagates the panic.
                    struct Poison<'a, I, G, T> {
                        state: &'a Mutex<StreamState<I, G, T>>,
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
                                if st.poisoned {
                                    guard.armed = false;
                                    return;
                                }
                                if st.iter.is_none() {
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
                        let t_job = std::time::Instant::now();
                        let out = f(job, idx);
                        busy_ns.fetch_add(t_job.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        // Submit; drain the buffer if we unblocked it.
                        let mut st = state.lock().unwrap();
                        st.pending.push(std::cmp::Reverse((idx, OrdIgnored(out))));
                        while st
                            .pending
                            .peek()
                            .is_some_and(|std::cmp::Reverse((i, _))| *i == st.next_reduce)
                        {
                            let std::cmp::Reverse((i, OrdIgnored(v))) = st.pending.pop().unwrap();
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
            h.join().expect("fleet stream worker panicked");
        }
    });

    let st = state.into_inner().unwrap();
    assert!(st.pending.is_empty() && st.next_reduce == st.next_issue, "stream reducer starved");
    let n = st.next_reduce;
    stats.jobs = n as u64;
    stats.local_pops = n as u64;
    stats.busy_ns = busy_ns.into_inner();
    bump_globals(&stats, &scopes);
    (n, stats)
}

fn bump_globals(stats: &FleetStats, scopes: &[Arc<ScopeCell>]) {
    G_BATCHES.fetch_add(1, Ordering::Relaxed);
    G_JOBS.fetch_add(stats.jobs, Ordering::Relaxed);
    G_STEALS.fetch_add(stats.steals, Ordering::Relaxed);
    G_STOLEN_JOBS.fetch_add(stats.stolen_jobs, Ordering::Relaxed);
    for cell in scopes {
        cell.batches.fetch_add(1, Ordering::Relaxed);
        cell.jobs.fetch_add(stats.jobs, Ordering::Relaxed);
        cell.steals.fetch_add(stats.steals, Ordering::Relaxed);
        cell.stolen_jobs.fetch_add(stats.stolen_jobs, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_index_ordered_for_every_worker_count() {
        for workers in [1u32, 2, 3, 8, 17] {
            let (out, stats) = run_with(PoolConfig::auto(workers), 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(stats.jobs, 100);
            assert_eq!(
                stats.local_pops + stats.stolen_jobs,
                100,
                "every job is either local or stolen: {stats:?}"
            );
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
    fn worker0_placement_forces_steals() {
        let cfg = PoolConfig { workers: 4, grab: 0, placement: Placement::Worker0 };
        // Slow jobs so the other workers reliably wake before worker 0
        // drains its own deque.
        let (out, stats) = run_with(cfg, 64, |i| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            i
        });
        assert_eq!(out.len(), 64);
        assert!(stats.steals > 0, "no steals happened: {stats:?}");
        assert!(stats.stolen_jobs > 0);
    }

    #[test]
    fn uneven_jobs_still_complete_and_balance() {
        // One job is 100x the others; stealing must keep the rest flowing.
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
    fn global_counters_accumulate() {
        let before = stats_snapshot();
        run_with(PoolConfig::auto(2), 10, |i| i);
        let after = stats_snapshot();
        assert!(after.batches > before.batches);
        assert!(after.jobs >= before.jobs + 10);
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
                let in_flight =
                    issued.fetch_add(1, Ordering::Relaxed) + 1 - reduced.load(Ordering::Relaxed);
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
