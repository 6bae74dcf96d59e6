//! Host CPU time of the benchmark process.
//!
//! Throughput and set-up are timed in CPU time rather than wall time: on a
//! virtual machine whose vCPUs the host preempts, wall time also counts the
//! time a vCPU was not running (steal), which the guest kernel leaves out of
//! a task's CPU time. CPU time also leaves out a worker's idle wait, so on
//! the two-worker workloads it measures the work done, not how well it was
//! spread over the workers.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, exited ones
/// included.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Run `f`, returning its output and the process CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - t)
}
