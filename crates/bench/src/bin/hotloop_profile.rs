//! Run a fig-6-style hot loop (RedHawk, stress load, realfeel waiter) for a
//! long stretch of simulated time — a profiling target for `gprofng`/`perf`.
//! Host-performance numbers come from `benchmark/` (see
//! `benchmark/README.md`); this binary only gives a profiler something long
//! enough to sample.
//!
//! Usage: `hotloop_profile [SIM_MS]` (default 4000).

use simcore::Nanos;
use sp_experiments::scenario::ScenarioSpec;

fn main() {
    let sim_ms: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let spec = ScenarioSpec::rtc_testbed("waiter", 2048);
    let mut sim = spec.build(0x1D7E).expect("hot-loop spec builds").sim;
    let t = std::time::Instant::now();
    sim.run_for(Nanos::from_ms(sim_ms));
    let wall = t.elapsed().as_secs_f64();
    let events = sim.events_dispatched();
    println!(
        "{} events in {:.3}s wall = {:.1} ns/event ({:.2}M ev/s)",
        events,
        wall,
        wall * 1e9 / events as f64,
        events as f64 / wall / 1e6
    );
}
