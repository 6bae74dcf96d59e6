//! # sp-fleet — work-stealing execution for scenario fleets
//!
//! The experiments in this workspace decompose into *batches of independent
//! jobs*: replication shards forked from a warm checkpoint, fault-matrix
//! cells, whole scenario specs. Every job is a pure function of its index,
//! so the only thing an execution engine may change is wall-clock — never
//! the results. This crate is that engine:
//!
//! * **per-worker deques + a global injector** — jobs start in the injector;
//!   each worker grabs a batch into its own deque, pops locally from the
//!   back, and when it runs dry steals half of a victim's deque from the
//!   front. Long jobs therefore never strand short ones behind them, and a
//!   batch of 30 uneven simulation cells keeps every core busy to the end.
//! * **real OS threads** — workers are `std::thread::scope` threads, capped
//!   at [`default_workers`] (the machine's available parallelism, overridable
//!   with `SP_WORKERS` or scoped via [`with_workers`]).
//! * **deterministic merges** — results are returned in job-index order
//!   regardless of which worker ran what and in what order it finished.
//!   For a fixed job set the output is bit-for-bit identical across worker
//!   counts {1, 2, …} and across repeated runs.
//! * **a streaming path** — [`run_stream`] pulls jobs from a lazy iterator
//!   and folds outputs through an online reducer in strict index order, so
//!   million-cell sweeps run in memory bounded by the reorder window
//!   instead of materializing spec and result vectors.
//! * **scoped telemetry** — [`counter_scope`] charges batches, jobs and
//!   steals to the caller that issued them (nested fan-outs included), so
//!   concurrent fleet consumers in one process don't contaminate each
//!   other's numbers the way a [`stats_snapshot`] diff does.
//!
//! Every batch in the workspace runs on this pool through [`run_indexed`]
//! or [`run_stream`]: the figure suite, the fault and modern matrices, the
//! sweep, and any caller batching `sp_experiments` driver calls.
//!
//! ```
//! let (squares, stats) = sp_fleet::run_with(
//!     sp_fleet::PoolConfig::auto(4),
//!     100,
//!     |i| i * i,
//! );
//! assert_eq!(squares[7], 49);
//! assert_eq!(stats.jobs, 100);
//! ```

#![deny(missing_docs)]

pub mod pool;

pub use pool::{
    counter_scope, default_workers, run_indexed, run_stream, run_with, stats_snapshot,
    with_workers, FleetStats, GlobalStats, Placement, PoolConfig,
};
