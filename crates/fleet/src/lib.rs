//! # sp-fleet — pull-based execution for scenario fleets
//!
//! The experiments in this workspace decompose into *batches of independent
//! jobs*: replication shards forked from a warm checkpoint, fault-matrix
//! cells, whole scenario specs. Every job is a pure function of its index,
//! so the only thing an execution engine may change is wall-clock — never
//! the results. This crate is that engine:
//!
//! * **one pull-based worker loop** — every batch's jobs come from one
//!   shared source, and each worker pulls the next job as soon as it
//!   finishes the last. Long jobs therefore never strand short ones behind
//!   them, and a batch of 30 uneven simulation cells keeps every core busy
//!   to the end.
//! * **real OS threads** — workers are `std::thread::scope` threads, capped
//!   at [`default_workers`] (the machine's available parallelism, overridable
//!   with `SP_WORKERS` or scoped via [`with_workers`], which nested fan-outs
//!   on pool workers inherit).
//! * **deterministic merges** — outputs pass through a reorder buffer and
//!   reach the caller in job-index order regardless of which worker ran
//!   what and in what order it finished. For a fixed job set the output is
//!   bit-for-bit identical across worker counts {1, 2, …} and across
//!   repeated runs.
//! * **two entry points** — [`run_with`] (and [`run_indexed`]) collect a
//!   batch's outputs into a `Vec`; [`run_stream`] pulls jobs from a lazy
//!   iterator and folds outputs through an online reducer, so million-cell
//!   sweeps run in memory bounded by the reorder window instead of
//!   materializing spec and result vectors.
//! * **scoped telemetry** — [`counter_scope`] charges batches and jobs to
//!   the caller that issued them (nested fan-outs included), so concurrent
//!   fleet consumers in one process don't contaminate each other's numbers.
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
    counter_scope, default_workers, run_indexed, run_stream, run_with, with_workers, FleetStats,
    GlobalStats, PoolConfig,
};
