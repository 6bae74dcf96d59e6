//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation layer for the shielded-processors reproduction: virtual time
//! ([`Nanos`], [`Instant`]), a stable-ordered [`WheelQueue`], a reproducible
//! RNG ([`SimRng`]) with the duration distributions ([`DurationDist`]) the
//! kernel model draws service times from, and a bounded [`Tracer`].
//!
//! Everything above this crate (hardware model, kernel, devices, workloads)
//! is pure simulation logic driven by these primitives; given the same seed
//! and configuration, a run is bit-for-bit reproducible.

#![deny(missing_docs)]

pub mod dist;
pub mod fastmath;
pub mod flight;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use dist::{DurationDist, PreparedDist};
pub use flight::{ActivityClass, FlightEvent, FlightEventKind, FlightRing};
pub use queue::{EventKey, WheelQueue};
pub use rng::SimRng;
pub use time::{Instant, Nanos};
pub use trace::{TraceKind, TraceRecord, Tracer};
