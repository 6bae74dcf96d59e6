//! # simcore — deterministic discrete-event simulation core
//!
//! Foundation layer for the shielded-processors reproduction: virtual time
//! ([`Nanos`], [`Instant`]), a stable-ordered event queue ([`WheelQueue`],
//! one sorted vector), a reproducible RNG ([`SimRng`]) with the duration
//! distributions ([`DurationDist`]) the kernel model draws service times
//! from, and the bounded [`FlightRing`] of structured [`FlightEvent`]s that
//! is the simulator's one event record.
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

pub use dist::{DistError, DistShape, DurationDist, ParetoTable};
pub use flight::{ActivityClass, FlightEvent, FlightEventKind, FlightRing, TraceKind};
pub use queue::{pack_key, EventKey, WheelQueue};
pub use rng::SimRng;
pub use time::{Instant, Nanos};
