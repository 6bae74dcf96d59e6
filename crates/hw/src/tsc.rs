//! The IA-32 time-stamp counter, as used by both paper benchmarks to
//! timestamp with sub-microsecond resolution.

use serde::{Deserialize, Serialize};
use simcore::Instant;

/// A free-running cycle counter at the core clock rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tsc {
    hz: f64,
}

impl Tsc {
    pub fn new(clock_ghz: f64) -> Self {
        assert!(clock_ghz > 0.0, "clock must be positive");
        Tsc { hz: clock_ghz * 1e9 }
    }

    /// RDTSC at virtual instant `now`.
    pub fn read(&self, now: Instant) -> u64 {
        (now.as_ns() as f64 * self.hz / 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_scale_with_clock() {
        let tsc = Tsc::new(1.4);
        assert_eq!(tsc.read(Instant(0)), 0);
        assert_eq!(tsc.read(Instant(1_000)), 1_400);
    }
}
