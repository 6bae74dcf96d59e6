//! Small math helpers for the hot sampling paths.
//!
//! The distribution samplers lean on libm for their transcendentals. A
//! hand-rolled polynomial `pow`/`exp`/`ln` is not a way to go faster: such
//! replacements measured *slower* here (long serial dependency chains lose
//! to glibc's table-driven kernels) and would change the bits of every
//! draw. What does go faster is not calling `pow` at all: a narrow bounded
//! Pareto answers almost every draw from an exact lookup table
//! ([`crate::dist::ParetoTable`]) and keeps the libm expression, unchanged,
//! for the rest. The one call this module replaces is the closing
//! `f64::round`: at sampler magnitudes a `+0.5`-and-truncate is a single
//! convert instruction, while `round` is an out-of-line libm call on
//! baseline x86-64 (no SSE4.1 `roundsd`).

/// Round a non-negative span to the nearest nanosecond (ties up). The
/// samplers' closing cast; `f64::round`'s libm call is pure overhead at
/// these magnitudes.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    (x + 0.5) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ns_is_nearest() {
        assert_eq!(round_ns(0.0), 0);
        assert_eq!(round_ns(0.49), 0);
        assert_eq!(round_ns(0.5), 1);
        assert_eq!(round_ns(1234.4), 1234);
        assert_eq!(round_ns(1234.6), 1235);
        assert_eq!(round_ns(9.5e14), 950_000_000_000_000);
    }
}
