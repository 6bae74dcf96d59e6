//! Virtual time for the discrete-event simulation.
//!
//! The simulator measures everything in integer nanoseconds. Two newtypes keep
//! absolute points ([`Instant`]) and spans ([`Nanos`]) from being mixed up:
//! adding two `Instant`s is a type error, just like with `std::time`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Nanos(pub u64);

/// An absolute point on the virtual timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Instant(pub u64);

impl Nanos {
    /// The empty span.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable span; used as an "infinite" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }
    /// Span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    /// Span of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    /// Span of `s` whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Build a span from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration: {s}");
        Nanos((s * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// The span in (possibly fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// The span in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; spans cannot go negative.
    #[inline]
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Scale a span by a non-negative factor (e.g. an execution slowdown).
    /// Rounds to the nearest nanosecond (ties up) without libm — this sits
    /// on the simulator's per-segment path.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0, "negative scale factor: {factor}");
        Nanos(crate::fastmath::round_ns(self.0 as f64 * factor))
    }

    /// The shorter of two spans.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }
}

impl Instant {
    /// Simulation start.
    pub const ZERO: Instant = Instant(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }
    /// Seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since an earlier instant. Panics (debug) if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Instant) -> Nanos {
        debug_assert!(self.0 >= earlier.0, "time went backwards: {} < {}", self.0, earlier.0);
        Nanos(self.0 - earlier.0)
    }

    /// Saturating span since another instant (zero if `other` is later).
    #[inline]
    pub const fn saturating_since(self, other: Instant) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add<Nanos> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Nanos) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Nanos> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub<Nanos> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, rhs: Nanos) -> Instant {
        Instant(self.0 - rhs.0)
    }
}

impl Sub<Instant> for Instant {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Instant) -> Nanos {
        self.since(rhs)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "span underflow: {} - {}", self.0, rhs.0);
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

/// Human-readable rendering with an auto-selected unit: `17ns`, `11.3us`,
/// `0.565ms`, `1.148s`.
impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_us(3), Nanos(3_000));
        assert_eq!(Nanos::from_ms(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_secs(3), Nanos(3_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant(100);
        let t1 = t0 + Nanos(50);
        assert_eq!(t1, Instant(150));
        assert_eq!(t1 - t0, Nanos(50));
        assert_eq!(t1.since(t0), Nanos(50));
        assert_eq!(t0.saturating_since(t1), Nanos::ZERO);
    }

    #[test]
    fn span_scaling_rounds() {
        assert_eq!(Nanos(1000).scale(1.5), Nanos(1500));
        assert_eq!(Nanos(3).scale(0.5), Nanos(2)); // 1.5 rounds to 2
        assert_eq!(Nanos(100).scale(0.0), Nanos::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos(17).to_string(), "17ns");
        assert_eq!(Nanos(11_300).to_string(), "11.300us");
        assert_eq!(Nanos(565_000).to_string(), "565.000us");
        assert_eq!(Nanos(92_300_000).to_string(), "92.300ms");
        assert_eq!(Nanos(1_148_000_000).to_string(), "1.148s");
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(Nanos(5).saturating_sub(Nanos(9)), Nanos::ZERO);
        assert_eq!(Nanos(9).saturating_sub(Nanos(5)), Nanos(4));
    }

    #[test]
    fn sum_of_spans() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn conversions_roundtrip() {
        let n = Nanos::from_ms(565);
        assert!((n.as_us_f64() - 565_000.0).abs() < 1e-6);
        assert!((n.as_secs_f64() - 0.565).abs() < 1e-12);
    }
}
