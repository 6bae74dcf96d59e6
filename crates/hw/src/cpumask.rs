//! CPU identifiers and affinity bitmasks.
//!
//! Mirrors the kernel's `cpumask_t` as used by `/proc/irq/*/smp_affinity` and
//! the shield interface: a bitmask over logical CPUs, printed and parsed as
//! hex. The simulator supports up to 64 logical CPUs, which comfortably
//! covers the paper's dual-Xeon (2–4 logical CPUs) and any ablation we run.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not, Sub};
use std::str::FromStr;

/// Index of a logical CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CpuId(pub u32);

impl CpuId {
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A set of logical CPUs.
///
/// ```
/// use sp_hw::{CpuId, CpuMask};
///
/// let mask: CpuMask = "0x6".parse().unwrap();     // cpus 1 and 2
/// assert!(mask.contains(CpuId(1)));
/// assert_eq!(mask - CpuMask::single(CpuId(1)), CpuMask::single(CpuId(2)));
/// assert_eq!(mask.to_string(), "6");              // /proc-style hex
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CpuMask(pub u64);

impl CpuMask {
    /// The empty mask. Note an empty *affinity* is invalid almost everywhere;
    /// the kernel model rejects it at its boundaries.
    pub const EMPTY: CpuMask = CpuMask(0);

    /// Mask containing exactly `cpu`.
    #[inline]
    pub const fn single(cpu: CpuId) -> Self {
        CpuMask(1 << cpu.0)
    }

    /// Mask of the first `n` CPUs (the "all online" mask for an `n`-CPU box).
    #[inline]
    pub const fn first_n(n: u32) -> Self {
        if n == 0 {
            CpuMask(0)
        } else if n >= 64 {
            CpuMask(u64::MAX)
        } else {
            CpuMask((1u64 << n) - 1)
        }
    }

    pub fn from_cpus<I: IntoIterator<Item = CpuId>>(cpus: I) -> Self {
        let mut m = CpuMask::EMPTY;
        for c in cpus {
            m.insert(c);
        }
        m
    }

    #[inline]
    pub const fn contains(self, cpu: CpuId) -> bool {
        self.0 & (1 << cpu.0) != 0
    }

    #[inline]
    pub fn insert(&mut self, cpu: CpuId) {
        self.0 |= 1 << cpu.0;
    }

    #[inline]
    pub fn remove(&mut self, cpu: CpuId) {
        self.0 &= !(1 << cpu.0);
    }

    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if every CPU in `self` is also in `other`.
    #[inline]
    pub const fn is_subset_of(self, other: CpuMask) -> bool {
        self.0 & !other.0 == 0
    }

    #[inline]
    pub const fn intersects(self, other: CpuMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Lowest-numbered CPU in the mask, if any. IRQ routing in the 2.4-era
    /// kernel delivers to the lowest allowed CPU absent balancing.
    #[inline]
    pub fn first(self) -> Option<CpuId> {
        if self.0 == 0 {
            None
        } else {
            Some(CpuId(self.0.trailing_zeros()))
        }
    }

    /// Iterate member CPUs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = CpuId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let c = bits.trailing_zeros();
                bits &= bits - 1;
                Some(CpuId(c))
            }
        })
    }
}

impl BitAnd for CpuMask {
    type Output = CpuMask;
    #[inline]
    fn bitand(self, rhs: CpuMask) -> CpuMask {
        CpuMask(self.0 & rhs.0)
    }
}

impl BitAndAssign for CpuMask {
    #[inline]
    fn bitand_assign(&mut self, rhs: CpuMask) {
        self.0 &= rhs.0;
    }
}

impl BitOr for CpuMask {
    type Output = CpuMask;
    #[inline]
    fn bitor(self, rhs: CpuMask) -> CpuMask {
        CpuMask(self.0 | rhs.0)
    }
}

impl BitOrAssign for CpuMask {
    #[inline]
    fn bitor_assign(&mut self, rhs: CpuMask) {
        self.0 |= rhs.0;
    }
}

impl Not for CpuMask {
    type Output = CpuMask;
    #[inline]
    fn not(self) -> CpuMask {
        CpuMask(!self.0)
    }
}

/// Set difference: CPUs in `self` but not in `rhs`.
impl Sub for CpuMask {
    type Output = CpuMask;
    #[inline]
    fn sub(self, rhs: CpuMask) -> CpuMask {
        CpuMask(self.0 & !rhs.0)
    }
}

/// Hex rendering, like `/proc/irq/*/smp_affinity`.
impl fmt::Display for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// Parse hex with optional `0x` prefix, as the /proc files accept.
/// Error from parsing a [`CpuMask`]: the trimmed text is not an optional
/// `0x` followed by hex digits whose value fits in 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMaskError;

impl fmt::Display for ParseMaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("not a hex cpu mask")
    }
}

impl std::error::Error for ParseMaskError {}

impl FromStr for CpuMask {
    type Err = ParseMaskError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let t = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")).unwrap_or(t);
        // Hex digits only, as Linux's mask parser: `from_str_radix` alone
        // would also take a sign ("+3").
        if !t.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ParseMaskError);
        }
        u64::from_str_radix(t, 16).map(CpuMask).map_err(|_| ParseMaskError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_contains() {
        let m = CpuMask::single(CpuId(3));
        assert!(m.contains(CpuId(3)));
        assert!(!m.contains(CpuId(2)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn first_n_edges() {
        assert_eq!(CpuMask::first_n(0), CpuMask::EMPTY);
        assert_eq!(CpuMask::first_n(2), CpuMask(0b11));
        assert_eq!(CpuMask::first_n(64), CpuMask(u64::MAX));
        assert_eq!(CpuMask::first_n(100), CpuMask(u64::MAX));
    }

    #[test]
    fn set_algebra() {
        let a = CpuMask(0b1010);
        let b = CpuMask(0b0110);
        assert_eq!(a & b, CpuMask(0b0010));
        assert_eq!(a | b, CpuMask(0b1110));
        assert_eq!(a - b, CpuMask(0b1000));
        assert!(CpuMask(0b0010).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(a.intersects(b));
        assert!(!a.intersects(CpuMask(0b0101)));
    }

    #[test]
    fn empty_is_subset_of_everything() {
        assert!(CpuMask::EMPTY.is_subset_of(CpuMask::EMPTY));
        assert!(CpuMask::EMPTY.is_subset_of(CpuMask(0b1)));
    }

    #[test]
    fn iteration_ascending() {
        let m = CpuMask(0b10110);
        let cpus: Vec<u32> = m.iter().map(|c| c.0).collect();
        assert_eq!(cpus, vec![1, 2, 4]);
        assert_eq!(m.first(), Some(CpuId(1)));
        assert_eq!(CpuMask::EMPTY.first(), None);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["1", "3", "f", "0x2", "0Xff"] {
            let m: CpuMask = s.parse().unwrap();
            let back: CpuMask = m.to_string().parse().unwrap();
            assert_eq!(m, back);
        }
        assert_eq!("0x3".parse::<CpuMask>().unwrap(), CpuMask(0b11));
        for bad in ["zz", "", " ", "0x", "+3", "0x+3", "-3", "0x-1", "1,0", "1_0", "é", "10000000000000000"] {
            assert_eq!(bad.parse::<CpuMask>(), Err(ParseMaskError), "{bad:?}");
        }
        assert_eq!("00000000000000003".parse::<CpuMask>(), Ok(CpuMask(0b11)));
    }

    #[test]
    fn insert_remove() {
        let mut m = CpuMask::EMPTY;
        m.insert(CpuId(0));
        m.insert(CpuId(5));
        assert_eq!(m.count(), 2);
        m.remove(CpuId(0));
        assert_eq!(m, CpuMask::single(CpuId(5)));
        m.remove(CpuId(5));
        assert!(m.is_empty());
    }

    #[test]
    fn from_cpus_collects() {
        let m = CpuMask::from_cpus([CpuId(1), CpuId(3), CpuId(1)]);
        assert_eq!(m, CpuMask(0b1010));
    }
}
