//! Guarded kernels for the samplers' two libm-bound arms.
//!
//! A wide bounded-Pareto tail ends in `y.powf(-1/α)` and an exponential in
//! `-u.ln() · mean`; each draw then rounds to a whole nanosecond. Calling
//! libm for those is most of what such a draw costs, but replacing libm
//! outright would change the bits of every draw whose exact answer sits
//! near a rounding step. So the kernels here only *propose* an answer:
//!
//! * `y^p` (with `p = -1/α`) is evaluated as `2^(e·p) · c_j^p · (1 + t)^p`,
//!   where `y = 2^e · m`, `c_j` is the centre of the 1/256-wide bucket that
//!   `m`'s top 8 bits pick, `t = (m − c_j)/c_j` (so `|t| < 2⁻⁹`) and
//!   `(1 + t)^p` is its degree-4 binomial polynomial in Estrin form. The
//!   `2^(e·p)` and `c_j^p` tables depend on `α` only ([`NegPow`], interned
//!   per `α`).
//! * `−ln u` is evaluated as `−(e·ln 2 + ln c_j + log1p t)` with `log1p` a
//!   degree-5 polynomial, from process-wide `1/c_j` and `ln c_j` tables.
//!
//! Each kernel carries an error bound against the exact value, computed
//! when its tables are built: every table entry's and every rounding's
//! worst case, the polynomial's truncation, and libm's own error (taken as
//! one ulp). A draw keeps the proposal only if `x + 0.5` lies farther
//! than that bound, plus a margin of 10⁴ ulps of the fraction it tests,
//! from an integer — where libm's answer rounds to the same nanosecond.
//! Every other draw runs the libm expression unchanged, so a sampler built
//! on these kernels returns the bits of `DistShape::sample`; see
//! `docs/MODELING.md` §10.
//!
//! [`round_ns`] is the one plain helper: at sampler magnitudes a
//! `+0.5`-and-truncate is a single convert instruction, while `f64::round`
//! is an out-of-line libm call on baseline x86-64 (no SSE4.1 `roundsd`).

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// Round a non-negative span to the nearest nanosecond (ties up). The
/// samplers' closing cast; `f64::round`'s libm call is pure overhead at
/// these magnitudes.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    (x + 0.5) as u64
}

/// One ulp of 1.0 (2⁻⁵²): the unit every error term below is counted in.
const ULP: f64 = f64::EPSILON;
/// What every guard adds to its error bound: 10⁴ ulps of the fraction of
/// `x + 0.5` that [`settle`] compares it with.
const MARGIN: f64 = 1e4 * ULP;
/// `|t|` bound: half a bucket over a centre of at least 1.
const TAU: f64 = 1.0 / 512.0;
/// Mantissa buckets, picked by the top 8 of the 52 mantissa bits.
const BUCKETS: usize = 256;
const BUCKET_SHIFT: u32 = 52 - 8;
const MANTISSA: u64 = (1 << 52) - 1;
const EXP_ONE: u64 = 1023 << 52;
/// A relative bound past this (about 10⁻⁹) is a kernel not worth building.
const MAX_REL: f64 = 1.0 / (1u64 << 30) as f64;
/// 2⁵²: adding it rounds a smaller non-negative `x` to a whole number,
/// which then sits in the low bits of the sum.
const ROUNDER: f64 = (1u64 << 52) as f64;

/// Keep the nanosecond of a non-negative `x` if `x + 0.5` lies more than
/// `guard` from an integer; otherwise `None`, and the caller runs its libm
/// expression. NaN and infinite `x` are always `None`, and so is every `x`
/// past 2⁵¹, where `guard` exceeds half a nanosecond.
#[inline]
fn settle(x: f64, guard: f64) -> Option<u64> {
    // k = x rounded to an integer, exactly; x − k is exact too. No
    // float-to-integer conversion, which costs more on baseline x86-64.
    let big = x + ROUNDER;
    let off = x - (big - ROUNDER);
    (off.abs() < 0.5 - guard).then(|| big.to_bits() - ROUNDER.to_bits())
}

/// The bucket of a positive normal `y = 2^e · m`: its biased exponent
/// `e + 1023`, the index `j` of `m`'s top 8 bits, and `t = (m − c_j)/c_j`.
#[inline]
fn reduce(y: f64, buckets: &[Bucket; BUCKETS]) -> (usize, usize, f64) {
    let bits = y.to_bits();
    let j = ((bits >> BUCKET_SHIFT) & 0xff) as usize;
    let m = f64::from_bits((bits & MANTISSA) | EXP_ONE);
    // c_j = 1 + (j + ½)/256: m with the bits below its top 8 cleared, plus
    // half a bucket. m − c_j is exact (same binade).
    let c = f64::from_bits((bits & MANTISSA & !((1 << BUCKET_SHIFT) - 1)) | EXP_ONE)
        + 0.5 / BUCKETS as f64;
    ((bits >> 52) as usize, j, (m - c) * buckets[j].inv_c)
}

/// The bucket centre `c_j = 1 + (j + ½)/256`, exact in f64.
fn centre(j: usize) -> f64 {
    1.0 + (j as f64 + 0.5) / BUCKETS as f64
}

/// Split `v` into a multiple of 2⁻⁴⁶ and the (exact) rest, so that sums of
/// high parts and small integer multiples of the high part of `ln 2` stay
/// exact.
fn split46(v: f64) -> (f64, f64) {
    let scale = (1u64 << 46) as f64;
    let hi = (v * scale).round() / scale;
    (hi, v - hi)
}

/// One bucket's constants: `1/c_j`, and `ln c_j` as a high part (a
/// multiple of 2⁻⁴⁶) plus the rest. Side by side, so a draw touches one
/// cache line or two.
#[derive(Clone, Copy)]
struct Bucket {
    inv_c: f64,
    ln_hi: f64,
    ln_lo: f64,
}

/// The bucket constants every kernel shares, and `ln 2` split like
/// `ln c_j`. Built once per process, 6 KiB.
struct Buckets {
    buckets: [Bucket; BUCKETS],
    ln2_hi: f64,
    ln2_lo: f64,
}

static TABLES: LazyLock<Buckets> = LazyLock::new(|| {
    let buckets = std::array::from_fn(|j| {
        let c = centre(j);
        let (ln_hi, ln_lo) = split46(c.ln());
        Bucket { inv_c: 1.0 / c, ln_hi, ln_lo }
    });
    let (ln2_hi, lo) = split46(std::f64::consts::LN_2);
    // ln 2 − fl(ln 2): the double-double tail of the constant.
    Buckets { buckets, ln2_hi, ln2_lo: lo + 2.319_046_813_846_299_6e-17 }
});

/// `−ln u · mean`'s error per unit of result: the kernel's closing sum and
/// product (½ ulp each), libm's `ln` (1 ulp) and product (½ ulp), and the
/// rounding of `x + 0.5` in libm's path (½ ulp).
const LN_REL: f64 = 3.0 * ULP;

/// `−ln u · mean` for one exponential: the shared bucket tables plus this
/// mean's guard.
#[derive(Clone, Copy)]
pub(crate) struct NegLn {
    mean: f64,
    /// The guard's constant part: the kernel's absolute error in `ln u`
    /// scaled by the mean, the `0.5` of `x + 0.5`'s rounding, and the
    /// margin.
    abs: f64,
    /// Resolved once here, so a draw skips the lazy table's init check.
    tables: &'static Buckets,
}

impl NegLn {
    pub(crate) fn new(mean: f64) -> Self {
        // |ln' − ln u| apart from the closing sum: libm's 1-ulp error in
        // ln c_j (< 2⁻⁵³, as |ln c_j| < 1), the degree-5 truncation
        // (τ⁶/6 < 2⁻⁵⁶) and the low part's roundings (< 2⁻⁶⁰): under 2⁻⁵².
        NegLn { mean, abs: mean * ULP + ULP / 4.0 + MARGIN, tables: &TABLES }
    }

    /// The mean the kernel scales by.
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// The kernel's nanosecond for `u` in (0, 1], or `None` near a step.
    #[inline]
    pub(crate) fn ns(&self, u: f64) -> Option<u64> {
        let b = self.tables;
        let (biased, j, t) = reduce(u, &b.buckets);
        let bucket = &b.buckets[j];
        let e = (biased as i64 - 1023) as f64;
        // e·ln2_hi + ln_hi is exact: both are multiples of 2⁻⁴⁶, and
        // u ≥ 2⁻⁵³ keeps |e| < 2⁶ and the sum within 53 bits.
        let hi = e * b.ln2_hi + bucket.ln_hi;
        let t2 = t * t;
        let log1p = t + t2 * ((-0.5 + t * (1.0 / 3.0)) + t2 * (-0.25 + t * 0.2));
        let lo = (e * b.ln2_lo + bucket.ln_lo) + log1p;
        // u = 1 can give a hair below 0; libm's answer there is 0 too.
        let x = (-(hi + lo) * self.mean).max(0.0);
        settle(x, self.abs + x * LN_REL)
    }
}

impl std::fmt::Debug for NegLn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NegLn").field("mean", &self.mean).finish_non_exhaustive()
    }
}

/// A kernel is a pure function of its mean.
impl PartialEq for NegLn {
    fn eq(&self, other: &Self) -> bool {
        self.mean.to_bits() == other.mean.to_bits()
    }
}

/// `y^p` for `p = fl(−1/α)` over every positive normal `y` whose result
/// stays within 2⁶⁴: the tables of one tail index `α`.
///
/// Interned per process by `α`, so every distribution with that index
/// shares one [`Arc`]; a kernel costs 2 KiB of `c_j^p` plus 8 bytes per
/// exponent, `⌈64α⌉ + 2` of them.
pub struct NegPow {
    alpha: f64,
    /// `p, p(p−1)/2!, …`: the binomial coefficients of `(1 + t)^p` past 1.
    coeffs: [f64; 4],
    /// The error bound per unit of result, the rounding of `x + 0.5` in
    /// libm's path included.
    rel: f64,
    /// Biased exponent of `scale[0]`.
    first: usize,
    c_pow: [f64; BUCKETS],
    /// `2^(e·p)` for each biased exponent from `first` to 1023 (`e = 0`).
    scale: Box<[f64]>,
    buckets: &'static [Bucket; BUCKETS],
}

/// `α` bits → kernel; `None` records an `α` that gets none.
static KERNELS: Mutex<BTreeMap<u64, Option<Arc<NegPow>>>> = Mutex::new(BTreeMap::new());

impl NegPow {
    /// The shared kernel for `α`, built on first use. `None` for an `α` that
    /// is not finite and positive, so large that `y` can be subnormal, or so
    /// small that the polynomial's error bound passes 2⁻³⁰.
    pub(crate) fn interned(alpha: f64) -> Option<Arc<NegPow>> {
        // A panicking build inserts nothing, so a poisoned map is still whole.
        let mut kernels = KERNELS.lock().unwrap_or_else(PoisonError::into_inner);
        kernels.entry(alpha.to_bits()).or_insert_with(|| NegPow::build(alpha).map(Arc::new)).clone()
    }

    /// Bytes held by the kernels built so far, the shared bucket tables
    /// included.
    pub fn interned_bytes() -> usize {
        let kernels = KERNELS.lock().unwrap_or_else(PoisonError::into_inner);
        let own = |k: &NegPow| std::mem::size_of::<NegPow>() + 8 * k.scale.len();
        std::mem::size_of::<Buckets>() + kernels.values().flatten().map(|k| own(k)).sum::<usize>()
    }

    fn build(alpha: f64) -> Option<NegPow> {
        // Every y the samplers pass is at least hi^-α > 2^(-64α).
        if !(alpha.is_finite() && alpha > 0.0 && 64.0 * alpha + 2.0 < 1022.0) {
            return None;
        }
        let p = -1.0 / alpha;
        let first = 1023 - (64.0 * alpha).ceil() as usize - 1;
        // Σ_{k≥5} |C(p,k)| τ^k over the smallest (1+t)^p: the truncation,
        // doubled for the terms past k = 60 and the bound's own rounding.
        let (mut c, mut tail) = (1.0f64, 0.0);
        let mut coeffs = [0.0; 4];
        for k in 1..=60 {
            c *= (p - (k - 1) as f64) / k as f64;
            match k {
                1..=4 => coeffs[k as usize - 1] = c,
                _ => tail += c.abs() * TAU.powi(k),
            }
        }
        let truncation = 2.0 * tail / (1.0 + TAU).powf(p);
        // Rounding, in ulps: 2^(e·p) (2), c_j^p (1, libm), the polynomial
        // (1, plus t's rounding scaled by |p|τ), two products (1), libm's
        // own pow (1) and x + 0.5 (½); 8 covers them.
        let bound = truncation + (8.0 + 2.0 * p.abs() * TAU) * ULP;
        if !(bound.is_finite() && bound < MAX_REL) {
            return None;
        }
        let scale: Box<[f64]> = (first..=1023)
            .map(|biased| {
                // e·p as hi + lo exactly, then 2^hi · 2^lo with 2^lo ≈ 1 + lo·ln 2.
                let e = biased as f64 - 1023.0;
                let hi = e * p;
                let lo = e.mul_add(p, -hi);
                hi.exp2() * (1.0 + lo * std::f64::consts::LN_2)
            })
            .collect();
        let c_pow = std::array::from_fn(|j| centre(j).powf(p));
        if !scale.iter().chain(&c_pow).all(|v| v.is_finite() && *v > 0.0) {
            return None;
        }
        Some(NegPow { alpha, coeffs, rel: bound, first, c_pow, scale, buckets: &TABLES.buckets })
    }

    /// The kernel's nanosecond for `y^p` clamped to `[lo, hi]` (`1 ≤ lo ≤
    /// hi`), or `None` near a step or for a `y` outside the tables.
    #[inline]
    pub(crate) fn ns(&self, y: f64, lo: f64, hi: f64) -> Option<u64> {
        let (biased, j, t) = reduce(y, self.buckets);
        // Subnormal, zero, negative, infinite and NaN `y` all miss.
        let scale = *self.scale.get(biased.wrapping_sub(self.first))?;
        let [a1, a2, a3, a4] = self.coeffs;
        let t2 = t * t;
        let poly = (1.0 + a1 * t) + t2 * ((a2 + a3 * t) + a4 * t2);
        let x = (scale * self.c_pow[j] * poly).clamp(lo, hi);
        settle(x, x * self.rel + MARGIN)
    }
}

impl std::fmt::Debug for NegPow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NegPow")
            .field("alpha", &self.alpha)
            .field("rel", &self.rel)
            .finish_non_exhaustive()
    }
}

/// A kernel is a pure function of its `α`.
impl PartialEq for NegPow {
    fn eq(&self, other: &Self) -> bool {
        self.alpha.to_bits() == other.alpha.to_bits()
    }
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
