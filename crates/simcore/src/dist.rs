//! Duration distributions used to model service times and arrival processes.
//!
//! The kernel simulator draws ISR lengths, critical-section hold times,
//! softirq bursts and interrupt inter-arrival gaps from these. Everything
//! samples into [`Nanos`]; parameters are expressed in nanoseconds so model
//! constants read directly against the paper's numbers.

use crate::fastmath::{round_ns, NegLn, NegPow};
use crate::rng::SimRng;
use crate::time::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

/// The shape of a distribution over time spans: its family and parameters,
/// exactly as a config serializes them.
///
/// A [`DurationDist`] holds one of these beside its compiled sampler;
/// [`DistShape::sample`] is the plain per-draw reference that sampler is
/// tested against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DistShape {
    /// Always the same span.
    Constant(u64),
    /// Uniform over `[lo, hi]` nanoseconds.
    Uniform {
        /// Inclusive lower bound (ns).
        lo: u64,
        /// Inclusive upper bound (ns).
        hi: u64,
    },
    /// Exponential with the given mean (ns). Models Poisson arrival gaps.
    Exponential {
        /// Mean of the distribution (ns).
        mean: u64,
    },
    /// Log-normal parameterised by the *median* (ns) and `sigma` of the
    /// underlying normal. Right-skewed; models service times with occasional
    /// slow outliers.
    LogNormal {
        /// Median of the distribution (ns).
        median: u64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Bounded Pareto over `[lo, hi]` ns with tail index `alpha`.
    /// Heavy-tailed; models critical-section hold times where most sections
    /// are short but the worst case is orders of magnitude longer.
    BoundedPareto {
        /// Inclusive lower bound (ns); must be positive.
        lo: u64,
        /// Inclusive upper bound (ns).
        hi: u64,
        /// Tail index; smaller means heavier tail.
        alpha: f64,
    },
    /// Mixture: pick one branch by weight, then sample it. Weights need not
    /// sum to 1. Models e.g. "mostly-fast syscall, occasionally takes the
    /// slow path through a long critical section".
    Mix(Vec<(f64, DistShape)>),
    /// Base distribution plus a constant offset, for "fixed overhead + noise".
    Shifted {
        /// Constant offset added to every draw (ns).
        base: u64,
        /// The distribution the offset is added to.
        rest: Box<DistShape>,
    },
}

/// Why [`DurationDist::validate`] rejected a distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// `Uniform` with `lo > hi`.
    UniformInverted {
        /// Lower bound (ns).
        lo: u64,
        /// Upper bound (ns).
        hi: u64,
    },
    /// `Exponential` with a zero mean.
    ZeroMean,
    /// `LogNormal` with a negative or non-finite `sigma`.
    BadSigma(f64),
    /// `BoundedPareto` with `lo == 0`: every draw would round to 0 ns.
    ParetoZeroLo,
    /// `BoundedPareto` with `lo >= hi`.
    ParetoEmpty {
        /// Lower bound (ns).
        lo: u64,
        /// Upper bound (ns).
        hi: u64,
    },
    /// `BoundedPareto` with a tail index that is not finite and positive.
    BadAlpha(f64),
    /// `Mix` with no branches.
    EmptyMix,
    /// `Mix` branch weight that is negative or not finite.
    BadWeight(f64),
    /// `Mix` whose weights sum to zero.
    ZeroTotalWeight,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::UniformInverted { lo, hi } => write!(f, "uniform lo {lo} > hi {hi}"),
            DistError::ZeroMean => f.write_str("exponential mean is zero"),
            DistError::BadSigma(sigma) => write!(f, "log-normal sigma {sigma} is not >= 0"),
            DistError::ParetoZeroLo => f.write_str("bounded Pareto lo must be positive"),
            DistError::ParetoEmpty { lo, hi } => {
                write!(f, "bounded Pareto lo {lo} is not below hi {hi}")
            }
            DistError::BadAlpha(alpha) => {
                write!(f, "bounded Pareto alpha {alpha} is not finite and positive")
            }
            DistError::EmptyMix => f.write_str("mix has no branches"),
            DistError::BadWeight(w) => write!(f, "mix weight {w} is not finite and >= 0"),
            DistError::ZeroTotalWeight => f.write_str("mix weights sum to zero"),
        }
    }
}

impl std::error::Error for DistError {}

impl DistShape {
    /// Check parameters that arrived without the constructors' asserts
    /// (deserialized configs, shapes built by hand): every draw of a valid
    /// distribution stays inside its reported bounds without panicking.
    /// Recurses through `Mix` branches and `Shifted` rests.
    pub fn validate(&self) -> Result<(), DistError> {
        match self {
            DistShape::Constant(_) => Ok(()),
            DistShape::Uniform { lo, hi } if lo > hi => {
                Err(DistError::UniformInverted { lo: *lo, hi: *hi })
            }
            DistShape::Uniform { .. } => Ok(()),
            DistShape::Exponential { mean: 0 } => Err(DistError::ZeroMean),
            DistShape::Exponential { .. } => Ok(()),
            DistShape::LogNormal { sigma, .. } if !(sigma.is_finite() && *sigma >= 0.0) => {
                Err(DistError::BadSigma(*sigma))
            }
            DistShape::LogNormal { .. } => Ok(()),
            DistShape::BoundedPareto { lo: 0, .. } => Err(DistError::ParetoZeroLo),
            DistShape::BoundedPareto { lo, hi, .. } if lo >= hi => {
                Err(DistError::ParetoEmpty { lo: *lo, hi: *hi })
            }
            DistShape::BoundedPareto { alpha, .. } if !(alpha.is_finite() && *alpha > 0.0) => {
                Err(DistError::BadAlpha(*alpha))
            }
            DistShape::BoundedPareto { .. } => Ok(()),
            DistShape::Mix(branches) => {
                if branches.is_empty() {
                    return Err(DistError::EmptyMix);
                }
                for (w, d) in branches {
                    if !(w.is_finite() && *w >= 0.0) {
                        return Err(DistError::BadWeight(*w));
                    }
                    d.validate()?;
                }
                if branches.iter().map(|(w, _)| w).sum::<f64>() > 0.0 {
                    Ok(())
                } else {
                    Err(DistError::ZeroTotalWeight)
                }
            }
            DistShape::Shifted { rest, .. } => rest.validate(),
        }
    }

    /// Draw one span the plain way: every parameter-derived constant is
    /// recomputed per draw. This is the reference the compiled
    /// [`DurationDist::sample`] must match bit for bit.
    pub fn sample(&self, rng: &mut SimRng) -> Nanos {
        match self {
            DistShape::Constant(ns) => Nanos(*ns),
            DistShape::Uniform { lo, hi } => Nanos(rng.range_inclusive(*lo, *hi)),
            DistShape::Exponential { mean } => {
                let u = rng.f64_open0();
                Nanos(round_ns(-(u.ln()) * *mean as f64))
            }
            DistShape::LogNormal { median, sigma } => {
                let z = sample_standard_normal(rng);
                Nanos(round_ns(*median as f64 * (sigma * z).exp()))
            }
            DistShape::BoundedPareto { lo, hi, alpha } => {
                // Inverse CDF of the bounded Pareto on [lo, hi]:
                // x = ((1−u)·lo^−α + u·hi^−α)^(−1/α).
                let (la, ha) = ((*lo as f64).powf(-alpha), (*hi as f64).powf(-alpha));
                let u = rng.f64();
                let x = ((1.0 - u) * la + u * ha).powf(-1.0 / alpha);
                Nanos(round_ns(x.clamp(*lo as f64, *hi as f64)))
            }
            DistShape::Mix(branches) => {
                let total: f64 = branches.iter().map(|(w, _)| w).sum();
                let mut pick = rng.f64() * total;
                for (w, d) in branches {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                // Floating-point slop: fall through to the last branch.
                branches.last().expect("mix is non-empty").1.sample(rng)
            }
            DistShape::Shifted { base, rest } => Nanos(*base) + rest.sample(rng),
        }
    }

    /// The smallest value the distribution can produce (used by tests and by
    /// budget sanity checks in scenario builders).
    pub fn lower_bound(&self) -> Nanos {
        match self {
            DistShape::Constant(ns) => Nanos(*ns),
            DistShape::Uniform { lo, .. } => Nanos(*lo),
            DistShape::Exponential { .. } => Nanos::ZERO,
            DistShape::LogNormal { .. } => Nanos::ZERO,
            DistShape::BoundedPareto { lo, .. } => Nanos(*lo),
            DistShape::Mix(branches) => branches
                .iter()
                .filter(|(w, _)| *w > 0.0)
                .map(|(_, d)| d.lower_bound())
                .min()
                .unwrap_or(Nanos::ZERO),
            DistShape::Shifted { base, rest } => Nanos(*base) + rest.lower_bound(),
        }
    }

    /// An upper bound if one exists (heavy-tailed unbounded forms return None).
    pub fn upper_bound(&self) -> Option<Nanos> {
        match self {
            DistShape::Constant(ns) => Some(Nanos(*ns)),
            DistShape::Uniform { hi, .. } => Some(Nanos(*hi)),
            DistShape::Exponential { .. } | DistShape::LogNormal { .. } => None,
            DistShape::BoundedPareto { hi, .. } => Some(Nanos(*hi)),
            DistShape::Mix(branches) => {
                let mut max = Nanos::ZERO;
                for (w, d) in branches {
                    if *w > 0.0 {
                        max = max.max(d.upper_bound()?);
                    }
                }
                Some(max)
            }
            DistShape::Shifted { base, rest } => Some(Nanos(*base) + rest.upper_bound()?),
        }
    }
}

/// A distribution over time spans, compiled for sampling when it is built.
///
/// It keeps its [`DistShape`], which is all that serializes, compares or
/// prints, and a sampler built once from it: parameter-derived constants
/// (`lo^-α`, `hi^-α`, `-1/α`, mean conversions) are resolved up front, the
/// `Shifted + BoundedPareto` shape of every kernel path cost is one fused
/// arm, and a bounded-Pareto tail at most 4096 ns wide is read from a shared
/// [`ParetoTable`]. A wider tail and an exponential skip libm's `pow` and
/// `ln` through a guarded kernel ([`crate::fastmath`]) that answers only
/// where its error bound cannot change the rounded nanosecond; see
/// [`DurationDist::guarded_arm`]. Every draw is bit-identical to
/// [`DistShape::sample`] — same draw count, same stream position, same
/// rounded result, whichever of table, kernel or libm answers it.
///
/// ```
/// use simcore::{DurationDist, Nanos, SimRng};
///
/// // Mostly-short critical sections with a bounded heavy tail.
/// let hold = DurationDist::bounded_pareto(Nanos::from_us(2), Nanos::from_ms(1), 1.1);
/// let mut rng = SimRng::new(7);
/// let sample = hold.sample(&mut rng);
/// assert!(sample >= Nanos::from_us(2) && sample <= Nanos::from_ms(1));
/// ```
#[derive(Clone)]
pub struct DurationDist {
    shape: DistShape,
    sampler: Sampler,
}

impl DurationDist {
    /// A distribution that always yields `d`.
    pub fn constant(d: Nanos) -> Self {
        DistShape::Constant(d.as_ns()).into()
    }

    /// Uniform over `[lo, hi]`.
    pub fn uniform(lo: Nanos, hi: Nanos) -> Self {
        assert!(lo <= hi, "uniform: lo > hi");
        DistShape::Uniform { lo: lo.as_ns(), hi: hi.as_ns() }.into()
    }

    /// Exponential with mean `mean`.
    pub fn exponential(mean: Nanos) -> Self {
        assert!(!mean.is_zero(), "exponential: zero mean");
        DistShape::Exponential { mean: mean.as_ns() }.into()
    }

    /// Log-normal with the given median and normal-space `sigma`.
    pub fn log_normal(median: Nanos, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "log_normal: negative sigma");
        DistShape::LogNormal { median: median.as_ns(), sigma }.into()
    }

    /// Bounded Pareto over `[lo, hi]` with tail index `alpha`.
    pub fn bounded_pareto(lo: Nanos, hi: Nanos, alpha: f64) -> Self {
        assert!(lo < hi, "bounded_pareto: lo >= hi");
        assert!(lo.as_ns() > 0, "bounded_pareto: lo must be positive");
        assert!(alpha > 0.0, "bounded_pareto: alpha must be positive");
        DistShape::BoundedPareto { lo: lo.as_ns(), hi: hi.as_ns(), alpha }.into()
    }

    /// Weighted mixture of distributions.
    pub fn mix(branches: Vec<(f64, DurationDist)>) -> Self {
        assert!(!branches.is_empty(), "mix: empty");
        assert!(branches.iter().all(|(w, _)| *w >= 0.0), "mix: negative weight");
        assert!(branches.iter().map(|(w, _)| w).sum::<f64>() > 0.0, "mix: zero total weight");
        DistShape::Mix(branches.into_iter().map(|(w, d)| (w, d.shape)).collect()).into()
    }

    /// `rest` plus a constant `base` offset.
    pub fn shifted(base: Nanos, rest: DurationDist) -> Self {
        DistShape::Shifted { base: base.as_ns(), rest: Box::new(rest.shape) }.into()
    }

    /// The family and parameters this distribution was built from.
    pub fn shape(&self) -> &DistShape {
        &self.shape
    }

    /// [`DistShape::validate`] on the shape.
    pub fn validate(&self) -> Result<(), DistError> {
        self.shape.validate()
    }

    /// [`DistShape::lower_bound`] of the shape.
    pub fn lower_bound(&self) -> Nanos {
        self.shape.lower_bound()
    }

    /// [`DistShape::upper_bound`] of the shape.
    pub fn upper_bound(&self) -> Option<Nanos> {
        self.shape.upper_bound()
    }

    /// Draw one span; bit-identical to [`DistShape::sample`].
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> Nanos {
        self.sampler.sample(rng)
    }

    /// Draw `out.len()` spans, bit-identical to the scalar loop.
    pub fn sample_into(&self, rng: &mut SimRng, out: &mut [Nanos]) {
        self.sampler.sample_into(rng, out)
    }

    /// The guarded kernel and libm expression of a bounded-Pareto tail (bare
    /// or shifted, tabled or not) or of an exponential; `None` for other
    /// shapes.
    pub fn guarded_arm(&self) -> Option<GuardedArm<'_>> {
        match &self.sampler {
            Sampler::Pareto { tail: ParetoTail::Pow(pow), .. } => {
                Some(GuardedArm(Arm::Pareto(pow)))
            }
            Sampler::Pareto { tail: ParetoTail::Table(table), .. } => Some(table.guarded_arm()),
            Sampler::Exponential(exp) => Some(GuardedArm(Arm::Exponential(exp))),
            _ => None,
        }
    }

    /// Every wide bounded-Pareto tail (as a bare shape) and every
    /// exponential this process has compiled: the shapes the guarded
    /// kernels serve besides the narrow tails'
    /// [`ParetoTable::interned_tables`].
    pub fn guarded_shapes() -> Vec<DistShape> {
        let seen = SERVED.lock().unwrap_or_else(PoisonError::into_inner);
        seen.iter()
            .map(|s| match *s {
                Served::Pareto(lo, hi, alpha) => {
                    DistShape::BoundedPareto { lo, hi, alpha: f64::from_bits(alpha) }
                }
                Served::Exponential(mean) => DistShape::Exponential { mean },
            })
            .collect()
    }

    /// The shared lookup table of a bounded-Pareto tail (bare or shifted),
    /// if its span got one.
    pub fn pareto_table(&self) -> Option<&Arc<ParetoTable>> {
        match &self.sampler {
            Sampler::Pareto { tail: ParetoTail::Table(table), .. } => Some(table),
            _ => None,
        }
    }

    /// A clone: every `DurationDist` is compiled when it is built. Kept
    /// because the benchmark's distribution probe calls it.
    pub fn prepare(&self) -> Self {
        self.clone()
    }
}

impl From<DistShape> for DurationDist {
    /// Compile a shape. Never panics, even on a shape
    /// [`DistShape::validate`] rejects; sampling such a shape may.
    fn from(shape: DistShape) -> Self {
        let sampler = Sampler::compile(&shape);
        DurationDist { shape, sampler }
    }
}

impl std::fmt::Debug for DurationDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.shape.fmt(f)
    }
}

/// The sampler is a pure function of the shape.
impl PartialEq for DurationDist {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
    }
}

impl Serialize for DurationDist {
    fn to_value(&self) -> serde::Value {
        self.shape.to_value()
    }
}

impl Deserialize for DurationDist {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        DistShape::from_value(v).map(DurationDist::from)
    }
}

/// Chunk size for batched refills: small enough to live on the stack, large
/// enough to amortize moving the RNG state in and out of registers.
const DRAW_BATCH: usize = 32;

/// `SimRng::f64` of a 53-bit draw.
#[inline]
fn unit(draw: u64) -> f64 {
    draw as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Build-time bounded-Pareto constants — the same values
/// [`DistShape::sample`] computes per draw, resolved once when the
/// distribution is compiled — and the shared `y^(-1/α)` kernel, if `α` and
/// the bounds got one.
#[derive(Debug, Clone, PartialEq)]
struct ParetoPow {
    lo: f64,
    hi: f64,
    la: f64,
    ha: f64,
    neg_inv_alpha: f64,
    kernel: Option<Arc<NegPow>>,
}

impl ParetoPow {
    fn new(lo: u64, hi: u64, alpha: f64) -> Self {
        let (la, ha) = ((lo as f64).powf(-alpha), (hi as f64).powf(-alpha));
        // Every `y` then lies in [hi^-α, lo^-α] ⊂ [2⁻¹⁰²², 1], where the
        // kernel's tables and error bound hold; anything else runs libm.
        let bounded = 0 < lo && lo < hi && ha >= f64::MIN_POSITIVE && la <= 1.0;
        ParetoPow {
            lo: lo as f64,
            hi: hi as f64,
            la,
            ha,
            neg_inv_alpha: -1.0 / alpha,
            kernel: if bounded { NegPow::interned(alpha) } else { None },
        }
    }

    /// `(1−u)·lo^-α + u·hi^-α` at one 53-bit draw (`next_u64() >> 11`), as
    /// [`DistShape::sample`] computes it.
    #[inline]
    fn y(&self, draw: u64) -> f64 {
        let u = unit(draw);
        (1.0 - u) * self.la + u * self.ha
    }

    /// The sampler's answer: the kernel's where it settles, else libm's.
    #[inline]
    fn tail_ns(&self, draw: u64) -> u64 {
        let y = self.y(draw);
        match self.kernel.as_deref().and_then(|k| k.ns(y, self.lo, self.hi)) {
            Some(ns) => ns,
            None => self.libm_at(y),
        }
    }

    /// The inverse-CDF expression of [`DistShape::sample`] at one 53-bit
    /// draw.
    fn libm_ns(&self, draw: u64) -> u64 {
        self.libm_at(self.y(draw))
    }

    #[cold]
    #[inline(never)]
    fn libm_at(&self, y: f64) -> u64 {
        round_ns(y.powf(self.neg_inv_alpha).clamp(self.lo, self.hi))
    }
}

/// A compiled exponential: `−ln u · mean` through the guarded kernel, with
/// the libm expression of [`DistShape::sample`] behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExpGap(NegLn);

impl ExpGap {
    #[inline]
    fn ns(&self, u: f64) -> u64 {
        match self.0.ns(u) {
            Some(ns) => ns,
            None => self.libm_at(u),
        }
    }

    #[cold]
    #[inline(never)]
    fn libm_at(&self, u: f64) -> u64 {
        round_ns(-(u.ln()) * self.0.mean())
    }
}

/// A compiled arm that answers through a guarded kernel
/// ([`crate::fastmath`]) and falls back to the libm expression of
/// [`DistShape::sample`]: a bounded-Pareto tail (bare or shifted, tabled or
/// not; the shift is not added) or an exponential.
#[derive(Debug, Clone, Copy)]
pub struct GuardedArm<'a>(Arm<'a>);

#[derive(Debug, Clone, Copy)]
enum Arm<'a> {
    Pareto(&'a ParetoPow),
    Exponential(&'a ExpGap),
}

impl GuardedArm<'_> {
    /// Whether a kernel was built; without one every draw runs libm (an
    /// invalid or extreme `α`, or a subnormal `hi^-α`).
    pub fn has_kernel(&self) -> bool {
        match self.0 {
            Arm::Pareto(pow) => pow.kernel.is_some(),
            Arm::Exponential(_) => true,
        }
    }

    /// The kernel's answer at a 53-bit draw (`next_u64() >> 11`), or `None`
    /// where the sampler runs libm instead.
    pub fn kernel(&self, draw: u64) -> Option<u64> {
        match self.0 {
            Arm::Pareto(pow) => pow.kernel.as_deref()?.ns(pow.y(draw), pow.lo, pow.hi),
            Arm::Exponential(exp) => exp.0.ns(1.0 - unit(draw)),
        }
    }

    /// The libm expression of [`DistShape::sample`] at the same draw.
    pub fn libm(&self, draw: u64) -> u64 {
        match self.0 {
            Arm::Pareto(pow) => pow.libm_ns(draw),
            Arm::Exponential(exp) => exp.libm_at(1.0 - unit(draw)),
        }
    }
}

/// Widest `hi − lo` that gets a [`ParetoTable`]: one step per integer, so
/// at most 32 KiB of steps plus the 8 KiB index.
const TABLE_MAX_SPAN: u64 = 4096;
/// A draw this many grid points (of 2⁵³) or more from every step gets the
/// table's answer; nearer draws recompute through `pow`.
const GUARD: u64 = 1 << 24;
/// The index splits the 53-bit draw range into 2¹² buckets of 2⁴¹ draws.
const BUCKET_SHIFT: u32 = 41;
const BUCKETS: usize = 1 << (53 - BUCKET_SHIFT);
/// Index flag: the bucket holds a step, and the low bits say where to
/// start walking `steps` instead of giving the answer.
const DIRTY: u16 = 1 << 15;
/// Steps a dirty bucket may walk before the draw falls back to `pow`.
const MAX_WALK: usize = 8;

/// Exact inverse-CDF lookup for an integer-narrow bounded Pareto
/// (`hi − lo ≤ 4096`).
///
/// The rounded sample is a step function of the draw. `steps[j]` is the
/// closed-form draw at which it first reaches `lo + j + 1`, computed from the
/// same `lo^-α` and `hi^-α` the `pow` path uses. A draw at least 2²⁴ grid
/// points from every step is answered from the table; the rest, and
/// dense stretches past an 8-step walk, run the `pow` expression unchanged.
/// The `pow` path can only disagree with the closed form within a few grid
/// points of a step, so both answers are the same bits; the build checks the
/// `pow` path at both guarded ends of every value's interval and keeps no
/// table if one differs. See `docs/MODELING.md` §10.
///
/// Tables are immutable and interned per process: every distribution
/// compiled with the same `(lo, hi, α)` shares one [`Arc`].
pub struct ParetoTable {
    /// Per bucket: the answer's offset from `lo`, or `DIRTY |` the number of
    /// steps at least `GUARD` below the bucket. Inline, so a draw reaches
    /// its entry through the one `Arc` pointer.
    index: [u16; BUCKETS],
    lo: u64,
    hi: u64,
    alpha: f64,
    pow: ParetoPow,
    steps: Box<[u64]>,
}

/// `(lo, hi, α bits)`.
type TableKey = (u64, u64, u64);

/// Every table built in this process; `None` records a build that failed its
/// check, so it is not retried.
static TABLES: Mutex<BTreeMap<TableKey, Option<Arc<ParetoTable>>>> = Mutex::new(BTreeMap::new());

impl ParetoTable {
    /// The shared table for these parameters, built on first use. `None` for
    /// spans wider than 4096 ns, for parameters [`DistShape::validate`]
    /// rejects, and if the build's own check against `pow` fails.
    fn interned(lo: u64, hi: u64, alpha: f64) -> Option<Arc<ParetoTable>> {
        if !(lo > 0 && lo < hi && hi - lo <= TABLE_MAX_SPAN && alpha.is_finite() && alpha > 0.0) {
            return None;
        }
        // A panicking build inserts nothing, so a poisoned map is still whole.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        tables
            .entry((lo, hi, alpha.to_bits()))
            .or_insert_with(|| ParetoTable::build(lo, hi, alpha).map(Arc::new))
            .clone()
    }

    /// Every table this process has built so far.
    pub fn interned_tables() -> Vec<Arc<ParetoTable>> {
        let tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        tables.values().flatten().cloned().collect()
    }

    fn build(lo: u64, hi: u64, alpha: f64) -> Option<ParetoTable> {
        let pow = ParetoPow::new(lo, hi, alpha);
        let scale = (1u64 << 53) as f64;
        let mut steps = Vec::with_capacity((hi - lo) as usize);
        for value in lo..hi {
            let u = (pow.la - (value as f64 + 0.5).powf(-alpha)) / (pow.la - pow.ha);
            if !(0.0..1.0).contains(&u) {
                return None;
            }
            steps.push((u * scale).ceil() as u64);
        }
        if steps.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let mut index = [0u16; BUCKETS];
        for (b, entry) in (0u64..).zip(index.iter_mut()) {
            let (first, last) = (b << BUCKET_SHIFT, ((b + 1) << BUCKET_SHIFT) - 1);
            let below = steps.partition_point(|&t| t + GUARD <= first);
            let near = steps.partition_point(|&t| t < last + GUARD);
            *entry = below as u16 | if near > below { DIRTY } else { 0 };
        }
        let table = ParetoTable { index, lo, hi, alpha, pow, steps: steps.into() };
        // Every value's guarded interval must open and close on it.
        let n = table.steps.len();
        for i in 0..=n {
            let first = if i == 0 { 0 } else { table.steps[i - 1] + GUARD };
            let last = match table.steps.get(i) {
                Some(&t) => match t.checked_sub(GUARD) {
                    Some(last) => last,
                    None => continue,
                },
                None => (1u64 << 53) - 1,
            };
            if first <= last
                && (table.pow_path(first) != lo + i as u64 || table.pow_path(last) != lo + i as u64)
            {
                return None;
            }
        }
        Some(table)
    }

    /// Lower bound of the tail (ns).
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// `steps()[j]` is the 53-bit draw at which the rounded sample first
    /// reaches `lo + j + 1`.
    pub fn steps(&self) -> &[u64] {
        &self.steps
    }

    /// The table's answer for a 53-bit draw (`next_u64() >> 11`), or `None`
    /// where the sampler falls back to [`ParetoTable::pow_path`].
    #[inline]
    pub fn lookup(&self, draw: u64) -> Option<u64> {
        let entry = self.index[(draw >> BUCKET_SHIFT) as usize];
        if entry & DIRTY == 0 {
            return Some(self.lo + entry as u64);
        }
        let mut i = (entry & !DIRTY) as usize;
        for _ in 0..MAX_WALK {
            match self.steps.get(i) {
                Some(&t) if t <= draw => i += 1,
                _ => break,
            }
        }
        // A step still at or below the draw means the walk ran out.
        let clear_above = self.steps.get(i).is_none_or(|&t| t >= draw + GUARD);
        let clear_below = i == 0 || draw >= self.steps[i - 1] + GUARD;
        (clear_above && clear_below).then_some(self.lo + i as u64)
    }

    /// The `pow` expression of [`DistShape::sample`] at a 53-bit draw.
    pub fn pow_path(&self, draw: u64) -> u64 {
        self.pow.libm_ns(draw)
    }

    /// The guarded kernel behind the near-step fallback.
    pub fn guarded_arm(&self) -> GuardedArm<'_> {
        GuardedArm(Arm::Pareto(&self.pow))
    }

    /// The sampler's answer: a clean bucket's inline, the rest out of line.
    #[inline]
    fn tail_ns(&self, draw: u64) -> u64 {
        let entry = self.index[(draw >> BUCKET_SHIFT) as usize];
        if entry & DIRTY == 0 {
            return self.lo + entry as u64;
        }
        self.tail_ns_near_step(draw)
    }

    /// Near a step the kernel, then libm, answers.
    #[inline(never)]
    fn tail_ns_near_step(&self, draw: u64) -> u64 {
        self.lookup(draw).unwrap_or_else(|| self.pow.tail_ns(draw))
    }
}

impl std::fmt::Debug for ParetoTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParetoTable")
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

/// A table is a pure function of its parameters.
impl PartialEq for ParetoTable {
    fn eq(&self, other: &Self) -> bool {
        (self.lo, self.hi, self.alpha.to_bits()) == (other.lo, other.hi, other.alpha.to_bits())
    }
}

/// The bounded-Pareto tail of a compiled distribution: the shared lookup
/// table when the span is narrow, else the `pow` expression alone.
#[derive(Debug, Clone, PartialEq)]
enum ParetoTail {
    Pow(ParetoPow),
    Table(Arc<ParetoTable>),
}

impl ParetoTail {
    fn new(lo: u64, hi: u64, alpha: f64) -> Self {
        match ParetoTable::interned(lo, hi, alpha) {
            Some(table) => ParetoTail::Table(table),
            None => {
                served(Served::Pareto(lo, hi, alpha.to_bits()));
                ParetoTail::Pow(ParetoPow::new(lo, hi, alpha))
            }
        }
    }

    /// One raw `next_u64` draw to a rounded tail sample.
    #[inline]
    fn tail_ns(&self, bits: u64) -> u64 {
        match self {
            ParetoTail::Table(table) => table.tail_ns(bits >> 11),
            ParetoTail::Pow(pow) => pow.tail_ns(bits >> 11),
        }
    }
}

/// An untabled bounded-Pareto tail `(lo, hi, α bits)` or an exponential's
/// mean, as compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Served {
    Pareto(u64, u64, u64),
    Exponential(u64),
}

/// Every [`Served`] shape compiled in this process, for
/// [`DurationDist::guarded_shapes`].
static SERVED: Mutex<BTreeSet<Served>> = Mutex::new(BTreeSet::new());

fn served(s: Served) {
    SERVED.lock().unwrap_or_else(PoisonError::into_inner).insert(s);
}

/// The compiled form of a [`DistShape`] that [`DurationDist`] samples from.
#[derive(Debug, Clone, PartialEq)]
enum Sampler {
    Constant(u64),
    Uniform { lo: u64, hi: u64 },
    Exponential(ExpGap),
    /// `base + bounded-Pareto tail` — covers both a bare bounded Pareto
    /// (`base == 0`) and the `Shifted + BoundedPareto` shape of every kernel
    /// path cost.
    Pareto { base: u64, tail: ParetoTail },
    LogNormal { median: f64, sigma: f64 },
    /// Weighted mixture over compiled branches, with the per-draw weight
    /// re-summation hoisted to compile time.
    Mix { total: f64, branches: Vec<(f64, Sampler)> },
    /// Constant offset over a compiled rest (non-Pareto shapes only; the
    /// Pareto shape fuses into the arm above).
    Shifted { base: u64, rest: Box<Sampler> },
}

impl Sampler {
    fn compile(shape: &DistShape) -> Self {
        match shape {
            DistShape::Constant(ns) => Sampler::Constant(*ns),
            DistShape::Uniform { lo, hi } => Sampler::Uniform { lo: *lo, hi: *hi },
            DistShape::Exponential { mean } => {
                served(Served::Exponential(*mean));
                Sampler::Exponential(ExpGap(NegLn::new(*mean as f64)))
            }
            DistShape::BoundedPareto { lo, hi, alpha } => {
                Sampler::Pareto { base: 0, tail: ParetoTail::new(*lo, *hi, *alpha) }
            }
            DistShape::LogNormal { median, sigma } => {
                Sampler::LogNormal { median: *median as f64, sigma: *sigma }
            }
            DistShape::Shifted { base, rest } => match rest.as_ref() {
                // The shape of every kernel path cost: fixed floor plus a
                // bounded heavy tail. One fused arm, zero dispatch depth.
                DistShape::BoundedPareto { lo, hi, alpha } => {
                    Sampler::Pareto { base: *base, tail: ParetoTail::new(*lo, *hi, *alpha) }
                }
                _ => Sampler::Shifted { base: *base, rest: Box::new(Sampler::compile(rest)) },
            },
            DistShape::Mix(branches) => {
                // The reference sampler re-sums the weights per draw; summing
                // in the same left-to-right order here yields the exact same
                // f64, so branch selection against it is bit-identical.
                let total: f64 = branches.iter().map(|(w, _)| w).sum();
                Sampler::Mix {
                    total,
                    branches: branches.iter().map(|(w, d)| (*w, Sampler::compile(d))).collect(),
                }
            }
        }
    }

    #[inline]
    fn sample(&self, rng: &mut SimRng) -> Nanos {
        // A tabled tail is most kernel-cost draws; its table hit is small
        // enough to inline at every call site.
        if let Sampler::Pareto { base, tail: ParetoTail::Table(table) } = self {
            return Nanos(base + table.tail_ns(rng.next_u64() >> 11));
        }
        self.sample_untabled(rng)
    }

    #[inline(never)]
    fn sample_untabled(&self, rng: &mut SimRng) -> Nanos {
        match self {
            Sampler::Pareto { base, tail } => Nanos(base + tail.tail_ns(rng.next_u64())),
            Sampler::Constant(ns) => Nanos(*ns),
            Sampler::Uniform { lo, hi } => Nanos(rng.range_inclusive(*lo, *hi)),
            Sampler::Exponential(exp) => Nanos(exp.ns(rng.f64_open0())),
            Sampler::LogNormal { median, sigma } => {
                let z = sample_standard_normal(rng);
                Nanos(round_ns(median * (sigma * z).exp()))
            }
            Sampler::Mix { total, branches } => {
                let mut pick = rng.f64() * total;
                for (w, d) in branches {
                    if pick < *w {
                        return d.sample(rng);
                    }
                    pick -= w;
                }
                branches.last().expect("mix is non-empty").1.sample(rng)
            }
            Sampler::Shifted { base, rest } => Nanos(*base) + rest.sample(rng),
        }
    }

    fn sample_into(&self, rng: &mut SimRng, out: &mut [Nanos]) {
        match self {
            Sampler::Pareto { base, tail } => {
                let mut raw = [0u64; DRAW_BATCH];
                for chunk in out.chunks_mut(DRAW_BATCH) {
                    let raw = &mut raw[..chunk.len()];
                    rng.fill_u64(raw);
                    for (slot, &bits) in chunk.iter_mut().zip(raw.iter()) {
                        *slot = Nanos(base + tail.tail_ns(bits));
                    }
                }
            }
            Sampler::Shifted { base, rest } => {
                rest.sample_into(rng, out);
                let base = Nanos(*base);
                for slot in out.iter_mut() {
                    *slot = base + *slot;
                }
            }
            _ => {
                for slot in out.iter_mut() {
                    *slot = self.sample(rng);
                }
            }
        }
    }
}

/// Standard normal via Box–Muller. One draw per call; the pair's second value
/// is discarded to keep the generator state trajectory simple to reason about.
fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.f64_open0();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    fn rng() -> SimRng {
        SimRng::new(0xD15E_A5ED)
    }

    fn mean_of(d: &DurationDist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r).as_ns() as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = DurationDist::constant(Nanos(123));
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), Nanos(123));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = DurationDist::uniform(Nanos(10), Nanos(20));
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((10..=20).contains(&v.as_ns()));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let d = DurationDist::exponential(Nanos(1_000));
        let m = mean_of(&d, 200_000);
        assert!((m - 1_000.0).abs() < 20.0, "mean {m}");
    }

    #[test]
    fn log_normal_median_converges() {
        let d = DurationDist::log_normal(Nanos(1_000), 0.5);
        let mut r = rng();
        let mut samples: Vec<u64> = (0..100_001).map(|_| d.sample(&mut r).as_ns()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!((median - 1_000.0).abs() < 30.0, "median {median}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let d = DurationDist::bounded_pareto(Nanos(100), Nanos(10_000), 1.2);
        let mut r = rng();
        let mut hit_low_half = false;
        let mut hit_top_decade = false;
        for _ in 0..100_000 {
            let v = d.sample(&mut r).as_ns();
            assert!((100..=10_000).contains(&v), "out of bounds: {v}");
            if v < 200 {
                hit_low_half = true;
            }
            if v > 5_000 {
                hit_top_decade = true;
            }
        }
        assert!(hit_low_half, "mass should concentrate near lo");
        assert!(hit_top_decade, "tail should reach toward hi");
    }

    #[test]
    fn mix_selects_all_branches() {
        let d = DurationDist::mix(vec![
            (0.5, DurationDist::constant(Nanos(1))),
            (0.5, DurationDist::constant(Nanos(1_000_000))),
        ]);
        let mut r = rng();
        let mut small = 0usize;
        let mut big = 0usize;
        for _ in 0..10_000 {
            match d.sample(&mut r).as_ns() {
                1 => small += 1,
                1_000_000 => big += 1,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!(small > 4_000 && big > 4_000, "small={small} big={big}");
    }

    #[test]
    fn rare_mix_branch_still_fires() {
        let d = DurationDist::mix(vec![
            (0.999, DurationDist::constant(Nanos(1))),
            (0.001, DurationDist::constant(Nanos(9_999))),
        ]);
        let mut r = rng();
        let rare = (0..100_000).filter(|_| d.sample(&mut r) == Nanos(9_999)).count();
        assert!(rare > 20 && rare < 500, "rare branch count {rare}");
    }

    #[test]
    fn shifted_adds_base() {
        let d = DurationDist::shifted(Nanos(500), DurationDist::uniform(Nanos(0), Nanos(10)));
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r).as_ns();
            assert!((500..=510).contains(&v));
        }
    }

    fn pareto(lo: u64, hi: u64, alpha: f64) -> DurationDist {
        DistShape::BoundedPareto { lo, hi, alpha }.into()
    }

    #[test]
    fn validate_accepts_what_the_constructors_build() {
        for d in [
            DurationDist::constant(Nanos(0)),
            DurationDist::uniform(Nanos(7), Nanos(7)),
            DurationDist::exponential(Nanos(1)),
            DurationDist::log_normal(Nanos(10), 0.0),
            DurationDist::bounded_pareto(Nanos(1), Nanos(2), 0.5),
            DurationDist::mix(vec![
                (0.0, DurationDist::constant(Nanos(1))),
                (1.0, pareto(3, 9, 1.2)),
            ]),
            DurationDist::shifted(Nanos(5), pareto(1, 10, 1.4)),
        ] {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
        }
    }

    #[test]
    fn validate_rejects_an_inverted_pareto() {
        assert_eq!(pareto(10, 5, 1.2).validate(), Err(DistError::ParetoEmpty { lo: 10, hi: 5 }));
        assert_eq!(pareto(5, 5, 1.2).validate(), Err(DistError::ParetoEmpty { lo: 5, hi: 5 }));
    }

    #[test]
    fn validate_rejects_a_pareto_from_zero() {
        assert_eq!(pareto(0, 5, 1.2).validate(), Err(DistError::ParetoZeroLo));
    }

    #[test]
    fn validate_rejects_a_bad_pareto_alpha() {
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = pareto(1, 5, alpha).validate().unwrap_err();
            assert!(matches!(err, DistError::BadAlpha(a) if a.to_bits() == alpha.to_bits()));
        }
    }

    #[test]
    fn validate_rejects_an_inverted_uniform() {
        let d = DistShape::Uniform { lo: 9, hi: 3 };
        assert_eq!(d.validate(), Err(DistError::UniformInverted { lo: 9, hi: 3 }));
    }

    #[test]
    fn validate_rejects_a_zero_mean_exponential() {
        assert_eq!(DistShape::Exponential { mean: 0 }.validate(), Err(DistError::ZeroMean));
    }

    #[test]
    fn validate_rejects_a_bad_sigma() {
        let d = DistShape::LogNormal { median: 10, sigma: -0.5 };
        assert_eq!(d.validate(), Err(DistError::BadSigma(-0.5)));
    }

    #[test]
    fn validate_rejects_bad_mix_weights() {
        let one = || DistShape::Constant(1);
        assert_eq!(DistShape::Mix(vec![]).validate(), Err(DistError::EmptyMix));
        assert_eq!(
            DistShape::Mix(vec![(-1.0, one()), (2.0, one())]).validate(),
            Err(DistError::BadWeight(-1.0))
        );
        assert_eq!(
            DistShape::Mix(vec![(0.0, one()), (0.0, one())]).validate(),
            Err(DistError::ZeroTotalWeight)
        );
    }

    #[test]
    fn validate_recurses_into_mix_and_shifted() {
        let bad = pareto(10, 5, 1.2);
        let err = Err(DistError::ParetoEmpty { lo: 10, hi: 5 });
        let one = DurationDist::constant(Nanos(1));
        let mixed = DurationDist::mix(vec![(1.0, one), (1.0, bad.clone())]);
        assert_eq!(mixed.validate(), err);
        assert_eq!(DurationDist::shifted(Nanos(100), bad).validate(), err);
    }

    #[test]
    fn narrow_valid_paretos_get_a_shared_table() {
        let d = DurationDist::shifted(Nanos(9), pareto(1, 10, 1.4));
        let (a, b) = (d, pareto(1, 10, 1.4));
        assert!(Arc::ptr_eq(a.pareto_table().unwrap(), b.pareto_table().unwrap()));
        assert_eq!(a.pareto_table().unwrap().steps().len(), 9);
        // One value per step past `lo`, the 4096-wide edge included.
        assert_eq!(pareto(100, 4196, 1.1).pareto_table().unwrap().steps().len(), 4096);
        assert!(pareto(100, 4197, 1.1).pareto_table().is_none(), "too wide");
        assert!(DurationDist::uniform(Nanos(1), Nanos(9)).pareto_table().is_none());
    }

    #[test]
    fn invalid_paretos_get_no_table() {
        let invalid =
            [pareto(0, 5, 1.2), pareto(10, 5, 1.2), pareto(1, 5, f64::NAN), pareto(1, 5, -1.0)];
        for d in invalid {
            assert!(d.pareto_table().is_none(), "{d:?}");
        }
    }

    #[test]
    fn table_lookup_falls_back_near_every_step() {
        let t = pareto(3, 30, 1.3).pareto_table().unwrap().clone();
        for (j, &step) in t.steps().iter().enumerate() {
            assert_eq!(t.lookup(step), None);
            assert_eq!(t.lookup(step - 1), None);
            assert_eq!(t.lookup(step + GUARD - 1), None);
            assert_eq!(t.lookup(step + GUARD), Some(t.lo() + j as u64 + 1));
            assert_eq!(t.lookup(step - GUARD), Some(t.lo() + j as u64));
            assert_eq!(t.pow_path(step - GUARD), t.lo() + j as u64);
        }
        assert_eq!(t.lookup(0), Some(3));
        assert_eq!(t.lookup((1 << 53) - 1), Some(30));
    }

    #[test]
    fn bounds_reporting() {
        let d = DurationDist::mix(vec![
            (1.0, DurationDist::uniform(Nanos(5), Nanos(10))),
            (1.0, DurationDist::bounded_pareto(Nanos(2), Nanos(100), 1.0)),
        ]);
        assert_eq!(d.lower_bound(), Nanos(2));
        assert_eq!(d.upper_bound(), Some(Nanos(100)));
        let unbounded = DurationDist::exponential(Nanos(10));
        assert_eq!(unbounded.upper_bound(), None);
        let shifted = DurationDist::shifted(Nanos(3), DurationDist::constant(Nanos(4)));
        assert_eq!(shifted.lower_bound(), Nanos(7));
        assert_eq!(shifted.upper_bound(), Some(Nanos(7)));
    }
}
