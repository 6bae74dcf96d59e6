//! Shared traffic-shape helper: an ON/OFF modulated Poisson process.
//!
//! The paper's background loads are bursty on a seconds scale (an `scp` in a
//! shell loop, X11perf batches, ttcp streams): phases of heavy interrupt
//! traffic separated by quiet gaps. That burstiness — not the average rate —
//! is what makes the determinism figures *spread* instead of clustering at a
//! constant offset, so the generators model it explicitly.

use serde::{Deserialize, Serialize};
use simcore::{DurationDist, Nanos, SimRng};

/// An interrupt-arrival process that alternates ON and OFF phases; arrivals
/// are Poisson with the given mean gap while ON.
///
/// ```
/// use simcore::{Nanos, SimRng};
/// use sp_kernel::devices::OnOffPoisson;
///
/// // ~2 kHz while a copy is in flight, quiet between copies.
/// let scp_like = OnOffPoisson::bursty(2_000, Nanos::from_secs(2), Nanos::from_secs(1));
/// let mut rng = SimRng::new(1);
/// let avg = scp_like.average_rate_hz(&mut rng);
/// assert!(avg > 1_000.0 && avg < 2_000.0); // duty-cycled
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnOffPoisson {
    /// Mean gap between interrupts during an ON phase.
    pub gap: DurationDist,
    /// ON phase length.
    pub on_len: DurationDist,
    /// OFF phase length.
    pub off_len: DurationDist,
}

impl OnOffPoisson {
    /// A process that is always on.
    pub fn continuous(mean_gap: Nanos) -> Self {
        OnOffPoisson {
            gap: DurationDist::exponential(mean_gap),
            on_len: DurationDist::constant(Nanos::from_secs(3600)),
            off_len: DurationDist::constant(Nanos(1)),
        }
    }

    /// A bursty process: `rate_hz` arrivals/s while ON, with the given mean
    /// phase lengths (both exponential).
    pub fn bursty(rate_hz: u64, on_mean: Nanos, off_mean: Nanos) -> Self {
        assert!(rate_hz > 0);
        OnOffPoisson {
            gap: DurationDist::exponential(Nanos(1_000_000_000 / rate_hz)),
            on_len: DurationDist::exponential(on_mean),
            off_len: DurationDist::exponential(off_mean),
        }
    }

    /// Check a profile that arrived without the constructors' asserts (a
    /// scenario file): each distribution must be valid and must not always
    /// draw 0 ns, which would repeat one arrival or phase flip at the same
    /// instant forever.
    pub fn validate(&self) -> Result<(), String> {
        for (name, d) in [("gap", &self.gap), ("on_len", &self.on_len), ("off_len", &self.off_len)]
        {
            d.validate().map_err(|e| format!("{name}: {e}"))?;
            if d.upper_bound() == Some(Nanos::ZERO) {
                return Err(format!("{name} is always 0 ns"));
            }
        }
        Ok(())
    }

    /// Long-run average arrival rate in Hz.
    pub fn average_rate_hz(&self, rng: &mut SimRng) -> f64 {
        // Estimate by sampling; used only by tests and reports.
        let n = 10_000;
        let mut mean = |d: &DurationDist| {
            (0..n).map(|_| d.sample(rng).as_ns() as f64).sum::<f64>() / n as f64
        };
        let gap = mean(&self.gap);
        let on = mean(&self.on_len);
        let off = mean(&self.off_len);
        let duty = on / (on + off);
        duty * 1e9 / gap
    }
}

/// Driver state for an [`OnOffPoisson`] process inside a device.
#[derive(Debug, Clone, Default)]
pub struct OnOffState {
    pub on: bool,
}

impl OnOffState {
    /// Length of the next phase after flipping.
    pub fn flip(&mut self, profile: &OnOffPoisson, rng: &mut SimRng) -> Nanos {
        self.on = !self.on;
        if self.on {
            profile.on_len.sample(rng)
        } else {
            profile.off_len.sample(rng)
        }
    }

    pub fn next_gap(&self, profile: &OnOffPoisson, rng: &mut SimRng) -> Nanos {
        profile.gap.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_rate_matches_gap() {
        let p = OnOffPoisson::continuous(Nanos::from_ms(1));
        let mut rng = SimRng::new(1);
        let rate = p.average_rate_hz(&mut rng);
        assert!((rate - 1000.0).abs() < 50.0, "rate {rate}");
    }

    #[test]
    fn bursty_duty_cycle_scales_rate() {
        // 1000 Hz while ON, ON half the time -> ~500 Hz average.
        let p = OnOffPoisson::bursty(1000, Nanos::from_secs(2), Nanos::from_secs(2));
        let mut rng = SimRng::new(2);
        let rate = p.average_rate_hz(&mut rng);
        assert!((rate - 500.0).abs() < 60.0, "rate {rate}");
    }

    #[test]
    fn validate_rejects_invalid_and_zero_length_draws() {
        assert_eq!(OnOffPoisson::continuous(Nanos::from_ms(1)).validate(), Ok(()));
        let mut p = OnOffPoisson::continuous(Nanos::from_ms(1));
        p.off_len = DurationDist::constant(Nanos::ZERO);
        assert_eq!(p.validate(), Err("off_len is always 0 ns".into()));
        p.gap = simcore::DistShape::Exponential { mean: 0 }.into();
        assert_eq!(p.validate(), Err("gap: exponential mean is zero".into()));
    }

    #[test]
    fn state_flips() {
        let p = OnOffPoisson::bursty(100, Nanos::from_ms(10), Nanos::from_ms(20));
        let mut rng = SimRng::new(3);
        let mut st = OnOffState::default();
        assert!(!st.on);
        st.flip(&p, &mut rng);
        assert!(st.on);
        st.flip(&p, &mut rng);
        assert!(!st.on);
    }
}
