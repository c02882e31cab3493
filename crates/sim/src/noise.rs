//! Measurement-noise distributions, implemented from scratch.
//!
//! Performance measurements "are usually influenced by many factors, and …
//! repeated measurements often result in different numbers" (paper, Sec. I,
//! citing Peise & Bientinesi and Hoefler et al.). The simulator reproduces
//! that variability with multiplicative noise on execution times. The
//! methodology explicitly makes *no* assumption about the statistical shape
//! of the noise, so several qualitatively different models are provided.
//!
//! All samplers are built directly on a [`rand::Rng`]: Gaussian via
//! Box–Muller, log-normal via `exp(Gaussian)`, Pareto via inverse-CDF.

use rand::Rng;

/// A multiplicative noise model for execution times.
///
/// Sampling returns a factor `≥ MIN_FACTOR` that the noise-free time is
/// multiplied by. A factor of 1.0 means "no perturbation".
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseModel {
    /// No noise: every sample is exactly 1.0.
    None,
    /// Gaussian with mean 1 and the given relative standard deviation.
    Gaussian {
        /// Relative standard deviation (e.g. 0.05 = 5% jitter).
        std_frac: f64,
    },
    /// Log-normal: `exp(N(0, sigma))`, right-skewed like real timing data.
    LogNormal {
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Gaussian body plus occasional Pareto-tailed slowdown spikes — the
    /// "system noise" shape of interference from other processes.
    GaussianWithSpikes {
        /// Relative standard deviation of the Gaussian body.
        std_frac: f64,
        /// Probability of a spike per sample.
        spike_prob: f64,
        /// Pareto tail index of the spike magnitude (larger = lighter tail).
        spike_alpha: f64,
        /// Spike scale: a spike multiplies time by `1 + scale·(pareto−1)`.
        spike_scale: f64,
    },
    /// Two-component mixture, e.g. a bimodal distribution from frequency
    /// scaling: with probability `p` sample the first model, else the second.
    Mixture {
        /// Probability of the first component.
        p: f64,
        /// First component.
        a: Box<NoiseModel>,
        /// Second component.
        b: Box<NoiseModel>,
    },
}

/// Smallest factor a noise model may return; keeps simulated times positive.
pub const MIN_FACTOR: f64 = 0.05;

/// Draws one standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.random_range(0.0..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws one Pareto(α, xm=1) variate via inverse-CDF sampling; always ≥ 1.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> f64 {
    assert!(alpha > 0.0, "pareto index must be positive");
    let u: f64 = 1.0 - rng.random_range(0.0..1.0); // (0, 1]
    u.powf(-1.0 / alpha)
}

impl NoiseModel {
    /// Samples one multiplicative factor.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let factor = match self {
            NoiseModel::None => 1.0,
            NoiseModel::Gaussian { std_frac } => 1.0 + std_frac * standard_normal(rng),
            NoiseModel::LogNormal { sigma } => (sigma * standard_normal(rng)).exp(),
            NoiseModel::GaussianWithSpikes {
                std_frac,
                spike_prob,
                spike_alpha,
                spike_scale,
            } => {
                let mut f = 1.0 + std_frac * standard_normal(rng);
                if rng.random_range(0.0..1.0) < *spike_prob {
                    f += spike_scale * (pareto(rng, *spike_alpha) - 1.0);
                }
                f
            }
            NoiseModel::Mixture { p, a, b } => {
                if rng.random_range(0.0..1.0) < *p {
                    a.sample(rng)
                } else {
                    b.sample(rng)
                }
            }
        };
        factor.max(MIN_FACTOR)
    }

    /// Validates the model parameters, panicking on nonsense. Called by the
    /// platform constructors.
    pub fn validate(&self) {
        match self {
            NoiseModel::None => {}
            NoiseModel::Gaussian { std_frac } => {
                assert!(*std_frac >= 0.0, "gaussian std_frac must be non-negative")
            }
            NoiseModel::LogNormal { sigma } => {
                assert!(*sigma >= 0.0, "lognormal sigma must be non-negative")
            }
            NoiseModel::GaussianWithSpikes {
                std_frac,
                spike_prob,
                spike_alpha,
                spike_scale,
            } => {
                assert!(*std_frac >= 0.0, "std_frac must be non-negative");
                assert!(
                    (0.0..=1.0).contains(spike_prob),
                    "spike_prob must be a probability"
                );
                assert!(*spike_alpha > 0.0, "spike_alpha must be positive");
                assert!(*spike_scale >= 0.0, "spike_scale must be non-negative");
            }
            NoiseModel::Mixture { p, a, b } => {
                assert!((0.0..=1.0).contains(p), "mixture p must be a probability");
                a.validate();
                b.validate();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn sample_n(model: &NoiseModel, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| model.sample(&mut rng)).collect()
    }

    #[test]
    fn none_is_exactly_one() {
        assert!(sample_n(&NoiseModel::None, 10, 1).iter().all(|&f| f == 1.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_noise_centered_at_one() {
        let xs = sample_n(&NoiseModel::Gaussian { std_frac: 0.05 }, 20_000, 3);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        assert!((sd - 0.05).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn lognormal_is_right_skewed() {
        let xs = sample_n(&NoiseModel::LogNormal { sigma: 0.5 }, 20_000, 4);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "mean {mean} median {median}");
        assert!(xs.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn pareto_always_at_least_one() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!(pareto(&mut rng, 2.0) >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pareto_rejects_bad_alpha() {
        let mut rng = StdRng::seed_from_u64(6);
        pareto(&mut rng, 0.0);
    }

    #[test]
    fn spikes_create_heavy_right_tail() {
        let base = NoiseModel::Gaussian { std_frac: 0.02 };
        let spiky = NoiseModel::GaussianWithSpikes {
            std_frac: 0.02,
            spike_prob: 0.1,
            spike_alpha: 1.5,
            spike_scale: 0.5,
        };
        let xs_base = sample_n(&base, 5_000, 7);
        let xs_spiky = sample_n(&spiky, 5_000, 7);
        let max_base = xs_base.iter().cloned().fold(0.0_f64, f64::max);
        let max_spiky = xs_spiky.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max_spiky > max_base + 0.2, "{max_spiky} vs {max_base}");
    }

    #[test]
    fn mixture_draws_from_both_components() {
        let m = NoiseModel::Mixture {
            p: 0.5,
            a: Box::new(NoiseModel::None),
            b: Box::new(NoiseModel::Gaussian { std_frac: 0.2 }),
        };
        let xs = sample_n(&m, 2_000, 8);
        let ones = xs.iter().filter(|&&f| f == 1.0).count();
        assert!(ones > 500 && ones < 1_500, "ones = {ones}");
    }

    #[test]
    fn samples_never_below_min_factor() {
        let wild = NoiseModel::Gaussian { std_frac: 10.0 };
        assert!(sample_n(&wild, 5_000, 9).iter().all(|&f| f >= MIN_FACTOR));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = NoiseModel::LogNormal { sigma: 0.3 };
        assert_eq!(sample_n(&m, 50, 10), sample_n(&m, 50, 10));
    }

    #[test]
    fn validate_catches_bad_parameters() {
        assert!(std::panic::catch_unwind(|| {
            NoiseModel::Gaussian { std_frac: -1.0 }.validate()
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            NoiseModel::Mixture {
                p: 2.0,
                a: Box::new(NoiseModel::None),
                b: Box::new(NoiseModel::None),
            }
            .validate()
        })
        .is_err());
    }
}
