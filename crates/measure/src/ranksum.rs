//! Mann–Whitney U (Wilcoxon rank-sum) three-way comparator.
//!
//! A classical nonparametric alternative to the bootstrap comparator of
//! the paper's Sec. III,
//! used by the ablation experiments: two samples are "equivalent" unless
//! the rank-sum statistic rejects equality *and* the median shift exceeds
//! a practical-significance margin (a pure significance test would call
//! any microscopic-but-consistent difference "better", which is not what
//! performance classes mean).

use crate::compare::{Outcome, ThreeWayComparator};
use crate::sample::Sample;

/// Mann–Whitney U comparator with a normal approximation (appropriate for
/// the `N ≥ 20` regimes of the paper) and a relative effect-size margin.
#[derive(Debug, Clone, PartialEq)]
pub struct MannWhitneyComparator {
    /// Two-sided significance level, e.g. `0.05`.
    pub alpha: f64,
    /// Minimum relative median shift for practical significance.
    pub min_effect: f64,
}

impl MannWhitneyComparator {
    /// Creates a comparator with the given significance level and a 1%
    /// minimum effect.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0, 1)");
        MannWhitneyComparator {
            alpha,
            min_effect: 0.01,
        }
    }

    /// The standard-normal critical value for the two-sided level.
    fn z_crit(&self) -> f64 {
        // Inverse normal CDF via Acklam's rational approximation on the
        // upper tail; adequate for significance thresholds.
        inverse_normal_cdf(1.0 - self.alpha / 2.0)
    }
}

/// Computes the Mann–Whitney U statistic of `a` against `b` with average
/// ranks for ties. Returns `(u_a, n_a, n_b, tie_correction)`.
pub fn mann_whitney_u(a: &Sample, b: &Sample) -> (f64, usize, usize, f64) {
    let na = a.len();
    let nb = b.len();
    // One merged pass over the two sorted views — O(na + nb), no pooled
    // copy; tie groups carry their average pooled rank, so the order
    // within ties is irrelevant.
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    crate::merge::merge_tie_groups(a.sorted(), b.sorted(), |g| {
        rank_sum_a += g.average_rank() * g.count_a as f64;
        let count = g.count() as f64;
        tie_term += count * count * count - count;
    });
    let u_a = rank_sum_a - (na * (na + 1)) as f64 / 2.0;
    (u_a, na, nb, tie_term)
}

/// Two-sided z-statistic of the U test (0 when variance degenerates, e.g.
/// all observations tied).
pub fn mann_whitney_z(a: &Sample, b: &Sample) -> f64 {
    let (u, na, nb, tie_term) = mann_whitney_u(a, b);
    let n = (na + nb) as f64;
    let mean_u = (na * nb) as f64 / 2.0;
    let var_u = (na * nb) as f64 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var_u <= 0.0 {
        return 0.0;
    }
    (u - mean_u) / var_u.sqrt()
}

impl ThreeWayComparator for MannWhitneyComparator {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        let z = mann_whitney_z(a, b);
        let ma = a.median();
        let mb = b.median();
        let scale = ma.abs().min(mb.abs()).max(f64::MIN_POSITIVE);
        let effect = (ma - mb).abs() / scale;
        if z.abs() <= self.z_crit() || effect < self.min_effect {
            return Outcome::Equivalent;
        }
        // U_a counts pairs where a's observations exceed b's — larger U_a
        // (positive z) means a tends to be LARGER, i.e. slower.
        if z > 0.0 {
            Outcome::Worse
        } else {
            Outcome::Better
        }
    }
}

impl crate::compare::SeededThreeWayComparator for MannWhitneyComparator {
    /// Deterministic comparator: the stream id is irrelevant.
    fn compare_seeded(&self, a: &Sample, b: &Sample, _stream: u64) -> Outcome {
        self.compare(a, b)
    }
}

impl crate::compare::ScratchThreeWayComparator for MannWhitneyComparator {
    /// Deterministic and allocation-free — the pooled ranking is one
    /// merge walk over the cached sorted views.
    type Scratch = ();

    fn new_scratch(&self) {}

    fn compare_seeded_scratch(
        &self,
        (): &mut (),
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        use crate::compare::SeededThreeWayComparator;
        self.compare_seeded(a, b, stream)
    }
}

/// Inverse of the standard normal CDF (Acklam's algorithm, |ε| < 1.15e-9).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn noisy(center: f64, spread: f64, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        Sample::new(
            (0..n)
                .map(|_| center + rng.random_range(-spread..spread))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn inverse_normal_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn inverse_normal_rejects_bounds() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn u_statistic_known_case() {
        // a = {1,2}, b = {3,4}: every b beats every a → U_a = 0.
        let a = Sample::new(vec![1.0, 2.0]).unwrap();
        let b = Sample::new(vec![3.0, 4.0]).unwrap();
        let (u, na, nb, ties) = mann_whitney_u(&a, &b);
        assert_eq!(u, 0.0);
        assert_eq!((na, nb), (2, 2));
        assert_eq!(ties, 0.0);
        // Flipped: U_b = n_a·n_b = 4.
        let (u_b, ..) = mann_whitney_u(&b, &a);
        assert_eq!(u_b, 4.0);
    }

    #[test]
    fn ties_get_average_ranks() {
        let a = Sample::new(vec![1.0, 2.0]).unwrap();
        let b = Sample::new(vec![2.0, 3.0]).unwrap();
        let (u, .., ties) = mann_whitney_u(&a, &b);
        // ranks: 1, (2.5, 2.5), 4 → rank_sum_a = 3.5 → U_a = 0.5.
        assert_eq!(u, 0.5);
        assert!(ties > 0.0);
    }

    #[test]
    fn comparator_separated_samples() {
        let cmp = MannWhitneyComparator::new(0.05);
        let fast = noisy(1.0, 0.05, 30, 1);
        let slow = noisy(1.5, 0.05, 30, 2);
        assert_eq!(cmp.compare(&fast, &slow), Outcome::Better);
        assert_eq!(cmp.compare(&slow, &fast), Outcome::Worse);
    }

    #[test]
    fn comparator_identical_center_equivalent() {
        let cmp = MannWhitneyComparator::new(0.05);
        let a = noisy(1.0, 0.1, 30, 3);
        let b = noisy(1.0, 0.1, 30, 4);
        assert_eq!(cmp.compare(&a, &b), Outcome::Equivalent);
    }

    #[test]
    fn tiny_consistent_shift_is_practically_equivalent() {
        // A 0.2% shift is statistically detectable at N=200 but falls under
        // the practical margin.
        let a = noisy(1.000, 0.001, 200, 5);
        let b = Sample::new(a.values().iter().map(|v| v * 1.002).collect()).unwrap();
        let cmp = MannWhitneyComparator::new(0.05);
        assert_eq!(cmp.compare(&a, &b), Outcome::Equivalent);
        // Without the margin the same pair separates.
        let strict = MannWhitneyComparator {
            alpha: 0.05,
            min_effect: 0.0,
        };
        assert_eq!(strict.compare(&a, &b), Outcome::Better);
    }

    #[test]
    fn degenerate_all_tied() {
        let a = Sample::new(vec![2.0; 10]).unwrap();
        let cmp = MannWhitneyComparator::new(0.05);
        assert_eq!(cmp.compare(&a, &a), Outcome::Equivalent);
        assert_eq!(mann_whitney_z(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha in")]
    fn rejects_bad_alpha() {
        MannWhitneyComparator::new(1.5);
    }
}
