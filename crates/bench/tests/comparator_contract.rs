//! The statistical contract of the paper comparator (`paper_comparator`:
//! the bootstrap quantile-dominance test, 30 rounds), pinned by seeded
//! Monte Carlo so that a faster comparison kernel cannot quietly change
//! what the comparator decides.
//!
//! Timings are drawn as `scale · (1 + E)` with `E` exponential of mean
//! 0.1 — a floor plus a right tail, the shape of run-time noise. For each
//! sample size `n`:
//! - two samples from the same distribution must come out `Equivalent`
//!   at or above a pinned rate;
//! - a sample against one scaled up by `k` must come out `Better` (the
//!   correct direction) at or above a pinned power, with `k` chosen per
//!   `n` so the power is well above chance but below 1.
//!
//! Every pin is the rate the comparator measured here minus 0.05. Over
//! 400 trials a rate near 0.8 has a binomial standard error of 0.02, so
//! the margin admits a re-seeded but statistically equivalent comparator
//! while a weakened test fails. Seeds are fixed, so the test is
//! deterministic.

use rand::prelude::*;
use relperf_bench::paper_comparator;
use relperf_measure::{Outcome, Sample, SeededThreeWayComparator};

const TRIALS: usize = 400;
/// How far below the measured rate each pin sits.
const MARGIN: f64 = 0.05;

fn timings(n: usize, scale: f64, rng: &mut StdRng) -> Sample {
    let values = (0..n)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            scale * (1.0 - 0.1 * (1.0 - u).ln())
        })
        .collect();
    Sample::new(values).unwrap()
}

/// Share of `TRIALS` comparisons of a baseline sample against one scaled
/// by `1 + shift` that come out `expected`.
fn rate(n: usize, shift: f64, expected: Outcome, seed: u64) -> f64 {
    let cmp = paper_comparator(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let hits = (0..TRIALS)
        .filter(|&t| {
            let a = timings(n, 1.0, &mut rng);
            let b = timings(n, 1.0 + shift, &mut rng);
            cmp.compare_seeded(&a, &b, t as u64) == expected
        })
        .count();
    hits as f64 / TRIALS as f64
}

#[test]
fn identical_distributions_come_out_equivalent() {
    // (n, measured Equivalent rate)
    for (n, measured) in [(5, 0.7425), (30, 0.97), (100, 0.9975)] {
        let got = rate(n, 0.0, Outcome::Equivalent, 0xE0 + n as u64);
        let pin = measured - MARGIN;
        assert!(
            got >= pin,
            "n={n}: Equivalent rate {got} below the pin {pin} (measured {measured})"
        );
    }
}

#[test]
fn a_shift_is_detected_in_the_right_direction() {
    // (n, shift k, measured power)
    for (n, shift, measured) in [(5, 0.10, 0.82), (30, 0.05, 0.805), (100, 0.04, 0.875)] {
        let got = rate(n, shift, Outcome::Better, 0x5F + n as u64);
        let pin = measured - MARGIN;
        assert!(
            got >= pin,
            "n={n}, k={shift}: power {got} below the pin {pin} (measured {measured})"
        );
    }
}
