//! Memoization of pairwise three-way comparisons.
//!
//! One shuffled repetition of Procedure 4 runs a full bubble sort, which
//! may compare the same algorithm pair several times (a pair can become
//! adjacent again after swaps in later passes). The paper's semantics only
//! require a fresh stochastic comparison per *repetition* — within one
//! repetition, re-asking the comparator about the same pair spends
//! another comparison (for a pair whose ranges overlap, up to `reps`
//! bootstrap rounds) to re-answer a question it already answered, and a
//! stochastic comparator may even answer it differently.
//! [`ComparisonCache`] memoizes the outcome
//! per unordered pair for the duration of one repetition, enforcing
//! antisymmetry (`cmp(b, a) == cmp(a, b).invert()`) as a side effect.
//!
//! The cache is also what makes the parallel clustering deterministic: at
//! most one comparator call happens per (repetition, pair), always with
//! the pair in canonical (low, high) order, so the comparator can be
//! addressed by a pure per-pair stream id (see
//! `relperf_measure::SeededThreeWayComparator`) and the result cannot
//! depend on scheduling.

use relperf_measure::Outcome;

/// Per-repetition memo of pairwise comparison outcomes over `p` algorithms.
///
/// # Examples
///
/// ```
/// use relperf_core::cache::ComparisonCache;
/// use relperf_core::Outcome;
///
/// let mut cache = ComparisonCache::new(3);
/// let mut calls = 0;
/// let mut cmp = |a: usize, b: usize| { calls += 1; if a < b { Outcome::Better } else { Outcome::Worse } };
///
/// assert_eq!(cache.get_or_compute(0, 1, &mut cmp), Outcome::Better);
/// // The flipped query is answered from the cache, inverted.
/// assert_eq!(cache.get_or_compute(1, 0, &mut cmp), Outcome::Worse);
/// assert_eq!(calls, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ComparisonCache {
    p: usize,
    /// Outcome of `(lo, hi)` with `lo < hi`, keyed `lo * p + hi`.
    slots: Vec<Option<Outcome>>,
}

impl ComparisonCache {
    /// An empty cache for `p` algorithms.
    pub fn new(p: usize) -> Self {
        ComparisonCache {
            p,
            slots: vec![None; p * p],
        }
    }

    /// The outcome of comparing `a` against `b`, computing it with
    /// `cmp(lo, hi)` (canonical order) on a miss. Queries with `a > b`
    /// return the inverted cached outcome.
    ///
    /// # Panics
    /// Panics when `a == b` or either index is out of range.
    pub fn get_or_compute(
        &mut self,
        a: usize,
        b: usize,
        cmp: &mut impl FnMut(usize, usize) -> Outcome,
    ) -> Outcome {
        assert!(a != b, "an algorithm is not compared against itself");
        assert!(a < self.p && b < self.p, "algorithm index out of range");
        let (lo, hi, flipped) = if a < b { (a, b, false) } else { (b, a, true) };
        let slot = lo * self.p + hi;
        let outcome = match self.slots[slot] {
            Some(outcome) => outcome,
            None => {
                let outcome = cmp(lo, hi);
                self.slots[slot] = Some(outcome);
                outcome
            }
        };
        if flipped {
            outcome.invert()
        } else {
            outcome
        }
    }

    /// Forgets every cached outcome involving algorithm `alg` (any pair
    /// `(alg, _)` or `(_, alg)`), keeping the rest warm. This is the
    /// session engine's invalidation: when a measurement wave updates one
    /// algorithm's sample, only the `p − 1` pairs touching it need fresh
    /// comparisons — all other pairs' outcomes are still pure functions of
    /// unchanged inputs.
    ///
    /// # Panics
    /// Panics when `alg` is out of range.
    pub fn invalidate_algorithm(&mut self, alg: usize) {
        assert!(alg < self.p, "algorithm index out of range");
        for other in 0..self.p {
            if other != alg {
                let (lo, hi) = if other < alg { (other, alg) } else { (alg, other) };
                self.slots[lo * self.p + hi] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{Better, Equivalent, Worse};

    #[test]
    fn caches_within_and_counts() {
        let mut cache = ComparisonCache::new(4);
        let mut calls = 0usize;
        let mut cmp = |a: usize, b: usize| {
            calls += 1;
            assert!(a < b, "cache must canonicalize the pair order");
            Equivalent
        };
        for _ in 0..5 {
            assert_eq!(cache.get_or_compute(2, 3, &mut cmp), Equivalent);
            assert_eq!(cache.get_or_compute(3, 2, &mut cmp), Equivalent);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn antisymmetry_is_enforced() {
        let mut cache = ComparisonCache::new(2);
        let mut cmp = |_: usize, _: usize| Better;
        assert_eq!(cache.get_or_compute(0, 1, &mut cmp), Better);
        assert_eq!(cache.get_or_compute(1, 0, &mut cmp), Worse);
    }

    #[test]
    fn invalidate_algorithm_clears_only_touching_pairs() {
        let pairs = [(0, 1), (0, 2), (1, 2)];
        let mut cache = ComparisonCache::new(3);
        for (a, b) in pairs {
            cache.get_or_compute(a, b, &mut |_, _| Better);
        }
        cache.invalidate_algorithm(2);
        let mut recomputed = Vec::new();
        for (a, b) in pairs {
            cache.get_or_compute(a, b, &mut |lo, hi| {
                recomputed.push((lo, hi));
                Equivalent
            });
        }
        assert_eq!(recomputed, [(0, 2), (1, 2)], "untouched pair survives");
    }

    #[test]
    #[should_panic(expected = "not compared against itself")]
    fn self_comparison_panics() {
        let mut cache = ComparisonCache::new(2);
        cache.get_or_compute(1, 1, &mut |_, _| Equivalent);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut cache = ComparisonCache::new(2);
        cache.get_or_compute(0, 5, &mut |_, _| Equivalent);
    }
}
