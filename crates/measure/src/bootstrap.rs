//! Bootstrap resampling.
//!
//! "Instead of summarizing the performance statistic … of all the N
//! measurements into one number, multiple statistics are evaluated and
//! compared on data that is randomly sampled from the N measurements; this
//! approach is commonly known as bootstrapping." (paper, Sec. III)

use crate::sample::Sample;
use rand::Rng;

/// Draws one bootstrap resample (sampling with replacement, same size) from
/// `sample`, writing into `buf` to avoid per-draw allocation.
pub fn resample_into<R: Rng + ?Sized>(rng: &mut R, sample: &Sample, buf: &mut Vec<f64>) {
    let values = sample.values();
    let n = values.len();
    buf.clear();
    buf.reserve(n);
    for _ in 0..n {
        buf.push(values[rng.random_range(0..n)]);
    }
}

/// Draws one bootstrap resample as a fresh vector.
pub fn resample<R: Rng + ?Sized>(rng: &mut R, sample: &Sample) -> Vec<f64> {
    let mut buf = Vec::new();
    resample_into(rng, sample, &mut buf);
    buf
}

/// Draws one bootstrap resample as a *count vector over insertion order*:
/// after the call, `counts[i]` is how many times `sample.values()[i]` was
/// drawn, with `counts.iter().sum::<u32>() == n`.
///
/// This consumes **exactly the same RNG draw sequence** as
/// [`resample_into`] (`n` uniform index draws into insertion order — the
/// tally is indexed by the draw itself, with no permutation applied), so
/// a seeded resample and its tally describe the identical multiset. Pair
/// it with [`QuantilePlan::extract_sample_into`], which reads the tallies
/// through the sample's sorted ids, so a round never sorts (an
/// allocation-free O(n) round, see [`QuantilePlan`]). This is the
/// comparator's hot-path form.
pub fn resample_id_counts_into<R: Rng + ?Sized>(
    rng: &mut R,
    sample: &Sample,
    counts: &mut Vec<u32>,
) {
    let n = sample.len();
    debug_assert!(n <= u32::MAX as usize, "count vector uses u32 tallies");
    counts.clear();
    counts.resize(n, 0);
    for _ in 0..n {
        counts[rng.random_range(0..n)] += 1;
    }
}

/// The bootstrap distribution of a statistic: applies `stat` to `reps`
/// independent resamples and returns the resulting values (unsorted).
pub fn bootstrap_statistic<R, F>(rng: &mut R, sample: &Sample, reps: usize, mut stat: F) -> Vec<f64>
where
    R: Rng + ?Sized,
    F: FnMut(&[f64]) -> f64,
{
    let mut out = Vec::with_capacity(reps);
    let mut buf = Vec::new();
    for _ in 0..reps {
        resample_into(rng, sample, &mut buf);
        out.push(stat(&buf));
    }
    out
}

/// A two-sided percentile confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// `true` when `v` lies inside the interval (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile bootstrap confidence interval for an arbitrary statistic.
///
/// # Panics
/// Panics unless `0 < level < 1` and `reps > 0`.
pub fn percentile_ci<R, F>(
    rng: &mut R,
    sample: &Sample,
    reps: usize,
    level: f64,
    stat: F,
) -> ConfidenceInterval
where
    R: Rng + ?Sized,
    F: FnMut(&[f64]) -> f64,
{
    assert!(reps > 0, "need at least one bootstrap repetition");
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level must be in (0, 1)");
    // Sort the bootstrap distribution in place and read the endpoints with
    // quantile_sorted — same math as Sample::quantile without cloning the
    // stats into a Sample (which would re-sort a second copy). The
    // finiteness guard Sample::new used to provide stays: an overflowing
    // statistic must fail loudly, not leak an infinite CI downstream.
    let mut stats = bootstrap_statistic(rng, sample, reps, stat);
    assert!(
        stats.iter().all(|v| v.is_finite()),
        "statistic of finite data must be finite"
    );
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite by the check above"));
    let alpha = (1.0 - level) / 2.0;
    ConfidenceInterval {
        lo: quantile_sorted(&stats, alpha),
        hi: quantile_sorted(&stats, 1.0 - alpha),
        level,
    }
}

/// Convenience: percentile CI of the mean.
pub fn mean_ci<R: Rng + ?Sized>(
    rng: &mut R,
    sample: &Sample,
    reps: usize,
    level: f64,
) -> ConfidenceInterval {
    percentile_ci(rng, sample, reps, level, |xs| {
        xs.iter().sum::<f64>() / xs.len() as f64
    })
}

/// Linear-interpolation quantile of an already-sorted slice.
///
/// Bounds are checked with `debug_assert!` only — this sits on the
/// bootstrap comparator's hot path (called per quantile per round), so
/// callers must validate `q` up front (in-tree callers do, via
/// `BootstrapConfig::validate` or derived constants).
/// In a release build an unvalidated `q < 0` silently clamps to the
/// minimum; `q > 1` panics on the index bound.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty(), "quantile of empty slice");
    debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let (lo, hi, frac) = quantile_interp(q, sorted.len());
    interp_value(sorted[lo], sorted[hi], lo, hi, frac)
}

/// The type-7 interpolation triple `(lo, hi, frac)` every quantile reader
/// in this crate shares ([`quantile_sorted`], `Sample::quantile`,
/// [`QuantilePlan`]): position `q·(n−1)` splits into the bracketing order
/// statistics and the interpolation fraction. A single definition keeps
/// the count-based fast path bit-identical to the sort-based readers by
/// construction. Requires `n ≥ 1` (for `n == 1` the triple degenerates to
/// `(0, 0, 0.0)`).
pub(crate) fn quantile_interp(q: f64, n: usize) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    (lo, hi, pos - lo as f64)
}

/// Combines the two bracketing order statistics of [`quantile_interp`],
/// skipping the arithmetic entirely when the position is integral.
pub(crate) fn interp_value(vlo: f64, vhi: f64, lo: usize, hi: usize, frac: f64) -> f64 {
    if lo == hi {
        vlo
    } else {
        vlo * (1.0 - frac) + vhi * frac
    }
}

/// Precomputed order-statistic schedule for reading a fixed list of
/// quantiles out of a tallied resample without materializing it.
///
/// [`quantile_sorted`] on a materialized resample of size `n` reads at
/// most two order statistics per quantile (the floor and ceiling of the
/// interpolation position). A `QuantilePlan` computes those positions
/// once per `(quantiles, n)` pair ([`prepare`](Self::prepare));
/// [`extract_sample_into`](Self::extract_sample_into) then reads every
/// one of them from a [`resample_id_counts_into`] tally in a single pass
/// over the sample's sorted ids — O(n + q) per bootstrap round, no
/// allocation, no sort, and **bit-identical** to sorting the resample and
/// calling [`quantile_sorted`] (the interpolation arithmetic is
/// replicated exactly; the tally describes the same sorted multiset).
///
/// Small samples (`n ≤ 256`) are read by a branch-free **rank pass**
/// instead of a cumulative walk: the walk's stop test is data-dependent
/// at every element, and on bootstrap resamples its branches mispredict
/// often enough to dominate a round. The plan keeps the positions in
/// both orders — sorted for the walk, in lanes of 16 for the rank pass.
///
/// # Examples
///
/// ```
/// use relperf_measure::bootstrap::{quantile_sorted, QuantilePlan};
/// use relperf_measure::Sample;
///
/// let x = Sample::new(vec![8.0, 1.0, 4.0, 2.0]).unwrap();
/// let counts = [1, 1, 2, 0]; // the resample {8.0, 1.0, 4.0, 4.0}
/// let expanded = [1.0, 4.0, 4.0, 8.0];
/// let qs = [0.0, 0.25, 0.5, 0.9, 1.0];
/// let mut plan = QuantilePlan::default();
/// plan.prepare(&qs, expanded.len());
/// let (mut stats, mut out) = (Vec::new(), Vec::new());
/// plan.extract_sample_into(&x, &counts, &mut stats, &mut out);
/// for (&got, &q) in out.iter().zip(&qs) {
///     assert_eq!(got, quantile_sorted(&expanded, q));
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantilePlan {
    /// Resample size the positions are computed for (`counts_by_id` must
    /// sum to this, not necessarily `sample.len()`).
    n: usize,
    quantiles: Vec<f64>,
    /// `(lo, hi, frac)` per quantile, in input order — the exact
    /// interpolation triple [`quantile_sorted`] derives from `q` and `n`.
    interp: Vec<(usize, usize, f64)>,
    /// `(order-statistic position, stats slot)` ascending by position;
    /// slot `2i` holds quantile `i`'s `lo` element, `2i + 1` its `hi`.
    walk: Vec<(usize, usize)>,
    /// The same positions in slot order, 16 lanes (8 quantiles) per
    /// chunk, for the rank pass; unused lanes of the last chunk are 0.
    /// Empty unless `n ≤ RANK_PASS_MAX`.
    lanes: Vec<[u32; LANES]>,
}

/// Largest sample (and resample) size [`QuantilePlan::extract_sample_into`]
/// reads by the rank pass; larger ones keep the cumulative walk, whose
/// cost stops at the last target instead of touching every element. Set
/// at the measured crossover (see ARCHITECTURE.md, "Hot path &
/// complexity").
const RANK_PASS_MAX: usize = 256;

/// Order-statistic positions the rank pass updates per element: the `lo`
/// and `hi` of 8 quantiles.
const LANES: usize = 16;

/// The rank pass over the sorted ids: for every lane `j`, the number of
/// elements whose running resample count (inclusive) is `≤ targets[j]` —
/// exactly the index where the cumulative walk stops for that target,
/// since the running count never decreases. Branch-free: one fixed-width
/// compare-and-add per element, which the compiler turns into a vector
/// compare (`vpcmpud` on AVX-512) instead of a mispredicted loop exit.
#[inline(always)]
fn rank_pass(ids: &[u32], counts_by_id: &[u32], targets: &[u32; LANES]) -> [u32; LANES] {
    let mut ranks = [0u32; LANES];
    let mut c = 0u32;
    for &id in ids {
        c += counts_by_id[id as usize];
        for (rank, &t) in ranks.iter_mut().zip(targets) {
            *rank += u32::from(c <= t);
        }
    }
    ranks
}

impl QuantilePlan {
    /// (Re)targets the plan at `(quantiles, n)`, reusing its allocations.
    /// A no-op when the plan already matches — callers comparing many
    /// same-sized samples pay the position math once.
    ///
    /// # Panics
    /// Panics when `n == 0` or any quantile lies outside `[0, 1]`.
    pub fn prepare(&mut self, quantiles: &[f64], n: usize) {
        // Validate before the no-op short-circuit: a fresh/default plan
        // has n == 0 and would otherwise match prepare(&[], 0) silently.
        assert!(n > 0, "quantile plan over an empty resample");
        assert!(
            quantiles.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantiles must lie in [0, 1]"
        );
        if self.n == n && self.quantiles == quantiles {
            return;
        }
        self.n = n;
        self.quantiles.clear();
        self.quantiles.extend_from_slice(quantiles);
        self.interp.clear();
        self.walk.clear();
        for (i, &q) in quantiles.iter().enumerate() {
            let (lo, hi, frac) = quantile_interp(q, n);
            self.interp.push((lo, hi, frac));
            self.walk.push((lo, 2 * i));
            self.walk.push((hi, 2 * i + 1));
        }
        self.walk.sort_unstable_by_key(|&(pos, _)| pos);
        self.lanes.clear();
        if n <= RANK_PASS_MAX {
            for chunk in self.interp.chunks(LANES / 2) {
                let mut targets = [0u32; LANES];
                for (pair, &(lo, hi, _)) in targets.chunks_exact_mut(2).zip(chunk) {
                    pair[0] = lo as u32;
                    pair[1] = hi as u32;
                }
                self.lanes.push(targets);
            }
        }
    }

    /// Reads all planned quantiles of the resample described by
    /// `counts_by_id` — `counts_by_id[i]` copies of `sample.values()[i]`,
    /// as tallied by [`resample_id_counts_into`] — into `out` (input
    /// quantile order), using `stats` as scratch. Both buffers are cleared
    /// and refilled, never reallocated at steady state.
    ///
    /// It reads each element's multiplicity via its insertion id while
    /// walking [`Sample::sorted_ids`] alongside [`Sample::sorted`]. Two
    /// strategies, one result:
    ///
    /// * **Rank pass** — samples and resamples of `n ≤ 256`: one pass over
    ///   the ids adds up the running resample count and, at every element,
    ///   advances all planned positions at once by a branch-free compare
    ///   (16 at a time; plans of more than 8 quantiles take one pass per
    ///   16). Each position ends on the index the walk would stop at.
    /// * **Cumulative walk** — every larger sample: one cursor through
    ///   the ids, stopping at each position in ascending order. It stops
    ///   at the last target, so it wins once `n` is large enough that
    ///   touching every element costs more than the walk's mispredicted
    ///   exits.
    ///
    /// Both are bit-identical to expanding the counts and calling
    /// [`quantile_sorted`] (same sorted multiset, same order statistics,
    /// same interpolation arithmetic).
    ///
    /// `counts_by_id` must sum to the plan's resample size (checked with
    /// `debug_assert!` — hot path).
    pub fn extract_sample_into(
        &self,
        sample: &Sample,
        counts_by_id: &[u32],
        stats: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(sample.len(), counts_by_id.len());
        debug_assert_eq!(
            counts_by_id.iter().map(|&c| c as usize).sum::<usize>(),
            self.n,
            "counts must describe a resample of the planned size"
        );
        out.clear();
        let (values, ids) = (sample.sorted(), sample.sorted_ids());
        if sample.len().max(self.n) <= RANK_PASS_MAX {
            for (targets, interp) in self.lanes.iter().zip(self.interp.chunks(LANES / 2)) {
                let ranks = rank_pass(ids, counts_by_id, targets);
                for (k, &(lo, hi, frac)) in ranks.chunks_exact(2).zip(interp) {
                    let (vlo, vhi) = (values[k[0] as usize], values[k[1] as usize]);
                    out.push(interp_value(vlo, vhi, lo, hi, frac));
                }
            }
            return;
        }
        stats.clear();
        stats.resize(self.interp.len() * 2, 0.0);
        let mut k = 0usize;
        let mut cum = 0usize;
        for &(target, slot) in &self.walk {
            loop {
                let c = counts_by_id[ids[k] as usize] as usize;
                if cum + c <= target {
                    cum += c;
                    k += 1;
                } else {
                    break;
                }
            }
            stats[slot] = values[k];
        }
        for (i, &(lo, hi, frac)) in self.interp.iter().enumerate() {
            out.push(interp_value(stats[2 * i], stats[2 * i + 1], lo, hi, frac));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn s(v: &[f64]) -> Sample {
        Sample::new(v.to_vec()).unwrap()
    }

    #[test]
    fn resample_same_size_and_from_population() {
        let mut rng = StdRng::seed_from_u64(61);
        let x = s(&[1.0, 2.0, 3.0]);
        let r = resample(&mut rng, &x);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|v| [1.0, 2.0, 3.0].contains(v)));
    }

    #[test]
    fn resample_is_seeded() {
        let x = s(&[1.0, 2.0, 3.0, 4.0]);
        let a = resample(&mut StdRng::seed_from_u64(7), &x);
        let b = resample(&mut StdRng::seed_from_u64(7), &x);
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_statistic_count() {
        let mut rng = StdRng::seed_from_u64(62);
        let x = s(&[5.0; 10]);
        let stats = bootstrap_statistic(&mut rng, &x, 25, |xs| xs[0]);
        assert_eq!(stats.len(), 25);
        assert!(stats.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn mean_ci_contains_true_mean_for_tight_sample() {
        let mut rng = StdRng::seed_from_u64(63);
        let x = s(&[10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98]);
        let ci = mean_ci(&mut rng, &x, 500, 0.95);
        assert!(ci.contains(10.0), "{ci:?}");
        assert!(ci.width() < 0.2);
    }

    #[test]
    fn disjoint_cis_for_separated_samples() {
        let mut rng = StdRng::seed_from_u64(65);
        let a = s(&[1.0, 1.1, 0.9, 1.05, 0.95]);
        let b = s(&[5.0, 5.1, 4.9, 5.05, 4.95]);
        let ca = mean_ci(&mut rng, &a, 200, 0.95);
        let cb = mean_ci(&mut rng, &b, 200, 0.95);
        assert!(ca.hi < cb.lo, "{ca:?} vs {cb:?}");
    }

    #[test]
    #[should_panic(expected = "at least one bootstrap repetition")]
    fn zero_reps_panics() {
        let mut rng = StdRng::seed_from_u64(66);
        percentile_ci(&mut rng, &s(&[1.0]), 0, 0.95, |xs| xs[0]);
    }

    #[test]
    #[should_panic(expected = "level must be in")]
    fn bad_level_panics() {
        let mut rng = StdRng::seed_from_u64(67);
        percentile_ci(&mut rng, &s(&[1.0]), 10, 1.5, |xs| xs[0]);
    }

    // The emptiness check is a `debug_assert`, so release builds skip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty")]
    fn quantile_sorted_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn counted_resample_matches_sorted_buffer_resample() {
        // Same seed → the insertion-id tally must describe exactly the
        // multiset resample_into draws, and the quantiles read from it
        // must be bit-identical to sorting the buffer: on both sides of
        // the rank-pass cutoff, where plan and read must agree on which
        // strategy runs.
        let qs = [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0];
        let mut plan = QuantilePlan::default();
        for n in [60, RANK_PASS_MAX, RANK_PASS_MAX + 1] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 31) % 13) as f64 * 0.25).collect();
            let x = s(&vals);
            plan.prepare(&qs, n);
            for seed in 0..20u64 {
                let mut buf = Vec::new();
                resample_into(&mut StdRng::seed_from_u64(seed), &x, &mut buf);
                buf.sort_by(|a, b| a.partial_cmp(b).unwrap());

                let mut counts = Vec::new();
                resample_id_counts_into(&mut StdRng::seed_from_u64(seed), &x, &mut counts);
                let expanded: Vec<f64> = x
                    .sorted_ids()
                    .iter()
                    .flat_map(|&id| {
                        std::iter::repeat_n(x.values()[id as usize], counts[id as usize] as usize)
                    })
                    .collect();
                assert_eq!(expanded, buf, "n {n} seed {seed}");

                let (mut stats, mut out) = (Vec::new(), Vec::new());
                plan.extract_sample_into(&x, &counts, &mut stats, &mut out);
                let want: Vec<f64> = qs.iter().map(|&q| quantile_sorted(&buf, q)).collect();
                assert_eq!(out, want, "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn id_counts_walk_matches_sorted_counts_walk() {
        // The insertion-indexed tally does not depend on how the sample
        // was grown, and reading it through an index merged into wave by
        // wave must be bit-identical to reading it through the index one
        // argsort built (the rank pass at n ≤ RANK_PASS_MAX, the walk
        // above it).
        let qs = [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0];
        let mut plan = QuantilePlan::default();
        for n in [60, RANK_PASS_MAX + 1] {
            let vals: Vec<f64> = (0..n).map(|i| ((i * 31) % 13) as f64 * 0.25).collect();
            let built = s(&vals);
            // Read before every wave, so each wave merges into the index.
            let mut grown = s(&vals[..1]);
            for wave in vals[1..].chunks(7) {
                let _ = grown.min();
                grown.try_extend_all(wave).unwrap();
            }
            plan.prepare(&qs, n);
            for seed in 0..20u64 {
                let mut built_counts = Vec::new();
                resample_id_counts_into(
                    &mut StdRng::seed_from_u64(seed),
                    &built,
                    &mut built_counts,
                );
                let mut grown_counts = Vec::new();
                resample_id_counts_into(
                    &mut StdRng::seed_from_u64(seed),
                    &grown,
                    &mut grown_counts,
                );
                assert_eq!(grown_counts, built_counts, "n {n} seed {seed}");

                let (mut stats, mut built_out) = (Vec::new(), Vec::new());
                plan.extract_sample_into(&built, &built_counts, &mut stats, &mut built_out);
                let mut grown_out = Vec::new();
                plan.extract_sample_into(&grown, &grown_counts, &mut stats, &mut grown_out);
                assert_eq!(grown_out, built_out, "n {n} seed {seed}");
            }
        }
    }

    #[test]
    fn quantile_plan_reuses_and_retargets() {
        let mut plan = QuantilePlan::default();
        plan.prepare(&[0.5], 4);
        plan.prepare(&[0.5], 4); // no-op
        plan.prepare(&[0.25, 0.75], 8); // retarget
        let x = s(&[2.0, 1.0]);
        let counts = [4, 4];
        let (mut stats, mut out) = (Vec::new(), Vec::new());
        plan.extract_sample_into(&x, &counts, &mut stats, &mut out);
        let expanded = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(out[0], quantile_sorted(&expanded, 0.25));
        assert_eq!(out[1], quantile_sorted(&expanded, 0.75));
    }

    #[test]
    fn rank_pass_cutoff_matches_the_proptests() {
        // `tests/proptests.rs` mirrors the cutoff to draw sizes on both of
        // its sides; moving it means moving that copy too.
        assert_eq!(RANK_PASS_MAX, 256);
    }

    #[test]
    #[should_panic(expected = "empty resample")]
    fn quantile_plan_rejects_empty() {
        QuantilePlan::default().prepare(&[0.5], 0);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn quantile_plan_rejects_bad_quantile() {
        QuantilePlan::default().prepare(&[1.5], 3);
    }
}
