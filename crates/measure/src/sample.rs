//! The [`Sample`] type: a set of repeated performance measurements.
//!
//! This is the unit of data in the paper's methodology (Sec. III): every
//! algorithm is measured `N` times and kept as the full distribution —
//! quantiles, moments, and histograms are views over it, never a
//! replacement for it.
//!
//! # Ingest engine
//!
//! A sample keeps its measurements in **two orders at once**: insertion
//! order (`values`) and ascending order (the *sorted index*: the ascending
//! copy [`sorted`](Sample::sorted) plus its argsort
//! [`sorted_ids`](Sample::sorted_ids), `ids[r]` = insertion index of the
//! `r`-th smallest value). The sorted index is **built on first read**:
//! [`Sample::new`] only validates the values, and the first read of the
//! order ([`sorted`](Sample::sorted), [`sorted_ids`](Sample::sorted_ids),
//! [`order_stat`](Sample::order_stat), [`min`](Sample::min),
//! [`max`](Sample::max), `==`) builds it by one stable argsort. Until then
//! a write ([`push`](Sample::push),
//! [`try_extend_all`](Sample::try_extend_all)) only appends to the values;
//! once the index exists, every write merges into it. The index is a pure
//! function of the values, so when it is built never changes a bit of any
//! output: a sample that is only streamed into, decoded and counted (a
//! session nobody scores, a checkpoint read for its sizes) never sorts.
//!
//! Every write into a built index goes through one **in-place merge**: the
//! batch is stably sorted by value, both index vectors grow by its length
//! `k`, and the batch is walked from its largest element down. Each
//! element gallops back from the end of the not-yet-moved prefix to find
//! how many existing values are `≤` it, shifts the larger ones up by one
//! `copy_within`, and lands right after its equals — where the stable
//! argsort of [`Sample::new`] would put it. Every existing value moves at
//! most once, so a wave costs `O(n + k log n)` with no allocation beyond
//! the sorted batch, and a [`push`](Sample::push) is the same merge with a
//! one-element batch. The result is **bit-identical** (values, sorted
//! view, insertion ids) to [`Sample::new`] of the concatenation under any
//! batch split; the equivalence is property-tested
//! (`crates/measure/tests/proptests.rs`).

use std::fmt;
use std::sync::OnceLock;

/// A set of repeated measurements of one algorithm under one metric
/// (execution time in seconds throughout the paper, but the type is
/// unit-agnostic).
///
/// Invariants maintained by construction:
/// * at least one measurement,
/// * every measurement is finite,
/// * a sorted index (see the [module docs](self)) for O(1) order-statistic
///   queries, built on the first order read,
/// * insertion order kept on every growth path, which
///   [`mean`](Sample::mean) and [`variance`](Sample::variance) fold on
///   read (O(n)), so a write pays nothing for them.
///
/// # Growth contract
///
/// Samples grow incrementally, and every growth path lands on the same
/// bits: a sample built by [`push`](Sample::push)ing values one at a
/// time, one built by [`try_extend_all`](Sample::try_extend_all) waves
/// under **any** batch split, and one built by [`Sample::new`] from the
/// concatenation all agree exactly on [`values`](Sample::values),
/// [`sorted`](Sample::sorted), and [`sorted_ids`](Sample::sorted_ids)
/// (ties ordered stably by insertion). This is what lets the streaming
/// session engine reuse the count-vector comparator fast path between
/// measurement waves regardless of how measurements were batched.
///
/// Capacity: insertion indices are kept as `u32`, so a sample holds at
/// most `u32::MAX` measurements (checked with `assert!` on ingest).
///
/// # Examples
///
/// ```
/// use relperf_measure::Sample;
///
/// let s = Sample::new(vec![3.0, 1.0, 2.0]).unwrap();
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.median(), 2.0);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Sample {
    values: Vec<f64>,
    /// The sorted index, built from `values` on the first order read (see
    /// the [module docs](self)) and merged into by every write from then
    /// on.
    index: OnceLock<SortedIndex>,
}

/// The sorted index behind a [`Sample`] — see the [module docs](self).
#[derive(Debug, Clone)]
struct SortedIndex {
    sorted: Vec<f64>,
    /// `ids[r]` is the insertion index of `sorted[r]`; ties ascend by
    /// insertion index (stable argsort).
    ids: Vec<u32>,
}

impl SortedIndex {
    /// The index of `values`: their stable argsort (ties order by
    /// insertion index) with the sorted copy derived from it.
    fn build(values: &[f64]) -> SortedIndex {
        let mut ids: Vec<u32> = (0..values.len() as u32).collect();
        ids.sort_by(|&i, &j| {
            values[i as usize]
                .partial_cmp(&values[j as usize])
                .expect("finite by construction")
        });
        let sorted = ids.iter().map(|&i| values[i as usize]).collect();
        SortedIndex { sorted, ids }
    }

    /// Merges a batch of `(value, insertion id)` pairs, stably sorted by
    /// value, in place from the back (see the [module docs](self)):
    /// existing elements come first on ties, as do earlier batch elements.
    fn merge_batch(&mut self, batch: &[(f64, u32)]) {
        let mut i = self.sorted.len();
        self.sorted.resize(i + batch.len(), 0.0);
        self.ids.resize(i + batch.len(), 0);
        for (j, &(v, id)) in batch.iter().enumerate().rev() {
            // Everything from `i + j + 1` on is final; `sorted[..i]` has
            // not moved yet.
            let p = gallop_leq_back(&self.sorted[..i], v);
            self.sorted.copy_within(p..i, p + j + 1);
            self.ids.copy_within(p..i, p + j + 1);
            self.sorted[p + j] = v;
            self.ids[p + j] = id;
            i = p;
        }
    }
}

/// Number of elements `≤ v` in ascending `run`, found by galloping back
/// from its end: probe `1, 2, 4, …` places before the end until an element
/// `≤ v` brackets the boundary, then binary search inside the bracket.
/// Equivalent to `run.partition_point(|&x| x <= v)`, but O(1) for a value
/// at or above the maximum and O(log distance) otherwise — the common case
/// when a sorted batch is merged from its largest element down.
fn gallop_leq_back(run: &[f64], v: f64) -> usize {
    // Invariant: every element of `run[hi..]` is `> v`.
    let mut hi = run.len();
    let mut step = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        if run[lo] <= v {
            return lo + 1 + run[lo + 1..hi].partition_point(|&x| x <= v);
        }
        hi = lo;
        step *= 2;
    }
    0
}

/// Error constructing a [`Sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// The measurement vector was empty.
    Empty,
    /// A measurement was NaN or infinite (index of the first offender).
    NonFinite(usize),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Empty => write!(f, "sample must contain at least one measurement"),
            SampleError::NonFinite(i) => write!(f, "measurement {i} is not finite"),
        }
    }
}

impl std::error::Error for SampleError {}

impl Sample {
    /// Wraps a vector of measurements.
    ///
    /// Returns [`SampleError::Empty`] for an empty vector and
    /// [`SampleError::NonFinite`] when any value is NaN or infinite.
    ///
    /// Cost: `O(n)` — validation only. The sorted index is built on the
    /// first order read (see the [module docs](self)), not here.
    pub fn new(values: Vec<f64>) -> Result<Self, SampleError> {
        if values.is_empty() {
            return Err(SampleError::Empty);
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(SampleError::NonFinite(i));
        }
        assert!(
            values.len() <= u32::MAX as usize,
            "sample exceeds the u32 insertion-id capacity"
        );
        Ok(Sample {
            values,
            index: OnceLock::new(),
        })
    }

    /// The sorted index, built on the first call.
    fn index(&self) -> &SortedIndex {
        self.index.get_or_init(|| SortedIndex::build(&self.values))
    }

    /// Appends `batch` to the insertion order, then hands back the sorted index the write must merge into — or `None`
    /// while no read has built it. An unbuilt index is later built from
    /// `values` alone, so a write before the first read only appends.
    fn append(&mut self, batch: &[f64]) -> Option<&mut SortedIndex> {
        assert!(
            self.values.len() + batch.len() <= u32::MAX as usize,
            "sample exceeds the u32 insertion-id capacity"
        );
        self.values.extend_from_slice(batch);
        self.index.get_mut()
    }

    /// Appends one measurement, merging it into the sorted index once a
    /// read has built it.
    ///
    /// Into a built index the new value lands *after* any existing equal
    /// values, exactly where the stable argsort of [`Sample::new`] would
    /// place it — so a sample grown by `push` is **bit-identical**
    /// (values, sorted view, insertion ids) to one constructed from the
    /// final vector in one shot. Cost: `O(1)` amortized while no read has
    /// built the index (the value is only appended); after that, a gallop
    /// back from the maximum plus two memmoves of the larger values.
    /// Streams of measurements into a sample that is read between waves
    /// should prefer [`try_extend_all`](Sample::try_extend_all), which
    /// merges a whole batch in one pass.
    ///
    /// Returns [`SampleError::NonFinite`] (with the would-be insertion
    /// index) and leaves the sample untouched when `value` is NaN or
    /// infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_measure::Sample;
    ///
    /// let mut s = Sample::new(vec![3.0, 1.0]).unwrap();
    /// s.push(2.0).unwrap();
    /// assert_eq!(s, Sample::new(vec![3.0, 1.0, 2.0]).unwrap());
    /// ```
    pub fn push(&mut self, value: f64) -> Result<(), SampleError> {
        if !value.is_finite() {
            return Err(SampleError::NonFinite(self.values.len()));
        }
        let id = self.values.len() as u32;
        if let Some(index) = self.append(&[value]) {
            index.merge_batch(&[(value, id)]);
        }
        Ok(())
    }

    /// All-or-nothing bulk ingest: pre-validates the whole batch, then
    /// appends it — and, once a read has built the sorted index, sorts the
    /// batch once and merges it in a single in-place pass. The result is
    /// bit-identical (values, sorted view, insertion ids) to
    /// [`push`](Sample::push)ing the same values one at a time, at a
    /// fraction of the cost. A non-finite value anywhere leaves the sample
    /// **completely untouched** — the transactional contract a hosted
    /// service wants for a tenant wave.
    ///
    /// On rejection the returned [`SampleError::NonFinite`] carries the
    /// offender's index **within `values`** (the same convention as
    /// [`Sample::new`]), not an insertion index — nothing was inserted.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_measure::{sample::SampleError, Sample};
    ///
    /// let mut s = Sample::new(vec![1.0]).unwrap();
    /// let err = s.try_extend_all(&[2.0, f64::NAN, 3.0]).unwrap_err();
    /// assert_eq!(err, SampleError::NonFinite(1));
    /// assert_eq!(s.values(), &[1.0]); // nothing ingested
    /// s.try_extend_all(&[2.0, 3.0]).unwrap();
    /// assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    /// ```
    pub fn try_extend_all(&mut self, values: &[f64]) -> Result<(), SampleError> {
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(SampleError::NonFinite(i));
        }
        let id0 = self.values.len() as u32;
        let Some(index) = self.append(values) else {
            return Ok(());
        };
        let mut batch: Vec<(f64, u32)> = values
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, id0 + j as u32))
            .collect();
        // Stable sort: ties keep their batch (= insertion) order, so the
        // merged tie groups order by insertion index exactly as a chain
        // of pushes would.
        batch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite"));
        index.merge_batch(&batch);
        Ok(())
    }

    /// Number of measurements `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`; present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The measurements in insertion order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The measurements in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.index().sorted
    }

    /// The insertion ids of the ascending order: `sorted_ids()[r]` is the
    /// index into [`values`](Sample::values) of `sorted()[r]`, with ties
    /// ascending by insertion index (the stable argsort).
    pub fn sorted_ids(&self) -> &[u32] {
        &self.index().ids
    }

    /// The `k`-th order statistic (0-based, `k < len()`): `sorted()[k]`.
    pub fn order_stat(&self, k: usize) -> f64 {
        self.sorted()[k]
    }

    /// Smallest measurement.
    pub fn min(&self) -> f64 {
        self.sorted()[0]
    }

    /// Largest measurement.
    pub fn max(&self) -> f64 {
        *self.sorted().last().expect("non-empty")
    }

    /// Arithmetic mean — O(n): the plain left fold of the values in
    /// insertion order, so it is **bit-identical** to
    /// `values.iter().sum::<f64>() / n` (same fold, same rounding) however
    /// the sample was grown.
    pub fn mean(&self) -> f64 {
        self.moments().0 / self.len() as f64
    }

    /// Unbiased sample variance (0 for a single measurement) — O(n): the
    /// Welford moments, folded per value in insertion order (so push,
    /// bulk extend, and batch construction agree bit for bit). Welford is
    /// exact on constant samples (a naive `Σv² − (Σv)²/n` would cancel
    /// catastrophically there) and agrees with the two-pass
    /// `Σ(v−μ)²/(n−1)` definition up to the last few bits (this is a
    /// diagnostic readout — comparison outcomes never consume it).
    pub fn variance(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        self.moments().1 / (n as f64 - 1.0)
    }

    /// `(Σv, Σ(v−μ)²)` folded over the values in insertion order by
    /// [`fold_moment`].
    fn moments(&self) -> (f64, f64) {
        let (mut sum, mut w_mean, mut m2) = (0.0f64, 0.0f64, 0.0f64);
        for (i, &v) in self.values.iter().enumerate() {
            fold_moment(&mut sum, &mut w_mean, &mut m2, v, i + 1);
        }
        (sum, m2)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `σ/μ` — the paper's notion of "fluctuations
    /// in the performance measurements". Returns 0 when the mean is 0.
    pub fn coeff_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Linear-interpolation quantile (type-7, the numpy/R default), read
    /// from the sorted index by order statistic.
    ///
    /// # Contract
    /// `q` must lie in `[0, 1]`. The contract is checked with
    /// `debug_assert!` — the same policy as the hot-path
    /// [`quantile_sorted`](crate::bootstrap::quantile_sorted), so the two
    /// readers can never disagree about an invalid `q`: debug builds panic
    /// in both, release builds leave the behaviour unspecified in both
    /// (`q < 0` clamps to the minimum, `q > 1` panics on the index bound).
    /// Validate once at the boundary (as `BootstrapConfig::validate` does)
    /// rather than per read.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let (lo, hi, frac) = crate::bootstrap::quantile_interp(q, self.len());
        crate::bootstrap::interp_value(self.order_stat(lo), self.order_stat(hi), lo, hi, frac)
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Evaluates several quantiles at once.
    ///
    /// # Contract
    /// Every `q` must lie in `[0, 1]`, checked with `debug_assert!` only —
    /// see [`quantile`](Sample::quantile) for the shared policy.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        debug_assert!(
            qs.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantiles must lie in [0, 1]: {qs:?}"
        );
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Histogram with `bins` equal-width bins spanning `[min, max]`.
    ///
    /// Returns the bin edges (`bins + 1` values) and counts (`bins` values).
    /// A degenerate sample (all values equal) produces a single full bin in
    /// the middle.
    ///
    /// # Panics
    /// Panics when `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        let lo = self.min();
        let hi = self.max();
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        if width == 0.0 {
            counts[bins / 2] = self.len();
        } else {
            for &v in &self.values {
                let mut idx = ((v - lo) / width) as usize;
                if idx >= bins {
                    idx = bins - 1; // v == max lands in the last bin
                }
                counts[idx] += 1;
            }
        }
        let edges = (0..=bins).map(|i| lo + width * i as f64).collect();
        Histogram { edges, counts }
    }
}

/// One Welford step: folds `v` into the running moments, where `n` is
/// the count *including* `v`. [`Sample::mean`] and [`Sample::variance`]
/// apply it per value in insertion order, which every growth path keeps,
/// so the moments are bit-identical across them; `sum` rides along as the
/// plain left fold so [`Sample::mean`] matches
/// `values.iter().sum::<f64>() / n` exactly.
fn fold_moment(sum: &mut f64, w_mean: &mut f64, m2: &mut f64, v: f64, n: usize) {
    *sum += v;
    let delta = v - *w_mean;
    *w_mean += delta / n as f64;
    *m2 += delta * (v - *w_mean);
}

impl PartialEq for Sample {
    /// Equality of the full growth contract: insertion order and the
    /// insertion ids of the sorted order must agree bit for bit. Equal
    /// values and ids imply an equal sorted view.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.sorted_ids() == other.sorted_ids()
    }
}

/// An equal-width histogram produced by [`Sample::histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges, `len = bins + 1`.
    pub edges: Vec<f64>,
    /// Per-bin counts, `len = bins`.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Total number of counted measurements.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Renders a single-column ASCII bar chart, one row per bin, scaled to
    /// `width` characters — used by the figure-regeneration binaries.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * width / max);
            out.push_str(&format!(
                "[{:>12.6}, {:>12.6}) {:>5} {}\n",
                self.edges[i],
                self.edges[i + 1],
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Sample {
        Sample::new(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Sample::new(vec![]).unwrap_err(), SampleError::Empty);
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(
            Sample::new(vec![1.0, f64::NAN]).unwrap_err(),
            SampleError::NonFinite(1)
        );
        assert_eq!(
            Sample::new(vec![f64::INFINITY]).unwrap_err(),
            SampleError::NonFinite(0)
        );
    }

    #[test]
    fn basic_stats() {
        let x = s(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(x.mean(), 5.0);
        assert_eq!(x.min(), 2.0);
        assert_eq!(x.max(), 9.0);
        assert!((x.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn single_measurement() {
        let x = s(&[3.0]);
        assert_eq!(x.mean(), 3.0);
        assert_eq!(x.variance(), 0.0);
        assert_eq!(x.median(), 3.0);
        assert_eq!(x.quantile(0.0), 3.0);
        assert_eq!(x.quantile(1.0), 3.0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(s(&[1.0, 2.0, 3.0]).median(), 2.0);
        assert_eq!(s(&[1.0, 2.0, 3.0, 4.0]).median(), 2.5);
    }

    #[test]
    fn quantile_interpolation() {
        let x = s(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(x.quantile(0.0), 10.0);
        assert_eq!(x.quantile(1.0), 40.0);
        assert!((x.quantile(0.25) - 17.5).abs() < 1e-12);
        assert!((x.quantile(1.0 / 3.0) - 20.0).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_panics_in_debug() {
        s(&[1.0]).quantile(1.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must lie in")]
    fn quantiles_out_of_range_panics_in_debug() {
        s(&[1.0]).quantiles(&[0.5, -0.1]);
    }

    #[test]
    fn quantiles_vectorized() {
        let x = s(&[1.0, 2.0, 3.0]);
        assert_eq!(x.quantiles(&[0.0, 0.5, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn coeff_of_variation() {
        let tight = s(&[1.0, 1.01, 0.99]);
        let loose = s(&[1.0, 2.0, 0.1]);
        assert!(tight.coeff_of_variation() < loose.coeff_of_variation());
    }

    #[test]
    fn histogram_counts_everything() {
        let x = s(&[0.0, 0.1, 0.5, 0.9, 1.0]);
        let h = x.histogram(2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts, vec![2, 3]); // 0.5 and max land in the last bin
        assert_eq!(h.edges.len(), 3);
    }

    #[test]
    fn histogram_degenerate_sample() {
        let x = s(&[2.0, 2.0, 2.0]);
        let h = x.histogram(4);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts[2], 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        s(&[1.0]).histogram(0);
    }

    #[test]
    fn histogram_ascii_render() {
        let x = s(&[0.0, 0.0, 1.0]);
        let text = x.histogram(2).render_ascii(10);
        assert!(text.contains('#'));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn sorted_is_sorted_and_values_preserved() {
        let x = s(&[3.0, 1.0, 2.0]);
        assert_eq!(x.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(x.sorted(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sorted_ids_are_the_stable_argsort() {
        let x = s(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(x.sorted(), &[1.0, 1.0, 2.0, 3.0]);
        // Ties broken stably: the first 1.0 gets the earlier position.
        assert_eq!(x.sorted_ids(), &[1, 3, 2, 0]);
        for (r, &id) in x.sorted_ids().iter().enumerate() {
            assert_eq!(x.sorted()[r], x.values()[id as usize]);
        }
    }

    #[test]
    fn push_matches_batch_construction() {
        let values = [3.0, 1.0, 2.0, 1.0, 2.5, 1.0, 9.0];
        let mut grown = s(&values[..1]);
        for &v in &values[1..] {
            grown.push(v).unwrap();
            let rebuilt = s(&values[..grown.len()]);
            assert_eq!(grown, rebuilt, "after pushing {v}");
        }
    }

    #[test]
    fn push_rejects_non_finite_and_leaves_sample_intact() {
        let mut x = s(&[1.0, 2.0]);
        let before = x.clone();
        assert_eq!(x.push(f64::NAN).unwrap_err(), SampleError::NonFinite(2));
        assert_eq!(x.push(f64::INFINITY).unwrap_err(), SampleError::NonFinite(2));
        assert_eq!(x, before);
    }

    #[test]
    fn try_extend_all_is_all_or_nothing() {
        let mut x = s(&[1.0]);
        let before = x.clone();
        let err = x
            .try_extend_all(&[2.0, 3.0, f64::INFINITY, 4.0])
            .unwrap_err();
        // Index within the batch, Sample::new-style — nothing was inserted.
        assert_eq!(err, SampleError::NonFinite(2));
        assert_eq!(x, before);
        x.try_extend_all(&[2.0, 3.0]).unwrap();
        assert_eq!(x, s(&[1.0, 2.0, 3.0]));
    }

    /// One sample grown by a bulk wave and one grown by pushing the same
    /// values, each read first when `read_first` (so the wave merges into
    /// a built index rather than only appending), checked against each
    /// other and against `Sample::new` of the concatenation.
    fn bulk_wave_vs_push(read_first: bool) {
        // Duplicate-heavy so the stable tie order is genuinely exercised.
        let base = [5.0, 1.0, 3.0];
        let wave = [2.0, 3.0, 1.0, 3.0, 9.0, 0.5, 3.0, 3.0, 2.0, 7.0, 1.0, 5.0];
        let mut bulk = s(&base);
        let mut pushed = s(&base);
        if read_first {
            assert_eq!(bulk.min(), 1.0);
            assert_eq!(pushed.min(), 1.0);
        }
        bulk.try_extend_all(&wave).unwrap();
        for &v in &wave {
            pushed.push(v).unwrap();
        }
        // Unread, the wave only appended: no index exists yet.
        assert_eq!(bulk.index.get().is_some(), read_first);
        let concat: Vec<f64> = base.iter().chain(&wave).copied().collect();
        let rebuilt = Sample::new(concat).unwrap();
        assert_eq!(bulk.values(), pushed.values());
        assert_eq!(bulk.sorted(), pushed.sorted());
        assert_eq!(bulk.sorted_ids(), pushed.sorted_ids());
        assert_eq!(bulk, rebuilt);
    }

    #[test]
    fn bulk_extend_matches_per_element_push() {
        // The sample was read before its wave, so the wave merges into
        // the built index.
        bulk_wave_vs_push(true);
    }

    #[test]
    fn unread_bulk_extend_only_appends_and_matches_push() {
        // Nothing read the sample before its wave: the wave only appends,
        // and the first read builds the same index from the values.
        bulk_wave_vs_push(false);
    }

    #[test]
    fn merge_boundaries_match_batch_construction() {
        // The gallop's edge cases: a wave wholly below the current minimum
        // (everything shifts), wholly above the maximum (a pure append),
        // and ties equal to either end — as one merged wave and as single
        // pushes, into built indexes of sizes that straddle every gallop
        // step. Each result must equal `Sample::new` of the concatenation.
        for n in [1usize, 2, 3, 4, 5, 8, 9, 2049] {
            let base: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
            let (lo, hi) = (s(&base).min(), s(&base).max());
            let waves = [
                vec![lo - 1.0, lo - 3.0, lo - 1.0, lo - 2.0],
                vec![hi + 2.0, hi + 1.0, hi + 3.0, hi + 1.0],
                vec![lo; 5],
                vec![hi; 5],
            ];
            for wave in &waves {
                let concat: Vec<f64> = base.iter().chain(wave).copied().collect();
                let want = s(&concat);
                let mut merged = s(&base);
                let mut pushed = s(&base);
                assert_eq!((merged.min(), pushed.max()), (lo, hi));
                merged.try_extend_all(wave).unwrap();
                for &v in wave {
                    pushed.push(v).unwrap();
                }
                for got in [&merged, &pushed] {
                    assert_eq!(got.values(), want.values(), "n {n} wave {wave:?}");
                    assert_eq!(got.sorted(), want.sorted(), "n {n} wave {wave:?}");
                    assert_eq!(got.sorted_ids(), want.sorted_ids(), "n {n} wave {wave:?}");
                }
            }
        }
    }

    #[test]
    fn running_moments_track_every_growth_path() {
        let vals: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64) * 0.03125).collect();
        let mut grown = s(&vals[..1]);
        for &v in &vals[1..20] {
            grown.push(v).unwrap();
        }
        grown.try_extend_all(&vals[20..]).unwrap();
        let batch = s(&vals);
        // Same insertion-order fold → identical bits.
        assert_eq!(grown.mean(), batch.mean());
        assert_eq!(grown.variance(), batch.variance());
        assert_eq!(grown.mean(), vals.iter().sum::<f64>() / vals.len() as f64);
        // And the moments agree with the two-pass definition numerically.
        let m = batch.mean();
        let two_pass =
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (vals.len() as f64 - 1.0);
        assert!((batch.variance() - two_pass).abs() < 1e-9 * two_pass.max(1.0));
        // Welford is exact on constant data — a naive Σv² − (Σv)²/n
        // running form would leave √ε·v of cancellation residue here.
        let mut constant = s(&[1e9; 3]);
        constant.try_extend_all(&[1e9; 40]).unwrap();
        assert_eq!(constant.variance(), 0.0);
    }

    #[test]
    fn error_display() {
        assert!(SampleError::Empty.to_string().contains("at least one"));
        assert!(SampleError::NonFinite(3).to_string().contains('3'));
    }
}
