//! Bounded-memory quantile sketching for streams too large to retain.
//!
//! The exact pipeline keeps every measurement ([`Sample`]) and re-derives
//! quantiles from the full distribution, as the paper prescribes. That is
//! the default and the oracle. When a stream is simply too large to hold —
//! months of per-request telemetry for one tenant — [`QuantileSketch`]
//! offers the classical trade: O(k · log(n/k)) retained values instead of
//! O(n), in exchange for *rank-approximate* quantiles. Count, extremes and
//! mean stay exact, and [`QuantileSketch::merge`] combines sketches of
//! disjoint streams.
//!
//! The sketch is a deterministic KLL/Manku-style level structure: level
//! `l` holds values each standing for `2^l` original measurements. A full
//! level is *compacted* — sorted, every second element kept, survivors
//! promoted one level up — with the kept-parity alternating between
//! compactions, so the construction involves no randomness and a given
//! insertion order always yields the identical sketch. Each compaction of
//! level `l` perturbs any rank by at most `2^l`, which telescopes to a
//! worst-case rank error of roughly `n·log₂(n/k)/(2k)` for capacity `k`
//! (about 1.7 % of `n` at `k = 256`, `n = 10⁵`); the error-bound test in
//! this module asserts a conservative version of that bound against the
//! exact oracle.

use crate::sample::Sample;

/// A deterministic bounded-memory quantile sketch (KLL/Manku-style level
/// compaction) — see the [module docs](self) for the error model.
///
/// Memory is bounded by `capacity` values per level with O(log(n/k))
/// levels; [`retained`](QuantileSketch::retained) reports the actual
/// footprint. `count`, `min`, `max`, and `sum` (hence
/// [`mean`](QuantileSketch::mean)) are tracked exactly; only interior
/// quantiles are approximate.
///
/// # Examples
///
/// ```
/// use relperf_measure::QuantileSketch;
///
/// let mut sk = QuantileSketch::new(64);
/// for i in 0..10_000 {
///     sk.insert((i % 1000) as f64);
/// }
/// assert_eq!(sk.count(), 10_000);
/// assert!(sk.retained() < 1_000); // bounded, far below the stream size
/// let med = sk.quantile(0.5);
/// assert!((med - 499.5).abs() < 60.0); // approximate median
/// ```
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Per-level buffer capacity `k`.
    capacity: usize,
    /// `levels[l]` holds values of weight `2^l`, kept sorted between
    /// compactions (level 0 accumulates unsorted until it fills).
    levels: Vec<Vec<f64>>,
    /// Alternating kept-parity of the next compaction — the deterministic
    /// stand-in for KLL's coin flip.
    keep_odd: bool,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl QuantileSketch {
    /// An empty sketch retaining at most `capacity` values per level.
    ///
    /// # Panics
    /// Panics when `capacity < 8` — below that the compaction error terms
    /// swamp the estimate.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 8, "sketch capacity must be at least 8");
        QuantileSketch {
            capacity,
            levels: vec![Vec::with_capacity(capacity)],
            keep_odd: false,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Sketches an existing sample by feeding its sorted view (any
    /// insertion order of the same multiset yields an equally valid
    /// sketch).
    pub fn from_sample(sample: &Sample, capacity: usize) -> Self {
        let mut sk = QuantileSketch::new(capacity);
        for &v in sample.sorted() {
            sk.insert(v);
        }
        sk
    }

    /// Inserts one measurement. Non-finite values are ignored (the exact
    /// pipeline rejects them at the [`Sample`] boundary; a sketch is fed
    /// raw streams and must not poison its order statistics).
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.levels[0].push(value);
        if self.levels[0].len() >= self.capacity {
            self.compact(0);
        }
    }

    /// Inserts a batch.
    pub fn extend(&mut self, values: &[f64]) {
        for &v in values {
            self.insert(v);
        }
    }

    /// Sorts level `l`, keeps every second element (alternating parity),
    /// and promotes the survivors to level `l + 1`, cascading if that
    /// level fills in turn.
    fn compact(&mut self, l: usize) {
        if self.levels.len() == l + 1 {
            self.levels.push(Vec::with_capacity(self.capacity));
        }
        let mut buf = std::mem::take(&mut self.levels[l]);
        buf.sort_by(|a, b| a.partial_cmp(b).expect("finite by insert"));
        let start = usize::from(self.keep_odd);
        self.keep_odd = !self.keep_odd;
        let mut i = start;
        while i < buf.len() {
            self.levels[l + 1].push(buf[i]);
            i += 2;
        }
        buf.clear();
        self.levels[l] = buf;
        if self.levels[l + 1].len() >= self.capacity {
            // Promoted survivors arrive sorted, but interleaved with what
            // the level already held; compact() re-sorts, so order here is
            // irrelevant.
            self.compact(l + 1);
        }
    }

    /// Exact number of measurements inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` until the first insertion.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of values currently retained across all levels — the
    /// sketch's memory footprint, O(capacity · log(count/capacity)).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Exact minimum of the stream.
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no minimum");
        self.min
    }

    /// Exact maximum of the stream.
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no maximum");
        self.max
    }

    /// Exact mean of the stream (running sum — not an estimate).
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no mean");
        self.sum / self.count as f64
    }

    /// **Approximate** `q`-quantile: the retained value whose estimated
    /// rank brackets `q·(count−1)`, found by a weighted cumulative walk
    /// over all levels. `q = 0` and `q = 1` return the exact extremes.
    /// See the [module docs](self) for the rank-error model.
    ///
    /// # Panics
    /// Panics on an empty sketch or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of an empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Gather (value, weight) across levels and walk cumulatively.
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (l, level) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            weighted.extend(level.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite by insert"));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        // Retained weights may undercount `count` by the parity losses of
        // past compactions; target the same *fraction* of the retained
        // mass that `q` is of the true rank range.
        let target = q * (total.saturating_sub(1)) as f64;
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            cum += w;
            if cum as f64 > target {
                return v;
            }
        }
        weighted.last().expect("non-empty").0
    }

    /// Merges another sketch into this one (`other` is consumed by value —
    /// its retained survivors are re-inserted level by level at their
    /// weight, so the merged sketch stays within its own memory bound).
    ///
    /// # Panics
    /// Panics when the two sketches have different capacities.
    pub fn merge(&mut self, other: QuantileSketch) {
        assert_eq!(
            self.capacity, other.capacity,
            "can only merge sketches of equal capacity"
        );
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (l, level) in other.levels.into_iter().enumerate() {
            while self.levels.len() <= l {
                self.levels.push(Vec::with_capacity(self.capacity));
            }
            for v in level {
                self.levels[l].push(v);
                if self.levels[l].len() >= self.capacity {
                    self.compact(l);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random stream (SplitMix64 over the index).
    fn stream(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    }

    #[test]
    fn exact_aggregates_are_exact() {
        let vals = stream(5000, 1);
        let mut sk = QuantileSketch::new(64);
        sk.extend(&vals);
        assert_eq!(sk.count(), 5000);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(sk.min(), min);
        assert_eq!(sk.max(), max);
        assert_eq!(sk.quantile(0.0), min);
        assert_eq!(sk.quantile(1.0), max);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((sk.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut sk = QuantileSketch::new(128);
        sk.extend(&stream(200_000, 2));
        // k per level × ~log2(n/k) levels, with plenty of slack.
        assert!(
            sk.retained() <= 128 * 16,
            "retained {} exceeds the bound",
            sk.retained()
        );
        assert!(sk.levels.len() <= 16);
    }

    #[test]
    fn sketch_is_deterministic() {
        let vals = stream(30_000, 3);
        let mut a = QuantileSketch::new(64);
        let mut b = QuantileSketch::new(64);
        a.extend(&vals);
        b.extend(&vals);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn non_finite_inserts_are_ignored() {
        let mut sk = QuantileSketch::new(16);
        sk.extend(&[1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(sk.count(), 3);
        assert_eq!(sk.min(), 1.0);
        assert_eq!(sk.max(), 3.0);
    }

    /// The headline error-bound test: the estimated quantile's true rank
    /// must lie within the documented worst-case rank error
    /// `n·log₂(n/k)/(2k)` of the target rank, across quantiles and seeds.
    #[test]
    fn rank_error_stays_within_the_documented_bound() {
        let n = 100_000usize;
        let k = 256usize;
        let bound = (n as f64) * ((n as f64) / k as f64).log2() / (2.0 * k as f64);
        for seed in [10u64, 11, 12] {
            let vals = stream(n, seed);
            let mut sorted = vals.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut sk = QuantileSketch::new(k);
            sk.extend(&vals);
            for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
                let est = sk.quantile(q);
                // True rank of the estimate (count of values below it).
                let rank = sorted.partition_point(|&v| v < est);
                let target = q * (n as f64 - 1.0);
                let err = (rank as f64 - target).abs();
                assert!(
                    err <= bound,
                    "seed {seed} q {q}: rank error {err} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn from_sample_matches_streaming_the_sorted_order() {
        let vals = stream(3000, 4);
        let sample = Sample::new(vals).unwrap();
        let from = QuantileSketch::from_sample(&sample, 64);
        let mut streamed = QuantileSketch::new(64);
        for &v in sample.sorted() {
            streamed.insert(v);
        }
        assert_eq!(from.levels, streamed.levels);
        assert_eq!(from.count(), sample.len() as u64);
    }

    #[test]
    fn merge_preserves_aggregates_and_bound() {
        let (va, vb) = (stream(20_000, 5), stream(20_000, 6));
        let mut a = QuantileSketch::new(64);
        let mut b = QuantileSketch::new(64);
        a.extend(&va);
        b.extend(&vb);
        let mut whole = QuantileSketch::new(64);
        whole.extend(&va);
        whole.extend(&vb);
        a.merge(b);
        assert_eq!(a.count(), 40_000);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!(a.retained() <= 64 * 16);
        // Quantiles stay in the right neighbourhood after a merge.
        assert!((a.quantile(0.5) - whole.quantile(0.5)).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn tiny_capacity_panics() {
        QuantileSketch::new(4);
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        QuantileSketch::new(16).quantile(0.5);
    }
}
