//! Three-way comparison of measurement distributions.
//!
//! Comparing two algorithms means comparing two *sets* of measurements, and
//! the result is one of three outcomes: [`Outcome::Better`],
//! [`Outcome::Worse`], or [`Outcome::Equivalent`] (paper, Sec. I). The
//! default implementation, [`BootstrapComparator`], follows the bootstrap
//! strategy of the companion method paper (ref. \[15\], arXiv:2010.07226) as
//! summarized in Sec. III: repeatedly resample both distributions, compare a
//! set of quantile statistics per draw, and declare a significant difference
//! only when one side dominates a large fraction of the draws.

use crate::bootstrap::{quantile_sorted, resample_id_counts_into, QuantilePlan};
use crate::sample::Sample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Derives the decorrelated RNG seed of stream `index` under `base_seed`
/// (one SplitMix64 finalizer step).
///
/// This is the workspace's canonical seed-derivation function: the
/// clustering engine (`relperf_core::cluster::relative_scores_seeded`) and
/// the measurement driver
/// (`relperf_workloads::experiment::measure_all_seeded`) both split one
/// master seed into per-index streams with it, which is what makes their
/// parallel and serial paths bit-identical.
pub fn stream_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result of comparing algorithm `a` against algorithm `b`.
///
/// Measurements are costs (execution time, energy, …): *lower is better*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// `a` performs significantly better (lower metric) than `b`.
    Better,
    /// `a` performs significantly worse (higher metric) than `b`.
    Worse,
    /// The distributions overlap too much to separate — the algorithms
    /// belong to the same performance class.
    Equivalent,
}

impl Outcome {
    /// The outcome of the flipped comparison (`b` vs `a`).
    #[must_use]
    pub fn invert(self) -> Outcome {
        match self {
            Outcome::Better => Outcome::Worse,
            Outcome::Worse => Outcome::Better,
            Outcome::Equivalent => Outcome::Equivalent,
        }
    }

    /// The paper's notation: `>` for better, `<` for worse, `~` for
    /// equivalent.
    pub fn symbol(self) -> &'static str {
        match self {
            Outcome::Better => ">",
            Outcome::Worse => "<",
            Outcome::Equivalent => "~",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A three-way comparison strategy over measurement samples.
///
/// Implementations may be stochastic — the paper's relative scores exist
/// precisely because repeated comparisons of overlapping distributions can
/// flip between `Equivalent` and a strict outcome.
pub trait ThreeWayComparator {
    /// Compares `a` against `b`; lower measurements are better.
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome;
}

/// A comparator whose stochastic outcome can be addressed by an explicit
/// stream id instead of internal call order.
///
/// `compare_seeded(a, b, stream)` must be a *pure function* of the sample
/// pair, the stream id, and the comparator's own configuration — never of
/// how many comparisons ran before. This is the contract that lets the
/// clustering engine evaluate comparisons concurrently (in any order, on
/// any number of threads) and still produce bit-identical score tables.
///
/// Deterministic comparators (e.g. [`MedianComparator`]) satisfy the
/// contract trivially by ignoring `stream`.
pub trait SeededThreeWayComparator: ThreeWayComparator {
    /// Compares `a` against `b` using the stochastic stream `stream`.
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome;
}

/// A seeded comparator that can run against caller-provided scratch
/// memory, so a worker thread evaluating many comparisons reuses one
/// arena instead of allocating per call.
///
/// `compare_seeded_scratch(&mut scratch, a, b, stream)` must return
/// exactly what [`compare_seeded`](SeededThreeWayComparator::compare_seeded)
/// returns — scratch is working memory, never carried state. The parallel
/// clustering engine creates one scratch per worker
/// (`relperf_parallel::parallel_map_indexed_with`) and threads it through
/// every repetition that worker runs.
///
/// Comparators without working memory (e.g. [`MedianComparator`]) use
/// `Scratch = ()` and delegate.
pub trait ScratchThreeWayComparator: SeededThreeWayComparator {
    /// The reusable per-worker working memory.
    type Scratch: Send;

    /// Creates a scratch arena sized for this comparator.
    fn new_scratch(&self) -> Self::Scratch;

    /// Like [`compare_seeded`](SeededThreeWayComparator::compare_seeded),
    /// reusing `scratch` instead of allocating.
    fn compare_seeded_scratch(
        &self,
        scratch: &mut Self::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome;
}

// A comparator reference is a comparator: all three traits take `&self`,
// so `&C` delegates transparently. This is what lets owning contexts
// (e.g. `relperf_core`'s `ClusterSession`) be generic over "owned or
// borrowed" without a separate lifetime-infected API.
impl<T: ThreeWayComparator + ?Sized> ThreeWayComparator for &T {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        (**self).compare(a, b)
    }
}

impl<T: SeededThreeWayComparator + ?Sized> SeededThreeWayComparator for &T {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        (**self).compare_seeded(a, b, stream)
    }
}

impl<T: ScratchThreeWayComparator> ScratchThreeWayComparator for &T {
    type Scratch = T::Scratch;

    fn new_scratch(&self) -> T::Scratch {
        (**self).new_scratch()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut T::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        (**self).compare_seeded_scratch(scratch, a, b, stream)
    }
}

/// Reusable working memory for the [`BootstrapComparator`] fast path: the
/// count-vector buffer, the order-statistic scratch, the per-side quantile
/// values, and the cached [`QuantilePlan`]s.
///
/// One `Scratch` serves any number of comparisons sequentially — buffers
/// are cleared and refilled, and the plans only recompute when the sample
/// size or quantile list changes. At steady state (equal-sized samples, a
/// fixed comparator config — the common case of a clustering run) a
/// bootstrap round performs **zero** heap allocations.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Resample tallies over insertion order (shared by both sides —
    /// side A is fully drawn and read before side B is drawn). Indexed by
    /// insertion id so the quantile read can ride the sample's sorted
    /// runs and never needs a flat view.
    counts: Vec<u32>,
    /// Order statistics picked by the cumulative walk (2 per quantile;
    /// unused by the rank pass).
    stats: Vec<f64>,
    /// Side A's quantile values for the current round.
    q_a: Vec<f64>,
    /// Side B's quantile values for the current round.
    q_b: Vec<f64>,
    plan_a: QuantilePlan,
    plan_b: QuantilePlan,
}

impl Scratch {
    /// An empty scratch arena; buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Configuration of the [`BootstrapComparator`].
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapConfig {
    /// Number of bootstrap rounds `B`.
    pub reps: usize,
    /// Quantiles compared in each round.
    pub quantiles: Vec<f64>,
    /// Relative margin `δ`: a quantile only counts as a win when it beats
    /// the opponent by more than this fraction.
    pub margin: f64,
    /// Fraction `γ` of quantiles that must win for a round win.
    pub dominance: f64,
    /// Decision threshold `τ` on the round-win frequency difference.
    pub threshold: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            reps: 100,
            quantiles: vec![0.05, 0.25, 0.5, 0.75, 0.95],
            margin: 0.02,
            dominance: 0.8,
            threshold: 0.5,
        }
    }
}

impl BootstrapConfig {
    /// Validates the configuration, panicking with a descriptive message on
    /// nonsensical values. Called by [`BootstrapComparator::with_config`].
    pub fn validate(&self) {
        assert!(self.reps > 0, "bootstrap reps must be positive");
        assert!(!self.quantiles.is_empty(), "need at least one quantile");
        assert!(
            self.quantiles.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantiles must lie in [0, 1]"
        );
        assert!(self.margin >= 0.0, "margin must be non-negative");
        assert!(
            (0.0..=1.0).contains(&self.dominance),
            "dominance must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.threshold),
            "threshold must lie in [0, 1]"
        );
    }
}

/// Bootstrap quantile-dominance comparator (the paper's default strategy).
///
/// Each call derives a fresh RNG from the base seed and an internal counter,
/// so a given comparator instance produces a deterministic *sequence* of
/// stochastic comparisons — experiments are reproducible end-to-end from one
/// seed while successive comparisons of the same pair may still disagree,
/// which is what the relative scores of Sec. III quantify.
///
/// # Fast path
///
/// A comparison whose two samples' ranges are separated by more than the
/// margin runs no round at all: its outcome is fixed before any draw, and
/// [`range_certificate`](Self::range_certificate) returns it from the
/// samples' O(1) extremes. On the recorded comparisons of
/// `solo_campaign`-shaped waves this decides about two in three.
///
/// Every other comparison runs the rounds. A bootstrap round never
/// materializes or sorts a resample: because
/// [`Sample`] maintains a sorted index, each resample is drawn as a tally
/// over insertion order ([`resample_id_counts_into`]: same RNG draw
/// sequence, so seeded outcomes are **bit-identical** to the sort-based
/// reference — see
/// [`compare_seeded_reference`](BootstrapComparator::compare_seeded_reference))
/// and quantiles are read by one pass over the sample's sorted ids
/// ([`QuantilePlan::extract_sample_into`]): O(n) per round with zero
/// allocations at steady state, given a reused [`Scratch`]. Samples of up
/// to 256 measurements are read by a branch-free rank pass, since the
/// cumulative walk's data-dependent stops mispredict often enough to
/// dominate a round; larger samples keep the walk. The dominance vote and
/// the repetition loop both exit as soon as the outcome is decided.
///
/// # Examples
///
/// ```
/// use relperf_measure::{BootstrapComparator, Outcome, Sample, ThreeWayComparator};
///
/// let fast = Sample::new(vec![1.00, 1.02, 0.98, 1.01, 0.99]).unwrap();
/// let slow = Sample::new(vec![2.00, 2.02, 1.98, 2.01, 1.99]).unwrap();
/// let cmp = BootstrapComparator::new(42);
/// assert_eq!(cmp.compare(&fast, &slow), Outcome::Better);
/// assert_eq!(cmp.compare(&slow, &fast), Outcome::Worse);
/// assert_eq!(cmp.compare(&fast, &fast), Outcome::Equivalent);
/// ```
#[derive(Debug)]
pub struct BootstrapComparator {
    config: BootstrapConfig,
    base_seed: u64,
    counter: AtomicU64,
}

impl BootstrapComparator {
    /// Creates a comparator with the default configuration.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, BootstrapConfig::default())
    }

    /// Creates a comparator with an explicit configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see
    /// [`BootstrapConfig::validate`]).
    pub fn with_config(seed: u64, config: BootstrapConfig) -> Self {
        config.validate();
        BootstrapComparator {
            config,
            base_seed: seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// The **range certificate**: the outcome of comparing `a` against
    /// `b`, decided from the samples' extremes alone, or `None` when their
    /// ranges are not separated by more than the margin.
    ///
    /// If `a.min() ≥ f64::MIN_POSITIVE` and
    /// `a.max()·(1 + margin)·(1 + 1e-12) < b.min()`, every round's vote
    /// is a win for `a` for any resample and any quantile list, so the
    /// outcome is that of `reps` wins to none (`Better`, or `Equivalent`
    /// at threshold 1). The mirrored condition gives `Worse`. The rounds
    /// would reach the same outcome, bit for bit, since every round's
    /// result is known.
    ///
    /// Why every quantile wins: a resample quantile of `a` is
    /// `vlo·(1−frac) + vhi·frac` over two of `a`'s values, so in exact
    /// arithmetic it lies in `[a.min, a.max]`; in floats it lies within a
    /// relative few ulps (`u` = 2⁻⁵³) of that range, ≤ `a.max·(1 + 5u)`,
    /// and likewise `q_b ≥ b.min·(1 − 5u)`. The vote's test
    /// `q_a < q_b − margin·min(|q_a|, |q_b|)` has `min = q_a`, and rounding
    /// the product and the difference costs another few `u`, so it holds
    /// whenever `b.min > a.max·(1 + margin)·(1 + 16u)`. The condition's own
    /// four roundings (`1 + margin`, `1 + 1e-12` and both products) cost
    /// `4u`, and `1e-12` exceeds the ~20u (≈ 2.2e-15) these add up to, for
    /// any finite margin.
    ///
    /// Relative error bounds hold only for normal floats: below
    /// `f64::MIN_POSITIVE` a product rounds to a multiple of 2⁻¹⁰⁷⁴, so the
    /// median of the resample `[3·2⁻¹⁰⁷⁴, 3·2⁻¹⁰⁷⁴]` reads `4·2⁻¹⁰⁷⁴`.
    /// Hence the lower bound on `a.min()`, which keeps both sides' values
    /// normal; any absolute rounding error left in a subnormal partial
    /// product is then at most `u` times the normal quantile it feeds.
    /// Anything the condition does not cover runs the rounds: zero or
    /// negative values, a product that overflows to `inf` (which compares
    /// false), an infinite margin.
    pub fn range_certificate(&self, a: &Sample, b: &Sample) -> Option<Outcome> {
        let margin = self.config.margin;
        let separated = |lo: &Sample, hi: &Sample| {
            lo.min() >= f64::MIN_POSITIVE && lo.max() * (1.0 + margin) * (1.0 + 1e-12) < hi.min()
        };
        let reps = self.config.reps;
        if separated(a, b) {
            Some(self.decide(reps, 0))
        } else if separated(b, a) {
            Some(self.decide(0, reps))
        } else {
            None
        }
    }

    /// The final decision on `wins_a` and `wins_b` round wins out of
    /// `reps`.
    fn decide(&self, wins_a: usize, wins_b: usize) -> Outcome {
        let reps = self.config.reps as f64;
        let pa = wins_a as f64 / reps;
        let pb = wins_b as f64 / reps;
        if pa - pb > self.config.threshold {
            Outcome::Better
        } else if pb - pa > self.config.threshold {
            Outcome::Worse
        } else {
            Outcome::Equivalent
        }
    }

    /// The full bootstrap comparison on stochastic stream `stream` — the
    /// path every entry point takes.
    ///
    /// The [`range_certificate`](Self::range_certificate) answers first;
    /// it draws nothing, builds no plan and reads no quantile. Otherwise
    /// the rounds run on the allocation-free O(n)-per-round fast path,
    /// and the repetition loop locks in early: once the round-win lead is
    /// large enough (or the gap small enough) that no allocation of the
    /// remaining rounds can change which side of the threshold the final
    /// frequencies land on, the answer is already decided and the
    /// remaining rounds are skipped. The lock-in conditions use the
    /// *identical* float expressions as the final decision, and each
    /// per-round win count only moves monotonically, so the outcome is
    /// bit-identical to running every round (each comparison owns its
    /// RNG, so the skipped draws are observable to nobody).
    fn compare_stream(
        &self,
        stream: u64,
        a: &Sample,
        b: &Sample,
        scratch: &mut Scratch,
    ) -> Outcome {
        if let Some(outcome) = self.range_certificate(a, b) {
            return outcome;
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(self.base_seed, stream));
        scratch.plan_a.prepare(&self.config.quantiles, a.len());
        scratch.plan_b.prepare(&self.config.quantiles, b.len());
        let reps = self.config.reps;
        let mut wins_a = 0usize;
        let mut wins_b = 0usize;
        for done in 1..=reps {
            match self.round(&mut rng, a, b, scratch) {
                RoundResult::A => wins_a += 1,
                RoundResult::B => wins_b += 1,
                RoundResult::Tie => {}
            }
            let rem = reps - done;
            // Decided iff the best and worst remaining allocations agree.
            if self.decide(wins_a, wins_b + rem) == self.decide(wins_a + rem, wins_b) {
                break;
            }
        }
        self.decide(wins_a, wins_b)
    }

    /// One bootstrap round, allocation-free and O(n): draw each resample
    /// as a tally over insertion order (same RNG draw sequence as
    /// materializing the buffer — `n` uniform index draws per side), read
    /// the configured quantiles in one pass over the sample's sorted ids,
    /// and score the quantile-dominance vote for `a`, `b`, or a tie.
    ///
    /// The vote exits early as soon as a win is locked in (one side
    /// reached the needed count) or unreachable for both sides; the vote
    /// consumes no randomness, so early exit cannot perturb seeding.
    ///
    /// `scratch.plan_a` / `plan_b` must already be prepared for the two
    /// sample sizes (done once per comparison in `compare_stream`).
    fn round<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: &Sample,
        b: &Sample,
        scratch: &mut Scratch,
    ) -> RoundResult {
        resample_id_counts_into(rng, a, &mut scratch.counts);
        scratch
            .plan_a
            .extract_sample_into(a, &scratch.counts, &mut scratch.stats, &mut scratch.q_a);
        resample_id_counts_into(rng, b, &mut scratch.counts);
        scratch
            .plan_b
            .extract_sample_into(b, &scratch.counts, &mut scratch.stats, &mut scratch.q_b);

        let q = self.config.quantiles.len();
        let needed = (self.config.dominance * q as f64).ceil() as usize;
        let needed = needed.max(1);
        let mut wins_a = 0usize;
        let mut wins_b = 0usize;
        for i in 0..q {
            let qa = scratch.q_a[i];
            let qb = scratch.q_b[i];
            let scale = qa.abs().min(qb.abs());
            let gap = self.config.margin * scale;
            if qa < qb - gap {
                wins_a += 1;
            } else if qb < qa - gap {
                wins_b += 1;
            }
            // `a` is checked first, mirroring the reference's post-loop
            // priority; `b` or a tie only lock in once `a` is out.
            if wins_a >= needed {
                return RoundResult::A;
            }
            let rem = q - i - 1;
            if wins_a + rem < needed {
                if wins_b >= needed {
                    return RoundResult::B;
                }
                if wins_b + rem < needed {
                    return RoundResult::Tie;
                }
            }
        }
        unreachable!("the vote decides at the last quantile (rem == 0)")
    }

    /// Sort-based **reference oracle** for one bootstrap round — the
    /// original O(n log n) implementation (materialize both resamples,
    /// sort, read quantiles, full vote). Kept so tests can pin the
    /// count-based fast path ([`round`](Self::round)) bit-identical to it
    /// for any seed; not used on any production path.
    fn round_reference<R: Rng + ?Sized>(&self, rng: &mut R, a: &Sample, b: &Sample) -> RoundResult {
        let mut buf_a = Vec::with_capacity(a.len());
        let mut buf_b = Vec::with_capacity(b.len());
        crate::bootstrap::resample_into(rng, a, &mut buf_a);
        crate::bootstrap::resample_into(rng, b, &mut buf_b);
        buf_a.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        buf_b.sort_by(|x, y| x.partial_cmp(y).expect("finite"));

        let mut wins_a = 0usize;
        let mut wins_b = 0usize;
        for &q in &self.config.quantiles {
            let qa = quantile_sorted(&buf_a, q);
            let qb = quantile_sorted(&buf_b, q);
            let scale = qa.abs().min(qb.abs());
            let gap = self.config.margin * scale;
            if qa < qb - gap {
                wins_a += 1;
            } else if qb < qa - gap {
                wins_b += 1;
            }
        }
        let needed = (self.config.dominance * self.config.quantiles.len() as f64).ceil() as usize;
        let needed = needed.max(1);
        if wins_a >= needed {
            RoundResult::A
        } else if wins_b >= needed {
            RoundResult::B
        } else {
            RoundResult::Tie
        }
    }

    /// Sort-based reference implementation of
    /// [`compare_seeded`](SeededThreeWayComparator::compare_seeded): every
    /// round materializes, sorts, and fully votes, and every repetition
    /// runs. This is the **test oracle** the allocation-free fast path is
    /// pinned against (golden and property tests assert bit-identical
    /// outcomes for any stream); production callers should use
    /// `compare_seeded`.
    pub fn compare_seeded_reference(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.base_seed, stream));
        let mut wins_a = 0usize;
        let mut wins_b = 0usize;
        for _ in 0..self.config.reps {
            match self.round_reference(&mut rng, a, b) {
                RoundResult::A => wins_a += 1,
                RoundResult::B => wins_b += 1,
                RoundResult::Tie => {}
            }
        }
        let pa = wins_a as f64 / self.config.reps as f64;
        let pb = wins_b as f64 / self.config.reps as f64;
        if pa - pb > self.config.threshold {
            Outcome::Better
        } else if pb - pa > self.config.threshold {
            Outcome::Worse
        } else {
            Outcome::Equivalent
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RoundResult {
    A,
    B,
    Tie,
}

impl ThreeWayComparator for BootstrapComparator {
    /// Compares on the next stream of the internal counter: the `i`-th
    /// call answers what `compare_seeded(a, b, i)` would.
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        let stream = self.counter.fetch_add(1, Ordering::Relaxed);
        self.compare_stream(stream, a, b, &mut Scratch::new())
    }
}

impl SeededThreeWayComparator for BootstrapComparator {
    /// Pure-function comparison: the RNG derives from the comparator's base
    /// seed and `stream` only, leaving the internal sequence counter
    /// untouched.
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        let mut scratch = Scratch::new();
        self.compare_seeded_scratch(&mut scratch, a, b, stream)
    }
}

impl ScratchThreeWayComparator for BootstrapComparator {
    type Scratch = Scratch;

    fn new_scratch(&self) -> Scratch {
        Scratch::new()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.compare_stream(stream, a, b, scratch)
    }
}

/// TOST-style comparator on bootstrap confidence intervals of the mean:
/// `a` is better when its CI lies entirely below `b`'s CI by more than the
/// relative margin; overlapping CIs are equivalent.
///
/// A simpler, more classical alternative to [`BootstrapComparator`]; used by
/// the sensitivity experiments to show the clustering is robust to the
/// comparator choice.
#[derive(Debug)]
pub struct MeanCiComparator {
    /// Number of bootstrap repetitions per CI.
    pub reps: usize,
    /// Confidence level of each CI.
    pub level: f64,
    /// Relative equivalence margin on the CI gap.
    pub margin: f64,
    base_seed: u64,
    counter: AtomicU64,
}

impl MeanCiComparator {
    /// Creates a mean-CI comparator with the given seed and defaults
    /// (`reps=200`, `level=0.95`, `margin=0.01`).
    pub fn new(seed: u64) -> Self {
        MeanCiComparator {
            reps: 200,
            level: 0.95,
            margin: 0.01,
            base_seed: seed,
            counter: AtomicU64::new(0),
        }
    }
}

impl MeanCiComparator {
    fn compare_with_rng(&self, rng: &mut StdRng, a: &Sample, b: &Sample) -> Outcome {
        let ca = crate::bootstrap::mean_ci(rng, a, self.reps, self.level);
        let cb = crate::bootstrap::mean_ci(rng, b, self.reps, self.level);
        let gap = self.margin * ca.lo.abs().min(cb.lo.abs());
        if ca.hi + gap < cb.lo {
            Outcome::Better
        } else if cb.hi + gap < ca.lo {
            Outcome::Worse
        } else {
            Outcome::Equivalent
        }
    }
}

impl ThreeWayComparator for MeanCiComparator {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        let c = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut rng = StdRng::seed_from_u64(self.base_seed.wrapping_add(c.wrapping_mul(0x9E37)));
        self.compare_with_rng(&mut rng, a, b)
    }
}

impl SeededThreeWayComparator for MeanCiComparator {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.base_seed, stream));
        self.compare_with_rng(&mut rng, a, b)
    }
}

impl ScratchThreeWayComparator for MeanCiComparator {
    /// No reusable working memory (the bootstrap CI allocates its own
    /// stats vector per call).
    type Scratch = ();

    fn new_scratch(&self) {}

    fn compare_seeded_scratch(
        &self,
        (): &mut (),
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.compare_seeded(a, b, stream)
    }
}

/// Deterministic comparator on medians with a relative equivalence band —
/// useful in tests and for noise-free simulated measurements.
#[derive(Debug, Clone)]
pub struct MedianComparator {
    /// Relative band within which two medians count as equivalent.
    pub rel_tolerance: f64,
}

impl MedianComparator {
    /// Creates a median comparator with the given relative tolerance.
    pub fn new(rel_tolerance: f64) -> Self {
        assert!(rel_tolerance >= 0.0, "tolerance must be non-negative");
        MedianComparator { rel_tolerance }
    }
}

impl ThreeWayComparator for MedianComparator {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        let ma = a.median();
        let mb = b.median();
        let gap = self.rel_tolerance * ma.abs().min(mb.abs());
        if ma < mb - gap {
            Outcome::Better
        } else if mb < ma - gap {
            Outcome::Worse
        } else {
            Outcome::Equivalent
        }
    }
}

impl SeededThreeWayComparator for MedianComparator {
    /// Deterministic comparator: the stream id is irrelevant.
    fn compare_seeded(&self, a: &Sample, b: &Sample, _stream: u64) -> Outcome {
        self.compare(a, b)
    }
}

impl ScratchThreeWayComparator for MedianComparator {
    /// Deterministic and O(1) — no working memory.
    type Scratch = ();

    fn new_scratch(&self) {}

    fn compare_seeded_scratch(
        &self,
        (): &mut (),
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.compare_seeded(a, b, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn outcome_invert_and_symbols() {
        assert_eq!(Outcome::Better.invert(), Outcome::Worse);
        assert_eq!(Outcome::Worse.invert(), Outcome::Better);
        assert_eq!(Outcome::Equivalent.invert(), Outcome::Equivalent);
        assert_eq!(Outcome::Better.to_string(), ">");
        assert_eq!(Outcome::Equivalent.to_string(), "~");
    }

    #[test]
    fn separated_distributions_are_better_worse() {
        let cmp = BootstrapComparator::new(71);
        let fast = noisy(1.0, 0.05, 50, 1);
        let slow = noisy(2.0, 0.05, 50, 2);
        assert_eq!(cmp.compare(&fast, &slow), Outcome::Better);
        assert_eq!(cmp.compare(&slow, &fast), Outcome::Worse);
    }

    #[test]
    fn identical_distributions_are_equivalent() {
        let cmp = BootstrapComparator::new(72);
        let a = noisy(1.0, 0.1, 50, 3);
        let b = noisy(1.0, 0.1, 50, 4);
        assert_eq!(cmp.compare(&a, &b), Outcome::Equivalent);
    }

    #[test]
    fn heavily_overlapping_distributions_are_equivalent() {
        // b is a 0.5% elementwise shift of a — far inside the 2% margin.
        let cmp = BootstrapComparator::new(73);
        let a = noisy(1.00, 0.3, 40, 5);
        let b = Sample::new(a.values().iter().map(|v| v * 1.005).collect()).unwrap();
        assert_eq!(cmp.compare(&a, &b), Outcome::Equivalent);
    }

    #[test]
    fn comparator_sequence_is_deterministic() {
        let a = noisy(1.0, 0.2, 30, 7);
        let b = noisy(1.1, 0.2, 30, 8);
        let run = |seed: u64| {
            let cmp = BootstrapComparator::new(seed);
            (0..10).map(|_| cmp.compare(&a, &b)).collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn borderline_pair_flips_between_outcomes() {
        // Engineered overlap: with N small and distributions close, repeated
        // comparisons must disagree at least once — the effect the paper's
        // relative scores quantify (Sec. III, N=30 discussion). Fewer
        // bootstrap rounds widen the flip band around the τ boundary. The
        // 5% shift sits in that band for the workspace StdRng streams.
        let a = noisy(1.000, 0.10, 30, 9);
        let b = noisy(1.050, 0.10, 30, 10);
        let cfg = BootstrapConfig {
            reps: 20,
            ..Default::default()
        };
        let cmp = BootstrapComparator::with_config(74, cfg);
        let outcomes: Vec<Outcome> = (0..60).map(|_| cmp.compare(&a, &b)).collect();
        let distinct: std::collections::HashSet<_> = outcomes.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "expected stochastic flips, got only {distinct:?}"
        );
    }

    #[test]
    fn antisymmetry_holds_statistically() {
        let a = noisy(1.0, 0.05, 40, 11);
        let b = noisy(1.5, 0.05, 40, 12);
        let cmp = BootstrapComparator::new(75);
        for _ in 0..5 {
            let ab = cmp.compare(&a, &b);
            let ba = cmp.compare(&b, &a);
            assert_eq!(ab, ba.invert());
        }
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        let bad = BootstrapConfig {
            reps: 0,
            ..Default::default()
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
        let bad = BootstrapConfig {
            quantiles: vec![1.5],
            ..Default::default()
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
        let bad = BootstrapConfig {
            margin: -0.1,
            ..Default::default()
        };
        assert!(std::panic::catch_unwind(|| bad.validate()).is_err());
    }

    #[test]
    fn mean_ci_comparator_on_separated_and_overlapping() {
        let cmp = MeanCiComparator::new(76);
        let fast = noisy(1.0, 0.02, 40, 13);
        let slow = noisy(1.5, 0.02, 40, 14);
        assert_eq!(cmp.compare(&fast, &slow), Outcome::Better);
        assert_eq!(cmp.compare(&slow, &fast), Outcome::Worse);
        let other = noisy(1.001, 0.02, 40, 15);
        assert_eq!(cmp.compare(&fast, &other), Outcome::Equivalent);
    }

    #[test]
    fn median_comparator_deterministic() {
        let cmp = MedianComparator::new(0.05);
        let a = Sample::new(vec![1.0, 1.0, 1.0]).unwrap();
        let b = Sample::new(vec![2.0, 2.0, 2.0]).unwrap();
        let c = Sample::new(vec![1.02, 1.02, 1.02]).unwrap();
        assert_eq!(cmp.compare(&a, &b), Outcome::Better);
        assert_eq!(cmp.compare(&b, &a), Outcome::Worse);
        assert_eq!(cmp.compare(&a, &c), Outcome::Equivalent);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn median_comparator_rejects_negative_tolerance() {
        MedianComparator::new(-1.0);
    }

    #[test]
    fn compare_seeded_is_order_independent_and_stream_sensitive() {
        // The borderline pair of `borderline_pair_flips_between_outcomes`:
        // close enough that different streams must disagree.
        let a = noisy(1.000, 0.10, 30, 9);
        let b = noisy(1.050, 0.10, 30, 10);
        let cfg = || BootstrapConfig {
            reps: 20,
            ..Default::default()
        };
        let cmp = BootstrapComparator::with_config(33, cfg());
        let forward: Vec<Outcome> = (0..20).map(|s| cmp.compare_seeded(&a, &b, s)).collect();
        // Interleave unrelated calls and query in reverse: same answers —
        // compare_seeded must not depend on the internal counter.
        let other = BootstrapComparator::with_config(33, cfg());
        let _ = other.compare(&a, &b);
        let backward: Vec<Outcome> = (0..20)
            .rev()
            .map(|s| other.compare_seeded(&a, &b, s))
            .collect();
        let backward: Vec<Outcome> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // Distinct streams genuinely vary for this borderline pair; a
        // regression that ignored the stream id would collapse them.
        let distinct: std::collections::HashSet<_> = forward.iter().copied().collect();
        assert!(distinct.len() >= 2, "streams collapsed to {distinct:?}");
    }

    #[test]
    fn fast_path_is_bit_identical_to_sort_based_reference() {
        // The count-based O(n) round vs. the materializing O(n log n)
        // oracle: same streams, same outcomes — across separated,
        // borderline, and identical pairs, odd/even sizes, and unequal
        // sample lengths.
        let pairs = [
            (noisy(1.0, 0.05, 50, 1), noisy(2.0, 0.05, 50, 2)),
            (noisy(1.000, 0.10, 30, 9), noisy(1.050, 0.10, 30, 10)),
            (noisy(1.0, 0.1, 31, 3), noisy(1.0, 0.1, 47, 4)),
            (noisy(1.0, 0.3, 7, 5), noisy(1.01, 0.3, 7, 6)),
        ];
        for (reps, seed) in [(20usize, 74u64), (100, 42)] {
            let cfg = BootstrapConfig {
                reps,
                ..Default::default()
            };
            let cmp = BootstrapComparator::with_config(seed, cfg);
            let mut scratch = Scratch::new();
            for (a, b) in &pairs {
                for stream in 0..40u64 {
                    let reference = cmp.compare_seeded_reference(a, b, stream);
                    assert_eq!(
                        cmp.compare_seeded(a, b, stream),
                        reference,
                        "seed {seed} stream {stream}"
                    );
                    // The scratch-reusing entry point agrees too, with one
                    // arena shared across all pairs and streams.
                    assert_eq!(
                        cmp.compare_seeded_scratch(&mut scratch, a, b, stream),
                        reference,
                        "scratch path, seed {seed} stream {stream}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_handles_single_element_and_tied_samples() {
        let cmp = BootstrapComparator::new(7);
        let one = Sample::new(vec![1.0]).unwrap();
        let two = Sample::new(vec![2.0]).unwrap();
        let tied = Sample::new(vec![3.0; 12]).unwrap();
        for (a, b) in [(&one, &two), (&two, &one), (&one, &one), (&tied, &tied)] {
            for stream in 0..10 {
                assert_eq!(
                    cmp.compare_seeded(a, b, stream),
                    cmp.compare_seeded_reference(a, b, stream)
                );
            }
        }
    }

    #[test]
    fn extreme_dominance_and_threshold_configs_match_reference() {
        // Stress the early-exit logic: dominance 0 (one quantile win
        // decides a round), dominance 1 (all must win), threshold 0
        // (any lead decides), threshold 1 (nothing ever decides).
        // Dominances 0.5 and 0.7 make `dominance × 5 quantiles` fractional
        // (2.5, 3.5), so a vote that rounds its quorum down shows.
        let a = noisy(1.00, 0.10, 25, 31);
        let b = noisy(1.03, 0.10, 25, 32);
        for dominance in [0.0, 0.4, 0.5, 0.7, 1.0] {
            for threshold in [0.0, 0.5, 1.0] {
                let cfg = BootstrapConfig {
                    reps: 30,
                    dominance,
                    threshold,
                    ..Default::default()
                };
                let cmp = BootstrapComparator::with_config(9, cfg);
                for stream in 0..20 {
                    assert_eq!(
                        cmp.compare_seeded(&a, &b, stream),
                        cmp.compare_seeded_reference(&a, &b, stream),
                        "dominance {dominance} threshold {threshold} stream {stream}"
                    );
                }
            }
        }
    }

    #[test]
    fn compare_counter_advances_once_per_call_certified_or_not() {
        // Certified pairs run no round, yet each `compare` still consumes
        // one stream of the internal counter: the i-th call answers what
        // stream i answers, whichever mix of pairs came before it.
        // `fast`/`near` is the borderline pair of
        // `borderline_pair_flips_between_outcomes`.
        let fast = noisy(1.000, 0.10, 30, 9);
        let near = noisy(1.050, 0.10, 30, 10);
        let slow = noisy(2.0, 0.05, 30, 42);
        let cfg = BootstrapConfig {
            reps: 20,
            ..Default::default()
        };
        let cmp = BootstrapComparator::with_config(74, cfg);
        let pairs = [
            (&fast, &slow),
            (&fast, &near),
            (&slow, &fast),
            (&near, &fast),
            (&fast, &near),
            (&slow, &near),
        ];
        assert!(cmp.range_certificate(&fast, &slow).is_some());
        assert!(cmp.range_certificate(&fast, &near).is_none());
        let mut uncertified = Vec::new();
        for i in 0..60u64 {
            let (a, b) = pairs[(i as usize * 7) % pairs.len()];
            let got = cmp.compare(a, b);
            assert_eq!(got, cmp.compare_seeded_reference(a, b, i), "call {i}");
            if cmp.range_certificate(a, b).is_none() {
                uncertified.push(got);
            }
        }
        // The uncertified borderline calls are stochastic: a counter that
        // stalled or skipped would shift them onto other streams.
        let distinct: std::collections::HashSet<_> = uncertified.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "uncertified calls collapsed to {distinct:?}"
        );
    }

    #[test]
    fn certificate_keeps_out_of_rounding_reach() {
        // Two pairs whose ranges are separated, yet a resample quantile
        // ties across them, so at dominance 1 every round ties and the
        // rounds answer Equivalent. The certificate must not fire on
        // either.
        let cfg = BootstrapConfig {
            margin: 0.0,
            dominance: 1.0,
            ..Default::default()
        };
        let cmp = BootstrapComparator::with_config(79, cfg);
        // One ulp apart: for n = 8 the 0.05 quantile of [b; 8] reads
        // b·0.65 + b·0.35 = 1.0. Only the 1e-12 slack keeps this out.
        let one_ulp = (
            Sample::new(vec![1.0; 8]).unwrap(),
            Sample::new(vec![1.0f64.next_up(); 8]).unwrap(),
        );
        // Subnormal: below f64::MIN_POSITIVE a product rounds to a
        // multiple of 2^-1074, not relative to the value. The median of
        // [3·2^-1074; 2] reads 1.5 → 2 twice, 4·2^-1074, and that of
        // [5·2^-1074; 2] reads 2.5 → 2 twice, also 4·2^-1074. The slack
        // vanishes at this scale; the MIN_POSITIVE bound keeps it out.
        let unit = f64::from_bits(1);
        let subnormal = (
            Sample::new(vec![3.0 * unit; 2]).unwrap(),
            Sample::new(vec![5.0 * unit; 2]).unwrap(),
        );
        for (a, b) in [&one_ulp, &subnormal] {
            assert!(a.max() < b.min());
            assert_eq!(cmp.range_certificate(a, b), None);
            for stream in 0..5 {
                assert_eq!(
                    cmp.compare_seeded_reference(a, b, stream),
                    Outcome::Equivalent
                );
                assert_eq!(cmp.compare_seeded(a, b, stream), Outcome::Equivalent);
            }
        }
        // Scaled apart, the subnormal pair is certified both ways.
        let scale =
            |s: &Sample| Sample::new(s.values().iter().map(|v| v * 2f64.powi(60)).collect());
        let (a, b) = (scale(&subnormal.0).unwrap(), scale(&subnormal.1).unwrap());
        assert_eq!(cmp.range_certificate(&a, &b), Some(Outcome::Better));
        assert_eq!(cmp.range_certificate(&b, &a), Some(Outcome::Worse));
        assert_eq!(cmp.compare_seeded_reference(&a, &b, 0), Outcome::Better);
    }

    #[test]
    fn zero_margin_still_behaves() {
        let cfg = BootstrapConfig {
            margin: 0.0,
            ..Default::default()
        };
        let cmp = BootstrapComparator::with_config(77, cfg);
        let fast = noisy(1.0, 0.01, 40, 16);
        let slow = noisy(3.0, 0.01, 40, 17);
        assert_eq!(cmp.compare(&fast, &slow), Outcome::Better);
    }
}
