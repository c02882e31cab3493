//! Performance classes and relative scores (Procedure 4 of the paper).
//!
//! The clustering procedure is not deterministic when the measurement
//! distributions partially overlap: repeated sorts can assign a borderline
//! algorithm to different classes. Procedure 4 turns that instability into
//! information — the *relative score* of algorithm `j` with respect to
//! class `r` is the fraction of `Rep` shuffled clustering repetitions in
//! which `j` received rank `r`, i.e. the confidence of that membership.

use crate::cache::ComparisonCache;
use crate::sort::{sort_from, SortState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relperf_measure::{stream_seed, Outcome};

pub use relperf_parallel::Parallelism;

/// Configuration of the repeated clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of shuffled sort repetitions (`Rep` in Procedure 4).
    pub repetitions: usize,
    /// How to spread the repetitions across threads. Every repetition is
    /// index-addressable, so any setting yields bit-identical scores.
    pub parallelism: Parallelism,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            repetitions: 100,
            parallelism: Parallelism::auto(),
        }
    }
}

impl ClusterConfig {
    /// A config with `repetitions` shuffled sorts and automatic parallelism.
    pub fn with_repetitions(repetitions: usize) -> Self {
        ClusterConfig {
            repetitions,
            ..Default::default()
        }
    }
}

/// Relative scores of every algorithm with respect to every class.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreTable {
    /// Number of algorithms `p`.
    p: usize,
    /// `scores[alg][rank-1]` = fraction of repetitions in which `alg`
    /// received `rank`. Rows sum to 1 (up to rounding).
    scores: Vec<Vec<f64>>,
    /// Largest rank observed in any repetition.
    max_rank: usize,
}

impl ScoreTable {
    /// Number of algorithms.
    pub fn num_algorithms(&self) -> usize {
        self.p
    }

    /// Largest class index `k` observed across repetitions.
    pub fn num_classes(&self) -> usize {
        self.max_rank
    }

    /// Relative score of `alg` with respect to class `rank` (1-based);
    /// 0 when the pair never occurred.
    pub fn score(&self, alg: usize, rank: usize) -> f64 {
        if rank == 0 || rank > self.max_rank {
            return 0.0;
        }
        self.scores[alg][rank - 1]
    }

    /// The paper's per-cluster view: for class `rank`, every algorithm with
    /// a positive relative score, sorted by descending score (ties by
    /// index). This is the `GetCluster_r` output.
    pub fn cluster(&self, rank: usize) -> Vec<(usize, f64)> {
        let mut members: Vec<(usize, f64)> = (0..self.p)
            .map(|alg| (alg, self.score(alg, rank)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        members
    }

    /// All clusters, `C_1` through `C_k`.
    pub fn clusters(&self) -> Vec<Vec<(usize, f64)>> {
        (1..=self.max_rank).map(|r| self.cluster(r)).collect()
    }

    /// The raw per-algorithm score rows: `score_rows()[alg][rank - 1]` is
    /// the relative score of `alg` for `rank`. Rows all have the same
    /// length (≥ [`num_classes`](ScoreTable::num_classes)); trailing
    /// entries beyond `num_classes` are zero. This is the serialization
    /// view used by the service snapshot codec —
    /// [`from_rows`](ScoreTable::from_rows) is its inverse.
    pub fn score_rows(&self) -> &[Vec<f64>] {
        &self.scores
    }

    /// Rebuilds a table from rows captured by
    /// [`score_rows`](ScoreTable::score_rows) and the accompanying
    /// [`num_classes`](ScoreTable::num_classes). Round-tripping preserves
    /// the table bit for bit.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged, when `max_rank` exceeds the
    /// row length, or when any score is non-finite.
    pub fn from_rows(rows: Vec<Vec<f64>>, max_rank: usize) -> ScoreTable {
        let p = rows.len();
        assert!(p > 0, "a score table covers at least one algorithm");
        let width = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == width),
            "score rows must be rectangular"
        );
        assert!(max_rank <= width, "num_classes exceeds the row width");
        assert!(
            rows.iter().flatten().all(|s| s.is_finite()),
            "scores must be finite"
        );
        ScoreTable {
            p,
            scores: rows,
            max_rank,
        }
    }

    /// Largest absolute difference between any `(algorithm, class)` score
    /// of `self` and `other` — the distance the session engine's
    /// convergence criterion
    /// ([`ConvergenceCriterion`](crate::session::ConvergenceCriterion))
    /// thresholds between consecutive measurement waves. Classes beyond
    /// either table's `num_classes` count as score 0.
    ///
    /// # Panics
    /// Panics when the tables cover different algorithm counts.
    pub fn max_abs_diff(&self, other: &ScoreTable) -> f64 {
        assert_eq!(
            self.p, other.p,
            "score tables over different algorithm sets are incomparable"
        );
        let ranks = self.max_rank.max(other.max_rank);
        let mut d = 0.0_f64;
        for alg in 0..self.p {
            for rank in 1..=ranks {
                d = d.max((self.score(alg, rank) - other.score(alg, rank)).abs());
            }
        }
        d
    }

    /// The paper's final single-cluster assignment: each algorithm goes to
    /// the class with its maximum relative score (ties resolved towards the
    /// better class), and its final score cumulates the scores of that class
    /// and all better classes.
    pub fn final_assignment(&self) -> Clustering {
        let mut assignments = Vec::with_capacity(self.p);
        for alg in 0..self.p {
            let row = &self.scores[alg];
            let mut best_rank = 1;
            let mut best_score = f64::MIN;
            for (idx, &s) in row.iter().enumerate() {
                // Strictly greater: earlier (better) ranks win ties.
                if s > best_score {
                    best_score = s;
                    best_rank = idx + 1;
                }
            }
            let cumulative: f64 = row[..best_rank].iter().sum();
            assignments.push(Assignment {
                algorithm: alg,
                rank: best_rank,
                score: cumulative,
            });
        }
        Clustering::from_assignments(assignments)
    }
}

/// One algorithm's final class and cumulative confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Algorithm index.
    pub algorithm: usize,
    /// Final class (1-based, after renumbering to consecutive classes).
    pub rank: usize,
    /// Cumulative relative score (confidence).
    pub score: f64,
}

/// A final clustering: each algorithm in exactly one class.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<Assignment>,
    num_classes: usize,
}

impl Clustering {
    fn from_assignments(mut assignments: Vec<Assignment>) -> Self {
        // Renumber ranks to consecutive 1..=k (max-score assignment can
        // leave gaps when no algorithm peaks in some intermediate class).
        let mut ranks: Vec<usize> = assignments.iter().map(|a| a.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for a in &mut assignments {
            a.rank = ranks.binary_search(&a.rank).expect("rank present") + 1;
        }
        let num_classes = ranks.len();
        Clustering {
            assignments,
            num_classes,
        }
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-algorithm assignments, indexed by algorithm.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Class and score of one algorithm.
    pub fn assignment(&self, alg: usize) -> Assignment {
        self.assignments[alg]
    }

    /// Members of class `rank` with their scores, best score first.
    pub fn class(&self, rank: usize) -> Vec<Assignment> {
        let mut v: Vec<Assignment> = self
            .assignments
            .iter()
            .copied()
            .filter(|a| a.rank == rank)
            .collect();
        v.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.algorithm.cmp(&b.algorithm))
        });
        v
    }
}

/// Procedure 4: runs `config.repetitions` shuffled sorts and tallies the
/// relative score of every (algorithm, class) pair — the entry point of
/// the clustering engine.
///
/// `cmp(stream, a, b)` compares algorithm `a` against `b`; it is typically
/// stochastic (a fresh bootstrap comparison per call over the same fixed
/// measurement samples — the paper re-uses the `N` measurements and repeats
/// only the analysis), with the randomness drawn from `stream`.
///
/// * **Addressable randomness.** Each repetition derives its shuffle RNG
///   from `(seed, repetition index)` and each pairwise comparison is
///   identified by a stream id derived from `(seed, repetition, pair)`;
///   `cmp(stream, a, b)` receives that id (`a < b` always) and must be a
///   pure function of it (see
///   `relperf_measure::SeededThreeWayComparator::compare_seeded`).
///   Repetitions are therefore independent, and the score table is
///   **bit-identical** for any [`Parallelism`] in `config`,
///   [`Parallelism::serial`] included.
/// * **Memoized comparisons.** Within one repetition a [`ComparisonCache`]
///   answers repeated queries about the same pair (bubble-sort passes
///   revisit pairs after swaps) and enforces antisymmetry, cutting the
///   number of bootstrap invocations per repetition to at most `p(p-1)/2`.
///   Each repetition starts from a fresh cache and nothing is memoized
///   across calls, preserving the stochastic flips that relative scores
///   exist to measure.
///
/// # Examples
///
/// ```
/// use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
/// use relperf_core::Outcome;
///
/// let cost = [2.0, 1.0, 2.0];
/// let cmp = |_stream: u64, a: usize, b: usize| {
///     match cost[a].partial_cmp(&cost[b]).unwrap() {
///         std::cmp::Ordering::Less => Outcome::Better,
///         std::cmp::Ordering::Greater => Outcome::Worse,
///         std::cmp::Ordering::Equal => Outcome::Equivalent,
///     }
/// };
/// let serial = ClusterConfig { parallelism: Parallelism::serial(), ..Default::default() };
/// let threaded = ClusterConfig { parallelism: Parallelism::auto(), ..Default::default() };
/// let a = relative_scores_seeded(3, serial, 7, cmp);
/// let b = relative_scores_seeded(3, threaded, 7, cmp);
/// assert_eq!(a, b); // bit-identical, whatever the thread count
/// assert_eq!(a.score(1, 1), 1.0);
/// ```
pub fn relative_scores_seeded(
    p: usize,
    config: ClusterConfig,
    seed: u64,
    cmp: impl Fn(u64, usize, usize) -> Outcome + Sync,
) -> ScoreTable {
    let mut caches: Vec<ComparisonCache> = (0..config.repetitions)
        .map(|_| ComparisonCache::new(p))
        .collect();
    scored_wave(
        p,
        config,
        seed,
        &mut caches,
        &|| (),
        &|(): &mut (), stream, a, b| cmp(stream, a, b),
    )
}

/// The wave engine both batch and streaming entry points share: one full
/// pass of Procedure 4 (all `config.repetitions` shuffled sorts) over
/// whatever samples back `cmp`.
///
/// `caches[rep]` is repetition `rep`'s [`ComparisonCache`]. Cached
/// outcomes are answered without calling `cmp`; misses are computed and
/// written back. [`relative_scores_seeded`] passes fresh caches; a
/// [`ClusterSession`](crate::session::ClusterSession) carries its caches
/// **across waves** and invalidates the pairs whose samples changed
/// between them.
///
/// Each worker thread calls `init()` once and every comparison it
/// evaluates receives that state as `cmp(&mut scratch, stream, a, b)` —
/// the hook that lets an allocating comparator (e.g. the bootstrap fast
/// path's `relperf_measure::Scratch`) reuse its working memory without
/// locking. The *outcome* must be a pure function of `(samples, stream)` —
/// the seeded-comparator contract — so scratch is working memory only,
/// and a warm cache can only replay what `cmp` would return: for any
/// cache state that is consistent with the current samples the result is
/// **bit-identical** to a wave from fresh caches on those samples, for
/// any [`Parallelism`].
pub(crate) fn scored_wave<S, I, F>(
    p: usize,
    config: ClusterConfig,
    seed: u64,
    caches: &mut [ComparisonCache],
    init: &I,
    cmp: &F,
) -> ScoreTable
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64, usize, usize) -> Outcome + Sync,
{
    assert!(config.repetitions > 0, "need at least one repetition");
    assert_eq!(caches.len(), config.repetitions, "one cache per repetition");

    // Tally of one finished repetition: algorithm → rank, plus the
    // largest rank observed.
    let tally = |state: &SortState| -> (Vec<usize>, usize) {
        let mut ranks_of = vec![0usize; p];
        let mut max_rank = 0usize;
        for (pos, &alg) in state.sequence.iter().enumerate() {
            ranks_of[alg] = state.ranks[pos];
            max_rank = max_rank.max(state.ranks[pos]);
        }
        (ranks_of, max_rank)
    };

    // One repetition: shuffle with the repetition's own RNG, then sort
    // with memoized, stream-addressed comparisons out of `cache`.
    let run_rep = |cache: &mut ComparisonCache, scratch: &mut S, rep: usize| {
        let rep_seed = stream_seed(seed, rep as u64);
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let mut seq: Vec<usize> = (0..p).collect();
        seq.shuffle(&mut rng);
        let state = sort_from(SortState::from_sequence(seq), |a, b| {
            cache.get_or_compute(a, b, &mut |lo, hi| {
                let stream = stream_seed(rep_seed, (lo * p + hi) as u64);
                cmp(scratch, stream, lo, hi)
            })
        });
        tally(&state)
    };

    // Each worker continues the repetition's cache (cloned in, written
    // back by index afterwards — the clone is p² option-bytes, negligible
    // next to one bootstrap).
    let results: Vec<((Vec<usize>, usize), ComparisonCache)> =
        relperf_parallel::parallel_map_indexed_with(
            config.repetitions,
            config.parallelism,
            init,
            |scratch, rep| {
                let mut cache = caches[rep].clone();
                let t = run_rep(&mut cache, scratch, rep);
                (t, cache)
            },
        );

    let mut counts = vec![vec![0usize; p.max(1)]; p];
    let mut max_rank = 0usize;
    for (slot, ((ranks_of, rep_max), cache)) in caches.iter_mut().zip(results) {
        *slot = cache;
        for (alg, &rank) in ranks_of.iter().enumerate() {
            counts[alg][rank - 1] += 1;
        }
        max_rank = max_rank.max(rep_max);
    }

    let rep = config.repetitions as f64;
    let scores = counts
        .into_iter()
        .map(|row| row.into_iter().map(|c| c as f64 / rep).collect())
        .collect();
    ScoreTable {
        p,
        scores,
        max_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{Better, Equivalent, Worse};

    fn level_cmp(levels: &'static [usize]) -> impl Fn(u64, usize, usize) -> Outcome + Sync {
        move |_stream, a, b| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Better,
            std::cmp::Ordering::Greater => Worse,
            std::cmp::Ordering::Equal => Equivalent,
        }
    }

    #[test]
    fn cluster_view_sorted_by_score() {
        static LEVELS: [usize; 3] = [0, 0, 1];
        let table =
            relative_scores_seeded(3, ClusterConfig::with_repetitions(20), 84, level_cmp(&LEVELS));
        let c1 = table.cluster(1);
        assert_eq!(c1.len(), 2);
        assert!(c1.iter().all(|&(_, s)| s == 1.0));
        let c2 = table.cluster(2);
        assert_eq!(c2, vec![(2, 1.0)]);
        assert!(table.cluster(9).is_empty());
        assert_eq!(table.clusters().len(), 2);
    }

    #[test]
    fn final_assignment_max_score_and_cumulation() {
        // Hand-built table mirroring the paper's Sec. III example:
        // AD: 1.0 @ C1; AA: 0.3 @ C1, 0.7 @ C2; DD: 0.3 @ C2, 0.7 @ C3;
        // DA: 0.3 @ C2, 0.6 @ C3, 0.1 @ C4.
        let table = ScoreTable {
            p: 4,
            scores: vec![
                vec![1.0, 0.0, 0.0, 0.0],      // AD
                vec![0.3, 0.7, 0.0, 0.0],      // AA
                vec![0.0, 0.3, 0.7, 0.0],      // DD
                vec![0.0, 0.3, 0.6, 0.1],      // DA
            ],
            max_rank: 4,
        };
        let clustering = table.final_assignment();
        // Paper: C1 {AD 1.0}; C2 {AA 1.0}; C3 {DD 1.0, DA 0.9}.
        assert_eq!(clustering.num_classes(), 3);
        let ad = clustering.assignment(0);
        assert_eq!((ad.rank, ad.score), (1, 1.0));
        let aa = clustering.assignment(1);
        assert_eq!(aa.rank, 2);
        assert!((aa.score - 1.0).abs() < 1e-9);
        let dd = clustering.assignment(2);
        assert_eq!(dd.rank, 3);
        assert!((dd.score - 1.0).abs() < 1e-9);
        let da = clustering.assignment(3);
        assert_eq!(da.rank, 3);
        assert!((da.score - 0.9).abs() < 1e-9);
        // Class view is ordered by score.
        let c3 = clustering.class(3);
        assert_eq!(c3[0].algorithm, 2);
        assert_eq!(c3[1].algorithm, 3);
    }

    #[test]
    fn score_rows_round_trip_is_bit_exact() {
        let table = relative_scores_seeded(
            5,
            ClusterConfig::with_repetitions(40),
            9,
            stochastic_seeded_cmp,
        );
        let rebuilt =
            ScoreTable::from_rows(table.score_rows().to_vec(), table.num_classes());
        assert_eq!(rebuilt, table);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn from_rows_rejects_ragged_rows() {
        let _ = ScoreTable::from_rows(vec![vec![1.0, 0.0], vec![0.5]], 2);
    }

    #[test]
    fn final_assignment_renumbers_gapped_ranks() {
        // Both algorithms peak in classes 1 and 3 — class 2 disappears and
        // ranks must be renumbered consecutively.
        let table = ScoreTable {
            p: 2,
            scores: vec![vec![0.9, 0.1, 0.0], vec![0.0, 0.4, 0.6]],
            max_rank: 3,
        };
        let clustering = table.final_assignment();
        assert_eq!(clustering.num_classes(), 2);
        assert_eq!(clustering.assignment(0).rank, 1);
        assert_eq!(clustering.assignment(1).rank, 2);
    }

    #[test]
    fn tie_in_scores_resolves_to_better_rank() {
        let table = ScoreTable {
            p: 1,
            scores: vec![vec![0.5, 0.5]],
            max_rank: 2,
        };
        let c = table.final_assignment();
        assert_eq!(c.assignment(0).rank, 1);
        assert!((c.assignment(0).score - 0.5).abs() < 1e-9);
    }

    /// Stream-addressed stochastic comparator for the seeded tests: the
    /// outcome of a pair is a pure function of (stream, a, b), flipping
    /// between equivalent and decided — a stand-in for a borderline
    /// bootstrap comparison.
    fn stochastic_seeded_cmp(stream: u64, a: usize, b: usize) -> Outcome {
        let h = stream ^ ((a as u64) << 32) ^ b as u64;
        match h % 3 {
            0 => Outcome::Equivalent,
            _ => {
                if a < b {
                    Outcome::Better
                } else {
                    Outcome::Worse
                }
            }
        }
    }

    #[test]
    fn seeded_scores_are_parallelism_invariant() {
        let config = |par: Parallelism| ClusterConfig {
            repetitions: 60,
            parallelism: par,
        };
        let reference =
            relative_scores_seeded(6, config(Parallelism::serial()), 7, stochastic_seeded_cmp);
        for threads in [0usize, 2, 3, 8] {
            for chunk in [0usize, 1, 5, 100] {
                let par = relative_scores_seeded(
                    6,
                    config(Parallelism { threads, chunk }),
                    7,
                    stochastic_seeded_cmp,
                );
                assert_eq!(par, reference, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn scratch_arena_is_working_memory_only() {
        // scored_wave: a worker-local scratch must not change results vs.
        // the stateless path, whatever it accumulates.
        let base = ClusterConfig::with_repetitions(40);
        let reference = relative_scores_seeded(6, base, 5, stochastic_seeded_cmp);
        for threads in [1usize, 0, 4] {
            let cfg = ClusterConfig {
                parallelism: Parallelism::with_threads(threads),
                ..base
            };
            let mut caches: Vec<ComparisonCache> =
                (0..40).map(|_| ComparisonCache::new(6)).collect();
            let got = scored_wave(
                6,
                cfg,
                5,
                &mut caches,
                &Vec::<u64>::new,
                &|scratch: &mut Vec<u64>, stream, a, b| {
                    scratch.push(stream); // scribble freely
                    stochastic_seeded_cmp(stream, a, b)
                },
            );
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn seeded_scores_depend_on_seed_and_rows_sum_to_one() {
        let cfg = ClusterConfig::with_repetitions(80);
        let a = relative_scores_seeded(5, cfg, 1, stochastic_seeded_cmp);
        let b = relative_scores_seeded(5, cfg, 2, stochastic_seeded_cmp);
        assert_ne!(a, b, "different seeds must explore different shuffles");
        for table in [&a, &b] {
            for alg in 0..5 {
                let total: f64 = (1..=table.num_classes()).map(|r| table.score(alg, r)).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
        }
        // A borderline pair flips between equivalent and decided across
        // repetitions, so algorithm 1 splits between classes 1 and 2.
        let s11 = a.score(1, 1);
        let s12 = a.score(1, 2);
        assert!(s11 > 0.05 && s12 > 0.05, "score(1,1) = {s11}, score(1,2) = {s12}");
    }

    #[test]
    fn seeded_matches_deterministic_comparator_semantics() {
        static LEVELS: [usize; 4] = [1, 0, 2, 1];
        let table =
            relative_scores_seeded(4, ClusterConfig::with_repetitions(50), 81, level_cmp(&LEVELS));
        assert_eq!(table.num_classes(), 3);
        assert_eq!(table.score(1, 1), 1.0);
        assert_eq!(table.score(0, 2), 1.0);
        assert_eq!(table.score(3, 2), 1.0);
        assert_eq!(table.score(2, 3), 1.0);
        // Scores for other ranks are zero.
        assert_eq!(table.score(1, 2), 0.0);
        assert_eq!(table.score(2, 1), 0.0);
    }

    #[test]
    fn seeded_comparator_sees_canonical_pairs_once_per_repetition() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<(u64, usize, usize)>> = Mutex::new(HashSet::new());
        let table = relative_scores_seeded(
            5,
            ClusterConfig::with_repetitions(30),
            3,
            |stream, a, b| {
                assert!(a < b, "comparator must receive the canonical order");
                let fresh = seen.lock().unwrap().insert((stream, a, b));
                assert!(fresh, "pair ({a}, {b}) re-queried on stream {stream}");
                Equivalent
            },
        );
        assert_eq!(table.num_classes(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn seeded_zero_repetitions_panics() {
        relative_scores_seeded(2, ClusterConfig::with_repetitions(0), 0, |_, _, _| Equivalent);
    }

    #[test]
    fn seeded_single_algorithm() {
        let table = relative_scores_seeded(1, ClusterConfig::with_repetitions(5), 4, |_, _, _| {
            unreachable!("no comparisons for p = 1")
        });
        assert_eq!(table.num_classes(), 1);
        assert_eq!(table.score(0, 1), 1.0);
    }
}
