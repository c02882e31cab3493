//! Clustering-similarity metrics (pair-counting Rand and adjusted Rand
//! indices).
//!
//! Used by the stability experiments around Procedure 4 (Sec. III): the
//! paper notes that the clustering
//! "is not deterministic, especially when the fluctuations in the
//! performance measurements are large" — these metrics quantify *how*
//! different two clusterings of the same algorithm set are, e.g. between
//! measurement campaigns or across values of `N`.

use crate::cluster::Clustering;

/// Extracts the class label of every algorithm, indexed by algorithm.
fn labels(c: &Clustering) -> Vec<usize> {
    c.assignments().iter().map(|a| a.rank).collect()
}

/// Pair-counting contingency: `(both_same, both_diff, mixed)` over all
/// unordered algorithm pairs.
fn pair_counts(a: &[usize], b: &[usize]) -> (u64, u64, u64) {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same algorithms");
    let n = a.len();
    let (mut same, mut diff, mut mixed) = (0u64, 0u64, 0u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let sa = a[i] == a[j];
            let sb = b[i] == b[j];
            match (sa, sb) {
                (true, true) => same += 1,
                (false, false) => diff += 1,
                _ => mixed += 1,
            }
        }
    }
    (same, diff, mixed)
}

/// Rand index in `[0, 1]`: the fraction of algorithm pairs on which the
/// two clusterings agree (both together or both apart). 1 = identical
/// partitions. Defined as 1 for fewer than two algorithms.
pub fn rand_index(a: &Clustering, b: &Clustering) -> f64 {
    let la = labels(a);
    let lb = labels(b);
    if la.len() < 2 {
        return 1.0;
    }
    let (same, diff, mixed) = pair_counts(&la, &lb);
    (same + diff) as f64 / (same + diff + mixed) as f64
}

/// Adjusted Rand index: the Rand index corrected for chance agreement
/// (0 ≈ random relabelling, 1 = identical). Defined as 1 for fewer than
/// two algorithms or when both partitions are trivially identical.
pub fn adjusted_rand_index(a: &Clustering, b: &Clustering) -> f64 {
    let la = labels(a);
    let lb = labels(b);
    assert_eq!(la.len(), lb.len(), "clusterings must cover the same algorithms");
    let n = la.len();
    if n < 2 {
        return 1.0;
    }
    let ka = la.iter().max().copied().unwrap_or(0);
    let kb = lb.iter().max().copied().unwrap_or(0);
    // Contingency table.
    let mut table = vec![vec![0u64; kb + 1]; ka + 1];
    for i in 0..n {
        table[la[i]][lb[i]] += 1;
    }
    let choose2 = |x: u64| x * x.saturating_sub(1) / 2;
    let sum_ij: u64 = table.iter().flatten().map(|&x| choose2(x)).sum();
    let sum_a: u64 = table.iter().map(|row| choose2(row.iter().sum())).sum();
    let sum_b: u64 = (0..=kb)
        .map(|j| choose2(table.iter().map(|row| row[j]).sum()))
        .sum();
    let total = choose2(n as u64) as f64;
    let expected = sum_a as f64 * sum_b as f64 / total;
    let max_index = (sum_a + sum_b) as f64 / 2.0;
    if (max_index - expected).abs() < f64::EPSILON {
        return 1.0; // both partitions trivial (all-same or all-distinct)
    }
    (sum_ij as f64 - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{relative_scores_seeded, ClusterConfig};
    use relperf_measure::Outcome;

    fn clustering_from_levels(levels: &'static [usize], seed: u64) -> Clustering {
        let cmp = |_stream: u64, a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        relative_scores_seeded(levels.len(), ClusterConfig::with_repetitions(20), seed, cmp)
            .final_assignment()
    }

    #[test]
    fn identical_clusterings_score_one() {
        static LEVELS: [usize; 5] = [0, 0, 1, 1, 2];
        let a = clustering_from_levels(&LEVELS, 1);
        assert_eq!(rand_index(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn same_structure_different_seeds_score_one() {
        static LEVELS: [usize; 6] = [0, 1, 0, 2, 1, 2];
        let a = clustering_from_levels(&LEVELS, 2);
        let b = clustering_from_levels(&LEVELS, 99);
        assert_eq!(rand_index(&a, &b), 1.0);
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
    }

    #[test]
    fn different_structures_score_below_one() {
        static LEVELS_A: [usize; 4] = [0, 0, 1, 1];
        static LEVELS_B: [usize; 4] = [0, 1, 0, 1];
        let a = clustering_from_levels(&LEVELS_A, 3);
        let b = clustering_from_levels(&LEVELS_B, 3);
        assert!(rand_index(&a, &b) < 1.0);
        assert!(adjusted_rand_index(&a, &b) < 1.0);
    }

    #[test]
    fn rand_index_symmetry() {
        static LEVELS_A: [usize; 5] = [0, 0, 1, 2, 2];
        static LEVELS_B: [usize; 5] = [0, 1, 1, 2, 0];
        let a = clustering_from_levels(&LEVELS_A, 4);
        let b = clustering_from_levels(&LEVELS_B, 4);
        assert_eq!(rand_index(&a, &b), rand_index(&b, &a));
        assert!((adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn ari_below_rand_for_chance_structure() {
        // ARI corrects for chance: for unrelated partitions it sits near 0
        // while the plain Rand index can still look high.
        static LEVELS_A: [usize; 8] = [0, 0, 0, 0, 1, 1, 1, 1];
        static LEVELS_B: [usize; 8] = [0, 1, 0, 1, 0, 1, 0, 1];
        let a = clustering_from_levels(&LEVELS_A, 5);
        let b = clustering_from_levels(&LEVELS_B, 5);
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.3, "ARI should be near 0, got {ari}");
        assert!(rand_index(&a, &b) > ari);
    }

    #[test]
    fn trivial_partitions() {
        static ALL_SAME: [usize; 3] = [0, 0, 0];
        let a = clustering_from_levels(&ALL_SAME, 6);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        static ALL_DIFF: [usize; 3] = [0, 1, 2];
        let b = clustering_from_levels(&ALL_DIFF, 6);
        assert_eq!(adjusted_rand_index(&b, &b), 1.0);
        // All-same vs all-distinct disagree on every pair.
        assert_eq!(rand_index(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "same algorithms")]
    fn mismatched_sizes_panic() {
        static A: [usize; 3] = [0, 0, 1];
        static B: [usize; 2] = [0, 1];
        let ca = clustering_from_levels(&A, 7);
        let cb = clustering_from_levels(&B, 7);
        rand_index(&ca, &cb);
    }
}
