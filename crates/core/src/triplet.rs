//! Triplet sampling from performance clusterings.
//!
//! In its conclusions, the paper motivates keeping *all* performance classes (not just the
//! fastest) because "performance models for automatic algorithm selection
//! can obtain better accuracy when trained with … Triplet loss, where both
//! positive (fast algorithm) and negative (worst algorithm) example are
//! used to train the model; for such a training, the algorithms clustered
//! into different performance classes would be required."
//!
//! This module turns a [`Clustering`] into exactly that training signal:
//! `(anchor, positive, negative)` index triplets where anchor and positive
//! share a class and the negative comes from a strictly worse class.
//!
//! No workload consumes triplets, yet the module stays: it is the only
//! realisation of that conclusion in the workspace, and the root
//! `tests/end_to_end.rs` derives triplets from a full Table I clustering,
//! which shows the clustering carries the multi-class structure such
//! training needs.

use crate::cluster::Clustering;
use rand::seq::IndexedRandom;
use rand::Rng;

/// One training triplet of algorithm indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triplet {
    /// The anchor algorithm.
    pub anchor: usize,
    /// A different algorithm from the anchor's class.
    pub positive: usize,
    /// An algorithm from a strictly worse class.
    pub negative: usize,
    /// How many classes separate anchor and negative (≥ 1) — a natural
    /// curriculum-difficulty signal (1 = hard triplet, large = easy).
    pub margin_classes: usize,
}

/// All valid triplets of a clustering, enumerated deterministically
/// (anchor-major order). An anchor needs a positive from its own class and
/// a negative from a strictly worse class, so members of singleton classes
/// and of the worst class are never anchors.
pub fn enumerate_triplets(clustering: &Clustering) -> Vec<Triplet> {
    let assignments = clustering.assignments();
    let mut out = Vec::new();
    for a in assignments {
        for p in assignments {
            if p.algorithm == a.algorithm || p.rank != a.rank {
                continue;
            }
            for n in assignments {
                if n.rank > a.rank {
                    out.push(Triplet {
                        anchor: a.algorithm,
                        positive: p.algorithm,
                        negative: n.algorithm,
                        margin_classes: n.rank - a.rank,
                    });
                }
            }
        }
    }
    out
}

/// Draws `count` triplets uniformly at random (with replacement) from the
/// valid set. Returns `None` when the clustering admits no triplet at all
/// (every class a singleton, or a single class).
pub fn sample_triplets<R: Rng + ?Sized>(
    clustering: &Clustering,
    count: usize,
    rng: &mut R,
) -> Option<Vec<Triplet>> {
    let all = enumerate_triplets(clustering);
    if all.is_empty() {
        return None;
    }
    Some((0..count).map(|_| *all.choose(rng).expect("non-empty")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{relative_scores_seeded, ClusterConfig};
    use rand::prelude::*;
    use relperf_measure::Outcome;

    fn clustering_from_levels(levels: &'static [usize]) -> Clustering {
        let cmp = |_stream: u64, a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        relative_scores_seeded(levels.len(), ClusterConfig::with_repetitions(20), 161, cmp)
            .final_assignment()
    }

    #[test]
    fn triplets_respect_class_structure() {
        // Classes: {0,1} best, {2,3} middle, {4} worst.
        static LEVELS: [usize; 5] = [0, 0, 1, 1, 2];
        let c = clustering_from_levels(&LEVELS);
        let ts = enumerate_triplets(&c);
        assert!(!ts.is_empty());
        for t in &ts {
            let ar = c.assignment(t.anchor).rank;
            assert_eq!(ar, c.assignment(t.positive).rank);
            assert_ne!(t.anchor, t.positive);
            assert!(c.assignment(t.negative).rank > ar);
            assert_eq!(t.margin_classes, c.assignment(t.negative).rank - ar);
        }
        // Anchor 0 with positive 1 has negatives {2,3,4}: margin 1,1,2.
        let anchor0: Vec<&Triplet> = ts.iter().filter(|t| t.anchor == 0).collect();
        assert_eq!(anchor0.len(), 3);
    }

    #[test]
    fn counts_match_combinatorics() {
        // Two classes of two: anchors in the best class only (the worst
        // class has no negatives): 2 anchors × 1 positive × 2 negatives = 4.
        static LEVELS: [usize; 4] = [0, 0, 1, 1];
        let ts = enumerate_triplets(&clustering_from_levels(&LEVELS));
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn singleton_classes_give_no_triplets() {
        static LEVELS: [usize; 3] = [0, 1, 2];
        let c = clustering_from_levels(&LEVELS);
        assert!(enumerate_triplets(&c).is_empty());
        let mut rng = StdRng::seed_from_u64(162);
        assert!(sample_triplets(&c, 5, &mut rng).is_none());
    }

    #[test]
    fn single_class_gives_no_triplets() {
        static LEVELS: [usize; 3] = [0, 0, 0];
        let c = clustering_from_levels(&LEVELS);
        assert!(enumerate_triplets(&c).is_empty());
    }

    #[test]
    fn sampled_triplets_are_valid_and_seeded() {
        static LEVELS: [usize; 6] = [0, 0, 1, 1, 2, 2];
        let c = clustering_from_levels(&LEVELS);
        let mut rng1 = StdRng::seed_from_u64(163);
        let mut rng2 = StdRng::seed_from_u64(163);
        let s1 = sample_triplets(&c, 20, &mut rng1).unwrap();
        let s2 = sample_triplets(&c, 20, &mut rng2).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 20);
        let all: std::collections::HashSet<Triplet> =
            enumerate_triplets(&c).into_iter().collect();
        assert!(s1.iter().all(|t| all.contains(t)));
    }
}
