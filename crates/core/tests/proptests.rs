//! Property-based tests of the three-way bubble sort and clustering.
//!
//! The crucial robustness property: the rank invariants must hold for ANY
//! comparator — including inconsistent, non-transitive, adversarial ones —
//! because real bootstrap comparisons are stochastic and may contradict
//! themselves between passes.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::prelude::*;
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig};
use relperf_core::similarity::{adjusted_rand_index, rand_index};
use relperf_core::sort::{sort, sort_from, SortState};
use relperf_core::triplet::enumerate_triplets;
use relperf_measure::Outcome;

fn outcome_from_u8(x: u8) -> Outcome {
    match x % 3 {
        0 => Outcome::Better,
        1 => Outcome::Worse,
        _ => Outcome::Equivalent,
    }
}

fn assert_rank_invariants(state: &SortState) {
    if state.ranks.is_empty() {
        return;
    }
    assert_eq!(state.ranks[0], 1, "first rank must be 1: {:?}", state.ranks);
    for w in state.ranks.windows(2) {
        assert!(w[1] >= w[0], "ranks must be non-decreasing: {:?}", state.ranks);
        assert!(w[1] - w[0] <= 1, "rank steps must be ≤ 1: {:?}", state.ranks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_adversarial_comparators(
        p in 2usize..20,
        script in vec(0u8..3, 0..400),
        seed in 0u64..1_000,
    ) {
        // The comparator replays an arbitrary outcome script, then falls
        // back to a deterministic pseudo-random (possibly non-transitive)
        // rule — a worst-case stand-in for stochastic bootstrap outcomes.
        let mut i = 0usize;
        let cmp = |a: usize, b: usize| {
            let out = if i < script.len() {
                outcome_from_u8(script[i])
            } else {
                outcome_from_u8(((a * 7 + b * 13) as u64 ^ seed) as u8)
            };
            i += 1;
            out
        };
        let state = sort(p, cmp);
        assert_rank_invariants(&state);
        // The sequence is still a permutation of 0..p.
        let mut seen = state.sequence.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..p).collect::<Vec<_>>());
    }

    #[test]
    fn consistent_comparator_sorts_correctly(
        levels in vec(0usize..6, 2..15),
        perm_seed in 0u64..1_000,
    ) {
        let p = levels.len();
        let cmp = |a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        let mut seq: Vec<usize> = (0..p).collect();
        let mut rng = StdRng::seed_from_u64(perm_seed);
        use rand::seq::SliceRandom;
        seq.shuffle(&mut rng);
        let state = sort_from(SortState::from_sequence(seq), cmp);
        assert_rank_invariants(&state);
        // The sequence must respect the underlying total preorder.
        for w in state.sequence.windows(2) {
            prop_assert!(levels[w[0]] <= levels[w[1]],
                "sequence {:?} violates levels {:?}", state.sequence, levels);
        }
        // Equal ranks imply equal levels is NOT guaranteed (chain merges),
        // but strictly better levels can never rank WORSE.
        for i in 0..p {
            for j in 0..p {
                if levels[i] < levels[j] {
                    prop_assert!(
                        state.rank_of(i).unwrap() <= state.rank_of(j).unwrap(),
                        "faster algorithm ranked worse: {:?} vs {:?}", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn relative_scores_rows_are_distributions(
        levels in vec(0usize..4, 1..10),
        seed in 0u64..1_000,
    ) {
        let p = levels.len();
        let cmp = |_stream: u64, a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        let table = relative_scores_seeded(p, ClusterConfig::with_repetitions(30), seed, cmp);
        for alg in 0..p {
            let total: f64 = (1..=table.num_classes()).map(|r| table.score(alg, r)).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "alg {alg} scores sum to {total}");
        }
        // Every class in 1..=k must be non-empty in the per-cluster view.
        for r in 1..=table.num_classes() {
            prop_assert!(!table.cluster(r).is_empty(), "class {r} empty");
        }
        // Final assignment classes are consecutive from 1.
        let clustering = table.final_assignment();
        let max_rank = clustering.assignments().iter().map(|a| a.rank).max().unwrap();
        prop_assert_eq!(max_rank, clustering.num_classes());
        for a in clustering.assignments() {
            prop_assert!(a.rank >= 1 && a.rank <= max_rank);
            prop_assert!(a.score > 0.0 && a.score <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn similarity_metrics_bounded_and_reflexive(
        levels in vec(0usize..4, 2..12),
        seed in 0u64..500,
    ) {
        let p = levels.len();
        let cmp = |_stream: u64, a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        let config = ClusterConfig::with_repetitions(10);
        let c1 = relative_scores_seeded(p, config, seed, cmp).final_assignment();
        let c2 = relative_scores_seeded(p, config, seed + 1, cmp).final_assignment();
        let ri = rand_index(&c1, &c2);
        prop_assert!((0.0..=1.0).contains(&ri));
        prop_assert_eq!(rand_index(&c1, &c1), 1.0);
        let ari = adjusted_rand_index(&c1, &c2);
        prop_assert!(ari <= 1.0 + 1e-12);
        prop_assert_eq!(adjusted_rand_index(&c1, &c1), 1.0);
    }

    #[test]
    fn triplets_always_well_formed(
        levels in vec(0usize..4, 2..10),
        seed in 0u64..500,
    ) {
        let p = levels.len();
        let cmp = |_stream: u64, a: usize, b: usize| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        };
        let clustering = relative_scores_seeded(p, ClusterConfig::with_repetitions(10), seed, cmp)
            .final_assignment();
        for t in enumerate_triplets(&clustering) {
            prop_assert_ne!(t.anchor, t.positive);
            prop_assert_eq!(clustering.assignment(t.anchor).rank, clustering.assignment(t.positive).rank);
            prop_assert!(clustering.assignment(t.negative).rank > clustering.assignment(t.anchor).rank);
            prop_assert!(t.margin_classes >= 1);
        }
    }
}
