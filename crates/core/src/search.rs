//! Guided search over large algorithm spaces.
//!
//! From the paper's conclusions (following the Sec. IV decision models): "in case of exponential explosion of the search
//! space, our methodology can still be applied on a subset of possible
//! solutions and the resulting clusters with relative scores can be used
//! as a ground truth to guide the search of algorithm". This module
//! implements that workflow with a measurement-budgeted tournament:
//!
//! 1. sample a subset of candidates,
//! 2. cluster the subset with the three-way methodology,
//! 3. keep the top class, refill the pool with unseen candidates,
//! 4. repeat until the measurement budget is exhausted.
//!
//! The search never needs the full `2^n` enumeration — it touches only the
//! candidates it measures, and every comparison goes through the same
//! seeded Procedure 4 engine ([`relative_scores_seeded`]) as the
//! exhaustive pipeline.

use crate::cluster::{relative_scores_seeded, ClusterConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relperf_measure::{stream_seed, Outcome};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of the tournament search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Candidates per tournament round (the clustered subset size).
    pub round_size: usize,
    /// Shuffled clustering repetitions per round.
    pub repetitions: usize,
    /// Total comparison budget; the search stops when predicted
    /// comparisons for the next round would exceed it.
    pub comparison_budget: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            round_size: 6,
            repetitions: 10,
            comparison_budget: 5_000,
        }
    }
}

/// Result of a tournament search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Indices of the surviving top-class candidates, best scores first.
    pub champions: Vec<usize>,
    /// Every candidate that was ever measured/compared.
    pub explored: Vec<usize>,
    /// Comparisons actually spent.
    pub comparisons_used: usize,
    /// Tournament rounds run.
    pub rounds: usize,
}

/// Runs the tournament over `num_candidates` algorithms using `cmp` for
/// three-way comparisons (typically backed by lazy measurement — measure a
/// candidate the first time it is compared).
///
/// `cmp(stream, i, j)` compares candidate `i` against `j` and, like any
/// seeded comparator, must be a pure function of its arguments. The
/// candidate order is shuffled from `seed` and round `r` clusters its pool
/// under `stream_seed(seed, r)`, so the result is reproducible from `seed`.
///
/// # Panics
/// Panics when `round_size < 2` or there are no candidates.
pub fn tournament_search(
    num_candidates: usize,
    config: SearchConfig,
    seed: u64,
    cmp: impl Fn(u64, usize, usize) -> Outcome + Sync,
) -> SearchResult {
    assert!(num_candidates > 0, "need at least one candidate");
    assert!(config.round_size >= 2, "round size must be at least 2");

    let mut unseen: Vec<usize> = (0..num_candidates).collect();
    unseen.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut champions: Vec<usize> = Vec::new();
    let mut explored: Vec<usize> = Vec::new();
    let comparisons_used = AtomicUsize::new(0);
    let mut rounds = 0usize;

    // Comparisons per round: at most p(p-1)/2 per repetition (the engine
    // memoizes each pair once per repetition).
    let p = config.round_size;
    let per_round = config.repetitions * p * (p - 1) / 2;

    while !unseen.is_empty()
        && comparisons_used.load(Ordering::Relaxed) + per_round <= config.comparison_budget
    {
        // Pool: current champions + fresh candidates up to round_size.
        let mut pool: Vec<usize> = champions.clone();
        while pool.len() < config.round_size {
            match unseen.pop() {
                Some(c) => {
                    explored.push(c);
                    pool.push(c);
                }
                None => break,
            }
        }
        if pool.len() < 2 {
            break;
        }

        let table = relative_scores_seeded(
            pool.len(),
            ClusterConfig::with_repetitions(config.repetitions),
            stream_seed(seed, rounds as u64),
            |stream, a, b| {
                comparisons_used.fetch_add(1, Ordering::Relaxed);
                cmp(stream, pool[a], pool[b])
            },
        );
        let clustering = table.final_assignment();
        champions = clustering
            .class(1)
            .into_iter()
            .map(|a| pool[a.algorithm])
            .collect();
        // Keep at least one slot free for a fresh candidate so the search
        // always advances even when a whole round ties (class(1) is sorted
        // best-score first, so truncation drops the least confident).
        champions.truncate(config.round_size - 1);
        rounds += 1;
    }

    SearchResult {
        champions,
        explored,
        comparisons_used: comparisons_used.into_inner(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_cmp(levels: &[usize]) -> impl Fn(u64, usize, usize) -> Outcome + Sync + '_ {
        move |_stream, a, b| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Outcome::Better,
            std::cmp::Ordering::Greater => Outcome::Worse,
            std::cmp::Ordering::Equal => Outcome::Equivalent,
        }
    }

    #[test]
    fn finds_the_unique_best_in_a_large_space() {
        // 64 candidates, one global optimum at index 17.
        let mut levels = vec![5usize; 64];
        levels[17] = 0;
        for (i, l) in levels.iter_mut().enumerate() {
            if i % 7 == 0 && i != 17 {
                *l = 2;
            }
        }
        let result = tournament_search(64, SearchConfig::default(), 211, level_cmp(&levels));
        assert!(
            result.champions.contains(&17),
            "champion set {:?} must contain the optimum",
            result.champions
        );
        // All champions share the optimum's level.
        for &c in &result.champions {
            assert_eq!(levels[c], 0, "non-optimal champion {c}");
        }
        assert!(result.rounds > 1);
    }

    #[test]
    fn explores_far_fewer_than_exhaustive_comparisons() {
        let levels: Vec<usize> = (0..200).map(|i| (i * 31) % 17).collect();
        let config = SearchConfig {
            round_size: 6,
            repetitions: 5,
            comparison_budget: 4_000,
        };
        let result = tournament_search(200, config, 212, level_cmp(&levels));
        assert!(result.comparisons_used <= 4_000);
        // Exhaustive Procedure 4 at Rep=5 would cost 5·200·199/2 = 99 500.
        assert!(result.comparisons_used < 10_000);
        // It must still find a level-0 candidate.
        let best_found = result.champions.iter().map(|&c| levels[c]).min().unwrap();
        assert_eq!(best_found, 0, "champions: {:?}", result.champions);
    }

    #[test]
    fn respects_budget() {
        let levels = vec![1usize; 50];
        let config = SearchConfig {
            round_size: 5,
            repetitions: 10,
            comparison_budget: 250, // only enough for ~2 rounds
        };
        let result = tournament_search(50, config, 213, level_cmp(&levels));
        assert!(result.comparisons_used <= 250);
        assert!(result.explored.len() < 50);
    }

    #[test]
    fn single_candidate_trivial() {
        let result = tournament_search(1, SearchConfig::default(), 214, |_, _, _| {
            unreachable!("no comparisons possible")
        });
        // One candidate, pool never reaches 2 — no rounds, no champions
        // claimed beyond exploration.
        assert_eq!(result.rounds, 0);
        assert!(result.comparisons_used == 0);
    }

    #[test]
    fn all_equivalent_candidates_all_champions_of_final_round() {
        let levels = vec![3usize; 12];
        let config = SearchConfig {
            round_size: 4,
            repetitions: 5,
            comparison_budget: 10_000,
        };
        let result = tournament_search(12, config, 215, level_cmp(&levels));
        // Everything is equivalent: the champion set is the whole final
        // pool and the search must have explored every candidate.
        assert_eq!(result.explored.len(), 12);
        assert!(!result.champions.is_empty());
    }

    #[test]
    #[should_panic(expected = "round size")]
    fn tiny_round_size_rejected() {
        tournament_search(
            10,
            SearchConfig {
                round_size: 1,
                ..Default::default()
            },
            216,
            |_, _, _| Outcome::Equivalent,
        );
    }
}
