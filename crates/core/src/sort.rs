//! Three-way bubble sort with performance-class rank updates
//! (Procedures 1–3 of the paper).
//!
//! The sort operates on algorithm *indices* `0..p`; the comparator receives
//! a pair of indices and returns the [`Outcome`] of comparing the first
//! against the second (`Better` = first has lower cost). Working on indices
//! keeps the algorithm identity concerns (labels, samples) out of the core
//! procedure and lets callers memoize or script comparisons freely.
//!
//! Ranks are *positional*: `ranks[k]` is the performance class of the
//! algorithm currently at position `k` of the sequence. The invariants
//! maintained after every comparison (and checked by debug assertions and
//! property tests) are:
//!
//! * `ranks[0] == 1`,
//! * ranks are non-decreasing along the sequence,
//! * adjacent ranks differ by at most 1.

use relperf_measure::Outcome;

/// Final state of a sort: the algorithm indices in performance order and
/// the positional rank (performance class, 1-based) of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortState {
    /// Algorithm indices, best first.
    pub sequence: Vec<usize>,
    /// `ranks[k]` is the class of `sequence[k]`; starts at 1,
    /// non-decreasing, adjacent steps ≤ 1.
    pub ranks: Vec<usize>,
}

impl SortState {
    /// Initial state for the identity sequence `0..p` with ranks `1..=p`
    /// (line 1–4 of Procedure 1).
    pub fn initial(p: usize) -> Self {
        SortState {
            sequence: (0..p).collect(),
            ranks: (1..=p).collect(),
        }
    }

    /// Initial state for an arbitrary starting sequence (Procedure 4
    /// shuffles the set before each clustering repetition).
    pub fn from_sequence(sequence: Vec<usize>) -> Self {
        let p = sequence.len();
        SortState {
            sequence,
            ranks: (1..=p).collect(),
        }
    }

    /// Number of algorithms.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// `true` when the state holds no algorithms.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Number of performance classes `k` in the current state.
    pub fn num_classes(&self) -> usize {
        self.ranks.last().copied().unwrap_or(0)
    }

    /// Rank (performance class) of algorithm `alg`, or `None` if absent.
    pub fn rank_of(&self, alg: usize) -> Option<usize> {
        self.sequence
            .iter()
            .position(|&a| a == alg)
            .map(|pos| self.ranks[pos])
    }

    fn assert_invariants(&self) {
        debug_assert!(self.ranks.is_empty() || self.ranks[0] == 1, "first rank must be 1");
        for w in self.ranks.windows(2) {
            debug_assert!(w[1] >= w[0], "ranks must be non-decreasing: {:?}", self.ranks);
            debug_assert!(w[1] - w[0] <= 1, "rank steps must be ≤ 1: {:?}", self.ranks);
        }
    }
}

/// One comparison step of the sort, for trace output (paper Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortStep {
    /// Positions compared, `(j, j+1)`.
    pub positions: (usize, usize),
    /// Algorithm indices compared, in pre-comparison order (left, right).
    pub algorithms: (usize, usize),
    /// Comparator outcome for (left vs right).
    pub outcome: Outcome,
    /// Whether the pair was swapped.
    pub swapped: bool,
    /// Full state after applying the update rules.
    pub state_after: SortState,
}

/// Applies one comparison at positions `(j, j+1)` to `state`:
/// `UpdateAlgIndices` (Procedure 2) followed by `UpdateAlgRanks`
/// (Procedure 3). Returns whether a swap occurred.
///
/// # Panics
/// Panics when `j + 1` is out of bounds.
pub fn apply_comparison(state: &mut SortState, j: usize, outcome: Outcome) -> bool {
    assert!(j + 1 < state.sequence.len(), "comparison position out of bounds");
    let swapped = match outcome {
        Outcome::Equivalent => {
            // Rule 2a (equivalent): merge the classes by pulling every
            // later rank down by one.
            if state.ranks[j] != state.ranks[j + 1] {
                for r in &mut state.ranks[j + 1..] {
                    *r -= 1;
                }
            }
            false
        }
        Outcome::Worse => {
            // Procedure 2: the left algorithm lost — swap positions (ranks
            // stay positional), then apply the post-swap rank rules of
            // rule 2b.
            state.sequence.swap(j, j + 1);
            apply_post_swap_rules(state, j);
            true
        }
        Outcome::Better => {
            // Rule 2a: "If the comparison is 'better', the ranks are not
            // updated." (The sequence is already in the right order.)
            false
        }
    };
    state.assert_invariants();
    swapped
}

/// Procedure 3's post-swap rules (prose rule 2b), with the winner now
/// sitting at position `j` and the loser at `j + 1`:
///
/// 1. ranks differ **and** the winner shares its predecessor's rank →
///    the loser's class merges up (ranks of `j+1..` decrease by 1);
/// 2. ranks equal **and** the winner's rank differs from its predecessor's
///    (or the winner is at the head) → the winner has beaten the top of its
///    own class and is promoted by pushing `j+1..` down (ranks increase
///    by 1).
fn apply_post_swap_rules(state: &mut SortState, j: usize) {
    let ranks = &mut state.ranks;
    let same_as_pred = j > 0 && ranks[j] == ranks[j - 1];
    if ranks[j] != ranks[j + 1] {
        if same_as_pred {
            for r in &mut ranks[j + 1..] {
                *r -= 1;
            }
        }
    } else if j == 0 || !same_as_pred {
        for r in &mut ranks[j + 1..] {
            *r += 1;
        }
    }
}

/// Procedure 1 (`SortAlgs`): full bubble sort of `initial` using `cmp`,
/// where `cmp(a, b)` compares algorithm index `a` against `b`.
pub fn sort_from(initial: SortState, mut cmp: impl FnMut(usize, usize) -> Outcome) -> SortState {
    let mut state = initial;
    let p = state.len();
    if p < 2 {
        return state;
    }
    for i in 1..p {
        for j in 0..(p - i) {
            let (a, b) = (state.sequence[j], state.sequence[j + 1]);
            let outcome = cmp(a, b);
            apply_comparison(&mut state, j, outcome);
        }
    }
    state
}

/// Sorts the identity sequence `0..p`.
///
/// # Examples
///
/// ```
/// use relperf_core::sort::sort;
/// use relperf_core::Outcome;
///
/// // Algorithm costs: index 1 is fastest, 0 and 2 tie for last.
/// let cost: [f64; 3] = [5.0, 1.0, 5.0];
/// let state = sort(3, |a, b| {
///     if (cost[a] - cost[b]).abs() < 0.5 {
///         Outcome::Equivalent
///     } else if cost[a] < cost[b] {
///         Outcome::Better
///     } else {
///         Outcome::Worse
///     }
/// });
/// assert_eq!(state.rank_of(1), Some(1));     // fastest: class 1
/// assert_eq!(state.rank_of(0), state.rank_of(2)); // tied pair merged
/// ```
pub fn sort(p: usize, cmp: impl FnMut(usize, usize) -> Outcome) -> SortState {
    sort_from(SortState::initial(p), cmp)
}

/// Like [`sort_from`], but records every comparison step — used to
/// regenerate the paper's Fig. 2 walkthrough.
pub fn sort_with_trace(
    initial: SortState,
    mut cmp: impl FnMut(usize, usize) -> Outcome,
) -> (SortState, Vec<SortStep>) {
    let mut state = initial;
    let p = state.len();
    let mut steps = Vec::new();
    if p < 2 {
        return (state, steps);
    }
    for i in 1..p {
        for j in 0..(p - i) {
            let (a, b) = (state.sequence[j], state.sequence[j + 1]);
            let outcome = cmp(a, b);
            let swapped = apply_comparison(&mut state, j, outcome);
            steps.push(SortStep {
                positions: (j, j + 1),
                algorithms: (a, b),
                outcome,
                swapped,
                state_after: state.clone(),
            });
        }
    }
    (state, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::{Better, Equivalent, Worse};

    /// Comparator from a total order with equivalence classes: algorithms
    /// map to a level; equal levels are equivalent, lower level is better.
    fn level_cmp(levels: &[usize]) -> impl FnMut(usize, usize) -> Outcome + '_ {
        move |a, b| match levels[a].cmp(&levels[b]) {
            std::cmp::Ordering::Less => Better,
            std::cmp::Ordering::Greater => Worse,
            std::cmp::Ordering::Equal => Equivalent,
        }
    }

    #[test]
    fn initial_state_shape() {
        let s = SortState::initial(4);
        assert_eq!(s.sequence, vec![0, 1, 2, 3]);
        assert_eq!(s.ranks, vec![1, 2, 3, 4]);
        assert_eq!(s.num_classes(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(sort(0, |_, _| Better).sequence.is_empty());
        let s = sort(1, |_, _| Better);
        assert_eq!(s.sequence, vec![0]);
        assert_eq!(s.ranks, vec![1]);
    }

    #[test]
    fn all_distinct_total_order() {
        // Levels reversed: alg 0 is the slowest.
        let levels = [3, 2, 1, 0];
        let s = sort(4, level_cmp(&levels));
        assert_eq!(s.sequence, vec![3, 2, 1, 0]);
        assert_eq!(s.ranks, vec![1, 2, 3, 4]);
        assert_eq!(s.num_classes(), 4);
    }

    #[test]
    fn all_equivalent_single_class() {
        let levels = [0, 0, 0, 0];
        let s = sort(4, level_cmp(&levels));
        assert_eq!(s.ranks, vec![1, 1, 1, 1]);
        assert_eq!(s.num_classes(), 1);
    }

    #[test]
    fn two_classes_merge_correctly() {
        // Algorithms 0,2 fast; 1,3 slow.
        let levels = [0, 1, 0, 1];
        let s = sort(4, level_cmp(&levels));
        assert_eq!(s.num_classes(), 2);
        let ranks: Vec<_> = (0..4).map(|alg| s.rank_of(alg)).collect();
        assert_eq!(ranks, [Some(1), Some(2), Some(1), Some(2)]);
    }

    #[test]
    fn paper_fig2_walkthrough_exact() {
        // Paper notation: indices 0=DD, 1=AA, 2=DA, 3=AD; initial sequence
        // (DD,1)(AA,2)(DA,3)(AD,4). True relations from Fig. 1b:
        // AD best; AA second; DD ~ DA equivalent and worst.
        let outcome = |a: usize, b: usize| -> Outcome {
            let class = |x: usize| match x {
                3 => 0, // AD
                1 => 1, // AA
                0 | 2 => 2, // DD, DA
                _ => unreachable!(),
            };
            match class(a).cmp(&class(b)) {
                std::cmp::Ordering::Less => Better,
                std::cmp::Ordering::Greater => Worse,
                std::cmp::Ordering::Equal => {
                    if a == b {
                        Equivalent
                    } else if (a == 0 && b == 2) || (a == 2 && b == 0) {
                        Equivalent // DD ~ DA
                    } else {
                        Equivalent
                    }
                }
            }
        };
        let (final_state, steps) = sort_with_trace(SortState::initial(4), outcome);

        // Step 1: DD vs AA → DD worse → swap, no rank change.
        assert_eq!(steps[0].algorithms, (0, 1));
        assert_eq!(steps[0].outcome, Worse);
        assert!(steps[0].swapped);
        assert_eq!(steps[0].state_after.sequence, vec![1, 0, 2, 3]);
        assert_eq!(steps[0].state_after.ranks, vec![1, 2, 3, 4]);

        // Step 2: DD vs DA → equivalent → ranks after DD decrease.
        assert_eq!(steps[1].algorithms, (0, 2));
        assert_eq!(steps[1].outcome, Equivalent);
        assert_eq!(steps[1].state_after.ranks, vec![1, 2, 2, 3]);

        // Step 3: DA vs AD → DA worse → swap; AD now shares DD's rank, so
        // DA's rank merges down: DD, AD, DA all rank 2.
        assert_eq!(steps[2].algorithms, (2, 3));
        assert_eq!(steps[2].outcome, Worse);
        assert!(steps[2].swapped);
        assert_eq!(steps[2].state_after.sequence, vec![1, 0, 3, 2]);
        assert_eq!(steps[2].state_after.ranks, vec![1, 2, 2, 2]);

        // Pass 2, first comparison: AA vs DD → better, no change.
        assert_eq!(steps[3].algorithms, (1, 0));
        assert_eq!(steps[3].outcome, Better);
        assert!(!steps[3].swapped);
        assert_eq!(steps[3].state_after.ranks, vec![1, 2, 2, 2]);

        // Paper step 4: DD vs AD → DD worse → swap; AD beat the top of its
        // class, successors pushed down.
        assert_eq!(steps[4].algorithms, (0, 3));
        assert_eq!(steps[4].outcome, Worse);
        assert!(steps[4].swapped);
        assert_eq!(steps[4].state_after.sequence, vec![1, 3, 0, 2]);
        assert_eq!(steps[4].state_after.ranks, vec![1, 2, 3, 3]);

        // Final state: ⟨(AD,1),(AA,2),(DD,3),(DA,3)⟩.
        assert_eq!(final_state.sequence, vec![3, 1, 0, 2]);
        assert_eq!(final_state.ranks, vec![1, 2, 3, 3]);
        assert_eq!(final_state.num_classes(), 3);
        assert_eq!(final_state.rank_of(3), Some(1)); // AD
        assert_eq!(final_state.rank_of(1), Some(2)); // AA
        assert_eq!(final_state.rank_of(0), Some(3)); // DD
        assert_eq!(final_state.rank_of(2), Some(3)); // DA
    }

    #[test]
    fn strict_order_is_initial_order_independent() {
        // With no equivalences the procedure is a classic bubble sort and
        // the result cannot depend on the starting permutation.
        let levels = [4, 0, 2, 3, 1];
        let reference = sort(5, level_cmp(&levels));
        assert_eq!(reference.sequence, vec![1, 4, 2, 3, 0]);
        assert_eq!(reference.ranks, vec![1, 2, 3, 4, 5]);
        let perms: Vec<Vec<usize>> = vec![
            vec![4, 3, 2, 1, 0],
            vec![1, 3, 0, 4, 2],
            vec![2, 0, 4, 1, 3],
        ];
        for perm in perms {
            let s = sort_from(SortState::from_sequence(perm.clone()), level_cmp(&levels));
            assert_eq!(s.sequence, reference.sequence, "initial {perm:?}");
            assert_eq!(s.ranks, reference.ranks, "initial {perm:?}");
        }
    }

    #[test]
    fn equivalence_merging_can_depend_on_initial_order() {
        // The shrinking bubble-sort schedule stops comparing tail positions,
        // so equivalent algorithms that end up non-adjacent early may never
        // merge. This order sensitivity is exactly why Procedure 4 repeats
        // the clustering over shuffles and reports *relative scores* instead
        // of a single assignment.
        let levels = [2, 0, 1, 1, 0];
        let mut outcomes = std::collections::HashSet::new();
        let perms: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![1, 3, 0, 4, 2],
            vec![2, 0, 4, 1, 3],
        ];
        for perm in perms {
            let s = sort_from(SortState::from_sequence(perm), level_cmp(&levels));
            // Whatever the ranks, the sequence must respect the true order.
            for w in 0..4 {
                assert!(
                    levels[s.sequence[w]] <= levels[s.sequence[w + 1]],
                    "sequence violates the underlying order: {:?}",
                    s.sequence
                );
            }
            outcomes.insert((s.sequence.clone(), s.ranks.clone()));
        }
        assert!(!outcomes.is_empty());
    }

    #[test]
    fn rank_of_missing_algorithm_is_none() {
        let s = sort(3, |_, _| Equivalent);
        assert_eq!(s.rank_of(7), None);
    }

    #[test]
    fn class_members_ordering() {
        let levels = [1, 0, 1];
        let s = sort(3, level_cmp(&levels));
        let ranks: Vec<_> = (0..3).map(|alg| s.rank_of(alg)).collect();
        assert_eq!(ranks, [Some(2), Some(1), Some(2)]);
        assert_eq!(s.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_comparison_bounds_checked() {
        let mut s = SortState::initial(2);
        apply_comparison(&mut s, 1, Better);
    }

    #[test]
    fn trace_length_is_quadratic() {
        let (_, steps) = sort_with_trace(SortState::initial(5), |_, _| Better);
        assert_eq!(steps.len(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn equivalent_on_equal_ranks_is_noop() {
        let mut s = SortState {
            sequence: vec![0, 1],
            ranks: vec![1, 1],
        };
        let swapped = apply_comparison(&mut s, 0, Equivalent);
        assert!(!swapped);
        assert_eq!(s.ranks, vec![1, 1]);
    }

    #[test]
    fn better_never_updates_ranks() {
        // Rule 2a: a "better" outcome leaves both sequence and ranks alone,
        // whatever the neighbouring rank structure looks like.
        for ranks in [vec![1, 2, 3], vec![1, 1, 2], vec![1, 1, 1], vec![1, 2, 2]] {
            let mut s = SortState {
                sequence: vec![0, 1, 2],
                ranks: ranks.clone(),
            };
            let swapped = apply_comparison(&mut s, 1, Better);
            assert!(!swapped);
            assert_eq!(s.sequence, vec![0, 1, 2]);
            assert_eq!(s.ranks, ranks);
        }
    }

    #[test]
    fn worse_swap_merges_loser_when_winner_tied_with_predecessor() {
        // Post-swap rule 1: winner lands at j=1 sharing its predecessor's
        // rank; the loser's class merges up (paper walkthrough step 3).
        let mut s = SortState {
            sequence: vec![0, 1, 2],
            ranks: vec![1, 1, 2],
        };
        let swapped = apply_comparison(&mut s, 1, Worse);
        assert!(swapped);
        assert_eq!(s.sequence, vec![0, 2, 1]);
        assert_eq!(s.ranks, vec![1, 1, 1]);
    }

    #[test]
    fn winner_promotion_at_head_of_sequence() {
        // Swap at j=0 with equal ranks after swap: winner gets its own class.
        let mut s = SortState {
            sequence: vec![0, 1, 2],
            ranks: vec![1, 1, 1],
        };
        let swapped = apply_comparison(&mut s, 0, Worse);
        assert!(swapped);
        assert_eq!(s.sequence, vec![1, 0, 2]);
        assert_eq!(s.ranks, vec![1, 2, 2]);
    }
}
