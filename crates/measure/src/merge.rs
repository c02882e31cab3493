//! The sorted-merge walk behind the rank statistic.
//!
//! The Mann–Whitney pooled ranking
//! ([`ranksum::mann_whitney_u`](crate::ranksum::mann_whitney_u)) walks two
//! samples' sorted orders as one merged ascending sequence.
//! [`merge_tie_groups`] is that walk — O(nₐ + n_b), allocation-free, one
//! visit per distinct value, with cross-side ties collected into a single
//! group.

/// One tie group in the merged ascending walk of two sorted slices: a
/// distinct value, its multiplicity on each side, and the cumulative
/// counts of elements `≤ value` on each side (everything a pooled rank
/// needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieGroup {
    /// The distinct value this group collects.
    pub value: f64,
    /// Multiplicity of `value` in the first slice.
    pub count_a: usize,
    /// Multiplicity of `value` in the second slice.
    pub count_b: usize,
    /// Number of elements of the first slice `≤ value` (i.e. `nₐ·Fₐ(value)`).
    pub cum_a: usize,
    /// Number of elements of the second slice `≤ value` (i.e. `n_b·F_b(value)`).
    pub cum_b: usize,
}

impl TieGroup {
    /// Total multiplicity of the group across both sides.
    pub fn count(&self) -> usize {
        self.count_a + self.count_b
    }

    /// Average 1-based pooled rank of the group's members — the tie
    /// convention of the Mann–Whitney test. The group occupies pooled
    /// ranks `cum_a + cum_b − count + 1 ..= cum_a + cum_b`; the average is
    /// their midpoint.
    pub fn average_rank(&self) -> f64 {
        let end = self.cum_a + self.cum_b;
        let start = end - self.count() + 1;
        (start + end) as f64 / 2.0
    }
}

/// Walks two ascending slices as one merged sequence of [`TieGroup`]s,
/// calling `visit` once per distinct value across both sides, in
/// ascending order.
///
/// Equal values on the two sides are collected into a *single* group, so
/// the caller never sees a tie split by which side it came from — the
/// property that makes average ranks well-defined. O(nₐ + n_b),
/// allocation-free. Both slices must be ascending (checked with
/// `debug_assert!` only), as [`Sample::sorted`](crate::Sample::sorted)
/// is.
///
/// # Examples
///
/// ```
/// use relperf_measure::merge::merge_tie_groups;
///
/// let mut seen = Vec::new();
/// merge_tie_groups(&[1.0, 2.0, 2.0], &[2.0, 3.0], |g| {
///     seen.push((g.value, g.count_a, g.count_b))
/// });
/// assert_eq!(seen, vec![(1.0, 1, 0), (2.0, 2, 1), (3.0, 0, 1)]);
/// ```
pub fn merge_tie_groups(a: &[f64], b: &[f64], mut visit: impl FnMut(&TieGroup)) {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "side a not sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "side b not sorted");
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        // The next distinct value, ascending across both sides.
        let value = match (a.get(i), b.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => return,
        };
        let count_a = a[i..].iter().take_while(|&&x| x == value).count();
        let count_b = b[j..].iter().take_while(|&&x| x == value).count();
        i += count_a;
        j += count_b;
        visit(&TieGroup {
            value,
            count_a,
            count_b,
            cum_a: i,
            cum_b: j,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(a: &[f64], b: &[f64]) -> Vec<TieGroup> {
        let mut out = Vec::new();
        merge_tie_groups(a, b, |g| out.push(*g));
        out
    }

    #[test]
    fn disjoint_slices_interleave() {
        let gs = groups(&[1.0, 3.0], &[2.0, 4.0]);
        let values: Vec<f64> = gs.iter().map(|g| g.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(gs.iter().all(|g| g.count() == 1));
        // Cumulative counts close over both sides.
        let last = gs.last().unwrap();
        assert_eq!((last.cum_a, last.cum_b), (2, 2));
    }

    #[test]
    fn cross_side_ties_form_one_group() {
        let gs = groups(&[1.0, 2.0, 2.0], &[2.0, 2.0, 5.0]);
        assert_eq!(gs.len(), 3);
        let tie = gs[1];
        assert_eq!(tie.value, 2.0);
        assert_eq!((tie.count_a, tie.count_b), (2, 2));
        // Pooled ranks 2..=5 → average 3.5.
        assert_eq!(tie.average_rank(), 3.5);
    }

    #[test]
    fn one_side_empty() {
        let gs = groups(&[], &[1.0, 1.0]);
        assert_eq!(gs.len(), 1);
        assert_eq!((gs[0].count_a, gs[0].count_b), (0, 2));
        assert_eq!(gs[0].average_rank(), 1.5);
    }

    #[test]
    fn cumulative_counts_are_ecdf_numerators() {
        let a = [1.0, 2.0, 2.0, 7.0];
        let b = [2.0, 3.0];
        merge_tie_groups(&a, &b, |g| {
            assert_eq!(g.cum_a, a.iter().filter(|&&v| v <= g.value).count());
            assert_eq!(g.cum_b, b.iter().filter(|&&v| v <= g.value).count());
        });
    }
}
