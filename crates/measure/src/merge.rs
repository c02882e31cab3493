//! The sorted-merge cursor behind the rank statistic.
//!
//! The Mann–Whitney pooled ranking
//! ([`ranksum::mann_whitney_u`](crate::ranksum::mann_whitney_u)) walks two
//! samples' sorted orders as one merged ascending sequence.
//! [`merge_tie_groups`] is that walk — O(nₐ + n_b), allocation-free, one
//! visit per distinct value, with cross-side ties collected into a single
//! group.
//!
//! Since the tiered ingest engine, a large sample's sorted order lives in
//! **chunks** (sorted leaf runs — see
//! [`Sample::sorted_chunks`](crate::Sample::sorted_chunks)), and asking
//! for one contiguous slice forces a lazy materialization. The walk is
//! therefore driven by two chunk iterators, so it consumes the runs
//! directly and never forces a flat view; a flat slice is the one-chunk
//! case (`std::iter::once(slice)`).

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

/// A flattening cursor over a sequence of ascending chunks, tracking the
/// cumulative count of elements consumed — the per-side state of
/// [`merge_tie_groups`].
struct ChunkCursor<'a, I: Iterator<Item = &'a [f64]>> {
    chunks: I,
    /// Remainder of the current chunk (its consumed prefix already counted
    /// into `cum`).
    cur: &'a [f64],
    /// Elements consumed so far across all chunks.
    cum: usize,
}

impl<'a, I: Iterator<Item = &'a [f64]>> ChunkCursor<'a, I> {
    fn new(chunks: I) -> Self {
        let mut c = ChunkCursor {
            chunks,
            cur: &[],
            cum: 0,
        };
        c.refill();
        c
    }

    /// Skips empty chunks until the cursor sits on an element or the
    /// sequence is exhausted.
    fn refill(&mut self) {
        while self.cur.is_empty() {
            match self.chunks.next() {
                Some(chunk) => {
                    debug_assert!(
                        chunk.windows(2).all(|w| w[0] <= w[1]),
                        "chunk not sorted"
                    );
                    self.cur = chunk;
                }
                None => return,
            }
        }
    }

    /// The next unconsumed element, if any.
    fn peek(&self) -> Option<f64> {
        self.cur.first().copied()
    }

    /// Consumes every leading element equal to `value` (possibly spanning
    /// chunk boundaries) and returns how many there were.
    fn take_equal(&mut self, value: f64) -> usize {
        let before = self.cum;
        loop {
            let run = self.cur.iter().take_while(|&&v| v == value).count();
            self.cum += run;
            self.cur = &self.cur[run..];
            if !self.cur.is_empty() {
                break;
            }
            self.refill();
            if self.cur.is_empty() {
                break;
            }
        }
        self.cum - before
    }
}

/// Walks two ascending sides as one merged sequence of [`TieGroup`]s,
/// calling `visit` once per distinct value across both sides, in
/// ascending order.
///
/// Each side is a sequence of ascending slices that concatenate to that
/// side's full sorted order (exactly what [`Sample::sorted_chunks`]
/// yields — one chunk for a flat sample, one per leaf for a tiered one).
/// Equal values on the two sides are collected into a *single* group, so
/// the caller never sees a tie split by which side it came from — the
/// property that makes average ranks well-defined. The walk never needs
/// the sides as contiguous slices, so callers on the comparator hot path
/// never force a tiered sample to materialize its flat view.
/// O(nₐ + n_b), allocation-free.
///
/// Chunk contract: each chunk is ascending (checked with `debug_assert!`
/// only), and chunk boundaries are ascending too (`last of chunk k ≤
/// first of chunk k+1` — the caller's responsibility, as the merged walk
/// cannot cheaply detect it). Empty chunks are permitted and skipped.
///
/// # Examples
///
/// ```
/// use relperf_measure::merge::merge_tie_groups;
///
/// let a = [1.0, 2.0, 2.0];
/// let b = [2.0, 3.0];
/// let mut seen = Vec::new();
/// merge_tie_groups(std::iter::once(&a[..]), std::iter::once(&b[..]), |g| {
///     seen.push((g.value, g.count_a, g.count_b))
/// });
/// assert_eq!(seen, vec![(1.0, 1, 0), (2.0, 2, 1), (3.0, 0, 1)]);
///
/// // Splitting a side into chunks visits the identical groups.
/// let mut chunked = Vec::new();
/// merge_tie_groups([&[1.0, 2.0][..], &[2.0][..]], [&b[..]], |g| {
///     chunked.push((g.value, g.count_a, g.count_b))
/// });
/// assert_eq!(chunked, seen);
/// ```
///
/// [`Sample::sorted_chunks`]: crate::Sample::sorted_chunks
pub fn merge_tie_groups<'a>(
    a: impl IntoIterator<Item = &'a [f64]>,
    b: impl IntoIterator<Item = &'a [f64]>,
    mut visit: impl FnMut(&TieGroup),
) {
    let mut ca = ChunkCursor::new(a.into_iter());
    let mut cb = ChunkCursor::new(b.into_iter());
    loop {
        // The next distinct value, ascending across both sides.
        let value = match (ca.peek(), cb.peek()) {
            (Some(u), Some(v)) => u.min(v),
            (Some(u), None) => u,
            (None, Some(v)) => v,
            (None, None) => return,
        };
        let count_a = ca.take_equal(value);
        let count_b = cb.take_equal(value);
        visit(&TieGroup {
            value,
            count_a,
            count_b,
            cum_a: ca.cum,
            cum_b: cb.cum,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(a: &[f64], b: &[f64]) -> Vec<TieGroup> {
        let mut out = Vec::new();
        merge_tie_groups(std::iter::once(a), std::iter::once(b), |g| out.push(*g));
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
        merge_tie_groups(std::iter::once(&a[..]), std::iter::once(&b[..]), |g| {
            assert_eq!(g.cum_a, a.iter().filter(|&&v| v <= g.value).count());
            assert_eq!(g.cum_b, b.iter().filter(|&&v| v <= g.value).count());
        });
    }
}
