//! The [`Sample`] type: a set of repeated performance measurements.
//!
//! This is the unit of data in the paper's methodology (Sec. III): every
//! algorithm is measured `N` times and kept as the full distribution —
//! quantiles, moments, and histograms are views over it, never a
//! replacement for it.
//!
//! # Ingest engine
//!
//! A sample keeps its measurements in **two orders at once**: insertion
//! order (`values`) and ascending order (the *sorted index*). The sorted
//! index is **built on first read**: [`Sample::new`] only validates the
//! values and folds their moments, and the first read of the order
//! ([`sorted`](Sample::sorted), [`sorted_runs`](Sample::sorted_runs),
//! [`order_stat`](Sample::order_stat), [`min`](Sample::min),
//! [`max`](Sample::max), [`ingest_stats`](Sample::ingest_stats), `==`)
//! builds it by one stable argsort. Until then a write
//! ([`push`](Sample::push),
//! [`extend_from_slice`](Sample::extend_from_slice),
//! [`try_extend_all`](Sample::try_extend_all)) only appends to the
//! values and folds the moments; once the index exists, every write
//! updates it incrementally. The index is a pure function of the values,
//! so when it is built never changes a bit of any output: a sample that
//! is only streamed into, decoded and counted (a session nobody scores, a
//! checkpoint read for its sizes) never sorts.
//! The sorted index has two tiers:
//!
//! * **Flat** (`n ≤` [`Sample::TIER_THRESHOLD`]): one contiguous sorted
//!   array plus the argsort (`ids[r]` = insertion index of the `r`-th
//!   smallest value). [`push`](Sample::push) binary-inserts — two `O(n)`
//!   memmoves, no per-element bookkeeping loop.
//! * **Tiered** (`n >` [`Sample::TIER_THRESHOLD`]): a two-level structure
//!   of sorted **leaf runs** (≈ [`Sample::LEAF_TARGET`] elements each)
//!   under a **node directory** of leaf minimum keys searched
//!   binary-then-linear — the ordered-index shape of the classic node/leaf
//!   intpair index. Inserts touch one leaf (`O(√n)`-ish), and bulk merges
//!   touch only the leaves the batch lands in.
//!
//! [`extend_from_slice`](Sample::extend_from_slice) is the **bulk path**:
//! into a built index, it sorts the incoming batch once and gallop-merges
//! it in a single pass — `O(n + k log n)` for a batch of `k` into a
//! flat sample, `O(k log k + touched leaves)` into a tiered one — instead
//! of `k` binary inserts. The result is **bit-identical** (values, sorted
//! view, insertion ids of the sorted order) to pushing the same values
//! one at a time, which is itself bit-identical to [`Sample::new`] of the
//! concatenation; the whole equivalence is property-tested across tier
//! boundaries (`crates/measure/tests/proptests.rs`).
//!
//! The flat ascending copy ([`sorted`](Sample::sorted)) is a **lazily
//! materialized view** over the tiered index, invalidated by every write
//! and counted in [`ingest_stats`](Sample::ingest_stats). Hot readers that
//! do not need a contiguous view — the bootstrap comparator's cumulative
//! quantile walk, the Mann–Whitney merge cursor — iterate
//! [`sorted_runs`](Sample::sorted_runs) /
//! [`sorted_chunks`](Sample::sorted_chunks) instead and never force a
//! materialization.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A set of repeated measurements of one algorithm under one metric
/// (execution time in seconds throughout the paper, but the type is
/// unit-agnostic).
///
/// Invariants maintained by construction:
/// * at least one measurement,
/// * every measurement is finite,
/// * an internally maintained sorted index (flat or tiered, see the
///   [module docs](self)) for O(1)–O(log n) order-statistic queries,
///   built on the first order read,
/// * running first and second moments in insertion order, making
///   [`mean`](Sample::mean) and [`variance`](Sample::variance) O(1),
/// * a lazily materialized ascending copy ([`sorted`](Sample::sorted)).
///
/// # Growth contract
///
/// Samples grow incrementally, and every growth path lands on the same
/// bits: a sample built by [`push`](Sample::push)ing values one at a
/// time, one built by [`extend_from_slice`](Sample::extend_from_slice)
/// bulk waves under **any** batch split, and one built by [`Sample::new`]
/// from the concatenation all agree exactly on
/// [`values`](Sample::values), [`sorted`](Sample::sorted), and the
/// insertion ids of [`sorted_runs`](Sample::sorted_runs) (ties ordered
/// stably by insertion). This is what lets the streaming session engine
/// reuse the count-vector comparator fast path between measurement waves
/// regardless of how measurements were batched.
///
/// Capacity: insertion indices are kept as `u32`, so a sample holds at
/// most `u32::MAX` measurements (checked with `assert!` on ingest).
///
/// # Examples
///
/// ```
/// use relperf_measure::Sample;
///
/// let s = Sample::new(vec![3.0, 1.0, 2.0]).unwrap();
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.median(), 2.0);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug)]
pub struct Sample {
    values: Vec<f64>,
    /// Running Σv in insertion order — the exact fold
    /// `values.iter().sum::<f64>()` performs, so [`mean`](Sample::mean)
    /// is bit-identical to the O(n) definition.
    sum: f64,
    /// Welford running mean, updated per value in insertion order on
    /// every growth path (see [`variance`](Sample::variance)).
    w_mean: f64,
    /// Welford running Σ(v−μ)² (see [`variance`](Sample::variance)).
    m2: f64,
    /// The sorted index, built from `values` on the first order read (see
    /// the [module docs](self)) and maintained incrementally by every
    /// write from then on.
    index: OnceLock<SortedIndex>,
    /// Lazily materialized flat ascending copy (tiered index only — the
    /// flat index *is* its own sorted view). Invalidated on every write.
    flat: OnceLock<Vec<f64>>,
    /// Times a lazy flat view was (re)built — see
    /// [`ingest_stats`](Sample::ingest_stats).
    materializations: AtomicU64,
    /// Bulk gallop-merges into a built index performed.
    bulk_merges: u64,
    /// Leaf-run compactions performed — see
    /// [`ingest_stats`](Sample::ingest_stats).
    compactions: u64,
}

/// The sorted index behind a [`Sample`] — see the [module docs](self).
#[derive(Debug, Clone)]
enum SortedIndex {
    /// One contiguous ascending run plus its argsort.
    Flat {
        sorted: Vec<f64>,
        /// `ids[r]` is the insertion index of `sorted[r]`; ties ascend by
        /// insertion index (stable argsort).
        ids: Vec<u32>,
    },
    Tiered(TieredIndex),
}

impl SortedIndex {
    /// The index of `values`: their stable argsort (ties order by
    /// insertion index) with the sorted copy derived from it, promoted to
    /// the tiered form past [`Sample::TIER_THRESHOLD`].
    fn build(values: &[f64]) -> SortedIndex {
        let mut ids: Vec<u32> = (0..values.len() as u32).collect();
        ids.sort_by(|&i, &j| {
            values[i as usize]
                .partial_cmp(&values[j as usize])
                .expect("finite by construction")
        });
        let sorted: Vec<f64> = ids.iter().map(|&i| values[i as usize]).collect();
        let mut index = SortedIndex::Flat { sorted, ids };
        index.maybe_promote();
        index
    }

    /// Switches a flat index that outgrew
    /// [`TIER_THRESHOLD`](Sample::TIER_THRESHOLD) to the tiered form.
    fn maybe_promote(&mut self) {
        if let SortedIndex::Flat { sorted, ids } = self {
            if sorted.len() > Sample::TIER_THRESHOLD {
                let index = TieredIndex::from_flat(
                    std::mem::take(sorted),
                    std::mem::take(ids),
                    Sample::LEAF_TARGET,
                );
                *self = SortedIndex::Tiered(index);
            }
        }
    }
}

/// Two-level node/leaf ordered index: sorted leaf runs under a directory
/// of leaf minimum keys.
#[derive(Debug, Clone)]
struct TieredIndex {
    leaves: Vec<Leaf>,
    /// `mins[i] == leaves[i].vals[0]` — the node directory.
    mins: Vec<f64>,
    /// Target leaf size; leaves split above `2 * leaf_target`.
    leaf_target: usize,
}

/// One sorted run of the tiered index, with the insertion index of each
/// element alongside (same tie order as the flat argsort).
#[derive(Debug, Clone)]
struct Leaf {
    vals: Vec<f64>,
    ids: Vec<u32>,
}

/// Below this many directory entries the leaf search goes linear — the
/// binary-then-linear idiom of the exemplar ordered index.
const LINEAR_SEARCH_SIZE: usize = 8;

/// Number of leading elements of ascending `run` that are `≤ v`, found by
/// galloping: exponential probe to bracket the boundary, then binary
/// search inside the bracket. Equivalent to
/// `run.partition_point(|&x| x <= v)` but O(log run-length) with a small
/// constant when the answer is near the front — the common case when
/// merging a sorted batch, where each batch element only consumes a short
/// prefix of what remains.
fn gallop_leq(run: &[f64], v: f64) -> usize {
    if run.first().is_none_or(|&x| x > v) {
        return 0;
    }
    // run[lo] <= v; exponentially widen until run[hi] > v or the end.
    let mut lo = 0usize;
    let mut hi = 1usize;
    while hi < run.len() && run[hi] <= v {
        lo = hi;
        hi *= 2;
    }
    let hi = hi.min(run.len());
    lo + run[lo..hi].partition_point(|&x| x <= v)
}

impl TieredIndex {
    /// Chunks an already-sorted `(sorted, ids)` pair into leaves of
    /// `leaf_target` elements.
    fn from_flat(sorted: Vec<f64>, ids: Vec<u32>, leaf_target: usize) -> TieredIndex {
        debug_assert!(leaf_target >= 2 && !sorted.is_empty());
        let mut leaves = Vec::with_capacity(sorted.len().div_ceil(leaf_target));
        let mut i = 0;
        while i < sorted.len() {
            let end = (i + leaf_target).min(sorted.len());
            leaves.push(Leaf {
                vals: sorted[i..end].to_vec(),
                ids: ids[i..end].to_vec(),
            });
            i = end;
        }
        let mins = leaves.iter().map(|l| l.vals[0]).collect();
        TieredIndex {
            leaves,
            mins,
            leaf_target,
        }
    }

    /// Index of the leaf a value `v` inserts into: the **last** leaf whose
    /// minimum key is `≤ v` (so the insert lands after every existing
    /// equal value, preserving the stable tie order), or leaf 0 when `v`
    /// is a new global minimum. Binary search down to a
    /// [`LINEAR_SEARCH_SIZE`] window, then linear scan.
    fn leaf_for(&self, v: f64) -> usize {
        let mins = &self.mins;
        let (mut lo, mut hi) = (0usize, mins.len());
        while hi - lo > LINEAR_SEARCH_SIZE {
            let mid = (lo + hi) / 2;
            if mins[mid] <= v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        while lo < hi && mins[lo] <= v {
            lo += 1;
        }
        lo.saturating_sub(1)
    }

    /// Binary-inserts one `(value, insertion id)` into its leaf, splitting
    /// the leaf when it exceeds `2 * leaf_target`.
    fn insert(&mut self, v: f64, id: u32) {
        let li = self.leaf_for(v);
        let leaf = &mut self.leaves[li];
        let at = leaf.vals.partition_point(|&x| x <= v);
        leaf.vals.insert(at, v);
        leaf.ids.insert(at, id);
        if at == 0 {
            // Only possible in leaf 0 (a new global minimum).
            self.mins[li] = v;
        }
        if self.leaves[li].vals.len() > 2 * self.leaf_target {
            self.split(li);
        }
    }

    fn split(&mut self, li: usize) {
        let leaf = &mut self.leaves[li];
        let mid = leaf.vals.len() / 2;
        let right = Leaf {
            vals: leaf.vals.split_off(mid),
            ids: leaf.ids.split_off(mid),
        };
        let rmin = right.vals[0];
        self.leaves.insert(li + 1, right);
        self.mins.insert(li + 1, rmin);
    }

    /// Gallop-merges a sorted batch of `(value, insertion id)` pairs
    /// (ties ascending by id) in one left-to-right pass: the batch is
    /// split into per-leaf segments by the node directory, untouched
    /// leaves are moved wholesale, and each touched leaf is merged with
    /// its segment (existing elements first on ties — the stable order)
    /// and re-chunked to the target leaf size.
    fn bulk_merge(&mut self, batch: &[(f64, u32)]) {
        let old = std::mem::take(&mut self.leaves);
        let n_old = old.len();
        let mut out: Vec<Leaf> =
            Vec::with_capacity(n_old + batch.len() / self.leaf_target + 1);
        let mut b = 0usize;
        for (i, leaf) in old.into_iter().enumerate() {
            // The segment routed to leaf `i`: everything below the next
            // leaf's minimum key. Values equal to that minimum belong to
            // the *later* leaf (insert-after-equals, matching `leaf_for`).
            let end = if i + 1 < n_old {
                b + batch[b..].partition_point(|&(x, _)| x < self.mins[i + 1])
            } else {
                batch.len()
            };
            if b == end {
                out.push(leaf);
            } else {
                merge_leaf(leaf, &batch[b..end], self.leaf_target, &mut out);
            }
            b = end;
        }
        debug_assert_eq!(b, batch.len(), "every batch element must be routed");
        self.leaves = out;
        self.mins.clear();
        self.mins.extend(self.leaves.iter().map(|l| l.vals[0]));
    }
}

/// Merges one leaf with its sorted batch segment (existing elements first
/// on ties) and pushes the result — split into `leaf_target`-sized chunks
/// when oversized — onto `out`.
fn merge_leaf(leaf: Leaf, seg: &[(f64, u32)], leaf_target: usize, out: &mut Vec<Leaf>) {
    let total = leaf.vals.len() + seg.len();
    let mut vals = Vec::with_capacity(total);
    let mut ids = Vec::with_capacity(total);
    let mut i = 0usize;
    for &(v, id) in seg {
        let run = i + gallop_leq(&leaf.vals[i..], v);
        vals.extend_from_slice(&leaf.vals[i..run]);
        ids.extend_from_slice(&leaf.ids[i..run]);
        i = run;
        vals.push(v);
        ids.push(id);
    }
    vals.extend_from_slice(&leaf.vals[i..]);
    ids.extend_from_slice(&leaf.ids[i..]);
    if total <= 2 * leaf_target {
        out.push(Leaf { vals, ids });
    } else {
        let chunks = total.div_ceil(leaf_target);
        let per = total.div_ceil(chunks);
        let mut s = 0;
        while s < total {
            let e = (s + per).min(total);
            out.push(Leaf {
                vals: vals[s..e].to_vec(),
                ids: ids[s..e].to_vec(),
            });
            s = e;
        }
    }
}

/// Gallop-merges a sorted batch into a flat `(sorted, ids)` pair in one
/// O(n + k log n) pass (existing elements first on ties).
fn flat_bulk_merge(sorted: &mut Vec<f64>, ids: &mut Vec<u32>, batch: &[(f64, u32)]) {
    let total = sorted.len() + batch.len();
    let mut new_sorted = Vec::with_capacity(total);
    let mut new_ids = Vec::with_capacity(total);
    let mut i = 0usize;
    for &(v, id) in batch {
        let run = i + gallop_leq(&sorted[i..], v);
        new_sorted.extend_from_slice(&sorted[i..run]);
        new_ids.extend_from_slice(&ids[i..run]);
        i = run;
        new_sorted.push(v);
        new_ids.push(id);
    }
    new_sorted.extend_from_slice(&sorted[i..]);
    new_ids.extend_from_slice(&ids[i..]);
    *sorted = new_sorted;
    *ids = new_ids;
}

/// One ascending run of a sample's sorted index, yielded by
/// [`Sample::sorted_runs`].
#[derive(Debug, Clone, Copy)]
pub struct SortedRun<'a> {
    /// The run's measurements, ascending. Runs concatenate to the full
    /// sorted view.
    pub values: &'a [f64],
    /// `ids[r]` is the insertion index of `values[r]` (ties ascend by
    /// insertion index across the whole sample).
    pub ids: &'a [u32],
}

/// Iterator over the sorted runs of a [`Sample`] — see
/// [`Sample::sorted_runs`].
#[derive(Debug, Clone)]
pub struct SortedRuns<'a> {
    inner: RunsInner<'a>,
}

#[derive(Debug, Clone)]
enum RunsInner<'a> {
    Flat(Option<SortedRun<'a>>),
    Leaves(std::slice::Iter<'a, Leaf>),
}

impl<'a> Iterator for SortedRuns<'a> {
    type Item = SortedRun<'a>;

    fn next(&mut self) -> Option<SortedRun<'a>> {
        match &mut self.inner {
            RunsInner::Flat(one) => one.take(),
            RunsInner::Leaves(iter) => iter.next().map(|l| SortedRun {
                values: &l.vals,
                ids: &l.ids,
            }),
        }
    }
}

/// Observability counters of a sample's ingest engine — see
/// [`Sample::ingest_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Whether the sorted index is in its tiered (two-level) form.
    pub tiered: bool,
    /// Number of sorted leaf runs (1 for the flat tier).
    pub leaves: usize,
    /// Times the lazily cached flat view ([`Sample::sorted`]) was
    /// (re)built since construction.
    pub materializations: u64,
    /// Bulk gallop-merges into a built sorted index performed by
    /// [`Sample::extend_from_slice`] / [`Sample::try_extend_all`]. A wave
    /// into a sample no read has indexed yet only appends and is not
    /// counted.
    pub bulk_merges: u64,
    /// Times the tiered index was rebuilt into dense leaf runs because a
    /// write left it past the fragmentation bound (see the compaction
    /// notes on [`Sample::ingest_stats`]).
    pub compactions: u64,
}

/// Error constructing a [`Sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleError {
    /// The measurement vector was empty.
    Empty,
    /// A measurement was NaN or infinite (index of the first offender).
    NonFinite(usize),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Empty => write!(f, "sample must contain at least one measurement"),
            SampleError::NonFinite(i) => write!(f, "measurement {i} is not finite"),
        }
    }
}

impl std::error::Error for SampleError {}

impl Sample {
    /// Above this many measurements the sorted index switches from one
    /// contiguous run to the tiered leaf/directory form (see the [module
    /// docs](self)). The switch is an internal representation change only
    /// — every accessor returns the same bits on either side of it.
    pub const TIER_THRESHOLD: usize = 2048;

    /// Target leaf size of the tiered index; leaves split above twice
    /// this.
    pub const LEAF_TARGET: usize = 512;

    /// Batches at or below this size take the per-element insert path —
    /// a gallop-merge's batch sort and rebuild don't pay for themselves
    /// on a handful of values.
    const BULK_CUTOFF: usize = 8;

    /// Wraps a vector of measurements.
    ///
    /// Returns [`SampleError::Empty`] for an empty vector and
    /// [`SampleError::NonFinite`] when any value is NaN or infinite.
    ///
    /// Cost: `O(n)` — validation and the running moments. The sorted
    /// index is built on the first order read (see the [module
    /// docs](self)), not here.
    pub fn new(values: Vec<f64>) -> Result<Self, SampleError> {
        if values.is_empty() {
            return Err(SampleError::Empty);
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(SampleError::NonFinite(i));
        }
        assert!(
            values.len() <= u32::MAX as usize,
            "sample exceeds the u32 insertion-id capacity"
        );
        let (mut sum, mut w_mean, mut m2) = (0.0f64, 0.0f64, 0.0f64);
        for (i, &v) in values.iter().enumerate() {
            fold_moment(&mut sum, &mut w_mean, &mut m2, v, i + 1);
        }
        Ok(Sample {
            values,
            sum,
            w_mean,
            m2,
            index: OnceLock::new(),
            flat: OnceLock::new(),
            materializations: AtomicU64::new(0),
            bulk_merges: 0,
            compactions: 0,
        })
    }

    /// The sorted index, built on the first call.
    fn index(&self) -> &SortedIndex {
        self.index.get_or_init(|| SortedIndex::build(&self.values))
    }

    /// Appends `batch` to the insertion order and folds its moments, then
    /// hands back the sorted index the write must update — or `None`
    /// while no read has built it. An unbuilt index is later built from
    /// `values` alone, so a write before the first read only appends.
    fn append(&mut self, batch: &[f64]) -> Option<&mut SortedIndex> {
        let mut n = self.values.len();
        self.values.extend_from_slice(batch);
        for &v in batch {
            n += 1;
            fold_moment(&mut self.sum, &mut self.w_mean, &mut self.m2, v, n);
        }
        // Unread: nothing to update, since the first read builds the
        // index from `values` alone.
        self.index.get()?;
        self.invalidate();
        self.index.get_mut()
    }

    /// Finishes a write into a built index: promotes a flat index that
    /// outgrew [`TIER_THRESHOLD`](Sample::TIER_THRESHOLD) and repairs a
    /// fragmented tiered one.
    fn settle_index(&mut self) {
        if let Some(built) = self.index.get_mut() {
            built.maybe_promote();
        }
        self.maybe_compact();
    }

    /// Drops the lazy flat view (called by every write into a built
    /// index; an unbuilt index has no view to drop).
    fn invalidate(&mut self) {
        self.flat = OnceLock::new();
    }

    /// Rebuilds a tiered index that a write left **fragmented** — more
    /// leaf runs than `2 · ceil(n / leaf_target) + 1` — into dense
    /// `leaf_target`-sized runs, preserving the sorted order and ids bit
    /// for bit.
    ///
    /// The steady-state write paths keep leaves between ~⅔ and 2× the
    /// target (splits halve an over-full leaf; bulk merges re-chunk
    /// touched leaves evenly), so the bound holds with slack under any
    /// ingest skew and this valve stays cold. It exists so the run count
    /// — and with it the cost of every `O(#leaves)` reader — is bounded
    /// *by construction* rather than by that analysis: any state that
    /// violates the bound, however produced, is repaired on the next
    /// write at `O(n)`, which the doubling threshold amortizes against
    /// the writes that built the fragmentation up.
    fn maybe_compact(&mut self) {
        let Some(SortedIndex::Tiered(t)) = self.index.get_mut() else {
            return;
        };
        let bound = 2 * self.values.len().div_ceil(t.leaf_target) + 1;
        if t.leaves.len() <= bound {
            return;
        }
        let mut sorted = Vec::with_capacity(self.values.len());
        let mut ids = Vec::with_capacity(self.values.len());
        for leaf in &t.leaves {
            sorted.extend_from_slice(&leaf.vals);
            ids.extend_from_slice(&leaf.ids);
        }
        *t = TieredIndex::from_flat(sorted, ids, t.leaf_target);
        self.compactions += 1;
    }

    /// Appends one measurement, maintaining the sorted index
    /// incrementally once a read has built it.
    ///
    /// Into a built index the new value is inserted *after* any existing
    /// equal values, exactly where the stable argsort of [`Sample::new`]
    /// would place it — so a sample grown by `push` is **bit-identical**
    /// (values, sorted view, insertion ids) to one constructed from the
    /// final vector in one shot. Cost: `O(1)` amortized while no read has
    /// built the index (the value is only appended); after that, two O(n)
    /// memmoves in the flat tier, one O(leaf) memmove plus an
    /// O(log #leaves) directory search in the tiered tier. Streams of
    /// measurements into a sample that is read between waves should
    /// prefer [`extend_from_slice`](Sample::extend_from_slice), which
    /// merges a whole batch in one pass.
    ///
    /// Returns [`SampleError::NonFinite`] (with the would-be insertion
    /// index) and leaves the sample untouched when `value` is NaN or
    /// infinite.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_measure::Sample;
    ///
    /// let mut s = Sample::new(vec![3.0, 1.0]).unwrap();
    /// s.push(2.0).unwrap();
    /// assert_eq!(s, Sample::new(vec![3.0, 1.0, 2.0]).unwrap());
    /// ```
    pub fn push(&mut self, value: f64) -> Result<(), SampleError> {
        if !value.is_finite() {
            return Err(SampleError::NonFinite(self.values.len()));
        }
        assert!(
            self.values.len() < u32::MAX as usize,
            "sample exceeds the u32 insertion-id capacity"
        );
        let id = self.values.len() as u32;
        let Some(index) = self.append(&[value]) else {
            return Ok(());
        };
        match index {
            SortedIndex::Flat { sorted, ids } => {
                // Upper bound: ties sort stably by insertion order, and
                // this value is the latest insertion, so it lands after
                // all equal values.
                let ins = sorted.partition_point(|&v| v <= value);
                sorted.insert(ins, value);
                ids.insert(ins, id);
            }
            SortedIndex::Tiered(t) => t.insert(value, id),
        }
        self.settle_index();
        Ok(())
    }

    /// Ingests a batch of known-finite values: appended only while the
    /// index is unbuilt, else through the bulk path (or the per-element
    /// path below [`BULK_CUTOFF`](Self::BULK_CUTOFF)).
    fn ingest_finite_batch(&mut self, batch_values: &[f64]) {
        if batch_values.is_empty() {
            return;
        }
        debug_assert!(batch_values.iter().all(|v| v.is_finite()));
        if batch_values.len() <= Self::BULK_CUTOFF {
            for &v in batch_values {
                self.push(v).expect("caller validated finiteness");
            }
            return;
        }
        assert!(
            self.values.len() + batch_values.len() <= u32::MAX as usize,
            "sample exceeds the u32 insertion-id capacity"
        );
        let id0 = self.values.len() as u32;
        let Some(index) = self.append(batch_values) else {
            return;
        };
        let mut batch: Vec<(f64, u32)> = batch_values
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, id0 + j as u32))
            .collect();
        // Stable sort: ties keep their batch (= insertion) order, so the
        // merged tie groups order by insertion index exactly as a chain
        // of upper-bound inserts would.
        batch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite by caller"));
        match index {
            SortedIndex::Flat { sorted, ids } => flat_bulk_merge(sorted, ids, &batch),
            SortedIndex::Tiered(t) => t.bulk_merge(&batch),
        }
        self.bulk_merges += 1;
        self.settle_index();
    }

    /// Ingests a wave of measurements. While no read has built the sorted
    /// index, the longest finite prefix is only appended; once one has,
    /// it goes through the **bulk path** — sorted once and gallop-merged
    /// into the index in a single pass. Either way the result is
    /// bit-identical (values, sorted view, insertion ids) to
    /// [`push`](Sample::push)ing the same values one at a time, at a
    /// fraction of the cost.
    ///
    /// Error semantics are the streaming ones: on the first non-finite
    /// value, everything before it **is** ingested, the offender and the
    /// rest are not, and the returned [`SampleError::NonFinite`] carries
    /// the offender's would-be insertion index (`len()` at return). Use
    /// [`try_extend_all`](Sample::try_extend_all) for all-or-nothing
    /// ingestion.
    pub fn extend_from_slice(&mut self, values: &[f64]) -> Result<(), SampleError> {
        let bad = values.iter().position(|v| !v.is_finite());
        self.ingest_finite_batch(&values[..bad.unwrap_or(values.len())]);
        match bad {
            Some(_) => Err(SampleError::NonFinite(self.values.len())),
            None => Ok(()),
        }
    }

    /// All-or-nothing bulk ingest: pre-validates the whole batch and only
    /// then ingests it as [`extend_from_slice`](Sample::extend_from_slice)
    /// does (appended while the index is unbuilt, gallop-merged into a
    /// built one), so a non-finite value anywhere leaves the sample
    /// **completely untouched** — the transactional contract a
    /// hosted service wants for a tenant wave, where
    /// [`extend_from_slice`](Sample::extend_from_slice)'s
    /// partial-prefix-ingested streaming semantics would leave the
    /// tenant guessing what landed.
    ///
    /// On rejection the returned [`SampleError::NonFinite`] carries the
    /// offender's index **within `values`** (the same convention as
    /// [`Sample::new`]), not an insertion index — nothing was inserted.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_measure::{sample::SampleError, Sample};
    ///
    /// let mut s = Sample::new(vec![1.0]).unwrap();
    /// let err = s.try_extend_all(&[2.0, f64::NAN, 3.0]).unwrap_err();
    /// assert_eq!(err, SampleError::NonFinite(1));
    /// assert_eq!(s.values(), &[1.0]); // nothing ingested
    /// s.try_extend_all(&[2.0, 3.0]).unwrap();
    /// assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    /// ```
    pub fn try_extend_all(&mut self, values: &[f64]) -> Result<(), SampleError> {
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(SampleError::NonFinite(i));
        }
        self.ingest_finite_batch(values);
        Ok(())
    }

    /// Number of measurements `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`; present for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The measurements in insertion order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The measurements in ascending order.
    ///
    /// In the flat tier this is the live sorted index (free); in the
    /// tiered tier it is a **lazily materialized** contiguous copy,
    /// rebuilt on first access after a write (counted in
    /// [`ingest_stats`](Sample::ingest_stats)). Readers that only walk
    /// the order — merge cursors, cumulative quantile reads — should
    /// iterate [`sorted_runs`](Sample::sorted_runs) /
    /// [`sorted_chunks`](Sample::sorted_chunks) instead, which never
    /// materialize.
    pub fn sorted(&self) -> &[f64] {
        match self.index() {
            SortedIndex::Flat { sorted, .. } => sorted,
            SortedIndex::Tiered(t) => self.flat.get_or_init(|| {
                self.materializations.fetch_add(1, Ordering::Relaxed);
                let mut out = Vec::with_capacity(self.values.len());
                for leaf in &t.leaves {
                    out.extend_from_slice(&leaf.vals);
                }
                out
            }),
        }
    }

    /// The sorted index as a sequence of ascending runs (one run in the
    /// flat tier, one per leaf in the tiered tier), each carrying the
    /// insertion index of every element. Concatenated, the runs are
    /// exactly [`sorted`](Sample::sorted) — but iterating them costs
    /// nothing: no flat view is materialized.
    pub fn sorted_runs(&self) -> SortedRuns<'_> {
        SortedRuns {
            inner: match self.index() {
                SortedIndex::Flat { sorted, ids } => RunsInner::Flat(Some(SortedRun {
                    values: sorted,
                    ids,
                })),
                SortedIndex::Tiered(t) => RunsInner::Leaves(t.leaves.iter()),
            },
        }
    }

    /// The value slices of [`sorted_runs`](Sample::sorted_runs) — the
    /// chunked drive for the merge cursor
    /// ([`merge_tie_groups`](crate::merge::merge_tie_groups)).
    pub fn sorted_chunks(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.sorted_runs().map(|r| r.values)
    }

    /// The `k`-th order statistic (0-based, `k < len()`): `sorted()[k]`
    /// without materializing the flat view — O(1) in the flat tier,
    /// O(#leaves) in the tiered tier.
    pub fn order_stat(&self, k: usize) -> f64 {
        match self.index() {
            SortedIndex::Flat { sorted, .. } => sorted[k],
            SortedIndex::Tiered(t) => {
                let mut rem = k;
                for leaf in &t.leaves {
                    if rem < leaf.vals.len() {
                        return leaf.vals[rem];
                    }
                    rem -= leaf.vals.len();
                }
                panic!("order statistic {k} out of range");
            }
        }
    }

    /// Observability counters of the ingest engine: current tier, leaf
    /// count, lazy-view materializations, bulk merges, leaf-run
    /// compactions.
    ///
    /// In the tiered tier the leaf count is bounded by construction:
    /// after every write, `leaves ≤ 2 · ceil(n / leaf_target) + 1` — a
    /// write that leaves the index more fragmented than that triggers an
    /// immediate compaction rebuild (counted in
    /// [`IngestStats::compactions`]).
    pub fn ingest_stats(&self) -> IngestStats {
        let (tiered, leaves) = match self.index() {
            SortedIndex::Flat { .. } => (false, 1),
            SortedIndex::Tiered(t) => (true, t.leaves.len()),
        };
        IngestStats {
            tiered,
            leaves,
            materializations: self.materializations.load(Ordering::Relaxed),
            bulk_merges: self.bulk_merges,
            compactions: self.compactions,
        }
    }

    /// Re-chunks the sorted index into a tiered index with a custom leaf
    /// size, regardless of [`TIER_THRESHOLD`](Sample::TIER_THRESHOLD) —
    /// a test hook for exercising tier behaviour at small `n`. Not part
    /// of the supported API.
    #[doc(hidden)]
    pub fn force_tiered_for_test(&mut self, leaf_target: usize) {
        assert!(leaf_target >= 2, "leaf target too small");
        let mut sorted = Vec::with_capacity(self.values.len());
        let mut ids = Vec::with_capacity(self.values.len());
        for run in self.sorted_runs() {
            sorted.extend_from_slice(run.values);
            ids.extend_from_slice(run.ids);
        }
        self.index = OnceLock::from(SortedIndex::Tiered(TieredIndex::from_flat(
            sorted,
            ids,
            leaf_target,
        )));
        self.invalidate();
    }

    /// Shatters the sorted index into tiered leaf runs of `run_len`
    /// elements while claiming `leaf_target` as the nominal leaf size —
    /// a deliberately fragmented state for exercising the compaction
    /// valve (see [`ingest_stats`](Sample::ingest_stats)). Not part of
    /// the supported API.
    #[doc(hidden)]
    pub fn fragment_for_test(&mut self, run_len: usize, leaf_target: usize) {
        assert!(run_len >= 2 && leaf_target >= 2);
        let mut sorted = Vec::with_capacity(self.values.len());
        let mut ids = Vec::with_capacity(self.values.len());
        for run in self.sorted_runs() {
            sorted.extend_from_slice(run.values);
            ids.extend_from_slice(run.ids);
        }
        let mut t = TieredIndex::from_flat(sorted, ids, run_len);
        t.leaf_target = leaf_target;
        self.index = OnceLock::from(SortedIndex::Tiered(t));
        self.invalidate();
    }

    /// Smallest measurement.
    pub fn min(&self) -> f64 {
        match self.index() {
            SortedIndex::Flat { sorted, .. } => sorted[0],
            SortedIndex::Tiered(t) => t.mins[0],
        }
    }

    /// Largest measurement.
    pub fn max(&self) -> f64 {
        match self.index() {
            SortedIndex::Flat { sorted, .. } => *sorted.last().expect("non-empty"),
            SortedIndex::Tiered(t) => *t
                .leaves
                .last()
                .expect("non-empty")
                .vals
                .last()
                .expect("leaves are non-empty"),
        }
    }

    /// Arithmetic mean — O(1) from the running sum, which is maintained
    /// in insertion order and therefore **bit-identical** to
    /// `values.iter().sum::<f64>() / n` (same fold, same rounding).
    pub fn mean(&self) -> f64 {
        self.sum / self.len() as f64
    }

    /// Unbiased sample variance (0 for a single measurement) — O(1) from
    /// the Welford running moments, folded per value in insertion order
    /// on every growth path (so push, bulk extend, and batch construction
    /// agree bit for bit). Welford is exact on constant samples (a
    /// naive `Σv² − (Σv)²/n` would cancel catastrophically there) and
    /// agrees with the two-pass `Σ(v−μ)²/(n−1)` definition up to the last
    /// few bits (this is a diagnostic readout — comparison outcomes never
    /// consume it).
    pub fn variance(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        self.m2 / (n as f64 - 1.0)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `σ/μ` — the paper's notion of "fluctuations
    /// in the performance measurements". Returns 0 when the mean is 0.
    pub fn coeff_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Linear-interpolation quantile (type-7, the numpy/R default), read
    /// from the sorted index by order statistic — no flat view needed.
    ///
    /// # Contract
    /// `q` must lie in `[0, 1]`. The contract is checked with
    /// `debug_assert!` — the same policy as the hot-path
    /// [`quantile_sorted`](crate::bootstrap::quantile_sorted), so the two
    /// readers can never disagree about an invalid `q`: debug builds panic
    /// in both, release builds leave the behaviour unspecified in both
    /// (`q < 0` clamps to the minimum, `q > 1` panics on the index bound).
    /// Validate once at the boundary (as `BootstrapConfig::validate` does)
    /// rather than per read.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let (lo, hi, frac) = crate::bootstrap::quantile_interp(q, self.len());
        crate::bootstrap::interp_value(self.order_stat(lo), self.order_stat(hi), lo, hi, frac)
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Evaluates several quantiles at once.
    ///
    /// # Contract
    /// Every `q` must lie in `[0, 1]`, checked with `debug_assert!` only —
    /// see [`quantile`](Sample::quantile) for the shared policy.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        debug_assert!(
            qs.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantiles must lie in [0, 1]: {qs:?}"
        );
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Histogram with `bins` equal-width bins spanning `[min, max]`.
    ///
    /// Returns the bin edges (`bins + 1` values) and counts (`bins` values).
    /// A degenerate sample (all values equal) produces a single full bin in
    /// the middle.
    ///
    /// # Panics
    /// Panics when `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        let lo = self.min();
        let hi = self.max();
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        if width == 0.0 {
            counts[bins / 2] = self.len();
        } else {
            for &v in &self.values {
                let mut idx = ((v - lo) / width) as usize;
                if idx >= bins {
                    idx = bins - 1; // v == max lands in the last bin
                }
                counts[idx] += 1;
            }
        }
        let edges = (0..=bins).map(|i| lo + width * i as f64).collect();
        Histogram { edges, counts }
    }
}

/// One Welford step: folds `v` into the running moments, where `n` is
/// the count *including* `v`. Every growth path (batch construction,
/// per-element push, bulk extend) applies this same update per value in
/// insertion order, so the moments are bit-identical across them; `sum`
/// rides along as the plain left fold so [`Sample::mean`] matches
/// `values.iter().sum::<f64>() / n` exactly.
fn fold_moment(sum: &mut f64, w_mean: &mut f64, m2: &mut f64, v: f64, n: usize) {
    *sum += v;
    let delta = v - *w_mean;
    *w_mean += delta / n as f64;
    *m2 += delta * (v - *w_mean);
}

impl Clone for Sample {
    /// Clones the measurements and the sorted index (built or not); the
    /// lazy flat view and observability counters start fresh (they are
    /// caches, not state — the clone compares equal to the original).
    fn clone(&self) -> Self {
        Sample {
            values: self.values.clone(),
            sum: self.sum,
            w_mean: self.w_mean,
            m2: self.m2,
            index: self.index.clone(),
            flat: OnceLock::new(),
            materializations: AtomicU64::new(0),
            bulk_merges: self.bulk_merges,
            compactions: self.compactions,
        }
    }
}

impl PartialEq for Sample {
    /// Equality of the full growth contract: insertion order and the
    /// insertion ids of the sorted order must agree bit for bit (lazy
    /// caches and counters excluded; the internal tier is irrelevant).
    /// Equal values and ids imply an equal sorted view, so the runs are
    /// compared id by id and nothing is materialized.
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self
                .sorted_runs()
                .flat_map(|r| r.ids)
                .eq(other.sorted_runs().flat_map(|r| r.ids))
    }
}

/// An equal-width histogram produced by [`Sample::histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges, `len = bins + 1`.
    pub edges: Vec<f64>,
    /// Per-bin counts, `len = bins`.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Total number of counted measurements.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Renders a single-column ASCII bar chart, one row per bin, scaled to
    /// `width` characters — used by the figure-regeneration binaries.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * width / max);
            out.push_str(&format!(
                "[{:>12.6}, {:>12.6}) {:>5} {}\n",
                self.edges[i],
                self.edges[i + 1],
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[f64]) -> Sample {
        Sample::new(v.to_vec()).unwrap()
    }

    /// The insertion ids of the sorted order, read through the runs.
    fn sorted_ids(x: &Sample) -> Vec<u32> {
        x.sorted_runs().flat_map(|r| r.ids.iter().copied()).collect()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Sample::new(vec![]).unwrap_err(), SampleError::Empty);
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(
            Sample::new(vec![1.0, f64::NAN]).unwrap_err(),
            SampleError::NonFinite(1)
        );
        assert_eq!(
            Sample::new(vec![f64::INFINITY]).unwrap_err(),
            SampleError::NonFinite(0)
        );
    }

    #[test]
    fn basic_stats() {
        let x = s(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(x.mean(), 5.0);
        assert_eq!(x.min(), 2.0);
        assert_eq!(x.max(), 9.0);
        assert!((x.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn single_measurement() {
        let x = s(&[3.0]);
        assert_eq!(x.mean(), 3.0);
        assert_eq!(x.variance(), 0.0);
        assert_eq!(x.median(), 3.0);
        assert_eq!(x.quantile(0.0), 3.0);
        assert_eq!(x.quantile(1.0), 3.0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(s(&[1.0, 2.0, 3.0]).median(), 2.0);
        assert_eq!(s(&[1.0, 2.0, 3.0, 4.0]).median(), 2.5);
    }

    #[test]
    fn quantile_interpolation() {
        let x = s(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(x.quantile(0.0), 10.0);
        assert_eq!(x.quantile(1.0), 40.0);
        assert!((x.quantile(0.25) - 17.5).abs() < 1e-12);
        assert!((x.quantile(1.0 / 3.0) - 20.0).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_panics_in_debug() {
        s(&[1.0]).quantile(1.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must lie in")]
    fn quantiles_out_of_range_panics_in_debug() {
        s(&[1.0]).quantiles(&[0.5, -0.1]);
    }

    #[test]
    fn quantiles_vectorized() {
        let x = s(&[1.0, 2.0, 3.0]);
        assert_eq!(x.quantiles(&[0.0, 0.5, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn coeff_of_variation() {
        let tight = s(&[1.0, 1.01, 0.99]);
        let loose = s(&[1.0, 2.0, 0.1]);
        assert!(tight.coeff_of_variation() < loose.coeff_of_variation());
    }

    #[test]
    fn histogram_counts_everything() {
        let x = s(&[0.0, 0.1, 0.5, 0.9, 1.0]);
        let h = x.histogram(2);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts, vec![2, 3]); // 0.5 and max land in the last bin
        assert_eq!(h.edges.len(), 3);
    }

    #[test]
    fn histogram_degenerate_sample() {
        let x = s(&[2.0, 2.0, 2.0]);
        let h = x.histogram(4);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts[2], 3);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        s(&[1.0]).histogram(0);
    }

    #[test]
    fn histogram_ascii_render() {
        let x = s(&[0.0, 0.0, 1.0]);
        let text = x.histogram(2).render_ascii(10);
        assert!(text.contains('#'));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn sorted_is_sorted_and_values_preserved() {
        let x = s(&[3.0, 1.0, 2.0]);
        assert_eq!(x.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(x.sorted(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sorted_ids_are_the_stable_argsort() {
        let x = s(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(x.sorted(), &[1.0, 1.0, 2.0, 3.0]);
        // Ties broken stably: the first 1.0 gets the earlier position.
        assert_eq!(sorted_ids(&x), &[1, 3, 2, 0]);
        for (r, &id) in sorted_ids(&x).iter().enumerate() {
            assert_eq!(x.sorted()[r], x.values()[id as usize]);
        }
    }

    #[test]
    fn push_matches_batch_construction() {
        let values = [3.0, 1.0, 2.0, 1.0, 2.5, 1.0, 9.0];
        let mut grown = s(&values[..1]);
        for &v in &values[1..] {
            grown.push(v).unwrap();
            let rebuilt = s(&values[..grown.len()]);
            assert_eq!(grown, rebuilt, "after pushing {v}");
        }
    }

    #[test]
    fn push_rejects_non_finite_and_leaves_sample_intact() {
        let mut x = s(&[1.0, 2.0]);
        let before = x.clone();
        assert_eq!(x.push(f64::NAN).unwrap_err(), SampleError::NonFinite(2));
        assert_eq!(x.push(f64::INFINITY).unwrap_err(), SampleError::NonFinite(2));
        assert_eq!(x, before);
    }

    #[test]
    fn extend_from_slice_stops_at_first_offender() {
        let mut x = s(&[1.0]);
        let err = x.extend_from_slice(&[2.0, f64::NAN, 3.0]).unwrap_err();
        assert_eq!(err, SampleError::NonFinite(2));
        // 2.0 was ingested before the offender; 3.0 was not.
        assert_eq!(x.values(), &[1.0, 2.0]);
    }

    #[test]
    fn try_extend_all_is_all_or_nothing() {
        let mut x = s(&[1.0]);
        let before = x.clone();
        let err = x
            .try_extend_all(&[2.0, 3.0, f64::INFINITY, 4.0])
            .unwrap_err();
        // Index within the batch, Sample::new-style — nothing was inserted.
        assert_eq!(err, SampleError::NonFinite(2));
        assert_eq!(x, before);
        x.try_extend_all(&[2.0, 3.0]).unwrap();
        assert_eq!(x, s(&[1.0, 2.0, 3.0]));
    }

    /// One sample grown by a bulk wave and one grown by pushing the same
    /// values, each read first when `read_first` (so the wave updates a
    /// built index rather than only appending), checked against each other
    /// and against `Sample::new` of the concatenation. Returns the bulk
    /// sample's merge count.
    fn bulk_wave_vs_push(read_first: bool) -> u64 {
        // Above BULK_CUTOFF so a wave into a built index gallop-merges;
        // duplicate-heavy so the stable tie order is genuinely exercised.
        let base = [5.0, 1.0, 3.0];
        let wave = [2.0, 3.0, 1.0, 3.0, 9.0, 0.5, 3.0, 3.0, 2.0, 7.0, 1.0, 5.0];
        let mut bulk = s(&base);
        let mut pushed = s(&base);
        if read_first {
            assert_eq!(bulk.min(), 1.0);
            assert_eq!(pushed.min(), 1.0);
        }
        bulk.extend_from_slice(&wave).unwrap();
        for &v in &wave {
            pushed.push(v).unwrap();
        }
        let concat: Vec<f64> = base.iter().chain(&wave).copied().collect();
        let rebuilt = Sample::new(concat).unwrap();
        assert_eq!(bulk.values(), pushed.values());
        assert_eq!(bulk.sorted(), pushed.sorted());
        assert_eq!(sorted_ids(&bulk), sorted_ids(&pushed));
        assert_eq!(bulk, rebuilt);
        bulk.ingest_stats().bulk_merges
    }

    #[test]
    fn bulk_extend_matches_per_element_push() {
        // The sample was read before its wave, so the wave gallop-merges
        // into the built index.
        assert_eq!(bulk_wave_vs_push(true), 1);
    }

    #[test]
    fn unread_bulk_extend_only_appends_and_matches_push() {
        // Nothing read the sample before its wave: the wave only appends,
        // and the first read builds the same index from the values.
        assert_eq!(bulk_wave_vs_push(false), 0);
    }

    #[test]
    fn tiered_index_matches_flat_views() {
        // Force the tiered form at tiny scale and check every view against
        // a flat-built twin, through both push and bulk growth.
        let vals: Vec<f64> = (0..97).map(|i| ((i * 37) % 23) as f64 * 0.5).collect();
        let mut tiered = s(&vals[..40]);
        tiered.force_tiered_for_test(8);
        assert!(tiered.ingest_stats().tiered);
        for &v in &vals[40..60] {
            tiered.push(v).unwrap();
        }
        tiered.extend_from_slice(&vals[60..]).unwrap();
        let flat = s(&vals);
        assert_eq!(tiered.values(), flat.values());
        assert_eq!(tiered.sorted(), flat.sorted());
        assert_eq!(sorted_ids(&tiered), sorted_ids(&flat));
        assert_eq!(tiered.min(), flat.min());
        assert_eq!(tiered.max(), flat.max());
        for k in 0..vals.len() {
            assert_eq!(tiered.order_stat(k), flat.order_stat(k), "k = {k}");
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(tiered.quantile(q), flat.quantile(q), "q = {q}");
        }
        assert!(tiered.ingest_stats().leaves > 1);
    }

    #[test]
    fn promotion_happens_at_the_threshold() {
        let n = Sample::TIER_THRESHOLD + 10;
        let vals: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
        let x = Sample::new(vals.clone()).unwrap();
        assert!(x.ingest_stats().tiered, "Sample::new past the threshold");

        let mut grown = Sample::new(vals[..Sample::TIER_THRESHOLD].to_vec()).unwrap();
        assert!(!grown.ingest_stats().tiered, "at the threshold stays flat");
        grown.push(vals[Sample::TIER_THRESHOLD]).unwrap();
        assert!(grown.ingest_stats().tiered, "crossing the threshold promotes");
        grown
            .extend_from_slice(&vals[Sample::TIER_THRESHOLD + 1..])
            .unwrap();
        assert_eq!(grown, x);
    }

    #[test]
    fn sorted_runs_concatenate_to_sorted() {
        let vals: Vec<f64> = (0..50).map(|i| ((i * 13) % 17) as f64).collect();
        let mut x = s(&vals);
        x.force_tiered_for_test(4);
        let concat: Vec<f64> = x.sorted_chunks().flatten().copied().collect();
        assert_eq!(concat, x.sorted());
        let n: usize = x.sorted_runs().map(|r| r.ids.len()).sum();
        assert_eq!(n, x.len());
        for run in x.sorted_runs() {
            for (j, &id) in run.ids.iter().enumerate() {
                assert_eq!(x.values()[id as usize], run.values[j]);
            }
        }
    }

    #[test]
    fn materializations_are_counted_and_caches_invalidate() {
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut x = s(&vals);
        x.force_tiered_for_test(8);
        assert_eq!(x.ingest_stats().materializations, 0);
        // Equality walks the runs: neither side builds a flat view.
        let twin = x.clone();
        assert!(x == twin);
        assert_eq!(x.ingest_stats().materializations, 0);
        assert_eq!(twin.ingest_stats().materializations, 0);
        let _ = x.sorted();
        let _ = x.sorted(); // cached — no recount
        assert_eq!(x.ingest_stats().materializations, 1);
        x.push(1.5).unwrap(); // invalidates the view
        assert_eq!(x.sorted().len(), 65);
        assert_eq!(x.ingest_stats().materializations, 2);
        // The rebuilt view is consistent with the runs.
        for (r, &id) in sorted_ids(&x).iter().enumerate() {
            assert_eq!(x.sorted()[r], x.values()[id as usize]);
        }
    }

    #[test]
    fn skewed_ingest_keeps_leaf_runs_bounded_and_views_exact() {
        // Adversarially skewed growth: every wave hammers the same narrow
        // key range (with occasional global minima so leaf 0 churns too),
        // alternating bulk merges with per-element pushes. The leaf-run
        // count must respect the compaction bound after every write, and
        // the sample must stay bit-identical to a flat-built twin.
        let target = 8usize;
        let mut vals: Vec<f64> = (0..64).map(|i| ((i * 37) % 23) as f64).collect();
        let mut skewed = s(&vals);
        skewed.force_tiered_for_test(target);
        for wave in 0..30 {
            let batch: Vec<f64> = (0..12)
                .map(|j| {
                    if j == 11 {
                        -(wave as f64) // new global minimum
                    } else {
                        10.0 + (j as f64) * 1e-3 // hot key range
                    }
                })
                .collect();
            skewed.extend_from_slice(&batch).unwrap();
            vals.extend_from_slice(&batch);
            skewed.push(10.0005).unwrap();
            vals.push(10.0005);
            let stats = skewed.ingest_stats();
            assert!(
                stats.leaves <= 2 * vals.len().div_ceil(target) + 1,
                "wave {wave}: {} runs over {} values",
                stats.leaves,
                vals.len()
            );
        }
        let flat = s(&vals);
        assert_eq!(skewed.values(), flat.values());
        assert_eq!(skewed.sorted(), flat.sorted());
        assert_eq!(sorted_ids(&skewed), sorted_ids(&flat));
    }

    #[test]
    fn compaction_repairs_a_fragmented_index() {
        let vals: Vec<f64> = (0..120).map(|i| ((i * 13) % 29) as f64).collect();
        let mut x = s(&vals);
        // Shatter into two-element runs under a nominal target of 8:
        // far past the fragmentation bound.
        x.fragment_for_test(2, 8);
        assert_eq!(x.ingest_stats().leaves, 60);
        assert_eq!(x.ingest_stats().compactions, 0);
        // The next write must compact back to dense target-sized runs...
        x.push(3.5).unwrap();
        let stats = x.ingest_stats();
        assert_eq!(stats.compactions, 1);
        assert!(
            stats.leaves <= 2 * x.len().div_ceil(8) + 1,
            "{} runs remain",
            stats.leaves
        );
        // ...without disturbing the growth contract.
        let mut twin = vals.clone();
        twin.push(3.5);
        let flat = s(&twin);
        assert_eq!(x.values(), flat.values());
        assert_eq!(x.sorted(), flat.sorted());
        assert_eq!(sorted_ids(&x), sorted_ids(&flat));
        // The bulk path triggers the valve too.
        x.fragment_for_test(2, 8);
        x.extend_from_slice(&[9.0; 16]).unwrap();
        assert_eq!(x.ingest_stats().compactions, 2);
        assert!(x.ingest_stats().leaves <= 2 * x.len().div_ceil(8) + 1);
    }

    #[test]
    fn running_moments_track_every_growth_path() {
        let vals: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64) * 0.03125).collect();
        let mut grown = s(&vals[..1]);
        for &v in &vals[1..20] {
            grown.push(v).unwrap();
        }
        grown.extend_from_slice(&vals[20..]).unwrap();
        let batch = s(&vals);
        // Same insertion-order fold → identical bits.
        assert_eq!(grown.mean(), batch.mean());
        assert_eq!(grown.variance(), batch.variance());
        assert_eq!(grown.mean(), vals.iter().sum::<f64>() / vals.len() as f64);
        // And the moments agree with the two-pass definition numerically.
        let m = batch.mean();
        let two_pass =
            vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (vals.len() as f64 - 1.0);
        assert!((batch.variance() - two_pass).abs() < 1e-9 * two_pass.max(1.0));
        // Welford is exact on constant data — a naive Σv² − (Σv)²/n
        // running form would leave √ε·v of cancellation residue here.
        let mut flat = s(&[1e9; 3]);
        flat.extend_from_slice(&[1e9; 40]).unwrap();
        assert_eq!(flat.variance(), 0.0);
    }

    #[test]
    fn error_display() {
        assert!(SampleError::Empty.to_string().contains("at least one"));
        assert!(SampleError::NonFinite(3).to_string().contains('3'));
    }
}
